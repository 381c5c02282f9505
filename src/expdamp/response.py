"""Initialization and forced response in closed form.

With psi(t) = W*exp(-mu*t), the response to initial conditions and
history is an exponential sum over the three characteristic roots:

    x(t) = m*x0*hdot(t) + m*v0*h(t)
           + c*(mu*x0 - W) * integral_0^t h(t-tau) exp(-mu*tau) dtau,

where the first and third terms of the four-part split share one
convolution shape because the history term -c*(h*psi) is W times the
same integral.  Forcing adds a trapezoid convolution h*f on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, ResonantKernel
from .eigen import (
    EigenSolution,
    impulse_response,
    impulse_response_derivative,
    solve_eigen,
    _real_part,
)
from .history import history_weight
from .model import (
    Constant,
    HistoryProfile,
    InitialState,
    OscillatorParams,
    Sine,
    _shape_eval,
)

__all__ = [
    "Trajectory",
    "ResponseTerms",
    "exp_convolution",
    "initialization_response",
    "response_terms",
    "forced_response",
    "time_grid",
]


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled (x, xdot, psi) records starting at t0 = 0.

    The optional y column carries the internal damping variable when the
    trajectory comes from the time-domain integrator; closed-form
    trajectories leave it None.
    """

    t0: float
    dt: float
    x: np.ndarray
    xdot: np.ndarray
    psi: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        columns = {"x": self.x, "xdot": self.xdot, "psi": self.psi}
        if self.y is not None:
            columns["y"] = self.y
        arrays = {n: np.asarray(c, dtype=float) for n, c in columns.items()}
        shapes = {a.shape for a in arrays.values()}
        if len(shapes) != 1 or arrays["x"].ndim != 1:
            raise ValueError("trajectory columns must be 1-d arrays of equal length")
        if len(arrays["x"]) < 2:
            raise ValueError("a trajectory needs at least 2 samples")
        for name, col in arrays.items():
            if not np.all(np.isfinite(col)):
                raise ValueError(f"non-finite values in trajectory column {name}")
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @property
    def t(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.x)) * self.dt

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class ResponseTerms:
    """The four-part split of the initialization response."""

    term_history: float
    term_displacement: float
    term_kernel: float
    term_velocity: float

    @property
    def total(self):
        return (
            self.term_history
            + self.term_displacement
            + self.term_kernel
            + self.term_velocity
        )


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform grid of n+1 points from 0 to exactly t_end, n = round(t_end/dt).

    The endpoint is honored exactly; the step is nudged to t_end/n, which
    differs from the requested dt by at most half a step over the whole span.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_end <= 0:
        raise ValueError(f"t_end must be > 0, got {t_end}")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_end / dt is not finite for t_end = {t_end!r}, dt = {dt!r}")
    n = max(1, int(round(steps)))
    return np.arange(n + 1) * (t_end / n)


def _check_resonance(eig: EigenSolution, rate: float):
    # A mode whose residue is exactly zero (the kernel mode at c = 0)
    # contributes nothing, so a pole collision there never materializes.
    for r, s in zip(eig.residues, eig.roots):
        if r != 0 and abs(s + rate) < 1e-8 * max(abs(s), rate):
            raise ResonantKernel(
                f"characteristic root {s:.6g} coincides with -rate = {-rate:.6g}; "
                "the exponential-convolution closed form has a double pole there"
            )


def exp_convolution(eig: EigenSolution, rate: float, t):
    """Closed form of integral_0^t h(t-tau) exp(-rate*tau) dtau.

    Equals sum_j R_j (exp(s_j t) - exp(-rate t)) / (s_j + rate); requires
    every contributing root to stay clear of -rate (raises ResonantKernel
    otherwise).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("convolution is defined for t >= 0")
    _check_resonance(eig, rate)
    down = np.exp(-rate * t)
    acc = sum(
        r * (np.exp(s * t) - down) / (s + rate)
        for r, s in zip(eig.residues, eig.roots)
        if r != 0
    )
    return _real_part(acc + 0j * down)


def _exp_convolution_derivative(eig, rate, t):
    # d/dt of exp_convolution; shares its resonance precondition.
    down = np.exp(-rate * t)
    acc = sum(
        r * (s * np.exp(s * t) + rate * down) / (s + rate)
        for r, s in zip(eig.residues, eig.roots)
        if r != 0
    )
    return _real_part(acc + 0j * down)


def _weight_value(params: OscillatorParams, history: HistoryProfile | None) -> float:
    if history is None:
        return 0.0
    return history_weight(params.kernel, history).value


def _assemble(params, eig, state, w, t):
    x = params.m * state.x0 * impulse_response_derivative(eig, t)
    x = x + params.m * state.v0 * impulse_response(eig, t)
    coeff = params.c * (params.mu * state.x0 - w)
    if coeff != 0.0:
        x = x + coeff * exp_convolution(eig, params.mu, t)
    return x


def _assemble_derivative(params, eig, state, w, t):
    hddot = sum(
        r * s * s * np.exp(s * t) for r, s in zip(eig.residues, eig.roots)
    )
    v = params.m * state.x0 * _real_part(hddot)
    v = v + params.m * state.v0 * impulse_response_derivative(eig, t)
    coeff = params.c * (params.mu * state.x0 - w)
    if coeff != 0.0:
        v = v + coeff * _exp_convolution_derivative(eig, params.mu, t)
    return v


def initialization_response(
    params: OscillatorParams,
    state: InitialState,
    history: HistoryProfile | None,
    t,
):
    """Response x(t) to initial state and history, no external force."""
    eig = solve_eigen(params)
    w = _weight_value(params, history)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("response is defined for t >= 0")
    return _assemble(params, eig, state, w, t)


def response_terms(
    params: OscillatorParams,
    state: InitialState,
    history: HistoryProfile | None,
    t,
) -> ResponseTerms:
    """The four parts of the initialization response, separately.

    Their sum reproduces initialization_response; with c = 0 the history
    and kernel terms are exactly zero.
    """
    eig = solve_eigen(params)
    w = _weight_value(params, history)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("response is defined for t >= 0")
    if params.c != 0.0 and (w != 0.0 or state.x0 != 0.0):
        conv = exp_convolution(eig, params.mu, t)
    else:
        conv = 0.0 if t.ndim == 0 else np.zeros_like(t)
    zero = 0.0 if t.ndim == 0 else np.zeros_like(t)
    return ResponseTerms(
        term_history=-params.c * w * conv if params.c != 0.0 else zero,
        term_displacement=params.m * state.x0 * impulse_response_derivative(eig, t),
        term_kernel=params.c * params.mu * state.x0 * conv if params.c != 0.0 else zero,
        term_velocity=params.m * state.v0 * impulse_response(eig, t),
    )


def _forcing_on_grid(forcing, t: np.ndarray) -> np.ndarray:
    if isinstance(forcing, (Constant, Sine)):
        values = _shape_eval(forcing, t)
    elif callable(forcing):
        # The callable sees Python floats, which give the same values as
        # numpy scalars at about half the cost per call (5e4 sine points,
        # 2-CPU host: 8 ms against 15 ms).  float() rejects values that are
        # not real scalars with TypeError.
        values = np.fromiter(map(float, map(forcing, t.tolist())), float, len(t))
    else:
        values = np.asarray(forcing, dtype=float)
        if values.shape != t.shape:
            raise ValueError(
                f"sampled forcing has {values.shape[0] if values.ndim else 0} values, "
                f"grid has {len(t)}"
            )
    if not np.all(np.isfinite(values)):
        raise ValueError("forcing must be finite on the whole grid")
    return values


# The forced scan takes the grid _CHUNK steps at a time, so its
# temporaries keep one size whatever the grid length.  A doubling scan of
# the whole grid at once is memory-bound: on 5e4 points (2-CPU host, min
# of 9) it took 18 ms and 9.7 MB traced, against 7 ms and 1.8 MB chunked.
_CHUNK = 4096


def _paired_modes(eig: EigenSolution):
    # f is real, so a conjugate pair contributes 2*Re(r1*C1): one mode with
    # residue 2*r1 stands for both.  That needs s2, r2 to be the exact
    # conjugates EigenSolution promises and s3, r3 to be real.
    if eig.oscillatory:
        broken = eig.s2 != eig.s1.conjugate() or eig.r2 != eig.r1.conjugate()
        broken = broken or eig.s3.imag != 0.0 or eig.r3.imag != 0.0
        roots, residues = [eig.s1, eig.s3], [2.0 * eig.r1, eig.r3]
    else:
        broken = any(z.imag != 0.0 for z in eig.roots + eig.residues)
        roots, residues = [s.real for s in eig.roots], [r.real for r in eig.residues]
    if broken:
        raise DegenerateSpectrum(
            "spectrum breaks the conjugate-pair invariant the forced scan relies on: "
            f"roots {eig.roots}, residues {eig.residues}"
        )
    return np.array(roots), np.array(residues)


def _forced_convolution(eig: EigenSolution, f: np.ndarray, dt: float):
    """Trapezoid convolutions (h*f, hdot*f) on the uniform grid.

    Each mode obeys C_i = d*C_{i-1} + g_i with d = exp(s*dt) and
    g_i = dt/2*(d*f_{i-1} + f_i), which reproduces the trapezoid sum of
    exp(s*(t-tau))*f(tau) exactly.  f is real, so a conjugate pair is
    scanned as one complex mode s1 with residue 2*r1, next to the real
    mode s3; three real roots are scanned in float64.  The weighted sum
    is then real by construction and its real part is kept.

    Each chunk of _CHUNK steps is solved by a doubling scan: after the
    pass with lag k, element i holds the sum of d**j * g_{i-j} over its
    last 2k terms, so ceil(log2(_CHUNK)) passes replace the per-step
    loop.  The previous chunk's last value then enters element j as
    d**(j+1) * carry.
    """
    roots, residues = _paired_modes(eig)
    # powers[:, j] = d**(j+1); Re(s) <= 0, so no power overflows.  A grid
    # shorter than one chunk needs only len(f) - 1 of them.
    width = min(_CHUNK, len(f) - 1)
    powers = np.exp(np.multiply.outer(roots * dt, np.arange(1, width + 1)))
    d = powers[:, 0]
    weights = np.stack([residues, residues * roots])
    half = 0.5 * dt
    out = np.zeros((2, len(f)))
    carry = np.zeros(len(roots), dtype=roots.dtype)
    for start in range(1, len(f), _CHUNK):
        stop = min(start + _CHUNK, len(f))
        conv = half * (np.multiply.outer(d, f[start - 1 : stop - 1]) + f[start:stop])
        lag = 1
        while lag < stop - start:
            conv[:, lag:] += powers[:, lag - 1, None] * conv[:, :-lag]
            lag *= 2
        conv += powers[:, : stop - start] * carry[:, None]
        out[:, start:stop] = (weights @ conv).real
        carry = conv[:, -1]
    return out[0], out[1]


def forced_response(
    params: OscillatorParams,
    state: InitialState,
    history: HistoryProfile | None,
    forcing,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Trajectory on [0, t_end]: initialization response plus h*f.

    forcing may be None (pure initialization response, closed form per
    point), a Constant or Sine spec, a callable f(t), or an array of
    samples on the grid.
    """
    eig = solve_eigen(params)
    w = _weight_value(params, history)
    t = time_grid(t_end, dt)
    step = float(t[1])
    x = np.asarray(_assemble(params, eig, state, w, t), dtype=float)
    xdot = np.asarray(_assemble_derivative(params, eig, state, w, t), dtype=float)
    if forcing is not None:
        f = _forcing_on_grid(forcing, t)
        conv_x, conv_v = _forced_convolution(eig, f, step)
        x = x + conv_x
        xdot = xdot + conv_v
    psi_col = w * np.exp(-params.mu * t)
    # The modal sums reproduce the initial state only while the residues
    # stay well conditioned; near a double root they cancel to a few digits.
    scale = max(1.0, abs(state.x0), abs(state.v0))
    mismatch = max(abs(x[0] - state.x0), abs(xdot[0] - state.v0))
    if mismatch > 1e-9 * scale:
        raise DegenerateSpectrum(
            f"closed form misses the initial state by {mismatch:.3g} "
            f"(tolerance {1e-9 * scale:.3g}); the roots are too close to resolve"
        )
    return Trajectory(t0=0.0, dt=step, x=x, xdot=xdot, psi=psi_col)
