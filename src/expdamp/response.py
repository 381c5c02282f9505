"""Initialization response in closed form; forced response by one scan.

With psi(t) = W*exp(-mu*t), the response to initial conditions and
history is an exponential sum over the three characteristic roots:

    x(t) = m*x0*hdot(t) + m*v0*h(t)
           + c*(mu*x0 - W) * integral_0^t h(t-tau) exp(-mu*tau) dtau,

where the first and third terms of the four-part split share one
convolution shape because the history term -c*(h*psi) is W times the
same integral.  With conv that integral, conv' = h - mu*conv, and the
equation of motion of h (h(0) = 0) reads m*hddot = -k*h - c*mu*(h - mu*conv),
so xdot = m*v0*hdot - k*x0*h - c*W*(h - mu*conv) needs no further sums.
Any given forcing, zero included, instead scans (x, v, y) from (x0, v0, W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, ResonantKernel, StepTooLarge
from .eigen import (
    EigenSolution,
    impulse_response,
    impulse_response_derivative,
    solve_eigen,
    _real_part,
)
from .history import HistoryWeight, history_weight
from .model import (
    Constant,
    HistoryProfile,
    InitialState,
    OscillatorParams,
    Sine,
    _hold,
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
    """Uniformly sampled (x, xdot) from t = 0, and the history weight W.

    t and psi(t) = W*exp(-mu*t) are computed from dt and weight on access.
    The optional y column carries the internal damping variable when the
    trajectory comes from a scan of (x, v, y); the closed form leaves it None.
    """

    dt: float
    x: np.ndarray
    xdot: np.ndarray
    weight: HistoryWeight
    y: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not isinstance(self.weight, HistoryWeight):
            raise TypeError(f"weight must be a HistoryWeight, got {self.weight!r}")
        if not math.isfinite(self.weight.value):
            raise ValueError(f"non-finite history weight {self.weight.value}")
        columns = {"x": self.x, "xdot": self.xdot}
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
        return np.arange(len(self.x)) * self.dt

    @property
    def psi(self) -> np.ndarray:
        return self.weight.psi(self.t)

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
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if t_end <= 0:
        raise ValueError(f"t_end must be > 0, got {t_end}")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_end / dt is not finite for t_end = {t_end!r}, dt = {dt!r}")
    n = max(1, int(round(steps)))
    return np.arange(n + 1) * (t_end / n)


def exp_convolution(eig: EigenSolution, rate: float, t):
    """Closed form of integral_0^t h(t-tau) exp(-rate*tau) dtau.

    Equals sum_j R_j (exp(s_j t) - exp(-rate t)) / (s_j + rate).  Raises
    ResonantKernel when a contributing root lies within a relative 1e-8 of
    -rate, a double pole unless rate = mu.  There R_j = (mu + s_j)/p'(s_j)
    holds the same float as s_j + mu, so each quotient is 1/p'(s_j) to
    rounding; the closed-form responses call the sum without this guard.
    """
    t = np.asarray(t, dtype=float)
    if not (-math.inf < rate < math.inf and np.all(t >= 0)):
        raise ValueError(f"convolution is defined for t >= 0 and a finite rate, (rate = {rate})")
    # A mode whose residue is exactly zero (the kernel mode at c = 0)
    # contributes nothing, so a pole collision there never materializes.
    for r, s in zip(eig.residues, eig.roots):
        if r != 0 and abs(s + rate) < 1e-8 * max(abs(s), rate):
            raise ResonantKernel(
                f"characteristic root {s:.6g} coincides with -rate = {-rate:.6g}; "
                "the exponential-convolution closed form has a double pole there"
            )
    return _exp_convolution(eig, rate, t)


def _exp_convolution(eig, rate, t):
    down = np.exp(-rate * t)
    acc = sum(
        r * (np.exp(s * t) - down) / (s + rate)
        for r, s in zip(eig.residues, eig.roots)
        if r != 0
    )
    return _real_part(acc + 0j * down)


def _assemble(params, eig, state, w, t):
    x = params.m * state.x0 * impulse_response_derivative(eig, t)
    x = x + params.m * state.v0 * impulse_response(eig, t)
    return x + params.c * (params.mu * state.x0 - w) * _exp_convolution(eig, params.mu, t)


def _assemble_derivative(params, eig, state, w, t):
    # d/dt of _assemble on its own three sums (see the module docstring).
    h = impulse_response(eig, t)
    v = params.m * state.v0 * impulse_response_derivative(eig, t) - params.k * state.x0 * h
    return v - params.c * w * (h - params.mu * _exp_convolution(eig, params.mu, t))


def _closed_form(params, state, history, t):
    """(eig, weight, t) of the closed form; DegenerateSpectrum when its
    modal sums miss (x0, v0) at t = 0."""
    eig = solve_eigen(params)
    weight = history_weight(params.kernel, history)
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("response is defined for t >= 0")
    # The modal sums reproduce the initial state only while the residues
    # stay well conditioned; near a double root they cancel to a few digits.
    # xdot(0) is d/dt of _assemble term by term, so unlike _assemble_derivative
    # it also tests hddot(0) = sum R_j s_j^2 = 0, which _validate does not; at
    # mu >> |s_j| the rounding of conv'(0)'s quotients sets which spectra raise.
    m, c, mu, x0, v0, w = params.m, params.c, params.mu, state.x0, state.v0, weight.value
    res, roots = np.array(eig.residues), np.array(eig.roots)
    live = res != 0
    conv_dot0 = _real_part(np.sum(res[live] * (roots[live] + mu) / (roots[live] + mu)))
    xdot0 = m * x0 * _real_part(np.sum(res * roots * roots))
    xdot0 = xdot0 + m * v0 * impulse_response_derivative(eig, 0.0) + c * (mu * x0 - w) * conv_dot0
    scale = max(1.0, abs(x0), abs(v0))
    mismatch = max(abs(_assemble(params, eig, state, w, 0.0) - x0), abs(xdot0 - v0))
    if mismatch > 1e-9 * scale:
        raise DegenerateSpectrum(
            f"closed form misses the initial state by {mismatch:.3g} "
            f"(tolerance {1e-9 * scale:.3g}); the roots are too close to resolve"
        )
    return eig, weight, t


def initialization_response(
    params: OscillatorParams,
    state: InitialState,
    history: HistoryProfile | None,
    t,
):
    """Response x(t) to initial state and history, no external force."""
    eig, weight, t = _closed_form(params, state, history, t)
    return _assemble(params, eig, state, weight.value, t)


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
    eig, weight, t = _closed_form(params, state, history, t)
    conv = _exp_convolution(eig, params.mu, t)
    return ResponseTerms(
        term_history=-params.c * weight.value * conv,
        term_displacement=params.m * state.x0 * impulse_response_derivative(eig, t),
        term_kernel=params.c * params.mu * state.x0 * conv,
        term_velocity=params.m * state.v0 * impulse_response(eig, t),
    )


def _forcing_on_grid(forcing, t: np.ndarray) -> np.ndarray:
    if isinstance(forcing, (Constant, Sine)):
        values = _shape_eval(forcing, t)
    elif callable(forcing):
        # The callable sees Python floats, which give the same values as
        # numpy scalars at about half the cost per call (5e4 sine points,
        # 2-CPU host: 8 ms against 15 ms).  float() rejects values that are
        # not real scalars with TypeError.  A list of Python floats takes
        # about four times the memory of their array, so only one chunk's
        # list is alive at a time.
        values = np.empty(len(t))
        for start in range(0, len(t), _CHUNK):
            part = t[start : start + _CHUNK].tolist()
            values[start : start + len(part)] = np.fromiter(
                map(float, map(forcing, part)), float, len(part)
            )
    else:
        values = np.asarray(forcing)
        # The float cast would drop an imaginary part with only a warning.
        if np.iscomplexobj(values):
            raise TypeError(f"sampled forcing must be real, got dtype {values.dtype}")
        values = values.astype(float, copy=False)
        if values.shape != t.shape:
            raise ValueError(
                f"sampled forcing has shape {values.shape}, grid has shape {t.shape}"
            )
    if not np.all(np.isfinite(values)):
        raise ValueError("forcing must be finite on the whole grid")
    return values


# _scan takes the grid _CHUNK columns at a time, so its temporaries keep
# one size whatever the grid length.  A doubling scan of the whole grid at
# once is memory-bound: on 3 x 1e6 columns (2-CPU host, min of 9) it took
# 77 ms and 24 MB traced, against 41 ms and 0.15 MB chunked.
_CHUNK = 4096


def _scan(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z_i <- p @ z_{i-1} + z_i along the columns, in place.

    Each chunk of _CHUNK columns is solved by doubling: after the pass
    with lag k, column i holds p**j @ z_{i-j} summed over its last 2k
    terms.  A chunk's first column first takes p @ the previous chunk's
    last column, which the passes then carry through the chunk.  Powers
    of p are squared in long double, because squared in float64 they
    drift like lag*eps.
    """
    powers = []
    power = np.asarray(p, dtype=np.longdouble)
    while 2 ** len(powers) < min(_CHUNK, z.shape[1]):
        powers.append(power.astype(float))
        power = power @ power
    for start in range(0, z.shape[1], _CHUNK):
        block = z[:, start : start + _CHUNK]
        if start:
            block[:, 0] += p @ z[:, start - 1]
        for j, power in enumerate(powers):
            block[:, 2**j :] += power @ block[:, : -(2**j)]
    return z


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of one small matrix: scaling, degree-16 Taylor, squaring."""
    norm = min(float(np.abs(a).sum(axis=0).max()), 1e300)  # a long double can cast to inf
    s = max(0, math.ceil(math.log2(max(norm, 1e-300) / 0.25)))
    scaled = a / 2.0**s
    out = term = np.eye(len(a))
    for j in range(1, 17):
        term = term @ scaled / j
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _forced_convolution(params, f: np.ndarray, dt: float, z0):
    """Cubic-hold response (x, v, y) to the forcing samples f from state z0.

    z = (x, v, y) obeys z' = A z + b f, b = (0, 1/m, 0), and y(0) = W holds
    the whole history, so z0 = (x0, v0, W) is the full initial state; from
    rest the rows are h*f and hdot*f.  On the exact step map P = exp(A*dt),
    kept in long double (in float64 its rounding grows like n*eps), step i
    adds g_i, the exact integral of exp(A*(dt - s)) b against the cubic hold
    of f on that step (model._hold): z_i = P z_{i-1} + g_i, a _scan.  So the
    result is exact for cubic f and O(dt^4) for smooth f.

    With tau = s/dt, g_i = sum_j c_j Gamma_j for the cubic sum_j c_j tau^j,
    where Gamma_j = integral_0^1 exp(A*dt*(1 - tau)) b dt tau^j dtau is j!
    dt/m times column 3 + j of exp([[A dt, e1 e0'], [0, N]]), N the 4 x 4
    shift (Van Loan 1978): linear in the forcing column, which enters at
    unit scale so that dt/m cannot inflate the block's norm.

    The block holds S A S^-1 dt, S = diag(2^p, 1, 2^q), whose entries are
    near omega dt, sqrt(c mu/m) dt and mu dt: then _expm's scaling, and so
    the result, do not depend on the unit of time.  S leaves b alone, and
    undoing it on P and Gamma is exact, since it holds powers of two.
    """
    m, c, k, mu = params.m, params.c, params.k, params.mu
    ek, em, ec, emu = (math.frexp(v)[1] for v in (k, m, c, mu))
    exps = [(ek - em) // 2, 0, (ec - em - emu) // 2 if c else 0]
    s = np.ldexp(np.ones(3, dtype=np.longdouble), exps)
    a = np.array([[0, 1, 0], [-k / m, 0, -c / m], [0, mu, -mu]], dtype=np.longdouble)
    block = np.zeros((7, 7), dtype=np.longdouble)
    block[:3, :3] = a * s[:, None] / s * dt
    block[1, 3] = 1
    block[3:, 3:] = np.eye(4, k=1)
    # An overflow in P, Gamma or the scan leaves a NaN or inf in the last column.
    with np.errstate(over="ignore", invalid="ignore"):
        e = _expm(block)[:3] / s[:, None]
        gamma = (e[:, 3:] * [1, 1, 2, 6] * (np.longdouble(dt) / m)).astype(float)
        g = np.empty((3, len(f)))
        g[:, 0] = z0
        _hold(f, gamma, g[:, 1:])
        z = _scan(e[:, :3] * s, g)
    if not np.isfinite(z[:, -1]).all():
        raise StepTooLarge(f"the step map or the scan leaves float64's range at dt = {dt:g}")
    return z


def forced_response(
    params: OscillatorParams,
    state: InitialState,
    history: HistoryProfile | None,
    forcing,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Trajectory on [0, t_end]: initialization response plus h*f.

    forcing=None gives the closed form, without y.  A Constant or Sine spec,
    a callable f(t) or grid samples, zero or not, give one scan from
    (x0, v0, W), exact at t=0, free of roots and residues, with its y row.
    """
    t = time_grid(t_end, dt)
    step = float(t[1])
    if forcing is not None:
        f = _forcing_on_grid(forcing, t)
        del t  # the scan needs only the samples and its own result
        weight = history_weight(params.kernel, history)
        x, xdot, y = _forced_convolution(params, f, step, (state.x0, state.v0, weight.value))
        return Trajectory(dt=step, x=x, xdot=xdot, weight=weight, y=y)
    eig, weight, t = _closed_form(params, state, history, t)
    x = np.asarray(_assemble(params, eig, state, weight.value, t), dtype=float)
    xdot = np.asarray(_assemble_derivative(params, eig, state, weight.value, t), dtype=float)
    return Trajectory(dt=step, x=x, xdot=xdot, weight=weight)
