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
    _check_finite,
    _shape_eval,
    _times,
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
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    t_end, dt = _check_finite("t_end", t_end), _check_finite("dt", dt)
    if t_end <= 0:
        raise ValueError(f"t_end must be > 0, got {t_end}")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_end / dt is not finite for t_end = {t_end!r}, dt = {dt!r}")
    n = max(1, int(round(steps)))
    return np.arange(n + 1) * (t_end / n)


def exp_convolution(eig: EigenSolution, rate: float, t):
    """Closed form of integral_0^t h(t-tau) exp(-rate*tau) dtau, finite t >= 0.

    Equals sum_j R_j (exp(s_j t) - exp(-rate t)) / (s_j + rate).  Raises
    ResonantKernel when a contributing root lies within a relative 1e-8 of
    -rate, a double pole unless rate = mu.  There R_j = (mu + s_j)/p'(s_j)
    holds the same float as s_j + mu, so each quotient is 1/p'(s_j) to
    rounding; the closed-form responses call the sum without this guard.
    """
    t = _times(t, "the convolution")
    if not -math.inf < rate < math.inf:
        raise ValueError(f"the convolution rate must be finite, got {rate}")
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
    """(eig, weight, t) of the closed form at finite t >= 0; DegenerateSpectrum
    when its modal sums miss (x0, v0) at t = 0."""
    eig = solve_eigen(params)
    weight = history_weight(params.kernel, history)
    t = _times(t, "the response")
    # The modal sums reproduce the initial state only while the residues
    # stay well conditioned; near a double root they cancel to a few digits.
    # xdot(0) is d/dt of _assemble term by term, so unlike _assemble_derivative
    # it also tests hddot(0) = sum R_j s_j^2 = 0, which _validate does not; at
    # mu >> |s_j| the rounding of conv'(0)'s quotients sets which spectra raise.
    # Past float64's range a sum overflows to inf or NaN, which fails the check.
    m, c, mu, x0, v0, w = params.m, params.c, params.mu, state.x0, state.v0, weight.value
    res, roots = np.array(eig.residues), np.array(eig.roots)
    live = res != 0
    with np.errstate(over="ignore", invalid="ignore"):
        conv_dot0 = _real_part(np.sum(res[live] * (roots[live] + mu) / (roots[live] + mu)))
        xdot0 = m * x0 * _real_part(np.sum(res * roots * roots))
        xdot0 += m * v0 * impulse_response_derivative(eig, 0.0) + c * (mu * x0 - w) * conv_dot0
        x_0 = _assemble(params, eig, state, w, 0.0)
    scale = max(1.0, abs(x0), abs(v0))
    mismatch = np.maximum(abs(x_0 - x0), abs(xdot0 - v0))  # NaN if either is
    if not mismatch <= 1e-9 * scale:
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
    """Response x(t) to initial state and history, no external force; finite t >= 0."""
    eig, weight, t = _closed_form(params, state, history, t)
    return _assemble(params, eig, state, weight.value, t)


def response_terms(
    params: OscillatorParams,
    state: InitialState,
    history: HistoryProfile | None,
    t,
) -> ResponseTerms:
    """The four parts of the initialization response at finite t >= 0.

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
        # 2-CPU host: 8 ms against 15 ms), read one at a time off a
        # memoryview of the grid, so no list of it is built.  float()
        # rejects values that are not real scalars with TypeError.
        values = np.fromiter(map(float, map(forcing, memoryview(t))), float, len(t))
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


# Steps are taken _BLOCK at a time.  A block of 8 costs one product of
# 8 + 3 + 3 inputs (its samples, the 3 its last steps read past it, and the
# state it starts from) by 24 outputs: 42 multiply-adds a step, where 16
# would cost 66, and fewer would leave more block ends to carry.  It must
# be a power of two for the squarings in _operators.  OpenBLAS keeps a
# product on one thread while m*n*k <= 2**18 = _MNK and splits it above
# that; on a loaded 2-CPU host the split products were slow and erratic
# (5e4 points in 4096-row products took 4.4 ms, in 780-row ones 0.2 ms),
# so each product takes at most _MNK // (its other two sizes) rows.
_BLOCK = 8
_MNK = 2**18


def _operators(dp: np.ndarray, steps: int, taps=None) -> list[np.ndarray]:
    """The float64 operators of _blocks for `steps` steps of the step map
    p = I + dp, the increment dp in long double, one per level, built together.

    Level L steps with phi = p**(_BLOCK**L).  Its operator has a row per
    input and a column per (step k, component j) of a block: for input i
    of the drive of step l, (phi**(k-l))[j, i] when k >= l; below those,
    d rows [phi**1 .. phi**_BLOCK] that carry the state a block starts
    from.  At level 0, taps (d x w) first map a window of _BLOCK + w - 1
    samples to the drives, drive l = sum_r taps[:, r] sample[l + r].  Only
    the squarings of dp run in long double; the powers of phi are float64.
    """
    d, log2 = len(dp), _BLOCK.bit_length() - 1
    levels, blocks = 1, -(-steps // _BLOCK)
    while blocks > 1:
        levels, blocks = levels + 1, -(-(blocks - 1) // _BLOCK)
    # p**(2**k) - 1 by squaring, (1 + D)**2 = 1 + (2 + D) D, so that the
    # rounding of each square is relative to D, not to 1.
    chain = np.empty((levels * log2 + 1, d, d), dtype=np.longdouble)
    chain[0], two = dp, 2 * np.eye(d)
    for k in range(levels * log2):
        np.matmul(chain[k], chain[k] + two, out=chain[k + 1])
    chain += np.eye(d)
    table = np.empty((levels, _BLOCK + 1, d, d))  # phi**j
    table[:, 0], table[:, 1] = np.eye(d), chain[:-1:log2]
    for k in range(1, log2 + 1):
        have = 2**k
        take = min(have, _BLOCK + 1 - have)
        table[:, have : have + take] = table[:, :take] @ chain[k::log2, None]
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))  # l - k
    power, upper = np.maximum(-lag, 0), (lag <= 0)[:, :, None, None]
    ops = np.where(upper, table[:, power], 0).transpose(0, 1, 4, 2, 3)
    ops = ops.reshape(levels, _BLOCK * d, _BLOCK * d)
    carry = table[:, 1:].transpose(0, 3, 1, 2).reshape(levels, d, _BLOCK * d)
    out = list(np.concatenate([ops, carry], axis=1))
    if taps is not None:
        # Sample l + r of a window is tap r of step l's drive.
        w = taps.shape[1]
        spread = np.where(upper, (table[0, :_BLOCK] @ taps)[power], 0)
        hold = np.zeros((_BLOCK + w - 1, _BLOCK, d))
        for r in range(w):
            hold[r : r + _BLOCK] += spread[..., r]
        out[0] = np.concatenate([hold.reshape(_BLOCK + w - 1, -1), carry[0]])
    return out


def _blocks(ops: list[np.ndarray], z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """z[i] <- phi @ z[i-1] + (drive of step i) for i >= 1, _BLOCK steps at a
    time, with ops from _operators of the increment phi - I and z of
    1 + nb*_BLOCK rows of d, z[0] the initial state; _scan lays out both,
    and only it calls in here.

    u holds the inputs: a 2-d u (it may be z[1:]) gives step i the drive
    u[i - 1]; a 1-d u, at least (nb + 1)*_BLOCK long, gives step i the
    samples u[i - 1 : i + w - 1] of the taps.  Block b's states from rest
    are its window of u times ops[0]; the states the blocks start from
    obey the same recurrence with phi**_BLOCK, solved first by the next
    level; then each block adds [phi**1 .. phi**_BLOCK] times its own.
    """
    op, d = ops[0], z.shape[1]
    nb, width = (len(z) - 1) // _BLOCK, len(op) - d
    # x1 holds each block's own inputs; x2, for taps, the w - 1 samples
    # that its last steps read from the next block.
    x1 = u[: nb * _BLOCK].reshape(nb, -1)
    own = x1.shape[1]
    x2 = u[_BLOCK : (nb + 1) * _BLOCK].reshape(nb, -1)[:, : width - own] if width > own else None
    ends = z[:1]
    if nb > 1:
        ends = np.zeros((1 + -(-(nb - 1) // _BLOCK) * _BLOCK, d))
        ends[0] = z[0]
        rows = _MNK // (own * d)
        for b0 in range(0, nb - 1, rows):
            b1 = min(nb - 1, b0 + rows)
            out = np.matmul(x1[b0:b1], op[:own, -d:], out=ends[1 + b0 : 1 + b1])
            if x2 is not None:
                out += x2[b0:b1] @ op[own:width, -d:]
        _blocks(ops[1:], ends, ends[1:])
    rows = _MNK // op.size
    buf = np.empty((min(rows, nb), len(op)), order="F")  # column copies run long
    for b0 in range(0, nb, rows):
        b1 = min(nb, b0 + rows)
        buf[: b1 - b0, :own] = x1[b0:b1]
        if x2 is not None:
            buf[: b1 - b0, own:width] = x2[b0:b1]
        buf[: b1 - b0, width:] = ends[b0:b1]
        np.matmul(buf[: b1 - b0], op, out=z[1 + b0 * _BLOCK : 1 + b1 * _BLOCK].reshape(b1 - b0, -1))
    return z


# The cubic hold: step i of a sampled signal, from t_i to t_i + dt, reads the
# cubic through its samples at tau = (t - t_i)/dt = -1..2; six times the
# inverse of the Vandermonde matrix on those nodes, an integer matrix, maps
# the four samples (columns) to six times its tau^0..tau^3 coefficients (rows).
_HOLD_SIXTHS = np.array([[0, 6, 0, 0], [-2, -3, 6, -1], [3, -6, 3, 0], [-1, 3, -3, 1]])


def _extend(f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[:n + 2] = the n samples f with one node past each end, so that step
    i of the cubic hold reads its four nodes at out[i:i + 4]; returns out.

    Each end node lies on the polynomial through the d + 1 = min(4, n)
    nearest samples: the weights (-1)^j C(d+1, j+1) zero the (d+1)-th
    difference.  So the hold is exact for cubic f, the end steps included.
    """
    n, d = len(f), min(3, len(f) - 1)
    ends = [(-1) ** j * math.comb(d + 1, j + 1) for j in range(d + 1)]
    out[0] = np.dot(ends, f[: d + 1])
    out[1 : n + 1] = f
    out[n + 1] = np.dot(ends, f[: -d - 2 : -1])
    return out


def _scan(dp: np.ndarray, z0, u: np.ndarray, moments=None) -> np.ndarray:
    """States z_i = z_{i-1} + dp @ z_{i-1} + (drive of step i) from z0, as an
    (n, d) array, dp the increment of the step map: the one entry to
    _operators and _blocks.  The n - 1 rows of u are the drives; or, with
    moments (d x 4: what d functionals give for tau^0..tau^3), u holds n
    samples, read through the cubic hold by the taps moments @ _HOLD_SIXTHS / 6.
    """
    n = len(u) + (moments is None)
    nb = -(-(n - 1) // _BLOCK)
    z = np.empty((1 + nb * _BLOCK, len(dp)))
    z[0], taps = z0, None
    if moments is None:
        z[1:n], z[n:] = u, 0
        u = z[1:]
    else:
        taps = np.asarray(moments, float) @ _HOLD_SIXTHS / 6
        u = _extend(u, np.zeros((nb + 1) * _BLOCK))
    return _blocks(_operators(np.asarray(dp, dtype=np.longdouble), n - 1, taps), z, u)[:n]


# 1/j! for j = 0..19, as the (5, 4) coefficients of _expm's Paterson-
# Stockmeyer form; j = 0, the identity, and those past degree 16 are zero.
_TAYLOR = np.array([1 / np.longdouble(math.factorial(j)) if 0 < j <= 16 else 0 for j in range(20)])
_TAYLOR = _TAYLOR.reshape(5, 4)


def _expm(a: np.ndarray) -> np.ndarray:
    """The increment exp(a) - I: scaling, degree-16 Taylor, D <- D (D + 2) squaring.

    The Taylor sum is sum_i (sum_r x**r / (4i + r)!) (x**4)**i, by Horner in
    x**4 (Paterson & Stockmeyer 1973): 7 products where term by term takes 16.
    """
    norm = min(float(np.abs(a).sum(axis=0).max()), 1e300)  # a long double can cast to inf
    s = max(0, math.ceil(math.log2(max(norm, 1e-300) / 0.25)))
    x = a / 2.0**s
    powers = [np.eye(len(a), dtype=a.dtype), x, x @ x]
    powers.append(powers[2] @ x)
    parts = np.tensordot(_TAYLOR.astype(a.dtype), np.array(powers), 1)
    out, x4 = parts[4], powers[2] @ powers[2]
    for part in parts[3::-1]:
        out = out @ x4 + part
    for _ in range(s):
        if not np.isfinite(out).all():
            break  # a non-finite entry stays so in every later square
        out = out @ (out + 2 * np.eye(len(a)))
    return out


def _step_map(params, dt: float):
    """(P - I, Gamma) in long double: P = exp(A*dt) for z = (x, v, y), obeying
    z' = A z + b f, b = (0, 1/m, 0); Gamma = [Gamma_0 .. Gamma_3], the
    integrals over one step of exp(A*(dt - s)) b against (s/dt)**j.

    With tau = s/dt, Gamma_j = integral_0^1 exp(A*dt*(1 - tau)) b dt tau^j
    dtau is j! dt/m times column 3 + j of exp([[A dt, e1 e0'], [0, N]]), N
    the 4 x 4 shift (Van Loan 1978): linear in the forcing column, which
    enters at unit scale so that dt/m cannot inflate the block's norm.

    The block holds S A S^-1 dt, S = diag(2^p, 1, 2^q), whose entries are
    near omega dt, sqrt(c mu/m) dt and mu dt: then _expm's scaling, and so
    the result, do not depend on the unit of time.  S leaves b and I alone,
    and undoing it on P - I and Gamma is exact: it holds powers of two.
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
    e = _expm(block)[:3] / s[:, None]
    return e[:, :3] * s, e[:, 3:] * [1, 1, 2, 6] * (np.longdouble(dt) / m)


def _forced_convolution(params, f: np.ndarray, dt: float, z0) -> np.ndarray:
    """Cubic-hold response to the forcing samples f from state z0, as an
    (n, 3) array of rows (x, v, y).

    y(0) = W holds the whole history, so z0 = (x0, v0, W) is the full
    initial state; from rest the columns are h*f and hdot*f.  Step i adds
    g_i = Gamma c_i, c_i the tau^0..tau^3 coefficients of the cubic hold on
    step i, so z_i = z_{i-1} + (P - I) z_{i-1} + g_i is exact for cubic f and
    O(dt^4) for smooth f (_step_map): _scan of the increment P - I and Gamma.
    """
    # An overflow in P - I, Gamma or the scan leaves a NaN or inf in the last row.
    with np.errstate(over="ignore", invalid="ignore"):
        dp, gamma = _step_map(params, dt)
        z = _scan(dp, z0, f, gamma)
    if not np.isfinite(z[-1]).all():
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
        z0 = (state.x0, state.v0, weight.value)
        x, xdot, y = _forced_convolution(params, f, step, z0).T
        return Trajectory(dt=step, x=x, xdot=xdot, weight=weight, y=y)
    eig, weight, t = _closed_form(params, state, history, t)
    x = np.asarray(_assemble(params, eig, state, weight.value, t), dtype=float)
    xdot = np.asarray(_assemble_derivative(params, eig, state, weight.value, t), dtype=float)
    return Trajectory(dt=step, x=x, xdot=xdot, weight=weight)
