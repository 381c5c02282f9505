"""Seeded scenario generators and the benchmark's own spectral arithmetic.

Nothing here imports expdamp: inputs are plain numbers, and the
reference quantities (roots of the state matrix, an exact 3x3 matrix
exponential, Gauss-Legendre history weights) come from independent
numpy code.

Parameter distribution (the acceptance tests'): m and k log-uniform on
[0.1, 10], c uniform on [0.05, 5], mu log-uniform on [0.1, 100].
Scenario classes:

- ``osc``: a draw from that distribution whose cubic has a complex pair;
- ``real3``: a draw whose cubic has three real roots;
- ``c0``: a draw with c set to exactly 0 (undamped pair, kernel mode);
- ``real3c``: three well-separated real roots built as m(s+a)(s+b)(s+d);
- ``dbl``: m(s+a)^2(s+b) with c scaled by 1+delta, delta log-uniform on
  [1e-9, 1e-3] (near-double root; the smallest deltas are degenerate);
- ``res``: tiny c, so the real root sits within 1e-10..1e-6 (relative)
  of the kernel rate -mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HISTORY_KINDS = ("constant", "sine", "polynomial", "samples")


@dataclass(frozen=True)
class Params:
    m: float
    c: float
    k: float
    mu: float


@dataclass(frozen=True)
class History:
    kind: str
    a: float
    values: tuple  # constant: (v,); sine: (amp, omega, phase); polynomial: coeffs; samples


@dataclass(frozen=True)
class Forcing:
    kind: str  # "constant", "sine" or "samples" (samples of offset + amp*sin(omega*t + phase))
    offset: float
    amp: float
    omega: float
    phase: float

    def value(self, t):
        if self.kind == "constant":
            return self.offset + 0.0 * np.asarray(t, dtype=float)
        return self.offset + self.amp * np.sin(self.omega * np.asarray(t, dtype=float) + self.phase)

    def callable(self):
        """The forcing as a Python callable, the way `osc respond` builds it."""
        if self.kind == "constant":
            value = self.offset
            return lambda ti: value
        offset, amp, omega, phase = self.offset, self.amp, self.omega, self.phase
        return lambda ti: offset + amp * math.sin(omega * ti + phase)


# --------------------------------------------------------------------------
# Spectral arithmetic.


def state_matrix(p: Params) -> np.ndarray:
    """A with z' = A z for z = (x, v, y); its eigenvalues are the cubic's roots."""
    return np.array([
        [0.0, 1.0, 0.0],
        [-p.k / p.m, 0.0, -p.c / p.m],
        [0.0, p.mu, -p.mu],
    ])


def roots(p: Params) -> np.ndarray:
    return np.linalg.eigvals(state_matrix(p))


def discriminant(p: Params) -> float:
    """Discriminant of the monic cubic; < 0 means one real root and a complex pair."""
    b, c, d = p.mu, (p.k + p.c * p.mu) / p.m, p.k * p.mu / p.m
    return 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d


def step_guard(p: Params) -> float:
    """The RK4 oracle's step limit: 5% of the shortest system time scale."""
    r = roots(p)
    mags, imag = np.abs(r), np.abs(r.imag)
    pair = mags[int(np.argmax(imag))] if imag.max() > 1e-9 * mags.max() else mags.max()
    return 0.05 * min(1.0 / p.mu, 2.0 * math.pi / pair)


def reference_step(p: Params) -> float:
    """Step at which RK4 reaches ~1e-8 relative error over 1e4 steps.

    |s| h = 0.01 gives a per-step amplification error of 0.01^5/120, so
    1e4 steps accumulate about 1e-8; the oracle's own guard also holds.
    """
    return min(0.01 / float(np.max(np.abs(roots(p)))), 0.99 * step_guard(p))


def expm_batch(mats: np.ndarray) -> np.ndarray:
    """exp of a stack of small matrices: scaling, degree-16 Taylor, squaring."""
    norms = np.abs(mats).sum(axis=-1).max(axis=-1)
    s = np.maximum(0, np.ceil(np.log2(np.maximum(norms, 1e-300) / 0.25))).astype(int)
    scaled = mats / (2.0 ** s)[:, None, None]
    eye = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape)
    out = eye.copy()
    term = eye.copy()
    for j in range(1, 17):
        term = term @ scaled / j
        out = out + term
    for j in range(int(s.max(initial=0))):
        out = np.where((j < s)[:, None, None], out @ out, out)
    return out


def _expm_extended(a: np.ndarray) -> np.ndarray:
    """exp(a) in extended precision: scaling, degree-24 Taylor, squaring."""
    a = np.asarray(a, dtype=np.longdouble)
    s = max(0, math.ceil(math.log2(max(float(np.abs(a).sum(axis=0).max()), 1e-300) / 0.25)))
    scaled = a / np.longdouble(2.0) ** s
    out = term = np.eye(len(a), dtype=np.longdouble)
    for j in range(1, 25):
        term = term @ scaled / j
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def free_reference(p: Params, z0, dt: float, n: int) -> np.ndarray:
    """Exact free response: z(j dt) = exp(A dt)^j z0 for j = 0..n.

    z = (x, v, y) with y(0) = W, the history weight, so this is the
    trajectory with no forcing, and z0 = (0, 0, W) gives the history term
    alone.  Each column of z0 is a separate initial state.  Extended
    precision keeps the n products to about n * 1e-19, far below the
    closed form's error.  Returns shape (n + 1, 3, columns) in float64.
    """
    step = _expm_extended(state_matrix(p) * np.longdouble(dt))
    z = np.asarray(z0, dtype=np.longdouble).reshape(3, -1)
    out = np.empty((n + 1, 3, z.shape[1]), dtype=np.longdouble)
    out[0] = z
    for j in range(1, n + 1):
        z = step @ z
        out[j] = z
    return out.astype(float)


def impulse_reference(params: list, grid: np.ndarray) -> np.ndarray:
    """h(t) on a uniform grid for each parameter set, via exp(A dt) powers."""
    dt = float(grid[1] - grid[0])
    a = np.stack([state_matrix(p) for p in params])
    step = expm_batch(a * dt)
    z = np.zeros((len(params), 3))
    z[:, 1] = [1.0 / p.m for p in params]
    out = np.empty((len(params), len(grid)))
    out[:, 0] = 0.0
    for j in range(1, len(grid)):
        z = np.einsum("nij,nj->ni", step, z)
        out[:, j] = z[:, 0]
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def history_velocity(h: History, tau):
    tau = np.asarray(tau, dtype=float)
    if h.kind == "constant":
        return np.full_like(tau, h.values[0])
    if h.kind == "sine":
        amp, omega, phase = h.values
        return amp * np.sin(omega * tau + phase)
    if h.kind == "polynomial":
        return np.polynomial.polynomial.polyval(tau, h.values)
    return np.interp(tau, np.linspace(-h.a, 0.0, len(h.values)), h.values)


def history_weight_reference(mu: float, h: History) -> tuple[float, float]:
    """(W, scale): W = mu * int_{-a}^0 e^{mu tau} v(tau) dtau and the same
    integral of |v|, for judging the error of W."""
    if h.kind == "samples":
        grid = np.linspace(-h.a, 0.0, len(h.values))
        g = np.exp(mu * grid) * np.asarray(h.values)
        step = grid[1] - grid[0]
        w = mu * step * float(np.sum(g[:-1] + g[1:])) / 2.0
        return w, mu * step * float(np.sum(np.abs(g[:-1]) + np.abs(g[1:]))) / 2.0
    lo = -min(h.a, 50.0 / mu)  # e^{-50} of the weight lies beyond lo
    tau = 0.5 * lo * (1.0 - _GL_NODES)
    f = np.exp(mu * tau) * history_velocity(h, tau)
    scale = -0.5 * lo * mu
    return scale * float(_GL_WEIGHTS @ f), scale * float(_GL_WEIGHTS @ np.abs(f))


def spectral_residuals(p: Params, s_list, r_list) -> float:
    """Worst of the acceptance criterion-1 identities, each scaled:
    root residual |p(s)| / (m|s|^3 + k mu), residue sum, first moment - 1/m."""
    m, c, k, mu = p.m, p.c, p.k, p.mu
    worst = 0.0
    for s in s_list:
        value = ((m * s + m * mu) * s + (k + c * mu)) * s + k * mu
        worst = max(worst, abs(value) / (m * abs(s) ** 3 + k * mu))
    size = max(1.0, sum(abs(r) for r in r_list))
    worst = max(worst, abs(sum(r_list)) / size)
    moment = sum(r * s for r, s in zip(r_list, s_list))
    size = max(1.0 / m, sum(abs(r * s) for r, s in zip(r_list, s_list)))
    return max(worst, abs(moment - 1.0 / m) / size)


def root_separation(p: Params) -> float:
    """Smallest pairwise root distance over the largest root magnitude."""
    r = roots(p)
    gaps = [abs(r[i] - r[j]) for i in range(3) for j in range(i + 1, 3)]
    return min(gaps) / float(np.max(np.abs(r)))


# --------------------------------------------------------------------------
# Draws.


def _loguniform(rng, lo, hi) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _acceptance(rng, c_lo=0.05) -> Params:
    return Params(
        m=_loguniform(rng, 0.1, 10.0),
        c=float(rng.uniform(c_lo, 5.0)),
        k=_loguniform(rng, 0.1, 10.0),
        mu=_loguniform(rng, 0.1, 100.0),
    )


def _from_roots(m: float, a: float, b: float, d: float) -> Params:
    """Parameters whose cubic is m(s+a)(s+b)(s+d)."""
    mu = a + b + d
    k = m * a * b * d / mu
    c = (m * (a * b + a * d + b * d) - k) / mu
    return Params(m, c, k, mu)


def real3_share(rng, n: int) -> float:
    """Share of n draws from the acceptance tests' distribution whose cubic
    has three real roots (a non-negative discriminant)."""
    draws = Params(  # arrays in place of floats: discriminant is elementwise
        m=np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)),
        c=rng.uniform(0.05, 5.0, n),
        k=np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)),
        mu=np.exp(rng.uniform(math.log(0.1), math.log(100.0), n)),
    )
    return float(np.mean(discriminant(draws) >= 0))


def draw_params(rng, kind: str) -> Params:
    if kind in ("osc", "real3"):
        while True:
            p = _acceptance(rng)
            if (discriminant(p) < 0) == (kind == "osc"):
                return p
    if kind == "c0":
        p = _acceptance(rng)
        return Params(p.m, 0.0, p.k, p.mu)
    if kind == "real3c":
        while True:
            a, b, d = (_loguniform(rng, 0.1, 10.0) for _ in range(3))
            lo, mid, hi = sorted((a, b, d))
            if mid > 1.5 * lo and hi > 1.5 * mid:
                return _from_roots(_loguniform(rng, 0.1, 10.0), a, b, d)
    if kind == "dbl":
        a, b = _loguniform(rng, 0.1, 10.0), _loguniform(rng, 0.1, 10.0)
        p = _from_roots(_loguniform(rng, 0.1, 10.0), a, a, b)
        return Params(p.m, p.c * (1.0 + _loguniform(rng, 1e-9, 1e-3)), p.k, p.mu)
    if kind == "res":
        p = _acceptance(rng)
        # real root -mu + c mu^2 / (m mu^2 + k): pick c for the relative gap
        gap = _loguniform(rng, 1e-10, 1e-6)
        return Params(p.m, gap * (p.m * p.mu**2 + p.k) / p.mu, p.k, p.mu)
    raise ValueError(kind)


def draw_history(rng, kind: str) -> History:
    a = float(rng.uniform(0.2, 3.0))
    if kind == "constant":
        return History(kind, a, (float(rng.uniform(-2.0, 2.0)),))
    if kind == "sine":
        return History(kind, a, (
            float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 4.0)),
            float(rng.uniform(-math.pi, math.pi)),
        ))
    if kind == "polynomial":
        return History(kind, a, tuple(float(v) for v in rng.uniform(-1.0, 1.0, 3)))
    grid = np.linspace(-a, 0.0, 33)
    amp, omega, phase = rng.uniform(0.1, 2.0), rng.uniform(0.1, 4.0), rng.uniform(-math.pi, math.pi)
    return History(kind, a, tuple(float(v) for v in amp * np.cos(omega * grid + phase)))


def draw_state(rng) -> tuple[float, float]:
    return float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))


def draw_forcing(rng, kind: str, p: Params) -> Forcing:
    """Forcing whose frequency stays within 0.5..1.5 times the largest root
    magnitude, so the reference step resolves it and the trapezoid error
    of the forced path varies little from draw to draw."""
    scale = float(np.max(np.abs(roots(p))))
    return Forcing(
        kind,
        offset=float(rng.uniform(-2.0, 2.0)),
        amp=float(rng.uniform(0.1, 2.0)) if kind != "constant" else 0.0,
        omega=scale * float(rng.uniform(0.5, 1.5)) if kind != "constant" else 0.0,
        phase=float(rng.uniform(-math.pi, math.pi)) if kind != "constant" else 0.0,
    )
