"""Independent time-domain reference solution.

The exponential kernel admits an exact internal-variable reduction: with
y(t) = integral of G(t-tau)*xdot(tau) over the full (history-inclusive)
past, the integro-differential equation becomes the ordinary system

    xdot = v
    vdot = (f - c*y - k*x) / m
    ydot = mu * (v - y),          y(0) = W,

because Gdot = -mu*G and G(0) = mu.  The entire history enters through
the single scalar y(0) = W.  A fixed-step classic RK4 integrates this
system; everything analytic elsewhere in the package is validated
against it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StepTooLarge
from .history import _weight_polynomial, history_weight
from .model import (
    Constant,
    HistoryProfile,
    InitialState,
    OscillatorParams,
    Sine,
)
from .response import Trajectory, _forcing_on_grid, _scan, time_grid

__all__ = ["integrate", "convolution_check"]


def _resolution_limit(params: OscillatorParams) -> float:
    # Step guard: resolve both the kernel time scale and the fastest
    # oscillation.  Real roots lie in [-mu, 0), so max|root| binds below
    # 1/mu only as a complex pair's.  Companion eigenvalues only: the
    # oracle stays independent of residues.  Where the monic cubic that
    # np.roots forms, or its roots, leave float64, no step resolves it.
    m, c, k, mu = params.m, params.c, params.k, params.mu
    cubic = np.array([m, m * mu, k + c * mu, k * mu])
    if np.isfinite(cubic[1:] / m).all():
        roots = np.roots(cubic)
        if np.isfinite(roots).all():
            return 0.05 * min(1.0 / mu, 2.0 * math.pi / np.abs(roots).max())
    raise StepTooLarge("the resolution guard leaves float64's range: no step resolves the system")


def integrate(
    params: OscillatorParams,
    state: InitialState,
    history: HistoryProfile | None,
    forcing,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Classic fixed-step RK4 on (x, v, y); global error O(dt^4).

    forcing may be None, a Constant or Sine spec, a callable f(t), or an
    array of samples on the grid.  The system is linear, so one RK4 step is
    the affine map z <- z + D z + q0 f_i + qm f_{i+1/2} + q1 f_{i+1}, D the
    increment P - I of P, the degree-4 Taylor polynomial of A*dt.  The four
    stages run once, on the identity (their sum giving D) and on unit forcing
    at the start, middle and end of a step (q0, qm, q1); _scan solves the
    recurrence.  Callables and specs give it the drives; samples, and None as
    zeros, the moments that read each step's cubic hold (the cubic through the
    four nearest samples) at tau = 0, 1/2 and 1, so smooth ones keep O(dt^4).

    Raises StepTooLarge when dt exceeds 5% of the shortest system time
    scale (kernel decay or oscillation period), or when the guard, the
    step map or the scan leaves float64's range.
    """
    t = time_grid(t_end, dt)
    dt = float(t[1])
    # An overflow in the guard, the stage map or the scan shows as a
    # non-finite result, and raises StepTooLarge.
    with np.errstate(over="ignore", invalid="ignore"):
        limit = _resolution_limit(params)
    if dt > limit * (1.0 + 1e-12):
        raise StepTooLarge(
            f"dt = {dt:g} exceeds the resolution guard {limit:g} "
            "(5% of the shortest system time scale)"
        )
    weight = history_weight(params.kernel, history)
    f_nodes = _forcing_on_grid(np.zeros(len(t)) if forcing is None else forcing, t)
    f_mid = None
    if callable(forcing) or isinstance(forcing, (Constant, Sine)):
        f_mid = _forcing_on_grid(forcing, t[:-1] + 0.5 * dt)

    m, c, k, mu = params.m, params.c, params.k, params.mu

    def rhs(z, f):
        x, v, y = z
        return np.array([v, (f - c * y - k * x) / m, mu * (v - y)])

    z0 = (state.x0, state.v0, weight.value)
    with np.errstate(over="ignore", invalid="ignore"):
        # Columns 0-2 start at the identity, unforced; columns 3-5 start at
        # zero with unit forcing at the start, the middle or the end of the step.
        z = np.hstack([np.eye(3), np.zeros((3, 3))])
        f0, fm, f1 = np.eye(6)[3:]
        k1 = rhs(z, f0)
        k2 = rhs(z + 0.5 * dt * k1, fm)
        k3 = rhs(z + 0.5 * dt * k2, fm)
        k4 = rhs(z + dt * k3, f1)
        step = dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)  # z's increment
        if f_mid is not None:
            drives = np.stack([f_nodes[:-1], f_mid, f_nodes[1:]], axis=1) @ step[:, 3:].T
            zs = _scan(step[:, :3], z0, drives)
        else:
            moments = step[:, 3:] @ [[1, 0, 0, 0], [1, 0.5, 0.25, 0.125], [1, 1, 1, 1]]
            zs = _scan(step[:, :3], z0, f_nodes, moments)
    if not (np.isfinite(step).all() and np.isfinite(zs[-1]).all()):
        raise StepTooLarge(f"the RK4 step map or its scan leaves float64's range at dt = {dt:g}")
    xs, vs, ys = zs.T
    return Trajectory(dt=dt, x=xs, xdot=vs, weight=weight, y=ys)


def _kernel_cubic_convolution(values: np.ndarray, dt: float, mu: float) -> np.ndarray:
    """integral_0^{t_n} mu*exp(-mu*(t_n-s))*values(s) ds for all n, each step
    the W (rate mu*dt, u = (s-t_n)/dt in [-1, 0]) of the cubic hold of values:
    the hold's tau is u + 1, so moment j is the W of (u + 1)^j, and _scan
    adds the decay e^(-mu*dt) through its increment expm1(-mu*dt).  The
    moments come from history's polynomial rule at the raw rate, which gives
    exactly 0 where mu*dt underflows and a kernel would reject it."""
    binomials = ([math.comb(j, i) for i in range(j + 1)] for j in range(4))
    moments = [_weight_polynomial(b, mu * dt, 1.0) for b in binomials]
    return _scan([[math.expm1(-mu * dt)]], [0.0], values, [moments])[:, 0]


def convolution_check(trajectory: Trajectory) -> float:
    """Max deviation between the internal damping variable y and the
    defining convolution recomputed from the stored velocity samples,
    with W and mu taken from trajectory.weight.

    xdot is read as the cubic through the four samples nearest each step,
    so the check is exact for cubic xdot and O(dt^4) otherwise.
    """
    if trajectory.y is None:
        raise ValueError(
            "trajectory lacks the internal damping variable; forced_response "
            "leaves it out only for forcing=None, and oracle.integrate never does"
        )
    mu = trajectory.weight.mu
    y_conv = trajectory.psi + _kernel_cubic_convolution(trajectory.xdot, trajectory.dt, mu)
    return float(np.max(np.abs(trajectory.y - y_conv)))
