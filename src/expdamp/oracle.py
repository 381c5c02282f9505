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
from .history import history_weight
from .model import HistoryProfile, InitialState, OscillatorParams
from .response import Trajectory, _forcing_on_grid, time_grid

__all__ = ["integrate", "convolution_check"]


def _resolution_limit(params: OscillatorParams) -> float:
    # Step guard: resolve both the kernel time scale and the fastest
    # oscillation.  Root magnitudes via companion eigenvalues only; the
    # solution path stays independent of the pole-residue machinery.
    m, c, k, mu = params.m, params.c, params.k, params.mu
    roots = np.roots([m, m * mu, k + c * mu, k * mu])
    mags = np.abs(roots)
    imag = np.abs(roots.imag)
    if imag.max() > 1e-9 * mags.max():
        pair_mag = mags[int(np.argmax(imag))]
    else:
        pair_mag = mags.max()
    return 0.05 * min(1.0 / mu, 2.0 * math.pi / pair_mag)


def _forcing_arrays(forcing, t: np.ndarray, dt: float):
    # Node values and the step-midpoint values RK4 needs; samples have no
    # midpoints, so those are averaged.
    if forcing is None:
        return np.zeros(len(t)), np.zeros(len(t) - 1)
    nodes = _forcing_on_grid(forcing, t)
    if callable(forcing):
        return nodes, _forcing_on_grid(forcing, t[:-1] + 0.5 * dt)
    return nodes, 0.5 * (nodes[:-1] + nodes[1:])


def integrate(
    params: OscillatorParams,
    state: InitialState,
    history: HistoryProfile | None,
    forcing,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Classic fixed-step RK4 on (x, v, y); global error O(dt^4).

    Raises StepTooLarge when dt exceeds 5% of the shortest system time
    scale (kernel decay or oscillation period).
    """
    t = time_grid(t_end, dt)
    dt = float(t[1])
    limit = _resolution_limit(params)
    if dt > limit * (1.0 + 1e-12):
        raise StepTooLarge(
            f"dt = {dt:g} exceeds the resolution guard {limit:g} "
            "(5% of the shortest system time scale)"
        )
    w = 0.0
    if history is not None:
        w = history_weight(params.kernel, history).value
    f_nodes, f_mid = _forcing_arrays(forcing, t, dt)

    m, c, k, mu = params.m, params.c, params.k, params.mu
    inv_m = 1.0 / m
    half = 0.5 * dt
    sixth = dt / 6.0
    n = len(t) - 1
    xs = np.empty(n + 1)
    vs = np.empty(n + 1)
    ys = np.empty(n + 1)
    x, v, y = state.x0, state.v0, w
    xs[0], vs[0], ys[0] = x, v, y
    for i in range(n):
        f0 = f_nodes[i]
        fm = f_mid[i]
        f1 = f_nodes[i + 1]
        dx1 = v
        dv1 = (f0 - c * y - k * x) * inv_m
        dy1 = mu * (v - y)
        x2 = x + half * dx1
        v2 = v + half * dv1
        y2 = y + half * dy1
        dx2 = v2
        dv2 = (fm - c * y2 - k * x2) * inv_m
        dy2 = mu * (v2 - y2)
        x3 = x + half * dx2
        v3 = v + half * dv2
        y3 = y + half * dy2
        dx3 = v3
        dv3 = (fm - c * y3 - k * x3) * inv_m
        dy3 = mu * (v3 - y3)
        x4 = x + dt * dx3
        v4 = v + dt * dv3
        y4 = y + dt * dy3
        dx4 = v4
        dv4 = (f1 - c * y4 - k * x4) * inv_m
        dy4 = mu * (v4 - y4)
        x += sixth * (dx1 + 2.0 * (dx2 + dx3) + dx4)
        v += sixth * (dv1 + 2.0 * (dv2 + dv3) + dv4)
        y += sixth * (dy1 + 2.0 * (dy2 + dy3) + dy4)
        xs[i + 1], vs[i + 1], ys[i + 1] = x, v, y

    psi_col = w * np.exp(-mu * t)
    return Trajectory(t0=0.0, dt=dt, x=xs, xdot=vs, psi=psi_col, y=ys)


def _kernel_trapezoid_convolution(values: np.ndarray, dt: float, mu: float) -> np.ndarray:
    """Trapezoid sums integral_0^{t_n} mu*exp(-mu*(t_n-tau))*values(tau) dtau
    for every n, via the per-step exponential recursion (identical to the
    direct trapezoid sum, O(n) instead of O(n^2))."""
    n = len(values)
    out = np.empty(n)
    out[0] = 0.0
    decay = math.exp(-mu * dt)
    half = 0.5 * mu * dt
    acc = 0.0
    for i in range(1, n):
        acc = decay * (acc + half * values[i - 1]) + half * values[i]
        out[i] = acc
    return out


def convolution_check(
    params: OscillatorParams,
    history: HistoryProfile | None,
    trajectory: Trajectory,
) -> float:
    """Max deviation between the ODE-internal damping variable and the
    defining convolution recomputed from the stored velocity samples.

    The deviation is bounded by the trapezoid error, O(dt^2).
    """
    if trajectory.y is None:
        raise ValueError(
            "trajectory lacks the internal damping variable; "
            "produce it with oracle.integrate"
        )
    w = 0.0
    if history is not None:
        w = history_weight(params.kernel, history).value
    t = trajectory.t
    y_conv = w * np.exp(-params.mu * t)
    y_conv += _kernel_trapezoid_convolution(trajectory.xdot, trajectory.dt, params.mu)
    return float(np.max(np.abs(trajectory.y - y_conv)))
