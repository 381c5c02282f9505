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
from .model import Constant, HistoryProfile, InitialState, OscillatorParams, Sine
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
    if callable(forcing) or isinstance(forcing, (Constant, Sine)):
        return nodes, _forcing_on_grid(forcing, t[:-1] + 0.5 * dt)
    return nodes, 0.5 * (nodes[:-1] + nodes[1:])


def _scan(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    # z_i <- p @ z_{i-1} + z_i along the columns, in place, by doubling:
    # after the pass with lag k, column i holds p**j @ z_{i-j} summed over
    # its last 2k terms.  Powers of p are squared in long double, because
    # squared in float64 they drift like lag*eps.
    power = np.asarray(p, dtype=np.longdouble)
    lag = 1
    while lag < z.shape[1]:
        z[:, lag:] += power.astype(float) @ z[:, :-lag]
        power = power @ power
        lag *= 2
    return z


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
    array of samples on the grid.  The system is linear, so one RK4 step
    is the affine map z <- P z + q0 f_i + qm f_{i+1/2} + q1 f_{i+1}, with P
    the degree-4 Taylor polynomial of A*dt.  The four stages run once, on
    the identity (giving P) and on unit forcing at the start, middle and
    end of a step (giving q0, qm, q1); a doubling scan solves the recurrence.

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

    def rhs(z, f):
        x, v, y = z
        return np.array([v, (f - c * y - k * x) / m, mu * (v - y)])

    # Columns 0-2 start at the identity, unforced; columns 3-5 start at
    # zero with unit forcing at the start, the middle or the end of the step.
    z = np.hstack([np.eye(3), np.zeros((3, 3))])
    f0, fm, f1 = np.eye(6)[3:]
    k1 = rhs(z, f0)
    k2 = rhs(z + 0.5 * dt * k1, fm)
    k3 = rhs(z + 0.5 * dt * k2, fm)
    k4 = rhs(z + dt * k3, f1)
    step = z + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    z = np.empty((3, len(t)))
    z[:, 0] = state.x0, state.v0, w
    z[:, 1:] = step[:, 3:] @ np.stack([f_nodes[:-1], f_mid, f_nodes[1:]])
    xs, vs, ys = _scan(step[:, :3], z)

    psi_col = w * np.exp(-mu * t)
    return Trajectory(t0=0.0, dt=dt, x=xs, xdot=vs, psi=psi_col, y=ys)


def _kernel_trapezoid_convolution(values: np.ndarray, dt: float, mu: float) -> np.ndarray:
    """Trapezoid sums integral_0^{t_n} mu*exp(-mu*(t_n-tau))*values(tau) dtau
    for every n: the recurrence acc_n = e*(acc_{n-1} + h*values_{n-1})
    + h*values_n, e = exp(-mu*dt), h = mu*dt/2, solved by the doubling scan."""
    decay = math.exp(-mu * dt)
    acc = np.zeros((1, len(values)))
    acc[0, 1:] = 0.5 * mu * dt * (decay * values[:-1] + values[1:])
    return _scan(np.array([[decay]]), acc)[0]


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
