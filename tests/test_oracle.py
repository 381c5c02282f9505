"""Independent RK4 integrator on the augmented (x, v, y) system."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from expdamp import (
    Constant,
    HistoryProfile,
    InitialState,
    OscillatorParams,
    Sine,
    StepTooLarge,
    convolution_check,
    forced_response,
    history_weight,
    integrate,
    time_grid,
)
from expdamp import oracle
from expdamp.oracle import (
    _forcing_arrays,
    _kernel_trapezoid_convolution,
    _resolution_limit,
)

FACTORED = OscillatorParams(m=1.0, c=0.0, k=1.0, mu=2.0)
REFERENCE = OscillatorParams(m=1.0, c=0.5, k=4.0, mu=2.0)
REF_STATE = InitialState(x0=1.0, v0=0.3)
REF_HISTORY = HistoryProfile(a=1.0, shape=Constant(1.0))


def test_undamped_cosine_period():
    traj = integrate(
        FACTORED, InitialState(1.0, 0.0), None, None, 2.0 * math.pi, 1e-3
    )
    assert abs(traj.x[-1] - 1.0) < 1e-8


def test_impulse_surrogate_is_sine():
    traj = integrate(
        FACTORED, InitialState(0.0, 1.0), None, None, 2.0 * math.pi, 1e-3
    )
    assert np.max(np.abs(traj.x - np.sin(traj.t))) < 1e-8


def test_step_halving_converged():
    a = integrate(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, 1e-3)
    b = integrate(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, 5e-4)
    assert abs(a.x[-1] - b.x[-1]) < 1e-9


def test_fourth_order_error_contraction():
    # halving dt shrinks the error against the closed form by ~2^4
    closed = forced_response(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, 1e-3)
    exact = closed.x[-1]
    err = []
    for dt in (0.02, 0.01):
        traj = integrate(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, dt)
        err.append(abs(traj.x[-1] - exact))
    ratio = err[0] / err[1]
    assert 12.0 < ratio < 20.0


def test_sampled_forcing_fourth_order():
    # Samples enter RK4's step midpoints as their local cubic, so sampled
    # forcing keeps the fourth order: halving dt shrinks the error ~2^4.
    exact = forced_response(REFERENCE, REF_STATE, REF_HISTORY, Sine(1.0, 2.0, 0.4), 5.0, 1e-3).x
    err = []
    for dt in (0.02, 0.01, 0.005):
        samples = np.sin(2.0 * time_grid(5.0, dt) + 0.4)
        traj = integrate(REFERENCE, REF_STATE, REF_HISTORY, samples, 5.0, dt)
        err.append(np.max(np.abs(traj.x - exact[:: round(dt / 1e-3)])))
    for coarse, fine in zip(err, err[1:]):
        assert 14.0 <= coarse / fine <= 18.0


def test_resolution_guard():
    # limit = 0.05*min(1/mu, period) = 0.025 for the reference parameters
    with pytest.raises(StepTooLarge):
        integrate(REFERENCE, REF_STATE, None, None, 5.0, 0.03)
    integrate(REFERENCE, REF_STATE, None, None, 5.0, 0.02)


def test_energy_conserved_without_damping():
    p = OscillatorParams(m=1.0, c=0.0, k=1.0, mu=2.0)
    t_end = 10.0 * 2.0 * math.pi
    traj = integrate(p, InitialState(1.0, 0.0), None, None, t_end, 0.02)
    energy = 0.5 * (p.m * traj.xdot**2 + p.k * traj.x**2)
    assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-8


def test_internal_variable_starts_at_weight():
    traj = integrate(REFERENCE, REF_STATE, REF_HISTORY, None, 1.0, 1e-3)
    w = history_weight(REFERENCE.kernel, REF_HISTORY).value
    assert traj.y[0] == w
    assert traj.psi[0] == pytest.approx(w, rel=1e-15)


def test_convolution_check_no_history():
    p = OscillatorParams(m=1.0, c=0.0, k=1.0, mu=2.0)
    traj = integrate(p, InitialState(1.0, 0.0), None, None, 5.0, 1e-3)
    assert convolution_check(p, None, traj) < 1e-6


def test_convolution_check_constant_history():
    traj = integrate(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, 1e-3)
    assert convolution_check(REFERENCE, REF_HISTORY, traj) < 1e-5


def test_convolution_check_second_order():
    errs = []
    for dt in (2e-3, 1e-3):
        traj = integrate(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, dt)
        errs.append(convolution_check(REFERENCE, REF_HISTORY, traj))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_convolution_check_forced_scan():
    # A forced trajectory keeps the scan's y row, which matches the kernel
    # convolution of its own velocity to the trapezoid's O(dt^2).
    errs = []
    for dt in (2e-3, 1e-3):
        traj = forced_response(REFERENCE, REF_STATE, REF_HISTORY, Sine(1.0, 2.0), 5.0, dt)
        errs.append(convolution_check(REFERENCE, REF_HISTORY, traj))
    assert errs[1] < 1e-5
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_convolution_check_requires_internal_variable():
    traj = forced_response(REFERENCE, REF_STATE, REF_HISTORY, None, 1.0, 1e-3)
    assert traj.y is None
    with pytest.raises(ValueError):
        convolution_check(REFERENCE, REF_HISTORY, traj)


def test_kernel_trapezoid_matches_direct_sum():
    rng = np.random.default_rng(33)
    values = rng.normal(size=64)
    dt, mu = 0.05, 2.7
    fast = _kernel_trapezoid_convolution(values, dt, mu)
    t = np.arange(64) * dt
    for n in (0, 1, 7, 63):
        integrand = mu * np.exp(-mu * (t[n] - t[: n + 1])) * values[: n + 1]
        direct = np.trapezoid(integrand, dx=dt) if n else 0.0
        assert fast[n] == pytest.approx(direct, rel=1e-12, abs=1e-15)
    assert fast[0] == 0.0


@pytest.mark.parametrize("size", [2, 3, 64, 65, 1000])
def test_kernel_trapezoid_matches_direct_sum_every_index(size):
    rng = np.random.default_rng(33)
    values = rng.normal(size=size)
    dt, mu = 0.05, 2.7
    fast = _kernel_trapezoid_convolution(values, dt, mu)
    for n in range(size):
        # lags (n-j)*dt, not t_n - t_j: at t ~ 50 the rounded grid puts
        # about 3e-15 of noise into the reference
        integrand = mu * np.exp(-mu * dt * np.arange(n, -1, -1)) * values[: n + 1]
        direct = np.trapezoid(integrand, dx=dt) if n else 0.0
        assert fast[n] == pytest.approx(direct, rel=1e-12, abs=1e-15)
    assert fast[0] == 0.0


def test_single_sample_convolution_is_zero():
    # degenerate one-point series: empty integral
    out = _kernel_trapezoid_convolution(np.array([3.0]), 0.1, 2.0)
    assert out.tolist() == [0.0]


def test_forcing_validation():
    with pytest.raises(ValueError):
        integrate(REFERENCE, REF_STATE, None, np.zeros(10), 1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate(REFERENCE, REF_STATE, None, lambda t: math.inf, 1.0, 1e-3)


def test_forced_oracle_matches_closed_form():
    f = lambda t: math.sin(2.0 * t)
    a = integrate(REFERENCE, REF_STATE, REF_HISTORY, f, 10.0, 1e-3)
    b = forced_response(REFERENCE, REF_STATE, REF_HISTORY, f, 10.0, 1e-3)
    assert np.max(np.abs(a.x - b.x)) < 1e-5


def _staged_rk4(params, state, w, f_nodes, f_mid, dt):
    # Reference: the four RK4 stages worked out anew on every step.
    m, c, k, mu = params.m, params.c, params.k, params.mu
    inv_m = 1.0 / m
    half = 0.5 * dt
    sixth = dt / 6.0
    n = len(f_nodes) - 1
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
    return xs, vs, ys


_GUARD_DT = 0.99 * _resolution_limit(REFERENCE)
_SAMPLED = np.random.default_rng(5).normal(size=2001)


@pytest.mark.parametrize(
    "params, history, forcing, t_end, dt",
    [
        (REFERENCE, REF_HISTORY, None, 5.0, 1e-3),
        (
            OscillatorParams(m=1.0, c=5.0 / 3.0, k=1.0, mu=6.0),
            HistoryProfile(a=1.5, shape=Sine(0.7, 3.0, 0.4)),
            None,
            5.0,
            1e-3,
        ),
        (FACTORED, None, None, 50.0, 1e-3),
        (REFERENCE, REF_HISTORY, None, 400 * _GUARD_DT, _GUARD_DT),
        (REFERENCE, REF_HISTORY, lambda t: math.sin(2.0 * t), 5.0, 1e-3),
        (REFERENCE, REF_HISTORY, _SAMPLED, 2.0, 1e-3),
    ],
    ids=["damped-pair", "three-real", "undamped-5e4", "step-guard", "callable", "sampled"],
)
def test_step_map_matches_staged_loop(params, history, forcing, t_end, dt):
    traj = integrate(params, REF_STATE, history, forcing, t_end, dt)
    t = time_grid(t_end, dt)
    step = float(t[1])
    if forcing is None:
        f_nodes, f_mid = np.zeros(len(t)), np.zeros(len(t) - 1)
    elif callable(forcing):
        f_nodes = np.array([forcing(ti) for ti in t])
        f_mid = np.array([forcing(ti + 0.5 * step) for ti in t[:-1]])
    else:
        # midpoints of the cubic through the four samples nearest each step
        starts = np.clip(np.arange(len(forcing) - 1) - 1, 0, len(forcing) - 4)
        cubics = [np.polyfit(range(4), forcing[s : s + 4], 3) for s in starts]
        f_mid = [np.polyval(p, i - s + 0.5) for i, (p, s) in enumerate(zip(cubics, starts))]
        f_nodes = forcing
    w = 0.0 if history is None else history_weight(params.kernel, history).value
    ref = _staged_rk4(params, REF_STATE, w, f_nodes, f_mid, step)
    for got, want in zip((traj.x, traj.xdot, traj.y), ref):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _long_double_step_map(params, state, w, f_nodes, f_mid, dt):
    # Reference: the step map read off one staged RK4 step from each unit
    # state (the columns of P) and from zero state with unit forcing at the
    # start, middle or end of the step (q0, qm, q1), then applied step by
    # step in long double.
    def one_step(x0, v0, y0, f_start, f_middle, f_end):
        out = _staged_rk4(params, InitialState(x0, v0), y0, [f_start, f_end], [f_middle], dt)
        return [col[1] for col in out]

    ld = np.longdouble
    p = np.array([one_step(*unit, 0, 0, 0) for unit in np.eye(3)], dtype=ld).T
    q = np.array([one_step(0, 0, 0, *unit) for unit in np.eye(3)], dtype=ld).T
    drive = q @ np.stack([f_nodes[:-1], f_mid, f_nodes[1:]]).astype(ld)
    z = np.empty((3, len(f_nodes)), dtype=ld)
    z[:, 0] = state.x0, state.v0, w
    for i in range(1, len(f_nodes)):
        z[:, i] = p @ z[:, i - 1] + drive[:, i - 1]
    return z


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= 52, reason="long double is no wider than float64"
)
@pytest.mark.parametrize(
    "params, history, forcing, t_end, dt",
    [
        (REFERENCE, REF_HISTORY, None, 5.0, 1e-3),
        (
            OscillatorParams(m=1.0, c=5.0 / 3.0, k=1.0, mu=6.0),
            HistoryProfile(a=1.5, shape=Sine(0.7, 3.0, 0.4)),
            None,
            5.0,
            1e-3,
        ),
        (FACTORED, None, None, 50.0, 1e-3),
        (REFERENCE, REF_HISTORY, None, 400 * _GUARD_DT, _GUARD_DT),
        (REFERENCE, REF_HISTORY, lambda t: math.sin(2.0 * t), 5.0, 1e-3),
        (REFERENCE, REF_HISTORY, _SAMPLED, 2.0, 1e-3),
        (OscillatorParams(m=1.0, c=0.5, k=4.0, mu=80.0), REF_HISTORY, None, 20.0, 5e-4),
    ],
    ids=[
        "damped-pair", "three-real", "undamped-5e4", "step-guard", "callable", "sampled",
        "stiff-kernel",
    ],
)
def test_step_map_scan_matches_long_double(params, history, forcing, t_end, dt):
    # The scan sums each state from powers of P in a different order than
    # a step-by-step loop; it must stay within a few ulps of the exact
    # sequential map, not drift with the number of steps.
    traj = integrate(params, REF_STATE, history, forcing, t_end, dt)
    t = time_grid(t_end, dt)
    step = float(t[1])
    f_nodes, f_mid = _forcing_arrays(forcing, t, step)
    w = 0.0 if history is None else history_weight(params.kernel, history).value
    ref = _long_double_step_map(params, REF_STATE, w, f_nodes, f_mid, step)
    for got, want in zip((traj.x, traj.xdot, traj.y), ref):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _imports(path):
    # (module, name) for every import in the file, module relative to the
    # package: "from .response import _scan" gives ("response", "_scan").
    out = set()
    for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                module = module.removeprefix("expdamp").lstrip(".")
            out.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module, _, name = alias.name.removeprefix("expdamp.").rpartition(".")
                out.add((module, name))
    return out


def test_oracle_import_boundary():
    # The oracle checks the closed form, so it must stay independent of it:
    # no roots, residues or bounds, and from response only the grid, the
    # trajectory record, forcing sampling and the shared linear scan.
    allowed = {"Trajectory", "_forcing_on_grid", "_scan", "time_grid"}
    imports = _imports(oracle.__file__)
    assert ("response", "_scan") in imports
    for module, name in imports:
        assert module not in ("eigen", "bounds"), (module, name)
        assert module != "" or name not in ("eigen", "bounds", "response"), name
        assert module != "response" or name in allowed, name
