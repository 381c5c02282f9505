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
    Trajectory,
    convolution_check,
    forced_response,
    history_weight,
    integrate,
    time_grid,
)
from expdamp import oracle
from expdamp.oracle import _kernel_cubic_convolution, _resolution_limit
from expdamp.response import _extend

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


def _classified_resolution_limit(params):
    # Reference: the guard with the spectrum classified, taking the period
    # of the root with the largest imaginary part when there is a complex
    # pair, else of the largest root.
    m, c, k, mu = params.m, params.c, params.k, params.mu
    roots = np.roots([m, m * mu, k + c * mu, k * mu])
    mags = np.abs(roots)
    imag = np.abs(roots.imag)
    if imag.max() > 1e-9 * mags.max():
        pair_mag = mags[int(np.argmax(imag))]
    else:
        pair_mag = mags.max()
    return 0.05 * min(1.0 / mu, 2.0 * math.pi / pair_mag)


def test_resolution_guard_needs_no_classification():
    # Real roots lie in [-mu, 0), so a real root never sets the period term
    # below 1/mu, and the largest magnitude gives the classified guard bit
    # for bit: 1e4 draws log-uniform on [1e-6, 1e6], c = 0 in one of ten.
    rng = np.random.default_rng(21)
    draws = 10.0 ** rng.uniform(-6.0, 6.0, size=(10_000, 4))
    draws[rng.random(10_000) < 0.1, 1] = 0.0
    for m, c, k, mu in draws:
        params = OscillatorParams(m, c, k, mu)
        assert _resolution_limit(params) == _classified_resolution_limit(params), params


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
    assert convolution_check(traj) < 1e-6


def test_convolution_check_constant_history():
    traj = integrate(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, 1e-3)
    assert convolution_check(traj) < 1e-5


def test_convolution_check_second_order():
    # The check reads xdot as its local cubic, so halving dt shrinks it ~2^4.
    errs = []
    for dt in (2e-3, 1e-3):
        traj = integrate(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, dt)
        errs.append(convolution_check(traj))
    assert 14.0 <= errs[0] / errs[1] <= 18.0


def test_convolution_check_forced_scan():
    # A forced trajectory keeps the scan's y row, which matches the kernel
    # convolution of its own velocity to the local cubic's O(dt^4).
    errs = []
    for dt in (2e-3, 1e-3):
        traj = forced_response(REFERENCE, REF_STATE, REF_HISTORY, Sine(1.0, 2.0), 5.0, dt)
        errs.append(convolution_check(traj))
    assert errs[1] < 1e-11
    assert 14.0 <= errs[0] / errs[1] <= 18.0


def test_convolution_check_flags_small_defect():
    # At dt = 1e-3 over 20 s the check sits near rounding, so a 1e-8 shift
    # of y stands out; an O(dt^2) rule reads about 1.5e-6 either way.
    traj = forced_response(REFERENCE, REF_STATE, REF_HISTORY, Sine(1.0, 2.0, 0.0), 20.0, 1e-3)
    assert convolution_check(traj) <= 1e-11
    shifted = Trajectory(traj.dt, traj.x, traj.xdot, traj.weight, traj.y + 1e-8)
    assert convolution_check(shifted) >= 0.9e-8


def test_convolution_check_requires_internal_variable():
    traj = forced_response(REFERENCE, REF_STATE, REF_HISTORY, None, 1.0, 1e-3)
    assert traj.y is None
    with pytest.raises(ValueError):
        convolution_check(traj)


@pytest.mark.parametrize("mu", [5e-324, 1e-310])
def test_convolution_check_at_subnormal_rate(mu):
    # mu*dt underflows to 0 at 5e-324, where no kernel of that rate exists,
    # and is subnormal at 1e-310; the step moments are then exactly 0 and
    # y holds W to within subnormal rounding.
    params = OscillatorParams(m=1.0, c=0.5, k=4.0, mu=mu)
    traj = forced_response(params, REF_STATE, REF_HISTORY, Sine(1.0, 2.0, 0.0), 20.0, 0.1)
    assert convolution_check(traj) <= 1e-300
    assert not np.any(_kernel_cubic_convolution(traj.xdot, traj.dt, 5e-324))


def _stepwise_kernel_convolution(values, size, dt, mu):
    # Reference: each step's integral of mu*exp(-mu*(t_n - tau))*values(tau)
    # on u = (tau - t_n)/dt in [-1, 0] by 10-point Gauss-Legendre on 16
    # panels (one 40-point rule misses e^(50 u) by 8e-14), summed step by
    # step; values is a callable of the sample index.
    g, gw = np.polynomial.legendre.leggauss(10)
    u = (np.linspace(-1.0, 0.0, 17)[:-1, None] + (g + 1.0) / 32.0).ravel()
    w = np.tile(gw / 32.0, 16)
    out = [0.0]
    for n in range(1, size):
        step = mu * dt * np.dot(w, np.exp(mu * dt * u) * values(n + u))
        out.append(math.exp(-mu * dt) * out[-1] + step)
    return np.array(out)


@pytest.mark.parametrize("mu_dt", [1e-9, 0.135, 50.0])
def test_kernel_cubic_convolution_exact_for_cubic_samples(mu_dt):
    # Every step reads the cubic through its four nearest samples, the end
    # steps included, so cubic samples (linear on 2, quadratic on 3) give
    # the convolution to rounding at every index; index 0 is the empty
    # integral.
    rng = np.random.default_rng(33)
    dt = 0.05
    mu = mu_dt / dt
    cases = [(size, 3) for size in (4, 5, 64, 65, 1000)] + [(2, 1), (3, 2), (3, 1)]
    for size, degree in cases:
        poly = np.polynomial.Polynomial(rng.normal(size=degree + 1), domain=[0, size - 1])
        fast = _kernel_cubic_convolution(poly(np.arange(size)), dt, mu)
        want = _stepwise_kernel_convolution(poly, size, dt, mu)
        assert np.max(np.abs(fast - want)) <= 1e-12 * np.max(np.abs(want)), (size, degree)
        assert fast[0] == 0.0


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
    # Reference: linear RK4 in long double.  Its step is z <- z + D z +
    # q0 f_start + qm f_middle + q1 f_end, with the increment D = hA +
    # (hA)^2/2 + (hA)^3/6 + (hA)^4/24 and, for b = (0, 1/m, 0), the forcing
    # columns q0 = h/6 (I + hA + (hA)^2/2 + (hA)^3/4) b,
    # qm = h/6 (4I + 2hA + (hA)^2/2) b and q1 = h/6 b, applied step by step.
    ld = np.longdouble
    m, c, k, mu = (ld(v) for v in (params.m, params.c, params.k, params.mu))
    h = ld(dt)
    ha = np.array([[0, 1, 0], [-k / m, 0, -c / m], [0, mu, -mu]], dtype=ld) * h
    ha2 = ha @ ha
    ha3 = ha2 @ ha
    d = ha + ha2 / 2 + ha3 / 6 + ha3 @ ha / 24
    i3, b = np.eye(3, dtype=ld), np.array([0, 1 / m, 0], dtype=ld)
    q0 = h / 6 * (i3 + ha + ha2 / 2 + ha3 / 4) @ b
    qm = h / 6 * (4 * i3 + 2 * ha + ha2 / 2) @ b
    q = np.stack([q0, qm, h / 6 * b], axis=1)
    drive = q @ np.stack([f_nodes[:-1], f_mid, f_nodes[1:]]).astype(ld)
    z = np.empty((3, len(f_nodes)), dtype=ld)
    z[:, 0] = state.x0, state.v0, w
    for i in range(1, len(f_nodes)):
        z[:, i] = z[:, i - 1] + d @ z[:, i - 1] + drive[:, i - 1]
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
    if callable(forcing):
        f_nodes = np.array([forcing(ti) for ti in t])
        f_mid = np.array([forcing(ti) for ti in t[:-1] + step / 2])
    else:
        # each step's cubic hold at its midpoint: [-1, 9, 9, -1]/16 of its nodes
        f_nodes = np.zeros(len(t)) if forcing is None else forcing
        f_mid = np.convolve(_extend(f_nodes, np.empty(len(t) + 2)), [-1, 9, 9, -1], "valid") / 16
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
