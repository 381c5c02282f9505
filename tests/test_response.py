"""Closed-form response assembly, trajectories, and forced convolution."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expdamp
import expdamp.oracle
from expdamp import (
    Constant,
    DegenerateSpectrum,
    HistoryProfile,
    HistoryWeight,
    InitialState,
    OscillatorParams,
    ResonantKernel,
    Sine,
    StepTooLarge,
    Trajectory,
    exp_convolution,
    forced_response,
    history_weight,
    impulse_response,
    initialization_response,
    integrate,
    response_terms,
    solve_eigen,
    time_grid,
)
from expdamp.response import (
    _BLOCK,
    _HOLD_SIXTHS,
    _MNK,
    _extend,
    _forced_convolution,
    _forcing_on_grid,
    _step_map,
)

FACTORED = OscillatorParams(m=1.0, c=0.0, k=1.0, mu=2.0)
REFERENCE = OscillatorParams(m=1.0, c=0.5, k=4.0, mu=2.0)
REF_STATE = InitialState(x0=1.0, v0=0.3)
REF_HISTORY = HistoryProfile(a=1.0, shape=Constant(1.0))
# Block rows per matmul of the forced kernel: each block reads its _BLOCK
# samples, 3 past it and its 3-vector start state, into _BLOCK states.
_HOLD_ROWS = _MNK // ((_BLOCK + 6) * 3 * _BLOCK)


def test_time_grid_commensurate():
    g = time_grid(20.0, 1e-3)
    assert len(g) == 20001
    assert g[0] == 0.0 and g[-1] == 20.0
    assert g[1] == 1e-3


def test_time_grid_honors_endpoint():
    g = time_grid(2.0 * math.pi, 1e-3)
    assert abs(g[-1] - 2.0 * math.pi) < 1e-12
    steps = np.diff(g)
    assert np.max(steps) - np.min(steps) < 1e-15


def test_time_grid_minimum_two_points():
    g = time_grid(1e-6, 1.0)
    assert len(g) == 2 and g[-1] == 1e-6


def test_time_grid_validation():
    with pytest.raises(ValueError):
        time_grid(1.0, 0.0)
    # t_end / inf is 0, which is finite, so dt itself must be checked
    for dt in (math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            time_grid(5.0, dt)
    with pytest.raises(ValueError):
        time_grid(0.0, 0.1)
    with pytest.raises(ValueError):
        time_grid(-1.0, 0.1)
    with pytest.raises(ValueError, match=r"t_end = 1e\+300, dt = 1e-300"):
        time_grid(1e300, 1e-300)
    # integers past float64's range are rejected by name, not by OverflowError
    with pytest.raises(ValueError, match="t_end must be finite"):
        time_grid(10**400, 1.0)
    with pytest.raises(ValueError, match="dt must be finite"):
        time_grid(1.0, 10**400)


@given(
    t_end=st.floats(min_value=1e-3, max_value=1e3),
    dt=st.floats(min_value=1e-4, max_value=10.0),
)
# t_end=1e3 with dt=1e-4 builds a 1e7-point grid, which can take longer
# than hypothesis's default 200 ms deadline.
@settings(deadline=None)
def test_time_grid_properties(t_end, dt):
    g = time_grid(t_end, dt)
    assert len(g) >= 2
    assert g[0] == 0.0
    # k*step rounding accumulates relative to the span, not one step
    assert abs(g[-1] - t_end) <= 4e-16 * t_end
    steps = np.diff(g)
    assert np.max(steps) - np.min(steps) <= 5e-16 * t_end


def test_trajectory_validation():
    ok = dict(
        dt=0.1,
        x=np.zeros(3),
        xdot=np.zeros(3),
        weight=HistoryWeight(0.0, 2.0),
    )
    traj = Trajectory(**ok)
    assert len(traj) == 3
    assert traj.t == pytest.approx([0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        Trajectory(**{**ok, "x": np.zeros(1), "xdot": np.zeros(1)})
    with pytest.raises(ValueError):
        Trajectory(**{**ok, "xdot": np.zeros(4)})
    with pytest.raises(ValueError):
        Trajectory(**{**ok, "x": np.array([0.0, math.nan, 0.0])})
    for dt in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            Trajectory(**{**ok, "dt": dt})
    for w in (math.nan, math.inf):
        with pytest.raises(ValueError, match="history weight"):
            Trajectory(**{**ok, "weight": HistoryWeight(w, 2.0)})
    with pytest.raises(TypeError):
        Trajectory(**{**ok, "weight": 0.0})


def test_trajectory_arrays_read_only():
    traj = Trajectory(dt=0.1, x=np.zeros(3), xdot=np.zeros(3), weight=HistoryWeight(0.0, 2.0))
    with pytest.raises(ValueError):
        traj.x[0] = 1.0


def test_exp_convolution_zero_at_origin():
    for p in (FACTORED, REFERENCE):
        eig = solve_eigen(p)
        assert exp_convolution(eig, p.mu, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_exp_convolution_factored_closed_form():
    # integral_0^t sin(t - tau) e^{-2 tau} dtau = (2 sin t - cos t + e^{-2t})/5
    eig = solve_eigen(FACTORED)
    t = np.linspace(0.0, 8.0, 81)
    expect = (2.0 * np.sin(t) - np.cos(t) + np.exp(-2.0 * t)) / 5.0
    assert exp_convolution(eig, 2.0, t) == pytest.approx(expect, abs=1e-13)
    assert exp_convolution(eig, 2.0, math.pi) == pytest.approx(0.200373, abs=5e-7)


def test_exp_convolution_matches_quadrature():
    eig = solve_eigen(REFERENCE)
    t_eval = 1.0
    tau = np.linspace(0.0, t_eval, 100_001)
    direct = np.trapezoid(
        impulse_response(eig, t_eval - tau) * np.exp(-REFERENCE.mu * tau), tau
    )
    assert exp_convolution(eig, REFERENCE.mu, t_eval) == pytest.approx(direct, abs=1e-7)


def test_exp_convolution_rejects_negative_time():
    eig = solve_eigen(REFERENCE)
    with pytest.raises(ValueError):
        exp_convolution(eig, 2.0, -0.5)


def test_exp_convolution_resonant_rate_rejected():
    # rate equal to the real decay gamma collides with root s3
    eig = solve_eigen(REFERENCE)
    with pytest.raises(ResonantKernel):
        exp_convolution(eig, eig.gamma, 1.0)


def test_initialization_response_undamped_cosine():
    x = initialization_response(FACTORED, InitialState(x0=1.0, v0=0.0), None, math.pi)
    assert x == pytest.approx(-1.0, abs=1e-12)
    t = np.linspace(0.0, 10.0, 101)
    x = initialization_response(FACTORED, InitialState(x0=1.0, v0=0.0), None, t)
    assert x == pytest.approx(np.cos(t), abs=1e-12)


def test_initialization_response_zero_scenario():
    t = np.linspace(0.0, 5.0, 21)
    x = initialization_response(REFERENCE, InitialState(0.0, 0.0), None, t)
    assert np.all(x == 0.0)


def test_initialization_response_matches_oracle():
    traj = integrate(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, 1e-3)
    idx = [round(ti / traj.dt) for ti in (0.5, 1.0, 2.0, 5.0)]
    for i in idx:
        x = initialization_response(REFERENCE, REF_STATE, REF_HISTORY, traj.t[i])
        assert x == pytest.approx(traj.x[i], abs=1e-6)


def test_response_terms_zero_cases():
    terms = response_terms(FACTORED, InitialState(1.0, 2.0), REF_HISTORY, 1.3)
    assert terms.term_history == 0.0 and terms.term_kernel == 0.0

    terms = response_terms(REFERENCE, InitialState(1.0, 2.0), None, 1.3)
    assert terms.term_history == 0.0


def test_response_terms_sum_to_response():
    rng = np.random.default_rng(17)
    for _ in range(20):
        t = float(rng.uniform(0.0, 8.0))
        state = InitialState(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        terms = response_terms(REFERENCE, state, REF_HISTORY, t)
        x = initialization_response(REFERENCE, state, REF_HISTORY, t)
        assert terms.total == pytest.approx(x, abs=1e-10)


def test_forced_response_none_equals_zero_forcing():
    # forcing=None takes the closed form; a zero forcing of any kind is
    # scanned from (x0, v0, W) like any other, agrees to rounding and keeps
    # its y row
    a = forced_response(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, 1e-3)
    assert a.y is None
    for zero in (lambda t: 0.0, Constant(0.0), np.zeros(5001)):
        b = forced_response(REFERENCE, REF_STATE, REF_HISTORY, zero, 5.0, 1e-3)
        for got, want in ((b.x, a.x), (b.xdot, a.xdot)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert b.y[0] == b.weight.value == a.weight.value


def test_zero_forcing_needs_no_simple_roots():
    # At a near-double root the closed form raises, while a zero forcing is
    # one scan and agrees with the RK4 oracle.
    p = OscillatorParams(m=1.0, c=1.28 * (1.0 + 1e-8), k=0.6, mu=5.0)
    with pytest.raises(DegenerateSpectrum):
        forced_response(p, REF_STATE, REF_HISTORY, None, 20.0, 1e-3)
    ref = integrate(p, REF_STATE, REF_HISTORY, Constant(0.0), 20.0, 1e-3)
    for zero in (lambda t: 0.0, Constant(0.0), np.zeros(20001)):
        b = forced_response(p, REF_STATE, REF_HISTORY, zero, 20.0, 1e-3)
        assert np.max(np.abs(b.x - ref.x)) <= 1e-12
        assert np.max(np.abs(b.xdot - ref.xdot)) <= 1e-12


def test_forced_response_undamped_step():
    # m=k=1, c=0, f = k*x_static: x = x_static*(1 - cos t)
    p = OscillatorParams(m=1.0, c=0.0, k=1.0, mu=2.0)
    x_static = 0.75
    traj = forced_response(
        p, InitialState(0.0, 0.0), None, lambda t: x_static, 10.0, 1e-3
    )
    expect = x_static * (1.0 - np.cos(traj.t))
    assert np.max(np.abs(traj.x - expect)) < 5e-6


def test_forced_response_sine_matches_oracle():
    f = lambda t: math.sin(2.0 * t)
    a = forced_response(REFERENCE, REF_STATE, REF_HISTORY, f, 10.0, 1e-3)
    b = integrate(REFERENCE, REF_STATE, REF_HISTORY, f, 10.0, 1e-3)
    assert np.max(np.abs(a.x - b.x)) < 1e-5


def test_forced_response_accepts_sampled_forcing():
    t = time_grid(5.0, 1e-2)
    samples = np.sin(2.0 * t)
    a = forced_response(REFERENCE, REF_STATE, None, samples, 5.0, 1e-2)
    b = forced_response(REFERENCE, REF_STATE, None, lambda ti: math.sin(2.0 * ti), 5.0, 1e-2)
    assert np.array_equal(a.x, b.x)


@pytest.mark.parametrize(
    "spec, f",
    [
        (Constant(0.75), lambda t: 0.75),
        (Sine(1.3, 2.0, 0.4), lambda t: 1.3 * math.sin(2.0 * t + 0.4)),
    ],
)
@pytest.mark.parametrize("solve", [forced_response, integrate])
def test_forcing_spec_matches_callable(spec, f, solve):
    a = solve(REFERENCE, REF_STATE, REF_HISTORY, spec, 5.0, 1e-3)
    b = solve(REFERENCE, REF_STATE, REF_HISTORY, f, 5.0, 1e-3)
    for got, want in ((a.x, b.x), (a.xdot, b.xdot)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_forced_response_rejects_bad_forcing():
    with pytest.raises(ValueError):
        forced_response(REFERENCE, REF_STATE, None, np.zeros(7), 5.0, 1e-2)
    bad = np.zeros(501)
    bad[3] = math.inf
    with pytest.raises(ValueError):
        forced_response(REFERENCE, REF_STATE, None, bad, 5.0, 1e-2)


@pytest.mark.parametrize("solve", [forced_response, integrate])
def test_complex_samples_raise_type_error(solve):
    # a float cast would keep the real part 1.0 and drop the imaginary one
    with pytest.raises(TypeError, match="must be real"):
        solve(REFERENCE, REF_STATE, None, np.full(101, 1.0 + 1.0j), 1.0, 1e-2)


def test_sample_shape_mismatch_names_both_shapes():
    # a column of the right length is still the wrong shape
    with pytest.raises(ValueError, match=r"shape \(101, 1\), grid has shape \(101,\)"):
        forced_response(REFERENCE, REF_STATE, None, np.ones((101, 1)), 1.0, 1e-2)


@pytest.mark.parametrize(
    "f",
    [
        lambda t: 0.75,
        lambda t: 0.2 + 1.3 * math.sin(2.1 * t + 0.4),
        lambda t: 1.0 - 0.5 * t + 0.03 * t * t - 1e-4 * t**3,
    ],
    ids=["constant", "sine", "polynomial"],
)
def test_forcing_sampling_bitwise_equal_to_per_point_reference(f):
    t = time_grid(50.0, 1e-3)
    assert len(t) == 50001
    want = np.array([float(f(ti)) for ti in t])
    assert np.array_equal(_forcing_on_grid(f, t), want)


def test_forcing_callable_receives_python_floats():
    # one Python float per grid point, the grid's own values in its order
    t, seen = time_grid(1.0, 0.1), []
    _forcing_on_grid(lambda ti: seen.append(ti) or 0.0, t)
    assert seen == t.tolist() and {type(ti) for ti in seen} == {float}


@pytest.mark.parametrize(
    "value", [None, 1.0 + 2.0j, np.array([1.0])], ids=["none", "complex", "shape-1-array"]
)
def test_forcing_callable_non_scalar_raises_type_error(value):
    with pytest.raises(TypeError):
        _forcing_on_grid(lambda ti: value, time_grid(1.0, 0.1))


def test_forcing_callable_nan_raises():
    with pytest.raises(ValueError, match="forcing must be finite"):
        _forcing_on_grid(lambda ti: math.nan if ti > 0.5 else 0.0, time_grid(1.0, 0.1))


def _cubic_hold_recursion(eig, f, dt):
    # Reference for the state-space scan, per mode and one step at a time:
    # C <- exp(s*dt)*C + the integral over the step of exp(s*(dt - u)) times
    # the cubic through f at the step's four nodes (the polynomial through
    # all of f on grids shorter than 4), by 16-point Gauss-Legendre on the
    # Lagrange basis.  The three modes are summed in complex, weighted by
    # the residues, so it shares neither exp(A*dt), the block exponential of
    # the hold weights, nor the scan.
    n, d = len(f), min(3, len(f) - 1)
    u, gl = np.polynomial.legendre.leggauss(16)
    tau = (u + 1.0) / 2.0
    roots, res = np.array(eig.roots), np.array(eig.residues)
    # (mode, quadrature point) weights of the step integral
    kernel = dt / 2.0 * gl * np.exp(np.outer(roots, dt * (1.0 - tau)))
    weights = {}
    for first in {0, -1, 1 - d}:
        nodes = range(first, first + d + 1)
        basis = [np.prod([(tau - q) / (r - q) for q in nodes if q != r], axis=0) for r in nodes]
        weights[first] = kernel @ np.array(basis).T
    c = np.zeros(3, complex)
    conv_x, conv_v = [0.0], [0.0]
    for i in range(1, n):
        start = min(max(i - 2, 0), n - 1 - d)
        c = np.exp(roots * dt) * c + weights[start - i + 1] @ f[start : start + d + 1]
        conv_x.append((res @ c).real)
        conv_v.append((res * roots @ c).real)
    return np.array(conv_x), np.array(conv_v)


@pytest.mark.parametrize(
    "params",
    [
        REFERENCE,
        OscillatorParams(m=1.0, c=5.0 / 3.0, k=1.0, mu=6.0),
        FACTORED,
        OscillatorParams(m=1.0, c=0.5, k=4.0, mu=80.0),
    ],
    ids=["damped-pair", "three-real", "undamped", "stiff-kernel"],
)
@pytest.mark.parametrize(
    "n",
    [2, 3, 4, 63, 64, 65, 66, 1025, 2049, 4096, 4097, 4098, 8197]
    + [2 * _BLOCK, 2 * _BLOCK + 1, 2 * _BLOCK + 2]
    + [_HOLD_ROWS * _BLOCK, _HOLD_ROWS * _BLOCK + 1, _HOLD_ROWS * _BLOCK + 2]
    + [2 * _HOLD_ROWS * _BLOCK + 1, 2 * _HOLD_ROWS * _BLOCK + 2],
)
def test_forced_convolution_matches_recursion(params, n):
    # grid lengths straddle the fewest points of a cubic hold (4), two
    # blocks (n - 1 steps of _BLOCK), and one and two matmuls of blocks
    # (_HOLD_ROWS); the undamped case has |exp(s*dt)| = 1 and a zero kernel
    # residue; in the stiff-kernel case exp(s3*dt)**j underflows to zero
    eig = solve_eigen(params)
    dt = 0.01
    t = np.arange(n) * dt
    f = np.cos(1.3 * t) + np.random.default_rng(n).uniform(-0.5, 0.5, n)
    ref = _cubic_hold_recursion(eig, f, dt)
    for got, want in zip(_forced_convolution(params, f, dt, (0.0, 0.0, 0.0)).T[:2], ref):
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= 52, reason="long double is no wider than float64"
)
@pytest.mark.parametrize(
    "params",
    [REFERENCE, OscillatorParams(1.0, 0.0, 1.0, 3.0), OscillatorParams(1.0, 0.5, 4.0, 80.0)],
    ids=["reference", "c=0", "mu=80"],
)
def test_forced_convolution_matches_long_double_recursion(params):
    # On the kernel's own increment P - I and Gamma, the step-by-step
    # recursion z + (P - I) z + g in long double over 1e5 points.  The
    # blocks and their carried ends round a few times, not once per step, so
    # the error stays within 2e-15 of scale (the doubling scan this replaced
    # read 2.8e-15 on c = 0).
    n, dt, z0 = 100_001, 1e-3, (1.0, 0.3, 0.8)
    f = np.cos(1.3 * np.arange(n) * dt) + np.random.default_rng(5).uniform(-0.5, 0.5, n)
    dp, gamma = _step_map(params, dt)
    sixths = np.array([[0, 6, 0, 0], [-2, -3, 6, -1], [3, -6, 3, 0], [-1, 3, -3, 1]])
    assert np.array_equal(sixths, _HOLD_SIXTHS)
    taps = gamma @ sixths.astype(np.longdouble) / 6
    g = np.lib.stride_tricks.sliding_window_view(_extend(f, np.empty(n + 2)), 4) @ taps.T
    want = np.empty((n, 3), dtype=np.longdouble)
    want[0] = z0
    for i in range(1, n):
        want[i] = want[i - 1] + dp @ want[i - 1] + g[i - 1]
    got = _forced_convolution(params, f, dt, z0)
    assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) <= 2e-15


# x at t = 1, 2.5 and 5 of (x0, v0) = (1, 0.3) with a Constant(1) history on
# a = 1 (W = 1 here) and REFERENCE's m, c, k: exp(A t) z0 for zero forcing,
# and with Sine(1, 2, 0) the same on the 5 x 5 system that appends
# (sin 2t, cos 2t), both by mpmath's expm at 60 digits at t = j*dt exactly.
VISCOUS_X = {
    (1e9, None): [-0.11527861930300632446, -0.012213991028784022179, -0.2897193505281877628],
    (1e12, None): [-0.11527861879791041163, -0.012213991803794945886, -0.28971935089659657217],
    (1e12, "sine"): [0.077770222272837416252, -0.22964993836413922178, 0.28027721318856014825],
}


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= 52, reason="long double is no wider than float64"
)
@pytest.mark.parametrize(
    "mu, forcing, tol",
    [(1e9, None, 1e-15), (1e12, None, 1e-15), (1e12, "sine", 1e-12)],
    ids=["mu=1e9", "mu=1e12", "mu=1e12-sine"],
)
def test_scan_keeps_digits_in_viscous_limit(mu, forcing, tol):
    # At mu*dt = 1e6 (1e9) _expm scales A dt by 2**-22 (2**-32), so the
    # oscillator part of its Taylor sum is 5e-10 (5e-13) of the identity.
    # Squared as P, each square rounded against 1, x lost 3e-10 (6e-8) of
    # scale.  Squared as P - I it meets the exact flow to rounding; with the
    # sine drive, to the cubic hold's own O(dt^4) error, 2e-13 at mu = 2.
    params = OscillatorParams(1.0, 0.5, 4.0, mu)
    drive = Sine(1.0, 2.0, 0.0) if forcing else Constant(0.0)
    traj = forced_response(params, REF_STATE, REF_HISTORY, drive, 5.0, 1e-3)
    want = np.array(VISCOUS_X[mu, forcing])
    assert np.max(np.abs(traj.x[[1000, 2500, 5000]] - want)) <= tol * np.max(np.abs(want))


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= 52, reason="long double is no wider than float64"
)
def test_scan_keeps_digits_over_a_million_undamped_steps():
    # dt = 2**-9 makes every t_i exact, so cos t + 0.3 sin t is the flow to
    # an ulp.  Stored as P = I + D, the step map rounded D against 1, and
    # 1e6 steps grew that to 4e-14 of scale; P - I keeps D's own digits.
    dt = 2.0**-9
    traj = forced_response(
        OscillatorParams(1.0, 0.0, 1.0, 1.0), REF_STATE, None, Constant(0.0), 1e6 * dt, dt
    )
    t = np.arange(1_000_001) * dt
    assert traj.dt == dt and len(traj) == len(t)
    want = np.cos(t) + 0.3 * np.sin(t)
    assert np.max(np.abs(traj.x - want)) <= 5e-15 * np.max(np.abs(want))


def _whole_grid_forcing(forcing, t):
    # The reference form of _forcing_on_grid's callable path: one list of
    # Python floats for the whole grid, where the path reads a memoryview.
    if callable(forcing) and not isinstance(forcing, (Constant, Sine)):
        return np.fromiter(map(float, map(forcing, t.tolist())), float, len(t))
    return _forcing_on_grid(forcing, t)


@pytest.mark.parametrize(
    "n", [2, 3, 4, 5, 4095, 4096, 4097, 4098, 4099, 12290]
)
def test_one_pass_sampling_bitwise_equal_to_whole_grid(n, monkeypatch):
    # A callable is sampled in one pass over a memoryview of the grid;
    # every float of forced_response and integrate stays that of one
    # whole-grid tolist().  Specs and samples, contiguous or strided, keep
    # theirs too.
    rng = np.random.default_rng(n)
    params = OscillatorParams(*np.exp(rng.uniform(-1.0, 1.0, 4)).tolist())
    state, history = InitialState(*rng.normal(size=2).tolist()), REF_HISTORY
    t_end = 0.004 * (n - 1)
    t = time_grid(t_end, 0.004)
    omega = float(rng.uniform(0.5, 3.0))
    forcings = [
        math.sin,
        lambda ti: 0.7,
        Sine(1.3, omega, 0.4),
        Constant(0.0),
        np.cos(omega * t),
        np.repeat(np.cos(omega * t), 2)[::2],
    ]
    for forcing in forcings:
        got = [forced_response(params, state, history, forcing, t_end, 0.004)]
        got.append(integrate(params, state, history, forcing, t_end, 0.004))
        with monkeypatch.context() as patch:
            patch.setattr(expdamp.response, "_forcing_on_grid", _whole_grid_forcing)
            patch.setattr(expdamp.oracle, "_forcing_on_grid", _whole_grid_forcing)
            want = [forced_response(params, state, history, forcing, t_end, 0.004)]
            want.append(integrate(params, state, history, forcing, t_end, 0.004))
        for a, b in zip(got, want):
            assert np.stack([a.x, a.xdot, a.y]).tobytes() == np.stack([b.x, b.xdot, b.y]).tobytes()


@pytest.mark.parametrize(
    "forcing, bound",
    [
        (math.sin, 1.95),
        (Constant(0.0), 1.95),
        (Sine(1.0, 2.0, 0.0), 1.95),
        (np.sin(2.0 * time_grid(20.0, 1e-4)), 1.6),
    ],
    ids=["callable", "constant", "sine", "samples"],
)
def test_forced_response_working_memory(forcing, bound):
    # The traced peak of forced_response, in units of its (n, 3) result:
    # the result, the samples it makes (none for given samples), their
    # end-extended copy and the states the blocks start from (1/8), 1.85x
    # and 1.52x.  A time grid kept through the scan, a whole-grid list of
    # Python floats, or a (3, n) drive array adds at least 1/3.
    run = lambda: forced_response(REFERENCE, REF_STATE, REF_HISTORY, forcing, 20.0, 1e-4)
    run()
    tracemalloc.start()
    try:
        traj = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 3 * 8 * len(traj)


def test_forced_response_undamped_resonance():
    # m=k=1, c=0, f=sin t drives the pair at its own frequency: from rest,
    # x = (sin t - t cos t)/2 and v = t sin t/2 grow without bound
    traj = forced_response(FACTORED, InitialState(0.0, 0.0), None, math.sin, 50.0, 1e-3)
    t = traj.t
    assert np.max(np.abs(traj.x - (np.sin(t) - t * np.cos(t)) / 2.0)) <= 1e-6
    assert np.max(np.abs(traj.xdot - t * np.sin(t) / 2.0)) <= 1e-9


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_near_double_root_raises_typed_error(flags):
    # (s+1)^2 (s+3) with c scaled by 1+1e-8: solve_eigen accepts it, but the
    # modal sums miss x0 and v0 by ~1e-4. The check must survive python -O.
    code = (
        "from expdamp import DegenerateSpectrum, InitialState, OscillatorParams, "
        "forced_response\n"
        "p = OscillatorParams(m=1.0, c=1.28 * (1.0 + 1e-8), k=0.6, mu=5.0)\n"
        "try:\n"
        "    forced_response(p, InitialState(1.0, 0.0), None, None, 5.0, 1e-3)\n"
        "except DegenerateSpectrum as exc:\n"
        "    print('DegenerateSpectrum:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(expdamp.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("DegenerateSpectrum: closed form misses")


# A draw of the seeded outcome probe (omega dt near 2e20), whose scan
# overflows, and a step of 1e10 at omega = 1e300, whose step map's norm
# passes float64's range.
UNRESOLVABLE_STEP = [
    (
        OscillatorParams(
            1.0752014100853305e-21, 0.08565314066164373, 4.818942361012487e23,
            2.3068237641684912e-05,
        ),
        1.0, 0.01,
    ),
    (OscillatorParams(1e-300, 1.0, 1e300, 1.0), 2e10, 1e10),
]


@pytest.mark.parametrize("action", ["error", "always"])
@pytest.mark.parametrize("params, t_end, dt", UNRESOLVABLE_STEP, ids=["scan", "map"])
def test_unresolvable_step_raises_step_too_large(params, t_end, dt, action):
    # with RuntimeWarnings as errors and without: StepTooLarge, and no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(StepTooLarge, match="leaves float64's range"):
            forced_response(params, REF_STATE, REF_HISTORY, Constant(0.0), t_end, dt)
    assert not caught


@pytest.mark.parametrize(
    "params",
    [
        OscillatorParams(
            m=5.676255430508643, c=27.688413844187547, k=45.04880600356004,
            mu=22.776643946780386,
        ),
        OscillatorParams(
            m=9.04670390250688, c=3.317710047207302, k=3.018615743961245, mu=1e8,
        ),
    ],
)
def test_closed_form_checks_second_residue_moment(params):
    # Seeded near-degenerate draws (three real roots; mu = 1e8) that pass
    # solve_eigen, but whose velocity at t = 0, built from sum R_j s_j^2,
    # sum R_j s_j and sum R_j, misses v0 by more than 1e-9 (hddot(0) alone
    # by 6e-9 at mu = 1e8); their modal sums would miss exp(A t) by up to
    # 1.9e-9 of its scale, past the 1e-10 of the regime contract.
    with pytest.raises(DegenerateSpectrum, match="closed form misses"):
        initialization_response(params, InitialState(-2.0, 5.0), REF_HISTORY, [0.0, 0.7, 3.0])


# (params, t_end, dt) for the seeded scan: the reference pair, c = 0, three
# real roots, a stiff kernel, and a 1e6-point grid.
SEEDED_CASES = [
    (REFERENCE, 50.0, 1e-3),
    (OscillatorParams(m=1.0, c=0.0, k=1.0, mu=3.0), 50.0, 1e-3),
    (OscillatorParams(m=1.0, c=5.0 / 3.0, k=1.0, mu=6.0), 50.0, 1e-3),
    (OscillatorParams(m=1.0, c=0.5, k=4.0, mu=80.0), 25.0, 5e-4),
    (REFERENCE, 1000.0, 1e-3),
]
SEEDED_IDS = ["damped-pair", "undamped", "three-real", "stiff-kernel", "grid-1e6"]


@pytest.mark.parametrize("params, t_end, dt", SEEDED_CASES, ids=SEEDED_IDS)
def test_seeded_scan_is_free_plus_forced_response(params, t_end, dt):
    # The scan from (x0, v0, W) minus the scan from rest is the closed-form
    # free response, and the forced trajectory starts at the initial state.
    f = Sine(1.3, 2.0, 0.4)
    both = forced_response(params, REF_STATE, REF_HISTORY, f, t_end, dt)
    forced = forced_response(params, InitialState(0.0, 0.0), None, f, t_end, dt)
    free = forced_response(params, REF_STATE, REF_HISTORY, None, t_end, dt)
    for a, b, want in ((both.x, forced.x, free.x), (both.xdot, forced.xdot, free.xdot)):
        assert np.max(np.abs(a - b - want)) <= 1e-12 * np.max(np.abs(want))
    assert both.x[0] == REF_STATE.x0 and both.xdot[0] == REF_STATE.v0


def _long_double_powers(params, z0, dt, n, stride):
    # exp(A*dt)**j @ z0 for j = 0, stride, 2*stride, ... < n, in long double:
    # degree-30 Taylor on A*dt/2**s, squared s times, then stride-th powers
    # by repeated products.
    m, c, k, mu = params.m, params.c, params.k, params.mu
    a = np.array([[0, 1, 0], [-k / m, 0, -c / m], [0, mu, -mu]], dtype=np.longdouble)
    a = a * np.longdouble(dt)
    s = max(0, math.ceil(math.log2(max(float(np.abs(a).sum(axis=0).max()), 1e-300) / 0.125)))
    term = step = np.eye(3, dtype=np.longdouble)
    for j in range(1, 31):
        term = term @ a / (2**s * j)
        step = step + term
    for _ in range(s):
        step = step @ step
    jump = np.linalg.matrix_power(step, stride)
    z = np.asarray(z0, dtype=np.longdouble)
    out = [z]
    for _ in range(1, -(-n // stride)):
        z = jump @ z
        out.append(z)
    return np.array(out, dtype=float).T


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= 52, reason="long double is no wider than float64"
)
@pytest.mark.parametrize("params, t_end, dt", SEEDED_CASES, ids=SEEDED_IDS)
def test_seeded_scan_matches_long_double_powers(params, t_end, dt):
    # The step map stays in long double inside the scan; rounded to float64
    # its error grows like n*eps and the undamped case misses by ~4e-13.
    t = time_grid(t_end, dt)
    n, step = len(t), float(t[1])
    stride = 1 if n <= 100_000 else 1000
    z0 = (REF_STATE.x0, REF_STATE.v0, history_weight(params.kernel, REF_HISTORY).value)
    x, v, y = _forced_convolution(params, np.zeros(n), step, z0).T
    want = _long_double_powers(params, z0, step, n, stride)
    for got, ref in zip((x[::stride], v[::stride], y[::stride]), want, strict=True):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= 52, reason="long double is no wider than float64"
)
def test_forcing_column_at_unit_scale_keeps_step_map_exact():
    # Here dt/m = 2e13 while omega*dt = 3.5.  The forcing column enters the
    # block exponential at unit scale, so dt/m does not set its scaling
    # (at dt/m it cost the step map 2.3e-8), and the zero-drive scan is
    # exp(A dt)^j to rounding.
    params = OscillatorParams(
        4.815206360330216e-16, 1.1285792255437578e-17, 5.844051476591806e-11, 3.337316448603724e-23
    )
    traj = forced_response(params, InitialState(1.0, 0.3), None, Constant(0.0), 1.0, 0.01)
    want = _long_double_powers(params, (1.0, 0.3, 0.0), traj.dt, len(traj), 1)
    for got, ref in zip((traj.x, traj.xdot, traj.y), want, strict=True):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "params",
    [
        OscillatorParams(m=1.0, c=1.28 * (1.0 + 1e-8), k=0.6, mu=5.0),
        OscillatorParams(m=1.0, c=1.125, k=0.5, mu=4.0),
    ],
    ids=["near-double", "exact-double"],
)
def test_forced_double_root_matches_oracle(params):
    # (s+1)^2 (s+3) with c nudged by 1e-8, and exactly (s+1)^2 (s+2): the
    # scan needs no residues, so neither raises DegenerateSpectrum
    history = HistoryProfile(a=1.5, shape=Sine(0.7, 3.0, 0.4))
    f = Sine(1.0, 2.0)
    a = forced_response(params, REF_STATE, history, f, 10.0, 1e-3)
    b = integrate(params, REF_STATE, history, f, 10.0, 1e-3)
    for got, want in ((a.x, b.x), (a.xdot, b.xdot)):
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def test_forced_response_needs_no_spectrum(monkeypatch):
    # A forced trajectory uses no roots or residues: it survives a
    # solve_eigen that always fails.
    def refuse(params):
        raise AssertionError("forced_response must not solve the spectrum")

    monkeypatch.setattr(expdamp.response, "solve_eigen", refuse)
    traj = forced_response(REFERENCE, REF_STATE, REF_HISTORY, Sine(1.0, 2.0), 5.0, 1e-3)
    assert len(traj) == 5001 and traj.x[0] == REF_STATE.x0
    with pytest.raises(AssertionError, match="must not solve"):
        forced_response(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, 1e-3)


def test_trajectory_starts_at_initial_state():
    traj = forced_response(REFERENCE, REF_STATE, REF_HISTORY, None, 2.0, 1e-3)
    # algebraically exact (h(0)=0, m*hdot(0)=1); rounding-level in floats
    assert traj.x[0] == pytest.approx(REF_STATE.x0, abs=1e-12)
    assert traj.xdot[0] == pytest.approx(REF_STATE.v0, abs=1e-12)
    w = history_weight(REFERENCE.kernel, REF_HISTORY).value
    assert traj.psi[0] == pytest.approx(w, rel=1e-15)
    assert traj.psi == pytest.approx(w * np.exp(-REFERENCE.mu * traj.t), rel=1e-14)


def test_forced_trajectory_keeps_internal_variable():
    # The scan's y row is the memory variable, started at exactly W; psi is
    # derived from W on the same grid.
    traj = forced_response(REFERENCE, REF_STATE, REF_HISTORY, Sine(1.0, 2.0), 2.0, 1e-3)
    w = history_weight(REFERENCE.kernel, REF_HISTORY)
    assert traj.weight == w
    assert traj.y[0] == w.value
    assert np.array_equal(traj.psi, w.value * np.exp(-REFERENCE.mu * traj.t))
    with pytest.raises(ValueError):
        traj.y[0] = 0.0


def test_velocity_channel_consistent_with_displacement():
    # second-order one-sided difference of x at t=0 recovers v0
    delta = 1e-5
    t = np.array([0.0, delta, 2.0 * delta])
    x = initialization_response(REFERENCE, REF_STATE, REF_HISTORY, t)
    fd = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * delta)
    assert fd == pytest.approx(REF_STATE.v0, abs=1e-6)


def test_superposition_scaling():
    lam = 2.0
    scaled_hist = HistoryProfile(a=1.0, shape=Constant(lam * 1.0))
    f = lambda t: math.sin(2.0 * t)
    f2 = lambda t: lam * math.sin(2.0 * t)
    a = forced_response(REFERENCE, REF_STATE, REF_HISTORY, f, 5.0, 1e-3)
    b = forced_response(
        REFERENCE,
        InitialState(lam * REF_STATE.x0, lam * REF_STATE.v0),
        scaled_hist,
        f2,
        5.0,
        1e-3,
    )
    assert b.x == pytest.approx(lam * a.x, rel=1e-12, abs=1e-14)
    assert b.xdot == pytest.approx(lam * a.xdot, rel=1e-12, abs=1e-14)


def test_superposition_additivity():
    sa = InitialState(1.0, 0.0)
    sb = InitialState(0.0, 1.0)
    sc = InitialState(1.0, 1.0)
    t = np.linspace(0.0, 6.0, 61)
    xa = initialization_response(REFERENCE, sa, None, t)
    xb = initialization_response(REFERENCE, sb, None, t)
    xc = initialization_response(REFERENCE, sc, None, t)
    assert xc == pytest.approx(xa + xb, rel=1e-12, abs=1e-14)


def test_zero_history_same_as_no_history():
    zero_hist = HistoryProfile(a=1.0, shape=Constant(0.0))
    a = forced_response(REFERENCE, REF_STATE, None, None, 3.0, 1e-3)
    b = forced_response(REFERENCE, REF_STATE, zero_hist, None, 3.0, 1e-3)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.xdot, b.xdot)


def test_closed_form_matches_trapezoid_at_second_order():
    # trapezoid quadrature of the kernel convolution converges at O(dt^2)
    eig = solve_eigen(REFERENCE)
    t_eval = 2.0
    exact = exp_convolution(eig, REFERENCE.mu, t_eval)

    def quad(n):
        tau = np.linspace(0.0, t_eval, n + 1)
        vals = impulse_response(eig, t_eval - tau) * np.exp(-REFERENCE.mu * tau)
        return float(np.trapezoid(vals, tau))

    err1 = abs(quad(500) - exact)
    err2 = abs(quad(1000) - exact)
    assert err1 / err2 == pytest.approx(4.0, rel=0.15)


def test_decay_envelope():
    # |x(t)| <= C exp(-rho t / 2) with C fitted early holds later
    eig = solve_eigen(REFERENCE)
    rho = min(eig.alpha, eig.gamma, REFERENCE.mu)
    t_lo = np.linspace(5.0 / rho, 12.5 / rho, 400)
    t_hi = np.linspace(12.5 / rho, 20.0 / rho, 400)
    x_lo = initialization_response(REFERENCE, REF_STATE, REF_HISTORY, t_lo)
    x_hi = initialization_response(REFERENCE, REF_STATE, REF_HISTORY, t_hi)
    fitted = np.max(np.abs(x_lo) * np.exp(0.5 * rho * t_lo))
    assert np.all(np.abs(x_hi) <= fitted * np.exp(-0.5 * rho * t_hi))
