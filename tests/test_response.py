"""Closed-form response assembly, trajectories, and forced convolution."""

import cmath
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expdamp
from expdamp import (
    Constant,
    DegenerateSpectrum,
    HistoryProfile,
    InitialState,
    OscillatorParams,
    ResonantKernel,
    Sine,
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
from expdamp.response import _CHUNK, _forced_convolution, _forcing_on_grid

FACTORED = OscillatorParams(m=1.0, c=0.0, k=1.0, mu=2.0)
REFERENCE = OscillatorParams(m=1.0, c=0.5, k=4.0, mu=2.0)
REF_STATE = InitialState(x0=1.0, v0=0.3)
REF_HISTORY = HistoryProfile(a=1.0, shape=Constant(1.0))


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
    with pytest.raises(ValueError):
        time_grid(0.0, 0.1)
    with pytest.raises(ValueError):
        time_grid(-1.0, 0.1)
    with pytest.raises(ValueError, match=r"t_end = 1e\+300, dt = 1e-300"):
        time_grid(1e300, 1e-300)


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
        t0=0.0,
        dt=0.1,
        x=np.zeros(3),
        xdot=np.zeros(3),
        psi=np.zeros(3),
    )
    traj = Trajectory(**ok)
    assert len(traj) == 3
    assert traj.t == pytest.approx([0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        Trajectory(**{**ok, "x": np.zeros(1), "xdot": np.zeros(1), "psi": np.zeros(1)})
    with pytest.raises(ValueError):
        Trajectory(**{**ok, "xdot": np.zeros(4)})
    with pytest.raises(ValueError):
        Trajectory(**{**ok, "x": np.array([0.0, math.nan, 0.0])})
    with pytest.raises(ValueError):
        Trajectory(**{**ok, "dt": 0.0})


def test_trajectory_arrays_read_only():
    traj = Trajectory(t0=0.0, dt=0.1, x=np.zeros(3), xdot=np.zeros(3), psi=np.zeros(3))
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
    a = forced_response(REFERENCE, REF_STATE, REF_HISTORY, None, 5.0, 1e-3)
    b = forced_response(REFERENCE, REF_STATE, REF_HISTORY, lambda t: 0.0, 5.0, 1e-3)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.xdot, b.xdot)


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
    seen = []
    _forcing_on_grid(lambda ti: seen.append(type(ti)) or 0.0, time_grid(1.0, 0.1))
    assert seen == [float] * 11


@pytest.mark.parametrize(
    "value", [None, 1.0 + 2.0j, np.array([1.0])], ids=["none", "complex", "shape-1-array"]
)
def test_forcing_callable_non_scalar_raises_type_error(value):
    with pytest.raises(TypeError):
        _forcing_on_grid(lambda ti: value, time_grid(1.0, 0.1))


def test_forcing_callable_nan_raises():
    with pytest.raises(ValueError, match="forcing must be finite"):
        _forcing_on_grid(lambda ti: math.nan if ti > 0.5 else 0.0, time_grid(1.0, 0.1))


def test_forced_convolution_rejects_broken_conjugate_pair():
    eig = solve_eigen(REFERENCE)
    broken = dataclasses.replace(eig, r2=eig.r1.conjugate() * (1.0 + 1e-12))
    f = np.ones(11)
    with pytest.raises(DegenerateSpectrum, match="conjugate-pair invariant"):
        _forced_convolution(broken, f, 0.01)
    real = solve_eigen(OscillatorParams(m=1.0, c=5.0 / 3.0, k=1.0, mu=6.0))
    with pytest.raises(DegenerateSpectrum, match="conjugate-pair invariant"):
        _forced_convolution(dataclasses.replace(real, r3=real.r3 + 1e-9j), f, 0.01)


def _trapezoid_recursion(eig, f, dt):
    # Reference for the chunked scan: the per-mode trapezoid recursion
    # C <- exp(s*dt)*(C + dt/2*f_prev) + dt/2*f_here, one step at a time,
    # over all three modes in complex, so it does not share the scan's
    # one-mode-per-conjugate-pair reduction.
    decay = [cmath.exp(s * dt) for s in eig.roots]
    c = [0j, 0j, 0j]
    conv_x, conv_v = [0.0], [0.0]
    for f_prev, f_here in zip(f[:-1], f[1:]):
        c = [d * (cj + 0.5 * dt * f_prev) + 0.5 * dt * f_here for d, cj in zip(decay, c)]
        conv_x.append(sum(r * cj for r, cj in zip(eig.residues, c)).real)
        conv_v.append(sum(r * s * cj for r, s, cj in zip(eig.residues, eig.roots, c)).real)
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
    "n", [2, 3, 63, 64, 65, 66, 1025, 2049, _CHUNK, _CHUNK + 1, _CHUNK + 2, 2 * _CHUNK + 5]
)
def test_forced_convolution_matches_recursion(params, n):
    # grid lengths straddle one chunk (_CHUNK steps); the undamped case
    # has |exp(s*dt)| = 1 and a zero kernel residue; in the stiff-kernel
    # case exp(s3*dt)**j underflows to zero well inside one chunk
    eig = solve_eigen(params)
    dt = 0.01
    t = np.arange(n) * dt
    f = np.cos(1.3 * t) + np.random.default_rng(n).uniform(-0.5, 0.5, n)
    for got, want in zip(_forced_convolution(eig, f, dt), _trapezoid_recursion(eig, f, dt)):
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


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


def test_trajectory_starts_at_initial_state():
    traj = forced_response(REFERENCE, REF_STATE, REF_HISTORY, None, 2.0, 1e-3)
    # algebraically exact (h(0)=0, m*hdot(0)=1); rounding-level in floats
    assert traj.x[0] == pytest.approx(REF_STATE.x0, abs=1e-12)
    assert traj.xdot[0] == pytest.approx(REF_STATE.v0, abs=1e-12)
    w = history_weight(REFERENCE.kernel, REF_HISTORY).value
    assert traj.psi[0] == pytest.approx(w, rel=1e-15)
    assert traj.psi == pytest.approx(w * np.exp(-REFERENCE.mu * traj.t), rel=1e-14)


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
