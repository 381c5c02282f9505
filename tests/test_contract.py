"""Regime contract: validated inputs give an accurate result or a typed error.

Every guard on a numerical invariant must also hold under ``python -O``.
Forced trajectories must meet their documented accuracy in every spectral
regime, not only on the well-separated draws: exact for a constant or cubic
drive and O(dt^4) for a smooth one.  The RK4 oracle must meet its O(dt^4)
accuracy or raise StepTooLarge, and the closed forms must match exp(A t) or
raise DegenerateSpectrum.
"""

import ast
import collections
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import expdamp
from expdamp import (
    Constant,
    DegenerateSpectrum,
    HistoryProfile,
    InitialState,
    NotOscillatory,
    OscillatorParams,
    Samples,
    Sine,
    StepTooLarge,
    decay_bounds,
    exp_convolution,
    forced_response,
    history_eval,
    history_weight,
    impulse_response,
    impulse_response_derivative,
    initialization_response,
    integrate,
    kernel_eval,
    response_terms,
    solve_eigen,
    split_history_term,
    time_grid,
    verify_decay,
)
from expdamp.oracle import _resolution_limit


@pytest.mark.skipif(sys.flags.optimize > 0, reason="this is the python -O rerun")
def test_contract_holds_under_python_O():
    # pytest rewrites the tests' own asserts, which therefore survive -O;
    # what the rerun tests is that no guard in the package is lost.
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]


def test_package_has_no_assert_statements():
    # python -O strips assert, so no guard in the package may be one.
    found = []
    for path in sorted(Path(expdamp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, found


# The public names of the package, one copy kept here as the test's oracle.
PUBLIC_NAMES = {
    "BoundReport", "CharacteristicPolynomial", "Constant", "DegenerateSpectrum",
    "EigenSolution", "ExponentialKernel", "HistoryProfile", "HistoryWeight",
    "InitialState", "NotOscillatory", "OscillatorParams", "Polynomial",
    "ResonantKernel", "ResponseTerms", "Samples", "Sine", "StepTooLarge",
    "Trajectory", "characteristic_poly", "convolution_check", "decay_bounds",
    "exp_convolution", "forced_response", "history_eval", "history_sup_norm",
    "history_weight", "impulse_response", "impulse_response_derivative",
    "initialization_response", "integrate", "kernel_eval", "response_terms",
    "solve_eigen", "split_history_term", "time_grid", "verify_decay",
}


def test_package_exports_its_modules_public_names():
    # expdamp re-exports each module's __all__: every name once, none
    # private, each the very object its module defines.
    names = expdamp.__all__
    assert len(names) == len(set(names)) == 36 and set(names) == PUBLIC_NAMES
    assert not [n for n in names if n.startswith("_")]
    modules = ("errors", "model", "eigen", "history", "response", "oracle", "bounds")
    owners = {n: getattr(expdamp, m) for m in modules for n in getattr(expdamp, m).__all__}
    assert owners.keys() == set(names)
    for name, module in owners.items():
        assert getattr(expdamp, name) is getattr(module, name), name


def _acceptance_draw(seed):
    # One draw from the acceptance criteria's parameter distribution.
    rng = np.random.default_rng(seed)
    return OscillatorParams(
        m=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
        c=float(rng.uniform(0.0, 5.0)),
        k=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
        mu=float(np.exp(rng.uniform(np.log(0.1), np.log(100.0)))),
    )


# (params, sine forcing) per regime; every regime also runs Constant(0.8).
REGIMES = {
    "acceptance": (_acceptance_draw(2024), Sine(1.0, 2.0, 0.4)),
    # m x'' + x = sin t: the drive sits on the undamped resonance.
    "undamped-resonant": (OscillatorParams(1.0, 0.0, 1.0, 2.0), Sine(1.0, 1.0, 0.0)),
    # (s+1)(s+2)(s+3)
    "three-real": (OscillatorParams(1.0, 5.0 / 3.0, 1.0, 6.0), Sine(1.0, 2.0, 0.4)),
    # (s+1)^2 (s+3) with c nudged by 1e-8
    "near-double": (OscillatorParams(1.0, 1.28 * (1.0 + 1e-8), 0.6, 5.0), Sine(1.0, 2.0, 0.4)),
    # (s+1)^2 (s+2)
    "exact-double": (OscillatorParams(1.0, 1.125, 0.5, 4.0), Sine(1.0, 2.0, 0.4)),
    # (s+1)^3
    "triple": (OscillatorParams(1.0, 8.0 / 9.0, 1.0 / 3.0, 3.0), Sine(1.0, 2.0, 0.4)),
    # the kernel root sits within about 1e-9 of -mu
    "root-near-kernel": (OscillatorParams(1.0, 1e-9, 1.0, 3.0), Sine(1.0, 2.0, 0.4)),
    # mu = 1e4 k/c: close to the viscous limit m x'' + c x' + k x = f
    "viscous-limit": (OscillatorParams(1.0, 0.5, 4.0, 1e4 * 4.0 / 0.5), Sine(1.0, 2.0, 0.4)),
}
CASES = [
    pytest.param(params, forcing, id=f"{name}-{type(forcing).__name__.lower()}")
    for name, (params, sine) in REGIMES.items()
    for forcing in (Constant(0.8), sine)
]
STATE = InitialState(1.0, 0.3)
HISTORY = HistoryProfile(a=1.0, shape=Constant(1.0))


def _expm_long_double(a):
    # scaling and squaring with a degree-30 Taylor polynomial, in long double
    a = np.asarray(a, dtype=np.longdouble)
    s = max(0, math.ceil(math.log2(max(float(np.abs(a).sum(axis=0).max()), 1e-300) / 0.125)))
    term = out = np.eye(len(a), dtype=np.longdouble)
    for j in range(1, 31):
        term = term @ a / (2**s * j)
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _exact_samples(params, w, forcing, dt, n, stride):
    """(x, v) at every stride-th grid point, exactly for a Constant, Sine
    or numpy Polynomial drive: the drive's generator is appended to
    z = (x, v, y), so that z' = A z has no input and exp(A*stride*dt) steps
    it exactly."""
    m, c, k, mu = params.m, params.c, params.k, params.mu
    if isinstance(forcing, Constant):
        # u' = 0, f = u
        gen, u0, out = [[0.0]], [forcing.value], [1.0]
    elif isinstance(forcing, np.polynomial.Polynomial):
        # u = (f, f', f'', ...) shifts down, a nilpotent generator
        u0 = [forcing.deriv(j)(0.0) for j in range(len(forcing.coef))]
        gen, out = np.eye(len(u0), k=1), [1.0] + [0.0] * (len(u0) - 1)
    else:
        # (sin, cos)(omega t + phase) rotates at omega, f = amplitude * sin
        om, ph = forcing.omega, forcing.phase
        gen, u0 = [[0.0, om], [-om, 0.0]], [math.sin(ph), math.cos(ph)]
        out = [forcing.amplitude, 0.0]
    a = np.zeros((3 + len(u0),) * 2, dtype=np.longdouble)
    a[:3, :3] = [[0, 1, 0], [-k / m, 0, -c / m], [0, mu, -mu]]
    a[1, 3:] = np.array(out) / m
    a[3:, 3:] = gen
    jump = _expm_long_double(a * (np.longdouble(dt) * stride))
    z = np.array([STATE.x0, STATE.v0, w, *u0], dtype=np.longdouble)
    rows = [z]
    for _ in range(1, -(-n // stride)):
        z = jump @ z
        rows.append(z)
    return np.array(rows, dtype=float).T[:2]


def _forced_error(params, forcing, dt, solve=forced_response):
    # max error of x and xdot, each relative to the reference's own maximum
    traj = solve(params, STATE, HISTORY, forcing, 20.0, dt)
    stride = round(0.1 / traj.dt)
    w = HISTORY.shape.value * -math.expm1(-params.mu * HISTORY.a)
    ref = _exact_samples(params, w, forcing, traj.dt, len(traj), stride)
    return max(
        np.max(np.abs(got[::stride] - want)) / np.max(np.abs(want))
        for got, want in zip((traj.x, traj.xdot), ref, strict=True)
    )


@pytest.mark.parametrize("params, forcing", CASES)
def test_forced_response_every_regime(params, forcing):
    # The forced scan integrates the cubic through the samples exactly on
    # the exact step map: 1e-11 at dt = 1e-3 over 20 s in every spectral
    # regime, exact for a constant drive and fourth order for a sine.
    assert _forced_error(params, forcing, 1e-3) <= 1e-11
    coarse = _forced_error(params, forcing, 0.1)
    if isinstance(forcing, Constant):
        assert coarse <= 1e-12
    else:
        assert 14.0 <= coarse / _forced_error(params, forcing, 0.05) <= 18.0


CUBIC = np.polynomial.Polynomial([0.7, -0.5, 0.03, -1e-4])


def _sampled(params, state, history, forcing, t_end, dt):
    return forced_response(params, state, history, forcing(time_grid(t_end, dt)), t_end, dt)


@pytest.mark.parametrize("solve", [forced_response, _sampled], ids=["callable", "samples"])
@pytest.mark.parametrize("regime", REGIMES)
def test_cubic_drive_is_exact_every_regime(regime, solve):
    # The cubic through any four samples of a cubic drive is the drive
    # itself, so even at dt = 0.1 only rounding is left.
    assert _forced_error(REGIMES[regime][0], CUBIC, 0.1, solve) <= 1e-12


@pytest.mark.parametrize("params, forcing", CASES)
def test_integrate_every_regime(params, forcing):
    # The RK4 oracle is within 1e-9 at dt = 1e-3 over 20 s wherever its
    # step guard admits dt, and raises StepTooLarge exactly past the guard.
    limit = _resolution_limit(params)
    integrate(params, STATE, HISTORY, forcing, 2.0 * limit, limit)
    past = limit * (1.0 + 1e-9)
    with pytest.raises(StepTooLarge):
        integrate(params, STATE, HISTORY, forcing, 2.0 * past, past)
    if 1e-3 > limit:
        with pytest.raises(StepTooLarge):
            integrate(params, STATE, HISTORY, forcing, 20.0, 1e-3)
        return
    coarse = _forced_error(params, forcing, 1e-3, integrate)
    assert coarse <= 1e-9
    if params is REGIMES["acceptance"][0]:
        # elsewhere the error sits at rounding level and does not halve
        fine = _forced_error(params, forcing, 5e-4, integrate)
        assert 14.0 <= coarse / fine <= 18.0


def _drive(kind, sine, t, i1):
    """The forcing of a run on the grid t, shifted to start at t[i1]."""
    if kind == "constant":
        return Constant(0.8)
    if kind == "zero":
        return Constant(0.0)
    if kind == "sine":
        return Sine(sine.amplitude, sine.omega, sine.phase + sine.omega * t[i1])
    if kind == "cubic":
        return lambda s: CUBIC(s + t[i1])
    return np.cos(1.3 * t[i1:] + 0.2)


def _continuation_error(solve, params, drive, dt):
    # (x, v, y) at T1 is the whole state: a run continued from (x(T1),
    # v(T1)) with a Constant history on [-1, 0] of weight W = y(T1) and the
    # forcing shifted by T1 must repeat the tail of the run from 0, at three
    # T1 along a 13,288-step run.
    steps = 13288
    full = solve(params, STATE, HISTORY, drive(time_grid(steps * dt, dt), 0), steps * dt, dt)
    worst = 0.0
    for i1 in (4096, 4873, 12287):
        history = HistoryProfile(1.0, Constant(full.y[i1] / -math.expm1(-params.mu)))
        state = InitialState(full.x[i1], full.xdot[i1])
        cont = solve(params, state, history, drive(full.t, i1), (steps - i1) * full.dt, full.dt)
        for got, want in zip((cont.x, cont.xdot, cont.y), (full.x, full.xdot, full.y)):
            worst = max(worst, np.max(np.abs(got - want[i1:])) / np.max(np.abs(want)))
    return worst


@pytest.mark.parametrize("kind", ["constant", "sine", "cubic", "samples", "zero"])
@pytest.mark.parametrize("regime", REGIMES)
def test_forced_response_continues_from_its_state(regime, kind):
    params, sine = REGIMES[regime]
    drive = lambda t, i1: _drive(kind, sine, t, i1)
    assert _continuation_error(forced_response, params, drive, 1e-3) <= 1e-13


@pytest.mark.parametrize("regime", REGIMES)
def test_integrate_continues_from_its_state(regime):
    params = REGIMES[regime][0]
    drive = lambda t, i1: _drive("cubic", None, t, i1)
    dt = min(1e-3, _resolution_limit(params))
    assert _continuation_error(integrate, params, drive, dt) <= 1e-13


def test_own_velocity_as_sampled_history_gives_y():
    # A run from W = 0 whose velocity on [0, T1] becomes a Samples history
    # on [-T1, 0] hands on its y(T1) as W: the trapezoid W converges to it
    # at O(dt^2).
    params, forcing = OscillatorParams(1.0, 0.5, 4.0, 2.0), Sine(1.0, 2.0, 0.4)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        run = forced_response(params, STATE, None, forcing, 4.0, dt)
        history = HistoryProfile(4.0, Samples(tuple(run.xdot)))
        errors.append(abs(history_weight(params.kernel, history).value - run.y[-1]))
    assert all(3.5 <= coarse / fine <= 4.5 for coarse, fine in zip(errors, errors[1:]))


FREE_T = np.array([0.0, 0.5, 3.0, 11.0, 20.0])
# Rows whose roots cluster closer than float64 can resolve as simple poles.
CLUSTERED = {"near-double", "exact-double", "triple"}


def _free_trajectory(params, forcing=None):
    traj = forced_response(params, STATE, HISTORY, forcing, 20.0, 1e-3)
    i = np.rint(FREE_T / traj.dt).astype(int)
    return traj.x[i], traj.xdot[i]


FREE_ENTRIES = {
    "forced_response": _free_trajectory,
    "forced_response-zero": lambda p: _free_trajectory(p, Constant(0.0)),
    "initialization_response": lambda p: (initialization_response(p, STATE, HISTORY, FREE_T),),
    "response_terms": lambda p: (response_terms(p, STATE, HISTORY, FREE_T).total,),
}


@pytest.mark.parametrize("entry", FREE_ENTRIES)
@pytest.mark.parametrize("regime", REGIMES)
def test_free_response_every_regime(regime, entry):
    # Every closed form is exp(A t)(x0, v0, W) to 1e-10 of its scale, or
    # raises DegenerateSpectrum where the roots cluster.  The scan of a zero
    # drive needs no simple roots and never raises.
    params = REGIMES[regime][0]
    try:
        got = FREE_ENTRIES[entry](params)
    except DegenerateSpectrum:
        if regime not in CLUSTERED or entry == "forced_response-zero":
            raise
        return
    w = HISTORY.shape.value * -math.expm1(-params.mu * HISTORY.a)
    ref = _exact_samples(params, w, Constant(0.0), 0.5, 41, 1)[:, np.rint(FREE_T / 0.5).astype(int)]
    # ref holds x and xdot; an entry that returns x alone checks x only.
    for g, want in zip(got, ref):
        assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))


def _free_xdot_error(params):
    # free xdot on the 41-point grid of step 0.5, relative to exp(A t)'s maximum
    traj = forced_response(params, STATE, HISTORY, None, 20.0, 0.5)
    w = HISTORY.shape.value * -math.expm1(-params.mu * HISTORY.a)
    want = _exact_samples(params, w, Constant(0.0), traj.dt, len(traj), 1)[1]
    return np.max(np.abs(traj.xdot - want)) / np.max(np.abs(want))


def test_free_velocity_to_rounding():
    # xdot comes from the same three sums as x, h, hdot and h * exp(-mu t),
    # so it keeps their accuracy, in the viscous limit too.
    params = [REGIMES["viscous-limit"][0]] + [_acceptance_draw(seed) for seed in range(300)]
    worst = max(_free_xdot_error(p) for p in params)
    assert worst <= 2e-13


CASE_D = (6.673141086833076e26, 2172638.666111693, 4.3754647856790055e-21, 7.206403042208273e-25)


def _scenario(scalar, params):
    # params with the reference state and history, every input scalar
    # converted by scalar
    return (
        OscillatorParams(*map(scalar, params)),
        InitialState(scalar(1.0), scalar(0.3)),
        HistoryProfile(scalar(1.0), Constant(scalar(1.0))),
    )


def test_numpy_scalar_inputs_give_python_float_results():
    # The validated dataclasses store the Python floats they check, so a
    # float64 input gives the bits a float gives, and the same verdict: at
    # CASE_D the modal sums miss x(0), so the closed form must raise for
    # either type rather than return x(1) = 1.0 where x(1) = 1.3.
    results = []
    for scalar in (float, np.float64):
        params, state, history = _scenario(scalar, (1.0, 0.5, 4.0, 2.0))
        sine = Sine(scalar(1.0), scalar(2.0), scalar(0.0))
        assert type(params.mu) is type(state.v0) is type(history.a) is float
        eig = solve_eigen(params)
        free = forced_response(params, state, history, None, 5.0, 1e-3)
        forced = forced_response(params, state, history, sine, 5.0, 1e-3)
        rk4 = integrate(params, state, history, sine, 5.0, 1e-3)
        report = verify_decay(params, state, history, 5.0, 1e-2)
        out = [eig.roots, eig.residues, free.x, free.xdot, forced.x, forced.xdot, forced.y]
        out += [rk4.x, rk4.xdot, rk4.y, report.i1_abs, report.i2_abs, report.b1, report.b2]
        out += [[report.tail_time, report.tail_x, report.tail_i1, report.tail_i2]]
        results.append([np.asarray(a).tobytes() for a in out])
        assert report.envelope_ok and report.tail_ok
        with pytest.raises(DegenerateSpectrum, match="misses the initial state"):
            forced_response(*_scenario(scalar, CASE_D), None, 1.0, 0.01)
    assert results[0] == results[1]


def test_history_split_and_decay_near_kernel_rate():
    # A root within about 1e-9 of -mu is no pole of the history term.
    params = REGIMES["root-near-kernel"][0]
    t = np.linspace(0.0, 20.0, 201)
    i1, i2 = split_history_term(params, solve_eigen(params), HISTORY, t)
    term = response_terms(params, STATE, HISTORY, t).term_history
    assert np.max(np.abs(i1 + i2 - term)) <= 1e-12 * np.max(np.abs(term))
    report = verify_decay(params, STATE, HISTORY, 20.0, 1e-2)
    assert report.bounds_ok and report.envelope_ok and report.tail_ok


# A damped pair, as split_history_term and decay_bounds need.
PAIR = OscillatorParams(1.0, 0.5, 4.0, 2.0)
TIME_ENTRIES = {
    "initialization_response": lambda t: initialization_response(PAIR, STATE, HISTORY, t),
    "response_terms": lambda t: response_terms(PAIR, STATE, HISTORY, t),
    "impulse_response": lambda t: impulse_response(solve_eigen(PAIR), t),
    "impulse_response_derivative": lambda t: impulse_response_derivative(solve_eigen(PAIR), t),
    "exp_convolution": lambda t: exp_convolution(solve_eigen(PAIR), 1.0, t),
    "split_history_term": lambda t: split_history_term(PAIR, solve_eigen(PAIR), HISTORY, t),
    "decay_bounds": lambda t: decay_bounds(PAIR, solve_eigen(PAIR), 1.0, 1.0, t),
    "kernel_eval": lambda t: kernel_eval(PAIR.kernel, t),
    "psi": lambda t: history_weight(PAIR.kernel, HISTORY).psi(t),
    # history time runs over [-a, 0]
    "history_eval": lambda t: history_eval(HISTORY, -t),
}


@pytest.mark.parametrize(
    "t",
    [math.nan, np.array([0.0, math.nan, 1.0]), math.inf, np.array([0.0, math.inf])],
    ids=["scalar", "array", "inf", "inf-array"],
)
@pytest.mark.parametrize("entry", TIME_ENTRIES)
def test_nan_time_raises_value_error(entry, t):
    # NaN fails every comparison, so a guard written as any(t < 0) lets it
    # through to a NaN result or a DegenerateSpectrum; t = inf passed such a
    # guard to 0 * inf (a RuntimeWarning) or to a silent 0.
    with pytest.raises(ValueError) as err:
        TIME_ENTRIES[entry](t)
    assert type(err.value) is ValueError


# At c = 0 the pair sits on the imaginary axis, where exp(s t) at t = inf
# is NaN: the modal sums raised a RuntimeWarning or a DegenerateSpectrum.
UNDAMPED = OscillatorParams(1.0, 0.0, 4.0, 2.0)
SPECTRAL_ENTRIES = {
    "initialization_response": lambda t: initialization_response(UNDAMPED, STATE, HISTORY, t),
    "response_terms": lambda t: response_terms(UNDAMPED, STATE, HISTORY, t),
    "impulse_response": lambda t: impulse_response(solve_eigen(UNDAMPED), t),
    "impulse_response_derivative": lambda t: impulse_response_derivative(solve_eigen(UNDAMPED), t),
    "exp_convolution": lambda t: exp_convolution(solve_eigen(UNDAMPED), 1.0, t),
}


@pytest.mark.parametrize("t", [math.inf, np.array([0.0, math.inf])], ids=["scalar", "array"])
@pytest.mark.parametrize("entry", SPECTRAL_ENTRIES)
def test_infinite_time_undamped_raises_value_error(entry, t):
    with pytest.raises(ValueError) as err:
        SPECTRAL_ENTRIES[entry](t)
    assert type(err.value) is ValueError


SCALAR_ARGS = {
    "m_sup": lambda v: decay_bounds(PAIR, solve_eigen(PAIR), v, 1.0, 1.0),
    "a": lambda v: decay_bounds(PAIR, solve_eigen(PAIR), 1.0, v, 1.0),
    "rate": lambda v: exp_convolution(solve_eigen(PAIR), v, 1.0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 0.0])
@pytest.mark.parametrize("arg", SCALAR_ARGS)
def test_invalid_scalar_argument_raises_value_error(arg, value):
    # A NaN or infinite m_sup, a or rate gave NaN, inf or a
    # DegenerateSpectrum, and a negative m_sup or a negative envelopes.
    # a = 0 (no history) and any finite rate stay valid.
    call = SCALAR_ARGS[arg]
    if value == 0.0 or (arg == "rate" and value == -1.0):
        assert np.all(np.isfinite(call(value)))
        return
    with pytest.raises(ValueError) as err:
        call(value)
    assert type(err.value) is ValueError


# The time-unit map below on the reference, a MEMS-like oscillator in SI
# units, and a badly scaled case whose step guard rejects dt 0.01.
UNIT_CASES = [
    (OscillatorParams(m=1.0, c=0.5, k=4.0, mu=2.0), 0.01, 20.0, Sine(1.0, 2.0, 0.0)),
    (OscillatorParams(m=1e-9, c=1e-7, k=1.0, mu=5e4), 1e-6, 2e-3, Sine(1.0, 2e4, 0.3)),
    (
        OscillatorParams(
            m=4.815206360330216e-16, c=1.1285792255437578e-17,
            k=5.844051476591806e-11, mu=3.337316448603724e-23,
        ),
        5e-4, 1.0, Sine(1e-10, 300.0, 0.3),
    ),
]


@pytest.mark.parametrize("params, dt, t_end, forcing", UNIT_CASES, ids=["reference", "mems", "C"])
def test_integrate_invariant_under_time_units(params, dt, t_end, forcing):
    # Time in units lam = 2^j times larger: (m, lam c, lam^2 k, lam mu),
    # dt/lam, t_end/lam, lam v0, history lam*v on [-a/lam, 0], forcing
    # lam^2 f(lam t).  Every map is exact in binary, so x and xdot/lam must
    # agree at matching indices, for the RK4 oracle and the forced scan.
    def run(solve, lam):
        scaled = OscillatorParams(params.m, lam * params.c, lam**2 * params.k, lam * params.mu)
        drive = Sine(lam**2 * forcing.amplitude, lam * forcing.omega, forcing.phase)
        history = HistoryProfile(a=1.0 / lam, shape=Constant(lam))
        traj = solve(
            scaled, InitialState(1.0, lam * 0.3), history, drive, t_end / lam, dt / lam
        )
        return traj.x, traj.xdot / lam

    for solve in (integrate, forced_response):
        x, xdot = run(solve, 1.0)
        for j in range(-20, 21):
            x_j, xdot_j = run(solve, 2.0**j)
            assert np.max(np.abs(x_j - x)) <= 1e-14 * np.max(np.abs(x)), (solve, j)
            assert np.max(np.abs(xdot_j - xdot)) <= 1e-14 * np.max(np.abs(xdot)), (solve, j)


@pytest.mark.parametrize("decades", [30, 300])
def test_seeded_extreme_scales_give_a_result_or_a_typed_error(decades):
    # Outcome half of the contract over 2*decades decades of every
    # parameter, with c = 0 in a tenth of the draws: solve_eigen returns or
    # raises DegenerateSpectrum; the zero-drive forced scan and the RK4
    # oracle return finite columns or raise StepTooLarge; the closed form
    # returns finite columns or raises DegenerateSpectrum, and verify_decay
    # a finite report or DegenerateSpectrum or NotOscillatory.  No other
    # exception, no RuntimeWarning.
    rng = np.random.default_rng(1)
    kinds = collections.Counter()
    state, history = InitialState(1.0, 0.3), HistoryProfile(1.0, Constant(1.0))
    for _ in range(3000):
        m, c, k, mu = 10 ** rng.uniform(-decades, decades, 4)
        if rng.random() < 0.1:
            c = 0.0
        params = OscillatorParams(m, c, k, mu)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                solve_eigen(params)
                kinds["eigen ok"] += 1
            except DegenerateSpectrum:
                kinds[DegenerateSpectrum] += 1
            for solve, forcing in ((forced_response, Constant(0.0)), (integrate, None)):
                try:
                    traj = solve(params, state, history, forcing, 1.0, 0.01)
                except StepTooLarge:
                    kinds[solve.__name__, StepTooLarge] += 1
                    continue
                assert all(np.isfinite(col).all() for col in (traj.x, traj.xdot, traj.y)), params
                kinds[solve.__name__, "ok"] += 1
            try:
                traj = forced_response(params, state, history, None, 1.0, 0.01)
            except DegenerateSpectrum:
                kinds["closed form", DegenerateSpectrum] += 1
            else:
                assert np.isfinite(traj.x).all() and np.isfinite(traj.xdot).all(), params
                kinds["closed form", "ok"] += 1
            try:
                report = verify_decay(params, state, history, 1.0, 0.01)
            except (DegenerateSpectrum, NotOscillatory) as err:
                kinds[verify_decay.__name__, type(err)] += 1
                continue
            columns = (report.i1_abs, report.i2_abs, report.b1, report.b2)
            assert all(np.isfinite(col).all() for col in columns), params
            if report.tail_ok is not None:
                tail = (report.tail_x, report.tail_i1, report.tail_i2)
                assert np.isfinite(tail).all(), params
            kinds[verify_decay.__name__, "ok"] += 1
    # each outcome is reached
    assert len(kinds) == 11, kinds
