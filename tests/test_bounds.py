"""History-term split, analytic decay bounds, and the decay report."""

import math
import warnings

import numpy as np
import pytest

from expdamp import (
    Constant,
    DegenerateSpectrum,
    HistoryProfile,
    InitialState,
    NotOscillatory,
    OscillatorParams,
    Polynomial,
    Samples,
    Sine,
    decay_bounds,
    history_sup_norm,
    initialization_response,
    response_terms,
    solve_eigen,
    split_history_term,
    verify_decay,
)
from expdamp.bounds import _decay_factor

REFERENCE = OscillatorParams(m=1.0, c=0.5, k=4.0, mu=2.0)
REF_STATE = InitialState(x0=1.0, v0=0.3)
REF_HISTORY = HistoryProfile(a=1.0, shape=Constant(1.0))


def test_split_zero_at_origin():
    eig = solve_eigen(REFERENCE)
    assert split_history_term(REFERENCE, eig, REF_HISTORY, 0.0) == (0.0, 0.0)


def test_split_zero_without_damping():
    p = OscillatorParams(m=1.0, c=0.0, k=1.0, mu=2.0)
    eig = solve_eigen(p)
    assert split_history_term(p, eig, REF_HISTORY, 1.5) == (0.0, 0.0)


def test_split_zero_without_history():
    eig = solve_eigen(REFERENCE)
    assert split_history_term(REFERENCE, eig, None, 1.5) == (0.0, 0.0)


def test_split_zero_for_zero_history_weight():
    # W = 0 takes the same exact-zero return as c = 0 or no history
    eig = solve_eigen(REFERENCE)
    zero_hist = HistoryProfile(a=1.0, shape=Constant(0.0))
    assert split_history_term(REFERENCE, eig, zero_hist, 1.5) == (0.0, 0.0)
    i1, i2 = split_history_term(REFERENCE, eig, zero_hist, np.linspace(0.0, 3.0, 7))
    assert np.array_equal(i1, np.zeros(7)) and np.array_equal(i2, np.zeros(7))


@pytest.mark.parametrize(
    "call",
    [
        lambda eig, t: initialization_response(REFERENCE, REF_STATE, REF_HISTORY, t),
        lambda eig, t: response_terms(REFERENCE, REF_STATE, REF_HISTORY, t),
        lambda eig, t: split_history_term(REFERENCE, eig, REF_HISTORY, t),
        lambda eig, t: decay_bounds(REFERENCE, eig, 1.0, 1.0, t),
    ],
    ids=["initialization_response", "response_terms", "split_history_term", "decay_bounds"],
)
@pytest.mark.parametrize("t", [-0.5, np.array([0.0, 1.0, -1e-12])], ids=["scalar", "array"])
def test_negative_time_rejected(call, t):
    with pytest.raises(ValueError, match="t >= 0"):
        call(solve_eigen(REFERENCE), t)


def test_split_kernel_root_rounded_onto_minus_mu():
    # c so small that s3 + mu and with it r3 = (mu + s3)/p'(s3) are exactly
    # 0: the dissipative mode is absent, and I2 is 0, not 0/0
    p = OscillatorParams(m=1.0, c=1e-17, k=1.0, mu=3.0)
    eig = solve_eigen(p)
    assert eig.r3 == 0 and eig.s3.real + p.mu == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i1, i2 = split_history_term(p, eig, REF_HISTORY, np.linspace(0.0, 5.0, 11))
        assert split_history_term(p, eig, REF_HISTORY, 2.0)[1] == 0.0
        report = verify_decay(p, REF_STATE, REF_HISTORY, 5.0, 1e-2)
    assert np.all(np.isfinite(i1)) and np.array_equal(i2, np.zeros(11))
    assert np.array_equal(report.i2_abs, np.zeros_like(report.t))
    assert np.all(report.ok2) and report.bounds_ok
    assert report.tail_i2 == 0.0


def test_split_reproduces_history_term():
    eig = solve_eigen(REFERENCE)
    for t in (0.3, 1.0, 2.5, 6.0):
        i1, i2 = split_history_term(REFERENCE, eig, REF_HISTORY, t)
        terms = response_terms(REFERENCE, REF_STATE, REF_HISTORY, t)
        assert i1 + i2 == pytest.approx(terms.term_history, abs=1e-10)


def test_split_rejects_non_oscillatory():
    p = OscillatorParams(m=1.0, c=5.0 / 3.0, k=1.0, mu=6.0)
    eig = solve_eigen(p)
    with pytest.raises(NotOscillatory):
        split_history_term(p, eig, REF_HISTORY, 1.0)


def test_decay_factor_degenerate_limit():
    mu, t = 2.0, 1.3
    inside = _decay_factor(mu * (1.0 + 1e-9), mu, t)
    assert inside == t * math.exp(-mu * t)
    outside = _decay_factor(mu * (1.0 + 1e-7), mu, t)
    assert outside == pytest.approx(t * math.exp(-mu * t), rel=1e-6)


def test_decay_bounds_zero_cases():
    eig = solve_eigen(REFERENCE)
    assert decay_bounds(REFERENCE, eig, 1.0, 1.0, 0.0) == (0.0, 0.0)
    assert decay_bounds(REFERENCE, eig, 0.0, 1.0, 2.0) == (0.0, 0.0)


def test_decay_bounds_validation():
    eig = solve_eigen(REFERENCE)
    with pytest.raises(ValueError):
        decay_bounds(REFERENCE, eig, -1.0, 1.0, 2.0)
    p = OscillatorParams(m=1.0, c=5.0 / 3.0, k=1.0, mu=6.0)
    with pytest.raises(NotOscillatory):
        decay_bounds(p, solve_eigen(p), 1.0, 1.0, 2.0)


def test_decay_bounds_dominate_reference():
    eig = solve_eigen(REFERENCE)
    b1, b2 = decay_bounds(REFERENCE, eig, 1.0, 1.0, 2.0)
    i1, i2 = split_history_term(REFERENCE, eig, REF_HISTORY, 2.0)
    assert b1 > 0.0 and b2 > 0.0
    assert abs(i1) <= b1 + 1e-10
    assert abs(i2) <= b2 + 1e-10


def _random_history(rng, mu):
    kind = rng.integers(0, 4)
    a = float(rng.uniform(0.2, 3.0))
    if kind == 0:
        shape = Constant(float(rng.uniform(-2.0, 2.0)))
    elif kind == 1:
        shape = Sine(
            amplitude=float(rng.uniform(0.1, 2.0)),
            omega=float(rng.uniform(0.1, 4.0)),
            phase=float(rng.uniform(-3.0, 3.0)),
        )
    elif kind == 2:
        shape = Polynomial(tuple(float(v) for v in rng.uniform(-1.0, 1.0, 3)))
    else:
        # sample densely enough to resolve the kernel weight
        n = max(8, int(20.0 * mu * a))
        tau = np.linspace(-a, 0.0, min(n, 4000))
        shape = Samples(tuple(float(v) for v in np.cos(2.0 * tau)))
    return HistoryProfile(a=a, shape=shape)


def test_bound_dominance_random_scenarios():
    rng = np.random.default_rng(101)
    accepted = 0
    while accepted < 40:
        p = OscillatorParams(
            m=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
            c=float(rng.uniform(0.05, 5.0)),
            k=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
            mu=float(np.exp(rng.uniform(np.log(0.1), np.log(100.0)))),
        )
        try:
            eig = solve_eigen(p)
        except DegenerateSpectrum:
            continue
        if not eig.oscillatory:
            continue
        accepted += 1
        hist = _random_history(rng, p.mu)
        m_sup = history_sup_norm(hist)
        rho = min(eig.alpha, eig.gamma, p.mu)
        t = np.linspace(0.0, 20.0 / rho, 150)
        i1, i2 = split_history_term(p, eig, hist, t)
        b1, b2 = decay_bounds(p, eig, m_sup, hist.a, t)
        assert np.all(np.abs(i1) <= b1 + 1e-10)
        assert np.all(np.abs(i2) <= b2 + 1e-10)


def test_bounds_vanish_in_tail():
    eig = solve_eigen(REFERENCE)
    rho = min(eig.alpha, eig.gamma, REFERENCE.mu)
    t = np.linspace(0.0, 30.0 / rho, 400)
    b1, b2 = decay_bounds(REFERENCE, eig, 1.0, 1.0, t)
    total = b1 + b2
    assert total[-1] < 1e-8 * np.max(total)


def test_verify_decay_reference_report():
    report = verify_decay(REFERENCE, REF_STATE, REF_HISTORY, 10.0, 1e-2)
    assert not report.undamped
    assert report.bounds_ok
    assert report.envelope_ok
    assert report.tail_ok
    assert np.all(report.ok1) and np.all(report.ok2)
    rho = min(solve_eigen(REFERENCE).alpha, solve_eigen(REFERENCE).gamma, REFERENCE.mu)
    assert report.tail_time == pytest.approx(30.0 / rho)
    assert abs(report.tail_x) < 1e-6


def test_verify_decay_quiescent_trivially_satisfied():
    report = verify_decay(REFERENCE, InitialState(0.0, 0.0), None, 5.0, 1e-2)
    assert report.bounds_ok and report.envelope_ok and report.tail_ok
    assert report.tail_x == 0.0


def test_verify_decay_undamped_skips_assertions():
    p = OscillatorParams(m=1.0, c=0.0, k=1.0, mu=2.0)
    report = verify_decay(p, InitialState(1.0, 0.0), None, 5.0, 1e-2)
    assert report.undamped
    assert report.envelope_ok is None
    assert report.tail_ok is None
    assert report.bounds_ok  # I1 = I2 = 0 <= 0 bounds


@pytest.mark.parametrize(
    "params",
    [
        OscillatorParams(
            0.0016213372804896628, 1.1028128930609017e-22,
            1.5373727780192145e-06, 1.6118122070268333e-18,
        ),
        OscillatorParams(
            3688.848019473763, 1.2650160271160216e-11,
            9.189577401419158e+28, 1.4332705821422379e-07,
        ),
    ],
    ids=["alpha-negative", "alpha-minus-zero"],
)
def test_verify_decay_skips_decay_below_resolution(params):
    # The true alpha is about 1e-52 in both, below the roots' resolution:
    # it rounds to -5.35e-35 and to -0.0.  30/rho is then no finite time,
    # so the decay assertions are skipped as for c = 0, rather than asking
    # for the response at t < 0 or dividing by zero.
    assert solve_eigen(params).alpha <= 0.0
    report = verify_decay(params, REF_STATE, REF_HISTORY, 1.0, 0.01)
    assert not report.undamped
    assert report.envelope_ok is None and report.tail_ok is None
    assert report.tail_time == math.inf


def test_verify_decay_rejects_non_oscillatory():
    p = OscillatorParams(m=1.0, c=5.0 / 3.0, k=1.0, mu=6.0)
    with pytest.raises(NotOscillatory):
        verify_decay(p, REF_STATE, None, 5.0, 1e-2)


def test_verify_decay_propagates_degenerate():
    p = OscillatorParams(m=1.0, c=1.125, k=0.5, mu=4.0)
    with pytest.raises(DegenerateSpectrum):
        verify_decay(p, REF_STATE, None, 5.0, 1e-2)
