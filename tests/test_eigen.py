"""Characteristic cubic roots, residues, and the impulse response."""

import cmath
import math

import numpy as np
import pytest

import expdamp.eigen
from expdamp import (
    CharacteristicPolynomial,
    DegenerateSpectrum,
    EigenSolution,
    InitialState,
    NotOscillatory,
    OscillatorParams,
    characteristic_poly,
    impulse_response,
    impulse_response_derivative,
    integrate,
    solve_eigen,
)
from expdamp.eigen import _real_part, _validate

FACTORED = OscillatorParams(m=1.0, c=0.0, k=1.0, mu=2.0)
REFERENCE = OscillatorParams(m=1.0, c=0.5, k=4.0, mu=2.0)


def _random_params(rng):
    return OscillatorParams(
        m=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
        c=float(rng.uniform(0.0, 5.0)),
        k=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
        mu=float(np.exp(rng.uniform(np.log(0.1), np.log(100.0)))),
    )


def test_characteristic_poly_coefficients():
    poly = characteristic_poly(REFERENCE)
    # m, m*mu, k + c*mu, k*mu
    assert poly.coefficients == (1.0, 2.0, 5.0, 8.0)


def test_characteristic_poly_requires_positive_leading_coefficient():
    with pytest.raises(ValueError, match="leading coefficient"):
        CharacteristicPolynomial((0.0, 1.0, 1.0, 1.0))


def test_poly_value_at_minus_mu():
    # p(-mu) = -c*mu^2 for any parameters: the kernel pole never cancels
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = _random_params(rng)
        poly = characteristic_poly(p)
        expect = -p.c * p.mu**2
        scale = (p.k + p.c * p.mu) * p.mu + abs(expect)
        assert abs(poly(-p.mu) - expect) <= 1e-12 * scale


def test_factored_case_exact_roots_and_residues():
    eig = solve_eigen(FACTORED)
    assert eig.oscillatory
    assert eig.s1 == 1j and eig.s2 == -1j and eig.s3 == -2.0 + 0j
    assert eig.r1 == -0.5j and eig.r2 == 0.5j and eig.r3 == 0j


def test_reference_case_identities():
    eig = solve_eigen(REFERENCE)
    poly = characteristic_poly(REFERENCE)
    for s in eig.roots:
        assert abs(poly(s)) < 1e-10
    assert abs(sum(eig.residues)) < 1e-9
    assert abs(sum(r * s for r, s in zip(eig.residues, eig.roots)) - 1.0) < 1e-9


def test_conjugate_pair_is_exact():
    for p in (FACTORED, REFERENCE, OscillatorParams(m=0.7, c=2.2, k=5.0, mu=9.0)):
        eig = solve_eigen(p)
        assert eig.s2 == eig.s1.conjugate()
        assert eig.r2 == eig.r1.conjugate()


def test_rate_sum_matches_kernel_rate():
    # Vieta: sum of roots = -mu, i.e. 2*alpha + gamma = mu
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = _random_params(rng)
        try:
            eig = solve_eigen(p)
        except DegenerateSpectrum:
            continue
        if not eig.oscillatory:
            continue
        assert 2.0 * eig.alpha + eig.gamma == pytest.approx(p.mu, rel=1e-9)


def test_random_draw_invariants():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 200:
        p = _random_params(rng)
        try:
            eig = solve_eigen(p)
        except DegenerateSpectrum:
            continue
        count += 1
        poly = characteristic_poly(p)
        for s in eig.roots:
            assert abs(poly(s)) <= 1e-8 * (p.m * abs(s) ** 3 + p.k * p.mu)
        assert abs(sum(eig.residues)) <= 1e-9
        moment = sum(r * s for r, s in zip(eig.residues, eig.roots))
        assert abs(moment - 1.0 / p.m) <= 1e-9
        if p.c > 0:
            assert all(s.real < 0 for s in eig.roots)
        else:
            assert eig.s1.real == 0.0 and eig.s3 == complex(-p.mu, 0.0)


def test_undamped_pair_on_imaginary_axis():
    for m, k, mu in [(1.0, 1.0, 2.0), (0.3, 7.0, 0.5), (5.0, 0.2, 40.0)]:
        eig = solve_eigen(OscillatorParams(m=m, c=0.0, k=k, mu=mu))
        assert eig.oscillatory
        assert eig.s1 == complex(0.0, math.sqrt(k / m))
        assert eig.s3 == complex(-mu, 0.0)
        assert eig.r3 == 0j
        assert eig.alpha == 0.0
        assert eig.gamma == mu


def test_three_real_roots_sorted_descending():
    # p = (s+1)(s+2)(s+3): m=1, mu=6, k=1, c=5/3
    p = OscillatorParams(m=1.0, c=5.0 / 3.0, k=1.0, mu=6.0)
    eig = solve_eigen(p)
    assert not eig.oscillatory
    roots = [s.real for s in eig.roots]
    assert roots == pytest.approx([-1.0, -2.0, -3.0], rel=1e-9)
    assert all(s.imag == 0.0 for s in eig.roots)
    assert eig.gamma == pytest.approx(3.0, rel=1e-9)
    with pytest.raises(NotOscillatory):
        eig.alpha
    with pytest.raises(NotOscillatory):
        eig.beta


def test_repeated_root_rejected():
    # p = (s+1)^2 (s+2): m=1, mu=4, k=0.5, c=1.125
    with pytest.raises(DegenerateSpectrum):
        solve_eigen(OscillatorParams(m=1.0, c=1.125, k=0.5, mu=4.0))


def test_viscous_double_root_rejected():
    # mu >> k/c: kernel acts viscous, c=2 k=1 m=1 gives a double root at -1
    with pytest.raises(DegenerateSpectrum):
        solve_eigen(OscillatorParams(m=1.0, c=2.0, k=1.0, mu=1e6))


def test_near_double_root_residue_cancellation_rejected():
    # roots -0.26660 and -0.26655 pass the separation and conditioning
    # gates, but their residues cancel to only ~1e-8 of their size
    p = OscillatorParams(
        m=4.790023392299111, c=2.370884056303661, k=0.315554155795794, mu=7.308450407297674
    )
    with pytest.raises(DegenerateSpectrum, match=r"residues cancel to \|sum R\|/max\|R\|"):
        solve_eigen(p)


# Roots -12.0700 +/- 6.3e-5i and -12.0701 from the companion matrix, each
# with |p| ~ 9e-13; the second Newton step, dividing by a p' that vanishes
# there, throws them to -12.1516 +/- 0.1446i and -11.962, where |p| ~ 4e-3.
NEAR_TRIPLE = OscillatorParams(
    m=0.8241652846999418, c=8.84242808307725, k=40.023267861691956, mu=36.210206052601315
)


def test_near_triple_newton_miss_is_degenerate():
    with pytest.raises(DegenerateSpectrum, match="residual bound after Newton steps"):
        solve_eigen(NEAR_TRIPLE)


# Companion eigenvalues [-mu, -0.5, 0] at mu >= 1e118 put the pair below
# float64's resolution at scale mu; at k = 1e260 and 1e300 the Newton step
# overflows to NaN, which a gate written with > or < lets through.  At
# c = 0, k*mu overflows and the exact root 1e100j fails the residual tripwire.
EXTREME_SCALE = [OscillatorParams(1.0, 0.5, 4.0, mu) for mu in (1e118, 1e158, 1e208, 1e258, 1e298)]
EXTREME_SCALE += [OscillatorParams(1.0, 1.0, k, 1.0) for k in (1e260, 1e300)]
EXTREME_SCALE += [OscillatorParams(1.0, 0.0, 1e200, 1e200)]
# A draw of the log-uniform scale probe on [1e-300, 1e300]: the Newton
# steps from the eigenvalue near -mu overflow to NaN.
EXTREME_SCALE += [
    OscillatorParams(162529070989801.0, 1.846789644058172e-54, 67546960.59658796, 9.67043808467929e194)
]


@pytest.mark.parametrize("params", EXTREME_SCALE, ids=lambda p: f"mu={p.mu:g},k={p.k:g}")
def test_extreme_scale_is_degenerate(params):
    with pytest.raises(DegenerateSpectrum):
        solve_eigen(params)


# k*mu overflows, and in the second (a draw of a log-uniform scale probe
# on [1e-150, 1e150]) so does (k + c*mu)/m: eigvals would refuse the
# companion matrix with a bare LinAlgError.
OVERFLOWING_CUBIC = [
    OscillatorParams(1.0, 1.0, 1e200, 1e200),
    OscillatorParams(
        2.9227065244160766e-126, 3.699067753786442e106, 2.426883077091397e108, 9.14384646071273e112
    ),
]


@pytest.mark.parametrize("params", OVERFLOWING_CUBIC, ids=["k*mu", "scale-probe"])
def test_overflowing_cubic_is_degenerate(params):
    with pytest.raises(DegenerateSpectrum, match="overflows float64"):
        solve_eigen(params)


# A coefficient of the cubic or of its monic form that is zero or
# subnormal: every coefficient is positive, so that is float64's range
# failing, not a root at 0.  In the first, np.roots would return s3 = 0
# where the root is -5e-201; in the last, the subnormal k*mu would leave
# s3 off by 1.1e-5 relative.
UNDERFLOWING_CUBIC = [
    OscillatorParams(1.0, 1.0, 1e-200, 1e-200),
    OscillatorParams(1e-200, 1.0, 1.0, 1e-200),
    OscillatorParams(1e200, 1e-200, 1e-200, 1e-200),
    OscillatorParams(
        0.002002681621781289, 6.292939776094619e-269,
        1.1120165706966207e-212, 1.2435969177141544e-209,
    ),
    OscillatorParams(1.0, 0.5, 1e-160, 1e-160),
]


@pytest.mark.parametrize(
    "params", UNDERFLOWING_CUBIC, ids=["k*mu", "m*mu", "monic", "draw", "subnormal"]
)
def test_underflowing_cubic_is_degenerate(params):
    with pytest.raises(DegenerateSpectrum, match="underflows float64"):
        solve_eigen(params)


def test_separation_gate_names_companion_eigenvalues():
    # all coefficients are positive, so no root is a positive real: the
    # message names the two companion eigenvalues it cannot resolve
    with pytest.raises(DegenerateSpectrum, match=r"eigenvalues -0\.5\+0j and 0\+0j"):
        solve_eigen(OscillatorParams(1.0, 0.5, 4.0, 1e148))


def test_extreme_stiffness_still_solves():
    eig = solve_eigen(OscillatorParams(1.0, 1.0, 1e280, 1.0))
    assert all(map(cmath.isfinite, eig.roots + eig.residues))


def test_residual_tripwire_still_fires_on_a_wrong_root(monkeypatch):
    # A root off the cubic by O(1) is a logic error, and stays one unless a
    # companion eigenvalue sat where p' vanishes.
    eig = solve_eigen(REFERENCE)
    wrong = EigenSolution(eig.s1, eig.s2, eig.s3 + 0.5, eig.r1, eig.r2, eig.r3, True)
    c3, c2, c1, c0 = characteristic_poly(REFERENCE).coefficients
    with pytest.raises(ArithmeticError, match="fails the residual bound"):
        _validate(REFERENCE.m, c3, c2, c1, c0, wrong)

    def miss(m, c3, c2, c1, c0, eig):
        raise ArithmeticError("root fails the residual bound")

    monkeypatch.setattr(expdamp.eigen, "_validate", miss)
    with pytest.raises(ArithmeticError) as raised:
        solve_eigen(REFERENCE)
    assert type(raised.value) is ArithmeticError
    with pytest.raises(DegenerateSpectrum, match="p' vanishes"):
        solve_eigen(NEAR_TRIPLE)


def test_validate_rejects_residues_missing_first_moment():
    # Doubled residues still sum to zero, but their first moment is 2/m.
    eig = solve_eigen(REFERENCE)
    doubled = EigenSolution(*eig.roots, *(2 * r for r in eig.residues), eig.oscillatory)
    c3, c2, c1, c0 = characteristic_poly(REFERENCE).coefficients
    with pytest.raises(DegenerateSpectrum, match="first residue moment misses 1/m"):
        _validate(REFERENCE.m, c3, c2, c1, c0, doubled)


def test_real_part_rejects_uncancelled_imaginary_part():
    assert _real_part(np.array([1.0 + 1e-13j, -2.0 + 0j])).tolist() == [1.0, -2.0]
    with pytest.raises(DegenerateSpectrum, match="imaginary"):
        _real_part(np.array([1.0 + 0j, 2.0 + 1e-3j]))


def test_real_part_guards_behind_the_exact_zero_fast_path():
    # an exactly zero imaginary part skips the tolerance test, but a NaN
    # real part must still fail it
    with pytest.raises(DegenerateSpectrum, match="imaginary"):
        _real_part(np.array([np.nan + 0j]))
    with pytest.raises(DegenerateSpectrum, match="imaginary"):
        _real_part(complex(np.nan, 0.0))
    # residues that are not conjugates leave a nonzero imaginary part
    ref = solve_eigen(REFERENCE)
    broken = EigenSolution(ref.s1, ref.s2, ref.s3, ref.r1, ref.r1, ref.r3, oscillatory=True)
    t = np.linspace(0.0, 4.0, 32)
    for h in (impulse_response, impulse_response_derivative):
        with pytest.raises(DegenerateSpectrum, match="imaginary"):
            h(broken, t)
        with pytest.raises(DegenerateSpectrum, match="imaginary"):
            h(broken, 1.0)
        assert h(ref, t).dtype == np.float64 and isinstance(h(ref, 1.0), float)


def test_viscous_limit_recovers_damped_pair():
    # mu >> k/c with c=1: pair tends to the viscous roots -1/2 +/- i sqrt(3)/2
    eig = solve_eigen(OscillatorParams(m=1.0, c=1.0, k=1.0, mu=1e6))
    assert eig.s1 == pytest.approx(complex(-0.5, math.sqrt(3.0) / 2.0), rel=1e-2)


def test_impulse_response_origin():
    for p in (FACTORED, REFERENCE):
        eig = solve_eigen(p)
        assert impulse_response(eig, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert impulse_response_derivative(eig, 0.0) == pytest.approx(
            1.0 / p.m, rel=1e-12
        )


def test_impulse_response_factored_is_sine():
    eig = solve_eigen(FACTORED)
    assert impulse_response(eig, math.pi / 2.0) == pytest.approx(1.0, abs=1e-12)
    t = np.linspace(0.0, 2.0 * math.pi, 201)
    assert np.max(np.abs(impulse_response(eig, t) - np.sin(t))) < 1e-10


def test_impulse_response_rejects_negative_time():
    eig = solve_eigen(REFERENCE)
    with pytest.raises(ValueError):
        impulse_response(eig, -0.1)
    with pytest.raises(ValueError):
        impulse_response_derivative(eig, np.array([1.0, -2.0]))


def test_derivative_matches_central_difference():
    eig = solve_eigen(REFERENCE)
    t, step = 0.7, 1e-5
    fd = (impulse_response(eig, t + step) - impulse_response(eig, t - step)) / (
        2.0 * step
    )
    assert impulse_response_derivative(eig, t) == pytest.approx(fd, abs=1e-6)


def oracle_step_count(p, eig, t_end, budget=60000):
    """Steps needed for ~2e-7 RK4 accuracy over [0, t_end], or None if over
    budget (redraw instead of burning minutes on a stiff/slow combination).

    RK4 global error ~ n*(w*dt)^5/120 with w*dt = w*t_end/n; solving for n
    at 2e-7 and respecting the 5% resolution guard.
    """
    w_span = abs(eig.s1) * t_end
    n_acc = math.ceil((w_span**5 / (120.0 * 2e-7)) ** 0.25)
    limit = 0.05 * min(1.0 / p.mu, 2.0 * math.pi / abs(eig.s1))
    n = max(1000, n_acc, math.ceil(t_end / limit))
    return n if n <= budget else None


def test_impulse_response_matches_rk4_surrogate():
    # x0=0, v0=1/m with no history reproduces h(t); cross-check on random draws
    rng = np.random.default_rng(77)
    accepted = 0
    attempts = 0
    while accepted < 25:
        attempts += 1
        assert attempts < 5000
        p = _random_params(rng)
        try:
            eig = solve_eigen(p)
        except DegenerateSpectrum:
            continue
        if not eig.oscillatory:
            continue
        t_end = 10.0 / min(eig.alpha, eig.gamma) if eig.alpha > 0 else 10.0
        n = oracle_step_count(p, eig, t_end)
        if n is None:
            continue
        accepted += 1
        traj = integrate(
            p, InitialState(x0=0.0, v0=1.0 / p.m), None, None, t_end, t_end / n
        )
        assert np.max(np.abs(impulse_response(eig, traj.t) - traj.x)) < 1e-6
