"""Collapsed history weight W and the relaxation tail psi."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expdamp import (
    Constant,
    ExponentialKernel,
    HistoryProfile,
    HistoryWeight,
    Polynomial,
    Samples,
    Sine,
    history_eval,
    history_sup_norm,
    history_weight,
    kernel_eval,
)

KERNEL = ExponentialKernel(mu=2.0)


def _quadrature_weight(kernel, prof, n=1_000_001):
    tau = np.linspace(-prof.a, 0.0, n)
    v = history_eval(prof, tau)
    return float(np.trapezoid(kernel.mu * np.exp(kernel.mu * tau) * v, tau))


def test_constant_weight_closed_form():
    prof = HistoryProfile(a=1.0, shape=Constant(1.0))
    w = history_weight(KERNEL, prof)
    assert w.value == pytest.approx(0.864664717, abs=1e-9)
    assert w.value == pytest.approx(1.0 - math.exp(-2.0), rel=1e-15)


def test_zero_constant_weight():
    prof = HistoryProfile(a=3.0, shape=Constant(0.0))
    assert history_weight(KERNEL, prof).value == 0.0


def test_no_history_weight_is_zero():
    w = history_weight(KERNEL, None)
    assert (w.value, w.mu) == (0.0, KERNEL.mu)
    assert np.array_equal(w.psi([0.0, 1.0]), [0.0, 0.0])


def test_unknown_shape_raises_type_error():
    # HistoryProfile rejects other shapes; a frozen field swapped after
    # construction must still get a typed error, also under python -O.
    prof = HistoryProfile(a=1.0, shape=Samples((1.0, 2.0)))
    object.__setattr__(prof, "shape", object())
    with pytest.raises(TypeError, match="unsupported history shape"):
        history_weight(KERNEL, prof)


def test_sine_weight_matches_quadrature():
    kernel = ExponentialKernel(mu=1.0)
    prof = HistoryProfile(a=math.pi, shape=Sine(amplitude=1.0, omega=1.0, phase=0.0))
    w = history_weight(kernel, prof)
    assert w.value == pytest.approx(_quadrature_weight(kernel, prof), abs=1e-9)


def test_sine_weight_random_cases():
    rng = np.random.default_rng(5)
    for _ in range(20):
        kernel = ExponentialKernel(mu=float(rng.uniform(0.2, 8.0)))
        prof = HistoryProfile(
            a=float(rng.uniform(0.3, 4.0)),
            shape=Sine(
                amplitude=float(rng.uniform(0.1, 3.0)),
                omega=float(rng.uniform(0.1, 5.0)),
                phase=float(rng.uniform(-3.0, 3.0)),
            ),
        )
        w = history_weight(kernel, prof)
        assert w.value == pytest.approx(_quadrature_weight(kernel, prof), abs=1e-8)


def test_polynomial_weight_matches_quadrature():
    rng = np.random.default_rng(8)
    for _ in range(20):
        kernel = ExponentialKernel(mu=float(rng.uniform(0.2, 6.0)))
        deg = int(rng.integers(0, 5))
        prof = HistoryProfile(
            a=float(rng.uniform(0.3, 3.0)),
            shape=Polynomial(tuple(float(v) for v in rng.uniform(-2.0, 2.0, deg + 1))),
        )
        w = history_weight(kernel, prof)
        assert w.value == pytest.approx(_quadrature_weight(kernel, prof), abs=1e-8)


@pytest.mark.parametrize("degree", range(7))
def test_polynomial_weight_stable_for_small_mu_a(degree):
    # The parts recurrence upward amplifies rounding by about n!/(mu a)^n;
    # at mu = 1e-6, a = 1 it gave W of the wrong sign.  Checked against
    # 64-point Gauss-Legendre, which is good to about 1e-13 over these
    # ranges, for one monomial and for a full polynomial whose terms all
    # take the sign of W (so that W itself has no cancellation).
    u, w = np.polynomial.legendre.leggauss(64)
    for coeffs in ((0.0,) * degree + (1.0,), tuple((-1.0) ** n for n in range(degree + 1))):
        for mu in np.logspace(-8.0, 2.0, 41):
            for a in (0.2, 1.0, 3.0):
                tau = (u - 1.0) * a / 2.0
                v = np.polynomial.polynomial.polyval(tau, coeffs)
                want = mu * a / 2.0 * float(np.sum(w * np.exp(mu * tau) * v))
                prof = HistoryProfile(a=a, shape=Polynomial(coeffs))
                got = history_weight(ExponentialKernel(mu=float(mu)), prof).value
                assert abs(got - want) <= 1e-12 * abs(want), (mu, a, coeffs)


@pytest.mark.parametrize(
    "mu, omega, a, want",
    [
        # mu*mu overflows from mu near 1.34e154; W tends to sin(phase)
        (1e155, 2.0, 1.0, math.sin(0.5)),
        # hypot(mu, omega) overflows too; W = (sin(phase) - cos(phase)) / 2
        (1.5e308, 1.5e308, 1.0, (math.sin(0.5) - math.cos(0.5)) / 2),
        # omega*a overflows, but e^(-mu a) = 0 drops the lower end:
        # W = mu (mu sin(phase) - omega cos(phase)) / (mu^2 + omega^2)
        (1.0, 1e300, 1e10, -1e-300 * math.cos(0.5)),
        # omega*a overflows while e^(-mu a) = e^-1 keeps the lower end
        (1e-300, 1e10, 1e300, ValueError),
    ],
)
def test_sine_weight_at_huge_rates(mu, omega, a, want):
    prof = HistoryProfile(a=a, shape=Sine(1.0, omega, 0.5))
    if want is ValueError:
        with pytest.raises(ValueError, match=r"omega \* a"):
            history_weight(ExponentialKernel(mu), prof)
        return
    got = history_weight(ExponentialKernel(mu), prof).value
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "mu, omega, a, phase, want",
    [
        (1e-12, 1e10, 1e10, 0.5, -5.2007837889794077e-23),
        (0.3, 123456.789, 1.7, 0.25, -1.5027181087747004e-06),
        (1e-9, 9.87654321e12, 3.3e7, -2.0, -4.8948847395046435e-23),
        (1e-3, 1e250, 1.0, 0.5, -9.263391061945958e-254),
    ],
)
def test_sine_weight_lower_phase_exact(mu, omega, a, phase, want):
    # e^(-mu a) keeps the lower end, and phase - omega*a rounded to float64
    # is off by a large angle: the rounded phase read 0.77, 7.8e-12, 0.69
    # and 0.52 relative error against mpmath (60 digits; 400 at 1e250).
    prof = HistoryProfile(a=a, shape=Sine(1.0, omega, phase))
    got = history_weight(ExponentialKernel(mu), prof).value
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "coeffs, a, mu, want",
    [
        # top! a^(top+1) overflowed to inf (NaN W), or top! itself could not
        # become a float (OverflowError); the fourth case is the upward
        # branch, whose (-a)^n overflowed.
        ((1.0,) * 161, 2.0, 1.0, 1.6550252937418149e45),
        ((1.0,) * 121, 30.0, 1.0, 5.343899678325609e163),
        ((1.0,) * 171, 3.0, 1.0, 8.5883290800509418e77),
        ((1.0,) * 79, 1e4, 1.0, 1.1180959098117691e115),
        # e^-x underflows at x = 1000 though no J_n does: the constant
        # history v = 1 (W = 1 - e^-1000) and unit coefficients, downward
        ((1.0,) + (0.0,) * 1000, 1.0, 1000.0, 1.0),
        ((1.0,) * 1001, 1.0, 1000.0, 0.99900199402388072),
        # upward, x = 1020: a^999 e^-x is near e^77 though e^-x underflows
        ((0.0,) * 999 + (1.0,), 3.0, 340.0, -3.3540735577265599e35),
        # J_1 near 2.6e399 overflows, mu J_1 does not
        ((1.0, 1.0), 1e200, 1e-200, -2.6424111765711534e199),
    ],
)
def test_polynomial_weight_with_terms_past_float64(coeffs, a, mu, want):
    # Values from 50- to 60-digit mpmath (gammainc).
    prof = HistoryProfile(a=a, shape=Polynomial(coeffs))
    got = history_weight(ExponentialKernel(mu), prof).value
    assert got == pytest.approx(want, rel=1e-14)


def test_history_weight_must_be_finite():
    assert HistoryWeight(3, 2.0).value == 3.0
    for w in (math.nan, -math.inf, 10**400):
        with pytest.raises(ValueError, match="history weight W must be finite"):
            HistoryWeight(w, 2.0)


def test_overflowing_weight_raises_value_error():
    # mu c_2 J_2 is near 2e310 here, past float64's range
    prof = HistoryProfile(a=1e8, shape=Polynomial((0.0, 0.0, 1e300)))
    with pytest.raises(ValueError, match="history weight"):
        history_weight(ExponentialKernel(1e-5), prof)


def test_samples_weight_is_trapezoid_on_own_grid():
    values = (0.3, -0.2, 1.1, 0.7, 0.0)
    prof = HistoryProfile(a=2.0, shape=Samples(values))
    tau = prof.grid()
    expect = np.trapezoid(KERNEL.mu * np.exp(KERNEL.mu * tau) * np.array(values), tau)
    assert history_weight(KERNEL, prof).value == pytest.approx(expect, rel=1e-14)


def test_samples_weight_converges_with_refinement():
    # sampled sine approaches the analytic weight as the grid refines
    kernel = ExponentialKernel(mu=1.5)
    a = 2.0
    analytic = history_weight(
        kernel, HistoryProfile(a=a, shape=Sine(amplitude=1.0, omega=2.0))
    ).value
    errs = []
    for n in (51, 201):
        tau = np.linspace(-a, 0.0, n)
        prof = HistoryProfile(
            a=a, shape=Samples(tuple(float(v) for v in np.sin(2.0 * tau)))
        )
        errs.append(abs(history_weight(kernel, prof).value - analytic))
    # trapezoid is O(h^2): 4x finer grid -> ~16x smaller error
    assert errs[1] < errs[0] / 8.0


def test_weight_bounded_by_sup_norm():
    # exact for analytic shapes; Samples use trapezoid, so the bound only
    # holds once the grid resolves the kernel (mu * spacing small)
    rng = np.random.default_rng(21)
    shapes = [
        Constant(-2.0),
        Sine(amplitude=1.4, omega=3.0, phase=0.7),
        Polynomial((0.5, -1.0, 0.25)),
    ]
    for shape in shapes:
        for _ in range(10):
            kernel = ExponentialKernel(mu=float(rng.uniform(0.1, 10.0)))
            prof = HistoryProfile(a=float(rng.uniform(0.2, 5.0)), shape=shape)
            w = history_weight(kernel, prof)
            cap = history_sup_norm(prof) * (1.0 - math.exp(-kernel.mu * prof.a))
            assert abs(w.value) <= cap * (1.0 + 1e-12)
    for _ in range(10):
        kernel = ExponentialKernel(mu=float(rng.uniform(0.1, 10.0)))
        a = float(rng.uniform(0.2, 5.0))
        n = max(8, int(20.0 * kernel.mu * a))
        tau = np.linspace(-a, 0.0, n)
        prof = HistoryProfile(
            a=a, shape=Samples(tuple(float(v) for v in np.cos(3.0 * tau)))
        )
        w = history_weight(kernel, prof)
        cap = history_sup_norm(prof) * (1.0 - math.exp(-kernel.mu * a))
        assert abs(w.value) <= cap * (1.0 + 1e-9)


def test_psi_at_zero_equals_weight():
    prof = HistoryProfile(a=1.0, shape=Sine(amplitude=2.0, omega=1.0))
    w = history_weight(KERNEL, prof)
    assert history_weight(KERNEL, prof).psi(0.0) == w.value


def test_psi_matches_direct_convolution_quadrature():
    # psi(t) = integral_{-a}^0 G(t - tau) v(tau) dtau, G evaluated directly
    prof = HistoryProfile(a=1.5, shape=Sine(amplitude=1.0, omega=2.0, phase=0.3))
    tau = np.linspace(-prof.a, 0.0, 100_001)
    v = history_eval(prof, tau)
    for t in (0.0, 0.4, 1.0, 2.7):
        direct = np.trapezoid(kernel_eval(KERNEL, t - tau) * v, tau)
        assert history_weight(KERNEL, prof).psi(t) == pytest.approx(direct, abs=1e-8)


def test_psi_semigroup_factorization():
    rng = np.random.default_rng(9)
    prof = HistoryProfile(a=2.0, shape=Polynomial((1.0, 0.5, -0.3)))
    w = history_weight(KERNEL, prof)
    for _ in range(50):
        t1, t2 = rng.uniform(0.0, 5.0, 2)
        lhs = w.psi(t1 + t2)
        rhs = w.psi(t1) * math.exp(-KERNEL.mu * t2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@given(
    mu=st.floats(min_value=0.01, max_value=20.0),
    t1=st.floats(min_value=0.0, max_value=10.0),
    t2=st.floats(min_value=0.0, max_value=10.0),
)
def test_psi_factorization_property(mu, t1, t2):
    kernel = ExponentialKernel(mu=mu)
    prof = HistoryProfile(a=1.0, shape=Constant(1.3))
    w = history_weight(kernel, prof)
    assert w.psi(t1 + t2) == pytest.approx(
        w.psi(t1) * math.exp(-mu * t2), rel=1e-12
    )


def test_psi_envelope_bound():
    prof = HistoryProfile(a=1.0, shape=Sine(amplitude=3.0, omega=4.0))
    cap0 = history_sup_norm(prof) * (1.0 - math.exp(-KERNEL.mu * prof.a))
    t = np.linspace(0.0, 10.0, 101)
    vals = np.abs(history_weight(KERNEL, prof).psi(t))
    assert np.all(vals <= cap0 * np.exp(-KERNEL.mu * t) * (1.0 + 1e-12))


def test_psi_rejects_negative_time():
    prof = HistoryProfile(a=1.0, shape=Constant(1.0))
    with pytest.raises(ValueError):
        history_weight(KERNEL, prof).psi(-0.1)
