"""Parameter containers, kernel evaluation, and history profiles."""

import math

import numpy as np
import pytest

from expdamp import (
    Constant,
    ExponentialKernel,
    HistoryProfile,
    InitialState,
    OscillatorParams,
    Polynomial,
    Samples,
    Sine,
    history_eval,
    history_sup_norm,
    kernel_eval,
)
from expdamp.response import _scan


def test_params_accept_valid():
    p = OscillatorParams(m=2.0, c=0.5, k=4.0, mu=3.0)
    assert (p.m, p.c, p.k, p.mu) == (2.0, 0.5, 4.0, 3.0)
    assert p.kernel == ExponentialKernel(mu=3.0)


def test_params_zero_damping_allowed():
    p = OscillatorParams(m=1.0, c=0.0, k=1.0, mu=2.0)
    assert p.c == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m=0.0, c=1.0, k=1.0, mu=1.0),
        dict(m=-1.0, c=1.0, k=1.0, mu=1.0),
        dict(m=1.0, c=-0.1, k=1.0, mu=1.0),
        dict(m=1.0, c=1.0, k=0.0, mu=1.0),
        dict(m=1.0, c=1.0, k=1.0, mu=0.0),
        dict(m=1.0, c=1.0, k=1.0, mu=-2.0),
        dict(m=math.nan, c=1.0, k=1.0, mu=1.0),
        dict(m=1.0, c=math.inf, k=1.0, mu=1.0),
    ],
)
def test_params_reject_invalid(kwargs):
    with pytest.raises(ValueError):
        OscillatorParams(**kwargs)


def test_params_frozen():
    p = OscillatorParams(m=1.0, c=1.0, k=1.0, mu=1.0)
    with pytest.raises(AttributeError):
        p.m = 2.0


def test_kernel_requires_positive_rate():
    with pytest.raises(ValueError):
        ExponentialKernel(mu=0.0)
    with pytest.raises(ValueError):
        ExponentialKernel(mu=-1.0)


def test_kernel_eval_values():
    ker = ExponentialKernel(mu=2.0)
    assert kernel_eval(ker, 0.0) == 2.0
    assert kernel_eval(ker, 1.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
    t = np.linspace(0.0, 3.0, 7)
    assert kernel_eval(ker, t) == pytest.approx(2.0 * np.exp(-2.0 * t), rel=1e-15)


def test_kernel_eval_unit_mass():
    # integral_0^inf G = 1 regardless of mu
    for mu in (0.3, 1.0, 17.0):
        ker = ExponentialKernel(mu=mu)
        t = np.linspace(0.0, 200.0 / mu, 400001)
        assert np.trapezoid(kernel_eval(ker, t), t) == pytest.approx(1.0, abs=1e-6)


def test_kernel_eval_rejects_negative_time():
    ker = ExponentialKernel(mu=1.0)
    with pytest.raises(ValueError):
        kernel_eval(ker, -0.5)
    with pytest.raises(ValueError):
        kernel_eval(ker, np.array([0.0, -1e-9]))


def test_initial_state_defaults_and_validation():
    s = InitialState()
    assert (s.x0, s.v0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        InitialState(x0=math.nan)
    with pytest.raises(ValueError):
        InitialState(v0=math.inf)


def test_history_profile_requires_positive_duration():
    with pytest.raises(ValueError):
        HistoryProfile(a=0.0, shape=Constant(1.0))
    with pytest.raises(ValueError):
        HistoryProfile(a=-1.0, shape=Constant(1.0))


def test_history_eval_constant():
    prof = HistoryProfile(a=2.0, shape=Constant(3.5))
    tau = np.linspace(-2.0, 0.0, 9)
    assert np.all(history_eval(prof, tau) == 3.5)
    assert history_eval(prof, -1.0) == 3.5


def test_history_eval_sine():
    prof = HistoryProfile(a=math.pi, shape=Sine(amplitude=2.0, omega=3.0, phase=0.5))
    tau = np.linspace(-math.pi, 0.0, 11)
    assert history_eval(prof, tau) == pytest.approx(
        2.0 * np.sin(3.0 * tau + 0.5), rel=1e-15, abs=1e-15
    )


def test_history_eval_polynomial():
    # coefficients ascending: 1 + 2*tau - 0.5*tau^2
    prof = HistoryProfile(a=1.5, shape=Polynomial(coeffs=(1.0, 2.0, -0.5)))
    tau = np.linspace(-1.5, 0.0, 7)
    assert history_eval(prof, tau) == pytest.approx(
        1.0 + 2.0 * tau - 0.5 * tau**2, rel=1e-14, abs=1e-14
    )


def test_history_eval_samples_interpolates():
    # values on the uniform grid tau = -1, -0.5, 0
    prof = HistoryProfile(a=1.0, shape=Samples(values=(0.0, 1.0, 0.0)))
    assert history_eval(prof, -1.0) == 0.0
    assert history_eval(prof, -0.5) == 1.0
    assert history_eval(prof, -0.75) == pytest.approx(0.5)
    assert history_eval(prof, -0.25) == pytest.approx(0.5)


def test_history_eval_rejects_out_of_domain():
    prof = HistoryProfile(a=1.0, shape=Constant(1.0))
    with pytest.raises(ValueError):
        history_eval(prof, 0.5)
    with pytest.raises(ValueError):
        history_eval(prof, -1.0001)
    with pytest.raises(ValueError):
        history_eval(prof, np.array([-0.5, 0.25]))


def test_samples_require_two_points():
    with pytest.raises(ValueError):
        Samples(values=(1.0,))


@pytest.mark.parametrize(
    "make, error, named",
    [
        (lambda: Polynomial(()), ValueError, "at least one coefficient"),
        (lambda: HistoryProfile(1.0, "ramp"), TypeError, "unsupported history shape"),
    ],
    ids=["empty-polynomial", "unknown-shape"],
)
def test_invalid_shapes_rejected(make, error, named):
    with pytest.raises(error, match=named):
        make()


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: OscillatorParams(10**400, 1, 1, 1), "m must be finite"),
        (lambda: ExponentialKernel(-(10**400)), "mu must be finite"),
        (lambda: InitialState(0, 10**400), "v0 must be finite"),
        (lambda: HistoryProfile(10**400, Constant(1)), "a must be finite"),
        (lambda: Polynomial((1, 10**400)), "coefficient must be finite"),
        (lambda: Samples((0, 10**400)), "sample must be finite"),
    ],
    ids=["params", "kernel", "state", "duration", "polynomial", "samples"],
)
def test_integers_past_float64_range_rejected(make, named):
    # float() of such an int raises OverflowError; validation names the field
    with pytest.raises(ValueError, match=named):
        make()


def test_history_profile_grid():
    prof = HistoryProfile(a=1.0, shape=Samples(values=(0.0, 0.5, 1.0, 0.5, 0.0)))
    g = prof.grid()
    assert g == pytest.approx(np.linspace(-1.0, 0.0, 5), abs=1e-15)


def test_history_grid_requires_samples_shape():
    prof = HistoryProfile(a=1.0, shape=Constant(1.0))
    with pytest.raises(TypeError):
        prof.grid()


def _numeric_sup(prof, n=200001):
    tau = np.linspace(-prof.a, 0.0, n)
    return float(np.max(np.abs(history_eval(prof, tau))))


def test_sup_norm_constant():
    assert history_sup_norm(HistoryProfile(a=3.0, shape=Constant(-2.5))) == 2.5


def test_sup_norm_sine_with_interior_peak():
    # window [-pi, 0] with omega=1 contains a full extremum: sup = A
    prof = HistoryProfile(a=math.pi, shape=Sine(amplitude=1.7, omega=1.0))
    assert history_sup_norm(prof) == pytest.approx(1.7, rel=1e-12)
    assert history_sup_norm(prof) == pytest.approx(_numeric_sup(prof), rel=1e-9)


def test_sup_norm_sine_endpoint_only():
    # short window, no interior extremum: sup at tau = -a
    prof = HistoryProfile(a=0.3, shape=Sine(amplitude=2.0, omega=1.0, phase=0.0))
    expect = 2.0 * abs(math.sin(-0.3))
    assert history_sup_norm(prof) == pytest.approx(expect, rel=1e-12)
    assert history_sup_norm(prof) == pytest.approx(_numeric_sup(prof), rel=1e-9)


def test_sup_norm_sine_random_windows_match_dense_grid():
    rng = np.random.default_rng(42)
    for _ in range(50):
        prof = HistoryProfile(
            a=float(rng.uniform(0.1, 8.0)),
            shape=Sine(
                amplitude=float(rng.uniform(0.1, 5.0)),
                omega=float(rng.uniform(0.1, 6.0)),
                phase=float(rng.uniform(-3.0, 3.0)),
            ),
        )
        assert history_sup_norm(prof) == pytest.approx(
            _numeric_sup(prof), rel=1e-8, abs=1e-12
        )


def test_sup_norm_polynomial_matches_dense_grid():
    rng = np.random.default_rng(3)
    for _ in range(50):
        deg = int(rng.integers(0, 5))
        coeffs = tuple(float(v) for v in rng.uniform(-2.0, 2.0, deg + 1))
        prof = HistoryProfile(a=float(rng.uniform(0.2, 4.0)), shape=Polynomial(coeffs))
        assert history_sup_norm(prof) == pytest.approx(
            _numeric_sup(prof), rel=1e-8, abs=1e-12
        )


def test_sup_norm_samples():
    prof = HistoryProfile(a=1.0, shape=Samples(values=(0.25, -3.0, 1.0)))
    assert history_sup_norm(prof) == 3.0


@pytest.mark.parametrize("size, degree", [(2, 1), (3, 2), (4, 3), (5, 3), (64, 3)])
def test_hold_reads_low_degree_samples_exactly(size, degree):
    # The moment [1, x, x^2, x^3] evaluates each step's cubic at tau = x (a
    # scan with the zero step map, whose increment is -1, gives each step's
    # drive alone): the nodes at x = 0 and 1, and at x = 1/2 the polynomial
    # itself, end steps included, since the end nodes lie on the polynomial
    # through the samples.
    poly = np.polynomial.Polynomial(np.random.default_rng(size).normal(size=degree + 1))
    x = np.array([0.0, 0.5, 1.0])
    f = poly(np.arange(size))
    out = np.array([_scan(-np.ones((1, 1)), [0.0], f, [xi ** np.arange(4)])[1:, 0] for xi in x])
    want = poly(np.arange(size - 1) + x[:, None])
    assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))
