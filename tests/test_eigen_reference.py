"""solve_eigen against the np.roots-based solve it replaced.

The reference below is that earlier solve, kept verbatim apart from
names, comments and the separation gate's message, which names the
companion eigenvalues: np.roots for the companion eigenvalues, and p, p' and their
error scales evaluated through CharacteristicPolynomial.  The current
solve builds the same companion matrix and does the same arithmetic in
the same order, so every root, residue, flag, exception type and
message must match bit for bit, in every regime including the ones it
rejects.  In three cases the solve raises DegenerateSpectrum instead:
where the reference's residual tripwire raises ArithmeticError (Newton
steps from a near-triple root), where its eigvals raises LinAlgError (a
monic coefficient overflows float64), and where a coefficient of the
cubic underflows to 0, which the reference takes as exact (np.roots
splits a zero trailing coefficient off as a root at 0).
"""

import collections
import math

import numpy as np
import pytest

from expdamp import (
    DegenerateSpectrum,
    EigenSolution,
    OscillatorParams,
    characteristic_poly,
    solve_eigen,
)
from expdamp.eigen import CONDITIONING_FLOOR, DEGENERACY_RTOL


def _ref_polish(poly, root):
    for _ in range(2):
        dp = poly.deriv(root)
        if dp == 0:
            break
        root = root - poly(root) / dp
    return root


def _ref_residual_scale(poly, s):
    c3, c2, c1, c0 = poly.coefficients
    a = abs(s)
    return ((abs(c3) * a + abs(c2)) * a + abs(c1)) * a + abs(c0)


def _ref_deriv_scale(poly, s):
    c3, c2, c1, _ = poly.coefficients
    a = abs(s)
    return (3.0 * abs(c3) * a + 2.0 * abs(c2)) * a + abs(c1)


def _ref_validate(params, poly, eig):
    for s in eig.roots:
        if abs(poly(s)) > 1e-9 * _ref_residual_scale(poly, s):
            raise ArithmeticError(f"root {s} fails the residual bound")
    rmax = max(abs(r) for r in eig.residues)
    residue_sum = abs(sum(eig.residues)) / rmax
    if residue_sum > 1e-8:
        raise DegenerateSpectrum(
            f"residues cancel to |sum R|/max|R| = {residue_sum:.3g} (tolerance 1e-8); "
            "the roots are too close to resolve"
        )
    terms = [r * s for r, s in zip(eig.residues, eig.roots)]
    inv_m = 1.0 / params.m
    mismatch = abs(sum(terms) - inv_m) / max(inv_m, max(abs(t) for t in terms))
    if mismatch > 1e-8:
        raise DegenerateSpectrum(
            f"first residue moment misses 1/m by {mismatch:.3g} of its scale "
            "(tolerance 1e-8); the roots are too close to resolve"
        )


def _ref_solve_eigen(params):
    poly = characteristic_poly(params)
    if params.c == 0.0:
        beta = math.sqrt(params.k / params.m)
        s1 = complex(0.0, beta)
        r1 = (params.mu + s1) / poly.deriv(s1)
        eig = EigenSolution(
            s1=s1,
            s2=s1.conjugate(),
            s3=complex(-params.mu, 0.0),
            r1=r1,
            r2=r1.conjugate(),
            r3=complex(0.0, 0.0),
            oscillatory=True,
        )
        _ref_validate(params, poly, eig)
        return eig

    c3, c2, c1, c0 = poly.coefficients
    raw = np.roots([1.0, c2 / c3, c1 / c3, c0 / c3])
    roots = [_ref_polish(poly, complex(r)) for r in raw]

    scale = max(abs(r) for r in roots)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(roots[i] - roots[j]) < DEGENERACY_RTOL * scale:
                raise DegenerateSpectrum(
                    f"repeated characteristic root: companion eigenvalues "
                    f"{complex(raw[i]):.6g} and {complex(raw[j]):.6g} polish to within "
                    f"{DEGENERACY_RTOL:g} * spectral scale"
                )
    for r in roots:
        if abs(poly.deriv(r)) < CONDITIONING_FLOOR * _ref_deriv_scale(poly, r):
            raise DegenerateSpectrum(
                f"characteristic root near {r:.6g} is too ill-conditioned "
                "to certify as a simple pole (p' vanishes to working precision)"
            )

    oscillatory = max(abs(r.imag) for r in roots) > 1e-9 * scale
    if oscillatory:
        roots.sort(key=lambda r: abs(r.imag))
        s3 = complex(roots[0].real, 0.0)
        s1 = roots[1] if roots[1].imag > 0 else roots[2]
        s1 = complex(s1)
        s2 = s1.conjugate()
        r1 = (params.mu + s1) / poly.deriv(s1)
        r2 = r1.conjugate()
        r3 = complex((params.mu + s3.real) / poly.deriv(s3.real), 0.0)
    else:
        real_roots = sorted((r.real for r in roots), reverse=True)
        s1, s2, s3 = (complex(r, 0.0) for r in real_roots)
        r1, r2, r3 = (
            complex((params.mu + r) / poly.deriv(r), 0.0) for r in real_roots
        )

    eig = EigenSolution(s1, s2, s3, r1, r2, r3, oscillatory)
    _ref_validate(params, poly, eig)
    return eig


def _outcome(solve, params):
    """('ok', solution) or (exception type, message)."""
    try:
        return "ok", solve(params)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _bits(outcome):
    """The outcome with every float of a solution as its exact bit pattern
    (float.hex tells -0.0 from 0.0, where == does not)."""
    kind, detail = outcome
    if kind != "ok":
        return outcome
    return kind, detail.oscillatory, [
        (z.real.hex(), z.imag.hex()) for z in detail.roots + detail.residues
    ]


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _from_roots(a, b, c, m):
    """Parameters whose cubic has the roots -a, -b, -c (all > 0): Vieta with
    mu = a + b + c, (k + c*mu)/m = ab + ac + bc and k*mu/m = abc.  The
    implied damping is >= 0 for any positive roots (e1*e2 >= 9*e3)."""
    mu = a + b + c
    k = m * a * b * c / mu
    damping = (m * (a * b + a * c + b * c) - k) / mu
    return OscillatorParams(m=m, c=max(damping, 0.0), k=k, mu=mu)


def _acceptance(rng):
    return OscillatorParams(
        m=_log_uniform(rng, 0.1, 10.0),
        c=float(rng.uniform(0.0, 5.0)),
        k=_log_uniform(rng, 0.1, 10.0),
        mu=_log_uniform(rng, 0.1, 100.0),
    )


def _three_real(rng):
    a, b, c = (_log_uniform(rng, 0.01, 100.0) for _ in range(3))
    return _from_roots(a, b, c, _log_uniform(rng, 0.1, 10.0))


def _undamped(rng):
    p = _acceptance(rng)
    return OscillatorParams(m=p.m, c=0.0, k=p.k, mu=p.mu)


def _root_near_kernel_rate(rng):
    # p(-mu) = -c mu^2 and p'(-mu) = m mu^2 + k + c mu, so the real root
    # sits about c mu^2 / (m mu^2 + k) from -mu: solve for c at distance d*mu.
    m, k = _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 0.1, 10.0)
    mu = _log_uniform(rng, 0.1, 100.0)
    d = _log_uniform(rng, 1e-10, 1e-6)
    return OscillatorParams(m=m, c=d * mu * (m * mu * mu + k) / (mu * mu), k=k, mu=mu)


def _near_double(rng):
    a, b = _log_uniform(rng, 0.01, 100.0), _log_uniform(rng, 0.01, 100.0)
    sep = _log_uniform(rng, 1e-9, 1e-3)
    return _from_roots(a, a * (1.0 + sep), b, _log_uniform(rng, 0.1, 10.0))


def _exact_double(rng):
    # (s + L)^2 (s + 2L) with L and m powers of two: every coefficient is
    # exact, the scaled image of (s+1)^2 (s+2) = s^3 + 4s^2 + 5s + 2.
    lam, m = 2.0 ** int(rng.integers(-8, 9)), 2.0 ** int(rng.integers(-4, 5))
    return OscillatorParams(m=m, c=1.125 * lam * m, k=0.5 * lam * lam * m, mu=4.0 * lam)


def _triple(rng):
    lam = _log_uniform(rng, 0.01, 100.0)
    return _from_roots(lam, lam, lam, _log_uniform(rng, 0.1, 10.0))


def _viscous(rng):
    p = _acceptance(rng)
    c = max(p.c, 1e-3)
    return OscillatorParams(m=p.m, c=c, k=p.k, mu=1e4 * p.k / c)


def _huge_rate(rng):
    p = _acceptance(rng)
    return OscillatorParams(m=p.m, c=p.c, k=p.k, mu=1e8)


REGIMES = {
    "acceptance": _acceptance,
    "three-real": _three_real,
    "c=0": _undamped,
    "root-near-kernel": _root_near_kernel_rate,
    "near-double": _near_double,
    "exact-double": _exact_double,
    "triple": _triple,
    "mu=1e4*k/c": _viscous,
    "mu=1e8": _huge_rate,
}


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_solve_eigen_bit_identical_to_np_roots_reference(regime):
    rng = np.random.default_rng(sorted(REGIMES).index(regime) + 1400)
    draw = REGIMES[regime]
    kinds = set()
    for _ in range(2000):
        params = draw(rng)
        expected, got = _outcome(_ref_solve_eigen, params), _outcome(solve_eigen, params)
        if expected[0] is ArithmeticError:  # see the module docstring
            assert got[0] is DegenerateSpectrum and "p' vanishes" in got[1], params
            expected = got
        assert got == expected, params
        assert _bits(got) == _bits(expected), params
        kinds.add(got[0])
    # each regime reaches the branch it is named for
    if regime in ("exact-double", "triple"):
        assert "ok" not in kinds
    elif regime == "near-double":
        assert kinds == {"ok", DegenerateSpectrum}
    else:
        assert "ok" in kinds


@pytest.mark.parametrize(
    "m, c, k, mu",
    [
        (1.0, 1.125, 0.5, 4.0),  # (s+1)^2 (s+2)
        (1.0, 8.0 / 9.0, 1.0 / 3.0, 3.0),  # (s+1)^3 to rounding
        # The next four have a coefficient that underflows to 0, which the
        # reference takes as exact; the solve raises DegenerateSpectrum.
        (1.0, 1.0, 1e-200, 1e-200),  # k*mu: np.roots splits off a root at 0
        # as above, at a draw whose other two roots the 3x3 companion moves
        (
            0.002002681621781289, 6.292939776094619e-269,
            1.1120165706966207e-212, 1.2435969177141544e-209,
        ),
        (1e200, 1e-200, 1e-200, 1e-200),  # (k + c*mu)/m and k*mu/m underflow: two roots at 0
        (1e-200, 1.0, 1.0, 1e-200),  # m*mu underflows: an interior zero coefficient
        (1.0, 1e-17, 1.0, 3.0),  # the kernel root rounds onto -mu
        (1.0, 1.0, 1e200, 1e200),  # k*mu overflows
    ],
)
def test_solve_eigen_bit_identical_on_edge_inputs(m, c, k, mu):
    params = OscillatorParams(m=m, c=c, k=k, mu=mu)
    expected, got = _outcome(_ref_solve_eigen, params), _outcome(solve_eigen, params)
    if expected[0] is np.linalg.LinAlgError:  # see the module docstring
        assert got[0] is DegenerateSpectrum and "overflows float64" in got[1], params
        expected = got
    if 0.0 in characteristic_poly(params).coefficients:  # see the module docstring
        assert got[0] is DegenerateSpectrum and "underflows float64" in got[1], params
        expected = got
    assert _bits(got) == _bits(expected)


def test_undamped_extreme_scale_is_degenerate_or_bit_identical():
    # c = 0 over 600 decades of (m, k, mu).  Where k*mu, sqrt(k/m) or p at
    # the exact roots leaves float64's range (with finite coefficients too),
    # the solve raises DegenerateSpectrum, never a bare ArithmeticError.
    # The reference scales its tripwire its own way, so there it raises
    # other errors or returns NaN; every draw that the solve returns keeps
    # the reference's bits.
    draws = 10 ** np.random.default_rng(0).uniform(-300, 300, (3000, 3))
    kinds = collections.Counter()
    for m, k, mu in draws:
        params = OscillatorParams(m=m, c=0.0, k=k, mu=mu)
        expected, got = _outcome(_ref_solve_eigen, params), _outcome(solve_eigen, params)
        if got[0] == "ok" or expected[0] is DegenerateSpectrum:
            assert _bits(got) == _bits(expected), params
        else:
            assert got[0] is DegenerateSpectrum, params
        kinds[got[0]] += 1
    assert kinds == {"ok": 1916, DegenerateSpectrum: 1084}
