"""Eigenstructure of the exponentially damped oscillator.

Clearing the kernel pole from the transfer denominator
m*s^2 + c*mu*s/(mu+s) + k turns it into the real cubic

    p(s) = m*s^3 + m*mu*s^2 + (k + c*mu)*s + k*mu,

whose three zeros split into a complex-conjugate pair (-alpha +/- beta*i,
the vibratory motion) and one real root -gamma (pure dissipation), or
into three real roots in overdamped regimes.  The impulse response is
the exponential sum h(t) = sum_j R_j * exp(s_j*t) with residues
R_j = (mu + s_j) / p'(s_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, NotOscillatory
from .model import OscillatorParams

__all__ = [
    "CharacteristicPolynomial",
    "EigenSolution",
    "characteristic_poly",
    "solve_eigen",
    "impulse_response",
    "impulse_response_derivative",
]

# Pairwise root separation below this fraction of the spectral scale is
# treated as a repeated root; the pole-residue form assumes simple poles.
DEGENERACY_RTOL = 1e-8

# |p'(s_j)| below this fraction of its own evaluation-error scale means
# float64 cannot certify the pole as simple: a true double root lands
# here after companion + Newton, even when the computed pair separation
# drifts above DEGENERACY_RTOL * scale.
CONDITIONING_FLOOR = 1e-5


@dataclass(frozen=True)
class CharacteristicPolynomial:
    """Real cubic p(s), coefficients ordered cubic -> constant."""

    coefficients: tuple[float, float, float, float]

    def __post_init__(self):
        if self.coefficients[0] <= 0:
            raise ValueError("leading coefficient (mass) must be > 0")
        object.__setattr__(
            self, "coefficients", tuple(float(c) for c in self.coefficients)
        )

    def __call__(self, s):
        c3, c2, c1, c0 = self.coefficients
        return ((c3 * s + c2) * s + c1) * s + c0

    def deriv(self, s):
        c3, c2, c1, _ = self.coefficients
        return (3.0 * c3 * s + 2.0 * c2) * s + c1


def characteristic_poly(params: OscillatorParams) -> CharacteristicPolynomial:
    """Cubic obtained by clearing the (mu+s) denominator from the
    transfer denominator; shares its zeros away from s = -mu."""
    m, c, k, mu = params.m, params.c, params.k, params.mu
    return CharacteristicPolynomial((m, m * mu, k + c * mu, k * mu))


@dataclass(frozen=True)
class EigenSolution:
    """Roots and residues of the characteristic cubic.

    When `oscillatory`, s1/s2 form the conjugate pair (s1 has positive
    imaginary part, s2 and r2 are exact conjugates of s1 and r1) and s3
    is the real dissipative root.  Otherwise all three roots are real
    and sorted descending.
    """

    s1: complex
    s2: complex
    s3: complex
    r1: complex
    r2: complex
    r3: complex
    oscillatory: bool

    @property
    def roots(self) -> tuple[complex, complex, complex]:
        return (self.s1, self.s2, self.s3)

    @property
    def residues(self) -> tuple[complex, complex, complex]:
        return (self.r1, self.r2, self.r3)

    @property
    def alpha(self) -> float:
        if not self.oscillatory:
            raise NotOscillatory("no complex-conjugate pair in the spectrum")
        return -self.s1.real

    @property
    def beta(self) -> float:
        if not self.oscillatory:
            raise NotOscillatory("no complex-conjugate pair in the spectrum")
        return self.s1.imag

    @property
    def gamma(self) -> float:
        return -self.s3.real


def _polish(poly: CharacteristicPolynomial, root: complex) -> complex:
    # Two Newton steps; companion eigenvalues start close enough that
    # this reaches the floating-point floor.
    for _ in range(2):
        dp = poly.deriv(root)
        if dp == 0:
            break
        root = root - poly(root) / dp
    return root


def _residual_scale(poly: CharacteristicPolynomial, s: complex) -> float:
    c3, c2, c1, c0 = poly.coefficients
    a = abs(s)
    return ((abs(c3) * a + abs(c2)) * a + abs(c1)) * a + abs(c0)


def _deriv_scale(poly: CharacteristicPolynomial, s: complex) -> float:
    c3, c2, c1, _ = poly.coefficients
    a = abs(s)
    return (3.0 * abs(c3) * a + 2.0 * abs(c2)) * a + abs(c1)


def solve_eigen(params: OscillatorParams) -> EigenSolution:
    """Compute roots and residues of the characteristic cubic.

    Roots come from the companion-matrix eigenvalues of the monic cubic
    and are polished with two Newton steps.  Residues use
    R_j = (mu + s_j)/p'(s_j), identical to 1/dbar'(s_j) at the zeros but
    free of the kernel pole at s = -mu.

    Raises DegenerateSpectrum when two roots (nearly) coincide.
    """
    poly = characteristic_poly(params)
    if params.c == 0.0:
        # p factors exactly as (s + mu)*(m*s^2 + k): build the undamped
        # pair and the zero-residue kernel mode directly so the pair sits
        # on the imaginary axis and s3 equals -mu without rounding.
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
        _validate(params, poly, eig)
        return eig

    c3, c2, c1, c0 = poly.coefficients
    raw = np.roots([1.0, c2 / c3, c1 / c3, c0 / c3])
    roots = [_polish(poly, complex(r)) for r in raw]

    scale = max(abs(r) for r in roots)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(roots[i] - roots[j]) < DEGENERACY_RTOL * scale:
                raise DegenerateSpectrum(
                    f"repeated characteristic root near {roots[i]:.6g} "
                    f"(separation below {DEGENERACY_RTOL:g} * spectral scale)"
                )
    for r in roots:
        if abs(poly.deriv(r)) < CONDITIONING_FLOOR * _deriv_scale(poly, r):
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
    _validate(params, poly, eig)
    return eig


def _validate(params, poly, eig):
    # The root residual is a tripwire: a correct solve lands orders of
    # magnitude below it, and logic errors land at O(1).
    for s in eig.roots:
        if abs(poly(s)) > 1e-9 * _residual_scale(poly, s):
            raise ArithmeticError(f"root {s} fails the residual bound")
    # The residue identities are not: near a double root the residues grow
    # like 1/separation and cancel, and roots that pass both the
    # DEGENERACY_RTOL and CONDITIONING_FLOOR gates can still leave their
    # sums short of 8 digits.  That is the spectrum's fault, not a bug.
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


def _real_part(z):
    """Strip a provably-cancelling imaginary part; DegenerateSpectrum if it is
    more than noise (the conjugate residues lost their symmetry)."""
    z = np.asarray(z)
    im, re_abs = np.abs(z.imag), np.abs(z.real)
    if not np.all(im <= 1e-10 * re_abs + 1e-12):
        ratio = float(np.max(im / (re_abs + 1e-12)))
        raise DegenerateSpectrum(
            "imaginary part failed to cancel in an exponential-sum evaluation "
            f"(largest |imag|/|real| = {ratio:.3g}, tolerance 1e-10)"
        )
    re = np.asarray(z.real, dtype=float)
    return re if re.ndim else float(re)


def impulse_response(eig: EigenSolution, t):
    """h(t) = sum_j R_j exp(s_j t) for t >= 0 (scalar or array); h(0) = 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("impulse response is causal: t must be >= 0")
    acc = sum(r * np.exp(s * t) for r, s in zip(eig.residues, eig.roots))
    return _real_part(acc)


def impulse_response_derivative(eig: EigenSolution, t):
    """hdot(t) = sum_j R_j s_j exp(s_j t) for t >= 0; hdot(0) = 1/m."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("impulse response is causal: t must be >= 0")
    acc = sum(r * s * np.exp(s * t) for r, s in zip(eig.residues, eig.roots))
    return _real_part(acc)
