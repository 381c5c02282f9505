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
from .model import OscillatorParams, _times

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


def solve_eigen(params: OscillatorParams) -> EigenSolution:
    """Compute roots and residues of the characteristic cubic.

    Roots come from the companion-matrix eigenvalues of the monic cubic
    and are polished with two Newton steps.  Residues use
    R_j = (mu + s_j)/p'(s_j), identical to 1/dbar'(s_j) at the zeros but
    free of the kernel pole at s = -mu.

    Raises DegenerateSpectrum when two roots (nearly) coincide, for c > 0
    when a coefficient of the cubic or of its monic form overflows float64
    or underflows it (to zero or a subnormal), and for c = 0 when the
    cubic cannot be evaluated at its exact roots in float64.
    """
    # p and p' are written out on the coefficients, all >= 0 and so their
    # own magnitudes in the error scales: this is every spectrum's hot path.
    c3, c2, c1, c0 = characteristic_poly(params).coefficients
    mu = params.mu
    if params.c == 0.0:
        # p factors exactly as (s + mu)*(m*s^2 + k): build the undamped
        # pair and the zero-residue kernel mode directly so the pair sits
        # on the imaginary axis and s3 equals -mu without rounding.
        s1 = complex(0.0, math.sqrt(params.k / params.m))
        r1 = (mu + s1) / ((3.0 * c3 * s1 + 2.0 * c2) * s1 + c1)
        eig = EigenSolution(
            s1, s1.conjugate(), complex(-mu, 0.0), r1, r1.conjugate(), 0j, True
        )
        try:
            _validate(params.m, c3, c2, c1, c0, eig)
        except ArithmeticError as exc:
            # These roots are exact, so only float64's range can fail them:
            # k*mu or sqrt(k/m) overflows or underflows, or p does at them.
            raise DegenerateSpectrum(
                f"{exc}; the c = 0 roots +/-i sqrt(k/m) and -mu are exact, "
                "so the cubic's scale is beyond float64"
            ) from None
        return eig

    # Every coefficient is positive: a zero, subnormal or infinite one, in p
    # or its monic form, is float64's range failing, not a root at 0 or inf.
    monic = [c2 / c3, c1 / c3, c0 / c3]
    if not all(2.0**-1022 <= a < math.inf for a in (c3, c2, c1, c0, *monic)):  # normal
        raise DegenerateSpectrum(
            f"the characteristic cubic {'overflows' if math.inf in monic else 'underflows'} "
            f"float64: coefficients {c3:.6g}, {c2:.6g}, {c1:.6g}, {c0:.6g}; monic "
            + ", ".join(f"{a:.6g}" for a in monic)
        )
    companion = np.eye(3, k=-1)
    companion[0] = [-a for a in monic]
    raw = np.linalg.eigvals(companion).tolist()
    roots = []
    for s in raw:
        s = complex(s)
        for _ in range(2):  # companion eigenvalues are close: 2 Newton steps suffice
            dp = (3.0 * c3 * s + 2.0 * c2) * s + c1
            if dp == 0:
                break
            s = s - (((c3 * s + c2) * s + c1) * s + c0) / dp
        roots.append(s)
    if not all(math.isfinite(r.real) and math.isfinite(r.imag) for r in roots):
        raise DegenerateSpectrum(
            "Newton steps from the companion eigenvalues "
            + ", ".join(f"{complex(z):.6g}" for z in raw)
            + " leave float64's range"
        )

    scale = max(abs(r) for r in roots)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(roots[i] - roots[j]) < DEGENERACY_RTOL * scale:
                raise DegenerateSpectrum(
                    f"repeated characteristic root: companion eigenvalues "
                    f"{complex(raw[i]):.6g} and {complex(raw[j]):.6g} polish to within "
                    f"{DEGENERACY_RTOL:g} * spectral scale"
                )

    def ill_conditioned(z):
        # p'(z) vanishes to working precision relative to its scale at |z|.
        a = abs(z)
        dp_scale = (3.0 * c3 * a + 2.0 * c2) * a + c1
        return abs((3.0 * c3 * z + 2.0 * c2) * z + c1) < CONDITIONING_FLOOR * dp_scale

    for r in roots:
        if ill_conditioned(r):
            raise DegenerateSpectrum(
                f"characteristic root near {r:.6g} is too ill-conditioned "
                "to certify as a simple pole (p' vanishes to working precision)"
            )

    oscillatory = max(abs(r.imag) for r in roots) > 1e-9 * scale
    if oscillatory:
        roots.sort(key=lambda r: abs(r.imag))
        g = roots[0].real
        s3 = complex(g, 0.0)
        s1 = roots[1] if roots[1].imag > 0 else roots[2]
        s2 = s1.conjugate()
        r1 = (mu + s1) / ((3.0 * c3 * s1 + 2.0 * c2) * s1 + c1)
        r2 = r1.conjugate()
        r3 = complex((mu + g) / ((3.0 * c3 * g + 2.0 * c2) * g + c1), 0.0)
    else:
        real_roots = sorted((r.real for r in roots), reverse=True)
        s1, s2, s3 = (complex(r, 0.0) for r in real_roots)
        r1, r2, r3 = (
            complex((mu + r) / ((3.0 * c3 * r + 2.0 * c2) * r + c1), 0.0)
            for r in real_roots
        )

    eig = EigenSolution(s1, s2, s3, r1, r2, r3, oscillatory)
    try:
        _validate(params.m, c3, c2, c1, c0, eig)
    except ArithmeticError as exc:
        # Newton steps from a companion eigenvalue where p' vanishes (a
        # near-triple root) go anywhere: the spectrum's fault, not a bug.
        if any(ill_conditioned(z) for z in raw):
            raise DegenerateSpectrum(f"{exc} after Newton steps from where p' vanishes") from None
        # So do they, or they overflow to NaN, from a root smaller than
        # float64 resolves at the scale of the largest (the pair at mu ~ 1e118).
        raw_abs = [abs(z) for z in raw]
        if not min(raw_abs) >= DEGENERACY_RTOL * max(raw_abs):
            raise DegenerateSpectrum(
                f"{exc}; some roots lie below float64's resolution at the spectral scale"
            ) from None
        raise
    return eig


def _validate(m, c3, c2, c1, c0, eig):
    # The root residual is a tripwire: a correct solve lands orders of
    # magnitude below it, and logic errors land at O(1).  Each test is
    # written "not <=", so that a NaN fails it.
    for s in eig.roots:
        a = abs(s)
        if not abs(((c3 * s + c2) * s + c1) * s + c0) <= 1e-9 * (((c3 * a + c2) * a + c1) * a + c0):
            raise ArithmeticError(f"root {s} fails the residual bound")
    # The residue identities are not: near a double root the residues grow
    # like 1/separation and cancel, and roots that pass both the
    # DEGENERACY_RTOL and CONDITIONING_FLOOR gates can still leave their
    # sums short of 8 digits.  That is the spectrum's fault, not a bug.
    rmax = max(abs(r) for r in eig.residues)
    residue_sum = abs(sum(eig.residues)) / rmax
    if not residue_sum <= 1e-8:
        raise DegenerateSpectrum(
            f"residues cancel to |sum R|/max|R| = {residue_sum:.3g} (tolerance 1e-8); "
            "the roots are too close to resolve"
        )
    terms = [r * s for r, s in zip(eig.residues, eig.roots)]
    inv_m = 1.0 / m
    mismatch = abs(sum(terms) - inv_m) / max(inv_m, max(abs(t) for t in terms))
    if not mismatch <= 1e-8:
        raise DegenerateSpectrum(
            f"first residue moment misses 1/m by {mismatch:.3g} of its scale "
            "(tolerance 1e-8); the roots are too close to resolve"
        )


def _real_part(z):
    """Strip a provably-cancelling imaginary part; DegenerateSpectrum if it is
    more than noise (the conjugate residues lost their symmetry)."""
    z = np.asarray(z)
    # Conjugate modes cancel exactly; only a nonzero imag or a NaN real is tested.
    if z.imag.any() or np.isnan(z.real).any():
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
    """h(t) = sum_j R_j exp(s_j t) for finite t >= 0 (scalar or array); h(0) = 0."""
    t = _times(t, "the impulse response")
    acc = sum(r * np.exp(s * t) for r, s in zip(eig.residues, eig.roots))
    return _real_part(acc)


def impulse_response_derivative(eig: EigenSolution, t):
    """hdot(t) = sum_j R_j s_j exp(s_j t) for finite t >= 0; hdot(0) = 1/m."""
    t = _times(t, "the impulse response derivative")
    acc = sum(r * s * np.exp(s * t) for r, s in zip(eig.residues, eig.roots))
    return _real_part(acc)
