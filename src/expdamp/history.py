"""Initialization force psi(t) produced by the pre-initial motion.

For the exponential kernel the whole history collapses into one scalar

    W = mu * integral_{-a}^{0} exp(mu*tau) v(tau) dtau,

and the internal force is psi(t) = W * exp(-mu*t).  W has a closed form
for the analytic history shapes and a trapezoid value for sampled ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Constant,
    ExponentialKernel,
    HistoryProfile,
    Polynomial,
    Samples,
    Sine,
    _check_finite,
    _times,
)

__all__ = ["HistoryWeight", "history_weight"]


@dataclass(frozen=True)
class HistoryWeight:
    """Kernel-weighted history integral W; psi(t) = W * exp(-mu*t)."""

    value: float
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "value", _check_finite("history weight W", self.value))

    def psi(self, t):
        """Initialization force psi(t) = W * exp(-mu*t) for finite t >= 0."""
        t = _times(t, "psi")
        out = self.value * np.exp(-self.mu * t)
        return out if out.ndim else float(out)


def _weight_constant(v: float, mu: float, a: float) -> float:
    return v * -math.expm1(-mu * a)


def _halves(f: float) -> tuple[float, float]:
    # Veltkamp's split at 2^27 + 1: f = high + low, each of at most 27 bits.
    c = 134217729.0 * f
    high = c - (c - f)
    return high, f - high


def _lower_phase(phi: float, w: float, a: float) -> tuple[float, float, float]:
    """(end, err, lo) with phi - w*a = end + err - lo exactly: w*a = hi + lo
    by Dekker's two-product on the significands, whose split cannot overflow,
    and phi - hi = end + err by two-sum.  OverflowError where w*a leaves float64."""
    (fw, ew), (fa, ea) = math.frexp(w), math.frexp(a)
    (wh, wl), (ah, al), p = _halves(fw), _halves(fa), fw * fa
    hi = math.ldexp(p, ew + ea)
    lo = math.ldexp(((wh * ah - p) + wh * al + wl * ah) + wl * al, ew + ea)
    end = phi - hi
    back = end - phi
    return end, (phi - (end - back)) + (-hi - back), lo


def _weight_sine(shape: Sine, mu: float, a: float) -> float:
    # Antiderivative of exp(mu*tau)*sin(omega*tau + phase), evaluated on
    # [-a, 0], over mu^2 + omega^2 = r^2: mu and omega in units of r.  A
    # power of two first brings them near 1, exactly, so r cannot overflow.
    w, phi = shape.omega, shape.phase
    e = math.frexp(max(mu, abs(w)))[1]
    cm, cw = math.ldexp(mu, -e), math.ldexp(w, -e)
    r = math.hypot(cm, cw)
    cm, cw = cm / r, cw / r
    # The lower end's phase may leave float64 only where e^(-mu a) = 0
    # drops that end.
    upper = cm * math.sin(phi) - cw * math.cos(phi)
    decay = math.exp(-mu * a)
    try:
        end, err, lo = _lower_phase(phi, w, a)
    except OverflowError:  # omega * a leaves float64
        end = math.inf
    if math.isfinite(end):
        # sin and cos of end + err - lo: libm reduces each finite angle
        # exactly, and the angle-addition formulas turn by err, then by -lo.
        sin, cos = math.sin(end), math.cos(end)
        for turn in (err, -lo):
            sin, cos = (
                sin * math.cos(turn) + cos * math.sin(turn),
                cos * math.cos(turn) - sin * math.sin(turn),
            )
        lower = decay * (cm * sin - cw * cos)
    elif decay:
        raise ValueError("Sine history phase - omega * a leaves float64's range")
    else:
        lower = 0.0
    return shape.amplitude * cm * (upper - lower)


def _weight_polynomial(coeffs, mu: float, a: float) -> float:
    # I_n = integral tau^n exp(mu*tau) on [-a, 0] = (-1)^n J_n, where J_n is
    # the integral of s^n exp(-mu*s) on [0, a].  The end terms a^n e^-x and
    # the c_n I_n are (mantissa, binary exponent) pairs, so none under- or
    # overflows unless W does; e^-x alone underflows from x near 745.
    top, x = len(coeffs) - 1, mu * a
    k = max(0, math.frexp(x / 512)[1])  # e^-x = (e^-(x/2^k))^(2^k)
    decay_m, decay_e = math.frexp(math.exp(-math.ldexp(x, -k)))
    for _ in range(k):
        decay_m, d = math.frexp(decay_m * decay_m)
        decay_e = 2 * decay_e + d
    f, g = math.frexp(a)

    def end(n):  # a^n e^-x: pow's f**n in powers of f that stay normal
        end_m, end_e = decay_m, decay_e + g * n
        for r in [1000] * (n // 1000) + [n % 1000]:
            end_m, d = math.frexp(end_m * f**r)
            end_e += d
        return end_m, end_e

    parts = []
    if x > top:
        # Integration by parts, upward, multiplies rounding by about
        # n!/(mu*a)^n, which stays near 1 while mu*a > n.
        m, e = math.frexp(-math.expm1(-x) / mu)
        parts.append((coeffs[0] * m, e))
        for n in range(1, top + 1):
            end_m, end_e = end(n)
            m, d = math.frexp(-((-1) ** n * math.ldexp(end_m, end_e - e) + n * m) / mu)
            e += d
            parts.append((coeffs[n] * m, e))
    else:
        # Below that, J_top = a^(top+1) e^-x sum_j x^j top!/(top+1+j)!, the
        # ratio of factorials carried term by term, and the recurrence
        # downward, J_{n-1} = (mu J_n + a^n e^-x)/n, add positive terms only.
        term = series = 1.0 / (top + 1)
        j = top + 1
        while term > 1e-17 * series:
            j += 1
            term *= x / j
            series += term
        end_m, e = end(top + 1)
        m, d = math.frexp(end_m * series)
        e += d
        for n in range(top, -1, -1):
            parts.append((coeffs[n] * (-1) ** n * m, e))
            if n:
                end_m, end_e = end(n)
                m, d = math.frexp((mu * m + math.ldexp(end_m, end_e - e)) / n)
                e += d
    scale = max(e for _, e in parts)  # one rounding for the sum
    return math.ldexp(mu * math.fsum(math.ldexp(m, e - scale) for m, e in parts), scale)


def history_weight(kernel: ExponentialKernel, profile: HistoryProfile | None) -> HistoryWeight:
    """W for the given kernel and history; closed form for analytic
    shapes, trapezoid quadrature for sampled ones, 0 without a history."""
    if profile is None:
        return HistoryWeight(0.0, kernel.mu)
    mu, a = kernel.mu, profile.a
    shape = profile.shape
    if isinstance(shape, Constant):
        value = _weight_constant(shape.value, mu, a)
    elif isinstance(shape, Sine):
        value = _weight_sine(shape, mu, a)
    elif isinstance(shape, Polynomial):
        try:
            value = _weight_polynomial(shape.coeffs, mu, a)
        except OverflowError:
            raise ValueError("history weight W overflows float64") from None
    elif isinstance(shape, Samples):
        grid = profile.grid()
        value = mu * float(np.trapezoid(np.exp(mu * grid) * shape.values, grid))
    else:
        raise TypeError(f"unsupported history shape: {shape!r}")
    return HistoryWeight(value, mu)

