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
)

__all__ = ["HistoryWeight", "history_weight"]


@dataclass(frozen=True)
class HistoryWeight:
    """Kernel-weighted history integral W; psi(t) = W * exp(-mu*t)."""

    value: float
    mu: float

    def psi(self, t):
        """Initialization force psi(t) = W * exp(-mu*t) for t >= 0."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0):
            raise ValueError("psi is defined for t >= 0")
        out = self.value * np.exp(-self.mu * t)
        return out if out.ndim else float(out)


def _weight_constant(v: float, mu: float, a: float) -> float:
    return v * -math.expm1(-mu * a)


def _weight_sine(shape: Sine, mu: float, a: float) -> float:
    # Antiderivative of exp(mu*tau)*sin(omega*tau + phase), evaluated on [-a, 0].
    w, phi = shape.omega, shape.phase
    denom = mu * mu + w * w
    upper = mu * math.sin(phi) - w * math.cos(phi)
    lower = math.exp(-mu * a) * (mu * math.sin(phi - w * a) - w * math.cos(phi - w * a))
    return shape.amplitude * mu * (upper - lower) / denom


def _weight_polynomial(coeffs, mu: float, a: float) -> float:
    # I_n = integral tau^n exp(mu*tau) on [-a, 0] = (-1)^n J_n, where J_n is
    # the integral of s^n exp(-mu*s) on [0, a].
    top = len(coeffs) - 1
    x = mu * a
    decay = math.exp(-x)
    if x > top:
        # The parts recurrence upward multiplies rounding by about
        # n!/(mu*a)^n, which stays near 1 while mu*a > n.
        i_n = -math.expm1(-x) / mu
        total = coeffs[0] * i_n
        for n in range(1, top + 1):
            i_n = -((-a) ** n * decay + n * i_n) / mu
            total += coeffs[n] * i_n
        return mu * total
    # Below that, J_top = top! a^(top+1) e^-x sum_j x^j/(top+1+j)! and the
    # recurrence downward, J_{n-1} = (mu J_n + a^n e^-x)/n, add positive
    # terms only.
    term = series = 1.0 / math.factorial(top + 1)
    j = top + 1
    while term > 1e-17 * series:
        j += 1
        term *= x / j
        series += term
    j_n = math.factorial(top) * a ** (top + 1) * decay * series
    total = 0.0
    for n in range(top, -1, -1):
        total += coeffs[n] * (-1) ** n * j_n
        if n:
            j_n = (mu * j_n + a**n * decay) / n
    return mu * total


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
        value = _weight_polynomial(shape.coeffs, mu, a)
    elif isinstance(shape, Samples):
        grid = profile.grid()
        value = mu * float(np.trapezoid(np.exp(mu * grid) * shape.values, grid))
    else:
        raise TypeError(f"unsupported history shape: {shape!r}")
    return HistoryWeight(float(value), mu)

