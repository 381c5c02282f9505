"""Core data types: oscillator parameters, the exponential relaxation
kernel, pre-initial velocity histories, and initial state.

All types are immutable after construction and validate their invariants
eagerly, so downstream formulas never have to re-check positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OscillatorParams",
    "ExponentialKernel",
    "InitialState",
    "Constant",
    "Sine",
    "Polynomial",
    "Samples",
    "HistoryProfile",
    "kernel_eval",
    "history_eval",
    "history_sup_norm",
]


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class OscillatorParams:
    """Mass, viscous coefficient, stiffness, and kernel decay rate.

    The damping force is c * integral of mu*exp(-mu*(t-tau)) * xdot(tau);
    c = 0 is the undamped degenerate case and is permitted.
    """

    m: float
    c: float
    k: float
    mu: float

    def __post_init__(self):
        for name in ("m", "c", "k", "mu"):
            _check_finite(name, getattr(self, name))
        if self.m <= 0:
            raise ValueError(f"mass m must be > 0, got {self.m}")
        if self.k <= 0:
            raise ValueError(f"stiffness k must be > 0, got {self.k}")
        if self.mu <= 0:
            raise ValueError(f"kernel rate mu must be > 0, got {self.mu}")
        if self.c < 0:
            raise ValueError(f"damping coefficient c must be >= 0, got {self.c}")

    @property
    def kernel(self) -> "ExponentialKernel":
        return ExponentialKernel(self.mu)


@dataclass(frozen=True)
class ExponentialKernel:
    """Relaxation kernel G(t) = mu * exp(-mu*t); integrates to 1 on [0, inf)."""

    mu: float

    def __post_init__(self):
        _check_finite("mu", self.mu)
        if self.mu <= 0:
            raise ValueError(f"kernel rate mu must be > 0, got {self.mu}")


@dataclass(frozen=True)
class InitialState:
    """Displacement and velocity at t = 0."""

    x0: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        _check_finite("x0", self.x0)
        _check_finite("v0", self.v0)


# --------------------------------------------------------------------------
# History shapes: the pre-initial velocity v(t) on [-a, 0].


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self):
        _check_finite("value", self.value)


@dataclass(frozen=True)
class Sine:
    """v(t) = amplitude * sin(omega*t + phase)."""

    amplitude: float
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        _check_finite("amplitude", self.amplitude)
        _check_finite("omega", self.omega)
        _check_finite("phase", self.phase)


@dataclass(frozen=True)
class Polynomial:
    """v(t) = sum coeffs[n] * t**n (ascending powers)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial history needs at least one coefficient")
        for c in coeffs:
            _check_finite("coefficient", c)
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class Samples:
    """Velocity values on a uniform grid spanning [-a, 0].

    values[0] sits at t = -a and values[-1] at t = 0; evaluation
    interpolates linearly between grid points.  The optional spacing,
    when given, must satisfy spacing * (len-1) == a at construction of
    the enclosing profile.
    """

    values: tuple[float, ...]
    spacing: float | None = None

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if len(values) < 2:
            raise ValueError("sampled history needs at least 2 points")
        for v in values:
            _check_finite("sample", v)
        object.__setattr__(self, "values", values)
        if self.spacing is not None:
            spacing = _check_finite("spacing", self.spacing)
            if spacing <= 0:
                raise ValueError(f"sample spacing must be > 0, got {spacing}")
            object.__setattr__(self, "spacing", spacing)


HistoryShape = Constant | Sine | Polynomial | Samples


@dataclass(frozen=True)
class HistoryProfile:
    """Velocity history v(t) on the finite window [-a, 0].

    The system is quiescent before t = -a, so the window fully
    determines the hereditary force after t = 0.
    """

    a: float
    shape: HistoryShape

    def __post_init__(self):
        _check_finite("a", self.a)
        if self.a <= 0:
            raise ValueError(f"history duration a must be > 0, got {self.a}")
        if not isinstance(self.shape, (Constant, Sine, Polynomial, Samples)):
            raise TypeError(f"unsupported history shape: {self.shape!r}")
        if isinstance(self.shape, Samples) and self.shape.spacing is not None:
            implied = self.shape.spacing * (len(self.shape.values) - 1)
            if abs(implied - self.a) > 1e-12 * self.a:
                raise ValueError(
                    f"sample spacing {self.shape.spacing} * (count-1) = {implied} "
                    f"does not match history duration a = {self.a}"
                )

    def grid(self) -> np.ndarray:
        """Uniform sample grid on [-a, 0] (Samples shapes only)."""
        if not isinstance(self.shape, Samples):
            raise TypeError("grid() is only defined for sampled histories")
        return np.linspace(-self.a, 0.0, len(self.shape.values))


# --------------------------------------------------------------------------
# Operations.


def kernel_eval(kernel: ExponentialKernel, t):
    """Evaluate G(t) = mu*exp(-mu*t) for t >= 0 (scalar or array)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("kernel is only defined for t >= 0")
    out = kernel.mu * np.exp(-kernel.mu * t)
    return out if out.ndim else float(out)


def _shape_eval(shape: Constant | Sine | Polynomial, t: np.ndarray):
    # The analytic shapes at float times t; history velocities and forcing
    # specs both evaluate through here.
    if isinstance(shape, Constant):
        return np.full_like(t, shape.value)
    if isinstance(shape, Sine):
        return shape.amplitude * np.sin(shape.omega * t + shape.phase)
    return np.polynomial.polynomial.polyval(t, shape.coeffs)


def history_eval(profile: HistoryProfile, t):
    """Evaluate the history velocity v(t) for t in [-a, 0] (scalar or array)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -profile.a) or np.any(t > 0):
        raise ValueError(f"history time must lie in [-{profile.a}, 0]")
    shape = profile.shape
    if isinstance(shape, Samples):
        out = np.interp(t, profile.grid(), shape.values)
    else:
        out = _shape_eval(shape, t)
    out = np.asarray(out, dtype=float)
    return out if out.ndim else float(out)


def _sine_sup(shape: Sine, a: float) -> float:
    # Sup of |sin(theta)| over the phase interval swept by t in [-a, 0].
    lo, hi = sorted((shape.phase - shape.omega * a, shape.phase))
    amp = abs(shape.amplitude)
    if hi - lo >= math.pi:
        return amp
    # Smallest n with pi/2 + n*pi >= lo; an extremum lies inside iff it is <= hi.
    n = math.ceil((lo - math.pi / 2) / math.pi)
    if math.pi / 2 + n * math.pi <= hi:
        return amp
    return amp * max(abs(math.sin(lo)), abs(math.sin(hi)))


def _polynomial_sup(shape: Polynomial, a: float) -> float:
    poly = np.polynomial.Polynomial(shape.coeffs)
    candidates = [-a, 0.0]
    if poly.degree() >= 2:
        for r in poly.deriv().roots():
            if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)) and -a <= r.real <= 0.0:
                candidates.append(float(r.real))
    return float(max(abs(poly(t)) for t in candidates))


def history_sup_norm(profile: HistoryProfile) -> float:
    """Sup of |v(t)| over [-a, 0]; exact for every shape family."""
    shape = profile.shape
    if isinstance(shape, Constant):
        return abs(shape.value)
    if isinstance(shape, Sine):
        return _sine_sup(shape, profile.a)
    if isinstance(shape, Polynomial):
        return _polynomial_sup(shape, profile.a)
    return float(np.max(np.abs(shape.values)))
