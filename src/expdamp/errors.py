"""Error types shared across the package."""

__all__ = ["DegenerateSpectrum", "ResonantKernel", "NotOscillatory", "StepTooLarge"]


class DegenerateSpectrum(ValueError):
    """The characteristic cubic has (nearly) repeated roots; the
    pole-residue expansion assumes simple poles."""


class ResonantKernel(ValueError):
    """An eigenvalue (nearly) coincides with the kernel rate -mu, so the
    exponential-convolution closed form divides by ~0."""


class NotOscillatory(ValueError):
    """The spectrum has no complex-conjugate pair; decay-bound formulas
    require the oscillatory root structure."""


class StepTooLarge(ValueError):
    """Integration step exceeds the resolution guard for the fastest
    time scale of the system."""
