"""Single-mass oscillators with an exponentially fading damping memory.

The damping force is a convolution of the velocity with the kernel
mu*exp(-mu*t), so motion before t = 0 keeps pushing on the system after
initialization. The package computes the three-root eigenstructure, the
closed-form response to initial conditions and pre-history, analytic
decay bounds on the memory term, and an independent time-stepping
oracle for cross-checks.
"""

from .errors import (
    DegenerateSpectrum,
    NotOscillatory,
    ResonantKernel,
    StepTooLarge,
)
from .model import (
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
from .eigen import (
    CharacteristicPolynomial,
    EigenSolution,
    characteristic_poly,
    impulse_response,
    impulse_response_derivative,
    solve_eigen,
)
from .history import HistoryWeight, history_weight
from .response import (
    ResponseTerms,
    Trajectory,
    exp_convolution,
    forced_response,
    initialization_response,
    response_terms,
    time_grid,
)
from .oracle import convolution_check, integrate
from .bounds import BoundReport, decay_bounds, split_history_term, verify_decay

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CharacteristicPolynomial",
    "Constant",
    "DegenerateSpectrum",
    "EigenSolution",
    "ExponentialKernel",
    "HistoryProfile",
    "HistoryWeight",
    "InitialState",
    "NotOscillatory",
    "OscillatorParams",
    "Polynomial",
    "ResonantKernel",
    "ResponseTerms",
    "Samples",
    "Sine",
    "StepTooLarge",
    "Trajectory",
    "characteristic_poly",
    "convolution_check",
    "decay_bounds",
    "exp_convolution",
    "forced_response",
    "history_eval",
    "history_sup_norm",
    "history_weight",
    "impulse_response",
    "impulse_response_derivative",
    "initialization_response",
    "integrate",
    "kernel_eval",
    "response_terms",
    "solve_eigen",
    "split_history_term",
    "time_grid",
    "verify_decay",
]
