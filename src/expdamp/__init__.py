"""Single-mass oscillators with an exponentially fading damping memory.

The damping force is a convolution of the velocity with the kernel
mu*exp(-mu*t), so motion before t = 0 keeps pushing on the system after
initialization. The package computes the three-root eigenstructure, the
closed-form response to initial conditions and pre-history, analytic
decay bounds on the memory term, and an independent time-stepping
oracle for cross-checks.
"""

from .errors import *
from .model import *
from .eigen import *
from .history import *
from .response import *
from .oracle import *
from .bounds import *
from . import bounds, eigen, errors, history, model, oracle, response

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    *errors.__all__,
    *model.__all__,
    *eigen.__all__,
    *history.__all__,
    *response.__all__,
    *oracle.__all__,
    *bounds.__all__,
]
