"""Classical mechanics with a fractional-power kinetic term.

The model Hamiltonian is H = d_alpha |p|^alpha + strength |q|^degree with
kinetic exponent 1 < alpha <= 2; alpha = 2, d_alpha = 1/(2m) is ordinary
Newtonian mechanics.  The package evaluates the mechanics pointwise,
integrates the equations of motion with event detection, provides
closed-form oscillator machinery (period, time-of-flight solution,
semiclassical levels), and verifies mechanical-similarity scaling laws
including the orbital generalization of Kepler's third law.
"""

import sys as _sys

from .errors import *
from .model import *
from .trajectory import *
from .specfun import *
from .integrate import *
from .oscillator import *
from .similarity import *

__version__ = "0.1.0"

# The package surface is the union of the layer lists, in the import order above.
__all__ = ["__version__"] + [
    name
    for layer in ("errors", "model", "trajectory", "specfun", "integrate", "oscillator", "similarity")
    for name in _sys.modules[f"{__name__}.{layer}"].__all__
]
