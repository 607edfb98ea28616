"""iddlab: gaussian components of symmetric infinitely divisible laws.

The library characterizes the gaussian factor hiding inside a symmetric
infinitely divisible distribution.  Root rescaling f(sqrt(m) t)^(1/m)
walks a CF toward its gaussian-or-degenerate limit exp(-a t^2);
detection reads the coefficient a off the exponent at large t, moment
checks confirm the linear kurtosis growth along the ladder, lambda_r
bounds quantify the two-way convergence rates, a Laplace-transform
mirror handles positive laws and their support, and CDF inversion
compares gaussian against stable approximations of partial sums.

The package surface is the union of the layer modules' __all__ lists;
a public name is declared once, in the module that defines it.
"""

from . import analysis, cf_core, errors, inversion, laplace_core, measures, metrics
from .errors import *
from .measures import *
from .cf_core import *
from .analysis import *
from .metrics import *
from .laplace_core import *
from .inversion import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, measures, cf_core, analysis, metrics, laplace_core, inversion)
    for name in module.__all__
]
