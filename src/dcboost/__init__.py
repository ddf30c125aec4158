"""Difference-of-convex solvers with boosted line searches, analytic test
problems, and a Cauchy-noise image-restoration application."""

__version__ = "0.1.0"

from . import dc_core, imaging, toy_problems, tv_cauchy
from .dc_core import *  # noqa: F401,F403
from .imaging import *  # noqa: F401,F403
from .toy_problems import *  # noqa: F401,F403
from .tv_cauchy import *  # noqa: F401,F403

# each module's __all__ is the one declaration of its public names
__all__ = (dc_core.__all__ + imaging.__all__ + toy_problems.__all__
           + tv_cauchy.__all__)
