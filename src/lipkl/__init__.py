"""Transport-smoothed relative entropy for finitely supported measures.

The central object is the divergence obtained by restricting the test
functions in the Donsker-Varadhan representation of relative entropy to a
scaled Lipschitz class: it stays finite for mutually singular measures,
equals an inf-convolution of optimal transport cost and relative entropy,
and keeps the risk-sensitive dual structure that powers model-uncertainty
bounds.

Each module's ``__all__`` is the one list of its public names, and the
package exports their union: a new public name goes in its module's
``__all__``, and nowhere else.
"""

from .measures import *
from .divergences import *
from .core import *
from .oracle import *
from .sensitivity import *
from .asymptotics import *
from .markov_uq import *

__version__ = "0.1.0"

# Importing a submodule also binds it here, so each module above is in scope.
__all__ = sorted(name for module in (measures, divergences, core, oracle, sensitivity,
                                     asymptotics, markov_uq) for name in module.__all__)
