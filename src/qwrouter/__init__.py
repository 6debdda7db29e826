"""Chiral continuous-time quantum-walk routing toolkit.

Builds router-graph Hamiltonians (full and six-state reduced), evolves
states, computes routing fidelities for localized and superposition inputs,
tunes the chiral phase and link weight, and quantifies robustness under
static (von Mises) and dynamical (Ornstein–Uhlenbeck) phase noise.
"""

from . import dynamics, hamiltonian, noise, routing, search
from .dynamics import *  # noqa: F401,F403
from .hamiltonian import *  # noqa: F401,F403
from .noise import *  # noqa: F401,F403
from .routing import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *hamiltonian.__all__,
    *dynamics.__all__,
    *routing.__all__,
    *noise.__all__,
    *search.__all__,
    "__version__",
]
