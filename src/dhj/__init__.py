"""Discrete Hamilton-Jacobi toolkit.

Variational integrators built from one-step Lagrangians and their right/left
Hamiltonian duals, two evolution schemes for generating-function slopes along
the discrete flow (value recursion and vector-field form), and the reduction
of optimal control problems to the discrete Hamiltonian setting, with a CLI
driving a scalar cubic benchmark.
"""

# each module's __all__ is the package's list of its public names
from .core import *  # noqa: F401,F403
from .hj_flow import *  # noqa: F401,F403
from .hj_vf import *  # noqa: F401,F403
from .mechanics import *  # noqa: F401,F403
from .optctrl import *  # noqa: F401,F403

__version__ = "0.1.0"
