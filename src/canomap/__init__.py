"""canomap: Hamiltonian lifts of dynamic systems and numerically verified
controlled canonical mappings.

Lift xdot = f(x, t) to the canonical pair on extended phase space via
H = lam . f, drive changes of variables with a scalar controlling function
U(x, lam, t), and verify canonicity/invariance claims numerically —
differential criteria along flows, symplectic 2-form defects, loop
integrals, action functions, and Hamilton-Jacobi residuals.

Each public name is declared once, in its module's __all__; the package
re-exports those lists and nothing else (canomap.cli is not re-exported).
"""

from . import phasecore, hamilton, mapping, invariants, liemap, scenarios
from .phasecore import *
from .hamilton import *
from .mapping import *
from .invariants import *
from .liemap import *
from .scenarios import *

__version__ = "0.1.0"

__all__ = [name for mod in (phasecore, hamilton, mapping, invariants, liemap, scenarios)
           for name in mod.__all__] + ["__version__"]
