"""canomap: Hamiltonian lifts of dynamic systems and numerically verified
controlled canonical mappings.

Lift xdot = f(x, t) to the canonical pair on extended phase space via
H = lam . f, drive changes of variables with a scalar controlling function
U(x, lam, t), and verify canonicity/invariance claims numerically —
differential criteria along flows, symplectic 2-form defects, loop
integrals, action functions, and Hamilton-Jacobi residuals.
"""

from .phasecore import (ControllingFunction, DerivativeReport, DomainError,
                        DynamicSystem, PhaseState, Trajectory,
                        verify_derivatives, zero_controlling_function)
from .hamilton import (EnergyDriftReport, FundamentalMatrix, canonical_rhs,
                       energy_drift, fundamental_matrix, hamiltonian,
                       integrate, weierstrass_excess)
from .mapping import (CanonicityReport, ConvergenceError, DegeneratePivotError,
                      Lambda0Result, MappingSpec, RootNotFoundError,
                      UlamSynthesis, VARIANTS, apply_map, canonicity_residual,
                      canonicity_residual_points, invert_map,
                      jacobian_condition, synthesize_lambda0,
                      synthesize_lambda0_cross, synthesize_ulam)
from .invariants import (ActionRecord, HJResult, LoopEnsemble, action_function,
                         circle_loop, flow_loop, hj_residual_H,
                         hj_residual_U, poincare_cartan_loop, symplectic_test)
from .liemap import (Generator, compose_flow, hamiltonian_field,
                     infinitesimal_step, poisson_bracket)
from .scenarios import (ConstantFieldReport, StraighteningProblem,
                        StraighteningSolution, ballistic_system,
                        constant_field_reduction, make_ballistic_adjoint,
                        rotation_example, straightening_solve)

__version__ = "0.1.0"

__all__ = [
    "ControllingFunction", "DerivativeReport", "DomainError", "DynamicSystem",
    "PhaseState", "Trajectory", "verify_derivatives",
    "zero_controlling_function",
    "EnergyDriftReport", "FundamentalMatrix", "canonical_rhs", "energy_drift",
    "fundamental_matrix", "hamiltonian", "integrate", "weierstrass_excess",
    "CanonicityReport", "ConvergenceError", "DegeneratePivotError",
    "Lambda0Result", "MappingSpec", "RootNotFoundError", "UlamSynthesis",
    "VARIANTS", "apply_map", "canonicity_residual",
    "canonicity_residual_points", "invert_map", "jacobian_condition",
    "synthesize_lambda0", "synthesize_lambda0_cross", "synthesize_ulam",
    "ActionRecord", "HJResult", "LoopEnsemble", "action_function",
    "circle_loop", "flow_loop", "hj_residual_H", "hj_residual_U",
    "poincare_cartan_loop", "symplectic_test",
    "Generator", "compose_flow", "hamiltonian_field",
    "infinitesimal_step", "poisson_bracket",
    "ConstantFieldReport", "StraighteningProblem", "StraighteningSolution",
    "ballistic_system", "constant_field_reduction", "make_ballistic_adjoint",
    "rotation_example", "straightening_solve",
    "__version__",
]
