"""Spectral Galerkin solver for rescaled time-fractional problems.

The singular problem in physical time s is rescaled by s = t^(1/gamma)
(gamma = 1/r), solved with a boundary-adapted Jacobi basis in the new
variable, and mapped back.  Subpackages: orthogonal polynomials and rules
(orthopoly; polynomials are evaluated as tables over all degrees at once),
fractional operators and oracles (frac_ops; the map and its inverse are
TransformSpec.psi and TransformSpec.psi_inverse), the scalar solver
(ode_solver), the space-time subdiffusion solver (pde_solver), error and
convergence tooling (analysis), the benchmark catalog (problems) and the
command line (cli).
"""

from .errors import DomainError, NumericalFailureError, StudyError
from .frac_ops import (
    FracOrder,
    PowerSum,
    TransformSpec,
    caputo_power,
    psi_caputo_numeric,
    psi_integral_numeric,
)
from .ode_solver import TimeProblem, TimeSolution, evaluate, solve, solve_nested
from .orthopoly import (
    JacobiIndex,
    QuadratureRule,
    TimeBasis,
    gauss_jacobi_rule,
    gauss_jacobi_rules,
    gjp_deriv,
    gjp_eval,
)
from .pde_solver import (
    PDEProblem,
    SpatialBasis,
    SpaceTimeSolution,
    evaluate_spacetime,
    manufactured_sine_power,
    solve_spacetime,
    space_mass_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "NumericalFailureError",
    "StudyError",
    "FracOrder",
    "PowerSum",
    "TransformSpec",
    "caputo_power",
    "psi_caputo_numeric",
    "psi_integral_numeric",
    "TimeProblem",
    "TimeSolution",
    "evaluate",
    "solve",
    "solve_nested",
    "JacobiIndex",
    "QuadratureRule",
    "TimeBasis",
    "gauss_jacobi_rule",
    "gauss_jacobi_rules",
    "gjp_deriv",
    "gjp_eval",
    "PDEProblem",
    "SpatialBasis",
    "SpaceTimeSolution",
    "evaluate_spacetime",
    "manufactured_sine_power",
    "solve_spacetime",
    "space_mass_matrix",
    "__version__",
]
