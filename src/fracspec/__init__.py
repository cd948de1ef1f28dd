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

The scalar problem is the space-time problem with no spatial axis (d = 0).
Both solvers return one Solution: coefficients V of shape (N,) + (K,) * d
over the time basis and, for d >= 1, the spatial basis.  One evaluate(sol,
*grids) reads it on d + 1 point arrays, one error path measures it, and one
run_convergence_study sweeps either kind of problem.
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
from .ode_solver import Solution, TimeProblem, evaluate, solve, solve_nested
from .orthopoly import (
    JacobiIndex,
    QuadratureRule,
    TimeBasis,
    gauss_jacobi_rule,
    gauss_jacobi_rules,
    gjp_deriv,
)
from .pde_solver import (
    PDEProblem,
    SpatialBasis,
    manufactured_sine_power,
    solve_spacetime,
    solve_spacetime_nested,
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
    "Solution",
    "TimeProblem",
    "evaluate",
    "solve",
    "solve_nested",
    "JacobiIndex",
    "QuadratureRule",
    "TimeBasis",
    "gauss_jacobi_rule",
    "gauss_jacobi_rules",
    "gjp_deriv",
    "PDEProblem",
    "SpatialBasis",
    "manufactured_sine_power",
    "solve_spacetime",
    "solve_spacetime_nested",
    "space_mass_matrix",
    "__version__",
]
