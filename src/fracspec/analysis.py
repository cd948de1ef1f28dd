"""Error measurement and convergence-study harness.

Produces the machine-readable error tables behind the reported experiments:
uniform-grid maximum errors, quadrature-based L2 errors, and resolution
sweeps with optional self-reference when no exact solution is known.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StudyError
from .ode_solver import TimeProblem, TimeSolution, evaluate_table, solve, solve_nested
from .orthopoly import TimeBasis, gjp_table

__all__ = [
    "ErrorReport",
    "ConvergenceStudy",
    "StudyRequest",
    "error_linf",
    "error_l2",
    "self_convergence_reference",
    "run_convergence_study",
    "run_pde_convergence_study",
    "pde_errors_at_final_time",
]

LINF_GRID = 1001
PDE_GRID = 33
L2_PANELS = 20
L2_POINTS_PER_PANEL = 10
# The panel rule depends on nothing but its size, so it is built once.
_L2_PANEL_RULE = np.polynomial.legendre.leggauss(L2_POINTS_PER_PANEL)


@dataclass(frozen=True)
class ErrorReport:
    """Errors and wall-clock time of one solve at a given resolution."""

    n_modes: int
    linf_error: float
    l2_error: float
    runtime_ms: float
    m_modes: int | None = None

    def __post_init__(self):
        # Written so that a NaN error fails it too.
        if not (self.linf_error >= 0 and self.l2_error >= 0):
            raise DomainError(f"errors must be nonnegative, got {self.linf_error}, {self.l2_error}")


def _require_increasing(resolutions):
    """Each (N, M) must grow in one entry and shrink in none; M is None for scalar studies."""
    pairs = [(n, m if m is not None else 0) for n, m in resolutions]
    for (n0, m0), (n1, m1) in zip(pairs, pairs[1:]):
        increasing = (n1 > n0 and m1 >= m0) or (m1 > m0 and n1 >= n0)
        if not increasing:
            raise DomainError("resolutions must be strictly increasing")


@dataclass(frozen=True)
class ConvergenceStudy:
    """Ordered error reports for one problem and parameter set."""

    problem_id: str
    reports: tuple[ErrorReport, ...]

    def __post_init__(self):
        _require_increasing([(r.n_modes, r.m_modes) for r in self.reports])

    def columns(self) -> dict[str, list]:
        """The error table by column: N, M (space-time studies only), both errors, runtime_ms."""
        columns = {"N": [r.n_modes for r in self.reports], "M": [r.m_modes for r in self.reports]}
        if all(m is None for m in columns["M"]):
            del columns["M"]
        for name in ("linf_error", "l2_error", "runtime_ms"):
            columns[name] = [getattr(r, name) for r in self.reports]
        return columns


def _composite_gl(lo: float, hi: float):
    """L2_PANELS equal panels of (lo, hi), each with the L2_POINTS_PER_PANEL-point Gauss-Legendre rule."""
    x0, w0 = _L2_PANEL_RULE
    edges = np.linspace(lo, hi, L2_PANELS + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


def _error_points(transform, weighted: bool = False):
    """(s, weights) of the max norm (the LINF_GRID-point uniform s-grid, no weights) and of L2.

    L2 uses the 200-point composite Gauss-Legendre rule, plain in s on (0, T) or, weighted, in
    t against psi'(t) dt; the two agree analytically and differ only in sampling.
    """
    if weighted:
        t, w = _composite_gl(0.0, transform.b_psi)
        l2 = transform.psi(t), w * transform.psi_prime(t)
    else:
        l2 = _composite_gl(0.0, transform.horizon_T)
    return (np.linspace(0.0, transform.horizon_T, LINF_GRID), None), l2


def _error_of(points, basis: TimeBasis, exact):
    """sol -> error of u_N against `exact` on points = (s, weights), for any leading block of basis.

    The basis table and the exact values at the points are built at the first call and reused.
    """
    s, weights = points
    built = []

    def error(sol: TimeSolution) -> float:
        if not built:
            t = sol.transform.psi_inverse(s)
            built.extend((gjp_table(basis, t), np.asarray(exact(s), dtype=float)))
        diff = evaluate_table(sol, built[0]) - built[1]
        if weights is None:
            return float(np.max(np.abs(diff)))
        return float(np.sqrt(np.sum(weights * diff * diff)))

    return error


def error_linf(sol: TimeSolution, exact) -> float:
    """Max |u_N - u| over the LINF_GRID-point uniform s-grid, both endpoints included."""
    return _error_of(_error_points(sol.transform)[0], sol.basis, exact)(sol)


def error_l2(sol: TimeSolution, exact, *, weighted: bool = False) -> float:
    """L2 error by the composite rule of _error_points, in s or, if weighted, in t."""
    return _error_of(_error_points(sol.transform, weighted=weighted)[1], sol.basis, exact)(sol)


def self_convergence_reference(problem: TimeProblem, n_ref: int) -> TimeSolution:
    """High-resolution solve used as a surrogate exact solution."""
    return solve(problem, TimeBasis(0.0, n_ref, (0.0, problem.transform.b_psi)))


@dataclass(frozen=True)
class StudyRequest:
    """Specification of a resolution sweep for one time problem."""

    problem_id: str
    problem: TimeProblem
    n_values: tuple[int, ...]
    exact: object = None
    ref_n: int | None = None
    weighted_l2: bool = False

    def __post_init__(self):
        if len(self.n_values) == 0:
            raise DomainError("need at least one resolution")
        if (self.exact is None) and (self.ref_n is None):
            raise DomainError("studies need an exact solution or a reference resolution")
        if self.ref_n is not None and self.exact is None:
            if self.ref_n < 2 * max(self.n_values):
                raise DomainError(
                    f"reference resolution {self.ref_n} must be at least twice the largest N"
                )


def _run_study(problem_id: str, resolutions, solutions, errors_of) -> ConvergenceStudy:
    """Draw one solution per (N, M) in order, timing each draw alone, and collect error reports.

    `solutions` is an iterator that yields the solution at each resolution in
    order, doing its work only when drawn.  The order of the resolutions is
    checked before the first draw.  Any member failure aborts the study; the
    completed reports travel on the raised StudyError so partial progress is
    never silently discarded.
    """
    _require_increasing(resolutions)
    done: list[ErrorReport] = []
    try:
        for n, m in resolutions:
            start = time.perf_counter()
            sol = next(solutions)
            runtime = (time.perf_counter() - start) * 1e3
            linf, l2 = errors_of(sol)
            done.append(
                ErrorReport(n_modes=n, m_modes=m, linf_error=linf, l2_error=l2, runtime_ms=runtime)
            )
    except Exception as exc:
        partial = ConvergenceStudy(problem_id, tuple(done))
        raise StudyError(f"study member failed: {exc}", partial=partial) from exc
    return ConvergenceStudy(problem_id, tuple(done))


def run_convergence_study(request: StudyRequest) -> ConvergenceStudy:
    """Solve at every resolution and collect error reports, smallest N first.

    One assembly at the largest N serves every row: each smaller N is solved
    on the leading block of that system (solve_nested), so the finest row is
    the lone solve at that N.  Each set of error points gets one basis table,
    built at the largest N, and one evaluation of the exact or reference solution.
    """
    problem = request.problem
    exact = request.exact
    if exact is None:
        exact = self_convergence_reference(problem, request.ref_n).evaluate
    n_values = sorted(request.n_values)
    basis = TimeBasis(0.0, n_values[-1], (0.0, problem.transform.b_psi))
    points = _error_points(problem.transform, weighted=request.weighted_l2)
    linf, l2 = (_error_of(p, basis, exact) for p in points)
    return _run_study(
        request.problem_id,
        [(n, None) for n in n_values],
        solve_nested(problem, basis, n_values),
        lambda sol: (linf(sol), l2(sol)),
    )


def pde_errors_at_final_time(sol, exact) -> tuple[float, float]:
    """Max error on the PDE_GRID-point grid per axis and spatial L2 error at s = T."""
    T = sol.transform.horizon_T
    d = sol.space_basis.dimension
    xg = np.linspace(-1.0, 1.0, PDE_GRID)
    diff = sol.evaluate(*([xg] * d), [T]) - exact(*([xg] * d), [T])
    linf = float(np.max(np.abs(diff)))
    xq, wq = np.polynomial.legendre.leggauss(40)
    dq = sol.evaluate(*([xq] * d), [T]) - exact(*([xq] * d), [T])
    weights = functools.reduce(np.multiply.outer, [wq] * d)
    l2 = float(np.sqrt(np.sum(weights * dq[..., 0] ** 2)))
    return linf, l2


def run_pde_convergence_study(
    problem_id: str,
    problem,
    exact,
    n_values: tuple[int, ...],
    m_values: tuple[int, ...],
) -> ConvergenceStudy:
    """Sweep (N, M) pairs of a space-time problem; lists must have equal length."""
    from .pde_solver import SpatialBasis, solve_spacetime

    if len(n_values) != len(m_values):
        raise DomainError("need matching N and M lists (equal length)")
    interval, d = (0.0, problem.transform.b_psi), problem.dimension
    resolutions = list(zip(n_values, m_values))
    return _run_study(
        problem_id,
        resolutions,
        (
            solve_spacetime(problem, TimeBasis(0.0, n, interval), SpatialBasis(m, d))
            for n, m in resolutions
        ),
        lambda sol: pde_errors_at_final_time(sol, exact),
    )
