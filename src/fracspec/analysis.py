"""Error measurement and convergence-study harness.

Produces the machine-readable error tables behind the reported experiments:
uniform-grid maximum errors, quadrature-based L2 errors, and resolution
sweeps with optional self-reference when no exact solution is known.  Every
error goes through one path, _error_of, over ode_solver's one evaluation, and
one study runner serves scalar and space-time problems; it takes plain
arguments and checks them before any solve:

    run_convergence_study(problem, exact, n_values, m_values=None, *, ref_n=None, weighted_l2=False)

It solves every row on a leading block of one assembly at its largest size
and returns a ConvergenceStudy(reports, spacetime), smallest resolution first.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StudyError
from .ode_solver import Solution, _evaluate_tables, _tables, solve_nested
from .orthopoly import TimeBasis
from .pde_solver import PDEProblem, SpatialBasis, solve_spacetime_nested

__all__ = [
    "ErrorReport",
    "ConvergenceStudy",
    "error_linf",
    "error_l2",
    "run_convergence_study",
    "pde_errors_at_final_time",
]

LINF_GRID = 1001
PDE_GRID = 33
L2_PANELS = 20
L2_POINTS_PER_PANEL = 10
PDE_L2_POINTS = 40
# The Gauss-Legendre rules depend on nothing but their sizes, so each is built once.
_L2_PANEL_RULE = np.polynomial.legendre.leggauss(L2_POINTS_PER_PANEL)
_PDE_L2_RULE = np.polynomial.legendre.leggauss(PDE_L2_POINTS)


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
    """At least one (N, M), each growing in one entry and shrinking in none; M is None if scalar."""
    if not resolutions:
        raise DomainError("need at least one resolution")
    pairs = [(n, m if m is not None else 0) for n, m in resolutions]
    for (n0, m0), (n1, m1) in zip(pairs, pairs[1:]):
        increasing = (n1 > n0 and m1 >= m0) or (m1 > m0 and n1 >= n0)
        if not increasing:
            raise DomainError("resolutions must be strictly increasing")


@dataclass(frozen=True)
class ConvergenceStudy:
    """Ordered error reports of one study; a space-time study's table has an M column."""

    reports: tuple[ErrorReport, ...]
    spacetime: bool = False

    def __post_init__(self):
        # The partial study of a run that failed at its first row has no reports.
        if self.reports:
            _require_increasing([(r.n_modes, r.m_modes) for r in self.reports])

    def columns(self) -> dict[str, list]:
        """The error table by column: N, M (space-time studies only), both errors, runtime_ms."""
        columns = {"N": [r.n_modes for r in self.reports]}
        if self.spacetime:
            columns["M"] = [r.m_modes for r in self.reports]
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
    """(grids, weights) of the max norm (the LINF_GRID-point uniform s-grid, no weights) and of L2.

    L2 uses the 200-point composite Gauss-Legendre rule, plain in s on (0, T) or, weighted, in
    t against psi'(t) dt; the two agree analytically and differ only in sampling.
    """
    if weighted:
        t, w = _composite_gl(0.0, transform.b_psi)
        s, w = transform.psi(t), w * transform.psi_prime(t)
    else:
        s, w = _composite_gl(0.0, transform.horizon_T)
    return ((np.linspace(0.0, transform.horizon_T, LINF_GRID),), None), ((s,), w)


def _pde_error_points(dimension: int, horizon_T: float):
    """(grids, weights) at s = T of the max norm and, by Gauss-Legendre per axis, of spatial L2."""
    xq, wq = _PDE_L2_RULE
    weights = functools.reduce(np.multiply.outer, [wq] * dimension)[..., None]
    xg, s = np.linspace(-1.0, 1.0, PDE_GRID), [horizon_T]
    return ((xg,) * dimension + (s,), None), ((xq,) * dimension + (s,), weights)


def _error_of(points, bases, exact):
    """sol -> its error against `exact` at points (grids, weights), for any leading block of bases.

    bases is (TimeBasis, SpatialBasis or None), and grids are the d + 1 arrays (x[, y], s).
    `exact` is a callable of the grids or a Solution of the bases themselves.  The tables and
    the exact values at the points are built at the first call and reused.
    """
    grids, weights = points
    built = []

    def error(sol) -> float:
        if not built:
            table = _tables(*bases, sol.transform, grids)
            values = exact(*grids) if callable(exact) else _evaluate_tables(exact, table)
            built.extend((table, np.asarray(values, dtype=float)))
        diff = _evaluate_tables(sol, built[0]) - built[1]
        if weights is None:
            return float(np.max(np.abs(diff)))
        return float(np.sqrt(np.sum(weights * diff * diff)))

    return error


def error_linf(sol: Solution, exact) -> float:
    """Max |u_N - u| over the LINF_GRID-point uniform s-grid, both endpoints included."""
    points = _error_points(sol.transform)[0]
    return _error_of(points, (sol.time_basis, sol.space_basis), exact)(sol)


def error_l2(sol: Solution, exact, *, weighted: bool = False) -> float:
    """L2 error by the composite rule of _error_points, in s or, if weighted, in t."""
    points = _error_points(sol.transform, weighted)[1]
    return _error_of(points, (sol.time_basis, sol.space_basis), exact)(sol)


def pde_errors_at_final_time(sol: Solution, exact) -> tuple[float, float]:
    """Max error on the PDE_GRID-point grid per axis and spatial L2 error at s = T, as a study's."""
    points = _pde_error_points(sol.space_basis.dimension, sol.transform.horizon_T)
    return tuple(_error_of(p, (sol.time_basis, sol.space_basis), exact)(sol) for p in points)


def run_convergence_study(
    problem, exact, n_values, m_values=None, *, ref_n: int | None = None, weighted_l2: bool = False
) -> ConvergenceStudy:
    """Solve at every resolution and collect error reports, smallest first.

    A scalar study (a TimeProblem) solves at every N of n_values.  Its `exact`
    is a callable of s, or None for a study against the solve at ref_n, which
    must then be at least twice the largest N; weighted_l2 measures its L2
    error in t against psi'(t) dt.  A space-time study (a PDEProblem) solves at
    the (N, M) pairs of n_values and m_values, lists of equal length, each
    pair growing in one entry and shrinking in none, and measures against its
    exact solution at s = T.  The arguments are checked before any rule is built.

    One assembly serves every row: at the largest resolution, or at ref_n for
    a study with a reference.  Each row is solved on the leading block of that
    system (solve_nested, solve_spacetime_nested), so the top block is the
    lone solve at its size.  A reference study draws its reference first, as
    the block at ref_n, which is the lone solve at ref_n bit for bit; that draw
    carries the assembly, and no row's runtime_ms includes it.  Each set of
    error points gets one set of tables, built at the assembly's sizes, and
    one evaluation of the exact or reference solution.  Each row's draw is
    timed alone.  Any row's failure aborts the study; the completed reports
    travel on the raised StudyError so partial progress is never discarded.
    """
    spacetime = isinstance(problem, PDEProblem)
    if spacetime:
        if exact is None:
            raise DomainError("a space-time study needs the exact solution")
        if m_values is None or len(n_values) != len(m_values):
            raise DomainError("need matching N and M lists (equal length)")
        if weighted_l2:
            raise DomainError("a space-time study has no weighted L2 error")
        resolutions = list(zip(n_values, m_values))
    elif m_values is not None:
        raise DomainError("a scalar study takes no M list")
    else:
        resolutions = [(n, None) for n in sorted(n_values)]
    _require_increasing(resolutions)
    if (exact is None) == (ref_n is None):
        raise DomainError("exactly one of exact/ref_n must be given")
    (n_max, m_max), interval = resolutions[-1], (0.0, problem.transform.b_psi)
    if ref_n is not None and ref_n < 2 * n_max:
        raise DomainError(f"reference resolution {ref_n} must be at least twice the largest N")
    if spacetime:
        bases = TimeBasis(0.0, n_max, interval), SpatialBasis(m_max, problem.dimension)
        solutions = solve_spacetime_nested(problem, *bases, resolutions)
        points = _pde_error_points(problem.dimension, problem.transform.horizon_T)
    else:
        sizes = [n for n, _ in resolutions]
        sizes = sizes if ref_n is None else [ref_n, *sizes]
        bases = TimeBasis(0.0, max(sizes), interval), None
        solutions = solve_nested(problem, bases[0], sizes)
        points = _error_points(problem.transform, weighted=weighted_l2)
    if exact is None:
        exact = next(solutions)
    errors = [_error_of(p, bases, exact) for p in points]
    done: list[ErrorReport] = []
    try:
        for n, m in resolutions:
            start = time.perf_counter()
            sol = next(solutions)
            runtime = (time.perf_counter() - start) * 1e3
            linf, l2 = (error(sol) for error in errors)
            done.append(
                ErrorReport(n_modes=n, m_modes=m, linf_error=linf, l2_error=l2, runtime_ms=runtime)
            )
    except Exception as exc:
        partial = ConvergenceStudy(tuple(done), spacetime)
        raise StudyError(f"study member failed: {exc}", partial=partial) from exc
    return ConvergenceStudy(tuple(done), spacetime)
