"""Space-time Galerkin solver for the rescaled subdiffusion equation.

Spatial discretization uses the Dirichlet Legendre combinations
phi_k = c_k (L_k - L_{k+2}) on (-1, 1)^d, whose stiffness matrix is the
identity and whose mass matrix B is pentadiagonal with closed-form entries.
The coupled tensor system is decoupled by the symmetric eigendecomposition
of B into independent N x N time solves, one per spatial eigenmode, which
one QZ of the time pencil makes triangular.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, qz

from .errors import DomainError, NumericalFailureError
from .frac_ops import FracOrder, PowerSum, TransformSpec
from .ode_solver import (
    assemble_mass,
    assemble_stiffness,
    assemble_time_load,
    require_finite,
)
from .orthopoly import JacobiIndex, TimeBasis, gauss_jacobi_rule, gjp_table, legendre_phi_table

__all__ = [
    "SpatialBasis",
    "SpaceTimeSolution",
    "PDEProblem",
    "SeparableRHS",
    "space_mass_matrix",
    "assemble_spacetime_load",
    "solve_spacetime",
    "evaluate_spacetime",
    "manufactured_sine_power",
]

# A mode is refused when cancellation leaves a pivot of its triangular system
# at most this fraction of the pivot's terms, |mu||T_ii| + |c||R_ii|.
PIVOT_TOL = 1e-12
# Mode columns per back-substitution pass: bounds the stage's complex temporaries.
_CHUNK = 1024


@dataclass(frozen=True)
class SpatialBasis:
    """Dirichlet Legendre basis of degree M per direction, d in {1, 2}."""

    m_modes: int
    dimension: int = 1

    def __post_init__(self):
        if self.m_modes < 2:
            raise DomainError(f"need polynomial degree >= 2, got {self.m_modes}")
        if self.dimension not in (1, 2):
            raise DomainError(f"dimension must be 1 or 2, got {self.dimension}")

    @property
    def n_funcs(self) -> int:
        return self.m_modes - 1


def space_mass_matrix(m_modes: int) -> np.ndarray:
    """Closed-form mass matrix b_jk = (phi_k, phi_j); nonzero for |j-k| in {0,2}."""
    if m_modes < 2:
        raise DomainError(f"need polynomial degree >= 2, got {m_modes}")
    n = m_modes - 1
    k = np.arange(n, dtype=float)
    c = 1.0 / np.sqrt(4.0 * k + 6.0)
    B = np.zeros((n, n))
    B[np.diag_indices(n)] = c * c * (2.0 / (2.0 * k + 1.0) + 2.0 / (2.0 * k + 5.0))
    j = np.arange(n - 2, dtype=float)
    off = -c[:-2] * c[2:] * 2.0 / (2.0 * (j + 2.0) + 1.0)
    B[j.astype(int), j.astype(int) + 2] = off
    B[j.astype(int) + 2, j.astype(int)] = off
    return B


@dataclass(frozen=True)
class SeparableRHS:
    """Source of the form f(x[, y], t) = prod_i X_i(x_i) * T(t).

    The time factor is in the format of assemble_time_load: a callable of t,
    or a tuple of (coef, power) monomials in t, loaded exactly by per-power
    Gauss-Jacobi rules.
    """

    space_factors: tuple
    time_source: object

    def __post_init__(self):
        src = self.time_source
        pairs = isinstance(src, tuple) and all(isinstance(t, tuple) and len(t) == 2 for t in src)
        if not (callable(src) or pairs):
            raise DomainError("time_source must be a callable or a tuple of (coef, power) pairs")


@dataclass(frozen=True)
class PDEProblem:
    """Rescaled subdiffusion problem on (-1,1)^d with homogeneous data.

    The reaction coefficient is fixed at one: the operator is
    D^{delta,psi} v - Lap(v) + v = f.
    """

    delta: FracOrder
    transform: TransformSpec
    rhs: object
    dimension: int = 1

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise DomainError(f"dimension must be 1 or 2, got {self.dimension}")


def manufactured_sine_power(delta, transform: TransformSpec, sigma: float, dimension: int = 2):
    """Problem with exact solution prod_i sin(pi x_i) * s^sigma, plus that solution.

    The source is sin-product times [D^delta s^sigma + (d pi^2 + 1) s^sigma],
    expressed in t-monomials so the load integrates exactly in time.
    """
    delta = delta if isinstance(delta, FracOrder) else FracOrder(delta)
    if not sigma > 0:
        raise DomainError(f"power exponent must be positive, got {sigma}")
    reaction = dimension * math.pi**2 + 1.0
    time_source = PowerSum(((1.0, sigma),)).source_terms(delta, reaction, transform.r)
    factors = tuple(lambda x: np.sin(math.pi * np.asarray(x, dtype=float)) for _ in range(dimension))
    rhs = SeparableRHS(factors, time_source)
    problem = PDEProblem(delta, transform, rhs, dimension)

    def exact(*grids):
        *xs, s = [np.atleast_1d(np.asarray(g, dtype=float)) for g in grids]
        out = s**sigma
        for x in reversed(xs):
            out = np.multiply.outer(np.sin(math.pi * x), out)
        return out

    return problem, exact


@dataclass(frozen=True)
class SpaceTimeSolution:
    """Coefficient tensor over (time modes) x (space modes per direction)."""

    V: np.ndarray
    time_basis: TimeBasis
    space_basis: SpatialBasis
    transform: TransformSpec
    residual: float = 0.0

    def evaluate(self, *grids):
        return evaluate_spacetime(self, *grids)


def _mode_product(T: np.ndarray, mats) -> np.ndarray:
    """Contract spatial axis i of T (axis i + 1) with the first index of mats[i].

    None leaves that axis alone.  Axis 0 of T is time and is never touched.
    Each contraction is one matmul over T viewed as (before, axis, after), so
    the result stays C-contiguous and no axis is moved.
    """
    for i, mat in enumerate(mats):
        if mat is not None:
            shape = T.shape
            before, after = shape[: i + 1], shape[i + 2:]
            if after:
                T = mat.T @ T.reshape(math.prod(before), shape[i + 1], -1)
            else:
                T = T.reshape(-1, shape[i + 1]) @ mat
            T = T.reshape(before + mat.shape[1:] + after)
    return T


def assemble_spacetime_load(
    problem: PDEProblem,
    time_basis: TimeBasis,
    space_basis: SpatialBasis,
    quad_guard: int = 8,
) -> np.ndarray:
    """Load tensor f_{n,k[,l]} = (f, phi_k [phi_l] j_n) over the space-time cylinder."""
    d = problem.dimension
    rule = gauss_jacobi_rule(JacobiIndex(0.0, 0.0), space_basis.m_modes + quad_guard, (-1.0, 1.0))
    wphi = legendre_phi_table(space_basis.m_modes, rule.nodes) * rule.weights

    if isinstance(problem.rhs, SeparableRHS):
        rhs = problem.rhs
        if len(rhs.space_factors) != d:
            raise DomainError("separable source needs one spatial factor per dimension")
        ft = assemble_time_load(time_basis, problem.transform, rhs.time_source, quad_guard)
        vals = [np.asarray(Xf(rule.nodes), dtype=float) for Xf in rhs.space_factors]
        if not all(np.all(np.isfinite(v)) for v in vals):
            raise ValueError("space factor returned NaN or inf at a quadrature node")
        vecs = [wphi @ v for v in vals]
        return functools.reduce(np.multiply.outer, vecs, ft)

    # Generic callable f(x[, y], t): time load at every spatial node, then space.
    nodes, rhs = rule.nodes, problem.rhs
    ft = assemble_time_load(
        time_basis, problem.transform, lambda t: rhs(*np.ix_(*[nodes] * d, t)), quad_guard
    )
    return _mode_product(ft, [wphi.T] * d)


def _mode_table(lam: np.ndarray, d: int) -> np.ndarray:
    """The (K^d, 2) mode-coefficient table of every eigenmode.

    Eigenmode (i_1, ..., i_d) has mu = prod_i lam_i and nu = sum_i prod_{j != i} lam_j;
    row m of the table is (mu, nu + mu) of the mode with flat index m.
    """
    lams = np.meshgrid(*[lam] * d, indexing="ij")
    ones = np.ones_like(lams[0])
    mu = math.prod(lams, start=ones)
    nu = sum(math.prod(lams[:i] + lams[i + 1:], start=ones) for i in range(d))
    return np.stack([mu.ravel(), (nu + mu).ravel()], axis=-1)


def _solve_modes(S: np.ndarray, M: np.ndarray, table: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """Solve (mu S + c M) w = fhat[:, mode] for every eigenmode; w has fhat's (N, K, ...) shape.

    Row m of table is the (mu, c) of the mode with flat index m.  One complex
    QZ of the time pencil, S = Q T Z^H and M = Q R Z^H, makes every mode
    triangular: (mu T + c R) y = Q^H fhat and w = Re(Z y) (the generalized
    Schur method of Gardiner, Laub, Amato & Moler, ACM TOMS 1992).  The
    back-substitution runs over the N rows, each row step vectorised across
    _CHUNK mode columns at a time, followed by one refinement step on
    fhat - mu S w - c M w.  A mode whose pivot |mu T_ii + c R_ii| is not above
    PIVOT_TOL (|mu||T_ii| + |c||R_ii|), the zero matrix or a NaN included,
    is refused: the first in flat order raises NumericalFailureError with
    index set to the mode's tuple.
    """
    shape = fhat.shape[1:]
    f = fhat.reshape(fhat.shape[0], -1)
    w = np.empty_like(f)
    T, R, Q, Z = qz(S, M, output="complex")
    TR = np.stack([T, R])
    # Q^H as its real and imaginary parts: two real products are faster than
    # one complex product with a real right-hand side.
    QHre, QHim = Q.real.T.copy(), -Q.imag.T
    diag = np.stack([np.diagonal(T), np.diagonal(R)], axis=-1)

    def back_substitute(b, coefs, pivots):
        """Re(Z y) for (mu T + c R) y = Q^H b, y written over Q^H b row by row."""
        y = np.empty(b.shape, dtype=complex)
        y.real, y.imag = QHre @ b, QHim @ b
        for i in reversed(range(y.shape[0])):
            below = TR[:, i, i + 1:] @ y[i + 1:]
            y[i] -= coefs[0] * below[0] + coefs[1] * below[1]
            y[i] /= pivots[i]
        return (Z @ y).real

    for lo in range(0, f.shape[1], _CHUNK):
        cols = slice(lo, lo + _CHUNK)
        coefs = table[cols].T
        pivots = diag @ coefs
        # Written so that a NaN pivot is refused too.
        refused = ~(np.abs(pivots) > PIVOT_TOL * (np.abs(diag) @ np.abs(coefs)))
        if refused.any():
            m = int(np.argmax(refused.any(axis=0)))
            i = int(np.argmax(refused[:, m]))
            bound = PIVOT_TOL * (np.abs(diag[i]) @ np.abs(coefs[:, m]))
            raise NumericalFailureError(
                f"pivot {i} |mu T_ii + c R_ii| = {abs(pivots[i, m]):.3e} is at most "
                f"{PIVOT_TOL:.0e} * (|mu||T_ii| + |c||R_ii|) = {bound:.3e}",
                index=tuple(int(k) for k in np.unravel_index(lo + m, shape)),
            )
        wc = w[:, cols]
        wc[...] = back_substitute(f[:, cols], coefs, pivots)
        residual = f[:, cols] - coefs[0] * (S @ wc) - coefs[1] * (M @ wc)
        wc += back_substitute(residual, coefs, pivots)
    return w.reshape(fhat.shape)


def solve_spacetime(
    problem: PDEProblem,
    time_basis: TimeBasis,
    space_basis: SpatialBasis,
    quad_guard: int = 8,
) -> SpaceTimeSolution:
    """Decoupled eigenmode solve of the coupled space-time Galerkin system.

    With B = E Lam E^T, the transformed load column for spatial mode(s) with
    eigenvalue product mu and Laplacian factor nu satisfies the N x N system
    (mu S + (nu + mu) M) w = fhat; back-transforming recovers the tensor V.
    """
    d = problem.dimension
    if space_basis.dimension != d:
        raise DomainError("spatial basis dimension disagrees with the problem")
    N = time_basis.n_modes
    where = f"delta={problem.delta.delta}, r={problem.transform.r}, N={N}, M={space_basis.m_modes}"
    try:
        S = assemble_stiffness(time_basis, problem.delta, problem.transform, N + quad_guard)
        M = assemble_mass(time_basis, problem.transform)
        F = assemble_spacetime_load(problem, time_basis, space_basis, quad_guard)
        require_finite(stiffness=S, mass=M)
    except NumericalFailureError as exc:
        raise NumericalFailureError(
            f"assembly failed ({where}): {exc}", estimate=exc.estimate
        ) from exc
    B = space_mass_matrix(space_basis.m_modes)
    try:
        lam, E = eigh(B)
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericalFailureError(f"eigendecomposition of B failed ({where}): {exc}") from exc
    defect = np.max(np.abs(E.T @ E - np.eye(E.shape[0])))
    if defect > 1e-12:
        raise NumericalFailureError(f"eigenvector orthonormality defect {defect:.3e} ({where})")
    if lam.min() <= 0:
        raise NumericalFailureError(f"spatial mass matrix lost positive definiteness ({where})")

    fhat = _mode_product(F, [E] * d)
    try:
        vhat = _solve_modes(S, M, _mode_table(lam, d), fhat)
    except NumericalFailureError as exc:
        raise NumericalFailureError(
            f"eigenmode solve failed at mode {exc.index} ({where}): {exc}",
            estimate=exc.estimate,
            index=exc.index,
        ) from exc
    V = _mode_product(vhat, [E.T] * d)
    del fhat, vhat  # dead from here on; freed before the residual's temporaries
    # Operator: S x B^d + M x (sum_i B^d with identity on axis i) + M x B^d.
    # Accumulated in place, in the order of S VB + M ((lap_0 + lap_1 + ...) + VB) - F.
    VB = _mode_product(V, [B] * d)
    lap = np.zeros_like(V)
    for i in range(d):
        lap += _mode_product(V, [None if j == i else B for j in range(d)])
    lap += VB
    resid_tensor = np.tensordot(S, VB, axes=1)
    resid_tensor += np.tensordot(M, lap, axes=1)
    resid_tensor -= F
    f_scale = np.max(np.abs(F))
    residual = float(np.max(np.abs(resid_tensor)))
    # Written so that a NaN residual or load is refused too.
    if not residual <= 1e-10 * f_scale:
        raise NumericalFailureError(
            f"tensor residual {residual:.3e} exceeds 1e-10 * |F| = {1e-10 * f_scale:.3e} ({where})"
        )
    return SpaceTimeSolution(V, time_basis, space_basis, problem.transform, residual)


def evaluate_spacetime(sol: SpaceTimeSolution, *grids) -> np.ndarray:
    """Evaluate on a tensor grid: (x_points[, y_points], s_points) -> value grid.

    Initial and boundary values vanish structurally: the basis factors are
    exactly zero there in floating point.
    """
    d = sol.space_basis.dimension
    if len(grids) != d + 1:
        raise DomainError(f"expected {d + 1} point arrays, got {len(grids)}")
    *xs, s = [np.atleast_1d(np.asarray(g, dtype=float)) for g in grids]
    for x in xs:
        if np.any(np.abs(x) > 1.0 + 1e-12):
            raise DomainError("spatial points must lie in [-1, 1]")
    jt = gjp_table(sol.time_basis, sol.transform.psi_inverse(s))
    tables = [legendre_phi_table(sol.space_basis.m_modes, x) for x in xs]
    # Time first: the few evaluation times shrink V before the spatial products.
    values = _mode_product(np.tensordot(jt, sol.V, axes=(0, 0)), tables)
    return np.moveaxis(values, 0, -1)
