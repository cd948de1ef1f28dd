"""Space-time Galerkin solver for the rescaled subdiffusion equation.

Spatial discretization uses the Dirichlet Legendre combinations
phi_k = c_k (L_k - L_{k+2}) on (-1, 1)^d, whose stiffness matrix is the
identity and whose mass matrix B is pentadiagonal with closed-form entries.
The coupled tensor system is decoupled by the symmetric eigendecomposition
of B into independent N x N time solves, one per spatial eigenmode, which
one real QZ of the time pencil makes block-triangular.
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
    QUAD_GUARD,
    _assemble,
    _load_matrix,
    _mass,
    _reference_points,
    _sampled_request,
    _stiffness,
    _time_load,
    require_finite,
)
from .orthopoly import JacobiIndex, TimeBasis, gjp_table, legendre_phi_table

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

# A mode is refused when cancellation leaves a pivot (or a 2 x 2 block's
# determinant) of its block-triangular system at most this fraction of its terms.
PIVOT_TOL = 1e-12
# Mode columns per back-substitution pass: bounds the stage's temporaries.
_CHUNK = 4096


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


def _spacetime_load(problem: PDEProblem, time_basis: TimeBasis, space_basis: SpatialBasis):
    """assemble_spacetime_load as a piece: its checks, its rule requests, its tensor from them."""
    d = problem.dimension
    transform = problem.transform
    rhs = problem.rhs
    space_request = (JacobiIndex(0.0, 0.0), space_basis.m_modes + QUAD_GUARD, (-1.0, 1.0))

    def weighted_phi(rule):
        return legendre_phi_table(space_basis.m_modes, rule.nodes) * rule.weights

    if isinstance(rhs, SeparableRHS):
        if len(rhs.space_factors) != d:
            raise DomainError("separable source needs one spatial factor per dimension")
        time_requests, time_points, time_load = _time_load(time_basis, transform, rhs.time_source)

        def build(block, rule, *time_rules):
            wphi = weighted_phi(rule)
            ft = time_load(block, *time_rules)
            vals = [np.asarray(Xf(rule.nodes), dtype=float) for Xf in rhs.space_factors]
            if not all(np.all(np.isfinite(v)) for v in vals):
                raise ValueError("space factor returned NaN or inf at a quadrature node")
            vecs = [wphi @ v for v in vals]
            return functools.reduce(np.multiply.outer, vecs, ft)

        def points(rule, *time_rules):
            return time_points(*time_rules)

        return [space_request, *time_requests], points, build

    # Generic callable f(x[, y], t): time load at every spatial node, then space.
    def points(rule, time_rule):
        return _reference_points(time_basis, time_rule)

    def build(block, rule, time_rule):
        nodes = rule.nodes
        ft = _load_matrix(
            time_basis, transform, lambda t: rhs(*np.ix_(*[nodes] * d, t)), block, time_rule
        )
        return _mode_product(ft, [weighted_phi(rule).T] * d)

    return [space_request, _sampled_request(time_basis, transform)], points, build


def assemble_spacetime_load(
    problem: PDEProblem, time_basis: TimeBasis, space_basis: SpatialBasis
) -> np.ndarray:
    """Load tensor f_{n,k[,l]} = (f, phi_k [phi_l] j_n) over the space-time cylinder."""
    return _assemble(time_basis, _spacetime_load(problem, time_basis, space_basis))[0]


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


def _schur_blocks(T: np.ndarray) -> list[tuple[int, int]]:
    """The (first, end) rows of each diagonal block of quasi-triangular T, top down.

    A 2 x 2 block sits wherever T[i+1, i] != 0; every other block is 1 x 1.
    """
    n = T.shape[0]
    blocks, i = [], 0
    while i < n:
        end = i + 2 if i + 1 < n and T[i + 1, i] != 0.0 else i + 1
        blocks.append((i, end))
        i = end
    return blocks


def _pivot_forms(T: np.ndarray, R: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Each block's pivot of mu T + c R, and its guard terms, as forms in (mu, c).

    Row b of P and of Pabs holds block b's coefficients of the monomials
    (mu, c, mu^2, mu c, c^2).  Against them P gives mu T_ii + c R_ii for a
    1 x 1 block and det(mu T_b + c R_b) for a 2 x 2 one, and Pabs, against
    the monomials' absolute values, |mu||T_ii| + |c||R_ii| or
    t_11 t_22 + t_12 t_21 with t_jk = |mu||T_jk| + |c||R_jk|.  R is
    upper-triangular, so R_21 = 0.
    """
    P, Pabs = np.zeros((len(blocks), 5)), np.zeros((len(blocks), 5))
    for b, (i, end) in enumerate(blocks):
        if end - i == 1:
            P[b, :2] = T[i, i], R[i, i]
            Pabs[b, :2] = abs(T[i, i]), abs(R[i, i])
            continue
        t11, t12, t21, t22 = T[i, i], T[i, i + 1], T[i + 1, i], T[i + 1, i + 1]
        r11, r12, r22 = R[i, i], R[i, i + 1], R[i + 1, i + 1]
        P[b, 2:] = t11 * t22 - t12 * t21, t11 * r22 + r11 * t22 - r12 * t21, r11 * r22
        t11, t12, t21, t22, r11, r12, r22 = map(abs, (t11, t12, t21, t22, r11, r12, r22))
        Pabs[b, 2:] = t11 * t22 + t12 * t21, t11 * r22 + r11 * t22 + r12 * t21, r11 * r22
    return P, Pabs


def _solve_modes(S: np.ndarray, M: np.ndarray, table: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """Solve (mu S + c M) w = fhat[:, mode] for every eigenmode; w has fhat's (N, K, ...) shape.

    Row m of table is the (mu, c) of the mode with flat index m.  One real
    QZ of the time pencil, S = Q T Z^T and M = Q R Z^T with T
    quasi-upper-triangular and R upper-triangular, makes every mode
    block-triangular: (mu T + c R) y = Q^T fhat and w = Z y (the generalized
    Schur method of Gardiner, Laub, Amato & Moler, ACM TOMS 1992).  The
    back-substitution runs bottom-up over T's 1 x 1 and 2 x 2 diagonal
    blocks, each solved in closed form (Cramer's rule for 2 x 2) and
    vectorised across _CHUNK mode columns at a time, followed by one
    refinement step on fhat - mu S w - c M w.

    A mode is refused when a 1 x 1 pivot |mu T_ii + c R_ii| is not above
    PIVOT_TOL (|mu||T_ii| + |c||R_ii|), or a 2 x 2 block's determinant
    |det(mu T_b + c R_b)| is not above PIVOT_TOL (t_11 t_22 + t_12 t_21) with
    t_jk = |mu||T_jk| + |c||R_jk|; the zero matrix and a NaN are refused.
    The first refused mode in flat order raises NumericalFailureError naming
    its lowest refused block, with index set to the mode's tuple.
    """
    shape = fhat.shape[1:]
    f = fhat.reshape(fhat.shape[0], -1)
    w = np.empty_like(f)
    T, R, Q, Z = qz(S, M, output="real")
    blocks = _schur_blocks(T)
    P, Pabs = _pivot_forms(T, R, blocks)
    # Per block, bottom up: the rows of T and R that couple it to the rows
    # below, stacked, and for a 2 x 2 block the (mu, c) coefficients of its
    # adjugate's entries (a_22, -a_12, -a_21, a_11).
    steps = []
    for i, end in reversed(blocks):
        adjugate = None
        if end - i == 2:
            j = i + 1
            adjugate = np.array(
                [[T[j, j], R[j, j]], [-T[i, j], -R[i, j]], [-T[j, i], 0.0], [T[i, i], R[i, i]]]
            )
        steps.append((i, end, np.concatenate([T[i:end, end:], R[i:end, end:]]), adjugate))

    def back_substitute(b, coefs, pivots, out):
        """Write Z y into out for (mu T + c R) y = Q^T b, y written over Q^T b block by block."""
        mu, c = coefs
        y = Q.T @ b
        for (i, end, coupling, adjugate), pivot in zip(steps, pivots[::-1]):
            below = coupling @ y[end:]
            rhs = y[i:end]
            rhs -= mu * below[: end - i] + c * below[end - i:]
            if adjugate is None:
                rhs /= pivot
            else:
                a = adjugate @ coefs
                r1, r2 = rhs / pivot
                rhs[0], rhs[1] = a[0] * r1 + a[1] * r2, a[2] * r1 + a[3] * r2
        np.matmul(Z, y, out=out)

    for lo in range(0, f.shape[1], _CHUNK):
        cols = slice(lo, lo + _CHUNK)
        coefs = np.ascontiguousarray(table[cols].T)
        mu, c = coefs
        monomials = np.stack([mu, c, mu * mu, mu * c, c * c])
        pivots = P @ monomials
        bounds = PIVOT_TOL * (Pabs @ np.abs(monomials))
        # Written so that a NaN pivot is refused too.
        refused = ~(np.abs(pivots) > bounds)
        if refused.any():
            m = int(np.argmax(refused.any(axis=0)))
            k = int(np.argmax(refused[:, m]))
            i, end = blocks[k]
            size, bound = abs(pivots[k, m]), bounds[k, m]
            if end - i == 1:
                message = (
                    f"pivot {i} |mu T_ii + c R_ii| = {size:.3e} is at most "
                    f"{PIVOT_TOL:.0e} * (|mu||T_ii| + |c||R_ii|) = {bound:.3e}"
                )
            else:
                message = (
                    f"pivot block {i}..{end - 1} |det(mu T_b + c R_b)| = {size:.3e} is at most "
                    f"{PIVOT_TOL:.0e} * (t_11 t_22 + t_12 t_21) = {bound:.3e} "
                    "with t_jk = |mu||T_jk| + |c||R_jk|"
                )
            raise NumericalFailureError(
                message, index=tuple(int(j) for j in np.unravel_index(lo + m, shape))
            )
        del bounds, refused  # freed before the solve's temporaries
        wc = w[:, cols]
        back_substitute(f[:, cols], coefs, pivots, out=wc)
        # fhat - mu S w - c M w, accumulated in place; its correction then
        # overwrites it.
        residual, term = S @ wc, M @ wc
        residual *= mu
        term *= c
        residual += term
        del term
        np.subtract(f[:, cols], residual, out=residual)
        back_substitute(residual, coefs, pivots, out=residual)
        wc += residual
    return w.reshape(fhat.shape)


def solve_spacetime(
    problem: PDEProblem, time_basis: TimeBasis, space_basis: SpatialBasis
) -> SpaceTimeSolution:
    """Decoupled eigenmode solve of the coupled space-time Galerkin system.

    With B = E Lam E^T, the transformed load column for spatial mode(s) with
    eigenvalue product mu and Laplacian factor nu satisfies the N x N system
    (mu S + (nu + mu) M) w = fhat; back-transforming recovers the tensor V.
    S, M and the load tensor are assembled from one batch of rules.
    """
    d = problem.dimension
    if space_basis.dimension != d:
        raise DomainError("spatial basis dimension disagrees with the problem")
    N = time_basis.n_modes
    where = f"delta={problem.delta.delta}, r={problem.transform.r}, N={N}, M={space_basis.m_modes}"
    try:
        S, M, F = _assemble(
            time_basis,
            _stiffness(time_basis, problem.delta, problem.transform, N + QUAD_GUARD),
            _mass(time_basis, problem.transform),
            _spacetime_load(problem, time_basis, space_basis),
        )
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
    # lap_i has B on every axis but i, so lap_{d-1} times B on the last axis
    # is VB, by the very products that B on every axis in turn would take.
    lap = np.zeros_like(V)
    for i in range(d):
        term = _mode_product(V, [None if j == i else B for j in range(d)])
        lap += term
    VB = _mode_product(term, [None] * (d - 1) + [B])
    del term
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
        # Written so that a NaN point is refused too.
        if not np.all(np.abs(x) <= 1.0 + 1e-12):
            raise DomainError("spatial points must lie in [-1, 1]")
    jt = gjp_table(sol.time_basis, sol.transform.psi_inverse(s))
    tables = [legendre_phi_table(sol.space_basis.m_modes, x) for x in xs]
    # Time first: the few evaluation times shrink V before the spatial products.
    values = _mode_product(np.tensordot(jt, sol.V, axes=(0, 0)), tables)
    return np.moveaxis(values, 0, -1)
