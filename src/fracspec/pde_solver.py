"""Space-time Galerkin solver for the rescaled subdiffusion equation.

Spatial discretization uses the Dirichlet Legendre combinations
phi_k = c_k (L_k - L_{k+2}) on (-1, 1)^d, whose stiffness matrix is the
identity and whose mass matrix B is pentadiagonal with closed-form entries.
The eigendecomposition of B splits the tensor system into N x N time solves,
one per spatial eigenmode, made block-triangular by one real QZ of the time
pencil; one assembly serves every (N, M) up to its sizes (solve_spacetime_nested).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh, qz

from .errors import DomainError, NumericalFailureError
from .frac_ops import FracOrder, PowerSum, TransformSpec
from .ode_solver import (
    QUAD_GUARD,
    _assemble,
    _assemble_system,
    _check_time_source,
    _load_matrix,
    _sampled_request,
    _time_load,
)
from .orthopoly import JacobiIndex, TimeBasis, gjp_table, legendre_phi_table

__all__ = [
    "SpatialBasis",
    "SpaceTimeSolution",
    "PDEProblem",
    "SeparableRHS",
    "space_mass_matrix",
    "assemble_spacetime_load",
    "solve_spacetime_nested",
    "solve_spacetime",
    "evaluate_spacetime",
    "manufactured_sine_power",
]

# A mode is refused when cancellation leaves a pivot (or a 2 x 2 block's
# determinant) of its block-triangular system at most this fraction of its terms.
PIVOT_TOL = 1e-12
# Mode columns per back-substitution pass.  It bounds the back end's scratch:
# the mode stage works in N x _CHUNK blocks, and the stages over time rows in
# blocks of as many entries (_row_blocks).  1536 is about the fewest that keep
# all 39^2 modes of M = 40 in one chunk; at (N, M) = (40, 60) a warm solve
# then peaks at 3.7 N x K^2 tensors, against 4.1 at 2048, at about the same speed.
_CHUNK = 1536


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
        _check_time_source(self.time_source)


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
        if not (isinstance(self.rhs, SeparableRHS) or callable(self.rhs)):
            raise DomainError("rhs must be a SeparableRHS or a callable f(x[, y], t)")
        if isinstance(self.rhs, SeparableRHS) and len(self.rhs.space_factors) != self.dimension:
            raise DomainError("separable source needs one spatial factor per dimension")


def manufactured_sine_power(delta, transform: TransformSpec, sigma: float, dimension: int = 2):
    """Problem with exact solution prod_i sin(pi x_i) * s^sigma, plus that solution.

    The source is sin-product times [D^delta s^sigma + (d pi^2 + 1) s^sigma],
    expressed in t-monomials so the load integrates exactly in time.
    """
    delta = delta if isinstance(delta, FracOrder) else FracOrder(delta)
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


def _mode_product(T: np.ndarray, mats, out: np.ndarray | None = None) -> np.ndarray:
    """Contract spatial axis i of T (axis i + 1) with the first index of mats[i].

    None leaves that axis alone.  Axis 0 of T is time and is never touched.
    Each contraction is one matmul over T viewed as (before, axis, after), so
    the result stays C-contiguous and no axis is moved.  The last contraction
    writes into out, a C-contiguous array of the result's shape, when one is
    given; out may be T itself.
    """
    last = max((i for i, mat in enumerate(mats) if mat is not None), default=None)
    for i, mat in enumerate(mats):
        if mat is not None:
            shape = T.shape
            before, after = shape[: i + 1], shape[i + 2:]
            if after:
                operands = mat.T, T.reshape(math.prod(before), shape[i + 1], -1)
                flat = (math.prod(before), mat.shape[1], -1)
            else:
                operands = T.reshape(-1, shape[i + 1]), mat
                flat = (-1, mat.shape[1])
            dest = out.reshape(flat) if out is not None and i == last else None
            T = np.matmul(*operands, out=dest).reshape(before + mat.shape[1:] + after)
    return T


def _row_blocks(T: np.ndarray) -> list[slice]:
    """Slices of at most max(1, N * _CHUNK // K^d) consecutive time rows (axis 0) of T.

    A block of them holds about as many entries as one N x _CHUNK mode block.
    """
    n = T.shape[0]
    step = max(1, n * _CHUNK // math.prod(T.shape[1:]))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _spacetime_load(problem: PDEProblem, time_basis: TimeBasis, space_basis: SpatialBasis):
    """assemble_spacetime_load as a piece: its checks, its rule requests, its tensor from them."""
    d = problem.dimension
    transform = problem.transform
    rhs = problem.rhs
    space_request = (JacobiIndex(0.0, 0.0), space_basis.m_modes + QUAD_GUARD, (-1.0, 1.0))

    def weighted_phi(rule):
        return legendre_phi_table(space_basis.m_modes, rule.nodes) * rule.weights

    if isinstance(rhs, SeparableRHS):
        time_requests, time_load = _time_load(time_basis, transform, rhs.time_source)

        def build(space, *time_samples):
            rule, _ = space
            wphi = weighted_phi(rule)
            ft = time_load(*time_samples)
            vals = [np.asarray(Xf(rule.nodes), dtype=float) for Xf in rhs.space_factors]
            if not all(np.all(np.isfinite(v)) for v in vals):
                raise ValueError("space factor returned NaN or inf at a quadrature node")
            vecs = [wphi @ v for v in vals]
            return functools.reduce(np.multiply.outer, vecs, ft)

        return [space_request, *time_requests], build

    # Generic callable f(x[, y], t): time load at every spatial node, then space.
    def build(space, time_sample):
        rule, _ = space
        nodes = rule.nodes
        ft = _load_matrix(transform, lambda t: rhs(*np.ix_(*[nodes] * d, t)), time_sample)
        return _mode_product(ft, [weighted_phi(rule).T] * d)

    return [space_request, _sampled_request(time_basis, transform)], build


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
    """Solve (mu S + c M) w = fhat[:, mode] for every eigenmode, writing w over fhat.

    w is written over fhat, an (N, K, ...) array (over a copy of it if fhat
    is not C-contiguous), and returned in fhat's shape.
    Row m of table is the (mu, c) of the mode with flat index m.  One real
    QZ of the time pencil, S = Q T Z^T and M = Q R Z^T with T
    quasi-upper-triangular and R upper-triangular, makes every mode
    block-triangular: (mu T + c R) y = Q^T fhat and w = Z y (the generalized
    Schur method of Gardiner, Laub, Amato & Moler, ACM TOMS 1992).  The
    back-substitution runs bottom-up over T's 1 x 1 and 2 x 2 diagonal
    blocks, each solved in closed form (Cramer's rule for 2 x 2) and
    vectorised across _CHUNK mode columns at a time, followed by one
    refinement step on fhat - mu S w - c M w.  A chunk works in two
    N x _CHUNK scratch blocks, and its residual and then its answer are
    written over its columns of fhat.

    A mode is refused when a 1 x 1 pivot |mu T_ii + c R_ii| is not above
    PIVOT_TOL (|mu||T_ii| + |c||R_ii|), or a 2 x 2 block's determinant
    |det(mu T_b + c R_b)| is not above PIVOT_TOL (t_11 t_22 + t_12 t_21) with
    t_jk = |mu||T_jk| + |c||R_jk|; the zero matrix and a NaN are refused.
    The first refused mode in flat order raises NumericalFailureError naming
    its lowest refused block, with index set to the mode's tuple; the chunks
    before it already hold their answers.
    """
    shape = fhat.shape[1:]
    f = fhat.reshape(fhat.shape[0], -1)
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

    def back_substitute(b, coefs, pivots, y, out):
        """Write Z y into out for (mu T + c R) y = Q^T b, y written over Q^T b block by block."""
        mu, c = coefs
        np.matmul(Q.T, b, out=y)
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

    scratch = np.empty((2, f.shape[0], min(_CHUNK, f.shape[1])))
    for lo in range(0, f.shape[1], _CHUNK):
        fc = f[:, lo:lo + _CHUNK]
        y, w = scratch[:, :, : fc.shape[1]]
        coefs = np.ascontiguousarray(table[lo:lo + _CHUNK].T)
        mu, c = coefs
        monomials = np.stack([mu, c, mu * mu, mu * c, c * c])
        pivots = P @ monomials
        # The guard's bounds and pivot sizes are taken in the scratch blocks,
        # which the solve overwrites; it is written so that a NaN pivot is
        # refused too.
        bounds = np.matmul(Pabs, np.abs(monomials), out=y[: len(blocks)])
        bounds *= PIVOT_TOL
        refused = ~(np.abs(pivots, out=w[: len(blocks)]) > bounds)
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
        back_substitute(fc, coefs, pivots, y, out=w)
        # fhat - mu S w - c M w, taken in place over fhat's columns; its
        # correction then overwrites them, and w is added.
        np.matmul(S, w, out=y)
        y *= mu
        fc -= y
        np.matmul(M, w, out=y)
        y *= c
        fc -= y
        back_substitute(fc, coefs, pivots, y, out=fc)
        fc += w
    return f.reshape(fhat.shape)


def solve_spacetime_nested(
    problem: PDEProblem, time_basis: TimeBasis, space_basis: SpatialBasis, pairs
):
    """Solutions at every (N, M) in `pairs`, in order, from one assembly at the bases' sizes.

    The system at (n, m) is the leading block S[:n, :n], M[:n, :n], F[:n, :m-1, ...],
    B[:m-1, :m-1].  With B = E Lam E^T, a spatial mode with eigenvalue product mu and
    Laplacian factor nu solves (mu S + (nu + mu) M) w = fhat; back-transforming gives V.
    A refused block names its own (N, M).  Pairs outside 1..N x 2..M raise DomainError
    here, before any rule is built.
    """
    if space_basis.dimension != problem.dimension:
        raise DomainError("spatial basis dimension disagrees with the problem")
    n_max, m_max = time_basis.n_modes, space_basis.m_modes
    pairs = tuple(pairs)
    outside = [(n, m) for n, m in pairs if not (1 <= n <= n_max and 2 <= m <= m_max)]
    if outside:
        raise DomainError(f"(N, M) pairs must lie in 1..{n_max} x 2..{m_max}, got {outside}")
    return _spacetime_blocks(problem, time_basis, space_basis, pairs)


def _spacetime_blocks(problem, time_basis, space_basis, pairs):
    """solve_spacetime_nested's generator, its arguments checked."""
    d, setting = problem.dimension, f"delta={problem.delta.delta}, r={problem.transform.r}"
    load = _spacetime_load(problem, time_basis, space_basis)
    where = f"{setting}, N={time_basis.n_modes}, M={space_basis.m_modes}"
    system = _assemble_system(time_basis, problem.delta, problem.transform, load, where)
    for n, m in pairs:
        where = f"{setting}, N={n}, M={m}"
        S, M = system[0][:n, :n], system[1][:n, :n]
        # At the bases' sizes this block is F itself, not a copy.
        F = np.ascontiguousarray(system[2][(slice(n),) + (slice(m - 1),) * d])
        B = space_mass_matrix(m)
        try:
            lam, E = eigh(B)
        except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
            raise NumericalFailureError(f"eigendecomposition of B failed ({where}): {exc}") from exc
        defect = np.max(np.abs(E.T @ E - np.eye(E.shape[0])))
        if defect > 1e-12:
            raise NumericalFailureError(f"eigenvector orthonormality defect {defect:.3e} ({where})")
        if lam.min() <= 0:
            raise NumericalFailureError(f"spatial mass matrix lost positive definiteness ({where})")

        f_scale = np.max(np.abs(F))  # before the coefficient tensor exists: |F| is no third tensor
        # One coefficient tensor beside F: fhat, then w written over it by the
        # mode stage, then V over w, each stage over blocks of time rows or of
        # mode columns.
        fhat = np.empty_like(F)
        blocks = _row_blocks(F)
        for rows in blocks:
            _mode_product(F[rows], [E] * d, out=fhat[rows])
        try:
            V = _solve_modes(S, M, _mode_table(lam, d), fhat)
        except NumericalFailureError as exc:
            raise exc.prefixed(f"eigenmode solve failed at mode {exc.index} ({where})") from exc
        for rows in blocks:
            _mode_product(V[rows], [E.T] * d, out=V[rows])
        # Operator: S x B^d + M x (sum_i B^d with identity on axis i) + M x B^d,
        # over blocks of time rows.  With X = S[rows] V, Y = M[rows] V and B_i
        # for B on spatial axis i, it is nested from the last axis out:
        # G_d = X + Y and G_i = B_i G_{i+1} + B_{i+1} ... B_{d-1} Y, so in 2-d
        # B((X + Y) B + Y) + Y B.  The running max is np.maximum, so a NaN in
        # any block is kept and refused.
        flat = V.reshape(n, -1)
        residual = 0.0
        for rows in blocks:
            G = (S[rows] @ flat).reshape(F[rows].shape)
            Y = (M[rows] @ flat).reshape(G.shape)
            G += Y
            for i in reversed(range(d)):
                G = _mode_product(G, [None] * i + [B] + [None] * (d - 1 - i))
                if i < d - 1:
                    Y = _mode_product(Y, [None] * (i + 1) + [B] + [None] * (d - 2 - i))
                G += Y
            G -= F[rows]
            residual = np.maximum(residual, np.max(np.abs(G, out=G)))
        residual = float(residual)
        # Written so that a NaN residual or load is refused too.
        if not residual <= 1e-10 * f_scale:
            raise NumericalFailureError(
                f"tensor residual {residual:.3e} exceeds 1e-10 * |F| = "
                f"{1e-10 * f_scale:.3e} ({where})"
            )
        bases = replace(time_basis, n_modes=n), replace(space_basis, m_modes=m)
        yield SpaceTimeSolution(V, *bases, problem.transform, residual)


def solve_spacetime(problem: PDEProblem, time_basis: TimeBasis, space_basis: SpatialBasis):
    """The eigenmode solve of the space-time system: solve_spacetime_nested's one-pair case."""
    pair = (time_basis.n_modes, space_basis.m_modes)
    return next(solve_spacetime_nested(problem, time_basis, space_basis, (pair,)))


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
