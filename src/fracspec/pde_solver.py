"""Space-time Galerkin solver for the rescaled subdiffusion equation.

Spatial discretization uses the Dirichlet Legendre combinations
phi_k = c_k (L_k - L_{k+2}) on (-1, 1)^d, whose stiffness matrix is the
identity and whose mass matrix B is pentadiagonal with closed-form entries.
The eigendecomposition of B splits the tensor system into one scalar time
problem of rate sigma per spatial eigenmode, all made block-triangular by one
real QZ of the time pencil; one assembly serves every (N, M) up to its sizes
(solve_spacetime_nested).  A solution is ode_solver's Solution with d spatial
axes, evaluated by ode_solver.evaluate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh, qz

from . import orthopoly
from .errors import DomainError, NumericalFailureError
from .frac_ops import FracOrder, PowerSum, TransformSpec
from .ode_solver import (
    QUAD_GUARD,
    Solution,
    _assemble,
    _assemble_system,
    _check_time_source,
    _load_matrix,
    _mode_product,
    _sampled_request,
    _time_load,
    evaluate,
)
from .orthopoly import JacobiIndex, TimeBasis, legendre_phi_table

__all__ = [
    "SpatialBasis",
    "PDEProblem",
    "SeparableRHS",
    "space_mass_matrix",
    "assemble_spacetime_load",
    "solve_spacetime_nested",
    "solve_spacetime",
    "manufactured_sine_power",
]

# No caller: 2-d solutions evaluate through ode_solver.evaluate.  Kept for perfbench/spans.py.
evaluate_spacetime = evaluate
# No caller: ode_solver builds the evaluation tables.  Kept for perfbench/spans.py.
gjp_table = orthopoly.gjp_table

# A mode is refused when cancellation leaves a pivot (or a 2 x 2 block's
# determinant) of its block-triangular system at most this fraction of its terms.
PIVOT_TOL = 1e-12
# Mode columns per back-substitution pass.  It bounds the back end's scratch:
# the mode stage works in N x _CHUNK blocks, and the stages over time rows in
# blocks of as many entries (_row_blocks).  1536 is about the fewest that keep
# all 39^2 modes of M = 40 in one chunk; at (N, M) = (40, 60) a warm solve
# then peaks at 4.2 N x K^2 tensors, against 4.9 at 2048, at about the same speed.
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
    D^{delta,psi} v - Lap(v) + v = f.  A problem holds the source its solve
    reads, so dataclasses.replace of delta or transform keeps the old rhs:
    change them through manufactured_sine_power or a new rhs.
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
    """The rate sigma = 1 + sum_i 1/lam_i of every eigenmode (i_1, ..., i_d), in flat order."""
    return 1.0 + functools.reduce(np.add.outer, [1.0 / lam] * d).ravel()


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


def _solve_modes(S: np.ndarray, M: np.ndarray, rates: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Solve (S + sigma M) w = f[:, mode] for every eigenmode, writing w over f.

    w is written over f, an (N, K, ...) array (over a copy of it if f is not
    C-contiguous), and returned in f's shape.  rates[m] is the sigma of the
    mode with flat index m.  One real QZ of the time pencil, S = Q T Z^T and
    M = Q R Z^T with T quasi-upper-triangular and R upper-triangular, makes
    every mode block-triangular: (T + sigma R) y = Q^T f and w = Z y (the
    generalized Schur method of Gardiner, Laub, Amato & Moler, ACM TOMS 1992).
    The back-substitution runs bottom-up over T's 1 x 1 and 2 x 2 diagonal
    blocks, each solved in closed form (Cramer's rule for 2 x 2) and
    vectorised across _CHUNK mode columns at a time, followed by one
    refinement step on f - S w - sigma M w.  A chunk works in two N x _CHUNK
    scratch blocks, and its residual and then its answer are written over
    its columns of f.

    A mode is refused when a 1 x 1 pivot |T_ii + sigma R_ii| is not above
    PIVOT_TOL (|T_ii| + |sigma||R_ii|), or a 2 x 2 block's determinant
    |det(T_b + sigma R_b)| is not above PIVOT_TOL (t_11 t_22 + t_12 t_21) with
    t_jk = |T_jk| + |sigma||R_jk|; a pivot, determinant or bound that is NaN or
    infinite is refused as not finite.  The first refused mode
    in flat order raises NumericalFailureError naming its lowest refused
    block, with index set to the mode's tuple; the chunks before it already
    hold their answers.
    """
    shape = f.shape[1:]
    flat = f.reshape(f.shape[0], -1)
    T, R, Q, Z = qz(S, M, output="real")
    blocks = _schur_blocks(T)
    # One bottom-up pass gives block b its rows of T and R coupling it to the
    # rows below, stacked; rows b of P and Pabs, its pivot and guard terms
    # above as forms in (1, sigma, sigma^2), Pabs against their absolute
    # values; and, if 2 x 2, its adjugate (a_22, -a_12, -a_21, a_11) in (1, sigma).
    P, Pabs, steps = np.zeros((len(blocks), 3)), np.zeros((len(blocks), 3)), []
    for b, (i, end) in reversed(list(enumerate(blocks))):
        adjugate = None
        if end - i == 1:
            P[b, :2] = T[i, i], R[i, i]
            Pabs[b, :2] = abs(T[i, i]), abs(R[i, i])
        else:
            t11, t12, t21, t22 = T[i, i], T[i, i + 1], T[i + 1, i], T[i + 1, i + 1]
            r11, r12, r22 = R[i, i], R[i, i + 1], R[i + 1, i + 1]
            adjugate = np.array([[t22, r22], [-t12, -r12], [-t21, 0.0], [t11, r11]])
            P[b] = t11 * t22 - t12 * t21, t11 * r22 + r11 * t22 - r12 * t21, r11 * r22
            t11, t12, t21, t22, r11, r12, r22 = map(abs, (t11, t12, t21, t22, r11, r12, r22))
            Pabs[b] = t11 * t22 + t12 * t21, t11 * r22 + r11 * t22 + r12 * t21, r11 * r22
        steps.append((b, i, end, np.concatenate([T[i:end, end:], R[i:end, end:]]), adjugate))

    def back_substitute(b, sigma, solvers, y, out):
        """Write Z y into out for (T + sigma R) y = Q^T b, y written over Q^T b block by block."""
        np.matmul(Q.T, b, out=y)
        for i, end, coupling, pivot, a in solvers:
            below = coupling @ y[end:]
            rhs = y[i:end]
            rhs -= below[: end - i] + sigma * below[end - i:]
            if a is None:
                rhs /= pivot
            else:
                r1, r2 = rhs / pivot
                rhs[0], rhs[1] = a[0] * r1 + a[1] * r2, a[2] * r1 + a[3] * r2
        np.matmul(Z, y, out=out)

    scratch = np.empty((2, flat.shape[0], min(_CHUNK, flat.shape[1])))
    for lo in range(0, flat.shape[1], _CHUNK):
        fc = flat[:, lo:lo + _CHUNK]
        y, w = scratch[:, :, : fc.shape[1]]
        sigma = rates[lo:lo + _CHUNK]
        monomials = np.stack([np.ones_like(sigma), sigma, sigma * sigma])
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
            pivot, terms, suffix = f"pivot {i} |T_ii + sigma R_ii|", "(|T_ii| + |sigma||R_ii|)", ""
            if end - i == 2:
                pivot = f"pivot block {i}..{end - 1} |det(T_b + sigma R_b)|"
                terms, suffix = "(t_11 t_22 + t_12 t_21)", " with t_jk = |T_jk| + |sigma||R_jk|"
            bound_text = f"{PIVOT_TOL:.0e} * {terms} = {bound:.3e}{suffix}"
            if not math.isfinite(size):
                message = f"{pivot} = {size:.3e} is not finite"
            elif not math.isfinite(bound):
                message = f"the bound of {pivot}, {bound_text}, is not finite"
            else:
                message = f"{pivot} = {size:.3e} is at most {bound_text}"
            raise NumericalFailureError(
                message, index=tuple(int(j) for j in np.unravel_index(lo + m, shape))
            )
        # Each block's pivot and adjugate entries, for both back-substitutions.
        solvers = [
            (i, end, coupling, pivots[b], None if adjugate is None else adjugate @ monomials[:2])
            for b, i, end, coupling, adjugate in steps
        ]
        back_substitute(fc, sigma, solvers, y, out=w)
        # f - S w - sigma M w, taken in place over f's columns; its
        # correction then overwrites them, and w is added.
        fc -= np.matmul(S, w, out=y)
        np.matmul(M, w, out=y)
        y *= sigma
        fc -= y
        back_substitute(fc, sigma, solvers, y, out=fc)
        fc += w
        del solvers  # up to 2 N x _CHUNK entries, so freed before the next chunk's
    return flat.reshape(f.shape)


def solve_spacetime_nested(
    problem: PDEProblem, time_basis: TimeBasis, space_basis: SpatialBasis, pairs
):
    """Solutions at every (N, M) in `pairs`, in order, from one assembly at the bases' sizes.

    The system at (n, m) is the leading block S[:n, :n], M[:n, :n], F[:n, :m-1, ...],
    B[:m-1, :m-1], solved as _spacetime_blocks says.  A refused block names its own
    (N, M).  Pairs outside 1..N x 2..M raise DomainError here, before any rule is built.
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
    """solve_spacetime_nested's generator, its arguments checked.

    With B = E Lam E^T, eigenmode (i_1, ..., i_d) solves (S + sigma M) w = ftilde,
    of rate sigma = 1 + sum_i 1/lam_i, with ftilde = F transformed by Lam^{-1} E^T
    on each spatial axis: its equation in E's basis divided by prod_i lam_i > 0.
    E on each axis takes w back to V.
    """
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
        # One coefficient tensor beside F: ftilde, then w written over it by
        # the mode stage, then V over w, each stage over blocks of time rows or
        # of mode columns.
        ftilde = np.empty_like(F)
        blocks, forward = _row_blocks(F), E / lam
        for rows in blocks:
            _mode_product(F[rows], [forward] * d, out=ftilde[rows])
        try:
            V = _solve_modes(S, M, _mode_table(lam, d), ftilde)
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
        yield Solution(V, *bases, problem.transform, residual=residual)


def solve_spacetime(problem: PDEProblem, time_basis: TimeBasis, space_basis: SpatialBasis):
    """The eigenmode solve of the space-time system: solve_spacetime_nested's one-pair case."""
    pair = (time_basis.n_modes, space_basis.m_modes)
    return next(solve_spacetime_nested(problem, time_basis, space_basis, (pair,)))
