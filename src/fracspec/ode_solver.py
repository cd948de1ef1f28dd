"""Galerkin spectral solver for the rescaled scalar fractional problem.

Solves D^{delta,psi} v + lam * v = f on (0, T^gamma) with zero value at the
origin, using the boundary-adapted Jacobi basis in time.  Stiffness entries
are assembled by the double Gauss-Jacobi quadrature in which both singular
kernel factors are absorbed into rule weights; only the smooth non-polynomial
factor ((1-tau^r)/(1-tau))^(-delta) is sampled pointwise.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, NumericalFailureError
from .frac_ops import FracOrder, PowerSum, TransformSpec
from .orthopoly import (
    JacobiIndex,
    TimeBasis,
    gauss_jacobi_rules,
    gjp_table,
    jacobi_blocks,
    jacobi_table,
)

__all__ = [
    "TimeProblem",
    "TimeSolution",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_load",
    "assemble_load_powers",
    "assemble_time_load",
    "solve_nested",
    "solve",
    "evaluate",
    "evaluate_table",
]

COND_LIMIT = 1e14
# Points beyond the basis size for every rule above the assembly layer: the
# stiffness rules get N + QUAD_GUARD, the spatial load rule M + QUAD_GUARD
# and a sampled time load N + 2*QUAD_GUARD.
QUAD_GUARD = 8
# Degrees of the stiffness inner pass contracted per product: bounds its
# working memory at (_INNER_ROWS + 2) * (N + QUAD_GUARD)^2 values.
_INNER_ROWS = 8


@dataclass(frozen=True)
class TimeProblem:
    """Scalar fractional initial value problem in physical time s.

    Either `source` g(s) is given directly, or `exact` prescribes a
    manufactured power-sum solution u(s) from which g = D^delta u + lam*u is
    derived in closed form.  A nonzero initial value phi is homogenized
    internally (the derivative annihilates constants), so the solve works on
    u - phi with source g - lam*phi and adds phi back on evaluation.
    """

    delta: FracOrder
    lam: float
    transform: TransformSpec
    source: object = None
    exact: PowerSum | None = None
    phi: float = 0.0

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise DomainError(f"lam must be positive and finite, got {self.lam}")
        if (self.source is None) == (self.exact is None):
            raise DomainError("exactly one of source/exact must be given")
        if self.exact is not None and self.exact.constant != self.phi:
            raise DomainError("manufactured solution must satisfy u(0) = phi")

    @classmethod
    def manufactured(cls, exact: PowerSum, delta, lam, transform) -> "TimeProblem":
        delta = delta if isinstance(delta, FracOrder) else FracOrder(delta)
        return cls(delta, lam, transform, exact=exact, phi=exact.constant)

    @classmethod
    def from_source(cls, g, delta, lam, transform, phi: float = 0.0) -> "TimeProblem":
        delta = delta if isinstance(delta, FracOrder) else FracOrder(delta)
        return cls(delta, lam, transform, source=g, phi=phi)

    @property
    def time_source(self):
        """Homogenized t-side source, in the format of assemble_time_load.

        Monomials of D^delta u + lam*u if `exact` is given, else t -> g(t^r) - lam*phi.
        """
        if self.exact is not None:
            return self.exact.source_terms(self.delta, self.lam, self.transform.r)
        g, psi, lam, phi = self.source, self.transform.psi, self.lam, self.phi
        return lambda t: np.asarray(g(psi(t)), dtype=float) - lam * phi


@dataclass(frozen=True)
class TimeSolution:
    """Galerkin coefficients plus the bookkeeping needed to evaluate u_N(s)."""

    coeffs: np.ndarray
    basis: TimeBasis
    transform: TransformSpec
    phi_offset: float = 0.0
    residual: float = 0.0

    def evaluate(self, s_points):
        return evaluate(self, s_points)


def _assemble(basis: TimeBasis, *pieces) -> list:
    """Build the rules of every piece in one batch, then each piece's matrix from its own rules.

    A piece is (requests, points, build): its Gauss-Jacobi rule requests,
    checked when the piece is made; the function of those rules, in request
    order, that gives the reference points where the piece needs
    J^{alpha,1}_0..J^{alpha,1}_{N-1} of the basis; and the function of that
    block of the table and the rules that makes its matrix.  One
    jacobi_table over every piece's points serves them all.
    """
    batch = iter(gauss_jacobi_rules([request for requests, _, _ in pieces for request in requests]))
    rules = [tuple(itertools.islice(batch, len(requests))) for requests, _, _ in pieces]
    points = [piece_points(*own) for (_, piece_points, _), own in zip(pieces, rules)]
    table = jacobi_table(JacobiIndex(basis.alpha, 1.0), basis.n_modes - 1, np.concatenate(points))
    blocks = np.split(table, np.cumsum([p.size for p in points[:-1]]), axis=1)
    # Contiguous copies, so each product takes a lone table's BLAS path.
    return [
        build(np.ascontiguousarray(block), *own)
        for (_, _, build), block, own in zip(pieces, blocks, rules)
    ]


def _reference_points(basis: TimeBasis, *rules) -> np.ndarray:
    """The rules' nodes, in order, mapped onto the basis's reference interval (-1, 1)."""
    if not rules:
        return np.empty(0)
    return basis.to_reference(np.concatenate([rule.nodes for rule in rules]))


def _basis_values(basis: TimeBasis, block: np.ndarray, *rules) -> np.ndarray:
    """gjp_table of the rules' nodes from their block of the J^{alpha,1} table: (1 + x) times it."""
    return (1.0 + _reference_points(basis, *rules)) * block


def _psi_request(basis: TimeBasis, transform: TransformSpec, n: int) -> tuple:
    """Request of the n-point rule for the weight t^(r-1) = psi'(t)/r on the basis interval."""
    return JacobiIndex(0.0, float(transform.r - 1)), n, (0.0, basis.interval[1])


def _sampled_request(basis: TimeBasis, transform: TransformSpec) -> tuple:
    """Request of the rule that samples a callable time load: N + 2*QUAD_GUARD points."""
    return _psi_request(basis, transform, basis.n_modes + 2 * QUAD_GUARD)


def _stiffness(basis: TimeBasis, delta: FracOrder, transform: TransformSpec, quad_n: int):
    """assemble_stiffness as a piece: its checks, its rule requests, its matrix from those rules."""
    n_modes = basis.n_modes
    if quad_n < n_modes + 2:
        raise DomainError(f"quad_n must be at least N+2 = {n_modes + 2}, got {quad_n}")
    d = delta.delta
    r = transform.r
    T = transform.horizon_T
    b = transform.b_psi
    lo, hi = basis.interval
    # Written so that a NaN end is refused too.
    if not (abs(lo) <= 1e-12 * b and abs(hi - b) <= 1e-12 * b):
        raise DomainError(f"time basis interval {basis.interval} must be (0, T^gamma) = (0, {b!r})")
    alpha = basis.alpha
    requests = [
        (JacobiIndex(0.0, (1.0 - d) * r + 1.0), quad_n, (0.0, 1.0)),
        (JacobiIndex(-d, 0.0), quad_n, (0.0, 1.0)),
    ]

    def points(outer, inner):
        return 2.0 * outer.nodes - 1.0

    def build(jac_outer, outer, inner):
        eta, w = outer.nodes, outer.weights
        eta_h, w_h = inner.nodes, inner.weights

        # ((1 - tau^r)/(1 - tau))^(-delta) = (sum_{k<r} tau^k)^(-delta)
        smooth = np.ones_like(eta_h)
        if r > 1:
            acc = np.zeros_like(eta_h)
            for k in range(r):
                acc += eta_h**k
            smooth = acc ** (-d)

        # Inner pass: K[n-1, i] = sum_j w_h[j] smooth[j] J^{alpha+1,0}_{n-1}(2 eta_i eta_h_j - 1),
        # _INNER_ROWS degrees a product, each product the one a full table would take.
        args = 2.0 * np.outer(eta, eta_h) - 1.0
        weighted = w_h * smooth
        K = np.empty((n_modes, eta.size))
        inner_family = JacobiIndex(alpha + 1.0, 0.0)
        blocks = jacobi_blocks(inner_family, n_modes - 1, args.ravel(), _INNER_ROWS)
        for start, block in zip(range(0, n_modes, _INNER_ROWS), blocks):
            rows = block.reshape(-1, *args.shape)
            np.matmul(rows, weighted, out=K[start : start + len(rows)])

        core = (jac_outer * w) @ K.T  # (m, n)

        n_idx = np.arange(1, n_modes + 1, dtype=float)
        pref = 4.0 * n_idx * T ** (1.0 - d) * r / math.gamma(1.0 - d)
        return core * pref[None, :]

    return requests, points, build


def assemble_stiffness(
    basis: TimeBasis, delta: FracOrder, transform: TransformSpec, quad_n: int
) -> np.ndarray:
    """Stiffness S_mn = (D^{delta,psi} j_n, j_m) in the psi-weighted inner product.

    Unit-interval form: the outer rule absorbs the weight u^((1-delta)r + 1)
    at zero, the inner rule absorbs (1-tau)^(-delta) at one, and the smooth
    factor (sum_k tau^k)^(-delta) is evaluated pointwise.  quad_n points per
    direction keep the only non-exact ingredient (that smooth factor) below
    roundoff for moderate r.  The entries are those of the basis on
    (0, T^gamma), so any other basis interval is refused.
    """
    return _assemble(basis, _stiffness(basis, delta, transform, quad_n))[0]


def _mass(basis: TimeBasis, transform: TransformSpec):
    """assemble_mass as a piece."""
    r = transform.r

    def build(block, rule):
        table = _basis_values(basis, block, rule)
        weighted = table * rule.weights
        m = r * (weighted @ table.T)
        upper = np.triu(m)
        return upper + np.triu(m, 1).T

    request = _psi_request(basis, transform, (2 * basis.n_modes + r + 2 + 1) // 2)
    return [request], functools.partial(_reference_points, basis), build


def assemble_mass(basis: TimeBasis, transform: TransformSpec) -> np.ndarray:
    """Mass M_mn = (j_n, j_m) against psi'(t) dt; exact Gauss-Jacobi quadrature."""
    return _assemble(basis, _mass(basis, transform))[0]


def _load_matrix(basis: TimeBasis, transform: TransformSpec, f, block, rule) -> np.ndarray:
    """The load of f on the (0, r-1) rule `rule`, from its J^{alpha,1} block: see assemble_load."""
    vals = np.asarray(f(rule.nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("right-hand side returned NaN or inf at a quadrature node")
    table = _basis_values(basis, block, rule)
    wv = np.moveaxis(rule.weights * vals, -1, 0)
    quad_n = rule.nodes.size
    return transform.r * (table @ wv.reshape(quad_n, -1)).reshape(table.shape[:1] + wv.shape[1:])


def assemble_load(basis: TimeBasis, transform: TransformSpec, f, quad_n: int) -> np.ndarray:
    """Load F_m = (f, j_m) against psi'(t) dt by the (0, r-1) Gauss-Jacobi rule.

    f may return leading axes, with time last: values of shape (..., nodes)
    give a load of shape (N, ...), one time load per leading index.
    """
    return _assemble(basis, _load(basis, transform, f, _psi_request(basis, transform, quad_n)))[0]


def _load(basis: TimeBasis, transform: TransformSpec, f, request):
    """assemble_load as a piece, on the rule of `request`."""

    def build(block, rule):
        return _load_matrix(basis, transform, f, block, rule)

    return [request], functools.partial(_reference_points, basis), build


def _load_powers(basis: TimeBasis, transform: TransformSpec, terms):
    """assemble_load_powers as a piece."""
    r = transform.r
    b = basis.interval[1]
    n_modes = basis.n_modes
    n_quad = n_modes // 2 + 2
    terms = tuple(terms)
    requests = []
    for _, p in terms:
        beta = p + r - 1.0
        if beta <= -1.0:
            raise DomainError(f"power {p} is not integrable against the weight")
        requests.append((JacobiIndex(0.0, beta), n_quad, (0.0, b)))

    def build(block, *rules):
        out = np.zeros(n_modes)
        tables = _basis_values(basis, block, *rules).reshape(n_modes, len(rules), n_quad)
        for k, ((c, _), rule) in enumerate(zip(terms, rules)):
            # A contiguous copy, so the product takes a lone table's BLAS path.
            table = np.ascontiguousarray(tables[:, k])
            out += c * r * (table @ rule.weights)
        return out

    return requests, functools.partial(_reference_points, basis), build


def assemble_load_powers(
    basis: TimeBasis, transform: TransformSpec, terms
) -> np.ndarray:
    """Load for f(t) = sum c_q t^(p_q), each power absorbed into its own rule.

    Exact for every term (the remaining integrand is the basis polynomial),
    including the endpoint-singular powers p in (-1, 0) produced by
    manufactured solutions with exponent below delta.
    """
    return _assemble(basis, _load_powers(basis, transform, terms))[0]


def _time_load(basis: TimeBasis, transform: TransformSpec, source):
    """assemble_time_load as a piece."""
    if callable(source):
        return _load(basis, transform, source, _sampled_request(basis, transform))
    return _load_powers(basis, transform, source)


def assemble_time_load(basis: TimeBasis, transform: TransformSpec, source) -> np.ndarray:
    """Load of a t-side source: a callable of t, or a tuple of (coef, power) monomials.

    A callable is sampled on the (0, r-1) rule of N + 2*QUAD_GUARD points;
    monomials load exactly, one rule per power.
    """
    return _assemble(basis, _time_load(basis, transform, source))[0]


def solve_linear(A: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Dense LU solve of A x = F, A (n, n) and F (n,), with a condition guard.

    One LAPACK getrf serves the guard and the solve (getrs).  The guard is the
    1-norm condition estimate of the factors (gecon: the Hager-Higham
    estimator); a matrix estimated above COND_LIMIT raises NumericalFailureError.
    """
    lu, piv, info = lapack.dgetrf(A)
    rcond, _ = lapack.dgecon(lu, np.linalg.norm(A, 1), norm="1")
    # An exactly singular factor, or a zero or non-finite rcond (a NaN entry
    # gives one), reads as an infinite estimate.
    estimate = 1.0 / rcond if info == 0 and 0.0 < rcond < math.inf else math.inf
    if estimate > COND_LIMIT:
        raise NumericalFailureError(
            f"system condition estimate {estimate:.3e} exceeds {COND_LIMIT:.0e}", estimate=estimate
        )
    return lapack.dgetrs(lu, piv, F)[0]


def require_finite(**matrices):
    """Raise NumericalFailureError naming the first matrix with a NaN or inf entry."""
    for name, matrix in matrices.items():
        if not np.all(np.isfinite(matrix)):
            raise NumericalFailureError(f"non-finite {name} matrix")


def solve_nested(problem: TimeProblem, basis: TimeBasis, sizes):
    """Solutions at every size n in `sizes`, in order, from one assembly at basis.n_modes.

    The basis is hierarchical: j_1..j_n do not depend on N, so the system at
    n is the leading n x n block of (S + lam*M) v = F at N.  The returned
    generator assembles S, M and F at the first next(), every rule of the
    three in one batch, and then solves one block per next().  Each block is
    guarded and checked like a lone solve, and a refused block names its own
    N.  Sizes outside 1..N raise DomainError here, before any assembly.
    """
    n_modes = basis.n_modes
    sizes = tuple(sizes)
    outside = [n for n in sizes if not 1 <= n <= n_modes]
    if outside:
        raise DomainError(f"block sizes must lie in 1..{n_modes}, got {outside}")
    where = f"delta={problem.delta.delta}, r={problem.transform.r}"

    def blocks():
        try:
            S, M, F = _assemble(
                basis,
                _stiffness(basis, problem.delta, problem.transform, n_modes + QUAD_GUARD),
                _mass(basis, problem.transform),
                _time_load(basis, problem.transform, problem.time_source),
            )
            require_finite(stiffness=S, mass=M)
        except NumericalFailureError as exc:
            raise NumericalFailureError(
                f"assembly failed ({where}, N={n_modes}): {exc}", estimate=exc.estimate
            ) from exc
        A = S + problem.lam * M
        for n in sizes:
            a, f = A[:n, :n], F[:n]
            try:
                coeffs = solve_linear(a, f)
                residual = float(np.max(np.abs(a @ coeffs - f)))
                # A column of A that the guard let through is not zero, so a NaN or
                # inf in the solution also makes the residual NaN or inf.
                if not math.isfinite(residual):
                    raise NumericalFailureError("non-finite solution or residual")
            except NumericalFailureError as exc:
                raise NumericalFailureError(
                    f"linear solve failed ({where}, N={n}): {exc}", estimate=exc.estimate
                ) from exc
            yield TimeSolution(
                coeffs=coeffs,
                basis=replace(basis, n_modes=n),
                transform=problem.transform,
                phi_offset=problem.phi,
                residual=residual,
            )

    return blocks()


def solve(problem: TimeProblem, basis: TimeBasis) -> TimeSolution:
    """Solve (S + lam*M) v = F and package the coefficients: solve_nested's one-size case."""
    return next(solve_nested(problem, basis, (basis.n_modes,)))


def evaluate(sol: TimeSolution, s_points) -> np.ndarray:
    """Evaluate u_N(s) = phi + sum_n v_n j_n(s^gamma) on points in [0, T]."""
    t = sol.transform.psi_inverse(np.atleast_1d(s_points))
    return evaluate_table(sol, gjp_table(sol.basis, t))


def evaluate_table(sol: TimeSolution, table) -> np.ndarray:
    """u_N = phi + v @ table[:N] at the points of a gjp_table of sol's basis, or of a larger one."""
    return sol.phi_offset + sol.coeffs @ table[: sol.coeffs.size]
