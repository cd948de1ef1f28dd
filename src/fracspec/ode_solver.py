"""Galerkin spectral solver for the rescaled scalar fractional problem.

Solves D^{delta,psi} v + lam * v = f on (0, T^gamma) with zero value at the
origin, using the boundary-adapted Jacobi basis in time; a problem holds that
t-side source f and the initial value phi, which evaluation adds back.
Stiffness entries are assembled by the double Gauss-Jacobi quadrature in
which both singular kernel factors are absorbed into rule weights; only the
smooth non-polynomial factor ((1-tau^r)/(1-tau))^(-delta) is sampled pointwise.
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
    "assemble_time_load",
    "solve_nested",
    "solve",
    "evaluate",
    "evaluate_table",
]

COND_LIMIT = 1e14
# Points beyond the basis size in every rule that exactness does not size;
# each assembly piece sizes its own rules from it: the stiffness rules get
# N + QUAD_GUARD, the spatial load rule M + QUAD_GUARD and a sampled time
# load N + 2*QUAD_GUARD.
QUAD_GUARD = 8
# Degrees of the stiffness inner pass contracted per product: bounds its
# working memory at (_INNER_ROWS + 2) * (N + QUAD_GUARD)^2 values.
_INNER_ROWS = 8


@dataclass(frozen=True)
class TimeProblem:
    """Scalar fractional initial value problem in physical time s, as its solve reads it.

    It holds the homogenized t-side source f of D^{delta,psi} v + lam*v = f,
    in the format of assemble_time_load, and the initial value phi: the
    derivative annihilates constants, so the solve works on v = u - phi and
    adds phi back on evaluation.  from_source(g) stores t -> g(t^r) - lam*phi;
    manufactured(u) stores the monomials of D^delta u + lam*u, with phi = u(0).
    """

    delta: FracOrder
    lam: float
    transform: TransformSpec
    time_source: object
    phi: float = 0.0

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise DomainError(f"lam must be positive and finite, got {self.lam}")
        if not math.isfinite(self.phi):
            raise DomainError(f"phi must be finite, got {self.phi}")
        _check_time_source(self.time_source)

    @classmethod
    def manufactured(cls, exact: PowerSum, delta, lam, transform) -> "TimeProblem":
        delta = delta if isinstance(delta, FracOrder) else FracOrder(delta)
        terms = exact.source_terms(delta, lam, transform.r)
        return cls(delta, lam, transform, terms, exact.constant)

    @classmethod
    def from_source(cls, g, delta, lam, transform, phi: float = 0.0) -> "TimeProblem":
        if not callable(g):
            raise DomainError("source must be a callable of s")
        delta = delta if isinstance(delta, FracOrder) else FracOrder(delta)
        psi = transform.psi
        source = lambda t: np.asarray(g(psi(t)), dtype=float) - lam * phi  # noqa: E731
        return cls(delta, lam, transform, source, phi)


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

    A piece is (requests, build): its Gauss-Jacobi rule requests, checked
    when the piece is made, and the function that makes its matrix.  One
    jacobi_table of J^{alpha,1}_0..J^{alpha,1}_{N-1} over every node of the
    batch, each rule's nodes mapped from its own interval onto (-1, 1),
    serves them all: each build takes one (rule, block) pair per request,
    in request order, with block that rule's columns of the table.
    """
    rules = gauss_jacobi_rules([request for requests, _ in pieces for request in requests])
    points = [_reference_points(rule) for rule in rules]
    # The leading empty array keeps an empty batch (no load terms) valid.
    table = jacobi_table(
        JacobiIndex(basis.alpha, 1.0), basis.n_modes - 1, np.concatenate([np.empty(0), *points])
    )
    blocks = np.split(table, np.cumsum([p.size for p in points[:-1]], dtype=int), axis=1)
    # Contiguous copies, so each product takes a lone table's BLAS path.
    pairs = zip(rules, map(np.ascontiguousarray, blocks))
    return [build(*itertools.islice(pairs, len(requests))) for requests, build in pieces]


def _reference_points(rule) -> np.ndarray:
    """The rule's nodes mapped from its own interval onto (-1, 1)."""
    lo, hi = rule.interval
    return (2.0 * rule.nodes - (lo + hi)) / (hi - lo)


def _basis_values(rule, block: np.ndarray) -> np.ndarray:
    """gjp_table of the rule's nodes from its block of the J^{alpha,1} table: (1 + x) times it."""
    return (1.0 + _reference_points(rule)) * block


def _psi_request(basis: TimeBasis, transform: TransformSpec, n: int) -> tuple:
    """Request of the n-point rule for the weight t^(r-1) = psi'(t)/r on the basis interval."""
    return JacobiIndex(0.0, float(transform.r - 1)), n, (0.0, basis.interval[1])


def _sampled_request(basis: TimeBasis, transform: TransformSpec) -> tuple:
    """Request of the rule that samples a callable time load: N + 2*QUAD_GUARD points."""
    return _psi_request(basis, transform, basis.n_modes + 2 * QUAD_GUARD)


def _stiffness(basis: TimeBasis, delta: FracOrder, transform: TransformSpec):
    """assemble_stiffness as a piece: its checks, its rule requests, its matrix from those rules."""
    n_modes = basis.n_modes
    quad_n = n_modes + QUAD_GUARD
    d = delta.delta
    r = transform.r
    T = transform.horizon_T
    b = transform.b_psi
    # Written so that a NaN end is refused too.
    if not abs(basis.interval[1] - b) <= 1e-12 * b:
        raise DomainError(f"time basis interval {basis.interval} must be (0, T^gamma) = (0, {b!r})")
    alpha = basis.alpha
    requests = [
        (JacobiIndex(0.0, (1.0 - d) * r + 1.0), quad_n, (0.0, 1.0)),
        (JacobiIndex(-d, 0.0), quad_n, (0.0, 1.0)),
    ]

    def build(*samples):
        (outer, jac_outer), (inner, _) = samples
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

    return requests, build


def assemble_stiffness(basis: TimeBasis, delta: FracOrder, transform: TransformSpec) -> np.ndarray:
    """Stiffness S_mn = (D^{delta,psi} j_n, j_m) in the psi-weighted inner product.

    Unit-interval form: the outer rule absorbs the weight u^((1-delta)r + 1)
    at zero, the inner rule absorbs (1-tau)^(-delta) at one, and the smooth
    factor (sum_k tau^k)^(-delta) is evaluated pointwise.  N + QUAD_GUARD
    points per direction keep the only non-exact ingredient (that smooth
    factor) below roundoff for moderate r.  The entries are those of the
    basis on (0, T^gamma), so any other basis interval is refused.
    """
    return _assemble(basis, _stiffness(basis, delta, transform))[0]


def _mass(basis: TimeBasis, transform: TransformSpec):
    """assemble_mass as a piece."""
    r = transform.r

    def build(sample):
        rule, block = sample
        table = _basis_values(rule, block)
        weighted = table * rule.weights
        m = r * (weighted @ table.T)
        upper = np.triu(m)
        return upper + np.triu(m, 1).T

    request = _psi_request(basis, transform, (2 * basis.n_modes + r + 2 + 1) // 2)
    return [request], build


def assemble_mass(basis: TimeBasis, transform: TransformSpec) -> np.ndarray:
    """Mass M_mn = (j_n, j_m) against psi'(t) dt; exact Gauss-Jacobi quadrature."""
    return _assemble(basis, _mass(basis, transform))[0]


def _load_matrix(transform: TransformSpec, f, sample) -> np.ndarray:
    """The load of f on a (0, r-1) rule, from its (rule, J^{alpha,1} block) pair."""
    rule, block = sample
    vals = np.asarray(f(rule.nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("right-hand side returned NaN or inf at a quadrature node")
    table = _basis_values(rule, block)
    wv = np.moveaxis(rule.weights * vals, -1, 0)
    quad_n = rule.nodes.size
    return transform.r * (table @ wv.reshape(quad_n, -1)).reshape(table.shape[:1] + wv.shape[1:])


def _load_powers(basis: TimeBasis, transform: TransformSpec, terms):
    """Load for f(t) = sum c_q t^(p_q) as a piece, each power absorbed into its own rule.

    Exact for every term (the remaining integrand is the basis polynomial),
    including the endpoint-singular powers p in (-1, 0) produced by
    manufactured solutions with exponent below delta.
    """
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

    def build(*samples):
        out = np.zeros(n_modes)
        for (c, _), (rule, block) in zip(terms, samples):
            out += c * r * (_basis_values(rule, block) @ rule.weights)
        return out

    return requests, build


def _check_time_source(source) -> None:
    """Refuse a t-side source that is neither a callable of t nor a tuple of (coef, power) pairs."""
    pairs = isinstance(source, tuple) and all(isinstance(t, tuple) and len(t) == 2 for t in source)
    if not (callable(source) or pairs):
        raise DomainError("time_source must be a callable or a tuple of (coef, power) pairs")


def _time_load(basis: TimeBasis, transform: TransformSpec, source):
    """assemble_time_load as a piece.

    A callable f of t is sampled on the (0, r-1) Gauss-Jacobi rule of
    N + 2*QUAD_GUARD points.  It may return leading axes, with time last:
    values of shape (..., nodes) give a load of shape (N, ...), one time
    load per leading index.
    """
    if callable(source):
        build = functools.partial(_load_matrix, transform, source)
        return [_sampled_request(basis, transform)], build
    return _load_powers(basis, transform, source)


def assemble_time_load(basis: TimeBasis, transform: TransformSpec, source) -> np.ndarray:
    """Load of a t-side source: a callable of t, or a tuple of (coef, power) monomials.

    A callable is sampled on the (0, r-1) rule of N + 2*QUAD_GUARD points,
    and may return leading axes (see _time_load); monomials load exactly, one
    rule per power.
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


def _assemble_system(basis: TimeBasis, delta: FracOrder, transform: TransformSpec, load, where):
    """S, M and the matrix of the load piece of one solve, from one _assemble.

    A stiffness or mass matrix with a NaN or inf entry is refused, and every
    NumericalFailureError of the assembly is raised again as
    "assembly failed (<where>): ...", with its estimate and error bound.
    """
    stiffness, mass = _stiffness(basis, delta, transform), _mass(basis, transform)
    try:
        S, M, F = _assemble(basis, stiffness, mass, load)
        for name, matrix in (("stiffness", S), ("mass", M)):
            if not np.all(np.isfinite(matrix)):
                raise NumericalFailureError(f"non-finite {name} matrix")
    except NumericalFailureError as exc:
        raise exc.prefixed(f"assembly failed ({where})") from exc
    return S, M, F


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
        load = _time_load(basis, problem.transform, problem.time_source)
        S, M, F = _assemble_system(
            basis, problem.delta, problem.transform, load, f"{where}, N={n_modes}"
        )
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
                raise exc.prefixed(f"linear solve failed ({where}, N={n})") from exc
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
