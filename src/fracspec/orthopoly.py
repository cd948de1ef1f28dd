"""Jacobi/Legendre polynomials, boundary-adapted bases and Gauss-Jacobi rules.

Conventions: Jacobi polynomials J^{a,b}_n are orthogonal on (-1, 1) against
the weight (1-x)^a (1+x)^b with a, b > -1.  Rules on a general interval
(lo, hi) absorb the affinely mapped weight (hi-x)^a (x-lo)^b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, NumericalFailureError

# LAPACK's divide-and-conquer tridiagonal eigensolver, the driver that
# eigh_tridiagonal picks for a full spectrum with vectors.  It is called
# directly, so rule bits do not follow a change of scipy's default.
_dstevd = lapack.dstevd

__all__ = [
    "JacobiIndex",
    "QuadratureRule",
    "TimeBasis",
    "jacobi_table",
    "jacobi_weight_integral",
    "gauss_jacobi_rule",
    "gauss_jacobi_rules",
    "gjp_eval",
    "gjp_deriv",
    "gjp_table",
    "legendre_phi_table",
]


@dataclass(frozen=True)
class JacobiIndex:
    """Weight exponents (alpha, beta) of a Jacobi family; both must be > -1."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise DomainError(
                f"Jacobi exponents must both exceed -1, got ({self.alpha}, {self.beta})"
            )


def jacobi_weight_integral(idx: JacobiIndex) -> float:
    """Total mass of (1-x)^a (1+x)^b on (-1, 1): 2^(a+b+1) B(a+1, b+1)."""
    a, b = idx.alpha, idx.beta
    log_beta = math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2)
    return 2.0 ** (a + b + 1) * math.exp(log_beta)


def jacobi_table(idx: JacobiIndex, n_max: int, x) -> np.ndarray:
    """Values of J^{a,b}_0..J^{a,b}_{n_max} at x, shape (n_max+1, len(x)).

    Three-term recurrence; stable for the parameter ranges used here.  |x| > 1
    is permitted but is extrapolation.
    """
    if n_max < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n_max}")
    a, b = idx.alpha, idx.beta
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    out[0] = 1.0
    if n_max == 0:
        return out
    out[1] = 0.5 * (a + b + 2) * x + 0.5 * (a - b)
    a1, a2, a3, a4 = _recurrence_coefficients(a, b, np.arange(1.0, n_max))
    body = out[2:]
    np.multiply(a3[:, None], x, out=body)
    body += a2[:, None]
    tmp = np.empty(x.size)
    for n in range(1, n_max):
        row = out[n + 1]
        row *= out[n]
        row -= np.multiply(a4[n - 1], out[n - 1], out=tmp)
        row /= a1[n - 1]
    return out


def _recurrence_coefficients(a, b, n: np.ndarray) -> tuple[np.ndarray, ...]:
    """a1..a4 of J_{n+1} = ((a2 + a3 x) J_n - a4 J_{n-1}) / a1, one entry per degree in n.

    a and b may be arrays of families, broadcast against n.

    Every Jacobi evaluation here uses these, in this operation order, so the
    table rows and the rule kernel agree bit for bit.
    """
    c = 2 * n + a + b
    a1 = 2 * (n + 1) * (n + a + b + 1) * c
    a2 = (c + 1) * (a * a - b * b)
    a3 = c * (c + 1) * (c + 2)
    a4 = 2 * (n + a) * (n + b) * (c + 2)
    return a1, a2, a3, a4


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule: nodes/weights for the mapped weight on (lo, hi)."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]
    index: JacobiIndex

    def __post_init__(self):
        lo, hi = self.interval
        nodes, weights = self.nodes, self.weights
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        rule = _rule_name(self.index, nodes.size)
        if not np.all(np.diff(nodes) > 0):
            raise NumericalFailureError(f"{rule}: nodes are not strictly increasing")
        if not (nodes[0] > lo and nodes[-1] < hi):
            raise NumericalFailureError(f"{rule}: nodes escaped the open interval")
        if not np.all(weights > 0):
            raise NumericalFailureError(f"{rule}: weights are not all positive")
        scale = _weight_scale(self.index, nodes.size, self.interval)
        total = jacobi_weight_integral(self.index) * scale
        if abs(weights.sum() - total) > 1e-12 * max(total, 1.0):
            raise NumericalFailureError(
                f"{rule}: weight sum {weights.sum():.17g} disagrees with closed form {total:.17g}"
            )


def _rule_name(idx: JacobiIndex, n: int) -> str:
    """How a failure names its rule."""
    return f"Gauss-Jacobi rule (alpha={idx.alpha}, beta={idx.beta}, n={n})"


def _weight_scale(idx: JacobiIndex, n: int, interval: tuple[float, float]) -> float:
    """(half the interval's length)^(alpha+beta+1): the weight's mass on it over that on (-1, 1)."""
    try:
        return (0.5 * (interval[1] - interval[0])) ** (idx.alpha + idx.beta + 1)
    except OverflowError:
        message = f"{_rule_name(idx, n)} on {interval}: the weight's scale overflows"
        raise NumericalFailureError(message) from None


def _jacobi_recurrence(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the symmetric Jacobi matrix, n x n."""
    k = np.arange(1, n, dtype=float)
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2)
    diag[1:] = (b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        off[0] = math.sqrt(4 * (a + 1) * (b + 1) / ((a + b + 2) ** 2 * (a + b + 3)))
        kk = np.arange(2, n, dtype=float)
        num = 4 * kk * (kk + a) * (kk + b) * (kk + a + b)
        den = (2 * kk + a + b) ** 2 * (2 * kk + a + b + 1) * (2 * kk + a + b - 1)
        off[1:] = np.sqrt(num / den)
    return diag, off


def _rule_recurrence(indices, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-point coefficients that run every J^{a,b} and J^{a+1,b+1} side by side to degree n.

    The points are laid out flat, n per family: first the k families (a, b)
    of indices in order, then the k families (a+1, b+1).  Returns the
    degree-1 row's slope and intercept, shape (2, 2kn), and a1..a4 of the
    steps to degrees 2..n, shape (4, n-1, 2kn).
    """
    ab = np.array([(idx.alpha, idx.beta) for idx in indices])
    a, b = np.concatenate([ab, ab + 1.0]).T
    first = np.stack([0.5 * (a + b + 2), 0.5 * (a - b)])
    rec = np.stack(_recurrence_coefficients(a, b, np.arange(1.0, n)[:, None]))
    return np.repeat(first, n, axis=1), np.repeat(rec, n, axis=2)


def _last_rows(first: np.ndarray, rec: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last two rows of the recurrence that first and rec describe, at x.

    Only two rows are kept.  Elementwise these are jacobi_table's IEEE
    operations, so the rows have jacobi_table's bits.
    """
    a1s, a2s, a3s, a4s = rec
    lin = a3s * x
    lin += a2s
    p0 = np.ones(x.size)
    p1 = first[0] * x + first[1]
    tmp = np.empty(x.size)
    for a1, a2_a3x, a4 in zip(a1s, lin, a4s):
        np.multiply(a4, p0, out=tmp)
        np.multiply(a2_a3x, p1, out=p0)
        p0 -= tmp
        p0 /= a1
        p0, p1 = p1, p0
    return p0, p1


def _gauss_weights(idx: JacobiIndex, n: int, nodes: np.ndarray, dpn: np.ndarray) -> np.ndarray:
    """Closed-form Gauss-Jacobi weights at exact nodes of J^{a,b}_n, given J^{a,b}_n' there."""
    a, b = idx.alpha, idx.beta
    logc = (
        (a + b + 1) * math.log(2.0)
        + math.lgamma(n + a + 1)
        + math.lgamma(n + b + 1)
        - math.lgamma(n + 1)
        - math.lgamma(n + a + b + 1)
    )
    return math.exp(logc) / ((1.0 - nodes * nodes) * dpn * dpn)


def _golub_welsch_nodes(idx: JacobiIndex, n: int) -> np.ndarray:
    """Zeros of J^{a,b}_n, ascending: the eigenvalues of the n x n Jacobi matrix."""
    diag, off = _jacobi_recurrence(idx.alpha, idx.beta, n)
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise NumericalFailureError(f"{_rule_name(idx, n)}: eigensolve failed: non-finite matrix")
    if n == 1:
        return diag
    # The eigenvectors are discarded, but the values-only path (dsterf) gives
    # nodes that differ in their last bits, and the solvers' answers are
    # sensitive to the rules at that level.
    nodes, _, info = _dstevd(diag, off)
    if info != 0:  # pragma: no cover - LAPACK failure is exotic
        raise NumericalFailureError(f"{_rule_name(idx, n)}: eigensolve failed: dstevd info={info}")
    return np.sort(nodes)


def _newton_polish(indices, n: int, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Newton iteration on J^{a,b}_n from the zeros guessed in row i of x, family i of indices.

    Returns the polished nodes, J^{a,b}_n' there and each row's last Newton
    step, the residual.  One flat pass runs every family side by side; each
    row stops on its own residual, so it takes the steps of its lone build.
    """
    k = len(indices)
    first, rec = _rule_recurrence(indices, n)
    # J^{a,b}_n' = (n+a+b+1)/2 * J^{a+1,b+1}_{n-1}
    scale = np.array([[0.5 * (n + idx.alpha + idx.beta + 1)] for idx in indices])
    residual = np.zeros(k)
    active = np.ones(k, dtype=bool)
    # A couple of steps reach the attainable floor.
    for _ in range(4):
        prev, last = _last_rows(first, rec, np.concatenate([x, x]).ravel())
        step = last.reshape(2, k, n)[0] / (scale * prev.reshape(2, k, n)[1])
        x = np.where(active[:, None], x - step, x)
        residual = np.where(active, np.max(np.abs(step), axis=1), residual)
        active &= ~(residual < 1e-15)
        if not active.any():
            break
    dp = scale * _last_rows(first[:, k * n :], rec[:, :, k * n :], x.ravel())[0].reshape(k, n)
    return x, dp, residual


def gauss_jacobi_rules(
    indices, n: int, interval: tuple[float, float] = (-1.0, 1.0)
) -> tuple[QuadratureRule, ...]:
    """n-point Gauss-Jacobi rules on one interval, one per index, in the order given.

    Nodes come from the Golub-Welsch eigenproblem of each three-term
    recurrence, then all are polished together by Newton iteration on
    J^{a,b}_n, each rule stopping on its own residual.  Every rule has the
    bits of its own build, and a refused batch raises what building the rules
    one at a time would: the first failure in index order.
    """
    if n < 1:
        raise DomainError(f"rule size must be >= 1, got {n}")
    lo, hi = interval
    if not hi > lo:
        raise DomainError(f"empty interval {interval}")
    indices = tuple(indices)
    nodes, failure = [], None
    for idx in indices:
        try:
            nodes.append(_golub_welsch_nodes(idx, n))
        except NumericalFailureError as exc:
            failure = exc
            break
    built = indices[: len(nodes)]
    rules = []
    if built:
        x, dp, residual = _newton_polish(built, n, np.stack(nodes))
        for idx, nodes_i, dp_i, residual_i in zip(built, x, dp, residual):
            if residual_i > 1e-13:
                raise NumericalFailureError(
                    f"{_rule_name(idx, n)}: Newton stalled, max node residual {residual_i:.3e}",
                    estimate=nodes_i,
                    error_bound=float(residual_i),
                )
            weights = _gauss_weights(idx, n, nodes_i, dp_i)
            mapped = lo + 0.5 * (hi - lo) * (nodes_i + 1.0)
            mapped_w = weights * _weight_scale(idx, n, interval)
            rules.append(QuadratureRule(mapped, mapped_w, (lo, hi), idx))
    if failure is not None:
        raise failure
    return tuple(rules)


def gauss_jacobi_rule(
    idx: JacobiIndex, n: int, interval: tuple[float, float] = (-1.0, 1.0)
) -> QuadratureRule:
    """n-point Gauss-Jacobi rule, exact for degree <= 2n-1 against the weight.

    The one-index case of gauss_jacobi_rules.
    """
    return gauss_jacobi_rules((idx,), n, interval)[0]


@dataclass(frozen=True)
class TimeBasis:
    """Boundary-adapted Jacobi basis on (0, b): n-th function vanishes at 0.

    Functions are j_n(t) = (1 + x(t)) J^{alpha,1}_{n-1}(x(t)), n = 1..N,
    with x(t) the affine map of the interval onto (-1, 1).  Their span is
    every polynomial of degree <= N vanishing at the left endpoint.
    """

    alpha: float
    n_modes: int
    interval: tuple[float, float]

    def __post_init__(self):
        if not self.alpha > -1.0:
            raise DomainError(f"basis parameter must exceed -1, got {self.alpha}")
        if self.n_modes < 1:
            raise DomainError(f"need at least one mode, got {self.n_modes}")
        lo, hi = self.interval
        if not hi > lo:
            raise DomainError(f"empty interval {self.interval}")

    def to_reference(self, t) -> np.ndarray:
        lo, hi = self.interval
        t = np.asarray(t, dtype=float)
        return (2.0 * t - (lo + hi)) / (hi - lo)


def _check_mode(basis: TimeBasis, n: int):
    if not 1 <= n <= basis.n_modes:
        raise DomainError(f"mode index must lie in 1..{basis.n_modes}, got {n}")


def gjp_table(basis: TimeBasis, t) -> np.ndarray:
    """Values of j_1..j_N at t, shape (N, len(t))."""
    x = np.atleast_1d(basis.to_reference(t))
    jac = jacobi_table(JacobiIndex(basis.alpha, 1.0), basis.n_modes - 1, x)
    return (1.0 + x) * jac


def gjp_eval(basis: TimeBasis, n: int, t):
    """j_n(t) = (1 + x(t)) J^{alpha,1}_{n-1}(x(t))."""
    _check_mode(basis, n)
    x = basis.to_reference(t)
    jac = jacobi_table(JacobiIndex(basis.alpha, 1.0), n - 1, x)[n - 1].reshape(np.shape(x))
    val = (1.0 + x) * jac
    return float(val) if np.isscalar(t) else val


def gjp_deriv(basis: TimeBasis, n: int, t):
    """j_n'(t) = 2n/(hi-lo) * J^{alpha+1,0}_{n-1}(x(t))."""
    _check_mode(basis, n)
    lo, hi = basis.interval
    x = basis.to_reference(t)
    jac = jacobi_table(JacobiIndex(basis.alpha + 1.0, 0.0), n - 1, x)[n - 1].reshape(np.shape(x))
    val = (2.0 * n / (hi - lo)) * jac
    return float(val) if np.isscalar(t) else val


def legendre_phi_table(m_modes: int, x) -> np.ndarray:
    """Values of phi_0..phi_{M-2} at x, shape (M-1, len(x))."""
    if m_modes < 2:
        raise DomainError(f"need m_modes >= 2, got {m_modes}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    leg = jacobi_table(JacobiIndex(0.0, 0.0), m_modes, x)
    k = np.arange(m_modes - 1, dtype=float)
    c = 1.0 / np.sqrt(4.0 * k + 6.0)
    return c[:, None] * (leg[: m_modes - 1] - leg[2 : m_modes + 1])
