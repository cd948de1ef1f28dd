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
    "jacobi_blocks",
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
    is permitted but is extrapolation.  The one-block case of jacobi_blocks.
    """
    return next(jacobi_blocks(idx, n_max, x, n_max + 1))


def jacobi_blocks(idx: JacobiIndex, n_max: int, x, rows: int):
    """The rows of jacobi_table(idx, n_max, x), `rows` degrees a block (the last may be shorter).

    Each block is a view that the next one overwrites: only one block and
    the two rows before it are held, so the working memory is
    (rows + 2) * len(x) values whatever n_max is.  Every block has
    jacobi_table's bits, because the operations and their order are those
    of one recurrence over the whole table.
    """
    if n_max < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n_max}")
    a, b = idx.alpha, idx.beta
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a1, a2, a3, a4 = _recurrence_coefficients(a, b, np.arange(1.0, n_max))
    # buf[k + 2] holds the row of degree start + k; buf[0] and buf[1] hold
    # the two rows before the block.
    buf = np.empty((min(rows, n_max + 1) + 2, x.size))
    tmp = np.empty(x.size)
    for start in range(0, n_max + 1, rows):
        stop = min(start + rows, n_max + 1)
        out = buf[: stop - start + 2]
        if start == 0:
            out[2] = 1.0
        if start <= 1 < stop:
            out[3 - start] = 0.5 * (a + b + 2) * x + 0.5 * (a - b)
        first = max(start, 2)
        body = out[first - start + 2 :]
        degrees = slice(first - 2, first - 2 + len(body))
        np.multiply(a3[degrees, None], x, out=body)
        body += a2[degrees, None]
        for n in range(first - 1, stop - 1):
            row = out[n - start + 3]
            row *= out[n - start + 2]
            row -= np.multiply(a4[n - 1], out[n - start + 1], out=tmp)
            row /= a1[n - 1]
        yield out[2:]
        buf[:2] = out[-2:]


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
        try:
            total = jacobi_weight_integral(self.index) * scale
        except OverflowError:
            raise NumericalFailureError(f"{rule}: the weight's mass overflows") from None
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


def _gauss_constant(idx: JacobiIndex, n: int) -> float:
    """c of the closed-form Gauss-Jacobi weights c / ((1 - x^2) J^{a,b}_n'(x)^2) at the zeros x."""
    a, b = idx.alpha, idx.beta
    try:
        logc = (
            (a + b + 1) * math.log(2.0)
            + math.lgamma(n + a + 1)
            + math.lgamma(n + b + 1)
            - math.lgamma(n + 1)
            - math.lgamma(n + a + b + 1)
        )
        return math.exp(logc)
    except OverflowError:
        message = f"{_rule_name(idx, n)}: the weights' constant overflows"
        raise NumericalFailureError(message) from None


def _first_off_diagonal(a: float, b: float) -> float:
    """Entry (0, 1) of the Jacobi matrix of J^{a,b}; inf where it passes a float's range.

    In Python floats, as the rules have always computed it: the C library's
    pow(x, 2) differs from numpy's x * x in the last bit for about one x in
    a thousand, and the nodes would follow.
    """
    try:
        return math.sqrt(4 * (a + 1) * (b + 1) / ((a + b + 2) ** 2 * (a + b + 3)))
    except OverflowError:
        return math.inf


def _jacobi_matrices(indices, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (k, size) and off-diagonals (k, size-1) of the Jacobi matrices of k families.

    Row i holds the symmetric size x size matrix of family i; its leading
    n x n block is that family's n x n matrix.  One broadcast builds them all.
    """
    a, b = np.array([(idx.alpha, idx.beta) for idx in indices]).T[:, :, None]
    k = np.arange(1, size, dtype=float)
    diag = np.empty((len(indices), size))
    diag[:, :1] = (b - a) / (a + b + 2)
    diag[:, 1:] = (b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2))
    off = np.empty((len(indices), size - 1))
    if size > 1:
        off[:, 0] = [_first_off_diagonal(idx.alpha, idx.beta) for idx in indices]
        kk = k[1:]
        num = 4 * kk * (kk + a) * (kk + b) * (kk + a + b)
        den = (2 * kk + a + b) ** 2 * (2 * kk + a + b + 1) * (2 * kk + a + b - 1)
        off[:, 1:] = np.sqrt(num / den)
    return diag, off


def _rule_recurrence(indices, ns) -> np.ndarray:
    """Per-point coefficients that run every J^{a,b}_n and J^{a+1,b+1}_n of a batch side by side.

    The points are laid out flat, n per family: first the families (a, b)
    of indices in order, then the families (a+1, b+1).  Returns a1..a4 of
    the batch's max(ns) steps, shape (4, max(ns), 2 * sum(ns)).  From the
    state (1, 1) a family of degree n first takes max(ns) - n steps that
    change nothing (a1 = a2 = 1, a3 = a4 = 0), then one to its degree-1 row
    (a1 = 1, a4 = 0, a3 x + a2 that row), then those to degrees 2..n, so it
    reaches its own degree at the last step.
    """
    ab = np.array([(idx.alpha, idx.beta) for idx in indices])
    a, b = np.concatenate([ab, ab + 1.0]).T
    ns = np.concatenate([ns, ns])
    steps = ns.max()
    # Step j takes a family of degree n to degree j - (steps - n) + 1; below 1 it is padding.
    k = np.arange(steps, dtype=float)[:, None] - (steps - ns)
    a1, a2, a3, a4 = _recurrence_coefficients(a, b, k)
    pad, first = k < 0, k == 0
    a1 = np.where(pad | first, 1.0, a1)
    a2 = np.where(pad, 1.0, np.where(first, 0.5 * (a - b), a2))
    a3 = np.where(pad, 0.0, np.where(first, 0.5 * (a + b + 2), a3))
    a4 = np.where(pad | first, 0.0, a4)
    return np.repeat(np.stack([a1, a2, a3, a4]), ns, axis=2)


def _last_rows(rec: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last two rows of the recurrence that rec describes, at x, from the state (1, 1).

    Only two rows are kept.  Elementwise these are jacobi_table's IEEE
    operations, and a padding step copies its row exactly, so the rows have
    jacobi_table's bits.
    """
    a1s, a2s, a3s, a4s = rec
    lin = a3s * x
    lin += a2s
    p0 = np.ones(x.size)
    p1 = np.ones(x.size)
    tmp = np.empty(x.size)
    for a1, a2_a3x, a4 in zip(a1s, lin, a4s):
        np.multiply(a4, p0, out=tmp)
        np.multiply(a2_a3x, p1, out=p0)
        p0 -= tmp
        p0 /= a1
        p0, p1 = p1, p0
    return p0, p1


def _golub_welsch_nodes(idx: JacobiIndex, n: int, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Zeros of J^{a,b}_n, ascending: the eigenvalues of its n x n Jacobi matrix (diag, off)."""
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


def _golub_welsch(requests) -> tuple[list, list, NumericalFailureError | None]:
    """Each request's starting nodes and (weight constant, weight scale), in order.

    Stops at the first request that fails and returns that failure too.  The
    constants come first, so no Jacobi matrix is built past a request whose
    weights overflow a float, however many points it asks for.
    """
    constants, nodes, failure = [], [], None
    try:
        for idx, n, interval in requests:
            constants.append((_gauss_constant(idx, n), _weight_scale(idx, n, interval)))
    except NumericalFailureError as exc:
        failure = exc
    ready = requests[: len(constants)]
    if ready:
        sizes = [n for _, n, _ in ready]
        diags, offs = _jacobi_matrices([idx for idx, _, _ in ready], max(sizes))
        for (idx, n, _), diag, off in zip(ready, diags, offs):
            try:
                nodes.append(_golub_welsch_nodes(idx, n, diag[:n], off[: n - 1]))
            except NumericalFailureError as exc:
                failure = exc
                break
    return nodes, constants, failure


def _newton_polish(indices, ns: list[int], x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Newton iteration on each J^{a,b}_n from the zeros guessed in x, n per family, laid out flat.

    Returns the polished nodes, J^{a,b}_n' there and each family's last
    Newton step, the residual.  One flat pass runs every family side by side;
    each family stops on its own residual, so it takes the steps of its lone
    build.
    """
    total = x.size
    rec = _rule_recurrence(indices, np.array(ns))
    # J^{a,b}_n' = (n+a+b+1)/2 * J^{a+1,b+1}_{n-1}
    scale = np.repeat([0.5 * (n + idx.alpha + idx.beta + 1) for idx, n in zip(indices, ns)], ns)
    starts = np.cumsum([0] + ns[:-1])
    residual = np.zeros(len(ns))
    active = np.ones(len(ns), dtype=bool)
    # A couple of steps reach the attainable floor.
    for _ in range(4):
        prev, last = _last_rows(rec, np.concatenate([x, x]))
        step = last[:total] / (scale * prev[total:])
        x = np.where(np.repeat(active, ns), x - step, x)
        residual = np.where(active, np.maximum.reduceat(np.abs(step), starts), residual)
        active &= ~(residual < 1e-15)
        if not active.any():
            break
    dp = scale * _last_rows(rec[:, :, total:], x)[0]
    return x, dp, residual


def gauss_jacobi_rules(requests) -> tuple[QuadratureRule, ...]:
    """Gauss-Jacobi rules, one per (index, n, interval) request, in the order given.

    The sizes may differ.  Nodes come from the Golub-Welsch eigenproblem of
    each three-term recurrence, then all are polished together by one Newton
    pass on J^{a,b}_n, each rule stopping on its own residual.  Every rule
    has the bits of its own build.  Every request's n and interval are
    checked first; past that, a refused batch raises what building the rules
    one at a time would: the first failure in request order.
    """
    requests = tuple(requests)
    for _, n, interval in requests:
        if n < 1:
            raise DomainError(f"rule size must be >= 1, got {n}")
        lo, hi = interval
        if not hi > lo:
            raise DomainError(f"empty interval {interval}")
    nodes, constants, failure = _golub_welsch(requests)
    built = requests[: len(nodes)]
    rules = []
    if built:
        ns = [n for _, n, _ in built]
        x, dp, residual = _newton_polish([idx for idx, _, _ in built], ns, np.concatenate(nodes))
        cuts = np.cumsum(ns[:-1])
        for (idx, n, (lo, hi)), (constant, scale), nodes_i, dp_i, residual_i in zip(
            built, constants, np.split(x, cuts), np.split(dp, cuts), residual
        ):
            # Written so that a NaN residual is refused too.
            if not residual_i <= 1e-13:
                raise NumericalFailureError(
                    f"{_rule_name(idx, n)}: Newton stalled, max node residual {residual_i:.3e}",
                    estimate=nodes_i,
                    error_bound=float(residual_i),
                )
            weights = constant / ((1.0 - nodes_i * nodes_i) * dp_i * dp_i)
            mapped = lo + 0.5 * (hi - lo) * (nodes_i + 1.0)
            rules.append(QuadratureRule(mapped, weights * scale, (lo, hi), idx))
    if failure is not None:
        raise failure
    return tuple(rules)


def gauss_jacobi_rule(
    idx: JacobiIndex, n: int, interval: tuple[float, float] = (-1.0, 1.0)
) -> QuadratureRule:
    """n-point Gauss-Jacobi rule, exact for degree <= 2n-1 against the weight.

    The one-request case of gauss_jacobi_rules.
    """
    return gauss_jacobi_rules([(idx, n, interval)])[0]


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
