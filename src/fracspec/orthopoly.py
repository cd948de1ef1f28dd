"""Jacobi/Legendre polynomials, boundary-adapted bases and Gauss-Jacobi rules.

Conventions: Jacobi polynomials J^{a,b}_n are orthogonal on (-1, 1) against
the weight (1-x)^a (1+x)^b with a, b > -1.  Rules on a general interval
(lo, hi) absorb the affinely mapped weight (hi-x)^a (x-lo)^b.  One
recurrence serves the tables, the stiffness inner pass and the rule build.
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

_NEWTON_ROWS = 32  # rows a block of the Newton pass's recurrence, which keeps the last two

__all__ = [
    "JacobiIndex",
    "QuadratureRule",
    "TimeBasis",
    "jacobi_table",
    "jacobi_blocks",
    "jacobi_weight_integral",
    "gauss_jacobi_rule",
    "gauss_jacobi_rules",
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

    Each block is a view that the next one overwrites, so the working memory
    is (rows + 2) * len(x) values whatever n_max is.  The tables, the stiffness
    inner pass and the rule build's Newton pass all run one recurrence, so every
    block has jacobi_table's bits.  n_max < 0 or rows < 1 is refused at the call.
    """
    if n_max < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n_max}")
    if rows < 1:
        raise DomainError(f"block size must be >= 1, got {rows}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = _step_table(idx.alpha, idx.beta, n_max)
    return (block[2:] for block in _recurrence_blocks(table, x, rows))


def _step_table(a, b, steps: int) -> tuple[np.ndarray, ...]:
    """a1..a4, each (steps, families), of the steps that run J^{a,b}_0..J^{a,b}_steps from (1, 1).

    A step is J_{k+1} = ((a2 + a3 x) J_k - a4 J_{k-1}) / a1; the first has a1 = 1,
    a4 = 0 and a3 x + a2 the degree-1 row.  a, b: floats, or arrays of families.
    """
    k = np.arange(steps, dtype=float)[:, None]
    c = 2 * k + a + b
    c1, c2, ka = c + 1, c + 2, k + a
    a1 = 2 * (k + 1) * (ka + b + 1) * c
    a2 = c1 * (a * a - b * b)
    a3 = c * c1 * c2
    a4 = 2 * ka * (k + b) * c2
    a1[:1], a2[:1], a3[:1], a4[:1] = 1.0, 0.5 * (a - b), 0.5 * (a + b + 2), 0.0
    return a1, a2, a3, a4


def _recurrence_blocks(table, x: np.ndarray, rows: int):
    """The rows of degrees 0..steps of the recurrence that table describes, at x, `rows` a block.

    table holds a1..a4 of each step from the state (1, 1), each (steps, 1) for
    one family at every point or (steps, len(x)) for a family per point.  A
    block is a view that the next overwrites, headed by the two rows before it.
    """
    a1, a2, a3, a4 = table
    steps, width = a1.shape
    if width == 1:  # one family: scalars, which numpy applies faster
        a1, a4 = a1[:, 0], a4[:, 0]
    # out[i] holds the row of degree start + i - 2, and a row of degree d >= 1 is step d - 1's.
    buf = np.empty((min(rows, steps + 1) + 2, x.size))
    buf[:3] = 1.0  # the state (1, 1), then degree 0
    tmp = np.empty(x.size)
    for start in range(0, steps + 1, rows):
        if start:  # the rows before this block end the full one before it
            buf[:2] = buf[-2:]
        out = buf[: min(rows, steps + 1 - start) + 2]
        i = 3 if start == 0 else 2  # degree 0 is the state's, not a step's
        now = slice(start + i - 3, start + len(out) - 3)
        body = out[i:]
        if width == 1:
            np.multiply(a3[now], x, out=body)
        else:  # broadcasting x would cost a temporary the size of body
            body[...] = x
            body *= a3[now]
        body += a2[now]
        prev2, prev = out[i - 2], out[i - 1]
        for row, c1, c4 in zip(body, a1[now], a4[now]):
            row *= prev
            row -= np.multiply(c4, prev2, out=tmp)
            row /= c1
            prev2, prev = prev, row
        yield out


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
    """(half the interval's length)^(alpha+beta+1): the weight's mass on it over that on (-1, 1).

    Refused where it overflows or underflows to 0; an infinite exponent's 0
    is exact, and the Jacobi matrix's check refuses it.
    """
    try:
        scale = (0.5 * (interval[1] - interval[0])) ** (idx.alpha + idx.beta + 1)
    except (OverflowError, ZeroDivisionError):  # 0 to a negative power overflows too
        scale = math.inf
    if not 0.0 < scale < math.inf and math.isfinite(idx.alpha + idx.beta):
        how = "overflows" if scale else "underflows"
        raise NumericalFailureError(f"{_rule_name(idx, n)} on {interval}: the weight's scale {how}")
    return scale


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


def _golub_welsch_nodes(idx: JacobiIndex, n: int, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Zeros of J^{a,b}_n, ascending: the eigenvalues of its n x n Jacobi matrix (diag, off)."""
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise NumericalFailureError(f"{_rule_name(idx, n)}: eigensolve failed: non-finite matrix")
    if n == 1:
        return diag
    # The eigenvectors are discarded, but the values-only path (dsterf) gives
    # nodes that differ in their last bits, and the solvers' answers are
    # sensitive to the rules at that level.  dstevd returns them ascending.
    nodes, _, info = _dstevd(diag, off)
    if info != 0:  # pragma: no cover - LAPACK failure is exotic
        raise NumericalFailureError(f"{_rule_name(idx, n)}: eigensolve failed: dstevd info={info}")
    return nodes


def _newton_steps(indices, ns: list[int]) -> np.ndarray:
    """Per-point a1..a4 that run every J^{a,b}_n and J^{a+1,b+1}_n of a batch side by side.

    Laid out flat, n points per family: the families (a, b) of indices, then
    (a+1, b+1).  A family of degree n first takes max(ns) - n steps that keep
    the state (1, 1) (a1 = a2 = 1, a3 = a4 = 0), so it ends at its degree.
    """
    ab = np.array([(idx.alpha, idx.beta) for idx in indices])
    a, b = np.concatenate([ab, ab + 1.0]).T
    degrees, steps = np.array(ns + ns), max(ns)
    # steps rows of padding, then each family's own steps; degree n takes rows n..n + steps - 1.
    table = np.zeros((4, 2 * steps, degrees.size))
    table[:2, :steps] = 1.0
    table[:, steps:] = _step_table(a, b, steps)
    table = table[:, np.arange(steps)[:, None] + degrees, np.arange(degrees.size)]
    return np.repeat(table, degrees, axis=2)


def _newton_polish(indices, ns: list[int], x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Newton iteration on each J^{a,b}_n from the zeros guessed in x, n per family, laid out flat.

    Returns the polished nodes, J^{a,b}_n' there and each family's last
    Newton step, the residual.  One flat pass runs every family side by side;
    each family stops on its own residual, so it takes the steps of its lone
    build.
    """
    total = x.size
    table = _newton_steps(indices, ns)
    # J^{a,b}_n' = (n+a+b+1)/2 * J^{a+1,b+1}_{n-1}
    scale = np.repeat([0.5 * (n + idx.alpha + idx.beta + 1) for idx, n in zip(indices, ns)], ns)
    starts = np.cumsum([0] + ns[:-1])
    residual = np.zeros(len(ns))
    active = np.ones(len(ns), dtype=bool)
    # A couple of steps reach the attainable floor.
    for _ in range(4):
        # The last block ends with the rows of degrees n - 1 and n, copied to free its buffer.
        blocks = _recurrence_blocks(table, np.concatenate([x, x]), _NEWTON_ROWS)
        prev, last = list(blocks)[-1][-2:].copy()
        step = last[:total] / (scale * prev[total:])
        x = np.where(np.repeat(active, ns), x - step, x)
        residual = np.where(active, np.maximum.reduceat(np.abs(step), starts), residual)
        active &= ~(residual < 1e-15)
        if not active.any():
            break
    # The derivative pass runs the shifted half alone.
    block = list(_recurrence_blocks(table[:, :, total:], x, _NEWTON_ROWS))[-1]
    return x, scale * block[-2], residual


def gauss_jacobi_rules(requests) -> tuple[QuadratureRule, ...]:
    """Gauss-Jacobi rules, one per (index, n, interval) request, in the order given.

    The sizes may differ.  Nodes come from the Golub-Welsch eigenproblem of
    each three-term recurrence, then all are polished together by one Newton
    pass on J^{a,b}_n, each rule stopping on its own residual.  Every rule
    has the bits of its own build.  The build is a pipeline of stages, each
    run over every request in order; the first failure raises at once:
    1. each n and interval (DomainError);
    2. each weight constant and scale, before any Jacobi matrix is built;
    3. the Jacobi matrices, in one broadcast, and each eigensolve;
    4. the Newton pass;
    5. each rule's Newton residual, its weights and QuadratureRule's checks.
    """
    requests = tuple(requests)
    if not requests:
        return ()
    for _, n, interval in requests:
        if n < 1:
            raise DomainError(f"rule size must be >= 1, got {n}")
        lo, hi = interval
        if not hi > lo:
            raise DomainError(f"empty interval {interval}")
    constants = [
        (_gauss_constant(idx, n), _weight_scale(idx, n, interval)) for idx, n, interval in requests
    ]
    indices = [idx for idx, _, _ in requests]
    ns = [n for _, n, _ in requests]
    diags, offs = _jacobi_matrices(indices, max(ns))
    nodes = [
        _golub_welsch_nodes(idx, n, diag[:n], off[: n - 1])
        for idx, n, diag, off in zip(indices, ns, diags, offs)
    ]
    x, dp, residual = _newton_polish(indices, ns, np.concatenate(nodes))
    cuts = np.cumsum(ns[:-1])
    rules = []
    for (idx, n, (lo, hi)), (constant, scale), nodes_i, dp_i, residual_i in zip(
        requests, constants, np.split(x, cuts), np.split(dp, cuts), residual
    ):
        # Written so that a NaN residual is refused too.
        if not residual_i <= 1e-13:
            raise NumericalFailureError(
                f"{_rule_name(idx, n)}: Newton stalled, max node residual {residual_i:.3e}",
                error_bound=float(residual_i),
            )
        weights = constant / ((1.0 - nodes_i * nodes_i) * dp_i * dp_i)
        mapped = lo + 0.5 * (hi - lo) * (nodes_i + 1.0)
        rules.append(QuadratureRule(mapped, weights * scale, (lo, hi), idx))
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
    every polynomial of degree <= N vanishing at the left endpoint.  An
    interval that does not start at 0 is refused: the assembly maps every
    rule's nodes from the rule's own interval, which starts at 0.
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
        # Written so that a NaN start is refused too.
        if lo != 0.0:
            raise DomainError(f"time basis interval {self.interval} must start at 0")
        if not hi > lo:
            raise DomainError(f"empty interval {self.interval}")

    def to_reference(self, t) -> np.ndarray:
        lo, hi = self.interval
        t = np.asarray(t, dtype=float)
        return (2.0 * t - (lo + hi)) / (hi - lo)


def gjp_table(basis: TimeBasis, t) -> np.ndarray:
    """Values of j_1..j_N at t, shape (N, len(t))."""
    x = np.atleast_1d(basis.to_reference(t))
    jac = jacobi_table(JacobiIndex(basis.alpha, 1.0), basis.n_modes - 1, x)
    return (1.0 + x) * jac


def gjp_deriv(basis: TimeBasis, n: int, t):
    """j_n'(t) = 2n/(hi-lo) * J^{alpha+1,0}_{n-1}(x(t))."""
    if not 1 <= n <= basis.n_modes:
        raise DomainError(f"mode index must lie in 1..{basis.n_modes}, got {n}")
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
