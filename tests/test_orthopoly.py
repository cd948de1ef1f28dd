import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_jacobi, eval_legendre

from fracspec import orthopoly
from fracspec.errors import DomainError, NumericalFailureError
from fracspec.orthopoly import (
    JacobiIndex,
    QuadratureRule,
    TimeBasis,
    gauss_jacobi_rule,
    gauss_jacobi_rules,
    gjp_deriv,
    gjp_table,
    jacobi_blocks,
    jacobi_table,
    jacobi_weight_integral,
    legendre_phi_table,
)


# ---------------------------------------------------------------------------
# Jacobi evaluation
# ---------------------------------------------------------------------------


def test_jacobi_degree_zero_is_one():
    assert jacobi_table(JacobiIndex(0, 0), 0, 0.37)[0] == [1.0]


def test_legendre_p2_hand_value():
    # P_2(x) = (3x^2 - 1)/2 by the recurrence
    assert jacobi_table(JacobiIndex(0, 0), 2, 0.5)[2] == pytest.approx([-0.125], abs=1e-15)


def test_jacobi_right_endpoint_binomial():
    # J^{a,b}_n(1) = binom(n + a, n)
    assert jacobi_table(JacobiIndex(1, 1), 1, 1.0)[1] == pytest.approx([2.0], abs=1e-15)
    assert jacobi_table(JacobiIndex(2, 0), 3, 1.0)[3] == pytest.approx([math.comb(5, 3)], rel=1e-14)


def test_jacobi_rejects_bad_index():
    with pytest.raises(DomainError):
        JacobiIndex(-1.0, 0.0)
    with pytest.raises(DomainError):
        JacobiIndex(0.0, -1.5)
    with pytest.raises(DomainError):
        jacobi_table(JacobiIndex(0, 0), -1, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-0.9, 3.0),
    b=st.floats(-0.9, 3.0),
    n=st.integers(0, 12),
    x=st.floats(-1.0, 1.0),
)
def test_jacobi_matches_scipy(a, b, n, x):
    ours = jacobi_table(JacobiIndex(a, b), n, x)[n]
    ref = eval_jacobi(n, a, b, x)
    assert ours == pytest.approx([ref], rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules
# ---------------------------------------------------------------------------


def test_one_point_legendre_rule():
    rule = gauss_jacobi_rule(JacobiIndex(0, 0), 1)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0], abs=1e-14)


def test_two_point_legendre_rule():
    rule = gauss_jacobi_rule(JacobiIndex(0, 0), 2)
    root = 1.0 / math.sqrt(3.0)
    assert rule.nodes == pytest.approx([-root, root], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)


def test_three_point_chebyshev_rule():
    rule = gauss_jacobi_rule(JacobiIndex(-0.5, -0.5), 3)
    expected = [math.cos(5 * math.pi / 6), 0.0, math.cos(math.pi / 6)]
    assert rule.nodes == pytest.approx(expected, abs=1e-15)
    assert rule.weights == pytest.approx([math.pi / 3] * 3, rel=1e-14)


def _moment(a, b, p):
    """High-precision moment of x^p against (1-x)^a (1+x)^b on (-1, 1).

    Arguments must become mpf before any arithmetic: the binomial sum
    cancels heavily and float-precision beta values poison it.
    """
    with mpmath.workdps(60):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        total = mpmath.mpf(0)
        for k in range(p + 1):
            total += (
                mpmath.binomial(p, k)
                * mpmath.mpf(2) ** k
                * (-1) ** (p - k)
                * mpmath.beta(mb + k + 1, ma + 1)
            )
        return float(mpmath.mpf(2) ** (ma + mb + 1) * total)


def _solver_indices():
    pairs = [(0.0, 0.0)]
    for d in (0.2, 0.5, 0.8):
        pairs.append((-d, 0.0))
        for r in (1, 2, 5):
            pairs.append((0.0, (1.0 - d) * r + 1.0))
    for r in (2, 5, 7):
        pairs.append((0.0, float(r - 1)))
    return pairs


@pytest.mark.parametrize("a,b", _solver_indices())
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_rule_exactness_against_beta_moments(a, b, n):
    rule = gauss_jacobi_rule(JacobiIndex(a, b), n)
    total_mass = _moment(a, b, 0)
    powers = sorted({0, 1, n, 2 * n - 2, 2 * n - 1})
    for p in powers:
        got = float(rule.weights @ rule.nodes**p)
        want = _moment(a, b, p)
        assert abs(got - want) <= 1e-13 * max(abs(want), total_mass)


# (delta, r, sigma) of the catalog problems (sigma None: no power source), plus
# the delta = 9/10 runs of scripts/run_convergence_suite.py.
_SOLVER_SETTINGS = (
    (0.5, 1, 2.0),
    (0.2, 5, 0.6),
    (0.2, 7, math.sqrt(2.0) / 2.0),
    (0.5, 6, None),
    (0.5, 5, 0.6),
    (0.9, 8, 0.6),
    (0.9, 7, math.sqrt(2.0) / 2.0),
)


def _solver_families():
    """Jacobi indices of every rule family the solvers build at those settings.

    Stiffness inner (-delta, 0) and outer (0, (1-delta)r+1); mass and callable
    load (0, r-1); per-power load (0, p+r-1) for the powers p = r(sigma-delta)
    and r*sigma of a manufactured source.
    """
    pairs = set()
    for delta, r, sigma in _SOLVER_SETTINGS:
        pairs |= {(-delta, 0.0), (0.0, (1.0 - delta) * r + 1.0), (0.0, float(r - 1))}
        if sigma is not None:
            pairs |= {(0.0, p + r - 1.0) for p in (r * (sigma - delta), r * sigma)}
    return sorted(pairs)


_REFUSED = pytest.mark.xfail(raises=NumericalFailureError)


def _envelope_cases():
    """Each family at n up to 96 (N = 80 plus twice the default guard of 8).

    The weight-sum check refuses (-0.9, 0) at n = 96, and (-0.99, 0), from
    delta = 0.99, at n = 40 (N = 32).
    """
    cases = [(a, b, n) for a, b in _solver_families() for n in (8, 48, 96)]
    cases = [pytest.param(*c, marks=_REFUSED) if c == (-0.9, 0.0, 96) else c for c in cases]
    return cases + [pytest.param(-0.99, 0.0, 40, marks=_REFUSED)]


@pytest.mark.parametrize("a, b, n", _envelope_cases())
def test_rule_envelope_of_solver_families(a, b, n):
    # Every Jacobi polynomial of degree 1..2n-1 but the n-th (zero at the nodes)
    # integrates to zero against the weight, relative to the integral of its size.
    rule = gauss_jacobi_rule(JacobiIndex(a, b), n, (0.0, 1.0))
    table = jacobi_table(JacobiIndex(a, b), 2 * n - 1, 2.0 * rule.nodes - 1.0)
    table = np.delete(table, [0, n], axis=0)
    assert np.all(np.abs(table @ rule.weights) <= 1e-12 * (np.abs(table) @ rule.weights))


# ---------------------------------------------------------------------------
# Bitwise oracle: the straightforward table-based algorithm
# ---------------------------------------------------------------------------


def _oracle_jacobi_table(a, b, n_max, x):
    """The three-term recurrence written out one row at a time."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    out[0] = 1.0
    if n_max == 0:
        return out
    out[1] = 0.5 * (a + b + 2) * x + 0.5 * (a - b)
    for n in range(1, n_max):
        c = 2 * n + a + b
        a1 = 2 * (n + 1) * (n + a + b + 1) * c
        a2 = (c + 1) * (a * a - b * b)
        a3 = c * (c + 1) * (c + 2)
        a4 = 2 * (n + a) * (n + b) * (c + 2)
        out[n + 1] = ((a2 + a3 * x) * out[n] - a4 * out[n - 1]) / a1
    return out


def _oracle_value_and_slope(a, b, n, x):
    value = _oracle_jacobi_table(a, b, n, x)[n]
    slope = 0.5 * (n + a + b + 1) * _oracle_jacobi_table(a + 1, b + 1, n - 1, x)[n - 1]
    return value, slope


def _oracle_jacobi_matrix(a, b, n):
    """Diagonal and off-diagonal of the n x n Jacobi matrix, one family at a time."""
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


def _oracle_rule(a, b, n, interval):
    """Golub-Welsch nodes, at most four Newton steps on full tables, a full re-evaluation."""
    lo, hi = interval
    diag, off = _oracle_jacobi_matrix(a, b, n)
    nodes = np.sort(eigh_tridiagonal(diag, off, lapack_driver="stevd")[0])
    for _ in range(4):
        p, dp = _oracle_value_and_slope(a, b, n, nodes)
        step = p / dp
        nodes = nodes - step
        if np.max(np.abs(step)) < 1e-15:
            break
    p, dp = _oracle_value_and_slope(a, b, n, nodes)
    if np.max(np.abs(p / dp)) > 1e-13:
        raise NumericalFailureError("Newton stalled")
    logc = (
        (a + b + 1) * math.log(2.0)
        + math.lgamma(n + a + 1)
        + math.lgamma(n + b + 1)
        - math.lgamma(n + 1)
        - math.lgamma(n + a + b + 1)
    )
    weights = math.exp(logc) / ((1.0 - nodes * nodes) * dp * dp)
    half = 0.5 * (hi - lo)
    return QuadratureRule(
        lo + half * (nodes + 1.0), weights * half ** (a + b + 1), (lo, hi), JacobiIndex(a, b)
    )


def _build(build, *args):
    try:
        return build(*args)
    except NumericalFailureError as exc:
        return type(exc)


@pytest.mark.parametrize("a, b", _solver_families())
def test_rule_bits_match_table_oracle(a, b):
    for n in range(1, 121):
        want = _build(_oracle_rule, a, b, n, (0.0, 1.0))
        got = _build(gauss_jacobi_rule, JacobiIndex(a, b), n, (0.0, 1.0))
        if isinstance(want, type):
            assert got is want, (n, got)
        else:
            assert np.array_equal(got.nodes, want.nodes), n
            assert np.array_equal(got.weights, want.weights), n


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.9, 0.0), (0.0, 4.649747468305833), (1.5, -0.3)])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 17, 97])
def test_jacobi_table_bits_match_row_loop(a, b, n_max):
    x = np.random.default_rng(n_max).uniform(-1.1, 1.1, 53)
    assert np.array_equal(jacobi_table(JacobiIndex(a, b), n_max, x), _oracle_jacobi_table(a, b, n_max, x))


@pytest.mark.parametrize("rows", [1, 2, 3, 8, 98])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 17, 97])
def test_jacobi_blocks_have_the_table_bits(n_max, rows):
    x = np.random.default_rng(n_max).uniform(-1.1, 1.1, 53)
    for a, b in [(0.0, 0.0), (-0.9, 0.0), (1.0, 0.0), (1.5, -0.3)]:
        blocks = [block.copy() for block in jacobi_blocks(JacobiIndex(a, b), n_max, x, rows)]
        assert [len(block) for block in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), _oracle_jacobi_table(a, b, n_max, x))


def test_batched_jacobi_matrices_match_lone_matrices():
    # One broadcast builds every family's matrix; its leading n x n block is
    # the family's own matrix, bit for bit.
    rng = np.random.default_rng(7)
    families = _solver_families() + [tuple(rng.uniform(-0.99, 12.0, 2)) for _ in range(12)]
    indices = [JacobiIndex(a, b) for a, b in families]
    diags, offs = orthopoly._jacobi_matrices(indices, 130)
    for (a, b), diag, off in zip(families, diags, offs):
        for n in (1, 2, 3, 17, 64, 129, 130):
            want_diag, want_off = _oracle_jacobi_matrix(a, b, n)
            assert np.array_equal(diag[:n], want_diag), (a, b, n)
            assert np.array_equal(off[: n - 1], want_off), (a, b, n)


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.5, 0.0), (0.0, 6.6000000000000005), (1.5, -0.3)])
@pytest.mark.parametrize("n", [1, 2, 3, 30])
def test_fused_rule_rows_match_table_rows(a, b, n):
    # A batch of two, laid out flat as the Newton pass lays it out: J^{a,b}
    # on n points, J^{0,2} on m, then J^{a+1,b+1} on n and J^{1,3} on m.
    # Each block reaches its own degree, whatever the block size.
    m = 31 - n
    sizes = [n, m, n, m]
    x = np.random.default_rng(n + m).uniform(-1.0, 1.0, sum(sizes))
    table = orthopoly._newton_steps([JacobiIndex(a, b), JacobiIndex(0.0, 2.0)], [n, m])
    families = [(a, b), (0.0, 2.0), (a + 1, b + 1), (1.0, 3.0)]
    cuts = np.cumsum(sizes[:-1])
    for rows in (1, 8, orthopoly._NEWTON_ROWS):
        block = list(orthopoly._recurrence_blocks(table, x, rows))[-1]
        prev, last = block[-2].copy(), block[-1].copy()
        blocks = np.split(np.stack([x, prev, last]), cuts, axis=1)
        for (fa, fb), size, (xs, prev_i, last_i) in zip(families, sizes, blocks):
            want = jacobi_table(JacobiIndex(fa, fb), size, xs)
            assert np.array_equal(prev_i, want[size - 1]), (fa, fb, rows)
            assert np.array_equal(last_i, want[size]), (fa, fb, rows)
        # The derivative pass runs the shifted half alone.
        shifted = list(orthopoly._recurrence_blocks(table[:, :, n + m :], x[n + m :], rows))[-1]
        assert np.array_equal(shifted[-2], prev[n + m :]), rows


def test_newton_pass_holds_its_step_table_and_one_block_of_rows():
    # The sizes of a solve's five-rule batch at N=80.  Beside the per-point
    # step table, 4 * max(ns) rows, the pass holds one block of
    # _NEWTON_ROWS + 2 rows at a time: not a row per step.
    requests = [
        (JacobiIndex(0.0, 4.0), 88, (0.0, 1.0)),
        (JacobiIndex(-0.5, 0.0), 88, (0.0, 1.0)),
        (JacobiIndex(0.0, 4.0), 82, (0.0, 2.0)),
        (JacobiIndex(0.0, 4.0), 42, (0.0, 2.0)),
        (JacobiIndex(0.0, 4.0), 42, (0.0, 2.0)),
    ]
    gauss_jacobi_rules(requests)
    row = 2 * sum(n for _, n, _ in requests) * 8
    tracemalloc.start()
    try:
        gauss_jacobi_rules(requests)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (4 * 88 + 2 * (orthopoly._NEWTON_ROWS + 2)) * row


@pytest.mark.parametrize("rows", [0, -1])
def test_jacobi_blocks_refuse_a_block_size_below_one(rows):
    # Refused at the call, before any row is made: not a silent empty
    # iteration, nor range()'s ValueError.
    with pytest.raises(DomainError, match=f"block size must be >= 1, got {rows}"):
        jacobi_blocks(JacobiIndex(0, 0), 5, np.linspace(-1.0, 1.0, 7), rows=rows)


def _shifted_eigensolve(shift_diag0=None):
    """An eigensolve whose nodes land 2 to the right, for the matrix with this diag[0] or for all."""
    stevd = orthopoly._dstevd

    def eigensolve(diag, off):
        nodes, vectors, info = stevd(diag, off)
        if shift_diag0 is None or diag[0] == shift_diag0:
            nodes = nodes + 2.0
        return nodes, vectors, info

    return eigensolve


def test_rule_refuses_when_newton_stalls(monkeypatch):
    # Nodes shifted outside (-1, 1) converge too slowly for four Newton steps.
    monkeypatch.setattr(orthopoly, "_dstevd", _shifted_eigensolve())
    with pytest.raises(NumericalFailureError) as info:
        gauss_jacobi_rule(JacobiIndex(-0.5, 0.0), 12, (0.0, 1.0))
    message = str(info.value)
    assert message.startswith("Gauss-Jacobi rule (alpha=-0.5, beta=0.0, n=12): Newton stalled")
    assert info.value.error_bound > 1e-13


def test_rule_refuses_a_nan_node_as_a_newton_stall(monkeypatch):
    # A NaN node makes its Newton residual NaN, which the stall check refuses
    # at the Newton stage, naming the rule.
    stevd = orthopoly._dstevd

    def eigensolve(diag, off):
        nodes, vectors, info = stevd(diag, off)
        nodes[3] = math.nan
        return nodes, vectors, info

    monkeypatch.setattr(orthopoly, "_dstevd", eigensolve)
    with pytest.raises(NumericalFailureError) as info:
        gauss_jacobi_rule(JacobiIndex(0.0, 2.0), 8)
    message = str(info.value)
    assert message.startswith("Gauss-Jacobi rule (alpha=0.0, beta=2.0, n=8): Newton stalled")
    assert math.isnan(info.value.error_bound)


def _one_at_a_time(requests):
    return tuple(gauss_jacobi_rule(*request) for request in requests)


def _outcome(build, requests):
    try:
        return [(r.nodes.tobytes(), r.weights.tobytes()) for r in build(requests)]
    except NumericalFailureError as exc:
        return type(exc), str(exc)


def _batches():
    """The stiffness pair of every solver setting, and per-power load batches of 1-3 powers."""
    batches = []
    for i, (delta, r, sigma) in enumerate(_SOLVER_SETTINGS):
        batches.append([(0.0, (1.0 - delta) * r + 1.0), (-delta, 0.0)])
        if sigma is not None:
            powers = [r * (sigma - delta), r * sigma, r * sigma + 1.3][: 1 + i % 3]
            batches.append([(0.0, p + r - 1.0) for p in powers])
    return batches


@pytest.mark.parametrize("families", _batches())
def test_batched_rules_match_one_at_a_time_builds(families):
    # Refusals included: (-0.9, 0) fails its weight-sum check from n = 96.
    indices = [JacobiIndex(a, b) for a, b in families]
    for n in range(1, 121):
        requests = [(idx, n, (0.0, 1.0)) for idx in indices]
        want = _outcome(_one_at_a_time, requests)
        assert _outcome(gauss_jacobi_rules, requests) == want, n


@pytest.mark.parametrize("seed", range(6))
def test_mixed_batches_match_one_at_a_time_builds(seed):
    # Random solver families, sizes 1..129 and three intervals per batch.
    rng = np.random.default_rng(seed)
    families = _solver_families()
    intervals = [(0.0, 1.0), (-1.0, 1.0), (0.0, 2.0 ** 0.2)]
    for _ in range(8):
        requests = [
            (JacobiIndex(*families[rng.integers(len(families))]), int(rng.integers(1, 130)),
             intervals[rng.integers(3)])
            for _ in range(rng.integers(1, 7))
        ]
        assert _outcome(gauss_jacobi_rules, requests) == _outcome(_one_at_a_time, requests), requests


def test_empty_batch_has_no_rules():
    assert gauss_jacobi_rules([]) == ()


def test_batch_checks_every_request_before_building(monkeypatch):
    monkeypatch.setattr(orthopoly, "_dstevd", None)  # any build would fail
    good = (JacobiIndex(0.0, 3.0), 12, (0.0, 1.0))
    with pytest.raises(DomainError, match="rule size must be >= 1, got 0"):
        gauss_jacobi_rules([good, (JacobiIndex(0.0, 0.0), 0, (0.0, 1.0))])
    with pytest.raises(DomainError, match=r"empty interval \(1\.0, 1\.0\)"):
        gauss_jacobi_rules([good, (JacobiIndex(0.0, 0.0), 4, (1.0, 1.0))])


def test_batch_refusal_names_the_first_failing_member(monkeypatch):
    # Each stage runs over the whole batch in request order, and the first
    # failure of the first failing stage is raised.
    stall = JacobiIndex(-0.5, 0.0)
    diag0 = _oracle_jacobi_matrix(stall.alpha, stall.beta, 12)[0][0]
    monkeypatch.setattr(orthopoly, "_dstevd", _shifted_eigensolve(diag0))
    good = (JacobiIndex(0.0, 3.0), 30, (0.0, 1.0))
    stalled = (stall, 12, (0.0, 1.0))
    name = r"Gauss-Jacobi rule \(alpha=-0\.5, beta=0\.0, n=12\): Newton stalled"
    for batch in ([good, stalled], [stalled, good]):
        with pytest.raises(NumericalFailureError, match=name):
            gauss_jacobi_rules(batch)
    assert len(gauss_jacobi_rules([good, (JacobiIndex(0.0, 3.0), 5, (0.0, 2.0))])) == 2
    # A member whose weights or Jacobi matrix overflow is refused before the
    # Newton stage, so before a stalled member earlier in the batch.
    huge = (JacobiIndex(1e154, 0.0), 7, (0.0, 1.0))
    unbounded = (JacobiIndex(math.inf, 0.0), 7, (0.0, 1.0))
    overflow = r"rule \(alpha=1e\+154, beta=0\.0, n=7\): the weights' constant overflows"
    non_finite = r"rule \(alpha=inf, beta=0\.0, n=7\): eigensolve failed: non-finite matrix"
    with np.errstate(all="ignore"):
        for member, message in ((huge, overflow), (unbounded, non_finite)):
            for batch in ([member, good], [good, member], [stalled, member]):
                with pytest.raises(NumericalFailureError, match=message):
                    gauss_jacobi_rules(batch)
        # Every weight constant is checked before any Jacobi matrix is built.
        with pytest.raises(NumericalFailureError, match=overflow):
            gauss_jacobi_rules([unbounded, huge])
        # Two failures in one stage raise in request order.
        pairs = [
            (huge, (JacobiIndex(2e154, 0.0), 7, (0.0, 1.0))),
            (unbounded, (JacobiIndex(0.0, math.inf), 7, (0.0, 1.0))),
            (stalled, (stall, 13, (0.0, 1.0))),
        ]
        for first, second in pairs:
            for a, b in ((first, second), (second, first)):
                name = re.escape(orthopoly._rule_name(a[0], a[1]))
                with pytest.raises(NumericalFailureError, match=name):
                    gauss_jacobi_rules([good, a, b])


def test_overflowing_exponent_is_refused_naming_its_rule():
    # The Jacobi matrix and the weights of J^{0,1e200} pass a float's range: a
    # typed refusal, not an OverflowError.
    name = r"Gauss-Jacobi rule \(alpha=0\.0, beta=1e\+200, n=5\)"
    with pytest.raises(NumericalFailureError, match=name):
        gauss_jacobi_rule(JacobiIndex(0.0, 1e200), 5)
    # At (1e200, 1e200) the logarithm of the weights' constant cancels to a
    # finite value, but the Jacobi matrix does not fit a float.
    name = r"Gauss-Jacobi rule \(alpha=1e\+200, beta=1e\+200, n=5\): eigensolve failed: non-finite"
    with np.errstate(all="ignore"), pytest.raises(NumericalFailureError, match=name):
        gauss_jacobi_rule(JacobiIndex(1e200, 1e200), 5)
    # The nodes and weights of J^{600,600} are fine, but the closed-form mass
    # of its weight, 2^1201 B(601, 601), overflows on the way.
    name = r"Gauss-Jacobi rule \(alpha=600\.0, beta=600\.0, n=5\): the weight's mass overflows"
    with pytest.raises(NumericalFailureError, match=name):
        gauss_jacobi_rule(JacobiIndex(600.0, 600.0), 5)


def test_rule_affine_mapping():
    # weights scale by ((hi-lo)/2)^(a+b+1), nodes map affinely
    idx = JacobiIndex(-0.4, 2.0)
    base = gauss_jacobi_rule(idx, 6)
    mapped = gauss_jacobi_rule(idx, 6, (0.0, 3.0))
    assert mapped.nodes == pytest.approx(1.5 * (base.nodes + 1.0), rel=1e-14)
    assert mapped.weights == pytest.approx(base.weights * 1.5 ** (idx.alpha + idx.beta + 1), rel=1e-13)
    assert mapped.weights.sum() == pytest.approx(
        jacobi_weight_integral(idx) * 1.5 ** (idx.alpha + idx.beta + 1), rel=1e-13
    )


def test_rule_construction_is_deterministic():
    r1 = gauss_jacobi_rule(JacobiIndex(-0.5, 4.0), 17, (0.0, 1.0))
    r2 = gauss_jacobi_rule(JacobiIndex(-0.5, 4.0), 17, (0.0, 1.0))
    assert np.array_equal(r1.nodes, r2.nodes)
    assert np.array_equal(r1.weights, r2.weights)


def test_rule_rejects_invalid_requests():
    with pytest.raises(DomainError):
        gauss_jacobi_rule(JacobiIndex(0, 0), 0)
    with pytest.raises(DomainError):
        gauss_jacobi_rule(JacobiIndex(0, 0), 3, (1.0, 1.0))


def test_quadrature_rule_invariants_enforced():
    good = gauss_jacobi_rule(JacobiIndex(0, 0), 3)
    with pytest.raises(NumericalFailureError):
        QuadratureRule(good.nodes[::-1].copy(), good.weights, (-1.0, 1.0), good.index)
    with pytest.raises(NumericalFailureError):
        QuadratureRule(good.nodes, -good.weights, (-1.0, 1.0), good.index)
    with pytest.raises(NumericalFailureError):
        QuadratureRule(good.nodes, 2.0 * good.weights, (-1.0, 1.0), good.index)


def test_rule_whose_weight_scale_underflows_is_refused_by_name():
    # (half the length)^(a+b+1) underflows to 0: refused in the weight-scale
    # stage, not later as weights that are not all positive.
    name = r"Gauss-Jacobi rule \(alpha=0\.0, beta=2\.0, n=5\) on \(0\.0, 1e-120\)"
    with pytest.raises(NumericalFailureError, match=name + ": the weight's scale underflows$"):
        gauss_jacobi_rule(JacobiIndex(0.0, 2.0), 5, (0.0, 1e-120))
    # A half-length of 0 to a negative power is an overflow, not a ZeroDivisionError.
    name = r"Gauss-Jacobi rule \(alpha=-0\.9, beta=-0\.9, n=3\) on \(0\.0, 5e-324\)"
    with pytest.raises(NumericalFailureError, match=name + ": the weight's scale overflows$"):
        gauss_jacobi_rule(JacobiIndex(-0.9, -0.9), 3, (0.0, 5e-324))
    # A tiny scale that stays positive still builds.
    assert gauss_jacobi_rule(JacobiIndex(0.0, 2.0), 5, (0.0, 1e-100)).weights.sum() > 0


def test_rule_on_an_overflowing_interval_is_refused():
    # (half the length)^(a+b+1) overflows a float: a typed failure, not OverflowError.
    name = r"Gauss-Jacobi rule \(alpha=0\.0, beta=2\.0, n=4\) on \(0\.0, 1e\+200\)"
    with pytest.raises(NumericalFailureError, match=name + ": the weight's scale overflows"):
        gauss_jacobi_rule(JacobiIndex(0.0, 2.0), 4, (0.0, 1e200))
    name = r"Gauss-Jacobi rule \(alpha=0\.0, beta=2\.0, n=2\) on \(0\.0, 1e\+200\)"
    with pytest.raises(NumericalFailureError, match=name + ": the weight's scale overflows"):
        QuadratureRule(
            np.array([1e199, 5e199]), np.ones(2), (0.0, 1e200), JacobiIndex(0.0, 2.0)
        )


# ---------------------------------------------------------------------------
# Boundary-adapted basis
# ---------------------------------------------------------------------------


def test_gjp_vanishes_at_left_endpoint_exactly():
    basis = TimeBasis(0.3, 12, (0.0, 2.0 ** (1 / 5)))
    assert np.all(gjp_table(basis, 0.0) == 0.0)


def test_gjp_right_endpoint_value_two():
    for alpha in (0.0, 0.7, -0.4):
        basis = TimeBasis(alpha, 3, (0.0, 1.3))
        assert gjp_table(basis, 1.3)[0, 0] == pytest.approx(2.0, abs=1e-14)


def test_gjp_midpoint_second_mode():
    basis = TimeBasis(0.0, 2, (0.0, 2.0))
    # (1 + 0) * J^{0,1}_1(0), and J^{0,1}_1(x) = (3x - 1)/2
    assert gjp_table(basis, 1.0)[1, 0] == pytest.approx(-0.5, abs=1e-15)


def test_gjp_mode_zero_rejected():
    basis = TimeBasis(0.0, 4, (0.0, 1.0))
    with pytest.raises(DomainError):
        gjp_deriv(basis, 0, 0.5)
    with pytest.raises(DomainError):
        gjp_deriv(basis, 5, 0.5)


def test_gjp_deriv_constant_first_mode():
    basis = TimeBasis(0.4, 2, (0.0, 2.0))
    for t in (0.0, 0.7, 2.0):
        assert gjp_deriv(basis, 1, t) == pytest.approx(1.0, abs=1e-15)
    b = 2.0 ** (1 / 3)
    basis = TimeBasis(0.0, 1, (0.0, b))
    assert gjp_deriv(basis, 1, 0.3) == pytest.approx(2.0 / b, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.0, 0.5, -0.3])
def test_gjp_deriv_matches_finite_difference(alpha):
    basis = TimeBasis(alpha, 10, (0.0, 1.7))
    h = 1e-6
    for n in range(1, 11):
        for t in (0.21, 0.9, 1.5):
            fd = (gjp_table(basis, t + h)[n - 1, 0] - gjp_table(basis, t - h)[n - 1, 0]) / (2 * h)
            exact = gjp_deriv(basis, n, t)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.0, 0.35, -0.45])
def test_gjp_orthogonality(alpha):
    # The (alpha,-1)-weighted products reduce to the (alpha,1) family after
    # dividing the boundary factor out twice; the rule then sees a polynomial.
    b = 2.0 ** (1 / 3)
    basis = TimeBasis(alpha, 8, (0.0, b))
    rule = gauss_jacobi_rule(JacobiIndex(alpha, 1.0), 16, (0.0, b))
    x = (2.0 * rule.nodes - b) / b
    table = gjp_table(basis, rule.nodes) / (1.0 + x)
    gram = (table * rule.weights) @ table.T
    scale = np.max(np.abs(np.diag(gram)))
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-0.9, 2.0), n=st.integers(1, 9), b=st.floats(0.5, 3.0))
def test_gjp_boundary_zero_property(alpha, n, b):
    basis = TimeBasis(alpha, n, (0.0, b))
    assert gjp_table(basis, 0.0)[n - 1, 0] == 0.0


def test_gjp_spans_polynomials_vanishing_at_origin():
    # any degree-N polynomial with p(0) = 0 has an exact representation
    rng = np.random.default_rng(7)
    n = 7
    b = 1.9
    basis = TimeBasis(0.25, n, (0.0, b))
    coeffs = rng.standard_normal(n)  # p(t) = t * q(t), deg q = n-1
    p = lambda t: np.asarray(t) * np.polyval(coeffs, np.asarray(t))
    nodes = 0.5 * b * (1.0 + np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    table = gjp_table(basis, nodes)
    rep = np.linalg.solve(table.T, p(nodes))
    check = np.linspace(0.0, b, 33)
    assert np.max(np.abs(rep @ gjp_table(basis, check) - p(check))) <= 1e-10


# ---------------------------------------------------------------------------
# Dirichlet Legendre combinations
# ---------------------------------------------------------------------------


def test_phi_boundary_zeros_exact():
    assert np.all(legendre_phi_table(7, [-1.0, 1.0]) == 0.0)


def test_phi_center_value():
    # L_0(0) = 1, L_2(0) = -1/2
    assert legendre_phi_table(2, 0.0)[0] == pytest.approx([3.0 / (2.0 * math.sqrt(6.0))], rel=1e-15)


def test_phi_table_shape_and_consistency():
    x = np.linspace(-1, 1, 11)
    table = legendre_phi_table(6, x)
    assert table.shape == (5, 11)
    for k in range(5):
        want = (eval_legendre(k, x) - eval_legendre(k + 2, x)) / math.sqrt(4 * k + 6)
        assert table[k] == pytest.approx(want, abs=1e-15)
        assert np.array_equal(legendre_phi_table(k + 2, x)[k], table[k])
    with pytest.raises(DomainError):
        legendre_phi_table(1, x)
