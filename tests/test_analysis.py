import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracspec.analysis import (
    LINF_GRID,
    ConvergenceStudy,
    ErrorReport,
    error_l2,
    error_linf,
    pde_errors_at_final_time,
    run_convergence_study,
)
from fracspec.errors import DomainError, NumericalFailureError, StudyError
from fracspec.frac_ops import PowerSum, TransformSpec
from fracspec.ode_solver import TimeProblem, solve, solve_nested
from fracspec.orthopoly import TimeBasis


def example1_problem(delta=0.5):
    spec = TransformSpec(1, 2.0)
    return TimeProblem.manufactured(PowerSum(((1.0, 2.0),)), delta, 1.0, spec)


def example2a_problem():
    spec = TransformSpec(5, 2.0)
    return TimeProblem.manufactured(PowerSum(((1.0, 0.6),)), 0.2, 1.0, spec)


def example2b_problem(delta=0.2):
    spec = TransformSpec(7, 2.0)
    return TimeProblem.manufactured(PowerSum(((1.0, math.sqrt(2.0) / 2.0),)), delta, 1.0, spec)


def example3_problem(r=6, delta=0.5):
    spec = TransformSpec(r, 2.0)
    return TimeProblem.from_source(np.sin, delta, 1.0, spec)


def solve_at(problem, n):
    return solve(problem, TimeBasis(0.0, n, (0.0, problem.transform.b_psi)))


# ---------------------------------------------------------------------------
# Error measures
# ---------------------------------------------------------------------------


def test_linf_of_solution_against_itself_is_zero():
    sol = solve_at(example1_problem(), 4)
    assert error_linf(sol, sol.evaluate) == 0.0


def test_linf_constant_offset_is_the_offset():
    sol = solve_at(example1_problem(), 4)
    c = 0.37
    assert error_linf(sol, lambda s: sol.evaluate(s) + c) == pytest.approx(c, rel=1e-15)


def test_linf_example1_machine_accuracy():
    sol = solve_at(example1_problem(0.5), 4)
    assert error_linf(sol, PowerSum(((1.0, 2.0),))) <= 1e-13


def test_linf_grid_validation():
    # The max norm samples the LINF_GRID-point uniform grid, both endpoints included.
    sol = solve_at(example1_problem(), 2)
    seen = []

    def exact(s):
        seen.append(np.array(s))
        return sol.evaluate(s)

    assert error_linf(sol, exact) == 0.0
    assert len(seen) == 1
    assert np.array_equal(seen[0], np.linspace(0.0, sol.transform.horizon_T, LINF_GRID))


def test_l2_identical_functions():
    sol = solve_at(example1_problem(), 4)
    assert error_l2(sol, sol.evaluate) <= 1e-15


def test_l2_example1_high_delta():
    sol = solve_at(example1_problem(0.9), 2)
    assert error_l2(sol, PowerSum(((1.0, 2.0),))) <= 1e-12


def test_l2_of_known_polynomial_difference():
    # exact = u_N + p with p(s) = s - s^2/2; ||p||^2 = T^3/3 - T^4/4 + T^5/20
    sol = solve_at(example1_problem(), 4)
    p = lambda s: np.asarray(s) - 0.5 * np.asarray(s) ** 2
    T = 2.0
    norm_sq = T**3 / 3.0 - T**4 / 4.0 + T**5 / 20.0
    got = error_l2(sol, lambda s: sol.evaluate(s) + p(s))
    assert got == pytest.approx(math.sqrt(norm_sq), rel=1e-12)


def test_l2_weighted_variant_agrees_analytically():
    # the rescaled-variable weighted norm equals the physical-variable norm;
    # only the sampling differs
    prob = example2a_problem()
    sol = solve_at(prob, 6)
    exact = PowerSum(((1.0, 0.6),))
    plain = error_l2(sol, exact, weighted=False)
    weighted = error_l2(sol, exact, weighted=True)
    assert weighted == pytest.approx(plain, rel=1e-6, abs=1e-13)


@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_l2_rules_agree_bit_for_bit_at_r_1(delta, n):
    # At r = 1, psi is the identity, so the weighted rule samples the same
    # points with the same weights as the plain one.
    sol = solve_at(example1_problem(delta), n)
    exact = PowerSum(((1.0, 2.0),))
    assert error_l2(sol, exact, weighted=True) == error_l2(sol, exact)


def _adaptive_l2(sol, exact):
    """L2(0, T) error by adaptive quadrature of the squared error in t against psi'(t) dt."""
    transform = sol.transform

    def squared(t):
        s = transform.psi(np.array([t]))
        diff = sol.evaluate(s)[0] - exact(s)[0]
        return float(diff * diff * transform.psi_prime(np.array([t]))[0])

    value, _ = quad(squared, 0.0, transform.b_psi, limit=200, epsabs=0.0, epsrel=1e-8)
    return math.sqrt(value)


EXAMPLE2B_EXACT = PowerSum(((1.0, math.sqrt(2.0) / 2.0),))


def test_weighted_l2_matches_an_adaptive_reference():
    for n in (6, 8):
        sol = solve_at(example2b_problem(), n)
        want = _adaptive_l2(sol, EXAMPLE2B_EXACT)
        assert error_l2(sol, EXAMPLE2B_EXACT, weighted=True) == pytest.approx(want, rel=1e-6)


@pytest.mark.xfail(
    raises=AssertionError, reason="the plain rule in s reads 10-17% low at r = 7 (ROADMAP item 16)"
)
def test_plain_l2_matches_an_adaptive_reference():
    for n in (6, 8):
        sol = solve_at(example2b_problem(), n)
        want = _adaptive_l2(sol, EXAMPLE2B_EXACT)
        assert error_l2(sol, EXAMPLE2B_EXACT) == pytest.approx(want, rel=1e-2)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="the uniform s-grid samples no point inside (0, T/1000) (ROADMAP item 16)",
)
def test_linf_sees_the_error_near_the_origin():
    # At r = 7 the first s-cell holds 37% of the t-interval; the max of the
    # error sits near s = 1e-9, and error_linf reads 2.25e-12 against 8.46e-10.
    prob = example2b_problem()
    sol = solve_at(prob, 16)
    s = prob.transform.psi(np.linspace(0.0, prob.transform.b_psi, 20001))
    t_uniform = float(np.max(np.abs(sol.evaluate(s) - EXAMPLE2B_EXACT(s))))
    assert error_linf(sol, EXAMPLE2B_EXACT) >= 0.1 * t_uniform


def test_error_report_sanity_bound():
    # L2 <= sqrt(measure) * Linf on every study row
    study = run_convergence_study(example1_problem(), PowerSum(((1.0, 2.0),)), (2, 4, 8))
    for row in study.reports:
        assert row.l2_error <= math.sqrt(2.0) * row.linf_error + 1e-15
    with pytest.raises(DomainError):
        ErrorReport(4, -1.0, 0.0, 1.0)


@pytest.mark.parametrize("linf, l2", [(math.nan, 0.0), (0.0, math.nan)])
def test_error_report_refuses_nan(linf, l2):
    with pytest.raises(DomainError, match="errors must be nonnegative"):
        ErrorReport(4, linf, l2, 1.0)


def test_study_with_nan_exact_solution_is_refused():
    def nan_exact(s):
        return np.full_like(s, np.nan)

    with pytest.raises(StudyError, match="errors must be nonnegative, got nan, nan") as info:
        run_convergence_study(example1_problem(), nan_exact, (2, 4))
    assert isinstance(info.value.__cause__, DomainError)
    assert info.value.partial.reports == ()


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------


def test_study_example1_rows_at_machine_accuracy():
    study = run_convergence_study(example1_problem(), PowerSum(((1.0, 2.0),)), (2, 4))
    assert len(study.reports) == 2
    for row in study.reports:
        assert row.linf_error <= 1e-13
        assert row.l2_error <= 1e-13


def test_study_example2a_monotone_to_floor():
    ns = tuple(range(2, 21, 2))
    study = run_convergence_study(example2a_problem(), PowerSum(((1.0, 0.6),)), ns)
    errs = [r.l2_error for r in study.reports]
    for a, b in zip(errs, errs[1:]):
        assert b <= max(1.5 * a, 1e-12)
    assert errs[-1] <= 1e-11


def test_study_example2b_order_floor():
    # the observed order in N must clear the rate-one floor by a wide margin
    ns = (8, 16, 24)
    study = run_convergence_study(
        example2b_problem(0.9), PowerSum(((1.0, math.sqrt(2.0) / 2.0),)), ns
    )
    errs = [max(r.l2_error, 1e-15) for r in study.reports]
    order = math.log(errs[0] / errs[-1]) / math.log(ns[-1] / ns[0])
    assert order >= 1.0


def test_study_rows_strictly_ordered_and_csv_shape():
    study = run_convergence_study(
        example2b_problem(), PowerSum(((1.0, math.sqrt(2.0) / 2.0),)), (4, 8, 12)
    )
    ns = [r.n_modes for r in study.reports]
    assert ns == sorted(ns) and len(set(ns)) == len(ns)
    columns = study.columns()
    assert list(columns) == ["N", "linf_error", "l2_error", "runtime_ms"]
    assert columns["N"] == [4, 8, 12]
    assert [len(column) for column in columns.values()] == [3] * 4


def test_study_determinism_modulo_runtime():
    a = run_convergence_study(example2a_problem(), PowerSum(((1.0, 0.6),)), (2, 4, 6))
    b = run_convergence_study(example2a_problem(), PowerSum(((1.0, 0.6),)), (2, 4, 6))

    def strip_runtime(study):
        columns = study.columns()
        del columns["runtime_ms"]
        return columns

    assert strip_runtime(a) == strip_runtime(b)


def test_study_validation(rule_batches):
    prob = example3_problem()
    with pytest.raises(DomainError, match="reference resolution 10 must be at least twice"):
        run_convergence_study(prob, None, (4, 8), ref_n=10)
    with pytest.raises(DomainError, match="need at least one resolution"):
        run_convergence_study(prob, None, (), ref_n=60)
    with pytest.raises(DomainError, match="exactly one of exact/ref_n"):
        run_convergence_study(prob, None, (4,))  # no exact, no reference
    for ref_n in (4, 60):  # both, whether or not ref_n would pass its own check
        with pytest.raises(DomainError, match="exactly one of exact/ref_n"):
            run_convergence_study(prob, np.sin, (4, 8), ref_n=ref_n)
    with pytest.raises(DomainError, match=r"block sizes must lie in 1\.\.8, got \[0\]"):
        run_convergence_study(prob, np.sin, (0, 8))
    with pytest.raises(DomainError, match="a scalar study takes no M list"):
        run_convergence_study(prob, None, (4, 8), (4, 6), ref_n=60)
    # Every refusal comes before any rule is built.
    assert rule_batches == []


def test_study_member_failure_flags_partial_results(monkeypatch):
    import fracspec.analysis as analysis_mod

    real_solve_nested = analysis_mod.solve_nested

    def failing_solve_nested(problem, basis, sizes):
        for sol in real_solve_nested(problem, basis, sizes):
            if sol.time_basis.n_modes == 8:
                raise RuntimeError("injected member failure")
            yield sol

    monkeypatch.setattr(analysis_mod, "solve_nested", failing_solve_nested)
    with pytest.raises(StudyError) as info:
        run_convergence_study(example1_problem(), PowerSum(((1.0, 2.0),)), (2, 4, 8))
    assert info.value.partial is not None
    assert [r.n_modes for r in info.value.partial.reports] == [2, 4]


def test_study_finest_row_is_the_lone_solve():
    # The smaller rows are blocks of the assembly at the largest N, so the
    # finest row is the lone solve at that N, bit for bit.
    prob = example2b_problem()
    exact = PowerSum(((1.0, math.sqrt(2.0) / 2.0),))
    study = run_convergence_study(prob, exact, (8, 24, 16))
    assert [r.n_modes for r in study.reports] == [8, 16, 24]
    finest = solve_at(prob, 24)
    assert study.reports[-1].linf_error == error_linf(finest, exact)
    assert study.reports[-1].l2_error == error_l2(finest, exact)


@pytest.mark.parametrize(
    "exact, weighted",
    [
        (PowerSum(((1.0, math.sqrt(2.0) / 2.0),), constant=0.5), False),
        (PowerSum(((1.0, math.sqrt(2.0) / 2.0),)), True),
    ],
    ids=["initial-value", "weighted-l2"],
)
def test_every_study_row_is_the_error_of_its_block(exact, weighted):
    # Rows are measured on tables built at the largest N; each must equal the
    # errors of its own solve_nested block, measured alone, bit for bit.
    prob = TimeProblem.manufactured(exact, 0.2, 1.0, TransformSpec(7, 2.0))
    n_values = (4, 8, 16, 24)
    study = run_convergence_study(prob, exact, n_values, weighted_l2=weighted)
    blocks = solve_nested(prob, TimeBasis(0.0, 24, (0.0, prob.transform.b_psi)), n_values)
    for report, sol in zip(study.reports, blocks, strict=True):
        assert report.linf_error == error_linf(sol, exact)
        assert report.l2_error == error_l2(sol, exact, weighted=weighted)


def test_study_builds_its_tables_once_whatever_its_row_count(monkeypatch):
    import fracspec.ode_solver as ode_mod

    real_gjp_table = ode_mod.gjp_table
    builds = []

    def counting_gjp_table(basis, t):
        builds.append((basis.n_modes, len(t)))
        return real_gjp_table(basis, t)

    monkeypatch.setattr(ode_mod, "gjp_table", counting_gjp_table)
    exact = PowerSum(((1.0, 2.0),))
    per_study = []
    for n_values in ((8, 16, 24), tuple(range(2, 25, 2))):
        builds.clear()
        run_convergence_study(example1_problem(), exact, n_values)
        per_study.append(sorted(builds))
    # One table per set of error points, at the largest N, for 3 rows as for 12.
    assert per_study == [[(24, 200), (24, 1001)]] * 2


def test_study_refused_block_names_its_size_and_keeps_earlier_rows():
    # example2b's r = 7 system is refused by the condition guard at N = 80
    # (estimate near 7e16); the block at N = 40 answers first.
    exact = PowerSum(((1.0, math.sqrt(2.0) / 2.0),))
    with pytest.raises(StudyError, match=r"linear solve failed \(delta=0\.2, r=7, N=80\)") as info:
        run_convergence_study(example2b_problem(), exact, (40, 80))
    assert [r.n_modes for r in info.value.partial.reports] == [40]


def test_study_failing_at_its_assembly_has_no_partial_rows():
    prob = TimeProblem.manufactured(
        PowerSum(((1.0, 2.0),)), 0.5, 1.0, TransformSpec(1, 1e200)
    )
    with pytest.raises(StudyError, match=r"assembly failed \(delta=0\.5, r=1, N=4\)") as info:
        run_convergence_study(prob, PowerSum(((1.0, 2.0),)), (2, 4))
    assert info.value.partial.reports == ()


def test_resolution_ordering_enforced():
    rows = (
        ErrorReport(4, 1e-3, 1e-3, 1.0),
        ErrorReport(4, 1e-4, 1e-4, 1.0),
    )
    with pytest.raises(DomainError):
        ConvergenceStudy(rows)


# ---------------------------------------------------------------------------
# Self-reference studies (unknown exact solution)
# ---------------------------------------------------------------------------


def test_reference_solution_errors_vanish_against_itself():
    prob = example3_problem()
    ref = solve_at(prob, 24)
    sol = solve_at(prob, 24)
    assert error_linf(sol, ref.evaluate) <= 1e-13


def test_reference_study_assembles_once_and_builds_one_table_per_point_set(
    monkeypatch, rule_batches
):
    import fracspec.ode_solver as ode_mod

    real_gjp_table = ode_mod.gjp_table
    builds = []

    def counting_gjp_table(basis, t):
        builds.append((basis.n_modes, len(t)))
        return real_gjp_table(basis, t)

    monkeypatch.setattr(ode_mod, "gjp_table", counting_gjp_table)
    run_convergence_study(example3_problem(), None, (4, 8, 12), ref_n=24)
    # The reference and the three rows come from one rule batch, and the
    # reference values and every row are read from the same tables.
    assert len(rule_batches) == 1
    assert sorted(builds) == [(24, 200), (24, 1001)]


@pytest.mark.parametrize("weighted", [False, True], ids=["plain-l2", "weighted-l2"])
def test_reference_study_rows_are_its_blocks_against_the_lone_reference(monkeypatch, weighted):
    import fracspec.analysis as analysis_mod

    real_solve_nested = analysis_mod.solve_nested
    drawn = []

    def recording_solve_nested(problem, basis, sizes):
        for sol in real_solve_nested(problem, basis, sizes):
            drawn.append(sol)
            yield sol

    monkeypatch.setattr(analysis_mod, "solve_nested", recording_solve_nested)
    prob = example3_problem()
    n_values = (4, 8, 12)
    study = run_convergence_study(prob, None, n_values, ref_n=24, weighted_l2=weighted)
    reference = solve_at(prob, 24)
    # The first draw is the reference: the lone solve at ref_n, bit for bit.
    assert drawn[0].time_basis == reference.time_basis
    assert np.array_equal(drawn[0].V, reference.V)
    blocks = solve_nested(prob, TimeBasis(0.0, 24, (0.0, prob.transform.b_psi)), n_values)
    for report, sol in zip(study.reports, blocks, strict=True):
        assert report.linf_error == error_linf(sol, reference.evaluate)
        assert report.l2_error == error_l2(sol, reference.evaluate, weighted=weighted)


def test_refused_reference_names_its_size_and_yields_no_rows():
    # The r = 7, delta = 0.2 system is refused by the condition guard at N = 80.
    # The refusal is the reference's own, not a StudyError, so no row exists.
    with pytest.raises(NumericalFailureError, match=r"linear solve failed \(delta=0\.2, r=7, N=80\)"):
        run_convergence_study(example3_problem(7, 0.2), None, (4, 8), ref_n=80)


def test_example3_reference_study_decays():
    prob = example3_problem(6)
    study = run_convergence_study(prob, None, tuple(range(4, 25, 4)), ref_n=60)
    errs = [r.linf_error for r in study.reports]
    for a, b in zip(errs, errs[1:]):
        assert b <= max(1.5 * a, 1e-12)
    assert errs[-1] <= 1e-9


def test_example3_rescaling_beats_identity_transform():
    ns = tuple(range(4, 25, 4))
    smooth = run_convergence_study(example3_problem(6), None, ns, ref_n=60)
    classical = run_convergence_study(example3_problem(1), None, ns, ref_n=60)
    assert smooth.reports[-1].linf_error <= 1e-3 * classical.reports[-1].linf_error


# ---------------------------------------------------------------------------
# Space-time studies
# ---------------------------------------------------------------------------


def test_pde_study_rows_and_errors():
    from fracspec.pde_solver import manufactured_sine_power

    spec = TransformSpec(5, 2.0)
    prob, exact = manufactured_sine_power(0.5, spec, 0.6, dimension=2)
    study = run_convergence_study(prob, exact, (12, 12, 12), (6, 8, 10))
    columns = study.columns()
    assert list(columns) == ["N", "M", "linf_error", "l2_error", "runtime_ms"]
    assert (columns["N"], columns["M"]) == ([12, 12, 12], [6, 8, 10])
    errs = columns["linf_error"]
    assert errs[2] < errs[1] < errs[0]
    with pytest.raises(DomainError):
        run_convergence_study(prob, exact, (12,), (6, 8))
    with pytest.raises(DomainError, match="a space-time study has no weighted L2 error"):
        run_convergence_study(prob, exact, (12,), (6,), weighted_l2=True)


@pytest.mark.parametrize(
    "n_values, m_values, with_exact, message",
    [
        ((), (), True, "need at least one resolution"),
        ((0, 4), (4, 6), True, r"pairs must lie in 1\.\.4 x 2\.\.6, got \[\(0, 4\)\]"),
        ((4, 6), (1, 6), True, r"pairs must lie in 1\.\.6 x 2\.\.6, got \[\(4, 1\)\]"),
        ((4, 6), (4, 6), False, "a space-time study needs the exact solution"),
        ((10, 6), (10, 6), True, "resolutions must be strictly increasing"),
        ((0, 0), (4, 6), True, "need at least one mode, got 0"),
        ((4, 6), (1, 1), True, "need polynomial degree >= 2, got 1"),
    ],
    ids=[
        "empty", "zero-N", "degree-one-M", "no-exact", "unordered", "zero-last-N",
        "degree-one-last-M",
    ],
)
def test_pde_study_rejects_unordered_resolutions_before_solving(
    rule_batches, n_values, m_values, with_exact, message
):
    from fracspec.pde_solver import manufactured_sine_power

    prob, exact = manufactured_sine_power(0.5, TransformSpec(5, 2.0), 0.6, dimension=2)
    with pytest.raises(DomainError, match=message):
        run_convergence_study(prob, exact if with_exact else None, n_values, m_values)
    assert rule_batches == []


def failing_mode_solve(monkeypatch, call, exc):
    """Make the call-th mode stage of the space-time solver raise exc; returns the call list."""
    import fracspec.pde_solver as pde_mod

    real_solve_modes = pde_mod._solve_modes
    calls = []

    def solve_modes(*args):
        calls.append(args[3].shape)
        if len(calls) == call:
            raise exc
        return real_solve_modes(*args)

    monkeypatch.setattr(pde_mod, "_solve_modes", solve_modes)
    return calls


def test_pde_study_member_failure_keeps_its_first_row(monkeypatch):
    from fracspec.pde_solver import manufactured_sine_power

    calls = failing_mode_solve(monkeypatch, 2, RuntimeError("injected member failure"))
    prob, exact = manufactured_sine_power(0.5, TransformSpec(5, 2.0), 0.6, dimension=2)
    with pytest.raises(StudyError, match="injected member failure") as info:
        run_convergence_study(prob, exact, (6, 8, 10), (4, 6, 8))
    # Each row's mode stage works on its own leading block of the load.
    assert calls == [(6, 3, 3), (8, 5, 5)]
    [row] = info.value.partial.reports
    assert (row.n_modes, row.m_modes) == (6, 4)
    assert row.linf_error > 0.0
    assert list(info.value.partial.columns())[:2] == ["N", "M"]


def test_pde_study_builds_its_tables_and_exact_values_once_whatever_its_row_count(monkeypatch):
    import fracspec.ode_solver as ode_mod
    from fracspec.pde_solver import manufactured_sine_power

    real_gjp_table, real_phi_table = ode_mod.gjp_table, ode_mod.legendre_phi_table
    builds, exact_calls = [], []

    def counting_gjp_table(basis, t):
        builds.append(("time", basis.n_modes, len(t)))
        return real_gjp_table(basis, t)

    def counting_phi_table(m_modes, x):
        # Only evaluation tables are built here; the load's spatial rule is pde_solver's.
        builds.append(("space", m_modes, len(x)))
        return real_phi_table(m_modes, x)

    monkeypatch.setattr(ode_mod, "gjp_table", counting_gjp_table)
    monkeypatch.setattr(ode_mod, "legendre_phi_table", counting_phi_table)
    prob, exact = manufactured_sine_power(0.5, TransformSpec(5, 2.0), 0.6, dimension=2)

    def counting_exact(*grids):
        exact_calls.append(len(grids[0]))
        return exact(*grids)

    per_study = []
    for n_values in ((8, 10, 12), tuple(range(4, 13))):
        builds.clear()
        exact_calls.clear()
        run_convergence_study(prob, counting_exact, n_values, (10,) * len(n_values))
        per_study.append((sorted(builds), sorted(exact_calls)))
    # One set of tables per set of error points, at the largest (N, M), and one
    # evaluation of the exact solution each, for 3 rows as for 9.
    tables = [("space", 10, 33)] * 2 + [("space", 10, 40)] * 2 + [("time", 12, 1)] * 2
    assert per_study == [(tables, [33, 40])] * 2


def test_pde_study_refused_at_its_first_pair_is_still_space_time(monkeypatch):
    from fracspec.pde_solver import manufactured_sine_power

    failing_mode_solve(monkeypatch, 1, NumericalFailureError("synthetic", index=(0, 0)))
    prob, exact = manufactured_sine_power(0.5, TransformSpec(5, 2.0), 0.6, dimension=2)
    message = r"eigenmode solve failed at mode \(0, 0\) \(delta=0\.5, r=5, N=6, M=4\): synthetic"
    with pytest.raises(StudyError, match=message) as info:
        run_convergence_study(prob, exact, (6, 8, 10), (4, 6, 8))
    # The table is space-time because the study is, not because a row says so.
    assert info.value.partial.columns() == {
        "N": [], "M": [], "linf_error": [], "l2_error": [], "runtime_ms": []
    }


def test_pde_study_finest_row_is_the_lone_solve_bit_for_bit(monkeypatch):
    import fracspec.analysis as analysis_mod
    from fracspec.pde_solver import SpatialBasis, manufactured_sine_power, solve_spacetime

    real_nested = analysis_mod.solve_spacetime_nested
    drawn = []

    def recording_nested(*args):
        for sol in real_nested(*args):
            drawn.append(sol)
            yield sol

    monkeypatch.setattr(analysis_mod, "solve_spacetime_nested", recording_nested)
    spec = TransformSpec(5, 2.0)
    prob, exact = manufactured_sine_power(0.5, spec, 0.6, dimension=2)
    study = run_convergence_study(prob, exact, (6, 10, 12), (6, 8, 12))
    lone = solve_spacetime(prob, TimeBasis(0.0, 12, (0.0, spec.b_psi)), SpatialBasis(12, 2))
    assert [sol.V.shape for sol in drawn] == [(6, 5, 5), (10, 7, 7), (12, 11, 11)]
    assert (drawn[-1].time_basis, drawn[-1].space_basis) == (lone.time_basis, lone.space_basis)
    assert np.array_equal(drawn[-1].V, lone.V)
    finest = study.reports[-1]
    assert (finest.linf_error, finest.l2_error) == pde_errors_at_final_time(lone, exact)


def test_pde_study_rows_stay_near_the_lone_solves():
    # A row is a block of the system at the largest pair, so its stiffness and
    # load are integrated with more points than a lone solve's.  Over this
    # sweep (results/subdiffusion2d_sweepN.csv) and example4's sweep in M the
    # errors of a row and of the lone solve at its pair differed by at most
    # 7.9e-14, at N = 14.
    from fracspec.pde_solver import SpatialBasis, solve_spacetime
    from fracspec.problems import build_problem, get_entry

    prob, exact = build_problem(get_entry("example4"))
    n_values = tuple(range(2, 21, 2))
    study = run_convergence_study(prob, exact, n_values, (20,) * len(n_values))
    for row in study.reports:
        tb = TimeBasis(0.0, row.n_modes, (0.0, prob.transform.b_psi))
        lone = pde_errors_at_final_time(solve_spacetime(prob, tb, SpatialBasis(20, 2)), exact)
        assert abs(row.linf_error - lone[0]) <= 2e-13
        assert abs(row.l2_error - lone[1]) <= 2e-13


def test_a_pde_study_builds_one_rule_batch(rule_batches):
    from fracspec.pde_solver import manufactured_sine_power

    prob, exact = manufactured_sine_power(0.5, TransformSpec(5, 2.0), 0.6, dimension=2)
    run_convergence_study(prob, exact, (6, 8, 10), (4, 6, 8))
    # Stiffness pair, mass, spatial rule and one rule per time power, once.
    assert rule_batches == [4 + len(prob.rhs.time_source)]


def test_scalar_study_rejects_repeated_resolution_before_solving(rule_batches):
    with pytest.raises(DomainError, match="resolutions must be strictly increasing"):
        run_convergence_study(example1_problem(), PowerSum(((1.0, 2.0),)), (4, 4))
    # The reference at N = 80 would be refused; the order is checked first.
    with pytest.raises(DomainError, match="resolutions must be strictly increasing"):
        run_convergence_study(example3_problem(7, 0.2), None, (4, 4), ref_n=80)
    assert rule_batches == []


def test_pde_study_in_one_dimension():
    from fracspec.pde_solver import SpatialBasis, manufactured_sine_power, solve_spacetime

    spec = TransformSpec(5, 2.0)
    prob, exact = manufactured_sine_power(0.5, spec, 0.6, dimension=1)
    study = run_convergence_study(prob, exact, (12, 12, 12), (6, 8, 10))
    errs = [r.linf_error for r in study.reports]
    assert errs[2] < errs[1] < errs[0]
    sol = solve_spacetime(prob, TimeBasis(0.0, 12, (0.0, spec.b_psi)), SpatialBasis(10, 1))
    linf, l2 = pde_errors_at_final_time(sol, exact)
    xg = np.linspace(-1.0, 1.0, 33)
    assert linf == np.max(np.abs(sol.evaluate(xg, [2.0]) - exact(xg, [2.0])))
    assert (linf, l2) == (study.reports[2].linf_error, study.reports[2].l2_error)
    assert 0.0 <= l2 <= 2.0 * linf


def test_pde_errors_helper_matches_direct_evaluation():
    from fracspec.pde_solver import SpatialBasis, manufactured_sine_power, solve_spacetime

    spec = TransformSpec(5, 2.0)
    prob, exact = manufactured_sine_power(0.5, spec, 0.6, dimension=2)
    sol = solve_spacetime(
        prob, TimeBasis(0.0, 10, (0.0, spec.b_psi)), SpatialBasis(10, 2)
    )
    linf, l2 = pde_errors_at_final_time(sol, exact)
    xg = np.linspace(-1, 1, 33)
    direct = np.max(np.abs(sol.evaluate(xg, xg, [2.0]) - exact(xg, xg, [2.0])))
    assert linf == pytest.approx(direct, rel=1e-12)
    assert 0.0 <= l2 <= 2.0 * linf + 1e-15
