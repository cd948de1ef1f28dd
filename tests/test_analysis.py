import math

import numpy as np
import pytest

from fracspec.analysis import (
    LINF_GRID,
    ConvergenceStudy,
    ErrorReport,
    StudyRequest,
    error_l2,
    error_linf,
    pde_errors_at_final_time,
    run_convergence_study,
    run_pde_convergence_study,
    self_convergence_reference,
)
from fracspec.errors import DomainError, StudyError
from fracspec.frac_ops import PowerSum, TransformSpec
from fracspec.ode_solver import TimeProblem, TimeSolution, solve, solve_nested
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


def example3_problem(r=6):
    spec = TransformSpec(r, 2.0)
    return TimeProblem.from_source(np.sin, 0.5, 1.0, spec)


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


def test_error_report_sanity_bound():
    # L2 <= sqrt(measure) * Linf on every study row
    study = run_convergence_study(
        StudyRequest("example1", example1_problem(), (2, 4, 8), exact=PowerSum(((1.0, 2.0),)))
    )
    for row in study.reports:
        assert row.l2_error <= math.sqrt(2.0) * row.linf_error + 1e-15
    with pytest.raises(DomainError):
        ErrorReport(4, -1.0, 0.0, 1.0)


@pytest.mark.parametrize("linf, l2", [(math.nan, 0.0), (0.0, math.nan)])
def test_error_report_refuses_nan(linf, l2):
    with pytest.raises(DomainError, match="errors must be nonnegative"):
        ErrorReport(4, linf, l2, 1.0)


def test_study_with_nan_exact_solution_is_refused():
    request = StudyRequest("x", example1_problem(), (2, 4), exact=lambda s: np.full_like(s, np.nan))
    with pytest.raises(StudyError, match="errors must be nonnegative, got nan, nan") as info:
        run_convergence_study(request)
    assert isinstance(info.value.__cause__, DomainError)
    assert info.value.partial.reports == ()


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------


def test_study_example1_rows_at_machine_accuracy():
    study = run_convergence_study(
        StudyRequest("example1", example1_problem(), (2, 4), exact=PowerSum(((1.0, 2.0),)))
    )
    assert len(study.reports) == 2
    for row in study.reports:
        assert row.linf_error <= 1e-13
        assert row.l2_error <= 1e-13


def test_study_example2a_monotone_to_floor():
    ns = tuple(range(2, 21, 2))
    study = run_convergence_study(
        StudyRequest("example2a", example2a_problem(), ns, exact=PowerSum(((1.0, 0.6),)))
    )
    errs = [r.l2_error for r in study.reports]
    for a, b in zip(errs, errs[1:]):
        assert b <= max(1.5 * a, 1e-12)
    assert errs[-1] <= 1e-11


def test_study_example2b_order_floor():
    # the observed order in N must clear the rate-one floor by a wide margin
    ns = (8, 16, 24)
    study = run_convergence_study(
        StudyRequest(
            "example2b",
            example2b_problem(0.9),
            ns,
            exact=PowerSum(((1.0, math.sqrt(2.0) / 2.0),)),
        )
    )
    errs = [max(r.l2_error, 1e-15) for r in study.reports]
    order = math.log(errs[0] / errs[-1]) / math.log(ns[-1] / ns[0])
    assert order >= 1.0


def test_study_rows_strictly_ordered_and_csv_shape():
    study = run_convergence_study(
        StudyRequest("example2b", example2b_problem(), (4, 8, 12), exact=PowerSum(((1.0, math.sqrt(2.0) / 2.0),)))
    )
    ns = [r.n_modes for r in study.reports]
    assert ns == sorted(ns) and len(set(ns)) == len(ns)
    columns = study.columns()
    assert list(columns) == ["N", "linf_error", "l2_error", "runtime_ms"]
    assert columns["N"] == [4, 8, 12]
    assert [len(column) for column in columns.values()] == [3] * 4


def test_study_determinism_modulo_runtime():
    request = StudyRequest(
        "example2a", example2a_problem(), (2, 4, 6), exact=PowerSum(((1.0, 0.6),))
    )
    a = run_convergence_study(request)
    b = run_convergence_study(request)

    def strip_runtime(study):
        columns = study.columns()
        del columns["runtime_ms"]
        return columns

    assert strip_runtime(a) == strip_runtime(b)


def test_study_validation():
    with pytest.raises(DomainError):
        StudyRequest("x", example3_problem(), (4, 8), ref_n=10)  # < 2 * max(N)
    with pytest.raises(DomainError):
        StudyRequest("x", example3_problem(), ())
    with pytest.raises(DomainError):
        StudyRequest("x", example3_problem(), (4,))  # no exact, no reference


def test_study_member_failure_flags_partial_results(monkeypatch):
    import fracspec.analysis as analysis_mod

    real_solve_nested = analysis_mod.solve_nested

    def failing_solve_nested(problem, basis, sizes):
        for sol in real_solve_nested(problem, basis, sizes):
            if sol.basis.n_modes == 8:
                raise RuntimeError("injected member failure")
            yield sol

    monkeypatch.setattr(analysis_mod, "solve_nested", failing_solve_nested)
    request = StudyRequest(
        "bad", example1_problem(), (2, 4, 8), exact=PowerSum(((1.0, 2.0),))
    )
    with pytest.raises(StudyError) as info:
        run_convergence_study(request)
    assert info.value.partial is not None
    assert [r.n_modes for r in info.value.partial.reports] == [2, 4]


def test_study_finest_row_is_the_lone_solve():
    # The smaller rows are blocks of the assembly at the largest N, so the
    # finest row is the lone solve at that N, bit for bit.
    prob = example2b_problem()
    exact = PowerSum(((1.0, math.sqrt(2.0) / 2.0),))
    study = run_convergence_study(StudyRequest("x", prob, (8, 24, 16), exact=exact))
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
    request = StudyRequest("x", prob, n_values, exact=exact, weighted_l2=weighted)
    study = run_convergence_study(request)
    blocks = solve_nested(prob, TimeBasis(0.0, 24, (0.0, prob.transform.b_psi)), n_values)
    for report, sol in zip(study.reports, blocks, strict=True):
        assert report.linf_error == error_linf(sol, exact)
        assert report.l2_error == error_l2(sol, exact, weighted=weighted)


def test_study_builds_its_tables_once_whatever_its_row_count(monkeypatch):
    import fracspec.analysis as analysis_mod

    real_gjp_table = analysis_mod.gjp_table
    builds = []

    def counting_gjp_table(basis, t):
        builds.append((basis.n_modes, len(t)))
        return real_gjp_table(basis, t)

    monkeypatch.setattr(analysis_mod, "gjp_table", counting_gjp_table)
    exact = PowerSum(((1.0, 2.0),))
    per_study = []
    for n_values in ((8, 16, 24), tuple(range(2, 25, 2))):
        builds.clear()
        run_convergence_study(StudyRequest("x", example1_problem(), n_values, exact=exact))
        per_study.append(sorted(builds))
    # One table per set of error points, at the largest N, for 3 rows as for 12.
    assert per_study == [[(24, 200), (24, 1001)]] * 2


def test_study_refused_block_names_its_size_and_keeps_earlier_rows():
    # example2b's r = 7 system is refused by the condition guard at N = 80
    # (estimate near 7e16); the block at N = 40 answers first.
    request = StudyRequest(
        "x", example2b_problem(), (40, 80), exact=PowerSum(((1.0, math.sqrt(2.0) / 2.0),))
    )
    with pytest.raises(StudyError, match=r"linear solve failed \(delta=0\.2, r=7, N=80\)") as info:
        run_convergence_study(request)
    assert [r.n_modes for r in info.value.partial.reports] == [40]


def test_study_failing_at_its_assembly_has_no_partial_rows():
    prob = TimeProblem.manufactured(
        PowerSum(((1.0, 2.0),)), 0.5, 1.0, TransformSpec(1, 1e200)
    )
    request = StudyRequest("x", prob, (2, 4), exact=PowerSum(((1.0, 2.0),)))
    with pytest.raises(StudyError, match=r"assembly failed \(delta=0\.5, r=1, N=4\)") as info:
        run_convergence_study(request)
    assert info.value.partial.reports == ()


def test_resolution_ordering_enforced():
    rows = (
        ErrorReport(4, 1e-3, 1e-3, 1.0),
        ErrorReport(4, 1e-4, 1e-4, 1.0),
    )
    with pytest.raises(DomainError):
        ConvergenceStudy("x", rows)


# ---------------------------------------------------------------------------
# Self-reference studies (unknown exact solution)
# ---------------------------------------------------------------------------


def test_reference_solution_errors_vanish_against_itself():
    prob = example3_problem()
    ref = self_convergence_reference(prob, 24)
    sol = solve_at(prob, 24)
    assert error_linf(sol, ref.evaluate) <= 1e-13


def test_study_evaluates_its_reference_once_per_point_set(monkeypatch):
    import fracspec.analysis as analysis_mod

    real_reference = analysis_mod.self_convergence_reference
    refs, evaluations = [], []

    class CountedReference:
        def __init__(self, sol):
            self.sol = sol

        def evaluate(self, s):
            evaluations.append(len(s))
            return self.sol.evaluate(s)

    def counted_reference(*args):
        refs.append(real_reference(*args))
        return CountedReference(refs[-1])

    monkeypatch.setattr(analysis_mod, "self_convergence_reference", counted_reference)
    prob = example3_problem()
    request = StudyRequest("example3", prob, (4, 8, 12), ref_n=24)
    study = run_convergence_study(request)
    # The uniform max-norm grid and the L2 nodes, once each for three members.
    assert sorted(evaluations) == [200, 1001]
    blocks = solve_nested(prob, TimeBasis(0.0, 12, (0.0, prob.transform.b_psi)), (4, 8, 12))
    for report, sol in zip(study.reports, blocks, strict=True):
        assert report.linf_error == error_linf(sol, refs[0].evaluate)
        assert report.l2_error == error_l2(sol, refs[0].evaluate)
    # Nothing is kept across studies: a second study evaluates its own reference.
    run_convergence_study(request)
    assert len(evaluations) == 4


def test_example3_reference_study_decays():
    prob = example3_problem(6)
    study = run_convergence_study(
        StudyRequest("example3", prob, tuple(range(4, 25, 4)), ref_n=60)
    )
    errs = [r.linf_error for r in study.reports]
    for a, b in zip(errs, errs[1:]):
        assert b <= max(1.5 * a, 1e-12)
    assert errs[-1] <= 1e-9


def test_example3_rescaling_beats_identity_transform():
    ns = tuple(range(4, 25, 4))
    smooth = run_convergence_study(
        StudyRequest("example3", example3_problem(6), ns, ref_n=60)
    )
    classical = run_convergence_study(
        StudyRequest("example3", example3_problem(1), ns, ref_n=60)
    )
    assert smooth.reports[-1].linf_error <= 1e-3 * classical.reports[-1].linf_error


# ---------------------------------------------------------------------------
# Space-time studies
# ---------------------------------------------------------------------------


def test_pde_study_rows_and_errors():
    from fracspec.pde_solver import manufactured_sine_power

    spec = TransformSpec(5, 2.0)
    prob, exact = manufactured_sine_power(0.5, spec, 0.6, dimension=2)
    study = run_pde_convergence_study(
        "example4", prob, exact, (12, 12, 12), (6, 8, 10)
    )
    columns = study.columns()
    assert list(columns) == ["N", "M", "linf_error", "l2_error", "runtime_ms"]
    assert (columns["N"], columns["M"]) == ([12, 12, 12], [6, 8, 10])
    errs = columns["linf_error"]
    assert errs[2] < errs[1] < errs[0]
    with pytest.raises(DomainError):
        run_pde_convergence_study("example4", prob, exact, (12,), (6, 8))


def test_pde_study_rejects_unordered_resolutions_before_solving(monkeypatch):
    import fracspec.pde_solver as pde_mod

    real_solve_spacetime = pde_mod.solve_spacetime
    calls = []

    def counting_solve_spacetime(*args, **kwargs):
        calls.append(args)
        return real_solve_spacetime(*args, **kwargs)

    monkeypatch.setattr(pde_mod, "solve_spacetime", counting_solve_spacetime)
    prob, exact = pde_mod.manufactured_sine_power(0.5, TransformSpec(5, 2.0), 0.6, dimension=2)
    with pytest.raises(DomainError, match="resolutions must be strictly increasing"):
        run_pde_convergence_study("example4", prob, exact, (10, 6), (10, 6))
    assert calls == []


def test_scalar_study_rejects_repeated_resolution_before_solving(rule_batches):
    request = StudyRequest("x", example1_problem(), (4, 4), exact=PowerSum(((1.0, 2.0),)))
    with pytest.raises(DomainError, match="resolutions must be strictly increasing"):
        run_convergence_study(request)
    assert rule_batches == []


def test_pde_study_in_one_dimension():
    from fracspec.pde_solver import SpatialBasis, manufactured_sine_power, solve_spacetime

    spec = TransformSpec(5, 2.0)
    prob, exact = manufactured_sine_power(0.5, spec, 0.6, dimension=1)
    study = run_pde_convergence_study("sine1d", prob, exact, (12, 12, 12), (6, 8, 10))
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
