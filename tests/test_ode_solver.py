import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_load_vector, oracle_mass_matrix, oracle_stiffness_matrix
import fracspec.ode_solver as ode_mod
from fracspec.errors import DomainError, NumericalFailureError
from fracspec.frac_ops import FracOrder, PowerSum, TransformSpec
from fracspec.ode_solver import (
    TimeProblem,
    assemble_load,
    assemble_load_powers,
    assemble_mass,
    assemble_stiffness,
    assemble_time_load,
    evaluate,
    solve,
    solve_linear,
    solve_nested,
)
from fracspec.orthopoly import (
    JacobiIndex,
    TimeBasis,
    gauss_jacobi_rule,
    gauss_jacobi_rules,
    gjp_eval,
    gjp_table,
    jacobi_table,
)


def basis_for(spec, n, alpha=0.0):
    return TimeBasis(alpha, n, (0.0, spec.b_psi))


def linf_against(sol, exact, n=1001):
    s = np.linspace(0.0, sol.transform.horizon_T, n)
    return float(np.max(np.abs(sol.evaluate(s) - exact(s))))


# ---------------------------------------------------------------------------
# Stiffness
# ---------------------------------------------------------------------------


def test_stiffness_single_mode_analytic():
    # j_1(t) = t on (0,2); D^{1/2} t = 2 sqrt(t/pi), so the entry is
    # (2/sqrt(pi)) * int_0^2 t^{3/2} dt = 2^{3.5} / (2.5 sqrt(pi))
    spec = TransformSpec(1, 2.0)
    S = assemble_stiffness(basis_for(spec, 1), FracOrder(0.5), spec, 9)
    want = 2.0**3.5 / (2.5 * math.sqrt(math.pi))
    assert S[0, 0] == pytest.approx(want, rel=1e-13)
    assert S[0, 0] == pytest.approx(2.553, abs=5e-4)


@pytest.mark.parametrize("dd,r", [(0.5, 1), (0.2, 2), (0.8, 5)])
def test_stiffness_matches_nested_oracle(dd, r):
    spec = TransformSpec(r, 2.0)
    basis = basis_for(spec, 3)
    S = assemble_stiffness(basis, FracOrder(dd), spec, 3 + 8)
    S_oracle = oracle_stiffness_matrix(basis, FracOrder(dd), spec)
    scale = np.abs(S_oracle).max()
    rel = np.abs(S - S_oracle) / np.maximum(np.abs(S_oracle), 1e-3 * scale)
    assert rel.max() <= 1e-8


def test_stiffness_coercivity_sign(rng):
    for dd, r in [(0.2, 1), (0.5, 2), (0.8, 5)]:
        spec = TransformSpec(r, 2.0)
        S = assemble_stiffness(basis_for(spec, 6), FracOrder(dd), spec, 14)
        for _ in range(20):
            v = rng.standard_normal(6)
            assert v @ S @ v > 0.0


def test_stiffness_symmetric_part_near_psd():
    spec = TransformSpec(2, 2.0)
    S = assemble_stiffness(basis_for(spec, 10), FracOrder(0.5), spec, 18)
    sym = 0.5 * (S + S.T)
    eigs = np.linalg.eigvalsh(sym)
    assert eigs.min() >= -1e-10 * np.abs(S).max()


def _full_table_stiffness(basis, delta, spec, quad_n):
    """The stiffness from the whole (N, Q, Q) Jacobi table of its inner pass, in one product."""
    d, r, n_modes = delta.delta, spec.r, basis.n_modes
    outer, inner = gauss_jacobi_rules(
        [
            (JacobiIndex(0.0, (1.0 - d) * r + 1.0), quad_n, (0.0, 1.0)),
            (JacobiIndex(-d, 0.0), quad_n, (0.0, 1.0)),
        ]
    )
    eta, w = outer.nodes, outer.weights
    eta_h, w_h = inner.nodes, inner.weights
    smooth = np.ones_like(eta_h)
    if r > 1:
        acc = np.zeros_like(eta_h)
        for k in range(r):
            acc += eta_h**k
        smooth = acc ** (-d)
    args = 2.0 * np.outer(eta, eta_h) - 1.0
    jac_inner = jacobi_table(JacobiIndex(basis.alpha + 1.0, 0.0), n_modes - 1, args.ravel())
    K = jac_inner.reshape(n_modes, eta.size, eta_h.size) @ (w_h * smooth)
    jac_outer = jacobi_table(JacobiIndex(basis.alpha, 1.0), n_modes - 1, 2.0 * eta - 1.0)
    core = (jac_outer * w) @ K.T
    n_idx = np.arange(1, n_modes + 1, dtype=float)
    pref = 4.0 * n_idx * spec.horizon_T ** (1.0 - d) * r / math.gamma(1.0 - d)
    return core * pref[None, :]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 80])
@pytest.mark.parametrize("r", [1, 2, 5, 7])
@pytest.mark.parametrize("dd", [0.1, 0.5, 0.9])
def test_streamed_stiffness_has_the_full_table_bits(dd, r, n):
    # The inner pass contracts a few degrees at a time and never holds the
    # (N, Q, Q) table; every entry keeps the bits of the one-product build.
    spec = TransformSpec(r, 2.0)
    basis = basis_for(spec, n)
    quad_n = n + ode_mod.QUAD_GUARD
    S = assemble_stiffness(basis, FracOrder(dd), spec, quad_n)
    assert np.array_equal(S, _full_table_stiffness(basis, FracOrder(dd), spec, quad_n))


def test_stiffness_working_memory_does_not_grow_with_the_degree():
    # The whole inner table would be N * (N + 8)^2 values: 67.7 MiB at N=200.
    spec = TransformSpec(5, 2.0)
    basis = basis_for(spec, 200)
    tracemalloc.start()
    try:
        assemble_stiffness(basis, FracOrder(0.5), spec, 200 + ode_mod.QUAD_GUARD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_stiffness_quad_n_precondition():
    spec = TransformSpec(1, 2.0)
    with pytest.raises(DomainError):
        assemble_stiffness(basis_for(spec, 5), FracOrder(0.5), spec, 6)


# ---------------------------------------------------------------------------
# Mass
# ---------------------------------------------------------------------------


def test_mass_single_mode_exact_integral():
    # j_1(t) = t on (0,2) for every alpha, so M_11 = int_0^2 t^2 dt = 8/3
    spec = TransformSpec(1, 2.0)
    for alpha in (0.0, 0.4, -0.3):
        M = assemble_mass(basis_for(spec, 1, alpha), spec)
        assert M[0, 0] == pytest.approx(8.0 / 3.0, rel=1e-14)


def test_mass_exactly_symmetric():
    for r in (1, 3, 7):
        spec = TransformSpec(r, 2.0)
        M = assemble_mass(basis_for(spec, 9), spec)
        assert np.max(np.abs(M - M.T)) == 0.0


@pytest.mark.parametrize("r", [1, 2, 5, 7])
def test_mass_positive_definite(r):
    spec = TransformSpec(r, 2.0)
    M = assemble_mass(basis_for(spec, 20), spec)
    assert np.linalg.eigvalsh(M).min() > 0.0


def test_mass_matches_plain_gauss_oracle():
    for r in (1, 2, 5):
        spec = TransformSpec(r, 2.0)
        basis = basis_for(spec, 6)
        M = assemble_mass(basis, spec)
        M_oracle = oracle_mass_matrix(basis, spec)
        assert np.max(np.abs(M - M_oracle)) <= 1e-12 * np.abs(M_oracle).max()


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------


def test_load_of_zero():
    spec = TransformSpec(3, 2.0)
    F = assemble_load(basis_for(spec, 5), spec, lambda t: np.zeros_like(t), 12)
    assert np.all(F == 0.0)


def test_load_of_basis_function_gives_mass_column():
    spec = TransformSpec(2, 2.0)
    basis = basis_for(spec, 6)
    M = assemble_mass(basis, spec)
    for k in (1, 4):
        F = assemble_load(basis, spec, lambda t, k=k: gjp_eval(basis, k, t), 6 + 16)
        assert np.max(np.abs(F - M[:, k - 1])) <= 1e-12 * np.abs(M).max()


def test_load_sin_source_matches_oracle():
    spec = TransformSpec(5, 2.0)
    basis = basis_for(spec, 8)
    f = lambda t: np.sin(np.asarray(t, dtype=float) ** 5)
    F = assemble_load(basis, spec, f, 8 + 16)
    F_oracle = oracle_load_vector(basis, spec, f)
    assert np.max(np.abs(F - F_oracle)) <= 1e-10


def test_load_power_terms_match_oracle_including_singular():
    # includes an exponent in (-1, 0), the manufactured sub-delta regime
    spec = TransformSpec(7, 2.0)
    basis = basis_for(spec, 6)
    terms = ((1.3, -0.8), (2.0, 3.0), (0.5, 4.95))
    F = assemble_load_powers(basis, spec, terms)

    def f(t):
        t = np.asarray(t, dtype=float)
        return 1.3 * t**-0.8 + 2.0 * t**3.0 + 0.5 * t**4.95

    F_oracle = oracle_load_vector(basis, spec, f, tol=1e-12)
    assert np.max(np.abs(F - F_oracle)) <= 1e-9 * max(1.0, np.abs(F_oracle).max())
    with pytest.raises(DomainError):
        assemble_load_powers(basis, spec, ((1.0, -7.0),))


_POWER_TERMS = ((1.3, -0.8), (2.0, 3.0), (0.5, 4.95))


@pytest.mark.parametrize("count", [0, 1, 2, 3])
@pytest.mark.parametrize("r, n", [(1, 5), (7, 6), (5, 40), (7, 80)])
def test_load_powers_match_the_per_term_build(count, r, n):
    # One rule per power, its own table, the terms summed in order.
    spec = TransformSpec(r, 2.0)
    basis = basis_for(spec, n)
    terms = _POWER_TERMS[:count]
    want = np.zeros(n)
    for c, p in terms:
        rule = gauss_jacobi_rule(JacobiIndex(0.0, p + r - 1.0), n // 2 + 2, (0.0, spec.b_psi))
        want += c * r * (gjp_table(basis, rule.nodes) @ rule.weights)
    assert np.array_equal(assemble_load_powers(basis, spec, terms), want)


def test_load_power_terms_singular_weight_at_unit_r():
    # r = 1 leaves the full t^p singularity to the absorbed weight itself
    spec = TransformSpec(1, 2.0)
    basis = basis_for(spec, 5)
    terms = ((0.7, -0.5),)
    F = assemble_load_powers(basis, spec, terms)
    F_oracle = oracle_load_vector(
        basis, spec, lambda t: 0.7 * np.asarray(t, dtype=float) ** -0.5, tol=1e-11
    )
    assert np.max(np.abs(F - F_oracle)) <= 1e-8 * max(1.0, np.abs(F_oracle).max())


def test_load_with_leading_axes_stacks_the_scalar_loads():
    spec = TransformSpec(5, 2.0)
    basis = basis_for(spec, 12)
    sources = [np.sin, np.cos, lambda t: t**2.5, lambda t: np.exp(-t)]

    def stacked(t):
        return np.stack([f(t) for f in sources]).reshape(2, 2, -1)

    F = assemble_load(basis, spec, stacked, 28)
    assert F.shape == (12, 2, 2)
    for j, f in enumerate(sources):
        one = assemble_load(basis, spec, f, 28)
        # A matrix product and a matrix-vector product may round differently.
        assert np.max(np.abs(F.reshape(12, 4)[:, j] - one)) <= 8e-16 * np.max(np.abs(one))
    # One leading index of length one gives the scalar load bit for bit.
    single = assemble_load(basis, spec, lambda t: np.sin(t)[None], 28)
    assert np.array_equal(single[:, 0], assemble_load(basis, spec, np.sin, 28))


def test_load_rejects_nan_source():
    spec = TransformSpec(1, 2.0)
    with pytest.raises(ValueError):
        assemble_load(basis_for(spec, 3), spec, lambda t: np.full_like(t, np.nan), 10)


def test_solve_rejects_infinite_source():
    spec = TransformSpec(2, 1.0)
    prob = TimeProblem.from_source(lambda s: np.where(s > 0.5, np.inf, 1.0), 0.5, 1.0, spec)
    with pytest.raises(ValueError, match="NaN or inf"):
        solve(prob, basis_for(spec, 8))


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------


def test_problem_validation():
    spec = TransformSpec(1, 2.0)
    u = PowerSum(((1.0, 2.0),))
    with pytest.raises(DomainError):
        TimeProblem(FracOrder(0.5), 0.0, spec, exact=u)
    with pytest.raises(DomainError):
        TimeProblem(FracOrder(0.5), 1.0, spec)
    with pytest.raises(DomainError):
        TimeProblem(FracOrder(0.5), 1.0, spec, source=np.sin, exact=u)
    with pytest.raises(DomainError):
        TimeProblem(FracOrder(0.5), 1.0, spec, exact=u, phi=1.0)
    # A non-finite lam is refused here, not at the linear solve.
    for lam in (math.inf, math.nan):
        with pytest.raises(DomainError, match="lam must be positive and finite"):
            TimeProblem(FracOrder(0.5), lam, spec, exact=u)


@pytest.mark.parametrize(
    "terms, delta, lam, r, expected",
    [
        # D^0.2 s^0.6 -> coefficient Gamma(1.6)/Gamma(1.4) at t-power 5*(0.6-0.2),
        # plus lambda * u at t-power 5*0.6
        (((1.0, 0.6),), 0.2, 2.0, 5, [(math.gamma(1.6) / math.gamma(1.4), 2.0), (2.0, 3.0)]),
        # u = 2 s^2 + 0.5 s^0.7: each term of u gives its Caputo monomial, then
        # its reaction monomial, in the order of u's terms
        (
            ((2.0, 2.0), (0.5, 0.7)),
            0.2,
            3.0,
            4,
            [
                (2.0 * math.gamma(3.0) / math.gamma(2.8), 7.2),
                (6.0, 8.0),
                (0.5 * math.gamma(1.7) / math.gamma(1.5), 2.0),
                (1.5, 2.8),
            ],
        ),
    ],
    ids=["one-term", "two-term"],
)
def test_manufactured_source_terms(terms, delta, lam, r, expected):
    prob = TimeProblem.manufactured(PowerSum(terms), delta, lam, TransformSpec(r, 2.0))
    source = prob.time_source
    assert len(source) == len(expected)
    for (c, p), (c_ref, p_ref) in zip(source, expected):
        assert p == pytest.approx(p_ref, rel=1e-14)
        assert c == pytest.approx(c_ref, rel=1e-15)


# ---------------------------------------------------------------------------
# Solve + evaluate
# ---------------------------------------------------------------------------


def test_solve_smooth_solution_table_values():
    spec = TransformSpec(1, 2.0)
    u = PowerSum(((1.0, 2.0),))
    for dd, n in [(0.5, 4), (0.1, 2)]:
        prob = TimeProblem.manufactured(u, dd, 1.0, spec)
        sol = solve(prob, basis_for(spec, n))
        assert linf_against(sol, u) <= 1e-13


def test_solve_rescaled_cubic_exact():
    # u = s^(3/5) with gamma = 1/5 rescales to t^3, inside the space for N >= 3
    spec = TransformSpec(5, 2.0)
    u = PowerSum(((1.0, 0.6),))
    for n in (3, 5, 9):
        prob = TimeProblem.manufactured(u, 0.35, 1.0, spec)
        sol = solve(prob, basis_for(spec, n))
        assert linf_against(sol, u) <= 1e-12


def test_solve_rescaled_power_alternative_exponent():
    # u = s^(3/5) with gamma = 1/8 rescales to t^4.8: not polynomial, but
    # still converges spectrally
    spec = TransformSpec(8, 2.0)
    u = PowerSum(((1.0, 0.6),))
    errs = []
    for n in (4, 8, 16):
        sol = solve(TimeProblem.manufactured(u, 0.9, 1.0, spec), basis_for(spec, n))
        errs.append(linf_against(sol, u))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 1e-8


def test_solve_polynomial_families_reproduced():
    # u = sum of s^(k*gamma*m) powers whose rescaling is a polynomial
    spec = TransformSpec(3, 2.0)
    u = PowerSum(((2.0, 2.0 / 3.0), (1.0, 4.0 / 3.0)))  # v(t) = 2 t^2 + t^4
    prob = TimeProblem.manufactured(u, 0.6, 1.0, spec)
    sol = solve(prob, basis_for(spec, 5))
    assert linf_against(sol, u) <= 1e-11


@settings(max_examples=25, deadline=None)
@given(
    r=st.integers(1, 4),
    delta=st.floats(0.1, 0.9),
    monomials=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
)
def test_polynomial_rescalings_are_reproduced(r, delta, monomials):
    # whenever the rescaled solution is a polynomial inside the trial space,
    # the discrete solution reproduces it to roundoff
    spec = TransformSpec(r, 2.0)
    u = PowerSum(tuple((1.0, m / r) for m in monomials))
    n = max(monomials) + 1
    sol = solve(TimeProblem.manufactured(u, delta, 1.0, spec), basis_for(spec, n))
    assert linf_against(sol, u) <= 1e-9


def test_solve_with_non_default_horizon():
    spec = TransformSpec(1, 3.0)
    u = PowerSum(((1.0, 2.0),))
    sol = solve(TimeProblem.manufactured(u, 0.5, 2.0, spec), basis_for(spec, 4))
    assert linf_against(sol, u) <= 1e-12
    spec5 = TransformSpec(5, 1.3)
    u2 = PowerSum(((1.0, 0.6),))
    sol2 = solve(TimeProblem.manufactured(u2, 0.3, 1.0, spec5), basis_for(spec5, 4))
    assert linf_against(sol2, u2) <= 1e-12


@pytest.mark.parametrize(
    "interval",
    [(0.0, 1.0), (0.0, 2.0), (0.1, 2.0 ** 0.2), (0.0, math.inf), (-math.inf, 2.0 ** 0.2)],
    ids=["unit", "T", "shifted", "unbounded", "unbounded-below"],
)
def test_solve_refuses_a_basis_on_another_interval(interval):
    # The stiffness is that of the basis on (0, T^gamma); mass, load and
    # evaluation use the basis's own interval.  On (0, 1) the solve used to
    # return a roundoff residual and a max error of 0.27.
    spec = TransformSpec(5, 2.0)
    prob = TimeProblem.manufactured(PowerSum(((1.0, 0.6),)), 0.2, 1.0, spec)
    with pytest.raises(DomainError, match=r"time basis interval .* must be \(0, T\^gamma\)"):
        solve(prob, TimeBasis(0.0, 12, interval))
    # An end within 1e-12 relative of T^gamma is the same interval.
    sol = solve(prob, TimeBasis(0.0, 12, (0.0, spec.b_psi * (1 + 1e-13))))
    assert linf_against(sol, PowerSum(((1.0, 0.6),))) <= 1e-12


def test_evaluate_round_trip_points():
    spec = TransformSpec(1, 2.0)
    u = PowerSum(((1.0, 2.0),))
    sol = solve(TimeProblem.manufactured(u, 0.5, 1.0, spec), basis_for(spec, 4))
    got = sol.evaluate([0.5, 1.0, 1.5])
    assert got == pytest.approx([0.25, 1.0, 2.25], abs=1e-12)


def test_evaluate_at_origin_returns_phi_exactly():
    spec = TransformSpec(1, 2.0)
    u = PowerSum(((1.0, 2.0),), constant=1.5)
    prob = TimeProblem.manufactured(u, 0.5, 1.0, spec)
    sol = solve(prob, basis_for(spec, 4))
    assert sol.evaluate([0.0])[0] == 1.5
    assert linf_against(sol, u) <= 1e-12


def test_evaluate_single_mode_endpoint():
    spec = TransformSpec(1, 2.0)
    basis = basis_for(spec, 3)
    from fracspec.ode_solver import TimeSolution

    sol = TimeSolution(np.array([0.7, 0.0, 0.0]), basis, spec, phi_offset=0.25)
    assert sol.evaluate([2.0])[0] == pytest.approx(0.25 + 0.7 * 2.0, rel=1e-14)


def test_evaluate_domain_error():
    spec = TransformSpec(1, 2.0)
    sol = solve(
        TimeProblem.manufactured(PowerSum(((1.0, 2.0),)), 0.5, 1.0, spec), basis_for(spec, 2)
    )
    with pytest.raises(DomainError):
        sol.evaluate([-0.1])
    with pytest.raises(DomainError):
        evaluate(sol, [2.5])
    # NaN lies in no interval, so it is refused too, never evaluated to NaN.
    with pytest.raises(DomainError, match=r"time nan outside \[0, 2\.0\]"):
        sol.evaluate([1.0, math.nan])


def test_solution_alpha_invariance():
    spec = TransformSpec(5, 2.0)
    dd = 0.2
    pts = np.linspace(0.0, 2.0, 10)
    reference = None
    for alpha in (0.0, 0.3, -dd + 0.01):
        prob = TimeProblem.manufactured(PowerSum(((1.0, 0.6),)), dd, 1.0, spec)
        sol = solve(prob, basis_for(spec, 8, alpha))
        vals = sol.evaluate(pts)
        if reference is None:
            reference = vals
        else:
            assert np.max(np.abs(vals - reference)) <= 1e-9


def test_solve_linearity_in_source():
    spec = TransformSpec(2, 2.0)
    g = lambda s: np.sin(np.asarray(s, dtype=float))
    prob1 = TimeProblem.from_source(g, 0.5, 1.0, spec)
    prob3 = TimeProblem.from_source(lambda s: 3.0 * g(s), 0.5, 1.0, spec)
    basis = basis_for(spec, 8)
    c1 = solve(prob1, basis).coeffs
    c3 = solve(prob3, basis).coeffs
    assert np.max(np.abs(c3 - 3.0 * c1)) <= 1e-13 * np.max(np.abs(c3))


def test_spectral_decay_of_rescaled_power():
    # L2 error decreasing in N down to the floor, with >= 10x drop from N=2 to 6
    from fracspec.analysis import error_l2

    spec = TransformSpec(5, 2.0)
    u = PowerSum(((1.0, 0.6),))
    errs = {}
    for n in (2, 4, 6, 10, 14):
        prob = TimeProblem.manufactured(u, 0.2, 1.0, spec)
        sol = solve(prob, basis_for(spec, n))
        errs[n] = error_l2(sol, u)
    values = list(errs.values())
    for a, b in zip(values, values[1:]):
        assert b <= max(1.5 * a, 1e-11)
    assert errs[6] <= errs[2] / 10.0
    assert errs[14] <= 1e-11


def test_assembled_system_and_residual():
    spec = TransformSpec(1, 2.0)
    u = PowerSum(((1.0, 2.0),))
    prob = TimeProblem.manufactured(u, 0.5, 1.0, spec)
    basis = basis_for(spec, 4)
    F = assemble_time_load(basis, spec, prob.time_source)
    sol = solve(prob, basis)
    scale = np.max(np.abs(F))
    assert type(sol.residual) is float
    assert sol.residual <= 1e-12 * scale


def test_solve_linear_guards_condition():
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
    with pytest.raises(NumericalFailureError):
        solve_linear(A, np.array([1.0, 2.0]))


def test_exactly_singular_matrix_has_infinite_estimate():
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
    with pytest.raises(NumericalFailureError, match="estimate inf exceeds") as info:
        solve_linear(A, np.ones(3))
    assert info.value.estimate == math.inf


def test_matrix_with_nan_entry_is_refused():
    A = np.eye(4)
    A[2, 1] = np.nan
    with pytest.raises(NumericalFailureError) as info:
        solve_linear(A, np.ones(4))
    assert info.value.estimate == math.inf


def mixed_stack(rng, n=10):
    """Three well-conditioned matrices and three scaled Hilbert matrices, interleaved."""
    from scipy.linalg import hilbert

    well = [rng.standard_normal((n, n)) + n * np.eye(n) for _ in range(3)]
    ill = [hilbert(n) * s for s in (1.0, 2.0, 3.0)]
    return np.stack([m for pair in zip(well, ill) for m in pair])


def test_condition_estimates_bracket_the_one_norm_condition_number(rng, monkeypatch):
    # With the limit at zero every matrix is refused, which exposes its estimate.
    # The Hager-Higham estimate is a lower bound on kappa_1 and rarely 10x below
    # it; the upper slack covers inv's own error of about kappa*eps on Hilbert(10).
    monkeypatch.setattr(ode_mod, "COND_LIMIT", 0.0)
    A = mixed_stack(rng)
    for a in A:
        kappa1 = np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1)
        with pytest.raises(NumericalFailureError) as info:
            solve_linear(a, np.ones(len(a)))
        assert kappa1 / 10 <= info.value.estimate <= kappa1 * (1 + 1e-3)


def test_solve_refuses_non_finite_solutions(monkeypatch):
    # solve_linear only guards the matrix; solve checks its own answer through
    # the residual, inside its linear-solve stage.
    spec = TransformSpec(1, 2.0)
    prob = TimeProblem.manufactured(PowerSum(((1.0, 2.0),)), 0.5, 1.0, spec)
    for bad in (np.nan, np.inf):

        def bad_solve_linear(A, F):
            x = np.ones(F.shape)
            x[1] = bad
            return x

        monkeypatch.setattr(ode_mod, "solve_linear", bad_solve_linear)
        with pytest.raises(NumericalFailureError) as info:
            solve(prob, basis_for(spec, 4))
        assert str(info.value) == (
            "linear solve failed (delta=0.5, r=1, N=4): non-finite solution or residual"
        )
        assert info.value.index is None


def test_shared_matrix_is_factored_once(rng, monkeypatch):
    # One getrf is shared by the guard and the solve, and no other factorisation runs.
    factors = []
    solves = []
    real_getrf, real_getrs = ode_mod.lapack.dgetrf, ode_mod.lapack.dgetrs

    def counting_getrf(a):
        out = real_getrf(a)
        factors.append(out[0])
        return out

    def recording_getrs(lu, piv, b):
        solves.append(lu)
        return real_getrs(lu, piv, b)

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve must not be called")

    monkeypatch.setattr(ode_mod.lapack, "dgetrf", counting_getrf)
    monkeypatch.setattr(ode_mod.lapack, "dgetrs", recording_getrs)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    for a in mixed_stack(rng):
        factors.clear()
        solves.clear()
        x = solve_linear(a, rng.standard_normal(len(a)))
        assert type(x) is np.ndarray and x.shape == (len(a),)
        assert len(factors) == 1 and solves == factors

    factors.clear()
    spec = TransformSpec(7, 2.0)
    prob = TimeProblem.manufactured(PowerSum(((1.0, math.sqrt(2.0) / 2.0),)), 0.2, 1.0, spec)
    solve(prob, basis_for(spec, 40))
    assert len(factors) == 1


def test_overflowing_basis_parameter_is_refused_in_the_assembly_stage():
    # The stiffness and mass tables overflow; the refusal names the stage
    # and the solve, never a solution built from inf.
    spec = TransformSpec(1, 2.0)
    prob = TimeProblem.manufactured(PowerSum(((1.0, 2.0),)), 0.5, 1.0, spec)
    with np.errstate(all="ignore"), pytest.raises(NumericalFailureError) as info:
        solve(prob, basis_for(spec, 4, alpha=1e200))
    assert str(info.value) == "assembly failed (delta=0.5, r=1, N=4): non-finite stiffness matrix"


def test_guard_failure_names_the_parameters():
    spec = TransformSpec(7, 2.0)
    prob = TimeProblem.manufactured(PowerSum(((1.0, math.sqrt(2.0) / 2.0),)), 0.2, 1.0, spec)
    with pytest.raises(NumericalFailureError, match=r"delta=0\.2, r=7, N=80\): system condition"):
        solve(prob, basis_for(spec, 80))


# ---------------------------------------------------------------------------
# Leading-block solves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "prob",
    [
        TimeProblem.manufactured(PowerSum(((1.0, 2.0),)), 0.5, 1.0, TransformSpec(1, 2.0)),
        TimeProblem.from_source(np.sin, 0.5, 1.0, TransformSpec(1, 2.0)),
    ],
    ids=["example1", "example3-gamma1"],
)
def test_nested_blocks_match_fresh_solves(prob):
    # At r = 1 the stiffness quadrature is exact, so assembling at N = 30 and
    # solving the leading n x n block equals a fresh solve at n up to roundoff.
    spec = prob.transform
    sizes = tuple(range(1, 31))
    nested = list(solve_nested(prob, basis_for(spec, 30), sizes))
    assert [sol.basis.n_modes for sol in nested] == list(sizes)
    for n, sol in zip(sizes, nested):
        fresh = solve(prob, basis_for(spec, n))
        assert sol.basis == fresh.basis
        scale = np.max(np.abs(fresh.coeffs))
        assert np.max(np.abs(sol.coeffs - fresh.coeffs)) <= 1e-12 * scale, n


@pytest.mark.parametrize("sizes", [(0,), (2, 9), (-1, 4)])
def test_nested_sizes_outside_the_basis_are_refused_before_assembly(rule_batches, sizes):
    spec = TransformSpec(1, 2.0)
    prob = TimeProblem.manufactured(PowerSum(((1.0, 2.0),)), 0.5, 1.0, spec)
    with pytest.raises(DomainError, match=r"block sizes must lie in 1\.\.8"):
        solve_nested(prob, basis_for(spec, 8), sizes)
    assert rule_batches == []


_ONE_BATCH_PROBLEMS = [
    TimeProblem.manufactured(PowerSum(((1.0, 0.6),)), 0.2, 1.0, TransformSpec(5, 2.0)),
    TimeProblem.from_source(np.sin, 0.5, 1.0, TransformSpec(3, 2.0)),
]


@pytest.mark.parametrize("prob", _ONE_BATCH_PROBLEMS, ids=["powers", "callable"])
def test_a_solve_builds_every_rule_in_one_batch(rule_batches, basis_tables, prob):
    # Stiffness pair, mass rule and the load rules: one per power, or one
    # sampling rule for a callable source.  One J^{0,1} table serves the
    # stiffness outer nodes, the mass and the load.
    loads = 1 if callable(prob.source) else len(prob.time_source)
    solve(prob, basis_for(prob.transform, 12))
    assert rule_batches == [3 + loads]
    assert basis_tables == [JacobiIndex(0.0, 1.0)]
    list(solve_nested(prob, basis_for(prob.transform, 12), (4, 8, 12)))
    assert rule_batches == [3 + loads] * 2
    assert basis_tables == [JacobiIndex(0.0, 1.0)] * 2


@pytest.mark.parametrize("prob", _ONE_BATCH_PROBLEMS, ids=["powers", "callable"])
def test_a_solve_assembles_the_public_matrices(monkeypatch, prob):
    real_assemble = ode_mod._assemble
    assembled = []

    def recording(*pieces):
        assembled.append(real_assemble(*pieces))
        return assembled[-1]

    monkeypatch.setattr(ode_mod, "_assemble", recording)
    spec = prob.transform
    basis = basis_for(spec, 14)
    solve(prob, basis)
    (S, M, F), = assembled
    assert np.array_equal(S, assemble_stiffness(basis, prob.delta, spec, 14 + ode_mod.QUAD_GUARD))
    assert np.array_equal(M, assemble_mass(basis, spec))
    assert np.array_equal(F, assemble_time_load(basis, spec, prob.time_source))


def test_refused_block_names_its_own_size(monkeypatch):
    real_solve_linear = ode_mod.solve_linear

    def refusing_solve_linear(A, F):
        if A.shape == (6, 6):
            raise NumericalFailureError("synthetic refusal", estimate=1e20)
        return real_solve_linear(A, F)

    monkeypatch.setattr(ode_mod, "solve_linear", refusing_solve_linear)
    spec = TransformSpec(1, 2.0)
    prob = TimeProblem.manufactured(PowerSum(((1.0, 2.0),)), 0.5, 1.0, spec)
    blocks = solve_nested(prob, basis_for(spec, 8), (4, 6, 8))
    assert next(blocks).basis.n_modes == 4
    with pytest.raises(NumericalFailureError) as info:
        next(blocks)
    assert str(info.value) == "linear solve failed (delta=0.5, r=1, N=6): synthetic refusal"
    assert info.value.estimate == 1e20

