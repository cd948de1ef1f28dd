import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

import fracspec.pde_solver as pde_mod
from fracspec.errors import DomainError, NumericalFailureError
from fracspec.frac_ops import FracOrder, PowerSum, TransformSpec, adaptive_quad
from fracspec.ode_solver import TimeProblem, assemble_mass, assemble_stiffness, solve
from fracspec.orthopoly import JacobiIndex, TimeBasis, gjp_eval, legendre_phi_table
from fracspec.problems import build_problem, get_entry
from fracspec.pde_solver import (
    PDEProblem,
    SeparableRHS,
    SpatialBasis,
    assemble_spacetime_load,
    evaluate_spacetime,
    manufactured_sine_power,
    solve_spacetime,
    space_mass_matrix,
)

SPEC5 = TransformSpec(5, 2.0)


def bases(n, m, d=2):
    return TimeBasis(0.0, n, (0.0, SPEC5.b_psi)), SpatialBasis(m, d)


# ---------------------------------------------------------------------------
# Spatial mass matrix
# ---------------------------------------------------------------------------


def test_b_corner_entries():
    B = space_mass_matrix(4)
    assert B[0, 0] == pytest.approx(0.4, rel=1e-15)
    c0, c2 = 1.0 / math.sqrt(6.0), 1.0 / math.sqrt(14.0)
    assert B[0, 2] == pytest.approx(-c0 * c2 * 2.0 / 5.0, rel=1e-15)


@pytest.mark.parametrize("m", [4, 8, 12])
def test_b_matches_quadrature_oracle(m):
    x, w = np.polynomial.legendre.leggauss(m + 4)
    phi = legendre_phi_table(m, x)
    B_quad = (phi * w) @ phi.T
    B = space_mass_matrix(m)
    assert np.max(np.abs(B - B_quad)) <= 1e-13


def test_b_structure():
    B = space_mass_matrix(10)
    assert np.max(np.abs(B - B.T)) == 0.0
    assert np.linalg.eigvalsh(B).min() > 0.0
    n = B.shape[0]
    for j in range(n):
        for k in range(n):
            if abs(j - k) not in (0, 2):
                assert B[j, k] == 0.0
    with pytest.raises(DomainError):
        space_mass_matrix(1)


# ---------------------------------------------------------------------------
# Mode product
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mode_product_matches_einsum(rng, d):
    sizes = (4, 5, 6)[:d]
    T = rng.standard_normal((3, *sizes))
    mats = [rng.standard_normal((k, k + 2)) for k in sizes]
    src, dst = "ijk"[:d], "pqr"[:d]
    spec = ",".join(["n" + src, *(a + b for a, b in zip(src, dst))]) + "->n" + dst

    def assert_matches(got, expected):
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    assert_matches(pde_mod._mode_product(T, mats), np.einsum(spec, T, *mats))
    # None leaves its axis alone.
    pairs = [a + b for a, b in zip(src[1:], dst[1:])]
    skip = ",".join(["n" + src, *pairs]) + "->n" + src[0] + dst[1:]
    assert_matches(pde_mod._mode_product(T, [None, *mats[1:]]), np.einsum(skip, T, *mats[1:]))


# ---------------------------------------------------------------------------
# Load assembly
# ---------------------------------------------------------------------------


def test_load_of_zero_source():
    tb, sb = bases(4, 5)
    prob = PDEProblem(
        FracOrder(0.5),
        SPEC5,
        SeparableRHS((np.cos, np.cos), time_source=((0.0, 1.0),)),
        2,
    )
    F = assemble_spacetime_load(prob, tb, sb)
    assert F.shape == (4, 4, 4)
    assert np.all(F == 0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_separable_load_equals_generic_tensor_path(d):
    tb, sb = bases(5, 6, d)
    tpow = 2.5
    factors = (np.cos, np.sin)[:d]

    def tfun(t):
        return np.asarray(t, dtype=float) ** tpow

    def source(*xs_t):
        *xs, t = xs_t
        return math.prod(f(x) for f, x in zip(factors, xs)) * t**tpow

    sep = PDEProblem(FracOrder(0.5), SPEC5, SeparableRHS(factors, time_source=tfun), d)
    gen = PDEProblem(FracOrder(0.5), SPEC5, source, d)
    F_sep = assemble_spacetime_load(sep, tb, sb)
    F_gen = assemble_spacetime_load(gen, tb, sb)
    assert F_gen.shape == (5,) + (5,) * d
    assert np.max(np.abs(F_sep - F_gen)) <= 1e-12 * max(1.0, np.abs(F_sep).max())

    nan_source = PDEProblem(FracOrder(0.5), SPEC5, lambda *xs_t: source(*xs_t) * np.nan, d)
    with pytest.raises(ValueError, match="NaN"):
        assemble_spacetime_load(nan_source, tb, sb)


def test_manufactured_load_matches_nested_adaptive_oracle():
    # entries f_{nkl} for the sine/power source at (N, M) = (6, 6); the time
    # factor carries the sub-delta singular power, integrated adaptively here
    tb, sb = bases(6, 6)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    F = assemble_spacetime_load(prob, tb, sb)

    time_terms = prob.rhs.time_source

    def time_integrand(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c, p in time_terms:
            out = out + c * t**p
        return out

    space_int = np.empty(sb.n_funcs)
    for k in range(sb.n_funcs):
        val, _ = adaptive_quad(
            lambda x, k=k: np.sin(math.pi * x) * legendre_phi_table(sb.m_modes, x)[k],
            -1.0,
            1.0,
            1e-12,
        )
        space_int[k] = val

    time_int = np.empty(tb.n_modes)
    for n in range(1, tb.n_modes + 1):
        val, _ = adaptive_quad(
            lambda t, n=n: time_integrand(t) * gjp_eval(tb, n, t) * SPEC5.psi_prime(t),
            0.0,
            SPEC5.b_psi,
            1e-12,
        )
        time_int[n - 1] = val

    F_oracle = np.einsum("n,k,l->nkl", time_int, space_int, space_int)
    assert np.max(np.abs(F - F_oracle)) <= 1e-9 * max(1.0, np.abs(F_oracle).max())


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


def test_zero_source_gives_exact_zero():
    tb, sb = bases(4, 5)
    prob = PDEProblem(
        FracOrder(0.5), SPEC5, SeparableRHS((np.cos, np.cos), time_source=((0.0, 2.0),)), 2
    )
    sol = solve_spacetime(prob, tb, sb)
    assert np.all(sol.V == 0.0)


def test_single_spatial_mode_reduces_to_scalar_solve():
    # with M-1 = 1 the tensor system is (b00 S + (1 + b00) M) w = fhat, i.e.
    # a scalar problem with lambda = (1 + b00)/b00 and source scaled by 1/b00
    spec = TransformSpec(2, 2.0)
    tb = TimeBasis(0.0, 6, (0.0, spec.b_psi))
    sb = SpatialBasis(2, 1)
    b00 = space_mass_matrix(2)[0, 0]

    def tfun(t):
        return np.asarray(t, dtype=float) ** 2

    prob = PDEProblem(FracOrder(0.5), spec, SeparableRHS((np.cos,), time_source=tfun), 1)
    sol = solve_spacetime(prob, tb, sb)

    xq, wq = np.polynomial.legendre.leggauss(10)
    proj = float(np.sum(wq * np.cos(xq) * legendre_phi_table(2, xq)[0]))
    lam_eff = (1.0 + b00) / b00

    scalar = TimeProblem.from_source(
        lambda s: proj / b00 * np.asarray(s, dtype=float) ** (2.0 / spec.r),
        0.5,
        lam_eff,
        spec,
    )
    sol_scalar = solve(scalar, tb)
    assert np.max(np.abs(sol.V[:, 0] - sol_scalar.coeffs)) <= 1e-12 * max(
        1.0, np.abs(sol_scalar.coeffs).max()
    )


@pytest.mark.parametrize("d", [1, 2])
def test_eigen_solve_matches_dense_kronecker(d):
    # vectorize the full coupled system with column-major stacking and solve
    # it densely; the eigendecomposition path must agree
    spec = TransformSpec(5, 2.0)
    n, m = 8, 8
    tb = TimeBasis(0.0, n, (0.0, spec.b_psi))
    sb = SpatialBasis(m, d)
    prob, _ = manufactured_sine_power(0.5, spec, 0.6, dimension=d)
    sol = solve_spacetime(prob, tb, sb)

    S = assemble_stiffness(tb, prob.delta, spec, n + 8)
    M = assemble_mass(tb, spec)
    B = space_mass_matrix(m)
    K = sb.n_funcs
    F = assemble_spacetime_load(prob, tb, sb).reshape(n, K**d)
    identity = np.eye(K)
    if d == 1:
        big_b, lap = B, identity
    else:
        big_b = np.kron(B, B)
        lap = np.kron(identity, B) + np.kron(B, identity)
    # vec(A V C) = (C^T kron A) vec(V) with column-major vec
    big = np.kron(big_b.T, S) + np.kron(lap.T, M) + np.kron(big_b.T, M)
    v_dense = np.linalg.solve(big, F.reshape(-1, order="F")).reshape((n, K**d), order="F")
    v_eig = sol.V.reshape(n, K**d)
    scale = np.abs(v_dense).max()
    assert np.max(np.abs(v_eig - v_dense)) <= 1e-10 * max(scale, 1.0)


def test_tensor_residual_bound_is_enforced_and_recorded():
    tb, sb = bases(8, 8)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    sol = solve_spacetime(prob, tb, sb)
    assert sol.residual >= 0.0
    # solve_spacetime raises if residual > 1e-10 * max|F|; reaching here
    # means the bound held, and it is carried on the solution object


@pytest.mark.parametrize("d, n, m", [(1, 12, 10), (2, 6, 6), (2, 20, 20)])
def test_solve_pins_v_and_residual_to_the_public_assembly_and_the_full_products(d, n, m):
    # V from the public assemble_* matrices, and the residual with VB taken
    # as B on every axis of V, bit for bit.
    tb, sb = bases(n, m, d)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=d)
    sol = solve_spacetime(prob, tb, sb)
    S = assemble_stiffness(tb, prob.delta, SPEC5, n + 8)
    M = assemble_mass(tb, SPEC5)
    F = assemble_spacetime_load(prob, tb, sb)
    B = space_mass_matrix(m)
    lam, E = eigh(B)
    vhat = pde_mod._solve_modes(S, M, pde_mod._mode_table(lam, d), pde_mod._mode_product(F, [E] * d))
    V = pde_mod._mode_product(vhat, [E.T] * d)
    assert np.array_equal(sol.V, V)
    VB = pde_mod._mode_product(V, [B] * d)
    lap = np.zeros_like(V)
    for i in range(d):
        lap += pde_mod._mode_product(V, [None if j == i else B for j in range(d)])
    lap += VB
    resid = np.tensordot(S, VB, axes=1)
    resid += np.tensordot(M, lap, axes=1)
    resid -= F
    assert sol.residual == float(np.max(np.abs(resid)))


@pytest.mark.parametrize("separable", [True, False], ids=["separable", "callable"])
def test_a_spacetime_solve_builds_every_rule_in_one_batch(rule_batches, basis_tables, separable):
    tb, sb = bases(6, 6)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    if not separable:
        rhs = lambda x, y, t: np.cos(x) * np.sin(y + 1.0) * (1.0 + t)  # noqa: E731
        prob = PDEProblem(prob.delta, SPEC5, rhs, 2)
    solve_spacetime(prob, tb, sb)
    # Stiffness pair, mass, spatial rule, then one rule per power or one sampling rule.
    assert rule_batches == [4 + (len(prob.rhs.time_source) if separable else 1)]
    # One J^{0,1} table serves the stiffness outer nodes, the mass and the time load.
    assert basis_tables == [JacobiIndex(0.0, 1.0)]


@pytest.mark.parametrize(
    "factors, time_source, message",
    [
        ((np.cos,), ((1.0, 1.0),), "one spatial factor per dimension"),
        ((np.cos, np.cos), ((1.0, 1.0), (2.0, -7.0)), "power -7.0 is not integrable"),
    ],
)
def test_source_is_refused_before_any_rule_is_built(rule_batches, factors, time_source, message):
    tb, sb = bases(6, 6)
    prob = PDEProblem(FracOrder(0.5), SPEC5, SeparableRHS(factors, time_source), 2)
    with pytest.raises(DomainError, match=message):
        solve_spacetime(prob, tb, sb)
    assert rule_batches == []


def test_solve_spacetime_refuses_a_time_basis_on_another_interval():
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=1)
    with pytest.raises(DomainError, match=r"time basis interval \(0\.0, 1\.0\) must be"):
        solve_spacetime(prob, TimeBasis(0.0, 6, (0.0, 1.0)), SpatialBasis(6, 1))


def test_separable_space_factor_with_nan_is_refused():
    tb, sb = bases(6, 6, 1)
    rhs = SeparableRHS((lambda x: np.where(x > 0.5, np.nan, 1.0),), time_source=((1.0, 1.0),))
    prob = PDEProblem(FracOrder(0.5), SPEC5, rhs, 1)
    with pytest.raises(ValueError, match="NaN"):
        assemble_spacetime_load(prob, tb, sb)
    with pytest.raises(ValueError, match="NaN"):
        solve_spacetime(prob, tb, sb)


@pytest.mark.parametrize("time_source", [None, (1.0, 2.0), ((1.0, 2.0), (3.0,))])
def test_separable_rhs_refuses_a_time_source_of_neither_format(time_source):
    with pytest.raises(DomainError, match="time_source"):
        SeparableRHS((np.cos,), time_source)


def test_tensor_residual_guard_refuses_nan(monkeypatch):
    # A mode solve that slipped a NaN past its own guard must not reach V.
    def nan_solve_modes(S, M, table, fhat):
        return np.full(fhat.shape, np.nan)

    monkeypatch.setattr(pde_mod, "_solve_modes", nan_solve_modes)
    tb, sb = bases(6, 6, 1)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=1)
    with pytest.raises(NumericalFailureError, match="tensor residual nan exceeds"):
        solve_spacetime(prob, tb, sb)


REFUSED_MODES = ((2, 3), (3, 2), (4, 1))  # flat indices 13, 17 and 21 of the 5 x 5 modes
REAL_MODE_TABLE = pde_mod._mode_table


def refuse_modes(monkeypatch, modes):
    """Zero the (mu, c) rows of `modes` in every mode table: each becomes the zero matrix."""

    def mode_table(lam, d):
        table = REAL_MODE_TABLE(lam, d)
        for mode in modes:
            table[np.ravel_multi_index(mode, (lam.size,) * d)] = 0.0
        return table

    monkeypatch.setattr(pde_mod, "_mode_table", mode_table)


def test_guard_failure_names_first_failing_mode(monkeypatch):
    # Whatever the chunk size, the first refused mode in flat order is named:
    # at 16 columns (2, 3) lies in the first chunk and the other two in the
    # second; at 4 and at 1 the three refused modes lie in three chunks.
    refuse_modes(monkeypatch, REFUSED_MODES)
    tb, sb = bases(6, 6)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    for chunk in (pde_mod._CHUNK, 16, 4, 1):
        monkeypatch.setattr(pde_mod, "_CHUNK", chunk)
        with pytest.raises(NumericalFailureError) as info:
            solve_spacetime(prob, tb, sb)
        assert str(info.value).startswith(
            "eigenmode solve failed at mode (2, 3) (delta=0.5, r=5, N=6, M=6): pivot "
        )
        assert info.value.index == (2, 3)


def test_guard_failure_maps_a_later_mode(monkeypatch):
    # The refused mode is named by its tuple, not by its place in its chunk
    # (4 columns here, so (2, 3) is column 1 of the fourth chunk), and the
    # first refused mode of a later chunk is named once the earlier ones pass.
    monkeypatch.setattr(pde_mod, "_CHUNK", 4)
    tb, sb = bases(6, 6)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    for modes, first in ((REFUSED_MODES, (2, 3)), (REFUSED_MODES[1:], (3, 2))):
        refuse_modes(monkeypatch, modes)
        with pytest.raises(NumericalFailureError) as info:
            solve_spacetime(prob, tb, sb)
        assert str(info.value) == (
            f"eigenmode solve failed at mode {first} (delta=0.5, r=5, N=6, M=6): "
            "pivot 0 |mu T_ii + c R_ii| = 0.000e+00 is at most "
            "1e-12 * (|mu||T_ii| + |c||R_ii|) = 0.000e+00"
        )
        assert info.value.index == first


def test_mode_guard_refuses_a_nan_coefficient(rng):
    # A NaN pivot is not above the bound, so it is refused, not solved.
    tb, _ = bases(6, 6, 1)
    S = assemble_stiffness(tb, FracOrder(0.5), SPEC5, 6 + 8)
    M = assemble_mass(tb, SPEC5)
    table = pde_mod._mode_table(eigh(space_mass_matrix(6))[0], 1)
    table[2, 1] = np.nan
    with pytest.raises(NumericalFailureError, match=r"pivot 0 \|mu T_ii \+ c R_ii\| = nan") as info:
        pde_mod._solve_modes(S, M, table, rng.standard_normal((6, 5)))
    assert info.value.index == (2,)


def test_guard_names_a_refused_two_by_two_block(monkeypatch):
    # At delta=0.9 and N=6 the real Schur form of the time pencil is three
    # 2 x 2 blocks, so the lowest refused row of a zeroed mode lies in the
    # block of rows 0 and 1, refused by its determinant.
    tb, sb = bases(6, 6)
    T = pde_mod.qz(
        assemble_stiffness(tb, FracOrder(0.9), SPEC5, 6 + 8), assemble_mass(tb, SPEC5), output="real"
    )[0]
    assert pde_mod._schur_blocks(T) == [(0, 2), (2, 4), (4, 6)]
    refuse_modes(monkeypatch, REFUSED_MODES)
    prob, _ = manufactured_sine_power(0.9, SPEC5, 0.6, dimension=2)
    with pytest.raises(NumericalFailureError) as info:
        solve_spacetime(prob, tb, sb)
    assert str(info.value) == (
        "eigenmode solve failed at mode (2, 3) (delta=0.9, r=5, N=6, M=6): "
        "pivot block 0..1 |det(mu T_b + c R_b)| = 0.000e+00 is at most "
        "1e-12 * (t_11 t_22 + t_12 t_21) = 0.000e+00 with t_jk = |mu||T_jk| + |c||R_jk|"
    )
    assert info.value.index == (2, 3)


def test_guard_names_the_lowest_refused_row_of_the_first_refused_mode(monkeypatch, rng):
    # A singular 2 x 2 block below regular ones refuses every mode: the first
    # mode is named, and within it that block, not the rows above it.
    real_qz = pde_mod.qz

    def qz(S, M, output):
        T, R, Q, Z = real_qz(S, M, output=output)
        T[4:6, 4:6], R[4:6, 4:6] = 1.0, 0.0  # det(mu T_b + c R_b) = 0 for every mode
        return T, R, Q, Z

    monkeypatch.setattr(pde_mod, "qz", qz)
    tb, _ = bases(6, 6, 1)
    S = assemble_stiffness(tb, FracOrder(0.5), SPEC5, 6 + 8)
    M = assemble_mass(tb, SPEC5)
    table = pde_mod._mode_table(eigh(space_mass_matrix(6))[0], 1)
    with pytest.raises(NumericalFailureError, match=r"^pivot block 4\.\.5 \|det") as info:
        pde_mod._solve_modes(S, M, table, rng.standard_normal((6, 5)))
    assert info.value.index == (0,)


@pytest.mark.parametrize(
    "d, n, m",
    [(1, 8, 8), (2, 8, 8), (2, 40, 60), (2, 80, 60)],
    ids=["1", "2", "2-N40-M60", "2-N80-M60"],
)
def test_solve_modes_answers_every_mode_and_names_a_refused_one(rng, d, n, m):
    # The contract of the mode stage, whatever solves it: (mu S + c M) w = fhat
    # to roundoff for every mode, in fhat's shape, and a refused mode named by
    # its index tuple.  (40, 60) is the largest size the benchmark solves;
    # (80, 60) is example4's largest tested size.
    tb, _ = bases(n, m, d)
    S = assemble_stiffness(tb, FracOrder(0.5), SPEC5, n + 8)
    M = assemble_mass(tb, SPEC5)
    lam, _ = eigh(space_mass_matrix(m))
    K = lam.size
    table = pde_mod._mode_table(lam, d)
    fhat = rng.standard_normal((n,) + (K,) * d)
    w = pde_mod._solve_modes(S, M, table, fhat)
    assert w.shape == fhat.shape
    for m, (mu, c) in enumerate(table):
        col = (slice(None),) + np.unravel_index(m, (K,) * d)
        A = mu * S + c * M
        scale = np.max(np.sum(np.abs(A), axis=1)) * np.max(np.abs(w[col]))
        assert np.max(np.abs(A @ w[col] - fhat[col])) <= 1e-14 * scale

    mode = (3,) if d == 1 else (2, 5)
    table[np.ravel_multi_index(mode, (K,) * d)] = 0.0  # mu = c = 0: the zero matrix
    with pytest.raises(NumericalFailureError) as info:
        pde_mod._solve_modes(S, M, table, fhat)
    assert info.value.index == mode
    assert "of the stack" not in str(info.value)


def test_mode_solves_never_hold_the_full_stack():
    # All K^2 mode matrices at once would take K^2 N^2 8 bytes.  The mode
    # stage holds no matrix per mode, only a few N-row blocks of at most
    # _CHUNK real columns at a time.  The whole solve peaks near a third of
    # that size here.
    tb, sb = bases(20, 40)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    solve_spacetime(prob, tb, sb)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        solve_spacetime(prob, tb, sb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    K, N = sb.n_funcs, tb.n_modes
    assert peak < K * K * N * N * 8


def test_manufactured_2d_paper_size():
    tb, sb = bases(20, 20)
    prob, exact = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    sol = solve_spacetime(prob, tb, sb)
    xg = np.linspace(-1.0, 1.0, 33)
    diff = sol.evaluate(xg, xg, [2.0]) - exact(xg, xg, [2.0])
    assert np.max(np.abs(diff)) <= 1e-9
    got = sol.evaluate([0.5], [0.5], [2.0])[0, 0, 0]
    assert got == pytest.approx(2.0**0.6, abs=1e-8)


def test_example4_answers_at_n80_m60():
    # The smallest-mu mode matrix has an LU condition estimate near 6e14
    # here, above the scalar solver's 1e14 limit.  The mode stage guards its
    # pivots instead, which are far from cancelling, and the answer is right
    # to roundoff.
    prob, exact = build_problem(get_entry("example4"))
    tb = TimeBasis(0.0, 80, (0.0, prob.transform.b_psi))
    sb = SpatialBasis(60, 2)
    sol = solve_spacetime(prob, tb, sb)
    xg = np.linspace(-1.0, 1.0, 33)
    err = np.max(np.abs(sol.evaluate(xg, xg, [2.0]) - exact(xg, xg, [2.0])))
    assert err <= 1e-12
    F = assemble_spacetime_load(prob, tb, sb)
    assert sol.residual <= 1e-10 * np.max(np.abs(F))


def test_spatial_spectral_convergence():
    prob, exact = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    tb = TimeBasis(0.0, 20, (0.0, SPEC5.b_psi))
    xg = np.linspace(-1.0, 1.0, 33)
    errs = []
    for m in range(4, 17, 2):
        sol = solve_spacetime(prob, tb, SpatialBasis(m, 2))
        errs.append(np.max(np.abs(sol.evaluate(xg, xg, [2.0]) - exact(xg, xg, [2.0]))))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= errs[0] * 1e-6


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_structural_zeros_at_initial_time_and_boundary():
    tb, sb = bases(6, 6)
    prob, _ = manufactured_sine_power(0.3, SPEC5, 0.6, dimension=2)
    sol = solve_spacetime(prob, tb, sb)
    xg = np.linspace(-1.0, 1.0, 9)
    assert np.all(sol.evaluate(xg, xg, [0.0]) == 0.0)
    assert np.all(sol.evaluate([1.0], xg, [1.0, 2.0]) == 0.0)
    assert np.all(sol.evaluate(xg, [-1.0], [0.5]) == 0.0)


def test_evaluate_domain_errors():
    tb, sb = bases(4, 4)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    sol = solve_spacetime(prob, tb, sb)
    with pytest.raises(DomainError):
        sol.evaluate([1.5], [0.0], [1.0])
    with pytest.raises(DomainError):
        sol.evaluate([0.0], [0.0], [2.5])
    with pytest.raises(DomainError):
        evaluate_spacetime(sol, [0.0], [1.0])
    # NaN lies in no interval, so it is refused too, never evaluated to NaN.
    with pytest.raises(DomainError, match=r"spatial points must lie in \[-1, 1\]"):
        sol.evaluate([0.0], [math.nan], [1.0])
    with pytest.raises(DomainError, match="time nan outside"):
        sol.evaluate([0.0], [0.0], [math.nan])


def test_overflowing_basis_parameter_is_refused_in_the_assembly_stage():
    tb = TimeBasis(1e200, 4, (0.0, SPEC5.b_psi))
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    with np.errstate(all="ignore"), pytest.raises(NumericalFailureError) as info:
        solve_spacetime(prob, tb, SpatialBasis(4, 2))
    assert str(info.value) == "assembly failed (delta=0.5, r=5, N=4, M=4): non-finite stiffness matrix"


def test_dimension_validation():
    with pytest.raises(DomainError):
        SpatialBasis(5, 3)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=1)
    tb = TimeBasis(0.0, 4, (0.0, SPEC5.b_psi))
    with pytest.raises(DomainError):
        solve_spacetime(prob, tb, SpatialBasis(4, 2))
