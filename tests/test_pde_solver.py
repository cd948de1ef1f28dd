import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh, lapack

import fracspec.ode_solver as ode_mod
import fracspec.pde_solver as pde_mod
from fracspec.errors import DomainError, NumericalFailureError
from fracspec.frac_ops import FracOrder, PowerSum, TransformSpec, adaptive_quad
from fracspec.ode_solver import TimeProblem, assemble_mass, assemble_stiffness, solve, solve_linear
from fracspec.orthopoly import TimeBasis, gjp_eval, legendre_phi_table
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
    def nan_solve_linear(A, F):
        return np.full(F.shape, np.nan)

    monkeypatch.setattr(pde_mod, "solve_linear", nan_solve_linear)
    tb, sb = bases(6, 6, 1)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=1)
    with pytest.raises(NumericalFailureError, match="tensor residual nan exceeds"):
        solve_spacetime(prob, tb, sb)


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("FRACSPEC_THREADS", raising=False)
    assert pde_mod._thread_count() == 1
    monkeypatch.setenv("FRACSPEC_THREADS", "3")
    assert pde_mod._thread_count() == 3
    monkeypatch.setenv("FRACSPEC_THREADS", "0")
    assert pde_mod._thread_count() >= 1
    monkeypatch.setenv("FRACSPEC_THREADS", "garbage")
    assert pde_mod._thread_count() == 1


def per_mode_reference(prob, tb, sb):
    """V by one solve_linear per eigenmode, the unbatched loop.

    The matrices come from the solver's own builder, one call per batch of the
    solver (the sorted modes with one leading index): the GEMM's bits depend on
    the batch's row count, and a lone solve matches the stacked one bit for bit
    only on the same Fortran-ordered matrix, not on a C-contiguous copy.
    """
    d, N = prob.dimension, tb.n_modes
    S = assemble_stiffness(tb, prob.delta, prob.transform, N + 8)
    M = assemble_mass(tb, prob.transform)
    lam, E = eigh(space_mass_matrix(sb.m_modes))
    F = assemble_spacetime_load(prob, tb, sb)
    K = lam.size
    lams = np.meshgrid(*([lam] * d), indexing="ij")
    ones = np.ones_like(lams[0])
    mus = math.prod(lams, start=ones).ravel()
    nus = sum(math.prod(lams[:i] + lams[i + 1:], start=ones) for i in range(d)).ravel()
    SM = np.stack([S.T.ravel(), M.T.ravel()])
    fhat = pde_mod._mode_product(F, [E] * d).reshape(N, -1)
    vhat = np.empty_like(fhat)
    for head in itertools.combinations_with_replacement(range(K), d - 1):
        modes = [head + (q,) for q in range(head[-1] if head else 0, K)]
        rows = [np.ravel_multi_index(mode, (K,) * d) for mode in modes]
        A = pde_mod._mode_matrices(np.stack([mus[rows], nus[rows] + mus[rows]], axis=-1), SM)
        for a, mode in zip(A, modes):
            assert a.flags.f_contiguous
            for ordering in set(itertools.permutations(mode)):
                idx = np.ravel_multi_index(ordering, (K,) * d)
                vhat[:, idx] = solve_linear(a, fhat[:, idx])
    return pde_mod._mode_product(vhat.reshape(F.shape), [E.T] * d)


def test_threaded_solve_is_bit_identical(monkeypatch):
    real_solve_linear = pde_mod.solve_linear
    on_main = []

    def recording_solve_linear(A, b):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real_solve_linear(A, b)

    monkeypatch.setattr(pde_mod, "solve_linear", recording_solve_linear)
    for d, calls in ((1, 1), (2, 9)):  # one stacked call per leading index: K = 9 for d = 2
        tb, sb = bases(10, 10, d)
        prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=d)
        reference = per_mode_reference(prob, tb, sb)
        on_main.clear()
        monkeypatch.delenv("FRACSPEC_THREADS", raising=False)
        seq = solve_spacetime(prob, tb, sb).V
        assert on_main == [True] * calls
        on_main.clear()
        monkeypatch.setenv("FRACSPEC_THREADS", "4")
        par = solve_spacetime(prob, tb, sb).V
        assert on_main == [False] * calls
        assert np.array_equal(seq, reference)
        assert np.array_equal(par, reference)


@pytest.mark.parametrize("d", [1, 2])
def test_mode_matrices_are_fortran_ordered_and_match_mu_s_plus_c_m(monkeypatch, d):
    # Every batch the solver builds, including the short last one (a single
    # mode for d = 2), is mu*S + c*M up to the GEMM's rounding of each term.
    tb, sb = bases(6, 9, d)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=d)
    S = assemble_stiffness(tb, prob.delta, SPEC5, 6 + 8)
    M = assemble_mass(tb, SPEC5)
    lam, _ = eigh(space_mass_matrix(9))
    K = lam.size
    passed = []

    def recording_solve_linear(A, b):
        passed.append(A)
        return solve_linear(A, b)

    monkeypatch.setattr(pde_mod, "solve_linear", recording_solve_linear)
    monkeypatch.delenv("FRACSPEC_THREADS", raising=False)
    solve_spacetime(prob, tb, sb)
    heads = list(itertools.combinations_with_replacement(range(K), d - 1))
    assert [len(A) for A in passed] == [K - (head[-1] if head else 0) for head in heads]
    eps = np.finfo(float).eps
    for head, A in zip(heads, passed):
        for q, a in zip(range(head[-1] if head else 0, K), A):
            lams = lam[list(head + (q,))]
            mu = math.prod(lams)
            c = mu + sum(math.prod(np.delete(lams, i)) for i in range(d))
            assert a.flags.f_contiguous
            bound = 2 * eps * (abs(mu) * np.abs(S) + abs(c) * np.abs(M))
            assert np.all(np.abs(a - (mu * S + c * M)) <= bound)


def test_one_factorisation_per_distinct_mode_matrix(monkeypatch):
    # At d = 2 the K^2 modes share K(K+1)/2 matrices, (p, q) with (q, p).
    tb, sb = bases(6, 6)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    real_getrf = ode_mod.lapack.dgetrf
    factored = []

    def counting_getrf(a):
        factored.append(a.shape)
        return real_getrf(a)

    monkeypatch.setattr(ode_mod.lapack, "dgetrf", counting_getrf)
    K = sb.n_funcs
    for threads in (None, "2"):
        if threads is None:
            monkeypatch.delenv("FRACSPEC_THREADS", raising=False)
        else:
            monkeypatch.setenv("FRACSPEC_THREADS", threads)
        factored.clear()
        solve_spacetime(prob, tb, sb)
        assert len(factored) == K * (K + 1) // 2 == 15


def lapack_cond_estimate(A):
    """LAPACK's 1-norm condition estimate of A (getrf, then gecon): what the solve guard bounds."""
    lu, _, info = lapack.dgetrf(A)
    assert info == 0
    rcond, _ = lapack.dgecon(lu, np.linalg.norm(A, 1), norm="1")
    return 1.0 / rcond


def test_guard_failure_names_first_failing_mode(monkeypatch):
    tb, sb = bases(6, 6)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    S = assemble_stiffness(tb, prob.delta, SPEC5, 6 + 8)
    M = assemble_mass(tb, SPEC5)
    lam, _ = eigh(space_mass_matrix(6))
    K = lam.size
    conds = np.array(
        [[lapack_cond_estimate(lam[p] * lam[q] * S + (lam[p] + lam[q] + lam[p] * lam[q]) * M)
          for q in range(K)] for p in range(K)]
    )
    # A limit between the two middle distinct estimates, so that about half the modes fail.
    distinct = np.unique(conds)
    limit = math.sqrt(distinct[distinct.size // 2 - 1] * distinct[distinct.size // 2])
    first = next((p, q) for p in range(K) for q in range(K) if conds[p, q] > limit)
    monkeypatch.setattr(ode_mod, "COND_LIMIT", limit)
    messages = []
    for threads in (None, "2"):
        if threads is None:
            monkeypatch.delenv("FRACSPEC_THREADS", raising=False)
        else:
            monkeypatch.setenv("FRACSPEC_THREADS", threads)
        with pytest.raises(NumericalFailureError) as info:
            solve_spacetime(prob, tb, sb)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(
        f"eigenmode solve failed at mode {first} (delta=0.5, r=5, N=6, M=6): system condition"
    )


def test_guard_failure_maps_a_later_mode(monkeypatch):
    # Only the matrix of mode (2, 3), shared with (3, 2), is reported singular:
    # the failure must name that mode, not the first mode of its batch or stack.
    tb, sb = bases(6, 6)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=2)
    S = assemble_stiffness(tb, prob.delta, SPEC5, 6 + 8)
    M = assemble_mass(tb, SPEC5)
    lam, _ = eigh(space_mass_matrix(6))
    target = lam[2] * lam[3] * S + (lam[2] + lam[3] + lam[2] * lam[3]) * M
    real_getrf = ode_mod.lapack.dgetrf

    def getrf_singular_at_target(a):
        lu, piv, info = real_getrf(a)
        return lu, piv, 1 if np.allclose(a, target, rtol=1e-13, atol=0.0) else info

    monkeypatch.setattr(ode_mod.lapack, "dgetrf", getrf_singular_at_target)
    for threads in (None, "2"):
        if threads is None:
            monkeypatch.delenv("FRACSPEC_THREADS", raising=False)
        else:
            monkeypatch.setenv("FRACSPEC_THREADS", threads)
        with pytest.raises(NumericalFailureError) as info:
            solve_spacetime(prob, tb, sb)
        # The mode is named once; the batch-local stack position is not named.
        assert str(info.value) == (
            "eigenmode solve failed at mode (2, 3) (delta=0.5, r=5, N=6, M=6): "
            "system condition estimate inf exceeds 1e+14"
        )
        assert info.value.index == (2, 3)
        assert info.value.estimate == math.inf


@pytest.mark.parametrize(
    "d, n, m", [(1, 8, 8), (2, 8, 8), (2, 40, 60)], ids=["1", "2", "2-N40-M60"]
)
def test_solve_modes_answers_every_mode_and_names_a_refused_one(rng, monkeypatch, d, n, m):
    # The contract of the mode stage, whatever solves it: (mu S + c M) w = fhat
    # to roundoff for every mode, in fhat's shape, and a refused mode named by
    # its index tuple.  (40, 60) is the largest size the benchmark solves.
    monkeypatch.delenv("FRACSPEC_THREADS", raising=False)
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


def test_mode_solves_never_hold_the_full_stack(monkeypatch):
    # All K^2 mode matrices at once would take K^2 N^2 8 bytes; the batches hold
    # at most K of them.  The whole solve peaks near half that size here.
    monkeypatch.delenv("FRACSPEC_THREADS", raising=False)
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


def test_dimension_validation():
    with pytest.raises(DomainError):
        SpatialBasis(5, 3)
    prob, _ = manufactured_sine_power(0.5, SPEC5, 0.6, dimension=1)
    tb = TimeBasis(0.0, 4, (0.0, SPEC5.b_psi))
    with pytest.raises(DomainError):
        solve_spacetime(prob, tb, SpatialBasis(4, 2))
