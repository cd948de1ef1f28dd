"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance here is fixed; none is tuned at run time.  Wall-clock
budgets are asserted alongside the numerical targets.
"""

import math
import time

import numpy as np
import pytest

from conftest import oracle_load_vector, oracle_mass_matrix, oracle_stiffness_matrix
from test_orthopoly import _moment, _solver_indices

from fracspec.analysis import StudyRequest, error_l2, error_linf, run_convergence_study
from fracspec.frac_ops import (
    FracOrder,
    PowerSum,
    TransformSpec,
    _right_caputo_numeric,
    adaptive_quad,
    psi_caputo_numeric,
    psi_integral_numeric,
    psi_rl_numeric,
)
from fracspec.ode_solver import (
    TimeProblem,
    assemble_load,
    assemble_load_powers,
    assemble_mass,
    assemble_stiffness,
    solve,
)
from fracspec.orthopoly import (
    JacobiIndex,
    TimeBasis,
    gauss_jacobi_rule,
    gjp_deriv,
    gjp_eval,
    gjp_table,
)
from fracspec.pde_solver import SpatialBasis, manufactured_sine_power, solve_spacetime


def report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{criterion}] {tag}{suffix}")
    assert passed, f"{criterion}: {detail}"


def basis_for(spec, n, alpha=0.0):
    return TimeBasis(alpha, n, (0.0, spec.b_psi))


# ---------------------------------------------------------------------------
# 1. Smooth-solution table reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_smooth_solution_table():
    start = time.perf_counter()
    spec = TransformSpec(1, 2.0)
    u = PowerSum(((1.0, 2.0),))
    worst = 0.0
    for delta in (0.1, 0.5, 0.9):
        for n in (2, 4):
            sol = solve(TimeProblem.manufactured(u, delta, 1.0, spec), basis_for(spec, n))
            worst = max(worst, error_linf(sol, u), error_l2(sol, u))
    elapsed = time.perf_counter() - start
    report(
        "criterion-1 smooth-solution table",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst error {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Rescaling turns s^(3/5) into an exactly representable cubic
# ---------------------------------------------------------------------------


def test_criterion_2_rescaled_cubic_exactness():
    start = time.perf_counter()
    spec = TransformSpec(5, 2.0)
    u = PowerSum(((1.0, 0.6),))
    worst = 0.0
    for n in range(3, 21):
        sol = solve(TimeProblem.manufactured(u, 0.2, 1.0, spec), basis_for(spec, n))
        worst = max(worst, error_linf(sol, u))
    elapsed = time.perf_counter() - start
    report(
        "criterion-2 rescaled-cubic exactness",
        worst <= 1e-11 and elapsed < 1.0,
        f"worst error over N=3..20: {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. Spectral decay for the irrational power
# ---------------------------------------------------------------------------


def _profile_ok(ns, errs, floor=1e-11, jitter=1e-9):
    """Decay profile: strictly decreasing at order >= 1 (log-log) down to the
    roundoff floor, no stagnation before it, bounded jitter after it."""
    floored = [i for i, e in enumerate(errs) if e <= floor]
    cut = floored[0] if floored else len(errs)
    pre_n, pre_e = ns[: cut + 1], errs[: cut + 1]
    for a, b in zip(pre_e, pre_e[1:]):
        if not b < a * 1.02:
            return False, "not monotone before the floor"
    for (n0, e0), (n1, e1) in zip(zip(pre_n, pre_e), zip(pre_n[1:], pre_e[1:])):
        order = math.log(e0 / max(e1, 1e-16)) / math.log(n1 / n0)
        if order < 1.0:
            return False, f"observed order {order:.2f} below 1 at N={n0}->{n1}"
        if math.log10(e0 / max(e1, 1e-16)) < 0.1:
            return False, f"stagnation before the floor at N={n0}->{n1}"
    if any(e > jitter for e in errs[cut + 1 :]):
        return False, "post-floor jitter above bound"
    return True, ""


def test_criterion_3_irrational_power_convergence():
    start = time.perf_counter()
    sigma = math.sqrt(2.0) / 2.0
    spec = TransformSpec(7, 2.0)
    u = PowerSum(((1.0, sigma),))
    ns = list(range(4, 41, 2))
    ok_all, detail = True, []
    for delta in (0.2, 0.9):
        errs = []
        for n in ns:
            sol = solve(TimeProblem.manufactured(u, delta, 1.0, spec), basis_for(spec, n))
            errs.append(error_linf(sol, u))
        ok, why = _profile_ok(ns, errs)
        final_ok = errs[-1] <= 1e-6
        ok_all = ok_all and ok and final_ok
        detail.append(f"delta={delta}: final {errs[-1]:.2e}" + (f" [{why}]" if why else ""))
    elapsed = time.perf_counter() - start
    report(
        "criterion-3 irrational-power spectral decay",
        ok_all and elapsed < 30.0,
        "; ".join(detail) + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Rescaling benefit on an unknown solution
# ---------------------------------------------------------------------------


def test_criterion_4_rescaling_benefit():
    start = time.perf_counter()
    ns = tuple(range(4, 31, 2))
    results = {}
    for r in (6, 1):
        problem = TimeProblem.from_source(np.sin, 0.5, 1.0, TransformSpec(r, 2.0))
        study = run_convergence_study(
            StudyRequest("example3", problem, ns, ref_n=60)
        )
        results[r] = study.reports[-1].linf_error
    elapsed = time.perf_counter() - start
    ratio = results[6] / results[1]
    report(
        "criterion-4 rescaling benefit at N=30",
        ratio <= 1e-3 and elapsed < 30.0,
        f"rescaled {results[6]:.2e} vs classical {results[1]:.2e} (ratio {ratio:.1e}), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Two-dimensional subdiffusion
# ---------------------------------------------------------------------------


def test_criterion_5_subdiffusion_2d():
    start = time.perf_counter()
    spec = TransformSpec(5, 2.0)
    problem, exact = manufactured_sine_power(0.5, spec, 0.6, dimension=2)
    sol = solve_spacetime(problem, basis_for(spec, 20), SpatialBasis(20, 2))
    xg = np.linspace(-1.0, 1.0, 33)
    err = float(np.max(np.abs(sol.evaluate(xg, xg, [2.0]) - exact(xg, xg, [2.0]))))
    elapsed = time.perf_counter() - start
    report(
        "criterion-5 2-d subdiffusion at M=N=20",
        err <= 1e-9 and elapsed < 60.0,
        f"grid error {err:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Assembly vs independent quadrature oracles
# ---------------------------------------------------------------------------


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    worst_s, worst_f, worst_m = 0.0, 0.0, 0.0
    for delta in (0.2, 0.5, 0.8):
        for r in (1, 2, 5):
            spec = TransformSpec(r, 2.0)
            basis = basis_for(spec, 6)
            S = assemble_stiffness(basis, FracOrder(delta), spec, 6 + 8)
            S_oracle = oracle_stiffness_matrix(basis, FracOrder(delta), spec)
            scale = np.abs(S_oracle).max()
            rel = np.abs(S - S_oracle) / np.maximum(np.abs(S_oracle), 1e-3 * scale)
            worst_s = max(worst_s, float(rel.max()))

            M = assemble_mass(basis, spec)
            M_oracle = oracle_mass_matrix(basis, spec)
            worst_m = max(worst_m, float(np.abs(M - M_oracle).max() / np.abs(M_oracle).max()))

    for r in (1, 2, 5):
        spec = TransformSpec(r, 2.0)
        basis = basis_for(spec, 6)
        f = lambda t: np.sin(np.asarray(t, dtype=float) ** r)
        F = assemble_load(basis, spec, f, 6 + 16)
        F_oracle = oracle_load_vector(basis, spec, f)
        fscale = max(np.abs(F_oracle).max(), 1.0)
        worst_f = max(worst_f, float(np.abs(F - F_oracle).max() / fscale))
        # the exact per-power path, including a sub-delta singular exponent
        terms = ((1.0, r * 0.2 - 0.9), (0.5, 2.0 * r))
        Fp = assemble_load_powers(basis, spec, terms)
        fp = lambda t: sum(c * np.asarray(t, dtype=float) ** p for c, p in terms)
        Fp_oracle = oracle_load_vector(basis, spec, fp, tol=1e-12)
        worst_f = max(worst_f, float(np.abs(Fp - Fp_oracle).max() / max(np.abs(Fp_oracle).max(), 1.0)))

    elapsed = time.perf_counter() - start
    report(
        "criterion-6 assembly oracle equivalence",
        worst_s <= 1e-8 and worst_f <= 1e-8 and worst_m <= 1e-12 and elapsed < 120.0,
        f"stiffness {worst_s:.1e}, load {worst_f:.1e}, mass {worst_m:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. Identity suite
# ---------------------------------------------------------------------------


def _check_quadrature_exactness():
    worst = 0.0
    for a, b in _solver_indices():
        for n in (4, 16, 32):
            rule = gauss_jacobi_rule(JacobiIndex(a, b), n)
            mass = _moment(a, b, 0)
            for p in (0, 1, n, 2 * n - 1):
                got = float(rule.weights @ rule.nodes**p)
                want = _moment(a, b, p)
                worst = max(worst, abs(got - want) / max(abs(want), mass))
    return worst, worst <= 1e-13


def _check_gjp_orthogonality():
    worst = 0.0
    for alpha in (0.0, 0.35):
        b = 2.0 ** (1 / 3)
        basis = TimeBasis(alpha, 8, (0.0, b))
        rule = gauss_jacobi_rule(JacobiIndex(alpha, 1.0), 16, (0.0, b))
        x = (2.0 * rule.nodes - b) / b
        table = gjp_table(basis, rule.nodes) / (1.0 + x)
        gram = (table * rule.weights) @ table.T
        scale = np.max(np.abs(np.diag(gram)))
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        worst = max(worst, off / scale)
    return worst, worst <= 1e-12


def _check_derivative_fd():
    worst = 0.0
    basis = TimeBasis(0.2, 10, (0.0, 1.9))
    h = 1e-6
    for n in range(1, 11):
        for t in (0.3, 1.1, 1.7):
            fd = (gjp_eval(basis, n, t + h) - gjp_eval(basis, n, t - h)) / (2 * h)
            exact = gjp_deriv(basis, n, t)
            worst = max(worst, abs(fd - exact) / max(abs(exact), 1.0))
    return worst, worst <= 1e-6


def _check_caputo_rl_and_composition():
    tol = 1e-6
    worst = 0.0
    spec = TransformSpec(3, 2.0)
    bpsi = spec.b_psi
    v = lambda z: np.asarray(z) ** 2 + 0.5 * np.asarray(z) ** 3
    vp = lambda z: 2.0 * np.asarray(z) + 1.5 * np.asarray(z) ** 2
    for delta in (0.25, 0.85):
        for t in np.linspace(0.15, 0.95, 5) * bpsi:
            c = psi_caputo_numeric(spec, FracOrder(delta), v, float(t), tol, v_prime=vp)
            rl = psi_rl_numeric(spec, FracOrder(delta), v, float(t), tol)
            worst = max(worst, abs(c - rl) / (2 * tol))

    spec2 = TransformSpec(3, 2.0)
    d2 = FracOrder(0.6)
    w = lambda z: 1.0 + np.asarray(z) + 0.25 * np.asarray(z) ** 2

    def integral_of_w(z):
        z = np.atleast_1d(z)
        return np.array(
            [psi_integral_numeric(spec2, d2, w, float(zz), 1e-10) if zz > 0 else 0.0 for zz in z]
        )

    for frac in (0.3, 0.7):
        t = frac * spec2.b_psi
        got = psi_rl_numeric(spec2, d2, integral_of_w, t, tol)
        worst = max(worst, abs(got - w(t)) / (2 * tol))
    return worst, worst <= 1.0  # already scaled by 2*tol


def _check_adjoint():
    spec = TransformSpec(2, 2.0)
    b = spec.b_psi
    d = FracOrder(0.5)
    v = lambda z: np.asarray(z) + np.asarray(z) ** 3
    vp = lambda z: 1.0 + 3.0 * np.asarray(z) ** 2
    w = lambda z: np.asarray(z) * (b - np.asarray(z)) * (1.0 + 0.3 * np.asarray(z))
    wp = lambda z: (b - 2.0 * np.asarray(z)) * (1.0 + 0.3 * np.asarray(z)) + 0.3 * np.asarray(z) * (
        b - np.asarray(z)
    )

    def lhs_f(ts):
        ts = np.atleast_1d(ts)
        return np.array(
            [
                psi_caputo_numeric(spec, d, v, float(t), 1e-11, v_prime=vp)
                * w(float(t))
                * spec.psi_prime(float(t))
                for t in ts
            ]
        )

    def rhs_f(ts):
        ts = np.atleast_1d(ts)
        return np.array(
            [
                v(float(t)) * _right_caputo_numeric(spec, d, wp, float(t), 1e-11) * spec.psi_prime(float(t))
                if t < b
                else 0.0
                for t in ts
            ]
        )

    lhs, _ = adaptive_quad(lhs_f, 0.0, b, 1e-10)
    rhs, _ = adaptive_quad(rhs_f, 0.0, b, 1e-10)
    return abs(lhs - rhs), abs(lhs - rhs) <= 1e-7


def _check_alpha_invariance():
    spec = TransformSpec(5, 2.0)
    delta = 0.2
    pts = np.linspace(0.0, 2.0, 10)
    vals = []
    for alpha in (0.0, 0.3, -delta + 0.01):
        prob = TimeProblem.manufactured(PowerSum(((1.0, 0.6),)), delta, 1.0, spec)
        vals.append(solve(prob, basis_for(spec, 8, alpha)).evaluate(pts))
    worst = max(float(np.max(np.abs(vals[0] - v))) for v in vals[1:])
    return worst, worst <= 1e-9


def _check_eigen_vs_dense():
    from fracspec.pde_solver import assemble_spacetime_load, space_mass_matrix

    spec = TransformSpec(5, 2.0)
    n = m = 8
    tb = basis_for(spec, n)
    sb = SpatialBasis(m, 2)
    problem, _ = manufactured_sine_power(0.5, spec, 0.6, dimension=2)
    sol = solve_spacetime(problem, tb, sb)
    S = assemble_stiffness(tb, problem.delta, spec, n + 8)
    M = assemble_mass(tb, spec)
    B = space_mass_matrix(m)
    K = sb.n_funcs
    F = assemble_spacetime_load(problem, tb, sb).reshape(n, K * K)
    eye = np.eye(K)
    big_b = np.kron(B, B)
    lap = np.kron(eye, B) + np.kron(B, eye)
    big = np.kron(big_b.T, S) + np.kron(lap.T, M) + np.kron(big_b.T, M)
    dense = np.linalg.solve(big, F.reshape(-1, order="F")).reshape((n, K * K), order="F")
    diff = np.abs(sol.V.reshape(n, K * K) - dense).max()
    scale = max(np.abs(dense).max(), 1.0)
    return diff / scale, diff / scale <= 1e-10


def test_criterion_7_identity_suite():
    start = time.perf_counter()
    checks = {
        "quadrature exactness": _check_quadrature_exactness(),
        "basis orthogonality": _check_gjp_orthogonality(),
        "derivative vs finite differences": _check_derivative_fd(),
        "derivative-form and inversion identities": _check_caputo_rl_and_composition(),
        "adjoint identity": _check_adjoint(),
        "basis-parameter invariance": _check_alpha_invariance(),
        "eigen solve vs dense solve": _check_eigen_vs_dense(),
    }
    elapsed = time.perf_counter() - start
    failures = [name for name, (_, ok) in checks.items() if not ok]
    detail = ", ".join(f"{name} {value:.1e}" for name, (value, _) in checks.items())
    report(
        "criterion-7 identity suite",
        not failures and elapsed < 60.0,
        detail + f", {elapsed:.1f}s",
    )
