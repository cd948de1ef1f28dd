"""Shared oracle helpers: nested adaptive quadrature, independent of assembly.

The solver builds its matrices by absorbing singular factors into
Gauss-Jacobi weights.  The oracles here never do that: they evaluate the
defining integrals by adaptive Gauss-Kronrod bisection (with substitution of
the known endpoint exponent), so agreement is a genuine cross-check.
"""

import numpy as np
import pytest

from fracspec.frac_ops import adaptive_quad, psi_caputo_numeric
from fracspec.orthopoly import gjp_deriv, gjp_eval


def oracle_stiffness_matrix(basis, delta, spec, outer_tol=1e-11, inner_tol=1e-11):
    """S_mn by nested adaptive quadrature of the defining inner product."""
    n_modes = basis.n_modes
    b = basis.interval[1]
    out = np.zeros((n_modes, n_modes))
    for n in range(1, n_modes + 1):
        def v_prime(z, n=n):
            return gjp_deriv(basis, n, np.asarray(z))

        cache = {}  # the derivative value is m-independent; reuse across rows

        def deriv_at(t, n=n):
            if t not in cache:
                cache[t] = psi_caputo_numeric(spec, delta, None, t, inner_tol, v_prime=v_prime)
            return cache[t]

        for m in range(1, n_modes + 1):
            def integrand(ts, m=m):
                ts = np.atleast_1d(ts)
                return np.array(
                    [
                        deriv_at(float(t)) * gjp_eval(basis, m, float(t)) * spec.psi_prime(float(t))
                        for t in ts
                    ]
                )

            val, _ = adaptive_quad(integrand, 0.0, b, outer_tol)
            out[m - 1, n - 1] = val
    return out


def oracle_load_vector(basis, spec, f, tol=1e-12):
    """F_m = integral of f * j_m * psi' by adaptive quadrature."""
    n_modes = basis.n_modes
    b = basis.interval[1]
    out = np.zeros(n_modes)
    for m in range(1, n_modes + 1):
        def integrand(ts, m=m):
            ts = np.atleast_1d(ts)
            return f(ts) * gjp_eval(basis, m, ts) * spec.psi_prime(ts)

        val, _ = adaptive_quad(integrand, 0.0, b, tol)
        out[m - 1] = val
    return out


def oracle_mass_matrix(basis, spec):
    """Exact mass entries: the integrand is polynomial, plain Gauss-Legendre
    of sufficient order integrates it without any Jacobi-weight absorption."""
    n_modes = basis.n_modes
    b = basis.interval[1]
    deg = 2 * n_modes + spec.r - 1
    x, w = np.polynomial.legendre.leggauss(deg // 2 + 2)
    t = 0.5 * b * (x + 1.0)
    wt = 0.5 * b * w
    out = np.zeros((n_modes, n_modes))
    for m in range(1, n_modes + 1):
        jm = gjp_eval(basis, m, t)
        for n in range(m, n_modes + 1):
            val = np.sum(wt * jm * gjp_eval(basis, n, t) * spec.psi_prime(t))
            out[m - 1, n - 1] = out[n - 1, m - 1] = val
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def rule_batches(monkeypatch):
    """The sizes of the gauss_jacobi_rules batches that the solvers build, one entry a call."""
    import fracspec.ode_solver as ode_mod

    real = ode_mod.gauss_jacobi_rules
    calls = []

    def counting(requests):
        requests = list(requests)
        calls.append(len(requests))
        return real(requests)

    monkeypatch.setattr(ode_mod, "gauss_jacobi_rules", counting)
    return calls


@pytest.fixture
def basis_tables(monkeypatch):
    """The Jacobi family of each jacobi_table call that the solvers' assembly makes."""
    import fracspec.ode_solver as ode_mod

    real = ode_mod.jacobi_table
    families = []

    def counting(idx, n_max, x):
        families.append(idx)
        return real(idx, n_max, x)

    monkeypatch.setattr(ode_mod, "jacobi_table", counting)
    return families
