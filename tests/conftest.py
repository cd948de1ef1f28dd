"""Shared oracle helpers: nested adaptive quadrature, independent of assembly.

The solver builds its matrices by absorbing singular factors into
Gauss-Jacobi weights.  The oracles here never do that: they evaluate the
defining integrals by adaptive Gauss-Kronrod bisection (with substitution of
the known endpoint exponent), so agreement is a genuine cross-check.
"""

import numpy as np
import pytest

from fracspec.frac_ops import adaptive_quad, psi_caputo_numeric
from fracspec.orthopoly import gjp_deriv, gjp_table


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
                # One table per panel; the derivative and psi' stay per point,
                # where a vectorised power could move a bit.
                row = gjp_table(basis, ts)[m - 1]
                return np.array(
                    [
                        deriv_at(float(t)) * row[i] * spec.psi_prime(float(t))
                        for i, t in enumerate(ts)
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
            return f(ts) * gjp_table(basis, ts)[m - 1] * spec.psi_prime(ts)

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
    table = gjp_table(basis, t)
    out = np.zeros((n_modes, n_modes))
    for m in range(1, n_modes + 1):
        jm = table[m - 1]
        for n in range(m, n_modes + 1):
            val = np.sum(wt * jm * table[n - 1] * spec.psi_prime(t))
            out[m - 1, n - 1] = out[n - 1, m - 1] = val
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def rule_requests(monkeypatch):
    """(batch sizes, rule sizes) of the gauss_jacobi_rules calls that the solvers make.

    One entry a call in each list: the number of rules in the batch, and the
    point count of each of its requests, in request order.
    """
    import fracspec.ode_solver as ode_mod

    real = ode_mod.gauss_jacobi_rules
    batches, sizes = [], []

    def recording(requests):
        requests = list(requests)
        batches.append(len(requests))
        sizes.append(tuple(n for _, n, _ in requests))
        return real(requests)

    monkeypatch.setattr(ode_mod, "gauss_jacobi_rules", recording)
    return batches, sizes


@pytest.fixture
def rule_batches(rule_requests):
    """The sizes of the gauss_jacobi_rules batches that the solvers build, one entry a call."""
    return rule_requests[0]


@pytest.fixture
def rule_sizes(rule_requests):
    """The point counts of the rules of each of those batches, one tuple a call."""
    return rule_requests[1]


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
