import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec.errors import DomainError, NumericalFailureError
from fracspec.frac_ops import (
    FracOrder,
    PowerSum,
    TransformSpec,
    _graded_endpoint_quad,
    _right_caputo_numeric,
    _right_rl_numeric,
    adaptive_quad,
    caputo_power,
    psi_caputo_numeric,
    psi_integral_numeric,
    psi_rl_numeric,
)


def poly(coeffs):
    """Callable sum_k c_k z^k accepting arrays."""

    def f(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        for k, c in enumerate(coeffs):
            out = out + c * z**k
        return out

    return f


# ---------------------------------------------------------------------------
# Gamma and domain types
# ---------------------------------------------------------------------------


def test_gamma_reference_values():
    assert math.gamma(1.0) == 1.0
    assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.05, 9.0))
def test_gamma_recurrence(x):
    assert math.gamma(x + 1.0) == pytest.approx(x * math.gamma(x), rel=1e-13)


def test_transform_spec_validation():
    with pytest.raises(DomainError):
        TransformSpec(0, 2.0)
    with pytest.raises(DomainError):
        TransformSpec(2, -1.0)
    # A non-finite horizon is refused here, not at the first rule build.
    for horizon in (math.inf, math.nan):
        with pytest.raises(DomainError, match="horizon must be positive and finite"):
            TransformSpec(1, horizon)
    spec = TransformSpec(5, 2.0)
    assert spec.gamma == pytest.approx(0.2)
    assert spec.b_psi == pytest.approx(2.0**0.2, rel=1e-15)
    assert spec.psi_prime(0.5) == pytest.approx(5 * 0.5**4, rel=1e-15)


def test_frac_order_validation():
    with pytest.raises(DomainError):
        FracOrder(0.0)
    with pytest.raises(DomainError):
        FracOrder(1.0)
    assert FracOrder(0.5).delta == 0.5


# ---------------------------------------------------------------------------
# Rescaling map
# ---------------------------------------------------------------------------


def test_psi_inverse_examples():
    assert TransformSpec(1, 2.0).psi_inverse(0.5) == 0.5
    assert TransformSpec(5, 2.0).psi_inverse(1.0) == 1.0
    assert TransformSpec(5, 2.0).psi_inverse(2.0) == pytest.approx(2.0**0.2, rel=1e-15)
    np.testing.assert_array_equal(TransformSpec(2, 2.0).psi_inverse([0.0, 0.25]), [0.0, 0.5])
    with pytest.raises(DomainError):
        TransformSpec(2, 2.0).psi_inverse(-0.1)
    with pytest.raises(DomainError):
        TransformSpec(2, 2.0).psi_inverse([1.0, 2.1])


@settings(max_examples=80, deadline=None)
@given(r=st.integers(1, 10), s=st.floats(1e-6, 2.0))
def test_transform_round_trip(r, s):
    spec = TransformSpec(r, 2.0)
    back = spec.psi(spec.psi_inverse(s))
    assert back == pytest.approx(s, rel=1e-14)


def test_smoothing_property_pointwise():
    # u(s) = s^(p/q) rescaled by gamma = 1/q is the exact monomial t^p
    for q, p in [(5, 3), (7, 2), (8, 5)]:
        spec = TransformSpec(q, 2.0)
        t = np.linspace(1e-3, spec.b_psi, 50)
        s = t**q
        u = s ** (p / q)
        np.testing.assert_allclose(u, t**p, rtol=1e-14)


# ---------------------------------------------------------------------------
# Closed-form derivative of powers
# ---------------------------------------------------------------------------


def test_caputo_power_values():
    d = FracOrder(0.5)
    assert caputo_power(d, 2.0, 1.0) == pytest.approx(2.0 / math.gamma(2.5), rel=1e-14)
    assert caputo_power(FracOrder(0.9), 1.0, 0.0) == 0.0
    got = caputo_power(FracOrder(0.3), 0.6, 0.5)
    want = math.gamma(1.6) / math.gamma(1.3) * 0.5**0.3
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(DomainError):
        caputo_power(d, 0.0, 1.0)
    with pytest.raises(DomainError):
        caputo_power(d, -1.0, 1.0)


def test_caputo_power_against_defining_integral():
    # oracle: (1/Gamma(1-d)) int_0^s (s-z)^(-d) sigma z^(sigma-1) dz with both
    # endpoint exponents handled by substitution
    d, sigma, s = 0.3, 0.6, 0.5

    def integrand(z):
        return (s - z) ** (-d) * sigma * z ** (sigma - 1.0)

    val, _ = _graded_endpoint_quad(integrand, 0.0, s, 1e-10, mu_a=sigma - 1.0, mu_b=-d)
    val /= math.gamma(1.0 - d)
    assert val == pytest.approx(caputo_power(FracOrder(d), sigma, s), abs=1e-8)


# ---------------------------------------------------------------------------
# PowerSum
# ---------------------------------------------------------------------------


def test_power_sum_evaluation_and_caputo():
    u = PowerSum(((2.0, 2.0), (1.0, 0.5)), constant=3.0)
    assert u(1.0) == pytest.approx(6.0)
    d = FracOrder(0.4)
    s = 0.7
    want = 2.0 * caputo_power(d, 2.0, s) + 1.0 * caputo_power(d, 0.5, s)
    assert u.caputo(d, s) == pytest.approx(want, rel=1e-14)  # constant annihilated
    with pytest.raises(DomainError):
        PowerSum(((1.0, 0.0),))


# ---------------------------------------------------------------------------
# Adaptive quadrature engine
# ---------------------------------------------------------------------------


def test_adaptive_quad_known_integrals():
    val, err = adaptive_quad(lambda x: np.sin(x), 0.0, math.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert err < 1e-10
    val, _ = adaptive_quad(lambda x: x**7 - 3 * x**2, -1.0, 2.0, 1e-13)
    assert val == pytest.approx(2**8 / 8 - 1 / 8 - (8 + 1), abs=1e-11)


def test_adaptive_quad_budget_failure_carries_estimate():
    # a needle the budget cannot resolve at this tolerance
    def needle(x):
        return 1.0 / (1e-24 + (x - 0.3131) ** 2)

    with pytest.raises(NumericalFailureError) as info:
        adaptive_quad(needle, 0.0, 1.0, 1e-300, max_evals=2000)
    assert info.value.estimate is not None
    assert info.value.error_bound is not None


def test_graded_endpoint_quad_singular_endpoints():
    # int_0^1 z^(-1/2) (1-z)^(-1/2) dz = pi
    val, _ = _graded_endpoint_quad(
        lambda z: z**-0.5 * (1 - z) ** -0.5, 0.0, 1.0, 1e-10, mu_a=-0.5, mu_b=-0.5
    )
    assert val == pytest.approx(math.pi, abs=1e-9)


# ---------------------------------------------------------------------------
# psi-weighted operators
# ---------------------------------------------------------------------------


def test_psi_caputo_reduces_to_classical():
    spec = TransformSpec(1, 2.0)
    d = FracOrder(0.5)
    got = psi_caputo_numeric(spec, d, lambda z: z**2, 1.0, 1e-10, v_prime=lambda z: 2 * z)
    assert got == pytest.approx(caputo_power(d, 2.0, 1.0), abs=1e-10)


def test_psi_caputo_annihilates_constants():
    spec = TransformSpec(3, 2.0)
    got = psi_caputo_numeric(
        spec,
        FracOrder(0.7),
        poly([4.0]),
        0.9,
        1e-10,
        v_prime=poly([0.0]),
    )
    assert got == pytest.approx(0.0, abs=1e-10)


def test_psi_caputo_chain_of_variables():
    # under s = t^2 the map v = u o psi sends u(s)=sqrt(s) to v(t)=t and
    # u(s)=s^2 to v(t)=t^4; the rescaled derivative matches the classical one
    spec = TransformSpec(2, 1.0)
    d = FracOrder(0.5)
    got = psi_caputo_numeric(spec, d, poly([0, 1]), 1.0, 1e-10, v_prime=poly([1]))
    assert got == pytest.approx(caputo_power(d, 0.5, 1.0), abs=1e-9)
    got = psi_caputo_numeric(
        spec, d, lambda z: z**4, 1.0, 1e-10, v_prime=lambda z: 4 * z**3
    )
    assert got == pytest.approx(caputo_power(d, 2.0, 1.0), abs=1e-9)


def test_psi_caputo_power_identity_general_r():
    # v(t) = t^p corresponds to u(s) = s^(p/r); evaluate at interior t
    for r, p, dd in [(3, 2, 0.4), (5, 4, 0.85)]:
        spec = TransformSpec(r, 2.0)
        t = 0.6 * spec.b_psi
        got = psi_caputo_numeric(
            spec,
            FracOrder(dd),
            lambda z: z**p,
            t,
            1e-10,
            v_prime=lambda z: p * z ** (p - 1.0),
        )
        want = caputo_power(FracOrder(dd), p / r, t**r)
        assert got == pytest.approx(want, rel=1e-8)


def test_psi_caputo_finite_difference_fallback():
    spec = TransformSpec(1, 2.0)
    d = FracOrder(0.5)
    got = psi_caputo_numeric(spec, d, lambda z: np.asarray(z) ** 3, 1.5, 1e-8)
    assert got == pytest.approx(caputo_power(d, 3.0, 1.5), rel=1e-7)


def test_psi_caputo_domain_checks():
    spec = TransformSpec(2, 2.0)
    with pytest.raises(DomainError):
        psi_caputo_numeric(spec, FracOrder(0.5), poly([0, 1]), 0.0, 1e-8)
    with pytest.raises(DomainError):
        psi_caputo_numeric(spec, FracOrder(0.5), poly([0, 1]), 3.0, 1e-8)
    with pytest.raises(DomainError):
        psi_caputo_numeric(spec, FracOrder(0.5), poly([0, 1]), 1.0, -1e-8)


def test_psi_integral_of_one_classical():
    spec = TransformSpec(1, 2.0)
    for dd in (0.3, 0.7):
        got = psi_integral_numeric(spec, FracOrder(dd), poly([1.0]), 0.8, 1e-10)
        assert got == pytest.approx(0.8**dd / math.gamma(dd + 1.0), abs=1e-10)


def test_psi_integral_of_zero():
    spec = TransformSpec(4, 2.0)
    assert psi_integral_numeric(spec, FracOrder(0.5), poly([0.0]), 0.9, 1e-10) == pytest.approx(
        0.0, abs=1e-12
    )
    assert psi_integral_numeric(spec, FracOrder(0.5), poly([1.0]), 0.0, 1e-10) == 0.0


def test_psi_integral_power_rule():
    # I^d applied to (psi(t))^mu gives Gamma(mu+1)/Gamma(mu+1+d) psi(t)^(mu+d)
    spec = TransformSpec(3, 2.0)
    d = FracOrder(0.6)
    mu = 2.0
    t = 0.9
    got = psi_integral_numeric(spec, d, lambda z: np.asarray(z) ** (3 * mu), t, 1e-11)
    want = math.gamma(mu + 1.0) / math.gamma(mu + 1.0 + d.delta) * (t**3) ** (mu + d.delta)
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# Operator identities (paper-level properties, all sides numeric)
# ---------------------------------------------------------------------------

CRL_TOL = 1e-6


@pytest.mark.parametrize("dd", [0.25, 0.5, 0.85])
def test_caputo_equals_rl_for_zero_initial_value(dd):
    spec = TransformSpec(3, 2.0)
    b = spec.b_psi
    v = poly([0.0, 0.0, 1.0, 0.5])
    v_prime = poly([0.0, 2.0, 1.5])
    for t in np.linspace(0.15, 0.95, 5) * b:
        c = psi_caputo_numeric(spec, FracOrder(dd), v, float(t), CRL_TOL, v_prime=v_prime)
        rl = psi_rl_numeric(spec, FracOrder(dd), v, float(t), CRL_TOL)
        assert abs(c - rl) <= 2 * CRL_TOL


@pytest.mark.parametrize("dd,r", [(0.4, 1), (0.6, 3)])
def test_derivative_inverts_integral(dd, r):
    spec = TransformSpec(r, 2.0)
    b = spec.b_psi
    d = FracOrder(dd)
    v = poly([1.0, 1.0, 0.25])

    def integral_of_v(z):
        z = np.atleast_1d(z)
        return np.array(
            [psi_integral_numeric(spec, d, v, float(zz), 1e-10) if zz > 0 else 0.0 for zz in z]
        )

    for frac in (0.3, 0.7):
        t = frac * b
        got = psi_rl_numeric(spec, d, integral_of_v, t, 1e-6)
        assert abs(got - v(t)) <= 1e-6


@pytest.mark.parametrize("dd,r", [(0.5, 2), (0.3, 1)])
def test_adjoint_identity(dd, r):
    # (D v, w)_psi = (v, right-D w)_psi for w vanishing at both endpoints;
    # with w(b)=0 the right RL derivative equals its Caputo form, which is
    # what we evaluate (nested adaptive quadrature on both sides).
    spec = TransformSpec(r, 2.0)
    b = spec.b_psi
    d = FracOrder(dd)
    v = poly([0.0, 1.0, 0.0, 1.0])
    v_prime = poly([1.0, 0.0, 3.0])
    w = lambda z: np.asarray(z) * (b - np.asarray(z)) * (1.0 + 0.3 * np.asarray(z))
    w_prime = lambda z: (b - 2.0 * np.asarray(z)) * (1.0 + 0.3 * np.asarray(z)) + 0.3 * np.asarray(
        z
    ) * (b - np.asarray(z))

    def lhs_integrand(ts):
        ts = np.atleast_1d(ts)
        return np.array(
            [
                psi_caputo_numeric(spec, d, v, float(t), 1e-11, v_prime=v_prime)
                * w(float(t))
                * spec.psi_prime(float(t))
                for t in ts
            ]
        )

    def rhs_integrand(ts):
        ts = np.atleast_1d(ts)
        out = []
        for t in ts:
            t = float(t)
            out.append(
                v(t) * _right_caputo_numeric(spec, d, w_prime, t, 1e-11) * spec.psi_prime(t)
                if t < b
                else 0.0
            )
        return np.array(out)

    lhs, _ = adaptive_quad(lhs_integrand, 0.0, b, 1e-10)
    rhs, _ = adaptive_quad(rhs_integrand, 0.0, b, 1e-10)
    assert abs(lhs - rhs) <= 1e-7


def test_right_rl_matches_right_caputo_for_vanishing_w():
    # FD-of-integral right RL vs the Caputo form: the right-sided analogue of
    # the C-RL relation, both sides computed independently
    spec = TransformSpec(2, 2.0)
    b = spec.b_psi
    d = FracOrder(0.5)
    w = lambda z: np.asarray(z) * (b - np.asarray(z)) * (1.0 + 0.3 * np.asarray(z))
    w_prime = lambda z: (b - 2.0 * np.asarray(z)) * (1.0 + 0.3 * np.asarray(z)) + 0.3 * np.asarray(
        z
    ) * (b - np.asarray(z))
    for t in (0.3 * b, 0.6 * b, 0.85 * b):
        fd = _right_rl_numeric(spec, d, w, t, 1e-8)
        direct = _right_caputo_numeric(spec, d, w_prime, t, 1e-11)
        assert fd == pytest.approx(direct, abs=2e-6)


def test_reduction_to_classical_at_gamma_one():
    # every psi-operator with r = 1 equals its classical counterpart on powers
    spec = TransformSpec(1, 2.0)
    d = FracOrder(0.35)
    t = 1.2
    got = psi_caputo_numeric(spec, d, lambda z: z**3, t, 1e-10, v_prime=lambda z: 3 * z**2)
    assert got == pytest.approx(caputo_power(d, 3.0, t), abs=1e-9)
    got = psi_integral_numeric(spec, d, lambda z: np.asarray(z) ** 2, t, 1e-10)
    want = math.gamma(3.0) / math.gamma(3.0 + d.delta) * t ** (2.0 + d.delta)
    assert got == pytest.approx(want, rel=1e-9)
