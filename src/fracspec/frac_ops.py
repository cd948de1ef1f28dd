"""Fractional operators for the power-law rescaling psi(t) = t^r.

Closed forms for power functions plus adaptive-quadrature evaluators of the
psi-weighted integral/derivative operators.  The quadrature routines here are
deliberately independent of the Gauss-Jacobi assembly path: they are the
oracles the solver matrices are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailureError

__all__ = [
    "TransformSpec",
    "FracOrder",
    "PowerSum",
    "caputo_coef",
    "caputo_power",
    "adaptive_quad",
    "psi_caputo_numeric",
    "psi_integral_numeric",
    "psi_rl_numeric",
]


@dataclass(frozen=True)
class TransformSpec:
    """Rescaling map psi(t) = t^r on (0, T^(1/r)), gamma = 1/r.

    r is kept as an exact integer so the factor (t^r - z^r)/(t - z) stays a
    polynomial; gamma is always derived, never stored.
    """

    r: int
    horizon_T: float

    def __post_init__(self):
        if not (isinstance(self.r, (int, np.integer)) and self.r >= 1):
            raise DomainError(f"r must be a positive integer, got {self.r!r}")
        if not 0 < self.horizon_T < math.inf:
            raise DomainError(f"horizon must be positive and finite, got {self.horizon_T}")

    @property
    def gamma(self) -> float:
        return 1.0 / self.r

    @property
    def b_psi(self) -> float:
        return self.horizon_T ** (1.0 / self.r)

    def psi(self, t):
        """Physical time s = t^r of rescaled time t."""
        return np.asarray(t, dtype=float) ** self.r if not np.isscalar(t) else float(t) ** self.r

    def psi_inverse(self, s):
        """Rescaled time t = s^(1/r) of physical times s in [0, T]; DomainError outside."""
        s = np.asarray(s, dtype=float)
        T = self.horizon_T
        # Written so that a NaN time is refused too.
        outside = ~((s >= 0) & (s <= T * (1 + 1e-12)))
        if np.any(outside):
            raise DomainError(f"time {s[outside].flat[0]} outside [0, {T}]")
        return s ** (1.0 / self.r)

    def psi_prime(self, t):
        t = np.asarray(t, dtype=float)
        val = self.r * t ** (self.r - 1)
        return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class FracOrder:
    """Fractional order delta, restricted to (0, 1)."""

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must lie in (0,1), got {self.delta}")


def caputo_coef(sigma: float, delta: float) -> float:
    """Gamma(sigma+1)/Gamma(sigma+1-delta): D^delta s^sigma = coef * s^(sigma-delta)."""
    return math.gamma(sigma + 1.0) / math.gamma(sigma + 1.0 - delta)


def caputo_power(delta: FracOrder, sigma: float, s: float) -> float:
    """Caputo derivative of s^sigma: Gamma(sigma+1)/Gamma(sigma+1-delta) s^(sigma-delta)."""
    if not sigma > 0:
        raise DomainError(f"power exponent must be positive, got {sigma}")
    d = delta.delta
    coef = caputo_coef(sigma, d)
    if s == 0.0:
        if sigma > d:
            return 0.0
        if sigma == d:
            return coef
        return math.inf
    return coef * s ** (sigma - d)


@dataclass(frozen=True)
class PowerSum:
    """Finite sum c_1 s^{e_1} + ... + c_k s^{e_k} + constant, exponents > 0."""

    terms: tuple[tuple[float, float], ...]
    constant: float = 0.0

    def __post_init__(self):
        for _, e in self.terms:
            if not e > 0:
                raise DomainError(f"exponents must be positive, got {e}")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, self.constant)
        for c, e in self.terms:
            out = out + c * s**e
        return float(out) if out.ndim == 0 else out

    def caputo(self, delta: FracOrder, s):
        """Caputo derivative term by term; the constant is annihilated."""
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for c, e in self.terms:
            out = out + c * caputo_coef(e, delta.delta) * s ** (e - delta.delta)
        return float(out) if out.ndim == 0 else out

    def source_terms(self, delta: FracOrder, reaction: float, r: int) -> tuple:
        """(coef, power) t-monomials of D^delta u + reaction*u under s = t^r; no constant."""
        d = delta.delta
        terms = []
        for c, e in self.terms:
            terms.append((c * caputo_coef(e, d), r * (e - d)))
            terms.append((reaction * c, r * e))
        return tuple(terms)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature (oracle machinery)
# ---------------------------------------------------------------------------

# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (QUADPACK constants).
_GK_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_GK_WEIGHTS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_G7_WEIGHTS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)
_G7_SLICE = slice(1, None, 2)
_EVAL_BUDGET = 2**20
_REL_FLOOR = 2e-14


def _panel(f, a: float, b: float) -> tuple[float, float, int]:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = f(mid + half * _GK_NODES)
    kron = half * float(_GK_WEIGHTS @ vals)
    gauss = half * float(_G7_WEIGHTS @ vals[_G7_SLICE])
    return kron, abs(kron - gauss), _GK_NODES.size


def adaptive_quad(f, a: float, b: float, tol: float, max_evals: int = _EVAL_BUDGET):
    """Globally adaptive bisection quadrature of a vectorized integrand.

    Panels are accepted when the embedded Gauss-Kronrod error estimate falls
    below the panel's proportional share of the tolerance; tol is absolute,
    with a small relative floor so large-magnitude integrands do not demand
    sub-roundoff accuracy.  Refinement order is fixed (deepest-first), so
    results are deterministic.  Exceeding the evaluation budget raises
    NumericalFailureError carrying the running estimate and its error bound.
    """
    if not b > a:
        return (0.0, 0.0)
    width = b - a
    # Crude scale pass so the acceptance threshold can include a relative floor.
    quarters = a + width * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    scale = 0.0
    for lo, hi in zip(quarters[:-1], quarters[1:]):
        est, _, _ = _panel(f, lo, hi)
        scale += abs(est)
    tol_eff = max(tol, _REL_FLOOR * scale)

    total, bound, used = 0.0, 0.0, 4 * _GK_NODES.size
    width_floor = 64 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        est, err, n = _panel(f, lo, hi)
        used += n
        if used > max_evals:
            raise NumericalFailureError(
                f"quadrature budget of {max_evals} evaluations exhausted",
                estimate=total + est,
                error_bound=bound + err,
            )
        converged = err <= tol_eff * (hi - lo) / width
        # A panel whose error estimate sits at the roundoff floor of its own
        # magnitude cannot improve under bisection; accept it as-is.
        at_floor = err <= 64 * np.finfo(float).eps * abs(est) or (hi - lo) <= width_floor
        if converged or at_floor:
            total += est
            bound += err
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi))
            stack.append((lo, mid))
    return total, bound


def _graded_endpoint_quad(f, a, b, tol, mu_a=0.0, mu_b=0.0, max_evals=_EVAL_BUDGET):
    """Integrate f on (a, b) with algebraic endpoint behavior (z-a)^mu_a, (b-z)^mu_b.

    Known endpoint exponents in (-1, 0) are absorbed by the substitution
    u = (z - a)^(1 + mu) (resp. mirrored), after which the integrand is
    bounded and plain adaptive bisection converges without grading stalls.
    """
    if not b > a:
        return (0.0, 0.0)
    mid = 0.5 * (a + b)
    val, bnd = 0.0, 0.0

    def left_piece():
        if mu_a <= -1.0:
            raise DomainError(f"non-integrable endpoint exponent {mu_a}")
        if mu_a == 0.0:
            return adaptive_quad(f, a, mid, 0.5 * tol, max_evals)
        p = 1.0 + mu_a

        def g(u):
            z = a + u ** (1.0 / p)
            return f(z) * (z - a) ** (-mu_a) / p

        return adaptive_quad(g, 0.0, (mid - a) ** p, 0.5 * tol, max_evals)

    def right_piece():
        if mu_b <= -1.0:
            raise DomainError(f"non-integrable endpoint exponent {mu_b}")
        if mu_b == 0.0:
            return adaptive_quad(f, mid, b, 0.5 * tol, max_evals)
        p = 1.0 + mu_b

        def g(u):
            z = b - u ** (1.0 / p)
            return f(z) * (b - z) ** (-mu_b) / p

        return adaptive_quad(g, 0.0, (b - mid) ** p, 0.5 * tol, max_evals)

    for piece in (left_piece, right_piece):
        v, e = piece()
        val += v
        bnd += e
    return val, bnd


def _fd_derivative(g, t: float, h: float) -> float:
    """Five-point central difference, O(h^4)."""
    return (-g(t + 2 * h) + 8 * g(t + h) - 8 * g(t - h) + g(t - 2 * h)) / (12 * h)


def _kernel_ratio(spec: TransformSpec, t: float, z: np.ndarray) -> np.ndarray:
    """(t^r - z^r)/(t - z) = sum_{k<r} z^k t^(r-1-k), evaluated stably."""
    out = np.zeros_like(z)
    for k in range(spec.r):
        out += z**k * t ** (spec.r - 1 - k)
    return out


def _kernel_ratio_right(spec: TransformSpec, t: float, z: np.ndarray) -> np.ndarray:
    """(z^r - t^r)/(z - t) = sum_{k<r} z^(r-1-k) t^k."""
    out = np.zeros_like(z)
    for k in range(spec.r):
        out += z ** (spec.r - 1 - k) * t**k
    return out


def _require_inside(spec: TransformSpec, t: float):
    if not 0.0 < t <= spec.b_psi * (1 + 1e-12):
        raise DomainError(f"t must lie in (0, {spec.b_psi}], got {t}")


def _derivative_callback(v, v_prime):
    if v_prime is not None:
        return v_prime
    # Fallback for external callers: O(h^4) finite differences of v.
    return lambda z: _fd_derivative(v, np.asarray(z, dtype=float), 1e-5)


def psi_caputo_numeric(spec, delta: FracOrder, v, t: float, tol: float, v_prime=None):
    """Caputo derivative under psi: integral of (t^r - z^r)^(-delta) v'(z) / Gamma(1-d).

    The (t - z)^(-delta) endpoint factor is removed by substitution before
    adaptive quadrature.  v' should be supplied analytically (v_prime); all
    internal call sites do so, external callers may rely on the documented
    O(h^4) finite-difference fallback.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    _require_inside(spec, t)
    d = delta.delta
    dv = _derivative_callback(v, v_prime)
    p = 1.0 - d

    def g(u):
        z = t - u ** (1.0 / p)
        return _kernel_ratio(spec, t, z) ** (-d) * dv(z)

    val, _ = adaptive_quad(g, 0.0, t**p, tol * p * math.gamma(1.0 - d))
    return val / (p * math.gamma(1.0 - d))


def psi_integral_numeric(spec, delta: FracOrder, v, t: float, tol: float):
    """Fractional integral under psi: r z^(r-1) (t^r - z^r)^(delta-1) v(z) / Gamma(d)."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    if t == 0.0:
        return 0.0
    _require_inside(spec, t)
    d = delta.delta

    def g(u):
        z = t - u ** (1.0 / d)
        return spec.psi_prime(z) * _kernel_ratio(spec, t, z) ** (d - 1.0) * v(z)

    val, _ = adaptive_quad(g, 0.0, t**d, tol * d * math.gamma(d))
    return val / (d * math.gamma(d))


def psi_rl_numeric(spec, delta: FracOrder, v, t: float, tol: float):
    """Riemann-Liouville derivative under psi, computed as literally defined.

    Evaluates G(t) = I^(1-delta) v(t) by adaptive quadrature and applies the
    outer (1/psi') d/dt by five-point finite differences; independent of the
    Caputo evaluation path, so the two can cross-validate each other.
    """
    _require_inside(spec, t)
    d = delta.delta
    p = 1.0 - d

    def big_g(tt):
        def g(u):
            z = tt - u ** (1.0 / p)
            return spec.psi_prime(z) * _kernel_ratio(spec, tt, z) ** (-d) * v(z)

        val, _ = adaptive_quad(g, 0.0, tt**p, 1e-3 * tol * p * math.gamma(p))
        return val / (p * math.gamma(p))

    # Step balances O(h^4) truncation (the integral's high t-derivatives grow
    # near the endpoints) against quadrature noise amplified by 1/h; nearby
    # evaluations share panel structure, so that noise largely cancels.
    # v must be evaluable slightly beyond b_psi (polynomial callers are).
    h = min(2e-3 * spec.b_psi, 0.1 * t)
    return _fd_derivative(big_g, t, h) / spec.psi_prime(t)


def _right_caputo_numeric(spec, delta: FracOrder, w_prime, t: float, tol: float):
    """Right-sided Caputo derivative under psi (internal; adjoint checks only).

    Equals the right RL derivative whenever w(b_psi) = 0, which the adjoint
    test functions satisfy; w' must be supplied analytically.
    """
    b = spec.b_psi
    if not 0.0 <= t < b:
        raise DomainError(f"t must lie in [0, {b}), got {t}")
    d = delta.delta
    p = 1.0 - d

    def g(u):
        z = t + u ** (1.0 / p)
        return _kernel_ratio_right(spec, t, z) ** (-d) * w_prime(z)

    val, _ = adaptive_quad(g, 0.0, (b - t) ** p, tol * p * math.gamma(1.0 - d))
    return -val / (p * math.gamma(1.0 - d))


def _right_rl_numeric(spec, delta: FracOrder, w, t: float, tol: float):
    """Right-sided RL derivative under psi (internal; adjoint checks only)."""
    b = spec.b_psi
    _require_inside(spec, t)
    d = delta.delta
    p = 1.0 - d

    def big_g(tt):
        def g(u):
            z = tt + u ** (1.0 / p)
            return spec.psi_prime(z) * _kernel_ratio_right(spec, tt, z) ** (-d) * w(z)

        val, _ = adaptive_quad(g, 0.0, (b - tt) ** p, 1e-3 * tol * p * math.gamma(p))
        return val / (p * math.gamma(p))

    h = min(2e-3 * b, 0.1 * t, 0.1 * (b - t))
    if h <= 0:
        raise DomainError("right-sided derivative sample point must be interior")
    return -_fd_derivative(big_g, t, h) / spec.psi_prime(t)
