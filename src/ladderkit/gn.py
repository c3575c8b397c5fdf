"""Vacuum-to-|n> transition amplitudes of exp(iy(R+L)) and their relatives.

G_n(alpha, beta; sigma; y) = (-i)^n <n| exp(iy(R+L)) |0> has the closed form

    A_n * (tanh(y*sqrt(sigma))/sqrt(sigma))^n * sech(y*sqrt(sigma))^(alpha+beta-1)
        * 2F1(1-alpha, 1-beta; 1+n; -sinh(y*sqrt(sigma))^2)

with A_n = (1/n!) * prod_{j<n} lambda_j, and satisfies the two-term
derivative recursion dG_{n+1}/dy = lambda_n G_n - lambda_{n+1} G_{n+2}.
This module evaluates the family by several independent routes (closed
form, ordered series, exponential oracle, degenerate limits), reports an
error estimate per value, and checks the recursions by central
differences.

sigma < 0 is reached by the even continuation sinh^2 -> -sin^2,
tanh -> tan, sech -> sec; the closed form and the ordered series read
tanh(y*sqrt(sigma))/(y*sqrt(sigma)) and sech(y*sqrt(sigma)) as the factors
f and g of factorization.u2_factors at (a, b, c) = (iy, iy, 0), and raise
its PoleError within 1e-9 of a tan/sec pole.  Everything depends on sigma
only through sigma*y^2.
"""

import math
from dataclasses import dataclass

from .algebra import AlgebraSpec, lambda_coupling, padded_window, suggested_pad
from .errors import ConvergenceError
from .expm import oracle_element
from .factorization import _TAIL_LN, u2_factors

# non-terminating 2F1 sums that have not settled after this many terms fail
_HYP_MAX_TERMS = 500


@dataclass
class Hyp2F1Sum:
    """Direct power-series evaluation of 2F1(a, b; c; z): value, a bound on
    the dropped tail, and whether the series terminated exactly."""

    value: float
    err_estimate: float
    terminated: bool


def hyp2f1_series(a: float, b: float, c: float, z: float) -> Hyp2F1Sum:
    """Gauss hypergeometric series, direct summation only.

    Exact (terminating) when a or b is a non-positive integer; otherwise
    requires |z| < 0.95 and raises ConvergenceError outside.  No
    transformation formulas: callers fall back to the exponential oracle
    out of domain.
    """
    def _is_nonpos_int(x):
        return x <= 0 and x == round(x)

    terminating = _is_nonpos_int(a) or _is_nonpos_int(b)
    if not terminating and abs(z) >= 0.95:
        raise ConvergenceError(
            f"2F1 series argument |z| = {abs(z):.3g} >= 0.95 and not terminating"
        )
    total, term = 1.0, 1.0
    for k in range(_HYP_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        if term == 0.0:
            return Hyp2F1Sum(total, 0.0, True)
        total += term
        if abs(term) < 1e-17 * max(1.0, abs(total)):
            return Hyp2F1Sum(total, abs(term), False)
    raise ConvergenceError(f"2F1 series did not settle within {_HYP_MAX_TERMS} terms")


@dataclass(frozen=True)
class GnEvaluation:
    """One evaluated amplitude with the route that produced it."""

    n: int
    m: int
    spec: AlgebraSpec
    y: float
    value: float
    route: str
    err_estimate: float


def a_n(spec: AlgebraSpec, n: int) -> float:
    """Prefactor A_n = (1/n!) * lambda_0 * ... * lambda_{n-1}; A_0 = 1.

    Computed from the coupling product (never from Gamma ratios, which
    have poles at non-positive alpha, beta).
    """
    acc = 1.0
    for j in range(n):
        acc *= lambda_coupling(spec, j)
    return acc / math.factorial(n)


def _require_parametric(spec):
    if not spec.is_parametric:
        raise ValueError("this route needs a parametric spec; use the"
                         " limit routes for profiles")


def gn_closed(spec: AlgebraSpec, n: int, y: float) -> GnEvaluation:
    """Closed-form route."""
    _require_parametric(spec)
    fac = u2_factors(spec, 1j * y, 1j * y, 0.0)
    t_over_rootsigma = y * fac.f_plus.real    # tanh(y*sqrt(sigma))/sqrt(sigma)
    sech = fac.g_plus.real                    # sech(y*sqrt(sigma))
    z = -spec.sigma * (t_over_rootsigma / sech) ** 2   # -sinh(y*sqrt(sigma))^2
    hyp = hyp2f1_series(1.0 - spec.alpha, 1.0 - spec.beta, 1.0 + n, z)
    expo = spec.alpha + spec.beta - 1.0
    if sech <= 0.0 and expo != round(expo):
        raise ConvergenceError(
            "sech-power base is non-positive with a non-integer exponent"
        )
    sech_pow = sech ** int(round(expo)) if expo == round(expo) else sech ** expo
    amp = a_n(spec, n)
    value = amp * t_over_rootsigma ** n * sech_pow * hyp.value
    err = abs(amp * t_over_rootsigma ** n * sech_pow) * hyp.err_estimate
    return GnEvaluation(n, 0, spec, y, value, "closed-form", err)


def gn_series(spec: AlgebraSpec, n: int, y: float) -> GnEvaluation:
    """Ordered-expansion route: the anti-normally ordered product gives
    G_n = sum_{j >= n} t_j with

        t_n = A_n (yf)^n g^(1 - 2n - alpha - beta),
        t_{j+1} / t_j = -(yf/g)^2 lambda_j^2 / ((j+1-n) (j+1)),

    summed by that ratio, which tends to z = -sinh(y*sqrt(sigma))^2.  A
    vanishing coupling ends the sum exactly (err_estimate 0); otherwise it
    stops once a term falls exp(_TAIL_LN) below both the peak term and
    unity, reporting that term as err_estimate.  Raises ConvergenceError
    where the terms do not fall: |z| >= 1 on a block that does not end, or
    a term that overflows on the way to its peak.  f and g are the real
    factors of ``u2_factors`` at (iy, iy, 0) (module docstring).
    """
    _require_parametric(spec)
    fac = u2_factors(spec, 1j * y, 1j * y, 0.0)
    f, g = fac.f_plus.real, fac.g_plus.real
    scale = -(y * f / g) ** 2
    z = spec.sigma * scale
    # the block ends at a zero coupling lambda_j, j = -alpha or -beta >= n
    ends = any(v == round(v) and -v >= n for v in (spec.alpha, spec.beta))
    if abs(z) >= 1.0 and not ends:
        raise ConvergenceError(f"ordered series terms do not fall: their ratio"
                               f" tends to {z:.6g}")
    term = (a_n(spec, n) * (y * f) ** n
            * g ** (1.0 - 2 * n - spec.alpha - spec.beta))
    total, peak = term, abs(term)
    tail = math.exp(_TAIL_LN)
    j = n
    while True:
        lam = lambda_coupling(spec, j)
        if lam == 0.0:
            return GnEvaluation(n, 0, spec, y, total, "series", 0.0)
        term *= scale * lam * lam / ((j + 1 - n) * (j + 1))
        total += term
        j += 1
        if not math.isfinite(total):
            raise ConvergenceError("ordered series terms overflow")
        if abs(term) <= tail * min(peak, 1.0):
            return GnEvaluation(n, 0, spec, y, total, "series", abs(term))
        peak = max(peak, abs(term))


def gn_oracle(spec: AlgebraSpec, n: int, y: float, *,
              m: int = 0) -> GnEvaluation:
    """Exponential-oracle route: (-i)^(n-m) <n| exp(iy(R+L)) |m> on a
    window padded past the core (down-padding stops at a decoupling
    boundary, so hole sectors are included exactly where they couple)."""
    lo, hi = min(0, m), max(n, m)
    window = padded_window(spec, lo, hi, suggested_pad(spec, lo, hi, y))
    val = (-1j) ** ((n - m) % 4) * oracle_element(
        spec, window, (1j * y, 1j * y, 0.0), n, m)
    return GnEvaluation(n, m, spec, y, val.real, "oracle", abs(val.imag) + 1e-15)


def gn_auto(spec: AlgebraSpec, n: int, y: float) -> GnEvaluation:
    """Closed form where its series applies, else fall back to the oracle
    (route tag says which)."""
    try:
        return gn_closed(spec, n, y)
    except ConvergenceError:
        return gn_oracle(spec, n, y)


def gn_sho_limit(n: int, y: float) -> GnEvaluation:
    """Boson-ladder limit: G_n -> y^n / sqrt(n!) * exp(-y^2/2)."""
    spec = AlgebraSpec.from_profile("sho")
    value = y ** n / math.sqrt(math.factorial(n)) * math.exp(-0.5 * y * y)
    return GnEvaluation(n, 0, spec, y, value, "limit-sho", 0.0)


def gn_bessel_limit(n: int, y: float) -> GnEvaluation:
    """Constant-coupling limit: G_n -> J_n(2y)."""
    spec = AlgebraSpec.from_profile("constant-one")
    return GnEvaluation(n, 0, spec, y, bessel_jn(n, 2.0 * y), "limit-bessel", 0.0)


def bessel_jn(n: int, x: float) -> float:
    """Bessel J_n by its alternating power series; negative orders via
    J_{-n}(x) = (-1)^n J_n(x).

    Plain summation: converges for all x but loses accuracy to
    cancellation as |x| grows.  Domain |x| <= 17, where the error against
    scipy is at most 5.3e-11 for n <= 40 (below the sum rules' 1e-10);
    on 17 < |x| <= 30 it reaches 2.6e-5, and nothing raises there.
    """
    if n < 0:
        return (-1.0) ** (-n) * bessel_jn(-n, x)
    half = 0.5 * x
    term = 1.0
    for k in range(1, n + 1):
        term *= half / k
    total = term
    for j in range(1, 400):
        term *= -(half * half) / (j * (j + n))
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


# step of the central differences in the recursion checks
_H = 1e-5


def _recursion_gap(fn, n: int, y: float, lo: float, hi: float) -> float:
    """|d/dy fn(n+1, y) - (lo fn(n, y) - hi fn(n+2, y))|, the derivative by
    central differences at step _H."""
    deriv = (fn(n + 1, y + _H) - fn(n + 1, y - _H)) / (2.0 * _H)
    return abs(deriv - (lo * fn(n, y) - hi * fn(n + 2, y)))


def _recursion_value(spec: AlgebraSpec, k: int, y: float) -> float:
    if spec.is_parametric:
        return gn_closed(spec, k, y).value
    if spec.profile == "sho":
        return gn_sho_limit(k, y).value
    if spec.profile == "constant-one":
        return gn_bessel_limit(k, y).value
    raise ValueError("phase-profile recursions live in the phase module")


def recursion_residual(spec: AlgebraSpec, n: int, y: float) -> float:
    """|d/dy G_{n+1} - (lambda_n G_n - lambda_{n+1} G_{n+2})| by central
    differences."""
    return _recursion_gap(lambda k, t: _recursion_value(spec, k, t), n, y,
                          lambda_coupling(spec, n), lambda_coupling(spec, n + 1))


def tilde_gn(p: float, n: int, y: float) -> float:
    """sech^p(y) * tanh^n(y): the square-root-free rescaling of
    G_n(1, p; 1; y)."""
    if p <= 0:
        raise ValueError("p must be positive")
    return math.cosh(y) ** -p * math.tanh(y) ** n


def bar_gn(p: float, n: int, y: float) -> float:
    """Gamma(n+p)/(Gamma(p) n!) * sech^p(y) * tanh^n(y): the opposite
    rescaling."""
    if p <= 0:
        raise ValueError("p must be positive")
    ratio = math.exp(math.lgamma(n + p) - math.lgamma(p) - math.lgamma(n + 1))
    return ratio * tilde_gn(p, n, y)


# the rescaled families and the (lo, hi) of their recursions
# d/dy v_{n+1} = lo v_n - hi v_{n+2}
_VARIANTS = {
    "tilde": (tilde_gn, lambda p, n: (n + 1.0, n + 1.0 + p)),
    "bar": (bar_gn, lambda p, n: (n + p, n + 2.0)),
}


def _variant(which: str):
    if which not in _VARIANTS:
        raise ValueError(f"unknown variant {which!r}")
    return _VARIANTS[which]


def tilde_bar_variants(p: float, n: int, y: float, which: str) -> float:
    return _variant(which)[0](p, n, y)


def variant_recursion_residual(p: float, n: int, y: float, which: str) -> float:
    """Central-difference residual of the rescaled recursions:

        d/dy tilde_{n+1} = (n+1) tilde_n - (n+1+p) tilde_{n+2}
        d/dy bar_{n+1}   = (n+p) bar_n   - (n+2)   bar_{n+2}
    """
    fn, coeffs = _variant(which)
    return _recursion_gap(lambda k, t: fn(p, k, t), n, y, *coeffs(p, n))


def gnm(spec: AlgebraSpec, n: int, m: int, y: float) -> GnEvaluation:
    """General matrix element G_nm = (-i)^(n-m) <n| exp(iy(R+L)) |m> via the
    parameter shift G_nm(alpha, beta) = G_{n-m}(alpha + m, beta + m).

    Exposed for n >= m >= 0 only; the transpose symmetry of exp(iy(R+L))
    gives <m|U|n> = <n|U|m>, so n < m carries no new information.
    """
    _require_parametric(spec)
    if not n >= m >= 0:
        raise ValueError("gnm is defined for n >= m >= 0")
    shifted = AlgebraSpec.parametric(spec.alpha + m, spec.beta + m, spec.sigma)
    inner = gn_closed(shifted, n - m, y)
    return GnEvaluation(n, m, spec, y, inner.value, "closed-form",
                        inner.err_estimate)
