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
tanh -> tan, sech -> sec (see factorization.tau/kappa); everything depends
on sigma only through sigma*y^2.
"""

import math
from dataclasses import dataclass

from .algebra import AlgebraSpec, lambda_coupling, padded_window, suggested_pad
from .errors import ConvergenceError
from .expm import oracle_element
from .factorization import kappa, tau

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


def _sinh_sq_scaled(x: float) -> float:
    """sinh(y*sqrt(sigma))^2 as an even function of x = sigma*y^2."""
    if abs(x) < 1e-12:
        return x
    if x >= 0.0:
        return math.sinh(math.sqrt(x)) ** 2
    return -math.sin(math.sqrt(-x)) ** 2


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
    x = spec.sigma * y * y
    t_over_rootsigma = y * tau(-x)        # tanh(y*sqrt(sigma))/sqrt(sigma)
    sech = kappa(-x)                      # sech(y*sqrt(sigma))
    z = -_sinh_sq_scaled(x)
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


def gn_series(spec: AlgebraSpec, n: int, y: float,
              max_terms: int = 80) -> GnEvaluation:
    """Ordered-expansion route: the anti-normally ordered product gives

        G_n = sum_j (-1)^(j+n) (yf)^(2j-n) / ((j-n)! j!)
              * prod_{k=n}^{j-1} lambda_k * prod_{k=0}^{j-1} lambda_k
              * g^(1 - 2j - alpha - beta)

    summed until the terms stop mattering.  The couplings are needed out to
    n + max_terms, so the spec must stay representable there (a vanishing
    coupling terminates the sum exactly).
    """
    _require_parametric(spec)
    x = -spec.sigma * y * y
    f, g = tau(x), kappa(x)
    ab = spec.alpha + spec.beta
    total = 0.0
    prod_n = 1.0            # prod_{k=n}^{j-1} lambda_k
    prod_0 = 1.0            # prod_{k=0}^{j-1} lambda_k
    for k in range(n):
        prod_0 *= lambda_coupling(spec, k)
    mags = []
    for j in range(n, n + max_terms):
        term = ((-1.0) ** (j + n) * (y * f) ** (2 * j - n)
                / (math.factorial(j - n) * math.factorial(j))
                * prod_n * prod_0 * g ** (1.0 - 2 * j - ab))
        total += term
        mags.append(abs(term))
        if len(mags) >= 6 and abs(term) < 1e-16 * max(1.0, abs(total)):
            return GnEvaluation(n, 0, spec, y, total, "series", abs(term))
        lam = lambda_coupling(spec, j)
        if lam == 0.0:
            return GnEvaluation(n, 0, spec, y, total, "series", 0.0)
        prod_n *= lam
        prod_0 *= lam
    if len(mags) >= 5 and all(mags[-k - 1] >= mags[-k - 2] for k in range(4)):
        raise ConvergenceError("ordered series terms not decreasing")
    return GnEvaluation(n, 0, spec, y, total, "series", mags[-1])


def gn_oracle(spec: AlgebraSpec, n: int, y: float, *, m: int = 0,
              pad: int | None = None) -> GnEvaluation:
    """Exponential-oracle route: (-i)^(n-m) <n| exp(iy(R+L)) |m> on a
    window padded past the core (down-padding stops at a decoupling
    boundary, so hole sectors are included exactly where they couple)."""
    lo, hi = min(0, m), max(n, m)
    if pad is None:
        pad = suggested_pad(spec, lo, hi, y)
    window = padded_window(spec, lo, hi, pad)
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
    cancellation as |x| grows; intended domain |x| <= 30.
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


def _recursion_value(spec: AlgebraSpec, k: int, y: float) -> float:
    if spec.is_parametric:
        return gn_closed(spec, k, y).value
    if spec.profile == "sho":
        return gn_sho_limit(k, y).value
    if spec.profile == "constant-one":
        return gn_bessel_limit(k, y).value
    raise ValueError("phase-profile recursions live in the phase module")


def recursion_residual(spec: AlgebraSpec, n: int, y: float,
                       h: float = 1e-5) -> float:
    """|d/dy G_{n+1} - (lambda_n G_n - lambda_{n+1} G_{n+2})| with the
    derivative taken by central differences at step h."""
    deriv = (_recursion_value(spec, n + 1, y + h)
             - _recursion_value(spec, n + 1, y - h)) / (2.0 * h)
    rhs = (lambda_coupling(spec, n) * _recursion_value(spec, n, y)
           - lambda_coupling(spec, n + 1) * _recursion_value(spec, n + 2, y))
    return abs(deriv - rhs)


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


def tilde_bar_variants(p: float, n: int, y: float, which: str) -> float:
    if which == "tilde":
        return tilde_gn(p, n, y)
    if which == "bar":
        return bar_gn(p, n, y)
    raise ValueError(f"unknown variant {which!r}")


def variant_recursion_residual(p: float, n: int, y: float, which: str,
                               h: float = 1e-5) -> float:
    """Central-difference residual of the rescaled recursions:

        d/dy tilde_{n+1} = (n+1) tilde_n - (n+1+p) tilde_{n+2}
        d/dy bar_{n+1}   = (n+p) bar_n   - (n+2)   bar_{n+2}
    """
    fn = tilde_gn if which == "tilde" else bar_gn
    if which == "tilde":
        lo, hi = n + 1.0, n + 1.0 + p
    elif which == "bar":
        lo, hi = n + p, n + 2.0
    else:
        raise ValueError(f"unknown variant {which!r}")
    deriv = (fn(p, n + 1, y + h) - fn(p, n + 1, y - h)) / (2.0 * h)
    return abs(deriv - (lo * fn(p, n, y) - hi * fn(p, n + 2, y)))


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
