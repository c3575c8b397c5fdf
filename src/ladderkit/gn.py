"""Vacuum-to-|n> transition amplitudes of exp(iy(R+L)) and their relatives.

G_n(alpha, beta; sigma; y) = (-i)^n <n| exp(iy(R+L)) |0> has the closed form

    A_n * (tanh(y*sqrt(sigma))/sqrt(sigma))^n * sech(y*sqrt(sigma))^(alpha+beta-1)
        * 2F1(1-alpha, 1-beta; 1+n; -sinh(y*sqrt(sigma))^2)

with A_n = (1/n!) * prod_{j<n} lambda_j, and satisfies the two-term
derivative recursion dG_{n+1}/dy = lambda_n G_n - lambda_{n+1} G_{n+2}.
This module evaluates the family by several independent routes (closed
form, ordered series, exponential oracle, degenerate limits), reports an
error estimate per value, and checks the recursions by central
differences.  The closed form and the ordered series share one product over
two Euler partners of one 2F1 and refuse towers with a negative lambda^2.

sigma < 0 is reached by the even continuation sinh^2 -> -sin^2,
tanh -> tan, sech -> sec; the closed form and the ordered series read
tanh(y*sqrt(sigma))/(y*sqrt(sigma)) and sech(y*sqrt(sigma)) as the factors
f and g of factorization.u2_factors at (a, b, c) = (iy, iy, 0), and raise
its PoleError within 1e-9 of a tan/sec pole.  Everything depends on sigma
only through sigma*y^2.
"""

import math
import sys
from typing import NamedTuple

from .algebra import AlgebraSpec, _breaks, _oracle_window, lambda_coupling
from .errors import ConvergenceError
from .expm import oracle_element
from .factorization import u2_factors

# a 2F1 sum not settled after this many terms (about 0.1 s) fails
_HYP_MAX_TERMS = 100000
_CLOSED_MAX_TERMS = 500  # longer gn_closed sums (cancellation unchecked) go to the oracle
# ln of the largest float: a prefactor whose log reaches it overflows
_LOG_MAX = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon


class Hyp2F1Sum(NamedTuple):
    """Direct power-series evaluation of 2F1(a, b; c; z): value, a bound on
    the dropped tail (0 if it terminated) and the count of terms after the 1."""

    value: float
    err_estimate: float
    terms: int


def _first_zero(x: float) -> float:
    """The first k >= 0 where the factor x + k of the series vanishes: -x
    for a non-positive integer x, inf otherwise."""
    return -x if x <= 0 and float(x).is_integer() else math.inf


def _terminates(a: float, b: float) -> bool:
    """Whether 2F1(a, b; c; z) is a polynomial: a or b a non-positive integer."""
    return min(_first_zero(a), _first_zero(b)) < math.inf


def hyp2f1_series(a: float, b: float, c: float, z: float) -> Hyp2F1Sum:
    """Gauss hypergeometric series, direct summation only.

    Exact (terminating) when a or b is a non-positive integer; otherwise
    requires |z| < 1.  Raises ConvergenceError outside that domain, on
    overflow and past _HYP_MAX_TERMS terms; of the callers, only ``gn_auto``
    falls back to the exponential oracle there.  Raises ValueError at c a
    non-positive integer, where a denominator c + k vanishes, unless a or b
    ends the sum at an earlier term.
    """
    pole = _first_zero(c)
    if pole < math.inf and pole <= min(_first_zero(a), _first_zero(b)):
        raise ValueError(f"2F1 series denominator c + k vanishes at k = {pole:g}"
                         f" (c = {c:g}) before a or b ends the sum")
    if abs(z) >= 1.0 and not _terminates(a, b):
        raise ConvergenceError(f"2F1 series argument |z| = {abs(z):.3g} >= 1"
                               " and not terminating")
    total, term = 1.0, 1.0
    for k in range(_HYP_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        # total - total is 0.0 for a finite total and NaN, which is true,
        # for an inf or NaN one; the stop is |term| < 1e-17 max(1, |total|)
        # with the max written out as two comparisons
        if total - total:
            raise ConvergenceError("2F1 series terms overflow")
        small = abs(term)
        if small < 1e-17 or small < 1e-17 * abs(total):
            return Hyp2F1Sum(total, small, k + 1)
    raise ConvergenceError(f"2F1 series did not settle within {_HYP_MAX_TERMS} terms")


class GnEvaluation(NamedTuple):
    """One evaluated amplitude with the route that produced it."""

    value: float
    route: str
    err_estimate: float


def a_n(spec: AlgebraSpec, n: int) -> float:
    """Prefactor A_n = (1/n!) * lambda_0 * ... * lambda_{n-1}; A_0 = 1, from
    the coupling product (never from Gamma ratios, which have poles at
    non-positive alpha, beta).  OverflowError where it leaves the float range.
    """
    acc = 1.0
    for j in range(n):
        acc *= lambda_coupling(spec, j)
    value = acc / math.factorial(n)
    if not math.isfinite(value):
        raise OverflowError(f"A_{n} leaves the float range for {spec.label()}")
    return value


def _require_tower(spec: AlgebraSpec, n: int) -> None:
    """NonUnitaryRegime where the tower above n ends at a negative lambda_j^2,
    not at a zero coupling.  ValueError for profiles."""
    if not spec.is_parametric:
        raise ValueError("this route needs a parametric spec; use the"
                         " limit routes for profiles")
    top = _breaks(spec, n)[1]
    if top < math.inf:
        lambda_coupling(spec, top)  # raises where lambda_top^2 < 0


def _amplitude(spec: AlgebraSpec, n: int, y: float, a: float, b: float,
               expo: float, route: str, cut: float = 1.0,
               max_terms: int = _HYP_MAX_TERMS) -> GnEvaluation:
    """A_n (yf)^n g^expo 2F1(a, b; n+1; z), z = -sinh(y*sqrt(sigma))^2, f, g
    as in the module docstring.  ConvergenceError at |z| >= ``cut`` unless
    the 2F1 ends, past ``max_terms`` terms, and at g <= 0 under a non-integer
    ``expo`` (a complex power); ValueError at n < 0 (c = n + 1 <= 0);
    OverflowError where the value or its error bound is not finite."""
    if n < 0:
        raise ValueError(f"amplitudes need n >= 0, got n = {n}")
    _require_tower(spec, n)
    fac = u2_factors(spec, 1j * y, 1j * y, 0.0)
    yf, g = y * fac.f_plus.real, fac.g_plus.real
    z = -spec.sigma * (yf / g) ** 2
    if abs(z) >= cut and not _terminates(a, b):
        raise ConvergenceError(f"2F1 series argument |z| = {abs(z):.3g} >= {cut:g}"
                               " and not terminating")
    if g <= 0.0 and expo != round(expo):
        raise ConvergenceError("sech-power base is non-positive with a"
                               " non-integer exponent")
    hyp = hyp2f1_series(a, b, 1.0 + n, z)
    if hyp.terms > max_terms:
        raise ConvergenceError(f"2F1 series did not settle within {max_terms} terms")
    pre, rel = _prefactor(spec, n, yf, g, expo)
    value = pre * hyp.value
    err = abs(pre) * hyp.err_estimate + (rel * abs(value) if rel else 0.0)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise OverflowError(f"G_{n} = {value:g} +- {err:g} leaves the float range")
    return GnEvaluation(value, route, err)


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x else -math.inf


def _prefactor(spec: AlgebraSpec, n: int, yf: float, g: float,
               expo: float) -> tuple[float, float]:
    """A_n (yf)^n g^expo (g^expo real) and a relative error bound on its
    rounding, counted only where the product is formed in logs: where the
    direct product overflows or is not finite (an A_n past the float range
    times a (yf)^n that underflows), as ln A_n + n ln|yf| + expo ln|g|, sign
    tracked.  OverflowError where the log sum leaves the float range."""
    try:
        pre = a_n(spec, n) * yf ** n * g ** expo
    except OverflowError:  # A_n or a power past the float range
        pre = math.inf
    if math.isfinite(pre):
        return pre, 0.0
    parts = [_log_abs(lambda_coupling(spec, j)) for j in range(n)]
    parts += [-math.lgamma(n + 1.0), n * _log_abs(yf) if n else 0.0,
              expo * _log_abs(g)]
    log = math.fsum(parts)
    if not (math.isfinite(log) and log < _LOG_MAX):
        raise OverflowError(f"amplitude prefactor A_n (yf)^n g^expo at n = {n},"
                            f" yf = {yf:g}, g = {g:g} leaves the float range")
    negative = (yf < 0 and n % 2 == 1) != (g < 0 and expo % 2 == 1)
    # the rounding of each log, and that of yf and g raised to n and expo
    rel = 8 * _EPS * (math.fsum(map(abs, parts)) + n + abs(expo))
    return -math.exp(log) if negative else math.exp(log), rel


def gn_closed(spec: AlgebraSpec, n: int, y: float) -> GnEvaluation:
    """Closed form; ConvergenceError at |z| >= 0.95 unless it ends, or past 500 terms."""
    return _amplitude(spec, n, y, 1.0 - spec.alpha, 1.0 - spec.beta,
                      spec.alpha + spec.beta - 1.0, "closed-form", 0.95, _CLOSED_MAX_TERMS)


def gn_series(spec: AlgebraSpec, n: int, y: float) -> GnEvaluation:
    """Ordered-expansion route: the anti-normally ordered product gives
    G_n = sum_{j >= n} t_j with

        t_n = A_n (yf)^n g^(1 - 2n - alpha - beta),
        t_{j+1} / t_j = -(yf/g)^2 lambda_j^2 / ((j+1-n) (j+1)),

    that is t_n 2F1(alpha+n, beta+n; n+1; z), z = -sinh(y*sqrt(sigma))^2,
    the Euler partner of the closed form's 2F1 (DLMF 15.8.1), with the
    domain of ``hyp2f1_series``.  f and g: see the module docstring."""
    return _amplitude(spec, n, y, spec.alpha + n, spec.beta + n,
                      1.0 - 2 * n - spec.alpha - spec.beta, "series")


def gn_oracle(spec: AlgebraSpec, n: int, y: float, *, m: int = 0) -> GnEvaluation:
    """Exponential-oracle route: (-i)^(n-m) <n| exp(iy(R+L)) |m> on the
    oracle's window (``algebra._oracle_window``; ConvergenceError past its
    ceiling) for the core min(0, m) .. max(n, m), hole sectors included where
    they couple.  The exponent is chiral, so ``oracle_element`` puts the phase
    back exactly: imaginary part 0, err_estimate 1e-15, no rounding bound."""
    coeffs = (1j * y, 1j * y, 0.0)
    window = _oracle_window(spec, min(0, m), max(n, m), coeffs)
    val = (-1j) ** ((n - m) % 4) * oracle_element(spec, window, coeffs, n, m)
    return GnEvaluation(val.real, "oracle", abs(val.imag) + 1e-15)


def _closed_or_limit(spec: AlgebraSpec, n: int, y: float) -> GnEvaluation:
    """The closed form on a parametric spec, the profile's limit otherwise
    (ValueError for the phase profile)."""
    if spec.is_parametric:
        return gn_closed(spec, n, y)
    if spec.profile == "sho":
        return gn_sho_limit(n, y)
    if spec.profile == "constant-one":
        return gn_bessel_limit(n, y)
    raise ValueError("the phase profile's amplitudes live in the phase module")


def gn_auto(spec: AlgebraSpec, n: int, y: float) -> GnEvaluation:
    """The closed form or the profile's limit where it applies, else the
    oracle, which refuses past its window ceiling (route tag says which)."""
    try:
        return _closed_or_limit(spec, n, y)
    except ConvergenceError:
        return gn_oracle(spec, n, y)


def gn_sho_limit(n: int, y: float) -> GnEvaluation:
    """Boson-ladder limit: G_n -> y^n / sqrt(n!) * exp(-y^2/2)."""
    value = y ** n / math.sqrt(math.factorial(n)) * math.exp(-0.5 * y * y)
    return GnEvaluation(value, "limit-sho", 0.0)


def gn_bessel_limit(n: int, y: float) -> GnEvaluation:
    """Constant-coupling limit: G_n -> J_n(2y)."""
    return GnEvaluation(bessel_jn(n, 2.0 * y), "limit-bessel", 0.0)


def bessel_jn(n: int, x: float) -> float:
    """Bessel J_n(x): order |n| of one ``_bessel_family`` call, with its
    domain and accuracy; negative orders via J_{-n}(x) = (-1)^n J_n(x)."""
    value = _bessel_family(abs(n), x)[abs(n)]
    return -value if n < 0 and n % 2 else value


def _bessel_family(n_max: int, x: float) -> list[float]:
    """[J_0(x), ..., J_{n_max}(x)] from one backward recurrence (Miller's
    algorithm; Gautschi, SIAM Rev. 9, 1967).

    J_{k-1} = (2k/x) J_k - J_{k+1} runs on u_k = J_k k! / (x/2)^k,

        u_{k-1} = u_k - (x/2)^2 u_{k+1} / (k (k+1)),

    which |J_k(x)| <= |x/2|^k / k! bounds by 1 in size: nothing overflows,
    and x = 0 needs no case of its own.  It starts from u_{top+1} = 0,
    u_top = 1, with top past max(n_max, |x|) until the product of the
    recurrence's factors (x/2)^2 / (k (k+1)), the relative error the start
    leaves there, is below 1e-20.  The family is normalised by
    J_0^2 + 2 sum_k J_k^2 = 1, never by J_0 + 2 sum_k J_2k = 1, the
    bessel-unity sum rule that ``triangles.sumrule_check`` tests.
    Within 3e-16 of 30-digit mpmath for n <= n_max <= 40, |x| <= 17.
    ConvergenceError past |x| = 17.
    """
    if abs(x) > 17.0:
        raise ConvergenceError(f"|x| = {abs(x):g} > 17: outside bessel_jn's domain")
    half = 0.5 * x
    q = half * half
    top, drop = max(n_max, math.ceil(abs(x))), 1.0
    while drop > 1e-20:
        top += 1
        drop *= q / (top * (top + 1))
    u = [0.0] * (top + 1)
    after, u0 = 0.0, 1.0
    for k in range(top, 0, -1):
        u[k] = u0
        after, u0 = u0, u0 - q * after / (k * (k + 1))
    u[0] = u0
    # u_k (x/2)^k / k!, the family up to one factor, and its sum of squares
    scale, squares = 1.0, 0.0
    for k in range(1, top + 1):
        scale *= half / k
        u[k] *= scale
        squares += u[k] * u[k]
    # norm > 0: u (of q alone, started past |x|) is a positive multiple of the minimal solution
    norm = math.sqrt(u0 * u0 + 2.0 * squares)
    return [v / norm for v in u[:n_max + 1]]


# step of the central differences in the recursion checks
_H = 1e-5


def _recursion_gap(fn, n: int, y: float, lo: float, hi: float) -> float:
    """|d/dy fn(n+1, y) - (lo fn(n, y) - hi fn(n+2, y))|, the derivative by
    central differences at step _H."""
    deriv = (fn(n + 1, y + _H) - fn(n + 1, y - _H)) / (2.0 * _H)
    return abs(deriv - (lo * fn(n, y) - hi * fn(n + 2, y)))


def recursion_residual(spec: AlgebraSpec, n: int, y: float) -> float:
    """|d/dy G_{n+1} - (lambda_n G_n - lambda_{n+1} G_{n+2})| by central
    differences of the closed form or the profile's limit.  No oracle fallback:
    its window stops where lambda^2 turns negative, so wrong values could pass."""
    return _recursion_gap(lambda k, t: _closed_or_limit(spec, k, t).value, n, y,
                          lambda_coupling(spec, n), lambda_coupling(spec, n + 1))


def gnm(spec: AlgebraSpec, n: int, m: int, y: float) -> GnEvaluation:
    """General matrix element G_nm = (-i)^(n-m) <n| exp(iy(R+L)) |m> via the
    parameter shift G_nm(alpha, beta) = G_{n-m}(alpha + m, beta + m).

    Exposed for n >= m >= 0 only; the transpose symmetry of exp(iy(R+L))
    gives <m|U|n> = <n|U|m>, so n < m carries no new information.
    """
    if not (spec.is_parametric and n >= m >= 0):
        raise ValueError("gnm needs a parametric spec and n >= m >= 0")
    shifted = AlgebraSpec.parametric(spec.alpha + m, spec.beta + m, spec.sigma)
    return gn_closed(shifted, n - m, y)
