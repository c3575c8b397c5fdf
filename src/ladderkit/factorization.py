"""Ordered factorizations of exponentials of the ladder generators.

exp(iy(R+L)) and, more generally, exp(a*L + b*R + c*S) factor exactly into
(raising exponential) * (diagonal) * (lowering exponential), or the reverse
order, with scalar factors built from tan/sec evaluated at
q = sqrt(a*b*sigma - c^2*sigma^2).  Everything depends on q only through
q^2, so the scalar factors are computed as even functions of q^2 and the
sigma < 0 (tan/sec) and sigma > 0 (tanh/sech) regimes share one analytic
continuation.

The factor exponentials act on strictly triangular band matrices, so their
Taylor series terminate on a finite window and are evaluated exactly.

Conditioning caveat: the anti-normally ordered product places the growing
direction of the diagonal against the raising tail, so its core matrix
elements are alternating sums whose intermediate terms can dwarf the
result (they grow until roughly coupling*|coefficient| stops beating the
index growth).  ``factorization_residual`` detects this and switches to an
exact-arithmetic element evaluation; the plain matrix products are only
accurate where the returned conditioning estimate is benign.
"""

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .algebra import AlgebraSpec, IndexWindow, build_matrices, lambda_sq
from .errors import PoleError
from .expm import expm, operator_matrix

_POLE_TOL = 1e-9


def _check_real_pole(r: float):
    # poles of tan/sec sit at pi/2 + k*pi
    if abs(math.remainder(r - math.pi / 2.0, math.pi)) < _POLE_TOL:
        raise PoleError(f"argument {r:.12g} within {_POLE_TOL:g} of a tan/sec pole")


def tau(x: float) -> float:
    """tan(sqrt(x))/sqrt(x), continued through x = 0 to tanh(sqrt(-x))/sqrt(-x).

    Even and analytic in sqrt(x), so the branch of the root is immaterial.
    Raises PoleError within 1e-9 of the tan poles (x > 0 only).
    """
    if abs(x) < 1e-8:
        return 1.0 + x / 3.0 + 2.0 * x * x / 15.0
    if x > 0.0:
        r = math.sqrt(x)
        _check_real_pole(r)
        return math.tan(r) / r
    r = math.sqrt(-x)
    return math.tanh(r) / r


def kappa(x: float) -> float:
    """sec(sqrt(x)), continued to sech(sqrt(-x)) for x < 0.  Same pole set
    as tau."""
    if abs(x) < 1e-8:
        return 1.0 + x / 2.0 + 5.0 * x * x / 24.0
    if x > 0.0:
        r = math.sqrt(x)
        _check_real_pole(r)
        return 1.0 / math.cos(r)
    r = math.sqrt(-x)
    return 1.0 / math.cosh(r)


def _tau_c(z: complex) -> complex:
    if abs(z) < 1e-10:
        return 1.0 + z / 3.0
    s = cmath.sqrt(z)
    c = cmath.cos(s)
    if abs(c) < _POLE_TOL:
        raise PoleError(f"cos(q) = {abs(c):.3g}: too close to a sec pole")
    return cmath.sin(s) / (s * c)


def _kappa_c(z: complex) -> complex:
    if abs(z) < 1e-10:
        return 1.0 + z / 2.0
    s = cmath.sqrt(z)
    c = cmath.cos(s)
    if abs(c) < _POLE_TOL:
        raise PoleError(f"cos(q) = {abs(c):.3g}: too close to a sec pole")
    return 1.0 / c


@dataclass(frozen=True)
class U1Factors:
    """Scalar factors of the exp(iy(R+L)) factorization.

    f multiplies the triangular exponents, g feeds the diagonal
    g^(+-p_j) with p_j = 2j - 1 + alpha + beta.  For the profile limits the
    diagonal collapses to a single scalar (diagonal_scalar below is its
    normal-ordered value; the anti-normal diagonal is its reciprocal).
    """

    f: float
    g: float
    diagonal_scalar: float | None = None


@dataclass(frozen=True)
class U2Factors:
    """Scalar factors of the exp(a*L + b*R + c*S) factorization."""

    f_plus: complex
    f_minus: complex
    g_plus: complex
    g_minus: complex
    q_sq: complex


@dataclass(frozen=True)
class OrderedForm:
    """One ordered factorization, kept as its three ingredients.

    raising_coefficient scales R in its exponential, lowering_coefficient
    scales L, and diagonal holds the middle factor's entries over the
    window (g^(+-p_j) with p_j = 2j - 1 + alpha + beta, or the profile
    scalar).  ``normal`` order multiplies raising * diag * lowering;
    ``anti-normal`` the reverse.
    """

    ordering: str
    raising_coefficient: complex
    lowering_coefficient: complex
    diagonal: np.ndarray

    def matrix(self, spec: "AlgebraSpec", window: "IndexWindow") -> np.ndarray:
        m = build_matrices(spec, window)
        raising = _nilpotent_exp(self.raising_coefficient, m.R)
        lowering = _nilpotent_exp(self.lowering_coefficient, m.L)
        if self.ordering == "normal":
            return raising @ (self.diagonal[:, None] * lowering)
        return lowering @ (self.diagonal[:, None] * raising)


def u1_factors(spec: AlgebraSpec, y: float) -> U1Factors:
    """f = tanh(y*sqrt(sigma))/(y*sqrt(sigma)), g = sech(y*sqrt(sigma)),
    continued to tan/sec for sigma < 0.  The "sho" profile replaces the
    diagonal by the scalar exp(-y^2/2); "constant-one" by 1 (R and L
    commute there)."""
    if spec.is_parametric:
        x = -spec.sigma * y * y
        return U1Factors(f=tau(x), g=kappa(x))
    if spec.profile == "sho":
        return U1Factors(f=1.0, g=1.0, diagonal_scalar=math.exp(-0.5 * y * y))
    if spec.profile == "constant-one":
        return U1Factors(f=1.0, g=1.0, diagonal_scalar=1.0)
    raise ValueError("the phase profile admits no ordered factorization")


def _nilpotent_exp(coef: complex, band: np.ndarray) -> np.ndarray:
    """exp(coef * band) for a strictly triangular band matrix, by the
    terminating Taylor series."""
    n = band.shape[0]
    total = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, n):
        term = term @ (coef * band) / k
        if not term.any():
            break
        total += term
    return total


def _power(base: complex, expo: float) -> complex:
    # integer exponents exactly, to keep half-window diagonals branch-safe
    r = round(expo)
    if abs(expo - r) < 1e-12:
        return complex(base) ** int(r)
    return complex(base) ** expo


def _diagonal(spec: AlgebraSpec, window: IndexWindow, fac, sign: int) -> np.ndarray:
    if spec.is_parametric:
        if isinstance(fac, U2Factors):
            g = fac.g_plus if sign > 0 else fac.g_minus
        else:
            g = fac.g
        ab = spec.alpha + spec.beta
        return np.array([_power(g, sign * (2 * j - 1 + ab))
                         for j in window.indices()], dtype=complex)
    scalar = fac.diagonal_scalar ** sign
    return np.full(window.size, scalar, dtype=complex)


def u1_ordered_form(spec: AlgebraSpec, window: IndexWindow, y: float,
                    ordering: str) -> OrderedForm:
    fac = u1_factors(spec, y)
    sign = +1 if ordering == "normal" else -1
    return OrderedForm(ordering=ordering,
                       raising_coefficient=1j * y * fac.f,
                       lowering_coefficient=1j * y * fac.f,
                       diagonal=_diagonal(spec, window, fac, sign))


def u1_normal(spec: AlgebraSpec, window: IndexWindow, y: float) -> np.ndarray:
    """exp(iyfR) * diag(g^p_j) * exp(iyfL): all lowering action on the
    right."""
    return u1_ordered_form(spec, window, y, "normal").matrix(spec, window)


def u1_antinormal(spec: AlgebraSpec, window: IndexWindow, y: float) -> np.ndarray:
    """exp(iyfL) * diag(g^-p_j) * exp(iyfR): the reverse ordering.

    See the module note on conditioning: accurate in float arithmetic only
    while sinh-type growth stays small on the window.
    """
    return u1_ordered_form(spec, window, y, "anti-normal").matrix(spec, window)


def u2_factors(spec: AlgebraSpec, a: complex, b: complex, c: complex) -> U2Factors:
    """Scalar factors for exp(a*L + b*R + c*S), parametric specs with any
    sigma.  Raises PoleError near sec poles and ZeroDivisionError where a
    denominator q -+ c*sigma*tan(q) vanishes."""
    if not spec.is_parametric:
        raise ValueError("u2 factorization needs a parametric spec")
    si = spec.sigma
    q_sq = complex(a * b * si - c * c * si * si)
    if q_sq.imag == 0.0:
        # shared real path keeps the (iy, iy, 0) reduction bit-exact
        t = complex(tau(q_sq.real))
        k = complex(kappa(q_sq.real))
    else:
        t = _tau_c(q_sq)
        k = _kappa_c(q_sq)
    den_plus = 1.0 - c * si * t
    den_minus = 1.0 + c * si * t
    for name, den in (("q - c*sigma*tan(q)", den_plus), ("q + c*sigma*tan(q)", den_minus)):
        if abs(den) < 1e-12:
            raise ZeroDivisionError(f"factorization denominator {name} vanishes")
    return U2Factors(f_plus=t / den_plus, f_minus=t / den_minus,
                     g_plus=k / den_plus, g_minus=k / den_minus, q_sq=q_sq)


def u2_ordered_form(spec: AlgebraSpec, window: IndexWindow,
                    a: complex, b: complex, c: complex,
                    ordering: str) -> OrderedForm:
    fac = u2_factors(spec, a, b, c)
    if ordering == "normal":
        return OrderedForm(ordering="normal",
                           raising_coefficient=b * fac.f_plus,
                           lowering_coefficient=a * fac.f_plus,
                           diagonal=_diagonal(spec, window, fac, +1))
    return OrderedForm(ordering="anti-normal",
                       raising_coefficient=b * fac.f_minus,
                       lowering_coefficient=a * fac.f_minus,
                       diagonal=_diagonal(spec, window, fac, -1))


def u2_normal(spec: AlgebraSpec, window: IndexWindow,
              a: complex, b: complex, c: complex) -> np.ndarray:
    """exp(b*f+*R) * diag(g+^p_j) * exp(a*f+*L).

    The diagonal exponent is p_j = 2j - 1 + alpha + beta, which equals
    S_jj / sigma without the 0/0 bookkeeping."""
    return u2_ordered_form(spec, window, a, b, c, "normal").matrix(spec, window)


def u2_antinormal(spec: AlgebraSpec, window: IndexWindow,
                  a: complex, b: complex, c: complex) -> np.ndarray:
    """exp(a*f-*L) * diag(g-^-p_j) * exp(b*f-*R)."""
    return u2_ordered_form(spec, window, a, b, c, "anti-normal").matrix(spec, window)


def reduces_to_u1(a: complex, b: complex, c: complex) -> bool:
    """True when (a, b, c) = (iy, iy, 0) for real y."""
    return a == b and complex(a).real == 0.0 and complex(c) == 0


def ordered_form(spec: AlgebraSpec, window: IndexWindow,
                 coeffs: tuple[complex, complex, complex],
                 ordering: str) -> OrderedForm:
    """The factorization's three ingredients for either ordering, routing
    profile specs and (iy, iy, 0) coefficients through the dedicated
    exp(iy(R+L)) path."""
    a, b, c = coeffs
    if ordering not in ("normal", "anti-normal"):
        raise ValueError(f"unknown ordering {ordering!r}")
    if not spec.is_parametric or reduces_to_u1(a, b, c):
        if not reduces_to_u1(a, b, c):
            raise ValueError("profile specs only factor exp(iy(R+L))")
        return u1_ordered_form(spec, window, complex(a).imag, ordering)
    return u2_ordered_form(spec, window, a, b, c, ordering)


def ordered_product(spec: AlgebraSpec, window: IndexWindow,
                    coeffs: tuple[complex, complex, complex],
                    ordering: str) -> np.ndarray:
    """Dense matrix of the factorized product for either ordering."""
    return ordered_form(spec, window, coeffs, ordering).matrix(spec, window)


# ---------------------------------------------------------------------------
# anti-normal conditioning analysis and exact-arithmetic element evaluation

def _anti_scales(spec, coeffs):
    """(|a f-|, |b f-|, |g-|) for the anti-normal term recurrence."""
    a, b, c = coeffs
    if spec.is_parametric:
        fac = u2_factors(spec, a, b, c)
        return abs(a * fac.f_minus), abs(b * fac.f_minus), abs(fac.g_minus)
    fac = u1_factors(spec, complex(a).imag)
    # profile diagonals are scalars; only the shift amplitude matters
    return abs(a) * fac.f, abs(b) * fac.f, 1.0


def _anti_scan(spec, n, coeffs, j_max=None, tail_ln=-37.0) -> tuple[float, int]:
    """Scan the anti-normal sum for the core element n = m: (ln of the peak
    term magnitude, index where terms fall exp(tail_ln) below both the peak
    and unity).  Stops at a zero coupling or at ``j_max``; without ``j_max``
    raises ValueError after 100000 steps."""
    cl, cr, g_abs = _anti_scales(spec, coeffs)
    ln_t, peak = 0.0, 0.0
    j = n
    while j_max is None or j < j_max:
        lam = math.sqrt(max(lambda_sq(spec, j), 0.0))
        if lam == 0.0:
            return peak, j
        step = (math.log(cl * lam) + math.log(cr * lam)
                - 2.0 * math.log(j + 1 - n) - 2.0 * math.log(g_abs))
        ln_t += step
        j += 1
        if ln_t < peak + tail_ln and ln_t < tail_ln:
            return peak, j
        peak = max(peak, ln_t)
        if j_max is None and j > n + 100000:
            raise ValueError("anti-normal ordering does not converge for these coefficients")
    return peak, j


def antinormal_reach(spec: AlgebraSpec, core_hi: int,
                     coeffs: tuple[complex, complex, complex],
                     tail_ln: float = -37.0) -> int:
    """Smallest j_max for which the anti-normal ordered sum for core
    elements has converged (terms fallen to exp(tail_ln) relative to their
    peak).  Diverges as |coefficients| approach the ordering's convergence
    edge; raises ValueError beyond it."""
    return _anti_scan(spec, core_hi, coeffs, tail_ln=tail_ln)[1]


def _mp_factors(spec, a, b, c):
    """Anti-normal scalar factors in mpmath arithmetic."""
    si = mpmath.mpf(spec.sigma)
    a, b, c = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(c)
    q_sq = a * b * si - c * c * si * si
    if abs(q_sq) < mpmath.mpf("1e-60"):
        t = mpmath.mpc(1)
        k = mpmath.mpc(1)
    else:
        s = mpmath.sqrt(q_sq)
        t = mpmath.tan(s) / s
        k = 1 / mpmath.cos(s)
    den = 1 + c * si * t
    return t / den, k / den


def antinormal_core(spec: AlgebraSpec, window: IndexWindow,
                    coeffs: tuple[complex, complex, complex],
                    dps: int | None = None) -> np.ndarray:
    """Core block of the anti-normal ordered product, by summing the exact
    factor entries elementwise in extended precision.

    <n|exp(afL)|j> = (af)^(j-n)/(j-n)! * prod lambda and its mirror give
    each element as a single alternating sum over j; the working precision
    is chosen from the peak term so the cancellation is exact.
    """
    a, b, c = coeffs
    if not spec.is_parametric:
        raise ValueError("profile anti-normal products are well conditioned;"
                         " use u1_antinormal")
    peak_ln, _ = _anti_scan(spec, window.core_hi, coeffs, window.j_max)
    if dps is None:
        dps = max(30, int(peak_ln / math.log(10.0)) + 25)
    core = list(range(window.core_lo, window.core_hi + 1))
    out = np.zeros((len(core), len(core)), dtype=complex)
    with mpmath.workdps(dps):
        f_minus, g_minus = _mp_factors(spec, a, b, c)
        cl = mpmath.mpc(a) * f_minus
        cr = mpmath.mpc(b) * f_minus
        al = mpmath.mpf(spec.alpha)
        be = mpmath.mpf(spec.beta)
        si = mpmath.mpf(spec.sigma)
        lam = {}
        for j in range(window.j_min, window.j_max):
            l2 = si * (al + j) * (be + j)
            lam[j] = mpmath.sqrt(l2) if l2 > 0 else mpmath.mpf(0)
        for ri, n in enumerate(core):
            for ci, m in enumerate(core):
                j0 = max(n, m)
                el = mpmath.mpc(1)
                for k in range(n, j0):
                    el *= cl * lam[k]
                el /= mpmath.factorial(j0 - n)
                er = mpmath.mpc(1)
                for k in range(m, j0):
                    er *= cr * lam[k]
                er /= mpmath.factorial(j0 - m)
                acc = mpmath.mpc(0)
                for j in range(j0, window.j_max + 1):
                    p = 2 * j - 1 + al + be
                    acc += el * g_minus ** (-p) * er
                    if j < window.j_max:
                        el = el * cl * lam[j] / (j + 1 - n)
                        er = er * cr * lam[j] / (j + 1 - m)
                        if el == 0 and er == 0:
                            break
                out[ri, ci] = complex(acc)
    return out


def factorization_residual(spec: AlgebraSpec, window: IndexWindow,
                           coeffs: tuple[complex, complex, complex],
                           ordering: str, *, method: str = "auto") -> float:
    """Max abs deviation between the ordered product and the exponential
    oracle on the window core.

    ``method``: "matrix" forces the plain three-matrix product, "exact"
    forces the extended-precision element sums (anti-normal, parametric
    only), "auto" picks by the conditioning estimate.
    """
    oracle = expm(operator_matrix(spec, window, coeffs)).matrix
    sl = window.core_slice()
    if ordering == "anti-normal" and spec.is_parametric and method != "matrix":
        peak_ln, _ = _anti_scan(spec, window.core_hi, coeffs, window.j_max)
        if method == "exact" or peak_ln > 4.0:
            block = antinormal_core(spec, window, coeffs)
            return float(np.abs(block - oracle[sl, sl]).max())
    prod = ordered_product(spec, window, coeffs, ordering)
    return float(np.abs((prod - oracle)[sl, sl]).max())
