"""Ordered factorizations of exponentials of the ladder generators.

exp(a*L + b*R + c*S) factors exactly into (raising exponential) *
(diagonal) * (lowering exponential), or the reverse order:

    normal:       exp(b f+ R) diag(g+^p_j) exp(a f+ L)
    anti-normal:  exp(a f- L) diag(g-^-p_j) exp(b f- R)

with p_j = 2j - 1 + alpha + beta, f+- = S/D+-, g+- = 1/D+- and
D+- = C -+ c*sigma*S, where S = sin(q)/q and C = cos(q) at
q^2 = a*b*sigma - c^2*sigma^2.  S and C are even and entire in q, so the
factors are functions of q^2 alone, sigma < 0 (sin/cos) and sigma > 0
(sinh/cosh) share one continuation, and the factors are finite wherever
D+- != 0.  exp(iy(R+L)) is the case (a, b, c) = (iy, iy, 0), with
f = S/C = tanh(y sqrt(sigma))/(y sqrt(sigma)) and g = 1/C =
sech(y sqrt(sigma)); the "sho" and "constant-one" profiles factor it with
a scalar diagonal.  Spin rotations are the case of the spin-j block
(rotations.py).

The factor exponentials have closed-form entries,
<j+k|exp(cR)|j> = c^k/k! * lambda_j ... lambda_{j+k-1}, and exp(c'L) is the
transpose of the same construction with c' (the couplings are real), so
each factor is built one subdiagonal at a time in O(n^2).

Conditioning caveat: the anti-normally ordered product places the growing
direction of the diagonal against the raising tail, so its core matrix
elements are alternating sums whose terms grow (until coupling*|coefficient|
stops beating the index growth) to e^peak times the result before they
cancel; a float product loses about peak/ln 10 digits.
``factorization_residual`` scans that peak and, above e^4, takes
``antinormal_core``, which sums every element exactly in fixed-point
Python ints with at least peak/ln 2 + 136 bits and rounds it to float
once.  The normal ordering has no exact route: its factor entries peak near
exp(|c| lambda_max) on wide blocks, and the float product's error is about
that peak squared times the float epsilon.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .algebra import AlgebraSpec, IndexWindow, lambda_sq, squared_couplings
from .errors import PoleError
from .expm import expm, operator_matrix

# u2_factors raises PoleError where |D+-| falls below this
_POLE_TOL = 1e-9
# an ordered sum (the anti-normal scan here, gn.gn_series) has converged
# once its terms fall exp(_TAIL_LN) below both their peak and unity
_TAIL_LN = -37.0


def _even_pair(q_sq):
    """(S, C) = (sin(q)/q, cos(q)) at q = sqrt(q_sq) in complex floats.

    Both are even and entire in q, so the branch of the root is immaterial.
    Below |q_sq| = 1e-30 the series 1 - q^2/6 + q^4/120, 1 - q^2/2 + q^4/24
    stands in; its error there is below 1e-94.
    """
    if abs(q_sq) < 1e-30:
        return 1 - q_sq / 6 + q_sq * q_sq / 120, 1 - q_sq / 2 + q_sq * q_sq / 24
    q = cmath.sqrt(q_sq)
    return cmath.sin(q) / q, cmath.cos(q)


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
        lam = np.sqrt(squared_couplings(spec, window)[1:-1])
        raising = _raising_exp(self.raising_coefficient, lam)
        lowering = _raising_exp(self.lowering_coefficient, lam).T
        if self.ordering == "normal":
            return raising @ (self.diagonal[:, None] * lowering)
        return lowering @ (self.diagonal[:, None] * raising)


def _profile_diagonal(spec: AlgebraSpec, y: float) -> float:
    """Normal-ordered scalar diagonal of exp(iy(R+L)) on a profile spec:
    exp(-y^2/2) for "sho", 1 for "constant-one" (R and L commute there).
    The anti-normal diagonal is its reciprocal; both shift factors carry
    f = 1.  The phase profile has no ordered factorization: ValueError."""
    if spec.profile == "sho":
        return math.exp(-0.5 * y * y)
    if spec.profile == "constant-one":
        return 1.0
    raise ValueError("the phase profile admits no ordered factorization")


def _raising_exp(coef: complex, lam: np.ndarray) -> np.ndarray:
    """exp(coef * R) for the real couplings lam_j = <j+1|R|j> of a window,
    from <j+k|exp(cR)|j> = c^k/k! * lam_j ... lam_{j+k-1}.

    Band k holds the magnitudes |c|^k/k! * prod lam, each the previous band
    times the next couplings and |c|/k in real arithmetic, so it stays in
    floating range wherever the entries do; the phase (c/|c|)^k goes on
    last.  A zero band ends the terminating series.
    """
    n = lam.size + 1
    out = np.zeros((n, n), dtype=complex)
    out.flat[::n + 1] = 1.0
    c = complex(coef)
    r = abs(c)
    u = c / r if r else 0j
    band = np.ones(n)
    for k in range(1, n):
        band = band[:-1] * lam[k - 1:] * (r / k)
        if not band.any():
            break
        out.flat[k * n::n + 1] = band * u ** k
    return out


def _power(base: complex, expo: float) -> complex:
    # integer exponents exactly, to keep half-window diagonals branch-safe
    r = round(expo)
    if abs(expo - r) < 1e-12:
        return complex(base) ** int(r)
    return complex(base) ** expo


def u2_factors(spec: AlgebraSpec, a: complex, b: complex, c: complex) -> U2Factors:
    """Scalar factors for exp(a*L + b*R + c*S), parametric specs with any
    sigma: f+- = S/D+-, g+- = 1/D+- with D+- = C -+ c*sigma*S (module
    docstring).  exp(iy(R+L)) is (a, b, c) = (iy, iy, 0), where D+ = D- = C
    and f+-, g+- are real: tanh(y sqrt(sigma))/(y sqrt(sigma)) and
    sech(y sqrt(sigma)), continued to tan/sec for sigma < 0.  Finite
    wherever D+- != 0; raises PoleError where |D+| or |D-| falls below
    1e-9.  The factors grow as 1/|D+-| towards a pole and the ordered
    products cancel that growth: at |D+| = 1e-10 the spin-1 rotation
    product is off by about 1e4."""
    if not spec.is_parametric:
        raise ValueError("u2 factorization needs a parametric spec")
    si = spec.sigma
    # sigma first: at (iy, iy, 0) q^2 is then the float -(sigma*y)*y of the
    # amplitude formulas (gn.py)
    q_sq = complex(si * a * b - si * si * c * c)
    s, cq = _even_pair(q_sq)
    shift = c * si * s
    d_plus, d_minus = cq - shift, cq + shift
    if min(abs(d_plus), abs(d_minus)) < _POLE_TOL:
        raise PoleError(f"factorization denominators D+- = {d_plus:.3g},"
                        f" {d_minus:.3g}: too close to a pole of the factors")
    return U2Factors(f_plus=s / d_plus, f_minus=s / d_minus,
                     g_plus=1 / d_plus, g_minus=1 / d_minus, q_sq=q_sq)


def reduces_to_u1(a: complex, b: complex, c: complex) -> bool:
    """True when (a, b, c) = (iy, iy, 0) for real y."""
    return a == b and complex(a).real == 0.0 and complex(c) == 0


def ordered_form(spec: AlgebraSpec, window: IndexWindow,
                 coeffs: tuple[complex, complex, complex],
                 ordering: str) -> OrderedForm:
    """The factorization's three ingredients for either ordering: f+- and
    the diagonal g+-^(+-p_j) from ``u2_factors`` for parametric specs
    (PoleError near a pole of the factors).  Profiles factor only
    exp(iy(R+L)), with f = 1 and their scalar diagonal (ValueError for the
    phase profile)."""
    a, b, c = coeffs
    if ordering not in ("normal", "anti-normal"):
        raise ValueError(f"unknown ordering {ordering!r}")
    sign = +1 if ordering == "normal" else -1
    if spec.is_parametric:
        fac = u2_factors(spec, a, b, c)
        f, g = (fac.f_plus, fac.g_plus) if sign > 0 else (fac.f_minus, fac.g_minus)
        ab = spec.alpha + spec.beta
        diagonal = np.array([_power(g, sign * (2 * j - 1 + ab))
                             for j in window.indices()], dtype=complex)
    else:
        if not reduces_to_u1(a, b, c):
            raise ValueError("profile specs only factor exp(iy(R+L))")
        f = 1.0
        diagonal = np.full(window.size,
                           _profile_diagonal(spec, complex(a).imag) ** sign,
                           dtype=complex)
    return OrderedForm(ordering, b * f, a * f, diagonal)


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
    _profile_diagonal(spec, 0.0)  # ValueError for the phase profile
    # profile diagonals are scalars and f = 1; only the shift amplitude matters
    return abs(a), abs(b), 1.0


def _anti_scan(spec, n, coeffs, j_max=None) -> tuple[float, int]:
    """Scan the anti-normal sum for the core element n = m: (ln of the peak
    term magnitude, index where terms fall exp(_TAIL_LN) below both the peak
    and unity).  Stops at a zero coupling or coefficient (the terms after
    it vanish) or at ``j_max``; without ``j_max`` raises ValueError after
    100000 steps."""
    cl, cr, g_abs = _anti_scales(spec, coeffs)
    ln_t, peak = 0.0, 0.0
    j = n
    while j_max is None or j < j_max:
        lam = math.sqrt(max(lambda_sq(spec, j), 0.0))
        if cl * cr * lam == 0.0:
            return peak, j
        step = (math.log(cl * lam) + math.log(cr * lam)
                - 2.0 * math.log(j + 1 - n) - 2.0 * math.log(g_abs))
        ln_t += step
        j += 1
        if ln_t < peak + _TAIL_LN and ln_t < _TAIL_LN:
            return peak, j
        peak = max(peak, ln_t)
        if j_max is None and j > n + 100000:
            raise ValueError("anti-normal ordering does not converge for these coefficients")
    return peak, j


def _anti_peak(spec, window, coeffs) -> float:
    """ln of the peak anti-normal term over the core, scanned from both core
    edges.  Terms grow with the couplings, so the peak can sit at either
    edge or in between; the top scan starts below any zero couplings at
    core_hi, where a scan would stop at once."""
    top = window.core_hi
    while top > window.core_lo and lambda_sq(spec, top) <= 0.0:
        top -= 1
    return max(_anti_scan(spec, n, coeffs, window.j_max)[0]
               for n in (window.core_lo, top))


def antinormal_reach(spec: AlgebraSpec, core_hi: int,
                     coeffs: tuple[complex, complex, complex]) -> int:
    """Smallest j_max for which the anti-normal ordered sum for core
    elements has converged (terms fallen to exp(-37) relative to their
    peak).  Diverges as |coefficients| approach the ordering's convergence
    edge; raises ValueError beyond it."""
    return _anti_scan(spec, core_hi, coeffs)[1]


def _fixed(x, p: int) -> int:
    """floor(x * 2^p) for an int, binary float or Fraction x; exact when
    x * 2^p is an integer."""
    num, den = x.as_integer_ratio()
    return (num << p) // den


def _cmul(x, y, p: int):
    """Product of two fixed-point complex numbers (re, im) at scale 2^p."""
    (xr, xi), (yr, yi) = x, y
    return (xr * yr - xi * yi) >> p, (xr * yi + xi * yr) >> p


def _even_series(q_sq, p: int):
    """(S, C) = (sin(q)/q, cos(q)) at fixed-point complex q^2 = ``q_sq``,
    both fixed-point complex at scale 2^p.

    C sums t_k = (-q^2)^k/(2k)! and S sums t_k/(2k+1).  The terms grow to
    about e^|q| before they fall, so the caller adds |q|/ln 2 guard bits.
    Floor division leaves a small negative term at -1, never at 0, so the
    loop stops on magnitude.
    """
    xr, xi = q_sq
    tr, ti = 1 << p, 0
    sr, si, cr, ci = tr, 0, tr, 0
    k = 0
    while abs(tr) + abs(ti) > 2:
        k += 1
        d = (2 * k - 1) * 2 * k
        tr, ti = ((ti * xi - tr * xr) >> p) // d, (-(tr * xi + ti * xr) >> p) // d
        cr += tr
        ci += ti
        sr += tr // (2 * k + 1)
        si += ti // (2 * k + 1)
    return (sr, si), (cr, ci)


def _fixed_couplings(spec, j_lo: int, j_hi: int, p: int) -> list[int]:
    """floor(lambda_j * 2^p) for j_lo <= j < j_hi, by ``math.isqrt`` of the
    exact rational sigma (alpha + j)(beta + j) of the binary parameters;
    0 where that is <= 0."""
    (sn, sd), (an, ad), (bn, bd) = (float(v).as_integer_ratio() for v in
                                    (spec.sigma, spec.alpha, spec.beta))
    den = sd * ad * bd
    out = []
    for j in range(j_lo, j_hi):
        num = sn * (an + j * ad) * (bn + j * bd)
        out.append(math.isqrt((num << 2 * p) // den) if num > 0 else 0)
    return out


def antinormal_core(spec: AlgebraSpec, window: IndexWindow,
                    coeffs: tuple[complex, complex, complex]) -> np.ndarray:
    """Core block of the anti-normal ordered product, each element an exact
    fixed-point sum in Python ints, rounded to float once.

    Element (n, m) is the sum over j >= max(n, m) of
    <n|exp(a f- L)|j> g-^(-p_j) <j|exp(b f- R)|m>.  With f- = S g- and
    g- = 1/D- (module docstring) its term is

        D-^(n+m-1+alpha+beta) * (aS)^(j-n)/(j-n)! prod lambda
                              * (bS)^(j-m)/(j-m)! prod lambda,

    so the diagonal's growth in j splits evenly between row n's chain,
    stepping by a S lambda_j / k, and column m's chain, stepping by
    b S lambda_j / k.  (Folded into one chain, the diagonal makes it
    overflow while the other underflows.)  Each chain is built once, up to
    the window edge or a zero coupling; each element is four
    ``sum(map(mul, ...))`` over the overlap of its two chains, times its
    prefactor.  For a = b the block is symmetric and each pair is summed
    once.

    Precision: fixed point at scale 2^P with P = 53 + peak/ln 2 + 83 bits
    plus the bits of the largest |prefactor|, where the peak is the ln of
    the largest term relative to the first (``_anti_peak``), or of the
    largest chain entry when |a| and |b| differ enough for one chain to
    outgrow the terms.  The cancellation then loses nothing within 83 bits
    of double precision.  The scalars carry |q|/ln 2 + 64 more guard bits:
    q^2 = ab sigma - c^2 sigma^2 is exact from the binary floats, S and C
    are its even series in ints, and lambda_j is the integer square root of
    the exact rational sigma (alpha + j)(beta + j).  The prefactor is an
    exact power of D- for the integer part of its exponent; a fractional
    part f (alpha + beta not an integer) adds one float power g-^(-f), on
    the principal branch ``ordered_form`` uses.  Each element is rounded to
    float once, by the correctly rounded int division at the end; that and
    the fractional power are the only float roundings.
    """
    a, b, c = (complex(v) for v in coeffs)
    if not spec.is_parametric:
        raise ValueError("profile anti-normal products are well conditioned;"
                         " use ordered_product")
    ab = spec.alpha + spec.beta
    lo, hi = window.core_lo, window.core_hi
    e_lo = 2 * lo - 1 + ab
    af, bf, g_abs = _anti_scales(spec, coeffs)
    peak = _anti_peak(spec, window, coeffs)
    # a chain entry is at most e^(|xS| lambda_max) for x = a, b, and at most
    # e^(peak/2) times the (|a|/|b|)^(+-k/2) tilt between the two chains
    lam_max = max((math.sqrt(max(lambda_sq(spec, j), 0.0))
                   for j in range(lo, window.j_max)), default=0.0)
    tilt = (window.j_max - lo) * abs(math.log(af / bf)) / 2 if af and bf else math.inf
    chain = min(peak / 2 + tilt, max(af, bf) / g_abs * lam_max)
    ln2_g = math.log2(g_abs)  # |D-^e| = 2^(-e ln2_g)
    p = (53 + math.ceil(max(peak, chain) / math.log(2)) + 83
         + max(0, math.ceil(-ln2_g * e_lo), math.ceil(-ln2_g * (2 * hi - 1 + ab))))
    si = Fraction(spec.sigma)
    ar, ai, br, bi, cr, ci = map(Fraction, (a.real, a.imag, b.real, b.imag,
                                            c.real, c.imag))
    q_sq = (si * (ar * br - ai * bi) - si * si * (cr * cr - ci * ci),
            si * (ar * bi + ai * br) - 2 * si * si * cr * ci)
    w = p + math.ceil(abs(complex(*map(float, q_sq))) ** 0.5 / math.log(2)) + 64

    def fix(z):
        return _fixed(z.real, w), _fixed(z.imag, w)

    s, cq = _even_series((_fixed(q_sq[0], w), _fixed(q_sq[1], w)), w)
    cs = _cmul((_fixed(cr * si, w), _fixed(ci * si, w)), s, w)
    d = (cq[0] + cs[0], cq[1] + cs[1])
    a_s = tuple(x >> (w - p) for x in _cmul(fix(a), s, w))
    b_s = tuple(x >> (w - p) for x in _cmul(fix(b), s, w))

    # prefactors D-^e, e = n + m - 1 + alpha + beta, for n + m = 2lo..2hi:
    # D-^k exactly for the integer part k of e_lo, then one float power
    # g-^(k - e_lo) for its fractional part
    nrm = d[0] * d[0] + d[1] * d[1]
    g = ((d[0] << 2 * w) // nrm, (-d[1] << 2 * w) // nrm)
    k0 = math.floor(e_lo)
    pref = (1 << w, 0)
    for _ in range(abs(k0)):
        pref = _cmul(pref, d if k0 > 0 else g, w)
    if e_lo != k0:
        frac = complex(g[0] / (1 << w), g[1] / (1 << w)) ** (k0 - e_lo)
        pref = _cmul(pref, fix(frac), w)
    prefs = [pref]
    for _ in range(2 * (hi - lo)):
        prefs.append(_cmul(prefs[-1], d, w))

    lam = _fixed_couplings(spec, lo, window.j_max, p)

    def chains(coef):
        steps = [((coef[0] * x) >> p, (coef[1] * x) >> p) for x in lam]
        out = []
        for n in range(lo, hi + 1):
            xr, xi = 1 << p, 0
            re, im = [xr], [xi]
            for k, (x, (sr, s_i)) in enumerate(zip(lam[n - lo:], steps[n - lo:]), 1):
                if not x:  # a zero coupling ends the chain
                    break
                xr, xi = (((xr * sr - xi * s_i) >> p) // k,
                          ((xr * s_i + xi * sr) >> p) // k)
                re.append(xr)
                im.append(xi)
            out.append((re, im))
        return out

    rows = chains(a_s)
    cols = rows if a_s == b_s else chains(b_s)
    size = hi - lo + 1
    scale = 1 << (2 * p + w)
    out = np.zeros((size, size), dtype=complex)
    for i in range(size):
        for k in range(i if cols is rows else 0, size):
            (xr, xi), (yr, yi) = rows[i], cols[k]
            if i > k:
                yr, yi = yr[i - k:], yi[i - k:]
            else:
                xr, xi = xr[k - i:], xi[k - i:]
            sum_r = sum(map(mul, xr, yr)) - sum(map(mul, xi, yi))
            sum_i = sum(map(mul, xr, yi)) + sum(map(mul, xi, yr))
            fr, fi = prefs[i + k]
            out[i, k] = complex((sum_r * fr - sum_i * fi) / scale,
                                (sum_r * fi + sum_i * fr) / scale)
    if cols is rows:
        out += np.triu(out, 1).T
    return out


def factorization_residual(spec: AlgebraSpec, window: IndexWindow,
                           coeffs: tuple[complex, complex, complex],
                           ordering: str, *, method: str = "auto") -> float:
    """Max abs deviation between the ordered product and the exponential
    oracle on the window core.

    ``method``: "matrix" forces the plain three-matrix product, "exact"
    forces the fixed-point element sums of ``antinormal_core`` (anti-normal
    ordering on parametric specs only; ValueError elsewhere), "auto" picks
    by the conditioning estimate.  Any other value raises ValueError.
    """
    if method not in ("auto", "matrix", "exact"):
        raise ValueError(f"unknown method {method!r}; choose auto, matrix or exact")
    exact_ok = ordering == "anti-normal" and spec.is_parametric
    if method == "exact" and not exact_ok:
        raise ValueError("method='exact' needs the anti-normal ordering on a"
                         " parametric spec")
    oracle = expm(operator_matrix(spec, window, coeffs)).matrix
    sl = window.core_slice()
    if exact_ok and method != "matrix":
        if method == "exact" or _anti_peak(spec, window, coeffs) > 4.0:
            block = antinormal_core(spec, window, coeffs)
            return float(np.abs(block - oracle[sl, sl]).max())
    prod = ordered_product(spec, window, coeffs, ordering)
    return float(np.abs((prod - oracle)[sl, sl]).max())
