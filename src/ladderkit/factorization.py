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
transpose of the same construction with c' (the couplings are real): one
running product along k per column, over all n - 1 bands of n states.

Conditioning caveat: the anti-normally ordered product places the growing
direction of the diagonal against the raising tail, so its core matrix
elements are alternating sums whose terms grow (until coupling*|coefficient|
stops beating the index growth) to e^peak times the result before they
cancel; a float product loses about peak/ln 10 digits.
``factorization_residual`` scans that peak and, above e^4, takes
``antinormal_core``, which sums every element exactly in fixed-point
Python ints with at least peak/ln 2 + 136 bits and rounds it to float
once.  The sum may need the window grown to ``antinormal_reach``; the oracle
does not (``_oracle_window``).  Profiles have no exact anti-normal route,
and no peak is scanned for them: theirs is always the float product, which
can lose every digit (on "sho" at core 0..3 its residual is 3e91 at
y = 12 and NaN from y = 22).  The normal ordering has no exact route: its
factor entries peak near exp(|c| lambda_max) on wide blocks, and the float
product's error is about that peak squared times the float epsilon.
"""

import cmath
import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

import numpy as np

from .algebra import (AlgebraSpec, IndexWindow, _breaks, _oracle_window,
                      lambda_sq, squared_couplings)
from .errors import ConvergenceError, PoleError
from .expm import expm, operator_matrix

# u2_factors raises PoleError where |D+-| falls below this
_POLE_TOL = 1e-9
# the anti-normal scan has converged once its terms fall exp(_TAIL_LN)
# below both their peak and unity
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


class U2Factors(NamedTuple):
    """Scalar factors of the exp(a*L + b*R + c*S) factorization."""

    f_plus: complex
    f_minus: complex
    g_plus: complex
    g_minus: complex
    q_sq: complex


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


def _raising_exp(coefs: tuple[complex, ...], lam: np.ndarray) -> np.ndarray:
    """exp(c R) for each c in ``coefs``, stacked on a leading axis, for the
    real couplings lam_j = <j+1|R|j> of a window, from
    <j+k|exp(cR)|j> = c^k/k! * lam_j ... lam_{j+k-1}.

    Row j of w holds 1 and then, for k = 1..n-1, the running product of
    |c| lam_{j+k-1}/k (0 past the window edge): column j's magnitudes, real
    and finite wherever the entries are; bands past the float range
    underflow to zero.  They then take the phase (c/|c|)^k; built in the
    real parts of w, they round as a real times a complex does.  Read as n
    rows of n, row j of w starts at diagonal (j, j).
    """
    n = lam.size + 1
    cs = [complex(c) for c in coefs]
    rs = [abs(c) for c in cs]
    ks = np.arange(1, n)
    pad = np.zeros((len(cs), 2 * n - 1))
    np.multiply.outer(rs, lam, out=pad[:, :n - 1])
    w = np.zeros((len(cs), n, n + 1), dtype=complex)
    w[:, :, 0] = 1.0
    bands = w[:, :, 1:n]
    mags = bands.real
    # pad[i, j + k - 1] as a view; ndarray checks it against pad's size
    np.divide(np.ndarray((len(cs), n, n - 1), buffer=pad,
                         strides=pad.strides + pad.strides[1:]), ks, out=mags)
    np.multiply.accumulate(mags, axis=2, out=mags)
    units = np.array([c / r if r else 1.0 for c, r in zip(cs, rs)])
    bands *= np.power(units[:, None], ks)[:, None, :]
    return w.reshape(len(cs), -1)[:, :n * n].reshape(len(cs), n, n).transpose(0, 2, 1)


def _diagonal(g: complex, sign: int, ab: float, window: IndexWindow) -> np.ndarray:
    """g^(sign p_j), p_j = 2j - 1 + ab, over the window.  The exponents
    differ by even integers, so one test decides: integer exponents go
    exactly, to keep half-window diagonals branch-safe."""
    g = complex(g)
    first = sign * (2 * window.j_min - 1 + ab)
    r = round(first)
    if abs(first - r) < 1e-12:
        step = 2 * sign
        return np.array([g ** e for e in range(r, r + step * window.size, step)])
    return np.array([g ** (sign * (2 * j - 1 + ab)) for j in window.indices()])


def u2_factors(spec: AlgebraSpec, a: complex, b: complex, c: complex) -> U2Factors:
    """Scalar factors for exp(a*L + b*R + c*S), parametric specs with any
    sigma: f+- = S/D+-, g+- = 1/D+- with D+- = C -+ c*sigma*S (module
    docstring).  exp(iy(R+L)) is (a, b, c) = (iy, iy, 0), where D+ = D- = C
    and f+-, g+- are real: tanh(y sqrt(sigma))/(y sqrt(sigma)) and
    sech(y sqrt(sigma)), continued to tan/sec for sigma < 0.  Finite
    wherever D+- != 0; raises PoleError where |D+| or |D-| falls below
    1e-9, and OverflowError where q^2 is not finite.  The factors grow as
    1/|D+-| towards a pole and the ordered products cancel that growth: at
    |D+| = 1e-10 the spin-1 rotation product is off by about 1e4."""
    if not spec.is_parametric:
        raise ValueError("u2 factorization needs a parametric spec")
    si = spec.sigma
    # sigma first: at (iy, iy, 0) q^2 is the float -(sigma*y)*y of gn.py's
    # amplitudes, with no sigma^2 c^2 (inf * 0 past sigma ~ 1.3e154)
    q_sq = complex(si * a * b - (si * si * c * c if c else 0))
    if not cmath.isfinite(q_sq):
        raise OverflowError(f"q^2 = sigma a b - sigma^2 c^2 = {q_sq} is not finite"
                            f" at (a, b, c) = ({a}, {b}, {c})")
    s, cq = _even_pair(q_sq)
    shift = c * si * s
    d_plus, d_minus = cq - shift, cq + shift
    if min(abs(d_plus), abs(d_minus)) < _POLE_TOL:
        raise PoleError(f"factorization denominators D+- = {d_plus:.3g},"
                        f" {d_minus:.3g}: too close to a pole of the factors")
    return U2Factors(s / d_plus, s / d_minus, 1 / d_plus, 1 / d_minus, q_sq)


def reduces_to_u1(a: complex, b: complex, c: complex) -> bool:
    """True when (a, b, c) = (iy, iy, 0) for real y."""
    return a == b and complex(a).real == 0.0 and complex(c) == 0


def ordered_product(spec: AlgebraSpec, window: IndexWindow,
                    coeffs: tuple[complex, complex, complex],
                    ordering: str) -> np.ndarray:
    """Dense matrix of the factorized exp(a*L + b*R + c*S) on the window:
    exp(b f R) diag exp(a f L) for ``normal`` order, exp(a f L) diag
    exp(b f R) for ``anti-normal``.  f = f+- and the diagonal g+-^(+-p_j),
    p_j = 2j - 1 + alpha + beta, come from ``u2_factors`` for parametric
    specs (PoleError near a pole of the factors).  Profiles factor only
    exp(iy(R+L)), with f = 1 and their scalar diagonal (ValueError for the
    phase profile)."""
    a, b, c = coeffs
    if ordering not in ("normal", "anti-normal"):
        raise ValueError(f"unknown ordering {ordering!r}")
    sign = +1 if ordering == "normal" else -1
    # the couplings first: a window too large to allocate is refused here,
    # before the diagonal's per-state Python list is built
    lam = np.sqrt(squared_couplings(spec, window)[1:-1])
    if spec.is_parametric:
        fac = u2_factors(spec, a, b, c)
        f, g = (fac.f_plus, fac.g_plus) if sign > 0 else (fac.f_minus, fac.g_minus)
        diagonal = _diagonal(g, sign, spec.alpha + spec.beta, window)
    else:
        if not reduces_to_u1(a, b, c):
            raise ValueError("profile specs only factor exp(iy(R+L))")
        f = 1.0
        diagonal = np.full(window.size,
                           _profile_diagonal(spec, complex(a).imag) ** sign,
                           dtype=complex)
    raising, lowering = _raising_exp((b * f, a * f), lam)
    lowering = lowering.T
    if sign > 0:
        return raising @ (diagonal[:, None] * lowering)
    return lowering @ (diagonal[:, None] * raising)


# ---------------------------------------------------------------------------
# anti-normal conditioning analysis and exact-arithmetic element evaluation

def _anti_scales(spec, coeffs):
    """(|a f-|, |b f-|, |g-|) for the anti-normal term recurrence
    (parametric specs; ValueError for profiles)."""
    a, b, c = coeffs
    fac = u2_factors(spec, a, b, c)
    return abs(a * fac.f_minus), abs(b * fac.f_minus), abs(fac.g_minus)


def _anti_scan(spec, n, coeffs, j_max=None) -> tuple[float, int]:
    """Scan the anti-normal sum for the core element n = m: (ln of the peak
    term magnitude, index where terms fall exp(_TAIL_LN) below both the peak
    and unity).  Stops at a zero coupling or coefficient (the terms after
    it vanish) or at ``j_max``; without ``j_max`` raises ConvergenceError
    at once past the convergence edge, else after 100000 steps."""
    cl, cr, g_abs = _anti_scales(spec, coeffs)
    ratio = cl * cr * spec.sigma / (g_abs * g_abs)  # the term ratio's limit
    if j_max is None and ratio >= 1 and _breaks(spec, n)[1] == math.inf:
        raise ConvergenceError("the anti-normal sum does not converge: its"
                               f" term ratio tends to {ratio:.4g}")
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
            raise ConvergenceError("the anti-normal sum's reach is over"
                                   " 100000 states")
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
    peak), parametric specs only: ValueError for profiles.  Grows without
    bound as |coefficients| approach the ordering's convergence edge, where
    the term ratio's limit |a f-||b f-| sigma/|g-|^2 reaches 1.  Past it
    (unless a zero coupling ends the sum) raises ConvergenceError at once,
    and at a reach over 100000 states as well."""
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
                    coeffs: tuple[complex, complex, complex], *,
                    peak: float | None = None) -> np.ndarray:
    """Core block of the anti-normal ordered product, each element an exact
    fixed-point sum in Python ints, rounded to float once.  ``peak`` is the
    ``_anti_peak`` scan of these arguments when the caller already has it
    (``factorization_residual`` scans it to pick the route); by default it
    is scanned here.

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
    the principal branch ``ordered_product`` uses.  Each element is rounded
    to float once, by the correctly rounded int division at the end; that
    and the fractional power are the only float roundings.
    """
    a, b, c = (complex(v) for v in coeffs)
    if not spec.is_parametric:
        raise ValueError("antinormal_core needs a parametric spec: profiles"
                         " have no exact anti-normal route")
    ab = spec.alpha + spec.beta
    lo, hi = window.core_lo, window.core_hi
    e_lo = 2 * lo - 1 + ab
    af, bf, g_abs = _anti_scales(spec, coeffs)
    if peak is None:
        peak = _anti_peak(spec, window, coeffs)
    # a chain entry is at most e^(|xS| lambda_max) for x = a, b, and at most
    # e^(peak/2) times the (|a|/|b|)^(+-k/2) tilt between the two chains
    l2 = lambda_sq(spec, np.arange(lo, window.j_max))
    lam_max = math.sqrt(np.fmax(l2, 0.0).max(initial=0.0))
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
                           ordering: str) -> float:
    """Max abs deviation on the window core between the ordered product on
    the window and the exponential oracle on ``algebra._oracle_window``.

    The anti-normal ordering on a parametric spec takes the exact
    ``antinormal_core``, given the peak scanned here, where that peak term
    exceeds e^4 (a float product would lose about peak/ln 10 digits);
    every other case takes the core of ``ordered_product`` on the states
    that reach it.  Element (n, m) of the normal product sums over
    j <= min(n, m), so it needs [j_min, core_hi]; of the anti-normal one,
    over j >= max(n, m), so it needs [core_lo, j_max].
    """
    box = _oracle_window(spec, window.core_lo, window.core_hi, coeffs, window)
    core = box.core_slice()
    oracle = expm(operator_matrix(spec, box, coeffs)).matrix[core, core]
    peak = (_anti_peak(spec, window, coeffs)
            if ordering == "anti-normal" and spec.is_parametric else 0.0)
    if peak > 4.0:
        block = antinormal_core(spec, window, coeffs, peak=peak)
    else:
        lo, hi = window.core_lo, window.core_hi
        cut = (IndexWindow(window.j_min, hi, lo, hi) if ordering == "normal"
               else IndexWindow(lo, window.j_max, lo, hi))
        sl = cut.core_slice()
        block = ordered_product(spec, cut, coeffs, ordering)[sl, sl]
    return float(np.abs(block - oracle).max())
