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

from .algebra import AlgebraSpec, IndexWindow, lambda_sq, squared_couplings
from .errors import PoleError
from .expm import expm, operator_matrix

_POLE_TOL = 1e-9
# an ordered sum (the anti-normal scan here, gn.gn_series) has converged
# once its terms fall exp(_TAIL_LN) below both their peak and unity
_TAIL_LN = -37.0


def _even_pair(q_sq, lib=cmath):
    """(S, C) = (sin(q)/q, cos(q)) at q = sqrt(q_sq), in ``lib`` (cmath or
    mpmath) arithmetic.

    Both are even and entire in q, so the branch of the root is immaterial.
    Below |q_sq| = 1e-30 the series 1 - q^2/6 + q^4/120, 1 - q^2/2 + q^4/24
    stands in; its error there is below 1e-94.
    """
    if abs(q_sq) < 1e-30:
        return 1 - q_sq / 6 + q_sq * q_sq / 120, 1 - q_sq / 2 + q_sq * q_sq / 24
    q = lib.sqrt(q_sq)
    return lib.sin(q) / q, lib.cos(q)


def _real_pair(x: float) -> tuple[float, float]:
    s, c = _even_pair(complex(x))
    if abs(c) < _POLE_TOL:
        raise PoleError(f"cos(sqrt({x:.12g})) = {abs(c):.3g}: too close to a"
                        " tan/sec pole")
    return s.real, c.real


def tau(x: float) -> float:
    """tan(sqrt(x))/sqrt(x), continued through x = 0 to tanh(sqrt(-x))/sqrt(-x).

    Even and analytic in sqrt(x), so the branch of the root is immaterial.
    Raises PoleError within 1e-9 of the tan poles (x > 0 only).
    """
    s, c = _real_pair(x)
    return s / c


def kappa(x: float) -> float:
    """sec(sqrt(x)), continued to sech(sqrt(-x)) for x < 0.  Same pole set
    as tau."""
    return 1.0 / _real_pair(x)[1]


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
        lam = np.sqrt(squared_couplings(spec, window)[1:-1])
        raising = _raising_exp(self.raising_coefficient, lam)
        lowering = _raising_exp(self.lowering_coefficient, lam).T
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
    docstring).  Finite wherever D+- != 0; raises ZeroDivisionError where
    |D+| or |D-| falls below 1e-12."""
    if not spec.is_parametric:
        raise ValueError("u2 factorization needs a parametric spec")
    si = spec.sigma
    q_sq = complex(a * b * si - c * c * si * si)
    s, cq = _even_pair(q_sq)
    d_plus = cq - c * si * s
    d_minus = cq + c * si * s
    for name, d in (("cos(q) - c*sigma*sin(q)/q", d_plus),
                    ("cos(q) + c*sigma*sin(q)/q", d_minus)):
        if abs(d) < 1e-12:
            raise ZeroDivisionError(f"factorization denominator {name} vanishes:"
                                    " the factors have a pole here")
    return U2Factors(f_plus=s / d_plus, f_minus=s / d_minus,
                     g_plus=1 / d_plus, g_minus=1 / d_minus, q_sq=q_sq)


def reduces_to_u1(a: complex, b: complex, c: complex) -> bool:
    """True when (a, b, c) = (iy, iy, 0) for real y."""
    return a == b and complex(a).real == 0.0 and complex(c) == 0


def ordered_form(spec: AlgebraSpec, window: IndexWindow,
                 coeffs: tuple[complex, complex, complex],
                 ordering: str) -> OrderedForm:
    """The factorization's three ingredients for either ordering: f+- and
    the diagonal g+-^(+-p_j) from ``u2_factors`` for parametric specs.
    Profiles factor only exp(iy(R+L)), with their scalar diagonal."""
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
        fac = u1_factors(spec, complex(a).imag)
        f = fac.f
        diagonal = np.full(window.size, fac.diagonal_scalar ** sign, dtype=complex)
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
    fac = u1_factors(spec, complex(a).imag)
    # profile diagonals are scalars; only the shift amplitude matters
    return abs(a) * fac.f, abs(b) * fac.f, 1.0


def _anti_scan(spec, n, coeffs, j_max=None) -> tuple[float, int]:
    """Scan the anti-normal sum for the core element n = m: (ln of the peak
    term magnitude, index where terms fall exp(_TAIL_LN) below both the peak
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


def _mp_factors(spec, a, b, c):
    """Anti-normal scalar factors (f-, g-) in mpmath arithmetic."""
    si = mpmath.mpf(spec.sigma)
    a, b, c = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(c)
    s, cq = _even_pair(a * b * si - c * c * si * si, mpmath)
    d_minus = cq + c * si * s
    return s / d_minus, 1 / d_minus


def antinormal_core(spec: AlgebraSpec, window: IndexWindow,
                    coeffs: tuple[complex, complex, complex]) -> np.ndarray:
    """Core block of the anti-normal ordered product, by summing the exact
    factor entries elementwise in extended precision.

    Element (n, m) is the alternating sum over j >= max(n, m) of
    <n|exp(afL)|j> g^(-p_j) <j|exp(bfR)|m>, with the closed-form factor
    entries (af)^(j-n)/(j-n)! * prod lambda and their mirror.  Each core
    row's left chain and each core column's right chain (with the diagonal
    g^(-p_j), built by repeated multiplication with g^-2, folded in) is
    built once, up to the window edge or the first zero coupling, and each
    element is one ``mpmath.fdot`` over the overlap of its two chains.  The
    working precision is chosen from the peak term so the cancellation is
    exact.
    """
    a, b, c = coeffs
    if not spec.is_parametric:
        raise ValueError("profile anti-normal products are well conditioned;"
                         " use ordered_product")
    dps = max(30, int(_anti_peak(spec, window, coeffs) / math.log(10.0)) + 25)
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

        def chain(start, coef):
            # <start|exp(coef L)|j> = <j|exp(coef R)|start>, j = start, ...
            el = [mpmath.mpc(1)]
            for j in range(start, window.j_max):
                nxt = el[-1] * coef * lam[j] / (j + 1 - start)
                if nxt == 0:
                    break
                el.append(nxt)
            return el

        diag = [g_minus ** (-(2 * window.core_lo - 1 + al + be))]
        g_step = g_minus ** -2
        for _ in range(window.core_lo, window.j_max):
            diag.append(diag[-1] * g_step)
        left = [chain(n, cl) for n in core]
        right = [[d * e for d, e in zip(diag[m - window.core_lo:], chain(m, cr))]
                 for m in core]
        for ri, n in enumerate(core):
            for ci, m in enumerate(core):
                j0 = max(n, m)
                out[ri, ci] = complex(mpmath.fdot(left[ri][j0 - n:],
                                                  right[ci][j0 - m:]))
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
        if method == "exact" or _anti_peak(spec, window, coeffs) > 4.0:
            block = antinormal_core(spec, window, coeffs)
            return float(np.abs(block - oracle[sl, sl]).max())
    prod = ordered_product(spec, window, coeffs, ordering)
    return float(np.abs((prod - oracle)[sl, sl]).max())
