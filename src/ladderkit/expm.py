"""Brute-force matrix exponential with a rigorous truncation bound.

This is the independent reference ("oracle") against which every closed
form and ordered factorization in the package is checked, so it shares no
code with them: plain scaling-and-squaring around a truncated Taylor
series.  The argument is scaled by 2^-s to induced infinity norm <= 1.  The
Taylor degree m comes from a scalar tail rule run before any matrix work:
the dropped tail is bounded by a geometric estimate from the first dropped
term, and that bound is propagated through the squarings.  The degree-m
polynomial is evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973) in
about 2 sqrt(m) matrix products instead of m, with the block size that needs
the fewest.  Taylor-plus-scaling is used instead of an eigendecomposition
because truncated band matrices need not be normal.

An exponent i h with h real (exp(iy(R + L)), or any built from imaginary
coefficients) takes a real evaluation of the same degree-m polynomial: its
even terms are cos, a polynomial in X = b^2 of half the degree, and its odd
ones i b sin, b times another (Higham, Functions of Matrices, 2008, ch. 12),
both from one real Paterson-Stockmeyer pass in X.  s, m, the squarings and
the truncation bound are shared.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import truediv

import numpy as np

from .algebra import AlgebraSpec, IndexWindow, padded_window, squared_couplings

# the Taylor series stops once its tail bound is below _TAIL_TOL; at the
# largest scaled norm, 1, that takes _MAX_TERMS terms, and fewer below it
_TAIL_TOL = 1e-26
_MAX_TERMS = 25

# the Taylor coefficients 1/k!, k = 0.._MAX_TERMS, each the previous one
# divided by k
_INV_FACT = list(accumulate(range(1, _MAX_TERMS + 1), truediv, initial=1.0))


@dataclass(frozen=True)
class ExpmResult:
    matrix: np.ndarray
    remainder_bound: float


def _norm_inf(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=1).max(initial=0.0))


def _layout(m: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The degree-m Taylor coefficients as t stacked series in Y for
    ``_paterson_stockmeyer``: for t = 1, exp(b) in Y = b, term k (1/k!) on
    Y^k; for t = 2, exp(ib) in Y = b^2, term k ((-1)^(k//2)/k!) on Y^(k//2)
    of the cos series (even k) or the sin series (odd k).  With d = m // t,
    p takes the fewest products, p - 1 + t ((d - 1) // p), ties going to
    the p nearest isqrt(d), and r = max(0, (d - 1) // p).  Row t i + s of
    the first array holds block i of series s, the term on Y^(ip + j) in
    column j - 1 (the last block up to Y^d, which may be its Y^p one); the
    same row of the second holds the term on Y^(ip)."""
    d = m // t
    p = min(range(1, max(d, 1) + 1),
            key=lambda q: (q - 1 + t * ((d - 1) // q), abs(q - math.isqrt(d))))
    r = max(0, (d - 1) // p)
    coefs, diag = np.zeros((r + 1, t, p)), np.zeros((r + 1, t))
    for k in range(m + 1):
        i = min(k // t // p, r)
        j = k // t - i * p
        coef = -_INV_FACT[k] if t == 2 and k // 2 % 2 else _INV_FACT[k]
        if j:
            coefs[i, k % t, j - 1] = coef
        else:
            diag[i, k % t] = coef
    return coefs.reshape(t * r + t, p), diag.reshape(t * r + t, 1)


# one coefficient layout per Taylor degree the tail rule can pick: complex
# for complex exponents, so their coefficient product stays complex by
# complex (a real-by-complex one costs more), and real for imaginary ones
_PS_ROWS = [None] + [tuple(x.astype(complex) for x in _layout(m, 1))
                     for m in range(1, _MAX_TERMS + 1)]
_CS_ROWS = [None] + [_layout(m, 2) for m in range(1, _MAX_TERMS + 1)]


def _paterson_stockmeyer(powers: np.ndarray, coefs: np.ndarray,
                         diag: np.ndarray, t: int) -> np.ndarray:
    """t polynomials in Y by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973),
    stacked as one (t n x n) array.  Row t i + s of the layout gives block i
    of series s, sum_j coefs[row, j] Y^(j + 1) + diag[row] I; all blocks come
    from one product of the layout with the stacked powers Y, ..., Y^p, and
    Horner's rule in Y^p runs in place on the stacked blocks.  powers[0]
    holds Y; the rest is built here by doubling, in ceil(log2 p) batched
    calls.  Costs p - 1 products of n x n and len(coefs) / t - 1 of
    (t n x n) by n x n."""
    p, n = powers.shape[0], powers.shape[1]
    k = 1
    while k < p:  # Y^(k+1..2k) = Y^(1..k) @ Y^k, cut at Y^p
        np.matmul(powers[:min(k, p - k)], powers[k - 1],
                  out=powers[k:min(2 * k, p)])
        k *= 2
    blocks = coefs @ powers.reshape(p, n * n)
    diagonals = blocks[:, ::n + 1]
    np.add(diagonals, diag, out=diagonals)
    blocks = blocks.reshape(-1, t * n, n)
    top, step = powers[p - 1], np.empty((t * n, n), dtype=powers.dtype)
    total = blocks[-1]
    for block in blocks[:-1][::-1]:
        # np.dot forms the same product as @, at less cost per call
        np.dot(total, top, out=step)
        block += step
        total = block
    return total


def _taylor_ps(a: np.ndarray, scale: float, m: int) -> np.ndarray:
    """sum_k b^k/k! for k <= m at b = scale * a, one series in b from the
    degree's layout (``_PS_ROWS``).  Costs p - 1 + (m - 1) // p complex
    products for degree m >= 1, with p from ``_layout``."""
    coefs, diag = _PS_ROWS[m]
    powers = np.empty((coefs.shape[1], *a.shape), dtype=complex)
    np.multiply(a, scale, out=powers[0])
    return _paterson_stockmeyer(powers, coefs, diag, 1)


def _taylor_cos_sin(h: np.ndarray, scale: float, m: int) -> np.ndarray:
    """sum_k (ib)^k/k! for k <= m at b = scale * h, h real, as cos + i sin:
    the even terms are a polynomial C in X = b^2 and the odd ones b S, with S
    another polynomial in X, of degrees m // 2 and (m - 1) // 2.  One real
    pass evaluates both, stacked as [C; S], from the degree's layout
    (``_CS_ROWS``); then C + i b S.  All products are real: p + 1 of
    n x n and r of 2n x n, with p and r from the layout (9 n x n at
    m = 25, where ``_taylor_ps`` takes 8 complex ones)."""
    n = h.shape[0]
    coefs, diag = _CS_ROWS[m]
    b = h * scale
    powers = np.empty((coefs.shape[1], n, n))
    np.dot(b, b, out=powers[0])
    cos_sin = _paterson_stockmeyer(powers, coefs, diag, 2)
    out = np.empty((n, n), dtype=complex)
    out.real = cos_sin[:n]
    out.imag = np.dot(b, cos_sin[n:])
    return out


def expm(a: np.ndarray) -> ExpmResult:
    """exp(a) for a square complex matrix, with a bound on the truncation
    error of the underlying Taylor series (rounding is not included).

    The per-call work is the test for a zero real part, the norm, the
    scalar tail rule and the matrix products: the coefficients 1/k! and
    their Paterson-Stockmeyer layouts, complex and cos/sin, for each degree
    the tail rule can pick are tables built at import.

    Raises OverflowError if an intermediate norm leaves the floating range.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm needs a square matrix")
    # an imaginary exponent, i h with h real, takes the real cos + i sin
    # evaluation; its norm is h's, as |0 + iy| = |y| exactly.  A real part
    # on a[0, 0] or a[0, 1] (c and a in operator_matrix's exponents) settles
    # the test for most complex exponents before the O(n^2) scan.
    real = a.size and (a.item(0).real or a.size > 1 and a.item(1).real
                       or a.real.any())
    h = None if real else a.imag
    norm = _norm_inf(a if h is None else h)
    if not math.isfinite(norm):
        raise OverflowError("non-finite entries in exponent")
    if norm == 0.0:
        return ExpmResult(np.eye(len(a), dtype=complex), 0.0)

    # scale so the Taylor argument has norm <= 1; the tail's geometric
    # ratio nb/(k+2) then stays <= 1/3
    squarings = max(0, math.ceil(math.log2(norm)))
    nb = norm / (2.0 ** squarings)

    # the degree from the tail rule, on scalars only
    term_bound = 1.0
    tail = math.inf
    for k in range(1, _MAX_TERMS + 1):
        term_bound *= nb / k
        dropped = term_bound * nb / (k + 1)
        tail = dropped / (1.0 - nb / (k + 2))
        if tail <= _TAIL_TOL:
            break
    if h is None:
        total = _taylor_ps(a, 2.0 ** -squarings, k)
    else:
        total = _taylor_cos_sin(h, 2.0 ** -squarings, k)
    bound = tail

    # overflow is detected and raised explicitly; keep numpy quiet about it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            tn = _norm_inf(total)
            if not math.isfinite(tn):
                raise OverflowError("matrix exponential overflowed during squaring")
            total = np.dot(total, total)
            bound = 2.0 * tn * bound + 3.0 * bound * bound
    if not np.isfinite(total).all() or not math.isfinite(bound):
        raise OverflowError("matrix exponential overflowed")
    return ExpmResult(total, bound)


def operator_matrix(spec: AlgebraSpec, window: IndexWindow,
                    coeffs: tuple[complex, complex, complex]) -> np.ndarray:
    """a*L + b*R + c*S on the window, for coeffs = (a, b, c): one
    tridiagonal array built from ``squared_couplings``."""
    a, b, c = coeffs
    l2 = squared_couplings(spec, window)
    lam = np.sqrt(l2[1:-1])
    n = window.size
    out = np.diag(c * np.diff(l2).astype(complex))
    out.flat[1::n + 1] = a * lam
    out.flat[n::n + 1] = b * lam
    return out


def oracle_element(spec: AlgebraSpec, window: IndexWindow,
                   coeffs: tuple[complex, complex, complex],
                   n: int, m: int) -> complex:
    """<n| exp(a*L + b*R + c*S) |m> by direct exponentiation.

    n and m must lie in the window core; the caller is responsible for
    enough padding (certify with pad_sufficiency).
    """
    if not (window.in_core(n) and window.in_core(m)):
        raise ValueError(f"labels ({n}, {m}) outside core "
                         f"[{window.core_lo}, {window.core_hi}]")
    res = expm(operator_matrix(spec, window, coeffs))
    return complex(res.matrix[window.idx(n), window.idx(m)])


def pad_sufficiency(spec: AlgebraSpec, window: IndexWindow,
                    coeffs: tuple[complex, complex, complex],
                    n: int, m: int) -> float:
    """Truncation certificate: |element on window - element on the window
    grown by up to 8 states per side with ``padded_window``|, which stops at
    a zero coupling (no state past it can change the element) or where real
    couplings end.  Exactly zero when no side can grow, small once the
    padding is sufficient."""
    base = oracle_element(spec, window, coeffs, n, m)
    grown = padded_window(spec, window.j_min, window.j_max, 8)
    if (grown.j_min, grown.j_max) == (window.j_min, window.j_max):
        return 0.0
    bigger = IndexWindow(grown.j_min, grown.j_max, window.core_lo, window.core_hi)
    return abs(oracle_element(spec, bigger, coeffs, n, m) - base)
