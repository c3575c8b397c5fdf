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

An exponent i h with h real and chiral, zero wherever row + column is even
(exp(iy(R + L)): R + L couples j only to j +- 1), is a real one up to a
diagonal phase.  With E = diag(1, i, 1, i, ...), exp(ih) = E^-1 exp(K) E for
K = E (ih) E^-1, which is h with its odd rows negated: real, of the same
norm (Higham, Functions of Matrices, 2008, ch. 10).  exp(K) takes the same
s, m, squarings and bound as the complex path, in real products, and the
phase is put back entry by entry, without rounding.  One core serves all
three kinds: a float64 exponent goes through it in real arithmetic and
stays real, a complex one in complex arithmetic, and K in real arithmetic
before its phase.  ``oracle_element`` builds K for exp(iy(R + L)) straight
from the couplings and puts the phase back on the one element it reads.
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


def _layout(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients 1/k!, k <= m, of exp(b) in b for ``_taylor_ps``:
    p takes the fewest products, p - 1 + (m - 1) // p, ties going to the p
    nearest isqrt(m), and r = max(0, (m - 1) // p).  Row i of the first
    array holds block i, its term on b^(ip + j) in column j - 1 (the last
    block up to b^m, maybe its b^p one); of the second, its term on b^(ip)."""
    p = min(range(1, max(m, 1) + 1),
            key=lambda q: (q - 1 + (m - 1) // q, abs(q - math.isqrt(m))))
    r = max(0, (m - 1) // p)
    rows = np.zeros((r + 1, p + 1))
    for k in range(m + 1):
        i = min(k // p, r)
        rows[i, k - i * p] = _INV_FACT[k]
    return rows[:, 1:].copy(), rows[:, :1].copy()


# one coefficient layout per Taylor degree the tail rule can pick: real for
# the real exponents of the chiral route, and its complex cast for complex
# exponents, so that their coefficient product stays complex by complex (a
# real-by-complex one costs more)
_RE_ROWS = [None] + [_layout(m) for m in range(1, _MAX_TERMS + 1)]
_PS_ROWS = [None] + [tuple(x.astype(complex) for x in rows)
                     for rows in _RE_ROWS[1:]]


def _taylor_ps(a: np.ndarray, scale: float, m: int) -> np.ndarray:
    """sum_k b^k/k! for k <= m at b = scale * a by Paterson-Stockmeyer
    (SIAM J. Comput. 2, 1973), from the degree's layout, real or complex as
    a is.  Block i, sum_j coefs[i, j] b^(j + 1) + diag[i] I, comes from one
    product of the layout with the powers b, ..., b^p, stacked and built by
    doubling in ceil(log2 p) batched calls; Horner's rule in b^p runs in
    place on the blocks.  Costs p - 1 + (m - 1) // p products for degree
    m >= 1, with p from ``_layout``."""
    coefs, diag = (_PS_ROWS if a.dtype == complex else _RE_ROWS)[m]
    p, n = coefs.shape[1], a.shape[0]
    powers = np.empty((p, n, n), dtype=a.dtype)
    np.multiply(a, scale, out=powers[0])
    k = 1
    while k < p:  # b^(k+1..2k) = b^(1..k) @ b^k, cut at b^p
        np.matmul(powers[:min(k, p - k)], powers[k - 1],
                  out=powers[k:min(2 * k, p)])
        k *= 2
    blocks = coefs @ powers.reshape(p, n * n)
    diagonals = blocks[:, ::n + 1]
    np.add(diagonals, diag, out=diagonals)
    blocks = blocks.reshape(-1, n, n)
    top, step = powers[p - 1], np.empty((n, n), dtype=a.dtype)
    total = blocks[-1]
    for block in blocks[:-1][::-1]:
        # np.dot forms the same product as @, at less cost per call
        np.dot(total, top, out=step)
        block += step
        total = block
    return total


def _odd_rows_negated(k: np.ndarray) -> np.ndarray:
    """K = E (i h) E^-1 for E = diag(1, i, 1, i, ...), from a real h with
    zeros wherever row + column is even: h with its odd rows negated, in
    place on k, which holds h and is returned."""
    np.negative(k[1::2], out=k[1::2])
    return k


def _exp(x: np.ndarray) -> tuple[np.ndarray, float] | None:
    """exp(x) and its truncation bound for a square float64 or complex x,
    in x's arithmetic; None when x is zero, whose exponential is exactly
    the identity.  Raises OverflowError if an intermediate norm leaves the
    floating range."""
    # overflow, in the row sums of x or in a squaring, is detected and
    # raised explicitly; keep numpy quiet about it
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _norm_inf(x)
        if not math.isfinite(norm):
            raise OverflowError("non-finite entries in exponent")
        if norm == 0.0:
            return None

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
        total = _taylor_ps(x, 2.0 ** -squarings, k)
        bound = tail

        for _ in range(squarings):
            tn = _norm_inf(total)
            if not math.isfinite(tn):
                raise OverflowError("matrix exponential overflowed during squaring")
            total = np.dot(total, total)
            bound = 2.0 * tn * bound + 3.0 * bound * bound
    if not np.isfinite(total).all() or not math.isfinite(bound):
        raise OverflowError("matrix exponential overflowed")
    return total, bound


def expm(a: np.ndarray) -> ExpmResult:
    """exp(a) for a square real or complex matrix, with a bound on the
    truncation error of the underlying Taylor series (rounding is not
    included).  A float64 matrix is exponentiated in real arithmetic and
    its exponential returned as float64; any other is taken as complex and
    its exponential returned as complex.

    The per-call work is the chiral test, the norm, the scalar tail rule
    and the matrix products: the coefficients 1/k! and their
    Paterson-Stockmeyer layouts, real and complex, for each degree the
    tail rule can pick are tables built at import.

    Raises OverflowError if an intermediate norm leaves the floating range.
    """
    a = np.asarray(a)
    if a.dtype != float:
        a = a.astype(complex, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm needs a square matrix")
    # an imaginary exponent i h is chiral when h is zero wherever row +
    # column is even, and is then exponentiated as K, built in a copy of
    # h (a.imag is a view of the caller's matrix).  A real part on a[0, 0]
    # or a[0, 1] (c and a in operator_matrix's exponents) settles the test
    # for most complex exponents before the O(n^2) scan.
    real = a.dtype == float or a.size and (
        a.item(0).real or a.size > 1 and a.item(1).real or a.real.any())
    h = None if real else a.imag
    chiral = not (h is None or np.count_nonzero(h[::2, ::2])
                  or np.count_nonzero(h[1::2, 1::2]))
    res = _exp(_odd_rows_negated(h.copy()) if chiral else a)
    if res is None:
        return ExpmResult(np.eye(len(a), dtype=a.dtype), 0.0)
    total, bound = res
    if chiral:
        # E^-1 exp(K) E, exact entry by entry: exp(K) on entries of the same
        # parity, i exp(K) on (even, odd) and -i exp(K) on (odd, even)
        v, total = total, np.zeros(total.shape, dtype=complex)
        total.real[::2, ::2], total.real[1::2, 1::2] = v[::2, ::2], v[1::2, 1::2]
        total.imag[::2, 1::2], total.imag[1::2, ::2] = v[::2, 1::2], -v[1::2, ::2]
    return ExpmResult(total, bound)


def _bands(spec: AlgebraSpec, window: IndexWindow,
           coeffs: tuple[complex, complex, complex]) -> tuple[np.ndarray, ...]:
    """The diagonal, upper and lower bands of a*L + b*R + c*S on the
    window, for coeffs = (a, b, c), from ``squared_couplings``."""
    a, b, c = coeffs
    l2 = squared_couplings(spec, window)
    lam = np.sqrt(l2[1:-1])
    return c * np.subtract(l2[1:], l2[:-1], dtype=complex), a * lam, b * lam


def _tridiagonal(diag: np.ndarray, up: np.ndarray,
                 low: np.ndarray) -> np.ndarray:
    """The square array of diag's dtype with these three bands."""
    n = len(diag)
    out = np.zeros((n, n), dtype=diag.dtype)
    out.flat[::n + 1], out.flat[1::n + 1], out.flat[n::n + 1] = diag, up, low
    return out


def operator_matrix(spec: AlgebraSpec, window: IndexWindow,
                    coeffs: tuple[complex, complex, complex]) -> np.ndarray:
    """a*L + b*R + c*S on the window, for coeffs = (a, b, c): one
    tridiagonal array built from ``squared_couplings``."""
    return _tridiagonal(*_bands(spec, window, coeffs))


def oracle_element(spec: AlgebraSpec, window: IndexWindow,
                   coeffs: tuple[complex, complex, complex],
                   n: int, m: int) -> complex:
    """<n| exp(a*L + b*R + c*S) |m> by direct exponentiation: the value of
    ``expm(operator_matrix(...))``, bit for bit.

    An exponent that ``expm`` takes as chiral (exp(iy(R + L)) for real y)
    goes to it as the real K, built from the bands; the element then takes
    its phase from the parity of its window indices (i, j): none on the
    same parity, i on (even, odd), -i on (odd, even).

    n and m must lie in the window core; the caller is responsible for
    enough padding (certify with pad_sufficiency).
    """
    if not (window.in_core(n) and window.in_core(m)):
        raise ValueError(f"labels ({n}, {m}) outside core "
                         f"[{window.core_lo}, {window.core_hi}]")
    i, j = window.idx(n), window.idx(m)
    diag, up, low = _bands(spec, window, coeffs)
    # expm's chiral test, read on the bands: no real part anywhere and
    # nothing on the diagonal, the only band where row + column is even
    # (count_nonzero costs less per call than any)
    if (np.count_nonzero(diag) or np.count_nonzero(up.real)
            or np.count_nonzero(low.real)):
        return complex(expm(_tridiagonal(diag, up, low)).matrix[i, j])
    up, low = up.imag, low.imag
    v = expm(_odd_rows_negated(_tridiagonal(diag.imag, up, low))).matrix[i, j]
    if (i - j) % 2 == 0 or not (np.count_nonzero(up) or np.count_nonzero(low)):
        # same parity, or a zero exponent, whose exponential expm returns
        # as the identity with no phase put back
        return complex(v)
    return complex(0.0, v if i % 2 == 0 else -v)


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
