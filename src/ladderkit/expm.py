"""Brute-force matrix exponential with a rigorous truncation bound.

This is the independent reference ("oracle") against which every closed
form and ordered factorization in the package is checked, so it shares no
code with them: plain scaling-and-squaring around a truncated Taylor
series.  The argument is scaled by 2^-s to induced infinity norm <= 1 (2 on
the parity evaluation, below).  The Taylor degree m comes from a scalar tail
rule run before any matrix work: the dropped tail is bounded by a geometric
estimate from the first dropped term, and that bound is propagated through
the squarings.  For a skew-Hermitian x (x^H = -x) every e^(x/2^k) is
unitary and the tail also bounds the 2-norm error, so a squaring takes that
error E to 2E + E^2 with no norm, and sqrt(n) E is reported; for any other
x a squaring takes the infinity-norm bound E to 2 ||P|| E + 3E^2, with the
norm of each partial product P.  The degree-m polynomial is evaluated by
Paterson-Stockmeyer (SIAM J. Comput. 2, 1973) in about 2 sqrt(m) matrix
products instead of m, with the block size that needs the fewest.
Taylor-plus-scaling is used instead of an eigendecomposition because
truncated band matrices need not be normal.

An exponent i h with h real and chiral, zero wherever row + column is even
(exp(iy(R + L)): R + L couples j only to j +- 1), is a real one up to a
diagonal phase.  With E = diag(1, i, 1, i, ...), exp(ih) = E^-1 exp(K) E for
K = E (ih) E^-1, which is h with its odd rows negated: real, of the same
norm (Higham, Functions of Matrices, 2008, ch. 10).  exp(K) is taken in
real products, bit for bit as for the float64 K, and the phase is put back
entry by entry, without rounding.  One core serves all three kinds: a
float64 exponent goes through it in real arithmetic and stays real, a
complex one in complex arithmetic, and K in real arithmetic before its
phase.  ``oracle_element`` reads K off the imaginary part of the bands
``operator_matrix`` builds, and puts the phase back on the element it reads.

A real chiral exponent, such as that K, is [[0, B], [C, 0]] in parity order
(even indices first), so its square is diag(BC, CB).  From _PARITY_MIN
states up the degree-m polynomial runs on the half-size BC (``_taylor_ps``),
where a higher degree costs half-size products, so this parity evaluation
scales to norm <= 2: s is one lower wherever the norm is above 1, which
saves a full-size squaring, and the same tail target takes
degree 32 at norm 2 (2^33/33! ~ 9.9e-28), about 15/8 full-size products
where the dense pass takes 8 at degree 25.  The dense passes keep norm <= 1,
since their extra degree would cost full-size products.  Not beyond 2: at
norm 4 (degree about 42) the terms would sum to e^4 ~ 55 times an
exponential of norm about 1 for the oracle's exponents, and that cancellation
is not measured.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import truediv

import numpy as np

from .algebra import AlgebraSpec, IndexWindow, padded_window, squared_couplings

# the Taylor series stops once its tail bound is below _TAIL_TOL.  At the
# largest scaled norm that takes the most terms: _MAX_TERMS at 1 on the dense
# passes, _PARITY_TERMS at 2 on the parity evaluation (2^33/33! ~ 9.9e-28),
# and fewer below it
_TAIL_TOL = 1e-26
_MAX_TERMS = 25
_PARITY_TERMS = 32

# the Taylor coefficients 1/k!, k = 0.._PARITY_TERMS, each the previous one
# divided by k
_INV_FACT = list(accumulate(range(1, _PARITY_TERMS + 1), truediv, initial=1.0))


@dataclass(frozen=True)
class ExpmResult:
    matrix: np.ndarray
    remainder_bound: float


def _norm_inf(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=1).max(initial=0.0))


def _layout(m: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients 1/k!, k <= m, of exp(b) laid out for ``_taylor_ps``
    as t stacked series in one matrix Y.  t = 1 is exp's series in Y = b,
    term k on Y^k.  t = 3 holds the parity evaluation's three series in
    Y = b^2: E, O and F take the terms 1/(2j)!, 1/(2j + 1)! and 1/(2j + 2)!
    on Y^j, each while its k <= m.  With d the highest power of Y, p takes
    the fewest products, p - 1 + t ((d - 1) // p), ties going to the p
    nearest isqrt(d), and r = max(0, (d - 1) // p).  Row t i + s of the
    first array holds block i of series s, its term on Y^(ip + j) in column
    j - 1 (the last block up to Y^d, maybe its Y^p one); of the second, its
    term on Y^(ip)."""
    w = 1 if t == 1 else 2  # Y = b^w: series s holds term w j + s on Y^j
    d = m // w
    p = min(range(1, max(d, 1) + 1),
            key=lambda q: (q - 1 + t * ((d - 1) // q), abs(q - math.isqrt(d))))
    r = max(0, (d - 1) // p)
    rows = np.zeros((r + 1, t, p + 1))
    for s in range(t):
        for j in range((m - s) // w + 1):
            i = min(j // p, r)
            rows[i, s, j - i * p] = _INV_FACT[w * j + s]
    rows = rows.reshape(-1, p + 1)
    return rows[:, 1:].copy(), rows[:, :1].copy()


# one coefficient layout per Taylor degree the tail rule can pick: real for
# float64 exponents, its complex cast for complex ones, so that their
# coefficient product stays complex by complex (a real-by-complex one costs
# more), and the three parity series for chiral float64 ones
_RE_ROWS = [None] + [_layout(m, 1) for m in range(1, _MAX_TERMS + 1)]
_PS_ROWS = [None] + [tuple(x.astype(complex) for x in rows)
                     for rows in _RE_ROWS[1:]]
_PARITY_ROWS = [None] + [_layout(m, 3) for m in range(1, _PARITY_TERMS + 1)]

# a chiral float64 exponent of at least _PARITY_MIN states takes the parity
# evaluation, a smaller one the dense pass.  _exp on exp(iy(R + L))'s K, the
# parity evaluation's chiral test included (one BLAS thread on one of 2
# vCPUs, the two passes interleaved in one process, best of 60 x 100 calls
# each, dense -> parity, us), where the parity evaluation saves a squaring,
# for (1, 2, 1) at y = 0.3, (1, 1, 1) at y = 0.6 and the phase profile at
# y = 0.8, and where it saves none, the phase profile at y = 0.5 (norm 1):
# 24 states 55.5 -> 59.4, 59.9 -> 62.6, 40.2 -> 41.1 and 35.7 -> 41.2;
# 26: 68.4 -> 63.5, 72.7 -> 68.5, 48.2 -> 47.7 and 43.3 -> 47.6;
# 27: 71.1 -> 64.2, 77.5 -> 69.2, 51.4 -> 47.7 and 45.3 -> 45.4;
# 28: 76.4 -> 67.2, 77.2 -> 68.5, 51.5 -> 48.0 and 45.2 -> 46.3;
# 32: 88.1 -> 78.0, 94.5 -> 84.6, 58.9 -> 51.7 and 52.7 -> 48.9;
# 60: 226.5 -> 173.2, 243.6 -> 191.4, 141.0 -> 83.9 and 123.0 -> 76.9.
# An earlier run had 26 states at 69.1 -> 69.6 and 73.7 -> 75.2: 27 is the
# first size where every exponent that saves a squaring gains in both
_PARITY_MIN = 27


def _taylor_ps(a: np.ndarray, scale: float, m: int,
               parity: bool = False) -> np.ndarray:
    """sum_k b^k/k! for k <= m at b = scale * a by Paterson-Stockmeyer
    (SIAM J. Comput. 2, 1973), from the degree's layout, real or complex as
    a is.  Block i of each series, sum_j coefs[row, j] Y^(j + 1) + diag[row] I,
    comes from one product of the layout with the powers Y, ..., Y^p,
    stacked and built by doubling in ceil(log2 p) batched calls; Horner's
    rule in Y^p runs in place on the t series' blocks, stacked as one
    (t n x n) array.  Costs p - 1 products of n x n and r of t n x n by
    n x n, with p and r from ``_layout``.

    The dense pass is t = 1 on Y = b.  With ``parity``, a is real and
    chiral, zero wherever row + column is even: in parity order (even
    indices first) b = [[0, B], [C, 0]] and b^2 = diag(BC, CB), so with
    the t = 3 series E, O and F of Y = BC

        sum_k b^k/k! = [[E(Y), O(Y) B], [C O(Y), I + C F(Y) B]],

    where the lower right is E(CB), as x F(x) = E(x) - 1.  Y has ceil(n/2)
    states: the pass and the five products around it (Y itself and the
    assembly) cost about 13/8 n x n products at degree 25 and 15/8 at
    degree 32 (p = 8, r = 1), where the dense pass costs 8 at degree 25."""
    if parity:
        up, low = a[::2, 1::2] * scale, a[1::2, ::2] * scale  # B, C
        coefs, diag = _PARITY_ROWS[m]
        t, n = 3, len(up)
    else:
        coefs, diag = (_PS_ROWS if a.dtype == complex else _RE_ROWS)[m]
        t, n = 1, len(a)
    p = coefs.shape[1]
    powers = np.empty((p, n, n), dtype=a.dtype)
    if parity:
        np.dot(up, low, out=powers[0])
    else:
        np.multiply(a, scale, out=powers[0])
    k = 1
    while k < p:  # Y^(k+1..2k) = Y^(1..k) @ Y^k, cut at Y^p
        np.matmul(powers[:min(k, p - k)], powers[k - 1],
                  out=powers[k:min(2 * k, p)])
        k *= 2
    blocks = coefs @ powers.reshape(p, n * n)
    diagonals = blocks[:, ::n + 1]
    np.add(diagonals, diag, out=diagonals)
    blocks = blocks.reshape(-1, t * n, n)
    top, step = powers[p - 1], np.empty((t * n, n), dtype=a.dtype)
    total = blocks[-1]
    for block in blocks[:-1][::-1]:
        # np.dot forms the same product as @, at less cost per call
        np.dot(total, top, out=step)
        block += step
        total = block
    if not parity:
        return total
    # C O(Y) and C F(Y) in one batched product
    lows = np.matmul(low, total[n:].reshape(2, n, n))
    out = np.empty(a.shape)
    out[::2, ::2] = total[:n]
    out[::2, 1::2] = total[n:2 * n] @ up
    out[1::2, ::2] = lows[0]
    out[1::2, 1::2] = lows[1] @ up
    odd_diagonal = out.reshape(-1)[len(a) + 1::2 * len(a) + 2]
    odd_diagonal += 1.0
    return out


def _odd_rows_negated(k: np.ndarray) -> np.ndarray:
    """K = E (i h) E^-1 for E = diag(1, i, 1, i, ...), from a real h with
    zeros wherever row + column is even: h with its odd rows negated, in
    place on k, which holds h and is returned."""
    np.negative(k[1::2], out=k[1::2])
    return k


def _is_chiral(h: np.ndarray) -> bool:
    """Whether h is zero wherever row + column is even: on one view, every
    other entry of the flattened h for odd n, the diagonals of its 2 x 2
    blocks for even n (about 30% less per call than two strided views)."""
    n = len(h)
    same = (h.reshape(-1)[::2] if n % 2
            else h.reshape(n // 2, 2, n // 2, 2).diagonal(axis1=1, axis2=3))
    return not same.any()


def _is_skew(x: np.ndarray) -> bool:
    """Whether x^H == -x exactly (x^T == -x for float64).  A real part on
    x[0, 0], or x[0, 1] != -conj(x[1, 0]), settles it in O(1) for most
    other exponents before the full comparison."""
    n = len(x)
    if x.item(0).real or n > 1 and x.item(1) != -x.item(n).conjugate():
        return False
    return bool((x == -x.T.conj()).all())


def _exp(x: np.ndarray, parity: bool = False) -> tuple[np.ndarray, float] | None:
    """exp(x) and its truncation bound for a square float64 or complex x,
    in x's arithmetic; None when x is zero, whose exponential is exactly
    the identity.  ``parity``: x is float64, chiral and of at least
    _PARITY_MIN states, and takes the parity evaluation.  Raises
    OverflowError if an intermediate norm leaves the floating range or the
    result is not finite."""
    # overflow, in the row sums of x or in a squaring, is detected and
    # raised explicitly; keep numpy quiet about it
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _norm_inf(x)
        if not math.isfinite(norm):
            raise OverflowError("non-finite entries in exponent")
        if norm == 0.0:
            return None

        # scale so the Taylor argument has norm nb <= 1, or <= 2 on the
        # parity evaluation, one squaring fewer; the tail's geometric ratio
        # nb/(k+2) then stays <= 2/3
        squarings = max(0, math.ceil(math.log2(norm)) - parity)
        nb = norm / (2.0 ** squarings)

        # the degree from the tail rule, on scalars only
        term_bound = 1.0
        tail = math.inf
        for k in range(1, (_PARITY_TERMS if parity else _MAX_TERMS) + 1):
            term_bound *= nb / k
            dropped = term_bound * nb / (k + 1)
            tail = dropped / (1.0 - nb / (k + 2))
            if tail <= _TAIL_TOL:
                break
        total = _taylor_ps(x, 2.0 ** -squarings, k, parity)
        bound = tail

        if squarings and _is_skew(x):
            # exp(x / 2^s) is unitary, and nb bounds ||x||_2 / 2^s as well
            # (||x||_1 = ||x||_inf), so the tail bounds the 2-norm error E
            # of the Taylor sum; a squaring takes it to 2E + E^2 with no
            # norm, and sqrt(n) E bounds the infinity norm at the end
            for _ in range(squarings):
                total = np.dot(total, total)
                bound = 2.0 * bound + bound * bound
            bound *= math.sqrt(len(x))
        else:
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

    The per-call work is the chiral tests, the norm, the scalar tail rule,
    the matrix products and, where there is a squaring, one skew-Hermitian
    test: a skew exponent squares with no further norm, its bound carried
    as 2E + E^2 in the 2-norm and reported as sqrt(n) E, and any other
    takes one norm per squaring for 2 ||P|| E + 3E^2.  The coefficients
    1/k! and their Paterson-Stockmeyer layouts, real, complex and parity,
    for each degree the tail rule can pick are tables built at import.

    Raises OverflowError if an intermediate norm leaves the floating range
    or the result is not finite.
    """
    a = np.asarray(a)
    if a.dtype != float:
        a = a.astype(complex, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm needs a square matrix")
    big = len(a) >= _PARITY_MIN
    if a.dtype == float:
        phased, parity = False, big and _is_chiral(a)
    else:
        # an imaginary exponent i h is chiral when h is, and is then
        # exponentiated as K, built in a copy of h (a.imag is a view of the
        # caller's matrix).  A real part on a[0, 0] or a[0, 1] (c and a in
        # operator_matrix's exponents) settles the test for most complex
        # exponents before the O(n^2) scan.
        phased = not (a.size and (a.item(0).real or a.size > 1 and a.item(1).real
                                  or a.real.any())) and _is_chiral(a.imag)
        parity = big and phased
    res = _exp(_odd_rows_negated(a.imag.copy()) if phased else a, parity)
    if res is None:
        return ExpmResult(np.eye(len(a), dtype=a.dtype), 0.0)
    total, bound = res
    if phased:
        # E^-1 exp(K) E, exact entry by entry: exp(K) on entries of the same
        # parity, i exp(K) on (even, odd) and -i exp(K) on (odd, even)
        v, total = total, np.zeros(total.shape, dtype=complex)
        total.real[::2, ::2], total.real[1::2, 1::2] = v[::2, ::2], v[1::2, 1::2]
        total.imag[::2, 1::2], total.imag[1::2, ::2] = v[::2, 1::2], -v[1::2, ::2]
    return ExpmResult(total, bound)


def _bands(l2: np.ndarray,
           coeffs: tuple[complex, complex, complex]) -> tuple[np.ndarray, ...]:
    """The diagonal, upper and lower bands of a*L + b*R + c*S on a window
    with squared couplings l2 (``squared_couplings``), for coeffs = (a, b, c)."""
    a, b, c = coeffs
    lam = np.sqrt(l2[1:-1])
    return c * np.subtract(l2[1:], l2[:-1], dtype=complex), a * lam, b * lam


def _tridiagonal(diag: np.ndarray, up: np.ndarray,
                 low: np.ndarray) -> np.ndarray:
    """The square array of diag's dtype with these three bands."""
    n = len(diag)
    out = np.zeros((n, n), dtype=diag.dtype)
    flat = out.reshape(-1)
    flat[::n + 1], flat[1::n + 1], flat[n::n + 1] = diag, up, low
    return out


def operator_matrix(spec: AlgebraSpec, window: IndexWindow,
                    coeffs: tuple[complex, complex, complex]) -> np.ndarray:
    """a*L + b*R + c*S on the window, for coeffs = (a, b, c): one
    tridiagonal array built from ``squared_couplings``."""
    return _tridiagonal(*_bands(squared_couplings(spec, window), coeffs))


def oracle_element(spec: AlgebraSpec, window: IndexWindow,
                   coeffs: tuple[complex, complex, complex],
                   n: int, m: int) -> complex:
    """<n| exp(a*L + b*R + c*S) |m> by direct exponentiation: the value of
    ``expm(operator_matrix(...))``, bit for bit.

    An exponent with no real part and nothing on its diagonal (exp(iy(R + L))
    for real y) goes to ``expm`` as the real K, the imaginary part of its
    bands with the odd rows negated; the element then takes its phase from
    the parity of its window indices (i, j): none on the same parity, i on
    (even, odd), -i on (odd, even).

    n and m must lie in the window core; the caller is responsible for
    enough padding (certify with pad_sufficiency).
    """
    if not (window.in_core(n) and window.in_core(m)):
        raise ValueError(f"labels ({n}, {m}) outside core "
                         f"[{window.core_lo}, {window.core_hi}]")
    i, j = window.idx(n), window.idx(m)
    diag, up, low = _bands(squared_couplings(spec, window), coeffs)
    a, b, c = coeffs
    # expm's chiral test: a real a or b puts a real part on the off-diagonal
    # bands, and the diagonal is the one band where row + column is even
    if a.real or b.real or c and diag.any():
        return complex(expm(_tridiagonal(diag, up, low)).matrix[i, j])
    k = _odd_rows_negated(_tridiagonal(diag.imag, up.imag, low.imag))
    v = expm(k).matrix[i, j]
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
    grown = padded_window(spec, window.j_min, window.j_max, 8)
    if (grown.j_min, grown.j_max) == (window.j_min, window.j_max):
        return 0.0
    bigger = IndexWindow(grown.j_min, grown.j_max, window.core_lo, window.core_hi)
    return abs(oracle_element(spec, bigger, coeffs, n, m)
               - oracle_element(spec, window, coeffs, n, m))
