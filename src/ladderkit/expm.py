"""Brute-force matrix exponential with a rigorous truncation bound.

This is the independent reference ("oracle") against which every closed
form and ordered factorization in the package is checked, so it shares no
code with them: plain scaling-and-squaring around a truncated Taylor
series.  The argument is scaled by 2^-s to induced infinity norm <= 1.  The
Taylor degree m comes from a scalar tail rule run before any matrix work:
the dropped tail is bounded by a geometric estimate from the first dropped
term, and that bound is propagated through the squarings.  The degree-m
polynomial is evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973) in
about 2 sqrt(m) matrix products instead of m.  Taylor-plus-scaling is used
instead of an eigendecomposition because truncated band matrices need not be
normal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, IndexWindow, padded_window, squared_couplings

# the Taylor series stops once its tail bound is below _TAIL_TOL, or after
# _MAX_TERMS terms
_TAIL_TOL = 1e-26
_MAX_TERMS = 80


@dataclass(frozen=True)
class ExpmResult:
    matrix: np.ndarray
    remainder_bound: float


def _norm_inf(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=1).max(initial=0.0))


def _taylor_ps(a: np.ndarray, scale: float, coef: list[float]) -> np.ndarray:
    """sum_k coef[k] b^k at b = scale * a by Paterson-Stockmeyer: Horner's
    rule in b^p over blocks Q_i = sum_j coef[ip + j] b^j (the last may reach
    b^p), all from one product of a zero-padded coefficient matrix with the
    stacked powers b, ..., b^p (built by doubling in ceil(log2 p) batched
    calls) plus coef[ip] on each block's diagonal.  Costs p - 1 + (m - 1) // p
    products for degree m >= 1, least at p = isqrt(m)."""
    n = a.shape[0]
    m = len(coef) - 1
    p = math.isqrt(m)
    r = (m - 1) // p
    powers = np.empty((p, n, n), dtype=complex)
    np.multiply(a, scale, out=powers[0])
    k = 1
    while k < p:  # b^(k+1..2k) = b^(1..k) @ b^k, cut at b^p
        np.matmul(powers[:min(k, p - k)], powers[k - 1],
                  out=powers[k:min(2 * k, p)])
        k *= 2
    # row i holds coef[ip .. ip + p - 1], the last row also coef[m]
    rows = np.zeros((r + 1, p + 1))
    rows.flat[[i + i // p for i in range(m)]] = coef[:m]
    rows[r, m - r * p] = coef[m]
    blocks = (rows[:, 1:] @ powers.reshape(p, n * n)).reshape(r + 1, n, n)
    blocks.reshape(r + 1, n * n)[:, ::n + 1] += rows[:, :1]
    for i in range(r - 1, -1, -1):
        blocks[i] += blocks[i + 1] @ powers[p - 1]
    return blocks[0]


def expm(a: np.ndarray) -> ExpmResult:
    """exp(a) for a square complex matrix, with a bound on the truncation
    error of the underlying Taylor series (rounding is not included).

    Raises OverflowError if an intermediate norm leaves the floating range.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm needs a square matrix")
    norm = _norm_inf(a)
    if not math.isfinite(norm):
        raise OverflowError("non-finite entries in exponent")
    if norm == 0.0:
        return ExpmResult(np.eye(len(a), dtype=complex), 0.0)

    # scale so the Taylor argument has norm <= 1; the tail's geometric
    # ratio nb/(k+2) then stays <= 1/3
    squarings = max(0, math.ceil(math.log2(norm)))
    nb = norm / (2.0 ** squarings)

    # the degree from the tail rule, on scalars only
    coef = [1.0]
    term_bound = 1.0
    tail = math.inf
    for k in range(1, _MAX_TERMS + 1):
        coef.append(coef[-1] / k)
        term_bound *= nb / k
        dropped = term_bound * nb / (k + 1)
        tail = dropped / (1.0 - nb / (k + 2))
        if tail <= _TAIL_TOL:
            break
    total = _taylor_ps(a, 2.0 ** -squarings, coef)
    bound = tail

    # overflow is detected and raised explicitly; keep numpy quiet about it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            tn = _norm_inf(total)
            if not math.isfinite(tn):
                raise OverflowError("matrix exponential overflowed during squaring")
            total = total @ total
            bound = 2.0 * tn * bound + 3.0 * bound * bound
    if not np.all(np.isfinite(total)) or not math.isfinite(bound):
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
