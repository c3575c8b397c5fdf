"""Brute-force matrix exponential with a rigorous truncation bound.

This is the independent reference ("oracle") against which every closed
form and ordered factorization in the package is checked, so it shares no
code with them: plain scaling-and-squaring around a truncated Taylor
series.  The dropped Taylor tail is bounded in the induced infinity norm by
a crude geometric estimate from the first dropped term, and that bound is
propagated through the squarings.  Taylor-plus-scaling is used instead of
an eigendecomposition because truncated band matrices need not be normal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, IndexWindow, build_matrices, padded_window

# the Taylor series stops once its tail bound is below _TAIL_TOL, or after
# _MAX_TERMS terms
_TAIL_TOL = 1e-26
_MAX_TERMS = 80


@dataclass(frozen=True)
class ExpmResult:
    matrix: np.ndarray
    remainder_bound: float


def _norm_inf(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=1).max())


def expm(a: np.ndarray) -> ExpmResult:
    """exp(a) for a square complex matrix, with a bound on the truncation
    error of the underlying Taylor series (rounding is not included).

    Raises OverflowError if an intermediate norm leaves the floating range.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise OverflowError("non-finite entries in exponent")
    n = a.shape[0]
    norm = _norm_inf(a)
    if norm == 0.0:
        return ExpmResult(np.eye(n, dtype=complex), 0.0)

    # scale so the Taylor argument has norm <= 1/2
    squarings = max(0, math.ceil(math.log2(norm / 0.5)))
    b = a / (2.0 ** squarings)
    nb = norm / (2.0 ** squarings)

    total = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    term_bound = 1.0
    tail = math.inf
    for k in range(1, _MAX_TERMS + 1):
        term = term @ b / k
        total += term
        term_bound *= nb / k
        dropped = term_bound * nb / (k + 1)
        tail = dropped / (1.0 - nb / (k + 2))
        if tail <= _TAIL_TOL:
            break
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
    """a*L + b*R + c*S on the window, for coeffs = (a, b, c)."""
    a, b, c = coeffs
    m = build_matrices(spec, window)
    return a * m.L + b * m.R + c * m.S


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
