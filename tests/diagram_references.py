"""References for the diagram and recursion tests.

The rescaled amplitude families behind the tilde and bar diagrams, their
two-term derivative recursions, the phase amplitudes' recursion, and the
comparison of a diagram column's truncated series with a target function.
The recursions are checked by the library's own central difference,
``ladderkit.gn._recursion_gap``.

The diagram consumers ``reference_column_series``, ``reference_row_sums``,
``reference_render_ascii`` and ``reference_to_records`` read a diagram's
nodes as normalised Fractions (``CoeffDiagram.rows``); the library's own
consumers read its integer numerators and row scales.
"""

import math
from fractions import Fraction

from ladderkit import column_series, phase_gnm
from ladderkit.gn import _recursion_gap


def tilde_gn(p: float, n: int, y: float) -> float:
    """sech^p(y) * tanh^n(y): the square-root-free rescaling of
    G_n(1, p; 1; y)."""
    if p <= 0:
        raise ValueError("p must be positive")
    return math.cosh(y) ** -p * math.tanh(y) ** n


def bar_gn(p: float, n: int, y: float) -> float:
    """Gamma(n+p)/(Gamma(p) n!) * sech^p(y) * tanh^n(y): the opposite
    rescaling."""
    if p <= 0:
        raise ValueError("p must be positive")
    ratio = math.exp(math.lgamma(n + p) - math.lgamma(p) - math.lgamma(n + 1))
    return ratio * tilde_gn(p, n, y)


# the rescaled families and the (lo, hi) of their recursions
# d/dy v_{n+1} = lo v_n - hi v_{n+2}
_VARIANTS = {
    "tilde": (tilde_gn, lambda p, n: (n + 1.0, n + 1.0 + p)),
    "bar": (bar_gn, lambda p, n: (n + p, n + 2.0)),
}


def variant_recursion_residual(p: float, n: int, y: float, which: str) -> float:
    """Central-difference residual of the rescaled recursions:

        d/dy tilde_{n+1} = (n+1) tilde_n - (n+1+p) tilde_{n+2}
        d/dy bar_{n+1}   = (n+p) bar_n   - (n+2)   bar_{n+2}
    """
    if which not in _VARIANTS:
        raise ValueError(f"unknown variant {which!r}")
    fn, coeffs = _VARIANTS[which]
    return _recursion_gap(lambda k, t: fn(p, k, t), n, y, *coeffs(p, n))


def phase_recursion_residual(n: int, y: float) -> float:
    """|d/dy G_{n+1} - (G_n - G_{n+2})| by central differences, with
    G_n = G_n0 of the phase operators."""
    return _recursion_gap(lambda k, t: phase_gnm(k, 0, t), n, y, 1.0, 1.0)


def series_match(d, n: int, target_fn, y_grid) -> float:
    """Max deviation of the truncated column series from a target function
    over a grid (keep |y| well inside the truncation radius)."""
    series = column_series(d, n)
    return max(abs(sum(float(c) * y ** r for r, c in series) - target_fn(y))
               for y in y_grid)


def reference_column_series(d, n: int) -> list:
    """(power r, (-1)^((r - (n - start))/2) T(r, n) / r!) down column n."""
    out = []
    for r in range(d.num_rows):
        t = d.rows[r].get(n)
        if t is None:
            continue
        sign = -1 if ((r - (n - d.start_column)) // 2) % 2 else 1
        out.append((r, sign * t / math.factorial(r)))
    return out


def reference_row_sums(d, signs: str = "plain") -> list:
    """Per-row node sums over the lcm of the row's denominators; the
    alternating sign (-1)^((n - n_min)/2) follows the column."""
    out = []
    for row in d.rows:
        if not row:
            out.append(Fraction(0))
            continue
        scale = math.lcm(*(v.denominator for v in row.values()))
        n_min = min(row)
        total = 0
        for n, v in row.items():
            term = v.numerator * (scale // v.denominator)
            if signs == "alternating" and (n - n_min) // 2 % 2:
                term = -term
            total += term
        out.append(Fraction(total, scale))
    return out


def reference_render_ascii(d) -> str:
    """Node values on their staggered columns, one text row per row."""
    texts = [{n: str(v) for n, v in row.items()} for row in d.rows]
    cols = sorted({n for row in texts for n in row})
    if not cols:
        return ""
    width = max(len(t) for row in texts for t in row.values()) + 2
    header = "".join(f"n={n}".center(width) for n in range(cols[0], cols[-1] + 1))
    lines = [header]
    for row in texts:
        cells = [" " * width] * (cols[-1] - cols[0] + 1)
        for n, t in row.items():
            cells[n - cols[0]] = t.center(width)
        lines.append("".join(cells).rstrip())
    return "\n".join(lines)


def reference_to_records(d) -> list:
    """One record per node, numerator and denominator as strings."""
    recs = []
    for r in range(d.num_rows):
        for n in d.occupied(r):
            v = d.rows[r][n]
            recs.append({"row": r, "column": n,
                         "numerator": str(v.numerator),
                         "denominator": str(v.denominator)})
    return recs
