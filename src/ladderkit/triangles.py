"""Exact weighted-path diagrams behind the amplitude power series.

A diagram is a staggered array of nodes T(r, n) (row r, column n) built by
walking directed links: the link column n -> n+1 carries weight w_right(n),
the link n+1 -> n carries w_left(n), and each node sums path contributions
from the row above,

    T(r+1, n) = w_right(n-1) T(r, n-1) + w_left(n) T(r, n+1),

from a single seed T(0, start_column) = 1.  Triangular diagrams keep
columns n >= 0 (paths never cross the border); diamonds allow all integer
columns.  Only sites with r = n - start_column (mod 2) are occupied.

Column n then codes a power series: the coefficient of y^r is
(-1)^((r - (n - start))/2) T(r, n) / r!.  With weights w_right(n) = n+1,
w_left(n) = n+p both directions read off coupling labels and column 0
yields the Euler (p=1) and tangent (p=2) numbers; unit weights on a
diamond give Pascal's triangle and Bessel coefficients; unit weights on a
triangle count border-respecting lattice paths (Catalan and ballot
numbers).

Everything here is exact rational arithmetic; no floats enter a diagram.
"""

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import AlgebraSpec
from .gn import bessel_jn


@dataclass(frozen=True)
class WeightRule:
    """Directed-link weights, both maps column index -> exact rational."""

    name: str
    w_right: Callable[[int], Fraction]
    w_left: Callable[[int], Fraction]


def unit_rule() -> WeightRule:
    one = Fraction(1)
    return WeightRule("unit", lambda n: one, lambda n: one)


def tilde_rule(p) -> WeightRule:
    p = Fraction(p)
    return WeightRule(f"tilde({p})", lambda n: Fraction(n + 1), lambda n: n + p)


def bar_rule(p) -> WeightRule:
    p = Fraction(p)
    return WeightRule(f"bar({p})", lambda n: n + p, lambda n: Fraction(n + 1))


def gauss_tilde_rule() -> WeightRule:
    one = Fraction(1)
    return WeightRule("gauss-tilde", lambda n: one, lambda n: Fraction(n + 1))


def gauss_bar_rule() -> WeightRule:
    one = Fraction(1)
    return WeightRule("gauss-bar", lambda n: Fraction(n + 1), lambda n: one)


def _rational_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise ValueError("negative coupling squared")
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn != x.numerator or pd * pd != x.denominator:
        raise ValueError(f"{x} is not the square of a rational")
    return Fraction(pn, pd)


def lambda_rule(alpha, beta, sigma) -> WeightRule:
    """Both link directions carry the coupling
    lambda_n = sqrt(sigma (alpha+n) (beta+n)) itself, for exact rational
    parameters (anything ``Fraction`` accepts; a float is read as the binary
    value it holds).

    Exactness demands rational lambda_n, so the lambda_n^2 must be perfect
    rational squares (e.g. alpha = beta, sigma = 1).  Profiles with square
    roots should go through the tilde/bar rescalings instead.
    """
    al, be, si = Fraction(alpha), Fraction(beta), Fraction(sigma)

    def lam(n: int) -> Fraction:
        return _rational_sqrt(si * (al + n) * (be + n))

    for probe in range(4):
        lam(probe)
    return WeightRule(f"lambda-symmetric(alpha={al}, beta={be}, sigma={si})",
                      lam, lam)


def lambda_symmetric_rule(spec: AlgebraSpec) -> WeightRule:
    """``lambda_rule`` on a parametric spec's (float) parameters."""
    if not spec.is_parametric:
        raise ValueError("lambda-symmetric rule needs a parametric spec")
    return lambda_rule(spec.alpha, spec.beta, spec.sigma)


_BOUNDARIES = ("triangular", "diamond")


@dataclass(frozen=True)
class CoeffDiagram:
    """Exact node table T(r, n), rows 0..num_rows-1, sparse over columns."""

    rule_name: str
    boundary: str
    start_column: int
    rows: tuple[dict, ...]

    def value(self, r: int, n: int) -> Fraction:
        if not 0 <= r < len(self.rows):
            raise IndexError(f"row {r} not generated")
        return self.rows[r].get(n, Fraction(0))

    def occupied(self, r: int) -> list[int]:
        return sorted(self.rows[r])

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def _weights(rule: WeightRule, side: str, cache: dict, columns) -> dict:
    """The rule's `side` weights on `columns` as (numerator, denominator)
    pairs; `cache` holds each column asked so far, so the rule sees every
    column at most once per diagram."""
    out = {}
    for n in columns:
        pair = cache.get(n)
        if pair is None:
            w = getattr(rule, side)(n)
            if not isinstance(w, numbers.Rational):
                raise TypeError(f"rule {rule.name!r}: {side}({n}) = {w!r} is "
                                "not an exact rational")
            pair = cache[n] = (w.numerator, w.denominator)
        out[n] = pair
    return out


def generate(rule: WeightRule, boundary: str, start_column: int,
             num_rows: int) -> CoeffDiagram:
    """Build the diagram row by row from the seed column.

    Rows are computed on integer numerators over one scale per row: each
    row's scale is the previous one times the lcm of the denominators of
    the weights the step uses, so every node is normalised once, as
    Fraction(numerator, scale).  The rule is asked for each weight once
    per column, and only on columns next to a nonzero node.
    """
    if boundary not in _BOUNDARIES:
        raise ValueError(f"boundary must be one of {_BOUNDARIES}")
    if num_rows < 1:
        raise ValueError("need at least one row")
    triangular = boundary == "triangular"
    if triangular and start_column < 0:
        raise ValueError("triangular diagrams start at a column >= 0")
    right: dict[int, tuple[int, int]] = {}
    left: dict[int, tuple[int, int]] = {}
    nums, scale = {start_column: 1}, 1
    rows = [{start_column: Fraction(1)}]
    for _ in range(1, num_rows):
        w_right = _weights(rule, "w_right", right, nums)
        w_left = _weights(rule, "w_left", left,
                          [m - 1 for m in nums if m > 0 or not triangular])
        step = math.lcm(*(d for _, d in w_right.values()),
                        *(d for _, d in w_left.values()))
        scale *= step
        mul_right = {m: a * (step // d) for m, (a, d) in w_right.items()}
        mul_left = {m: a * (step // d) for m, (a, d) in w_left.items()}
        # ascending columns: m + 1 is new to `cur`, m - 1 may already hold
        # the right step of the node two columns left
        cur: dict[int, int] = {}
        for m, a in nums.items():
            if m > 0 or not triangular:
                cur[m - 1] = cur.get(m - 1, 0) + mul_left[m - 1] * a
            cur[m + 1] = mul_right[m] * a
        nums = {n: v for n, v in cur.items() if v}
        rows.append({n: Fraction(v, scale) for n, v in nums.items()})
    return CoeffDiagram(rule.name, boundary, start_column, tuple(rows))


def column_series(d: CoeffDiagram, n: int) -> list[tuple[int, Fraction]]:
    """Truncated power series coded by column n: pairs (power r,
    signed exact coefficient (-1)^((r - (n - start))/2) T(r, n) / r!)."""
    out = []
    for r in range(d.num_rows):
        t = d.rows[r].get(n)
        if t is None:
            continue
        sign = -1 if ((r - (n - d.start_column)) // 2) % 2 else 1
        out.append((r, sign * t / math.factorial(r)))
    return out


def row_sums(d: CoeffDiagram, signs: str = "plain") -> list[Fraction]:
    """Per-row node sums, each one exact sum over the lcm of the row's
    denominators.  The alternating variant gives the node at column n the
    sign (-1)^((n - n_min)/2), n_min the row's leftmost occupied column:
    the sign follows the column, so a vanished node between two occupied
    ones still takes its turn."""
    if signs not in ("plain", "alternating"):
        raise ValueError("signs must be 'plain' or 'alternating'")
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


def _integral_j1_over_z(y: float) -> float:
    # int_0^y J_1(2z)/z dz by termwise integration of the series
    total, term = 0.0, y
    j = 0
    while True:
        total += term / (2 * j + 1)
        j += 1
        nxt = term * (-(y * y)) / (j * (j + 1))
        if abs(nxt) < 1e-18 * max(1.0, abs(total)) or j > 200:
            break
        term = nxt
    return total


SUMRULE_NAMES = ("bessel-unity", "bessel-cos", "bessel-sin",
                 "phase-unity", "phase-integral")


def sumrule_check(name: str, y: float, k_max: int) -> float:
    """|lhs - rhs| of the named Bessel sum rule with partial sums to k_max.

    bessel-unity:   J_0(2y) + 2 sum_k J_2k(2y)          = 1
    bessel-cos:     J_0(2y) + 2 sum_k (-1)^k J_2k(2y)   = cos(2y)
    bessel-sin:     2 sum_k (-1)^(k+1) J_{2k-1}(2y)     = sin(2y)
    phase-unity:    (1/y) sum_k (2k+1) J_{2k+1}(2y)     = 1
    phase-integral: (1/y) sum_k 2k J_2k(2y)             = int_0^y J_1(2z)/z dz

    At y = 0 the two phase rules take their limits, left sides 1 and 0.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    x = 2.0 * y
    if name == "bessel-unity":
        lhs = bessel_jn(0, x) + 2.0 * sum(bessel_jn(2 * k, x)
                                          for k in range(1, k_max + 1))
        return abs(lhs - 1.0)
    if name == "bessel-cos":
        lhs = bessel_jn(0, x) + 2.0 * sum((-1.0) ** k * bessel_jn(2 * k, x)
                                          for k in range(1, k_max + 1))
        return abs(lhs - math.cos(x))
    if name == "bessel-sin":
        lhs = 2.0 * sum((-1.0) ** (k + 1) * bessel_jn(2 * k - 1, x)
                        for k in range(1, k_max + 1))
        return abs(lhs - math.sin(x))
    if name == "phase-unity":
        lhs = sum((2 * k + 1) * bessel_jn(2 * k + 1, x)
                  for k in range(0, k_max + 1)) / y if y else 1.0
        return abs(lhs - 1.0)
    if name == "phase-integral":
        lhs = sum(2 * k * bessel_jn(2 * k, x)
                  for k in range(1, k_max + 1)) / y if y else 0.0
        return abs(lhs - _integral_j1_over_z(y))
    raise ValueError(f"unknown sum rule {name!r}; choose from {SUMRULE_NAMES}")


def render_ascii(d: CoeffDiagram) -> str:
    """Node values laid out on their staggered columns, one text row per
    diagram row."""
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


def to_records(d: CoeffDiagram) -> list[dict]:
    """One machine-readable record per node; numerator/denominator as
    strings so arbitrary-size integers survive serialization."""
    recs = []
    for r in range(d.num_rows):
        for n in d.occupied(r):
            v = d.rows[r][n]
            recs.append({"row": r, "column": n,
                         "numerator": str(v.numerator),
                         "denominator": str(v.denominator)})
    return recs
