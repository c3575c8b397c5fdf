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

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import AlgebraSpec
from .gn import _bessel_family


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
    """Exact node table T(r, n), rows 0..num_rows-1, sparse over columns.

    Row r holds integer numerators over one positive scale,
    T(r, n) = numerators[r][n] / scales[r], with every stored numerator
    nonzero.  ``rows`` gives the nodes as normalised Fractions, built on
    its first read.  The text layout, the records and the sums read a row
    of scale 1 straight from its integers; only a row of another scale is
    read through ``rows``, so its nodes are reduced once.
    """

    rule_name: str
    boundary: str
    start_column: int
    numerators: tuple[dict, ...]
    scales: tuple[int, ...]

    @functools.cached_property
    def rows(self) -> tuple[dict, ...]:
        return tuple({n: Fraction(v) for n, v in nums.items()} if s == 1
                     else {n: Fraction(v, s) for n, v in nums.items()}
                     for nums, s in zip(self.numerators, self.scales))

    def value(self, r: int, n: int) -> Fraction:
        if not 0 <= r < len(self.numerators):
            raise IndexError(f"row {r} not generated")
        return Fraction(self.numerators[r].get(n, 0), self.scales[r])

    def occupied(self, r: int) -> list[int]:
        return sorted(self.numerators[r])

    @property
    def num_rows(self) -> int:
        return len(self.numerators)


def _ask(rule: WeightRule, side: str, cache: dict, n: int) -> int:
    """Put the rule's `side` weight at column n into `cache` as a
    (numerator, denominator) pair; return the denominator."""
    w = getattr(rule, side)(n)
    if not isinstance(w, numbers.Rational):
        raise TypeError(f"rule {rule.name!r}: {side}({n}) = {w!r} is "
                        "not an exact rational")
    cache[n] = (w.numerator, w.denominator)
    return w.denominator


def generate(rule: WeightRule, boundary: str, start_column: int,
             num_rows: int) -> CoeffDiagram:
    """Build the diagram row by row from the seed column.

    Rows are computed on integer numerators over one scale per row: each
    row's scale is the previous one times the lcm of the denominators of
    the weights the step uses (1 while every weight asked is an integer).
    No Fraction is built here; ``CoeffDiagram.rows`` builds them when read.
    The rule is asked for each weight once per column, and only on columns
    next to a nonzero node.
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
    numerators, scales = [nums], [scale]
    integral = True    # every weight asked so far is an integer
    for _ in range(1, num_rows):
        for m in nums:
            if m not in right:
                integral &= _ask(rule, "w_right", right, m) == 1
            if m - 1 not in left and (m > 0 or not triangular):
                integral &= _ask(rule, "w_left", left, m - 1) == 1
        step = 1 if integral else math.lcm(
            *(right[m][1] for m in nums),
            *(left[m - 1][1] for m in nums if m > 0 or not triangular))
        scale *= step
        # ascending columns: m + 1 is new to `cur`, m - 1 may already hold
        # the right step of the node two columns left
        cur: dict[int, int] = {}
        for m, a in nums.items():
            if m > 0 or not triangular:
                b, d = left[m - 1]
                cur[m - 1] = cur.get(m - 1, 0) + b * (step // d) * a
            b, d = right[m]
            cur[m + 1] = b * (step // d) * a
        nums = {n: v for n, v in cur.items() if v}
        numerators.append(nums)
        scales.append(scale)
    return CoeffDiagram(rule.name, boundary, start_column, tuple(numerators),
                        tuple(scales))


def column_series(d: CoeffDiagram, n: int) -> list[tuple[int, Fraction]]:
    """Truncated power series coded by column n: pairs (power r,
    signed exact coefficient (-1)^((r - (n - start))/2) T(r, n) / r!)."""
    out = []
    for r, (nums, scale) in enumerate(zip(d.numerators, d.scales)):
        t = nums.get(n)
        if t is None:
            continue
        sign = -1 if ((r - (n - d.start_column)) // 2) % 2 else 1
        out.append((r, Fraction(sign * t, scale * math.factorial(r))))
    return out


def row_sums(d: CoeffDiagram, signs: str = "plain") -> list[Fraction]:
    """Per-row node sums, each one integer sum over the row's scale.  The
    alternating variant gives the node at column n the sign
    (-1)^((n - n_min)/2), n_min the row's leftmost occupied column: the
    sign follows the column, so a vanished node between two occupied ones
    still takes its turn."""
    if signs not in ("plain", "alternating"):
        raise ValueError("signs must be 'plain' or 'alternating'")
    out = []
    for nums, scale in zip(d.numerators, d.scales):
        if signs == "plain" or not nums:
            total = sum(nums.values())
        else:
            n_min = min(nums)
            total = sum(-v if (n - n_min) // 2 % 2 else v
                        for n, v in nums.items())
        out.append(Fraction(total) if scale == 1 else Fraction(total, scale))
    return out


def _integral_j1_over_z(y: float) -> float:
    """int_0^y J_1(2z)/z dz = y sum_j (-y^2)^j / (j! (j+1)! (2j+1)), summed
    in fixed-point ints at 2^-p from y's binary value and rounded once: the
    terms alternate below e^(2|y|), so p takes 53 bits, those of e^(2|y|)
    and 8 guard bits for the floors, which lose under 2 units a term."""
    num, den = y.as_integer_ratio()
    shift = 2 * (den.bit_length() - 1)  # y^2 = num^2 / 2^shift
    y2 = num * num
    p = 61 + math.ceil(2.0 * abs(y) / math.log(2))
    term = total = 1 << p
    j = 0
    while term:
        j += 1
        term = (term * y2 >> shift) // (j * (j + 1))
        total += -(term // (2 * j + 1)) if j % 2 else term // (2 * j + 1)
    return num * total / (den << p)  # correctly rounded int division


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
    Every order comes from one ``_bessel_family`` call, made after the
    arguments are checked.
    """
    if name not in SUMRULE_NAMES:
        raise ValueError(f"unknown sum rule {name!r}; choose from {SUMRULE_NAMES}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    x = 2.0 * y
    j = _bessel_family(2 * k_max + 1, x)
    even, odd = j[2::2], j[1::2]   # J_2 .. J_2k_max, J_1 .. J_{2k_max+1}
    if name == "bessel-unity":
        return abs(j[0] + 2.0 * sum(even) - 1.0)
    if name == "bessel-cos":
        lhs = j[0] + 2.0 * (sum(even[1::2]) - sum(even[::2]))
        return abs(lhs - math.cos(x))
    if name == "bessel-sin":
        lhs = 2.0 * (sum(odd[:k_max:2]) - sum(odd[1:k_max:2]))
        return abs(lhs - math.sin(x))
    if name == "phase-unity":
        lhs = sum(n * j[n] for n in range(1, 2 * k_max + 2, 2)) / y if y else 1.0
        return abs(lhs - 1.0)
    lhs = sum(n * j[n] for n in range(2, 2 * k_max + 1, 2)) / y if y else 0.0
    return abs(lhs - _integral_j1_over_z(y))


def render_ascii(d: CoeffDiagram) -> str:
    """Node values in lowest terms laid out on their staggered columns, one
    text row per diagram row.  A row of scale 1 prints its integers."""
    texts = [{n: str(v) for n, v in (nums if scale == 1 else d.rows[r]).items()}
             for r, (nums, scale) in enumerate(zip(d.numerators, d.scales))]
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
    """One machine-readable record per node, in lowest terms;
    numerator/denominator as strings so arbitrary-size integers survive
    serialization.  A row of scale 1 reads its integers, denominator "1"."""
    out = []
    for r, (nums, scale) in enumerate(zip(d.numerators, d.scales)):
        if scale == 1:
            out += [{"row": r, "column": n, "numerator": str(v),
                     "denominator": "1"} for n, v in sorted(nums.items())]
        else:
            out += [{"row": r, "column": n, "numerator": str(v.numerator),
                     "denominator": str(v.denominator)}
                    for n, v in sorted(d.rows[r].items())]
    return out
