import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagram_references import (bar_gn, reference_column_series,
                                 reference_render_ascii, reference_row_sums,
                                 reference_to_records, series_match, tilde_gn)
from exact_series import bessel2y_series, gaussian_series, sech_tanh_series
from ladderkit import (AlgebraSpec, bar_rule, bessel_jn, column_series,
                       gauss_bar_rule, gauss_tilde_rule, generate,
                       lambda_rule, lambda_symmetric_rule, render_ascii,
                       row_sums, sumrule_check, tilde_rule, to_records,
                       unit_rule)
from ladderkit import triangles
from ladderkit.triangles import SUMRULE_NAMES, WeightRule


def col_ints(d, n):
    return [int(c) for _, c in [(r, d.value(r, n)) for r in range(d.num_rows)]
            if c != 0]


def column_values(d, n):
    return [int(d.value(r, n)) for r in range(d.num_rows)
            if d.value(r, n) != 0]


def test_secant_number_column():
    d = generate(lambda_symmetric_rule(AlgebraSpec.parametric(1, 1, 1)),
                 "triangular", 0, 7)
    assert column_values(d, 0) == [1, 1, 5, 61]


def test_tangent_triangle_columns():
    d = generate(tilde_rule(2), "triangular", 0, 7)
    assert column_values(d, 0) == [1, 2, 16, 272]
    assert column_values(d, 1) == [1, 8, 136]
    assert column_values(d, 2)[:2] == [2, 40]


def test_bar_triangle_columns():
    d = generate(bar_rule(2), "triangular", 0, 8)
    assert column_values(d, 0) == [1, 2, 16, 272]
    assert column_values(d, 1) == [2, 16, 272, 7936]
    # interior nodes as printed in the reference layout
    assert d.value(2, 2) == 6
    assert d.value(3, 3) == 24
    assert d.value(4, 2) == 120


def test_gaussian_columns():
    d = generate(gauss_tilde_rule(), "triangular", 0, 8)
    assert column_values(d, 0) == [1, 1, 3, 15]
    d = generate(gauss_bar_rule(), "triangular", 0, 8)
    assert column_values(d, 0) == [1, 1, 3, 15]
    assert d.value(4, 2) == 12
    assert d.value(3, 3) == 6


def test_unit_diamond_is_pascal():
    d = generate(unit_rule(), "diamond", 0, 7)
    assert [d.value(4, n) for n in (-4, -2, 0, 2, 4)] == [1, 4, 6, 4, 1]
    assert [d.value(5, n) for n in (-1, 1)] == [10, 10]
    assert d.value(6, 0) == 20
    assert d.value(3, -3) == 1 and d.value(3, 3) == 1


def test_column_series_signs_and_factorials():
    d = generate(lambda_symmetric_rule(AlgebraSpec.parametric(1, 1, 1)),
                 "triangular", 0, 8)
    series = dict(column_series(d, 0))
    assert series[0] == 1
    assert series[2] == Fraction(-1, 2)
    assert series[4] == Fraction(5, 24)
    assert series[6] == Fraction(-61, 720)


@pytest.mark.parametrize("p,col", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
def test_columns_equal_exact_taylor_coefficients(p, col):
    d = generate(tilde_rule(p), "triangular", 0, 12)
    want = sech_tanh_series(p, col, 12)
    got = [Fraction(0)] * 12
    for r, c in column_series(d, col):
        got[r] = c
    assert got == want


@pytest.mark.parametrize("col", [0, 1, 2, 3])
def test_gaussian_columns_equal_exact_taylor(col):
    d = generate(gauss_tilde_rule(), "triangular", 0, 12)
    want = gaussian_series(col, 12)
    denom = Fraction(1, math.factorial(col))   # tilde scaling: y^n/n! e^{-y^2/2}
    got = [Fraction(0)] * 12
    for r, c in column_series(d, col):
        got[r] = c
    assert got == [w * denom for w in want]


@pytest.mark.parametrize("col", [-3, -1, 0, 2, 4])
def test_diamond_columns_are_bessel_series(col):
    d = generate(unit_rule(), "diamond", 0, 13)
    got = dict(column_series(d, col))
    want = bessel2y_series(abs(col), 13)
    sign = -1 if (col < 0 and col % 2 == 1) else 1
    for r, c in got.items():
        assert c == sign * want[r]


def test_parity_invariant():
    for d in (generate(tilde_rule(3), "triangular", 0, 10),
              generate(unit_rule(), "diamond", 2, 9)):
        for r in range(d.num_rows):
            for n in d.occupied(r):
                assert (r - (n - d.start_column)) % 2 == 0


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2))
@settings(max_examples=25)
def test_recursion_invariant_random_rules(pr, pl, start):
    rule = tilde_rule(Fraction(pr, pl))
    d = generate(rule, "triangular", start, 9)
    for r in range(1, d.num_rows):
        for n in d.occupied(r):
            want = Fraction(0)
            if n - 1 >= 0:
                want += rule.w_right(n - 1) * d.value(r - 1, n - 1)
            want += rule.w_left(n) * d.value(r - 1, n + 1)
            assert d.value(r, n) == want


def test_row_sums_diamond():
    d = generate(unit_rule(), "diamond", 0, 8)
    assert row_sums(d, "plain") == [Fraction(2) ** r for r in range(8)]
    alt = row_sums(d, "alternating")
    assert alt[0] == 1
    assert all(v == 0 for v in alt[1:])
    with pytest.raises(ValueError, match="signs must be"):
        row_sums(d, "both")


def test_row_sums_border_triangle():
    # alternating sums of the unit border triangle: even rows vanish past
    # the seed (the unity sum rule), odd rows give the path-count numerators
    d = generate(unit_rule(), "triangular", 0, 10)
    alt = row_sums(d, "alternating")
    assert [int(v) for v in alt] == [1, 1, 0, 1, 0, 2, 0, 5, 0, 14]


def test_alternating_row_sum_sign_follows_the_column():
    # tilde(-6) row 11 occupies columns 1, 3, 5, 7, 11: the node at column
    # 9 cancels.  The sign is (-1)^((n - n_min)/2) by column, so column 11
    # takes +; a sign by position among the occupied sites would give it -
    # and the sum -4740352.
    d = generate(tilde_rule(-6), "triangular", 0, 12)
    assert d.occupied(11) == [1, 3, 5, 7, 11]
    assert row_sums(d, "alternating")[11] == -84573952


def reference_rows(rule, boundary, start, num_rows):
    """The recursion node by node in Fraction arithmetic."""
    rows = [{start: Fraction(1)}]
    for _ in range(1, num_rows):
        prev = rows[-1]
        cur = {}
        for n in sorted({m + s for m in prev for s in (-1, 1)}):
            if boundary == "triangular" and n < 0:
                continue
            v = Fraction(0)
            if n - 1 in prev:
                v += rule.w_right(n - 1) * prev[n - 1]
            if n + 1 in prev:
                v += rule.w_left(n) * prev[n + 1]
            if v:
                cur[n] = v
        rows.append(cur)
    return tuple(rows)


def _rule_cases():
    ratios = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    # lambda_symmetric_rule reads alpha and beta as floats: keep them exact
    dyadic = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4]))
    return st.one_of(
        ratios.map(tilde_rule), ratios.map(bar_rule),
        st.sampled_from([unit_rule(), gauss_tilde_rule(), gauss_bar_rule()]),
        dyadic.map(lambda p: lambda_symmetric_rule(
            AlgebraSpec.parametric(float(p), float(p), 1))),
        ratios.map(lambda p: lambda_rule(p, p, 1)))


@st.composite
def _diagram_cases(draw):
    rule = draw(_rule_cases())
    boundary = draw(st.sampled_from(["triangular", "diamond"]))
    start = draw(st.integers(0, 3) if boundary == "triangular"
                 else st.integers(-3, 3))
    return rule, boundary, start, draw(st.integers(1, 40))


@given(_diagram_cases())
@settings(max_examples=80, deadline=None)
def test_generate_and_row_sums_match_the_fraction_recursion(case):
    rule, boundary, start, num_rows = case
    d = generate(rule, boundary, start, num_rows)
    assert d.rows == reference_rows(rule, boundary, start, num_rows)
    assert all(type(v) is Fraction for row in d.rows for v in row.values())
    assert row_sums(d, "plain") == [sum(row.values(), Fraction(0))
                                    for row in d.rows]
    assert row_sums(d, "alternating") == [
        sum(((-1) ** ((n - min(row)) // 2) * v for n, v in row.items()),
            Fraction(0)) for row in d.rows]


def recording(rule):
    asked = []
    return asked, WeightRule(
        rule.name,
        lambda n: asked.append(("right", n)) or rule.w_right(n),
        lambda n: asked.append(("left", n)) or rule.w_left(n))


@pytest.mark.parametrize("rule,boundary,start,num_rows,right,left", [
    # the border stops the left links at column 0, and the last row asks
    # for nothing
    (tilde_rule(-6), "triangular", 0, 12, range(0, 11), range(0, 10)),
    # w_right(2) = 0 and w_left(-1) = 0 fence the diamond in to columns
    # 0..2: no link beyond them is asked for
    (bar_rule(-2), "diamond", 1, 7, range(0, 3), range(-1, 2)),
])
def test_rule_is_asked_once_per_column(rule, boundary, start, num_rows,
                                       right, left):
    asked, recorder = recording(rule)
    generate(recorder, boundary, start, num_rows)
    assert len(asked) == len(set(asked))
    assert sorted(asked) == sorted([("right", n) for n in right]
                                   + [("left", n) for n in left])


@pytest.mark.parametrize("boundary,start,num_rows,match", [
    ("hexagonal", 0, 3, "boundary must be"),
    ("triangular", 0, 0, "at least one row"),
    ("triangular", -1, 3, "column >= 0"),
])
def test_generate_refuses_bad_arguments(boundary, start, num_rows, match):
    with pytest.raises(ValueError, match=match):
        generate(unit_rule(), boundary, start, num_rows)


def test_non_rational_weights_are_rejected():
    rule = WeightRule("halves", lambda n: 1.5, lambda n: Fraction(1))
    with pytest.raises(TypeError, match=r"'halves'.*w_right\(0\)"):
        generate(rule, "triangular", 0, 3)


def zigzag_numbers(count):
    """Euler zigzag numbers E(n, n) from the Seidel-Entringer recursion
    E(n, k) = E(n, k-1) + E(n-1, n-k), E(n, 0) = 0 for n > 0."""
    prev, out = [1], [1]
    for n in range(1, count):
        row = [0]
        for k in range(1, n + 1):
            row.append(row[k - 1] + prev[n - k])
        prev = row
        out.append(row[n])
    return out


def test_unit_diamond_at_120_rows_is_binomial():
    d = generate(unit_rule(), "diamond", 0, 120)
    for r, row in enumerate(d.rows):
        assert row == {n: math.comb(r, (r + n) // 2) for n in range(-r, r + 1, 2)}


def test_column_zero_at_60_rows_is_secant_and_tangent():
    zigzag = zigzag_numbers(60)
    assert zigzag[:8] == [1, 1, 1, 2, 5, 16, 61, 272]
    assert column_values(generate(tilde_rule(1), "triangular", 0, 60), 0) \
        == zigzag[0::2]
    assert column_values(generate(tilde_rule(2), "triangular", 0, 60), 0) \
        == zigzag[1::2]


def test_bar_three_halves_at_60_rows_matches_the_recursion():
    rule = bar_rule(Fraction(3, 2))
    d = generate(rule, "triangular", 0, 60)
    assert d.rows == reference_rows(rule, "triangular", 0, 60)
    assert d.value(59, 59) == math.prod(n + Fraction(3, 2) for n in range(59))
    with pytest.raises(IndexError, match="row 60 not generated"):
        d.value(60, 0)


def test_series_match_reference_functions():
    ys = [i / 20 for i in range(-6, 7)]
    d = generate(tilde_rule(1), "triangular", 0, 14)
    dev = series_match(d, 1, lambda y: math.tanh(y) / math.cosh(y), ys)
    assert dev <= 1e-9
    d = generate(unit_rule(), "triangular", 0, 14)
    for n in (0, 1, 2):
        dev = series_match(
            d, n, lambda y, n=n: (n + 1) * bessel_jn(n + 1, 2 * y) / y if y else (1.0 if n == 0 else 0.0),
            ys)
        assert dev <= 1e-9


def test_series_match_at_zero():
    d = generate(tilde_rule(2), "triangular", 0, 8)
    assert series_match(d, 0, lambda y: 1.0, [0.0]) == 0.0
    assert series_match(d, 1, lambda y: 0.0, [0.0]) == 0.0


def test_lambda_symmetric_requires_rational_roots():
    with pytest.raises(ValueError):
        lambda_symmetric_rule(AlgebraSpec.parametric(1, 2, 1))  # lambda_0 = sqrt(2)
    with pytest.raises(ValueError):
        lambda_symmetric_rule(AlgebraSpec.from_profile("sho"))
    rule = lambda_symmetric_rule(AlgebraSpec.parametric(1, 1, 1))
    assert rule.w_right(3) == 4
    # exact parameters stay exact; a float 1/3 is the nearest double
    third = Fraction(1, 3)
    assert lambda_rule(third, third, 1).w_left(0) == third
    assert lambda_rule(1 / 3, 1 / 3, 1).w_left(0) == Fraction(1 / 3)
    with pytest.raises(ValueError, match="negative coupling squared"):
        lambda_rule(1, 1, -1)


def test_diamond_triangle_decoupling():
    # lambda_{-1} = 0: the right half of the diamond never feels the left
    spec = AlgebraSpec.parametric(1, 1, 1)
    dia = generate(lambda_symmetric_rule(spec), "diamond", 0, 10)
    tri = generate(lambda_symmetric_rule(spec), "triangular", 0, 10)
    for r in range(10):
        for n in range(0, r + 1):
            assert dia.value(r, n) == tri.value(r, n)


def test_path_count_columns():
    # unit weights on a triangle count border-respecting lattice paths
    for m, rows, want in [(0, 10, [1, 1, 2, 5, 14]), (1, 9, [1, 2, 5, 14]),
                          (2, 10, [1, 3, 9, 28])]:
        d = generate(unit_rule(), "triangular", m, rows)
        assert column_values(d, 0) == want


def test_path_count_interior_values():
    d1 = generate(unit_rule(), "triangular", 1, 8)
    assert d1.value(3, 2) == 3
    assert d1.value(4, 3) == 4
    assert d1.value(5, 2) == 9
    assert d1.value(6, 1) == 14
    d2 = generate(unit_rule(), "triangular", 2, 9)
    assert d2.value(4, 2) == 6
    assert d2.value(5, 3) == 10
    assert d2.value(6, 2) == 19
    assert d2.value(7, 1) == 28


@pytest.mark.parametrize("name,y", [
    ("bessel-unity", 0.8), ("bessel-cos", 0.8), ("bessel-sin", 0.8),
    ("phase-unity", 0.6), ("phase-integral", 0.6),
] + [(name, 0.0) for name in SUMRULE_NAMES])
def test_sumrules(name, y):
    assert sumrule_check(name, y, 12) <= 1e-12


@pytest.mark.parametrize("name,k_max,match", [
    ("bessel-unity", 0, "k_max must be"),
    ("bessel-tan", 12, "unknown sum rule"),
])
def test_sumrule_check_refuses_bad_arguments(name, k_max, match):
    with pytest.raises(ValueError, match=match):
        sumrule_check(name, 0.5, k_max)


def _spy_family(monkeypatch, perturb=None):
    """Count triangles' Bessel family calls; ``perturb`` maps the family."""
    calls = []
    real = triangles._bessel_family

    def spy(n_max, x):
        calls.append((n_max, x))
        family = real(n_max, x)
        return perturb(family) if perturb else family

    monkeypatch.setattr(triangles, "_bessel_family", spy)
    return calls


def test_sumrule_check_reads_every_order_from_one_family_call(monkeypatch):
    calls = _spy_family(monkeypatch)
    for name in SUMRULE_NAMES:
        sumrule_check(name, 0.7, 12)
        assert calls == [(25, 1.4)]
        calls.clear()
    for name, k_max in (("bessel-tan", 12), ("bessel-unity", 0)):
        with pytest.raises(ValueError):
            sumrule_check(name, 0.7, k_max)
    assert calls == []


def test_sumrule_check_keeps_its_teeth(monkeypatch):
    # bessel-unity sums the family's own values: one even order off by 1e-9
    # shows in it
    def perturb(family):
        family[4] += 1e-9
        return family

    assert sumrule_check("bessel-unity", 0.7, 12) <= 1e-12
    _spy_family(monkeypatch, perturb)
    assert sumrule_check("bessel-unity", 0.7, 12) > 1e-10


@pytest.mark.parametrize("name", SUMRULE_NAMES)
def test_sumrules_at_the_edge_of_the_bessel_domain(name):
    # x = 2y = 17; the alternating series read 1.3e-11 to 6.1e-11 here
    assert sumrule_check(name, 8.5, 40) <= 1e-11


def test_render_and_records():
    d = generate(unit_rule(), "triangular", 1, 5)
    text = render_ascii(d)
    assert "n=0" in text.splitlines()[0]
    recs = to_records(d)
    assert {"row": 0, "column": 1, "numerator": "1", "denominator": "1"} in recs
    assert all(isinstance(r["numerator"], str) for r in recs)


def test_series_match_every_preset():
    ys = [i / 20 for i in range(-6, 7) if i]
    rows = 18   # the tangent-family coefficients grow fastest; 18 rows
    cases = [   # put every listed preset inside 1e-9 on |y| <= 0.3
        (generate(tilde_rule(1), "triangular", 0, rows), 1,
         lambda y: tilde_gn(1, 1, y)),
        (generate(tilde_rule(2), "triangular", 0, rows), 2,
         lambda y: tilde_gn(2, 2, y)),
        (generate(bar_rule(2), "triangular", 0, rows), 1,
         lambda y: bar_gn(2, 1, y)),
        (generate(gauss_tilde_rule(), "triangular", 0, rows), 2,
         lambda y: y ** 2 / 2 * math.exp(-y * y / 2)),
        (generate(gauss_bar_rule(), "triangular", 0, rows), 2,
         lambda y: y ** 2 * math.exp(-y * y / 2)),
        (generate(unit_rule(), "diamond", 0, rows), 2,
         lambda y: bessel_jn(2, 2 * y)),
        (generate(unit_rule(), "triangular", 0, rows), 1,
         lambda y: 2 * bessel_jn(2, 2 * y) / y),
        (generate(lambda_symmetric_rule(AlgebraSpec.parametric(1, 1, 1)),
                  "triangular", 0, rows), 3,
         lambda y: math.tanh(y) ** 3 / math.cosh(y)),
    ]
    for d, col, target in cases:
        assert series_match(d, col, target, ys) <= 1e-9


_CONSUMER_RULES = ([make(p) for make in (tilde_rule, bar_rule)
                    for p in (-6, Fraction(-1, 2), Fraction(1, 3),
                              Fraction(3, 2), 2)]
                   + [gauss_tilde_rule(), gauss_bar_rule(), unit_rule(),
                      lambda_rule(Fraction(1, 2), Fraction(1, 2), 4)])


@given(st.sampled_from(_CONSUMER_RULES),
       st.sampled_from(["triangular", "diamond"]), st.integers(0, 3),
       st.integers(1, 40))
# bar(3/2): every row after the first has a scale above 1
@example(bar_rule(Fraction(3, 2)), "triangular", 1, 40)
@example(bar_rule(Fraction(3, 2)), "diamond", 0, 40)
@settings(max_examples=120, deadline=None)
def test_integer_consumers_match_the_fraction_references(rule, boundary,
                                                         start, num_rows):
    d = generate(rule, boundary, start, num_rows)
    series = {n: column_series(d, n) for n in range(-2, 6)}
    sums = {signs: row_sums(d, signs) for signs in ("plain", "alternating")}
    text, records = render_ascii(d), to_records(d)
    # the Fraction view is built only for a row whose scale is not 1
    assert ("rows" in vars(d)) == any(s != 1 for s in d.scales)
    for n, got in series.items():
        assert got == reference_column_series(d, n)
    for signs, got in sums.items():
        assert got == reference_row_sums(d, signs)
    assert text == reference_render_ascii(d)
    assert records == reference_to_records(d)


@pytest.mark.parametrize("rule", [unit_rule(), tilde_rule(2),
                                  gauss_tilde_rule()], ids=lambda r: r.name)
@pytest.mark.parametrize("boundary", ["triangular", "diamond"])
def test_integral_diagrams_build_no_fraction_view(rule, boundary):
    d = generate(rule, boundary, 1, 30)
    assert set(d.scales) == {1}
    column_series(d, 1)
    row_sums(d, "plain")
    row_sums(d, "alternating")
    render_ascii(d)
    to_records(d)
    assert "rows" not in vars(d)


def test_rows_are_built_on_first_read():
    d = generate(bar_rule(Fraction(3, 2)), "diamond", 1, 20)
    assert "rows" not in vars(d)
    assert d.rows is d.rows
    assert all(type(v) is Fraction for row in d.rows for v in row.values())
    assert sum(map(len, d.rows)) == sum(map(len, d.numerators))
    assert len(d.scales) == d.num_rows == 20


def test_a_zero_weight_empties_every_later_row():
    # bar(0): w_right(0) = 0, and the border stops the left link at column 0
    d = generate(bar_rule(0), "triangular", 0, 5)
    assert d.rows == ({0: 1}, {}, {}, {}, {})
    for signs in ("plain", "alternating"):
        assert row_sums(d, signs) == [1, 0, 0, 0, 0]
    assert to_records(d) == [{"row": 0, "column": 0, "numerator": "1",
                              "denominator": "1"}]
    assert render_ascii(d) == reference_render_ascii(d) == "n=0\n 1\n\n\n\n"
