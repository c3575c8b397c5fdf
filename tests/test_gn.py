import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from ladderkit import (AlgebraSpec, ConvergenceError, IndexWindow, a_n,
                       bar_gn, bessel_jn, gn_auto, gn_bessel_limit,
                       gn_closed, gn_oracle, gn_series, gn_sho_limit, gnm,
                       hyp2f1_series, oracle_element, padded_window,
                       recursion_residual, tilde_bar_variants, tilde_gn,
                       variant_recursion_residual)

SPEC11 = AlgebraSpec.parametric(1, 1, 1)
SPEC12 = AlgebraSpec.parametric(1, 2, 1)


def test_hyp2f1_terminating_exact():
    # (-1, -2; 1; z) = 1 + 2z
    res = hyp2f1_series(-1, -2, 1, 0.7)
    assert res.value == 1 + 2 * 0.7
    assert res.err_estimate == 0.0
    assert res.terminated


def test_hyp2f1_series_against_scipy_region():
    from scipy.special import hyp2f1
    for z in (-0.5, 0.3, 0.9):
        got = hyp2f1_series(0.3, 1.7, 2.2, z).value
        assert abs(got - hyp2f1(0.3, 1.7, 2.2, z)) < 1e-12


def test_hyp2f1_rejects_out_of_domain():
    with pytest.raises(ConvergenceError):
        hyp2f1_series(0.3, 1.7, 2.2, -1.5)


def test_a_n_values():
    assert a_n(SPEC11, 0) == 1.0
    assert abs(a_n(SPEC12, 1) - math.sqrt(2)) < 1e-15
    # lambda_j = j + 1: (1/3!) * 1 * 2 * 3 = 1
    assert abs(a_n(SPEC11, 3) - 1.0) < 1e-15


def test_gn_closed_reference_forms():
    y = 0.3
    assert abs(gn_closed(SPEC11, 0, y).value - 1 / math.cosh(y)) < 1e-15
    got = gn_closed(SPEC12, 2, y).value
    want = math.sqrt(3) / math.cosh(y) ** 2 * math.tanh(y) ** 2
    assert abs(got - want) < 1e-15


def test_gn_closed_at_zero():
    assert gn_closed(SPEC11, 0, 0.0).value == 1.0
    for n in range(1, 5):
        assert gn_closed(SPEC11, n, 0.0).value == 0.0


def test_gn_series_matches_closed():
    for n in range(5):
        for y in (0.1, 0.3, 0.5):
            a = gn_closed(SPEC11, n, y).value
            b = gn_series(SPEC11, n, y).value
            assert abs(a - b) < 1e-10


def test_gn_series_single_term():
    assert gn_series(SPEC11, 0, 0.0).value == 1.0
    # every term vanishes off the vacuum at y = 0
    assert gn_series(SPEC11, 3, 0.0).value == 0.0


@pytest.mark.parametrize("alpha,beta", [(1, 1), (1, 2), (1, 0.5), (2, 3)])
def test_gn_series_matches_closed_where_terms_fall_slowly(alpha, beta):
    # the term ratio tends to -sinh(y)^2, about -0.68 here: the sum needs
    # well over a hundred terms
    spec = AlgebraSpec.parametric(alpha, beta, 1)
    for y in (0.742, 0.7475, 0.753):
        for n in range(7):
            a = gn_closed(spec, n, y).value
            b = gn_series(spec, n, y).value
            assert abs(a - b) <= 1e-9


def test_gn_series_refuses_where_terms_do_not_fall():
    # ratio -> -sinh(1)^2 = -1.38
    with pytest.raises(ConvergenceError):
        gn_series(SPEC11, 0, 1.0)
    # |z| < 1, but the terms overflow before they peak
    with pytest.raises(ConvergenceError):
        gn_series(AlgebraSpec.parametric(1000, 1000, 1), 0, 0.3)


def test_gn_routes_match_oracle_phase():
    spec = SPEC12
    for y in (0.4, 0.8):
        window = padded_window(spec, 0, 6, 60)
        for n in range(5):
            closed = gn_closed(spec, n, y).value
            elt = oracle_element(spec, window, (1j * y, 1j * y, 0.0), n, 0)
            assert abs(elt - (1j) ** n * closed) < 1e-11
            orc = gn_oracle(spec, n, y)
            assert abs(orc.value - closed) < 1e-11


def test_gn_oracle_block_alignment():
    # couplings for (2, 3) keep the j = -1 state attached to the vacuum;
    # the oracle window must include it
    spec = AlgebraSpec.parametric(2, 3, 1)
    y = 0.4
    got = gn_oracle(spec, 0, y)
    sh2 = math.sinh(y) ** 2
    want = math.cosh(y) ** -4 * (1 - 2 * sh2)
    assert abs(got.value - want) < 1e-11


def test_gn_auto_falls_back_to_oracle():
    spec = AlgebraSpec.parametric(2.5, 3.5, 1)   # non-terminating 2F1
    with pytest.raises(ConvergenceError):
        gn_closed(spec, 1, 1.2)                  # |z| = sinh(1.2)^2 > 0.95
    ev = gn_auto(spec, 1, 1.2)
    assert ev.route == "oracle"
    assert gn_auto(spec, 1, 0.3).route == "closed-form"


def test_gn_sho_values():
    assert abs(gn_sho_limit(0, 1.0).value - math.exp(-0.5)) < 1e-15
    want = (0.25 / math.sqrt(2)) * math.exp(-0.125)
    assert abs(gn_sho_limit(2, 0.5).value - want) < 1e-15


def test_gn_sho_matches_profile_oracle():
    spec = AlgebraSpec.from_profile("sho")
    window = IndexWindow(0, 40, 0, 8)
    for n in range(5):
        elt = oracle_element(spec, window, (0.7j, 0.7j, 0.0), n, 0)
        assert abs(elt - (1j) ** n * gn_sho_limit(n, 0.7).value) < 1e-9


def test_bessel_reference_values():
    assert bessel_jn(0, 0.0) == 1.0
    assert bessel_jn(3, 0.0) == 0.0
    assert bessel_jn(-3, 1.3) == -bessel_jn(3, 1.3)
    assert bessel_jn(-2, 1.3) == bessel_jn(2, 1.3)


# (|x| bound, largest n, tolerance): the small-argument range, and the
# whole documented domain at the sum-rule tolerance
@given(st.sampled_from([(4.0, 8, 1e-12), (17.0, 40, 1e-10)]).flatmap(
    lambda c: st.tuples(st.integers(0, c[1]), st.floats(-c[0], c[0]),
                        st.just(c[2]))))
@settings(max_examples=120)
def test_bessel_against_scipy(case):
    n, x, tol = case
    assert abs(bessel_jn(n, x) - jv(n, x)) < tol


def test_bessel_leading_series():
    # J_0(2y) = 1 - 2 y^2/2! + 6 y^4/4! - 20 y^6/6! + ...
    y = 0.05
    poly = 1 - 2 * y**2 / 2 + 6 * y**4 / 24 - 20 * y**6 / 720
    assert abs(bessel_jn(0, 2 * y) - poly) < y**8


def test_gn_bessel_limit_matches_profile_oracle():
    spec = AlgebraSpec.from_profile("constant-one")
    window = IndexWindow(-40, 40, -10, 10)
    for n in range(5):
        elt = oracle_element(spec, window, (0.5j, 0.5j, 0.0), n, 0)
        want = (1j) ** n * gn_bessel_limit(n, 0.5).value
        assert abs(elt - want) < 1e-12


@pytest.mark.parametrize("spec,n,y", [
    (SPEC11, 0, 0.4), (SPEC11, 3, 0.7), (SPEC12, 2, 0.5),
    (AlgebraSpec.from_profile("constant-one"), 1, 0.6),
    (AlgebraSpec.from_profile("sho"), 2, 0.9),
])
def test_recursion_residual(spec, n, y):
    assert recursion_residual(spec, n, y) <= 1e-8


def test_tilde_bar_values():
    y = 0.6
    assert abs(tilde_gn(1, 1, y) - math.tanh(y) / math.cosh(y)) < 1e-15
    assert abs(bar_gn(2, 1, y) - 2 * math.tanh(y) / math.cosh(y) ** 2) < 1e-15
    assert tilde_gn(2.0, 0, 0.0) == 1.0
    assert tilde_bar_variants(1.5, 0, 0.0, "tilde") == 1.0


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("which", ["tilde", "bar"])
def test_variant_recursions(p, which):
    for n in range(4):
        assert variant_recursion_residual(p, n, 0.5, which) <= 1e-8


def test_gnm_shift_mapping():
    y = 0.3
    assert gnm(SPEC11, 2, 0, y).value == gn_closed(SPEC11, 2, y).value
    got = gnm(SPEC11, 3, 1, y).value
    want = gn_closed(AlgebraSpec.parametric(2, 2, 1), 2, y).value
    assert got == want


def test_gnm_vs_phased_oracle():
    spec = SPEC12
    window = padded_window(spec, 0, 7, 44)
    y = 0.5
    for n in range(7):
        for m in range(0, min(n, 3) + 1):
            elt = oracle_element(spec, window, (1j * y, 1j * y, 0.0), n, m)
            got = gnm(spec, n, m, y).value
            assert abs(elt - (1j) ** (n - m) * got) < 1e-10


def test_gnm_rejects_n_below_m():
    with pytest.raises(ValueError):
        gnm(SPEC11, 1, 2, 0.3)


def test_gnm_transpose_symmetry_diagnostic():
    # exp(iy(R+L)) is symmetric, so the n < m elements carry no new data:
    # <m|U|n> = <n|U|m> numerically
    spec = SPEC12
    window = padded_window(spec, 0, 6, 40)
    y = 0.45
    for n, m in [(3, 1), (4, 2), (5, 0)]:
        a = oracle_element(spec, window, (1j * y, 1j * y, 0.0), n, m)
        b = oracle_element(spec, window, (1j * y, 1j * y, 0.0), m, n)
        assert abs(a - b) < 1e-12


@given(st.floats(0.5, 4), st.floats(0.5, 4), st.floats(0.05, 0.6))
@settings(max_examples=40)
def test_alpha_beta_symmetry(alpha, beta, y):
    a = gn_closed(AlgebraSpec.parametric(alpha, beta, 1), 2, y).value
    b = gn_closed(AlgebraSpec.parametric(beta, alpha, 1), 2, y).value
    assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_normalization_on_decoupled_block():
    # unitarity: the amplitudes out of the vacuum have unit square sum
    total = sum(gn_closed(SPEC11, n, 0.5).value ** 2 for n in range(40))
    assert abs(total - 1.0) < 1e-13


def test_gn_series_terminates_on_finite_block():
    spec = AlgebraSpec.parametric(7, -8, -0.5)
    for n in range(4):
        a = gn_series(spec, n, 0.9)
        b = gn_closed(spec, n, 0.9)
        assert a.err_estimate == 0.0          # coupling zero ends the sum
        assert abs(a.value - b.value) < 1e-12
