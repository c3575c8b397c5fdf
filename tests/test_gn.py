import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from diagram_references import bar_gn, tilde_gn, variant_recursion_residual
from ladderkit import (AlgebraSpec, ConvergenceError, IndexWindow,
                       NonUnitaryRegime, a_n, bessel_jn, gn_auto,
                       gn_bessel_limit, gn_closed, gn_oracle, gn_series,
                       gn_sho_limit, gnm, hyp2f1_series, oracle_element,
                       padded_window, recursion_residual)
from ladderkit.gn import _bessel_family, _prefactor

SPEC11 = AlgebraSpec.parametric(1, 1, 1)
SPEC12 = AlgebraSpec.parametric(1, 2, 1)


def test_hyp2f1_terminating_exact():
    # (-1, -2; 1; z) = 1 + 2z
    res = hyp2f1_series(-1, -2, 1, 0.7)
    assert res.value == 1 + 2 * 0.7
    assert res.err_estimate == 0.0
    assert res.terms == 2     # 2z, then the 0 that ends the series


def test_hyp2f1_series_against_scipy_region():
    from scipy.special import hyp2f1
    # about 1200 terms at |z| = 0.97
    for z in (-0.97, -0.5, 0.3, 0.9, 0.97):
        got = hyp2f1_series(0.3, 1.7, 2.2, z).value
        assert abs(got - hyp2f1(0.3, 1.7, 2.2, z)) < 1e-12


def test_hyp2f1_rejects_out_of_domain():
    with pytest.raises(ConvergenceError):
        hyp2f1_series(0.3, 1.7, 2.2, -1.5)


@pytest.mark.parametrize("c", [0, -2, -2.0])
def test_hyp2f1_refuses_a_vanishing_denominator(c):
    # c + k = 0 at k = -c, and no numerator factor ends the sum first
    with pytest.raises(ValueError, match=f"c = {c:g}"):
        hyp2f1_series(0.5, 0.5, c, 0.3)
    # a numerator factor that vanishes at the same term is no earlier end
    with pytest.raises(ValueError, match=f"c = {c:g}"):
        hyp2f1_series(c, 0.5, c, 0.3)


def test_hyp2f1_ends_before_a_vanishing_denominator():
    # (-1, 0.5; -2; z) = 1 + z/4: a + 1 = 0 ends the sum at k = 1, before
    # c + k = 0 at k = 2
    for z in (0.3, -3.0):
        assert hyp2f1_series(-1, 0.5, -2, z) == (1 + 0.25 * z, 0.0, 2)


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


def _mp_gn(alpha, beta, n, y):
    """(G_n, the sum of the ordered series' |terms|) for sigma = 1 in
    30-digit mpmath: the closed form, and t_n 2F1(alpha+n, beta+n; n+1;
    sinh(y)^2) with |t_n| = A_n tanh(y)^n cosh(y)^(2n+alpha+beta-1)."""
    with mpmath.workdps(30):
        amp = mpmath.mpf(a_n(AlgebraSpec.parametric(alpha, beta, 1), n))
        y = mpmath.mpf(y)
        sh2 = mpmath.sinh(y) ** 2
        value = (amp * mpmath.tanh(y) ** n * mpmath.sech(y) ** (alpha + beta - 1)
                 * mpmath.hyp2f1(1 - alpha, 1 - beta, 1 + n, -sh2))
        t_n = amp * mpmath.tanh(y) ** n * mpmath.cosh(y) ** (2 * n + alpha + beta - 1)
        return float(value), float(t_n * mpmath.hyp2f1(alpha + n, beta + n, n + 1, sh2))


def test_gn_series_near_the_edge_of_its_domain():
    # |z| = sinh(y)^2 = 0.952 .. 0.982: past the closed form's 0.95 cut the
    # series still returns, after up to a few thousand terms.  The sum
    # alternates, so it loses about eps * sum |terms| to cancellation, and
    # this checks only that: at (2, 3), n = 6, y = 0.875 it returns 142
    # for 0.312 (sum |terms| 1.5e20; ROADMAP item 4)
    for alpha, beta in [(1, 1), (1, 2), (1, 0.5), (2, 3), (1.5, 2.5)]:
        spec = AlgebraSpec.parametric(alpha, beta, 1)
        for y in (0.867, 0.871, 0.875):
            for n in range(7):
                want, abs_sum = _mp_gn(alpha, beta, n, y)
                got = gn_series(spec, n, y).value
                assert abs(got - want) <= 1e-9 + 8 * 2.2e-16 * abs_sum
                if (alpha, beta) == (1.5, 2.5):
                    # the closed form's 2F1 does not terminate here
                    assert gn_auto(spec, n, y).route == "oracle"


@pytest.mark.parametrize("alpha,beta,n,sh2", [
    (-5, -5, 0, 0.9),      # terms of 2F1(6, 6; 1; z) peak at 2.6e11
    (-5, -5, 0, 0.94),
    (-4.5, -4.5, 1, 0.9),
    (0.5, 0.5, 0, 0.94),   # terms fall slowly
])
def test_gn_auto_leaves_long_closed_form_sums_to_the_oracle(alpha, beta, n, sh2):
    # the closed form's 2F1 does not settle within 500 terms here; summed on,
    # it loses up to 0.3 to cancellation and reports an err_estimate of 4e-16
    spec = AlgebraSpec.parametric(alpha, beta, 1)
    y = math.asinh(math.sqrt(sh2))
    with pytest.raises(ConvergenceError, match="500 terms"):
        gn_closed(spec, n, y)
    got = gn_auto(spec, n, y)
    assert got.route == "oracle"
    assert abs(got.value - _mp_gn(alpha, beta, n, y)[0]) < 1e-12


@pytest.mark.parametrize("alpha,beta,sigma,ns", [
    (1, 1, -1, [0]),            # lambda_0^2 = -1
    (1.5, -6.25, -0.5, [0, 1]),  # lambda_j^2 > 0 for j <= 6, lambda_7^2 < 0
])
def test_series_routes_refuse_a_negative_coupling_in_the_tower(alpha, beta,
                                                                sigma, ns):
    spec = AlgebraSpec.parametric(alpha, beta, sigma)
    for n in ns:
        for y in (0.05, 1.0):
            for route in (gn_closed, gn_series, gn_auto):
                with pytest.raises(NonUnitaryRegime):
                    route(spec, n, y)


def test_a_coupling_that_underflows_to_zero_ends_the_tower():
    # on (-8, -6.25, 5e-324) the float lambda_6^2 = 5e-324 * 0.5 is 0, as
    # the window builds read it, so the tower ends there before the
    # negative lambda_7^2
    spec = AlgebraSpec.parametric(-8, -6.25, 5e-324)
    assert gn_closed(spec, 0, 0.5).value == 1.0


@pytest.mark.parametrize("y", [2.5, 3.0])
def test_series_routes_refuse_a_negative_sech_under_a_fractional_power(y):
    # sec(y sqrt(1/2)) < 0 for y past 2.22, where g^(1 - 2n - alpha - beta)
    # = g^3.5 at n = 1 would be complex; the closed form refuses these
    # points too
    spec = AlgebraSpec.parametric(0.5, -5, -0.5)
    with pytest.raises(ConvergenceError, match="non-positive"):
        gn_series(spec, 1, y)
    with pytest.raises(ConvergenceError):
        gn_closed(spec, 1, y)


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


def test_gn_oracle_on_the_spin_singlet():
    # (1, 0, -1/2): lambda_0 = 0 and lambda_1^2 = -1, so the window holds
    # the one state j = 0, where exp(iy(R+L)) is 1
    spec = AlgebraSpec.parametric(1, 0, -0.5)
    assert padded_window(spec, 0, 0, 16) == IndexWindow(0, 0, 0, 0)
    assert gn_oracle(spec, 0, 0.3).value == 1.0


def test_gn_auto_falls_back_to_oracle():
    spec = AlgebraSpec.parametric(2.5, 3.5, 1)   # non-terminating 2F1
    with pytest.raises(ConvergenceError):
        gn_closed(spec, 1, 1.2)                  # |z| = sinh(1.2)^2 > 0.95
    ev = gn_auto(spec, 1, 1.2)
    assert ev.route == "oracle"
    assert gn_auto(spec, 1, 0.3).route == "closed-form"


def test_gn_auto_takes_the_profile_limits():
    sho = AlgebraSpec.from_profile("sho")
    one = AlgebraSpec.from_profile("constant-one")
    assert gn_auto(sho, 3, 0.7) == gn_sho_limit(3, 0.7)
    assert gn_auto(one, 2, 0.5) == gn_bessel_limit(2, 0.5)
    # J_3(18) is past bessel_jn's domain
    assert gn_auto(one, 3, 9.0).route == "oracle"
    with pytest.raises(ValueError):
        gn_auto(AlgebraSpec.from_profile("phase"), 0, 0.5)
    # the 2F1 routes themselves need the parametric couplings
    with pytest.raises(ValueError, match="parametric spec"):
        gn_closed(sho, 3, 0.7)


@pytest.mark.parametrize("route", [gn_closed, gn_series, gn_auto,
                                   recursion_residual])
def test_amplitude_routes_refuse_a_negative_n(route):
    # the 2F1 would be evaluated at c = n + 1 <= 0
    with pytest.raises(ValueError):
        route(SPEC12, -1, 0.3)


def test_recursion_residual_has_no_oracle_fallback():
    # |z| = sinh(1.2)^2 > 0.95: the closed form refuses, and so does the
    # check, where gn_auto would take the oracle
    spec = AlgebraSpec.parametric(2.5, 3.5, 1)
    assert gn_auto(spec, 1, 1.2).route == "oracle"
    with pytest.raises(ConvergenceError):
        recursion_residual(spec, 0, 1.2)


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
# whole documented domain at the sum-rule tolerance; scipy's own accuracy
# at 1e-15 is unverified, so mpmath checks the tight bound below
@given(st.sampled_from([(4.0, 8, 1e-12), (17.0, 40, 1e-10)]).flatmap(
    lambda c: st.tuples(st.integers(0, c[1]), st.floats(-c[0], c[0]),
                        st.just(c[2]))))
@settings(max_examples=120)
def test_bessel_against_scipy(case):
    n, x, tol = case
    assert abs(bessel_jn(n, x) - jv(n, x)) < tol


# J_0 .. J_40 on a grid over bessel_jn's whole domain, x = 0 and +-17 included
_FAMILY_XS = [17 * k / 100 for k in range(-100, 101)]


def test_bessel_family_against_mpmath():
    # one backward recurrence, normalised by the sum of squares, and
    # bessel_jn(+-n, x) read from it: within 1e-15 of 30-digit mpmath; the
    # short families check where the recurrence starts
    with mpmath.workdps(30):
        for x in _FAMILY_XS:
            want = [mpmath.besselj(n, x) for n in range(41)]
            for n_max in (0, 1, 5, 17, 40):
                family = _bessel_family(n_max, x)
                assert len(family) == n_max + 1
                for n, value in enumerate(family):
                    err = abs(mpmath.mpf(value) - want[n])
                    assert err <= 1e-15, (n, n_max, x)
            for n in range(41):
                for order, sign in ((n, 1), (-n, (-1) ** n)):
                    err = abs(mpmath.mpf(bessel_jn(order, x)) - sign * want[n])
                    assert err <= 1e-15, (order, x)
        # the Bessel limit at 2y = 16.62, near the domain's edge
        limit = gn_bessel_limit(0, 8.31).value
        assert abs(mpmath.mpf(limit) - mpmath.besselj(0, 2 * 8.31)) <= 1e-15


def test_bessel_refuses_outside_its_domain():
    # |x| <= 17 on either side; J_3(-17) on the edge is still answered
    for n, x in ((3, 60.0), (0, -17.5)):
        with pytest.raises(ConvergenceError):
            bessel_jn(n, x)
    assert abs(bessel_jn(3, -17.0) - jv(3, -17.0)) < 1e-10


def test_bessel_family_refuses_where_bessel_jn_does():
    assert _bessel_family(3, 0.0) == [1.0, 0.0, 0.0, 0.0]
    for n, x in ((0, 17.5), (40, -17.000001), (3, 60.0)):
        with pytest.raises(ConvergenceError):
            bessel_jn(n, x)
        with pytest.raises(ConvergenceError):
            _bessel_family(n, x)


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
    assert tilde_gn(1.5, 0, 0.0) == 1.0


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


@pytest.mark.parametrize("route", [gn_closed, gn_series])
@pytest.mark.parametrize("n, y", [(5, 1e-76), (7, -1e-76), (6, 5e-76)])
def test_prefactor_in_logs_where_the_product_is_not_finite(route, n, y):
    # at sigma = 1e150, A_n = 1e75n n!/n! overflows and (yf)^n underflows:
    # inf * 0.  Amplitudes depend on sigma only through sigma y^2, so the
    # same amplitude at sigma = 1 is the reference; the log form's
    # err_estimate covers its rounding
    got = route(AlgebraSpec.parametric(1, 1, 1e150), n, y)
    want = route(SPEC11, n, y * 1e75)
    assert abs(got.value - want.value) <= got.err_estimate + want.err_estimate
    assert got.err_estimate <= 1e-10 * abs(want.value)


@pytest.mark.parametrize("n", [0, 3, 8])
def test_amplitudes_past_sigma_1e154_at_c_0(n):
    # exp(iy(R+L)) has c = 0, so q^2 = sigma a b needs no sigma^2 c^2 term,
    # which overflowed to inf * 0 = NaN past sigma ~ 1.3e154 and refused
    # every amplitude there.  Amplitudes depend on sigma only through
    # sigma y^2: bit for bit at n = 0 and 3, within err_estimate at n = 8,
    # where the prefactor takes the log form
    got = gn_closed(AlgebraSpec.parametric(1, 1, 1e200), n, 1e-101)
    want = gn_closed(SPEC11, n, 0.1)
    if n < 8:
        assert got == want
    assert abs(got.value - want.value) <= got.err_estimate + want.err_estimate


def test_a_non_finite_prefactor_or_error_bound_is_refused():
    # found by the contract property (test_contract.py): lambda_0 = 0 beside
    # an overflowing lambda_1^2 made A_2 = 0 * inf = NaN; at sigma = 1e300
    # A_3 = 1e450 overflowed to inf; and at expo = 1 - 2n - alpha - beta =
    # -1e300 the log form's rounding bound is inf, with a value of 1.9e103
    with pytest.raises(OverflowError, match="^A_2 leaves the float range"):
        a_n(AlgebraSpec.parametric(0, 1e300, 1e300), 2)
    with pytest.raises(OverflowError, match="^A_3 leaves the float range"):
        a_n(AlgebraSpec.parametric(1, 1, 1e300), 3)
    spec = AlgebraSpec.parametric(-37, 1e300, -35)
    with pytest.raises(OverflowError, match="leaves the float range$"):
        gn_series(spec, 21, 5.119914713532753e-149)
    # the log form still answers where the product is in range
    got = gn_closed(AlgebraSpec.parametric(1, 1, 1e300), 3, 1e-151)
    want = gn_closed(SPEC11, 3, 0.1)
    assert 0 < abs(got.value - want.value) <= got.err_estimate


def test_prefactor_refuses_a_log_sum_out_of_range():
    # the direct product is inf * 0 (NaN) or inf, and so is its log sum's
    # value: a typed refusal, not a NaN
    spec = AlgebraSpec.parametric(1, 1, 1e150)
    assert _prefactor(spec, 5, 1e-76, 1.0, 1.0)[0] > 0
    with pytest.raises(OverflowError, match="leaves the float range"):
        _prefactor(spec, 5, 0.0, 1.0, 1.0)
    with pytest.raises(OverflowError, match="leaves the float range"):
        _prefactor(spec, 5, 1e-10, 1.0, 1.0)
    # a finite product is the direct one, with no rounding term
    assert _prefactor(SPEC12, 3, 0.25, 0.5, 3.5) == (
        a_n(SPEC12, 3) * 0.25 ** 3 * 0.5 ** 3.5, 0.0)
