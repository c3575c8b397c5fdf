import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ladderkit import (AlgebraSpec, ConvergenceError, IndexWindow,
                       NonUnitaryRegime, PoleError, antinormal_core,
                       antinormal_reach, build_matrices, expm,
                       factorization_residual, gn_closed, gn_series,
                       lambda_sq, operator_matrix, ordered_product,
                       padded_window, reduces_to_u1, suggested_pad,
                       u2_factors)
from ladderkit import algebra, factorization
from ladderkit.algebra import squared_couplings
from ladderkit.factorization import _raising_exp

SPEC111 = AlgebraSpec.parametric(1, 1, 1)


def _u1_factors(spec, y):
    """(f, g) of exp(iy(R+L)): u2_factors at (iy, iy, 0), where f+- and
    g+- coincide and are real."""
    fac = u2_factors(spec, 1j * y, 1j * y, 0.0)
    assert fac.f_plus == fac.f_minus and fac.g_plus == fac.g_minus
    assert fac.f_plus.imag == 0.0 and fac.g_plus.imag == 0.0
    return fac.f_plus.real, fac.g_plus.real


def _tau_kappa(x):
    """(tau, kappa) = (tan(sqrt(x))/sqrt(x), sec(sqrt(x))), continued to
    tanh/sech for x < 0: the u1 factors (f, g) at x = q^2 = -sigma y^2."""
    return _u1_factors(AlgebraSpec.parametric(1, 1, -1.0 if x >= 0 else 1.0),
                       math.sqrt(abs(x)))


def test_tau_basic_values():
    assert _tau_kappa(0.0)[0] == 1.0
    t = 0.7
    assert abs(_tau_kappa(-t * t)[0] - math.tanh(t) / t) < 1e-15
    x = 0.5
    assert abs(_tau_kappa(x)[0] - math.tan(math.sqrt(x)) / math.sqrt(x)) < 1e-15


def test_tau_pole():
    for x in ((math.pi / 2 - 1e-12) ** 2, (math.pi / 2 + math.pi) ** 2):
        with pytest.raises(PoleError):
            _tau_kappa(x)


def test_tau_even_continuation_is_smooth():
    # across x = 0 the two branches meet the series expansion
    assert abs(_tau_kappa(1e-9)[0] - 1.0) < 1e-9
    assert abs(_tau_kappa(-1e-9)[0] - 1.0) < 1e-9
    assert abs(_tau_kappa(1e-9)[1] - 1.0) < 1e-9


def test_u1_factors_values():
    f, g = _u1_factors(SPEC111, 0.5)
    assert abs(f - math.tanh(0.5) / 0.5) < 1e-15
    assert abs(g - 1.0 / math.cosh(0.5)) < 1e-15
    assert _u1_factors(SPEC111, 0.0) == (1.0, 1.0)


def test_u1_factors_sho_gaussian():
    # both factors are triangular with unit diagonal, so [0, 0] is the
    # diagonal and its neighbours add the shift coefficients times lambda_0
    y = 1.3
    window = IndexWindow(0, 10, 0, 8)
    spec = AlgebraSpec.from_profile("sho")
    form = ordered_product(spec, window, (1j * y, 1j * y, 0.0), "normal")
    assert abs(form[0, 0] - math.exp(-y ** 2 / 2)) < 1e-15
    assert form[1, 0] == 1j * y * form[0, 0]
    assert form[0, 1] == 1j * y * form[0, 0]
    anti = ordered_product(spec, window, (1j * y, 1j * y, 0.0), "anti-normal")
    assert abs(anti[-1, -1] - math.exp(y ** 2 / 2)) < 1e-14


def test_u1_factors_negative_sigma_uses_tan_branch():
    y = 0.9
    f, g = _u1_factors(AlgebraSpec.parametric(6, -7, -0.5), y)
    u = y * math.sqrt(0.5)
    assert abs(f - math.tan(u) / u) < 1e-14
    assert abs(g - 1.0 / math.cos(u)) < 1e-14


def test_u1_factors_phase_profile_rejected():
    spec, coeffs = AlgebraSpec.from_profile("phase"), (0.3j, 0.3j, 0.0)
    window = IndexWindow(0, 10, 0, 8)
    with pytest.raises(ValueError):
        ordered_product(spec, window, coeffs, "normal")
    with pytest.raises(ValueError):
        antinormal_reach(spec, 8, coeffs)
    # the anti-normal scan and exact core are parametric-only
    sho = AlgebraSpec.from_profile("sho")
    with pytest.raises(ValueError):
        antinormal_reach(sho, 8, coeffs)
    with pytest.raises(ValueError, match="no exact anti-normal route"):
        antinormal_core(sho, window, coeffs)
    # a profile factors exp(iy(R+L)) only; an ordering is one of two
    with pytest.raises(ValueError, match="only factor"):
        ordered_product(sho, window, (0.3j, 0.2j, 0.0), "normal")
    with pytest.raises(ValueError, match="unknown ordering"):
        ordered_product(SPEC111, window, coeffs, "sideways")


def test_u1_normal_matches_oracle_on_core():
    window = padded_window(SPEC111, 0, 12, suggested_pad(SPEC111, 0, 12, 0.3))
    assert factorization_residual(SPEC111, window, (0.3j, 0.3j, 0), "normal") <= 1e-10


def test_u1_identity_at_y_zero():
    window = IndexWindow(0, 10, 0, 8)
    for ordering in ("normal", "anti-normal"):
        u = ordered_product(SPEC111, window, (0j, 0j, 0.0), ordering)
        assert np.array_equal(u, np.eye(11))


def test_u1_squeezed_vacuum_element():
    spec = AlgebraSpec.parametric(1, 0.5, 1)
    window = padded_window(spec, 0, 8, 30)
    u = ordered_product(spec, window, (0.45j, 0.45j, 0.0), "normal")
    assert abs(u[0, 0] - math.cosh(0.45) ** -0.5) < 1e-14


def test_u1_alpha_beta_exchange_symmetry():
    window, coeffs = IndexWindow(0, 20, 0, 8), (0.4j, 0.4j, 0.0)
    a = ordered_product(AlgebraSpec.parametric(1, 2, 1), window, coeffs, "normal")
    b = ordered_product(AlgebraSpec.parametric(2, 1, 1), window, coeffs, "normal")
    assert np.abs(a - b).max() == 0.0


def test_u1_normal_unitary_on_core():
    window = padded_window(SPEC111, 0, 8, 30)
    u = ordered_product(SPEC111, window, (0.4j, 0.4j, 0.0), "normal")
    sl = window.core_slice()
    dev = (u.conj().T @ u - np.eye(window.size))[sl, sl]
    assert np.abs(dev).max() <= 1e-9


def test_u2_reduces_to_u1():
    y = 0.35
    u = y * math.sqrt(SPEC111.sigma)
    fac = u2_factors(SPEC111, 1j * y, 1j * y, 0.0)
    for f, g in ((fac.f_plus, fac.g_plus), (fac.f_minus, fac.g_minus)):
        assert abs(f - math.tanh(u) / u) <= 1e-12
        assert abs(g - 1 / math.cosh(u)) <= 1e-12
    assert reduces_to_u1(1j * y, 1j * y, 0.0)
    assert not reduces_to_u1(1j * y, 1j * y, 0.1)
    assert not reduces_to_u1(0.2 + 1j * y, 0.2 + 1j * y, 0.0)


def test_u2_pure_diagonal_case():
    spec = AlgebraSpec.parametric(1, 2, 1)
    window = IndexWindow(0, 8, 0, 8)
    c = 0.3
    got = ordered_product(spec, window, (0.0, 0.0, c), "normal")
    m = operator_matrix(spec, window, (0.0, 0.0, 1.0))
    want = np.diag(np.exp(c * np.diag(m)))
    assert np.abs(got - want).max() <= 1e-12


def test_u2_su2_block_both_orderings():
    spec = AlgebraSpec.parametric(6, -7, -0.5)
    window = padded_window(spec, -5, 7, 10)
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, c = (complex(rng.normal(), rng.normal()) * 0.2 for _ in range(3))
        for ordering in ("normal", "anti-normal"):
            assert factorization_residual(spec, window, (a, b, c), ordering) <= 1e-10


def test_u2_factor_values_match_even_functions():
    spec = AlgebraSpec.parametric(1, 2, 1)
    a, b, c = 0.2j, 0.3j, 0.1
    fac = u2_factors(spec, a, b, c)
    q = cmath.sqrt(a * b - c * c)
    assert abs(fac.q_sq - (a * b - c * c)) < 1e-15
    assert abs(fac.f_plus - cmath.tan(q) / (q - c * cmath.tan(q))) < 1e-13
    assert abs(fac.g_minus - q / cmath.cos(q) / (q + c * cmath.tan(q))) < 1e-13


def test_u2_denominator_zero_raises():
    # q = pi/4, c*sigma*tan(q) = q: the plus-denominator vanishes
    spec = AlgebraSpec.parametric(1, 1, 1)
    c = math.pi / 4
    ab = (math.pi / 4) ** 2 + c ** 2
    a = b = math.sqrt(ab)
    with pytest.raises(PoleError):
        u2_factors(spec, a, b, c)
    # moving c leaves |D+| about 1e-10 from the pole: still inside the guard
    c_near = c + 2.5e-10
    q = cmath.sqrt(ab - c_near ** 2)
    assert 5e-11 < abs(cmath.cos(q) - c_near * cmath.sin(q) / q) < 2e-10
    with pytest.raises(PoleError):
        u2_factors(spec, a, b, c_near)


def test_u2_factors_refuse_a_q_squared_that_overflows():
    # sigma a b = -1e320 and sigma^2 c^2 = inf: q^2 is -inf + nan i, which
    # made every factor NaN
    spec = AlgebraSpec.parametric(1, 2, 1e300)
    with pytest.raises(OverflowError, match=r"not finite at \(a, b, c\) = "
                       r"\(10000000000j, 10000000000j, 1e\+200\)$"):
        u2_factors(spec, 1e10j, 1e10j, 1e200)


def test_u1_pole_negative_sigma():
    # the guard reaches every consumer of the factors: at the sec pole and
    # 5e-10 below it, where |cos(y sqrt(0.5))| is 3.5e-10
    spec = AlgebraSpec.parametric(6, -7, -0.5)
    y_pole = (math.pi / 2) / math.sqrt(0.5)
    for y in (y_pole, y_pole - 5e-10):
        with pytest.raises(PoleError):
            u2_factors(spec, 1j * y, 1j * y, 0.0)
        with pytest.raises(PoleError):
            gn_closed(spec, 1, y)
        with pytest.raises(PoleError):
            gn_series(spec, 1, y)
        with pytest.raises(PoleError):
            ordered_product(spec, IndexWindow(-5, 7, -5, 7),
                            (1j * y, 1j * y, 0.0), "normal")


def test_antinormal_residual_small_y_matrix_route():
    window = padded_window(SPEC111, 0, 8, 56)
    coeffs = (0.25j, 0.25j, 0)
    prod = ordered_product(SPEC111, window, coeffs, "anti-normal")
    oracle = expm(operator_matrix(SPEC111, window, coeffs)).matrix
    sl = window.core_slice()
    assert np.abs(prod[sl, sl] - oracle[sl, sl]).max() <= 1e-10


@pytest.mark.parametrize("spec, core, y, window_states, oracle_states", [
    # criterion 02's point: the anti-normal reach window has 615 states,
    # the padding rule 96
    (SPEC111, (0, 11), 0.8, 615, 96),
    # the whole 41-state spin block -20..20 extends 18 states past the core
    # but less than the rule: nothing to cut
    (AlgebraSpec.parametric(21, -20, -0.5), (-2, 2), 0.3, 41, 41),
])
def test_residual_runs_the_oracle_on_the_padding_rule_window(
        monkeypatch, spec, core, y, window_states, oracle_states):
    sizes = []

    def spy(a):
        sizes.append(a.shape[0])
        return expm(a)

    monkeypatch.setattr(factorization, "expm", spy)
    lo, hi = core
    coeffs = (1j * y, 1j * y, 0.0)
    pad = suggested_pad(spec, lo, hi, y)
    reach = antinormal_reach(spec, hi, coeffs)
    window = padded_window(spec, lo, hi, pad, max(pad, reach - hi))
    assert factorization_residual(spec, window, coeffs, "anti-normal") <= 1e-10
    assert window.size == window_states
    assert sizes == [oracle_states]


@pytest.mark.parametrize("spec, window, coeffs", [
    # sigma > 0: exp(iy(R+L)) and a u2 exponent
    (AlgebraSpec.parametric(1, 2, 1), IndexWindow(0, 25, 3, 6),
     (0.3j, 0.3j, 0.0)),
    (AlgebraSpec.parametric(1, 2, 1), IndexWindow(0, 25, 3, 6),
     (0.2 + 0.1j, -0.3j, 0.15j)),
    # sigma < 0, inside the block [-5, 12], with j_min < core_lo
    (AlgebraSpec.parametric(6, -12, -0.5), IndexWindow(-5, 11, -2, 4),
     (0.2 + 0.1j, 0.3j, -0.1j)),
])
@pytest.mark.parametrize("ordering", ["normal", "anti-normal"])
def test_residual_builds_the_product_on_the_states_that_reach_the_core(
        monkeypatch, spec, window, coeffs, ordering):
    # the normal core sums over j <= min(n, m), the anti-normal one over
    # j >= max(n, m): the residual's product runs on [j_min, core_hi] or
    # [core_lo, j_max], and its core is the whole window's to rounding
    built, build = [], factorization.ordered_product

    def spy(*args):
        built.append((args[1], build(*args)))
        return built[-1][1]

    monkeypatch.setattr(factorization, "ordered_product", spy)
    factorization_residual(spec, window, coeffs, ordering)
    [(cut, product)] = built
    lo, hi = window.core_lo, window.core_hi
    assert cut == (IndexWindow(window.j_min, hi, lo, hi)
                   if ordering == "normal"
                   else IndexWindow(lo, window.j_max, lo, hi))
    sl, whole = cut.core_slice(), window.core_slice()
    want = build(spec, window, coeffs, ordering)[whole, whole]
    assert np.abs(product[sl, sl] - want).max() <= 1e-15


def test_antinormal_reach_past_the_convergence_edge_raises():
    # past y = 0.88 the anti-normal terms on (1, 1, 1) grow without end
    # (their ratio tends to 1.05 at y = 0.9): a domain limit, so
    # ConvergenceError; at y = 0.6 the reach is finite
    assert antinormal_reach(SPEC111, 3, (0.6j, 0.6j, 0.0)) > 3
    with pytest.raises(ConvergenceError):
        antinormal_reach(SPEC111, 3, (0.9j, 0.9j, 0.0))


def test_antinormal_reach_refuses_past_the_edge_without_a_scan(monkeypatch):
    # the ratio limit |a f-||b f-| sigma/|g-|^2 is 1.054 at y = 0.9: the
    # refusal needs only the sector's break above the core, a few couplings
    looked_up = []
    for module in (algebra, factorization):
        monkeypatch.setattr(module, "lambda_sq", lambda *args, m=module:
                            looked_up.append(m) or lambda_sq(*args))
    with pytest.raises(ConvergenceError, match="does not converge"):
        antinormal_reach(SPEC111, 3, (0.9j, 0.9j, 0.0))
    assert factorization not in looked_up
    assert len(looked_up) <= 6
    # past the edge, a zero coupling above the core still ends the sum:
    # lambda_5 = 0 on (-5, -5, 1)
    spec = AlgebraSpec.parametric(-5, -5, 1)
    assert antinormal_reach(spec, 3, (2j, 2j, 0.0)) == 5


def test_antinormal_reach_stops_where_a_coupling_underflows_to_zero():
    # past the edge (ratio limit 3.7), but the float lambda_0^2 =
    # 2 * (1e-200)^2 is 0, and the sum ends there
    spec = AlgebraSpec.parametric(-1e-200, -1e-200, 2)
    assert lambda_sq(spec, 0) == 0.0
    assert antinormal_reach(spec, -2, (1j, 1j, 0.0)) == 0


def test_antinormal_reach_over_100000_states_raises():
    # inside the edge (ratio limit 0.9998 at y = 0.8813) the sum converges,
    # but its reach passes the 100000-state guard
    with pytest.raises(ConvergenceError, match="over 100000 states"):
        antinormal_reach(SPEC111, 3, (0.8813j, 0.8813j, 0.0))


def test_antinormal_exact_route_handles_growth():
    # float products lose ~sinh-growth digits here; the exact route does not
    y = 0.6
    reach = antinormal_reach(SPEC111, 10, (1j * y, 1j * y, 0.0))
    window = IndexWindow(0, reach, 0, 10)
    coeffs = (1j * y, 1j * y, 0.0)
    res = factorization_residual(SPEC111, window, coeffs, "anti-normal")
    assert res <= 1e-10
    # the route rule is what passes: the float product misses on this window
    prod = ordered_product(SPEC111, window, coeffs, "anti-normal")
    oracle = expm(operator_matrix(SPEC111, window, coeffs)).matrix
    sl = window.core_slice()
    assert np.abs(prod[sl, sl] - oracle[sl, sl]).max() > 1e-10


def test_exact_route_scans_the_peak_once(monkeypatch):
    # the residual picks the route with one _anti_peak (a scan from each
    # core edge) and hands the peak to antinormal_core, which sums what it
    # sums when it scans the peak itself
    spec, window = AlgebraSpec.parametric(1, 2, 1), IndexWindow(0, 59, 0, 5)
    coeffs = (0.5j, 0.5j, 0.0)
    scans, cores = [], []
    scan, core = factorization._anti_scan, factorization.antinormal_core

    def counted_core(*args, **kwargs):
        cores.append(core(*args, **kwargs))
        return cores[-1]

    monkeypatch.setattr(factorization, "_anti_scan",
                        lambda *args: scans.append(args) or scan(*args))
    monkeypatch.setattr(factorization, "antinormal_core", counted_core)
    factorization_residual(spec, window, coeffs, "anti-normal")
    assert len(scans) == 2 and len(cores) == 1
    assert cores[0].tobytes() == core(spec, window, coeffs).tobytes()


def test_antinormal_core_agrees_with_normal_product():
    y = 0.3
    window = padded_window(SPEC111, 0, 6, 60)
    core = antinormal_core(SPEC111, window, (1j * y, 1j * y, 0.0))
    full = ordered_product(SPEC111, window, (1j * y, 1j * y, 0.0), "normal")
    sl = window.core_slice()
    assert np.abs(core - full[sl, sl]).max() <= 1e-12


def test_residual_grows_when_core_touches_edge():
    window_good = padded_window(SPEC111, 0, 8, 34)
    window_bad = IndexWindow(0, 10, 0, 10)
    good = factorization_residual(SPEC111, window_good, (0.3j, 0.3j, 0), "normal")
    bad = factorization_residual(SPEC111, window_bad, (0.3j, 0.3j, 0), "normal")
    assert bad > 100 * good


def test_ordered_product_profile_routes():
    # one-sided window for the boson ladder (decoupled below the vacuum),
    # two-sided for constant couplings (no decoupling anywhere)
    cases = [("sho", IndexWindow(0, 30, 0, 10)),
             ("constant-one", IndexWindow(-30, 30, -10, 10))]
    for profile, window in cases:
        spec = AlgebraSpec.from_profile(profile)
        res = factorization_residual(spec, window, (0.4j, 0.4j, 0), "normal")
        res_a = factorization_residual(spec, window, (0.4j, 0.4j, 0), "anti-normal")
        assert res <= 1e-10
        assert res_a <= 1e-10


def test_ordered_product_ingredients():
    # both factors are triangular with unit diagonal: normal [0, 0] is the
    # diagonal at j_min and [1, 0] is b f lambda_0 times it; anti-normal
    # [-1, -1] is the diagonal at j_max.  For alpha = beta = 1 the diagonal
    # is g^(2j+1) (normal) and g^-(2j+1) (anti-normal)
    window = IndexWindow(0, 12, 0, 8)
    form = ordered_product(SPEC111, window, (0.3j, 0.3j, 0.0), "normal")
    f, g = _u1_factors(SPEC111, 0.3)
    assert np.isclose(form[0, 0], g)
    assert np.isclose(form[1, 0], 1j * 0.3 * f * math.sqrt(lambda_sq(SPEC111, 0)) * g)
    assert np.all(np.isfinite(form))
    anti = ordered_product(SPEC111, window, (0.3j, 0.3j, 0.0), "anti-normal")
    assert np.isclose(anti[-1, -1], g ** -(2 * 12 + 1))


@st.composite
def _factor_cases(draw):
    """(spec, window, two coefficients) on 2-40-state windows."""
    kind = draw(st.sampled_from(["sigma>0", "sigma<0", "block", "sho",
                                 "constant-one"]))
    size = draw(st.integers(2, 40))
    if kind == "block":
        # the whole finite block, bounded by zero couplings on both sides
        J = draw(st.integers(1, 19))
        spec = AlgebraSpec.parametric(J + 1, -J, -0.5)
        j_min, size = -J, 2 * J + 1
    elif kind in ("sho", "constant-one"):
        spec = AlgebraSpec.from_profile(kind)
        j_min = draw(st.integers(-5, 5))
    else:
        alpha, beta = draw(st.sampled_from(
            [(1, 2), (2, 2), (1.5, 2.5)] if kind == "sigma>0"
            else [(6, -7), (25, -30), (3.5, -40.5)]))
        sigma = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        spec = AlgebraSpec.parametric(alpha, beta,
                                      sigma if kind == "sigma>0" else -sigma)
        j_min = draw(st.integers(-30, 30))
    j_max = j_min + size - 1
    assume(all(lambda_sq(spec, j) >= 0.0 for j in range(j_min - 1, j_max + 1)))
    coefs = tuple(complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
                  for _ in range(2))
    return spec, IndexWindow(j_min, j_max, j_min, j_max), coefs


@settings(max_examples=150, deadline=None)
@given(_factor_cases())
def test_factor_exponentials_match_the_oracle(case):
    # each factor of a stacked build alone: exp(cL) is the transpose of
    # exp(cR), the couplings being real
    spec, window, coefs = case
    m = build_matrices(spec, window)
    stacked = _raising_exp(coefs, np.sqrt(squared_couplings(spec, window)[1:-1]))
    for coef, raising in zip(coefs, stacked, strict=True):
        for band, got in ((m.R, raising), (m.L, raising.T)):
            want = expm(coef * band).matrix
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_factor_build_rejects_negative_couplings():
    # the same window check as build_matrices
    spec = AlgebraSpec.parametric(1, -2, 1)
    with pytest.raises(NonUnitaryRegime):
        ordered_product(spec, IndexWindow(0, 4, 0, 4), (0, 0.1j, 0), "normal")


def test_factor_entries_stay_finite_on_wide_windows():
    # lambda_j = 2(j + 1): prod lambda / k! alone reaches 3^699 on this
    # window, the entries |c|^k/k! * prod lambda stay below 1.2^699
    spec = AlgebraSpec.parametric(1, 1, 4)
    window = IndexWindow(0, 699, 0, 699)
    # q^2 = 0, so f = g = 1 and the product is exp(0.1i R) alone
    got = ordered_product(spec, window, (0, 0.1j, 0), "normal")
    assert np.isfinite(got).all()
    # <k|exp(cR)|0> = c^k/k! * 2^k k!
    want = np.array([(0.2j) ** k for k in range(300)])
    assert (np.abs(got[:300, 0] - want) <= 1e-12 * np.abs(want)).all()


def _band_by_band(coef, lam):
    """exp(coef * R) one band per pass: band k is band k-1 times the next
    couplings and |c|/k in real arithmetic, then the phase (c/|c|)^k; a
    zero band ends the series.  The build ``_raising_exp`` replaced."""
    n = lam.size + 1
    out = np.zeros((n, n), dtype=complex)
    out.flat[::n + 1] = 1.0
    c = complex(coef)
    r = abs(c)
    u = c / r if r else 0j
    band = np.ones(n)
    for k in range(1, n):
        band = band[:-1] * lam[k - 1:] * (r / k)
        if not band.any():
            break
        out.flat[k * n::n + 1] = band * u ** k
    return out


@pytest.mark.parametrize("spec, window, coef", [
    (SPEC111, IndexWindow(0, 1, 0, 1), 0.3 + 0.4j),  # n = 2
    (SPEC111, IndexWindow(0, 30, 0, 30), 0.0),
    # lambda_-1 = 0 inside the window
    (AlgebraSpec.from_profile("phase"), IndexWindow(-4, 4, -4, 4), 0.8 - 0.6j),
    (AlgebraSpec.parametric(52, -51, -0.5), IndexWindow(-51, 51, -51, 51), 0.7 - 0.3j),
    # the window of test_factor_entries_stay_finite_on_wide_windows, where
    # the first columns' bands underflow
    (AlgebraSpec.parametric(1, 1, 4), IndexWindow(0, 699, 0, 699), 0.1j),
])
def test_raising_exp_matches_the_band_by_band_build(spec, window, coef):
    # both round each entry's k-fold product, in a different order: within
    # 4 (k + 1) eps of the entry itself, or below the normal floats
    lam = np.sqrt(squared_couplings(spec, window)[1:-1])
    (got,), want = _raising_exp((coef,), lam), _band_by_band(coef, lam)
    k = np.abs(np.subtract.outer(np.arange(window.size), np.arange(window.size)))
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    assert (np.abs(got - want) <= 4 * (k + 1) * eps * np.abs(want) + tiny).all()


def test_stacked_factors_are_the_single_builds():
    # each factor of a stacked build equals its single build bit for bit.
    # At |c| = 1e-6 the bands past about 60 underflow on this 100-state
    # window, at 0.5 none do; c = 0 has none.
    window = IndexWindow(0, 99, 0, 99)
    lam = np.sqrt(squared_couplings(SPEC111, window)[1:-1])
    coefs = (1e-6 - 1e-6j, 0.3 + 0.4j, 0.0)
    stacked = _raising_exp(coefs, lam)
    for coef, got in zip(coefs, stacked, strict=True):
        (want,) = _raising_exp((coef,), lam)
        assert got.tobytes() == want.tobytes()


# antinormal_core at (1, 2, 1), y = 0.5, core 0..5 on the gate's window
# (0..59), as computed by the per-pair summation it replaced.  Entries with
# n + m odd are imaginary, the others real.
_PINNED_CORE = [
    [0.7864477329659274, 0.51396903602302457, -0.29089394296882148,
     -0.15522302394534293, 0.080197944884404848, 0.040598123046330682],
    [0.51396903602302457, 0.28260464412988517, 0.51000327891117203,
     -0.45893356004051467, -0.33362244652042111, 0.21774265110630447],
    [-0.29089394296882148, 0.51000327891117203, -0.19847772442889705,
     0.20176314305254739, -0.39730914636055398, -0.41737038497793877],
    [-0.15522302394534293, -0.45893356004051467, 0.20176314305254739,
     -0.38688659439360246, -0.16353873028484295, -0.12709952654081511],
    [0.080197944884404848, -0.33362244652042111, -0.39730914636055398,
     -0.16353873028484295, -0.23479674625070276, -0.33162838739528061],
    [0.040598123046330682, 0.21774265110630447, -0.41737038497793877,
     -0.12709952654081511, -0.33162838739528061, 0.072980032530626113],
]


def test_antinormal_core_is_pinned():
    spec = AlgebraSpec.parametric(1, 2, 1)
    coeffs = (0.5j, 0.5j, 0.0)
    pad = suggested_pad(spec, 0, 5, 0.5)
    reach = antinormal_reach(spec, 5, coeffs)
    window = padded_window(spec, 0, 5, pad, max(pad, reach - 5))
    assert (window.j_min, window.j_max) == (0, 59)
    want = np.array([[v if (n + m) % 2 == 0 else 1j * v
                      for m, v in enumerate(row)]
                     for n, row in enumerate(_PINNED_CORE)])
    assert np.array_equal(antinormal_core(spec, window, coeffs), want)


# q = pi/2 with c = 0.4i on the spin-6 block: cos(q) = 0, so tan/sec have
# a pole there, but D+- = cos(q) -+ c*sigma*sin(q)/q = +-0.4i/pi do not vanish
_SU2_BLOCK = AlgebraSpec.parametric(6, -7, -0.5)
_AT_SEC_POLE = (1j * math.sqrt(math.pi ** 2 / 2 - 0.08),
                1j * math.sqrt(math.pi ** 2 / 2 - 0.08), 0.4j)


def test_u2_factors_are_finite_at_a_sec_pole():
    fac = u2_factors(_SU2_BLOCK, *_AT_SEC_POLE)
    assert abs(cmath.sqrt(fac.q_sq) - math.pi / 2) < 1e-15
    assert all(cmath.isfinite(v)
               for v in (fac.f_plus, fac.f_minus, fac.g_plus, fac.g_minus))


def test_exact_antinormal_residual_at_a_sec_pole():
    window = padded_window(_SU2_BLOCK, -5, 7, 10)
    assert (window.j_min, window.j_max) == (-5, 7)
    core = antinormal_core(_SU2_BLOCK, window, _AT_SEC_POLE)
    oracle = expm(operator_matrix(_SU2_BLOCK, window, _AT_SEC_POLE)).matrix
    sl = window.core_slice()
    assert np.abs(core - oracle[sl, sl]).max() <= 1e-10


def _reference_core(spec, window, coeffs):
    """Core block of the anti-normal product, element by element: the sum of
    <n|exp(a f- L)|j> g-^(-p_j) <j|exp(b f- R)|m> over max(n, m) <= j <=
    j_max (up to a zero coupling) in mpmath, with f- and g- from mpmath's
    sin and cos.  A pass at 20 digits finds the largest term; the sum is
    then taken at 2 * max(30, log10(largest term) + 25) digits, twice the
    rule the mpmath implementation of ``antinormal_core`` used."""
    core = range(window.core_lo, window.core_hi + 1)

    def block():
        a, b, c = (mpmath.mpc(x) for x in coeffs)
        si, al, be = (mpmath.mpf(x) for x in (spec.sigma, spec.alpha, spec.beta))
        q_sq = a * b * si - c * c * si * si
        q = mpmath.sqrt(q_sq)
        s = mpmath.sin(q) / q if q_sq else mpmath.mpf(1)
        g = 1 / (mpmath.cos(q) + c * si * s)
        cl, cr = a * s * g, b * s * g
        j_range = range(window.core_lo, window.j_max + 1)
        lam = {j: mpmath.sqrt(max(si * (al + j) * (be + j), 0)) for j in j_range}
        diag = {j: g ** -(2 * j - 1 + al + be) for j in j_range}
        rows, top = [], mpmath.mpf(0)
        for n in core:
            row = []
            for m in core:
                left = right = mpmath.mpc(1)
                for j in range(n, max(n, m)):
                    left *= cl * lam[j] / (j + 1 - n)
                for j in range(m, max(n, m)):
                    right *= cr * lam[j] / (j + 1 - m)
                total = mpmath.mpc(0)
                for j in range(max(n, m), window.j_max + 1):
                    term = left * diag[j] * right
                    top = max(top, abs(term))
                    total += term
                    if lam[j] == 0:
                        break
                    left *= cl * lam[j] / (j + 1 - n)
                    right *= cr * lam[j] / (j + 1 - m)
                row.append(total)
            rows.append(row)
        return rows, top

    with mpmath.workdps(20):
        top = block()[1]
    digits = int(mpmath.log10(top)) + 25 if top > 1 else 0
    with mpmath.workdps(2 * max(30, digits)):
        rows = block()[0]
    return np.array([[complex(x) for x in row] for row in rows])


def _u2_coeffs(draw, radii=(0.3, 0.3, 0.15)):
    return tuple(complex(draw(st.floats(-r, r)), draw(st.floats(-r, r)))
                 for r in radii)


@st.composite
def _core_cases(draw):
    """(spec, window, coefficients) for antinormal_core: u1 points, random
    u2 coefficients, whole finite sigma < 0 blocks and a zero coupling
    inside the window."""
    kind = draw(st.sampled_from(["u1", "u2", "block", "zero coupling"]))
    lo = draw(st.integers(0, 3))
    hi = lo + draw(st.integers(0, 3))
    if kind == "u1":
        spec = AlgebraSpec.parametric(1, draw(st.sampled_from([1, 2])), 1)
        y = draw(st.floats(0.05, 0.55))
        coeffs = (1j * y, 1j * y, 0.0)
    elif kind == "u2":
        # alpha + beta = 1.5 puts the prefactor on the float power
        spec = AlgebraSpec.parametric(*draw(st.sampled_from(
            [(1, 2), (1, 0.5), (1.5, 2.5)])), 1)
        coeffs = _u2_coeffs(draw)
    elif kind == "block":
        # spin-J block: couplings vanish at j = -J - 1 and j = J
        J = draw(st.integers(1, 8))
        spec = AlgebraSpec.parametric(J + 1, -J, -0.5)
        lo = draw(st.integers(-J, J))
        hi = draw(st.integers(lo, J))
        coeffs = _u2_coeffs(draw, (0.6, 0.6, 0.3))
        return spec, IndexWindow(-J, J, lo, hi), coeffs
    else:
        # lambda_j = |j - 3|: chains from j <= 3 stop at j = 3
        spec = AlgebraSpec.parametric(-3, -3, 1)
        coeffs = _u2_coeffs(draw)
    j_max = max(hi + 1, antinormal_reach(spec, hi, coeffs))
    return spec, IndexWindow(0, j_max, lo, hi), coeffs


@settings(max_examples=40, deadline=None)
@given(_core_cases())
@example((_SU2_BLOCK, IndexWindow(-5, 7, -5, 7), _AT_SEC_POLE))
# |b| / |a| = 160: the chains grow and shrink like 4^k and 0.025^k apart
# from their balance
@example((SPEC111, IndexWindow(0, 120, 0, 5), (0.02 + 0.01j, 3 + 1j, 0.0)))
# whole spin blocks as the core, where the centre row's terms peak above
# the edge scan that sets the precision: 6.6 nats against 2.3 at J = 12,
# 10.2 against 2.9 at J = 20
@example((AlgebraSpec.parametric(13, -12, -0.5), IndexWindow(-12, 12, -12, 12),
          (0.6j, 0.6j, 0.0)))
@example((AlgebraSpec.parametric(21, -20, -0.5), IndexWindow(-20, 20, -20, 20),
          (0.5j, 0.5j, 0.0)))
# alpha + beta = 2.5: the prefactor's fractional part takes the float power
@example((AlgebraSpec.parametric(1, 1.5, 1), IndexWindow(0, 48, 0, 3),
          (0.5j, 0.5j, 0.0)))
def test_antinormal_core_matches_mpmath_reference(case):
    spec, window, coeffs = case
    want = _reference_core(spec, window, coeffs)
    got = antinormal_core(spec, window, coeffs)
    assert np.abs(got - want).max() <= 1e-15 * max(1.0, np.abs(want).max())
