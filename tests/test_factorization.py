import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ladderkit import (AlgebraSpec, IndexWindow, NonUnitaryRegime,
                       OrderedForm, PoleError, antinormal_core,
                       antinormal_reach, build_matrices, expm,
                       factorization_residual, kappa, lambda_sq,
                       operator_matrix, ordered_product, padded_window,
                       reduces_to_u1, suggested_pad, tau, u1_factors,
                       u2_factors)

SPEC111 = AlgebraSpec.parametric(1, 1, 1)


def test_tau_basic_values():
    assert tau(0.0) == 1.0
    t = 0.7
    assert abs(tau(-t * t) - math.tanh(t) / t) < 1e-15
    x = 0.5
    assert abs(tau(x) - math.tan(math.sqrt(x)) / math.sqrt(x)) < 1e-15


def test_tau_pole():
    with pytest.raises(PoleError):
        tau((math.pi / 2 - 1e-12) ** 2)
    with pytest.raises(PoleError):
        kappa((math.pi / 2 + math.pi) ** 2)


def test_tau_even_continuation_is_smooth():
    # across x = 0 the two branches meet the series expansion
    assert abs(tau(1e-9) - 1.0) < 1e-9
    assert abs(tau(-1e-9) - 1.0) < 1e-9
    assert abs(kappa(1e-9) - 1.0) < 1e-9


def test_u1_factors_values():
    fac = u1_factors(SPEC111, 0.5)
    assert abs(fac.f - math.tanh(0.5) / 0.5) < 1e-15
    assert abs(fac.g - 1.0 / math.cosh(0.5)) < 1e-15
    fac0 = u1_factors(SPEC111, 0.0)
    assert fac0.f == 1.0 and fac0.g == 1.0


def test_u1_factors_sho_gaussian():
    fac = u1_factors(AlgebraSpec.from_profile("sho"), 1.3)
    assert fac.f == 1.0
    assert abs(fac.diagonal_scalar - math.exp(-1.3 ** 2 / 2)) < 1e-15


def test_u1_factors_negative_sigma_uses_tan_branch():
    spec = AlgebraSpec.parametric(6, -7, -0.5)
    y = 0.9
    fac = u1_factors(spec, y)
    u = y * math.sqrt(0.5)
    assert abs(fac.f - math.tan(u) / u) < 1e-14
    assert abs(fac.g - 1.0 / math.cos(u)) < 1e-14


def test_u1_factors_phase_profile_rejected():
    with pytest.raises(ValueError):
        u1_factors(AlgebraSpec.from_profile("phase"), 0.3)


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
    with pytest.raises(ZeroDivisionError):
        u2_factors(spec, a, b, c)


def test_u1_pole_negative_sigma():
    spec = AlgebraSpec.parametric(6, -7, -0.5)
    y_pole = (math.pi / 2) / math.sqrt(0.5)
    with pytest.raises(PoleError):
        u1_factors(spec, y_pole)


def test_antinormal_residual_small_y_matrix_route():
    window = padded_window(SPEC111, 0, 8, 56)
    res = factorization_residual(SPEC111, window, (0.25j, 0.25j, 0), "anti-normal",
                                 method="matrix")
    assert res <= 1e-10


def test_antinormal_exact_route_handles_growth():
    # float products lose ~sinh-growth digits here; the exact route does not
    y = 0.6
    reach = antinormal_reach(SPEC111, 10, (1j * y, 1j * y, 0.0))
    window = IndexWindow(0, reach, 0, 10)
    res = factorization_residual(SPEC111, window, (1j * y, 1j * y, 0.0),
                                 "anti-normal")
    assert res <= 1e-10


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


def test_ordered_form_ingredients():
    from ladderkit import ordered_form
    window = IndexWindow(0, 12, 0, 8)
    form = ordered_form(SPEC111, window, (0.3j, 0.3j, 0.0), "normal")
    fac = u1_factors(SPEC111, 0.3)
    assert form.raising_coefficient == 1j * 0.3 * fac.f
    # diagonal entries are g^(2j+1) for alpha = beta = 1
    assert np.allclose(form.diagonal,
                       [fac.g ** (2 * j + 1) for j in range(13)])
    assert np.all(np.isfinite(form.diagonal))
    assert np.abs(form.matrix(SPEC111, window)
                  - ordered_product(SPEC111, window, (0.3j, 0.3j, 0.0),
                                    "normal")).max() == 0.0
    anti = ordered_form(SPEC111, window, (0.3j, 0.3j, 0.0), "anti-normal")
    assert np.allclose(anti.diagonal,
                       [fac.g ** -(2 * j + 1) for j in range(13)])


@st.composite
def _factor_cases(draw):
    """(spec, window, coefficient) on 2-40-state windows."""
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
    coef = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    return spec, IndexWindow(j_min, j_max, j_min, j_max), coef


@settings(max_examples=150, deadline=None)
@given(_factor_cases())
def test_factor_exponentials_match_the_oracle(case):
    # each factor alone: the other one has coefficient 0 and the diagonal
    # is 1, so the product is that factor times an exact identity
    spec, window, coef = case
    m = build_matrices(spec, window)
    ones = np.ones(window.size)
    for band, form in ((m.R, OrderedForm("normal", coef, 0.0, ones)),
                       (m.L, OrderedForm("normal", 0.0, coef, ones))):
        want = expm(coef * band).matrix
        got = form.matrix(spec, window)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_factor_build_rejects_negative_couplings():
    # the same window check as build_matrices
    spec = AlgebraSpec.parametric(1, -2, 1)
    with pytest.raises(NonUnitaryRegime):
        OrderedForm("normal", 0.1j, 0.1j, np.ones(5)).matrix(
            spec, IndexWindow(0, 4, 0, 4))


def test_factor_entries_stay_finite_on_wide_windows():
    # lambda_j = 2(j + 1): prod lambda / k! alone reaches 3^699 on this
    # window, the entries |c|^k/k! * prod lambda stay below 1.2^699
    spec = AlgebraSpec.parametric(1, 1, 4)
    window = IndexWindow(0, 699, 0, 699)
    got = OrderedForm("normal", 0.1j, 0.0, np.ones(700)).matrix(spec, window)
    assert np.isfinite(got).all()
    # <k|exp(cR)|0> = c^k/k! * 2^k k!
    want = np.array([(0.2j) ** k for k in range(300)])
    assert (np.abs(got[:300, 0] - want) <= 1e-12 * np.abs(want)).all()


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
    res = factorization_residual(_SU2_BLOCK, window, _AT_SEC_POLE, "anti-normal",
                                 method="exact")
    assert res <= 1e-10
