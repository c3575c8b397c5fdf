import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ladderkit import (AlgebraSpec, ConvergenceError, IndexWindow,
                       NonUnitaryRegime, build_matrices, commutator_residual,
                       detect_blocks, lambda_coupling, lambda_sq,
                       padded_window, suggested_pad)
from ladderkit.algebra import (_ORACLE_MAX, PAD_FLOOR, _oracle_window,
                               squared_couplings)


def test_lambda_sq_parametric_values():
    assert lambda_sq(AlgebraSpec.parametric(1, 1, 1), 2) == 9
    # alpha = 1 forces a vanishing coupling at j = -1 for any beta
    assert lambda_sq(AlgebraSpec.parametric(1, 2.5, 1), -1) == 0
    assert lambda_sq(AlgebraSpec.parametric(1, 0.5, 1), -1) == 0


def test_lambda_sq_profiles():
    const = AlgebraSpec.from_profile("constant-one")
    assert lambda_sq(const, -7) == 1
    sho = AlgebraSpec.from_profile("sho")
    assert lambda_sq(sho, 3) == 4
    assert lambda_sq(sho, -1) == 0
    assert lambda_sq(sho, -5) == 0
    ph = AlgebraSpec.from_profile("phase")
    assert lambda_sq(ph, 0) == 1
    assert lambda_sq(ph, -1) == 0


@given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-4, 4),
       st.integers(-30, 30))
def test_lambda_sq_alpha_beta_symmetry(alpha, beta, sigma, j):
    a = lambda_sq(AlgebraSpec.parametric(alpha, beta, sigma), j)
    b = lambda_sq(AlgebraSpec.parametric(beta, alpha, sigma), j)
    assert a == b


def _assert_squared_couplings_are_lambda_sq(spec, window):
    js = range(window.j_min - 1, window.j_max + 1)
    want = [lambda_sq(spec, j) for j in js]
    negative = [j for j, v in zip(js, want) if v < 0.0]
    if negative:
        with pytest.raises(NonUnitaryRegime, match=rf"^lambda_{negative[0]}\^2 = "):
            squared_couplings(spec, window)
    else:
        assert squared_couplings(spec, window).tolist() == want


@given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-4, 4),
       st.integers(-30, 30), st.integers(2, 40))
def test_squared_couplings_are_lambda_sq(alpha, beta, sigma, j_min, size):
    # the same floats as the scalar rule, and the first negative j named
    _assert_squared_couplings_are_lambda_sq(
        AlgebraSpec.parametric(alpha, beta, sigma),
        IndexWindow(j_min, j_min + size - 1, j_min, j_min + size - 1))


@pytest.mark.parametrize("name", ["sho", "constant-one", "phase"])
def test_squared_couplings_of_profiles_are_lambda_sq(name):
    _assert_squared_couplings_are_lambda_sq(AlgebraSpec.from_profile(name),
                                            IndexWindow(-4, 6, -4, 6))


def _lambda_sq_per_j(spec, j):
    """lambda_j^2 for one label, the rule written case by case."""
    if spec.is_parametric:
        return spec.sigma * ((spec.alpha + j) * (spec.beta + j))
    if spec.profile == "sho":
        return float(j + 1) if j >= -1 else 0.0
    if spec.profile == "constant-one":
        return 1.0
    return 1.0 if j >= 0 else 0.0


_ARRAY_SPECS = [AlgebraSpec.from_profile(name)
                for name in ("sho", "constant-one", "phase")] + [
    AlgebraSpec.parametric(1.5, 2.5, 0.7), AlgebraSpec.parametric(6, -7, -0.5),
    AlgebraSpec.parametric(-0.3, 2.0, 1.0)]


@pytest.mark.parametrize("spec", _ARRAY_SPECS)
def test_lambda_sq_on_an_index_array_is_the_per_j_rule(spec):
    js = np.arange(-9, 12)
    want = np.array([_lambda_sq_per_j(spec, int(j)) for j in js])
    for labels in (js, js.astype(float)):
        # the same bytes: values and signs of zeros
        assert lambda_sq(spec, labels).tobytes() == want.tobytes()
    assert [lambda_sq(spec, int(j)) for j in js] == want.tolist()


@pytest.mark.parametrize("spec", _ARRAY_SPECS)
def test_squared_couplings_keep_their_bytes(spec):
    # the array build against the per-label loop (profiles) or the float
    # label expression (parametric) that built them before
    for lo, hi in ((-5, 6), (0, 59), (2, 2)):
        window = IndexWindow(lo, hi, lo, hi)
        js = np.arange(lo - 1.0, hi + 1.0)
        want = (_lambda_sq_per_j(spec, js) if spec.is_parametric
                else np.array([_lambda_sq_per_j(spec, int(j)) for j in js]))
        if want.min() < 0.0:
            with pytest.raises(NonUnitaryRegime):
                squared_couplings(spec, window)
        else:
            assert squared_couplings(spec, window).tobytes() == want.tobytes()


def test_build_superdiagonal_and_s():
    spec = AlgebraSpec.parametric(1, 1, 1)
    m = build_matrices(spec, IndexWindow(0, 3, 0, 3))
    assert np.allclose(np.diag(m.L, k=1), [1, 2, 3])
    assert np.allclose(np.diag(m.S), [1, 3, 5, 7])
    # only the superdiagonal of L is populated
    assert np.count_nonzero(m.L) == 3


@pytest.mark.parametrize("spec,window", [
    (AlgebraSpec.parametric(1.5, 2.5, 0.7), IndexWindow(0, 20, 2, 18)),
    (AlgebraSpec.parametric(6, -7, -0.5), IndexWindow(-5, 7, -5, 7)),
    (AlgebraSpec.from_profile("sho"), IndexWindow(-2, 9, 0, 7)),
    (AlgebraSpec.from_profile("phase"), IndexWindow(-3, 4, -1, 2)),
])
def test_build_matrices_entries_are_the_couplings(spec, window):
    m = build_matrices(spec, window)
    for j in window.indices():
        k = window.idx(j)
        assert m.S[k, k] == lambda_sq(spec, j) - lambda_sq(spec, j - 1)
        if j < window.j_max:
            assert m.L[k, k + 1] == lambda_coupling(spec, j)
    assert np.count_nonzero(m.L) == np.count_nonzero(np.diag(m.L, 1))
    assert np.count_nonzero(m.S) == np.count_nonzero(np.diag(m.S))


def test_build_phase_profile_s_impulse():
    m = build_matrices(AlgebraSpec.from_profile("phase"), IndexWindow(0, 3, 0, 3))
    assert np.allclose(np.diag(m.S), [1, 0, 0, 0])


def test_build_rejects_negative_coupling():
    with pytest.raises(NonUnitaryRegime):
        build_matrices(AlgebraSpec.parametric(1, -2, 1), IndexWindow(0, 4, 0, 4))


@pytest.mark.parametrize("alpha,beta,sigma", [
    (1, 1, 1), (2, -14, -0.25), (3, 7, 2), (1, 0.5, 1),
])
def test_hermitian_pair_exact(alpha, beta, sigma):
    spec = AlgebraSpec.parametric(alpha, beta, sigma)
    # sigma < 0 couplings are real only between the parabola roots
    window = IndexWindow(0, 12, 2, 10) if sigma < 0 else IndexWindow(0, 16, 2, 14)
    m = build_matrices(spec, window)
    assert np.abs(m.R - m.L.conj().T).max() == 0.0


@pytest.mark.parametrize("alpha,beta,sigma,window", [
    (1, 1, 1, IndexWindow(0, 12, 0, 10)),
    (2, -14, -0.25, IndexWindow(-1, 12, 1, 10)),
])
def test_commutator_residual_core(alpha, beta, sigma, window):
    spec = AlgebraSpec.parametric(alpha, beta, sigma)
    m = build_matrices(spec, window)
    assert commutator_residual(m, spec) <= 1e-13


def test_commutator_residual_corner_positive():
    spec = AlgebraSpec.parametric(1, 1, 1)
    m = build_matrices(spec, IndexWindow(0, 12, 0, 12))
    # truncation drops lambda_12: the corner violates closure
    assert commutator_residual(m, spec) > 1.0


def test_commutator_residual_propagates_a_nan():
    # L S overflows on (1, 1, 1e300): inf - inf leaves NaN in the core of
    # the [L, S] - 2 sigma L block, while the [L, R] - S block is finite
    spec = AlgebraSpec.parametric(1, 1, 1e300)
    m = build_matrices(spec, IndexWindow(0, 4, 1, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(commutator_residual(m, spec))


def test_commutator_residual_rejects_profiles():
    m = build_matrices(AlgebraSpec.from_profile("sho"), IndexWindow(0, 6, 1, 5))
    with pytest.raises(ValueError):
        commutator_residual(m, AlgebraSpec.from_profile("sho"))


def test_detect_blocks_splits_at_every_zero():
    # zeros of (1+j)(3+j) at j = -1 and j = -3
    spec = AlgebraSpec.parametric(1, 3, 1)
    blocks = detect_blocks(spec, IndexWindow(-4, 4, -4, 4))
    assert blocks == [(-4, -3), (-2, -1), (0, 4)]


def test_detect_blocks_single_block():
    blocks = detect_blocks(AlgebraSpec.from_profile("constant-one"),
                           IndexWindow(-4, 4, -4, 4))
    assert blocks == [(-4, 4)]


def test_detect_blocks_finite_interior_block():
    # spin-like couplings: (1/2)(1+j)(2-j) vanishes at j = -1 and j = 2
    spec = AlgebraSpec.parametric(1, -2, -0.5)
    blocks = detect_blocks(spec, IndexWindow(-3, 3, -3, 3))
    assert (0, 2) in blocks
    assert blocks == [(-3, -1), (0, 2), (3, 3)]


def test_block_decoupling_invariance():
    spec = AlgebraSpec.from_profile("phase")
    window = IndexWindow(-3, 3, -3, 3)
    m = build_matrices(spec, window)
    for lo, hi in detect_blocks(spec, window):
        for j in range(lo, hi + 1):
            e = np.zeros(window.size)
            e[window.idx(j)] = 1.0
            for op in (m.L, m.R):
                out = op @ e
                support = np.nonzero(np.abs(out) > 0)[0] + window.j_min
                assert all(lo <= s <= hi for s in support)


def test_window_validation():
    with pytest.raises(ValueError):
        IndexWindow(3, 2, 3, 2)
    with pytest.raises(ValueError):
        IndexWindow(0, 5, -1, 5)
    with pytest.raises(IndexError, match="outside window"):
        IndexWindow(0, 5, 1, 4).idx(6)
    for name in ("harmonic", ""):
        with pytest.raises(ValueError, match="unknown profile"):
            AlgebraSpec.from_profile(name)


def test_padded_window_stops_at_decoupling():
    # couplings vanish at j = -1: hole states never enter
    w = padded_window(AlgebraSpec.parametric(1, 1, 1), 0, 5, 10)
    assert w.j_min == 0
    assert w.j_max == 15
    # spin block: both sides clipped at the zeros
    w = padded_window(AlgebraSpec.parametric(7, -8, -0.5), -5, 6, 30)
    assert (w.j_min, w.j_max) == (-6, 8)


def test_padded_window_refuses_a_negative_pad():
    spec = AlgebraSpec.parametric(1, 1, 1)
    assert padded_window(spec, 0, 3, 0) == IndexWindow(0, 3, 0, 3)
    with pytest.raises(ValueError):
        padded_window(spec, 0, 3, -2)
    with pytest.raises(ValueError):
        padded_window(spec, 0, 3, 2, -1)


def test_spec_refuses_non_finite_parameters():
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                AlgebraSpec.parametric(*args)


@pytest.mark.parametrize("spec, what", [
    # (1e160 + j)^2 overflows to inf; at sigma = 0 it gives 0 * inf = NaN
    (AlgebraSpec.parametric(1e160, 1e160, 1), "inf"),
    (AlgebraSpec.parametric(-1e160, 1e160, 0), "nan"),
])
def test_squared_couplings_refuse_non_finite_couplings(spec, what):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match=f"lambda_-1\\^2 = {what} is not finite"):
            squared_couplings(spec, IndexWindow(0, 4, 0, 4))
        with pytest.raises(OverflowError):
            build_matrices(spec, IndexWindow(0, 4, 0, 4))
        # suggested_pad reads the core's couplings first, in the same words
        with pytest.raises(OverflowError, match=f"lambda_0\\^2 = {what} is not finite"):
            suggested_pad(spec, 0, 4, 0.3)


def _padded_window_per_j(spec, core_lo, core_hi, pad, pad_hi):
    """padded_window's rule one state at a time: grow a side while the next
    state is coupled and the grown window stays buildable."""
    lo = core_lo
    while (lo > core_lo - pad and lambda_sq(spec, lo - 1) > 0.0
           and lambda_sq(spec, lo - 2) >= 0.0):
        lo -= 1
    hi = core_hi
    while (hi < core_hi + pad_hi and lambda_sq(spec, hi) > 0.0
           and lambda_sq(spec, hi + 1) >= 0.0):
        hi += 1
    return IndexWindow(lo, hi, core_lo, core_hi)


def _detect_blocks_per_j(spec, window):
    blocks, lo = [], window.j_min
    for j in range(window.j_min, window.j_max):
        if lambda_sq(spec, j) == 0.0:
            blocks.append((lo, j))
            lo = j + 1
    return blocks + [(lo, window.j_max)]


def _suggested_pad_per_j(spec, core_lo, core_hi, magnitude):
    lam_max = max(math.sqrt(max(lambda_sq(spec, j), 0.0))
                  for j in range(core_lo, core_hi + 2))
    return max(PAD_FLOOR, math.ceil(8.0 * abs(magnitude) * lam_max))


# roots within 1e-200 of an integer, and sigma small enough that lambda^2
# underflows to 0 next to a root (lambda_6^2 on (-8, -6.25, 5e-324))
_SECTOR_SPECS = _ARRAY_SPECS + [
    AlgebraSpec.parametric(*p) for p in (
        (-1e-200, -3.5, 1e-300), (1e-200, 1.75, 5e-324), (-8, -6.25, 5e-324),
        (0.49, -2.000000001, -5e-324), (5e-324, -5e-324, 1e300),
        (2.5, -3.25, -1e300), (1e200, -2, 1e-300), (1e200, 3, 0),
        (7, -8, -0.5), (0.5, 0.5, 1), (1, 3, 1), (-2.5, -2.5, -1))]


@pytest.mark.parametrize("spec", _SECTOR_SPECS)
def test_sector_reads_match_the_per_label_rules(spec):
    for core_lo, core_hi in ((-6, -6), (-3, 2), (0, 0), (0, 5), (4, 9)):
        for pad, pad_hi in ((0, 0), (2, 7), (40, 40)):
            assert (padded_window(spec, core_lo, core_hi, pad, pad_hi)
                    == _padded_window_per_j(spec, core_lo, core_hi, pad, pad_hi))
        window = IndexWindow(core_lo - 7, core_hi + 7, core_lo, core_hi)
        assert detect_blocks(spec, window) == _detect_blocks_per_j(spec, window)
        for magnitude in (0.3, 4.0):
            assert (suggested_pad(spec, core_lo, core_hi, magnitude)
                    == _suggested_pad_per_j(spec, core_lo, core_hi, magnitude))


@pytest.mark.parametrize("sigma", [2, 1, 0.5, 0.25])
def test_closure_grid_positive_sigma(sigma):
    for alpha, beta in [(1, 1), (1, 2), (2.5, 3.5), (10, 7)]:
        spec = AlgebraSpec.parametric(alpha, beta, sigma)
        m = build_matrices(spec, IndexWindow(0, 20, 2, 18))
        assert commutator_residual(m, spec) <= 1e-12


@given(st.floats(-60, 60), st.floats(-60, 60), st.floats(-4, 4),
       st.integers(-30, 30), st.integers(0, 40), st.floats(-3, 3),
       st.one_of(st.none(), st.tuples(st.integers(0, 1500),
                                      st.integers(0, 1500))))
def test_oracle_window_never_passes_its_ceiling(alpha, beta, sigma, core_lo,
                                                width, log_y, pads):
    # the window rule alone, no exponential: on either branch (the rule's
    # pad, or a product's window kept whole) a window it returns has at most
    # _ORACLE_MAX states, and a larger one is refused
    spec, core_hi = AlgebraSpec.parametric(alpha, beta, sigma), core_lo + width
    within = pads and IndexWindow(core_lo - pads[0], core_hi + pads[1],
                                  core_lo, core_hi)
    y = 10.0 ** log_y
    try:
        window = _oracle_window(spec, core_lo, core_hi, (1j * y, 1j * y, 0.0),
                                within)
    except ConvergenceError:
        return
    assert window.size <= _ORACLE_MAX


def test_oracle_window_ceiling_is_inclusive():
    # a window of _ORACLE_MAX states is kept, one state more is refused, on
    # either branch: a product's window kept whole (pads up to PAD_FLOOR) or
    # cut from the rule's pad (about 800 states here)
    spec, coeffs = AlgebraSpec.parametric(1, 1, 1), (0.1j, 0.1j, 0.0)
    for pad in (0, PAD_FLOOR, 2 * PAD_FLOOR):
        for size in (_ORACLE_MAX, _ORACLE_MAX + 1):
            within = IndexWindow(0, size - 1, 0, size - 1 - pad)
            if size == _ORACLE_MAX:
                assert _oracle_window(spec, 0, within.core_hi, coeffs,
                                      within) == within
            else:
                with pytest.raises(ConvergenceError):
                    _oracle_window(spec, 0, within.core_hi, coeffs, within)
