import cmath
import importlib
import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ladderkit import (AlgebraSpec, IndexWindow, bessel_jn, build_matrices,
                       expm, factorization_residual, gn_oracle,
                       operator_matrix, oracle_element, pad_sufficiency,
                       padded_window, phase_oracle_element, suggested_pad)
from ladderkit.algebra import squared_couplings

_EPS = np.finfo(float).eps


def _norm(a):
    return float(np.abs(a).sum(axis=1).max()) if a.size else 0.0


def _taylor_loop(a):
    """The term-by-term Taylor oracle (argument scaled to norm <= 1/2, one
    product per term), kept as the reference for the Paterson-Stockmeyer
    evaluation."""
    norm = _norm(a)
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm else 0
    b = a / 2.0 ** s
    total = np.eye(a.shape[0], dtype=complex)
    term = total.copy()
    for k in range(1, 80):
        term = term @ b / k
        total += term
        if np.abs(term).max() <= 1e-30 * np.abs(total).max():
            break
    for _ in range(s):
        total = total @ total
    return total


def test_zero_matrix():
    for n in (1, 4):
        res = expm(np.zeros((n, n)))
        assert np.array_equal(res.matrix, np.eye(n))
        assert res.remainder_bound == 0.0


@pytest.mark.parametrize("z", [0.3, -2.0, 0.5j, 1.0, 1 + 1j, -40.0, 7.5 - 3j,
                               1024j, math.nextafter(1.0, 2.0)])
def test_one_by_one_is_the_scalar_exponential(z):
    res = expm(np.array([[z]]))
    want = cmath.exp(z)
    # a relative rounding floor that grows with the squarings' doublings
    allow = 16 * _EPS * abs(want) * max(1.0, abs(z))
    assert abs(res.matrix[0, 0] - want) <= res.remainder_bound + allow
    assert abs(res.matrix[0, 0] - _taylor_loop(np.array([[z]]))[0, 0]) <= 2 * allow


def test_nilpotent_is_exact():
    y = 0.37
    a = np.array([[0.0, y], [0.0, 0.0]], dtype=complex)
    res = expm(a)
    assert np.array_equal(res.matrix, np.eye(2) + a)


def test_u1_vacuum_element_sech():
    spec = AlgebraSpec.parametric(1, 1, 1)
    window = IndexWindow(0, 20, 0, 4)
    res = expm(operator_matrix(spec, window, (0.3j, 0.3j, 0.0)))
    assert abs(res.matrix[0, 0] - 1.0 / math.cosh(0.3)) < 1e-10


def test_remainder_bound_honest_against_closed_form():
    # the scaling edge (norm 1), the squaring counts around it and one
    # squaring-heavy angle, each also one ulp above
    edges = (0.5, 1.0, 2.0, 1024.0)
    for theta in (0.3, 1.7, 11.0, *edges,
                  *(math.nextafter(t, math.inf) for t in edges)):
        a = np.array([[0.0, theta], [-theta, 0.0]], dtype=complex)
        exact = np.array([[math.cos(theta), math.sin(theta)],
                          [-math.sin(theta), math.cos(theta)]])
        res = expm(a)
        true_err = np.abs(res.matrix - exact).max()
        # rounding floor on top of the Taylor-tail bound: 64 eps, and past
        # theta = 16 the angle error each squaring doubles, about theta eps
        assert true_err <= res.remainder_bound + max(64, 4 * theta) * _EPS


def test_unitary_for_skew_hermitian():
    spec = AlgebraSpec.parametric(1, 2, 1)
    window = IndexWindow(0, 30, 0, 10)
    u = expm(operator_matrix(spec, window, (0.4j, 0.4j, 0.0))).matrix
    assert np.abs(u.conj().T @ u - np.eye(window.size)).max() <= 1e-10


def test_group_law_commuting():
    rng = np.random.default_rng(7)
    d1 = np.diag(rng.normal(size=6) + 1j * rng.normal(size=6))
    d2 = np.diag(rng.normal(size=6) + 1j * rng.normal(size=6))
    lhs = expm(d1).matrix @ expm(d2).matrix
    rhs = expm(d1 + d2).matrix
    assert np.abs(lhs - rhs).max() <= 1e-10


@pytest.mark.parametrize("spec, window", [
    (AlgebraSpec.parametric(1.5, 2.5, 0.7), IndexWindow(0, 20, 2, 18)),
    (AlgebraSpec.parametric(6, -7, -0.5), IndexWindow(-5, 7, -5, 7)),
    (AlgebraSpec.from_profile("sho"), IndexWindow(-2, 9, 0, 7)),
    (AlgebraSpec.from_profile("constant-one"), IndexWindow(-3, 5, -1, 3)),
    (AlgebraSpec.from_profile("phase"), IndexWindow(-3, 4, -1, 2)),
])
def test_operator_matrix_combines_the_generators(spec, window):
    m = build_matrices(spec, window)
    for a, b, c in ((0.3 - 1.1j, -0.7 + 0.2j, 0.45j), (1, 0, -2.5),
                    (0.5j, 0.5j, 0.0)):
        # array_equal takes -0.0 == 0.0: equal up to the sign of zeros
        assert np.array_equal(operator_matrix(spec, window, (a, b, c)),
                              a * m.L + b * m.R + c * m.S)


@pytest.mark.parametrize("spec, window", [
    (AlgebraSpec.parametric(1.5, 2.5, 0.7), IndexWindow(0, 20, 2, 18)),
    (AlgebraSpec.parametric(6, -7, -0.5), IndexWindow(-5, 7, -5, 7)),
    (AlgebraSpec.from_profile("sho"), IndexWindow(-2, 9, 0, 7)),
    (AlgebraSpec.from_profile("constant-one"), IndexWindow(-3, 5, -1, 3)),
    (AlgebraSpec.from_profile("phase"), IndexWindow(0, 59, 0, 59)),
])
def test_operator_matrix_keeps_its_bytes(spec, window):
    # against the np.diag / np.diff build it replaced: the same values and
    # the same signs of zeros, for real, imaginary and complex c
    l2 = squared_couplings(spec, window)
    lam, n = np.sqrt(l2[1:-1]), window.size
    for a, b, c in ((0.3 - 1.1j, -0.7 + 0.2j, 0.45j), (1, 0, -2.5),
                    (0.5j, 0.5j, 0.0), (-0.2j, 0.7j, -0.0),
                    (0.1, -0.1, -1.5 + 2j)):
        want = np.diag(c * np.diff(l2).astype(complex))
        want.flat[1::n + 1] = a * lam
        want.flat[n::n + 1] = b * lam
        got = operator_matrix(spec, window, (a, b, c))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_oracle_element_identity_coeffs():
    spec = AlgebraSpec.parametric(2, 3, 1)
    window = IndexWindow(-1, 14, -1, 8)
    for n in range(0, 4):
        for m in range(0, 4):
            got = oracle_element(spec, window, (0.0, 0.0, 0.0), n, m)
            assert got == (1.0 if n == m else 0.0)


def test_oracle_element_sech_tanh():
    spec = AlgebraSpec.parametric(1, 1, 1)
    window = padded_window(spec, 0, 8, 40)
    got = oracle_element(spec, window, (0.4j, 0.4j, 0.0), 1, 0)
    want = 1j / math.cosh(0.4) * math.tanh(0.4)
    assert abs(got - want) < 1e-10


def test_oracle_element_constant_profile_bessel():
    spec = AlgebraSpec.from_profile("constant-one")
    window = IndexWindow(-40, 40, -10, 10)
    got = oracle_element(spec, window, (0.5j, 0.5j, 0.0), 2, 0)
    want = (1j) ** 2 * bessel_jn(2, 1.0)
    assert abs(got - want) < 1e-12


def test_oracle_rejects_label_outside_core():
    spec = AlgebraSpec.parametric(1, 1, 1)
    window = IndexWindow(0, 20, 0, 10)
    with pytest.raises(ValueError):
        oracle_element(spec, window, (0.1j, 0.1j, 0.0), 15, 0)


def test_pad_sufficiency_small_y():
    spec = AlgebraSpec.parametric(1, 2, 1)
    window = padded_window(spec, 0, 4, 20)
    dev = pad_sufficiency(spec, window, (0.1j, 0.1j, 0.0), 2, 0)
    assert dev <= 1e-14


def test_pad_sufficiency_finite_block_exact_zero():
    spec = AlgebraSpec.parametric(6, -7, -0.5)
    window = padded_window(spec, -4, 6, 20)   # clips to the block [-5, 7]
    assert (window.j_min, window.j_max) == (-5, 7)
    assert pad_sufficiency(spec, window, (0.3j, 0.3j, 0.0), 0, 0) == 0.0


def test_pad_sufficiency_exponentiates_only_where_the_window_grows(
        monkeypatch):
    # a window that cannot grow certifies 0.0 with no oracle call; one that
    # can takes two, on the grown window and on its own
    xm = importlib.import_module("ladderkit.expm")
    calls, element = [], xm.oracle_element

    def spy(spec, window, *args):
        calls.append((window.j_min, window.j_max))
        return element(spec, window, *args)
    monkeypatch.setattr(xm, "oracle_element", spy)
    block = AlgebraSpec.parametric(7, -8, -0.5)
    window = padded_window(block, -6, 8, 16)     # the whole block -6..8
    assert (window.j_min, window.j_max) == (-6, 8)
    assert pad_sufficiency(block, window, (0.4j, 0.4j, 0.0), 8, -6) == 0.0
    assert calls == []
    tower = AlgebraSpec.parametric(1, 2, 1)
    window = padded_window(tower, 0, 4, 20)
    assert pad_sufficiency(tower, window, (0.1j, 0.1j, 0.0), 2, 0) <= 1e-14
    assert calls == [(0, 32), (0, 24)]


def test_every_oracle_caller_runs_on_the_window_rule(monkeypatch):
    # one rule sizes the oracle's window: the core +- suggested_pad at
    # max |coeffs|, each side stopping at its break; a product's window
    # caps it, and the phase oracle's dim is a floor under it.  The spy
    # reads the size of every exponent the oracle takes
    xm = importlib.import_module("ladderkit.expm")
    sizes, exponentiate = [], xm._exp

    def spy(x, parity=False):
        sizes.append(len(x))
        return exponentiate(x, parity)
    monkeypatch.setattr(xm, "_exp", spy)

    def sizes_of(call, *args, **kwargs):
        sizes.clear()
        call(*args, **kwargs)
        return sizes[:]

    # a sigma > 0 tower, its break at j = -1: core 0..3 and
    # ceil(8 * 0.5 * lambda_4) = 22 states of pad, so 0..25
    tower = AlgebraSpec.parametric(1, 2, 1)
    assert suggested_pad(tower, 0, 3, 0.5) == 22
    assert sizes_of(gn_oracle, tower, 3, 0.5) == [26]
    assert sizes_of(gn_oracle, tower, 3, 0.5, m=1) == [26]
    # the product's window 0..64 cut to core 0..4 plus the pad 16
    window = padded_window(tower, 0, 4, 60)
    assert sizes_of(factorization_residual, tower, window,
                    (0.1j, 0.1j, 0.0), "normal") == [21]
    # the spin block -20..20: core -3..3 plus 16 on each side, inside the
    # block; gn_oracle's core 0..3 at y = 0.2, padded by 24, stops at both
    # block edges
    spin = AlgebraSpec.parametric(21, -20, -0.5)
    window = padded_window(spin, -3, 3, 40)
    assert (window.j_min, window.j_max) == (-20, 20)
    assert sizes_of(factorization_residual, spin, window,
                    (0.05j, 0.05j, 0.0), "normal") == [39]
    assert suggested_pad(spin, 0, 3, 0.2) == 24
    assert sizes_of(gn_oracle, spin, 3, 0.2) == [41]
    # a product's window with both sides within the pad floor stays whole
    block = AlgebraSpec.parametric(6, -7, -0.5)
    window = padded_window(block, -4, 6, 20)     # the whole block -5..7
    assert sizes_of(factorization_residual, block, window,
                    (0.3j, 0.3j, 0.0), "normal") == [13]
    # profiles: "sho" from its break at -1, core 0..2, pad 16
    assert sizes_of(gn_oracle, AlgebraSpec.from_profile("sho"), 2, 0.5) == [19]
    # "phase": 0..50+64 at y = 8; the floor dim = 60 where the rule needs
    # 0..2+16, and the rule alone at dim = 0
    assert sizes_of(phase_oracle_element, 50, 50, 8.0) == [115]
    assert sizes_of(phase_oracle_element, 2, 1, 0.5) == [60]
    assert sizes_of(phase_oracle_element, 2, 1, 0.5, dim=0) == [19]
    assert sizes_of(phase_oracle_element, 65, 60, 1.0) == [82]


def test_pad_sufficiency_documents_underpadding():
    spec = AlgebraSpec.parametric(1, 1, 1)
    window = IndexWindow(0, 9, 0, 4)          # pad 5 at y = 3: far too thin
    dev = pad_sufficiency(spec, window, (3j, 3j, 0.0), 2, 0)
    assert dev > 1e-8


def test_expm_overflow_raises():
    with pytest.raises(OverflowError):
        expm(np.diag(np.full(3, 3000.0)))
    with pytest.raises(OverflowError):
        expm(np.array([[np.inf, 0], [0, 0]]))
    # every squaring starts finite; only the last result, e^710, overflows
    with pytest.raises(OverflowError, match="^matrix exponential overflowed$"):
        expm([[710.0]])
    # finite entries whose row sums overflow: the typed refusal alone, with
    # no numpy warning (the suite turns warnings into errors)
    with pytest.raises(OverflowError, match="^non-finite entries in exponent$"):
        expm(np.array([[1e308, 1e308], [0.0, 0.0]]))
    with pytest.raises(OverflowError, match="^non-finite entries in exponent$"):
        phase_oracle_element(2, 1, 1e308)


@pytest.mark.parametrize("a", [np.ones((2, 3)), np.ones(3), np.ones((1, 2, 2))])
def test_expm_refuses_a_non_square_exponent(a):
    with pytest.raises(ValueError, match="square"):
        expm(a)


# Rounding allowance on top of remainder_bound: _ROUNDING * eps *
# max(1, ||a||) * _frechet_scale(a) (infinity norms).  A backward error of
# eps ||a|| moves exp(a) by up to that times the norm of exp's Frechet
# derivative.  In 1500 examples of this property, with Hypothesis targeting
# the ratio, the worst was 2.5 for Paterson-Stockmeyer and 10.6 for the
# term-by-term Taylor loop it replaced; in another 1500, half of them
# imaginary exponents and a quarter chiral ones, 2.9 for complex ones, 1.4
# for the imaginary ones on the complex path and 0.82 for the chiral ones
# on the real route; in 600 random float64 exponents in real arithmetic
# (1-12 states, the same norm edges), 1.9.
_ROUNDING = 4.0


def _frechet_scale(a):
    """max over t = k/16 of ||exp(t a)|| ||exp((1 - t) a)||, which bounds the
    norm of L(a, E) = int_0^1 exp((1 - t) a) E exp(t a) dt per unit E up to
    the grid.  It is ||exp(a)|| for normal a and grows with non-normality
    (scipy's expm: a scale, not a reference)."""
    step = scipy.linalg.expm(a / 16)
    powers = [np.eye(a.shape[0])]
    for _ in range(16):
        powers.append(powers[-1] @ step)
    x = [_norm(p) for p in powers]
    return max(x[k] * x[16 - k] for k in range(17))


_COEFF = st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                            allow_infinity=False)


_REAL = st.floats(-1.5, 1.5)


@st.composite
def _exponents(draw):
    kind = draw(st.sampled_from(["sigma>0", "sigma<0", "block", "dense",
                                 "real"]))
    # half the draws of the other kinds are imaginary, i h with h real;
    # half of those are chiral, h zero wherever row + column is even, and
    # take expm's real route, the others its complex path
    imaginary = draw(st.booleans())
    chiral = imaginary and draw(st.booleans())
    if kind == "real":
        # float64, which expm exponentiates in real arithmetic
        n = draw(st.integers(1, 12))
        a = draw(arrays(float, (n, n), elements=st.floats(-4, 4)))
    elif kind == "dense" and imaginary:
        n = draw(st.integers(1, 12))
        # not symmetric in general, so i h is not normal either
        h = draw(arrays(float, (n, n), elements=st.floats(-4, 4)))
        if chiral:
            h[np.add.outer(range(n), range(n)) % 2 == 0] = 0.0
        a = 1j * h
    elif kind == "dense":
        n = draw(st.integers(1, 12))
        a = draw(arrays(complex, (n, n), elements=st.complex_numbers(
            max_magnitude=4, allow_nan=False, allow_infinity=False)))
    else:
        if imaginary:
            # i (y (R + L) + c S): the oracle's exp(iy(R+L)) at c = 0
            y = draw(_REAL)
            c = 0.0 if chiral else draw(_REAL)
            coeffs = (1j * y, 1j * y, 1j * c)
        else:
            # independent a, b, c: a*L + b*R + c*S is not normal in general
            coeffs = (draw(_COEFF), draw(_COEFF), draw(_COEFF))
        if kind == "sigma>0":
            spec = AlgebraSpec.parametric(draw(st.sampled_from([1, 1.5, 2])),
                                          draw(st.sampled_from([1, 2, 2.5])), 1)
            lo = draw(st.integers(0, 3))
            window = IndexWindow(lo, lo + draw(st.integers(1, 11)), lo, lo)
        elif kind == "sigma<0":
            # a truncated window inside -alpha < j < -beta, where lambda^2 > 0
            spec = AlgebraSpec.parametric(draw(st.sampled_from([3.5, 5, 8])),
                                          draw(st.sampled_from([-13.5, -16])),
                                          -0.5)
            lo = draw(st.integers(-2, 2))
            window = IndexWindow(lo, lo + draw(st.integers(1, 9)), lo, lo)
        else:
            # the finite block [1 - A, B] of (A, -B, -1/2), whole
            big_a = draw(st.integers(1, 6))
            big_b = draw(st.integers(max(1, 2 - big_a), 12 - big_a))
            spec = AlgebraSpec.parametric(big_a, -big_b, -0.5)
            window = IndexWindow(1 - big_a, big_b, 1 - big_a, 1 - big_a)
        a = operator_matrix(spec, window, coeffs)
    edge = draw(st.sampled_from([None, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
                                 64.0]))
    if edge is not None and _norm(a) > 0:
        # just below or just above the edge; divide first, so that a
        # subnormal norm cannot overflow the scale, and each part by itself:
        # a complex quotient takes the reciprocal of a subnormal norm, inf
        side = draw(st.sampled_from([-1.0, 1.0]))
        norm = _norm(a)
        scale = edge * (1.0 + side * 2.0 ** -40)
        if a.dtype == float:
            a = a / norm * scale
        else:
            a = (a.real / norm + 1j * (a.imag / norm)) * scale
    return a


@given(_exponents())
# 100, so that the complex exponents, now two fifths of the draws, keep
# their 40
@settings(max_examples=100, deadline=None)
def test_expm_against_mpmath_reference(a):
    res = expm(a)
    assert res.matrix.dtype == a.dtype
    with mpmath.workdps(30):
        ref = mpmath.expm(mpmath.matrix(a.tolist()))
        ref = np.array(ref.tolist(), dtype=complex)
    allow = _ROUNDING * _EPS * max(1.0, _norm(a)) * _frechet_scale(a)
    assert _norm(res.matrix - ref) <= res.remainder_bound + allow


@pytest.mark.parametrize("seed", range(6))
def test_paterson_stockmeyer_matches_the_taylor_loop(seed):
    rng = np.random.default_rng(seed)
    n = (1, 2, 6, 20, 40, 60)[seed]
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    # 1e-12, 1e-6 and 0.05 take p = 1, 2 and 3 powers
    # and i h, h real and dense, which is not chiral and takes the same path
    h = 1j * rng.normal(size=(n, n))
    for c in (a, h):
        for norm in (1e-12, 1e-6, 0.05, 0.3, 0.99, 1.01, 3.0, 11.0):
            b = c * (norm / _norm(c))
            got, want = expm(b).matrix, _taylor_loop(b)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _chiral(n, seed):
    """A real n x n matrix, zero wherever row + column is even."""
    h = np.random.default_rng(seed).normal(size=(n, n))
    h[np.add.outer(range(n), range(n)) % 2 == 0] = 0.0
    return h


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_chiral_route_matches_paterson_stockmeyer_at_every_degree(n):
    # every degree the tail rule can pick, so every layout of p and r: the
    # real polynomial in K, h with its odd rows negated, is the complex one
    # in i h up to the phase E = diag(1, i, 1, i, ...)
    xm = importlib.import_module("ladderkit.expm")
    h = _chiral(n, n)
    e = 1j ** (np.arange(n) % 2)
    for norm in (1.0, 0.5):
        b = h * (norm / _norm(h))
        k = b * (1 - 2 * (np.arange(n) % 2))[:, None]
        for m in range(1, xm._MAX_TERMS + 1):
            v = xm._taylor_ps(k, 1.0, m)
            assert v.dtype == float
            got = v / e[:, None] * e
            want = xm._taylor_ps(1j * b, 1.0, m)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _taylor_sum(b, m):
    """sum_k b^k/k! for k <= m, term by term."""
    term = total = np.eye(len(b))
    for k in range(1, m + 1):
        term = term @ b / k
        total = total + term
    return total


@pytest.mark.parametrize("n", [2, 3, 7, 40, 41])
def test_parity_evaluation_matches_the_dense_pass_at_every_degree(n):
    # every degree the parity tail rule can pick, so every layout of p and
    # r: the polynomial on the parity blocks of K^2 is the dense one in K
    # (term by term past the dense cap), on even and odd sizes, up to the
    # parity evaluation's scaled norm 2, with the scale applied before the
    # split or not
    xm = importlib.import_module("ladderkit.expm")
    k = _chiral(n, n + 1)
    for norm, scale in ((2.0, 1.0), (1.0, 1.0), (0.5, 1.0), (4.0, 0.25)):
        b = k * (norm / _norm(k))
        for m in range(1, xm._PARITY_TERMS + 1):
            got = xm._taylor_ps(b, scale, m, True)
            want = (xm._taylor_ps(b, scale, m) if m <= xm._MAX_TERMS
                    else _taylor_sum(b * scale, m))
            assert got.dtype == float and got.flags.c_contiguous
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_parity_layouts_take_the_fewest_products_and_hold_the_three_series():
    # series E, O and F in Y = b^2 hold 1/(2j)!, 1/(2j + 1)! and 1/(2j + 2)!
    # on Y^j, each while 2j + s <= m; p takes the fewest products for three
    # stacked series, p - 1 + 3 r; one layout for every degree the parity
    # tail rule can pick (test_tail_rule_needs_exactly_the_table_degrees)
    xm = importlib.import_module("ladderkit.expm")
    assert len(xm._PARITY_ROWS) == xm._PARITY_TERMS + 1
    for m in range(1, xm._PARITY_TERMS + 1):
        coefs, diag = xm._PARITY_ROWS[m]
        assert coefs.dtype == diag.dtype == float
        assert coefs.flags.c_contiguous and diag.flags.c_contiguous
        rows, p = coefs.shape
        d = m // 2

        def cost(q):
            return q - 1 + 3 * ((d - 1) // q)
        assert cost(p) == min(map(cost, range(1, max(d, 1) + 1)))
        r = max(0, (d - 1) // p)
        assert rows == 3 * (r + 1) and diag.shape == (rows, 1)
        for s in range(3):
            terms = {}
            for i in range(r + 1):
                row = 3 * i + s
                for j, coef in enumerate([diag[row, 0], *coefs[row]]):
                    if coef:
                        assert i * p + j not in terms
                        terms[i * p + j] = coef
            assert set(terms) == set(range((m - s) // 2 + 1))
            for j, coef in terms.items():
                assert coef == pytest.approx(1 / math.factorial(2 * j + s),
                                             rel=4 * _EPS)


def test_the_parity_evaluation_starts_at_the_break_even(monkeypatch):
    # chiral float64 exponents from _PARITY_MIN states up, the chiral
    # route's K among them; smaller ones, one same-parity entry and complex
    # exponents take the dense pass
    xm = importlib.import_module("ladderkit.expm")
    calls = _spy_taylor_ps(monkeypatch)
    for n in (xm._PARITY_MIN - 1, xm._PARITY_MIN):
        h = _chiral(n, n)
        same_parity = h.copy()
        same_parity[n - 1, n - 1] = 1e-300
        for a in (h, 1j * h, same_parity, h.astype(complex)):
            expm(a)
    assert [parity for *_, parity in calls] == [False] * 4 + [True, True,
                                                             False, False]


@pytest.mark.parametrize("spec, window, y", [
    (AlgebraSpec.from_profile("phase"), IndexWindow(0, 33, 0, 0), 0.9),
    (AlgebraSpec.parametric(1, 2, 1), IndexWindow(0, 32, 0, 0), 0.3),
])
def test_parity_evaluation_against_mpmath_past_the_break_even(
        monkeypatch, spec, window, y):
    # exp(iy(R + L)) on windows that take the parity evaluation, with no
    # squaring and four, within the property test's allowance
    calls = _spy_taylor_ps(monkeypatch)
    a = operator_matrix(spec, window, (1j * y, 1j * y, 0.0))
    res = expm(a)
    assert [parity for *_, parity in calls] == [True]
    with mpmath.workdps(30):
        ref = mpmath.expm(mpmath.matrix(a.tolist()))
        ref = np.array(ref.tolist(), dtype=complex)
    allow = _ROUNDING * _EPS * max(1.0, _norm(a)) * _frechet_scale(a)
    assert _norm(res.matrix - ref) <= res.remainder_bound + allow


def _fixed_point_exp(k, bits=200):
    """exp(k) for a real tridiagonal k, rounded to float64 from fixed point
    with ``bits`` fractional bits (numpy object arrays of Python ints, whose
    products are exact): the Taylor series of k / 2^s, s such that its
    norm is at most 1/16, term by term until a term truncates to zero, then
    s squarings.  Each step truncates by at most 2^-bits per entry, far
    below float64 rounding: an independent high-precision reference that
    runs in about a second at 84 states, where 30-digit ``mpmath.expm``
    takes about 20 s."""
    n = len(k)
    norm = _norm(k)
    s = max(0, math.ceil(math.log2(norm * 16))) if norm else 0

    def fixed(band):
        # exact: a float times a power of two
        return np.array([int(math.ldexp(x, bits - s)) for x in band],
                        dtype=object)
    diag, up, low = fixed(np.diag(k)), fixed(np.diag(k, 1)), fixed(np.diag(k, -1))
    term = np.zeros((n, n), dtype=object)
    term[range(n), range(n)] = 1 << bits
    total = term.copy()
    j = 0
    while any(term.flat):
        j += 1
        # term @ k, column j from columns j - 1, j and j + 1 of term
        step = term * diag
        step[:, 1:] += term[:, :-1] * up
        step[:, :-1] += term[:, 1:] * low
        term = (step >> bits) // j
        total += term
    for _ in range(s):
        total = (total @ total) >> bits
    return np.array([[x / (1 << bits) for x in row] for row in total])


def test_the_fixed_point_reference_matches_mpmath():
    # 40-digit mpmath on exp(iy(R + L))'s K at 12 states, nine squarings
    a = operator_matrix(AlgebraSpec.parametric(1, 1, 1), IndexWindow(0, 11, 0, 0),
                        (1.2j, 1.2j, 0.0))
    k = a.imag * (1 - 2 * (np.arange(12) % 2))[:, None]
    with mpmath.workdps(40):
        want = np.array(mpmath.expm(mpmath.matrix(k.tolist())).tolist(),
                        dtype=float)
    got = _fixed_point_exp(k)
    assert np.abs(got - want).max() <= _EPS * np.abs(want).max()


def _phased(v):
    """E^-1 v E for E = diag(1, i, 1, i, ...): exp(i h) from exp(K)."""
    e = 1j ** (np.arange(len(v)) % 2)
    return v / e[:, None] * e


@pytest.mark.parametrize("n", [27, 40])
def test_the_parity_evaluation_takes_one_squaring_fewer(monkeypatch, n):
    # exp(iy(R + L)) on constant-one, K with y on both off-diagonals: norm
    # exactly 2y.  Past the break-even the parity evaluation scales to norm
    # <= 2, so where 2y lies in (2^k, 2^(k+1)] it takes k squarings, one
    # fewer than the dense rule, which the same K with one tiny same-parity
    # entry takes; none on both at 2y <= 1.  The remainder bound stays
    # honest against the fixed-point reference
    xm = importlib.import_module("ladderkit.expm")
    assert n >= xm._PARITY_MIN
    scales = []
    calls = _spy_taylor_ps(monkeypatch, scales)
    spec = AlgebraSpec.from_profile("constant-one")
    for norm, squarings in ((0.5, 0), (1.0, 0), (1.0 + 2.0 ** -40, 0),
                            (2.0, 0), (2.0 + 2.0 ** -39, 1), (4.0, 1),
                            (64.0, 5), (64.0 + 2.0 ** -34, 6)):
        a = operator_matrix(spec, IndexWindow(0, n - 1, 0, 0),
                            (0.5j * norm, 0.5j * norm, 0.0))
        assert _norm(a) == norm
        k = xm._odd_rows_negated(a.imag.copy())
        dense = k.copy()
        dense[n - 1, n - 1] = 1e-300
        del calls[:], scales[:]
        res = expm(a)
        expm(dense)
        assert [parity for *_, parity in calls] == [True, False]
        assert scales == [2.0 ** -squarings,
                          2.0 ** -(squarings + (norm > 1.0))]
        allow = _ROUNDING * _EPS * max(1.0, norm) * _frechet_scale(a)
        ref = _phased(_fixed_point_exp(k))
        assert _norm(res.matrix - ref) <= res.remainder_bound + allow


@pytest.mark.parametrize("spec, window, y", [
    (AlgebraSpec.from_profile("phase"), IndexWindow(0, 59, 0, 0), 0.6),
    (AlgebraSpec.from_profile("phase"), IndexWindow(0, 59, 0, 0), 0.95),
    # gn_oracle's windows for n = 6 at y = 0.75 and 1.2
    (AlgebraSpec.parametric(2, 3, 1), IndexWindow(-1, 63, 0, 6), 0.75),
    (AlgebraSpec.parametric(1, 1, 1), IndexWindow(0, 83, 0, 6), 1.2),
])
def test_parity_evaluation_against_the_fixed_point_reference(
        monkeypatch, spec, window, y):
    # the oracle's exp(iy(R + L)) at 60-84 states, norms 1.2 to 238, within
    # the property test's allowance; the tail target keeps the remainder
    # bound far below rounding
    calls = _spy_taylor_ps(monkeypatch)
    a = operator_matrix(spec, window, (1j * y, 1j * y, 0.0))
    res = expm(a)
    assert [parity for *_, parity in calls] == [True]
    ref = _phased(_fixed_point_exp(a.imag * (1 - 2 * (np.arange(len(a)) % 2))[:, None]))
    allow = _ROUNDING * _EPS * max(1.0, _norm(a)) * _frechet_scale(a)
    assert _norm(res.matrix - ref) <= res.remainder_bound + allow
    assert res.remainder_bound <= 1e-19


def test_a_real_part_past_the_first_two_entries_takes_the_complex_path():
    # a[0, 0] and a[0, 1] are imaginary and the imaginary part is chiral, so
    # only the full scan sees the real part; the real route would drop it
    a = 1j * _chiral(5, 3)
    a[4, 2] += 0.7
    want = scipy.linalg.expm(a)
    assert np.abs(expm(a).matrix - want).max() <= 1e-13 * np.abs(want).max()


def _spy_taylor_ps(monkeypatch, scales=None):
    """Record (dtype, degree, parity) of every ``_taylor_ps`` call, and its
    scale 2^-s, s the squarings that follow, in ``scales`` when given."""
    xm = importlib.import_module("ladderkit.expm")
    calls, evaluate = [], xm._taylor_ps

    def run(a, scale, m, parity=False):
        calls.append((a.dtype, m, parity))
        if scales is not None:
            scales.append(scale)
        return evaluate(a, scale, m, parity)
    monkeypatch.setattr(xm, "_taylor_ps", run)
    return calls


def test_tail_rule_needs_exactly_the_table_degrees(monkeypatch):
    # the scaled norm is at most 1 on the dense passes and 2 on the parity
    # evaluation, where the tail rule takes the most terms: there it stops
    # at the last degree the path's tables hold, with its tail bound met,
    # and below it it stops sooner; the same degrees for complex exponents,
    # real ones and chiral ones, which take the real route, and chiral ones
    # past the break-even, which take the parity evaluation
    xm = importlib.import_module("ladderkit.expm")
    calls = _spy_taylor_ps(monkeypatch)
    norms = (1.0, 0.5, 1e-3)
    bounds = [expm(np.array([[nb]], dtype=complex)).remainder_bound
              for nb in norms]
    bounds += [expm(np.array([[nb]])).remainder_bound for nb in norms]
    bounds += [expm(np.array([[0, nb], [nb, 0]]) * 1j).remainder_bound
               for nb in norms]
    # nb on the first superdiagonal, where row + column is odd: norm nb
    shift = np.eye(xm._PARITY_MIN + 1, k=1)
    bounds += [expm(shift * nb).remainder_bound for nb in (2.0, *norms)]
    degrees = [xm._MAX_TERMS, 20, 7]
    assert calls == ([(complex, m, False) for m in degrees]
                     + [(float, m, False) for m in degrees]
                     + [(float, m, False) for m in degrees]
                     + [(float, m, True) for m in (xm._PARITY_TERMS, 25, 20, 7)])
    assert xm._MAX_TERMS == len(xm._RE_ROWS) - 1 == len(xm._PS_ROWS) - 1
    assert xm._PARITY_TERMS == len(xm._PARITY_ROWS) - 1
    assert max(bounds) <= xm._TAIL_TOL
    # one term fewer would leave the tail above the tolerance at norm 1 on
    # the dense passes and at norm 2 on the parity evaluation
    for m, nb in ((xm._MAX_TERMS - 1, 1.0), (xm._PARITY_TERMS - 1, 2.0)):
        tail = xm._INV_FACT[m + 1] * nb ** (m + 1) / (1.0 - nb / (m + 2))
        assert tail > xm._TAIL_TOL


@pytest.mark.parametrize("table, dtype", [("_RE_ROWS", float),
                                          ("_PS_ROWS", complex)])
def test_layouts_take_the_fewest_products_and_hold_the_taylor_terms(
        table, dtype):
    # one layout of exp(b) in b per degree the dense tail rule can pick:
    # real, and its complex cast
    xm = importlib.import_module("ladderkit.expm")
    assert len(getattr(xm, table)) == xm._MAX_TERMS + 1
    for m in range(1, xm._MAX_TERMS + 1):
        coefs, diag = getattr(xm, table)[m]
        assert coefs.dtype == diag.dtype == dtype
        for got, real in zip((coefs, diag), xm._layout(m, 1)):
            assert got.flags.c_contiguous
            assert got.tobytes() == real.astype(dtype).tobytes()
        rows, p = coefs.shape

        def cost(q):
            return q - 1 + (m - 1) // q
        candidates = range(1, m + 1)
        fewest = min(map(cost, candidates))
        ties = [q for q in candidates if cost(q) == fewest]
        assert cost(p) == fewest
        assert abs(p - math.isqrt(m)) == min(abs(q - math.isqrt(m)) for q in ties)
        assert rows == (m - 1) // p + 1 and diag.shape == (rows, 1)
        # row i is block i: its diagonal on b^(ip), its column j - 1 on
        # b^(ip + j); no term is zero, so every non-zero entry is one term,
        # placed once
        terms = {}
        for i in range(rows):
            for j, coef in enumerate([diag[i, 0], *coefs[i]]):
                if coef:
                    assert i * p + j not in terms
                    terms[i * p + j] = coef
        assert set(terms) == set(range(m + 1))
        for k in range(m + 1):
            assert terms[k] == pytest.approx(1 / math.factorial(k), rel=4 * _EPS)


@pytest.mark.parametrize("form", ["complex", "chiral", "imaginary", "real"])
def test_expm_leaves_its_argument_unchanged(form):
    # the chiral route builds K, h with its odd rows negated, in a new
    # array: a.imag is a view of the caller's matrix; a float64 exponent
    # goes to the core as it is
    h = _chiral(6, 5)
    a = {"complex": h + 0.5j * h, "chiral": 1j * h,
         "imaginary": 1j * (h + np.eye(6)), "real": h + np.eye(6)}[form]
    keep = a.copy()
    expm(a)
    assert a.tobytes() == keep.tobytes()


@pytest.mark.parametrize("n", range(7))
def test_the_chiral_test_reads_every_same_parity_entry(n):
    # one tiny entry anywhere row + column is even makes h not chiral, on
    # even and odd sizes, C-ordered, F-ordered and as the imaginary part of
    # a complex array
    xm = importlib.import_module("ladderkit.expm")
    h = _chiral(n, n)
    assert xm._is_chiral(h) and xm._is_chiral(np.asfortranarray(h))
    assert xm._is_chiral((1j * h).imag)
    for i, j in itertools.product(range(n), repeat=2):
        g = h.copy()
        g[i, j] = 1e-300
        chiral = (i + j) % 2 == 1
        assert xm._is_chiral(g) == chiral
        assert xm._is_chiral(np.asfortranarray(g)) == chiral
        assert xm._is_chiral((1j * g).imag) == chiral


def test_one_same_parity_entry_takes_the_complex_path(monkeypatch):
    # the chiral test is exact: a single tiny entry where row + column is
    # even leaves the real route, and the complex path keeps it
    calls = _spy_taylor_ps(monkeypatch)
    a = 1j * _chiral(7, 2)
    a[6, 6] = 1e-300j
    got = expm(a).matrix
    assert [dtype for dtype, *_ in calls] == [complex]
    want = scipy.linalg.expm(a)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_a_float64_exponent_stays_real(n):
    # K, h with its odd rows negated, exponentiated as it is, is the real
    # matrix behind the chiral route's exp(i h): the same bits before the
    # phase, and the same bound
    h = _chiral(n, n) * 3.0
    k = h * (1 - 2 * (np.arange(n) % 2))[:, None]
    real, phased = expm(k), expm(1j * h)
    assert real.matrix.dtype == float
    behind = phased.matrix.real.copy()
    behind[::2, 1::2] = phased.matrix.imag[::2, 1::2]
    behind[1::2, ::2] = -phased.matrix.imag[1::2, ::2]
    assert real.matrix.tobytes() == behind.tobytes()
    assert real.remainder_bound == phased.remainder_bound
    assert expm(np.zeros((n, n))).matrix.dtype == float


def _same(z, w):
    """z == w, with the same signs of zero."""
    return z == w and all(math.copysign(1.0, p) == math.copysign(1.0, q)
                          for p, q in ((z.real, w.real), (z.imag, w.imag)))


@pytest.mark.parametrize("spec, window", [
    (AlgebraSpec.parametric(1, 1, 1), IndexWindow(0, 17, 0, 5)),
    # lambda_-1 = 0: a zero on both off-diagonal bands
    (AlgebraSpec.parametric(1, 1, 1), IndexWindow(-1, 12, -1, 3)),
    (AlgebraSpec.parametric(1.5, 2.5, 0.7), IndexWindow(1, 20, 1, 6)),
    (AlgebraSpec.parametric(6, -7, -0.5), IndexWindow(-5, 7, -5, 7)),
    (AlgebraSpec.from_profile("sho"), IndexWindow(-2, 9, 0, 5)),
    (AlgebraSpec.from_profile("constant-one"), IndexWindow(-7, 8, -3, 3)),
    (AlgebraSpec.from_profile("constant-one"), IndexWindow(-15, 15, -3, 3)),
    (AlgebraSpec.from_profile("phase"), IndexWindow(0, 29, 0, 5)),
    (AlgebraSpec.parametric(1, 2, 1), IndexWindow(0, 40, 0, 5)),
])
def test_oracle_element_reads_the_chiral_route_bit_for_bit(spec, window):
    # at (iy, iy, c) oracle_element builds K from the couplings and phases
    # one element where the exponent is chiral: c = 0, or any c on
    # constant-one, where S is zero; it must give what the complex exponent
    # gives through expm, for n > m and n < m on both parities of the
    # window index, at y = 0 (expm returns the identity there, +0.0 off the
    # diagonal), where entries underflow to signed zeros, with zero
    # coefficients of either sign, and with a != b
    labels = range(window.core_lo, window.core_hi + 1)
    for y, b, c in itertools.product((0.0, 1e-300, 0.3, -1.1, 2.5),
                                     (1.0, -0.5), (0.0, -0.0, 0.7j, -0.4j, 0.2)):
        coeffs = (complex(0.0, y), complex(-0.0, y * b), c)
        full = expm(operator_matrix(spec, window, coeffs)).matrix
        for n in labels:
            for m in labels:
                got = oracle_element(spec, window, coeffs, n, m)
                want = complex(full[window.idx(n), window.idx(m)])
                assert _same(got, want), (y, b, c, n, m, got, want)


def test_oracle_element_makes_one_expm_call(monkeypatch):
    # one traced expm call per element: on a float64 K for exp(iy(R+L)),
    # on the complex exponent otherwise, and likewise through the callers
    xm = importlib.import_module("ladderkit.expm")
    dtypes, exponentiate = [], xm.expm

    def run(a):
        dtypes.append(np.asarray(a).dtype)
        return exponentiate(a)
    monkeypatch.setattr(xm, "expm", run)
    spec = AlgebraSpec.parametric(1, 2, 1)
    window = IndexWindow(0, 20, 0, 4)
    oracle_element(spec, window, (0.4j, 0.4j, 0.0), 3, 0)
    assert dtypes == [float]
    oracle_element(spec, window, (0.4j, 0.4j, 0.2j), 3, 0)
    oracle_element(spec, window, (0.4, 0.4j, 0.0), 3, 0)
    assert dtypes == [float, complex, complex]
    dtypes.clear()
    gn_oracle(spec, 2, 0.5)
    phase_oracle_element(2, 1, 0.5)
    pad_sufficiency(spec, window, (0.1j, 0.1j, 0.0), 2, 0)
    assert dtypes == [float] * 4
