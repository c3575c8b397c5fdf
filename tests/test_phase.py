from fractions import Fraction

import mpmath
import numpy as np
import pytest

from diagram_references import phase_recursion_residual
from exact_series import phase_gn_series, phase_gnm_series
from ladderkit import (AlgebraSpec, IndexWindow, bessel_jn, build_matrices,
                       column_series, generate, phase_element, phase_gnm,
                       phase_oracle_element, sumrule_check, unit_rule)

PHASE = AlgebraSpec.from_profile("phase")


def test_shift_action():
    # (P, P_dagger) are the (L, R) of the phase profile
    m = build_matrices(PHASE, IndexWindow(0, 4, 0, 4))
    p, pd = m.L, m.R
    e2 = np.zeros(5)
    e2[2] = 1
    assert np.array_equal(p @ e2, np.eye(5)[1])
    assert np.array_equal(pd @ e2, np.eye(5)[3])
    assert np.array_equal(p @ np.eye(5)[0], np.zeros(5))


def test_commutator_unit_impulse():
    for dim in (4, 16, 60):
        m = build_matrices(PHASE, IndexWindow(0, dim - 1, 0, dim - 1))
        c = m.L @ m.R - m.R @ m.L
        assert c[0, 0] == 1
        # exact away from the truncation corner
        interior = c.copy()
        interior[0, 0] = 0
        interior[dim - 1, dim - 1] = 0
        assert not interior.any()
        assert c[dim - 1, dim - 1] == -1   # top state has nowhere to go


def test_element_trivial_point():
    assert phase_element(0, 0, 0.0) == 1.0
    assert phase_element(3, 3, 0.0) == 1.0
    assert phase_element(2, 0, 0.0) == 0.0


def test_gn_closed_form_vs_bessel_quotient():
    for n in range(5):
        for y in (0.3, 0.8, 1.0):
            want = (n + 1) * bessel_jn(n + 1, 2 * y) / y
            assert abs(phase_gnm(n, 0, y) - want) < 1e-13


def test_gnm_against_mpmath():
    # n, m <= 12 over the Bessel domain 2y <= 17, y = 8.5 included
    with mpmath.workdps(30):
        for k in range(101):
            y = 8.5 * k / 100
            j = {o: mpmath.besselj(o, 2 * y) for o in range(-12, 27)}
            for n in range(13):
                for m in range(13):
                    want = j[n - m] + (-1) ** m * j[n + m + 2]
                    err = abs(mpmath.mpf(phase_gnm(n, m, y)) - want)
                    assert err <= 1e-15, (n, m, y)


def test_gn_regular_at_zero():
    assert phase_gnm(0, 0, 0.0) == 1.0
    for n in range(1, 5):
        assert phase_gnm(n, 0, 0.0) == 0.0


def test_gn_leading_series():
    # G_1(y) = y - 2 y^3/3! + 5 y^5/5! + ...
    y = 0.05
    poly = y - 2 * y ** 3 / 6 + 5 * y ** 5 / 120
    assert abs(phase_gnm(1, 0, y) - poly) < y ** 7
    coeffs = phase_gn_series(1, 8)
    assert coeffs[1] == 1
    assert coeffs[3] == Fraction(-2, 6)
    assert coeffs[5] == Fraction(5, 120)


def test_element_matches_oracle():
    for y in (0.5, 1.0):
        for n in range(0, 11, 2):
            for m in range(0, 11, 3):
                dev = abs(phase_element(n, m, y)
                          - phase_oracle_element(n, m, y, dim=60))
                assert dev <= 1e-10


def test_oracle_dim_is_a_floor_under_the_window_rule():
    # on 60 states (50, 50) at y = 8 was off by 0.0173; the oracle's window
    # rule pads the core 0..50 by 8 * 8 = 64 states, to 0..114
    assert abs(phase_oracle_element(50, 50, 8.0)
               - phase_element(50, 50, 8.0)) <= 1e-10
    # max(n, m) >= dim is answered on the rule's window
    for n, m in ((65, 60), (61, 58), (60, 60)):
        assert abs(phase_oracle_element(n, m, 1.0, dim=60)
                   - phase_element(n, m, 1.0)) <= 1e-10
    for n, m in ((-1, 2), (3, -1), (-1, -1)):
        with pytest.raises(ValueError):
            phase_oracle_element(n, m, 0.5)


def test_gnm_columns_match_path_counts():
    # the lattice-path diagrams code exactly the Taylor series of G_nm
    for m in (0, 1, 2):
        d = generate(unit_rule(), "triangular", m, 12)
        for n in range(0, 5):
            got = {r: c for r, c in column_series(d, n)}
            want = phase_gnm_series(n, m, 12)
            for r, c in got.items():
                assert c == want[r]
    for n, m in ((-1, 0), (1, -1)):
        with pytest.raises(ValueError, match="n, m >= 0"):
            phase_gnm(n, m, 0.3)


def test_recursion_residuals():
    assert phase_recursion_residual(0, 0.5) <= 1e-8
    assert phase_recursion_residual(3, 1.0) <= 1e-8
    # parity makes the central difference regular at y = 0 as well
    assert phase_recursion_residual(2, 0.0) <= 1e-8


def test_sum_rules_delegated():
    for name in ("phase-unity", "phase-integral"):
        for y in (0.4, 1.0):
            assert sumrule_check(name, y, 16) <= 1e-10
