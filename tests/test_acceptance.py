"""Acceptance gate: every headline guarantee of the package, one test per
criterion, each printing a PASS/FAIL line with its worst observed metric.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math

import numpy as np

from exact_series import sech_tanh_series
from ladderkit import (AlgebraSpec, IndexWindow, antinormal_reach,
                       build_matrices, commutator_residual, expm,
                       factorization_residual, gn_closed, gn_series, gnm,
                       j1_reference_matrix, j1_xaxis_reference, m_rephasing,
                       operator_matrix, pad_sufficiency, padded_window,
                       path_count_diagram, phase_commutator, phase_element,
                       phase_recursion_residual, recursion_residual,
                       rotation_direct, rotation_factorized,
                       antinormal_rotation, RotationSpec, sumrule_check,
                       suggested_pad, u2_factors, generate,
                       tilde_rule, bar_rule, gauss_tilde_rule,
                       gauss_bar_rule, unit_rule,
                       variant_recursion_residual)


def report(num, name, ok, detail):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_closure():
    sigmas = [2.0, 1.0, 0.5, 0.25, -2.0, -1.0, -0.5, -0.25]
    pos_pairs = [(1, 1), (1, 2), (2, 3), (1.5, 2.5), (10, 7), (4.25, 6.75),
                 (1, 0.5)]
    neg_pairs = [(5, -6), (3, -8), (10, -10), (2.5, -7.5), (4, -4),
                 (6.5, -9.5), (1, -8)]
    worst, count = 0.0, 0
    for sigma in sigmas:
        pairs = pos_pairs if sigma > 0 else neg_pairs
        for alpha, beta in pairs:
            spec = AlgebraSpec.parametric(alpha, beta, sigma)
            if sigma > 0:
                window = IndexWindow(1, 24, 3, 22)
            else:
                lo = math.ceil(1 - alpha)
                hi = math.floor(-beta)
                window = IndexWindow(lo, hi, lo + 2, hi - 2)
            assert window.size <= 48
            m = build_matrices(spec, window)
            worst = max(worst, commutator_residual(m, spec))
            count += 1
    report(1, "closure", count >= 50 and worst <= 1e-12,
           f"{count} specs, worst residual {worst:.3e}")


def _u1_points():
    su2 = AlgebraSpec.parametric(7, -8, -0.5)      # 15-state block [-6, 8]
    return ([(AlgebraSpec.parametric(a, b, 1), (0, 11), y)
             for (a, b) in [(1, 1), (1, 2)] for y in (0.2, 0.5, 0.8)]
            + [(su2, (-5, 6), y) for y in (0.4, 0.8, 1.1)])


def test_criterion_02_u1_factorization():
    worst_n, worst_a, worst_pad = 0.0, 0.0, 0.0
    for spec, (c_lo, c_hi), y in _u1_points():
        coeffs = (1j * y, 1j * y, 0.0)
        pad = suggested_pad(spec, c_lo, c_hi, y)
        window = padded_window(spec, c_lo, c_hi, pad)
        worst_n = max(worst_n, factorization_residual(spec, window, coeffs,
                                                      "normal"))
        worst_pad = max(worst_pad, pad_sufficiency(spec, window, coeffs,
                                                   c_hi, c_hi))
        # the reverse ordering converges much more slowly in the index sum:
        # pad it by its own reach estimate (rule padding is a floor)
        reach = antinormal_reach(spec, c_hi, coeffs)
        window_a = padded_window(spec, c_lo, c_hi, pad,
                                 max(pad, reach - c_hi))
        worst_a = max(worst_a, factorization_residual(spec, window_a, coeffs,
                                                      "anti-normal"))
    ok = worst_n <= 1e-10 and worst_a <= 1e-10 and worst_pad <= 1e-12
    report(2, "ordered factorization of exp(iy(R+L))", ok,
           f"normal {worst_n:.3e}, anti {worst_a:.3e}, pad {worst_pad:.3e}")


def test_criterion_03_u2_factorization():
    rng = np.random.default_rng(20260810)
    cases = []
    spec_a = AlgebraSpec.parametric(1, 2, 1)
    spec_b = AlgebraSpec.parametric(6, -7, -0.5)
    for k in range(20):
        a = complex(rng.normal(), rng.normal()) * 0.2
        b = complex(rng.normal(), rng.normal()) * 0.2
        c = complex(rng.normal(), rng.normal()) * 0.1
        cases.append((spec_a if k % 2 == 0 else spec_b, (a, b, c)))
    worst = 0.0
    for spec, coeffs in cases:
        si = spec.sigma
        q = abs(coeffs[0] * coeffs[1] * si - coeffs[2] ** 2 * si * si) ** 0.5
        assert q <= 1.0
        mag = max(abs(x) for x in coeffs)
        if spec is spec_a:
            window = padded_window(spec, 0, 9, suggested_pad(spec, 0, 9, mag))
        else:
            window = padded_window(spec, -5, 7, 20)
        for ordering in ("normal", "anti-normal"):
            worst = max(worst, factorization_residual(spec, window, coeffs,
                                                      ordering))
    # exact reduction at (iy, iy, 0)
    y = 0.4
    u = y * math.sqrt(spec_a.sigma)
    fac = u2_factors(spec_a, 1j * y, 1j * y, 0.0)
    red = max(max(abs(f - math.tanh(u) / u), abs(g - 1 / math.cosh(u)))
              for f, g in ((fac.f_plus, fac.g_plus), (fac.f_minus, fac.g_minus)))
    ok = worst <= 1e-10 and red <= 1e-12
    report(3, "general-exponential factorization", ok,
           f"20 random points worst {worst:.3e}, reduction {red:.3e}")


def test_criterion_04_gn_routes():
    specs = [(1, 1), (1, 2), (1, 0.5), (2, 3)]
    worst_cs, worst_co, worst_sym = 0.0, 0.0, 0.0
    for alpha, beta in specs:
        spec = AlgebraSpec.parametric(alpha, beta, 1)
        swapped = AlgebraSpec.parametric(beta, alpha, 1)
        lo = padded_window(spec, 0, 6, 2).j_min   # block-aligned bottom
        for y in (0.1, 0.3, 0.5):
            window = padded_window(spec, lo, 6,
                                   suggested_pad(spec, 0, 6, y))
            u = expm(operator_matrix(spec, window, (1j * y, 1j * y, 0))).matrix
            for n in range(7):
                closed = gn_closed(spec, n, y).value
                series = gn_series(spec, n, y).value
                orc = ((-1j) ** n * u[window.idx(n), window.idx(0)])
                worst_cs = max(worst_cs, abs(closed - series))
                worst_co = max(worst_co, abs(closed - orc.real),
                               abs(orc.imag))
                worst_sym = max(worst_sym,
                                abs(closed - gn_closed(swapped, n, y).value))
    ok = worst_cs <= 1e-9 and worst_co <= 1e-9 and worst_sym <= 1e-13
    report(4, "amplitude route agreement", ok,
           f"closed/series {worst_cs:.3e}, closed/oracle {worst_co:.3e},"
           f" exchange {worst_sym:.3e}")


def test_criterion_05_recursions():
    worst = 0.0
    ys = (0.2, 0.5, 1.0)
    for alpha, beta in [(1, 1), (1, 2), (1, 0.5), (2, 3)]:
        spec = AlgebraSpec.parametric(alpha, beta, 1)
        for n in range(6):
            for y in ys:
                worst = max(worst, recursion_residual(spec, n, y))
    for profile in ("constant-one", "sho"):
        spec = AlgebraSpec.from_profile(profile)
        for n in range(6):
            for y in ys:
                worst = max(worst, recursion_residual(spec, n, y))
    for p in (0.5, 1.0, 2.0):
        for which in ("tilde", "bar"):
            for n in range(6):
                for y in ys:
                    worst = max(worst,
                                variant_recursion_residual(p, n, y, which))
    for n in range(6):
        for y in ys:
            worst = max(worst, phase_recursion_residual(n, y))
    report(5, "two-term derivative recursions", worst <= 1e-8,
           f"worst central-difference residual {worst:.3e}")


def _col(d, n):
    return [int(d.value(r, n)) for r in range(d.num_rows)
            if d.value(r, n) != 0]


def test_criterion_06_integer_sequences():
    checks = []

    d = generate(tilde_rule(1), "triangular", 0, 7)
    checks.append(_col(d, 0) == [1, 1, 5, 61])

    d = generate(tilde_rule(2), "triangular", 0, 7)
    checks.append(_col(d, 0) == [1, 2, 16, 272])
    checks.append(_col(d, 1) == [1, 8, 136])
    checks.append(_col(d, 2)[:2] == [2, 40])

    d = generate(bar_rule(2), "triangular", 0, 7)
    checks.append(_col(d, 0) == [1, 2, 16, 272])
    checks.append(_col(d, 1)[:3] == [2, 16, 272])
    checks.append(d.value(2, 2) == 6 and d.value(3, 3) == 24
                  and d.value(4, 2) == 120)

    d = generate(gauss_tilde_rule(), "triangular", 0, 7)
    checks.append(_col(d, 0) == [1, 1, 3, 15])
    d = generate(gauss_bar_rule(), "triangular", 0, 7)
    checks.append(_col(d, 0) == [1, 1, 3, 15])
    checks.append(d.value(4, 2) == 12)

    d = generate(unit_rule(), "diamond", 0, 7)
    checks.append([d.value(4, n) for n in (-4, -2, 0, 2, 4)] == [1, 4, 6, 4, 1])
    checks.append([d.value(r, 0) for r in (0, 2, 4, 6)] == [1, 2, 6, 20])
    checks.append(d.value(5, -1) == 10 and d.value(5, 1) == 10)
    checks.append([d.value(3, n) for n in (-3, -1, 1, 3)] == [1, 3, 3, 1])

    d0 = path_count_diagram(0, 10)
    checks.append(_col(d0, 0) == [1, 1, 2, 5, 14])
    d1 = path_count_diagram(1, 9)
    checks.append(_col(d1, 0) == [1, 2, 5, 14])
    checks.append(d1.value(3, 2) == 3 and d1.value(4, 3) == 4
                  and d1.value(5, 2) == 9 and d1.value(6, 1) == 14)
    d2 = path_count_diagram(2, 10)
    checks.append(_col(d2, 0) == [1, 3, 9, 28])
    checks.append(d2.value(4, 2) == 6 and d2.value(5, 3) == 10
                  and d2.value(6, 2) == 19 and d2.value(7, 1) == 28)

    # independent route: the same numbers out of exact Taylor algebra
    sech = sech_tanh_series(1, 0, 8)
    checks.append([abs(sech[r] * math.factorial(r)) for r in (0, 2, 4, 6)]
                  == [1, 1, 5, 61])

    ok = all(checks)
    report(6, "exact integer coefficient sequences", ok,
           f"{sum(bool(c) for c in checks)}/{len(checks)} sequence groups exact")


def test_criterion_07_sum_rules():
    worst = 0.0
    for name in ("bessel-unity", "bessel-cos", "bessel-sin",
                 "phase-unity", "phase-integral"):
        for y in (0.4, 0.8):
            worst = max(worst, sumrule_check(name, y, 16))
    report(7, "Bessel sum rules", worst <= 1e-10, f"worst {worst:.3e}")


def test_criterion_08_rotations():
    worst_pair, worst_unit = 0.0, 0.0
    for omega in np.linspace(0.05, 1.2, 5):
        for theta in np.linspace(0.1, 3.0, 5):
            for phi in np.linspace(0.0, 2 * math.pi, 5, endpoint=False):
                for j in (0.5, 1.0, 1.5, 2.0, 2.5):
                    spec = RotationSpec(omega, theta, phi, j)
                    f = rotation_factorized(spec)
                    d = rotation_direct(spec)
                    a = antinormal_rotation(spec)
                    worst_pair = max(worst_pair, np.abs(f - d).max(),
                                     np.abs(a - d).max(),
                                     np.abs(f - a).max())
                    eye = np.eye(f.shape[0])
                    worst_unit = max(worst_unit,
                                     np.abs(f.conj().T @ f - eye).max())
    # the two printed spin-1 matrices
    ref = j1_reference_matrix(0.7, 1.1, 2.3)
    got = rotation_factorized(RotationSpec(0.7, 1.1, 2.3, 1.0)).T
    dev_ref = np.abs(ref - got).max()
    omega = 0.6
    u = rotation_factorized(RotationSpec(omega, math.pi / 2, 0.0, 1.0))
    ph = m_rephasing(1.0)
    dev_x = np.abs(ph @ u @ np.linalg.inv(ph)
                   - j1_xaxis_reference(omega)).max()
    ok = (worst_pair <= 1e-11 and worst_unit <= 1e-12
          and dev_ref <= 1e-12 and dev_x <= 1e-12)
    report(8, "rotation matrices", ok,
           f"pairwise {worst_pair:.3e}, unitarity {worst_unit:.3e},"
           f" spin-1 refs {max(dev_ref, dev_x):.3e}")


def test_criterion_09_phase_operators():
    spec = AlgebraSpec.from_profile("phase")
    window = IndexWindow(0, 59, 0, 12)
    worst = 0.0
    for y in (0.25, 0.6, 1.0):
        u = expm(operator_matrix(spec, window, (1j * y, 1j * y, 0))).matrix
        for n in range(11):
            for m in range(11):
                worst = max(worst, abs(phase_element(n, m, y) - u[n, m]))
    comm = phase_commutator(60)
    impulse_exact = (comm[0, 0] == 1
                     and not comm[:59, :59][1:, :].any()
                     and not comm[0, 1:59].any()
                     and comm[59, 59] == -1)
    ok = worst <= 1e-10 and impulse_exact
    report(9, "phase operators", ok,
           f"element vs oracle {worst:.3e}, impulse exact: {impulse_exact}")


def test_criterion_10_gnm_mapping():
    worst = 0.0
    for alpha, beta in [(1, 1), (1, 2)]:
        spec = AlgebraSpec.parametric(alpha, beta, 1)
        for y in (0.2, 0.5):
            window = padded_window(spec, 0, 6,
                                   suggested_pad(spec, 0, 6, y))
            u = expm(operator_matrix(spec, window, (1j * y, 1j * y, 0))).matrix
            for n in range(7):
                for m in range(min(n, 3) + 1):
                    elt = u[window.idx(n), window.idx(m)]
                    val = gnm(spec, n, m, y).value
                    worst = max(worst,
                                abs(elt - (1j) ** (n - m) * val))
    report(10, "shifted-parameter matrix elements", worst <= 1e-9,
           f"worst phased deviation {worst:.3e}")
