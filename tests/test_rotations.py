import json
import math

import numpy as np
import pytest

from ladderkit import (AlgebraSpec, IndexWindow, RotationSpec, SingularS,
                       antinormal_rotation, build_matrices,
                       commutator_residual, rotation_direct,
                       rotation_factorized, u2_factors)
from ladderkit.cli import main
from spin_references import (j1_reference_matrix, j1_xaxis_reference,
                             m_rephasing, rotation_from_jx_jy, spin_matrices)


def _spin_block(j):
    two_j = round(2 * j)
    return (AlgebraSpec.parametric(1, -two_j, -0.5),
            IndexWindow(0, two_j, 0, two_j))


def test_spin_half_block():
    # R = J_plus, S = -J_z on the spin-1/2 block
    m = build_matrices(*_spin_block(0.5))
    assert np.allclose(np.diag(m.S), [0.5, -0.5])
    assert m.R[1, 0] == pytest.approx(1 / math.sqrt(2))


def test_spin_commutators_sigma_minus_half():
    # [L, R] = S, [L, S] = 2 sigma L, [S, R] = 2 sigma R at sigma = -1/2,
    # i.e. [J+, J-] = Jz, [J+, Jz] = -J+, [Jz, J-] = -J-
    for j in (0.5, 1.0, 1.5, 2.0):
        spec, window = _spin_block(j)
        assert commutator_residual(build_matrices(spec, window), spec) < 1e-13


def test_raising_lowest_state_normalized():
    e = np.zeros(3, dtype=complex)
    e[0] = 1.0
    assert np.linalg.norm(build_matrices(*_spin_block(1.0)).R @ e) == pytest.approx(1.0)


def test_identity_at_omega_zero():
    spec = RotationSpec(0.0, 1.0, 0.5, 1.5)
    for fn in (rotation_factorized, rotation_direct, antinormal_rotation):
        assert np.abs(fn(spec) - np.eye(4)).max() < 1e-14


def test_rotation_spec_scalars():
    spec = RotationSpec(0.7, 1.1, 2.3, 1.0)
    s = spec.s
    assert abs(abs(s) ** 2 - (math.cos(0.7) ** 2
               + math.cos(1.1) ** 2 * math.sin(0.7) ** 2)) < 1e-14
    spec0 = RotationSpec(0.0, 1.1, 2.3, 1.0)
    assert spec0.s == 1.0 and spec0.h == 0.0


def test_j1_reference_matrix_is_transposed_factorization():
    spec = RotationSpec(0.7, 1.1, 2.3, 1.0)
    ref = j1_reference_matrix(0.7, 1.1, 2.3)
    assert np.abs(ref - rotation_factorized(spec).T).max() <= 1e-12


def test_j1_xaxis_reference_via_rephasing():
    omega = 0.6
    u = rotation_factorized(RotationSpec(omega, math.pi / 2, 0.0, 1.0))
    d = m_rephasing(1.0)
    real_form = d @ u @ np.linalg.inv(d)
    assert np.abs(real_form - j1_xaxis_reference(omega)).max() <= 1e-12
    assert np.abs(real_form.imag).max() <= 1e-12


def test_three_routes_agree_on_grid():
    worst = 0.0
    for omega in np.linspace(0.05, 1.2, 5):
        for theta in np.linspace(0.1, 3.0, 5):
            for phi in np.linspace(0.0, 2 * math.pi, 5, endpoint=False):
                for j in (0.5, 1.0, 2.5):
                    spec = RotationSpec(omega, theta, phi, j)
                    f = rotation_factorized(spec)
                    d = rotation_direct(spec)
                    a = antinormal_rotation(spec)
                    worst = max(worst, np.abs(f - d).max(), np.abs(a - d).max())
    assert worst <= 1e-11


def test_unitarity_and_determinant():
    spec = RotationSpec(1.1, 0.4, 3.9, 2.0)
    u = rotation_direct(spec)
    assert np.abs(u.conj().T @ u - np.eye(5)).max() <= 1e-12
    assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12


def test_group_composition_fixed_axis():
    theta, phi, j = 0.9, 1.7, 1.5
    u1 = rotation_factorized(RotationSpec(0.3, theta, phi, j))
    u2 = rotation_factorized(RotationSpec(0.45, theta, phi, j))
    u12 = rotation_factorized(RotationSpec(0.75, theta, phi, j))
    assert np.abs(u1 @ u2 - u12).max() <= 1e-11


def test_m_reversal_symmetry_j1():
    m = j1_reference_matrix(0.8, 0.9, 1.3)
    for r in range(3):
        for c in range(3):
            want = (-1) ** (r + c) * np.conj(m[r, c])
            assert abs(m[2 - r, 2 - c] - want) <= 1e-13


def test_singular_parametrization_raises():
    # |s| = 1e-10 is inside the factors' pole guard: the factorized product
    # would be off from rotation_direct by about 1e4 there
    for omega in (math.pi / 2, math.pi / 2 - 1e-10):
        spec = RotationSpec(omega, math.pi / 2, 0.3, 1.0)
        with pytest.raises(SingularS):
            rotation_factorized(spec)


def test_h_shares_the_factorized_routes_pole_guard(capsys):
    # |s| = 5e-10, inside the 1e-9 guard: h and the factorized routes
    # refuse together, and the direct route reports h as null
    omega, theta = math.pi / 2 - 5e-10, math.pi / 2
    spec = RotationSpec(omega, theta, 0.0, 1.0)
    with pytest.raises(SingularS):
        spec.h
    with pytest.raises(SingularS):
        rotation_factorized(spec)
    code = main(["rotate", "--omega", repr(omega), "--theta", repr(theta),
                 "--phi", "0", "--j", "1", "--method", "direct"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["h"] is None


def test_invalid_j_rejected():
    with pytest.raises(ValueError):
        RotationSpec(0.1, 0.2, 0.3, 0.7)


@pytest.mark.parametrize("field", ["omega", "theta", "phi", "j"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_rotation_parameters_rejected(field, value):
    params = {"omega": 0.7, "theta": 1.1, "phi": 2.3, "j": 0.5, field: value}
    with pytest.raises(ValueError, match="must be finite"):
        RotationSpec(**params)


def test_spin_block_matrices_are_the_spin_matrices():
    for j in (0.5, 1.0, 1.5, 2.0, 2.5, 5.0):
        j_plus, j_minus, j_z = spin_matrices(j)
        m = build_matrices(*_spin_block(j))
        assert np.array_equal(m.L, j_minus)
        assert np.array_equal(m.R, j_plus)
        assert np.array_equal(m.S, -j_z)


def test_direct_rotation_is_the_jx_jy_exponential():
    # the spin-block exponent against J_x, J_y reassembled first from the
    # tests' own spin matrices: the two exponents round differently, so
    # the matrices agree to rounding only
    for j in (0.5, 1.0, 1.5, 2.0, 2.5):
        for omega in np.linspace(0.05, 3.0, 6):
            for theta in np.linspace(0.0, math.pi, 5):
                for phi in np.linspace(0.0, 2 * math.pi, 5):
                    spec = RotationSpec(omega, theta, phi, j)
                    got, want = rotation_direct(spec), rotation_from_jx_jy(spec)
                    assert np.abs(got - want).max() <= 1e-14


def test_rotation_scalars_are_the_u2_factors_on_the_spin_block():
    # exp(2i W.J) = exp(a L + b R + c S) with a = rs.b, b = rs.a, c = rs.c
    for omega in np.linspace(0.05, 1.2, 5):
        for theta in np.linspace(0.1, 3.0, 5):
            for phi in np.linspace(0.0, 2 * math.pi, 5, endpoint=False):
                for j in (0.5, 1.0, 2.5):
                    rs = RotationSpec(omega, theta, phi, j)
                    block, _ = _spin_block(j)
                    fac = u2_factors(block, rs.b, rs.a, rs.c)
                    h, s = rs.h, rs.s
                    assert abs(rs.a * fac.f_plus
                               - 1j * h * np.exp(-1j * phi)) <= 1e-13
                    assert abs(fac.g_plus - 1 / s) <= 1e-13
                    assert abs(rs.b * fac.f_minus
                               - 1j * np.conj(h) * np.exp(1j * phi)) <= 1e-13
                    assert abs(fac.g_minus - 1 / np.conj(s)) <= 1e-13


def test_spin_zero_is_the_identity(capsys):
    # the second angle set is the singular point s = 0, where h is undefined
    for angles in ((0.7, 1.1, 2.3), (math.pi / 2, math.pi / 2, 0.0)):
        spec = RotationSpec(*angles, 0.0)
        for fn in (rotation_factorized, rotation_direct, antinormal_rotation):
            assert np.array_equal(fn(spec), [[1.0]])
        argv = ["rotate", "--j", "0"]
        for flag, value in zip(("--omega", "--theta", "--phi"), angles):
            argv += [flag, repr(value)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        assert (doc["h"] is None) == (angles[0] == math.pi / 2)


def test_factorized_rotations_at_a_sec_pole():
    # omega = pi/2 puts q = omega on the tan/sec pole while s stays nonzero
    for j in (0.5, 1.0, 1.5, 2.0, 2.5):
        spec = RotationSpec(math.pi / 2, 1.0, 0.3, j)
        want = rotation_direct(spec)
        for fn in (rotation_factorized, antinormal_rotation):
            assert np.abs(fn(spec) - want).max() <= 1e-11
