"""References for the rotation tests.

Independent of the factorized and direct rotation routes: the spin-1
matrix is written out from the parametrization's scalars (h, s) and, for
rotations about x, from cos and sin of the angle alone; any spin's
exp(2i W.J) is exponentiated with J_x and J_y reassembled first, from spin
matrices and a rotation vector W built here, not by the library.
"""

import math

import numpy as np

from ladderkit import RotationSpec, expm

_SQRT2 = math.sqrt(2.0)


def spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J_plus, J_minus, J_z) over the |j, m> basis, m = -j .. j, with
    J_plus|j m> = sqrt((j-m)(j+m+1)/2) |j m+1>."""
    ms = np.arange(-j, j + 0.5)
    plus = np.diag(np.sqrt((j - ms[:-1]) * (j + ms[:-1] + 1) / 2.0), -1)
    return plus.astype(complex), plus.T.astype(complex), np.diag(ms).astype(complex)


def w_vector(spec: RotationSpec) -> np.ndarray:
    """W = omega (sin theta cos phi, sin theta sin phi, cos theta)."""
    st = math.sin(spec.theta)
    return spec.omega * np.array([st * math.cos(spec.phi),
                                  st * math.sin(spec.phi),
                                  math.cos(spec.theta)])


def j1_reference_matrix(omega: float, theta: float, phi: float) -> np.ndarray:
    """Closed-form spin-1 rotation, laid out with rows indexing the input
    state (the transpose of the standard <m'|U|m> representation)."""
    spec = RotationSpec(omega, theta, phi, 1.0)
    h, s = spec.h, spec.s
    hs, ss = np.conj(h), np.conj(s)
    ep = np.exp(1j * phi)
    em = np.exp(-1j * phi)
    return np.array([
        [s ** 2, 1j * h * s ** 2 * em, -0.5 * h ** 2 * s ** 2 * em ** 2],
        [1j * h * s ** 2 * ep, 1.0 - h ** 2 * s ** 2, 1j * hs * ss ** 2 * em],
        [-0.5 * hs ** 2 * ss ** 2 * ep ** 2, 1j * hs * ss ** 2 * ep, ss ** 2],
    ])


def j1_xaxis_reference(omega: float) -> np.ndarray:
    """The real spin-1 matrix for rotation about x by 2*omega, in the
    convention that rephases |m> by i^m (the literal exponential is complex
    symmetric; conjugating by diag(i^m) makes it real)."""
    c, s = math.cos(omega), math.sin(omega)
    sc = _SQRT2 * s * c
    return np.array([
        [c * c, sc, s * s],
        [-sc, 1.0 - 2.0 * s * s, sc],
        [s * s, -sc, c * c],
    ])


def m_rephasing(j: float) -> np.ndarray:
    """diag(i^m) over the |j, m> basis (integer j only)."""
    if round(j) != j:
        raise ValueError("rephasing by i^m needs integer j")
    return np.diag([1j ** int(m) for m in np.arange(-j, j + 0.5)])


def rotation_from_jx_jy(spec: RotationSpec) -> np.ndarray:
    """exp(2i (w_x J_x + w_y J_y + w_z J_z)) with J_x, J_y reassembled from
    the ladder pair, sqrt(2) J_pm = J_x -+/+ i J_y."""
    j_plus, j_minus, j_z = spin_matrices(spec.j)
    jx = (j_plus + j_minus) / _SQRT2
    jy = (j_plus - j_minus) / (1j * _SQRT2)
    wx, wy, wz = w_vector(spec)
    return expm(2j * (wx * jx + wy * jy + wz * j_z)).matrix
