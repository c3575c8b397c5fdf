"""Spin rotation matrices from the ordered factorization.

The ladder normalization here is sqrt(2) J_pm = J_x -+/+ i J_y, i.e.
J_plus|j m> = sqrt((j-m)(j+m+1)/2) |j m+1>, which matches the generator
algebra at sigma = -1/2: [J_plus, J_minus] = J_z, [J_plus, J_z] = -J_plus,
[J_z, J_minus] = -J_minus.

The spin-j multiplet is the parametric block (alpha, beta, sigma) =
(1, -2j, -1/2) on the window [0, 2j], k = m + j, with R = J_plus,
L = J_minus and S = -J_z.  A rotation by the vector W with polar
coordinates (omega, theta, phi), U = exp(2i W.J), is exp(aL + bR + cS) there
with (a, b, c) = (RotationSpec.b, RotationSpec.a, RotationSpec.c), so the
factorized routes are ``factorization.ordered_product`` on that block.  Its
factors work out to

    exp(i h e^{-i phi} J_plus) diag(s^{-2m}) exp(i h e^{+i phi} J_minus)

with s = cos(omega) - i cos(theta) sin(omega) = D+ and
h = sqrt(2) sin(theta) sin(omega) / s, or anti-normally with (h*, s*) and
the factors reversed.  The parametrization degenerates where s = 0
(omega = theta = pi/2): that set is an error, not a limit, and the
factorized routes raise SingularS wherever |s| < 1e-9 (the pole guard of
``factorization.u2_factors``).  ``rotation_direct`` stays the independent
reference.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, IndexWindow
from .errors import PoleError, SingularS
from .expm import expm
from .factorization import ordered_product

_SQRT2 = math.sqrt(2.0)


def _check_spin(j: float) -> int:
    two_j = round(2 * j)
    if two_j < 0 or abs(2 * j - two_j) > 1e-12:
        raise ValueError(f"j = {j} is not a non-negative half-integer")
    return two_j


@dataclass(frozen=True)
class SpinMatrices:
    """Ladder and projection matrices in the |j, m> basis, m = -j .. j."""

    j: float
    j_plus: np.ndarray
    j_minus: np.ndarray
    j_z: np.ndarray

    @property
    def m_values(self) -> np.ndarray:
        return np.real(np.diag(self.j_z))


def build_spin(j: float) -> SpinMatrices:
    two_j = _check_spin(j)
    dim = two_j + 1
    ms = [-j + k for k in range(dim)]
    plus = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        m = ms[k]
        plus[k + 1, k] = math.sqrt((j - m) * (j + m + 1) / 2.0)
    return SpinMatrices(j=j, j_plus=plus, j_minus=plus.conj().T.copy(),
                        j_z=np.diag(ms).astype(complex))


@dataclass(frozen=True)
class RotationSpec:
    """Rotation parameters and the derived factorization scalars."""

    omega: float
    theta: float
    phi: float
    j: float

    def __post_init__(self):
        _check_spin(self.j)

    @property
    def s(self) -> complex:
        return complex(math.cos(self.omega),
                       -math.cos(self.theta) * math.sin(self.omega))

    @property
    def h(self) -> complex:
        s = self.s
        if abs(s) < 1e-12:
            raise SingularS(
                f"s = {s:.3g}: factorization degenerates at this (omega, theta)"
            )
        return _SQRT2 * math.sin(self.theta) * math.sin(self.omega) / s

    @property
    def a(self) -> complex:
        return 1j * _SQRT2 * self.omega * math.sin(self.theta) * cmath.exp(-1j * self.phi)

    @property
    def b(self) -> complex:
        return 1j * _SQRT2 * self.omega * math.sin(self.theta) * cmath.exp(1j * self.phi)

    @property
    def c(self) -> complex:
        return -2j * self.omega * math.cos(self.theta)

    @property
    def w_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return self.omega * np.array([st * math.cos(self.phi),
                                      st * math.sin(self.phi),
                                      math.cos(self.theta)])


def _on_spin_block(spec: RotationSpec, ordering: str) -> np.ndarray:
    """The ordered product of exp(2i W.J) on the spin-j block."""
    two_j = _check_spin(spec.j)
    if two_j == 0:
        # a window needs two states; the singlet is fixed, even where s = 0
        return np.ones((1, 1), dtype=complex)
    try:
        return ordered_product(AlgebraSpec.parametric(1, -two_j, -0.5),
                               IndexWindow(0, two_j, 0, two_j),
                               (spec.b, spec.a, spec.c), ordering)
    except PoleError:
        # D+- = s, s*: the factors' only singular set
        raise SingularS(f"s = {spec.s:.3g}: factorization degenerates at"
                        " this (omega, theta)") from None


def rotation_factorized(spec: RotationSpec) -> np.ndarray:
    """Normal-ordered product: raising factor, s^(-2m) diagonal, lowering
    factor."""
    return _on_spin_block(spec, "normal")


def antinormal_rotation(spec: RotationSpec) -> np.ndarray:
    """Reverse ordering with conjugated scalars: lowering factor,
    (s*)^(+2m) diagonal, raising factor."""
    return _on_spin_block(spec, "anti-normal")


def rotation_direct(spec: RotationSpec) -> np.ndarray:
    """exp(2i W.J) by direct exponentiation, with J_x, J_y reassembled from
    the ladder pair."""
    spin = build_spin(spec.j)
    jx = (spin.j_plus + spin.j_minus) / _SQRT2
    jy = (spin.j_plus - spin.j_minus) / (1j * _SQRT2)
    wx, wy, wz = spec.w_vector
    return expm(2j * (wx * jx + wy * jy + wz * spin.j_z)).matrix


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
    spin = build_spin(j)
    return np.diag([1j ** int(round(m)) for m in spin.m_values])
