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
(omega = theta = pi/2): that set is an error, not a limit.  It is the pole
set of ``factorization.u2_factors``, so the factorized routes raise its
PoleError, unchanged, wherever |s| < 1e-9, and ``RotationSpec.h`` raises
PoleError under the same guard.  ``rotation_direct``, the reference, is the
oracle ``expm`` on the same block and exponent.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AlgebraSpec, IndexWindow
from .errors import PoleError
from .expm import expm, operator_matrix
from .factorization import _POLE_TOL, ordered_product

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class RotationSpec:
    """Rotation parameters and the derived factorization scalars."""

    omega: float
    theta: float
    phi: float
    j: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.omega, self.theta, self.phi, self.j))):
            raise ValueError(f"omega, theta, phi and j must be finite: {self}")
        two_j = round(2 * self.j)
        if two_j < 0 or abs(2 * self.j - two_j) > 1e-12:
            raise ValueError(f"j = {self.j} is not a non-negative half-integer")

    @property
    def s(self) -> complex:
        return complex(math.cos(self.omega),
                       -math.cos(self.theta) * math.sin(self.omega))

    @property
    def h(self) -> complex:
        s = self.s
        if abs(s) < _POLE_TOL:
            raise PoleError(
                f"s = {s:.3g}: factorization degenerates at this (omega, theta)"
            )
        return _SQRT2 * math.sin(self.theta) * math.sin(self.omega) / s

    def _coefficients(self) -> tuple[complex, complex, complex]:
        """(a, b, c) in one pass, the factor common to a and b formed once."""
        ladder = 1j * _SQRT2 * self.omega * math.sin(self.theta)
        return (ladder * cmath.exp(-1j * self.phi),
                ladder * cmath.exp(1j * self.phi),
                -2j * self.omega * math.cos(self.theta))

    @property
    def a(self) -> complex:
        return self._coefficients()[0]

    @property
    def b(self) -> complex:
        return self._coefficients()[1]

    @property
    def c(self) -> complex:
        return self._coefficients()[2]


@lru_cache(maxsize=16)
def _spin_block(two_j: int) -> tuple[AlgebraSpec, IndexWindow]:
    """The spin-j block (1, -2j, -1/2) on its whole window [0, 2j]."""
    return AlgebraSpec.parametric(1, -two_j, -0.5), IndexWindow(0, two_j, 0, two_j)


def _exponent(spec: RotationSpec) -> tuple[AlgebraSpec, IndexWindow, tuple]:
    """exp(2i W.J) as exp(aL + bR + cS): the spin-j block, its whole window
    and (a, b, c) = (spec.b, spec.a, spec.c), since L = J_minus, R = J_plus."""
    a, b, c = spec._coefficients()
    return (*_spin_block(round(2 * spec.j)), (b, a, c))


def _on_spin_block(spec: RotationSpec, ordering: str) -> np.ndarray:
    """The ordered product of exp(2i W.J) on the spin-j block; its D+- are
    s and s*, so u2_factors' PoleError is the refusal where |s| < 1e-9."""
    if round(2 * spec.j) == 0:
        # the singlet is fixed, even at s = 0, where the factors have a pole
        return np.ones((1, 1), dtype=complex)
    return ordered_product(*_exponent(spec), ordering)


def rotation_factorized(spec: RotationSpec) -> np.ndarray:
    """Normal-ordered product: raising factor, s^(-2m) diagonal, lowering
    factor."""
    return _on_spin_block(spec, "normal")


def antinormal_rotation(spec: RotationSpec) -> np.ndarray:
    """Reverse ordering with conjugated scalars: lowering factor,
    (s*)^(+2m) diagonal, raising factor."""
    return _on_spin_block(spec, "anti-normal")


def rotation_direct(spec: RotationSpec) -> np.ndarray:
    """exp(2i W.J) by direct exponentiation of its exponent on the spin-j
    block."""
    return expm(operator_matrix(*_exponent(spec))).matrix
