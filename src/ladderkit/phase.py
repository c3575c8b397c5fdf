"""One-sided shift ("phase") operators and their Bessel matrix elements.

P lowers the number basis with unit amplitude and annihilates the ground
state; P_dagger shifts up.  Their commutator is a single impulse,
[P, P'] = |0><0|, so no ordered factorization of exp(iy(P + P')) exists
and everything is checked between the Bessel closed forms and the
exponential oracle:

    <n| exp(iy(P + P')) |m> = i^(n-m) (J_{n-m}(2y) + (-1)^m J_{n+m+2}(2y))

The real amplitude stripped of the i^(n-m) phase is written G_nm(y); its
m = 0 column is G_n(y) = (n+1) J_{n+1}(2y) / y, which obeys
dG_{n+1}/dy = G_n - G_{n+2} and whose Taylor numerators count
border-respecting lattice paths (triangles.path_count_diagram).
"""

import math

import numpy as np

from .algebra import AlgebraSpec, IndexWindow, build_matrices
from .expm import oracle_element
from .gn import bessel_jn

_PHASE_SPEC = AlgebraSpec.from_profile("phase")


def phase_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, P_dagger) on an n_max = dim - 1 window: the (L, R) pair of the
    "phase" profile, complex entries 0 and 1."""
    if dim < 2:
        raise ValueError("need at least a 2-state window")
    m = build_matrices(_PHASE_SPEC, IndexWindow(0, dim - 1, 0, dim - 1))
    return m.L, m.R


def phase_commutator(dim: int) -> np.ndarray:
    """[P, P_dagger] as a complex matrix with exact 0/+-1 entries.

    On the infinite space this is the unit impulse at (0, 0); a finite
    window adds the truncation artifact -1 at the last diagonal entry
    (the top state has nowhere to shift to).
    """
    p, pd = phase_matrices(dim)
    return p @ pd - pd @ p


def phase_gnm(n: int, m: int, y: float) -> float:
    """G_nm(y) = J_{n-m}(2y) + (-1)^m J_{n+m+2}(2y)."""
    if n < 0 or m < 0:
        raise ValueError("need n, m >= 0")
    x = 2.0 * y
    return bessel_jn(n - m, x) + (-1.0) ** (m % 2) * bessel_jn(n + m + 2, x)


def phase_element(n: int, m: int, y: float) -> complex:
    """<n| exp(iy(P + P_dagger)) |m> via the Bessel closed form; the phase
    convention is i^(n-m) (equivalently G_nm = (-i)^(n-m) <n|U|m>)."""
    return (1j) ** ((n - m) % 4) * phase_gnm(n, m, y)


def phase_gn(n: int, y: float) -> float:
    """G_n(y) = (n+1) J_{n+1}(2y) / y, evaluated by the division-free series
    (n+1) sum_j (-1)^j y^(2j+n) / (j! (j+n+1)!), so y = 0 is regular and
    gives delta_{n0}."""
    if n < 0:
        raise ValueError("need n >= 0")
    term = 1.0 / math.factorial(n + 1)
    for _ in range(n):
        term *= y
    total = term
    for j in range(1, 400):
        term *= -(y * y) / (j * (j + n + 1))
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return (n + 1) * total


def phase_recursion_residual(n: int, y: float, h: float = 1e-5) -> float:
    """|d/dy G_{n+1} - (G_n - G_{n+2})| by central differences."""
    deriv = (phase_gn(n + 1, y + h) - phase_gn(n + 1, y - h)) / (2.0 * h)
    return abs(deriv - (phase_gn(n, y) - phase_gn(n + 2, y)))


def phase_oracle_element(n: int, m: int, y: float, dim: int = 60) -> complex:
    """<n| exp(iy(P + P_dagger)) |m> by brute-force exponentiation on a
    dim-state window (pad well past max(n, m))."""
    window = IndexWindow(0, dim - 1, 0, dim - 1)
    return oracle_element(_PHASE_SPEC, window, (1j * y, 1j * y, 0.0), n, m)
