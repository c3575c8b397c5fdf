"""One-sided shift ("phase") operators and their Bessel matrix elements.

P lowers the number basis with unit amplitude and annihilates the ground
state; P_dagger shifts up.  Their commutator is a single impulse,
[P, P'] = |0><0|, so no ordered factorization of exp(iy(P + P')) exists
and everything is checked between the Bessel closed forms and the
exponential oracle:

    <n| exp(iy(P + P')) |m> = i^(n-m) (J_{n-m}(2y) + (-1)^m J_{n+m+2}(2y))

The real amplitude stripped of the i^(n-m) phase is written G_nm(y); its
m = 0 column is G_n(y) = (n+1) J_{n+1}(2y) / y, which obeys
dG_{n+1}/dy = G_n - G_{n+2}.  The Taylor numerators of G_nm count
border-respecting lattice paths from m to n: they are column n of
triangles.generate(unit_rule(), "triangular", m, rows).
"""

from .algebra import AlgebraSpec, IndexWindow, _oracle_window
from .expm import oracle_element
from .gn import bessel_jn

_PHASE_SPEC = AlgebraSpec.from_profile("phase")


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


def phase_oracle_element(n: int, m: int, y: float, dim: int = 60) -> complex:
    """<n| exp(iy(P + P_dagger)) |m> by brute-force exponentiation on the
    oracle's window (``algebra._oracle_window``; ConvergenceError past its
    ceiling, |y| > 127.6 on small cores) for the core 0 .. max(n, m), grown
    to ``dim`` states from 0 if smaller: a floor, never a cap nor refused."""
    coeffs, hi = (1j * y, 1j * y, 0.0), max(n, m)
    top = max(_oracle_window(_PHASE_SPEC, 0, hi, coeffs).j_max, dim - 1)
    return oracle_element(_PHASE_SPEC, IndexWindow(0, top, 0, hi), coeffs, n, m)
