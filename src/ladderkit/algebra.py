"""Finite-window matrix representations of a three-generator ladder algebra.

The generators are a lowering operator L, its adjoint R = L^dagger and the
diagonal S = [L, R], acting on orthonormal basis vectors |j>, j integer.
A real coupling profile lambda_j fixes everything:

    L|j> = lambda_{j-1} |j-1>,   R|j> = lambda_j |j+1>,
    S|j> = (lambda_j^2 - lambda_{j-1}^2) |j>.

The parametric family lambda_j^2 = sigma*(alpha + j)*(beta + j) closes the
commutators,

    [L, R] = S,   [L, S] = 2*sigma*L,   [S, R] = 2*sigma*R,

and three named profiles cover its degenerate limits: "sho"
(lambda_j^2 = j + 1, boson ladder), "constant-one" (lambda_j = 1, commuting
shifts) and "phase" (lambda_{-1} = 0, lambda_j = 1 otherwise, one-sided
shifts).

The infinite basis is truncated to an IndexWindow.  Because every operator
is banded, truncation only corrupts the outermost rows and columns; results
are trusted on the window's inner "core" range.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitaryRegime

PROFILE_NAMES = ("sho", "constant-one", "phase")


@dataclass(frozen=True)
class AlgebraSpec:
    """Parameter set fixing the coupling profile lambda_j.

    Use the ``parametric`` or ``from_profile`` constructors rather than
    filling fields by hand.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    sigma: float = 0.0
    profile: str = ""

    def __post_init__(self):
        if self.kind not in ("parametric", "profile"):
            raise ValueError(f"unknown spec kind {self.kind!r}")
        if self.kind == "profile" and self.profile not in PROFILE_NAMES:
            raise ValueError(
                f"unknown profile {self.profile!r}; choose from {PROFILE_NAMES}"
            )

    @classmethod
    def parametric(cls, alpha: float, beta: float, sigma: float) -> "AlgebraSpec":
        return cls(kind="parametric", alpha=float(alpha), beta=float(beta),
                   sigma=float(sigma))

    @classmethod
    def from_profile(cls, name: str) -> "AlgebraSpec":
        return cls(kind="profile", profile=name)

    @property
    def is_parametric(self) -> bool:
        return self.kind == "parametric"

    def label(self) -> str:
        if self.is_parametric:
            return f"(alpha={self.alpha:g}, beta={self.beta:g}, sigma={self.sigma:g})"
        return f"profile {self.profile!r}"


def lambda_sq(spec: AlgebraSpec, j: int) -> float:
    """Squared coupling lambda_j^2.  Negative values are legal here; they are
    rejected only when a matrix window is actually built."""
    if spec.is_parametric:
        # group the symmetric product so the alpha <-> beta exchange is
        # exact in floating point
        return spec.sigma * ((spec.alpha + j) * (spec.beta + j))
    if spec.profile == "sho":
        return float(j + 1) if j >= -1 else 0.0
    if spec.profile == "constant-one":
        return 1.0
    # "phase"
    return 1.0 if j >= 0 else 0.0


def lambda_coupling(spec: AlgebraSpec, j: int) -> float:
    """Coupling lambda_j, taken as the positive square root.

    Raises NonUnitaryRegime when lambda_j^2 < 0.
    """
    l2 = lambda_sq(spec, j)
    if l2 < 0.0:
        raise NonUnitaryRegime(
            f"lambda_{j}^2 = {l2:g} < 0 for {spec.label()}"
        )
    return math.sqrt(l2)


@dataclass(frozen=True)
class IndexWindow:
    """Inclusive basis-index range [j_min, j_max] with a trusted inner core
    [core_lo, core_hi] on which truncated results are certified."""

    j_min: int
    j_max: int
    core_lo: int
    core_hi: int

    def __post_init__(self):
        if not (self.j_min <= self.core_lo <= self.core_hi <= self.j_max):
            raise ValueError(
                f"need j_min <= core_lo <= core_hi <= j_max, got {self}"
            )
        if self.size < 2:
            raise ValueError("window size must be at least 2")

    @classmethod
    def spanning(cls, j_min: int, j_max: int) -> "IndexWindow":
        """Window [j_min, j_max] with the core inset by two states per side
        (or less, on windows too small for that)."""
        lo = min(j_min + 2, j_max)
        hi = max(j_max - 2, lo)
        return cls(j_min, j_max, min(lo, hi), hi)

    @property
    def size(self) -> int:
        return self.j_max - self.j_min + 1

    def idx(self, j: int) -> int:
        if not self.j_min <= j <= self.j_max:
            raise IndexError(f"basis label {j} outside window [{self.j_min}, {self.j_max}]")
        return j - self.j_min

    def indices(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def core_slice(self) -> slice:
        return slice(self.core_lo - self.j_min, self.core_hi - self.j_min + 1)

    def in_core(self, j: int) -> bool:
        return self.core_lo <= j <= self.core_hi


@dataclass(frozen=True)
class LadderMatrices:
    """Dense complex matrices for (L, R, S) on a window, indexed by basis
    label j - j_min.  R is the conjugate transpose of L by construction."""

    window: IndexWindow
    L: np.ndarray
    R: np.ndarray
    S: np.ndarray


def squared_couplings(spec: AlgebraSpec, window: IndexWindow) -> np.ndarray:
    """lambda_j^2 for j = j_min - 1 .. j_max, everything a window's
    (L, R, S) are built from: the couplings lambda_{j_min} .. lambda_{j_max-1}
    and, through lambda_{j_min - 1}, the first diagonal entry of S.

    Raises NonUnitaryRegime if any of them is negative.
    """
    js = range(window.j_min - 1, window.j_max + 1)
    l2 = np.array([lambda_sq(spec, j) for j in js])
    for j, v in zip(js, l2):
        if v < 0.0:
            raise NonUnitaryRegime(
                f"lambda_{j}^2 = {v:g} < 0 for {spec.label()};"
                " window not representable with real couplings"
            )
    return l2


def build_matrices(spec: AlgebraSpec, window: IndexWindow) -> LadderMatrices:
    """Construct the banded (L, R, S) matrices on a window.

    Requires lambda_j^2 >= 0 for every j in [j_min - 1, j_max]
    (lambda_{j_min - 1} enters the first diagonal entry of S); raises
    NonUnitaryRegime otherwise.
    """
    l2 = squared_couplings(spec, window)
    n = window.size
    L = np.zeros((n, n), dtype=complex)
    L.flat[1::n + 1] = np.sqrt(l2[1:-1])
    S = np.diag(np.diff(l2)).astype(complex)
    R = L.conj().T.copy()
    return LadderMatrices(window=window, L=L, R=R, S=S)


def commutator_residual(m: LadderMatrices, spec: AlgebraSpec) -> float:
    """Largest entrywise violation of the closed commutation relations,
    restricted to the core rows and columns (truncation corrupts only the
    outermost entries).  Parametric specs only."""
    if not spec.is_parametric:
        raise ValueError("commutator_residual applies to parametric specs; "
                         "profiles obey their own relations")
    sl = m.window.core_slice()
    two_sigma = 2.0 * spec.sigma
    d1 = m.L @ m.R - m.R @ m.L - m.S
    d2 = m.L @ m.S - m.S @ m.L - two_sigma * m.L
    d3 = m.S @ m.R - m.R @ m.S - two_sigma * m.R
    return max(
        float(np.abs(d[sl, sl]).max()) for d in (d1, d2, d3)
    )


def detect_blocks(spec: AlgebraSpec, window: IndexWindow) -> list[tuple[int, int]]:
    """Split the window at every index j with lambda_j = 0.

    The link between basis states j and j+1 carries weight lambda_j, so a
    vanishing coupling decouples the states on either side.  Returns the
    maximal invariant sub-ranges as (lo, hi) pairs.
    """
    blocks = []
    lo = window.j_min
    for j in range(window.j_min, window.j_max):
        if lambda_sq(spec, j) == 0.0:
            blocks.append((lo, j))
            lo = j + 1
    blocks.append((lo, window.j_max))
    return blocks


def padded_window(spec: AlgebraSpec, core_lo: int, core_hi: int,
                  pad: int, pad_hi: int | None = None) -> IndexWindow:
    """Extend a core range by up to ``pad`` states per side, stopping early
    at a decoupling boundary (lambda = 0) or where real couplings end.

    The returned window is always buildable and, when a side stops at a
    zero coupling, exactly reproduces the infinite-space operator on that
    side.
    """
    if pad_hi is None:
        pad_hi = pad
    lo = core_lo
    for _ in range(pad):
        # extend only while the state below is coupled and the grown window
        # stays buildable (its bottom S entry needs lambda_{lo-2}^2 >= 0)
        if lambda_sq(spec, lo - 1) <= 0.0 or lambda_sq(spec, lo - 2) < 0.0:
            break
        lo -= 1
    hi = core_hi
    for _ in range(pad_hi):
        if lambda_sq(spec, hi) <= 0.0 or lambda_sq(spec, hi + 1) < 0.0:
            break
        hi += 1
    if hi == lo:
        hi = lo + 1
    return IndexWindow(lo, hi, core_lo, core_hi)


def suggested_pad(spec: AlgebraSpec, core_lo: int, core_hi: int,
                  magnitude: float) -> int:
    """Default padding: max(16, ceil(8 * magnitude * max core coupling)).

    ``magnitude`` is the size of the exponent coefficients (|y| for
    exp(iy(R+L))).  Each Taylor order of a banded exponential moves support
    by one band, so the requirement scales with coupling size.  Callers with
    slowly converging orderings should override (see
    factorization.antinormal_reach).
    """
    lam_max = 0.0
    for j in range(core_lo, core_hi + 2):
        lam_max = max(lam_max, math.sqrt(max(lambda_sq(spec, j), 0.0)))
    return max(16, math.ceil(8.0 * abs(magnitude) * lam_max))
