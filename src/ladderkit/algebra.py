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
PAD_FLOOR = 16  # the least pad suggested_pad gives


@dataclass(frozen=True)
class AlgebraSpec:
    """Parameter set fixing the coupling profile lambda_j.

    Use the ``parametric`` or ``from_profile`` constructors rather than
    filling fields by hand.
    """

    alpha: float = 0.0
    beta: float = 0.0
    sigma: float = 0.0
    profile: str | None = None  # None: parametric

    def __post_init__(self):
        if self.profile is not None and self.profile not in PROFILE_NAMES:
            raise ValueError(
                f"unknown profile {self.profile!r}; choose from {PROFILE_NAMES}"
            )
        if not all(map(math.isfinite, (self.alpha, self.beta, self.sigma))):
            raise ValueError(f"alpha, beta and sigma must be finite: {self.label()}")

    @classmethod
    def parametric(cls, alpha: float, beta: float, sigma: float) -> "AlgebraSpec":
        return cls(alpha=float(alpha), beta=float(beta), sigma=float(sigma))

    @classmethod
    def from_profile(cls, name: str) -> "AlgebraSpec":
        return cls(profile=name)

    @property
    def is_parametric(self) -> bool:
        return self.profile is None

    def label(self) -> str:
        if self.is_parametric:
            return f"(alpha={self.alpha:g}, beta={self.beta:g}, sigma={self.sigma:g})"
        return f"profile {self.profile!r}"


# each profile's lambda_j^2 is j + 1 clipped to [lo, hi]: "sho" j + 1 from
# j = -1 up, "constant-one" 1, "phase" 1 from j = 0 up, and 0 below
_PROFILE_CLIP = {"sho": (0.0, math.inf), "constant-one": (1.0, 1.0),
                 "phase": (0.0, 1.0)}


def lambda_sq(spec: AlgebraSpec, j: int) -> float:
    """Squared coupling lambda_j^2, elementwise over an index array on every
    spec.  Negative values are rejected only by window builds."""
    if spec.is_parametric:
        # group the symmetric product so the alpha <-> beta exchange is
        # exact in floating point
        return spec.sigma * ((spec.alpha + j) * (spec.beta + j))
    lo, hi = _PROFILE_CLIP[spec.profile]
    if isinstance(j, np.ndarray):
        return np.minimum(np.maximum(j + 1.0, lo), hi)
    l2 = j + 1.0
    return lo if l2 < lo else hi if l2 > hi else l2


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


def _breaks(spec: AlgebraSpec, j: int) -> tuple[float, float]:
    """The labels k nearest to j, one with k < j and one with k >= j, where
    lambda_k^2 <= 0 (-inf / +inf where there is none): the ends of the
    sector of states coupled to j.  lambda^2 changes sign only at the roots
    (-alpha and -beta; -1 for "sho" and "phase"; none for "constant-one"),
    and its float value underflows to 0 only within 1 of a root (sigma = 0
    makes it 0 everywhere), so reading j - 1, j and the floor and ceiling
    of each root decides both, in O(1)."""
    roots = ((-spec.alpha, -spec.beta) if spec.is_parametric
             else () if spec.profile == "constant-one" else (-1,))
    below, above = -math.inf, math.inf
    for k in (j - 1, j, *map(math.floor, roots), *map(math.ceil, roots)):
        if below < k < j and lambda_sq(spec, k) <= 0.0:
            below = k
        elif j <= k < above and lambda_sq(spec, k) <= 0.0:
            above = k
    return below, above


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

    Raises NonUnitaryRegime, naming the first j, if any of them is negative,
    and OverflowError, naming the first j, if any is not finite.
    """
    # float labels: lambda_sq then runs without int casts
    l2 = lambda_sq(spec, np.arange(window.j_min - 1.0, window.j_max + 1.0))
    if l2.min() < 0.0:
        i = np.argmax(l2 < 0.0)
        raise NonUnitaryRegime(
            f"lambda_{window.j_min - 1 + i}^2 = {l2[i]:g} < 0 for {spec.label()};"
            " window not representable with real couplings"
        )
    _finite_top(spec, l2, window.j_min - 1)
    return l2


def _finite_top(spec: AlgebraSpec, l2: np.ndarray, j0: int) -> float:
    """The largest of l2 = lambda_j^2 for j = j0, j0 + 1, ..., or 0 where
    every one is below 0.  Raises OverflowError, naming the first j, where
    that is not finite: an inf, or a NaN anywhere in l2."""
    top = l2.max(initial=0.0)
    if not math.isfinite(top):
        i = np.argmax(~np.isfinite(l2))
        raise OverflowError(f"lambda_{j0 + i}^2 = {l2[i]:g} is not finite"
                            f" for {spec.label()}")
    return top


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
    # np.max, not max: a NaN in any block is the answer
    return float(np.max([np.abs(d[sl, sl]).max() for d in (d1, d2, d3)]))


def detect_blocks(spec: AlgebraSpec, window: IndexWindow) -> list[tuple[int, int]]:
    """Split the window at every index j with lambda_j = 0.

    The link between basis states j and j+1 carries weight lambda_j, so a
    vanishing coupling decouples the states on either side.  Returns the
    maximal invariant sub-ranges as (lo, hi) pairs.
    """
    cuts = (window.j_min + np.flatnonzero(
        lambda_sq(spec, np.arange(window.j_min, window.j_max)) == 0.0)).tolist()
    return list(zip([window.j_min] + [j + 1 for j in cuts], cuts + [window.j_max]))


def padded_window(spec: AlgebraSpec, core_lo: int, core_hi: int,
                  pad: int, pad_hi: int | None = None) -> IndexWindow:
    """Extend a core range by up to ``pad`` states per side, stopping early
    at a decoupling boundary (lambda = 0) or where real couplings end.

    The returned window is always buildable and, when a side stops at a
    zero coupling, exactly reproduces the infinite-space operator on that
    side.  ValueError for a negative ``pad`` or ``pad_hi``.
    """
    if pad_hi is None:
        pad_hi = pad
    if min(pad, pad_hi) < 0:
        raise ValueError(f"padding must be >= 0, got {pad} and {pad_hi}")
    below, above = _breaks(spec, core_lo)
    if above < core_hi:  # a break inside the core: scan again from its top
        above = _breaks(spec, core_hi)[1]
    # a window needs lambda^2 >= 0 on j_min - 1 .. j_max: each side stops at
    # its break, one state short of it where lambda^2 < 0 there
    lo = below + 1 + (below > -math.inf and lambda_sq(spec, below) < 0.0)
    hi = above - (above < math.inf and lambda_sq(spec, above) < 0.0)
    return IndexWindow(min(core_lo, max(core_lo - pad, lo)),
                       max(core_hi, min(core_hi + pad_hi, hi)), core_lo, core_hi)


def suggested_pad(spec: AlgebraSpec, core_lo: int, core_hi: int,
                  magnitude: float) -> int:
    """Default padding: max(16, ceil(8 * magnitude * max core coupling)).

    ``magnitude`` is the size of the exponent coefficients (|y| for
    exp(iy(R+L))).  Each Taylor order of a banded exponential moves support
    by one band, so the requirement scales with coupling size.  Callers with
    slowly converging orderings should override (see
    factorization.antinormal_reach).  Raises OverflowError, as
    squared_couplings does, where a core coupling is not finite.
    """
    # a profile's lambda^2 never falls as j grows: the top label's is the largest
    top = (_finite_top(spec, lambda_sq(spec, np.arange(core_lo, core_hi + 2)), core_lo)
           if spec.is_parametric else lambda_sq(spec, core_hi + 1))
    return max(PAD_FLOOR, math.ceil(8.0 * abs(magnitude) * math.sqrt(top)))


def _oracle_window(spec, core_lo, core_hi, coeffs, within=None) -> IndexWindow:
    """The oracle's window for exp(a*L + b*R + c*S) on a core: the core +-
    ``suggested_pad`` at max |(a, b, c)|, each side stopping at its break as
    in ``padded_window``, cut to a product's window ``within`` (kept whole
    where no side passes PAD_FLOOR); expm's OverflowError where 8 max is inf."""
    lo, hi = ((core_lo - within.j_min, within.j_max - core_hi) if within
              else (math.inf, math.inf))
    if max(lo, hi) <= PAD_FLOOR:
        return within
    magnitude = max(map(abs, coeffs))
    if 8.0 * magnitude == math.inf:
        raise OverflowError("non-finite entries in exponent")
    pad = suggested_pad(spec, core_lo, core_hi, magnitude)
    return padded_window(spec, core_lo, core_hi, min(pad, lo), min(pad, hi))
