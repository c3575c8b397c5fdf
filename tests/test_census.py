"""Route agreement on fixed draws: a ratchet on wrong answers.

``tests/test_contract.py`` checks that an answer is finite, not that it is
right.  This census draws 1000 fixed amplitudes G_n(y) from
``random.Random(5)`` (not Hypothesis, so the counts are stable) and asks
``gn_closed``, ``gn_series`` and ``gn_oracle`` for each.  A route that
raises one of REFUSALS does not answer.  A draw disagrees where some pair of
answers differs by more than err1 + err2 + 1e-14 max(1, |v|): the error
figures do not cover the difference, so at least one answer is wrong with
no figure that says so.  It counts in a bucket above 1e-9 or at or below.

Draws are classed by the sector of states coupled to 0
(``algebra._breaks(spec, 0)``): a negative break (lambda^2 < 0 at either
end), a whole block (zero couplings at both ends), sigma > 0, and other.
The oracle is not run past ORACLE_CAP states; those draws form a class of
their own, so that a larger window is counted, not dropped.

The ceilings are the counts this census found when it was introduced.  A
fix lowers its class's ceiling to the new count, as a stricter check; the
draws and the allowance never change to make a count fall.
"""

import math
import random
from collections import Counter

from ladderkit import AlgebraSpec, LadderError, gn_closed, gn_oracle, gn_series
from ladderkit.algebra import _breaks, _oracle_window, lambda_sq

SEED, DRAWS = 5, 1000
ORACLE_CAP = 400
REFUSALS = (LadderError, ValueError, OverflowError)
SIGMAS = (1.0, -0.5, 0.25, 2.0, -1.0)
SKIPPED = "oracle past the cap"

# (class, bucket) -> the most disagreeing draws allowed; SKIPPED's "draws"
# bounds how many draws the oracle skips
CEILINGS = {
    ("negative break", "above 1e-9"): 55,
    ("negative break", "at most 1e-9"): 10,
    ("whole block", "above 1e-9"): 1,
    ("whole block", "at most 1e-9"): 8,
    ("sigma > 0", "above 1e-9"): 18,
    ("sigma > 0", "at most 1e-9"): 24,
    ("other", "above 1e-9"): 0,
    ("other", "at most 1e-9"): 0,
    (SKIPPED, "above 1e-9"): 0,
    (SKIPPED, "at most 1e-9"): 0,
    (SKIPPED, "draws"): 8,
}


def _parameter(rng: random.Random) -> float:
    """An integer, a half-integer or a uniform real, all in [-10, 10]."""
    kind = rng.randrange(3)
    if kind == 0:
        return float(rng.randint(-10, 10))
    if kind == 1:
        return rng.randint(-10, 9) + 0.5
    return rng.uniform(-10.0, 10.0)


def _draws():
    rng = random.Random(SEED)
    for _ in range(DRAWS):
        spec = AlgebraSpec.parametric(_parameter(rng), _parameter(rng),
                                      rng.choice(SIGMAS))
        yield spec, rng.randint(0, 6), rng.uniform(0.01, 3.0)


def _sector(spec: AlgebraSpec) -> str:
    ends = [k for k in _breaks(spec, 0) if math.isfinite(k)]
    if any(lambda_sq(spec, k) < 0.0 for k in ends):
        return "negative break"
    if len(ends) == 2:
        return "whole block"
    return "sigma > 0" if spec.sigma > 0 else "other"


def _answers(routes, spec, n, y):
    out = []
    for route in routes:
        try:
            out.append(route(spec, n, y))
        except REFUSALS:
            pass
    return out


def _census() -> Counter:
    counts = Counter()
    for spec, n, y in _draws():
        routes, group = [gn_closed, gn_series], _sector(spec)
        try:
            states = _oracle_window(spec, 0, n, (1j * y, 1j * y, 0.0)).size
        except REFUSALS:
            states = 0  # gn_oracle refuses the same way
        if states > ORACLE_CAP:
            group = SKIPPED
            counts[SKIPPED, "draws"] += 1
        else:
            routes.append(gn_oracle)
        answers = _answers(routes, spec, n, y)
        worst, disagrees = 0.0, False
        for i, u in enumerate(answers):
            for v in answers[i + 1:]:
                off = abs(u.value - v.value)
                allowed = (u.err_estimate + v.err_estimate
                           + 1e-14 * max(1.0, abs(u.value), abs(v.value)))
                worst, disagrees = max(worst, off), disagrees or off > allowed
        if disagrees:
            counts[group, "above 1e-9" if worst > 1e-9 else "at most 1e-9"] += 1
    return counts


def test_route_disagreements_stay_under_their_ceilings():
    counts = _census()
    over = {key: (counts[key], ceiling) for key, ceiling in CEILINGS.items()
            if counts[key] > ceiling}
    assert over == {}, f"(count, ceiling) {over}; all counts {dict(counts)}"
