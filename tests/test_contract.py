"""The public API's contract: a call returns a finite value, with a finite
err_estimate where it carries one, or raises one of a fixed tuple of
refusals, and it does either within a time cap.

Not covered yet: ``gn_auto`` and ``gn_oracle`` join with ROADMAP items 13
and 15, which give the oracle's window a ceiling and take the oracle out of
``gn_auto``; until then a large y asks them for windows of thousands of
states, so ``cli gn`` runs ``--route closed`` or ``series`` here.
``phase_oracle_element``, whose window grows with |y|, waits for the same
ceiling.
"""

import contextlib
import io
import json
import math
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderkit import (AlgebraSpec, GnEvaluation, Hyp2F1Sum, LadderError,
                       U2Factors, a_n, bessel_jn, cli, gn_closed, gn_series,
                       gnm, hyp2f1_series, phase_element, phase_gnm,
                       recursion_residual, sumrule_check, u2_factors)
from ladderkit.triangles import SUMRULE_NAMES

REFUSALS = (LadderError, ValueError, OverflowError)
CAP_S = 2.0

# edge values, integers and half-integers (where sums terminate and
# couplings vanish), and log-uniform magnitudes of either sign
_EDGES = (0.0, 1e-300, -1e-300, 1e300, -1e300)
reals = st.one_of(
    st.sampled_from(_EDGES),
    st.integers(-40, 40).map(float),
    st.integers(-80, 80).map(lambda k: k / 2),
    st.builds(lambda e, s: s * 10.0 ** e, st.floats(-300, 300),
              st.sampled_from((1.0, -1.0))))
coefficients = st.one_of(reals, reals.map(lambda x: 1j * x),
                         st.builds(complex, reals, reals))
orders = st.integers(-2, 60)
specs = st.builds(AlgebraSpec.parametric, reals, reals, reals)


class Stall(Exception):
    pass


def _alarm(signum, frame):
    raise Stall(f"no answer within {CAP_S} s")


def _capped(call, *args):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    try:
        return call(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _finite(out) -> bool:
    if isinstance(out, (GnEvaluation, Hyp2F1Sum)):
        return math.isfinite(out.value) and math.isfinite(out.err_estimate)
    if isinstance(out, U2Factors):
        return all(map(_finite, out))
    if isinstance(out, complex):
        return math.isfinite(out.real) and math.isfinite(out.imag)
    return math.isfinite(out)


def _cli(*argv) -> int:
    """The exit code of one ``cli.main`` run, checking its output: a JSON
    payload with finite numbers on exit 0 or 1, one stderr line else."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code in (0, 1):
        def refuse(constant):
            raise AssertionError(f"{constant} in the payload of {argv}")
        json.loads(out.getvalue(), parse_constant=refuse)
    else:
        assert code in (2, 3) and out.getvalue() == "", (argv, code)
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    return code


CASES = {
    "gn_closed": (gn_closed, st.tuples(specs, orders, reals)),
    "gn_series": (gn_series, st.tuples(specs, orders, reals)),
    "gnm": (gnm, st.tuples(specs, orders, orders, reals)),
    "a_n": (a_n, st.tuples(specs, orders)),
    "hyp2f1_series": (hyp2f1_series, st.tuples(reals, reals, reals, reals)),
    "u2_factors": (u2_factors, st.tuples(specs, coefficients, coefficients,
                                         coefficients)),
    "bessel_jn": (bessel_jn, st.tuples(orders, reals)),
    "phase_gnm": (phase_gnm, st.tuples(orders, orders, reals)),
    "phase_element": (phase_element, st.tuples(orders, orders, reals)),
    "recursion_residual": (recursion_residual, st.tuples(specs, orders, reals)),
    "sumrule_check": (sumrule_check, st.tuples(
        st.sampled_from(SUMRULE_NAMES), reals, st.integers(-1, 200))),
    "cli gn": (lambda *a: _cli("gn", "--alpha", a[0], "--beta", a[1],
                               "--sigma", a[2], "--n", a[3], "--y", a[4],
                               "--route", a[5]),
               st.tuples(reals, reals, reals, orders, reals,
                         st.sampled_from(("closed", "series")))),
    "cli gn m": (lambda *a: _cli("gn", "--alpha", a[0], "--beta", a[1],
                                 "--sigma", a[2], "--n", a[3], "--m", a[4],
                                 "--y", a[5], "--route", "closed",
                                 "--recursion"),
                 st.tuples(reals, reals, reals, orders, orders, reals)),
    "cli phase": (lambda *a: _cli("phase", "--n", a[0], "--m", a[1],
                                  "--y", a[2]),
                  st.tuples(orders, orders, reals)),
    "cli sumrule": (lambda *a: _cli("sumrule", "--name", a[0], "--y", a[1],
                                    "--k-max", a[2]),
                    st.tuples(st.sampled_from(SUMRULE_NAMES), reals,
                              st.integers(-1, 200))),
}


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_finite_answer_or_a_typed_refusal_in_bounded_time(name, data):
    call, args = CASES[name]
    drawn = data.draw(args)
    try:
        out = _capped(call, *drawn)
    except REFUSALS:
        return
    assert _finite(out), (name, drawn, out)
