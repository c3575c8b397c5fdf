"""Seeded op lists for the three benchmark workloads.

An op is one user-level request: one certification check, one grid row,
one diagram or one CLI call.  ``run`` calls public ladderkit functions only
(always through the module attribute, so a tracer can wrap them) and returns
what the check needs.  ``check`` calls no ladderkit code, so checking is
neither timed nor traced.  It returns the op's worst deviation divided by
the acceptance gate's tolerance for that kind of result, and the op passes
when the score is at most 1 (exact checks score 0 or inf).

The seed moves inputs only within narrow strata (y bands, random phases at
fixed radii, rotation angles), because run time must not drift with the
seed: near the convergence edge a 1% change of y changes the anti-normal
window by up to 100 states.  Spin-block sizes and diagram row counts are
therefore fixed.

An op may carry a ``Known`` part: a check that the library fails today,
for a reason stated in its marker (see bench/NOTES.md), with a ceiling on
its score measured at the commit that introduced the benchmark.  While
that part fails the op counts as failed, but it makes a run incorrect only
if the rest of its check fails or the known part scores above the ceiling.

Every op is timed ``samples`` times.  The count is fixed per workload and
size class in SAMPLES, so that it does not depend on the machine's speed or
on how long the other ops take.
"""

import cmath
import importlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np

from ladderkit import (algebra, cli, factorization, gn, phase, rotations,
                       triangles)

# the package rebinds the name ``expm`` to the function, so fetch the module
xm = importlib.import_module("ladderkit.expm")

# acceptance-gate tolerances (tests/test_acceptance.py)
TOL_CLOSURE = 1e-12
TOL_RESIDUAL = 1e-10
TOL_PAD = 1e-12
TOL_ROUTES = 1e-9
TOL_EXCHANGE = 1e-13
TOL_RECURSION = 1e-8
TOL_PHASE = 1e-10
TOL_ROTATION = 1e-11
TOL_UNITARY = 1e-12
TOL_SUMRULE = 1e-10

WIDE_BLOCK_DEFECT = ("normal-ordered float product loses accuracy on wide"
                     " finite blocks (ROADMAP item 4)")
ORACLE_EDGE_DEFECT = ("gn_oracle window stops at a negative coupling and"
                      " drops lambda_-1 (ROADMAP item 4)")
SERIES_TERMS_DEFECT = ("gn_series stops at max_terms=80 before its terms"
                       " settle, off by up to 1.3 at y = 0.75")

# samples per op, by workload and size class:
#   large  50-150 ms (exact-route anti-normal certificates, the widest spin
#          block)
#   small  5-50 ms
#   tiny   under 5 ms
# No op takes longer than ~150 ms: an op's minimum over its samples is
# steady only if single samples are short against the stretches in which a
# shared host slows the CPU, and if there are many of them.  sweep's ops
# take 0.1-20 ms and are all sampled alike.  The counts keep a run at
# 15-30 s on a 2-vCPU guest.
SAMPLES = {
    "certify": {"large": 30, "small": 40, "tiny": 60},
    "sweep": {"small": 60},
    "tables": {"small": 60, "tiny": 50},
}


@dataclass
class Known:
    """The part of an op's check that fails today: its defect, its score
    and the score it must not exceed."""
    defect: str
    check: Callable[[object], float]
    ceiling: float


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], float]
    known: Known | None = None
    warm: Callable[[], None] | None = None
    size: str = "small"
    samples: int = 1


def _exact(ok: bool) -> float:
    return 0.0 if ok else math.inf


def _residual_op(kind, tol, run, size="small"):
    return Op(kind, run, lambda r: r / tol, size=size)


# ---------------------------------------------------------------------------
# CLI ops: one README line, checked for exit code, gate fields and
# byte-identical output against the warm-up call

_CLI_LIMITS = {"pad_sufficiency": TOL_PAD,
               "recursion_residual": TOL_RECURSION,
               "oracle_deviation": TOL_PHASE}


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cli_score(text: str) -> float:
    if not text.startswith("{"):
        return 0.0
    payload = json.loads(text)
    if payload.get("pass") is False:
        return math.inf
    records = [payload] + list(payload.get("rows", []))
    return max((rec[key] / tol for rec in records
                for key, tol in _CLI_LIMITS.items() if key in rec),
               default=0.0)


def cli_op(kind, argv, size="small"):
    reference = {}

    def run():
        return _call_cli(argv)

    def warm():
        reference["text"] = run()[1]

    def check(out):
        code, text = out
        if code != 0 or text != reference.get("text"):
            return math.inf
        return _cli_score(text)

    return Op(kind, run, check, warm=warm, size=size)


# ---------------------------------------------------------------------------
# certify: factorization certificates on large windows

def _u1_point(spec, core, y, anti_size):
    """Normal residual, pad certificate and anti-normal residual at one
    criterion-02 point, with the windows the acceptance gate uses for its
    core."""
    lo, hi = core
    coeffs = (1j * y, 1j * y, 0.0)

    def normal_window():
        pad = algebra.suggested_pad(spec, lo, hi, y)
        return algebra.padded_window(spec, lo, hi, pad)

    def normal():
        return factorization.factorization_residual(
            spec, normal_window(), coeffs, "normal")

    def pad_cert():
        return xm.pad_sufficiency(spec, normal_window(), coeffs, hi, hi)

    def anti():
        pad = algebra.suggested_pad(spec, lo, hi, y)
        reach = factorization.antinormal_reach(spec, hi, coeffs)
        window = algebra.padded_window(spec, lo, hi, pad,
                                       max(pad, reach - hi))
        return factorization.factorization_residual(
            spec, window, coeffs, "anti-normal")

    return [_residual_op("u1.normal", TOL_RESIDUAL, normal, "tiny"),
            _residual_op("u1.pad", TOL_PAD, pad_cert, "tiny"),
            _residual_op("u1.anti", TOL_RESIDUAL, anti, anti_size)]


def _u2_point(spec, core, coeffs, with_pad):
    """Both orderings of exp(aL + bR + cS) at one criterion-03 point, with
    the windows ``ladderkit factorize`` picks."""
    lo, hi = core
    mag = max(abs(c) for c in coeffs)

    def window(ordering):
        pad = algebra.suggested_pad(spec, lo, hi, mag)
        pad_hi = pad
        if ordering == "anti-normal":
            reach = factorization.antinormal_reach(spec, hi, coeffs)
            pad_hi = max(pad, reach - hi)
        return algebra.padded_window(spec, lo, hi, pad, pad_hi)

    def residual(ordering):
        return lambda: factorization.factorization_residual(
            spec, window(ordering), coeffs, ordering)

    ops = [_residual_op("u2.normal", TOL_RESIDUAL, residual("normal"), "tiny"),
           _residual_op("u2.anti", TOL_RESIDUAL, residual("anti-normal"), "tiny")]
    if with_pad:
        ops.append(_residual_op("u2.pad", TOL_PAD, lambda: xm.pad_sufficiency(
            spec, window("normal"), coeffs, hi, lo), "tiny"))
    return ops


def _polar(rng, r_lo, r_hi):
    return cmath.rect(rng.uniform(r_lo, r_hi), rng.uniform(0.0, 2 * math.pi))


def _criterion03_coeffs(rng, sigma):
    # the gate draws N(0,1) * (0.2, 0.2, 0.1) and keeps |q| <= 1
    while True:
        a = complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 0.2
        b = complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 0.2
        c = complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 0.1
        if abs(a * b * sigma - c * c * sigma * sigma) <= 1.0:
            return a, b, c


SPIN_Y = 0.3
# residual at y = 0.3 for each J (2J + 1 states), measured at the commit
# that introduced the benchmark (4.0e-10, 6.0e-9 and 9.1e-8), doubled:
# every block misses 1e-10
SPIN_CEILINGS = {39: 8e-10, 45: 1.2e-8, 51: 1.8e-7}


def _spin_block(J, ceiling, size):
    """Normal-ordered residual on the whole finite block (J+1, -J, -1/2),
    2J+1 states."""
    spec = algebra.AlgebraSpec.parametric(J + 1, -J, -0.5)
    coeffs = (1j * SPIN_Y, 1j * SPIN_Y, 0.0)

    def run():
        pad = algebra.suggested_pad(spec, -J, J, SPIN_Y)
        window = algebra.padded_window(spec, -J, J, pad)
        return factorization.factorization_residual(spec, window, coeffs,
                                                    "normal")

    return Op("spin.normal", run, lambda r: 0.0,
              Known(WIDE_BLOCK_DEFECT, lambda r: r / TOL_RESIDUAL,
                    ceiling / TOL_RESIDUAL),
              size=size)


def certify(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    # criterion 02 at y = 0.2, 0.5 and 0.65.  The gate's core 0..11 is kept
    # at y = 0.2; at 0.5 and 0.65 the core shrinks to 0..5 and 0..3, so that
    # the anti-normal certificates take the exact route (antinormal_core) on
    # 58-92-state windows in 70-130 ms.  The gate's y = 0.8 points (6-8 s
    # each on 615-635-state windows) are left out: a single sample that long
    # is as slow as the host's load over it, so its time cannot be measured
    # steadily on a shared machine.  These points do not move with the seed:
    # their windows, and so the ops near certify's p90, would.
    for alpha, beta in ((1, 1), (1, 2)):
        spec = algebra.AlgebraSpec.parametric(alpha, beta, 1)
        for y, core, anti_size in ((0.2, (0, 11), "tiny"), (0.5, (0, 5), "large"),
                                   (0.65, (0, 3), "large")):
            ops += _u1_point(spec, core, y, anti_size)
    su2 = algebra.AlgebraSpec.parametric(7, -8, -0.5)
    for y in (0.4, 0.8, 1.1):
        ops += _u1_point(su2, (-5, 6), y, "tiny")
    # criterion 03: random phases at fixed radii that keep (1, 2, 1) on the
    # matrix route and its window fixed (at the gate's radii a random
    # quarter of the points take the 0.7 s exact route, which would make run
    # time follow the seed), and the gate's own distribution on the finite
    # (6, -7, -1/2) block, whose window is the whole block
    spec_a = algebra.AlgebraSpec.parametric(1, 2, 1)
    for _ in range(16):
        coeffs = (_polar(rng, 0.1, 0.1), _polar(rng, 0.1, 0.1),
                  _polar(rng, 0.025, 0.025))
        ops += _u2_point(spec_a, (0, 9), coeffs, with_pad=True)
    # the gate's distribution on the finite block; 25 points keep at least
    # ten ops beyond p90
    spec_b = algebra.AlgebraSpec.parametric(6, -7, -0.5)
    for _ in range(25):
        ops += _u2_point(spec_b, (-5, 7), _criterion03_coeffs(rng, -0.5),
                         with_pad=False)
    # wide spin blocks of 79, 91 and 103 states (30-75 ms); the product
    # costs ~J^4, so J does not move with the seed
    for J, ceiling in SPIN_CEILINGS.items():
        ops.append(_spin_block(J, ceiling, "large" if J > 50 else "small"))
    # the README line with core 0:7 instead of 0:11, which takes the exact
    # route in 0.36 s
    ops.append(cli_op("cli.factorize", [
        "factorize", "--alpha", "1", "--beta", "1", "--sigma", "1",
        "--y", "0.3", "--core", "0:7", "--certify-pad"]))
    ops.append(cli_op("cli.factorize", [
        "factorize", "--alpha", "1", "--beta", "2", "--sigma", "1",
        "--a", "0.1,0.2", "--b", "0.05,0.1", "--c", "0.02"]))
    return ops


# ---------------------------------------------------------------------------
# sweep: amplitude and phase grids

def _bands(rng, lo, hi, count):
    """``count`` points spread evenly over [lo, hi], each drawn within 10%
    of its spacing around its slot, so that the grid's cost, which grows
    with y, barely moves with the seed."""
    width = (hi - lo) / count
    return [lo + (k + 0.45 + 0.1 * rng.random()) * width for k in range(count)]


# closed-vs-series deviation at y = 0.7525, the top of the last y band,
# measured at the commit that introduced the benchmark, doubled
SERIES_CEILINGS = {(1, 1): 5e-5, (1, 2): 2.2e-3, (1, 0.5): 6e-6, (2, 3): 2.6}


def _c04_row(alpha, beta, y):
    spec = algebra.AlgebraSpec.parametric(alpha, beta, 1)
    swapped = algebra.AlgebraSpec.parametric(beta, alpha, 1)

    def run():
        rows = []
        for n in range(7):
            orc = gn.gn_oracle(spec, n, y)
            rows.append((gn.gn_closed(spec, n, y).value,
                         gn.gn_series(spec, n, y).value,
                         orc.value, orc.err_estimate,
                         gn.gn_closed(swapped, n, y).value))
        return rows

    def check(rows):
        routes = max(max(abs(c - o), e) for c, _, o, e, _ in rows)
        exchange = max(abs(c - x) for c, _, _, _, x in rows)
        return max(routes / TOL_ROUTES, exchange / TOL_EXCHANGE)

    def series(rows):
        return max(abs(c - s) for c, s, _, _, _ in rows) / TOL_ROUTES

    if y <= 0.7:
        return Op("gn.routes", run, lambda rows: max(check(rows), series(rows)))
    # in the last y band (0.742-0.753) the series' 80 terms run out for
    # every spec; in the band below (0.635-0.645) they agree to 3e-13
    ceiling = SERIES_CEILINGS[alpha, beta] / TOL_ROUTES
    return Op("gn.routes", run, check, Known(SERIES_TERMS_DEFECT, series, ceiling))


def _reference_gn(alpha, beta, n, y):
    """The documented closed form of G_n (sigma = 1) in 30-digit mpmath,
    analytically continued past the 2F1 series domain."""
    with mpmath.workdps(30):
        amp = mpmath.mpf(1)
        for j in range(n):
            amp *= mpmath.sqrt((alpha + j) * (beta + j))
        amp /= mpmath.factorial(n)
        y = mpmath.mpf(y)
        value = (amp * mpmath.tanh(y) ** n
                 * mpmath.sech(y) ** (alpha + beta - 1)
                 * mpmath.hyp2f1(1 - alpha, 1 - beta, 1 + n,
                                 -mpmath.sinh(y) ** 2))
        return float(value)


def _auto_row(alpha, beta, y):
    spec = algebra.AlgebraSpec.parametric(alpha, beta, 1)

    def run():
        return [gn.gn_auto(spec, n, y).value for n in range(7)]

    def check(values):
        return max(abs(v - _reference_gn(alpha, beta, n, y))
                   for n, v in enumerate(values)) / TOL_ROUTES

    if math.sinh(y) ** 2 < 0.95:
        return Op("gn.auto", run, check)
    # past |z| = sinh(y)^2 >= 0.95 the closed form's series stops and
    # gn_auto falls back to the oracle, off by 0.18-0.24 up to y = 1.16
    return Op("gn.auto", run, lambda values: 0.0,
              Known(ORACLE_EDGE_DEFECT, check, 0.3 / TOL_ROUTES))


def _recursion_row(spec, y):
    def run():
        return [gn.recursion_residual(spec, n, y) for n in range(6)]

    return Op("gn.recursion", run, lambda r: max(r) / TOL_RECURSION)


def _gnm_row(alpha, beta, y):
    spec = algebra.AlgebraSpec.parametric(alpha, beta, 1)
    pairs = [(n, m) for n in range(7) for m in range(min(n, 3) + 1)]

    def run():
        window = algebra.padded_window(
            spec, 0, 6, algebra.suggested_pad(spec, 0, 6, y))
        u = xm.expm(xm.operator_matrix(spec, window,
                                       (1j * y, 1j * y, 0.0))).matrix
        return [(gn.gnm(spec, n, m, y).value,
                 complex(u[window.idx(n), window.idx(m)])) for n, m in pairs]

    def check(rows):
        return max(abs(elt - 1j ** (n - m) * val)
                   for (n, m), (val, elt) in zip(pairs, rows)) / TOL_ROUTES

    return Op("gn.gnm", run, check)


def _phase_op(n, m, y):
    def run():
        return (phase.phase_element(n, m, y),
                phase.phase_oracle_element(n, m, y, dim=60))

    return Op("phase.element", run, lambda out: abs(out[0] - out[1]) / TOL_PHASE)


def _sumrule_row(y):
    def run():
        return [triangles.sumrule_check(name, y, 16)
                for name in triangles.SUMRULE_NAMES]

    return Op("sumrule", run, lambda devs: max(devs) / TOL_SUMRULE)


def sweep(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for alpha, beta in ((1, 1), (1, 2), (1, 0.5), (2, 3)):
        ops += [_c04_row(alpha, beta, y) for y in _bands(rng, 0.05, 0.8, 7)]
    ops += [_auto_row(1.5, 2.5, y) for y in _bands(rng, 0.1, 1.2, 12)]
    specs = [algebra.AlgebraSpec.parametric(a, b, 1)
             for a, b in ((1, 1), (1, 2), (1, 0.5), (2, 3))]
    specs += [algebra.AlgebraSpec.from_profile(p) for p in ("constant-one", "sho")]
    for spec in specs:
        ops += [_recursion_row(spec, y) for y in _bands(rng, 0.15, 1.05, 2)]
    for alpha, beta in ((1, 1), (1, 2)):
        ops += [_gnm_row(alpha, beta, y) for y in _bands(rng, 0.1, 0.6, 3)]
    ops += [_phase_op(rng.randint(0, 10), rng.randint(0, 10),
                      rng.uniform(0.2, 1.0)) for _ in range(30)]
    ops += [_sumrule_row(y) for y in _bands(rng, 0.3, 0.9, 20)]
    ops.append(cli_op("cli.gn", [
        "gn", "--alpha", "1", "--beta", "2", "--sigma", "1", "--n", "2",
        "--y-grid", "0.1:0.5:9", "--recursion"]))
    ops.append(cli_op("cli.gn", ["gn", "--profile", "sho", "--n", "3",
                                 "--y", "0.7"]))
    ops.append(cli_op("cli.phase", ["phase", "--n", "2", "--m", "1",
                                    "--y", "0.5", "--check-oracle", "60"]))
    ops.append(cli_op("cli.sumrule", ["sumrule", "--name", "phase-integral",
                                      "--y", "0.8", "--k-max", "16"]))
    return ops


# ---------------------------------------------------------------------------
# tables: exact diagrams and tiny-window matrices

def _zigzag(count):
    """Euler zigzag numbers A000111 by the Seidel-Entringer triangle: even
    indices are the secant numbers, odd ones the tangent numbers."""
    out, row = [1], [1]
    for n in range(1, count):
        new = [0]
        for k in range(n):
            new.append(new[-1] + row[n - 1 - k])
        row = new
        out.append(row[-1])
    return out


def _double_factorials(count):
    out = [1]
    for k in range(1, count):
        out.append(out[-1] * (2 * k - 1))
    return out


def _weights(rule):
    """Link weights (w_right, w_left) of a rule, from their definitions."""
    name, p = rule
    one = Fraction(1)
    return {
        "unit": (lambda n: one, lambda n: one),
        "tilde": (lambda n: Fraction(n + 1), lambda n: n + p),
        "bar": (lambda n: n + p, lambda n: Fraction(n + 1)),
        "gauss-tilde": (lambda n: one, lambda n: Fraction(n + 1)),
        "gauss-bar": (lambda n: Fraction(n + 1), lambda n: one),
        "lambda": (lambda n: n + p, lambda n: n + p),  # alpha = beta = p, sigma = 1
    }[name]


def _library_rule(rule):
    name, p = rule
    if name == "lambda":
        return triangles.lambda_symmetric_rule(
            algebra.AlgebraSpec.parametric(float(p), float(p), 1))
    make = {"unit": triangles.unit_rule, "tilde": triangles.tilde_rule,
            "bar": triangles.bar_rule, "gauss-tilde": triangles.gauss_tilde_rule,
            "gauss-bar": triangles.gauss_bar_rule}[name]
    return make(p) if name in ("tilde", "bar") else make()


def _recursion_mismatches(rows, rule, boundary, start):
    """Rows that differ from the recursion applied to the row above."""
    w_right, w_left = _weights(rule)
    bad = int(rows[0] != {start: 1})
    for prev, cur in zip(rows, rows[1:]):
        expect = {}
        for n in {m + s for m in prev for s in (-1, 1)}:
            if boundary == "triangular" and n < 0:
                continue
            v = w_right(n - 1) * prev.get(n - 1, 0) + w_left(n) * prev.get(n + 1, 0)
            if v:
                expect[n] = v
        bad += cur != expect
    return bad


def _column0_anchor(rule, start, count):
    """Known integer sequence down column 0, where there is one."""
    name, p = rule
    if name == "tilde" and p == 1:
        return _zigzag(2 * count)[0::2]
    if (name, p) in (("tilde", 2), ("bar", 2)):
        return _zigzag(2 * count)[1::2]
    if name in ("gauss-tilde", "gauss-bar"):
        return _double_factorials(count)
    if name == "unit":  # ballot numbers: paths from start to 0 above -1
        return [math.comb(r, (r + start) // 2) - math.comb(r, (r + start) // 2 + 1)
                for r in range(start, start + 2 * count, 2)]
    return None


def _diagram_op(rule, boundary, start, num_rows):
    def run():
        d = triangles.generate(_library_rule(rule), boundary, start, num_rows)
        return (d.rows, triangles.column_series(d, 0),
                triangles.row_sums(d, "plain"),
                triangles.row_sums(d, "alternating"),
                triangles.render_ascii(d), triangles.to_records(d))

    def check(out):
        rows, series, plain, alternating, text, records = out
        bad = _recursion_mismatches(rows, rule, boundary, start)
        col = [(r, row[0]) for r, row in enumerate(rows) if 0 in row]
        anchor = _column0_anchor(rule, start, len(col))
        bad += anchor is not None and [v for _, v in col] != anchor
        bad += series != [(r, (-1) ** (((r + start) // 2) % 2) * v / math.factorial(r))
                          for r, v in col]
        bad += plain != [sum(row.values()) for row in rows]
        bad += alternating != [sum((-1) ** i * row[n] for i, n in enumerate(sorted(row)))
                               for row in rows]
        bad += len(text.splitlines()) != num_rows + 1
        bad += [(rec["row"], rec["column"],
                 Fraction(int(rec["numerator"]), int(rec["denominator"])))
                for rec in records] != [(r, n, row[n]) for r, row in enumerate(rows)
                                        for n in sorted(row)]
        return _exact(bad == 0)

    return Op("diagram.rule", run, check)


def _diamond_op(num_rows):
    def run():
        d = triangles.generate(triangles.unit_rule(), "diamond", 0, num_rows)
        return d.rows, triangles.row_sums(d, "plain"), triangles.column_series(d, 0)

    def check(out):
        rows, sums, series = out
        ok = sums == [2 ** r for r in range(num_rows)]
        ok = ok and series == [(r, Fraction((-1) ** (r // 2 % 2) * math.comb(r, r // 2),
                                            math.factorial(r)))
                               for r in range(0, num_rows, 2)]
        for r, row in enumerate(rows):
            ok = ok and row == {n: math.comb(r, (r + n) // 2)
                                for n in range(-r, r + 1, 2)}
        return _exact(ok)

    return Op("diagram.diamond", run, check)


HALF_SPINS = (0.5, 1.0, 1.5, 2.0, 2.5)


def _rotation_op(omega, theta, phi):
    def run():
        out = []
        for j in HALF_SPINS:
            spec = rotations.RotationSpec(omega, theta, phi, j)
            out.append((rotations.rotation_factorized(spec),
                        rotations.rotation_direct(spec),
                        rotations.antinormal_rotation(spec)))
        return out

    def check(mats):
        score = 0.0
        for f, d, a in mats:
            pair = max(np.abs(f - d).max(), np.abs(a - d).max(), np.abs(f - a).max())
            unit = np.abs(f.conj().T @ f - np.eye(f.shape[0])).max()
            score = max(score, pair / TOL_ROTATION, unit / TOL_UNITARY)
        return float(score)

    return Op("rotation", run, check, size="tiny")


def _tiny_factorization_op(omega, theta, phi):
    """Both orderings on the spin-J blocks (1, -2J, -1/2), 2 to 6 states,
    with a rotation's exponent coefficients."""
    def run():
        out = []
        for j in HALF_SPINS:
            two_j = round(2 * j)
            spec = algebra.AlgebraSpec.parametric(1, -two_j, -0.5)
            window = algebra.IndexWindow(0, two_j, 0, two_j)
            rs = rotations.RotationSpec(omega, theta, phi, j)
            coeffs = (rs.a, rs.b, rs.c)
            out += [factorization.factorization_residual(spec, window, coeffs, o)
                    for o in ("normal", "anti-normal")]
        return out

    return Op("tiny.factorization", run, lambda r: max(r) / TOL_RESIDUAL,
              size="tiny")


def _closure_op(sigma):
    """Criterion 01: commutator closure for one sigma's specs."""
    if sigma > 0:
        pairs = [(1, 1), (1, 2), (2, 3), (1.5, 2.5), (10, 7), (4.25, 6.75), (1, 0.5)]
    else:
        pairs = [(5, -6), (3, -8), (10, -10), (2.5, -7.5), (4, -4), (6.5, -9.5), (1, -8)]

    def window(alpha, beta):
        if sigma > 0:
            return algebra.IndexWindow(1, 24, 3, 22)
        lo, hi = math.ceil(1 - alpha), math.floor(-beta)
        return algebra.IndexWindow(lo, hi, lo + 2, hi - 2)

    def run():
        out = []
        for alpha, beta in pairs:
            spec = algebra.AlgebraSpec.parametric(alpha, beta, sigma)
            m = algebra.build_matrices(spec, window(alpha, beta))
            out.append(algebra.commutator_residual(m, spec))
        return out

    return Op("closure", run, lambda r: max(r) / TOL_CLOSURE, size="tiny")


def _angles(rng):
    # omega <= 1.2 keeps s = cos(omega) - i cos(theta) sin(omega) off zero
    return (rng.uniform(0.05, 1.2), rng.uniform(0.1, 3.0),
            rng.uniform(0.0, 2 * math.pi))


def tables(seed: int) -> list[Op]:
    rng = random.Random(seed)
    # generate costs ~rows^2.5, so row counts do not move with the seed;
    # the largest diamond takes ~50 ms (a 400-row one ~0.9 s, too long a
    # single sample to time steadily on a shared machine)
    ops = [_diamond_op(rows) for rows in (80, 100, 120)]
    rules = [("tilde", 1), ("tilde", 2), ("bar", 2), ("bar", Fraction(3, 2)),
             ("gauss-tilde", None), ("gauss-bar", None), ("lambda", 2)]
    ops += [_diagram_op(rule, "triangular", 0, 60) for rule in rules]
    ops += [_diagram_op(("unit", None), "triangular", m, 60) for m in (0, 1, 2)]
    ops += [_rotation_op(*_angles(rng)) for _ in range(52)]
    ops += [_tiny_factorization_op(*_angles(rng)) for _ in range(32)]
    ops += [_closure_op(s) for s in (2.0, 1.0, 0.5, 0.25, -2.0, -1.0, -0.5, -0.25)]
    ops.append(cli_op("cli.triangle", ["--format", "ascii", "triangle",
                                       "--rule", "tilde:2", "--rows", "9"], "tiny"))
    ops.append(cli_op("cli.triangle", ["triangle", "--rule", "unit",
                                       "--boundary", "diamond", "--rows", "7",
                                       "--row-sums", "both"], "tiny"))
    ops.append(cli_op("cli.triangle", ["triangle", "--rule", "lambda:1,1,1",
                                       "--rows", "8", "--column", "0"], "tiny"))
    ops.append(cli_op("cli.rotate", ["rotate", "--omega", "0.7", "--theta",
                                     "1.1", "--phi", "2.3", "--j", "1.5"], "tiny"))
    ops.append(cli_op("cli.check-algebra", ["check-algebra", "--alpha", "1",
                                            "--beta", "1", "--sigma", "1",
                                            "--window", "0:16"], "tiny"))
    ops.append(cli_op("cli.check-algebra", ["check-algebra", "--profile",
                                            "phase", "--window", "0:8"], "tiny"))
    return ops


BUILDERS = {"certify": certify, "sweep": sweep, "tables": tables}


def build(workload: str, seed: int) -> list[Op]:
    ops = BUILDERS[workload](seed)
    for op in ops:
        op.samples = SAMPLES[workload][op.size]
    return ops


def warm_up(ops: list[Op]) -> None:
    """Run every CLI op once (its output is the byte-identity reference)
    and one small instance of the costly paths, so lazy set-up and first
    calls are paid before timing."""
    for op in ops:
        if op.warm is not None:
            op.warm()
    spec = algebra.AlgebraSpec.parametric(1, 2, 1)
    window = algebra.IndexWindow(0, 12, 0, 3)
    coeffs = (0.3j, 0.3j, 0.0)
    factorization.antinormal_core(spec, window, coeffs)
    factorization.ordered_product(spec, window, coeffs, "normal")
    gn.gn_oracle(spec, 1, 0.3)
    triangles.generate(triangles.unit_rule(), "diamond", 0, 8)
