"""Command-line surface.

Every run is a pure function of its flags (or of a JSON config file with
the same keys; a key naming no flag, or a value the flag cannot take, is a
configuration error), so identical invocations produce byte-identical output.
Commands return their payload and ``main`` writes it.  Exit codes: 0
success, 1 exactly when "pass" is false, 2 domain error (poles,
non-representable couplings, degenerate parametrizations), 3 bad
configuration or an ``--out`` that cannot be written.
"""

import argparse
import cmath
import csv
import functools
import io
import itertools
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import algebra, factorization, gn, phase, rotations, triangles
from .errors import ConvergenceError, LadderError, PoleError
from .expm import pad_sufficiency

EXIT_OK = 0
EXIT_TOL = 1
EXIT_DOMAIN = 2
EXIT_CONFIG = 3

# arithmetic outside the library's own checks can still raise the next
# two, and a window too large to allocate the last
_DOMAIN_ERRORS = (LadderError, ZeroDivisionError, OverflowError, MemoryError)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; config errors are exit 3 here
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")


def _join_negative_values(argv: list[str]) -> list[str]:
    """``--alpha -1e9`` -> ``--alpha=-1e9``, and likewise for every value
    after a long option that starts with '-' and a digit or '.': argparse
    takes such a token for an option unless it is a plain integer or
    decimal, so it would refuse exponents, ranges (``--core -3:3``), grids
    and complex pairs (``--a -0.5,0.1``)."""
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-\.?\d", tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_grid(text: str) -> list[float]:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START:STOP:COUNT, got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError("grid needs at least one point")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) <= 2:
            return complex(*map(float, parts))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")


# the JSON kinds a config value other than a string may take, by flag
# type; after list come the kinds of its items
_NUMBER = (int, float)
_CONFIG_KINDS = {int: (int,), float: _NUMBER, _parse_complex: _NUMBER,
                 _parse_range: (list, int), _parse_grid: (list, *_NUMBER)}


def _config_fits(action: argparse.Action, value) -> bool:
    """Whether a config value can stand for the flag: its default, a string
    in its choices or for its type to parse (as argparse parses a string
    default), a boolean for an on/off flag, a list of numbers for the
    repeatable ``--y``, or else a value of its type's kinds."""
    append = isinstance(action, argparse._AppendAction)
    if value is action.default or isinstance(value, str) and not append:
        return value in (action.choices or [value])
    kinds = ((bool,) if action.nargs == 0 else (list, *_NUMBER) if append
             else _CONFIG_KINDS.get(action.type, ()))
    if kinds[:1] == (list,):
        return type(value) is list and all(type(x) in kinds[1:] for x in value)
    return type(value) in kinds


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    elif args.format == "ascii" and "ascii" in payload:
        text = payload["ascii"] + "\n"
    else:
        pairs = sorted(_flatten(payload).items())
        if args.format == "ascii":
            text = "".join(f"{k} = {_csv_cell(v)}\n" for k, v in pairs)
        else:  # csv: the rows, else the nodes, else the key/value pairs
            rows = (payload.get("rows") or payload.get("nodes")
                    or [{"key": k, "value": v} for k, v in pairs])
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows({k: _csv_cell(v) for k, v in row.items()}
                             for row in rows)
            text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


def _flatten(payload, prefix=""):
    out = {}
    for k, v in payload.items():
        if isinstance(v, dict):
            out.update(_flatten(v, f"{prefix}{k}."))
        else:
            out[f"{prefix}{k}"] = v
    return out


def _csv_cell(v):
    v = _jsonable(v)
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return v


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise ValueError("missing required flag(s): "
                         + ", ".join("--" + n for n in missing))


def _spec_from_args(args) -> algebra.AlgebraSpec:
    if args.profile:
        return algebra.AlgebraSpec.from_profile(args.profile)
    if None in (args.alpha, args.beta, args.sigma):
        raise ValueError("give --profile or all of --alpha/--beta/--sigma")
    return algebra.AlgebraSpec.parametric(args.alpha, args.beta, args.sigma)


def _spec_payload(spec: algebra.AlgebraSpec) -> dict:
    if spec.is_parametric:
        return {"alpha": spec.alpha, "beta": spec.beta, "sigma": spec.sigma}
    return {"profile": spec.profile}


def _ys_from_args(args) -> list[float]:
    ys = [*(args.y or ()), *(args.y_grid or ())]
    if not ys:
        raise ValueError("give --y (repeatable) or --y-grid")
    return ys


# ---------------------------------------------------------------------------
# subcommands

def cmd_check_algebra(args) -> dict:
    _require(args, "window")
    spec = _spec_from_args(args)
    lo, hi = args.window
    inset = min(2, max(0, (hi - lo) // 2))
    core = args.core or (lo + inset, hi - inset)
    window = algebra.IndexWindow(lo, hi, max(core[0], lo), min(core[1], hi))
    # a default core on a window of 1-2 states is the whole window, where
    # truncation breaks the commutators unless the window is a whole block
    if (args.core is None and inset == 0 and spec.is_parametric
            and (algebra.lambda_sq(spec, lo - 1) or algebra.lambda_sq(spec, hi))):
        raise ValueError("the window is too narrow for a core inside its"
                         " edges; give --core")
    m = algebra.build_matrices(spec, window)
    payload = {
        "spec": _spec_payload(spec),
        "window": {"j_min": lo, "j_max": hi,
                   "core_lo": window.core_lo, "core_hi": window.core_hi},
        "blocks": algebra.detect_blocks(spec, window),
        "tol": args.tol,
    }
    if spec.is_parametric:
        resid = algebra.commutator_residual(m, spec)
        payload["commutator_residual"] = resid
        payload["pass"] = resid <= args.tol  # False for a NaN residual
    else:
        s_diag = [float(x.real) for x in np.diag(m.S)]
        payload["s_diagonal"] = s_diag
        if spec.profile == "phase":
            impulse = [1.0 if j == 0 else 0.0 for j in window.indices()]
            payload["s_is_unit_impulse_at_0"] = s_diag == impulse
        payload["pass"] = True
    return payload


def _span(window) -> dict:
    return {"j_min": window.j_min, "j_max": window.j_max}


def _worst(values: dict):
    """The key of the largest value; a NaN anywhere is the largest (Python's
    ``max`` drops a NaN that is not first)."""
    return max(values, key=lambda k: (math.isnan(values[k]), values[k]))


def cmd_factorize(args) -> dict:
    spec = _spec_from_args(args)
    if args.y is not None:
        coeffs = (1j * args.y, 1j * args.y, 0.0)
    elif args.a is not None and args.b is not None:
        coeffs = (args.a, args.b, args.c if args.c is not None else 0.0)
    else:
        raise ValueError("factorize needs --y or both --a and --b")
    core_lo, core_hi = args.core
    pad = (args.pad if args.pad is not None else algebra.suggested_pad(
        spec, core_lo, core_hi, max(map(abs, coeffs))))
    orderings = (["normal", "anti-normal"] if args.ordering == "both"
                 else [args.ordering])
    # only the anti-normal sum needs the window grown to its reach
    window = algebra.padded_window(spec, core_lo, core_hi, pad)
    windows = dict.fromkeys(orderings, window)
    if "anti-normal" in orderings and spec.is_parametric:
        reach = factorization.antinormal_reach(spec, core_hi, coeffs)
        windows["anti-normal"] = algebra.padded_window(
            spec, core_lo, core_hi, pad, max(pad, reach - core_hi))
    outer = windows[orderings[-1]]

    payload = {
        "spec": _spec_payload(spec),
        "coeffs": {"a": coeffs[0], "b": coeffs[1], "c": coeffs[2]},
        "window": {**_span(outer), "core_lo": core_lo, "core_hi": core_hi},
        "reduces_to_u1": factorization.reduces_to_u1(*coeffs),
        "tol": args.tol,
    }
    if spec.is_parametric:
        payload["factors"] = factorization.u2_factors(spec, *coeffs)._asdict()
    else:
        payload["factors"] = {"diagonal_scalar": factorization._profile_diagonal(
            spec, complex(coeffs[0]).imag)}

    residuals = {o: factorization.factorization_residual(spec, windows[o], coeffs, o)
                 for o in orderings}
    payload["residuals"] = residuals
    payload["residual_windows"] = {o: _span(w) for o, w in windows.items()}
    if args.certify_pad:
        # certify each distinct oracle window once; report the largest
        certs = dict.fromkeys(algebra._oracle_window(spec, core_lo, core_hi, coeffs, w)
                              for w in windows.values())
        for box in certs:
            certs[box] = pad_sufficiency(spec, box, coeffs, core_hi, core_lo)
        box = _worst(certs)
        payload["pad_sufficiency"] = certs[box]
        payload["pad_sufficiency_window"] = _span(box)
    payload["pass"] = residuals[_worst(residuals)] <= args.tol
    return payload


def _gn_row(spec, n, m, y, route, with_recursion):
    if spec.profile == "phase":
        raise ConvergenceError("no amplitude route for the phase profile;"
                               " use the phase command")
    # the profile limits give G_n only, and stand in for every other route;
    # off the oracle, gnm refuses m < 0 (the oracle's hole sectors are real)
    if route == "oracle" or (m > 0 and not spec.is_parametric):
        ev = gn.gn_oracle(spec, n, y, m=m)
    elif m != 0:
        ev = gn.gnm(spec, n, m, y)
    elif route == "closed" and spec.is_parametric:
        ev = gn.gn_closed(spec, n, y)
    elif route == "series" and spec.is_parametric:
        ev = gn.gn_series(spec, n, y)
    else:
        ev = gn.gn_auto(spec, n, y)
    row = {"y": y, "n": n, "m": m, "value": ev.value, "route": ev.route,
           "err_estimate": ev.err_estimate}
    if with_recursion:
        row["recursion_residual"] = gn.recursion_residual(spec, n, y)
    return row


def cmd_gn(args) -> dict:
    _require(args, "n")
    spec = _spec_from_args(args)
    rows = [_gn_row(spec, args.n, args.m, y, args.route, args.recursion)
            for y in _ys_from_args(args)]
    return {"spec": _spec_payload(spec), "rows": rows}


# a fixed rule is its bare name, a parametric one NAME:P1,P2,...
_RULES = {"unit": triangles.unit_rule, "gauss-tilde": triangles.gauss_tilde_rule,
          "gauss-bar": triangles.gauss_bar_rule, "tilde:": triangles.tilde_rule,
          "bar:": triangles.bar_rule, "lambda:": triangles.lambda_rule}


def _rule_from_text(text: str) -> triangles.WeightRule:
    name, colon, params = text.partition(":")
    make = _RULES.get(name + colon)
    if make is None:
        raise argparse.ArgumentTypeError(f"unknown rule {text!r}")
    try:
        return make(*map(Fraction, params.split(",") if colon else ()))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            f"rule {text!r} has a zero denominator") from None
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"rule {text!r}: {exc}") from None


def cmd_triangle(args) -> dict:
    _require(args, "rule")
    rule = _rule_from_text(args.rule)
    d = triangles.generate(rule, args.boundary, args.start, args.rows)
    payload = {
        "rule": d.rule_name, "boundary": d.boundary,
        "start_column": d.start_column, "num_rows": d.num_rows,
        "nodes": triangles.to_records(d),
        "ascii": triangles.render_ascii(d),
    }
    if args.column is not None:
        payload["column_series"] = [
            {"power": r, "coefficient": c}
            for r, c in triangles.column_series(d, args.column)
        ]
    if args.row_sums:
        payload["row_sums"] = {
            kind: triangles.row_sums(d, kind)
            for kind in (("plain", "alternating") if args.row_sums == "both"
                         else (args.row_sums,))
        }
    return payload


def cmd_rotate(args) -> dict:
    _require(args, "omega", "theta", "phi", "j")
    spec = rotations.RotationSpec(args.omega, args.theta, args.phi, args.j)
    routes = {"factorized": rotations.rotation_factorized,
              "direct": rotations.rotation_direct,
              "antinormal": rotations.antinormal_rotation}
    mats = {meth: fn(spec) for meth, fn in routes.items()
            if args.method in ("all", meth)}
    try:
        h, s = complex(spec.h), complex(spec.s)
    except PoleError:
        # s = 0: the factorized routes have raised already; the direct
        # route and the singlet need neither
        h = s = None
    payload = {
        "omega": args.omega, "theta": args.theta, "phi": args.phi, "j": args.j,
        "h": h, "s": s,
        "matrices": mats,
        "tol": args.tol,
    }
    if len(mats) > 1:
        devs = {f"{x}|{z}": float(np.abs(mats[x] - mats[z]).max())
                for x, z in itertools.combinations(mats, 2)}
        payload["pairwise_deviation"] = devs
        payload["pass"] = devs[_worst(devs)] <= args.tol
    return payload


def _phase_row(n, m, y, oracle_dim):
    row = {"y": y, "n": n, "m": m,
           "gnm": phase.phase_gnm(n, m, y),
           "element": phase.phase_element(n, m, y)}
    if oracle_dim:
        row["oracle_deviation"] = abs(
            row["element"] - phase.phase_oracle_element(n, m, y, dim=oracle_dim))
    return row


def cmd_phase(args) -> dict:
    _require(args, "n")
    return {"rows": [_phase_row(args.n, args.m, y, args.check_oracle)
                     for y in _ys_from_args(args)]}


def cmd_sumrule(args) -> dict:
    _require(args, "name", "y")
    dev = triangles.sumrule_check(args.name, args.y, args.k_max)
    return {"name": args.name, "y": args.y, "k_max": args.k_max,
            "deviation": dev, "tol": args.tol, "pass": dev <= args.tol}


# ---------------------------------------------------------------------------

def _build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="ladderkit",
                     description="ladder-algebra factorizations, amplitudes,"
                                 " diagrams, rotations and phase operators")
    parser.add_argument("--format", choices=("json", "csv", "ascii"),
                        default="json")
    parser.add_argument("--out", default=None, help="write output here"
                                                    " instead of stdout")
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults (same keys as flags)")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags that several subcommands share, each declared once
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--alpha", type=float)
    spec.add_argument("--beta", type=float)
    spec.add_argument("--sigma", type=float)
    spec.add_argument("--profile", choices=algebra.PROFILE_NAMES)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--n", type=int)
    grid.add_argument("--m", type=int, default=0)
    grid.add_argument("--y", type=float, action="append")
    grid.add_argument("--y-grid", "--sweep", dest="y_grid", type=_parse_grid,
                      default=None)

    p = sub.add_parser("check-algebra", help="commutator closure and blocks",
                   parents=[spec])
    p.add_argument("--window", type=_parse_range)
    p.add_argument("--core", type=_parse_range, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_check_algebra)

    p = sub.add_parser("factorize", help="ordered factorization residuals",
                   parents=[spec])
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--a", type=_parse_complex, default=None)
    p.add_argument("--b", type=_parse_complex, default=None)
    p.add_argument("--c", type=_parse_complex, default=None)
    p.add_argument("--ordering", choices=("normal", "anti-normal", "both"),
                   default="both")
    p.add_argument("--core", type=_parse_range, default=(0, 11))
    p.add_argument("--pad", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--certify-pad", action="store_true")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("gn", help="transition amplitudes", parents=[spec, grid])
    p.add_argument("--route", choices=("closed", "series", "oracle", "auto"),
                   default="auto")
    p.add_argument("--recursion", action="store_true")
    p.set_defaults(func=cmd_gn)

    p = sub.add_parser("triangle", help="exact coefficient diagrams")
    p.add_argument("--rule",
                   help="unit | tilde:P | bar:P | gauss-tilde | gauss-bar"
                        " | lambda:ALPHA,BETA,SIGMA")
    p.add_argument("--boundary", choices=("triangular", "diamond"),
                   default="triangular")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--rows", type=int, default=8)
    p.add_argument("--column", type=int, default=None)
    p.add_argument("--row-sums", choices=("plain", "alternating", "both"),
                   default=None)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("rotate", help="spin rotation matrices")
    p.add_argument("--omega", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--j", type=float)
    p.add_argument("--method",
                   choices=("factorized", "direct", "antinormal", "all"),
                   default="all")
    p.add_argument("--tol", type=float, default=1e-11)
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("phase", help="shift-operator matrix elements",
                   parents=[grid])
    p.add_argument("--check-oracle", type=int, default=0, metavar="DIM")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("sumrule", help="Bessel sum rules")
    p.add_argument("--name", choices=triangles.SUMRULE_NAMES)
    p.add_argument("--y", type=float)
    p.add_argument("--k-max", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_sumrule)

    return parser, sub.choices


@functools.cache
def _shared_parser() -> _Parser:
    """The full parser, built once per process; a ``--config`` run sets its
    defaults on a parser of its own, so this one is never mutated."""
    return _build_parser()[0]


def _parse(argv):
    """The parsed flags: one parse of argv, and a second with --config."""
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.config:
        # parse again, with the config file's values as flag defaults
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"bad config file: {exc}") from None
        if not isinstance(defaults, dict):
            raise ValueError("config file must hold an object")
        cleaned = {k.replace("-", "_"): v for k, v in defaults.items()}
        parser, subcommands = _build_parser()
        # a key may serve any subcommand, but it must name some flag
        dests = {a.dest for p in (parser, *subcommands.values())
                 for a in p._actions
                 if a.option_strings and a.dest != argparse.SUPPRESS}
        unknown = [k for k in defaults if k.replace("-", "_") not in dests]
        if unknown:
            raise ValueError("config key(s) match no flag: "
                             + ", ".join(map(repr, unknown)))
        # a value must fit the flag it sets on the command that runs
        actions = {a.dest: a for a in (*parser._actions,
                                       *subcommands[args.command]._actions)}
        for key, value in defaults.items():
            action = actions.get(key.replace("-", "_"))
            if action is not None and not _config_fits(action, value):
                raise ValueError(f"config key {key!r}: {value!r} is no"
                                 f" value of {action.option_strings[0]}")
        # subparsers parse into a fresh namespace, so they need the
        # defaults as well
        parser.set_defaults(**cleaned)
        for sp in subcommands.values():
            sp.set_defaults(**cleaned)
        args = parser.parse_args(argv)
    # refuse a non-finite number, from a flag or the config file alike:
    # float() reads "nan" and "inf", and json reads NaN and Infinity
    for dest, value in vars(args).items():
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, (float, complex)) and not cmath.isfinite(x):
                raise ValueError(f"--{dest.replace('_', '-')} must be finite,"
                                 f" got {x}")
    return args


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        # the library refuses by raising; numpy's floating-point
        # warnings on the way would put its install path on stderr
        # beside main's one line
        with np.errstate(all="ignore"):
            args = _parse(argv)
            payload = args.func(args)
            _emit(payload, args)
    except SystemExit as exc:
        # --help, and the usage errors _Parser turns into exit 3
        return int(exc.code or 0)
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write(f"ladderkit: {exc}\n")
        return EXIT_DOMAIN
    except (ValueError, argparse.ArgumentTypeError) as exc:
        # missing or bad flags, rules, config and --out; argument checks
        # inside the library
        sys.stderr.write(f"ladderkit: {exc}\n")
        return EXIT_CONFIG
    return EXIT_OK if payload.get("pass", True) else EXIT_TOL


if __name__ == "__main__":
    sys.exit(main())
