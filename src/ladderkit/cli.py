"""Command-line surface.

Every run is a pure function of its flags (or of a JSON config file with
the same keys), so identical invocations produce byte-identical output.
Exit codes: 0 success, 1 tolerance violation, 2 domain error (poles,
non-representable couplings, degenerate parametrizations), 3 bad
configuration.
"""

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import algebra, factorization, gn, phase, rotations, triangles
from .errors import ConvergenceError, LadderError, SingularS
from .expm import pad_sufficiency

EXIT_OK = 0
EXIT_TOL = 1
EXIT_DOMAIN = 2
EXIT_CONFIG = 3

# arithmetic outside the library's own checks can still raise the last two
_DOMAIN_ERRORS = (LadderError, ZeroDivisionError, OverflowError)


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


def _join_negative_ranges(argv: list[str]) -> list[str]:
    """``--core -3:3`` -> ``--core=-3:3``: argparse takes a token that
    starts with '-' and is not a plain number for an option."""
    out = []
    for tok in argv:
        if (out and out[-1] in ("--core", "--window")
                and re.fullmatch(r"-\d+:-?\d+", tok)):
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
    try:
        parts = text.split(",")
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")


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
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def _emit(payload: dict, args) -> None:
    fmt = args.format
    if fmt == "json":
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        rows = payload.get("rows") or payload.get("nodes")
        if rows is None:
            rows = [
                {"key": k, "value": v}
                for k, v in sorted(_flatten(payload).items())
            ]
        buf = io.StringIO()
        fields = list(rows[0].keys()) if rows else []
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})
        text = buf.getvalue()
    else:  # ascii
        if "ascii" in payload:
            text = payload["ascii"] + "\n"
        else:
            lines = [f"{k} = {_csv_cell(v)}"
                     for k, v in sorted(_flatten(payload).items())]
            text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(payload, prefix=""):
    out = {}
    for k, v in payload.items():
        if k == "ascii":
            continue
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _csv_cell(v):
    v = _jsonable(v)
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return v


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        sys.stderr.write("ladderkit: missing required flag(s): "
                         + ", ".join("--" + n for n in missing) + "\n")
        raise SystemExit(EXIT_CONFIG)


def _spec_from_args(args) -> algebra.AlgebraSpec:
    if getattr(args, "profile", None):
        return algebra.AlgebraSpec.from_profile(args.profile)
    missing = [f for f in ("alpha", "beta", "sigma")
               if getattr(args, f, None) is None]
    if missing:
        sys.stderr.write("ladderkit: give --profile or all of --alpha/--beta/--sigma\n")
        raise SystemExit(EXIT_CONFIG)
    return algebra.AlgebraSpec.parametric(args.alpha, args.beta, args.sigma)


def _spec_payload(spec: algebra.AlgebraSpec) -> dict:
    if spec.is_parametric:
        return {"alpha": spec.alpha, "beta": spec.beta, "sigma": spec.sigma}
    return {"profile": spec.profile}


def _add_spec_flags(p):
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--profile", choices=algebra.PROFILE_NAMES)


def _ys_from_args(args) -> list[float]:
    ys = list(args.y or [])
    if args.y_grid:
        ys.extend(args.y_grid)
    if not ys:
        sys.stderr.write("ladderkit: give --y (repeatable) or --y-grid\n")
        raise SystemExit(EXIT_CONFIG)
    return ys


# ---------------------------------------------------------------------------
# subcommands

def cmd_check_algebra(args) -> int:
    _require(args, "window")
    spec = _spec_from_args(args)
    lo, hi = args.window
    inset = min(2, max(0, (hi - lo) // 2))
    core = args.core or (lo + inset, hi - inset)
    window = algebra.IndexWindow(lo, hi, max(core[0], lo), min(core[1], hi))
    payload = {
        "spec": _spec_payload(spec),
        "window": {"j_min": lo, "j_max": hi,
                   "core_lo": window.core_lo, "core_hi": window.core_hi},
        "blocks": [list(b) for b in algebra.detect_blocks(spec, window)],
        "tol": args.tol,
    }
    code = EXIT_OK
    if spec.is_parametric:
        m = algebra.build_matrices(spec, window)
        resid = algebra.commutator_residual(m, spec)
        payload["commutator_residual"] = resid
        payload["pass"] = resid <= args.tol
        if resid > args.tol:
            code = EXIT_TOL
    else:
        m = algebra.build_matrices(spec, window)
        s_diag = [float(x.real) for x in np.diag(m.S)]
        payload["s_diagonal"] = s_diag
        if spec.profile == "phase":
            impulse = [1.0 if j == 0 else 0.0 for j in window.indices()]
            payload["s_is_unit_impulse_at_0"] = s_diag == impulse
        payload["pass"] = True
    _emit(payload, args)
    return code


def _span(window) -> dict:
    return {"j_min": window.j_min, "j_max": window.j_max}


def cmd_factorize(args) -> int:
    spec = _spec_from_args(args)
    if args.y is not None:
        coeffs = (1j * args.y, 1j * args.y, 0.0)
    elif args.a is not None and args.b is not None:
        coeffs = (args.a, args.b, args.c if args.c is not None else 0.0)
    else:
        sys.stderr.write("ladderkit: factorize needs --y or both --a and --b\n")
        raise SystemExit(EXIT_CONFIG)
    core_lo, core_hi = args.core
    magnitude = max(abs(c) for c in coeffs)
    pad = (args.pad if args.pad is not None
           else algebra.suggested_pad(spec, core_lo, core_hi, magnitude))
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
        fac = factorization.u2_factors(spec, *coeffs)
        payload["factors"] = {"f_plus": fac.f_plus, "f_minus": fac.f_minus,
                              "g_plus": fac.g_plus, "g_minus": fac.g_minus,
                              "q_sq": fac.q_sq}
    else:
        payload["factors"] = {"diagonal_scalar": factorization._profile_diagonal(
            spec, complex(coeffs[0]).imag)}

    residuals = {}
    for ordering in orderings:
        residuals[ordering] = factorization.factorization_residual(
            spec, windows[ordering], coeffs, ordering)
    payload["residuals"] = residuals
    payload["residual_windows"] = {o: _span(w) for o, w in windows.items()}
    if args.certify_pad:
        payload["pad_sufficiency"] = pad_sufficiency(
            spec, window, coeffs, core_hi, core_lo)
        payload["pad_sufficiency_window"] = _span(window)
    worst = max(residuals.values())
    payload["pass"] = worst <= args.tol
    _emit(payload, args)
    return EXIT_OK if worst <= args.tol else EXIT_TOL


def _gn_row(spec, n, m, y, route, with_recursion):
    if not spec.is_parametric:
        if spec.profile == "sho":
            ev = gn.gn_sho_limit(n, y)
        elif spec.profile == "constant-one":
            ev = gn.gn_bessel_limit(n, y)
        else:
            raise ConvergenceError("no amplitude route for the phase profile;"
                                   " use the phase command")
    elif m > 0:
        ev = gn.gnm(spec, n, m, y) if route != "oracle" else gn.gn_oracle(
            spec, n, y, m=m)
    elif route == "closed":
        ev = gn.gn_closed(spec, n, y)
    elif route == "series":
        ev = gn.gn_series(spec, n, y)
    elif route == "oracle":
        ev = gn.gn_oracle(spec, n, y)
    else:
        ev = gn.gn_auto(spec, n, y)
    row = {"y": y, "n": n, "m": m, "value": ev.value, "route": ev.route,
           "err_estimate": ev.err_estimate}
    if with_recursion:
        row["recursion_residual"] = gn.recursion_residual(spec, n, y)
    return row


def cmd_gn(args) -> int:
    _require(args, "n")
    spec = _spec_from_args(args)
    ys = _ys_from_args(args)
    rows = [_gn_row(spec, args.n, args.m, y, args.route, args.recursion)
            for y in ys]
    _emit({"spec": _spec_payload(spec), "rows": rows}, args)
    return EXIT_OK


def _rule_from_text(text: str) -> triangles.WeightRule:
    if text == "unit":
        return triangles.unit_rule()
    if text == "gauss-tilde":
        return triangles.gauss_tilde_rule()
    if text == "gauss-bar":
        return triangles.gauss_bar_rule()
    if text.startswith("tilde:"):
        return triangles.tilde_rule(Fraction(text.split(":", 1)[1]))
    if text.startswith("bar:"):
        return triangles.bar_rule(Fraction(text.split(":", 1)[1]))
    if text.startswith("lambda:"):
        al, be, si = (Fraction(t) for t in text.split(":", 1)[1].split(","))
        return triangles.lambda_rule(al, be, si)
    raise argparse.ArgumentTypeError(f"unknown rule {text!r}")


def cmd_triangle(args) -> int:
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
    _emit(payload, args)
    return EXIT_OK


def cmd_rotate(args) -> int:
    _require(args, "omega", "theta", "phi", "j")
    spec = rotations.RotationSpec(args.omega, args.theta, args.phi, args.j)
    methods = (["factorized", "direct", "antinormal"]
               if args.method == "all" else [args.method])
    mats = {}
    for meth in methods:
        fn = {"factorized": rotations.rotation_factorized,
              "direct": rotations.rotation_direct,
              "antinormal": rotations.antinormal_rotation}[meth]
        mats[meth] = fn(spec)
    try:
        h, s = complex(spec.h), complex(spec.s)
    except SingularS:
        # s = 0: the factorized routes have raised already; the direct
        # route and the singlet need neither
        h = s = None
    payload = {
        "omega": args.omega, "theta": args.theta, "phi": args.phi, "j": args.j,
        "h": h, "s": s,
        "matrices": {k: v for k, v in mats.items()},
        "tol": args.tol,
    }
    code = EXIT_OK
    if len(mats) > 1:
        devs = {}
        names = list(mats)
        for i, x in enumerate(names):
            for z in names[i + 1:]:
                devs[f"{x}|{z}"] = float(np.abs(mats[x] - mats[z]).max())
        payload["pairwise_deviation"] = devs
        payload["pass"] = max(devs.values()) <= args.tol
        if not payload["pass"]:
            code = EXIT_TOL
    _emit(payload, args)
    return code


def _phase_row(n, m, y, oracle_dim):
    row = {"y": y, "n": n, "m": m,
           "gnm": phase.phase_gnm(n, m, y),
           "element": phase.phase_element(n, m, y)}
    if oracle_dim:
        row["oracle_deviation"] = abs(
            phase.phase_element(n, m, y)
            - phase.phase_oracle_element(n, m, y, dim=oracle_dim))
    return row


def cmd_phase(args) -> int:
    _require(args, "n")
    ys = _ys_from_args(args)
    rows = [_phase_row(args.n, args.m, y, args.check_oracle) for y in ys]
    _emit({"rows": rows}, args)
    return EXIT_OK


def cmd_sumrule(args) -> int:
    _require(args, "name", "y")
    dev = triangles.sumrule_check(args.name, args.y, args.k_max)
    payload = {"name": args.name, "y": args.y, "k_max": args.k_max,
               "deviation": dev, "tol": args.tol, "pass": dev <= args.tol}
    _emit(payload, args)
    return EXIT_OK if dev <= args.tol else EXIT_TOL


# ---------------------------------------------------------------------------

def _build_parser() -> tuple[_Parser, list]:
    subcommands = []
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

    def add_parser(*a, **kw):
        sp = sub.add_parser(*a, **kw)
        subcommands.append(sp)
        return sp

    p = add_parser("check-algebra", help="commutator closure and blocks")
    _add_spec_flags(p)
    p.add_argument("--window", type=_parse_range)
    p.add_argument("--core", type=_parse_range, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_check_algebra)

    p = add_parser("factorize", help="ordered factorization residuals")
    _add_spec_flags(p)
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

    p = add_parser("gn", help="transition amplitudes")
    _add_spec_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--y", type=float, action="append")
    p.add_argument("--y-grid", "--sweep", dest="y_grid", type=_parse_grid,
                   default=None)
    p.add_argument("--route", choices=("closed", "series", "oracle", "auto"),
                   default="auto")
    p.add_argument("--recursion", action="store_true")
    p.set_defaults(func=cmd_gn)

    p = add_parser("triangle", help="exact coefficient diagrams")
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

    p = add_parser("rotate", help="spin rotation matrices")
    p.add_argument("--omega", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--j", type=float)
    p.add_argument("--method",
                   choices=("factorized", "direct", "antinormal", "all"),
                   default="all")
    p.add_argument("--tol", type=float, default=1e-11)
    p.set_defaults(func=cmd_rotate)

    p = add_parser("phase", help="shift-operator matrix elements")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--y", type=float, action="append")
    p.add_argument("--y-grid", "--sweep", dest="y_grid", type=_parse_grid,
                   default=None)
    p.add_argument("--check-oracle", type=int, default=0, metavar="DIM")
    p.set_defaults(func=cmd_phase)

    p = add_parser("sumrule", help="Bessel sum rules")
    p.add_argument("--name", choices=triangles.SUMRULE_NAMES)
    p.add_argument("--y", type=float)
    p.add_argument("--k-max", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_sumrule)

    return parser, subcommands


def main(argv=None) -> int:
    argv = _join_negative_ranges(sys.argv[1:] if argv is None else argv)
    parser, subcommands = _build_parser()
    # apply config-file defaults before the real parse
    probe = _Parser(add_help=False, allow_abbrev=False)
    probe.add_argument("--config", default=None)
    pre, _ = probe.parse_known_args(argv)
    if pre.config:
        try:
            with open(pre.config) as fh:
                defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            sys.stderr.write(f"ladderkit: bad config file: {exc}\n")
            return EXIT_CONFIG
        if not isinstance(defaults, dict):
            sys.stderr.write("ladderkit: config file must hold an object\n")
            return EXIT_CONFIG
        cleaned = {k.replace("-", "_"): v for k, v in defaults.items()}
        # subparsers parse into a fresh namespace, so they need the
        # defaults as well
        parser.set_defaults(**cleaned)
        for sp in subcommands:
            sp.set_defaults(**cleaned)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write(f"ladderkit: {exc}\n")
        return EXIT_DOMAIN
    except (ValueError, argparse.ArgumentTypeError) as exc:
        # argument validation inside the library / rule parsing
        sys.stderr.write(f"ladderkit: {exc}\n")
        return EXIT_CONFIG
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
