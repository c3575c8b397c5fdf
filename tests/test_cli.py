import csv
import json
import math
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.special

from ladderkit import bessel_jn, cli
from ladderkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def test_check_algebra_pass(capsys):
    code, doc, _ = run_json(capsys, "check-algebra", "--alpha", "1",
                            "--beta", "1", "--sigma", "1", "--window", "0:16")
    assert code == 0
    assert doc["pass"] is True
    assert doc["commutator_residual"] <= 1e-12


def test_check_algebra_domain_error_exit_2(capsys):
    code, out, err = run(capsys, "check-algebra", "--alpha", "1",
                         "--beta", "-2", "--sigma", "1", "--window", "0:16")
    assert code == 2
    assert "lambda" in err


def test_check_algebra_exits_by_its_own_pass(capsys, monkeypatch):
    # a NaN residual is no pass: it fails "resid <= tol" and must exit 1
    monkeypatch.setattr(cli.algebra, "commutator_residual",
                        lambda m, spec: math.nan)
    code, doc, _ = run_json(capsys, "check-algebra", "--alpha", "1",
                            "--beta", "1", "--sigma", "1", "--window", "0:16")
    assert doc["pass"] is False
    assert code == 1


@pytest.mark.parametrize("alpha, code, message", [
    ("1e160", 2, "lambda_-1^2 = inf is not finite"),   # overflowing couplings
    ("nan", 3, "must be finite"),
])
def test_check_algebra_refuses_non_finite_input(capsys, alpha, code, message):
    with np.errstate(over="ignore", invalid="ignore"):
        got, out, err = run(capsys, "check-algebra", "--alpha", alpha,
                            "--beta", alpha, "--sigma", "1", "--window", "0:4")
    assert (got, out) == (code, "")
    assert message in err


@pytest.mark.parametrize("argv, message", [
    ("gn --profile sho --n 2 --y nan", "--y must be finite, got nan"),
    ("gn --profile sho --n 2 --y inf", "--y must be finite, got inf"),
    ("rotate --omega nan --theta 1.1 --phi 2.3 --j 0.5 --method factorized",
     "--omega must be finite, got nan"),
    ("gn --alpha 1 --beta 1 --sigma 1 --n 2 --y nan",
     "--y must be finite, got nan"),
    ("gn --alpha 1 --beta 1 --sigma 1 --n 2 --y inf",
     "--y must be finite, got inf"),
    ("gn --alpha 1 --beta 1 --sigma 1 --n 2 --y inf --route closed",
     "--y must be finite, got inf"),
    ("gn --profile sho --n 2 --y-grid inf:1:1",
     "--y-grid must be finite, got inf"),
    ("phase --n 2 --m 1 --y nan", "--y must be finite, got nan"),
    ("sumrule --name bessel-unity --y nan", "--y must be finite, got nan"),
    ("factorize --alpha 1 --beta 1 --sigma 1 --y nan",
     "--y must be finite, got nan"),
    ("factorize --alpha 1 --beta 1 --sigma 1 --a nan,0 --b 0.1",
     "--a must be finite, got (nan+0j)"),
    # json reads NaN, so a config value lands in the namespace as a flag does
    ("--config {config} gn --beta 1 --sigma 1 --n 2 --y 0.3",
     "--alpha must be finite, got nan"),
])
def test_non_finite_numbers_exit_3_naming_the_flag(capsys, tmp_path, argv,
                                                   message):
    config = tmp_path / "config.json"
    config.write_text('{"alpha": NaN}')
    code, out, err = run(capsys, *argv.format(config=config).split())
    assert (code, out, err) == (3, "", f"ladderkit: {message}\n")


@pytest.mark.parametrize("argv", [
    "check-algebra --alpha 1 --beta 1 --sigma 1 --window 0:1000000000000000000",
    "phase --n 2 --m 1 --y 0.5 --check-oracle 1000000000000000000",
])
def test_window_too_large_to_allocate_exit_2(capsys, argv):
    # 10^18 float64 couplings, 8e18 bytes, are more than any 64-bit CPU
    # maps, so the allocation fails at once and touches no memory
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("ladderkit: Unable to allocate")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("method", ["factorized", "antinormal", "direct",
                                    "all"])
def test_rotation_too_large_to_allocate_exit_2(method):
    # the spin block of j = 10^15 has 2 * 10^15 + 1 states; every route
    # builds its couplings first, whose 14.2 PiB numpy refuses at once.  A
    # fresh interpreter capped at 2 GiB of address space and a timeout:
    # a route that builds a per-state Python list first fails here instead
    # of filling the machine's memory.  One BLAS thread, so that the cap
    # does not depend on the core count
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-m", "ladderkit.cli", "rotate",
                          "--omega", "0.7", "--theta", "1.1", "--phi", "2.3",
                          "--j", "1e15", "--method", method],
                         capture_output=True, text=True, env=env, timeout=60,
                         preexec_fn=cap)
    assert (out.returncode, out.stdout) == (2, ""), out.stderr
    assert out.stderr.startswith("ladderkit: Unable to allocate 14.2 PiB")
    assert len(out.stderr.splitlines()) == 1


def test_check_algebra_phase_profile_reports_impulse(capsys):
    code, doc, _ = run_json(capsys, "check-algebra", "--profile", "phase",
                            "--window", "0:6")
    assert code == 0
    assert doc["s_is_unit_impulse_at_0"] is True
    assert doc["s_diagonal"][0] == 1.0


def test_factorize_u1(capsys):
    code, doc, _ = run_json(capsys, "factorize", "--alpha", "1", "--beta", "1",
                            "--sigma", "1", "--y", "0.3", "--core", "0:7",
                            "--certify-pad")
    assert code == 0
    assert doc["reduces_to_u1"] is True
    assert doc["residuals"]["normal"] <= 1e-10
    assert doc["residuals"]["anti-normal"] <= 1e-10
    assert doc["pad_sufficiency"] <= 1e-12
    assert abs(doc["factors"]["f_plus"]["re"] - math.tanh(0.3) / 0.3) < 1e-12
    assert doc["factors"]["f_plus"]["im"] == 0.0


def test_factorize_profiles(capsys):
    code, doc, _ = run_json(capsys, "factorize", "--profile", "sho",
                            "--y", "0.4", "--core", "0:6")
    assert code == 0
    assert doc["factors"] == {"diagonal_scalar": math.exp(-0.08)}
    assert doc["residuals"]["normal"] <= 1e-10
    assert doc["residuals"]["anti-normal"] <= 1e-10
    code, _, err = run(capsys, "factorize", "--profile", "phase", "--y", "0.4",
                       "--core", "0:6")
    assert code == 3
    assert "phase" in err


def test_factorize_u2_reduction_flag(capsys):
    code, doc, _ = run_json(capsys, "factorize", "--alpha", "1", "--beta", "2",
                            "--sigma", "1", "--a", "0,0.2", "--b", "0,0.2",
                            "--c", "0", "--core", "0:5")
    assert code == 0
    assert doc["reduces_to_u1"] is True


def test_factorize_pole_exit_2(capsys):
    y_pole = (math.pi / 2) / math.sqrt(0.5)
    code, out, err = run(capsys, "factorize", "--alpha", "6", "--beta", "-7",
                         "--sigma", "-0.5", "--y", f"{y_pole}", "--core", "0:4")
    assert code == 2
    assert "pole" in err.lower()


def test_gn_table(capsys):
    code, doc, _ = run_json(capsys, "gn", "--alpha", "1", "--beta", "2",
                            "--sigma", "1", "--n", "2", "--y", "0.3",
                            "--route", "closed")
    assert code == 0
    row = doc["rows"][0]
    want = math.sqrt(3) / math.cosh(0.3) ** 2 * math.tanh(0.3) ** 2
    assert abs(row["value"] - want) < 1e-12
    assert row["route"] == "closed-form"


def test_gn_profile_off_diagonal_takes_the_oracle(capsys):
    # the profile limits give G_n only; G_nm with m > 0 and --route oracle
    # take the oracle.  Boson ladder: G_31 = y^2 (3 - y^2) e^(-y^2/2)/sqrt(6)
    # and G_30 = y^3 e^(-y^2/2)/sqrt(6); constant couplings: J_(n-m)(2y)
    y = 0.7
    gauss = math.exp(-y * y / 2) / math.sqrt(6)
    cases = [("sho", 1, [], y ** 2 * (3 - y ** 2) * gauss),
             ("sho", 0, ["--route", "oracle"], y ** 3 * gauss),
             ("constant-one", 1, [], bessel_jn(2, 2 * y))]
    for profile, m, extra, want in cases:
        code, doc, _ = run_json(capsys, "gn", "--profile", profile, "--n", "3",
                                "--m", str(m), "--y", str(y), *extra)
        assert code == 0
        row = doc["rows"][0]
        assert (row["m"], row["route"]) == (m, "oracle")
        assert abs(row["value"] - want) < 1e-10
    code, _, _ = run(capsys, "gn", "--profile", "phase", "--n", "3", "--m", "1",
                     "--y", str(y))
    assert code == 2


def test_gn_constant_one_past_the_bessel_domain_takes_the_oracle(capsys):
    # J_3(18): bessel_jn refuses |x| > 17, the oracle answers
    code, doc, _ = run_json(capsys, "gn", "--profile", "constant-one",
                            "--n", "3", "--y", "9")
    assert code == 0
    row = doc["rows"][0]
    assert row["route"] == "oracle"
    assert abs(row["value"] - scipy.special.jv(3, 18.0)) < 1e-9


def test_factorize_pad_zero_keeps_the_core_window(capsys):
    _, doc, _ = run_json(capsys, "factorize", "--alpha", "1", "--beta", "1",
                         "--sigma", "1", "--y", "0.3", "--core", "2:6",
                         "--ordering", "normal", "--pad", "0")
    assert (doc["window"]["j_min"], doc["window"]["j_max"]) == (2, 6)


def test_factorize_without_coefficients_exit_3(capsys):
    code, out, err = run(capsys, "factorize", "--alpha", "1", "--beta", "1",
                         "--sigma", "1", "--a", "0.1")
    assert code == 3
    assert out == ""
    assert err.strip()


_SWEEP = ("gn", "--alpha", "1", "--beta", "1", "--sigma", "1", "--n", "1",
          "--y-grid", "0.1:0.5:5", "--recursion")


def test_gn_sweep_is_deterministic(capsys):
    code1, out1, _ = run(capsys, *_SWEEP)
    code2, out2, _ = run(capsys, *_SWEEP)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gn_sweep_rejects_jobs(capsys):
    code, out, err = run(capsys, *_SWEEP, "--jobs", "4")
    assert code == 3
    assert out == ""
    assert "--jobs" in err


def test_triangle_json_and_ascii(capsys):
    code, doc, _ = run_json(capsys, "triangle", "--rule", "tilde:2",
                            "--rows", "7", "--column", "0",
                            "--row-sums", "plain")
    assert code == 0
    col = {r["power"]: r["coefficient"] for r in doc["column_series"]}
    assert col[4] == {"num": "2", "den": "3"}   # 16/4! reduced
    nodes = {(n["row"], n["column"]): n["numerator"] for n in doc["nodes"]}
    assert nodes[(6, 0)] == "272"
    code, out, _ = run(capsys, "--format", "ascii", "triangle", "--rule",
                       "unit", "--boundary", "diamond", "--rows", "5")
    assert code == 0
    assert "n=0" in out


def test_negative_range_as_separate_token(capsys):
    code, doc, err = run_json(capsys, "factorize", "--profile", "constant-one",
                              "--y", "0.5", "--core", "-3:3")
    assert code == 0, err
    assert doc["window"]["core_lo"] == -3 and doc["window"]["core_hi"] == 3
    code, doc, err = run_json(capsys, "check-algebra", "--alpha", "2",
                              "--beta", "2", "--sigma", "1", "--window", "-6:-1")
    assert code == 0, err
    assert doc["window"]["j_min"] == -6 and doc["window"]["j_max"] == -1


@pytest.mark.parametrize("argv, option, value", [
    (("gn", "--beta", "1", "--sigma", "-1", "--n", "2", "--y", "0.3"),
     "--alpha", "-1e9"),
    (("rotate", "--omega", "0.7", "--phi", "2.3", "--j", "1"),
     "--theta", "-2.5e-1"),
    (("factorize", "--alpha", "1", "--beta", "2", "--sigma", "1", "--b", "0.1",
      "--c", "0", "--core", "0:3"), "--a", "-0.5,0.1"),
])
def test_negative_exponent_as_separate_token(capsys, argv, option, value):
    # argparse alone takes "-1e9" for an option: "expected one argument"
    code, out, err = run(capsys, *argv, option, value)
    assert code == 0, err
    assert (code, out) == run(capsys, *argv, f"{option}={value}")[:2]


def test_rotate_all_methods(capsys):
    code, doc, _ = run_json(capsys, "rotate", "--omega", "0.7", "--theta",
                            "1.1", "--phi", "2.3", "--j", "1")
    assert code == 0
    assert doc["pass"] is True
    assert max(doc["pairwise_deviation"].values()) <= 1e-11


def test_rotate_singular_exit_2(capsys):
    code, out, err = run(capsys, "rotate", "--omega", f"{math.pi/2}",
                         "--theta", f"{math.pi/2}", "--phi", "0", "--j", "1")
    assert code == 2


def test_phase_with_oracle(capsys):
    code, doc, _ = run_json(capsys, "phase", "--n", "2", "--m", "1",
                            "--y", "0.5", "--check-oracle", "40")
    assert code == 0
    assert doc["rows"][0]["oracle_deviation"] <= 1e-10


def test_phase_check_oracle_dim_is_the_least_window(capsys):
    # the oracle's window rule takes 0..114 where 60 states were off by
    # 0.0173 at exit 0
    code, doc, _ = run_json(capsys, "phase", "--n", "50", "--m", "50",
                            "--y", "8", "--check-oracle", "60")
    assert code == 0
    assert doc["rows"][0]["oracle_deviation"] <= 1e-10


def test_sumrule(capsys):
    code, doc, _ = run_json(capsys, "sumrule", "--name", "bessel-unity",
                            "--y", "0.8", "--k-max", "12")
    assert code == 0
    assert doc["deviation"] <= 1e-12


def test_sumrule_outside_the_bessel_domain_exit_2(capsys):
    # y = 10 puts J_n at x = 20, past bessel_jn's |x| <= 17
    code, out, _ = run(capsys, "sumrule", "--name", "bessel-unity",
                       "--y", "10", "--k-max", "12")
    assert code == 2
    assert out == ""


def test_sumrule_tolerance_violation_exit_1(capsys):
    code, doc, _ = run_json(capsys, "sumrule", "--name", "bessel-unity",
                            "--y", "0.8", "--k-max", "1", "--tol", "1e-14")
    assert code == 1
    assert doc["pass"] is False


def test_determinism_byte_identical(capsys):
    args = ("factorize", "--alpha", "1", "--beta", "1", "--sigma", "1",
            "--y", "0.25", "--core", "0:6")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 1, "beta": 1, "sigma": 1,
                               "window": [0, 16]}))
    code, doc, _ = run_json(capsys, "--config", str(cfg), "check-algebra")
    assert code == 0
    assert doc["pass"] is True
    # explicit flags still win over config values
    code, doc, _ = run_json(capsys, "--config", str(cfg), "check-algebra",
                            "--beta", "2")
    assert code == 0
    assert doc["spec"]["beta"] == 2.0


def test_bad_flag_exit_3(capsys):
    code, out, err = run(capsys, "check-algebra", "--alpha", "1",
                         "--beta", "1", "--sigma", "1", "--window", "zap")
    assert code == 3
    for value in ("1,2,3", "x"):
        code, out, err = run(capsys, "factorize", "--alpha", "1", "--beta",
                             "1", "--sigma", "1", "--a", value, "--b", "0.1")
        assert code == 3 and out == ""
        assert f"expected RE or RE,IM, got {value!r}" in err


def test_missing_spec_exit_3(capsys):
    code, out, err = run(capsys, "gn", "--n", "1", "--y", "0.3")
    assert code == 3


def test_csv_format(capsys):
    code, out, _ = run(capsys, "--format", "csv", "gn", "--alpha", "1",
                       "--beta", "1", "--sigma", "1", "--n", "0",
                       "--y", "0.2", "--y", "0.4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("y,")
    assert len(lines) == 3


def test_out_file(capsys, tmp_path):
    target = tmp_path / "res.json"
    code, out, _ = run(capsys, "--out", str(target), "sumrule", "--name",
                       "bessel-sin", "--y", "0.4")
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["pass"] is True


@pytest.mark.parametrize("target", ["missing/res.json", "."])
def test_out_that_cannot_be_written_exit_3(capsys, tmp_path, target):
    # a missing directory, and a directory itself
    code, out, err = run(capsys, "--out", str(tmp_path / target), "gn",
                         "--profile", "sho", "--n", "1", "--y", "0.5")
    assert (code, out) == (3, "")
    assert err.startswith("ladderkit: cannot write --out: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("route", ["auto", "oracle"])
def test_gn_overflowing_couplings_name_the_coupling_exit_2(capsys, route):
    with np.errstate(over="ignore"):
        code, out, err = run(capsys, "gn", "--alpha", "1e160", "--beta",
                             "1e160", "--sigma", "1", "--n", "1", "--y",
                             "0.3", "--route", route)
    assert (code, out) == (2, "")
    assert "lambda_0^2 = inf is not finite" in err


def test_small_window_default_core(capsys):
    code, doc, _ = run_json(capsys, "check-algebra", "--alpha", "1",
                            "--beta", "1", "--sigma", "1", "--window", "0:3")
    assert code == 0


@pytest.mark.parametrize("spec,window,want", [
    (("1", "1", "1"), ["0:1"], 3),
    (("1", "1", "1"), ["0:0"], 3),
    (("1", "0", "-0.5"), ["0:0"], 0),   # the spin singlet is a whole block
    (("1", "1", "1"), ["0:2"], 0),
    (("1", "1", "1"), ["0:1", "--core", "0:0"], 0),
])
def test_check_algebra_refuses_a_default_core_on_the_window_edges(
        capsys, spec, window, want):
    alpha, beta, sigma = spec
    code, out, err = run(capsys, "check-algebra", "--alpha", alpha, "--beta",
                         beta, "--sigma", sigma, "--window", *window)
    assert code == want
    if want == 3:
        assert out == "" and err.count("\n") == 1 and "--core" in err
    else:
        assert json.loads(out)["commutator_residual"] == 0.0


def test_check_algebra_refuses_a_narrow_window_before_building_it(capsys):
    # lambda_1^2 < 0 on (1, -2, 1): building the window would be a domain
    # error, exit 2, but the window is refused first
    code, out, err = run(capsys, "check-algebra", "--alpha", "1", "--beta",
                         "-2", "--sigma", "1", "--window", "0:1")
    assert code == 3 and out == ""
    assert err == ("ladderkit: the window is too narrow for a core inside"
                   " its edges; give --core\n")


def test_gn_series_term_bound_exit_2(capsys):
    # |z| = sinh(y)^2 = 0.99999: the 2F1 terms fall too slowly to settle
    # within _HYP_MAX_TERMS (about 0.1 s; unbounded, it ran for 18 s)
    start = time.perf_counter()
    code, out, err = run(capsys, "gn", "--alpha", "1", "--beta", "2",
                         "--sigma", "1", "--n", "2", "--y",
                         "0.8813700514723788", "--route", "series")
    assert time.perf_counter() - start < 10.0     # a hang guard only
    assert code == 2 and out == ""
    assert "100000 terms" in err


def test_gn_series_with_a_negative_sech_exit_2(capsys):
    # sec(2.5 sqrt(1/2)) < 0 under the non-integer power 3.5
    code, out, err = run(capsys, "gn", "--alpha", "0.5", "--beta", "-5",
                         "--sigma", "-0.5", "--n", "1", "--y", "2.5",
                         "--route", "series")
    assert code == 2 and out == ""
    assert "non-positive" in err


def test_unknown_rule_exit_3(capsys):
    code, out, err = run(capsys, "triangle", "--rule", "zigzag")
    assert code == 3


# a malformed rule exits 3 with its text and the reason
_RULE_REASONS = {
    "bar:1/0": "has a zero denominator",
    "lambda:1,1,1/0": "has a zero denominator",
    "lambda:1,1": "missing 1 required positional argument",
    "tilde:x": "Invalid literal for Fraction: 'x'",
    "tilde:1,2": "takes 1 positional argument but 2 were given",
    "lambda:1,2,1": "2 is not the square of a rational",
}


@pytest.mark.parametrize("rule", list(_RULE_REASONS))
def test_rule_with_a_zero_denominator_exit_3(capsys, rule):
    code, out, err = run(capsys, "triangle", "--rule", rule)
    assert code == 3
    assert out == ""
    assert err.startswith(f"ladderkit: rule {rule!r}")
    assert _RULE_REASONS[rule] in err


def test_gauss_rules_by_name(capsys):
    # both Gaussian diagrams have 1, 1, 3, 15 down column 0; gauss-bar
    # has 12 at row 4, column 2 and 6 at row 3, column 3
    for rule in ("gauss-tilde", "gauss-bar"):
        code, doc, _ = run_json(capsys, "triangle", "--rule", rule,
                                "--rows", "8")
        assert code == 0
        assert doc["rule"] == rule
        nodes = {(r["row"], r["column"]): r["numerator"] for r in doc["nodes"]}
        assert [nodes[(r, 0)] for r in (0, 2, 4, 6)] == ["1", "1", "3", "15"]
    assert nodes[(4, 2)] == "12" and nodes[(3, 3)] == "6"


def test_rotate_direct_at_singular_s(capsys):
    # the direct route needs no h; s = 0 only blocks the factorized routes
    angles = ["--omega", repr(math.pi / 2), "--theta", repr(math.pi / 2),
              "--phi", "0", "--j", "1"]
    code, doc, _ = run_json(capsys, "rotate", *angles, "--method", "direct")
    assert code == 0
    assert doc["h"] is None and doc["s"] is None
    assert len(doc["matrices"]["direct"]) == 3
    code, _, err = run(capsys, "rotate", *angles)
    assert code == 2 and "degenerates" in err


def test_factorize_both_keeps_the_normal_residual_on_the_padded_window(capsys):
    # only the anti-normal sum needs the window grown to its reach
    flags = ["factorize", "--alpha", "1", "--beta", "1", "--sigma", "1",
             "--y", "0.6", "--core", "0:5"]
    _, both, _ = run_json(capsys, *flags)
    _, normal, _ = run_json(capsys, *flags, "--ordering", "normal")
    assert both["residuals"]["normal"] == normal["residuals"]["normal"]
    assert normal["window"]["j_max"] < both["window"]["j_max"]


def test_factorize_reports_the_window_of_each_residual_and_certificate(capsys):
    # the README line: the rule pad gives the normal residual and the
    # certificate j = 0..43, the anti-normal reach grows its window to 47
    code, doc, _ = run_json(capsys, "factorize", "--alpha", "1", "--beta", "1",
                            "--sigma", "1", "--y", "0.3", "--core", "0:11",
                            "--certify-pad")
    assert code == 0
    assert doc["window"]["j_max"] == 47
    assert doc["residual_windows"]["normal"] == {"j_min": 0, "j_max": 43}
    assert doc["residual_windows"]["anti-normal"] == {"j_min": 0, "j_max": 47}
    assert doc["pad_sufficiency_window"] == {"j_min": 0, "j_max": 43}


def test_factorize_certifies_the_oracle_window(capsys):
    # --pad 40 widens the products' windows to 0..51; the oracle and its
    # certificate keep the rule's 0..43.  Alone, the anti-normal ordering
    # grows its window to the reach, 0..47, past a --pad 5; its oracle and
    # certificate again keep 0..43
    flags = ["factorize", "--alpha", "1", "--beta", "1", "--sigma", "1",
             "--y", "0.3", "--core", "0:11", "--certify-pad"]
    for extra, ordering, j_max in ((["--pad", "40"], "normal", 51),
                                   (["--pad", "5", "--ordering", "anti-normal"],
                                    "anti-normal", 47)):
        code, doc, _ = run_json(capsys, *flags, *extra)
        assert code == 0
        assert doc["residual_windows"][ordering] == {"j_min": 0, "j_max": j_max}
        assert doc["pad_sufficiency_window"] == {"j_min": 0, "j_max": 43}
        assert doc["pad_sufficiency"] <= 1e-12


def test_factorize_both_certifies_each_oracle_window(capsys, monkeypatch):
    # --pad 5 leaves the normal oracle on 0..16, while the anti-normal reach
    # gives its oracle the rule's 0..43: both windows are certified and the
    # larger certificate, 0..16's, is reported.  On the README line both
    # orderings share 0..43, which is certified once
    certify = cli.pad_sufficiency
    calls = []

    def spy(spec, window, *rest):
        calls.append(((window.j_min, window.j_max),
                      certify(spec, window, *rest)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "pad_sufficiency", spy)
    flags = ["factorize", "--alpha", "1", "--beta", "1", "--sigma", "1",
             "--y", "0.3", "--core", "0:11", "--certify-pad"]
    code, doc, _ = run_json(capsys, *flags, "--pad", "5")
    assert code == 1    # 5 states are too few for the normal product
    assert [w for w, _ in calls] == [(0, 16), (0, 43)]
    assert doc["pad_sufficiency"] == max(c for _, c in calls) == calls[0][1]
    assert doc["pad_sufficiency_window"] == {"j_min": 0, "j_max": 16}
    calls.clear()
    code, doc, _ = run_json(capsys, *flags)
    assert code == 0
    assert [w for w, _ in calls] == [(0, 43)]


def test_a_nan_residual_anywhere_fails_factorize(capsys):
    # sho at y = 22: the float anti-normal product overflows to a NaN
    # residual, listed after the normal ordering's finite one
    code, doc, _ = run_json(capsys, "factorize", "--profile", "sho",
                            "--y", "22", "--core", "0:3")
    assert math.isnan(doc["residuals"]["anti-normal"])
    assert doc["residuals"]["normal"] <= 1e-10
    assert doc["pass"] is False
    assert code == 1


def test_a_nan_certificate_is_the_one_reported(capsys, monkeypatch):
    # --pad 5 certifies 0..16 and then 0..43; a NaN on the second wins
    certify = cli.pad_sufficiency
    monkeypatch.setattr(cli, "pad_sufficiency", lambda spec, window, *rest: (
        math.nan if window.j_max == 43 else certify(spec, window, *rest)))
    _, doc, _ = run_json(capsys, "factorize", "--alpha", "1", "--beta", "1",
                         "--sigma", "1", "--y", "0.3", "--core", "0:11",
                         "--certify-pad", "--pad", "5")
    assert math.isnan(doc["pad_sufficiency"])
    assert doc["pad_sufficiency_window"] == {"j_min": 0, "j_max": 43}


def test_a_nan_deviation_anywhere_fails_rotate(capsys, monkeypatch):
    # a NaN anti-normal matrix: the first deviation, factorized|direct, is
    # finite and the two after it are NaN
    anti = cli.rotations.antinormal_rotation
    monkeypatch.setattr(cli.rotations, "antinormal_rotation",
                        lambda spec: np.full_like(anti(spec), np.nan))
    code, doc, _ = run_json(capsys, "rotate", "--omega", "0.7", "--theta",
                            "1.1", "--phi", "2.3", "--j", "1.5")
    devs = doc["pairwise_deviation"]
    assert devs.pop("factorized|direct") <= 1e-11
    assert all(map(math.isnan, devs.values()))
    assert doc["pass"] is False
    assert code == 1


def test_ascii_format_flattens_the_payload(capsys):
    code, out, _ = run(capsys, "--format", "ascii", "check-algebra",
                       "--alpha", "1", "--beta", "1", "--sigma", "1",
                       "--window", "0:4")
    assert code == 0
    lines = out.splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    assert keys == sorted(["blocks", "commutator_residual", "pass",
                           "spec.alpha", "spec.beta", "spec.sigma", "tol",
                           "window.core_hi", "window.core_lo",
                           "window.j_max", "window.j_min"])
    assert "blocks = [[0, 4]]" in lines
    assert "pass = True" in lines
    assert "window.j_max = 4" in lines

    # an ndarray cell is the JSON of its entries, each {"im", "re"}
    code, out, _ = run(capsys, "--format", "ascii", "rotate", "--omega", "0.7",
                       "--theta", "1.1", "--phi", "2.3", "--j", "0.5",
                       "--method", "direct")
    assert code == 0
    table = dict(line.split(" = ") for line in out.splitlines())
    assert list(table) == sorted(["h", "j", "matrices.direct", "omega", "phi",
                                  "s", "theta", "tol"])
    direct = cli.rotations.rotation_direct(
        cli.rotations.RotationSpec(0.7, 1.1, 2.3, 0.5))
    assert table["matrices.direct"] == json.dumps(
        [[{"im": z.imag, "re": z.real} for z in row] for row in direct.tolist()])


def test_csv_format_flattens_the_payload(capsys):
    code, out, _ = run(capsys, "--format", "csv", "factorize", "--alpha", "1",
                       "--beta", "1", "--sigma", "1", "--y", "0.3",
                       "--core", "0:3", "--certify-pad")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["key", "value"]
    table = dict(rows[1:])
    keys = [key for key, _ in rows[1:]]
    assert keys == sorted(keys)
    assert {"coeffs.a", "factors.f_plus", "pad_sufficiency_window.j_max",
            "residuals.normal", "residuals.anti-normal",
            "window.core_hi"} <= set(table)
    assert json.loads(table["coeffs.a"]) == {"im": 0.3, "re": 0.0}
    assert table["window.core_hi"] == "3"
    assert table["pass"] == "True"
    assert float(table["residuals.normal"]) <= 1e-10

    # csv rows keep their own columns; a complex cell is its JSON
    code, out, _ = run(capsys, "--format", "csv", "phase", "--n", "2",
                       "--m", "1", "--y", "0.5", "--y", "0.7",
                       "--check-oracle", "60")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert out.splitlines()[0] == "y,n,m,gnm,element,oracle_deviation"
    assert [row["y"] for row in rows] == ["0.5", "0.7"]
    for row in rows:
        element = cli.phase.phase_element(2, 1, float(row["y"]))
        assert row["element"] == json.dumps(
            {"im": element.imag, "re": element.real})
        assert float(row["oracle_deviation"]) <= 1e-12


def test_factorize_scans_the_antinormal_peak_from_both_core_edges(capsys):
    # lambda_7 = 0 at core_hi: a scan from there alone sees no peak and the
    # float product misses by 3.1e-3; the peak e^8.8 sits mid-core
    code, doc, _ = run_json(capsys, "factorize", "--alpha", "6", "--beta",
                            "-7", "--sigma", "-0.5", "--a",
                            "0,2.203361568273505", "--b",
                            "0,2.203361568273505", "--c", "0,0.4",
                            "--core", "-5:7", "--ordering", "anti-normal")
    assert code == 0
    assert doc["residuals"]["anti-normal"] <= 1e-13


def test_triangle_lambda_rule_is_exact(capsys):
    code, doc, _ = run_json(capsys, "triangle", "--rule", "lambda:1/3,1/3,1",
                            "--rows", "3")
    assert code == 0
    assert doc["rule"] == "lambda-symmetric(alpha=1/3, beta=1/3, sigma=1)"
    nodes = {(r["row"], r["column"]): (r["numerator"], r["denominator"])
             for r in doc["nodes"]}
    assert nodes[(1, 1)] == ("1", "3")
    assert nodes[(2, 2)] == ("4", "9")


def test_config_defaults_do_not_outlive_their_call(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"rows": 3, "column": 0}))
    args = ("triangle", "--rule", "unit")
    code, doc, _ = run_json(capsys, "--config", str(cfg), *args)
    assert code == 0
    assert doc["num_rows"] == 3 and "column_series" in doc
    # the parser is shared between calls; the next one has plain defaults
    code, doc, _ = run_json(capsys, *args)
    assert code == 0
    assert doc["num_rows"] == 8 and "column_series" not in doc


def test_config_key_matching_no_flag_exit_3(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"colum": 0, "rows": 3}))
    code, out, err = run(capsys, "--config", str(cfg), "triangle",
                         "--rule", "unit")
    assert code == 3
    assert out == ""
    assert "'colum'" in err
    # a key of another subcommand's flag is no error
    cfg.write_text(json.dumps({"rows": 3, "alpha": 1}))
    code, doc, _ = run_json(capsys, "--config", str(cfg), "triangle",
                            "--rule", "unit")
    assert code == 0
    assert doc["num_rows"] == 3


_TRIANGLE = ("triangle", "--rule", "unit")
_GN = ("gn", "--profile", "sho", "--n", "1")


@pytest.mark.parametrize("config, argv", [
    ({"rows": 3.5}, _TRIANGLE),
    ({"rows": True}, _TRIANGLE),
    ({"rows": None}, _TRIANGLE),
    ({"boundary": "square"}, _TRIANGLE),
    ({"rule": 3}, _TRIANGLE),
    ({"y": 0.3}, _GN),                 # --y repeats: a list
    ({"y": "0.3"}, _GN),
    ({"y": [0.3, "0.5"]}, _GN),
    ({"recursion": 1}, _GN),
    ({"window": [0, 16.5]}, ("check-algebra", "--profile", "sho")),
    ({"a": [0.5, 0.1]}, ("factorize", "--profile", "sho", "--b", "0.5")),
])
def test_config_value_of_the_wrong_kind_exit_3(capsys, tmp_path, config,
                                                argv):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == 3 and out == ""
    (key,) = config
    assert err.startswith(f"ladderkit: config key {key!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("config, argv, field, want", [
    ({"rows": 3}, _TRIANGLE, "num_rows", 3),
    ({"rows": "3"}, _TRIANGLE, "num_rows", 3),     # parsed as --rows 3
    ({"y": [0.3, 0.5]}, _GN, "rows", 2),
    ({"y": 0.3}, ("sumrule", "--name", "bessel-unity"), "y", 0.3),
])
def test_config_value_of_the_flags_kind_is_taken(capsys, tmp_path, config,
                                                  argv, field, want):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, doc, _ = run_json(capsys, "--config", str(cfg), *argv)
    assert code == 0
    got = doc[field]
    assert (len(got) if isinstance(got, list) else got) == want


@pytest.mark.parametrize("grid, ys", [
    ([0.1, 0.5, 3], [0.1, 0.5, 3]),      # a list is the grid's points
    ("0.1:0.5:3", [0.1, 0.3, 0.5]),      # a string is the flag's text
])
def test_config_y_grid_list_is_points_string_is_start_stop_count(
        capsys, tmp_path, grid, ys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"y_grid": grid}))
    code, doc, _ = run_json(capsys, "--config", str(cfg), *_GN)
    assert code == 0
    assert [row["y"] for row in doc["rows"]] == pytest.approx(ys, abs=1e-15)


def test_config_string_the_flag_type_refuses_exit_3(capsys, tmp_path):
    # argparse parses a string value as the flag's text, and names the flag
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"rows": "3.5"}))
    code, out, err = run(capsys, "--config", str(cfg), *_TRIANGLE)
    assert code == 3 and out == ""
    assert "--rows" in err and "'3.5'" in err


def test_triangle_after_a_zero_weight(capsys):
    # bar(0) empties every row after the seed; the rows still print
    code, doc, _ = run_json(capsys, "triangle", "--rule", "bar:0",
                            "--rows", "5")
    assert code == 0
    assert doc == {"ascii": "n=0\n 1\n\n\n\n", "boundary": "triangular",
                   "nodes": [{"column": 0, "denominator": "1",
                              "numerator": "1", "row": 0}],
                   "num_rows": 5, "rule": "bar(0)", "start_column": 0}
    code, out, _ = run(capsys, "--format", "ascii", "triangle", "--rule",
                       "bar:0", "--rows", "5")
    assert code == 0
    assert out == "n=0\n 1\n\n\n\n\n"


def test_gn_off_diagonal_parametric_takes_gnm(capsys):
    args = ("gn", "--alpha", "1", "--beta", "2", "--sigma", "1", "--n", "3",
            "--m", "1", "--y", "0.4")
    code, doc, _ = run_json(capsys, *args)
    assert code == 0
    (row,) = doc["rows"]
    assert row["route"] == "closed-form"
    code, ref, _ = run_json(capsys, *args, "--route", "oracle")
    assert code == 0
    assert ref["rows"][0]["route"] == "oracle"
    assert abs(row["value"] - ref["rows"][0]["value"]) <= 1e-9


def test_gn_negative_m_off_the_oracle_exit_3(capsys):
    # a negative m is refused, not answered with the m = 0 value; the
    # oracle keeps it, as the hole sector's matrix element
    code, out, err = run(capsys, "gn", "--profile", "sho", "--n", "2",
                         "--m", "-2", "--y", "0.3")
    assert code == 3 and out == "" and "gnm" in err
    for spec in (("--profile", "sho"),
                 ("--alpha", "1", "--beta", "1", "--sigma", "1")):
        code, doc, _ = run_json(capsys, "gn", *spec, "--n", "2", "--m", "-1",
                                "--y", "0.3", "--route", "oracle")
        assert code == 0
        assert doc["rows"][0]["m"] == -1
        assert doc["rows"][0]["route"] == "oracle"


def test_check_algebra_tolerance_violation_exit_1(capsys):
    code, doc, _ = run_json(capsys, "check-algebra", "--alpha", "1.5",
                            "--beta", "2.5", "--sigma", "1", "--window",
                            "0:16", "--tol", "1e-30")
    assert code == 1
    assert doc["pass"] is False
    assert doc["commutator_residual"] > 1e-30


def test_rotate_tolerance_violation_exit_1(capsys):
    code, doc, _ = run_json(capsys, "rotate", "--omega", "0.7", "--theta",
                            "1.1", "--phi", "2.3", "--j", "1.5", "--tol", "0")
    assert code == 1
    assert doc["pass"] is False


@pytest.mark.parametrize("content", [None, b"{not json", b"[1, 2]",
                                     b"\xff\xfe"])   # not UTF-8
def test_bad_config_file_exit_3(capsys, tmp_path, content):
    cfg = tmp_path / "run.json"
    if content is not None:
        cfg.write_bytes(content)
    code, out, err = run(capsys, "--config", str(cfg), "triangle",
                         "--rule", "unit")
    assert code == 3
    assert out == ""
    assert err.startswith("ladderkit: ")


def test_help_is_answered_before_the_config_file_is_read(capsys, tmp_path):
    code, out, _ = run(capsys, "--config", str(tmp_path / "missing.json"),
                       "--help")
    assert code == 0
    assert out.startswith("usage: ladderkit")


@pytest.mark.parametrize("extra", [
    ("--y", "0.3"),                    # no --n
    ("--n", "1"),                      # no --y
    ("--n", "1", "--y-grid", "0.1:0.5"),
    ("--n", "1", "--y-grid", "0.3:0.5:0"),
    ("--n", "-1", "--y", "0.3"),       # the 2F1 would need c = n + 1 <= 0
    ("--n", "2", "--m", "-1", "--y", "0.3"),  # gnm needs m >= 0
])
def test_gn_incomplete_or_bad_flags_exit_3(capsys, extra):
    code, out, err = run(capsys, "gn", "--alpha", "1", "--beta", "2",
                         "--sigma", "1", *extra)
    assert code == 3
    assert out == ""
    assert err.strip()


def test_one_point_grid_prints_one_row(capsys):
    code, doc, _ = run_json(capsys, "gn", "--alpha", "1", "--beta", "2",
                            "--sigma", "1", "--n", "1", "--y-grid",
                            "0.3:0.5:1")
    assert code == 0
    assert [row["y"] for row in doc["rows"]] == [0.3]


def test_factorize_past_the_antinormal_edge_exit_2(capsys):
    code, out, err = run(capsys, "factorize", "--alpha", "1", "--beta", "1",
                         "--sigma", "1", "--y", "0.9", "--core", "0:3")
    assert code == 2
    assert out == ""
    assert "does not converge" in err


def test_factorize_negative_pad_exit_3(capsys):
    code, out, err = run(capsys, "factorize", "--alpha", "1", "--beta", "1",
                         "--sigma", "1", "--y", "0.3", "--core", "0:3",
                         "--pad", "-2")
    assert code == 3
    assert out == ""
    assert "padding" in err


@pytest.mark.parametrize("argv", [
    "gn --alpha 0.5 --beta 1e300 --sigma 124.9 --n 40 --y 1e-300",
    "gn --alpha 1e300 --beta 4.25 --sigma 5.5 --n 12 --m 1 --y 1e-300",
])
def test_an_overflowing_a_n_times_an_underflowing_power_is_finite(capsys, argv):
    # A_n overflows to inf and (yf)^n underflows to 0, which printed
    # "value": NaN at exit 0; formed in logs, the product is far below the
    # smallest float
    code, doc, err = run_json(capsys, *argv.split())
    assert code == 0 and err == ""
    (row,) = doc["rows"]
    assert row["value"] == 0.0 and row["err_estimate"] == 0.0


@pytest.mark.parametrize("argv, code, lines", [
    # lambda_0^2 overflows to inf: main's one refusal line alone
    ("gn --alpha 1e160 --beta 1e160 --sigma 1 --n 1 --y 0.3", 2, 1),
    # the commutators overflow to inf and NaN: "pass" false, nothing else
    ("check-algebra --alpha 1 --beta 1 --sigma 1e300 --window 0:4"
     " --core 1:3", 1, 0),
])
def test_numpy_warnings_stay_off_stderr(argv, code, lines):
    # in a fresh interpreter, where numpy's RuntimeWarnings would print
    # with the package's install path
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-m", "ladderkit.cli",
                          *argv.split()], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == code
    assert len(out.stderr.splitlines()) == lines, out.stderr
    assert "Warning" not in out.stderr
