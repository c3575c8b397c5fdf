import json
import math

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


def test_sumrule(capsys):
    code, doc, _ = run_json(capsys, "sumrule", "--name", "bessel-unity",
                            "--y", "0.8", "--k-max", "12")
    assert code == 0
    assert doc["deviation"] <= 1e-12


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


def test_small_window_default_core(capsys):
    code, doc, _ = run_json(capsys, "check-algebra", "--alpha", "1",
                            "--beta", "1", "--sigma", "1", "--window", "0:3")
    assert code == 0


def test_unknown_rule_exit_3(capsys):
    code, out, err = run(capsys, "triangle", "--rule", "zigzag")
    assert code == 3


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
