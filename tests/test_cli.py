import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import recipe_input
from tvtrend import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

def write_signal(path, y):
    path.write_text("".join(f"{v:.17g}\n" for v in y))


@pytest.fixture
def signal(tmp_path, rng):
    y = np.repeat([0.0, 2.0, -1.0], 30) + rng.standard_normal(90)
    path = tmp_path / "y.csv"
    write_signal(path, y)
    return path, y


class TestSolve:
    def test_lambda_zero_round_trip(self, tmp_path, signal):
        path, y = signal
        out = tmp_path / "f.csv"
        rc = cli.main(["solve", "--input", str(path), "--k", "1", "--lambda", "0",
                       "--out", str(out), "--report", str(tmp_path / "r.json")])
        assert rc == 0
        np.testing.assert_allclose(np.loadtxt(out), y, atol=1e-15)

    def test_huge_lambda_polynomial(self, tmp_path, signal):
        path, y = signal
        out = tmp_path / "f.csv"
        rc = cli.main(["solve", "--input", str(path), "--k", "2", "--lambda", "1e9",
                       "--out", str(out), "--report", str(tmp_path / "r.json")])
        assert rc == 0
        f = np.loadtxt(out)
        i = np.arange(90.0)
        V = np.column_stack([np.ones(90), i])
        coef, *_ = np.linalg.lstsq(V, y, rcond=None)
        np.testing.assert_allclose(f, V @ coef, atol=1e-7)

    def test_dp_oracle_matches_admm(self, tmp_path, signal):
        path, _ = signal
        outs = []
        for algo in ("admm", "dp_k1"):
            out = tmp_path / f"{algo}.csv"
            rc = cli.main(["solve", "--input", str(path), "--k", "1",
                           "--lambda", "0.05", "--algorithm", algo,
                           "--out", str(out), "--report", str(tmp_path / "r.json")])
            assert rc == 0
            outs.append(np.loadtxt(out))
        assert np.max(np.abs(outs[0] - outs[1])) <= 1e-9

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nnot-a-number\n2.0\n")
        rc = cli.main(["solve", "--input", str(bad), "--k", "1", "--lambda", "1"])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert cli.main(["solve", "--input", str(tmp_path / "nope.csv"),
                         "--k", "1", "--lambda", "1"]) == 2

    def test_nonconvergence_exit_code(self, tmp_path, signal):
        path, _ = signal
        rc = cli.main(["solve", "--input", str(path), "--k", "2", "--lambda", "0.05",
                       "--tol-kkt", "1e-300", "--max-iter", "20",
                       "--report", str(tmp_path / "r.json")])
        assert rc == 3

    def test_uncertified_k4_face_is_written(self, tmp_path, capsys):
        # The k = 4 fit whose ADMM iterates break the banded factorization:
        # a polish reaches the exact face before that, which float64 leaves
        # about 1e-7 short of the 1e-8 certificate, so solve writes it and
        # exits 3.  Which candidate reached it is not pinned: ``iters`` only
        # lies before max_iter, as for every face returned uncertified.
        y, cfg = recipe_input(4)
        path, out, rep = tmp_path / "y.csv", tmp_path / "f.csv", tmp_path / "r.json"
        write_signal(path, y)
        rc = cli.main(["solve", "--input", str(path), "--k", "4", "--lambda", repr(cfg.lam),
                       "--out", str(out), "--report", str(rep)])
        assert rc == 3
        assert "leading minor" not in capsys.readouterr().err
        report = json.loads(rep.read_text())
        assert report["converged"] is False and 1 <= report["iters"] < cfg.max_iter
        assert 1e-8 < report["kkt_residual"] < 1e-6
        assert np.loadtxt(out).shape == (4096,)

    def test_linalg_failure_is_numeric_exit(self, signal, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, which would otherwise exit 2 (usage)
        def failing_fit(y, cfg):
            raise np.linalg.LinAlgError("237-th leading minor not positive definite")

        monkeypatch.setattr(cli, "fit", failing_fit)
        path, _ = signal
        rc = cli.main(["solve", "--input", str(path), "--k", "4", "--lambda", "0.1"])
        assert rc == 3
        assert "leading minor" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["admm", "dp_k1"])
    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_non_finite_lambda_is_usage_error(self, tmp_path, signal, capsys, algorithm, lam):
        path, _ = signal
        out = tmp_path / "f.csv"
        rc = cli.main(["solve", "--input", str(path), "--k", "1", "--lambda", lam,
                       "--algorithm", algorithm, "--out", str(out)])
        assert rc == 2
        assert "lambda must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--tol-kkt", "nan"), ("--max-iter", "0"),
                                            ("--k", "0"), ("--k", "2 --algorithm dp_k1"),
                                            ("--k", "2 --algorithm dp_k1 --lambda 0")])
    def test_invalid_fit_settings_are_usage_errors(self, tmp_path, signal, capsys, flag, value):
        # A value may carry further options; a later --lambda overrides 0.1.
        path, _ = signal
        out = tmp_path / "f.csv"
        rc = cli.main(["solve", "--input", str(path), "--k", "1", "--lambda", "0.1",
                       flag, *value.split(), "--out", str(out)])
        assert rc == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_report_contents(self, tmp_path, signal):
        path, _ = signal
        rep = tmp_path / "rep.json"
        cli.main(["solve", "--input", str(path), "--k", "1", "--lambda", "0.1",
                  "--report", str(rep)])
        report = json.loads(rep.read_text())
        assert report["converged"] is True
        assert report["kkt_residual"] <= 1e-8
        assert set(report) >= {"objective", "iters", "lambda", "n"}

    def test_removed_algorithm_rejected(self, signal):
        path, _ = signal
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--input", str(path), "--k", "2", "--lambda", "0.1",
                      "--algorithm", "synthesis_cd"])
        assert exc.value.code == 2


class TestBounds:
    def test_deterministic_json(self, tmp_path):
        args = ["bounds", "--n", "256", "--k", "2", "--jumps", "80,160",
                "--signs", "+,-"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        out = json.loads(a.read_text())
        assert out["n_max_cap"] == pytest.approx(out["n_max"], rel=1e-9)
        assert out["lambda_threshold_strengthened"] > out["lambda_threshold"]

    def test_csv_to_stdout(self, tmp_path, capsys):
        args = ["bounds", "--n", "256", "--k", "2", "--jumps", "80,160",
                "--signs", "+,-", "--format", "csv"]
        path = tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(path)]) == 0
        assert cli.main(args) == 0
        text = capsys.readouterr().out
        assert text == path.read_text()
        lines = text.splitlines()
        assert lines[0] == "key,value"
        keys = [line.split(",")[0] for line in lines[1:]]
        assert keys == sorted(keys) and "lambda_threshold" in keys

    @pytest.mark.parametrize("argv, warnings", [
        (["--n", "10", "--k", "2", "--jumps", "5"],
         ["segment 1 shorter than k(k+2) = 8", "segment 2 shorter than k(k+2) = 8"]),
        (["--n", "200", "--k", "2", "--jumps", "50", "--lambda", "1e-300"],
         ["lambda=1e-300 below the strengthened threshold 27.7896"]),
        # the threshold honours --c-k: 13.89 at 1.0, 55.58 at 4.0
        (["--n", "200", "--k", "2", "--jumps", "50", "--c-k", "1.0", "--lambda", "27.79"], []),
        (["--n", "200", "--k", "2", "--jumps", "50", "--c-k", "4.0", "--lambda", "27.79"],
         ["lambda=27.79 below the strengthened threshold 55.5792"]),
        (["--n", "256", "--k", "2", "--jumps", "80,160", "--signs", "+,-"], []),
    ])
    def test_preconditions_warned_on_stderr(self, argv, warnings, tmp_path, capsys):
        path = tmp_path / "b.json"
        assert cli.main(["bounds", *argv, "--out", str(path)]) == 0
        io = capsys.readouterr()
        assert io.out == ""
        assert io.err.splitlines() == [f"warning: {w}" for w in warnings]
        assert cli.main(["bounds", *argv]) == 0
        assert capsys.readouterr().out == path.read_text()

    def test_signs_beginning_with_minus(self, capsys):
        args = ["bounds", "--n", "256", "--k", "2", "--jumps", "60,130,190"]
        assert cli.main(args + ["--signs=-,+,-"]) == 0
        attached = capsys.readouterr().out
        assert cli.main(args + ["--signs", "-,+,-"]) == 0
        assert capsys.readouterr().out == attached

    @pytest.mark.parametrize("signs", ["+,0", "+,banana", "+,", "+,--", "+,+-1"])
    def test_bad_sign_token_rejected(self, signs, capsys):
        args = ["bounds", "--n", "100", "--k", "1", "--jumps", "30,60", f"--signs={signs}"]
        assert cli.main(args) == 2
        assert "--signs" in capsys.readouterr().err

    def test_sign_tokens_stripped(self, capsys):
        args = ["bounds", "--n", "100", "--k", "1", "--jumps", "30,60"]
        assert cli.main(args + ["--signs", "+1, -1"]) == 0
        spaced = capsys.readouterr().out
        assert cli.main(args + ["--signs", "+,-"]) == 0
        assert capsys.readouterr().out == spaced

    @pytest.mark.parametrize("flag", ["--lambda", "--c-k", "--u", "--v"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_numeric_flags_must_be_finite_and_positive(self, flag, value, tmp_path, capsys):
        out = tmp_path / "b.json"
        args = ["bounds", "--n", "100", "--k", "1", "--jumps", "30,60", f"{flag}={value}",
                "--out", str(out)]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{flag} must be finite and positive" in captured.err
        assert not out.exists()


class TestInterpolant:
    def test_csv_columns_and_slack(self, tmp_path):
        out = tmp_path / "q.csv"
        rc = cli.main(["interpolant", "--n", "120", "--k", "2", "--jumps", "40,80",
                       "--signs", "+,-", "--mode", "noisy", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,q,weight_cap,slack"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows[0, 0] == 3 and rows[-1, 0] == 120
        at40 = rows[rows[:, 0] == 40][0]
        assert at40[1] == 1.0
        off = (rows[:, 0] != 40) & (rows[:, 0] != 80)
        assert np.all(rows[off, 3] >= -1e-12)

    def test_json_to_stdout(self, tmp_path, capsys):
        args = ["interpolant", "--n", "120", "--k", "2", "--jumps", "40,80",
                "--signs", "+,-", "--format", "json"]
        path = tmp_path / "q.json"
        assert cli.main(args + ["--out", str(path)]) == 0
        assert cli.main(args) == 0
        text = capsys.readouterr().out
        assert text == path.read_text()
        records = json.loads(text)
        assert [r["index"] for r in records] == list(range(3, 121))
        assert set(records[0]) == {"index", "q", "weight_cap", "slack"}
        assert records[40 - 3]["q"] == 1.0 and records[80 - 3]["q"] == -1.0

    def test_signs_beginning_with_minus(self, capsys):
        args = ["interpolant", "--n", "150", "--k", "1", "--jumps", "30,61,100"]
        assert cli.main(args + ["--signs=-,+,-"]) == 0
        attached = capsys.readouterr().out
        assert cli.main(args + ["--signs", "-,+,-"]) == 0
        assert capsys.readouterr().out == attached
        assert attached.splitlines()[30 - 1] == "30,-1,1,0"

    @pytest.mark.parametrize("signs", ["+,0", "banana,-", "-,x"])
    def test_bad_sign_token_rejected(self, signs, capsys):
        args = ["interpolant", "--n", "100", "--k", "1", "--jumps", "30,60", f"--signs={signs}"]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--signs" in captured.err

    def test_every_accepted_sign_token(self, capsys):
        args = ["interpolant", "--n", "100", "--k", "1", "--jumps", "30,60"]
        outs = []
        for signs in ("+,-", "+1,-1", "1,-1", " + , - "):
            assert cli.main(args + [f"--signs={signs}"]) == 0
            outs.append(capsys.readouterr().out)
        assert len(set(outs)) == 1
        assert outs[0].splitlines()[30 - 1] == "30,1,1,0"

    @pytest.mark.parametrize("flag", ["--lambda", "--c-k", "--u"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_numeric_flags_must_be_finite_and_positive(self, flag, value, capsys):
        args = ["interpolant", "--n", "100", "--k", "1", "--jumps", "30,60", "--mode", "noisy",
                f"{flag}={value}"]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{flag} must be finite and positive" in captured.err

    def test_noiseless_mode(self, tmp_path):
        out = tmp_path / "q.csv"
        rc = cli.main(["interpolant", "--n", "60", "--k", "1", "--jumps", "30",
                       "--mode", "noiseless", "--out", str(out)])
        assert rc == 0


class TestVerify:
    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    def test_lemma36_suite_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = cli.main(["verify", "--suite", "lemma36", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["passed"] and report["suite"] == "lemma36"

    def test_sparsity_suite_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = cli.main(["verify", "--suite", "sparsity", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["passed"] and report["suite"] == "sparsity"
        (check,) = report["checks"]
        assert check["detail"]["instances"] == 12
        assert 0.0 <= check["detail"]["worst_gap"] <= 1e-6


class TestSimulate:
    def config(self, tmp_path, **kw):
        base = dict(n=96, k=1, s0=2, replications=4, seed=11)
        base.update(kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base))
        return path

    def test_dry_run(self, tmp_path, capsys):
        path = self.config(tmp_path)
        assert cli.main(["simulate", "--config", str(path), "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_unknown_schema_version(self, tmp_path):
        path = self.config(tmp_path, schema_version=99)
        assert cli.main(["simulate", "--config", str(path), "--dry-run"]) == 2

    @pytest.mark.parametrize("field,value", [
        ("s0", -1), ("n", 64.5), ("n", 1), ("n", True), ("k", 0), ("k", 1.0), ("k", True),
        ("s0", False), ("replications", True), ("replications", 2.0), ("seed", -1),
        ("seed", 2 ** 64), ("seed", True), ("seed", "11")])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_bad_integer_field_is_usage_error(self, tmp_path, capsys, field, value, dry_run):
        # Checked when the config loads: --dry-run refuses what the run refuses.
        path = self.config(tmp_path, **{field: value})
        csv, summ = tmp_path / "trials.csv", tmp_path / "summary.json"
        argv = ["simulate", "--config", str(path), "--out-csv", str(csv), "--out-json", str(summ)]
        assert cli.main(argv + ["--dry-run"] * dry_run) == 2
        captured = capsys.readouterr()
        assert field in captured.err and captured.out == ""
        assert not csv.exists() and not summ.exists()

    @pytest.mark.parametrize("field,value", [
        ("u", "x"), ("u", -1.0), ("u", True), ("v", -1.0), ("v", math.inf), ("tol_kkt", 0.0),
        ("tol_kkt", math.nan), ("lambda_scale", -1.0), ("lambda_value", 0.0),
        ("lambda_value", 0.3),
        ("lambda_value", "x"), ("jump_delta", "x"), ("jump_delta", -math.inf),
        ("algorithm", "bogus"), ("algorithm", None), ("schema_version", True),
        ("schema_version", 1.0), ("record_timing", 3), ("record_timing", "false")])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_bad_float_or_flag_field_is_usage_error(self, tmp_path, capsys, field, value,
                                                     dry_run):
        # The float and flag fields are checked when the config loads too.
        path = self.config(tmp_path, **{field: value})
        csv, summ = tmp_path / "trials.csv", tmp_path / "summary.json"
        argv = ["simulate", "--config", str(path), "--out-csv", str(csv), "--out-json", str(summ)]
        assert cli.main(argv + ["--dry-run"] * dry_run) == 2
        captured = capsys.readouterr()
        assert field in captured.err and captured.out == ""
        assert not csv.exists() and not summ.exists()

    @pytest.mark.parametrize("dry_run", [True, False])
    def test_dp_k1_at_k2_is_usage_error(self, tmp_path, capsys, dry_run):
        path = self.config(tmp_path, k=2, algorithm="dp_k1")
        argv = ["simulate", "--config", str(path), "--out-json", str(tmp_path / "s.json")]
        assert cli.main(argv + ["--dry-run"] * dry_run) == 2
        assert "dp_k1" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["abc", "0", "-3"])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_bad_thread_count_is_usage_error(self, tmp_path, capsys, monkeypatch, threads,
                                             dry_run):
        monkeypatch.setenv("TVTREND_THREADS", threads)
        path = self.config(tmp_path)
        csv, summ = tmp_path / "trials.csv", tmp_path / "summary.json"
        argv = ["simulate", "--config", str(path), "--out-csv", str(csv), "--out-json", str(summ)]
        assert cli.main(argv + ["--dry-run"] * dry_run) == 2
        captured = capsys.readouterr()
        assert f"TVTREND_THREADS must be an integer >= 1, got {threads!r}" in captured.err
        assert captured.out == "" and not csv.exists() and not summ.exists()

    def test_good_float_and_flag_fields_accepted(self, tmp_path, capsys):
        path = self.config(tmp_path, u=3, v=2.5, tol_kkt=1e-6, lambda_scale=2, jump_delta=-4.0,
                           lambda_rule="fixed", lambda_value=0.5, record_timing=True,
                           algorithm="dp_k1", schema_version=1)
        assert cli.main(["simulate", "--config", str(path), "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_valid(self, config, capsys):
        assert cli.main(["simulate", "--config", str(config), "--dry-run"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True and out["config"] == json.loads(config.read_text())

    def test_run_outputs(self, tmp_path):
        path = self.config(tmp_path)
        csv = tmp_path / "trials.csv"
        summ = tmp_path / "summary.json"
        rc = cli.main(["simulate", "--config", str(path), "--out-csv", str(csv),
                       "--out-json", str(summ)])
        assert rc == 0
        assert csv.read_text().splitlines()[0].startswith("trial_id,")
        assert json.loads(summ.read_text())["n_trials"] == 4

    def test_past_the_old_dense_cap(self, tmp_path):
        path = self.config(tmp_path, n=8192, s0=4, replications=3, algorithm="dp_k1")
        csv = tmp_path / "trials.csv"
        rc = cli.main(["simulate", "--config", str(path), "--out-csv", str(csv),
                       "--out-json", str(tmp_path / "summary.json")])
        assert rc == 0
        assert len(csv.read_text().splitlines()) == 4

    def test_segments_past_the_old_length_cap(self, tmp_path):
        # 6554-point segments, longer than the old 4096-point segment cap
        path = self.config(tmp_path, n=32768, s0=4, replications=1, algorithm="dp_k1")
        csv = tmp_path / "trials.csv"
        rc = cli.main(["simulate", "--config", str(path), "--out-csv", str(csv),
                       "--out-json", str(tmp_path / "summary.json")])
        assert rc == 0
        assert len(csv.read_text().splitlines()) == 2


class TestLambdaRules:
    def test_threshold_rule(self, tmp_path, signal):
        path, _ = signal
        rep = tmp_path / "r.json"
        rc = cli.main(["solve", "--input", str(path), "--k", "1",
                       "--lambda-rule", "threshold", "--s0", "2",
                       "--report", str(rep)])
        assert rc == 0
        lam = json.loads(rep.read_text())["lambda"]
        from tvtrend import theory
        expected = theory.lambda_threshold(90, 1, (90 + 1 - 1) // 3, math.log(20.0), s=2)
        assert lam == pytest.approx(expected, rel=1e-12)

    def test_equal_segment_rule(self, tmp_path, signal):
        path, _ = signal
        rep = tmp_path / "r.json"
        rc = cli.main(["solve", "--input", str(path), "--k", "1",
                       "--lambda-rule", "equal_segment", "--s0", "2",
                       "--report", str(rep)])
        assert rc == 0
        from tvtrend import theory
        lam = json.loads(rep.read_text())["lambda"]
        assert lam == pytest.approx(theory.equal_segment_lambda(90, 1, 2), rel=1e-12)

    @pytest.mark.parametrize("rule", ["threshold", "equal_segment"])
    @pytest.mark.parametrize("s0", ["-1", "-3", "89"])
    def test_s0_outside_its_range_is_usage_error(self, tmp_path, signal, capsys, rule, s0):
        # n = 90, k = 1: --s0 must lie in [0, 88]; 88 itself is accepted.
        path, _ = signal
        args = ["solve", "--input", str(path), "--k", "1", "--lambda-rule", rule,
                "--report", str(tmp_path / "r.json")]
        assert cli.main(args + [f"--s0={s0}"]) == 2
        assert "--s0 must be in [0, n - k - 1] = [0, 88]" in capsys.readouterr().err
        assert cli.main(args + ["--s0", "88"]) == 0

    @pytest.mark.parametrize("rule, flag, value", [
        ("threshold", "--lambda-scale", "0"), ("threshold", "--lambda-scale", "-1"),
        ("equal_segment", "--lambda-scale", "nan"), ("threshold", "--u", "nan"),
        ("equal_segment", "--lambda-scale", "inf"), ("threshold", "--u", "inf")])
    def test_rule_inputs_must_be_finite_and_positive(self, tmp_path, signal, capsys, rule,
                                                     flag, value):
        # As in simulate's config: a scale of 0 would return y at lambda = 0.
        path, _ = signal
        rc = cli.main(["solve", "--input", str(path), "--k", "1", "--lambda-rule", rule,
                       f"{flag}={value}", "--report", str(tmp_path / "r.json")])
        assert rc == 2
        assert f"{flag} must be finite and positive, got" in capsys.readouterr().err

    def test_lambda_is_scaled_by_lambda_scale(self, tmp_path, signal):
        # --lambda is the fixed rule: --lambda-scale 5 was ignored and 0.01 reported.
        path, _ = signal
        rep = tmp_path / "r.json"
        args = ["solve", "--input", str(path), "--k", "1", "--lambda", "0.01", "--report", str(rep)]
        assert cli.main(args + ["--lambda-scale", "5"]) == 0
        assert json.loads(rep.read_text())["lambda"] == 0.01 * 5
        assert cli.main(args) == 0
        assert json.loads(rep.read_text())["lambda"] == 0.01

    @pytest.mark.parametrize("extra, message", [
        (["--lambda-rule", "threshold"], "give exactly one of --lambda and --lambda-rule"),
        (["--s0", "999"], "--s0 must be in [0, n - k - 1] = [0, 88], got 999"),
        (["--lambda-scale", "0"], "--lambda-scale must be finite and positive, got 0.0")])
    def test_lambda_with_an_unusable_rule_input_is_usage_error(self, tmp_path, signal, capsys,
                                                               extra, message):
        # Each of these passed unchecked beside --lambda, which was used as given.
        path, _ = signal
        rc = cli.main(["solve", "--input", str(path), "--k", "1", "--lambda", "0.01", *extra,
                       "--report", str(tmp_path / "r.json")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_equal_segment_ignores_u(self, tmp_path, signal):
        # --u enters only the threshold rule, so equal_segment does not check it.
        path, _ = signal
        rc = cli.main(["solve", "--input", str(path), "--k", "1",
                       "--lambda-rule", "equal_segment", "--u=nan",
                       "--report", str(tmp_path / "r.json")])
        assert rc == 0

    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_n_max_below_one_is_usage_error(self, tmp_path, signal, capsys, n_max):
        path, _ = signal
        rc = cli.main(["solve", "--input", str(path), "--k", "1", "--lambda-rule", "threshold",
                       f"--n-max={n_max}", "--report", str(tmp_path / "r.json")])
        assert rc == 2
        assert "--n-max must be >= 1" in capsys.readouterr().err

    def test_n_max_above_the_longest_segment_is_usage_error(self, tmp_path, rng, capsys):
        # 8 samples hold segments of at most n + 1 - k = 8 points at k = 1.
        path = tmp_path / "y8.csv"
        write_signal(path, rng.standard_normal(8))
        args = ["solve", "--input", str(path), "--k", "1", "--lambda-rule", "threshold",
                "--report", str(tmp_path / "r.json")]
        assert cli.main(args + ["--n-max", "100"]) == 2
        assert ("--n-max must be >= 1 and <= n + 1 - k = 8 (n = 8, k = 1), got 100"
                in capsys.readouterr().err)
        assert cli.main(args + ["--n-max", "8"]) == 0

    def test_signal_shorter_than_k_plus_one_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "y2.csv"
        write_signal(path, [0.5, -1.0])
        rc = cli.main(["solve", "--input", str(path), "--k", "2", "--lambda-rule", "threshold",
                       "--report", str(tmp_path / "r.json")])
        assert rc == 2
        assert "--k 2 needs n >= k + 1 = 3 samples, got n = 2" in capsys.readouterr().err

    def test_missing_lambda_usage_error(self, tmp_path, signal):
        path, _ = signal
        assert cli.main(["solve", "--input", str(path), "--k", "1"]) == 2


class TestUnwritableOutput:
    """An output path in a missing directory is an input error: exit 2 with
    one ``error: cannot write`` line, whichever subcommand writes it."""

    @pytest.fixture
    def argv(self, tmp_path, signal):
        missing = tmp_path / "missing" / "out"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(dict(n=96, k=1, s0=2, replications=2, seed=11)))
        path, _ = signal
        return {
            "solve --out": ["solve", "--input", str(path), "--k", "1", "--lambda", "0.05",
                            "--out", str(missing), "--report", str(tmp_path / "r.json")],
            "solve --report": ["solve", "--input", str(path), "--k", "1", "--lambda", "0.05",
                               "--report", str(missing)],
            "bounds --out": ["bounds", "--n", "100", "--k", "1", "--jumps", "50",
                             "--out", str(missing)],
            "interpolant --out": ["interpolant", "--n", "100", "--k", "1", "--jumps", "50",
                                  "--out", str(missing)],
            "verify --out": ["verify", "--suite", "lemma36", "--out", str(missing)],
            "simulate --out-csv": ["simulate", "--config", str(config),
                                   "--out-csv", str(missing)],
            "simulate --out-json": ["simulate", "--config", str(config),
                                    "--out-json", str(missing)],
        }, missing

    @pytest.mark.parametrize("case", ["solve --out", "solve --report", "bounds --out",
                                      "interpolant --out", "verify --out",
                                      "simulate --out-csv", "simulate --out-json"])
    def test_exits_2_with_an_error_line(self, argv, case, capsys):
        cases, missing = argv
        assert cli.main(cases[case]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: cannot write {missing}: [Errno 2] No such file"
                                    f" or directory: '{missing}'"]

    @pytest.mark.parametrize("case", ["simulate --out-csv", "simulate --out-json"])
    def test_simulate_refuses_before_the_first_trial(self, argv, case, tmp_path, monkeypatch):
        # The missing directory is refused before any trial runs, and the
        # other output, which could be written, is not created.
        from tvtrend import experiments

        cases, missing = argv
        trials = []
        run_trial = experiments.run_trial
        monkeypatch.setattr(experiments, "run_trial",
                            lambda *args: trials.append(args) or run_trial(*args))
        other = tmp_path / "other"
        flag = "--out-json" if case == "simulate --out-csv" else "--out-csv"
        assert cli.main(cases[case] + [flag, str(other)]) == 2
        assert trials == [] and not other.exists() and not missing.parent.exists()
