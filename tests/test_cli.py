import json
import math

import numpy as np
import pytest

from tvtrend import cli


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

    @pytest.mark.parametrize("flag,value", [("--tol-kkt", "nan"), ("--max-iter", "0")])
    def test_invalid_fit_settings_are_usage_errors(self, tmp_path, signal, capsys, flag, value):
        path, _ = signal
        out = tmp_path / "f.csv"
        rc = cli.main(["solve", "--input", str(path), "--k", "1", "--lambda", "0.1",
                       flag, value, "--out", str(out)])
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

    def test_missing_lambda_usage_error(self, tmp_path, signal):
        path, _ = signal
        assert cli.main(["solve", "--input", str(path), "--k", "1"]) == 2
