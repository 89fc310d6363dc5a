import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import block_dictionary_reference, block_polynomial_basis, random_active_set
from tvtrend import experiments as exp
from tvtrend import theory
from tvtrend.diffops import build_delta, column_norm_exact
from tvtrend.sparsity import gamma_closed_form


def cfg(**kw):
    base = dict(n=96, k=1, s0=2, replications=5, seed=42)
    base.update(kw)
    return exp.ExperimentConfig(**base)


class TestConfig:
    def test_unknown_schema_version(self):
        with pytest.raises(exp.ConfigError, match="schema_version"):
            cfg(schema_version=2)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 64, "k": 1, "s0": 0, "replications": 1,
                                    "seed": 1, "bogus": True}))
        with pytest.raises(exp.ConfigError, match="bogus"):
            exp.ExperimentConfig.from_json(path)

    def test_json_round_trip(self, tmp_path):
        c = cfg()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(c.to_dict()))
        assert exp.ExperimentConfig.from_json(path) == c

    def test_validation(self):
        with pytest.raises(exp.ConfigError):
            cfg(replications=0)
        with pytest.raises(exp.ConfigError):
            cfg(lambda_rule="fixed")
        with pytest.raises(exp.ConfigError):
            cfg(s0=200)


class TestSignals:
    def test_no_jumps_is_polynomial(self):
        f0, S = exp.generate_signal(cfg(s0=0, k=2))
        assert S.s == 0
        assert np.max(np.abs(np.diff(f0, 2))) <= 1e-12

    def test_support_exact(self):
        for k in (1, 2, 3):
            c = cfg(n=200, k=k, s0=3)
            f0, S = exp.generate_signal(c)
            d = build_delta(200, k).apply(f0)
            nz = np.nonzero(np.abs(d) > 1e-12)[0] + k + 1
            assert tuple(nz) == S.t
            assert len(nz) == 3

    def test_equispaced_halves(self):
        f0, S = exp.generate_signal(cfg(n=101, k=1, s0=1))
        n1, n2 = S.seg_lengths
        assert abs(n1 - n2) <= 1

    def test_alternating_signs_maximize_flips(self):
        _, S = exp.generate_signal(cfg(n=300, k=2, s0=4))
        assert S.sign_flip_segments == frozenset(range(1, 6))

    def test_infeasible_layout(self):
        with pytest.raises(exp.ConfigError, match="infeasible"):
            exp.jump_locations(cfg(n=20, k=2, s0=5))

    def test_random_min_gap_layout(self):
        c = cfg(n=220, k=2, s0=4, jump_layout="random-min-gap")
        f0, S = exp.generate_signal(c)
        gaps = np.diff((2,) + S.t + (221,))
        assert np.all(gaps >= 8)


class TestTrials:
    def test_counter_rng_order_independent(self):
        a = exp.trial_rng(7, 3).standard_normal(5)
        exp.trial_rng(7, 9).standard_normal(2)
        b = exp.trial_rng(7, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_trials_differ(self):
        a = exp.trial_rng(7, 0).standard_normal(4)
        b = exp.trial_rng(7, 1).standard_normal(4)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_bound_recomputes_from_stored_inputs(self):
        c = cfg(k=2, n=128, s0=2, replications=3)
        prep = exp.prepare(c)
        records, _ = exp.run_monte_carlo(c)
        gam = math.sqrt(gamma_closed_form(prep.S))
        bb = theory.adaptive_bound_rhs(prep.f0, prep.f0, prep.S, prep.lam,
                                       c.u, c.v, gam)
        for r in records:
            assert r.bound_rhs == pytest.approx(bb.total, abs=1e-12)

    def test_csv_byte_identical(self, tmp_path):
        c = cfg(replications=8)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        exp.run_monte_carlo(c, csv_path=p1)
        exp.run_monte_carlo(c, csv_path=p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == exp.CSV_HEADER

    def test_summary_fields(self):
        c = cfg(replications=6)
        _, summary = exp.run_monte_carlo(c)
        assert summary["n_trials"] == 6
        assert 0.0 <= summary["coverage"]["rate"] <= 1.0
        lo, hi = summary["coverage"]["wilson"]
        assert 0.0 <= lo <= summary["coverage"]["rate"] <= hi + 1e-12 <= 1.0 + 1e-12
        assert summary["event_u"]["target"] == pytest.approx(0.95)
        assert summary["mse"]["q50"] > 0

    def test_summary_json_deterministic(self, tmp_path):
        c = cfg(replications=4)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        exp.run_monte_carlo(c, json_path=pa)
        exp.run_monte_carlo(c, json_path=pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "", " 2", "2.0", "1e1"])
    def test_bad_thread_count_is_refused(self, monkeypatch, value):
        monkeypatch.setenv("TVTREND_THREADS", value)
        with pytest.raises(exp.ConfigError, match=f"TVTREND_THREADS.*{re.escape(repr(value))}"):
            exp.n_threads()
        with pytest.raises(exp.ConfigError, match="TVTREND_THREADS"):
            exp.run_monte_carlo(cfg(replications=1))

    def test_thread_count(self, monkeypatch):
        monkeypatch.delenv("TVTREND_THREADS", raising=False)
        assert exp.n_threads() == 1
        for value, workers in (("1", 1), ("2", 2), ("08", 8)):
            monkeypatch.setenv("TVTREND_THREADS", value)
            assert exp.n_threads() == workers

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        c = cfg(replications=6)
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        exp.run_monte_carlo(c, csv_path=p1)
        monkeypatch.setenv("TVTREND_THREADS", "2")
        exp.run_monte_carlo(c, csv_path=p2)
        assert p1.read_bytes() == p2.read_bytes()


def _exact_event_u(eps, k):
    """max_j |eps' psi_j| / (sqrt(n) ||psi_j||) over the columns of the
    pseudo-inverse of Delta(k) on n = len(eps) points, in exact rational
    arithmetic: psi_j is the falling-factorial column at row j less its
    least-squares polynomial part."""
    n = len(eps)
    basis = []  # orthogonal basis of the degree < k polynomials

    def perp(v):
        for b in basis:
            c = sum(x * y for x, y in zip(v, b)) / sum(y * y for y in b)
            v = [x - c * y for x, y in zip(v, b)]
        return v

    for p in range(k):
        basis.append(perp([Fraction(i) ** p for i in range(n)]))
    e = perp([Fraction(float(x)) for x in eps])
    best = 0.0
    for j in range(k + 1, n + 1):
        ff = [Fraction(math.comb(i - j + k - 1, k - 1)) if i >= j else Fraction(0)
              for i in range(1, n + 1)]
        psi = perp(ff)
        num = sum(x * y for x, y in zip(e, ff))
        best = max(best, abs(float(num)) / math.sqrt(float(sum(x * x for x in psi))))
    return best / math.sqrt(n)


def _nbytes(obj):
    """Bytes of all numpy arrays reachable through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(v) for v in obj)
    return 0


class TestEvents:
    # The SVD pseudo-inverse of an order-4 block of up to 96 points is itself
    # accurate only to about 1e-11 (against exact arithmetic, see below).
    DENSE_RTOL = {1: 1e-12, 2: 1e-12, 3: 1e-12, 4: 5e-11}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_event_u_matches_dense_dictionary(self, k, rng):
        for _ in range(25):
            S = random_active_set(rng, k)
            _, psi = block_dictionary_reference(S)
            eps = rng.standard_normal(S.n)
            ref = np.max(np.abs(eps @ psi) / (math.sqrt(S.n) * np.linalg.norm(psi, axis=0)))
            corr, _ = exp.event_statistics(exp.EventGeometry.from_active_set(S), eps)
            assert corr == pytest.approx(ref, rel=self.DENSE_RTOL[k], abs=0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_event_u_exact_arithmetic(self, k, rng):
        S = random_active_set(rng, k, max_s=0)
        eps = rng.standard_normal(S.n)
        corr, _ = exp.event_statistics(exp.EventGeometry.from_active_set(S), eps)
        assert corr == pytest.approx(_exact_event_u(eps, k), rel=1e-13, abs=0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_event_v_matches_nullspace_basis(self, k, rng):
        S = random_active_set(rng, k)
        Q = block_polynomial_basis(S)
        eps = rng.standard_normal(S.n)
        _, proj = exp.event_statistics(exp.EventGeometry.from_active_set(S), eps)
        assert proj == pytest.approx(np.linalg.norm(Q.T @ eps), rel=1e-12, abs=0)

    def test_prepared_holds_no_dense_dictionary(self):
        prep = exp.prepare(cfg(n=4096, k=1, s0=4, replications=1, seed=0,
                               algorithm="dp_k1"))
        assert _nbytes(prep) < 1 << 20

    def test_bound_computed_once_per_config(self, monkeypatch):
        calls = []
        original = exp.theory.adaptive_bound_rhs

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(exp.theory, "adaptive_bound_rhs", counted)
        exp.run_monte_carlo(cfg(replications=5))
        assert len(calls) == 1

    def test_past_the_old_dense_cap(self, tmp_path, monkeypatch):
        c = cfg(n=8192, k=1, s0=4, replications=3, algorithm="dp_k1")
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        records, _ = exp.run_monte_carlo(c, csv_path=p1)
        assert [r.trial_id for r in records] == [0, 1, 2]
        monkeypatch.setenv("TVTREND_THREADS", "2")
        exp.run_monte_carlo(c, csv_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_segments_past_the_old_length_cap(self):
        # five segments of about 6554 points, longer than the old 4096-point segment cap
        prep = exp.prepare(cfg(n=32768, k=1, s0=4, replications=1, algorithm="dp_k1"))
        scale = prep.events.psi_scale
        start = 0
        for lo, hi, _basis in prep.events.segments:
            nb = hi - lo
            j = np.arange(2, nb + 1)
            ref = math.sqrt(32768) * np.sqrt(column_norm_exact(nb, 1, j))
            np.testing.assert_allclose(scale[start:start + nb - 1], ref, rtol=1e-12, atol=0)
            start += nb - 1
        assert start == len(scale)
        assert min(hi - lo for lo, hi, _basis in prep.events.segments) > 4096


class TestWilson:
    def test_interval_contains_rate(self):
        lo, hi = exp.wilson_interval(45, 50)
        assert lo < 0.9 < hi

    def test_degenerate(self):
        assert exp.wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = exp.wilson_interval(50, 50)
        assert hi == 1.0 and lo > 0.9

    def test_margin(self):
        assert exp.wilson_margin(500, 0.9) == pytest.approx(
            1.96 * math.sqrt(0.09 / 500), rel=1e-12)


def test_rate_sweep_runs():
    c = cfg(n=128, k=1, s0=1, algorithm="dp_k1", lambda_rule="equal_segment")
    medians, slope = exp.rate_sweep(c, [128, 256, 512], trials=12)
    assert set(medians) == {128, 256, 512}
    assert slope < 0.0


def test_rate_sweep_second_order_smoke():
    # coarse grid smoke check of the error decay for k=2 (the calibrated
    # band check lives in the acceptance suite for k=1); visible jumps and
    # a mild penalty scale keep the fit out of the flat polynomial regime
    c = cfg(n=256, k=2, s0=2, lambda_rule="equal_segment", jump_delta=60.0,
            lambda_scale=0.3)
    medians, slope = exp.rate_sweep(c, [256, 512, 1024], trials=15)
    assert -1.6 <= slope <= -0.5


def test_parametric_regime_bounded():
    # s0 = 0 at the threshold rule: n * mse stays bounded (parametric rate)
    c = cfg(n=256, k=1, s0=0, algorithm="dp_k1")
    medians, _ = exp.rate_sweep(c, [256, 512, 1024, 2048], trials=30)
    scaled = [n * m for n, m in medians.items()]
    assert max(scaled) <= 12.0, scaled
