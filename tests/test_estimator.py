import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (PolishLog, admm_iterates_reference, admm_reference,
                      admm_system_banded_reference, battery_inputs, dense_delta,
                      ff_columns_reference, jump_signal, n4096_inputs, polish_exact_reference,
                      polish_reference, recipe_input, restricted_solve_reference,
                      screen_violators_reference, screened_step_image, tv1d_reference,
                      tv_dual_reference)
from tvtrend import estimator as est
from tvtrend import experiments
from tvtrend.diffops import (_cached_polynomial_basis, dual_witness, falling_factorial_columns,
                             polynomial_basis)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def noisy_piecewise(rng, n, k, s0, amp=8.0):
    # jump sizes amp * n^{-(k-1)} keep the signal O(amp) against unit noise
    cols = falling_factorial_columns(n, k, [int(v) for v in
                                            np.sort(rng.choice(np.arange(k + 1, n + 1), s0,
                                                               replace=False))])
    mags = amp * float(n) ** (-(k - 1)) * rng.standard_normal(s0)
    f0 = cols @ mags if s0 else np.zeros(n)
    return f0 + rng.standard_normal(n)


class TestObjective:
    def test_zero_residual(self, rng):
        y = rng.standard_normal(30)
        assert est.objective(y, y, 1.0, 2) == pytest.approx(
            2.0 * np.sum(np.abs(np.diff(y, 2))), rel=1e-14)

    def test_zeros(self):
        z = np.zeros(10)
        assert est.objective(z, z, 1.0, 1) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            est.objective(np.zeros(5), np.zeros(6), 1.0, 1)

    def test_result_objective_recomputes(self, rng):
        y = noisy_piecewise(rng, 80, 2, 3)
        res = est.fit(y, est.FitConfig(lam=0.25 * est.lambda_max(y, 2), k=2))
        assert res.objective == pytest.approx(
            est.objective(res.f_hat, y, res.lam, res.k), abs=1e-12)


class TestFitBasics:
    def test_lambda_zero_identity(self, rng):
        y = rng.standard_normal(40)
        res = est.fit(y, est.FitConfig(lam=0.0, k=3))
        np.testing.assert_array_equal(res.f_hat, y)
        assert res.converged and res.kkt_residual == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_huge_lambda_polynomial(self, k, rng):
        # above lambda_max the fit is the degree-(k-1) least-squares fit
        y = rng.standard_normal(60)
        res = est.fit(y, est.FitConfig(lam=1.5 * est.lambda_max(y, k), k=k))
        i = np.arange(60.0)
        V = np.column_stack([i ** p for p in range(k)])
        direct, *_ = np.linalg.lstsq(V, y, rcond=None)
        np.testing.assert_allclose(res.f_hat, V @ direct, atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            est.fit(np.array([1.0, np.nan]), est.FitConfig(lam=1.0, k=1))
        with pytest.raises(ValueError):
            est.fit(np.ones(2), est.FitConfig(lam=1.0, k=2))
        with pytest.raises(ValueError):
            est.FitConfig(lam=-1.0, k=1)
        with pytest.raises(ValueError):
            est.FitConfig(lam=1.0, k=1, algorithm="bogus")
        for lam in (math.inf, -math.inf, math.nan, np.float64("nan")):
            for algorithm in est.ALGORITHMS:
                with pytest.raises(ValueError, match="finite"):
                    est.FitConfig(lam=lam, k=1, algorithm=algorithm)
        for bad in (0.0, -1e-8, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol_kkt"):
                est.FitConfig(lam=1.0, k=1, tol_kkt=bad)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_iter"):
                est.FitConfig(lam=1.0, k=1, max_iter=bad)
        est.FitConfig(lam=1.0, k=1, tol_kkt=1e-300, max_iter=1)
        for lam, bad in ((0.0, 0), (0.0, -2), (1.0, 0), (1.0, 1.5), (1.0, 2.0), (1.0, "2")):
            with pytest.raises(ValueError, match=r"\bk must be an integer"):
                est.FitConfig(lam=lam, k=bad)
        for bad in (2.5, 10.0, np.float64(3.0), True):
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                est.FitConfig(lam=1.0, k=1, max_iter=bad)
        for bad in (True, False):
            with pytest.raises(ValueError, match="lam must be a number"):
                est.FitConfig(lam=bad, k=1)
            with pytest.raises(ValueError, match="tol_kkt must be a number"):
                est.FitConfig(lam=1.0, k=1, tol_kkt=bad)
        with pytest.raises(ValueError, match=r"\bk must be an integer"):
            est.FitConfig(lam=1.0, k=True)
        cfg = est.FitConfig(lam=1.0, k=np.int64(2), max_iter=np.int32(5))
        assert cfg.k == 2 and cfg.max_iter == 5
        for lam in (0.0, 1.0):
            for bad in (2, 3):
                with pytest.raises(ValueError, match="dp_k1 requires k = 1"):
                    est.FitConfig(lam=lam, k=bad, algorithm="dp_k1")
        assert est.FitConfig(lam=0.0, k=1, algorithm="dp_k1").k == 1

    def test_non_convergence_flagged(self, rng):
        y = rng.standard_normal(50)
        res = est.fit(y, est.FitConfig(lam=0.1 * est.lambda_max(y, 2), k=2,
                                       tol_kkt=1e-300, max_iter=30))
        assert not res.converged

    def test_dual_witness_inverts_transpose(self, rng):
        from tvtrend.diffops import build_delta
        for k in (1, 2, 3, 4):
            op = build_delta(40, k)
            u = rng.standard_normal(op.m)
            h = op.apply_transpose(u)
            np.testing.assert_allclose(est.dual_witness(h, k), u, atol=1e-9)


class TestAdmmSystem:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bands_match_dense(self, k):
        for n in (7, 64, 300):
            for rho in (0.37, 1.0, 2.0 ** 20):
                Dd = dense_delta(n, k)
                M = (2.0 / n) * np.eye(n) + rho * (Dd.T @ Dd)
                expected = np.zeros((k + 1, n))
                for d in range(k + 1):
                    expected[k - d, d:] = np.diagonal(M, d)
                assert np.array_equal(est._admm_system_banded(n, k, rho), expected)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cached_bands_give_the_same_bytes(self, k):
        for n in (k + 1, 64, 300):
            for j in range(-20, 21, 4):
                rho = 2.0 ** j
                ab = est._admm_system_banded(n, k, rho)
                ref = admm_system_banded_reference(n, k, rho)
                assert ab.shape == ref.shape and ab.tobytes() == ref.tobytes()
            gram = est._cached_gram_bands(n, k)
            assert gram is est._cached_gram_bands(n, k)
            with pytest.raises(ValueError):
                gram[0, 0] = 1.0
            ab[k, 0] = 1.0    # the factorization still gets a writable copy


class TestFastPath:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [50, 256])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_certified_without_admm(self, k, n, scale, rng):
        y = noisy_piecewise(rng, n, k, 3)
        lam = scale * est.lambda_max(y, k)
        cfg = est.FitConfig(lam=lam, k=k)
        res = est.fit(y, cfg)
        assert res.converged and res.iters == 0
        assert res.kkt_residual <= cfg.tol_kkt
        assert np.array_equal(res.f_hat, est._restricted_solve(y, k, lam, [], [])[0])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_just_below_lambda_max_runs_admm(self, k, rng):
        y = noisy_piecewise(rng, 256, k, 3)
        res = est.fit(y, est.FitConfig(lam=0.99 * est.lambda_max(y, k), k=k))
        assert res.converged and res.iters > 0
        assert res.kkt_residual <= 1e-8

    def test_rejected_candidate_returned_uncertified(self, rng, monkeypatch):
        # Above lambda_max the polynomial fit is the minimizer, so a candidate
        # that fails its certificate is returned as it is, without ADMM.
        y = noisy_piecewise(rng, 120, 2, 3)
        lam = 2.0 * est.lambda_max(y, 2)
        candidate = est._restricted_solve(y, 2, lam, [], [])[0]
        certificate = est._certificate

        def rejecting(y_, f_hat, lam_, k_, tol_kkt):
            u, kkt = certificate(y_, f_hat, lam_, k_, tol_kkt)
            return u, (1.0 if np.array_equal(f_hat, candidate) else kkt)

        def no_admm(*args):
            raise AssertionError("ADMM was entered")

        monkeypatch.setattr(est, "_certificate", rejecting)
        monkeypatch.setattr(est, "_admm_iterates", no_admm)
        res = est.fit(y, est.FitConfig(lam=lam, k=2, max_iter=300))
        assert not res.converged and res.iters == 0 and res.kkt_residual == 1.0
        assert np.array_equal(res.f_hat, candidate)
        assert np.array_equal(res.dual, certificate(y, candidate, lam, 2, 1e-8)[0])


# (n, k, lambda / lambda_max) with tol_kkt = 1e-300, which nothing meets.  The
# polish returns its KKT face uncertified at the first trigger (iteration 7 and
# 250; 215 and 250 without the frozen-z trigger).  With a polish that always
# gives up, ADMM settles and triggers it on every iteration: the first case
# then keeps its best iterate (residual 1.47) from a trigger that repeats a
# support (784 triggers, two supports); the second visits two supports (86
# triggers).
NONCERTIFYING = [(64, 2, 0.1), (160, 1, 0.3)]


def _noncertifying_input(n, k, frac):
    y = noisy_piecewise(np.random.default_rng(20250809), n, k, 3)
    return y, est.FitConfig(lam=frac * est.lambda_max(y, k), k=k, tol_kkt=1e-300, max_iter=1000)


def closed_form_empty(y, cfg):
    """ADMM's first z, soft(Delta(k) y, 2 lambda / RHO_INIT), is empty."""
    return bool(np.max(np.abs(np.diff(y, cfg.k))) <= 2.0 * cfg.lam / est.RHO_INIT)


def assert_same_fit(res, ref):
    """The same certified (or best uncertified) fit, bit for bit."""
    assert np.array_equal(res.f_hat, ref.f_hat) and np.array_equal(res.dual, ref.dual)
    assert res.kkt_residual == ref.kkt_residual and res.converged == ref.converged


class TestAdmmLoop:
    """``fit`` is bitwise the plain loop that also polishes when z stops
    moving, and returns the fit of the plain loop without that trigger, no
    later, whenever that fit certifies.  Where the closed-form trigger
    returns (iteration 1), the loop returns the same fit at iteration 2: its
    z is the empty support there, and the polish of the empty support is
    what both return."""

    @staticmethod
    def assert_same_bits(res, ref, y, cfg):
        assert_same_fit(res, ref)
        if res.iters == 1:
            assert closed_form_empty(y, cfg) and ref.iters == 2
        else:
            assert res.iters == ref.iters

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("frac", [0.1, 0.3])
    def test_matches_reference_loop(self, k, n, frac, rng):
        y = noisy_piecewise(rng, n, k, 4)
        cfg = est.FitConfig(lam=frac * est.lambda_max(y, k), k=k)
        res = est.fit(y, cfg)
        assert res.converged
        self.assert_same_bits(res, admm_reference(y, cfg, frozen_trigger=True), y, cfg)
        ref = admm_reference(y, cfg)
        assert_same_fit(res, ref)
        assert res.iters <= ref.iters

    @pytest.mark.parametrize("case", NONCERTIFYING)
    def test_noncertifying_matches_reference_loop(self, case):
        # The uncertified KKT face of the first polish is returned; the loop
        # without the frozen-z trigger reaches the same face no earlier.
        y, cfg = _noncertifying_input(*case)
        res = est.fit(y, cfg)
        assert not res.converged and res.iters < cfg.max_iter
        self.assert_same_bits(res, admm_reference(y, cfg, frozen_trigger=True), y, cfg)
        ref = admm_reference(y, cfg)
        assert_same_fit(res, ref)
        assert res.iters <= ref.iters < cfg.max_iter

    @pytest.mark.parametrize("case", NONCERTIFYING)
    def test_each_support_polished_once(self, case, monkeypatch):
        # A polish that always gives up drives the repeat-skip: each (support,
        # signs) the triggers reach is polished once, and the best iterate is
        # the reference loop's.
        y, cfg = _noncertifying_input(*case)
        calls = []

        def giving_up(y_, k, lam, active, signs, tol_kkt):
            calls.append((tuple(active), tuple(signs)))
            return None

        monkeypatch.setattr(est, "_polish", giving_up)
        ref = admm_reference(y, cfg, frozen_trigger=True)
        triggered = list(calls)
        calls.clear()
        res = est.fit(y, cfg)
        assert len(triggered) > len(set(triggered))
        assert len(calls) == len(set(calls)) == len(set(triggered))
        assert set(calls) == set(triggered)
        assert res.iters == cfg.max_iter and not res.converged
        self.assert_same_bits(res, ref, y, cfg)

    def test_closed_form_give_up_runs_admm_unchanged(self, monkeypatch):
        # When the polish of the empty support gives up at the closed-form
        # trigger, ADMM runs as without that trigger, and the repeat-skip
        # passes over its iteration-2 trigger, which holds the same empty
        # support.
        y, cfg = recipe_input(3, n=1024)
        cfg = est.FitConfig(lam=cfg.lam, k=3, max_iter=600)
        calls = []

        def giving_up(y_, k, lam, active, signs, tol_kkt):
            calls.append((tuple(active), tuple(signs)))
            return None

        monkeypatch.setattr(est, "_polish", giving_up)
        ref = admm_reference(y, cfg, frozen_trigger=True)
        triggered = list(calls)
        calls.clear()
        res = est.fit(y, cfg)
        assert closed_form_empty(y, cfg) and triggered[0] == calls[0] == ((), ())
        assert len(calls) == len(set(calls)) == len(set(triggered))
        assert res.iters > 1
        self.assert_same_bits(res, ref, y, cfg)

    def test_no_trigger_reached(self, rng, monkeypatch):
        # max_iter ends the loop before the first polish trigger (z moves on
        # every iteration, and none settles or is the 250th): nothing is
        # polished and the last iterate is reported with its own certificate.
        y = noisy_piecewise(rng, 256, 1, 4)
        cfg = est.FitConfig(lam=0.1 * est.lambda_max(y, 1), k=1, max_iter=30)
        assert [it for it, _, _ in est._admm_iterates(y, cfg)] == [cfg.max_iter]
        calls = []
        polish = est._polish

        def counting(*args):
            calls.append(args)
            return polish(*args)

        monkeypatch.setattr(est, "_polish", counting)
        res = est.fit(y, cfg)
        assert calls == []
        assert res.iters == cfg.max_iter and not res.converged
        self.assert_same_bits(res, admm_reference(y, cfg), y, cfg)

    def test_recipe_k3_certifies_when_z_freezes(self):
        # z is zero from iteration 2 on, so the plain loop waits for the
        # 250th iteration to polish the empty support; the frozen-z trigger
        # polishes it at iteration 2, and the closed-form trigger, which
        # reads that support off Delta(k) y, before the loop: the same bits.
        y, cfg = recipe_input(3)
        first, _, z = next(est._admm_iterates(y, cfg))
        assert first == 2 and not np.any(z) and closed_form_empty(y, cfg)
        assert next(admm_iterates_reference(y, cfg))[0] == 250
        res = est.fit(y, cfg)
        ref = admm_reference(y, cfg)
        assert res.converged and res.iters == 1 and ref.iters == 250
        assert_same_fit(res, ref)
        assert_same_fit(res, admm_reference(y, cfg, frozen_trigger=True))


def _iterates(gen):
    """Every yield of an ADMM iterate generator as (it, f bytes, z bytes),
    then the LinAlgError message if it raised."""
    out = []
    try:
        for it, f, z in gen:
            out.append((it, f.tobytes(), None if z is None else z.tobytes()))
    except np.linalg.LinAlgError as exc:
        out.append(("LinAlgError", str(exc)))
    return out


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(any(item == other for other in rest) for item in part)


class TestAdmmIterates:
    """The per-fit buffers leave every yielded iterate, trigger and rho step
    bitwise what the loop with fresh arrays and np.diff gives; the frozen-z
    trigger only adds yields to it."""

    @staticmethod
    def assert_matches_references(y, cfg):
        got = _iterates(est._admm_iterates(y, cfg))
        assert got == _iterates(admm_iterates_reference(y, cfg, frozen_trigger=True))
        plain = _iterates(admm_iterates_reference(y, cfg))
        assert _is_subsequence(plain, got)
        assert got[-1] == plain[-1]
        return got, plain

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("frac", [0.05, 0.3])
    def test_matches_reference_loop(self, k, n, frac, rng):
        y = noisy_piecewise(rng, n, k, 4)
        cfg = est.FitConfig(lam=frac * est.lambda_max(y, k), k=k, max_iter=600)
        got, _ = self.assert_matches_references(y, cfg)
        assert got[-1][0] == cfg.max_iter and got[-1][2] is None

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_smallest_signals(self, k, rng):
        # n = k + 1 leaves one difference row; the scratch rows are longest
        # relative to the signal.
        for n in range(k + 1, k + 5):
            y = rng.standard_normal(n)
            cfg = est.FitConfig(lam=0.5 * est.lambda_max(y, k), k=k, max_iter=300)
            self.assert_matches_references(y, cfg)

    def test_yields_fresh_arrays(self, rng):
        y = noisy_piecewise(rng, 128, 2, 3)
        cfg = est.FitConfig(lam=0.1 * est.lambda_max(y, 2), k=2, max_iter=800)
        seen = list(est._admm_iterates(y, cfg))
        assert len(seen) > 3
        arrays = [a for _, f, z in seen for a in (f, z) if a is not None]
        assert all(a.base is None for a in arrays)
        assert len({a.ctypes.data for a in arrays}) == len(arrays)

    def test_same_rho_fault_at_k4(self):
        # On the recipe input at k = 4 the rho doubling breaks the
        # factorization soon after iteration 250.  z is zero from iteration 2
        # to the end: the frozen-z trigger yields once, not on every iteration.
        y, cfg = recipe_input(4)
        got, plain = self.assert_matches_references(y, cfg)
        assert got[-1][0] == "LinAlgError"
        assert len(got) == len(plain) + 1
        it, _, z = got[0]
        assert it < 250 and not np.any(np.frombuffer(z))


class TestPolishCycles:
    """Adding the worst row of every run of violators reaches the face the
    one-worst-row polish (``polish_reference``) cycles around."""

    def test_same_result_fewer_solves(self, monkeypatch):
        # k = 3, n = 256: the one-worst-row polish revisits a state at the
        # first two triggers and certifies at iteration 500 after 25 rounds;
        # the new rule certifies the same fit at the first trigger after 8:
        # the closed-form trigger (iteration 1), which polishes the empty
        # support that ADMM's first trigger (iteration 2) would.
        y = noisy_piecewise(np.random.default_rng(143), 256, 3, 4)
        cfg = est.FitConfig(lam=0.3 * est.lambda_max(y, 3), k=3)
        log = PolishLog(monkeypatch)
        res = est.fit(y, cfg)
        rounds = len(log.rounds())
        log.clear()
        monkeypatch.setattr(est, "_polish", polish_reference)
        ref = est.fit(y, cfg)
        assert res.converged and ref.converged
        assert np.array_equal(res.f_hat, ref.f_hat) and np.array_equal(res.dual, ref.dual)
        assert (res.kkt_residual, res.objective) == (ref.kkt_residual, ref.objective)
        assert closed_form_empty(y, cfg) and res.iters == 1
        first, _, z = next(est._admm_iterates(y, cfg))
        assert first == 2 < ref.iters and not np.any(z)
        assert (rounds, len(log.rounds())) == (8, 25)

    def test_repeated_state_gives_up_at_once(self, monkeypatch):
        # k = 3, n = 256: from the empty support the polish revisits a state
        # after 19 rounds and gives up there, at the same state as the polish
        # that solves every face exactly; without the check it would run all
        # POLISH_ROUNDS.
        rng = np.random.default_rng(189)
        n, k = int(rng.choice([256, 512])), int(rng.integers(2, 5))
        y = jump_signal(rng, n, k, int(rng.integers(1, 6)))
        lam = float(rng.uniform(0.01, 0.2)) * est.lambda_max(y, k)
        assert (n, k) == (256, 3)
        log = PolishLog(monkeypatch)
        assert est._polish(y, k, lam, [], [], 1e-8) is None
        rounds, qr_faces = log.rounds(), log.qr_faces()
        log.clear()
        assert polish_exact_reference(y, k, lam, [], [], 1e-8) is None
        assert rounds == log.rounds()
        assert len(rounds) == 19 < est.POLISH_ROUNDS
        assert qr_faces < len(rounds)


FIT_FIELDS = ("f_hat", "dual", "kkt_residual", "objective", "converged", "iters")


def fit_or_error(y, cfg):
    try:
        return est.fit(y, cfg)
    except np.linalg.LinAlgError as exc:
        return f"LinAlgError: {exc}"


def assert_same_result(res, ref):
    """Every field of two fits bitwise equal, or the same LinAlgError."""
    if isinstance(ref, str) or isinstance(res, str):
        assert res == ref
        return
    for field in FIT_FIELDS:
        assert np.array_equal(getattr(res, field), getattr(ref, field)), field


def assert_pinned_to_exact_polish(inputs, monkeypatch):
    """``fit`` returns the bits of ``fit`` with ``polish_exact_reference``,
    the polish that solves every face by ``_restricted_solve``."""
    got = [fit_or_error(y, cfg) for y, cfg in inputs]
    monkeypatch.setattr(est, "_polish", polish_exact_reference)
    for (y, cfg), res in zip(inputs, got):
        assert_same_result(res, fit_or_error(y, cfg))
    return got


class TestScreenedPolish:
    """The polish screens its faces on cached columns and solves exactly only
    its starting face and the faces where the screen stops; every fit keeps
    the bits of the polish that solves every face exactly."""

    def test_pinned_on_n4096_inputs(self, monkeypatch):
        got = assert_pinned_to_exact_polish(n4096_inputs(), monkeypatch)
        assert sum(not isinstance(res, str) and res.converged for res in got) >= 17

    def test_pinned_on_k1_coverage_trials(self, monkeypatch):
        cfg = experiments.ExperimentConfig.from_json(CONFIGS / "k1_coverage.json")
        prep = experiments.prepare(cfg)
        fit_cfg = est.FitConfig(lam=prep.lam, k=cfg.k, tol_kkt=cfg.tol_kkt)
        inputs = [(prep.f0 + experiments.trial_rng(cfg.seed, trial).standard_normal(cfg.n),
                   fit_cfg) for trial in range(200)]
        got = assert_pinned_to_exact_polish(inputs, monkeypatch)
        assert all(res.converged for res in got)

    def test_pinned_on_battery(self, monkeypatch):
        assert_pinned_to_exact_polish(battery_inputs(), monkeypatch)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_screened_face_matches_restricted_solve(self, k, rng):
        # One set of cached columns follows a chain of random faces: rows
        # joining and leaving, up to 13 neighbouring pairs, buffer growth.
        # The QR face lies within the margin times the screen's error
        # estimates, which is what the screen relies on, and for k <= 2
        # within 1e-9.  At k = 3 and 4, one refinement step leaves up to
        # 2e-8 and 2e-3 on the faces with many neighbouring pairs; the
        # estimates say so, and the screen stops there.
        P = _cached_polynomial_basis
        for n in (300, 1024):
            y = noisy_piecewise(rng, n, k, 3)
            lam = 0.2 * est.lambda_max(y, k)
            columns = est._FaceColumns(y, k, lam)
            for size in (0, 3, 1, 12, 40, 6):
                rows = rng.choice(np.arange(k + 1, n), size, replace=False)
                rows = np.unique(np.concatenate([rows, rows[:size // 3] + 1]))
                signs = rng.choice([-1.0, 1.0], size=len(rows))
                face = columns.solve(rows, signs)
                f_ref, b_ref = est._restricted_solve(y, k, lam, rows, signs)
                if face is None:
                    # Only a column that loses four digits to the
                    # anti-projection keeps a face from being screened.
                    phi = falling_factorial_columns(n, k, rows)
                    psi = phi - P(n, k) @ (P(n, k).T @ phi)
                    assert np.any(np.linalg.norm(phi, axis=0)
                                  > 0.5 * est._MAX_CANCELLATION * np.linalg.norm(psi, axis=0))
                    continue
                b, b_err, dual = face
                f, u, u_err = dual()
                u_ref = est._certificate(y, f_ref, lam, k, 1e-8)[0]
                assert np.all(np.abs(b - b_ref) <= est._SCREEN_MARGIN * b_err)
                assert np.max(np.abs(u - u_ref)) <= est._SCREEN_MARGIN * u_err
                # The O(|A|) bound on the refinement step's image in u is
                # never below the image itself (up to the rounding of the
                # two sums, 1e-12 relative).
                image = np.max(np.abs(dual_witness(screened_step_image(columns, rows, signs),
                                                   k))) / (n * lam) + n * est._EPS
                assert u_err >= image * (1.0 - 1e-12)
                if k <= 2:
                    assert np.linalg.norm(f - f_ref) <= 1e-9 * np.linalg.norm(f_ref)
                    assert np.linalg.norm(b - b_ref) <= 1e-9 * np.linalg.norm(b_ref)
            if k >= 3:
                # The first row's column is nearly a polynomial: at k = 3, 4
                # it keeps fewer than 11 of its digits after the
                # anti-projection.
                assert columns.solve(np.array([k + 1]), np.ones(1)) is None

    def test_screen_decides_only_clear_cases(self):
        # k = 1, n = 20: u has 19 rows, row j of the active set is u[j - 2].
        k, active, signs = 1, np.array([5, 12]), np.array([1.0, -1.0])
        u = np.linspace(-0.5, 0.5, 19)
        u[active - k - 1] = signs

        def screen(b=(1.0, -1.0), b_err=1e-12, u_err=1e-12, tol=1e-8, **rows):
            v = u.copy()
            for j, value in rows.items():
                v[int(j[1:])] = value
            face = (np.array(b), np.full(2, b_err), lambda: (None, v, u_err))
            return est._screen(face, active, signs, k, tol)

        def no_dual():
            raise AssertionError("dual formed on a face decided by its signs")

        # A sign decision, or a sign too close to call, never forms the dual.
        for b_err in (1e-12, 1e-4):
            est._screen((np.array([1.0, 1e-3]), np.full(2, b_err), no_dual), active, signs, k, 1e-8)
        dropped = screen(b=(1.0, 1e-3))
        assert np.array_equal(dropped[0], [5]) and np.array_equal(dropped[1], [1.0])
        assert screen(b=(1.0, 1e-3), b_err=1e-4) is None        # sign too close to call
        assert screen() is None                                   # violator-free: may be last
        assert screen(r8=1.0 + 5e-13, tol=1e-15) is None          # no row past 1 + 1e-12
        assert screen(r8=1.0 + 5e-9) is None                      # within tol_kkt: may certify
        grown = screen(r0=-1.2, r1=-1.1, r7=1.05, r8=1.3, r9=1.2)
        assert np.array_equal(grown[0], [2, 5, 10, 12])
        assert np.array_equal(grown[1], [-1.0, 1.0, 1.0, -1.0])
        assert screen(r8=1.3, r9=1.3 - 1e-11) is None             # runner-up within the error
        assert screen(r8=1.3, r9=1.0 + 1e-12 + 1e-11) is None     # row at the violator threshold

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_screen_matches_run_rule(self, data):
        # |u| drawn from values at, just past and within the error of each
        # threshold, so that ties, runner-ups and runs split by the support
        # all occur; the clear values are drawn more often, so that about a
        # quarter of the faces take a decision.
        k = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 12))
        u_err = data.draw(st.sampled_from([1e-16, 1e-14, 1e-12, 1e-10, 1e-4]))
        tol = data.draw(st.sampled_from([1e-15, 1e-8]))
        levels = [0.0, 0.7, 0.7, 0.7, 1.0, 1.0 + 1e-12, 1.0 + 1e-12 + 64 * u_err, 1.0 + 2e-8,
                  1.05, 1.05, 1.3, 1.3, 1.3 - 32 * u_err, 1.3 - 128 * u_err]
        mag = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=m, max_size=m)))
        u = mag * np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m,
                                              max_size=m)))
        on = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=m))), dtype=int)
        active = on + k + 1
        signs = np.where(u[on] < 0, -1.0, 1.0)
        face = (signs.copy(), np.zeros(len(on)), lambda: (None, u, u_err))
        got = est._screen(face, active, signs, k, tol)
        want = screen_violators_reference(u, u_err, active, signs, k, tol)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("lie", ["flip", "hide"])
    @pytest.mark.parametrize("seed", [8, 10, 16, 22])
    def test_lying_screen_is_overturned(self, seed, lie, monkeypatch):
        # A screened face that wrongly looks final (the sign of its one
        # inconsistent row flipped, or its one run of violators hidden) stops
        # the screen; the exact face overturns it, and the polish ends where
        # solving every face exactly ends.
        rng = np.random.default_rng(seed)
        n, k = int(rng.choice([256, 512])), int(rng.integers(2, 5))
        y = jump_signal(rng, n, k, int(rng.integers(1, 6)))
        lam = float(rng.uniform(0.05, 0.3)) * est.lambda_max(y, k)
        ref = polish_exact_reference(y, k, lam, [], [], 1e-8)
        log = PolishLog(monkeypatch)
        assert est._polish(y, k, lam, [], [], 1e-8) is not None
        honest = log.qr_faces()
        log.clear()
        solve = est._FaceColumns.solve
        lies = []

        def lying(columns, active, signs):
            face = solve(columns, active, signs)
            if face is None or lies:
                return face
            b, b_err, dual = face
            f, u, u_err = dual()
            over = np.abs(u) > 1.0 + 1e-12
            over[active - k - 1] = False
            wrong = b * signs <= 0
            if lie == "flip" and np.count_nonzero(wrong) == 1 and not np.any(over):
                b = np.where(wrong, -b, b)
                lies.append(active)
            elif lie == "hide" and not np.any(wrong) and len(est._runs(over)) == 1:
                u = np.where(over, np.sign(u) * (1.0 - 1e-3), u)
                lies.append(active)
            return b, b_err, lambda: (f, u, u_err)

        monkeypatch.setattr(est._FaceColumns, "solve", lying)
        got = est._polish(y, k, lam, [], [], 1e-8)
        assert len(lies) == 1 and log.qr_faces() == honest + 1
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_stop_at_last_face_builds_one_qr_face(self, monkeypatch):
        # From the empty support: the screened starting face adds the worst
        # row of its one violator run, and the screen stops at the next face,
        # the last, which is the one QR face of the polish.
        y, cfg = recipe_input(2, n=1024, frac=0.6)
        log = PolishLog(monkeypatch)
        got = est._polish(y, 2, cfg.lam, [], [], cfg.tol_kkt)
        assert [kind for kind, _ in log.faces] == ["screen", "screen", "qr"]
        assert len(log.rounds()) == 2 and log.qr_faces() == 1
        ref = polish_exact_reference(y, 2, cfg.lam, [], [], cfg.tol_kkt)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


class TestKktFaces:
    """A sign-consistent face with no off-support |u| > 1 + 1e-12 satisfies
    KKT in exact arithmetic: ``fit`` returns it, certified or not, at the
    trigger that reached it, and the polynomial fit at lambda >= lambda_max at
    iteration 0."""

    def test_recipe_k4_returns_at_the_first_trigger(self):
        # ADMM would raise the rho-doubling LinAlgError soon after iteration
        # 250; the empty-support polish at the closed-form trigger ends the
        # fit before ADMM starts.
        y, cfg = recipe_input(4)
        res = est.fit(y, cfg)
        assert res.iters == 1 and closed_form_empty(y, cfg)
        assert res.kkt_residual < 1e-6 and np.max(np.abs(res.dual)) <= 1.0 + 1e-12
        f_hat, u, kkt = est._polish(y, 4, cfg.lam, [], [], cfg.tol_kkt)
        assert np.array_equal(res.f_hat, f_hat) and np.array_equal(res.dual, u)
        assert res.kkt_residual == kkt and res.converged == (kkt <= cfg.tol_kkt)

    @pytest.mark.parametrize("n, k", [(256, 3), (256, 4), (512, 4)])
    def test_strict_tolerance_keeps_the_face(self, n, k):
        # tol_kkt = 1e-15 fails every certificate but changes no face.
        y, cfg = recipe_input(k, n=n)
        res = est.fit(y, cfg)
        strict = est.fit(y, est.FitConfig(lam=cfg.lam, k=k, tol_kkt=1e-15))
        assert res.converged and not strict.converged
        assert np.array_equal(strict.f_hat, res.f_hat) and np.array_equal(strict.dual, res.dual)
        assert strict.iters == res.iters < 250

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_polynomial_k4_returned_at_iteration_0(self, scale):
        # The exact polynomial fit fails the float64 certificate at n = 4096
        # (stationarity about 5e-7); ADMM is not entered.
        y, cfg = recipe_input(4, frac=scale)
        res = est.fit(y, cfg)
        f_hat = est._restricted_solve(y, 4, cfg.lam, [], [])[0]
        u, kkt = est._certificate(y, f_hat, cfg.lam, 4, cfg.tol_kkt)
        assert res.iters == 0 and res.converged == (kkt <= cfg.tol_kkt)
        assert np.array_equal(res.f_hat, f_hat) and np.array_equal(res.dual, u)
        assert res.kkt_residual == kkt < 1e-6

    def test_k3_at_small_lambda_certifies_at_iteration_1(self):
        # n = 2048, 0.1 lambda_max: the one-worst-row polish never certified
        # this fit, which ran all 50 000 ADMM iterations.  The polish of the
        # empty support certifies it, at the closed-form trigger; ADMM's
        # frozen-z trigger reaches the same fit at iteration 2.
        y, cfg = recipe_input(3, n=2048, frac=0.1)
        res = est.fit(y, cfg)
        assert res.converged and res.iters == 1
        ref = admm_reference(y, cfg, frozen_trigger=True)
        assert ref.iters == 2
        assert_same_fit(res, ref)

    def test_battery_keeps_certified_bits(self, monkeypatch):
        # Every fit the one-worst-row polish certifies keeps its f_hat, dual
        # and residual bits, no later.  With that polish three k = 4 fits at
        # n = 2048 raise the rho-doubling LinAlgError and one k = 3 fit
        # certifies at iteration 500; here all four end at iteration 2.
        cases = [(y, cfg, est.fit(y, cfg)) for y, cfg in battery_inputs()]
        monkeypatch.setattr(est, "_polish", polish_reference)
        certified = 0
        for y, cfg, res in cases:
            try:
                ref = est.fit(y, cfg)
            except np.linalg.LinAlgError:
                continue
            if ref.converged:
                certified += 1
                assert_same_fit(res, ref)
                assert res.iters <= ref.iters
        assert certified >= 25


class TestDpK1Record:
    """The dp_k1 result is the taut string itself with its own certificate."""

    @pytest.mark.parametrize("frac", [0.05, 0.3])
    def test_record(self, frac, rng):
        y = noisy_piecewise(rng, 300, 1, 4)
        n = len(y)
        lam = frac * est.lambda_max(y, 1)
        f_exact = est.tv1d_exact(y, n * lam)
        res = est.fit(y, est.FitConfig(lam=lam, k=1, algorithm="dp_k1"))
        assert np.array_equal(res.f_hat, f_exact)
        assert res.iters == n and res.converged
        assert res.kkt_residual <= 1e-8
        strict = est.fit(y, est.FitConfig(lam=lam, k=1, algorithm="dp_k1", tol_kkt=1e-300))
        assert np.array_equal(strict.f_hat, f_exact)
        assert strict.iters == n and not strict.converged
        u, kkt = est._certificate(y, f_exact, lam, 1, 1e-300)
        assert strict.kkt_residual == kkt
        assert np.array_equal(strict.dual, u)


class TestCertificates:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_certified_solutions(self, k, rng):
        for _ in range(4):
            y = noisy_piecewise(rng, 150, k, 3)
            lam = (0.05 + 0.4 * rng.random()) * est.lambda_max(y, k)
            res = est.fit(y, est.FitConfig(lam=lam, k=k))
            assert res.converged
            assert res.kkt_residual <= 1e-8
            assert np.max(np.abs(res.dual)) <= 1.0 + 1e-10
            d = np.diff(res.f_hat, k)
            strong = np.abs(d) > 1e-7
            if strong.any():
                np.testing.assert_allclose(res.dual[strong], np.sign(d[strong]),
                                           atol=1e-9)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_box_dual_reference(self, k, rng):
        y = noisy_piecewise(rng, 90, k, 2)
        lam = 0.2 * est.lambda_max(y, k)
        res = est.fit(y, est.FitConfig(lam=lam, k=k))
        np.testing.assert_allclose(res.f_hat, tv_dual_reference(y, lam, k), atol=1e-7)

    def test_objective_monotone_across_lambda_grid(self, rng):
        # the fit at its own lambda beats fits transplanted from other lambdas
        y = noisy_piecewise(rng, 100, 2, 3)
        lams = np.array([0.05, 0.15, 0.4]) * est.lambda_max(y, 2)
        fits = [est.fit(y, est.FitConfig(lam=l, k=2)) for l in lams]
        for i, li in enumerate(lams):
            own = est.objective(fits[i].f_hat, y, li, 2)
            for j in range(len(lams)):
                assert own <= est.objective(fits[j].f_hat, y, li, 2) + 1e-10

    def test_piecewise_polynomial_structure(self, rng):
        # strict-dual fits live exactly in the detected-knot spline space
        y = noisy_piecewise(rng, 120, 2, 2, amp=8.0)
        lam = 0.3 * est.lambda_max(y, 2)
        res = est.fit(y, est.FitConfig(lam=lam, k=2))
        d = np.diff(res.f_hat, 2)
        knots = np.nonzero(np.abs(d) > 1e-7)[0] + 3
        interior = np.abs(res.dual) < 1.0 - 1e-6
        off = np.ones(len(d), dtype=bool)
        off[knots - 3] = False
        if not np.all(interior[off]):
            pytest.skip("dual not strictly interior; knot set ambiguous")
        X = np.concatenate([polynomial_basis(120, 2),
                            falling_factorial_columns(120, 2, knots)], axis=1)
        proj, *_ = np.linalg.lstsq(X, res.f_hat, rcond=None)
        assert np.max(np.abs(X @ proj - res.f_hat)) <= 1e-8


class TestTautString:
    def test_matches_admm(self, rng):
        for _ in range(10):
            y = noisy_piecewise(rng, 150, 1, 4)
            lam = (0.02 + 0.5 * rng.random()) * est.lambda_max(y, 1)
            r_dp = est.fit(y, est.FitConfig(lam=lam, k=1, algorithm="dp_k1"))
            r_ad = est.fit(y, est.FitConfig(lam=lam, k=1))
            assert r_dp.converged and r_dp.kkt_residual <= 1e-9
            assert np.max(np.abs(r_dp.f_hat - r_ad.f_hat)) <= 1e-9

    def test_matches_box_dual(self, rng):
        for _ in range(3):
            y = rng.standard_normal(120)
            lam = 0.2 * est.lambda_max(y, 1)
            f = est.tv1d_exact(y, 120 * lam)
            np.testing.assert_allclose(f, tv_dual_reference(y, lam, 1), atol=1e-8)

    def test_edge_cases(self):
        y = np.array([2.0])
        np.testing.assert_array_equal(est.tv1d_exact(y, 1.0), y)
        y2 = np.array([1.0, -1.0])
        out = est.tv1d_exact(y2, 100.0)   # huge penalty: flat at the mean
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(est.tv1d_exact(y2, 0.0), y2)

    def test_requires_first_order(self):
        with pytest.raises(ValueError):
            est.fit(np.ones(10), est.FitConfig(lam=0.1, k=2, algorithm="dp_k1"))

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="finite"):
            est.tv1d_exact(np.arange(5.0), lam)

    @pytest.mark.parametrize("lam", [-1.0, -1e-300])
    def test_rejects_negative_lambda(self, lam):
        y = np.arange(5.0)
        with pytest.raises(ValueError, match="nonnegative"):
            est.tv1d_exact(y, lam)
        np.testing.assert_array_equal(est.tv1d_exact(y, 0.0), y)


def assert_matches_tv1d_reference(y, lam, events=None):
    out = est.tv1d_exact(y, lam)
    assert out.dtype == np.float64 and out.shape == np.shape(y)
    assert out.tobytes() == tv1d_reference(y, lam, events).tobytes()
    return out


class TestTautStringBits:
    """``tv1d_exact`` runs Condat's loop on Python floats; it must return the
    same bits as the loop on numpy scalars (``conftest.tv1d_reference``)."""

    def test_random_draws(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 600))
            y = float(rng.choice([1e-3, 1.0, 1e3])) * rng.standard_normal(n)
            assert_matches_tv1d_reference(y, float(rng.uniform(0.0, 3.0 * math.sqrt(n))))

    def test_integer_valued_with_ties(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 200))
            y = rng.integers(-3, 4, size=n).astype(float)
            lam = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
            assert_matches_tv1d_reference(y, lam)
        y = rng.integers(-3, 4, size=10_000).astype(float)
        for lam in (0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 100.0):
            assert_matches_tv1d_reference(y, lam)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 7.0, 1e6])
    def test_constant_and_monotone(self, lam):
        for y in (np.full(50, 2.5), np.arange(50.0), -np.arange(50.0) ** 1.5):
            assert_matches_tv1d_reference(y, lam)
        np.testing.assert_allclose(est.tv1d_exact(np.full(50, 2.5), lam), 2.5, rtol=1e-15)

    def test_small_n_and_zero_lambda(self, rng):
        for n in (0, 1, 2):
            y = rng.standard_normal(n)
            for lam in (0.0, 0.3, 1e3):
                assert_matches_tv1d_reference(y, lam)
        y = rng.standard_normal(40)
        np.testing.assert_array_equal(assert_matches_tv1d_reference(y, 0.0), y)

    def test_large_lambda_flattens_to_mean(self, rng):
        y = rng.standard_normal(300)
        # lam above the largest |partial sum of (y - mean)| flattens the fit
        lam = 2.0 * float(np.max(np.abs(np.cumsum(y - y.mean()))))
        out = assert_matches_tv1d_reference(y, lam)
        assert np.ptp(out) == 0.0
        assert out[0] == pytest.approx(y.mean(), abs=1e-12)

    def test_monte_carlo_trials(self):
        cfg = experiments.ExperimentConfig(n=4096, k=1, s0=4, replications=1, seed=0,
                                           algorithm="dp_k1")
        prep = experiments.prepare(cfg)
        for trial in range(50):
            y = prep.f0 + experiments.trial_rng(cfg.seed, trial).standard_normal(cfg.n)
            assert_matches_tv1d_reference(y, cfg.n * prep.lam)

    @pytest.mark.parametrize("n", [1000, 10_000])
    def test_lambda_from_a_jump_per_sample_to_flat(self, n, rng):
        # From 1e-9 ||y|| (nearly every sample starts a segment, each jump
        # restarting at the sample it is found at) through the regime where
        # jumps backtrack to an earlier segment end, to above the level at
        # which the fit is flat.
        y = rng.standard_normal(n)
        flat = float(np.max(np.abs(np.cumsum(y - y.mean()))))
        lams = np.geomspace(1e-9 * float(np.linalg.norm(y)), 2.0 * flat, 14)
        for i, lam in enumerate(lams):
            events = []
            out = assert_matches_tv1d_reference(y, float(lam), events)
            if i == 0:
                assert len(events) > 0.9 * n
        assert np.ptp(out) == 0.0

    def test_spikes_in_the_last_samples(self, rng):
        # A steep tail of m samples under a lambda of the tail's scale makes
        # the sweep backtrack at the last sample, often several times.
        counts = []
        for _ in range(200):
            n, m = int(rng.integers(20, 400)), int(rng.integers(2, 13))
            y = rng.standard_normal(n)
            y[-m:] += (rng.choice([-1.0, 1.0]) * 10.0
                       * np.arange(1, m + 1) ** float(rng.choice([1.0, 2.0])))
            events = []
            assert_matches_tv1d_reference(y, 10.0 * m * float(rng.uniform(1.0, 8.0)), events)
            counts.append(sum(kind.startswith("last") for kind, _ in events))
        assert sum(c >= 3 for c in counts) >= 10 and max(counts) >= 4

    @given(n=st.integers(1, 300), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           log_lam=st.floats(-9.0, 1.5), rounded=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_over_n_scale_lambda(self, n, scale, log_lam, rounded, seed):
        # lambda relative to ||y||: from a jump at every sample to a flat fit
        y = scale * np.random.default_rng(seed).standard_normal(n)
        if rounded:
            y = np.round(y / scale) * scale
        assert_matches_tv1d_reference(y, 10.0 ** log_lam * float(np.linalg.norm(y)))


class TestPolishBits:
    """The vectorized falling-factorial block, the R-only QR and the cached
    polynomial basis leave the restricted solve bitwise unchanged."""

    @staticmethod
    def random_support(rng, n, k):
        size = int(rng.integers(1, min(40, n - k) + 1))
        return np.sort(rng.choice(np.arange(k + 1, n + 1), size, replace=False))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ff_columns_match_reference(self, k, rng):
        for n in (k + 1, 37, 500):
            for _ in range(5):
                rows = self.random_support(rng, n, k)
                assert np.array_equal(falling_factorial_columns(n, k, rows),
                                      ff_columns_reference(n, k, rows))
                assert np.array_equal(falling_factorial_columns(n, k, tuple(int(r) for r in rows)),
                                      ff_columns_reference(n, k, rows))
        assert falling_factorial_columns(20, k, []).shape == (20, 0)
        with pytest.raises(ValueError, match="1-based"):
            falling_factorial_columns(20, k, [3, 0])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_restricted_solve_matches_reference(self, k, rng):
        for n in (64, 300, 1024):
            y = noisy_piecewise(rng, n, k, 3)
            lam = 0.2 * est.lambda_max(y, k)
            cases = [(np.zeros(0, dtype=int), np.zeros(0))]
            for _ in range(4):
                rows = self.random_support(rng, n, k)
                cases.append((rows, rng.choice([-1.0, 1.0], size=len(rows))))
            for rows, signs in cases:
                f_hat, b = est._restricted_solve(y, k, lam, rows, signs)
                f_ref, b_ref = restricted_solve_reference(y, k, lam, rows, signs)
                assert np.array_equal(f_hat, f_ref) and np.array_equal(b, b_ref)

    def test_restricted_solve_past_the_qr_crossover(self):
        # Past k + |A| = 128 LAPACK's QR works in blocks, whose size the
        # workspace sets.  With two OpenBLAS threads the blocked QR's last
        # bits change with the thread count, in numpy's qr and in scipy's
        # geqrf alike, so the faces are compared in a fresh interpreter with
        # one thread, as the recorded digests are.
        script = """
import numpy as np
from conftest import restricted_solve_reference
from tvtrend import estimator as est
rng = np.random.default_rng(7)
for k in (1, 2, 3, 4):
    for n, a in ((300, 150), (1024, 126), (1024, 200)):
        rows = np.sort(rng.choice(np.arange(k + 1, n + 1), a, replace=False))
        signs = rng.choice([-1.0, 1.0], size=a)
        y = rng.standard_normal(n)
        got = est._restricted_solve(y, k, 0.1, rows, signs)
        ref = restricted_solve_reference(y, k, 0.1, rows, signs)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref)), (k, n, a)
print("ok")
"""
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True)
        assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr

    def test_cached_basis_is_read_only(self):
        P = _cached_polynomial_basis(64, 3)
        assert P is _cached_polynomial_basis(64, 3)
        assert np.array_equal(P, polynomial_basis(64, 3))
        with pytest.raises(ValueError):
            P[0, 0] = 1.0
        fresh = polynomial_basis(64, 3)
        fresh[0, 0] = 1.0    # the public builder still returns a writable copy


class TestBasicInequality:
    def test_self_comparator(self, rng):
        y = noisy_piecewise(rng, 100, 2, 2)
        f0 = np.zeros(100)
        res = est.fit(y, est.FitConfig(lam=0.3 * est.lambda_max(y, 2), k=2))
        assert est.check_basic_inequality(res, y, f0, res.f_hat) <= 1e-10

    def test_random_comparators(self, rng):
        y = noisy_piecewise(rng, 100, 2, 2)
        f0 = np.zeros(100)
        res = est.fit(y, est.FitConfig(lam=0.3 * est.lambda_max(y, 2), k=2))
        margins = [est.check_basic_inequality(res, y, f0, rng.standard_normal(100))
                   for _ in range(30)]
        assert max(margins) <= 1e-8

    def test_perturbed_minimizer_detected(self, rng):
        y = noisy_piecewise(rng, 100, 2, 2)
        f0 = np.zeros(100)
        res = est.fit(y, est.FitConfig(lam=0.3 * est.lambda_max(y, 2), k=2))
        fake = est.FitResult(f_hat=res.f_hat + 0.05 * rng.standard_normal(100),
                             objective=res.objective, kkt_residual=0.0,
                             dual=res.dual, iters=res.iters, converged=True,
                             lam=res.lam, k=res.k)
        assert est.check_basic_inequality(fake, y, f0, res.f_hat) > 0.0

