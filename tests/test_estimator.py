import math

import numpy as np
import pytest

from conftest import (admm_reference, dense_delta, ff_columns_reference,
                      restricted_solve_reference, tv1d_reference, tv_dual_reference)
from tvtrend import estimator as est
from tvtrend import experiments
from tvtrend.diffops import _cached_polynomial_basis, falling_factorial_columns, polynomial_basis


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

    def test_rejected_candidate_falls_through(self, rng, monkeypatch):
        y = noisy_piecewise(rng, 120, 2, 3)
        lam = 2.0 * est.lambda_max(y, 2)
        candidate = est._restricted_solve(y, 2, lam, [], [])[0]
        certificate = est._certificate

        def rejecting(y_, f_hat, lam_, k_, tol_kkt):
            u, kkt = certificate(y_, f_hat, lam_, k_, tol_kkt)
            return u, (1.0 if np.array_equal(f_hat, candidate) else kkt)

        monkeypatch.setattr(est, "_certificate", rejecting)
        res = est.fit(y, est.FitConfig(lam=lam, k=2, max_iter=300))
        assert res.iters > 0
        assert not np.array_equal(res.f_hat, candidate)
        assert not res.converged or res.kkt_residual <= 1e-8
        monkeypatch.setattr(est, "_certificate", lambda *a: (certificate(*a)[0], 1.0))
        res = est.fit(y, est.FitConfig(lam=lam, k=2, max_iter=300))
        assert not res.converged and res.iters == 300 and res.kkt_residual == 1.0


# (n, k, lambda / lambda_max) with tol_kkt = 1e-300, which nothing meets: ADMM
# settles and then triggers the polish on every iteration.  On the first the
# best iterate comes from a trigger that repeats the support (783 triggers, one
# support); the second visits two supports (86 triggers).
NONCERTIFYING = [(64, 2, 0.1), (160, 1, 0.3)]


def _noncertifying_input(n, k, frac):
    y = noisy_piecewise(np.random.default_rng(20250809), n, k, 3)
    return y, est.FitConfig(lam=frac * est.lambda_max(y, k), k=k, tol_kkt=1e-300, max_iter=1000)


class TestAdmmLoop:
    @staticmethod
    def assert_same_bits(res, ref):
        assert np.array_equal(res.f_hat, ref.f_hat)
        assert res.kkt_residual == ref.kkt_residual
        assert res.iters == ref.iters and res.converged == ref.converged

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("frac", [0.1, 0.3])
    def test_matches_reference_loop(self, k, n, frac, rng):
        y = noisy_piecewise(rng, n, k, 4)
        cfg = est.FitConfig(lam=frac * est.lambda_max(y, k), k=k)
        res = est.fit(y, cfg)
        assert res.converged
        self.assert_same_bits(res, admm_reference(y, cfg))

    @pytest.mark.parametrize("case", NONCERTIFYING)
    def test_noncertifying_matches_reference_loop(self, case):
        y, cfg = _noncertifying_input(*case)
        res = est.fit(y, cfg)
        assert not res.converged
        self.assert_same_bits(res, admm_reference(y, cfg))

    @pytest.mark.parametrize("case", NONCERTIFYING)
    def test_each_support_polished_once(self, case, monkeypatch):
        y, cfg = _noncertifying_input(*case)
        calls = []
        polish = est._polish

        def counting(y_, k, lam, active, signs, tol_kkt):
            calls.append((tuple(active), tuple(signs)))
            return polish(y_, k, lam, active, signs, tol_kkt)

        monkeypatch.setattr(est, "_polish", counting)
        admm_reference(y, cfg)
        triggered = list(calls)
        calls.clear()
        est.fit(y, cfg)
        assert len(triggered) > len(set(triggered))
        assert len(calls) == len(set(calls)) == len(set(triggered))
        assert set(calls) == set(triggered)


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


def assert_matches_tv1d_reference(y, lam):
    out = est.tv1d_exact(y, lam)
    assert out.dtype == np.float64 and out.shape == np.shape(y)
    assert np.array_equal(out, tv1d_reference(y, lam))
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

