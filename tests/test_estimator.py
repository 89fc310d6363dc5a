import math

import numpy as np
import pytest

from conftest import dense_delta, tv_dual_reference
from tvtrend import estimator as est
from tvtrend.diffops import falling_factorial_basis, polynomial_basis


def noisy_piecewise(rng, n, k, s0, amp=8.0):
    # jump sizes amp * n^{-(k-1)} keep the signal O(amp) against unit noise
    cols = est._ff_columns(n, k, [int(v) for v in
                                  np.sort(rng.choice(np.arange(k + 1, n + 1), s0, replace=False))])
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
                            est._ff_columns(120, 2, knots)], axis=1)
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


def test_ff_columns_match_basis(rng):
    rows = [4, 9, 17]
    cols = est._ff_columns(20, 3, rows)
    basis = falling_factorial_basis(20, 3)
    np.testing.assert_array_equal(cols, basis[:, [r - 1 for r in rows]])
