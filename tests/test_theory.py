import math

import numpy as np
import pytest

from tvtrend import theory
from tvtrend.constants import CK_ASYMPTOTIC
from tvtrend.diffops import ActiveSet, falling_factorial_columns
from tvtrend.interpolants import threshold_constant_asymptotic


class TestLambda0:
    def test_frozen_value(self):
        # n=100, k=1, s=0, u=log 2: sqrt((2 log 198 + 2 log 2)/100)
        got = theory.lambda0(math.log(2.0), 100, 99)
        assert got == pytest.approx(0.3458732198726719, abs=1e-15)
        assert got == pytest.approx(math.sqrt((2 * math.log(198) + 2 * math.log(2)) / 100),
                                    abs=1e-15)

    def test_monotone_in_u(self):
        us = [0.1, 0.5, 1.0, 3.0, 10.0]
        vals = [theory.lambda0(u, 50, 40) for u in us]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_doubling_consistency(self):
        # doubling the inactive count multiplies lambda0 by
        # sqrt(1 + 2 log 2 / (2 log(2 m) + 2u))
        u, n, ms = 0.7, 200, 60
        base = theory.lambda0(u, n, ms)
        factor = math.sqrt(1.0 + 2 * math.log(2) / (2 * math.log(2 * ms) + 2 * u))
        assert theory.lambda0(u, n, 2 * ms) == pytest.approx(base * factor, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            theory.lambda0(0.0, 10, 5)
        with pytest.raises(ValueError):
            theory.lambda0(1.0, 10, 0)

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_refuses_u_not_finite(self, u):
        # nan <= 0 is false: a nan u used to give a nan lambda0
        with pytest.raises(ValueError, match="u must be finite and positive"):
            theory.lambda0(u, 10, 5)


class TestThreshold:
    @pytest.mark.parametrize("k,expected", [(1, 2.0), (2, 2.0), (3, 9.5), (4, 56.8333)])
    def test_asymptotic_constants(self, k, expected):
        assert CK_ASYMPTOTIC[k] == pytest.approx(expected, rel=1e-4)
        assert threshold_constant_asymptotic(k) == pytest.approx(expected, rel=1e-4)

    def test_strengthened_scales_base(self):
        base = theory.lambda_threshold(200, 2, 40, 1.0, s=3, strengthened=False)
        strong = theory.lambda_threshold(200, 2, 40, 1.0, s=3, c_k=2.5)
        assert strong == pytest.approx(2.5 * base, rel=1e-14)

    def test_n_max_cap_round_trip(self):
        for k in (1, 2, 3, 4):
            n, s, u = 300, 2, 1.3
            n_max = 47.0
            lam = theory.lambda_threshold(n, k, n_max, u, s=s)
            back = theory.n_max_cap(lam, u, n, k, s=s)
            assert back == pytest.approx(n_max, rel=1e-12)

    def test_n_max_cap_monotone_in_lambda(self):
        caps = [theory.n_max_cap(lam, 1.0, 256, 2) for lam in (0.5, 1.0, 4.0)]
        assert caps[0] < caps[1] < caps[2]

    def test_k1_boundary_round_trip(self):
        n, u = 128, 0.9
        n_max = 32.0
        lam = theory.lambda0(u, n, n - 1) * math.sqrt(n_max / (2 * n))
        assert theory.n_max_cap(lam, u, n, 1, c_k=1.0) == pytest.approx(n_max, rel=1e-12)


class TestBoundEvaluators:
    def setup_method(self):
        self.S = ActiveSet(n=128, k=2, t=(40, 80), q_S=(1, -1))
        # piecewise linear with kinks exactly at the active rows
        self.f0 = (0.01 * np.arange(128.0)
                   + falling_factorial_columns(128, 2, self.S.t) @ np.array([0.5, -0.5]))

    def test_oracle_comparator_kills_approx_terms(self):
        lam = theory.lambda_threshold(128, 2, self.S.n_max, 1.0, s=2)
        bb = theory.adaptive_bound_rhs(self.f0, self.f0, self.S, lam, 1.0, 1.0, 0.5)
        assert bb.approximation_error == 0.0
        # kinks only at the active rows: off-support differences vanish
        assert bb.penalty_term == pytest.approx(0.0, abs=1e-10)
        assert bb.total == pytest.approx(bb.estimation_term, abs=1e-10)

    def test_parametric_term_frozen(self):
        # lambda = 0, v -> 0, s = 0, k = 1: estimation term -> 1/n
        S0 = ActiveSet(n=64, k=1, t=(), q_S=())
        f = np.zeros(64)
        bb = theory.adaptive_bound_rhs(f, f, S0, 0.0, 1.0, 1e-300, 0.0)
        assert bb.estimation_term == pytest.approx(1.0 / 64, rel=1e-6)

    def test_decomposition_sums(self, rng):
        f = rng.standard_normal(128)
        lam = 0.3
        bb = theory.adaptive_bound_rhs(f, self.f0, self.S, lam, 1.0, 2.0, 0.7)
        total = bb.approximation_error + bb.penalty_term + bb.estimation_term
        assert bb.total == pytest.approx(total, abs=1e-12)

    def test_warnings_reported_value_computed(self):
        bb = theory.adaptive_bound_rhs(self.f0, self.f0, self.S, 1e-9, 1.0, 1.0, 0.5)
        assert bb.warnings and "threshold" in bb.warnings[0]
        assert np.isfinite(bb.total)

    def test_nonadaptive_polynomial_comparator(self):
        f = 0.3 + 0.2 * np.arange(128.0)
        bb = theory.nonadaptive_bound_rhs(f, self.f0, 0.8, 1.0, 2.0, 2, 0)
        assert bb.penalty_term == pytest.approx(0.0, abs=1e-9)

    def test_adaptive_below_nonadaptive_when_comparable(self, rng):
        # with Gamma = 0 and no active rows the adaptive bound drops the
        # off-active penalty only; totals then coincide term by term
        f = rng.standard_normal(64)
        f0 = np.zeros(64)
        S0 = ActiveSet(n=64, k=1, t=(), q_S=())
        a = theory.adaptive_bound_rhs(f, f0, S0, 0.5, 1.0, 2.0, 0.0)
        b = theory.nonadaptive_bound_rhs(f, f0, 0.5, 1.0, 2.0, 1, 0)
        assert a.total == pytest.approx(b.total, rel=1e-12)


class TestRateShapes:
    def test_adaptive_rate_shape_stable(self):
        # estimation term under the equal-segment rule tracks
        # (s+1)/n log(n/(s+1)) log n within a factor 2 across the grid
        k, s = 2, 3
        u = v = math.log(20.0)
        ratios = []
        for p in range(8, 15):
            n = 2 ** p
            L = (n + 1 - k) // (s + 1)
            t = tuple(k + L * (i + 1) for i in range(s))
            S = ActiveSet(n=n, k=k, t=t, q_S=tuple((-1) ** i for i in range(s)))
            lam = theory.equal_segment_lambda(n, k, s)
            from tvtrend.sparsity import gamma_closed_form
            gam = math.sqrt(gamma_closed_form(S, C_k=1.0))
            est = (math.sqrt(k * (s + 1) / n) + math.sqrt(2 * v / n) + lam * gam) ** 2
            ratios.append(est / theory.adaptive_rate(n, s))
        assert max(ratios) / min(ratios) <= 2.0

    def test_minimax_tradeoff_slope(self):
        # bound value scales like n^{-2k/(2k+1)} up to log factors
        for k in (1, 2, 3):
            ns = [2 ** p for p in range(9, 17)]
            vals = [theory.minimax_tradeoff_bound(n, k) for n in ns]
            slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
            target = -2 * k / (2 * k + 1)
            assert abs(slope - target) <= 0.08, (k, slope, target)
