import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (build_reference, random_active_set, sample_sandwich_instance,
                      sign_change_profile_reference, solve_matching_reference)
from tvtrend import interpolants as itp
from tvtrend.constants import CK_ASYMPTOTIC, JOIN_CONST, ck_sparsity, minimum_segment_length
from tvtrend.diffops import ActiveSet, build_delta
from tvtrend.sparsity import compute_weights, gamma_closed_form
from tvtrend.theory import lambda_threshold

U = math.log(20.0)


class TestMatchingSolver:
    @pytest.mark.parametrize("d", [4, 7, 16, 50, 100])
    def test_k3_solver_equals_closed_form(self, d):
        mc = itp.solve_matching_coefficients(3, d)
        cf = itp.k3_matching_closed_form(d)
        assert mc.a0_bar == pytest.approx(cf["a0_bar"], rel=1e-12)
        assert mc.center[1] == pytest.approx(cf["a1_bar"], rel=1e-12)
        assert -mc.center[3] == pytest.approx(cf["a3_bar"], rel=1e-12)

    def test_k3_closed_form_ratio_limits(self):
        # large d; second differences of d^{5/2} limit float accuracy to ~1e-4
        cf = itp.k3_matching_closed_form(1e6)
        assert cf["alpha1"] == pytest.approx(5 / 2, rel=1e-4)
        assert cf["gamma1"] == pytest.approx(3, rel=1e-4)
        assert cf["alpha2"] == pytest.approx(15 / 4, rel=1e-4)
        assert cf["gamma2"] == pytest.approx(6, rel=1e-4)

    @pytest.mark.parametrize("d", [5, 23, 64])
    def test_k3_three_point_agreement_is_exact(self, d):
        # the boundary and center pieces agree on the three junction points
        cf = itp.k3_matching_closed_form(d)
        q = lambda j: 1.0 - cf["a0_bar"] * j ** 2.5 / d ** 2.5
        p = lambda j: -cf["a3_bar"] * (2 * d - j) ** 3 / d ** 3 + cf["a1_bar"] * (2 * d - j) / d
        for l in range(3):
            dq = np.diff([q(d + i) for i in range(l + 1)], l) if l else [q(d)]
            dp = np.diff([p(d + i) for i in range(l + 1)], l) if l else [p(d)]
            assert abs(dq[-1] - dp[-1]) <= 1e-12

    def test_k3_limit_coefficients(self):
        mc = itp.solve_matching_coefficients(3, 10_000)
        assert mc.a0_bar == pytest.approx(4 / 19, rel=5e-3)
        assert mc.center[1] == pytest.approx(35 / 38, rel=5e-3)
        assert -mc.center[3] == pytest.approx(5 / 38, rel=5e-3)

    def test_k4_limit_coefficients(self):
        # continuous-profile constants, 2-decimal reference values
        cont = itp.solve_matching_coefficients(4, 1000).continuous_normalization()
        assert cont.a0 == pytest.approx(18.62, rel=1e-2)
        for got, ref in zip(cont.interior[0], (1.05, -1.10, 10.16, -46.19, 44.34)):
            assert got == pytest.approx(ref, rel=1e-2)
        assert cont.center[1] == pytest.approx(4.23, rel=1e-2)
        assert cont.center[3] == pytest.approx(-12.93, rel=1e-2)

    def test_d_below_k_rejected(self):
        with pytest.raises(ValueError):
            itp.solve_matching_coefficients(3, 2)

    def test_unequal_junctions_have_no_continuous_normalization(self):
        # sub-intervals 6, 7 and 7 of [0, 20]: no uniform breakpoints l/N
        mc = itp._solve_matching(4, [6, 13], 20.0, 3.5)
        with pytest.raises(ValueError, match="unequal sub-intervals"):
            mc.continuous_normalization()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_empty_sign_change_profile_rejected(self, k):
        with pytest.raises(ValueError, match="at least 1"):
            itp.sign_change_profile(k, 0)

    @pytest.mark.parametrize("k,d", [(3, 5), (4, 9), (2, 4)])
    def test_consecutive_point_agreement(self, k, d):
        # adjacent pieces agree on k consecutive integers at each junction
        mc = itp.solve_matching_coefficients(k, d)
        if not mc.junctions:
            return
        vals = mc.values
        for jl in mc.junctions:
            js = np.arange(jl, jl + k, dtype=float)
            left = vals(js - 1e-9)
            right = vals(js + 1e-9)
            np.testing.assert_allclose(left, right, atol=1e-9)


class TestContinuousProfile:
    def test_k1(self):
        prof = itp.continuous_profile(1)
        assert prof.a0 == pytest.approx(math.sqrt(2.0), abs=1e-14)
        x = np.linspace(0, 1, 101)
        np.testing.assert_allclose(prof(x), -prof(1 - x), atol=1e-13)

    def test_k2_coefficients(self):
        prof = itp.continuous_profile(2)
        assert prof.a0 == pytest.approx(16 / 5, rel=1e-12)     # (2/5) 4^{3/2}
        assert prof.center[1] == pytest.approx(12 / 5, rel=1e-12)

    def test_k3_coefficients(self):
        prof = itp.continuous_profile(3)
        assert prof.a0 == pytest.approx(128 / 19, rel=1e-12)
        assert prof.center[1] == pytest.approx(70 / 19, rel=1e-12)
        assert prof.center[3] == pytest.approx(-160 / 19, rel=1e-12)

    def test_k4_printed_constants(self):
        prof = itp.continuous_profile(4)
        assert prof.a0 == pytest.approx(18.62, abs=5e-3)
        for got, ref in zip(prof.interior[0], (1.05, -1.10, 10.16, -46.19, 44.34)):
            assert got == pytest.approx(ref, abs=6e-3)
        assert prof.center[1] == pytest.approx(4.23, abs=5e-3)
        assert prof.center[3] == pytest.approx(-12.93, abs=5e-3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_shape_invariants(self, k):
        prof = itp.continuous_profile(k)
        assert prof(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-12)
        assert prof(np.array([1.0]))[0] == pytest.approx(-1.0, abs=1e-12)
        x = np.linspace(0.01, 0.99, 197)
        np.testing.assert_allclose(prof(x), -prof(1 - x), atol=1e-11)
        # k-1 continuous derivatives at interior breakpoints (finite differences)
        h = 1e-5
        for bp in prof.breakpoints[1:-1]:
            for order in range(k):
                stencil = np.arange(-(order + 1), order + 2) * h
                left = prof(bp + stencil - 2 * (order + 2) * h)
                right = prof(bp + stencil + 2 * (order + 2) * h)
                dl = np.diff(left, order)[-1] / h ** order
                dr = np.diff(right, order)[0] / h ** order
                scale = max(1.0, abs(dl), abs(dr))
                assert abs(dl - dr) / scale <= 2e-2, (k, bp, order)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_threshold_constants(self, k):
        assert itp.threshold_constant_asymptotic(k) == pytest.approx(
            CK_ASYMPTOTIC[k], rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_monotone_decreasing(self, k):
        prof = itp.continuous_profile(k)
        x = np.linspace(0, 1, 4001)
        assert np.all(np.diff(prof(x)) <= 1e-12)


def _active(n, k, t, q):
    return ActiveSet(n=n, k=k, t=tuple(t), q_S=tuple(q))


class TestNoiseless:
    def test_k1_linear_slope(self):
        # sign flip over a segment of length n_i: slope 2 / n_i
        S = _active(41, 1, (11, 31), (1, -1))
        v = itp.build_noiseless(S)
        inner = [v.q[j - 2] for j in range(11, 32)]
        slopes = np.diff(inner)
        np.testing.assert_allclose(slopes, -2.0 / 20.0, atol=1e-12)

    def test_constant_on_no_change(self):
        S = _active(41, 1, (11, 31), (1, 1))
        v = itp.build_noiseless(S)
        assert all(v.q[j - 2] == 1.0 for j in range(11, 32))

    def test_empty_set_is_zero(self):
        S = _active(30, 2, (), ())
        v = itp.build_noiseless(S)
        assert np.all(v.q == 0.0)

    def test_k1_single_jump_energy(self):
        # exact energy n (1/n1 + 1/n2) for one jump, under the display bound
        n, t1 = 60, 25
        S = _active(n, 1, (t1,), (1,))
        v = itp.build_noiseless(S)
        n1, n2 = S.seg_lengths
        energy = itp.delta_k_energy(v)
        assert energy == pytest.approx(n * (1 / n1 + 1 / n2), rel=1e-10)
        display = n / n1 ** 2 + n / n1 + n / n2 + n / n2 ** 2
        assert energy <= display

    def test_k1_sign_change_contribution(self):
        # interior sign change adds 4 n / n_i
        n = 91
        S = _active(n, 1, (31, 61), (1, -1))
        v = itp.build_noiseless(S)
        n1, n2, n3 = S.seg_lengths
        assert itp.delta_k_energy(v) == pytest.approx(
            n * (1 / n1 + 4 / n2 + 1 / n3), rel=1e-10)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_caps_and_interpolation(self, seed, k):
        S = random_active_set(np.random.default_rng(seed), k)
        v = itp.build_noiseless(S)
        for i, t in enumerate(S.t):
            assert v.q[t - k - 1] == S.q_S[i]
        off = np.ones(len(v.q), dtype=bool)
        for t in S.t:
            off[t - k - 1] = False
        assert np.all(np.abs(v.q[off]) <= 1.0 + 1e-12)


class TestNoisy:
    def test_k1_frozen_values(self):
        # sign change over n_i = 8: value 1 - sqrt(2/8) = 0.5 one step in,
        # zero at the midpoint
        S = _active(21, 1, (6, 14), (1, -1))
        v = itp.build_noisy(S)
        assert v.q[7 - 2] == pytest.approx(0.5, abs=1e-12)
        assert v.q[10 - 2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("sets", [
        # the caps of the first set happen to fit the second's q
        ((60, 2, (20,), (1,)), (60, 2, (21,), (-1,))),
        # they do not, which used to read as "lambda too small?"
        ((40, 1, (15,), (1,)), (40, 1, (25,), (1,))),
    ])
    def test_refuses_weights_of_another_active_set(self, sets):
        S1, S2 = (_active(*args) for args in sets)
        w = compute_weights(S1, U, lambda_threshold(S1.n, S1.k, S1.n_max, U, s=S1.s))
        with pytest.raises(ValueError, match="another active set"):
            itp.build_noisy(S2, weights=w)

    def test_min_length_enforced(self):
        S = _active(40, 2, (12, 18), (1, -1))   # segment of length 6 < 8
        with pytest.raises(itp.SegmentLengthError, match="segment"):
            itp.build_noisy(S)

    def test_infeasible_weights_raise(self):
        S = _active(80, 1, (30, 50), (1, -1))
        lam = 1e-4 * lambda_threshold(S.n, 1, S.n_max, U, s=S.s)
        w = compute_weights(S, U, lam)
        with pytest.raises(itp.InfeasibleInterpolantError) as exc:
            itp.build_noisy(S, weights=w)
        assert exc.value.violations

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_interpolation_and_unit_caps(self, seed, k):
        S = random_active_set(np.random.default_rng(seed), k)
        v = itp.build_noisy(S)
        for i, t in enumerate(S.t):
            assert v.q[t - k - 1] == S.q_S[i]
        assert np.all(np.abs(v.q) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_feasible_at_certified_threshold(self, k):
        rng = np.random.default_rng(1234 + k)
        for _ in range(25):
            S = random_active_set(rng, k)
            lam = lambda_threshold(S.n, k, S.n_max, U, s=S.s)
            w = compute_weights(S, U, lam)
            v = itp.build_noisy(S, weights=w)     # raises if infeasible
            assert np.all(v.slack >= -1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_monotone_on_sign_flip_segments(self, k):
        rng = np.random.default_rng(4321 + k)
        for _ in range(25):
            S = random_active_set(rng, k)
            v = itp.build_noisy(S)
            for rep in itp.check_monotone(v):
                assert rep.monotone, (k, S.t, S.q_S, rep)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_odd_segment_parity_trick(self, k):
        # odd sign-flip segment: first interior entry absorbs the sign
        ml = k * (k + 2)
        n1 = ml + 1 + (ml % 2)  # odd
        n2 = ml + (ml % 2)      # even
        assert n1 % 2 == 1
        t1 = k + n1
        S = _active(t1 + n2 + k - 1, k, (t1,), (1,))
        v = itp.build_noisy(S)
        # interior segment starts at the left boundary anchor; check the
        # right boundary segment (even) ends at zero slack anchor virtually
        assert abs(v.q[t1 - k - 1]) == 1.0
        for rep in itp.check_monotone(v):
            assert rep.monotone

    def test_no_change_profile_values(self):
        # 1 - (4 j (n_i - j) / (n_i n_max))^{(2k-1)/2}
        k = 2
        S = _active(100, k, (30, 60), (1, 1))
        v = itp.build_noisy(S)
        n2 = 30
        n_max = max(S.seg_lengths)
        for j in range(1, n2):
            expected = 1.0 - (4 * j * (n2 - j) / (n2 * n_max)) ** 1.5
            assert v.q[30 + j - k - 1] == pytest.approx(expected, abs=1e-12)


class TestProfileCache:
    def test_one_matching_solve_per_profile_shape(self, monkeypatch):
        # the 40 sets of the acceptance pool (seed 111) ask for 73 profiles
        # of 31 distinct (k, length, exponent)
        rng = np.random.default_rng(111)
        pool = [sample_sandwich_instance(rng) for _ in range(40)]
        asked, solved = [], []
        profile, solve = itp.sign_change_profile, itp._solve_matching

        def ask(*key):
            asked.append(key)
            return profile(*key)

        def count(*args, **kwargs):
            solved.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(itp, "sign_change_profile", ask)
        monkeypatch.setattr(itp, "_solve_matching", count)
        itp._cached_profile.cache_clear()
        for S in pool:
            lam = lambda_threshold(S.n, S.k, S.n_max, U, s=S.s)
            itp.build_noisy(S, weights=compute_weights(S, U, lam))
        assert (len(asked), len(set(asked)), len(solved)) == (73, 31, 31)

    def test_profiles_cannot_be_changed_through_a_caller(self):
        first = itp.sign_change_profile(3, 24)
        expected = first.copy()
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert np.array_equal(itp.sign_change_profile(3, 24), expected)


class TestConstructionBits:
    """The one matching assembler and evaluator against the construction
    with separate solvers (``conftest.build_reference``), bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matching_coefficients(self, k):
        N = itp.n_subintervals(k)
        for d in range(k, 201):
            got = itp.solve_matching_coefficients(k, d)
            ref = solve_matching_reference(k, tuple(l * d for l in range(1, N // 2)), N * d // 2,
                                           itp.noisy_exponent(k))
            assert (got.k, got.exponent, got.M, got.junctions) == (
                ref.k, ref.exponent, ref.M, ref.junctions)
            assert got.a0_bar == ref.a0_bar
            assert np.array_equal(got.interior, ref.interior)
            assert got.interior_centers == ref.interior_centers
            assert list(got.center) == list(ref.center)
            assert all(got.center[r] == ref.center[r] for r in ref.center)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sign_change_profiles(self, k):
        # odd lengths reach the two-piece profile with a fractional half-width;
        # an exponent above k is capped at k on too short segments
        step = 1 if k <= 2 else 2
        for nseg in range(step, 401, step):
            for exponent in (itp.noisy_exponent(k), float(k), k + 0.5):
                assert np.array_equal(itp.sign_change_profile(k, nseg, exponent),
                                      sign_change_profile_reference(k, nseg, exponent)), nseg

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_noisy_vectors(self, k):
        rng = np.random.default_rng(9100 + k)
        min_len = minimum_segment_length(k)
        for s in range(4):
            for parity in (0, 1):
                for _ in range(4):
                    lengths = min_len + parity + 2 * rng.integers(0, 2 * min_len, size=s + 1)
                    lengths[-1] += rng.integers(0, 3)
                    S = ActiveSet.from_lengths(k, lengths, rng.choice([-1, 1], size=s))
                    lam = lambda_threshold(S.n, k, S.n_max, U, s=S.s)
                    for w in (None, compute_weights(S, U, lam)):
                        got = itp.build_noisy(S, weights=w)
                        q, caps = build_reference(S, itp.noisy_exponent(k), "noisy", weights=w)
                        assert np.array_equal(got.q, q) and np.array_equal(got.caps, caps), S

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_noiseless_vectors_with_short_segments(self, k):
        # sign-flip segments below k(k+2) take the two-piece fallback
        rng = np.random.default_rng(9200 + k)
        min_len = minimum_segment_length(k)
        for s in range(4):
            for _ in range(12):
                lengths = 1 + rng.integers(0, 2 * min_len, size=s + 1)
                lengths[-1] += rng.integers(0, 3)
                S = ActiveSet.from_lengths(k, lengths, rng.choice([-1, 1], size=s))
                got = itp.build_noiseless(S)
                q, caps = build_reference(S, float(k), "noiseless")
                assert np.array_equal(got.q, q) and np.array_equal(got.caps, caps), S


class TestEnergyDiagnostics:
    def test_zero_vector_energy(self):
        S = _active(30, 2, (), ())
        v = itp.build_noiseless(S)
        assert itp.delta_k_energy(v) == 0.0

    def test_energy_matches_dense(self, rng):
        for k in (1, 2, 3):
            S = random_active_set(rng, k)
            v = itp.build_noisy(S)
            D = build_delta(S.n, k).to_dense()
            dense = S.n * float(np.sum((D.T @ v.q) ** 2))
            assert itp.delta_k_energy(v) == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_energy_below_closed_form(self, k):
        rng = np.random.default_rng(777 + k)
        for _ in range(15):
            S = random_active_set(rng, k)
            v = itp.build_noisy(S)
            assert itp.delta_k_energy(v) <= gamma_closed_form(S, ck_sparsity(k))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_junction_residuals(self, k):
        rng = np.random.default_rng(555 + k)
        for _ in range(15):
            S = random_active_set(rng, k)
            v = itp.build_noisy(S)
            for _t, res, scale in itp.junction_residuals(v):
                assert res <= JOIN_CONST[k] * scale

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_halfpower_energy_log_growth(self, k):
        ds = np.unique(np.geomspace(2 * k + 2, 1e5, 12).astype(int))
        sweep = itp.halfpower_energy_sweep(k, ds)
        energies = np.array([sweep[int(d)] for d in ds])
        slope = float(np.polyfit(np.log(ds), np.log(energies), 1)[0])
        assert slope <= 1.05
        # the energy increments per unit log d stabilize at the squared
        # falling product (p)(p-1)...(p-k+1), p = (2k-1)/2
        e3, e4, e5 = (sweep.get(d, itp.halfpower_energy(k, d)) for d in (1000, 10000, 100000))
        b1 = (e4 - e3) / math.log(10)
        b2 = (e5 - e4) / math.log(10)
        assert b2 == pytest.approx(b1, rel=2e-2)
        gamma = 1.0
        for i in range(k):
            gamma *= (2 * k - 1) / 2 - i
        assert b2 == pytest.approx(gamma ** 2, rel=1e-2)

    def test_halfpower_diffs_stable_at_scale(self):
        # direct float64 differencing loses the k=4 signal near d = 1e5;
        # the series path keeps the j^{-1/2} decay
        dq = itp.halfpower_diffs(4, 100000)
        j = np.arange(4, 100000 - 3, dtype=float)
        gamma = 3.5 * 2.5 * 1.5 * 0.5
        tail = slice(5000, None)
        np.testing.assert_allclose(dq[tail], gamma / np.sqrt(j[tail] + 2), rtol=1e-3)


def test_halfpower_diffs_vs_longdouble():
    # extended-precision differencing is dependable at this scale and
    # confirms the series path entrywise
    # the reference itself carries ~eps_ld * j^{(2k-1)/2} / (signal) noise,
    # which sets the comparison tolerance
    for k, d, rtol in ((3, 2000, 3e-8), (4, 500, 1e-7)):
        j = np.arange(k, d + 1, dtype=np.longdouble)
        ref = np.diff(j ** ((2 * k - 1) / 2.0), k).astype(float)
        got = itp.halfpower_diffs(k, d)
        np.testing.assert_allclose(got, ref, rtol=rtol)
