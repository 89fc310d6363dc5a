import math
import tracemalloc

import numpy as np
import pytest

from conftest import dense_delta, random_active_set, sparsity_dual_reference
from tvtrend import sparsity as sp
from tvtrend.diffops import DENSE_CAP_DEFAULT, ActiveSet, DenseCapExceededError, block_column_sqnorms
from tvtrend.interpolants import InfeasibleInterpolantError, InterpolatingVector, build_noisy
from tvtrend.theory import lambda0, lambda_threshold

U = math.log(20.0)


def _active(n, k, t, q):
    return ActiveSet(n=n, k=k, t=tuple(t), q_S=tuple(q))


class TestWeights:
    def test_weights_formula(self):
        S = _active(40, 1, (15,), (1,))
        lam = 0.7
        w = sp.compute_weights(S, U, lam)
        rows, sqn = block_column_sqnorms(S)
        l0 = lambda0(U, 40, 40 - 1 - 1)
        for j, q2 in zip(rows, sqn):
            assert w.w[j - 2] == pytest.approx(math.sqrt(q2 / 40) * l0 / lam, rel=1e-12)
        for t in S.t:
            assert w.w[t - 2] == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_weights_below_one_at_base_threshold(self, k, rng):
        # lambda at the plain admissibility level max_j ||psi_j||_n lambda0
        for _ in range(10):
            S = random_active_set(rng, k)
            rows, sqn = block_column_sqnorms(S)
            lam = math.sqrt(np.max(sqn) / S.n) * lambda0(U, S.n, S.n - k - S.s)
            w = sp.compute_weights(S, U, lam)
            assert np.all(w.w <= 1.0 + 1e-12)
            assert np.all(w.w >= 0.0)


def _objective(S, weights, f):
    """q_S' (Df)_S - sum_{j off S} (1 - w_j) |(Df)_j| from a dense operator."""
    d = dense_delta(S.n, S.k) @ f
    active = [t - S.k - 1 for t in S.t]
    off = np.setdiff1d(np.arange(len(d)), active)
    caps = 1.0 - weights.w[off] if weights is not None else np.ones(len(off))
    return float(np.asarray(S.q_S, dtype=float) @ d[active] - caps @ np.abs(d[off]))


def _assert_certified(S, weights, res):
    assert res.reliable
    assert 0.0 <= res.gap <= 1e-6 * res.dual_value + 1e-12
    assert res.gap == pytest.approx(res.dual_value - res.max_value, rel=1e-12, abs=1e-15)
    assert np.linalg.norm(res.maximizer) == pytest.approx(math.sqrt(S.n), rel=1e-12)
    assert res.max_value == pytest.approx(_objective(S, weights, res.maximizer),
                                          rel=1e-9, abs=1e-12)
    ref = sparsity_dual_reference(S, weights=weights)
    assert res.gamma_sq == pytest.approx(ref, rel=1e-6, abs=1e-12)


class TestDirectOracle:
    def test_empty_set_is_zero(self):
        S = _active(24, 1, (), ())
        res = sp.effective_sparsity_direct(S)
        assert res.gamma_sq == 0.0
        assert res.max_value <= 0.0
        assert res.gap == 0.0 and res.reliable

    def test_homogeneity_of_objective(self, rng):
        # the maximand is 1-homogeneous: doubling f doubles the value
        S = _active(20, 1, (8, 14), (1, -1))
        f = rng.standard_normal(20)
        assert _objective(S, None, 2.5 * f) == pytest.approx(2.5 * _objective(S, None, f),
                                                             rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agrees_with_dual_reference(self, k):
        # independent oracle: scipy's bvls on the dual side
        rng = np.random.default_rng(100 + k)
        for _ in range(4):
            S = random_active_set(rng, k, max_s=2, max_mult=2)
            lam = lambda_threshold(S.n, k, S.n_max, U, s=S.s)
            w = sp.compute_weights(S, U, lam)
            _assert_certified(S, w, sp.effective_sparsity_direct(S, weights=w))

    def test_noiseless_agrees_with_dual_reference(self):
        S = _active(30, 1, (12, 21), (1, -1))
        _assert_certified(S, None, sp.effective_sparsity_direct(S))

    def test_no_size_cap(self):
        # k = 3 well past the former n <= 64 limit of the direct oracle
        S = _active(152, 3, (40, 80, 115), (1, -1, -1))
        lam = lambda_threshold(S.n, 3, S.n_max, U, s=S.s)
        w = sp.compute_weights(S, U, lam)
        _assert_certified(S, w, sp.effective_sparsity_direct(S, weights=w))

    def test_former_underestimate(self):
        # instance 31 of the acceptance sampler (seed 111): the supergradient
        # oracle this replaced returned a value 67% below the maximum here
        S = _active(62, 3, (18, 33, 48), (-1, -1, 1))
        lam = lambda_threshold(S.n, 3, S.n_max, U, s=S.s)
        w = sp.compute_weights(S, U, lam)
        _assert_certified(S, w, sp.effective_sparsity_direct(S, weights=w))

    def test_lambda_monotonicity(self):
        # larger lambda shrinks the weights, weakly decreasing the noisy value
        S = _active(40, 1, (15, 28), (1, -1))
        lam1 = lambda_threshold(40, 1, S.n_max, U, s=2)
        vals = []
        for mult in (1.0, 2.0, 8.0):
            w = sp.compute_weights(S, U, lam1 * mult)
            vals.append(sp.effective_sparsity_direct(S, weights=w).gamma_sq)
        assert vals[0] >= vals[1] - 1e-8 >= vals[2] - 2e-8

    def test_stops_at_the_dense_cap(self):
        # D comes from to_dense, so past DENSE_CAP_DEFAULT the oracle refuses,
        # before allocating the n x n identity (134 MB at n = 4097)
        S = _active(DENSE_CAP_DEFAULT + 1, 1, (2049,), (1,))
        tracemalloc.start()
        try:
            with pytest.raises(DenseCapExceededError, match="4097"):
                sp.effective_sparsity_direct(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestInterpolantBound:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_direct_below_interpolant_energy(self, k):
        rng = np.random.default_rng(200 + k)
        for _ in range(4):
            S = random_active_set(rng, k, max_s=2, max_mult=2)
            lam = lambda_threshold(S.n, k, S.n_max, U, s=S.s)
            w = sp.compute_weights(S, U, lam)
            vec = build_noisy(S, weights=w)
            energy = sp.effective_sparsity_via_interpolant(vec, weights=w)
            res = sp.effective_sparsity_direct(S, weights=w)
            assert res.gamma_sq <= energy * (1 + 1e-9)

    def test_infeasible_vector_rejected(self):
        S = _active(40, 1, (15, 28), (1, -1))
        lam = lambda_threshold(40, 1, S.n_max, U, s=2)
        w = sp.compute_weights(S, U, lam)
        vec = build_noisy(S)
        bad = InterpolatingVector(S=S, mode="noisy", q=vec.q * 1.5, caps=vec.caps)
        with pytest.raises(InfeasibleInterpolantError):
            sp.effective_sparsity_via_interpolant(bad, weights=w)


class TestClosedForm:
    def test_equal_segments_all_flips_collapse(self):
        # equal lengths, alternating signs: n C_k (s+1)(1 + log n_max) / n_max^{2k-1}
        k, L, s = 2, 20, 3
        t = tuple(k + L * (i + 1) for i in range(s))
        S = _active(k + L * (s + 1) - 1, k, t, tuple((-1) ** i for i in range(s)))
        assert S.n_max == L and all(v == L for v in S.seg_lengths)
        got = sp.gamma_closed_form(S, C_k=1.0)
        expected = S.n * (s + 1) * (1 + math.log(L)) / L ** (2 * k - 1)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_no_flip_segments_use_n_max(self):
        S = _active(61, 1, (21, 41), (1, 1))   # interior segment has no flip
        got = sp.gamma_closed_form(S, C_k=1.0)
        n1, n2, n3 = S.seg_lengths
        expected = 61 * ((1 + math.log(n1)) / n1 + (1 + math.log(n2)) / S.n_max
                         + (1 + math.log(n3)) / n3)
        assert got == pytest.approx(expected, rel=1e-12)
