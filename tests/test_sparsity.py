import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import dense_delta, random_active_set, sample_sandwich_instance, sparsity_dual_reference
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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_refuses_lambda_not_finite_and_positive(self, lam):
        # nan <= 0 is false: a nan lambda used to give nan caps and an
        # unreliable oracle result instead of an error
        with pytest.raises(ValueError, match="lambda must be finite and positive"):
            sp.compute_weights(_active(40, 1, (15,), (1,)), U, lam)


def _objective(S, weights, f):
    """q_S' (Df)_S - sum_{j off S} (1 - w_j) |(Df)_j| from a dense operator."""
    d = dense_delta(S.n, S.k) @ f
    active = [t - S.k - 1 for t in S.t]
    off = np.setdiff1d(np.arange(len(d)), active)
    caps = 1.0 - weights.w[off] if weights is not None else np.ones(len(off))
    return float(np.asarray(S.q_S, dtype=float) @ d[active] - caps @ np.abs(d[off]))


def _flat_weights(S, cap):
    """Weights giving every off row the cap ``cap``."""
    w = np.full(S.n - S.k, 1.0 - cap)
    w[[t - S.k - 1 for t in S.t]] = 0.0
    return sp.Weights(S=S, u=U, lam=1.0, lam0=1.0, w=w)


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

    @pytest.mark.parametrize("k,n", [(3, 256), (4, 128)])
    def test_three_jumps_past_the_svd_reach(self, k, n):
        # the former lstsq faces left these with relative gaps 2e-6 and 3e-6
        S = _active(n, k, (n // 4, n // 2, 3 * n // 4), (1, -1, 1))
        lam = lambda_threshold(S.n, k, S.n_max, U, s=S.s)
        w = sp.compute_weights(S, U, lam)
        _assert_certified(S, w, sp.effective_sparsity_direct(S, weights=w))

    def test_long_k3_draw(self):
        # the n = 360 draw, uncertified with lstsq faces
        rng = np.random.default_rng(43)
        S = [random_active_set(rng, 3, max_s=3, max_mult=10) for _ in range(3)][-1]
        assert S.n == 360
        lam = lambda_threshold(S.n, 3, S.n_max, U, s=S.s)
        w = sp.compute_weights(S, U, lam)
        _assert_certified(S, w, sp.effective_sparsity_direct(S, weights=w))

    def test_face_with_no_free_coordinate(self, monkeypatch):
        # caps of 0.1 bind every off coordinate, so the last face has no columns
        weights = _flat_weights(_active(7, 2, (3, 6), (1, -1)), 0.1)
        S = weights.S
        solved = []
        box_ls = sp._box_least_squares

        def spy(A, b, caps):
            xi = box_ls(A, b, caps)
            solved.append((xi, caps))
            return xi

        monkeypatch.setattr(sp, "_box_least_squares", spy)
        res = sp.effective_sparsity_direct(S, weights=weights)
        xi, caps = solved[0]
        np.testing.assert_array_equal(np.abs(xi), caps)
        _assert_certified(S, weights, res)

    def test_negative_caps_raise(self):
        # half the plain admissibility level max_j ||psi_j||_n lambda0(u)
        # puts the largest weights near 2
        S = _active(128, 3, (32, 64, 96), (1, -1, 1))
        _, sqn = block_column_sqnorms(S)
        lam = 0.5 * math.sqrt(np.max(sqn) / S.n) * lambda0(U, S.n, S.n - 3 - S.s)
        w = sp.compute_weights(S, U, lam)
        with pytest.raises(sp.NegativeCapError, match=f"lambda={lam:.6g}") as info:
            sp.effective_sparsity_direct(S, weights=w)
        rows = info.value.rows
        assert rows and all(c < 0 for _, c in rows)
        assert {j for j, _ in rows} == {j for j in range(4, 129) if w.w[j - 4] > 1.0}
        assert f"row {rows[0][0]}:" in str(info.value)

    def test_negative_gap_is_not_reliable(self, monkeypatch):
        # a dual point outside the box can read below the primal value; the
        # certificate must refuse it (weak duality) rather than accept it
        weights = _flat_weights(_active(7, 2, (3, 6), (1, -1)), 0.01)
        box_ls = sp._box_least_squares
        monkeypatch.setattr(sp, "_box_least_squares",
                            lambda A, b, caps: box_ls(A, b, 10.0 * caps))
        res = sp.effective_sparsity_direct(weights.S, weights=weights)
        assert res.gap < -(1e-6 * res.dual_value + 1e-12)
        assert not res.reliable

    def test_refuses_weights_of_another_active_set(self):
        # same (n, k), so the weight vector fits, but its caps belong to S1
        S1 = _active(40, 1, (15,), (1,))
        S2 = _active(40, 1, (25,), (1,))
        w = sp.compute_weights(S1, U, lambda_threshold(40, 1, S1.n_max, U, s=1))
        with pytest.raises(ValueError, match="another active set"):
            sp.effective_sparsity_direct(S2, weights=w)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_empty_set_certifies_zero_without_dense_d(self, k):
        # past the dense cap, at every k: no D, no solve, well under 1 MB
        n = 10_000
        S = _active(n, k, (), ())
        w = sp.compute_weights(S, U, lambda_threshold(n, k, S.n_max, U, s=0))
        tracemalloc.start()
        try:
            res = sp.effective_sparsity_direct(S, weights=w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (res.gamma_sq, res.max_value, res.dual_value, res.gap) == (0.0, 0.0, 0.0, 0.0)
        assert res.reliable
        assert np.array_equal(res.maximizer, np.ones(n))

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
        # at k >= 2 D comes from to_dense, so past DENSE_CAP_DEFAULT the oracle
        # refuses, before allocating the n x n identity (134 MB at n = 4097)
        S = _active(DENSE_CAP_DEFAULT + 1, 2, (2049,), (1,))
        tracemalloc.start()
        try:
            with pytest.raises(DenseCapExceededError, match="4097"):
                sp.effective_sparsity_direct(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _k1_instance(rng, i):
    """Active set and weights of the k = 1 battery: n in [8, 80], up to five
    knots anywhere (adjacent knots, same-sign neighbours), every fourth with
    a knot at the first admissible row 2 and every fourth at the last, n;
    weights by turns none, at or above the plain admissibility level, random
    caps in [0, 1) with about 15% of them 0, and one flat cap in [0, 1]."""
    n = int(rng.integers(8, 81))
    t = set(int(v) for v in rng.choice(np.arange(2, n + 1), int(rng.integers(0, 6)), replace=False))
    if i % 4 == 1:
        t.add(2)
    if i % 4 == 2:
        t.add(n)
    t = sorted(t)
    S = _active(n, 1, t, rng.choice([-1, 1], size=len(t)))
    kind = i % 4
    if kind == 0:
        return S, None
    if kind == 1:
        _, sqn = block_column_sqnorms(S)
        lam = math.sqrt(np.max(sqn) / n) * lambda0(U, n, n - 1 - S.s) * rng.uniform(1.0, 3.0)
        return S, sp.compute_weights(S, U, lam)
    if kind == 2:
        caps = rng.uniform(0.0, 1.0, n - 1)
        caps[rng.random(n - 1) < 0.15] = 0.0
        caps[[j - 2 for j in t]] = 1.0
        return S, sp.Weights(S=S, u=U, lam=1.0, lam0=1.0, w=1.0 - caps)
    return S, _flat_weights(S, float(rng.choice([0.0, rng.uniform(), 1.0])))


def _assert_matches_references(S, weights, res):
    """Certified, and equal to 1e-9 relative to scipy's bvls and to the
    k >= 2 route's bounded-variable least squares on the dense A."""
    assert res.reliable
    assert res.gamma_sq == pytest.approx(sparsity_dual_reference(S, weights=weights),
                                         rel=1e-9, abs=1e-12)
    D = dense_delta(S.n, S.k)
    active = [t - S.k - 1 for t in S.t]
    off = np.setdiff1d(np.arange(S.n - S.k), active)
    caps = np.ones(len(off)) if weights is None else 1.0 - weights.w[off]
    c = D[active].T @ np.asarray(S.q_S, dtype=float)
    A = D[off].T
    dual = math.sqrt(S.n) * np.linalg.norm(c - A @ sp._box_least_squares(A, c, caps))
    assert res.gamma_sq == pytest.approx(dual ** 2, rel=1e-9, abs=1e-12)


class TestTautStringOracle:
    """The k = 1 dual as a taut string, against independent references."""

    def test_agrees_with_box_least_squares_references(self):
        rng = np.random.default_rng(23)
        for i in range(120):
            S, w = _k1_instance(rng, i)
            _assert_matches_references(S, w, sp.effective_sparsity_direct(S, weights=w))

    def test_string_stays_in_the_tube(self):
        # caps of 0 pin the string to 0; the others bound it
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(3, 60))
            hi = rng.uniform(0.0, 1.0, m)
            hi[rng.random(m) < 0.2] = 0.0
            hi[0] = hi[-1] = 0.0
            v = sp._taut_string((-hi).tolist(), hi.tolist())
            assert np.all(np.abs(v) <= hi * (1 + 1e-15))
            assert v[0] == 0.0 and v[-1] == 0.0

    def test_acceptance_pool(self):
        # the k = 1 instances among the first 40 draws of the acceptance
        # sampler (seed 111), the pool of the benchmark's sparsity workload
        rng = np.random.default_rng(111)
        pool = [sample_sandwich_instance(rng) for _ in range(40)]
        k1 = [S for S in pool if S.k == 1]
        assert len(k1) == 14
        for S in k1:
            w = sp.compute_weights(S, U, lambda_threshold(S.n, 1, S.n_max, U, s=S.s))
            _assert_matches_references(S, w, sp.effective_sparsity_direct(S, weights=w))

    def test_three_jumps_at_ten_thousand(self):
        n = 10_000
        S = _active(n, 1, (n // 4, n // 2, 3 * n // 4), (1, -1, 1))
        w = sp.compute_weights(S, 3.0, lambda_threshold(n, 1, S.n_max, 3.0, s=S.s))
        t0 = time.perf_counter()
        res = sp.effective_sparsity_direct(S, weights=w)
        assert time.perf_counter() - t0 < 1.0
        assert res.reliable and res.gamma_sq > 0.0
        assert res.max_value == pytest.approx(_objective_k1(S, w, res.maximizer), rel=1e-9)


def _objective_k1(S, weights, f):
    """The maximand at k = 1 from np.diff, for n past the dense reach."""
    d = np.diff(f)
    active = [t - 2 for t in S.t]
    off = np.setdiff1d(np.arange(len(d)), active)
    return float(np.asarray(S.q_S, dtype=float) @ d[active] - (1.0 - weights.w[off]) @ np.abs(d[off]))


def _k1_family(rng, n, count):
    """Active sets of length n with 0-5 knots, segments of at least 3
    (k(k+2) at k = 1) and lengths drawn from a flat Dirichlet."""
    sets = []
    for _ in range(count):
        s = int(rng.integers(0, 6))
        lengths = 3 + rng.multinomial(n - 3 * (s + 1), rng.dirichlet(np.ones(s + 1)))
        t = 1 + np.cumsum(lengths[:-1])
        sets.append(_active(n, 1, t, rng.choice([-1, 1], size=s)))
    return sets


def test_k1_exact_below_energy_below_closed_form_up_to_ten_thousand():
    # Gamma^2 <= interpolant energy <= closed form, with the threshold lambda
    # and its weights, at n well past the n <= 2400 the constants were fitted on
    rng = np.random.default_rng(23)
    for n in (64, 256, 1024, 4096, 10_000):
        for S in _k1_family(rng, n, 6):
            w = sp.compute_weights(S, U, lambda_threshold(n, 1, S.n_max, U, s=S.s))
            energy = sp.effective_sparsity_via_interpolant(build_noisy(S, weights=w), weights=w)
            res = sp.effective_sparsity_direct(S, weights=w)
            assert res.reliable
            assert res.gamma_sq <= energy * (1 + 1e-9) + 1e-12
            assert energy <= sp.gamma_closed_form(S) * (1 + 1e-12)


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

    @pytest.mark.parametrize("sets", [
        ((60, 2, (20,), (1,)), (60, 2, (21,), (-1,))),
        ((40, 1, (15,), (1,)), (40, 1, (25,), (1,))),
    ])
    def test_refuses_weights_of_another_active_set(self, sets):
        # the first pair's caps fit the second set's q, the second's do not;
        # either way the bound would be taken under the wrong caps
        S1, S2 = (_active(*args) for args in sets)
        w = sp.compute_weights(S1, U, lambda_threshold(S1.n, S1.k, S1.n_max, U, s=S1.s))
        with pytest.raises(ValueError, match="another active set"):
            sp.effective_sparsity_via_interpolant(build_noisy(S2), weights=w)

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
