import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (block_dictionary_reference, block_polynomial_basis, boundary_rows,
                      dense_delta, dense_pinv, random_active_set)
from tvtrend import diffops as dop


nk_pairs = st.integers(3, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, min(4, n - 1))))


class TestOperator:
    def test_first_order_rows(self):
        op = dop.build_delta(4, 1)
        f = np.array([1.0, 4.0, 9.0, 16.0])
        assert np.array_equal(op.apply(f), [3.0, 5.0, 7.0])

    def test_second_order_row_pattern(self):
        D = dop.build_delta(5, 2).to_dense()
        for i in range(3):
            assert np.array_equal(D[i, i:i + 3], [1.0, -2.0, 1.0])

    def test_constants_annihilated(self):
        for k in range(1, 5):
            op = dop.build_delta(10, k)
            assert np.all(op.apply(np.full(10, 3.7)) == 0.0)

    @given(nk_pairs)
    @settings(max_examples=40, deadline=None)
    def test_polynomials_annihilated(self, nk):
        n, k = nk
        i = np.arange(n, dtype=float)
        poly = sum((0.5 + j) * i ** j for j in range(k))
        out = dop.build_delta(n, k).apply(poly)
        assert np.max(np.abs(out)) <= 1e-8 * max(1.0, np.max(np.abs(poly)))

    @given(nk_pairs, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_composition(self, nk, seed):
        n, k = nk
        if k < 2:
            return
        f = np.random.default_rng(seed).standard_normal(n)
        lhs = dop.build_delta(n, k).apply(f)
        rhs = dop.build_delta(n - k + 1, 1).apply(dop.build_delta(n, k - 1).apply(f))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dense_matches_banded_apply(self, rng):
        for k in (1, 2, 3, 4):
            op = dop.build_delta(30, k)
            D = op.to_dense()
            f = rng.standard_normal(30)
            q = rng.standard_normal(op.m)
            np.testing.assert_allclose(op.apply(f), D @ f, atol=1e-12)
            np.testing.assert_allclose(op.apply_transpose(q), D.T @ q, atol=1e-12)

    def test_order_validation(self):
        with pytest.raises(dop.InvalidOrderError):
            dop.build_delta(5, 0)
        with pytest.raises(dop.InvalidOrderError):
            dop.build_delta(5, 5)

class TestFallingFactorial:
    def test_k1_indicator_steps(self):
        psi = dop.falling_factorial_columns(5, 1, range(1, 6))
        i = np.arange(1, 6)
        for j in range(1, 6):
            assert np.array_equal(psi[:, j - 1], (i >= j).astype(float))

    def test_k2_ramps(self):
        psi = dop.falling_factorial_columns(6, 2, range(3, 7))
        i = np.arange(1, 7)
        for j in range(3, 7):
            expected = np.where(i >= j, i - j + 1, 0.0)
            assert np.array_equal(psi[:, j - 3], expected)

    def test_stacked_inverse_identity(self):
        # oracle: dense matrix inversion of the stacked system; its last
        # n - k columns are the falling-factorial columns, and Delta phi_j = e_j
        # holds exactly (integer entries)
        for n, k in [(10, 3), (20, 1), (20, 2), (20, 4)]:
            phi = dop.falling_factorial_columns(n, k, range(k + 1, n + 1))
            M = np.vstack([boundary_rows(n, k), dense_delta(n, k)])
            np.testing.assert_allclose(phi, np.linalg.inv(M)[:, k:], atol=1e-8)
            assert np.array_equal(dense_delta(n, k) @ phi, np.eye(n - k))


class TestPinv:
    def test_k1_column_lengths(self):
        # squared lengths (j-1)(n-j+1)/n for n=6
        j = np.arange(2, 7, dtype=float)
        np.testing.assert_allclose(dop.pinv_column_sqnorms(6, 1), (j - 1) * (6 - j + 1) / 6,
                                   rtol=1e-12)

    def test_sqnorms_without_columns(self):
        for n, k in [(30, 1), (41, 2), (33, 3), (29, 4)]:
            P = dense_pinv(n, k)
            np.testing.assert_allclose(dop.pinv_column_sqnorms(n, k),
                                       np.sum(P ** 2, axis=0), rtol=1e-9)

    def test_dense_cap(self):
        with pytest.raises(dop.DenseCapExceededError):
            dop.build_delta(5000, 2).to_dense()

    def test_nullspace_dimension(self):
        for k in (1, 2, 3, 4):
            D = dense_delta(40, k)
            assert np.linalg.matrix_rank(D) == 40 - k  # null space has dim k


def _exact_sqnorms(n, k):
    """Squared column lengths of Delta(k)^+ in exact rational arithmetic:
    each falling-factorial column less its least-squares polynomial part."""
    basis = []  # orthogonal basis of the degree < k polynomials, with squared lengths

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    for p in range(k):
        v = [Fraction(i) ** p for i in range(n)]
        for b, bb in basis:
            c = dot(v, b) / bb
            v = [x - c * y for x, y in zip(v, b)]
        basis.append((v, dot(v, v)))
    out = []
    for j in range(k + 1, n + 1):
        phi = [Fraction(math.comb(i - j + k - 1, k - 1)) if i >= j else Fraction(0)
               for i in range(1, n + 1)]
        out.append(float(dot(phi, phi) - sum(dot(phi, b) ** 2 / bb for b, bb in basis)))
    return np.array(out)


class TestColumnNorms:
    def test_k1_frozen_example(self):
        # (j-1)(n-j+1)/n at n=4, j=2 -> 0.75
        assert dop.column_norm_exact(4, 1, 2) == pytest.approx(0.75, abs=1e-15)

    def test_k2_frozen_example(self):
        # n=5, j=3: (3)(4)(1)(2)(30-18)/720 = 0.4, cross-checked against pinv
        assert dop.column_norm_exact(5, 2, 3) == pytest.approx(0.4, abs=1e-14)
        P = dense_pinv(5, 2)
        assert np.sum(P[:, 0] ** 2) == pytest.approx(0.4, abs=1e-10)

    @pytest.mark.parametrize("k,n", [(2, 10), (2, 37), (3, 12), (1, 25)])
    def test_exact_matches_dense(self, k, n):
        P = dense_pinv(n, k)
        j = np.arange(k + 1, n + 1)
        np.testing.assert_allclose(dop.column_norm_exact(n, k, j),
                                   np.sum(P ** 2, axis=0), rtol=1e-8)

    def test_unsupported_order(self):
        with pytest.raises(dop.UnsupportedOrderError, match="column_norm_bound"):
            dop.column_norm_exact(20, 4, 10)

    def test_bound_frozen_examples(self):
        assert dop.column_norm_bound(100, 1, 2) == 1.0
        for k in (1, 2, 3, 4):
            assert dop.column_norm_bound(60, k, k + 1) == 1.0

    def test_bound_dominates_exact(self):
        n = 60
        for k in (1, 2, 3):
            j = np.arange(k + 1, n)
            exact = dop.column_norm_exact(n, k, j)
            assert np.all(dop.column_norm_bound(n, k, j) >= exact - 1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sqnorms_past_the_dense_range(self, k):
        n = 65536
        np.testing.assert_allclose(dop.pinv_column_sqnorms(n, k),
                                   dop.column_norm_exact(n, k, np.arange(k + 1, n + 1)),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [29, 96])
    def test_k4_sqnorms_exact_arithmetic(self, n):
        np.testing.assert_allclose(dop.pinv_column_sqnorms(n, 4), _exact_sqnorms(n, 4),
                                   rtol=1e-12, atol=0)

    def test_symmetry(self):
        # ||psi_j||^2 == ||psi_{n+k+1-j}||^2
        n = 60
        for k in (1, 2, 3, 4):
            sq = dop.pinv_column_sqnorms(n, k)
            rel = np.abs(sq - sq[::-1]) / np.maximum(sq, 1.0)
            assert np.max(rel) <= 1e-10


class TestActiveSet:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_segment_lengths_sum(self, data):
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        k = data.draw(st.integers(1, 4))
        S = random_active_set(np.random.default_rng(seed), k, n_pad=5)
        assert sum(S.seg_lengths) == S.n + 1 - S.k
        flips = S.sign_flip_segments
        assert 1 in flips and (S.s + 1) in flips
        assert all(1 <= i <= S.s + 1 for i in flips)

    def test_validation(self):
        with pytest.raises(ValueError):
            dop.ActiveSet(n=20, k=2, t=(5, 5), q_S=(1, 1))
        with pytest.raises(ValueError):
            dop.ActiveSet(n=20, k=2, t=(2,), q_S=(1,))
        with pytest.raises(ValueError):
            dop.ActiveSet(n=20, k=2, t=(5,), q_S=(2,))

    def test_segment_too_short(self):
        S = dop.ActiveSet(n=40, k=3, t=(10, 12), q_S=(1, -1))
        with pytest.raises(dop.SegmentTooShortError, match="segment"):
            S.validate_segments()
        S2 = dop.ActiveSet(n=40, k=3, t=(39,), q_S=(1,))
        with pytest.raises(dop.SegmentTooShortError):
            S2.validate_segments()


class TestBlockDictionary:
    """``block_column_sqnorms`` against the dense per-block SVD pseudo-inverse
    columns of ``conftest.block_dictionary_reference``."""

    def test_empty_set_equals_pinv(self):
        S = dop.ActiveSet(n=20, k=2, t=(), q_S=())
        rows, sqn = dop.block_column_sqnorms(S)
        assert np.array_equal(rows, np.arange(3, 21))
        np.testing.assert_allclose(sqn, np.sum(dense_pinv(20, 2) ** 2, axis=0), rtol=1e-10)

    def test_k1_two_blocks(self):
        # one jump: each block matches j (n_i - j) / n_i
        n, t1 = 30, 14
        S = dop.ActiveSet(n=n, k=1, t=(t1,), q_S=(1,))
        rows, sqn = dop.block_column_sqnorms(S)
        ref_rows, cols = block_dictionary_reference(S)
        assert np.array_equal(rows, ref_rows)
        np.testing.assert_allclose(sqn, np.sum(cols ** 2, axis=0), rtol=1e-10)
        n1, n2 = S.seg_lengths
        for idx, row in enumerate(rows):
            if row < t1:
                j = row - 1
                expected = j * (n1 - j) / n1
            else:
                j = row - t1
                expected = j * (n2 - j) / n2
            assert sqn[idx] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_orthogonal_to_augmented_nullspace(self, k, rng):
        S = random_active_set(rng, k)
        rows, cols = block_dictionary_reference(S)
        basis = block_polynomial_basis(S)
        assert basis.shape[1] == k * (S.s + 1)
        # relative to each column's length: the SVD reference carries ~1e-11
        # relative error at k = 4, and its columns reach lengths of ~1e6
        assert np.all(np.abs(basis.T @ cols) <= 1e-10 * np.linalg.norm(cols, axis=0))
        # each column is its falling-factorial column less the augmented
        # null-space part, so their squared lengths are the shortcut's
        phi = dop.falling_factorial_columns(S.n, k, rows)
        anti = phi - basis @ (basis.T @ phi)
        np.testing.assert_allclose(np.sum(anti ** 2, axis=0), dop.block_column_sqnorms(S)[1],
                                   rtol=1e-8)
        # mock columns live inside the augmented null space
        mocks = [j for t in S.t for j in range(t + 1, t + k)]
        mock = dop.falling_factorial_columns(S.n, k, mocks)
        resid = mock - basis @ (basis.T @ mock)
        assert np.all(np.linalg.norm(resid, axis=0)
                      <= 1e-8 * np.maximum(1.0, np.linalg.norm(mock, axis=0)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_column_length_bound(self, k, rng):
        # per-segment bound min(j, n_i - j)^{2k-1}
        S = random_active_set(rng, k)
        rows, sqn = dop.block_column_sqnorms(S)
        tf = S.t_full
        for idx, row in enumerate(rows):
            i = next(i for i in range(1, S.s + 2) if tf[i - 1] <= row <= tf[i])
            j = row - tf[i - 1]
            n_i = S.seg_lengths[i - 1]
            bound = min(j, n_i - j) ** (2 * k - 1)
            assert sqn[idx] <= bound + 1e-9

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sqnorms_shortcut_matches(self, k, rng):
        S = random_active_set(rng, k)
        rows, sqn = dop.block_column_sqnorms(S)
        ref_rows, cols = block_dictionary_reference(S)
        assert np.array_equal(rows, ref_rows)
        np.testing.assert_allclose(sqn, np.sum(cols ** 2, axis=0), rtol=1e-8)


def test_write_dense_csv_roundtrip(tmp_path, rng):
    M = rng.standard_normal((5, 7))
    path = tmp_path / "m.csv"
    dop.write_dense_csv(M, path)
    back = np.loadtxt(path, delimiter=",")
    np.testing.assert_array_equal(back, M)


class TestRightInverseSweep:
    def test_dense_grid(self):
        # right-inverse identity Delta phi_j = e_j of the falling-factorial
        # columns across a dense grid of lengths and orders (exact: integers)
        for k in (1, 2, 3, 4):
            for n in list(range(k + 2, 42)) + list(range(45, 201, 13)) + [200]:
                op = dop.build_delta(n, k)
                phi = dop.falling_factorial_columns(n, k, range(k + 1, n + 1))
                assert np.array_equal(op.apply(phi), np.eye(op.m)), (n, k)
