"""GF(2) linear algebra: unit checks and algebraic property tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cifc_cms import gf2


def random_matrix(rng, rows, cols):
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def random_invertible(n, rng):
    """Random invertible n x n matrix (rejection sampling)."""
    while True:
        m = random_matrix(rng, n, n)
        if gf2.rank(m) == n:
            return m


class TestShiftMatrix:
    def test_identity_at_zero(self):
        assert np.array_equal(gf2.shift_matrix(4, 0), np.eye(4, dtype=np.uint8))

    def test_zero_at_or_past_dimension(self):
        assert not gf2.shift_matrix(4, 4).any()
        assert not gf2.shift_matrix(4, 9).any()

    def test_moves_msb_down(self):
        # bit 1 (row 0) lands on bit 3 (row 2) under S^2
        x = np.array([[1], [0], [0], [0]], dtype=np.uint8)
        y = gf2.matmul(gf2.shift_matrix(4, 2), x)
        assert y[:, 0].tolist() == [0, 0, 1, 0]

    def test_discards_past_bottom(self):
        x = np.array([[0], [0], [0], [1]], dtype=np.uint8)
        y = gf2.matmul(gf2.shift_matrix(4, 1), x)
        assert not y.any()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gf2.shift_matrix(-1, 0)
        with pytest.raises(ValueError):
            gf2.shift_matrix(3, -2)

    @given(st.integers(1, 12), st.integers(0, 14), st.integers(0, 14))
    def test_exponent_additivity(self, m, j, k):
        lhs = gf2.matmul(gf2.shift_matrix(m, j), gf2.shift_matrix(m, k))
        rhs = gf2.shift_matrix(m, min(j + k, m))
        assert np.array_equal(lhs, rhs)


class TestRank:
    def test_known_values(self):
        assert gf2.rank(gf2.identity(5)) == 5
        assert gf2.rank(gf2.zeros(3, 4)) == 0
        m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        # third row is the sum of the first two
        assert gf2.rank(m) == 2

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    def test_rank_invariant_under_row_permutation(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, rows, cols)
        perm = rng.permutation(rows)
        assert gf2.rank(m) == gf2.rank(m[perm])

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    def test_rank_bounded_by_dimensions(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, rows, cols)
        assert 0 <= gf2.rank(m) <= min(rows, cols)


class TestInvert:
    @given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    def test_inverse_round_trip(self, n, seed):
        rng = np.random.default_rng(seed)
        m = random_invertible(n, rng)
        inv = gf2.invert(m)
        assert np.array_equal(gf2.matmul(m, inv), gf2.identity(n))
        assert np.array_equal(gf2.matmul(inv, m), gf2.identity(n))

    def test_singular_raises(self):
        with pytest.raises(gf2.SingularMatrixError):
            gf2.invert(gf2.zeros(3, 3))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            gf2.invert(gf2.zeros(2, 3))


class TestSolve:
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 3),
           st.integers(0, 2 ** 31 - 1))
    def test_consistent_system_is_solved(self, rows, cols, rhs, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, rows, cols)
        x_true = random_matrix(rng, cols, rhs)
        b = gf2.matmul(a, x_true)
        x = gf2.solve(a, b)
        assert x is not None
        assert np.array_equal(gf2.matmul(a, x), b)

    def test_inconsistent_system_returns_none(self):
        a = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        b = np.array([[1], [0]], dtype=np.uint8)
        assert gf2.solve(a, b) is None


class TestNullspace:
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 31 - 1))
    def test_kernel_dimension_and_membership(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, rows, cols)
        ker = gf2.nullspace(a)
        assert ker.shape == (cols, cols - gf2.rank(a))
        if ker.shape[1]:
            assert not gf2.matmul(a, ker).any()
            assert gf2.rank(ker) == ker.shape[1]


class TestRowEchelon:
    @given(st.integers(1, 7), st.integers(1, 9), st.integers(0, 2 ** 31 - 1))
    def test_pivot_columns_are_a_basis(self, rows, cols, seed):
        # build_chain_scheme takes its layer basis from these pivots
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, rows, cols)
        pivots = gf2.row_echelon(m)[1]
        assert gf2.rank(m[:, pivots]) == len(pivots) == gf2.rank(m)


class TestIdentityPlusShiftFullRank:
    """I + S^k is unipotent, hence invertible, for any k >= 1."""

    @pytest.mark.parametrize("m", range(1, 11))
    def test_all_shifts(self, m):
        for k in range(1, m + 1):
            s = gf2.add(gf2.identity(m), gf2.shift_matrix(m, k))
            assert gf2.rank(s) == m
            gf2.invert(s)  # must not raise
