"""GF(2) linear algebra: unit checks and algebraic property tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cifc_cms import gf2, ldc


def pack(a):
    """The rows of a 2-D {0,1} array as ints, column 0 in the top bit:
    the inverse of gf2.unpack."""
    nbytes, pad = -(-a.shape[1] // 8), -a.shape[1] % 8
    data = np.packbits(a, axis=1).tobytes()
    return [int.from_bytes(data[i * nbytes:(i + 1) * nbytes], "big") >> pad
            for i in range(a.shape[0])]


def shift_matrix(m, k):
    """The m x m down-shift matrix S^k as a uint8 array: (S^k x) moves
    bit j to bit j+k and discards bits shifted past position m.  S^0 is
    the identity; S^k is the zero matrix for k >= m."""
    if m < 0 or k < 0:
        raise ValueError("dimension and shift must be non-negative")
    return np.eye(m, k=-k, dtype=np.uint8)


def float_matmul(a, b):
    """GF(2) product through a float64 BLAS product, exact for inner
    dimensions below 2**53; it builds the large test matrices quickly."""
    return (a.astype(np.float64) @ b.astype(np.float64) % 2).astype(np.uint8)


def rank(a):
    """GF(2) rank of a uint8 array: rref's pivot count."""
    return len(gf2.rref(pack(a), a.shape[1])[1])


def identity(n):
    return np.eye(n, dtype=np.uint8)


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.uint8)


def inverse(m):
    """The GF(2) inverse of a square uint8 matrix through solve, or None."""
    n = m.shape[0]
    x = gf2.solve(pack(m), n, gf2.eye(n), n)
    return None if x is None else gf2.unpack(x, n)


def random_matrix(rng, rows, cols):
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def kernel(a):
    """The kernel basis of a uint8 matrix from independent, as the
    columns of a uint8 array."""
    cols = a.shape[1]
    tags = gf2.independent(pack(a.T), gf2.eye(cols))[1]
    return gf2.unpack(tags, cols).T


def oracle_nullspace(a, n):
    """The kernel of a (packed rows, n bits wide) read off rref, as gf2
    computed it before its column elimination: one basis vector per
    free column, in order, with e_c's pivot entries from RREF row c.
    Returns the vectors as n-bit ints (columns)."""
    rows, pivots = gf2.rref(a, n)
    full = gf2.eye(n)
    for r, c in zip(rows, pivots):
        full[c] = r
    free = [c for c in range(n) if c not in pivots]
    return pack(gf2.unpack(full, n)[:, free].T)


def random_invertible(n, rng):
    """Random invertible n x n matrix (rejection sampling)."""
    while True:
        m = random_matrix(rng, n, n)
        if rank(m) == n:
            return m


class TestShiftMatrix:
    def test_identity_at_zero(self):
        assert np.array_equal(shift_matrix(4, 0), np.eye(4, dtype=np.uint8))

    def test_zero_at_or_past_dimension(self):
        assert not shift_matrix(4, 4).any()
        assert not shift_matrix(4, 9).any()

    def test_moves_msb_down(self):
        # bit 1 (row 0) lands on bit 3 (row 2) under S^2
        x = np.array([[1], [0], [0], [0]], dtype=np.uint8)
        y = float_matmul(shift_matrix(4, 2), x)
        assert y[:, 0].tolist() == [0, 0, 1, 0]

    def test_discards_past_bottom(self):
        x = np.array([[0], [0], [0], [1]], dtype=np.uint8)
        y = float_matmul(shift_matrix(4, 1), x)
        assert not y.any()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            shift_matrix(-1, 0)
        with pytest.raises(ValueError):
            shift_matrix(3, -2)

    @given(st.integers(1, 12), st.integers(0, 14), st.integers(0, 14))
    def test_exponent_additivity(self, m, j, k):
        lhs = float_matmul(shift_matrix(m, j), shift_matrix(m, k))
        rhs = shift_matrix(m, min(j + k, m))
        assert np.array_equal(lhs, rhs)


class TestRank:
    def test_known_values(self):
        assert rank(identity(5)) == 5
        assert rank(zeros(3, 4)) == 0
        m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        # third row is the sum of the first two
        assert rank(m) == 2

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    def test_rank_invariant_under_row_permutation(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, rows, cols)
        perm = rng.permutation(rows)
        assert rank(m) == rank(m[perm])

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    def test_rank_bounded_by_dimensions(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, rows, cols)
        assert 0 <= rank(m) <= min(rows, cols)


class TestInvert:
    """The inverse is solve(a, n, eye(n), n)."""

    @given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    def test_inverse_round_trip(self, n, seed):
        rng = np.random.default_rng(seed)
        m = random_invertible(n, rng)
        inv = inverse(m)
        assert np.array_equal(float_matmul(m, inv), identity(n))
        assert np.array_equal(float_matmul(inv, m), identity(n))

    def test_singular_has_no_inverse(self):
        assert inverse(zeros(3, 3)) is None

    def test_non_square_has_no_inverse(self):
        tall = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        assert gf2.solve(pack(tall), 2, gf2.eye(3), 3) is None
        # a wide matrix has a right inverse but no left one
        x = gf2.unpack(gf2.solve(pack(tall.T), 3, gf2.eye(2), 2), 2)
        assert np.array_equal(float_matmul(tall.T, x), identity(2))
        assert rank(float_matmul(x, tall.T)) == 2


class TestSolve:
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 3),
           st.integers(0, 2 ** 31 - 1))
    def test_consistent_system_is_solved(self, rows, cols, rhs, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, rows, cols)
        x_true = random_matrix(rng, cols, rhs)
        b = float_matmul(a, x_true)
        x = gf2.solve(pack(a), cols, pack(b), rhs)
        assert x is not None
        assert np.array_equal(float_matmul(a, gf2.unpack(x, rhs)), b)

    def test_inconsistent_system_returns_none(self):
        a = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        b = np.array([[1], [0]], dtype=np.uint8)
        assert gf2.solve(pack(a), 2, pack(b), 1) is None


class TestNullspace:
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 31 - 1))
    def test_kernel_dimension_and_membership(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, rows, cols)
        ker = kernel(a)
        assert ker.shape == (cols, cols - rank(a))
        if ker.shape[1]:
            assert not float_matmul(a, ker).any()
            assert rank(ker) == ker.shape[1]


class TestRowEchelon:
    @given(st.integers(1, 7), st.integers(1, 9), st.integers(0, 2 ** 31 - 1))
    def test_pivot_columns_are_a_basis(self, rows, cols, seed):
        # build_chain_scheme takes its layer basis from these pivots
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, rows, cols)
        pivots = gf2.rref(pack(m), cols)[1]
        assert rank(m[:, pivots]) == len(pivots) == rank(m)


class TestIdentityPlusShiftFullRank:
    """I + S^c is invertible for any c >= 1: the symmetric scheme's
    decoder, the sum of S^jc over jc < m, is its two-sided inverse."""

    # m = 128 is the largest width the K*m <= 256 cap allows (at K = 2).
    # The products go through the packed mul, which test_mul_and_helpers
    # checks against an array product: int64 matmul takes about 11 s over
    # this range on a 2-core host, the packed mul about 1.2 s.
    @pytest.mark.parametrize("m", range(1, 129))
    def test_all_shifts(self, m):
        for c in range(1, m + 1):
            dec = ldc.build_sym_scheme(m, m - c, 2).decoders[0]
            s = pack(identity(m) ^ shift_matrix(m, c))
            d = pack(dec)
            assert gf2.mul(d, s) == gf2.mul(s, d) == gf2.eye(m), (m, c)


# Widths around the byte and word edges of the packed rows, 0 included;
# 512 is chain_rank_bound's 2*K*m at the K*m <= 256 cap.
EDGE_WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65, 512]
EDGE_SHAPES = [(r, c) for r in (0, 1, 8, 9, 65) for c in EDGE_WIDTHS] \
    + [(256, 512), (512, 65)]


def random_invertible_lu(n, rng):
    """Unit lower times unit upper triangular: invertible by
    construction, without calling the code under test."""
    lower = np.tril(random_matrix(rng, n, n), -1) | identity(n)
    upper = np.triu(random_matrix(rng, n, n), 1) | identity(n)
    return float_matmul(lower, upper)


def random_of_rank(rng, rows, cols, r):
    """P diag(1, ..., 1, 0, ..., 0) Q with r ones: rank exactly r."""
    d = np.eye(rows, cols, dtype=np.uint8)
    d[r:] = 0
    return float_matmul(float_matmul(random_invertible_lu(rows, rng), d),
                        random_invertible_lu(cols, rng))


class TestPackingEdges:
    @pytest.mark.parametrize("rows,cols", EDGE_SHAPES)
    def test_rank_of_constructed_matrices(self, rows, cols):
        rng = np.random.default_rng(rows * 1000 + cols)
        for r in sorted({0, min(rows, cols) // 2, min(rows, cols)}):
            a = random_of_rank(rng, rows, cols, r)
            assert rank(a) == rank(a.T) == r

    @pytest.mark.parametrize("rows,cols", EDGE_SHAPES)
    def test_mul_and_helpers(self, rows, cols):
        rng = np.random.default_rng(rows * 1000 + cols + 3)
        a = random_matrix(rng, rows, cols)
        b = random_matrix(rng, cols, 9)
        rows_a = pack(a)
        assert len(rows_a) == rows and all(r >> cols == 0 for r in rows_a)
        assert np.array_equal(gf2.unpack(rows_a, cols), a)
        assert gf2.unpack(rows_a, cols).dtype == np.uint8
        assert gf2.mul(rows_a, pack(b)) == pack(float_matmul(a, b))
        # on columns, mul(B's, A's) gives the columns of A @ B
        assert gf2.mul(pack(b.T), pack(a.T)) \
            == pack(float_matmul(a, b).T)
        assert gf2.eye(cols) == pack(identity(cols))

    @pytest.mark.parametrize("rows,cols", EDGE_SHAPES)
    def test_row_echelon_is_reduced_and_spans_the_rows(self, rows, cols):
        rng = np.random.default_rng(rows * 1000 + cols + 1)
        a = random_of_rank(rng, rows, cols, min(rows, cols) * 2 // 3)
        rows_r, pivots = gf2.rref(pack(a), cols)
        k = len(pivots)
        r = gf2.unpack(rows_r, cols)
        assert r.shape == (k, cols) and k == rank(a)
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert not r[i, :p].any() and r[i, p] == 1
        assert np.array_equal(r[:, pivots], identity(k))
        # every row of a is its pivot entries times R's rows, and R's
        # rows are combinations of a's rows
        assert np.array_equal(float_matmul(a[:, pivots], r), a)
        assert gf2.solve(pack(a.T), rows, pack(r.T), k) is not None
        assert gf2.independent(pack(a.T))[0] == pivots

    @pytest.mark.parametrize("rows,cols", EDGE_SHAPES)
    def test_solve_and_nullspace_identities(self, rows, cols):
        rng = np.random.default_rng(rows * 1000 + cols + 2)
        a = random_of_rank(rng, rows, cols, min(rows, cols) // 2)
        r = rank(a)
        b = float_matmul(a, random_matrix(rng, cols, 3))
        x = gf2.unpack(gf2.solve(pack(a), cols, pack(b), 3), 3)
        assert x.shape == (cols, 3)
        assert np.array_equal(float_matmul(a, x), b)
        pivots = gf2.rref(pack(a), cols)[1]
        free = [c for c in range(cols) if c not in pivots]
        assert not x[free].any()     # free variables are zero
        assert gf2.independent(pack(a.T))[0] == pivots
        ker = kernel(a)
        assert ker.shape == (cols, cols - r)
        assert not float_matmul(a, ker).any()
        assert rank(ker) == cols - r

    @pytest.mark.parametrize("rows,cols", [(9, 8), (65, 64), (512, 65)])
    def test_inconsistent_system(self, rows, cols):
        rng = np.random.default_rng(rows + cols)
        p = random_invertible_lu(rows, rng)
        d = np.eye(rows, cols, dtype=np.uint8)
        a = float_matmul(p, d)       # column space: p's first cols columns
        assert gf2.solve(pack(a), cols, pack(p[:, -1:]), 1) is None

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 256])
    def test_invert_round_trip(self, n):
        rng = np.random.default_rng(n)
        m = random_invertible_lu(n, rng)
        inv = inverse(m)
        assert inv.shape == (n, n) and inv.dtype == np.uint8
        assert np.array_equal(float_matmul(m, inv), identity(n))
        assert np.array_equal(float_matmul(inv, m), identity(n))
        if n:
            assert inverse(random_of_rank(rng, n, n, n - 1)) is None

    def test_empty_matrices(self):
        for rows, cols in [(0, 0), (0, 5), (5, 0), (0, 64)]:
            a = pack(zeros(rows, cols))
            assert gf2.rref(a, cols) == ([], [])
            assert rank(zeros(rows, cols)) == 0
            assert gf2.independent([0] * cols, gf2.eye(cols)) \
                == ([], gf2.eye(cols))
            assert gf2.solve(a, cols, pack(zeros(rows, 2)), 2) \
                == [0] * cols
        assert gf2.solve([], 0, [], 0) == []
        assert gf2.solve(pack(zeros(2, 0)), 0, gf2.eye(2), 2) is None


@st.composite
def column_sets(draw):
    """(width, vectors): zero, repeated and dependent vectors among
    random ones, widths 0 to 512 (chain_rank_bound's 2*K*m at the cap)."""
    width = draw(st.sampled_from([0, 1, 2, 5, 63, 64, 65, 512]))
    out = []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "sum"]))
        if kind == "zero" or (kind != "random" and not out):
            v = 0
        elif kind == "repeat":
            v = draw(st.sampled_from(out))
        elif kind == "sum":
            v = 0
            for u in draw(st.lists(st.sampled_from(out), max_size=4)):
                v ^= u
        else:
            v = draw(st.integers(0, (1 << width) - 1))
        out.append(v)
    return width, out


class TestIndependent:
    """independent against rref's pivots and the nullspace oracle."""

    @given(column_sets())
    def test_pivots_are_rrefs(self, case):
        width, vectors = case
        rows = pack(gf2.unpack(vectors, width).T)
        found, dependent = gf2.independent(vectors)
        assert found == gf2.rref(rows, len(vectors))[1]
        assert dependent == [0] * (len(vectors) - len(found))

    @given(column_sets())
    def test_unit_tags_give_the_nullspace(self, case):
        width, vectors = case
        n = len(vectors)
        a = gf2.unpack(vectors, width).T
        ker = gf2.independent(vectors, gf2.eye(n))[1]
        assert ker == oracle_nullspace(pack(a), n)
        assert len(ker) == n - rank(a)
        assert not float_matmul(a, gf2.unpack(ker, n).T).any()

    @given(column_sets(), st.integers(0, 2 ** 31 - 1))
    def test_tags_follow_the_unique_sum(self, case, seed):
        # the reduced tag of vector j is the XOR of the tags of j and of
        # the vectors in its kernel vector's support
        _, vectors = case
        n = len(vectors)
        rng = np.random.default_rng(seed)
        tags = [int(t) for t in rng.integers(0, 1 << 62, size=n)]
        ker = gf2.independent(vectors, gf2.eye(n))[1]
        assert gf2.independent(vectors, tags)[1] == gf2.mul(ker, tags)

    def test_first_of_equal_vectors_is_kept(self):
        assert gf2.independent([0, 6, 6, 3, 5]) == ([1, 3], [0, 0, 0])
        assert gf2.independent([0, 6, 6, 3, 5], [1, 2, 4, 8, 16]) \
            == ([1, 3], [1, 6, 26])
        assert gf2.independent([]) == ([], [])
