"""Linear deterministic channel: bounds, constructions, verification."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifc_cms import gf2, ldc
from test_gf2 import (decoders, encoders, float_matmul, oracle_nullspace,
                      pack, rank, rref, shift_matrix, unpack)


def channel_matrix(g, l, i):
    """The m x m uint8 map S^(m - n[l][i]) from X_i to Y_l."""
    return shift_matrix(g.m, g.m - g.n[l][i])


def packed_scheme(rates, encoders, decoders):
    """An LdcScheme from uint8 arrays: encoder i m x total_bits, decoder
    l r_l x m (the inverse of encoders and decoders)."""
    return ldc.LdcScheme(tuple(rates), encoders[0].shape[0],
                         tuple(pack(np.vstack(encoders).T)),
                         tuple(tuple(pack(d.T)) for d in decoders))


def decode_all(g, s, w):
    """Every decoder's output for the message-word columns w, simulated
    through the channel shift matrices."""
    xs = [float_matmul(e, w) for e in encoders(s)]
    ys = [sum(float_matmul(channel_matrix(g, l, i), xs[i])
              for i in range(g.k)) % 2 for l in range(g.k)]
    return [float_matmul(d, y) for d, y in zip(decoders(s), ys)]


def enumeration_counterexample(g, s):
    """Reference for verify_scheme: simulate all 2**total_bits message
    tuples (at most 12 bits) and return the first (messages, user,
    decoded) that a decoder gets wrong, or None."""
    assert s.total_bits <= 12
    w = np.array(list(itertools.product((0, 1), repeat=s.total_bits)),
                 dtype=np.uint8).T
    for l, got in enumerate(decode_all(g, s, w)):
        bad = np.nonzero((got != w[s.message_slice(l)]).any(axis=0))[0]
        if bad.size:
            j = bad[0]
            msgs = tuple(tuple(int(b) for b in w[s.message_slice(u), j])
                         for u in range(g.k))
            return msgs, l, tuple(int(b) for b in got[:, j])
    return None


def assert_real_counterexample(g, s, counterexample):
    """The reported message tuple, replayed through the channel, is
    decoded as reported and wrongly."""
    msgs, user, decoded = counterexample
    w = np.concatenate([np.array(m, dtype=np.uint8) for m in msgs])
    got = decode_all(g, s, w[:, None])[user][:, 0]
    assert tuple(int(b) for b in got) == decoded
    assert decoded != msgs[user]


def entropy_sum(g):
    """Oracle for the dominance check's objective: H(Y1) + H(Y2|X1,Y1)
    + H(Y3|X1,Y1,X2,Y2) of one joint input distribution on
    ({0,1}^m)^3, evaluated with one bincount per joint entropy."""
    m, size = g.m, 1 << g.m
    xs = np.arange(size, dtype=np.int64)
    xbits = ((xs[None, :] >> np.arange(m - 1, -1, -1)[:, None]) & 1)
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    i1, i2, i3 = (i.ravel() for i in np.meshgrid(xs, xs, xs, indexing="ij"))
    y1, y2, y3 = (weights @ (sum(channel_matrix(g, l, i).astype(np.int64)
                                 @ xbits[:, idx]
                                 for i, idx in enumerate((i1, i2, i3))) % 2)
                  for l in range(3))

    def evaluate(p):
        def joint_entropy(*keys):
            key = np.zeros(p.shape, dtype=np.int64)
            for k_arr in keys:
                key = key * size + k_arr
            agg = np.bincount(key, weights=p)
            agg = agg[agg > 0]
            return float(-(agg * np.log2(agg)).sum())

        return (joint_entropy(y1)
                + (joint_entropy(i1, y1, y2) - joint_entropy(i1, y1))
                + (joint_entropy(i1, y1, i2, y2, y3)
                   - joint_entropy(i1, y1, i2, y2)))

    return evaluate


def per_trial_dominance(g, trials, seed):
    """Entropy audit of outer_bound_dominance_check: the uniform input
    and one Dirichlet draw per trial, one evaluation each.  Returns
    (max_observed, uniform_value)."""
    evaluate, n = entropy_sum(g), 8 ** g.m
    uniform = evaluate(np.full(n, 1.0 / n))
    rng = np.random.default_rng(seed)
    max_obs = uniform
    for _ in range(trials):
        max_obs = max(max_obs, evaluate(rng.dirichlet(np.ones(n))))
    return max_obs, uniform


DOMINANCE_CHANNELS = [
    [[2, 1, 0], [0, 2, 1], [1, 0, 2]],
    [[3, 1, 2], [0, 3, 1], [2, 2, 3]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
]
ORACLE_CHANNELS = DOMINANCE_CHANNELS + np.random.default_rng(11).integers(
    0, 4, size=(20, 3, 3)).tolist()


@st.composite
def small_schemes(draw):
    """A built scheme of at most 12 message bits, possibly sabotaged by
    a flipped encoder or decoder bit or a zeroed encoder."""
    if draw(st.booleans()):
        nd, ni = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        k = draw(st.integers(2, 4))
        g = ldc.LdcGains.symmetric(nd, ni, k)
        s = ldc.build_sym_scheme(nd, ni, k)
    else:
        # m <= 3 keeps even a K = 4 chain scheme within 12 bits
        k = draw(st.integers(3, 4))
        g = ldc.LdcGains.from_matrix(draw(st.lists(
            st.lists(st.integers(0, 3), min_size=k, max_size=k),
            min_size=k, max_size=k)))
        s = ldc.build_chain_scheme(g)
    kind = draw(st.sampled_from(["none", "encoder", "decoder", "zero"]))
    if kind == "none":
        return g, s
    mats = list(decoders(s) if kind == "decoder" else encoders(s))
    i = draw(st.integers(0, g.k - 1))
    a = mats[i].copy()
    if kind == "zero":
        a[:, :] = 0
    elif a.size:
        a[draw(st.integers(0, a.shape[0] - 1)),
          draw(st.integers(0, a.shape[1] - 1))] ^= 1
    mats[i] = a
    if kind == "decoder":
        return g, packed_scheme(s.rates, encoders(s), mats)
    return g, packed_scheme(s.rates, mats, decoders(s))


def unit_counterexample(g, s):
    """verify_scheme's counterexample by simulation: every unit message
    e_j through the channel, receivers in order, then columns left to
    right; the first one decoded wrongly, or None."""
    w = np.eye(s.total_bits, dtype=np.uint8)
    for l, got in enumerate(decode_all(g, s, w)):
        bad = np.nonzero((got != w[s.message_slice(l)]).any(axis=0))[0]
        if bad.size:
            j = bad[0]
            msgs = tuple(tuple(int(b) for b in w[s.message_slice(u), j])
                         for u in range(g.k))
            return msgs, l, tuple(int(b) for b in got[:, j])
    return None


def flip_one_bit_each(s, rng):
    """s with one encoder bit and one decoder bit flipped (in a matrix
    that has any)."""
    enc, dec = list(encoders(s)), list(decoders(s))
    for mats in (enc, dec):
        sized = [i for i, a in enumerate(mats) if a.size]
        if sized:
            i = sized[int(rng.integers(len(sized)))]
            a = mats[i].copy()
            a[int(rng.integers(a.shape[0])),
              int(rng.integers(a.shape[1]))] ^= 1
            mats[i] = a
    return packed_scheme(s.rates, enc, dec)


def ldc_algebra_digest():
    """SHA-256 over the rates and the encoder and decoder bytes of
    symmetric and chain schemes, chain_rank_bound, and the
    verify_scheme reports of each chain scheme and a sabotaged copy:
    random channels at K 2-6 with gains 0..7, and three near the
    K * m <= 256 cap."""
    rng = np.random.default_rng(20130125)
    channels = [rng.integers(0, 8, size=(k, k))
                for k in range(2, 7) for _ in range(8)]
    for k, m in ((4, 60), (8, 32), (2, 128)):
        n = rng.integers(0, m + 1, size=(k, k))
        n[0, 0] = m
        channels.append(n)
    h = hashlib.sha256()

    def put(*vals):
        h.update(repr(vals).encode())

    def put_scheme(s):
        put(s.rates)
        for a in encoders(s) + decoders(s):
            put(a.dtype.str, a.shape, a.tobytes())

    for k, nd, ni in itertools.product((2, 3, 5), (0, 2, 5), (0, 1, 5)):
        put_scheme(ldc.build_sym_scheme(nd, ni, k))
    for n in channels:
        g = ldc.LdcGains.from_matrix(n)
        s = ldc.build_chain_scheme(g)
        put(g.n, ldc.chain_rank_bound(g))
        put_scheme(s)
        for t in (s, flip_one_bit_each(s, rng)):
            r = ldc.verify_scheme(g, t)
            put(r.passed, r.mode, r.tuples_checked, r.counterexample)
    return h.hexdigest()


def rank_difference_oracle(c, d, a, b):
    """Independent oracle for f: the rank increment at the second
    receiver once the first receiver's observation space is fixed."""
    m = max(a, b, c, d)
    if m == 0:
        return 0
    first = np.hstack([shift_matrix(m, m - a), shift_matrix(m, m - b)])
    second = np.hstack([shift_matrix(m, m - c), shift_matrix(m, m - d)])
    return rank(np.vstack([first, second])) - rank(first)


class TestFFunction:
    def test_complete_grid_matches_rank_oracle(self):
        for c, d, a, b in itertools.product(range(5), repeat=4):
            assert ldc.f_function(c, d, a, b) == \
                rank_difference_oracle(c, d, a, b), (c, d, a, b)

    def test_spot_values(self):
        assert ldc.f_function(3, 1, 2, 0) == 1
        assert ldc.f_function(2, 2, 2, 2) == 0
        assert ldc.f_function(4, 0, 0, 0) == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ldc.f_function(-1, 0, 0, 0)


class TestGains:
    @pytest.mark.parametrize("rows", [[], [[]], [[1, 2]], [[1], [2]]])
    def test_rejects_empty_and_non_square_matrices(self, rows):
        with pytest.raises(ValueError):
            ldc.LdcGains.from_matrix(rows)

    def test_rejects_zero_users(self):
        with pytest.raises(ValueError):
            ldc.LdcGains.symmetric(2, 1, 0)

    @pytest.mark.parametrize("rows", [[[2.7, 0], [0, 1]], [[2.0, 0], [0, 1]],
                                      [[-0.5, 1], [1, 1]], [["3"]],
                                      [[np.float64(1.0)]], [[-1]]])
    def test_from_matrix_rejects_non_integer_gains(self, rows):
        # entries are never rounded: the constructor's error, not int()
        with pytest.raises(ValueError, match="non-negative integers"):
            ldc.LdcGains.from_matrix(rows)

    def test_from_matrix_takes_numpy_integers(self):
        g = ldc.LdcGains.from_matrix(np.array([[3, 1], [np.uint8(0), 2]]))
        assert g.n == ((3, 1), (0, 2))
        assert all(type(v) is int for row in g.n for v in row)


class TestOuterBound3:
    def test_breakdown_terms(self):
        g = ldc.LdcGains.from_matrix([[3, 1, 2], [0, 4, 1], [2, 2, 5]])
        bound = ldc.ldc3_sum_outer(g)
        terms = dict(bound.terms)
        assert terms["rx1_full"] == 3
        assert terms["rx2_conditional"] == ldc.f_function(4, 1, 1, 2)
        assert terms["rx3_private"] == max(0, 5 - max(2, 1))
        assert bound.value == sum(terms.values())

    def test_symmetric_specialization(self):
        # for nd != ni the 3-user formula collapses to the K-user one
        for nd, ni in itertools.product(range(5), repeat=2):
            if nd == ni:
                continue
            g = ldc.LdcGains.symmetric(nd, ni, 3)
            expected = 2 * max(nd, ni) + max(0, nd - ni)
            assert ldc.ldc3_sum_outer(g).value == expected

    def test_matches_chain_rank_bound_on_random_channels(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            g = ldc.LdcGains.from_matrix(rng.integers(0, 6, size=(3, 3)))
            assert ldc.ldc3_sum_outer(g).value == ldc.chain_rank_bound(g), \
                g.n

    def test_requires_three_users(self):
        with pytest.raises(ValueError):
            ldc.ldc3_sum_outer(ldc.LdcGains.symmetric(2, 1, 4))


def oracle_chain_rank_bound(g):
    """chain_rank_bound as 2K rank calls: sum_l rank[C_l; Y_l] - rank C_l,
    with C_l stacking X_<l and Y_<l."""
    k, m = g.k, g.m
    known, total = np.zeros((0, k * m), np.uint8), 0
    for l in range(k):
        y = np.hstack([channel_matrix(g, l, i) for i in range(k)])
        total += rank(np.vstack([known, y])) - rank(known)
        x = np.eye(m, k * m, l * m, dtype=np.uint8)
        known = np.vstack([known, y, x])
    return total


class TestChainRankBound:
    def test_pivot_count_matches_rank_increments(self):
        # K 2-6, largest gains 0-6, and all gains 0 (m = 0) at every K
        rng = np.random.default_rng(8)
        for k in range(2, 7):
            gains = [rng.integers(0, top + 1, size=(k, k))
                     for top in rng.integers(0, 7, size=60)]
            for n in gains + [np.zeros((k, k), dtype=int)]:
                g = ldc.LdcGains.from_matrix(n)
                assert ldc.chain_rank_bound(g) == \
                    oracle_chain_rank_bound(g), g.n


class TestSymCapacityFormula:
    def test_main_branch(self):
        assert ldc.ldc_k_sym_sum_capacity(4, 2, 3).value == 10
        assert ldc.ldc_k_sym_sum_capacity(2, 4, 3).value == 8
        assert ldc.ldc_k_sym_sum_capacity(4, 2, 5).value == 18

    def test_mac_branch(self):
        bound = ldc.ldc_k_sym_sum_capacity(3, 3, 4)
        assert bound.value == 3
        assert bound.note == "mac"

    def test_degenerate_branches(self):
        assert ldc.ldc_k_sym_sum_capacity(0, 0, 3).value == 0
        assert ldc.ldc_k_sym_sum_capacity(0, 3, 3).value == 6

    def test_matches_chain_rank_bound(self):
        # nd == 0 with K >= 4 carries (K-1)*ni bits, not 2*ni
        for k, nd, ni in itertools.product(range(3, 6), range(5), range(5)):
            g = ldc.LdcGains.symmetric(nd, ni, k)
            assert ldc.ldc_k_sym_sum_capacity(nd, ni, k).value == \
                ldc.chain_rank_bound(g) == \
                ldc.build_sym_scheme(nd, ni, k).total_bits, (nd, ni, k)

    def test_rejects_bad_args(self):
        # never rounded: 2.5 bits of gain is not an integer capacity
        for fn in (ldc.ldc_k_sym_sum_capacity, ldc.build_sym_scheme,
                   ldc.LdcGains.symmetric):
            for args in [(-1, 0, 3), (1, 1, 1), (2.5, 1, 3), (3, 1, 2.5),
                         (2, 1.0, 3), (3, 1, "3")]:
                with pytest.raises(ValueError, match="need integers"):
                    fn(*args)

    def test_takes_numpy_integers(self):
        args = (np.int64(3), np.uint8(1), np.int32(3))
        bound = ldc.ldc_k_sym_sum_capacity(*args)
        assert bound == ldc.ldc_k_sym_sum_capacity(3, 1, 3)
        assert type(bound.value) is int
        assert ldc.build_sym_scheme(*args) == ldc.build_sym_scheme(3, 1, 3)
        assert ldc.LdcGains.symmetric(*args) == ldc.LdcGains.symmetric(3, 1, 3)


class TestSymScheme:
    @pytest.mark.parametrize("nd,ni,k", [(4, 2, 3), (2, 4, 3), (5, 1, 4),
                                         (1, 5, 2), (3, 0, 3), (0, 3, 4)])
    def test_exhaustive_verification(self, nd, ni, k):
        g = ldc.LdcGains.symmetric(nd, ni, k)
        s = ldc.build_sym_scheme(nd, ni, k)
        assert s.respects_cms()
        report = ldc.verify_scheme(g, s, mode="exhaustive")
        assert report.passed, report.counterexample
        assert s.total_bits == (k - 1) * max(nd, ni) + max(0, nd - ni)

    def test_mac_corner(self):
        g = ldc.LdcGains.symmetric(3, 3, 3)
        s = ldc.build_sym_scheme(3, 3, 3)
        assert s.rates == (3, 0, 0)
        assert ldc.verify_scheme(g, s, mode="exhaustive").passed

    def test_per_user_rates(self):
        s = ldc.build_sym_scheme(2, 1, 3)
        assert s.rates == (2, 2, 1)

    def test_only_transmitter_k_is_cognitive(self):
        # "only transmitter K needs cognition": a message bit of user
        # l < K reaches X_l and X_K only (X_1 in the top bits)
        checked = 0
        for k, nd, ni in itertools.product(range(2, 7), range(7), range(7)):
            s = ldc.build_sym_scheme(nd, ni, k)
            block = (1 << s.m) - 1
            users = (l for l, r in enumerate(s.rates) for _ in range(r))
            for l, c in zip(users, s.columns, strict=True):
                allowed = block << (k - 1 - l) * s.m | block
                assert c & ~allowed == 0, (nd, ni, k, l)
                checked += 1
        assert checked == 3115

    def test_views_match_array_oracle(self):
        for k, nd, ni in itertools.product(range(2, 9), range(9), range(9)):
            s = ldc.build_sym_scheme(nd, ni, k)
            rates, enc, dec = oracle_sym_scheme(nd, ni, k)
            assert s.rates == rates, (nd, ni, k)
            assert_same_arrays(encoders(s) + decoders(s), enc + dec)
            assert s == packed_scheme(rates, enc, dec), (nd, ni, k)


class TestSchemeValue:
    def test_equal_schemes_compare_and_hash_equal(self):
        s, t = ldc.build_sym_scheme(2, 1, 3), ldc.build_sym_scheme(2, 1, 3)
        assert s == t and hash(s) == hash(t)
        assert len({s, t, ldc.build_sym_scheme(1, 2, 3)}) == 2
        g = ldc.LdcGains.from_matrix([[3, 1, 2], [0, 4, 1], [2, 2, 5]])
        c = ldc.build_chain_scheme(g)
        assert c == ldc.build_chain_scheme(g)
        assert hash(c) == hash(ldc.build_chain_scheme(g))
        assert flip_one_bit_each(c, np.random.default_rng(0)) != c
        assert c != s


class TestGenericScheme3:
    @pytest.mark.parametrize("n", [
        [[3, 1, 2], [0, 4, 1], [2, 2, 5]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[2, 2, 2], [2, 2, 2], [2, 2, 2]],
        [[0, 3, 1], [1, 0, 2], [3, 1, 0]],
        [[5, 5, 5], [5, 5, 5], [5, 5, 0]],
    ])
    def test_hits_outer_bound_and_verifies(self, n):
        g = ldc.LdcGains.from_matrix(n)
        s = ldc.build_chain_scheme(g)
        assert s.total_bits == ldc.ldc3_sum_outer(g).value
        assert s.respects_cms()
        assert ldc.verify_scheme(g, s, mode="exhaustive").passed

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_gains(self, seed):
        rng = np.random.default_rng(seed)
        g = ldc.LdcGains.from_matrix(rng.integers(0, 5, size=(3, 3)))
        s = ldc.build_chain_scheme(g)
        assert s.total_bits == ldc.ldc3_sum_outer(g).value
        assert ldc.verify_scheme(g, s).passed


@st.composite
def square_gains(draw, top=5):
    k = draw(st.integers(2, 6))
    return ldc.LdcGains.from_matrix(draw(st.lists(
        st.lists(st.integers(0, top), min_size=k, max_size=k),
        min_size=k, max_size=k)))


def transpose(rows, width):
    return pack(unpack(rows, width).T)


def oracle_chain_scheme(g):
    """build_chain_scheme on packed rows, as it was before it held its
    directions as columns: enc and ker are rows over the stacked inputs,
    each layer selects and transposes columns, and the kernel is
    multiplied in from rref's nullspace."""
    k, m = g.k, g.m
    enc = [0] * (k * m)
    ker, dim = gf2.eye(k * m), k * m
    rates, decoders = [], []
    for l in range(k):
        img = ldc._receive(g, l, ker)
        cols = rref(img, dim)[1]
        r = len(cols)
        v = pack(unpack(ker, dim)[:, cols])
        b_t = transpose(ldc._receive(g, l, v), r)
        d = transpose(gf2.solve(b_t, m, gf2.eye(r), r), r)
        upd = gf2.mul(v, gf2.mul(d, ldc._receive(g, l, enc)))
        enc = [(e ^ u) << r | vi for e, u, vi in zip(enc, upd, v)]
        rates.append(r)
        decoders.append(unpack(d, m))
        if l < k - 1:
            null = oracle_nullspace(img + ker[l * m:(l + 1) * m], dim)
            ker, dim = gf2.mul(ker, transpose(null, dim)), len(null)
    enc = unpack(enc, sum(rates))
    return packed_scheme(rates, [enc[i * m:(i + 1) * m] for i in range(k)],
                         decoders)


def assert_same_arrays(arrays, others):
    for a, b in zip(arrays, others, strict=True):
        assert (a.dtype, a.shape, a.tobytes()) \
            == (b.dtype, b.shape, b.tobytes())


def assert_same_scheme(s, t):
    assert s == t
    assert s.rates == t.rates
    assert_same_arrays(encoders(s) + decoders(s), encoders(t) + decoders(t))


def oracle_sym_scheme(nd, ni, k):
    """build_sym_scheme as uint8 arrays (rates, encoders, decoders), built
    the way it was before schemes were held packed: eye, hstack and the
    decoder as a sum of shift matrices."""
    if nd == ni:
        m, eye = nd, np.eye(nd, dtype=np.uint8)
        return ((m,) + (0,) * (k - 1),
                (eye,) + (np.zeros((m, m), np.uint8),) * (k - 1),
                (eye,) + (np.zeros((0, m), np.uint8),) * (k - 1))
    m, t = max(nd, ni), max(0, nd - ni)
    total = (k - 1) * m + t
    encoders = [np.eye(m, total, j * m, dtype=np.uint8) for j in range(k - 1)]
    b_top = np.diag(np.arange(m) < ni).astype(np.uint8)
    encoders.append(np.hstack([b_top] * (k - 1)
                              + [np.eye(m, t, -ni, dtype=np.uint8)]))
    dec_all = sum(shift_matrix(m, j) for j in range(0, m, abs(nd - ni)))
    decoders = [dec_all.copy() for _ in range(k - 1)]
    decoders.append(dec_all[ni:ni + t].copy())
    return (m,) * (k - 1) + (t,), tuple(encoders), tuple(decoders)


def oracle_verify_scheme(g, s):
    """verify_scheme on the uint8 arrays, the way it ran before schemes
    were held packed: the stacked encoders and decoders packed into
    rows, the channel a row shift, the leftmost wrong column reported."""
    total = s.total_bits
    enc = pack(np.vstack(encoders(s)) & 1)
    dec = pack(np.vstack(decoders(s)) & 1)
    for l, off in enumerate(s.offsets):
        got = gf2.mul(dec[off:off + s.rates[l]], ldc._receive(g, l, enc))
        lead = max(((row ^ 1 << total - 1 - off - q).bit_length()
                    for q, row in enumerate(got)), default=0)
        if lead:
            j = total - lead
            msgs = tuple(tuple(int(b == j) for b in
                               range(total)[s.message_slice(u)])
                         for u in range(g.k))
            cex = (msgs, l, tuple(row >> total - 1 - j & 1 for row in got))
            return ldc.VerificationReport(False, "exhaustive", 1 << total,
                                          cex)
    return ldc.VerificationReport(True, "exhaustive", 1 << total)


def oracle_respects_cms(s):
    """respects_cms on the uint8 encoders: encoder i has no nonzero
    column on the messages of users after i."""
    return not any(e[:, off + r:].any()
                   for e, off, r in zip(encoders(s), s.offsets, s.rates))


def cap_gains(k, m, seed):
    """Random gains at the K * m <= 256 cap, n[0][0] = m."""
    n = np.random.default_rng(seed).integers(0, m + 1, size=(k, k))
    n[0, 0] = m
    return ldc.LdcGains.from_matrix(n)


class TestChainScheme:
    @given(square_gains())
    @settings(max_examples=100, deadline=None)
    def test_meets_chain_rank_bound(self, g):
        s = ldc.build_chain_scheme(g)
        assert s.total_bits == ldc.chain_rank_bound(g)
        assert s.respects_cms()
        assert ldc.verify_scheme(g, s).passed

    @given(square_gains(7))
    @settings(max_examples=200, deadline=None)
    def test_matches_row_form_oracle(self, g):
        assert_same_scheme(ldc.build_chain_scheme(g), oracle_chain_scheme(g))

    @pytest.mark.parametrize("k,m", [(4, 60), (8, 32), (2, 128)])
    def test_matches_row_form_oracle_at_the_cap(self, k, m):
        for seed in range(3):
            g = cap_gains(k, m, seed)
            assert_same_scheme(ldc.build_chain_scheme(g),
                               oracle_chain_scheme(g))
        for g in (ldc.LdcGains.symmetric(0, 0, k),
                  ldc.LdcGains.symmetric(m, 0, k)):
            assert_same_scheme(ldc.build_chain_scheme(g),
                               oracle_chain_scheme(g))

    def test_three_user_rates_are_the_outer_bound_terms(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = ldc.LdcGains.from_matrix(rng.integers(0, 6, size=(3, 3)))
            terms = dict(ldc.ldc3_sum_outer(g).terms)
            assert ldc.build_chain_scheme(g).rates == (
                terms["rx1_full"], terms["rx2_conditional"],
                terms["rx3_private"]), g.n

    def test_symmetric_grid_meets_capacity(self):
        for k, nd, ni in itertools.product(range(2, 7), range(7), range(7)):
            g = ldc.LdcGains.symmetric(nd, ni, k)
            s = ldc.build_chain_scheme(g)
            assert s.total_bits == \
                ldc.ldc_k_sym_sum_capacity(nd, ni, k).value, (nd, ni, k)
            assert s.respects_cms(), (nd, ni, k)
            assert ldc.verify_scheme(g, s).passed, (nd, ni, k)

    def test_generic3_shim(self):
        g = ldc.LdcGains.from_matrix([[3, 1, 2], [0, 4, 1], [2, 2, 5]])
        want = ldc.build_chain_scheme(g)
        for seed in (0, 1, 12345):
            s = ldc.build_generic3_scheme(g, seed=seed)
            assert s.rates == want.rates
            for a, b in zip(encoders(s) + decoders(s),
                            encoders(want) + decoders(want)):
                assert np.array_equal(a, b)
        for k in (2, 4):
            with pytest.raises(ValueError):
                ldc.build_generic3_scheme(ldc.LdcGains.symmetric(2, 1, k))


class TestVerifyScheme:
    def test_detects_sabotaged_decoder(self):
        g = ldc.LdcGains.symmetric(4, 2, 3)
        s = ldc.build_sym_scheme(4, 2, 3)
        bad_dec = list(decoders(s))
        d0 = bad_dec[0].copy()
        d0[0, 0] ^= 1
        bad_dec[0] = d0
        broken = packed_scheme(s.rates, encoders(s), bad_dec)
        report = ldc.verify_scheme(g, broken, mode="exhaustive")
        assert not report.passed
        assert report.counterexample is not None
        msgs, user, decoded = report.counterexample
        assert user == 0
        assert decoded != msgs[0]

    def test_detects_zeroed_encoder(self):
        g = ldc.LdcGains.symmetric(4, 2, 3)
        s = ldc.build_sym_scheme(4, 2, 3)
        bad_enc = list(encoders(s))
        e1 = bad_enc[1].copy()
        e1[:, :] = 0
        bad_enc[1] = e1
        broken = packed_scheme(s.rates, bad_enc, decoders(s))
        report = ldc.verify_scheme(g, broken)
        assert not report.passed
        assert_real_counterexample(g, broken, report.counterexample)

    def test_auto_picks_exhaustive_for_small(self):
        g = ldc.LdcGains.symmetric(2, 1, 3)
        s = ldc.build_sym_scheme(2, 1, 3)
        assert ldc.verify_scheme(g, s, mode="auto").mode == "exhaustive"

    def test_auto_proves_large_scheme(self):
        g = ldc.LdcGains.symmetric(6, 3, 6)
        s = ldc.build_sym_scheme(6, 3, 6)
        report = ldc.verify_scheme(g, s, mode="auto")
        assert s.total_bits == 33
        assert report.mode == "exhaustive"
        assert report.tuples_checked == 2 ** 33
        assert report.passed

    def test_rejects_unknown_mode(self):
        g = ldc.LdcGains.symmetric(2, 1, 3)
        with pytest.raises(ValueError):
            ldc.verify_scheme(g, ldc.build_sym_scheme(2, 1, 3),
                              mode="sampled")

    def test_rejects_bad_decoder_shape(self):
        # m = 2 decoder columns per user, rates (2, 2, 1)
        g = ldc.LdcGains.symmetric(2, 1, 3)
        s = ldc.build_sym_scheme(2, 1, 3)
        d = s.decoder_columns
        for bad in ((d[0][:1],) + d[1:],               # m - 1 columns
                    (d[0] + (0,),) + d[1:],            # m + 1 columns
                    d[:2],                             # a decoder short
                    d[:2] + ((2, 0),),                 # 2 bits at rate 1
                    d[:2] + ((-1, 0),)):
            with pytest.raises(ValueError, match="dimensions"):
                ldc.verify_scheme(g, dataclasses.replace(
                    s, decoder_columns=bad))

    def test_rejects_bad_encoder_shape(self):
        g = ldc.LdcGains.symmetric(2, 1, 3)
        s = ldc.build_sym_scheme(2, 1, 3)
        c = s.columns
        # K*m = 6 bits per column
        for bad in (c[:-1], c + (0,), c[:-1] + (1 << 6,), c[:-1] + (-1,)):
            with pytest.raises(ValueError, match="dimensions"):
                ldc.verify_scheme(g, dataclasses.replace(s, columns=bad))
        with pytest.raises(ValueError, match="dimensions"):
            ldc.verify_scheme(g, dataclasses.replace(s, m=3))

    @given(small_schemes())
    @settings(max_examples=300, deadline=None)
    def test_matches_row_form_oracle(self, case):
        g, s = case
        assert ldc.verify_scheme(g, s) == oracle_verify_scheme(g, s)

    @pytest.mark.parametrize("k,m", [(4, 60), (8, 32), (2, 128)])
    def test_matches_row_form_oracle_at_the_cap(self, k, m):
        rng = np.random.default_rng(k * m)
        for seed in range(3):
            g = cap_gains(k, m, seed)
            s = ldc.build_chain_scheme(g)
            for t in [s] + [flip_one_bit_each(s, rng) for _ in range(5)]:
                assert ldc.verify_scheme(g, t) == oracle_verify_scheme(g, t)

    @given(small_schemes())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_enumeration(self, case):
        g, s = case
        report = ldc.verify_scheme(g, s)
        assert report.tuples_checked == 2 ** s.total_bits
        cex = enumeration_counterexample(g, s)
        assert report.passed == (cex is None)
        if cex is not None:
            assert_real_counterexample(g, s, cex)
            assert_real_counterexample(g, s, report.counterexample)

    def test_sabotaged_k3_to_k5_counterexamples(self):
        # enumeration_counterexample walks messages in lexicographic
        # order, so it finds the rightmost failing column; verify_scheme
        # reports the leftmost.  Both agree on the verdict and the user,
        # and on the whole triple when one column fails.
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 60:
            k = int(rng.integers(3, 6))
            g = ldc.LdcGains.from_matrix(rng.integers(0, 3, size=(k, k)))
            s = ldc.build_chain_scheme(g)
            if s.total_bits > 12:
                continue
            broken = flip_one_bit_each(s, rng)
            report = ldc.verify_scheme(g, broken)
            cex = enumeration_counterexample(g, broken)
            assert report.passed == (cex is None), g.n
            assert report.counterexample == unit_counterexample(g, broken)
            if cex is not None:
                checked += 1
                assert report.counterexample[1] == cex[1], g.n
                assert_real_counterexample(g, broken, report.counterexample)
                w = np.eye(s.total_bits, dtype=np.uint8)
                got = decode_all(g, broken, w)
                want = w[s.message_slice(cex[1])]
                if np.count_nonzero((got[cex[1]] != want).any(axis=0)) == 1:
                    assert report.counterexample == cex, g.n


class TestByteIdentity:
    def test_ldc_algebra_digest(self):
        # Pinned before the GF(2) rows were bit-packed: the schemes,
        # bounds and verdicts are the same bits.
        assert ldc_algebra_digest() == (
            "01ce999f7ceb582f67c5447dba13fa7b"
            "0107695d99cad3ee0de6130d460adec1")


class TestDominance:
    def test_uniform_input_attains_bound_on_invertible_channel(self):
        g = ldc.LdcGains.from_matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]])
        report = ldc.outer_bound_dominance_check(g, trials=50, seed=0)
        assert report.all_within
        assert report.max_observed <= report.closed_form + 1e-12

    @pytest.mark.parametrize("n", ORACLE_CHANNELS)
    def test_chunked_trials_match_per_trial_loop(self, n):
        # the certificate is the exact maximum: the uniform input's
        # entropy sum equals it and no random input exceeds it
        g = ldc.LdcGains.from_matrix(n)
        report = ldc.outer_bound_dominance_check(g, trials=150, seed=3)
        max_obs, uniform = per_trial_dominance(g, trials=150, seed=3)
        assert report.max_observed == pytest.approx(max_obs, abs=1e-12)
        assert report.uniform_value == pytest.approx(uniform, abs=1e-12)

    @pytest.mark.parametrize("n", ORACLE_CHANNELS)
    def test_batched_sums_match_single_distribution(self, n):
        # random rows beat nothing, so the maximum alone cannot show a
        # row the certificate undercuts; check every row of a batch,
        # sparse rows and a point mass included
        g = ldc.LdcGains.from_matrix(n)
        report = ldc.outer_bound_dominance_check(g)
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(8 ** g.m), size=64)
        p[:8] *= rng.integers(0, 2, size=p[:8].shape)
        p[:8, 0] += 1 - p[:8].sum(axis=1)
        p[8] = np.eye(8 ** g.m)[-1]
        got = [entropy_sum(g)(row) for row in p]
        assert max(got) <= report.support_bound + 1e-12
        assert got[8] == pytest.approx(0.0, abs=1e-12)

    def test_support_bound_certifies_closed_form(self):
        g = ldc.LdcGains.from_matrix([[3, 1, 2], [0, 3, 1], [2, 2, 3]])
        report = ldc.outer_bound_dominance_check(g, trials=0)
        assert report.support_bound == report.closed_form
        assert report.all_within

    def test_support_bound_above_closed_form_fails(self, monkeypatch):
        g = ldc.LdcGains.from_matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]])
        closed = ldc.ldc3_sum_outer(g).value
        monkeypatch.setattr(ldc, "chain_rank_bound", lambda g: closed + 1)
        report = ldc.outer_bound_dominance_check(g, trials=10)
        assert report.max_observed == closed + 1
        assert not report.all_within

    def test_certifies_any_m_and_rejects_other_k(self):
        for n in ([[4, 1, 0], [1, 4, 1], [1, 1, 4]],
                  [[3, 1, 2], [0, 4, 1], [2, 2, 5]],
                  [[6, 2, 1], [3, 6, 0], [1, 4, 6]]):
            g = ldc.LdcGains.from_matrix(n)
            report = ldc.outer_bound_dominance_check(g)
            assert report.support_bound == report.closed_form, n
            assert report.all_within, n
        with pytest.raises(ValueError):
            ldc.outer_bound_dominance_check(ldc.LdcGains.symmetric(2, 1, 4))


class TestCmsConstraint:
    def test_violation_detected(self):
        s = ldc.build_sym_scheme(4, 2, 3)
        bad = list(encoders(s))
        e0 = bad[0].copy()
        e0[0, -1] = 1  # transmitter 1 touching user 3's message
        bad[0] = e0
        broken = packed_scheme(s.rates, bad, decoders(s))
        assert not broken.respects_cms()

    @given(small_schemes())
    @settings(max_examples=200, deadline=None)
    def test_mask_matches_array_check(self, case):
        _, s = case
        assert s.respects_cms() == oracle_respects_cms(s)

    @pytest.mark.parametrize("n", [[[4, 2, 2], [2, 4, 2], [2, 2, 4]],
                                   [[3, 1, 2], [0, 4, 1], [2, 2, 5]],
                                   [[2, 1, 0, 2], [0, 2, 1, 1],
                                    [1, 0, 2, 2], [2, 2, 1, 2]]])
    def test_mask_matches_array_check_on_every_bit_flip(self, n):
        g = ldc.LdcGains.from_matrix(n)
        for s in (ldc.build_chain_scheme(g),
                  ldc.build_sym_scheme(g.n[0][0], g.n[0][1], g.k)):
            flips, dec = 0, decoders(s)
            for i, e in enumerate(encoders(s)):
                for r, c in itertools.product(*map(range, e.shape)):
                    enc = list(encoders(s))
                    enc[i] = e.copy()
                    enc[i][r, c] ^= 1
                    t = packed_scheme(s.rates, enc, dec)
                    assert t.respects_cms() == oracle_respects_cms(t)
                    flips += not t.respects_cms()
            assert flips > 0
