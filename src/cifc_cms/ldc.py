"""Linear deterministic channel: sum-rate bounds, constructive schemes,
and exact decodability verification.

The channel is Y_l = sum_i S^(m - n[l][i]) X_i over GF(2), where the
gains n[l][i] count delivered bit levels and m is the largest gain.
All rates here are exact integers (bits per channel use at blocklength
one) and every check is exact GF(2) arithmetic: the dominance check of
the outer bound is a rank count, not an entropy evaluation.  For any K
and any gains, build_chain_scheme constructs a scheme whose sum rate
equals that rank count, chain_rank_bound.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from . import gf2


def _sym_args(nd, ni, k) -> tuple[int, int, int]:
    """nd, ni, k as ints; a float or a string raises, never rounded."""
    try:
        nd, ni, k = map(operator.index, (nd, ni, k))
    except TypeError:
        nd = -1     # not an integer: the range check below raises
    if nd < 0 or ni < 0 or k < 2:
        raise ValueError("need integers nd >= 0, ni >= 0, k >= 2")
    return nd, ni, k


@dataclass(frozen=True)
class LdcGains:
    """Integer gain matrix n[l][i] (receiver l, transmitter i)."""

    n: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:         # ints and numpy integers pass; floats are not rounded
            n = tuple(tuple(map(operator.index, row)) for row in self.n)
        except TypeError:
            raise ValueError("gains must be non-negative integers") from None
        if not n:
            raise ValueError("gain matrix must be non-empty")
        for row in n:
            if len(row) != len(n):
                raise ValueError("gain matrix must be square")
            if min(row, default=0) < 0:
                raise ValueError("gains must be non-negative integers")
        object.__setattr__(self, "n", n)

    @classmethod
    def from_matrix(cls, rows) -> "LdcGains":
        """Gains from nested rows of ints or numpy integers; any other
        entry (a float, a string) raises, it is never rounded."""
        return cls(rows)

    @classmethod
    def symmetric(cls, nd: int, ni: int, k: int) -> "LdcGains":
        nd, ni, k = _sym_args(nd, ni, k)
        return cls([[nd if l == i else ni for i in range(k)]
                    for l in range(k)])

    @property
    def k(self) -> int:
        return len(self.n)

    @cached_property
    def m(self) -> int:
        return max(max(row) for row in self.n)


def _receive(g: LdcGains, l: int, rows: list[int]) -> list[int]:
    """Packed rows of Y_l for the K*m packed rows of a stacked (X_1, ...,
    X_K) matrix: the XOR over i of block i shifted down m - n[l][i] rows."""
    m = g.m
    y = [0] * m
    for i, n in enumerate(g.n[l]):
        for r, x in enumerate(rows[i * m:i * m + n], m - n):
            y[r] ^= x
    return y


def _images(g: LdcGains, l: int, cols: list[int]) -> list[int]:
    """Y_l of each column over the stacked (X_1, ..., X_K), X_1 on top."""
    k, m = g.k, g.m
    sm = [((k - i) * m - n, (1 << n) - 1) for i, n in enumerate(g.n[l]) if n]
    out = []
    for c in cols:
        y = 0
        for s, mask in sm:
            y ^= c >> s & mask
        out.append(y)
    return out


@dataclass(frozen=True)
class SumRateBound:
    """Sum-rate bound with its per-term breakdown."""

    value: int
    terms: tuple[tuple[str, int], ...]
    note: str = ""

    def __post_init__(self):
        if self.value != sum(t for _, t in self.terms):
            raise ValueError("value must equal the sum of breakdown terms")
        if self.value < 0:
            raise ValueError("bound must be non-negative")


@dataclass(frozen=True)
class LdcScheme:
    """Linear encoders/decoders with achieved per-user message lengths.

    columns: one K*m-bit int per bit of the message word (r_1 + ... +
    r_K bits, user 1 first), its image in the stacked inputs (X_1, ...,
    X_K), X_1 in the top bits.  decoder_columns: per user l, the m
    columns of decoder l (channel output to user l's bits), r_l-bit
    ints.
    """

    rates: tuple[int, ...]
    m: int
    columns: tuple[int, ...]
    decoder_columns: tuple[tuple[int, ...], ...]

    @property
    def total_bits(self) -> int:
        return sum(self.rates)

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.rates, initial=0))[:-1]

    def message_slice(self, user: int) -> slice:
        off = self.offsets[user]
        return slice(off, off + self.rates[user])

    def respects_cms(self) -> bool:
        """Encoder i may only depend on messages of users 1..i: no column
        of user l's bits touches the blocks of X_<l."""
        users = (l for l, r in enumerate(self.rates) for _ in range(r))
        k, m = len(self.rates), self.m
        return not any(c >> (k - l) * m for l, c in zip(users, self.columns))


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    mode: str
    tuples_checked: int
    counterexample: tuple | None = None  # (messages, user, decoded)


@dataclass(frozen=True)
class DominanceReport:
    closed_form: int
    support_bound: int  # chain_rank_bound: max over every distribution

    @property
    def all_within(self) -> bool:
        return self.support_bound <= self.closed_form

    # The uniform i.i.d. input attains support_bound, so it is both the
    # largest sum any input reaches and the uniform input's value.
    @property
    def max_observed(self) -> float:
        return float(self.support_bound)

    @property
    def uniform_value(self) -> float:
        return float(self.support_bound)


def positive_part(x: int) -> int:
    return max(0, x)


def f_function(c: int, d: int, a: int, b: int) -> int:
    """Max conditional entropy of one pair of shifted inputs given another.

    f(c,d|a,b) = max{c+b, a+d} - max{a,b}   if c-d != a-b,
                 max{a,b,c,d} - max{a,b}    if c-d == a-b.
    """
    for v in (c, d, a, b):
        if v < 0:
            raise ValueError("gains must be non-negative")
    if c - d != a - b:
        return max(c + b, a + d) - max(a, b)
    return max(a, b, c, d) - max(a, b)


def ldc3_sum_outer(g: LdcGains) -> SumRateBound:
    """Closed-form 3-user sum-rate upper bound."""
    if g.k != 3:
        raise ValueError("ldc3_sum_outer requires k == 3")
    n = g.n
    t1 = max(n[0][0], n[0][1], n[0][2])
    t2 = f_function(n[1][1], n[1][2], n[0][1], n[0][2])
    t3 = positive_part(n[2][2] - max(n[0][2], n[1][2]))
    return SumRateBound(
        value=t1 + t2 + t3,
        terms=(
            ("rx1_full", t1),
            ("rx2_conditional", t2),
            ("rx3_private", t3),
        ),
    )


def ldc_k_sym_sum_capacity(nd: int, ni: int, k: int) -> SumRateBound:
    """Symmetric K-user sum capacity: (K-1)max{nd,ni} + [nd-ni]^+.

    The formula covers nd == 0 too ((K-1)ni bits).  Degenerate branches:
    nd == ni > 0 collapses to a K-user MAC with sum capacity nd;
    nd == ni == 0 is 0 by continuity.
    """
    nd, ni, k = _sym_args(nd, ni, k)
    if nd == ni:
        if nd == 0:
            return SumRateBound(0, (("degenerate_zero", 0),),
                                note="all-zero gains, value 0 by continuity")
        return SumRateBound(nd, (("mac", nd),), note="mac")
    v = (k - 1) * max(nd, ni) + positive_part(nd - ni)
    return SumRateBound(
        v,
        (
            ("first_k_minus_1", (k - 1) * max(nd, ni)),
            ("last_user", positive_part(nd - ni)),
        ),
    )


def _sym_encoders(nd: int, ni: int, k: int) -> LdcScheme:
    """The one-cognitive-transmitter scheme for nd != ni."""
    m = max(nd, ni)
    t = positive_part(nd - ni)  # bits for the last user
    # Transmitter j < K sends message j untouched.  Transmitter K passes
    # the top ni levels of every other message through and puts message
    # K on the t input levels below them.
    cols = [1 << (k - j) * m - 1 - q | (1 << m - 1 - q if q < ni else 0)
            for j in range(k - 1) for q in range(m)]
    cols += [1 << m - 1 - ni - q for q in range(t)]
    # Every receiver sees (I + S^c) times the bits it decodes, with
    # c = |nd - ni| >= 1.  S^c is nilpotent, so the inverse is the
    # finite geometric series: the sum of S^jc over jc < m.  Its column
    # b is its column 0 shifted down b levels.
    first = sum(1 << m - 1 - j for j in range(0, m, abs(nd - ni)))
    dec = tuple(first >> b for b in range(m))
    last = tuple(d >> m - ni - t & (1 << t) - 1 for d in dec)
    return LdcScheme(tuple([m] * (k - 1) + [t]), m, tuple(cols),
                     (dec,) * (k - 1) + (last,))


def build_sym_scheme(nd: int, ni: int, k: int) -> LdcScheme:
    """Capacity-achieving scheme for the symmetric K-user channel.

    For nd != ni this is the explicit construction where transmitters
    1..K-1 send their own message untouched and transmitter K both
    pre-cancels the aggregate interference and sneaks its own bits into
    the levels unseen by the other receivers.  For nd == ni the channel
    is a MAC and a single-user corner scheme carries nd bits.  Only
    transmitter K needs cognition here, unlike build_chain_scheme,
    which reaches the same sum rate.
    """
    nd, ni, k = _sym_args(nd, ni, k)
    if nd != ni:
        return _sym_encoders(nd, ni, k)
    # MAC corner: user 1 sends nd bits, everyone else is silent.
    m, eye = nd, tuple(gf2.eye(nd))
    return LdcScheme((m,) + (0,) * (k - 1), m,
                     tuple(c << (k - 1) * m for c in eye),
                     (eye,) + ((0,) * m,) * (k - 1))


def build_chain_scheme(g: LdcGains) -> LdcScheme:
    """Layered scheme for arbitrary K-user gains that meets
    chain_rank_bound.

    Layer l sends user l's bits along input directions that X_<l and
    Y_<l cannot see (so only transmitters l..K use them), chosen to have
    independent images at Y_l; their number is the rank increment of
    Y_l over (X_<l, Y_<l).  Decoder l is a left inverse of those
    images, and the earlier layers are then pre-cancelled at Y_l by
    adding layer-l directions, which leaves Y_<l untouched.  Linear
    algebra alone reaches the bound: no search.
    """
    k, m = g.k, g.m
    # Columns over the stacked (X_1, ..., X_K): enc holds one per message
    # bit, ker one per direction X_<l, Y_<l cannot see.
    enc, ker, rates, decoders = [], gf2.eye(k * m), [], []
    for l in range(k):
        img = _images(g, l, ker)
        cols = gf2.independent(img)[0]   # a basis of the image
        r, v = len(cols), [ker[j] for j in cols]
        # x's rows are decoder l's columns, a left inverse of v's images;
        # after the update it annihilates the earlier layers at Y_l.
        x = gf2.solve([img[j] for j in cols], m, gf2.eye(r), r)
        upd = gf2.mul(gf2.mul(_images(g, l, enc), x), v)
        enc = [e ^ u for e, u in zip(enc, upd)] + v
        rates.append(r)
        decoders.append(tuple(x))
        if l < k - 1:                # kernel of (Y_l, X_l) on ker
            s, top = (k - 1 - l) * m, (1 << m) - 1
            ker = gf2.independent([y << m | c >> s & top
                                   for y, c in zip(img, ker)], ker)[1]
    return LdcScheme(tuple(rates), m, tuple(enc), tuple(decoders))


def build_generic3_scheme(g: LdcGains, seed: int = 0) -> LdcScheme:
    """build_chain_scheme restricted to k == 3; seed is ignored."""
    if g.k != 3:
        raise ValueError("build_generic3_scheme requires k == 3")
    return build_chain_scheme(g)


def verify_scheme(g: LdcGains, s: LdcScheme, mode: str = "auto",
                  seed: int = 0) -> VerificationReport:
    """Prove or refute that every decoder recovers its message for every
    one of the 2**total_bits message tuples.

    Encoders, channel and decoders are all linear over GF(2), so decoder
    l is correct on every tuple exactly when
    D_l (sum_i H_li E_i) == Sel_l (mod 2), where Sel_l picks user l's
    bits out of the message word.  A column j where the identity fails
    means the unit message e_j is decoded wrongly; it is reported as the
    counterexample (messages, user, decoded).

    mode: "auto" or "exhaustive"; both give this full verdict.  seed is
    accepted for compatibility and does not affect the result.
    """
    if mode not in ("auto", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    k, m, total = g.k, g.m, s.total_bits
    if len(s.rates) != k or len(s.decoder_columns) != k or s.m != m:
        raise ValueError("scheme dimensions do not match the channel")
    if len(s.columns) != total or any(c >> k * m for c in s.columns):
        raise ValueError("encoder dimensions do not match the channel")
    for r, d in zip(s.rates, s.decoder_columns):
        if len(d) != m or any(c >> r for c in d):
            raise ValueError("decoder dimensions do not match the channel")

    # All K identities at once.  rows[b] is row b of the stacked
    # (D_l H_l)^T: input level p of X_i reaches level m - n + p of Y_l
    # when p < n, where decoder l's column lands in user l's bits.  Column
    # j of the stacked D_l H_l E, the XOR of the rows under c_j, is e_j.
    rows = [0] * (k * m)
    for l, (off, r) in enumerate(zip(s.offsets, s.rates)):
        low, dec = total - off - r, s.decoder_columns[l]
        for i, n in enumerate(g.n[l]):
            for p, d in enumerate(dec[m - n:], i * m):
                rows[p] ^= d << low
    got = gf2.mul(s.columns, rows)
    diff = [y ^ e for y, e in zip(got, gf2.eye(total))]
    pos = total - max(diff, default=0).bit_length()
    if pos < total:
        # the first user with a wrong bit, and its leftmost wrong column
        l = max(u for u, off in enumerate(s.offsets) if off <= pos)
        off, r = s.offsets[l], s.rates[l]
        mask = (1 << r) - 1 << total - off - r
        j = next(j for j, d in enumerate(diff) if d & mask)
        msgs = tuple(tuple(int(b == j) for b in
                           range(total)[s.message_slice(u)])
                     for u in range(k))
        cex = (msgs, l, tuple(got[j] >> total - 1 - off - q & 1
                              for q in range(r)))
        return VerificationReport(False, "exhaustive", 1 << total, cex)
    return VerificationReport(True, "exhaustive", 1 << total)


def chain_rank_bound(g: LdcGains) -> int:
    """The largest sum_l H(Y_l | X_<l, Y_<l) of any joint input, in bits.

    It bounds the sum rate for any K and any gains.  Under cumulative
    sharing X_<l is a function of the messages W_<l; Fano's inequality
    (receiver l also given W_<l and Y_<l^n) and the chain rule give
        n sum_l R_l <= sum_l I(W_l; Y_<=l^n | W_<l) + n eps_n
                     = sum_l H(Y_l^n | Y_<l^n, W_<l)
                    <= sum_l H(Y_l^n | Y_<l^n, X_<l^n),
    the equality because the sum telescopes and H(Y^n | W) = 0 in a
    deterministic channel.  Per letter, each term is at most the rank
    increment below.

    Stack V = (Y_1, X_1, ..., Y_K, X_K) as linear maps of the joint
    input.  The rows of block Y_l independent of every row before them
    (the pivots of one triangular factorization of V) number
    rank[C_l; Y_l] - rank C_l, with C_l stacking X_<l and Y_<l.  Given
    C_l, Y_l ranges over a coset of a space of that dimension, so
    H(Y_l | C_l) is at most that many bits, and the uniform input
    attains it (a linear image of a uniform input is uniform on its
    coset).  gaussian._chain_bound factors the same stack and sums
    log-variances at the Y rows instead.
    """
    k, m, v = g.k, g.m, []
    eye = gf2.eye(k * m)
    for l in range(k):
        v += _receive(g, l, eye) + eye[l * m:(l + 1) * m]
    return sum(1 for j in gf2.independent(v)[0] if j // m % 2 == 0)


def outer_bound_dominance_check(g: LdcGains, trials: int = 1000,
                                seed: int = 0) -> DominanceReport:
    """Certify that no joint input distribution beats the closed-form
    3-user sum bound, for any gains: chain_rank_bound is the exact
    maximum of H(Y1) + H(Y2|X1,Y1) + H(Y3|X1,Y1,X2,Y2).  trials and
    seed are accepted for compatibility and do not affect the result.
    """
    if g.k != 3:
        raise ValueError("dominance check requires k == 3")
    return DominanceReport(closed_form=ldc3_sum_outer(g).value,
                           support_bound=chain_rank_bound(g))
