"""End-to-end acceptance checks for the whole package.

Each test exercises one externally meaningful guarantee at its stated
tolerance: exact integers on the deterministic-channel side, explicit
slacks on the Gaussian side.
"""

import itertools

import numpy as np
import pytest

from cifc_cms import gaussian, gdof, gf2, ldc
from test_gf2 import (float_matmul, pack, random_invertible, rank,
                      shift_matrix, unpack)
from test_ldc import entropy_sum


def test_symmetric_ldc_capacity_exact_on_full_grid():
    # every asymmetric (nd, ni) pair up to 6 and every user count 2..6:
    # the constructed scheme decodes and its sum rate matches
    # (K-1)*max{nd,ni} + [nd-ni]^+ exactly
    for k in range(2, 7):
        for nd, ni in itertools.product(range(7), repeat=2):
            if nd == ni:
                continue
            g = ldc.LdcGains.symmetric(nd, ni, k)
            s = ldc.build_sym_scheme(nd, ni, k)
            expected = (k - 1) * max(nd, ni) + max(0, nd - ni)
            assert s.total_bits == expected, (nd, ni, k)
            assert s.respects_cms(), (nd, ni, k)
            report = ldc.verify_scheme(g, s, mode="auto", seed=0)
            assert report.passed, (nd, ni, k, report.counterexample)


def test_generic_3user_schemes_meet_outer_bound():
    rng = np.random.default_rng(2024)
    gains_list = [ldc.LdcGains.from_matrix(rng.integers(0, 4, size=(3, 3)))
                  for _ in range(200)]
    gains_list += [ldc.LdcGains.symmetric(nd, ni, 3)
                   for nd, ni in itertools.product(range(4), repeat=2)]
    # every channel with gains 0-2
    gains_list += [ldc.LdcGains.from_matrix([n[:3], n[3:6], n[6:]])
                   for n in itertools.product(range(3), repeat=9)]
    for g in gains_list:
        outer = ldc.ldc3_sum_outer(g).value
        assert ldc.chain_rank_bound(g) == outer, g.n
        s = ldc.build_chain_scheme(g)
        assert s.total_bits == outer, g.n
        assert s.respects_cms(), g.n
        assert ldc.verify_scheme(g, s, mode="auto", seed=0).passed, g.n


def test_no_input_distribution_beats_3user_outer_bound():
    # rank certificate of the closed form, which bounds the entropy sum
    # for every joint input distribution, on channels with gains up to
    # 3 (so m <= 3); the test-side exact-entropy oracle confirms that
    # the uniform input attains the certified value on each of them
    rng = np.random.default_rng(7)
    gains_list = [ldc.LdcGains.from_matrix(rng.integers(0, 4, size=(3, 3)))
                  for _ in range(200)]
    gains_list += [ldc.LdcGains.symmetric(nd, ni, 3)
                   for nd, ni in itertools.product(range(4), repeat=2)]
    for g in gains_list:
        report = ldc.outer_bound_dominance_check(g)
        assert report.all_within, (g.n, report.support_bound,
                                   report.closed_form)
        n = 8 ** g.m
        assert entropy_sum(g)(np.full(n, 1.0 / n)) == pytest.approx(
            report.support_bound, abs=1e-9), g.n


def test_symmetric_2_1_rate_split():
    # nd=2, ni=1, K=3: per-user rates normalized by nd are (1, 1, 0.5)
    # and the sum is 5 bits
    s = ldc.build_sym_scheme(2, 1, 3)
    assert s.rates == (2, 2, 1)
    assert tuple(r / 2 for r in s.rates) == (1.0, 1.0, 0.5)
    assert s.total_bits == 5
    g = ldc.LdcGains.symmetric(2, 1, 3)
    assert ldc.verify_scheme(g, s, mode="exhaustive").passed
    assert ldc.ldc_k_sym_sum_capacity(2, 1, 3).value == 5


GAUSSIAN_GRID = [(snr_db, alpha, k)
                 for snr_db in range(0, 61, 10)
                 for alpha in [i * 0.25 for i in range(13)]
                 for k in (3, 4, 5, 6)]


def test_additive_gap_bound_holds_on_grid():
    # closed-form inner within 6 bits of the outer for K=3 and within
    # (K-2)log2(K-2) + log2(2e^2) for K >= 4, slack 1e-6
    for snr_db, alpha, k in GAUSSIAN_GRID:
        ch = gaussian.GaussianSymChannel.from_snr_alpha(snr_db, alpha, k)
        cert = gaussian.additive_gap_certificate(ch)  # raises on violation
        assert cert.additive_gap <= gaussian.analytic_gap_bound(k) + 1e-6, \
            (snr_db, alpha, k)


def test_multiplicative_gap_at_most_k():
    for snr_db, alpha, k in GAUSSIAN_GRID:
        ch = gaussian.GaussianSymChannel.from_snr_alpha(snr_db, alpha, k)
        # the outer bound over the all-beamform rate
        ratio = gaussian.additive_gap_certificate(ch).multiplicative_ratio
        assert ratio <= k + 1e-9, (snr_db, alpha, k)


def test_numeric_gap_curve_shape_at_50db():
    # K=3, SNR=50 dB: the optimized-bounds gap stays below the analytic
    # gap curve everywhere, peaks near alpha=1, never exceeds 2 bits,
    # and falls toward 0 past alpha=2, while the analytic curve climbs
    # to 6 bits
    alphas = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
    gaps, curves = {}, {}
    for alpha in alphas:
        ch = gaussian.GaussianSymChannel.from_snr_alpha(50.0, alpha, 3)
        params, inner = gaussian.optimize_inner(ch, budget=10_000, seed=0)
        outer = gaussian.optimize_outer(ch, budget=10_000, seed=0,
                                        inner_hint=params)
        assert inner <= outer + 1e-6, alpha
        gaps[alpha] = outer - inner
        curves[alpha] = gaussian.analytic_gap_curve(ch)
        assert gaps[alpha] <= curves[alpha], alpha

    peak_alpha = max(gaps, key=gaps.get)
    assert gaps[peak_alpha] <= 2.0
    assert 0.7 <= peak_alpha <= 1.3, (peak_alpha, gaps)
    assert max(gaps[2.5], gaps[3.0]) <= 0.05
    assert max(gaps[2.5], gaps[3.0]) <= max(gaps[2.0], 0.02)
    assert curves[2.0] <= curves[2.5] <= curves[3.0] <= 6.0 + 1e-9
    assert curves[3.0] == pytest.approx(6.0, abs=0.05)


def test_empirical_gdof_slopes_match_closed_form():
    snrs = [40.0, 50.0, 60.0, 70.0, 80.0]
    for k in (2, 3, 4):
        for alpha in (0.0, 0.5, 1.5, 2.5):
            [est] = gdof.empirical_gdof_curve(k, [alpha], snrs)
            target = k * max(1.0, alpha) - alpha
            assert est.inner_slope == pytest.approx(target, abs=0.05), \
                (k, alpha)
            assert est.outer_slope == pytest.approx(target, abs=0.05), \
                (k, alpha)


def test_model_comparison_ordering():
    # on a dyadic alpha grid excluding the alpha=1 discontinuity:
    # interference channel <= cumulative sharing <= broadcast, and the
    # broadcast advantage is exactly alpha
    alphas = [i * 0.25 for i in range(1, 13) if i != 4]
    for k in (2, 3, 4, 5, 6):
        for alpha in alphas:
            d_ifc = gdof.gdof_ifc(alpha, k)
            d_cms = gdof.gdof_cms(alpha, k)
            d_bc = gdof.gdof_bc(alpha, k)
            assert d_ifc <= d_cms <= d_bc, (k, alpha)
            assert d_bc - d_cms == alpha, (k, alpha)
            # normalized curves: form the difference before dividing so
            # the dyadic grid keeps the comparison exact
            assert (d_bc - d_cms) / k == alpha / k, (k, alpha)


class TestGf2PropertySuite:
    def test_shift_exponent_additivity(self):
        for m in range(1, 11):
            for j in range(m + 2):
                for k in range(m + 2):
                    lhs = float_matmul(shift_matrix(m, j),
                                       shift_matrix(m, k))
                    rhs = shift_matrix(m, min(j + k, m))
                    assert np.array_equal(lhs, rhs), (m, j, k)

    def test_inverse_round_trips(self):
        rng = np.random.default_rng(0)
        for n in range(1, 11):
            eye = np.eye(n, dtype=np.uint8)
            for _ in range(20):
                m = random_invertible(n, rng)
                inv = unpack(gf2.solve(pack(m), n, gf2.eye(n), n), n)
                assert np.array_equal(float_matmul(m, inv), eye)
                assert np.array_equal(float_matmul(inv, m), eye)

    def test_identity_plus_shift_always_invertible(self):
        # the decoder matrix of the symmetric scheme has this form
        for m in range(1, 11):
            for k in range(1, m + 1):
                s = np.eye(m, dtype=np.uint8) ^ shift_matrix(m, k)
                assert rank(s) == m, (m, k)

    def test_f_function_equals_rank_difference(self):
        for c, d, a, b in itertools.product(range(5), repeat=4):
            m = max(a, b, c, d)
            if m == 0:
                assert ldc.f_function(c, d, a, b) == 0
                continue
            top = np.hstack([shift_matrix(m, m - a),
                             shift_matrix(m, m - b)])
            bot = np.hstack([shift_matrix(m, m - c),
                             shift_matrix(m, m - d)])
            oracle = rank(np.vstack([top, bot])) - rank(top)
            assert ldc.f_function(c, d, a, b) == oracle, (c, d, a, b)
