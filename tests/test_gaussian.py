"""Gaussian-model rate arithmetic, gap certificates, and optimizers."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifc_cms import gaussian


def log2p1(x):
    return math.log2(1.0 + x)


def phased(snr_db, alpha, phase):
    """3-user channel with interfering gain of SNR^(alpha/2) at phase."""
    ch = gaussian.GaussianSymChannel.from_snr_alpha(snr_db, alpha, 3)
    return gaussian.GaussianSymChannel(ch.hd, cmath.rect(abs(ch.hi), phase),
                                       3)


# Independent oracle for the 3-user sum bound: the generic log-det route
# through the full 6x6 joint covariance of (X, Y).

class NonPsdInput(ValueError):
    pass


def mutual_info_gaussian(cov, a, b, c=()):
    """I(A; B | C) in bits for jointly (proper complex) Gaussian
    coordinates of a covariance matrix, via log-determinant ratios."""
    cov = np.asarray(cov)
    n = cov.shape[0]
    if cov.shape != (n, n):
        raise NonPsdInput("covariance must be square")
    if not np.allclose(cov, cov.conj().T, atol=1e-8):
        raise NonPsdInput("covariance must be Hermitian")
    eig_min = float(np.linalg.eigvalsh(cov).min())
    if eig_min < -1e-8 * max(1.0, float(np.abs(cov).max())):
        raise NonPsdInput(f"covariance has negative eigenvalue {eig_min}")

    a, b, c = list(a), list(b), list(c)

    def logdet(idx):
        if not idx:
            return 0.0
        sub = cov[np.ix_(idx, idx)]
        sign, val = np.linalg.slogdet(sub)
        if sign.real <= 0:
            ev = np.linalg.eigvalsh(sub)
            val = float(np.log(np.clip(ev, 1e-300, None)).sum())
        return float(val)

    return (logdet(a + c) + logdet(b + c)
            - logdet(c) - logdet(a + b + c)) / math.log(2.0)


def th1_sum_k3_joint(ch, sigma_x, noise):
    """The 3-user sum bound at input covariance sigma_x.  Accurate only
    at moderate SNR: the log-det differences cancel catastrophically
    past about 40 dB."""
    h = gaussian._channel_matrix(ch)
    hs = h @ sigma_x
    cov = np.block([[sigma_x, hs.conj().T],
                    [hs, h @ sigma_x @ h.conj().T + noise]])
    t1 = mutual_info_gaussian(cov, [3], [0, 1, 2])
    t2 = mutual_info_gaussian(cov, [4], [1, 2], [0, 3])
    t3 = mutual_info_gaussian(cov, [5], [2], [0, 3, 1, 4])
    return t1 + t2 + t3


# Lower-triangular factor vectors for gaussian._factor_from_vec, with the
# real diagonal kept away from zero, and per-transmitter powers below 1.
_unit = st.floats(-1.0, 1.0)
_diag = st.floats(0.1, 1.0)
factor_vecs = st.tuples(_unit, _unit, _diag, _unit, _unit, _unit, _unit,
                        _diag)
powers = st.tuples(*[st.floats(0.05, 0.95)] * 3)


class TestChannel:
    def test_snr_alpha_parameterization(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 0.5, 3)
        assert ch.snr == pytest.approx(100.0)
        assert ch.inr == pytest.approx(10.0)
        assert ch.alpha == pytest.approx(0.5, abs=0.02)

    def test_alpha_one_hits_mac_branch_exactly(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(17.3, 1.0, 4)
        assert ch.is_mac

    def test_mac_requires_exact_equality(self):
        ch = gaussian.GaussianSymChannel(hd=2.0, hi=2.0 + 1e-15j, k=3)
        assert not ch.is_mac

    def test_rejects_negative_direct_gain(self):
        with pytest.raises(ValueError):
            gaussian.GaussianSymChannel(hd=-1.0, hi=0j, k=3)


class TestOuterSum:
    def test_mac_value(self):
        ch = gaussian.GaussianSymChannel(hd=1.0, hi=1.0 + 0j, k=3)
        assert gaussian.outer_sum(ch) == pytest.approx(math.log2(10.0),
                                                       rel=1e-12)

    def test_general_value_by_direct_substitution(self):
        hd, hi, k = 3.0, 2.0, 4
        ch = gaussian.GaussianSymChannel(hd=hd, hi=complex(hi), k=k)
        expected = (log2p1((hd + 3 * hi) ** 2)
                    + 2
                    + 2 * log2p1((hd - hi) ** 2 / 2)
                    + log2p1(hd ** 2 / (1 + 3 * hi ** 2)))
        assert gaussian.outer_sum(ch) == pytest.approx(expected, rel=1e-12)

    def test_complex_interfering_gain_uses_magnitude(self):
        ch_r = gaussian.GaussianSymChannel(hd=3.0, hi=2.0 + 0j, k=3)
        ch_c = gaussian.GaussianSymChannel(hd=3.0, hi=2.0j, k=3)
        # first and fourth terms depend on |hi| only; the zero-forcing
        # term depends on |hd - hi| and differs between the two
        assert gaussian.beamforming_inner(ch_r) == \
            pytest.approx(gaussian.beamforming_inner(ch_c))


class TestDpcRates:
    def test_manual_substitution_k3(self):
        ch = gaussian.GaussianSymChannel(hd=2.0, hi=1.0 + 0j, k=3)
        p = gaussian.DpcParams(alpha=(1.0 + 0j, 0.5 + 0j, 0.5 + 0j),
                               beta=0.5 + 0j,
                               gamma=(0.5 + 0j, 0.5 + 0j))
        r = gaussian.dpc_rates(ch, p)
        # R1: coherent part (hd + |hi|(a2+a3))^2 over residual noise
        assert r.rates[0] == pytest.approx(
            log2p1((2.0 + 1.0) ** 2 / (1.0 + 0.25 + 0.25)))
        # R2: zero-forcing plus private, interference from gamma_3 only
        assert r.rates[1] == pytest.approx(
            log2p1((1.0 * 0.25 + 4.0 * 0.25) / (1.0 + 0.25)))
        # R3: interference-free private stream
        assert r.rates[2] == pytest.approx(log2p1(4.0 * 0.25))

    def test_power_violation_raises(self):
        ch = gaussian.GaussianSymChannel(hd=2.0, hi=1.0 + 0j, k=3)
        p = gaussian.DpcParams(alpha=(1.0 + 0j, 1.0 + 0j, 0j),
                               beta=0.8 + 0j,
                               gamma=(0.5 + 0j, 0.5 + 0j))
        with pytest.raises(gaussian.PowerConstraintViolated):
            gaussian.dpc_rates(ch, p)


class TestClosedFormParams:
    def test_strong_interference_k4(self):
        ch = gaussian.GaussianSymChannel(hd=1.0, hi=2.0 + 0j, k=4)  # inr 4
        p = gaussian.closed_form_params(ch)
        assert abs(p.gamma[-1]) ** 2 == pytest.approx(1.0 / 13.0)
        assert abs(p.beta) ** 2 == pytest.approx((12.0 / 13.0) / 2.0)
        assert p.alpha[-1] == 0
        p.validate(4)

    def test_strong_interference_k3(self):
        ch = gaussian.GaussianSymChannel(hd=1.0, hi=3.0 + 0j, k=3)  # inr 9
        p = gaussian.closed_form_params(ch)
        hi2 = 9.0
        assert abs(p.beta) ** 2 == pytest.approx(
            (1 + 3 * hi2) / (2 * (1 + 2 * hi2)))
        assert abs(p.alpha[2]) ** 2 == pytest.approx(
            (hi2 - 1) / (2 * (1 + 2 * hi2)))
        p.validate(3)

    def test_weak_interference_uses_successive(self):
        ch = gaussian.GaussianSymChannel(hd=4.0, hi=0.5 + 0j, k=3)
        p = gaussian.closed_form_params(ch)
        assert p.beta == 0
        assert all(abs(g) == 1.0 for g in p.gamma)

    @given(st.floats(0.0, 40.0), st.floats(0.0, 3.0), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_powers_always_feasible(self, snr_db, alpha, k):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(snr_db, alpha, k)
        gaussian.closed_form_params(ch).validate(k)

    def test_phase_alignment_for_complex_gain(self):
        ch = gaussian.GaussianSymChannel(hd=2.0, hi=2.0j, k=3)
        p = gaussian.closed_form_params(ch)
        # the primary coefficient absorbs the interfering-gain phase so
        # the beamformed terms add coherently
        assert p.alpha[0] == pytest.approx(1.0j)


def slow_sum_rates(ch):
    """The general path that closed_form_sum_rates replaces."""
    return (gaussian.dpc_rates(ch, gaussian.closed_form_params(ch)).total,
            gaussian.dpc_rates(ch, gaussian.successive_params(ch)).total)


class TestClosedFormSumRates:
    @given(st.integers(2, 8), st.floats(-20.0, 80.0), st.floats(0.0, 4.0),
           st.none() | st.floats(-math.pi, math.pi))
    @settings(max_examples=500, deadline=None)
    def test_bit_identical_to_dpc_rates(self, k, snr_db, alpha, phase):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(snr_db, alpha, k)
        if phase is not None:
            ch = gaussian.GaussianSymChannel(
                ch.hd, cmath.rect(abs(ch.hi), phase), k)
        assert gaussian.closed_form_sum_rates(ch) == slow_sum_rates(ch)

    @pytest.mark.parametrize("snr_db,alpha,k", [
        (20.0, 1.0, 3),    # hi == hd: the MAC point
        (30.0, 0.0, 4),    # |hi|^2 == 1: first strong-interference point
        (40.0, 1.5, 2),    # no middle transmitters
        (40.0, 0.5, 2)])
    def test_pinned_points(self, snr_db, alpha, k):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(snr_db, alpha, k)
        assert gaussian.closed_form_sum_rates(ch) == slow_sum_rates(ch)

    def test_weak_interference_choices_coincide(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(-10.0, 0.5, 5)
        assert ch.inr < 1.0
        coherent, successive = gaussian.closed_form_sum_rates(ch)
        assert coherent == successive

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_power_check_matches_validate(self, monkeypatch, k):
        # with a negative slack the full-power closed form no longer fits
        monkeypatch.setattr(gaussian, "TOL",
                            gaussian.Tolerances(power_slack=-1e-6))
        ch = gaussian.GaussianSymChannel.from_snr_alpha(30.0, 1.5, k)
        with pytest.raises(gaussian.PowerConstraintViolated):
            gaussian.dpc_rates(ch, gaussian.closed_form_params(ch))
        with pytest.raises(gaussian.PowerConstraintViolated):
            gaussian.closed_form_sum_rates(ch)


class TestGapCertificate:
    def test_analytic_bound_values(self):
        assert gaussian.analytic_gap_bound(3) == 6.0
        for k in (4, 5, 6):
            expected = (k - 2) * math.log2(k - 2) + math.log2(2 * math.e ** 2)
            assert gaussian.analytic_gap_bound(k) == pytest.approx(expected)
        with pytest.raises(ValueError):
            gaussian.analytic_gap_bound(2)

    def test_certificate_fields_consistent(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(30.0, 1.5, 3)
        cert = gaussian.additive_gap_certificate(ch)
        assert cert.additive_gap == pytest.approx(cert.outer - cert.inner)
        assert cert.inner <= cert.outer + 1e-9
        assert cert.additive_gap <= cert.analytic_gap_bound + 1e-6
        assert cert.outer_branch == "general"

    def test_mac_point_certificate(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 1.0, 3)
        cert = gaussian.additive_gap_certificate(ch)
        assert cert.outer_branch == "mac"
        assert cert.outer == pytest.approx(cert.outer_mac)

    def test_multiplicative_ratio_below_k(self):
        for snr_db in (0.0, 20.0, 50.0):
            for alpha in (0.0, 0.5, 1.5, 3.0):
                for k in (3, 4, 5):
                    ch = gaussian.GaussianSymChannel.from_snr_alpha(
                        snr_db, alpha, k)
                    cert = gaussian.additive_gap_certificate(ch)
                    assert cert.multiplicative_ratio <= k + 1e-9

    def test_gap_curve_approaches_six_bits(self):
        vals = []
        for alpha in (2.0, 3.0, 4.0):
            ch = gaussian.GaussianSymChannel.from_snr_alpha(50.0, alpha, 3)
            vals.append(gaussian.analytic_gap_curve(ch))
        assert vals == sorted(vals)
        assert all(v <= 6.0 + 1e-9 for v in vals)
        assert vals[-1] == pytest.approx(6.0, abs=0.05)


class TestInducedCovariances:
    def test_total_power_per_transmitter(self):
        ch = gaussian.GaussianSymChannel(hd=1.0, hi=2.0 + 0j, k=4)
        p = gaussian.closed_form_params(ch)
        total = gaussian.input_covariance(p, 4)
        diag = np.real(np.diag(total))
        assert np.all(diag <= 1.0 + 1e-9)

    def test_cumulative_sharing_zero_pattern(self):
        ch = gaussian.GaussianSymChannel(hd=1.0, hi=2.0 + 0j, k=4)
        p = gaussian.closed_form_params(ch)
        covs = gaussian.induced_covariances(p, 4)
        for l, sig in enumerate(covs, start=1):
            # message l is only carried by transmitters l..K
            assert not sig[: l - 1, :].any()
            assert not sig[:, : l - 1].any()


class TestMutualInfo:
    def _random_psd(self, rng, n):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return a @ a.conj().T + np.eye(n)

    def test_chain_rule(self):
        rng = np.random.default_rng(3)
        cov = self._random_psd(rng, 5)
        joint = mutual_info_gaussian(cov, [0], [1, 2])
        chained = (mutual_info_gaussian(cov, [0], [1])
                   + mutual_info_gaussian(cov, [0], [2], [1]))
        assert joint == pytest.approx(chained, rel=1e-9)

    def test_independent_blocks_have_zero_mi(self):
        cov = np.eye(4, dtype=complex)
        assert mutual_info_gaussian(cov, [0, 1], [2, 3]) == \
            pytest.approx(0.0, abs=1e-12)

    def test_scalar_awgn_matches_shannon(self):
        snr = 7.0
        cov = np.array([[1.0, 1.0], [1.0, 1.0 + 1.0 / snr]], dtype=complex)
        # Y = X + N with unit-power X and 1/snr-power noise
        assert mutual_info_gaussian(cov, [0], [1]) == \
            pytest.approx(math.log2(1 + snr), rel=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonPsdInput):
            mutual_info_gaussian(
                np.array([[1.0, 2.0], [0.0, 1.0]]), [0], [1])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NonPsdInput):
            mutual_info_gaussian(
                np.array([[1.0, 2.0], [2.0, 1.0]]), [0], [1])


class TestSumBoundEvaluation:
    def test_stable_matches_logdet_route_at_moderate_snr(self):
        # two independent evaluations of the same three-term bound: the
        # cancellation-free factor form and the generic 6x6 log-det path,
        # on complex factors below full power and complex-phase channels
        rng = np.random.default_rng(11)
        for snr_db in (0.0, 10.0, 25.0):
            for alpha in (0.3, 0.8, 1.4, 2.0):
                for phase in (0.0, math.pi / 3, 2.5):
                    ch = phased(snr_db, alpha, phase)
                    for _ in range(3):
                        l = (np.sqrt(rng.uniform(0.05, 1.0, 3))[:, None]
                             * gaussian._factor_from_vec(rng.normal(size=8)))
                        noise = gaussian._noise_from_rho(
                            rng.uniform(-0.4, 0.4, 3))
                        if noise is None:
                            continue
                        a = gaussian._th1_sum_k3(ch, l, noise)
                        b = th1_sum_k3_joint(ch, l @ l.conj().T, noise)
                        assert a == pytest.approx(b, abs=1e-6)

    def test_stable_route_survives_extreme_snr(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(50.0, 3.0, 3)
        val = gaussian._th1_sum_k3(ch, np.eye(3, dtype=complex), np.eye(3))
        assert math.isfinite(val)
        assert 0.0 < val <= gaussian.outer_sum(ch) + 1e-6

    def test_independent_noise_below_analytic_bound(self):
        # _outer_general is the independent-noise bound; at 0 dB every
        # alpha gives hd == hi, a MAC whose outer_sum assumes correlated
        # noise and is exceeded by full-power inputs
        rng = np.random.default_rng(5)
        for snr_db in (0.0, 20.0, 50.0):
            for alpha in (0.5, 1.5, 2.5):
                ch = gaussian.GaussianSymChannel.from_snr_alpha(
                    snr_db, alpha, 3)
                for _ in range(5):
                    l = gaussian._factor_from_vec(rng.normal(size=8))
                    val = gaussian._th1_sum_k3(ch, l, np.eye(3))
                    assert val <= gaussian._outer_general(ch) + 1e-6

    @given(factor_vecs, powers, st.floats(0.0, 40.0), st.floats(0.0, 3.0),
           st.floats(0.0, 2 * math.pi), st.tuples(*[st.floats(-0.5, 0.5)] * 3))
    @settings(max_examples=150, deadline=None)
    def test_lift_to_unit_diagonal_never_lowers_the_bound(
            self, x, power, snr_db, alpha, phase, rho):
        noise = gaussian._noise_from_rho(rho)
        if noise is None:
            return
        ch = phased(snr_db, alpha, phase)
        l = np.sqrt(power)[:, None] * gaussian._factor_from_vec(x)
        lifted = gaussian._factor_from_vec(
            gaussian._vec_from_sigma(l @ l.conj().T))
        assert (gaussian._th1_sum_k3(ch, lifted, noise)
                >= gaussian._th1_sum_k3(ch, l, noise) - 1e-9)

    def test_factor_round_trip_reproduces_lifted_sigma(self):
        # random covariances below full power, and DPC input covariances,
        # whose lifts are singular under full beamforming
        rng = np.random.default_rng(2)
        sigmas = []
        for _ in range(20):
            l = (np.sqrt(rng.uniform(0.05, 0.95, 3))[:, None]
                 * gaussian._factor_from_vec(rng.normal(size=8)))
            sigmas.append(l @ l.conj().T)
        ch = phased(30.0, 1.5, 1.0)
        beamform = gaussian.DpcParams(
            alpha=(cmath.rect(1.0, 1.0), 1.0 + 0j, 1.0 + 0j), beta=0j,
            gamma=(0j, 0j))
        for p in (gaussian.closed_form_params(ch),
                  gaussian.successive_params(ch), beamform):
            sigmas.append(gaussian.input_covariance(p, 3))
        for sigma in sigmas:
            lifted = sigma + np.diag(1.0 - np.diag(sigma))
            back = gaussian._factor_from_vec(gaussian._vec_from_sigma(sigma))
            assert np.abs(back @ back.conj().T - lifted).max() <= 1e-9


class TestOptimizers:
    def test_inner_never_below_closed_form(self):
        for snr_db, alpha in ((10.0, 0.5), (20.0, 1.5), (40.0, 2.5)):
            ch = gaussian.GaussianSymChannel.from_snr_alpha(snr_db, alpha, 3)
            closed = gaussian.dpc_rates(
                ch, gaussian.closed_form_params(ch)).total
            _, val = gaussian.optimize_inner(ch, budget=800, seed=0)
            assert val >= closed - 1e-9

    def test_inner_respects_power_constraints(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 1.5, 4)
        params, _ = gaussian.optimize_inner(ch, budget=600, seed=1)
        params.validate(4)

    def test_inner_minimal_budget_returns_best_start(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 1.5, 3)
        _, val = gaussian.optimize_inner(ch, budget=1, seed=0)
        closed = gaussian.dpc_rates(
            ch, gaussian.closed_form_params(ch)).total
        assert val >= closed - 1e-9

    def test_outer_sandwiched_between_inner_and_analytic(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 1.5, 3)
        p, inner = gaussian.optimize_inner(ch, budget=1500, seed=0)
        outer = gaussian.optimize_outer(ch, budget=1500, seed=0,
                                        inner_hint=p)
        assert inner <= outer + 1e-6
        assert outer <= gaussian.outer_sum(ch) + 1e-9

    @pytest.mark.parametrize("snr_db,alpha,phase", [
        (30.0, 1.5, math.pi / 2), (30.0, 1.5, math.pi / 3),
        (40.0, 2.0, 2.5)])
    def test_outer_never_below_inner_for_complex_gain(self, snr_db, alpha,
                                                       phase):
        ch = phased(snr_db, alpha, phase)
        p, inner = gaussian.optimize_inner(ch, budget=500, seed=0)
        outer = gaussian.optimize_outer(ch, budget=500, seed=0, inner_hint=p)
        assert inner - 1e-9 <= outer <= gaussian.outer_sum(ch) + 1e-9

    def test_outer_below_inner_hint_raises(self, monkeypatch):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 1.5, 3)
        p, _ = gaussian.optimize_inner(ch, budget=500, seed=0)
        monkeypatch.setattr(gaussian, "_th1_sum_k3", lambda *a: 0.0)
        with pytest.raises(gaussian.GapExceeded):
            gaussian.optimize_outer(ch, budget=500, seed=0, inner_hint=p)

    def test_outer_rejects_infeasible_hint(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 1.5, 3)
        p = gaussian.DpcParams(alpha=(1.0 + 0j, 1.0 + 0j, 0j), beta=0.8 + 0j,
                               gamma=(0.5 + 0j, 0.5 + 0j))
        with pytest.raises(gaussian.PowerConstraintViolated):
            gaussian.optimize_outer(ch, budget=10, inner_hint=p)

    def test_outer_starved_budget_falls_back_to_analytic(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 1.5, 3)
        outer = gaussian.optimize_outer(ch, budget=1, seed=0)
        assert outer == pytest.approx(gaussian.outer_sum(ch))

    def test_outer_rejects_other_k(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 1.5, 4)
        with pytest.raises(ValueError):
            gaussian.optimize_outer(ch, budget=10)

    def test_deterministic_given_seed(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 1.5, 3)
        _, v1 = gaussian.optimize_inner(ch, budget=500, seed=7)
        _, v2 = gaussian.optimize_inner(ch, budget=500, seed=7)
        assert v1 == v2
