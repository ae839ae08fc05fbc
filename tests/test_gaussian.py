"""Gaussian-model rate arithmetic, gap certificates, and optimizers."""

import cmath
import functools
import math
import operator

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


# Independent oracle for the K-user sum bound: the generic log-det route
# through the full 2K x 2K joint covariance of (X, Y).

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


def chain_bound_joint(ch, sigma_x, noise):
    """The K-user sum bound sum_l I(Y_l; X_>=l | X_<l, Y_<l) at input
    covariance sigma_x, with X at indices 0..K-1 and Y at K..2K-1.
    Accurate only at moderate SNR: the log-det differences cancel
    catastrophically past about 40 dB."""
    k = ch.k
    h = gaussian._channel_matrix(ch)
    hs = h @ sigma_x
    cov = np.block([[sigma_x, hs.conj().T],
                    [hs, h @ sigma_x @ h.conj().T + noise]])
    return sum(mutual_info_gaussian(cov, [k + l], range(l, k),
                                    [*range(l), *range(k, k + l)])
               for l in range(k))


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

    def test_alpha_one_hits_mac_branch_exactly(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(17.3, 1.0, 4)
        assert ch.is_mac

    def test_mac_requires_exact_equality(self):
        ch = gaussian.GaussianSymChannel(hd=2.0, hi=2.0 + 1e-15j, k=3)
        assert not ch.is_mac

    def test_rejects_negative_direct_gain(self):
        with pytest.raises(ValueError):
            gaussian.GaussianSymChannel(hd=-1.0, hi=0j, k=3)

    @pytest.mark.parametrize("hd,hi", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, complex(math.inf)),
        (1.0, complex(0.0, math.nan)), (1.0, math.nan)])
    def test_rejects_non_finite_gains(self, hd, hi):
        # a NaN gain made outer_sum NaN and the certificate's gap check
        # (NaN > bound) pass silently
        with pytest.raises(ValueError, match="finite"):
            gaussian.GaussianSymChannel(hd, hi, 3)

    @pytest.mark.parametrize("k", [3.5, 3.0, "3"])
    def test_rejects_non_integral_user_count(self, k):
        with pytest.raises(ValueError, match="integer"):
            gaussian.GaussianSymChannel(1.0, 1.0, k)

    def test_accepts_numpy_integer_user_count(self):
        ch = gaussian.GaussianSymChannel(1.0, 0.5, np.int64(3))
        assert gaussian.outer_sum(ch) == gaussian.outer_sum(
            gaussian.GaussianSymChannel(1.0, 0.5, 3))

    @pytest.mark.parametrize("hd,hi", [
        ([3.0, math.nan], [1.0, 1.0]), ([3.0, math.inf], [1.0, 1.0]),
        ([3.0, 3.0], [1.0, math.nan]),
        ([3.0, 3.0], [1.0, complex(0.0, math.inf)])])
    def test_grid_rejects_non_finite_gains(self, hd, hi):
        with pytest.raises(ValueError, match="finite"):
            gaussian.ChannelGrid(3, hd, hi)

    def test_grid_from_snr_alpha_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            gaussian.ChannelGrid.from_snr_alpha([10.0, math.nan], 1.0, 3)


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

    @pytest.mark.parametrize("a1,expected", [
        (0j, 9.3825), (-1 + 0j, 8.2878), (0.5 + 0j, 9.8056), (1 + 0j, 10.1746)])
    def test_rate_1_uses_transmitter_1_coefficient(self, a1, expected):
        # receiver 1 hears hd a_1 + hi (a_2 + ... + a_K) over the private
        # streams; a_1 = 1 is closed_form_params' own choice
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 1.5, 3)
        p = gaussian.closed_form_params(ch)
        p = gaussian.DpcParams((a1,) + p.alpha[1:], p.beta, p.gamma)
        assert gaussian.dpc_rates(ch, p).rates[0] == pytest.approx(
            expected, abs=5e-5)

    @pytest.mark.parametrize("turn", [0.0, 0.7, math.pi])
    def test_rate_1_with_rotated_coefficient_on_complex_gain(self, turn):
        ch = phased(30.0, 1.5, 1.0)
        p = gaussian.closed_form_params(ch)
        a1 = p.alpha[0] * cmath.exp(1j * turn)
        p = gaussian.DpcParams((a1,) + p.alpha[1:], p.beta, p.gamma)
        signal = abs(ch.hd * a1 + ch.hi * sum(p.alpha[1:])) ** 2
        noise = 1.0 + abs(ch.hi) ** 2 * sum(abs(g) ** 2 for g in p.gamma)
        assert gaussian.dpc_rates(ch, p).rates[0] == pytest.approx(
            log2p1(signal / noise), rel=1e-12)


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

    @given(st.integers(2, 5) | st.integers(2, 10_000),
           st.floats(1.0, 1e300))
    @settings(max_examples=300, deadline=None)
    def test_strong_powers_fit_every_transmitter(self, k, hi2):
        # the kernel's coherent rate runs no power check: the closed-form
        # coefficients, each a sqrt squared as in DpcParams, put every
        # transmitter at power 1 up to rounding
        gk2, beta2, aj2, ak2 = map(float, gaussian._strong_powers(k, hi2))
        b2, g2 = math.sqrt(beta2) ** 2, math.sqrt(gk2) ** 2
        limit = 1 + gaussian.TOL.power_slack
        if k > 2:
            assert b2 + math.sqrt(aj2) ** 2 <= limit
        assert g2 + (k - 2) * b2 + math.sqrt(ak2) ** 2 <= limit


# The scalar closed forms that gaussian's array kernel replaced, kept as
# its bitwise oracle.

_LN2 = math.log(2.0)


def _log2p1(x):
    return math.log1p(x) / _LN2


def _sum(terms):
    """sum() as Python 3.11 has it, left to right; from 3.12 sum()
    compensates float rounding, which the CSVs never had."""
    return functools.reduce(operator.add, terms, 0)


def oracle_outer_mac(ch):
    return _log2p1((ch.k * ch.hd) ** 2)


def oracle_outer_general(ch):
    k, hd, hi = ch.k, ch.hd, ch.hi
    t1 = _log2p1((hd + (k - 1) * abs(hi)) ** 2)
    t2 = float(k - 2)
    t3 = (k - 2) * _log2p1(abs(hd - hi) ** 2 / 2.0)
    t4 = _log2p1(hd ** 2 / (1.0 + (k - 1) * abs(hi) ** 2))
    return t1 + t2 + t3 + t4


def oracle_outer_sum(ch):
    return oracle_outer_mac(ch) if ch.is_mac else oracle_outer_general(ch)


def oracle_beamforming_inner(ch):
    return _log2p1((ch.hd + (ch.k - 1) * abs(ch.hi)) ** 2)


def oracle_strong_powers(k, hi2):
    gk2 = 1.0 / (1.0 + (k - 1) * hi2)
    if k == 2:
        beta2 = 0.0
        ak2 = 1.0 - gk2
    elif k == 3:
        beta2 = (1.0 + 3.0 * hi2) / (2.0 * (1.0 + 2.0 * hi2))
        ak2 = (-1.0 + hi2) / (2.0 * (1.0 + 2.0 * hi2))
    else:
        beta2 = (1.0 - gk2) / (k - 2)
        ak2 = 0.0
    aj2 = 1.0 - beta2
    return gk2, beta2, aj2, max(0.0, ak2)


def oracle_sum_rates(ch):
    """closed_form_sum_rates: (coherent, successive)."""
    k, hd = ch.k, ch.hd
    log1p = math.log1p
    hi_mag = abs(ch.hi)
    hi2 = hi_mag ** 2
    hd2 = hd ** 2
    successive = _sum([log1p(hd2 / (1.0 + hi2 * (k - j))) / _LN2
                       for j in range(1, k)] + [log1p(hd2) / _LN2])
    if hi2 < 1.0:
        return successive, successive

    gk2, beta2, aj2, ak2 = oracle_strong_powers(k, hi2)
    a_mid, a_last = math.sqrt(aj2), math.sqrt(ak2)
    b2 = math.sqrt(beta2) ** 2
    g2 = math.sqrt(gk2) ** 2
    den = 1.0 + hi2 * g2
    beam = _sum([complex(a_mid)] * (k - 2) + [complex(a_last)])
    rates = [log1p(abs(hd + hi_mag * beam) ** 2 / den) / _LN2]
    if k > 2:
        rates += [log1p(abs(hd - ch.hi) ** 2 * b2 / den) / _LN2] * (k - 2)
    rates.append(log1p(hd2 * g2) / _LN2)
    return _sum(rates), successive


def oracle_certificate(ch):
    """additive_gap_certificate: the best of the three closed forms,
    the earlier one on ties."""
    coherent, successive = oracle_sum_rates(ch)
    inner, branch = coherent, "coherent"
    for name, rate in (("successive", successive),
                       ("beamforming", oracle_beamforming_inner(ch))):
        if rate > inner:
            inner, branch = rate, name
    outer = oracle_outer_sum(ch)
    gap = outer - inner
    bound = gaussian.analytic_gap_bound(ch.k)
    if gap > bound + gaussian.TOL.gap_slack:
        raise gaussian.GapExceeded(
            f"observed gap {gap:.6f} exceeds analytic bound {bound:.6f} "
            f"at hd={ch.hd}, hi={ch.hi}, k={ch.k}")
    if inner > outer + gaussian.TOL.eq:
        raise gaussian.GapExceeded(f"inner bound {inner:.6f} exceeds "
                                   f"outer bound {outer:.6f}")
    bf = oracle_beamforming_inner(ch)
    return gaussian.GapCertificate(
        inner=inner, outer=outer, additive_gap=gap,
        analytic_gap_bound=bound,
        multiplicative_ratio=outer / bf if bf > 0 else float("nan"),
        outer_branch="mac" if ch.is_mac else "general",
        inner_branch=branch, outer_mac=oracle_outer_mac(ch),
        outer_general=oracle_outer_general(ch))


def outcome(fn, *args):
    """repr of fn's result (exact for floats, nan included), or the
    exception it raises, by type and message."""
    try:
        return repr(fn(*args))
    except (gaussian.GapExceeded, gaussian.PowerConstraintViolated) as exc:
        return f"{type(exc).__name__}: {exc}"


def grid_certificates(g):
    c = gaussian.gap_certificate_grid(g)
    fields = [np.broadcast_to(v, g.hd.shape).tolist()
              for v in vars(c).values()]
    return [gaussian.GapCertificate(*row) for row in zip(*fields)]


def oracle_certificates(chs):
    """A point-by-point sweep, which stops at the first error."""
    return [oracle_certificate(ch) for ch in chs]


class TestKernelMatchesOracle:
    @given(st.integers(2, 8), st.floats(-20.0, 80.0),
           st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6),
           st.none() | st.floats(-math.pi, math.pi))
    @settings(max_examples=500, deadline=None)
    def test_bitwise(self, k, snr_db, alphas, phase):
        chs = [gaussian.GaussianSymChannel.from_snr_alpha(snr_db, a, k)
               for a in alphas]
        if phase is None:
            g = gaussian.ChannelGrid.from_snr_alpha(snr_db, alphas, k)
        else:
            chs = [gaussian.GaussianSymChannel(
                ch.hd, cmath.rect(abs(ch.hi), phase), k) for ch in chs]
            g = gaussian.ChannelGrid(k, [ch.hd for ch in chs],
                                     [ch.hi for ch in chs])
        outer, mac, general = gaussian.outer_grid(g)
        assert outer.tolist() == [oracle_outer_sum(ch) for ch in chs]
        assert mac.tolist() == [oracle_outer_mac(ch) for ch in chs]
        assert general.tolist() == [oracle_outer_general(ch) for ch in chs]
        assert g.beamforming.tolist() == [oracle_beamforming_inner(ch)
                                          for ch in chs]
        assert gaussian.closed_form_inner(g).tolist() == [
            oracle_sum_rates(ch)[0] for ch in chs]
        for ch in chs:
            assert gaussian.closed_form_sum_rates(ch) == oracle_sum_rates(ch)
            assert gaussian.outer_sum(ch) == oracle_outer_sum(ch)
            assert (gaussian.beamforming_inner(ch)
                    == oracle_beamforming_inner(ch))
        if k >= 3:
            assert (outcome(grid_certificates, g)
                    == outcome(oracle_certificates, chs))
            assert (outcome(gaussian.additive_gap_certificate, chs[0])
                    == outcome(oracle_certificate, chs[0]))

    # At k = 4 and -20 dB the gaps are 2.078 (alpha = 0.5), 2.819
    # (0.042) and 2.985 (0), 0 at the MAC point alpha = 1; a negative
    # slack moves the gap bound to 2.5 bits, so the sweep stops at the
    # first point past it.
    @pytest.mark.parametrize("alphas,error", [
        ([0.5, 0.042], "GapExceeded"),
        ([0.5, 0.042, 0.0], "GapExceeded"),
        ([0.0, 0.042], "GapExceeded")])
    def test_raises_as_the_oracle(self, monkeypatch, alphas, error):
        monkeypatch.setattr(gaussian, "TOL", gaussian.Tolerances(
            gap_slack=2.5 - gaussian.analytic_gap_bound(4)))
        chs = [gaussian.GaussianSymChannel.from_snr_alpha(-20.0, a, 4)
               for a in alphas]
        g = gaussian.ChannelGrid.from_snr_alpha(-20.0, alphas, 4)
        got = outcome(grid_certificates, g)
        assert got.startswith(error)
        assert got == outcome(oracle_certificates, chs)

    # With the gap bound at 2 bits and inner <= outer - 2.5 required, the
    # MAC point fails only the second check and alpha = 0.5 fails both,
    # where the gap message comes first.
    @pytest.mark.parametrize("alphas,message", [
        ([1.0, 0.5], "GapExceeded: inner bound"),
        ([0.5, 1.0], "GapExceeded: observed gap")])
    def test_first_failing_point_names_its_first_check(self, monkeypatch,
                                                       alphas, message):
        monkeypatch.setattr(gaussian, "TOL", gaussian.Tolerances(
            gap_slack=2.0 - gaussian.analytic_gap_bound(4), eq=-2.5))
        chs = [gaussian.GaussianSymChannel.from_snr_alpha(-20.0, a, 4)
               for a in alphas]
        g = gaussian.ChannelGrid.from_snr_alpha(-20.0, alphas, 4)
        got = outcome(grid_certificates, g)
        assert got.startswith(message)
        assert got == outcome(oracle_certificates, chs)

    def test_low_snr_probe_certifies_by_beamforming(self):
        # the coherent/successive pick alone gave 0.032 bits here and a
        # gap of 5.952525 over the 5.885390 bound
        ch = gaussian.GaussianSymChannel.from_snr_alpha(-20.0, 0.042, 4)
        cert = gaussian.additive_gap_certificate(ch)
        assert cert.inner_branch == "beamforming"
        assert repr(cert.inner) == "3.165419225203582"
        assert repr(cert.additive_gap) == "2.818934768947689"
        assert cert == oracle_certificate(ch)

    def test_certificate_holds_from_minus_60_to_100_db(self):
        # K 3-12, SNR -60..100 dB, alpha 0..4: the best of the three
        # closed forms stays within the bound (with the pick of two,
        # K = 4 failed at low SNR and small alpha)
        snr_db, alpha = np.meshgrid(np.arange(-60.0, 100.5, 2.5),
                                    np.arange(0.0, 4.01, 0.05))
        for k in range(3, 13):
            g = gaussian.ChannelGrid.from_snr_alpha(snr_db.ravel(),
                                                    alpha.ravel(), k)
            cert = gaussian.gap_certificate_grid(g)
            assert cert.additive_gap.max() <= cert.analytic_gap_bound


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


# The hand-derived 3-user sum bound that _chain_bound replaced, and
# _factor_from_vec as it was before its row norm was hoisted, kept as
# oracles.

def oracle_th1_sum_k3(ch, l, noise):
    h = gaussian._channel_matrix(ch)
    n = np.asarray(noise)
    n2 = n[:2, :2]
    n11 = n[0, 0].real
    u = h[0] @ l
    t1 = math.log1p(np.vdot(u, u).real / n11)
    lp = l[1:, 1:]
    w = np.linalg.solve(np.linalg.cholesky(n2), h[:2, 1:] @ lp)
    det_w = w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]
    u1 = h[0, 1:] @ lp
    t2 = (math.log1p(np.vdot(w, w).real + abs(det_w) ** 2)
          - math.log1p(np.vdot(u1, u1).real / n11))
    v = abs(l[2, 2]) ** 2
    h3 = h[:, 2]
    q_full = np.vdot(h3, np.linalg.solve(n, h3)).real
    q_part = np.vdot(h3[:2], np.linalg.solve(n2, h3[:2])).real
    t3 = math.log1p(v * q_full) - math.log1p(v * q_part)
    return (t1 + t2 + max(t3, 0.0)) / _LN2


def oracle_factor_from_vec(x):
    l = np.array([[1.0, 0.0, 0.0],
                  [x[0] + 1j * x[1], x[2], 0.0],
                  [x[3] + 1j * x[4], x[5] + 1j * x[6], x[7]]])
    return l / np.linalg.norm(l, axis=1, keepdims=True)


def th1(ch, l, noise):
    """The sum bound at channel ch, factor l and noise covariance noise."""
    return gaussian._chain_bound(gaussian._channel_matrix(ch), noise)(l).item()


# Unconstrained factor vectors as the outer search meets them, with rows
# kept away from zero norm.
_coord = st.floats(-3.0, 3.0)
search_vecs = st.tuples(*[_coord] * 8).filter(
    lambda x: max(map(abs, x[:3])) > 1e-3 and max(map(abs, x[3:])) > 1e-3)


class TestHoistedTermsMatchOracle:
    @given(search_vecs)
    @settings(max_examples=500, deadline=None)
    def test_factor_bitwise(self, x):
        x = np.array(x)
        got, want = gaussian._factor_from_vec(x), oracle_factor_from_vec(x)
        assert np.array_equal(got.view(float), want.view(float))


def random_factors(rng, k, size=()):
    """Lower-triangular factors with unit rows scaled to powers in
    (0.05, 1), for inputs X = l W."""
    l = np.tril(rng.normal(size=size + (k, k))
                + 1j * rng.normal(size=size + (k, k)))
    l /= np.linalg.norm(l, axis=-1, keepdims=True)
    return np.sqrt(rng.uniform(0.05, 1.0, size + (k, 1))) * l


def toeplitz_noise(k, rho):
    """Unit-diagonal noise covariance with correlations rho^|i - j|."""
    i = np.arange(k)
    return rho ** np.abs(i[:, None] - i[None, :])


class TestSumBoundEvaluation:
    @given(factor_vecs, powers, st.floats(0.0, 80.0), st.floats(0.0, 3.0),
           st.floats(-math.pi, math.pi),
           st.tuples(*[st.floats(-0.6, 0.6)] * 3))
    @settings(max_examples=500, deadline=None)
    def test_matches_3x3_oracle(self, x, power, snr_db, alpha, phase, rho):
        # the QR of the interleaved stack against the hand-derived 3x3
        # algebra; the two round differently, so not bit for bit.  Both
        # lose digits as a diagonal entry of l nears 0 at high SNR, so
        # the diagonal stays above 0.1 here.
        noise = gaussian._noise_from_rho(rho)
        if noise is None:
            return
        ch = channel(3, snr_db, alpha, phase)
        l = gaussian._factor_from_vec(np.array(x))
        for f in (l, np.sqrt(power)[:, None] * l):
            want = oracle_th1_sum_k3(ch, f, noise)
            assert th1(ch, f, noise) == pytest.approx(want, rel=1e-12)

    def test_singular_factors_match_3x3_oracle(self):
        # full beamforming lifts to factors with zero diagonal entries,
        # where X_l is a function of X_<l; the bound there is the limit
        # from non-singular factors, as in the 3x3 algebra.  Rows [l, 0]
        # for X would miss by percents (2.938 for 3.000 at 0 dB); the QR
        # loses digits here at high SNR (8e-12 relative at 60 dB), the
        # 3x3 algebra does not.
        beamform = gaussian.DpcParams(
            alpha=(cmath.rect(1.0, 1.0), 1.0 + 0j, 1.0 + 0j), beta=0j,
            gamma=(0j, 0j))
        singular = [np.diag([1.0, 0.0, 1.0]).astype(complex),
                    np.array([[1, 0, 0], [1j, 0, 0], [0, 0, 1]]) / 2 ** 0.5]
        for snr_db, alpha in ((0.0, 0.0), (20.0, 1.5), (60.0, 2.5)):
            ch = phased(snr_db, alpha, 0.4)
            lifts = [gaussian._factor_from_vec(gaussian._vec_from_sigma(
                gaussian.input_covariance(p, 3)))
                for p in (gaussian.closed_form_params(ch), beamform)]
            for l in lifts + singular:
                for noise in (np.eye(3), gaussian._noise_from_rho(
                        (0.3, -0.2, 0.5))):
                    assert th1(ch, l, noise) == pytest.approx(
                        oracle_th1_sum_k3(ch, l, noise), rel=1e-10)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_stack_gives_per_factor_bits(self, k):
        rng = np.random.default_rng(k)
        for snr_db in (0.0, 30.0, 80.0):
            ch = channel(k, snr_db, 1.5, 0.7)
            bound = gaussian._chain_bound(gaussian._channel_matrix(ch),
                                          toeplitz_noise(k, -0.4))
            stack = random_factors(rng, k, (7,))
            each = [bound(l).item() for l in stack]
            assert bound(stack).tolist() == each
            assert bound(stack.reshape(7, 1, k, k)).ravel().tolist() == each
            assert bound(stack[:0]).shape == (0,)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_k_general_matches_logdet_route(self, k):
        rng = np.random.default_rng(20 + k)
        for snr_db in (0.0, 10.0, 25.0):
            for alpha in (0.4, 1.3, 2.0):
                for rho in (0.0, 0.5, -0.3):
                    ch = channel(k, snr_db, alpha, 2.0)
                    noise = toeplitz_noise(k, rho)
                    l = random_factors(rng, k)
                    assert th1(ch, l, noise) == pytest.approx(
                        chain_bound_joint(ch, l @ l.conj().T, noise),
                        abs=1e-6)

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
                        a = th1(ch, l, noise)
                        b = chain_bound_joint(ch, l @ l.conj().T, noise)
                        assert a == pytest.approx(b, abs=1e-6)

    def test_stable_route_survives_extreme_snr(self):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(50.0, 3.0, 3)
        val = th1(ch, np.eye(3, dtype=complex), np.eye(3))
        assert math.isfinite(val)
        assert 0.0 < val <= gaussian.outer_sum(ch) + 1e-6

    def test_independent_noise_below_analytic_bound(self):
        # the general outer branch is the independent-noise bound; at 0 dB every
        # alpha gives hd == hi, a MAC whose outer_sum assumes correlated
        # noise and is exceeded by full-power inputs
        rng = np.random.default_rng(5)
        for snr_db in (0.0, 20.0, 50.0):
            for alpha in (0.5, 1.5, 2.5):
                ch = gaussian.GaussianSymChannel.from_snr_alpha(
                    snr_db, alpha, 3)
                for _ in range(5):
                    l = gaussian._factor_from_vec(rng.normal(size=8))
                    val = th1(ch, l, np.eye(3))
                    assert val <= oracle_outer_general(ch) + 1e-6

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
        assert th1(ch, lifted, noise) >= th1(ch, l, noise) - 1e-9

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


def channel(k, snr_db, alpha, phase=None):
    """k-user channel, with the interfering gain at phase if given."""
    ch = gaussian.GaussianSymChannel.from_snr_alpha(snr_db, alpha, k)
    if phase is None:
        return ch
    return gaussian.GaussianSymChannel(ch.hd, cmath.rect(abs(ch.hi), phase),
                                       k)


def transmitter_powers(p, k):
    return np.diag(gaussian.input_covariance(p, k)).real


class TestFullPower:
    @given(st.integers(2, 6), st.floats(-10.0, 60.0), st.floats(0.0, 3.0),
           st.one_of(st.none(), st.floats(0.0, 2 * math.pi)),
           st.lists(st.floats(0.0, 1.0), min_size=11, max_size=11))
    @settings(max_examples=300, deadline=None)
    def test_full_power_never_lowers_the_rate(self, k, snr_db, alpha, phase,
                                              u):
        # any feasible point of the (beta, gamma, alpha) family: beta up to
        # its cap, then each transmitter's used power and gamma/alpha split
        ch = channel(k, snr_db, alpha, phase)
        beta = u[0] / math.sqrt(k - 2) if k > 2 else 0.0
        gamma, alphas = [], []
        for j in range(2, k + 1):
            room = max(0.0, 1.0 - ((k - 2) if j == k else 1) * beta ** 2)
            used, split = room * u[2 * j - 3], u[2 * j - 2]
            gamma.append(math.sqrt(used * split))
            alphas.append(math.sqrt(used * (1.0 - split)))
        p = gaussian.DpcParams(
            alpha=(gaussian._primary_phase(ch.hi), *map(complex, alphas)),
            beta=complex(beta), gamma=tuple(map(complex, gamma)))
        full = gaussian._full_power(ch, np.array([beta, *gamma]))
        full.validate(k)
        assert np.abs(transmitter_powers(full, k) - 1.0).max() <= 1e-9
        assert (gaussian.dpc_rates(ch, full).total
                >= gaussian.dpc_rates(ch, p).total - 1e-9)


def slow_objective(ch, x):
    """The inner objective as dpc_rates evaluates it."""
    return gaussian.dpc_rates(ch, gaussian._full_power(ch, x)).total


class TestInnerObjective:
    @given(st.integers(2, 6), st.floats(-10.0, 60.0), st.floats(0.0, 3.0),
           st.none() | st.floats(-math.pi, math.pi),
           st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
           st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_bitwise_dpc_rates(self, k, snr_db, alpha, phase, u, feasible):
        # feasible: beta below its cap and each gamma_j within the room
        # beta leaves; otherwise any x in [0, 1]^k, often over power
        ch = channel(k, snr_db, alpha, phase)
        x = np.array(u[:k])
        if feasible:
            copies = gaussian._zf_copies(k)
            x[0] = u[0] / math.sqrt(copies[-1]) if k > 2 else 0.0
            x[1:] = [math.sqrt(max(1.0 - c * x[0] ** 2, 0.0) * t)
                     for c, t in zip(copies, u[1:k])]
        objective = gaussian._full_power_rate(ch)
        assert outcome(objective, x) == outcome(slow_objective, ch, x)

    @pytest.mark.parametrize("k,x", [
        (2, [0.0, 1.1]), (3, [0.8, 0.7, 0.0]), (4, [0.5, 0.0, 0.0, 0.9]),
        (6, [0.1, 0.2, 0.3, 0.4, 0.5, 1.0 + 1e-6])])
    def test_infeasible_x_raises_on_both_paths(self, k, x):
        ch = channel(k, 30.0, 1.5, 1.0)
        x = np.array(x)
        got = outcome(gaussian._full_power_rate(ch), x)
        assert got.startswith("PowerConstraintViolated: transmitter ")
        assert got == outcome(slow_objective, ch, x)

    def test_totals_add_left_to_right(self):
        # 1e16 + 1 rounds back to 1e16, twice; a compensated sum, as
        # sum() of floats is from Python 3.12, gives 1e16 + 2
        assert gaussian.RateVector((1e16, 1.0, 1.0)).total == 1e16


class TestOptimizers:
    @pytest.mark.parametrize("k,snr_db,alpha,phase", [
        (2, 20.0, 1.5, None), (3, 20.0, 1.5, None), (3, 50.0, 2.5, 1.0),
        (4, 50.0, 1.5, None), (5, 30.0, 2.0, 1.0), (6, 10.0, 0.25, None)])
    def test_inner_runs_every_transmitter_at_full_power(self, k, snr_db,
                                                        alpha, phase):
        ch = channel(k, snr_db, alpha, phase)
        params, val = gaussian.optimize_inner(ch, budget=300, seed=0)
        params.validate(k)
        assert np.abs(transmitter_powers(params, k) - 1.0).max() <= 1e-9
        assert gaussian.dpc_rates(ch, params).total == val

    def test_inner_full_power_regression_point(self):
        # the 2K-1 magnitude search stopped at 10.9753 bits here
        ch = gaussian.GaussianSymChannel.from_snr_alpha(10.0, 0.25, 6)
        _, val = gaussian.optimize_inner(ch, budget=500, seed=0)
        assert val >= 11.97

    def test_inner_never_below_closed_form(self):
        for snr_db, alpha in ((10.0, 0.5), (20.0, 1.5), (40.0, 2.5)):
            ch = gaussian.GaussianSymChannel.from_snr_alpha(snr_db, alpha, 3)
            closed = gaussian.dpc_rates(
                ch, gaussian.closed_form_params(ch)).total
            _, val = gaussian.optimize_inner(ch, budget=800, seed=0)
            assert val >= closed - 1e-9

    @pytest.mark.parametrize("k,snr_db,alpha", [
        (4, -20.0, 0.042), (3, 10.0, 0.25), (5, 0.0, 0.5), (6, 30.0, 0.5),
        (3, 30.0, 1.5), (4, 40.0, 2.5), (6, 20.0, 3.0)])
    def test_inner_never_below_the_certificate(self, k, snr_db, alpha):
        # the coherent, successive and all-beamform (x = 0) schemes are
        # among the starts; the full-power rebuild of the coherent one
        # rounds differently, hence the slack
        ch = gaussian.GaussianSymChannel.from_snr_alpha(snr_db, alpha, k)
        _, val = gaussian.optimize_inner(ch, budget=300, seed=0)
        assert val >= gaussian.additive_gap_certificate(ch).inner - 1e-9

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

    # The exact results at budget 500, seed 0, before the per-channel and
    # per-noise terms of both objectives were computed once per call:
    # three K=3 gauss-optimize points, one with a complex gain, and two
    # inner-only points.
    @pytest.mark.parametrize("k,snr_db,alpha,phase,inner,outer", [
        (3, 50.0, 0.75, None, "34.928776096089855", "35.174684499815115"),
        (3, 50.0, 2.0, None, "66.43586956003925", "66.43586956007456"),
        (3, 40.0, 2.0, 2.5, "53.194273288698014", "53.194385540995036"),
        (4, 50.0, 1.5, None, "73.8916311919209", None),
        (6, 50.0, 2.5, None, "203.23519862338458", None)])
    def test_regression_pin(self, k, snr_db, alpha, phase, inner, outer):
        ch = channel(k, snr_db, alpha, phase)
        params, val = gaussian.optimize_inner(ch, budget=500, seed=0)
        assert repr(val) == inner
        if outer is not None:
            assert repr(gaussian.optimize_outer(
                ch, budget=500, seed=0, inner_hint=params)) == outer

    # Exact results where the budget cuts a search short: the polish
    # (inner, at budgets 1, 60 and 300), a noise point's Nelder-Mead
    # starts (outer, at budgets 350 and 1500), computed before the two
    # optimizers shared one budgeted Nelder-Mead helper.
    @pytest.mark.parametrize("k,snr_db,alpha,phase,budget,inner", [
        (3, 50.0, 0.75, None, 1, "34.773461133150796"),
        (3, 50.0, 0.75, None, 60, "34.829127262921226"),
        (3, 50.0, 0.75, None, 300, "34.92877405322175"),
        (3, 30.0, 1.5, 1.0, 300, "29.99167272340295"),
        (4, 20.0, 1.5, None, 300, "27.576328215321272"),
        (2, 30.0, 1.5, None, 500, "15.420966919308004"),
        (2, 20.0, 0.5, 1.0, 60, "10.36881460497082")])
    def test_budget_limited_inner_pin(self, k, snr_db, alpha, phase, budget,
                                      inner):
        ch = channel(k, snr_db, alpha, phase)
        _, val = gaussian.optimize_inner(ch, budget=budget, seed=0)
        assert repr(val) == inner

    @pytest.mark.parametrize("phase,budget,hint,outer", [
        (None, 350, True, "35.10698149172679"),
        (None, 1500, True, "35.22576109564475"),
        (None, 500, False, "34.92255403053505"),
        (1.0, 500, False, "35.51443566414554")])
    def test_budget_limited_outer_pin(self, phase, budget, hint, outer):
        ch = channel(3, 50.0, 0.75, phase)
        p, _ = gaussian.optimize_inner(ch, budget=500, seed=0)
        assert repr(gaussian.optimize_outer(
            ch, budget=budget, seed=0, inner_hint=p if hint else None)) == outer

    def test_outer_below_inner_hint_raises(self, monkeypatch):
        ch = gaussian.GaussianSymChannel.from_snr_alpha(20.0, 1.5, 3)
        p, _ = gaussian.optimize_inner(ch, budget=500, seed=0)
        monkeypatch.setattr(gaussian, "_chain_bound", lambda h, noise: (
            lambda l: np.zeros(np.shape(l)[:-2])))
        with pytest.raises(gaussian.GapExceeded):
            gaussian.optimize_outer(ch, budget=500, seed=0, inner_hint=p)

    @pytest.mark.parametrize("budget", [1, 300, 343, 500])
    def test_outer_evaluates_each_paid_factor_once(self, budget,
                                                   monkeypatch):
        # the start factors of a noise point go through one stacked call,
        # and every evaluation is paid for, as when they went one by one
        spent, evaluated = [], []
        spend, chain_bound = gaussian._Budget.spend, gaussian._chain_bound

        def counted_spend(self):
            ok = spend(self)
            spent.append(ok)
            return ok

        def counted_bound(h, noise):
            bound = chain_bound(h, noise)

            def counted(l):
                evaluated.append(math.prod(np.shape(l)[:-2]))
                return bound(l)
            return counted

        monkeypatch.setattr(gaussian._Budget, "spend", counted_spend)
        monkeypatch.setattr(gaussian, "_chain_bound", counted_bound)
        ch = phased(30.0, 1.5, 1.0)
        gaussian.optimize_outer(ch, budget=budget, seed=0)
        assert sum(evaluated) == sum(spent) == budget

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
