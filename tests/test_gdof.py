"""Generalized degrees-of-freedom curves and empirical slope fits."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cifc_cms import gdof, ldc


class TestClosedForms:
    def test_cms_values(self):
        assert gdof.gdof_cms(0.0, 3) == 3.0
        assert gdof.gdof_cms(0.5, 3) == 2.5
        assert gdof.gdof_cms(2.0, 3) == 4.0
        assert gdof.gdof_cms(2.0, 5) == 8.0

    def test_cms_alpha_one(self):
        for k in range(2, 50):                       # two-sided limit
            d = gdof.gdof_cms(1.0, k)
            assert type(d) is float and d == float(k - 1)
        assert gdof.curve_sweep("cms", 4, [1.0], discontinuity=True) == (
            (1.0, 1.0),)

    def test_bc_values(self):
        assert gdof.gdof_bc(0.5, 3) == 3.0
        assert gdof.gdof_bc(2.0, 3) == 6.0
        assert gdof.curve_sweep("bc", 3, [1.0], discontinuity=True) == (
            (1.0, 1.0),)

    def test_ifc_w_curve_breakpoints(self):
        assert gdof.gdof_ifc(0.0, 2) == 2.0
        assert gdof.gdof_ifc(0.5, 2) == 1.0
        assert gdof.gdof_ifc(2.0 / 3.0, 2) == pytest.approx(4.0 / 3.0)
        assert gdof.gdof_ifc(1.0, 2) == 1.0
        assert gdof.gdof_ifc(2.0, 2) == 2.0
        assert gdof.gdof_ifc(3.0, 2) == 2.0
        assert gdof.gdof_ifc(0.5, 4) == 2.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gdof.gdof_cms(-0.5, 3)
        with pytest.raises(ValueError):
            gdof.gdof_cms(1.0, 1)

    @pytest.mark.parametrize("alpha,k", [
        (math.nan, 3), (math.inf, 3), (-0.5, 3), (0.5, 2.5), (0.5, "3"),
        (0.5, 1), (0.5, True)])
    def test_every_model_rejects_what_the_channel_rejects(self, alpha, k):
        # gdof_cms(nan, 3) returned nan and gdof_cms(0.5, 2.5) 2.0
        for fn in (gdof.gdof_cms, gdof.gdof_ifc, gdof.gdof_bc):
            with pytest.raises(ValueError, match="need a finite alpha"):
                fn(alpha, k)

    def test_sweep_rejects_a_nan_sample(self):
        with pytest.raises(ValueError, match="need a finite alpha"):
            gdof.curve_sweep("cms", 3, [0.5, math.nan])

    @pytest.mark.parametrize("k,alpha", [(1, 0.5), (2.5, 0.5), (3, -0.5),
                                         (3, math.nan)])
    def test_slope_fit_rejects_bad_args(self, k, alpha):
        # at k = 1 the fit returned slopes (1.490, 0.863)
        with pytest.raises(ValueError, match="need a finite alpha"):
            gdof.empirical_gdof_curve(k, [alpha], [10.0, 20.0])

    @given(st.floats(0.0, 4.0), st.integers(2, 8))
    def test_ordering_away_from_alpha_one(self, alpha, k):
        if alpha == 1.0:
            return
        assert gdof.gdof_ifc(alpha, k) <= gdof.gdof_cms(alpha, k) + 1e-12
        assert gdof.gdof_cms(alpha, k) <= gdof.gdof_bc(alpha, k) + 1e-12

    @given(st.floats(0.0, 4.0), st.integers(2, 8))
    def test_bc_minus_cms_is_alpha(self, alpha, k):
        if alpha == 1.0:
            return
        diff = gdof.gdof_bc(alpha, k) - gdof.gdof_cms(alpha, k)
        assert diff == pytest.approx(alpha, abs=1e-12)


class TestCurveSweep:
    def test_samples_and_normalization(self):
        curve = gdof.curve_sweep("cms", 4, [0.0, 0.5, 2.0])
        assert curve == ((0.0, 4.0), (0.5, 3.5), (2.0, 6.0))

    @pytest.mark.parametrize("model", gdof.MODELS)
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_discontinuity_sets_only_alpha_one(self, model, k):
        # the MAC value 1 at alpha = 1 for every model; elsewhere, and
        # without the flag, the model's closed form
        grid = [0.5, 1.0, 1.5]
        fn = {"cms": gdof.gdof_cms, "ifc": gdof.gdof_ifc,
              "bc": gdof.gdof_bc}[model]
        assert gdof.curve_sweep(model, k, grid, discontinuity=True) == (
            (0.5, fn(0.5, k)), (1.0, 1.0), (1.5, fn(1.5, k)))
        assert gdof.curve_sweep(model, k, grid) == tuple(
            (a, fn(a, k)) for a in grid)

    def test_discontinuity_still_checks_the_user_count(self):
        with pytest.raises(ValueError, match="need a finite alpha"):
            gdof.curve_sweep("cms", 1, [1.0], discontinuity=True)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            gdof.curve_sweep("nonsense", 3, [0.5])

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            gdof.curve_sweep("cms", 3, [1.5, 0.5])


class TestEmpiricalSlopes:
    @pytest.mark.parametrize("k,alpha", [(2, 0.0), (3, 0.5), (4, 2.5)])
    def test_slope_matches_closed_form(self, k, alpha):
        [est] = gdof.empirical_gdof_curve(k, [alpha],
                                          [40.0, 50.0, 60.0, 70.0, 80.0])
        target = gdof.gdof_cms(alpha, k)
        assert est.inner_slope == pytest.approx(target, abs=0.05)
        assert est.outer_slope == pytest.approx(target, abs=0.05)

    def test_rejects_alpha_near_one(self):
        with pytest.raises(ValueError):
            gdof.empirical_gdof_curve(3, [0.95], [40.0, 60.0])

    def test_rejects_an_snr_that_overflows(self):
        # 1e6 dB raised a bare OverflowError in the channel grid
        with pytest.raises(ValueError, match="overflows"):
            gdof.empirical_gdof_curve(3, [0.5], [40.0, 1e6])

    def test_needs_two_points(self):
        for snrs in ([40.0], [40.0, 40.0]):
            with pytest.raises(ValueError, match="two distinct SNR"):
                gdof.empirical_gdof_curve(3, [0.5], snrs)


class TestMatchesLdc:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_gdof_times_n_is_symmetric_ldc_capacity(self, k):
        # the LDC with nd = n, ni = alpha n is the Gaussian channel's
        # high-SNR model; at ni = n it is the MAC, the discontinuity
        for n in range(1, 13):
            for ni in range(3 * n + 1):
                [(_, d)] = gdof.curve_sweep("cms", k, [ni / n],
                                            discontinuity=ni == n)
                cap = ldc.ldc_k_sym_sum_capacity(n, ni, k).value
                assert d * n == pytest.approx(cap, abs=1e-9), (n, ni)
