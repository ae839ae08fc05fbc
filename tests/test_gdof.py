"""Generalized degrees-of-freedom curves and empirical slope fits."""

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
        assert gdof.gdof_cms(1.0, 4) == 3.0          # two-sided limit
        assert gdof.gdof_cms(1.0, 4, discontinuity=True) == 1.0

    def test_bc_values(self):
        assert gdof.gdof_bc(0.5, 3) == 3.0
        assert gdof.gdof_bc(2.0, 3) == 6.0
        assert gdof.gdof_bc(1.0, 3, discontinuity=True) == 1.0

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
        assert curve.samples == ((0.0, 4.0), (0.5, 3.5), (2.0, 6.0))

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            gdof.curve_sweep("nonsense", 3, [0.5])

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            gdof.curve_sweep("cms", 3, [1.5, 0.5])


class TestEmpiricalSlopes:
    @pytest.mark.parametrize("k,alpha", [(2, 0.0), (3, 0.5), (4, 2.5)])
    def test_slope_matches_closed_form(self, k, alpha):
        est = gdof.empirical_gdof(k, alpha, [40.0, 50.0, 60.0, 70.0, 80.0])
        target = gdof.gdof_cms(alpha, k)
        assert est.inner_slope == pytest.approx(target, abs=0.05)
        assert est.outer_slope == pytest.approx(target, abs=0.05)

    def test_rejects_alpha_near_one(self):
        with pytest.raises(ValueError):
            gdof.empirical_gdof(3, 0.95, [40.0, 60.0])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            gdof.empirical_gdof(3, 0.5, [40.0])


class TestMatchesLdc:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_gdof_times_n_is_symmetric_ldc_capacity(self, k):
        # the LDC with nd = n, ni = alpha n is the Gaussian channel's
        # high-SNR model; at ni = n it is the MAC, the discontinuity
        for n in range(1, 13):
            for ni in range(3 * n + 1):
                d = gdof.gdof_cms(ni / n, k, discontinuity=ni == n)
                cap = ldc.ldc_k_sym_sum_capacity(n, ni, k).value
                assert d * n == pytest.approx(cap, abs=1e-9), (n, ni)
