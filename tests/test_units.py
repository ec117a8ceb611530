import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heraldsim

from heraldsim.units import (
    SPEED_OF_LIGHT,
    PhysicalSource,
    center_detunings,
    fiber_mu_coefficients,
    pump_bandwidth_to_sigma,
    wavelength_band_to_angular_bandwidth,
)


def fiber(**overrides):
    base = dict(
        pump_wavelength_nm=1305.0,
        pump_bandwidth_fwhm_nm=0.03,
        signal_center_wavelength_nm=1306.5,
        filter_bandwidth_nm=0.14,
        fiber_length_m=500.0,
        beta2=0.0,
        beta3=0.0,
    )
    base.update(overrides)
    return PhysicalSource(**base)


class TestWavelengthBand:
    def test_filter_band_value(self):
        band = wavelength_band_to_angular_bandwidth(1306.5, 0.14)
        assert band / (2 * np.pi) == pytest.approx(24.6e9, rel=0.02)

    def test_zero_width(self):
        assert wavelength_band_to_angular_bandwidth(1306.5, 0.0) == 0.0

    def test_linear_in_width(self):
        one = wavelength_band_to_angular_bandwidth(1306.5, 0.1)
        two = wavelength_band_to_angular_bandwidth(1306.5, 0.2)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_rejects_wide_band(self):
        with pytest.raises(ValueError):
            wavelength_band_to_angular_bandwidth(1300.0, 200.0)

    @pytest.mark.parametrize("center, width", [(1306.5, -0.1), (0.0, 0.1), (-1306.5, 0.1)])
    def test_rejects_negative_width_or_centre(self, center, width):
        with pytest.raises(ValueError, match="center must be positive and width non-negative"):
            wavelength_band_to_angular_bandwidth(center, width)


class TestPumpBandwidth:
    def test_paper_pump(self):
        sigma = pump_bandwidth_to_sigma(0.03, 1305.0)
        fwhm = sigma * 2 * np.sqrt(np.log(2))
        assert fwhm / (2 * np.pi) == pytest.approx(5.29e9, rel=0.01)
        assert sigma / (2 * np.pi) == pytest.approx(3.18e9, rel=0.01)

    def test_linear_scaling(self):
        assert pump_bandwidth_to_sigma(0.06, 1305.0) == pytest.approx(
            2 * pump_bandwidth_to_sigma(0.03, 1305.0), rel=1e-12)


class TestFiberMu:
    def test_zero_dispersion(self):
        assert fiber_mu_coefficients(fiber()) == (0.0, 0.0)

    def test_beta2_odd_symmetry(self):
        mu_s, mu_i = fiber_mu_coefficients(fiber(beta2=1e-26))
        d_s, d_i = center_detunings(fiber())
        assert d_i == -d_s
        assert mu_s == pytest.approx(500.0 * 1e-26 * d_s, rel=1e-12)
        assert mu_i == pytest.approx(-mu_s, rel=1e-12)

    def test_beta3_even_symmetry(self):
        mu_s, mu_i = fiber_mu_coefficients(fiber(beta3=1e-40))
        assert mu_i == pytest.approx(mu_s, rel=1e-12)
        assert mu_s > 0

    def test_energy_conservation_detunings(self):
        d_s, d_i = center_detunings(fiber())
        # signal sits 1.5 nm above the pump wavelength, ~264 GHz below in frequency
        assert d_s / (2 * np.pi) == pytest.approx(-264e9, rel=0.01)
        assert d_i == -d_s


class TestPhysicalSourceGuards:
    def test_wavelength_guard(self):
        with pytest.raises(ValueError):
            fiber(pump_wavelength_nm=900.0)
        with pytest.raises(ValueError):
            fiber(signal_center_wavelength_nm=2100.0)

    def test_positive_guards(self):
        with pytest.raises(ValueError):
            fiber(filter_bandwidth_nm=0.0)
        with pytest.raises(ValueError):
            fiber(fiber_length_m=-1.0)
        for key in ("pump_bandwidth_fwhm_nm", "filter_bandwidth_nm", "fiber_length_m"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"^{key} must be positive and finite$"):
                    fiber(**{key: bad})

    def test_finite_dispersion(self):
        with pytest.raises(ValueError):
            fiber(beta2=np.nan)


class TestConstants:
    def test_speed_of_light_is_exact_si_value(self):
        assert SPEED_OF_LIGHT == 299_792_458.0
        scipy_constants = pytest.importorskip("scipy.constants")
        assert SPEED_OF_LIGHT == scipy_constants.c

    def test_import_leaves_scipy_unloaded(self):
        src = Path(heraldsim.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys, heraldsim, heraldsim.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
