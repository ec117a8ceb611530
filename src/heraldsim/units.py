"""Physical-unit conversions for fiber-source scenarios: wavelength bands to
angular bandwidths, pump bandwidth to the Gaussian sigma, and fiber dispersion
to phase-matching coefficients."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre


@dataclass(frozen=True)
class PhysicalSource:
    """Fiber photon-pair source described in laboratory units.

    Wavelengths in nm, fiber length in m, beta2 in s^2/m, beta3 in s^3/m.
    beta2/beta3 are the group-velocity-dispersion coefficients at the pump.
    """

    pump_wavelength_nm: float
    pump_bandwidth_fwhm_nm: float
    signal_center_wavelength_nm: float
    filter_bandwidth_nm: float
    fiber_length_m: float
    beta2: float
    beta3: float

    def __post_init__(self):
        for name in ("pump_wavelength_nm", "signal_center_wavelength_nm"):
            wl = getattr(self, name)
            if not (1000.0 < wl < 2000.0):
                raise ValueError(f"{name} = {wl} nm outside the (1000, 2000) nm guard range")
        for name in ("pump_bandwidth_fwhm_nm", "filter_bandwidth_nm", "fiber_length_m"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not (np.isfinite(self.beta2) and np.isfinite(self.beta3)):
            raise ValueError("beta2 and beta3 must be finite")


def wavelength_band_to_angular_bandwidth(center_nm: float, width_nm: float) -> float:
    """Angular-frequency width (rad/s) of a wavelength band of the given width."""
    if center_nm <= 0 or width_nm < 0:
        raise ValueError("center must be positive and width non-negative")
    if width_nm >= 0.1 * center_nm:
        raise ValueError("band width must be small compared to the center wavelength")
    center = center_nm * 1e-9
    width = width_nm * 1e-9
    return 2.0 * np.pi * SPEED_OF_LIGHT * width / center**2


def pump_bandwidth_to_sigma(fwhm_nm: float, center_nm: float) -> float:
    """Gaussian amplitude width sigma (rad/s) from an intensity-FWHM in nm.

    The quoted transform-limited bandwidth is read as the intensity FWHM in
    wavelength; for amplitude exp(-w^2 / 2 sigma^2) the intensity FWHM in
    angular frequency is 2 sqrt(ln 2) sigma.
    """
    fwhm_omega = wavelength_band_to_angular_bandwidth(center_nm, fwhm_nm)
    return fwhm_omega / (2.0 * np.sqrt(np.log(2.0)))


def center_detunings(ps: PhysicalSource) -> tuple[float, float]:
    """Signal and idler center detunings (rad/s) from the pump frequency.

    The idler center follows from energy conservation of degenerate-pump
    four-wave mixing: 2 w_p = w_s + w_i.
    """
    w_p = 2.0 * np.pi * SPEED_OF_LIGHT / (ps.pump_wavelength_nm * 1e-9)
    w_s = 2.0 * np.pi * SPEED_OF_LIGHT / (ps.signal_center_wavelength_nm * 1e-9)
    d_s = w_s - w_p
    return d_s, -d_s


def fiber_mu_coefficients(ps: PhysicalSource) -> tuple[float, float]:
    """Phase-matching (group-delay) coefficients mu_s, mu_i in seconds.

    mu = L * (beta1(center) - beta1(pump)) with beta1 expanded to second order
    around the pump: beta1(w) ~ beta1(w_p) + beta2 dw + beta3 dw^2 / 2.
    """
    d_s, d_i = center_detunings(ps)
    L = ps.fiber_length_m
    mu_s = L * (ps.beta2 * d_s + 0.5 * ps.beta3 * d_s**2)
    mu_i = L * (ps.beta2 * d_i + 0.5 * ps.beta3 * d_i**2)
    return mu_s, mu_i
