"""Collapse of the two-photon state through the signal POVM and the heralded
idler state, plus all figures of merit.

Conventions: detection modes satisfy (1/2pi) integral phi_m phi_n dw = delta_mn,
density-matrix trace is (1/2pi) integral rho(w, w) dw, and idler eigenmodes are
normalized under the same (1/2pi) measure so rho = sum_n lambda_n e_n e_n^*.

The heralded state rho = sum_m eta_m Phi_m Phi_m^* has rank <= M, the number
of retained detection modes.  It is held as its M weighted amplitudes and
diagonalized by a thin SVD of the n_i x M amplitude matrix (the Schmidt
decomposition); the dense n_i x n_i matrix is only built when read.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .jsa import JsaField, jsa_norm, pair_probability
from .numerics import FrequencyGrid, rms_time_width
from .povm import DetectionModeSet, DetectorParams, povm_weights
from .jsa import SourceParams

# uniform pulse-length convention: tau = 4*sqrt(2)*sigma_t, which maps a
# Gaussian pump of bandwidth sigma to the conventional pump length 4/sigma
PULSE_LENGTH_FACTOR = 4.0 * np.sqrt(2.0)


@dataclass(frozen=True)
class HeraldedState:
    """Heralded idler state on a frequency grid, held as rank-<=M amplitudes,
    with its spectrum.

    rho(w_i, w_i') = sum_m a_m(w_i) a_m^*(w_i') for the rows a_m of
    ``amplitudes``; ``rho`` builds that dense matrix on each read.
    """

    grid_i: FrequencyGrid
    amplitudes: np.ndarray  # (M, n_i), sqrt(eta_m / trace) Phi_m
    lam: np.ndarray  # eigenvalues, descending, summing to 1; at most M of them
    eigenmodes: np.ndarray  # (n_i, lam.size) columns, (1/2pi)-orthonormal

    def __post_init__(self):
        for name in ("amplitudes", "lam", "eigenmodes"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def rho(self) -> np.ndarray:
        """(n_i, n_i) density matrix, unit trace under (1/2pi) grid quadrature."""
        return self.amplitudes.T @ self.amplitudes.conj()


@dataclass(frozen=True)
class MetricsReport:
    """Figures of merit of one heralding scenario."""

    p_pair: float
    p_s: float
    d_s: float
    h: float
    t_min: float
    r_abs: float
    practical_rate: Optional[float] = None


def collapsed_wavefunctions(jsa_band: JsaField, modes: DetectionModeSet) -> np.ndarray:
    """Idler amplitudes conditioned on a click in each detection mode.

    Phi_m(w_i) = integral over the filter band of phi_m(w_s) Phi(w_s, w_i) dw_s.
    Returns an (M, n_i) array on jsa_band.grid_i.
    """
    gs = jsa_band.grid_s
    if gs.n != modes.grid_s.n or not np.allclose(gs.nodes, modes.grid_s.nodes):
        raise ValueError("signal grid of the joint amplitude must match the mode grid")
    return (modes.modes * gs.weights[None, :]) @ jsa_band.values


def signal_click_probability(
    jsa_full: JsaField,
    jsa_band: JsaField,
    modes: DetectionModeSet,
    eta: float,
    kappa: float,
) -> tuple[float, float]:
    """Click probability P_s and detection efficiency D_s = P_s / P_pair."""
    norm_full = jsa_norm(jsa_full)
    collapsed = collapsed_wavefunctions(jsa_band, modes)
    weights = povm_weights(modes, eta)
    mode_norms = np.abs(collapsed) ** 2 @ jsa_band.grid_i.weights
    d_s = float(weights @ mode_norms) / (2.0 * np.pi * norm_full)
    p_s = pair_probability(kappa, norm_full) * d_s
    return p_s, d_s


def idler_density_matrix(
    collapsed: np.ndarray,
    eta_weights: np.ndarray,
    grid_i: FrequencyGrid,
) -> HeraldedState:
    """Heralded idler state from the collapsed mode amplitudes.

    rho(w_i, w_i') proportional to sum_m eta_m Phi_m(w_i) Phi_m^*(w_i'),
    normalized to unit trace.  With a_m = sqrt(eta_m / trace) Phi_m and
    b_m = a_m sqrt(w_i / 2pi), the quadrature-weighted rho equals B^T B^*, so
    the thin SVD B^T = U S V^* gives its eigenvalues S^2 and eigenvectors U.
    """
    collapsed = np.asarray(collapsed, dtype=complex)
    eta_weights = np.asarray(eta_weights, dtype=float)
    if collapsed.ndim != 2 or collapsed.shape[0] != eta_weights.size:
        raise ValueError("collapsed amplitudes and weights are inconsistent")
    if collapsed.shape[1] != grid_i.n:
        raise ValueError("collapsed amplitudes do not match the idler grid")
    if not np.any(np.abs(collapsed) > 0):
        raise ValueError("all collapsed amplitudes vanish")
    if np.any(eta_weights < 0.0):
        raise ValueError("detection-mode efficiencies must be non-negative")

    trace = float(eta_weights @ (np.abs(collapsed) ** 2 @ grid_i.weights)) / (2.0 * np.pi)
    if trace <= 0.0:
        raise ValueError("heralded state has zero weight")
    amplitudes = np.sqrt(eta_weights / trace)[:, None] * collapsed

    sw = np.sqrt(grid_i.weights)
    u, s, _ = np.linalg.svd((amplitudes * sw[None, :]).T / np.sqrt(2.0 * np.pi),
                            full_matrices=False)
    lam = s**2 / np.sum(s**2)
    eigenmodes = (u / sw[:, None]) * np.sqrt(2.0 * np.pi)
    return HeraldedState(grid_i=grid_i, amplitudes=amplitudes, lam=lam,
                         eigenmodes=eigenmodes)


def heralding_efficiency(state: HeraldedState) -> float:
    """Largest eigenvalue of the heralded density matrix."""
    return float(state.lam[0])


def pulse_length(grid: FrequencyGrid, amplitude: np.ndarray) -> float:
    """Full pulse length 4*sqrt(2)*sigma_t from a spectral amplitude."""
    return PULSE_LENGTH_FACTOR * rms_time_width(grid, amplitude)


def t_min(
    d: DetectorParams,
    p: SourceParams,
    filtered_signal_amp: tuple[FrequencyGrid, np.ndarray],
    idler_mode0_amp: tuple[FrequencyGrid, np.ndarray],
) -> float:
    """Minimum duration of one heralding cycle.

    The largest of: the measurement window T, the pump length 4/sigma, the
    filtered-signal pulse length, and the pulse length of the dominant
    heralded idler mode.
    """
    tau_sig = pulse_length(*filtered_signal_amp)
    tau_idl = pulse_length(*idler_mode0_amp)
    return max(d.T, 4.0 / p.sigma, tau_sig, tau_idl)


def absolute_rate(d_s: float, t_min_value: float) -> float:
    """Absolute production rate D_s / T_min."""
    if t_min_value <= 0.0:
        raise ValueError(f"t_min must be positive, got {t_min_value}")
    return d_s / t_min_value


def practical_rate(r_abs: float, p_pair: float, external_efficiency: float) -> float:
    """Achievable heralded-photon rate r_abs * P_pair * external efficiency."""
    if not (0.0 <= p_pair <= 1.0):
        raise ValueError(f"p_pair must be a probability, got {p_pair}")
    if not (0.0 <= external_efficiency <= 1.0):
        raise ValueError(f"external efficiency must be in [0, 1], got {external_efficiency}")
    return r_abs * p_pair * external_efficiency
