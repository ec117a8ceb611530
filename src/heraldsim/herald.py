"""Collapse of the two-photon state through the signal POVM and the heralded
idler state, plus all figures of merit.

Conventions: detection modes satisfy (1/2pi) integral phi_m phi_n dw = delta_mn,
density-matrix trace is (1/2pi) integral rho(w, w) dw, and idler eigenmodes are
normalized under the same (1/2pi) measure so rho = sum_n lambda_n e_n e_n^*.

The heralded state rho = sum_m eta_m Phi_m Phi_m^* has rank <= M, the number
of retained detection modes.  It is held as its M weighted amplitudes, and its
spectrum and the pulse length tau_idl of its leading eigenmode come from an
eigensolve of the M x M Gram matrix of those amplitudes.  The dense n_i x n_i
matrix and the idler eigenmodes are built on each read.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .jsa import JsaField, SourceParams
from .numerics import (
    FrequencyGrid,
    abs_squared,
    float_or_complex,
    hermitian_eigen,
    rms_time_width,
)
from .povm import DetectionModeSet, DetectorParams

# uniform pulse-length convention: tau = 4*sqrt(2)*sigma_t, which maps a
# Gaussian pump of bandwidth sigma to the conventional pump length 4/sigma
PULSE_LENGTH_FACTOR = 4.0 * np.sqrt(2.0)


@dataclass(frozen=True)
class HeraldedState:
    """Heralded idler state on a frequency grid, held as rank-<=M amplitudes,
    with its spectrum and the pulse length tau_idl that T_min reads.

    rho(w_i, w_i') = sum_m a_m(w_i) a_m^*(w_i') for the rows a_m of
    ``amplitudes``; ``rho`` builds that dense matrix, and ``eigenmodes`` every
    idler eigenmode, on each read.
    ``click_weight`` is sum_m eta_m ||Phi_m||^2 under the grid quadrature, the
    trace of the unnormalized state times 2pi: D_s is click_weight over
    2pi times the full joint-amplitude norm, and H is lam[0].
    """

    grid_i: FrequencyGrid
    click_weight: float
    amplitudes: np.ndarray  # (M, n_i), sqrt(eta_m / trace) Phi_m
    lam: np.ndarray  # eigenvalues, descending, summing to 1; min(M, n_i) of them
    tau_idl: float  # PULSE_LENGTH_FACTOR times the RMS time width of lam[0]'s mode

    def __post_init__(self):
        for name in ("amplitudes", "lam"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def rho(self) -> np.ndarray:
        """(n_i, n_i) density matrix, unit trace under (1/2pi) grid quadrature."""
        return self.amplitudes.T @ self.amplitudes.conj()

    @property
    def eigenmodes(self) -> np.ndarray:
        """(n_i, lam.size) eigenmode columns, (1/2pi)-orthonormal, in the order
        of ``lam``, from a thin SVD of the weighted amplitudes, with the SVD's
        phases: ``scenarios.dump_mode_tables``, their one reader, sets them."""
        sw = np.sqrt(self.grid_i.weights)
        u, _, _ = np.linalg.svd((self.amplitudes * sw[None, :]).T / np.sqrt(2.0 * np.pi),
                                full_matrices=False)
        return (u / sw[:, None]) * np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class MetricsReport:
    """Figures of merit of one heralding scenario."""

    p_pair: float
    p_s: float
    d_s: float
    h: float
    t_min: float
    r_abs: float
    # the joint amplitude's Legendre tail on the grid level these come from is
    # at most scenarios.CHOP_TOL
    resolved: bool
    practical_rate: Optional[float] = None


def collapsed_wavefunctions(jsa_band: JsaField, modes: DetectionModeSet) -> np.ndarray:
    """Idler amplitudes conditioned on a click in each detection mode.

    Phi_m(w_i) = integral over the filter band of phi_m(w_s) Phi(w_s, w_i) dw_s.
    Each mode is a Legendre series, phi_m = sum_k coef[k, m] Pbar_k(2w_s/B),
    so Phi_m = sum_k coef[k, m] C_k with C the band field's signal-axis
    Legendre moments (``JsaField.signal_moments``), which the field holds for
    every window that reads it: no mode is evaluated on the grid.
    Returns an (M, n_i) array on jsa_band.grid_i.  The two signal grids must
    have the same nodes exactly, as two build_grid calls on the same band and
    size give: a tolerance would be absolute at some scale and pass grids of
    a different width whose nodes all lie below it.
    """
    gs = jsa_band.grid_s
    if gs is not modes.grid_s and not np.array_equal(gs.nodes, modes.grid_s.nodes):
        raise ValueError("signal grid of the joint amplitude must match the mode grid")
    return modes.coef.T @ jsa_band.signal_moments(modes.coef.shape[0])


def idler_density_matrix(
    collapsed: np.ndarray,
    eta_weights: np.ndarray,
    grid_i: FrequencyGrid,
) -> HeraldedState:
    """Heralded idler state from the collapsed mode amplitudes.

    rho(w_i, w_i') proportional to sum_m eta_m Phi_m(w_i) Phi_m^*(w_i'),
    normalized to unit trace.  With a_m = sqrt(eta_m / trace) Phi_m and
    b_m = a_m sqrt(w_i / 2pi), the quadrature-weighted rho equals B^T B^*, so
    its nonzero eigenvalues are those of the M x M Gram matrix G = B^* B^T,
    and an eigenvector v of G with eigenvalue g gives the eigenvector
    B^T v / sqrt(g) of rho.  Only the leading one is formed, to give tau_idl,
    PULSE_LENGTH_FACTOR times its RMS time width, which does not depend on its
    phase.  Real amplitudes stay real.
    """
    collapsed = float_or_complex(collapsed)
    eta_weights = np.asarray(eta_weights, dtype=float)
    if collapsed.ndim != 2 or collapsed.shape[0] != eta_weights.size:
        raise ValueError("collapsed amplitudes and weights are inconsistent")
    if collapsed.shape[1] != grid_i.n:
        raise ValueError("collapsed amplitudes do not match the idler grid")
    # a valid input gives a positive finite click weight, so the checks of
    # each input run only when the weight is not that or an efficiency is
    # negative; a weight that overflows or underflows from valid inputs
    # passes them all and is reported as it is
    click_weight = float(eta_weights @ (abs_squared(collapsed) @ grid_i.weights))
    if not 0.0 < click_weight < np.inf or np.any(eta_weights < 0.0):
        if not np.all(np.isfinite(collapsed)):
            raise ValueError("collapsed amplitudes must be finite")
        if not np.all(np.isfinite(eta_weights)):
            raise ValueError("detection-mode efficiencies must be finite")
        if not np.any(np.abs(collapsed) > 0):
            raise ValueError("all collapsed amplitudes vanish")
        if np.any(eta_weights < 0.0):
            raise ValueError("detection-mode efficiencies must be non-negative")
        raise ValueError(f"heralded state has weight {click_weight}, not a positive "
                         "finite number")
    trace = click_weight / (2.0 * np.pi)
    amplitudes = np.sqrt(eta_weights / trace)[:, None] * collapsed

    sw = np.sqrt(grid_i.weights)
    b = amplitudes * (sw / np.sqrt(2.0 * np.pi))[None, :]
    g, v = hermitian_eigen(b.conj() @ b.T)
    # rho has rank <= min(M, n_i); G's eigenvalues past that are rounding
    g = np.maximum(g[:min(b.shape)], 0.0)
    lam = g / np.sum(g)
    leading = (b.T @ v[:, 0]) * (np.sqrt(2.0 * np.pi / g[0]) / sw)
    tau_idl = PULSE_LENGTH_FACTOR * rms_time_width(grid_i, leading)
    return HeraldedState(grid_i=grid_i, click_weight=click_weight, amplitudes=amplitudes,
                         lam=lam, tau_idl=tau_idl)


def t_min(d: DetectorParams, p: SourceParams, tau_sig: float, tau_idl: float) -> float:
    """Minimum duration of one heralding cycle.

    The largest of: the measurement window T, the pump length 4/sigma, the
    filtered-signal pulse length ``tau_sig`` and the pulse length ``tau_idl``
    of the dominant heralded idler mode (``HeraldedState``).  ``tau_sig`` does
    not depend on T, so it is read once per source level
    (``scenarios.SourceSamples``), whatever the window.
    """
    return max(d.T, 4.0 / p.sigma, tau_sig, tau_idl)


def practical_rate(r_abs: float, p_pair: float, external_efficiency: float) -> float:
    """Achievable heralded-photon rate r_abs * P_pair * external efficiency."""
    if not (0.0 <= p_pair <= 1.0):
        raise ValueError(f"p_pair must be a probability, got {p_pair}")
    if not (0.0 <= external_efficiency <= 1.0):
        raise ValueError(f"external efficiency must be in [0, 1], got {external_efficiency}")
    return r_abs * p_pair * external_efficiency
