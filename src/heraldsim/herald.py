"""Collapse of the two-photon state through the signal POVM and the heralded
idler state, plus all figures of merit.

Conventions: detection modes satisfy (1/2pi) integral phi_m phi_n dw = delta_mn,
density-matrix trace is (1/2pi) integral rho(w, w) dw, and idler eigenmodes are
normalized under the same (1/2pi) measure so rho = sum_n lambda_n e_n e_n^*.

The heralded state rho = sum_m eta_m Phi_m Phi_m^* has rank <= M, the number
of retained detection modes.  It is held as its M weighted amplitudes, and its
spectrum and leading eigenmode come from an eigensolve of the M x M Gram
matrix of those amplitudes.  The dense n_i x n_i matrix and the full set of
idler eigenmodes are only built when read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .jsa import JsaField, SourceParams
from .numerics import (
    FrequencyGrid,
    fix_column_phases,
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
    with its spectrum and leading eigenmode.

    rho(w_i, w_i') = sum_m a_m(w_i) a_m^*(w_i') for the rows a_m of
    ``amplitudes``; ``rho`` builds that dense matrix on each read, and
    ``eigenmodes`` builds every idler eigenmode on its first read.
    ``click_weight`` is sum_m eta_m ||Phi_m||^2 under the grid quadrature, the
    trace of the unnormalized state times 2pi: D_s is click_weight over
    2pi times the full joint-amplitude norm, and H is lam[0].
    """

    grid_i: FrequencyGrid
    click_weight: float
    amplitudes: np.ndarray  # (M, n_i), sqrt(eta_m / trace) Phi_m
    lam: np.ndarray  # eigenvalues, descending, summing to 1; min(M, n_i) of them
    leading_mode: np.ndarray  # (n_i,) eigenmode of lam[0], (1/2pi)-normalized

    def __post_init__(self):
        for name in ("amplitudes", "lam", "leading_mode"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def rho(self) -> np.ndarray:
        """(n_i, n_i) density matrix, unit trace under (1/2pi) grid quadrature."""
        return self.amplitudes.T @ self.amplitudes.conj()

    @cached_property
    def eigenmodes(self) -> np.ndarray:
        """(n_i, lam.size) read-only eigenmode columns, (1/2pi)-orthonormal,
        in the order of ``lam``, from a thin SVD of the weighted amplitudes.

        Each column is rotated so that its first node above 1e-8 of its
        largest magnitude is real and positive.  Column 0 is ``leading_mode``
        up to rounding and, where that reference node is tiny, a global phase.
        """
        sw = np.sqrt(self.grid_i.weights)
        u, _, _ = np.linalg.svd((self.amplitudes * sw[None, :]).T / np.sqrt(2.0 * np.pi),
                                full_matrices=False)
        modes = (u / sw[:, None]) * np.sqrt(2.0 * np.pi)
        fix_column_phases(modes)  # the sign rule of the detection modes
        modes.setflags(write=False)
        return modes


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
    Returns an (M, n_i) array on jsa_band.grid_i.  The two signal grids must
    have the same nodes exactly, as two build_grid calls on the same band and
    size give: a tolerance would be absolute at some scale and pass grids of
    a different width whose nodes all lie below it.
    """
    gs = jsa_band.grid_s
    if not np.array_equal(gs.nodes, modes.grid_s.nodes):
        raise ValueError("signal grid of the joint amplitude must match the mode grid")
    return (modes.modes * gs.weights[None, :]) @ jsa_band.values


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
    B^T v / sqrt(g) of rho.  Only the leading one is formed.  Real amplitudes
    stay real.  The leading eigenmode is rotated so that its first node above
    1e-8 of its largest magnitude is real and positive.
    """
    collapsed = float_or_complex(collapsed)
    eta_weights = np.asarray(eta_weights, dtype=float)
    if collapsed.ndim != 2 or collapsed.shape[0] != eta_weights.size:
        raise ValueError("collapsed amplitudes and weights are inconsistent")
    if collapsed.shape[1] != grid_i.n:
        raise ValueError("collapsed amplitudes do not match the idler grid")
    if not np.all(np.isfinite(collapsed)):
        raise ValueError("collapsed amplitudes must be finite")
    if not np.all(np.isfinite(eta_weights)):
        raise ValueError("detection-mode efficiencies must be finite")
    if not np.any(np.abs(collapsed) > 0):
        raise ValueError("all collapsed amplitudes vanish")
    if np.any(eta_weights < 0.0):
        raise ValueError("detection-mode efficiencies must be non-negative")

    click_weight = float(eta_weights @ (np.abs(collapsed) ** 2 @ grid_i.weights))
    trace = click_weight / (2.0 * np.pi)
    if trace <= 0.0:
        raise ValueError("heralded state has zero weight")
    amplitudes = np.sqrt(eta_weights / trace)[:, None] * collapsed

    sw = np.sqrt(grid_i.weights)
    b = amplitudes * (sw / np.sqrt(2.0 * np.pi))[None, :]
    g, v = hermitian_eigen(b.conj() @ b.T)
    # rho has rank <= min(M, n_i); G's eigenvalues past that are rounding
    g = np.maximum(g[:min(b.shape)], 0.0)
    lam = g / np.sum(g)
    leading = (b.T @ v[:, 0]) * (np.sqrt(2.0 * np.pi / g[0]) / sw)
    fix_column_phases(leading[:, None])
    return HeraldedState(grid_i=grid_i, click_weight=click_weight, amplitudes=amplitudes,
                         lam=lam, leading_mode=leading)


def t_min(
    d: DetectorParams,
    p: SourceParams,
    tau_sig: float,
    idler_mode0_amp: tuple[FrequencyGrid, np.ndarray],
) -> float:
    """Minimum duration of one heralding cycle.

    The largest of: the measurement window T, the pump length 4/sigma, the
    filtered-signal pulse length ``tau_sig``, and the pulse length of the
    dominant heralded idler mode, PULSE_LENGTH_FACTOR times the RMS width of
    its amplitude.  ``tau_sig`` does not depend on T, so it is read once per
    source level (``scenarios.SourceSamples``), whatever the window.
    """
    tau_idl = PULSE_LENGTH_FACTOR * rms_time_width(*idler_mode0_amp)
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
