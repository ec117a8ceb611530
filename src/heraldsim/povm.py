"""Detection-mode basis of a band-limited, time-windowed on/off measurement.

The mode functions and their efficiencies are the eigenpairs of the
time-frequency limiting operator on the filter band: kernel
K(w, w') = sin(T (w - w') / 2) / (pi (w - w')).  In x = 2w/B it is the
sinc kernel sin(c (x - x')) / (pi (x - x')) on [-1, 1], c = B T / 4, whose
eigenfunctions are the prolate spheroidal wave functions psi_n (Slepian &
Pollak, BSTJ 40, 43 (1961)).

The psi_n are also the eigenfunctions of the prolate differential operator
-d/dx (1 - x^2) d/dx + c^2 x^2, which commutes with the kernel.  In the
normalized Legendre basis sqrt(k + 1/2) P_k that operator couples only the
terms k and k +- 2, so it splits into an even-k and an odd-k symmetric
tridiagonal matrix whose order depends on c and the number of modes, not on
the grid.  The kernel eigenvalues follow in closed form from the expansion
coefficients (Xiao, Rokhlin & Yarvin, Inverse Problems 17, 805 (2001)), and the
modes are polynomials evaluated on the Gauss-Legendre band grid.  The
coefficients and eigenvalues are solved once per (c, number of modes) and
cached, so grids of different sizes share one solve.

Each mode is real up to a sign, fixed by one rule: the mode is positive at
its first grid node above 1e-8 of its largest magnitude.  psi_0 has no zero on
the band, so it comes out positive everywhere.  Mode n is psi_n, of parity
n % 2, also inside the cluster of chi ~ 1 where rounding cannot order the
closed-form eigenvalues.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (
    FrequencyGrid,
    build_grid,
    fix_column_phases,
    legendre_vander,
)


@dataclass(frozen=True)
class DetectorParams:
    """Rectangular filter of full bandwidth B, measurement window T, and
    intrinsic quantum efficiency eta."""

    B: float
    T: float
    eta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.B) and self.B > 0):
            raise ValueError(f"filter bandwidth must be positive, got {self.B}")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"measurement window must be positive, got {self.T}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")

    @property
    def c(self) -> float:
        """Time-bandwidth parameter B*T/4; c < 1 is the single-mode regime."""
        return self.B * self.T / 4.0


@dataclass(frozen=True)
class DetectionModeSet:
    """Top detection modes phi_m on the filter band with eigenvalues chi_m.

    Modes are normalized so (1/2pi) integral phi_m phi_n dw = delta_mn.
    chi holds the M retained eigenvalues (descending); chi_all is the spectrum
    of the Legendre expansion, its N values (``legendre_terms``) summing to
    the operator trace 2c/pi.  It does not depend on the grid.
    """

    grid_s: FrequencyGrid
    modes: np.ndarray  # shape (M, n_grid)
    chi: np.ndarray
    chi_all: np.ndarray

    def __post_init__(self):
        for name in ("modes", "chi", "chi_all"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def legendre_terms(c: float, m_modes: int) -> int:
    """Legendre terms N in each mode expansion, rounded up to even so that each
    parity block has N / 2; the coefficients of the top m_modes modes have
    fallen below double precision by then."""
    n = math.ceil(c + m_modes + 40)
    return n + n % 2


# Both table caches below hold 4 tables; a run reads one of each.  Runs in a
# row that share (c, M) share the solve (fig5-9ps, then fig5-wideband), and
# fig4's windows of one N share the rows (12 hits in 17).  Bound 4 keeps the
# five presets' four keys; at bound 1, fig5-180ps after fig3 builds its band
# rows in freshly faulted pages (161 minor faults against 2, about 0.2 ms).
# A larger bound keeps past windows' tables, which no later window reads.
@lru_cache(maxsize=4)
def _prolate_expansion(c: float, m_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Legendre coefficients of the top m_modes prolate functions and
    the spectrum of the expansion, computed once per (c, m_modes); the last 4
    pairs are kept.

    Returns the N x m_modes coefficients in the normalized basis
    sqrt(k + 1/2) P_k, so each column has unit norm on [-1, 1], and the N
    eigenvalues chi in descending order.

    Each parity block of the prolate operator is solved on N / 2 Legendre
    coefficients beta; its eigenvalues, ascending, give the modes n = 0, 2, 4,
    ... (even block) and n = 1, 3, 5, ... (odd block), so mode n is column
    n // 2 of the block of parity n % 2.  With mu the eigenvalue
    of the finite Fourier transform integral exp(i c x t) psi(t) dt, its value
    and slope at x = 0 give |mu| = sqrt(2) beta_0 / psi(0) for even modes and
    c sqrt(2/3) beta_1 / psi'(0) for odd modes, and chi = c mu^2 / 2pi.
    """
    n_terms = legendre_terms(c, m_modes)
    k = np.arange(n_terms, dtype=float)
    diag = k * (k + 1) + c**2 * (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
    k2 = k[:-2]
    upper = c**2 * (k2 + 2) * (k2 + 1) / ((2 * k2 + 3) * np.sqrt((2 * k2 + 1) * (2 * k2 + 5)))
    scale = np.sqrt(k + 0.5)  # P_k -> normalized P_k
    half = n_terms // 2  # order of each parity block
    # P_2j(0) = (-1)^j (2j - 1)!! / (2j)!!  and  P_2j+1'(0) = (2j + 1) P_2j(0)
    j = np.arange(1, half)
    p_at_0 = np.concatenate([[1.0], np.cumprod((1 - 2 * j) / (2 * j))])
    at_0 = (scale[0::2] * p_at_0, scale[1::2] * k[1::2] * p_at_0)
    mu_factor = (np.sqrt(2.0), c * np.sqrt(2.0 / 3.0))

    # both blocks in one stacked solve; eigh lists eigenvalues ascending,
    # which is mode order
    blocks = np.zeros((2, half, half))
    for parity, block in enumerate(blocks):
        block.flat[::half + 1] = diag[parity::2]
        block.flat[1::half + 1] = block.flat[half::half + 1] = upper[parity::2]
    _, coefs = np.linalg.eigh(blocks)
    # chi falls strictly with n (Slepian & Pollak 1961): interleave, even first
    chi = np.empty(n_terms)
    for parity, beta in enumerate(coefs):
        mu = mu_factor[parity] * beta[0] / (at_0[parity] @ beta)
        chi[parity::2] = c * mu**2 / (2.0 * np.pi)
    coef = np.zeros((n_terms, m_modes))
    coef[0::2, 0::2] = coefs[0][:, :(m_modes + 1) // 2]
    coef[1::2, 1::2] = coefs[1][:, :m_modes // 2]
    coef.setflags(write=False)
    chi.setflags(write=False)
    return coef, chi


@lru_cache(maxsize=4)
def _band_rows(B: float, n_grid: int, n_terms: int) -> np.ndarray:
    """The read-only n_terms x n_grid normalized Legendre rows Pbar_k(2w/B),
    k < n_terms, at the nodes of ``build_grid(-B/2, B/2, n_grid)``: what
    ``detection_modes`` evaluates the mode expansions on, built once per
    (B, n_grid, n_terms).  The tables of the last 4 keys are kept, of
    8 n_terms n_grid bytes each."""
    grid = build_grid(-0.5 * B, 0.5 * B, n_grid)
    rows = legendre_vander(grid.nodes * (2.0 / (grid.hi - grid.lo)), n_terms)
    rows.setflags(write=False)
    return rows


def detection_modes(d: DetectorParams, n_grid: int, m_modes: int) -> DetectionModeSet:
    """Eigenmodes and eigenvalues of the band-limiting/time-windowing operator.

    Returns the top ``m_modes`` eigenpairs, the modes sampled on an
    ``n_grid``-node Gauss-Legendre grid over [-B/2, B/2], and as ``chi_all``
    the expansion spectrum: its N values sum to 2c/pi.  Sign convention: every
    mode is positive at its first node above 1e-8 of its largest magnitude
    (``numerics.fix_column_phases``).

    The Legendre coefficients and eigenvalues depend only on c and m_modes
    and are solved once per pair (``_prolate_expansion``); each grid only
    evaluates the polynomials at its nodes, so any n_grid is accepted; from
    N = ``legendre_terms(c, m_modes)`` nodes on, where the pipeline starts, the
    Gauss rule integrates the modes' products exactly.  The grid is the one
    ``build_grid`` caches, so it is the grid a joint amplitude sampled on the
    same band and size was sampled on, and the rows at its nodes are built
    once per N (``_band_rows``).
    """
    if m_modes < 1:
        raise ValueError(f"need at least one mode, got {m_modes}")

    coef, chi = _prolate_expansion(d.c, m_modes)
    # unit-norm psi on [-1, 1] becomes (1/2pi) integral phi^2 dw = 1 on the band
    coef = coef * np.sqrt(4.0 * np.pi / d.B)
    grid = build_grid(-0.5 * d.B, 0.5 * d.B, n_grid)
    phi = coef.T @ _band_rows(d.B, n_grid, chi.size)
    fix_column_phases(phi.T)
    return DetectionModeSet(grid_s=grid, modes=phi, chi=chi[:m_modes], chi_all=chi)


def povm_weights(modes: DetectionModeSet, eta: float) -> np.ndarray:
    """Per-mode click efficiencies eta_m = eta * chi_m."""
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    return eta * modes.chi

