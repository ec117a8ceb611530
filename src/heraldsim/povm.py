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
coefficients (Xiao, Rokhlin & Yarvin, Inverse Problems 17, 805 (2001)).  A
mode set holds the expansion coefficients, so one solve serves a grid of any
size: the collapse reads them against the band field's Legendre moments
(``jsa.JsaField.signal_moments``), and the modes are evaluated on the
Gauss-Legendre band grid only when read.

Each mode is real up to a sign, fixed in the expansion by Slepian's rule:
psi_n(0) > 0 for even n and psi_n'(0) > 0 for odd n.  Those values are at
least 0.44 in magnitude up to c = 1300, so rounding cannot flip a sign, and no
grid changes it.  psi_0 has no zero on the band, so it is positive everywhere.
Mode n is psi_n, of parity n % 2, also inside the cluster of chi ~ 1 where
rounding cannot order the closed-form eigenvalues.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import FrequencyGrid, build_grid, legendre_vander


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

    Each mode is the series phi_m(w) = sum_k coef[k, m] Pbar_k(2w/B), k < N,
    normalized so (1/2pi) integral phi_m phi_n dw = delta_mn; the set holds
    the coefficients, and ``modes`` evaluates the series at the nodes of
    ``grid_s`` only when read.  chi holds the M retained eigenvalues
    (descending); chi_all is the spectrum of the Legendre expansion, its N
    values (``legendre_terms``) summing to the operator trace 2c/pi.
    Neither depends on the grid.
    """

    grid_s: FrequencyGrid
    coef: np.ndarray  # shape (N, M)
    chi: np.ndarray
    chi_all: np.ndarray

    def __post_init__(self):
        for name in ("coef", "chi", "chi_all"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def modes(self) -> np.ndarray:
        """(M, n_grid) mode values at the nodes of ``grid_s``, evaluated anew
        on each read."""
        grid = self.grid_s
        x = grid.nodes * (2.0 / (grid.hi - grid.lo))
        return self.coef.T @ legendre_vander(x, self.coef.shape[0])


def legendre_terms(c: float, m_modes: int) -> int:
    """Legendre terms N in each mode expansion, rounded up to even so that each
    parity block has N / 2; the coefficients of the top m_modes modes have
    fallen below double precision by then."""
    n = math.ceil(c + m_modes + 40)
    return n + n % 2


# The block tables of 4 values of N are kept; a run reads one.  fig4's
# windows of one N share them (12 hits in 17), and bound 4 keeps the five
# presets' four N.  The prolate solve depends on c, which a run's one window
# fixes, so it is not kept.
@lru_cache(maxsize=4)
def _block_tables(n_terms: int) -> tuple[np.ndarray, ...]:
    """The parts of the two parity blocks of the prolate operator on n_terms
    Legendre terms that do not depend on c, each a read-only 2 x n_terms / 2
    array whose row p holds the terms k of parity p: k(k + 1); the numerator
    and denominator of the diagonal's c^2 term; the two factors and the
    denominator of the off-diagonal's c^2 term, whose rows have one entry
    less; and the values at x = 0 that give mu, psi(0) for the even block and
    psi'(0) for the odd one.  Built once per N; the last 4 are kept."""
    k = np.arange(n_terms, dtype=float)
    k2 = k[:-2]
    scale = np.sqrt(k + 0.5)  # P_k -> normalized P_k
    # P_2j(0) = (-1)^j (2j - 1)!! / (2j)!!  and  P_2j+1'(0) = (2j + 1) P_2j(0)
    j = np.arange(1, n_terms // 2)
    p_at_0 = np.concatenate([[1.0], np.cumprod((1 - 2 * j) / (2 * j))])
    tables = (
        k * (k + 1), 2 * k * (k + 1) - 1, (2 * k + 3) * (2 * k - 1),
        k2 + 2, k2 + 1, (2 * k2 + 3) * np.sqrt((2 * k2 + 1) * (2 * k2 + 5)),
    )
    tables = [np.stack((t[0::2], t[1::2])) for t in tables]
    tables.append(np.stack((scale[0::2] * p_at_0, scale[1::2] * k[1::2] * p_at_0)))
    for t in tables:
        t.setflags(write=False)
    return tuple(tables)


def _prolate_expansion(c: float, m_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Legendre coefficients of the top m_modes prolate functions and the
    spectrum of the expansion.

    Returns the N x m_modes coefficients in the normalized basis
    sqrt(k + 1/2) P_k, so each column has unit norm on [-1, 1], and the N
    eigenvalues chi in descending order.

    Each parity block of the prolate operator is solved on N / 2 Legendre
    coefficients beta; its eigenvalues, ascending, give the modes n = 0, 2, 4,
    ... (even block) and n = 1, 3, 5, ... (odd block), so mode n is column
    n // 2 of the block of parity n % 2.  With mu the eigenvalue
    of the finite Fourier transform integral exp(i c x t) psi(t) dt, its value
    and slope at x = 0 give |mu| = sqrt(2) beta_0 / psi(0) for even modes and
    c sqrt(2/3) beta_1 / psi'(0) for odd modes, and chi = c mu^2 / 2pi.  Each
    column's sign makes that psi(0) or psi'(0) positive, Slepian's sign.  The
    parts of the blocks that do not depend on c come from ``_block_tables``.
    """
    n_terms = legendre_terms(c, m_modes)
    kk1, diag_num, diag_den, up_a, up_b, up_den, at_0 = _block_tables(n_terms)
    diag = kk1 + c**2 * diag_num / diag_den
    upper = c**2 * up_a * up_b / up_den

    # both blocks in one stacked solve; eigh lists eigenvalues ascending,
    # which is mode order
    half = n_terms // 2  # order of each parity block
    blocks = np.zeros((2, half, half))
    flat = blocks.reshape(2, half * half)
    flat[:, ::half + 1] = diag
    flat[:, 1::half + 1] = flat[:, half::half + 1] = upper
    _, coefs = np.linalg.eigh(blocks)
    at_x0 = np.matmul(at_0[:, None], coefs)  # psi(0) of even, psi'(0) of odd columns
    coefs *= np.sign(at_x0)
    # row p of mu is block p's; chi falls strictly with n (Slepian & Pollak
    # 1961), so the rows interleave, even first
    mu_factor = np.array([[np.sqrt(2.0)], [c * np.sqrt(2.0 / 3.0)]])
    mu = mu_factor * coefs[:, 0] / np.abs(at_x0[:, 0])
    chi = (c * mu**2 / (2.0 * np.pi)).T.ravel()
    coef = np.zeros((n_terms, m_modes))
    coef[0::2, 0::2] = coefs[0][:, :(m_modes + 1) // 2]
    coef[1::2, 1::2] = coefs[1][:, :m_modes // 2]
    return coef, chi


def detection_modes(d: DetectorParams, n_grid: int, m_modes: int) -> DetectionModeSet:
    """Eigenmodes and eigenvalues of the band-limiting/time-windowing operator.

    Returns the top ``m_modes`` eigenpairs, as the Legendre coefficients of
    each mode on the ``n_grid``-node Gauss-Legendre grid over [-B/2, B/2],
    and as ``chi_all`` the expansion spectrum: its N values sum to 2c/pi.
    Each mode carries Slepian's sign, psi_n(0) > 0 for even n and
    psi_n'(0) > 0 for odd n, set in the expansion, so no grid changes it.

    The Legendre coefficients and eigenvalues depend only on c and m_modes
    (``_prolate_expansion``); the grid only enters where the polynomials are
    evaluated at its nodes, so any n_grid is accepted; from
    N = ``legendre_terms(c, m_modes)`` nodes on, where the pipeline starts, the
    Gauss rule integrates the modes' products exactly.  The grid is the one
    ``build_grid`` caches, so it is the grid a joint amplitude sampled on the
    same band and size was sampled on.
    """
    if m_modes < 1:
        raise ValueError(f"need at least one mode, got {m_modes}")

    coef, chi = _prolate_expansion(d.c, m_modes)
    # unit-norm psi on [-1, 1] becomes (1/2pi) integral phi^2 dw = 1 on the band
    coef *= np.sqrt(4.0 * np.pi / d.B)
    grid = build_grid(-0.5 * d.B, 0.5 * d.B, n_grid)
    return DetectionModeSet(grid_s=grid, coef=coef, chi=chi[:m_modes], chi_all=chi)


def povm_weights(modes: DetectionModeSet, eta: float) -> np.ndarray:
    """Per-mode click efficiencies eta_m = eta * chi_m."""
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    return eta * modes.chi

