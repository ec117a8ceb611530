"""Detection-mode basis of a band-limited, time-windowed on/off measurement.

The mode functions and their efficiencies are the eigenpairs of the
time-frequency limiting operator on the filter band: kernel
K(w, w') = sin(T (w - w') / 2) / (pi (w - w')).  Discretizing that kernel on a
Gauss-Legendre grid and symmetrizing with square-root quadrature weights
recovers the prolate spheroidal modes without any special-function series,
and stays robust from c << 1 up to c ~ 100.

The band grid is mirror-symmetric about w = 0 and K depends only on the even
function w - w', so every mode is even or odd in w (Slepian & Pollak, BSTJ 40,
43 (1961)).  The weighted kernel is therefore solved as two half-size blocks
on the positive nodes x_j, with entries sqrt(w_j) [K(x_j - x_k) +- K(x_j + x_k)]
sqrt(w_k), and the block eigenvectors are mirrored back onto the full grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import FrequencyGrid, build_grid, hermitian_eigen


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
    chi holds the retained eigenvalues (descending); chi_all the full
    grid-resolved spectrum, whose sum is the operator trace 2c/pi.
    """

    grid_s: FrequencyGrid
    modes: np.ndarray  # shape (M, n_grid)
    chi: np.ndarray
    chi_all: np.ndarray
    c: float

    def __post_init__(self):
        for name in ("modes", "chi", "chi_all"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_modes(self) -> int:
        return self.chi.size


def _limiting_kernel(T: float, dw: np.ndarray) -> np.ndarray:
    """sin(T dw / 2) / (pi dw) for nonzero frequency differences dw."""
    return np.sin(0.5 * T * dw) / (np.pi * dw)


def _mirror(v: np.ndarray, sign: float, centre: np.ndarray) -> np.ndarray:
    """Full-grid columns (sign * J v, centre, v) from positive-node columns v,
    J reversing the node order; the mirrored halves carry 1/sqrt(2), so a unit
    block eigenvector lifts to a unit vector."""
    h = np.sqrt(0.5) * v
    return np.vstack([sign * h[::-1], centre, h])


def detection_modes(d: DetectorParams, n_grid: int = 256, m_modes: int = 12) -> DetectionModeSet:
    """Eigenmodes and eigenvalues of the band-limiting/time-windowing operator.

    Returns the top ``m_modes`` eigenpairs on a Gauss-Legendre grid over
    [-B/2, B/2].  Sign convention: the fundamental mode is positive at the
    band center, higher modes are positive at their first non-vanishing node.

    The operator commutes with the reflection w -> -w, so it is solved as an
    even and an odd block of order n_grid // 2 on the positive nodes; an even
    eigenvector v lifts to (J v, v) / sqrt(2) and an odd one to (-J v, v) /
    sqrt(2), with J reversing the node order.  For odd n_grid the centre node
    w = 0 joins the even block, coupled to each positive node with a factor
    sqrt(2), and odd modes vanish there.  The two spectra are merged in
    descending order.
    """
    if m_modes < 1:
        raise ValueError(f"need at least one mode, got {m_modes}")
    if m_modes > n_grid:
        raise ValueError(f"cannot resolve {m_modes} modes on {n_grid} nodes")
    if n_grid < 4 * m_modes:
        raise ValueError(f"need n_grid >= 4*m_modes, got {n_grid} < {4 * m_modes}")

    grid = build_grid(-0.5 * d.B, 0.5 * d.B, n_grid)
    # allocate the returned arrays before the block temporaries: the
    # temporaries then lie above every live array on the heap, so freeing them
    # returns the memory instead of leaving holes that raise the peak RSS of
    # the JSA stage that follows
    phi = np.empty((m_modes, n_grid))
    chi_all = np.empty(n_grid)
    half = n_grid // 2
    centred = n_grid % 2  # 1 when the grid has a node at w = 0
    x = grid.nodes[half + centred:]
    sw = np.sqrt(grid.weights[half + centred:])

    with np.errstate(invalid="ignore", divide="ignore"):
        near = _limiting_kernel(d.T, x[:, None] - x[None, :])
    np.fill_diagonal(near, d.T / (2.0 * np.pi))
    far = _limiting_kernel(d.T, x[:, None] + x[None, :])
    even = sw[:, None] * (near + far) * sw[None, :]
    odd = sw[:, None] * (near - far) * sw[None, :]
    if centred:
        w0 = grid.weights[half]
        coupling = np.sqrt(2.0 * w0) * _limiting_kernel(d.T, x) * sw
        even = np.block([[np.full((1, 1), w0 * d.T / (2.0 * np.pi)), coupling[None, :]],
                         [coupling[:, None], even]])
    eig_even = hermitian_eigen(even)
    eig_odd = hermitian_eigen(odd)

    n_even = eig_even.values.size
    values = np.concatenate([eig_even.values, eig_odd.values])
    order = np.argsort(-values, kind="stable")
    top = order[:m_modes]
    is_even = top < n_even
    ve = eig_even.vectors[:, top[is_even]].real
    vo = eig_odd.vectors[:, top[~is_even] - n_even].real
    vectors = np.empty((n_grid, m_modes))
    vectors[:, is_even] = _mirror(ve[centred:], 1.0, ve[:centred])
    vectors[:, ~is_even] = _mirror(vo, -1.0, np.zeros((centred, vo.shape[1])))

    # unweight back to function samples; eigenvectors are unit vectors, so the
    # resulting phi already satisfies integral phi^2 dw = 1 before the 2pi factor
    np.multiply((vectors / np.sqrt(grid.weights)[:, None]).T, np.sqrt(2.0 * np.pi), out=phi)

    center = int(np.argmin(np.abs(grid.nodes)))
    for m in range(phi.shape[0]):
        if m == 0:
            ref = phi[0, center]
        else:
            nz = np.flatnonzero(np.abs(phi[m]) > 1e-8 * np.max(np.abs(phi[m])))
            ref = phi[m, nz[0]] if nz.size else 1.0
        if ref < 0:
            phi[m] = -phi[m]

    np.take(values, order, out=chi_all)
    return DetectionModeSet(
        grid_s=grid,
        modes=phi,
        chi=chi_all[:m_modes],
        chi_all=chi_all,
        c=d.c,
    )


def povm_weights(modes: DetectionModeSet, eta: float) -> np.ndarray:
    """Per-mode click efficiencies eta_m = eta * chi_m."""
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    return eta * modes.chi

