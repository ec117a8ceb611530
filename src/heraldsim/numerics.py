"""Shared numerical primitives: quadrature grids, Hermitian eigensolves, and
moment-based pulse-width estimation.

All functions are pure; the returned containers are immutable and safe to
share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class FrequencyGrid:
    """Gauss-type quadrature rule on an angular-frequency interval [lo, hi]."""

    nodes: np.ndarray
    weights: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("grid endpoints must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < self.lo or nodes[-1] > self.hi:
            raise ValueError("nodes must lie inside [lo, hi]")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")

    @property
    def n(self) -> int:
        return self.nodes.size

    def integrate(self, samples: np.ndarray) -> complex | float:
        """Quadrature of sampled values over [lo, hi]."""
        return self.weights @ np.asarray(samples)


@lru_cache(maxsize=64)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def build_grid(lo: float, hi: float, n: int) -> FrequencyGrid:
    """Gauss-Legendre nodes and weights mapped onto [lo, hi].

    Exact for polynomials up to degree 2n - 1.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("endpoints must be finite")
    if lo >= hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    x, w = _legendre_rule(n)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return FrequencyGrid(nodes=mid + half * x, weights=half * w, lo=lo, hi=hi)


@dataclass(frozen=True)
class EigenDecomposition:
    """Real eigenvalues sorted descending with matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        vectors = np.asarray(self.vectors)
        values.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)


def hermitian_eigen(a: np.ndarray, tol: float = 1e-10) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized before the solve; inputs that deviate from
    Hermiticity by more than ``tol`` (relative to the largest entry) are
    rejected.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if np.max(np.abs(a - a.conj().T)) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    sym = 0.5 * (a + a.conj().T)
    vals, vecs = np.linalg.eigh(sym)
    # stable descending order so degenerate pairs keep input ordering
    order = np.argsort(-vals, kind="stable")
    return EigenDecomposition(values=vals[order], vectors=vecs[:, order])


def sinc(x):
    """sin(x)/x with sinc(0) = 1, unnormalized convention (radian argument)."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def rms_time_width(grid: FrequencyGrid, amplitude: np.ndarray) -> float:
    """RMS width of the temporal intensity of a pulse given its spectral amplitude.

    Works entirely in the frequency domain: with f(omega) sampled on the grid,
    <t^2> = integral |df/domega|^2 / integral |f|^2 and <t> comes from the
    Im(f* df/domega) cross term; derivatives use central finite differences,
    so no FFT or padding is involved.
    """
    f = np.asarray(amplitude, dtype=complex)
    if f.shape != grid.nodes.shape:
        raise ValueError("amplitude samples must match the grid")
    norm = float(np.real(grid.integrate(np.abs(f) ** 2)))
    if norm <= 0.0 or not np.any(np.abs(f) > 0):
        raise ValueError("amplitude is identically zero")
    df = np.gradient(f, grid.nodes)
    t2 = float(np.real(grid.integrate(np.abs(df) ** 2))) / norm
    t1 = float(np.real(grid.integrate(np.imag(np.conj(f) * df)))) / norm
    return float(np.sqrt(max(t2 - t1 * t1, 0.0)))
