"""Joint spectral amplitude of the two-photon state and pair-generation probability.

The model is a Gaussian pump envelope in the sum frequency times a sinc
phase-matching factor, with an optional group-delay phase.  Frequencies are
angular detunings from the perfect phase-matching point.  Without the phase
the amplitude is real and is kept as float64; with it, as complex128.

Both factors depend on the frequencies only through w_s + w_i and
mu_s w_s + mu_i w_i, so the amplitude at (-w_s, -w_i) is the one at
(w_s, w_i), complex-conjugated when the phase is on.  On grids that are mirror
images of themselves (nodes equal to -nodes reversed, as every grid centred on
0 is) the sampled field is therefore evaluated on half the signal rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import FrequencyGrid, abs_squared, float_or_complex, sinc

# exp(x) squared is a normal float (at least tiny, about 2.2e-308) for x at or
# above this floor, half of ln(tiny) (about -354.20); pump exponents below it
# are written as 0 without calling exp.  The square of any nonzero pump factor,
# and the product of any two, is then normal, so the norm, the Legendre tail,
# the collapse and the Gram matrix no longer compute with the subnormals that
# the far tails of wide grids gave (each costs a slow microcode assist on x86).
# The cells it zeroes are below 1.5e-154 of the peak, under the rounding of any
# sum they enter.
EXP_FLOOR = 0.5 * float(np.log(np.finfo(float).tiny))


@dataclass(frozen=True)
class SourceParams:
    """Photon-pair source parameters.

    sigma: pump bandwidth (rad/time); mu_s, mu_i: signal/idler phase-matching
    coefficients (time); kappa: pair-generation amplitude.
    """

    sigma: float
    mu_s: float
    mu_i: float
    kappa: float = 0.1
    include_group_delay_phase: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if not (np.isfinite(self.mu_s) and np.isfinite(self.mu_i)):
            raise ValueError("mu_s and mu_i must be finite")


@dataclass(frozen=True)
class JsaField:
    """Joint amplitude sampled on the tensor grid grid_s x grid_i: float64
    when the values are real, complex128 otherwise."""

    grid_s: FrequencyGrid
    grid_i: FrequencyGrid
    values: np.ndarray  # shape (n_s, n_i)

    def __post_init__(self):
        values = float_or_complex(self.values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid_s.n, self.grid_i.n):
            raise ValueError(
                f"values shape {values.shape} does not match grids "
                f"({self.grid_s.n}, {self.grid_i.n})"
            )
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("joint amplitude contains non-finite values")


def jsa_amplitude(p: SourceParams, w_s, w_i):
    """Joint amplitude at (w_s, w_i): Gaussian pump factor times the sinc
    phase-matching factor, with the optional group-delay phase.

    Real (float64) unless the source includes the group-delay phase.  Cells
    whose pump exponent is below EXP_FLOOR are 0 and skip exp and the sinc,
    so every nonzero pump factor has a normal (not subnormal) square.
    """
    w_s = np.asarray(w_s, dtype=float)
    w_i = np.asarray(w_i, dtype=float)
    half_delay = 0.5 * (p.mu_s * w_s + p.mu_i * w_i)
    exponent = -((w_s + w_i) ** 2) / (2.0 * p.sigma**2)
    live = ~(exponent < EXP_FLOOR)  # a NaN stays live and reaches the output
    amp = np.zeros(exponent.shape)
    np.exp(exponent, out=amp, where=live)
    amp *= sinc(half_delay, where=live)
    if p.include_group_delay_phase:
        return amp * np.exp(1j * half_delay)
    return amp[()]


def sample_jsa(p: SourceParams, grid_s: FrequencyGrid, grid_i: FrequencyGrid) -> JsaField:
    """The joint amplitude at every node pair of the two grids.

    When both grids are mirror images of themselves, only the first
    ceil(n_s/2) signal rows are evaluated: signal row n_s - 1 - r is row r
    reversed along the idler axis, conjugated when the phase is on.  With the
    phase off this is bitwise the direct evaluation: negating a node is exact
    and np.sin is odd.
    """
    w_s, w_i = grid_s.nodes, grid_i.nodes
    n_s = w_s.size
    mirrored = all(np.array_equal(w, -w[::-1]) for w in (w_s, w_i))
    rows = (n_s + 1) // 2 if mirrored else n_s
    head = jsa_amplitude(p, w_s[:rows, None], w_i[None, :])
    tail = head[:n_s - rows][::-1, ::-1]  # empty unless mirrored
    if p.include_group_delay_phase:
        tail = tail.conj()
    values = np.concatenate((head, tail))
    return JsaField(grid_s=grid_s, grid_i=grid_i, values=values)


def separable_jsa(
    f_s: Callable[[np.ndarray], np.ndarray],
    g_i: Callable[[np.ndarray], np.ndarray],
    grid_s: FrequencyGrid,
    grid_i: FrequencyGrid,
) -> JsaField:
    """Rank-1 joint amplitude f(w_s) * g(w_i); used for factorability limits."""
    fs = np.asarray(f_s(grid_s.nodes))
    gi = np.asarray(g_i(grid_i.nodes))
    return JsaField(grid_s=grid_s, grid_i=grid_i, values=np.outer(fs, gi))


def jsa_norm(field: JsaField) -> float:
    """Double quadrature of |amplitude|^2 over the sampled grids."""
    intensity = abs_squared(field.values)
    norm = float(field.grid_s.weights @ intensity @ field.grid_i.weights)
    if norm <= 0.0:
        raise ValueError("joint amplitude is identically zero on the grids")
    return norm


def pair_probability(kappa: float, norm: float) -> float:
    """Per-pulse probability of generating a photon pair.

    [1 + 1/(4 pi^2 kappa^2 norm)]^-1, with the kappa -> 0 limit equal to 0.
    """
    if norm <= 0.0:
        raise ValueError(f"norm must be positive, got {norm}")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if kappa == 0.0:
        return 0.0
    x = 4.0 * np.pi**2 * kappa**2 * norm
    return float(x / (1.0 + x))
