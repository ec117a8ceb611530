"""Shared numerical primitives: quadrature grids, normalized Legendre
polynomials, the Legendre tail that certifies a sampled field, the
descending eigensolve of the heralded state's Gram matrix (a named call, so
that the benchmark can time it), and moment-based pulse-width estimation.

One three-term recurrence (``_legendre_rows``) serves every Legendre use: the
Newton passes of the Gauss-Legendre rule, the rule's weights and tail rows,
and the detection modes (``legendre_vander``).  The rule takes three passes
over the n/2 nonnegative nodes (four below n = 208), O(n^2) arithmetic in O(n)
vectorized steps per pass, where numpy's ``leggauss`` solves a dense n x n
eigenproblem.  Its nodes agree with ``leggauss`` to one ulp.  Against 40-digit
values at the centre node and the 8 nodes nearest +1, its weights are within
4e-12 relative at n = 256, 360, 384, 512, 768 and 1024, where those of
``leggauss`` are off by 5e-11 and 9e-10 at n = 360 and 768.  At n = 1536 the
end node's weight is off by 3.8e-11: w = 2/((1 - x^2) P_n'(x)^2) turns a
node's rounding error delta into a relative weight error of up to
2 delta / (1 - x^2), and 1 - x^2 = 2.4e-6 there.

All functions are pure; ``FrequencyGrid`` is immutable and safe to share
across threads: the derivative's stencil, computed on first read, comes out
the same whichever thread computes it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    @cached_property
    def _stencil(self) -> tuple:
        """The coefficients ``np.gradient`` forms for unevenly spaced nodes,
        computed on first read: the three weights of the three-point formula
        at each inner node, and the end spacings."""
        dx = np.diff(self.nodes)
        dx1, dx2 = dx[:-1], dx[1:]
        return (-dx2 / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2),
                dx1 / (dx2 * (dx1 + dx2)), dx[0], dx[-1])

    def derivative(self, f: np.ndarray) -> np.ndarray:
        """df/domega of samples f at the nodes, with its coefficients computed
        once per grid: the second-order three-point formula for nonuniform
        nodes inside, and first-order one-sided differences at both ends.
        On unevenly spaced nodes, as a Gauss-Legendre rule of n >= 4 has,
        and on two nodes, that is ``np.gradient(f, nodes)`` bitwise; on
        evenly spaced ones numpy takes its uniform formula, which can
        differ in the last bit."""
        a, b, c, dx_0, dx_n = self._stencil
        out = np.empty_like(f)
        out[1:-1] = a * f[:-2] + b * f[1:-1] + c * f[2:]
        out[0] = (f[1] - f[0]) / dx_0
        out[-1] = (f[-1] - f[-2]) / dx_n
        return out


def float_or_complex(a) -> np.ndarray:
    """``a`` as a float64 array, or as complex128 when it holds complex values;
    no copy when it already is one of the two."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, float), copy=False)


def abs_squared(a) -> np.ndarray:
    """|a|^2 as a new float array, squared in place: one full-size array where
    ``np.abs(a) ** 2`` makes two, with the same values bitwise (numpy computes
    x ** 2 as x * x)."""
    out = np.abs(a)
    out *= out
    return out


def _legendre_rows(x: np.ndarray, n: int, first: int) -> np.ndarray:
    """P_k(x) for first <= k <= n, as the rows of a new array, by the
    three-term recurrence; the degrees below ``first`` run in two buffers."""
    rows = np.empty((n + 1 - first, x.size))
    q, p = np.ones_like(x), x.copy()  # P_{k-1} and P_k, from k = 1
    if first == 0:
        rows[0] = q
    if first <= 1 <= n:
        rows[1 - first] = p
    t = np.empty_like(x)
    for k in range(1, n):
        # P_{k+1} = x P_k + k/(k+1) (x P_k - P_{k-1}), written over P_{k-1}
        # until the kept rows begin
        dst = rows[k + 1 - first] if k + 1 >= first else q
        np.multiply(x, p, out=t)
        np.subtract(t, q, out=dst)
        dst *= k / (k + 1)
        dst += t
        q, p = p, dst
    return rows


def legendre_vander(x: np.ndarray, n_terms: int, first: int = 0) -> np.ndarray:
    """The (n_terms - first) x x.size matrix of normalized Legendre
    polynomials Pbar_k(x) = sqrt(k + 1/2) P_k(x), first <= k < n_terms, unit
    norm on [-1, 1]: the rows of the full matrix from degree ``first`` on,
    bitwise."""
    rows = _legendre_rows(np.asarray(x, dtype=float), n_terms - 1, first)
    rows *= np.sqrt(np.arange(first, n_terms) + 0.5)[:, None]
    return rows


_MAX_NEWTON_PASSES = 10


@lru_cache(maxsize=8)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], and the rows
    w_r Pbar_k(x_r) of the discrete Legendre transform for the top n // 8
    degrees k below n, computed once per n.  The last 8 rules are kept, the
    two axes of each of the at most four grid levels one run samples
    (``scenarios.MAX_REFINEMENTS``); the tail rows are 8 n (n // 8) bytes.

    Newton's method on P_n, from Tricomi's asymptotic guesses for the ceil(n/2)
    nodes in [0, 1), stops once no node moves by more than 4 ulp of 1: three
    recurrence passes for every n from 208 on, at most four below, and none
    after.  Each pass keeps P_k for the top degrees.  The pass that stops
    carries P_n' and those rows to first order over the last move of each node
    (the step as rounded into the node, at most a few ulp), through
    P_n'' = (2x P_n' - n(n+1) P_n) / (1 - x^2) and
    P_k' = k (x P_k - P_{k-1}) / (x^2 - 1); what is left is of the order of the
    move squared, far below rounding.  The weights are
    2/((1 - x^2) P_n'(x)^2).  The negative half is the mirror image,
    P_k(-x) = (-1)^k P_k(x), so the rule is exactly antisymmetric and an odd
    rule has its centre node at 0.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0  # the recurrence gives P_n(0) = 0 exactly, so Newton keeps it
    first = n - n // 8  # the lowest tail degree
    for _ in range(_MAX_NEWTON_PASSES):
        rows = _legendre_rows(x, n, first - 1)
        p = rows[-1]
        dp = n * (x * p - rows[-2]) / (x * x - 1.0)
        step = p / dp
        if np.max(np.abs(step)) <= 4.0 * np.finfo(float).eps:
            break
        x -= step
    else:
        raise RuntimeError(f"Gauss-Legendre nodes for n = {n} did not converge")
    x_new = x - step
    moved = x - x_new  # exact (Sterbenz): step as rounded into the nodes
    one_minus_x2 = 1.0 - x * x
    dp -= moved * (2.0 * x * dp - n * (n + 1) * p) / one_minus_x2
    degree = np.arange(first, n)[:, None]
    tail = rows[1:-1]
    tail += moved * degree * (x * tail - rows[:-2]) / one_minus_x2
    x = x_new
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    half = n // 2
    x = np.concatenate((-x[:half], x[::-1]))
    w = np.concatenate((w[:half], w[::-1]))
    tail = np.concatenate((tail[:, :half] * (1 - 2 * (degree % 2)), tail[:, ::-1]), axis=1)
    tail *= np.sqrt(degree + 0.5) * w
    for a in (x, w, tail):
        a.setflags(write=False)
    return x, w, tail


@lru_cache(maxsize=32)
def build_grid(lo: float, hi: float, n: int) -> FrequencyGrid:
    """Gauss-Legendre nodes and weights mapped onto [lo, hi].

    Exact for polynomials up to degree 2n - 1. The rule on [-1, 1] is built
    once per n by Newton's method (``_legendre_rule``) and shared read-only.
    The grid is immutable, so it is built once per (lo, hi, n) and shared:
    two callers that ask for the same band get the same object.  At most 32
    grids are kept, of 16 n bytes of nodes and weights each.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("endpoints must be finite")
    if lo >= hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    x, w, _ = _legendre_rule(n)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return FrequencyGrid(nodes=mid + half * x, weights=half * w, lo=lo, hi=hi)


def legendre_tail(values: np.ndarray) -> float:
    """Share of a field's weight in its top Legendre degrees, the larger of
    its two axes.

    ``values`` is sampled on the tensor product of two Gauss-Legendre rules,
    on any intervals.  Along each axis the Gauss rule makes the discrete
    transform exact below degree n, so the normalized Legendre coefficients
    of degrees n - n // 8 to n - 1 are a k x n block times the samples.
    Their weighted L2 norm, taken over the other axis too, is divided by the
    field's weighted norm, which by Parseval is the norm of all n
    coefficients.  A field that the grid resolves leaves those degrees at
    rounding level; a zero field has no tail.
    """
    v = np.asarray(values)
    n_s, n_i = v.shape
    if min(n_s, n_i) < 8:
        raise ValueError(f"need at least 8 nodes per axis, got {v.shape}")
    _, w_s, rows_s = _legendre_rule(n_s)
    _, w_i, rows_i = _legendre_rule(n_i)
    energy = w_s @ abs_squared(v) @ w_i
    if energy == 0.0:
        return 0.0
    tail_s = np.sum(abs_squared(rows_s @ v) @ w_i)
    tail_i = np.sum(w_s @ abs_squared(v @ rows_i.T))
    return float(np.sqrt(max(tail_s, tail_i) / energy))


def hermitian_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, descending, and matching orthonormal eigenvector columns of
    a Hermitian matrix, as ``(values, vectors)``: ``np.linalg.eigh`` reversed.
    Like ``eigh``, it reads only the lower triangle."""
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1], vecs[:, ::-1]


def sinc(x, where=True):
    """sin(x)/x with sinc(0) = 1, unnormalized convention (radian argument).

    Cells outside ``where`` (a boolean mask broadcast against x, as for a
    ufunc) are 0 and cost no sin.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    np.copyto(out, 1.0, where=where)
    nonzero = np.not_equal(x, 0.0, where=where, out=np.zeros(x.shape, dtype=bool))
    np.sin(x, out=out, where=nonzero)
    np.divide(out, x, out=out, where=nonzero)
    return out[()]


def rms_time_width(grid: FrequencyGrid, amplitude: np.ndarray) -> float:
    """RMS width of the temporal intensity of a pulse given its spectral amplitude.

    Works entirely in the frequency domain: with f(omega) sampled on the grid,
    <t^2> = integral |df/domega|^2 / integral |f|^2 and <t> comes from the
    Im(f* df/domega) cross term, which is 0 for a real f.  The derivative is
    ``grid.derivative``, numpy's gradient: the second-order three-point
    formula for nonuniform nodes inside and first-order one-sided differences
    at both ends, so no FFT or padding is involved.
    """
    f = float_or_complex(amplitude)
    if f.shape != grid.nodes.shape:
        raise ValueError("amplitude samples must match the grid")
    mag = np.abs(f)
    norm = float(np.real(grid.integrate(mag ** 2)))
    if norm <= 0.0 or not np.any(mag > 0):
        raise ValueError("amplitude is identically zero")
    df = grid.derivative(f)
    t2 = float(np.real(grid.integrate(np.abs(df) ** 2))) / norm
    t1 = 0.0
    if np.iscomplexobj(f):
        t1 = float(np.real(grid.integrate(np.imag(np.conj(f) * df)))) / norm
    return float(np.sqrt(max(t2 - t1 * t1, 0.0)))
