import math
from dataclasses import replace

import numpy as np
import pytest

from heraldsim import povm, scenarios
from heraldsim.numerics import build_grid
from heraldsim.povm import (
    DetectionModeSet,
    DetectorParams,
    detection_modes,
    legendre_terms,
    povm_weights,
)
from heraldsim.scenarios import MAX_REFINEMENTS, auto_mode_count, evaluate_pipeline, preset


def modes_for_c(c, n_grid=256, m_modes=12, B=2 * np.pi):
    return detection_modes(DetectorParams(B=B, T=4 * c / B), n_grid, m_modes)


def dense_detection_modes(d, n_grid, m_modes):
    """Reference solve of the full n x n weighted kernel, blind to parity."""
    grid = build_grid(-0.5 * d.B, 0.5 * d.B, n_grid)
    dw = grid.nodes[:, None] - grid.nodes[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.sin(0.5 * d.T * dw) / (np.pi * dw)
    np.fill_diagonal(k, d.T / (2 * np.pi))
    sw = np.sqrt(grid.weights)
    vals, vecs = np.linalg.eigh(sw[:, None] * k * sw[None, :])
    vals, vecs = vals[::-1], vecs[:, ::-1]
    phi = (vecs[:, :m_modes] / sw[:, None]).T * np.sqrt(2 * np.pi)
    return DetectionModeSet(grid_s=grid, modes=phi, chi=vals[:m_modes], chi_all=vals)


class TestDetectorParams:
    def test_c_property(self):
        assert DetectorParams(B=2 * np.pi, T=0.5).c == pytest.approx(np.pi / 4)

    @pytest.mark.parametrize("kwargs", [
        dict(B=0.0, T=1.0), dict(B=1.0, T=-1.0), dict(B=1.0, T=1.0, eta=0.0),
        dict(B=1.0, T=1.0, eta=1.5),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DetectorParams(**kwargs)


class TestDetectionModes:
    @pytest.mark.parametrize("c, n_grid, m_modes", [(0.35, 256, 12), (7.0, 63, 15)])
    def test_modes_are_on_the_shared_band_grid(self, c, n_grid, m_modes):
        d = DetectorParams(B=2 * np.pi, T=4 * c / (2 * np.pi))
        a = detection_modes(d, n_grid, m_modes)
        assert a.grid_s is build_grid(-0.5 * d.B, 0.5 * d.B, n_grid)
        b = detection_modes(d, n_grid, m_modes)
        assert b.grid_s is a.grid_s
        # the cached tables give the numbers that building them anew gives
        build_grid.cache_clear()
        povm._band_rows.cache_clear()
        povm._prolate_expansion.cache_clear()
        for other in (b, detection_modes(d, n_grid, m_modes)):
            assert np.array_equal(a.grid_s.nodes, other.grid_s.nodes)
            assert np.array_equal(a.modes, other.modes) and np.array_equal(a.chi, other.chi)

    def test_cached_tables_are_read_only(self):
        d = DetectorParams(B=2 * np.pi, T=0.5)
        grid = build_grid(-0.5 * d.B, 0.5 * d.B, 64)
        rows = povm._band_rows(d.B, 64, legendre_terms(d.c, 12))
        assert rows.shape == (legendre_terms(d.c, 12), 64)
        coef, chi = povm._prolate_expansion(d.c, 12)
        for table in (grid.nodes, grid.weights, rows, coef, chi):
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 0.0
        with pytest.raises(AttributeError):
            grid.nodes = np.zeros(64)

    @pytest.mark.parametrize("c", [0.1, 0.35, np.pi / 4, 1.0, 3.0, 7.0])
    def test_trace_identity(self, c):
        m = modes_for_c(c)
        assert m.chi_all.sum() == pytest.approx(2 * c / np.pi, rel=1e-6)

    @pytest.mark.parametrize("c", [0.1, 0.35, np.pi / 4, 1.0, 3.0, 7.0])
    def test_eigenvalues_in_unit_interval_descending(self, c):
        m = modes_for_c(c)
        assert np.all(m.chi_all <= 1 + 1e-9)
        assert np.all(m.chi_all >= -1e-9)
        assert np.all(np.diff(m.chi) <= 1e-12)

    def test_single_mode_regime(self):
        # c = pi/4: the fundamental efficiency clearly dominates
        m = modes_for_c(np.pi / 4)
        assert m.chi[0] > 10 * m.chi[1]
        assert m.chi[0] > 100 * m.chi[2]

    def test_small_c_asymptote(self):
        c = 0.01
        m = modes_for_c(c)
        assert m.chi[0] == pytest.approx(2 * c / np.pi, rel=0.01)
        assert m.chi[1] / m.chi[0] < 1e-3

    def test_small_c_against_uniform_nystrom_oracle(self):
        # independent discretization: uniform-grid Nystrom with trapezoid
        # weights at high resolution
        d = DetectorParams(B=2 * np.pi, T=4 * 0.01 / (2 * np.pi))
        n = 2001
        w = np.linspace(-d.B / 2, d.B / 2, n)
        h = w[1] - w[0]
        dw = w[:, None] - w[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            k = np.sin(0.5 * d.T * dw) / (np.pi * dw)
        np.fill_diagonal(k, d.T / (2 * np.pi))
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2
        sw = np.sqrt(weights)
        chi_oracle = np.linalg.eigvalsh(sw[:, None] * k * sw[None, :])[::-1]
        m = detection_modes(d, 256, 4)
        assert m.chi[0] == pytest.approx(chi_oracle[0], rel=1e-6)
        assert m.chi[1] == pytest.approx(chi_oracle[1], rel=1e-3, abs=1e-12)

    def test_multimode_regime(self):
        m = modes_for_c(7.0)
        assert np.sum(m.chi_all > 0.9) >= 3

    def test_orthonormality(self):
        m = modes_for_c(1.0)
        gram = (m.modes * m.grid_s.weights[None, :]) @ m.modes.T / (2 * np.pi)
        assert np.max(np.abs(gram - np.eye(m.chi.size))) < 1e-8

    def test_c_scaling_invariance(self):
        a = detection_modes(DetectorParams(B=2 * np.pi, T=0.5), 256, 12)
        b = detection_modes(DetectorParams(B=4 * np.pi, T=0.25), 256, 12)
        assert np.max(np.abs(a.chi - b.chi)) < 1e-8

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_eigenvalue_plunge_count(self, c):
        m = modes_for_c(c, n_grid=256, m_modes=32)
        count = int(np.sum(m.chi_all > 0.5))
        assert abs(count - 2 * c / np.pi) <= 1.0

    def test_grid_doubling_stability(self):
        coarse = modes_for_c(7.0, n_grid=256)
        fine = modes_for_c(7.0, n_grid=512)
        assert np.max(np.abs(coarse.chi[:5] - fine.chi[:5])) < 1e-6

    def test_fundamental_mode_no_sign_change(self):
        m = modes_for_c(np.pi / 4)
        phi0 = m.modes[0]
        assert np.all(phi0 > 0)

    def test_sign_convention(self):
        m = modes_for_c(3.0, m_modes=6)
        center = np.argmin(np.abs(m.grid_s.nodes))
        assert m.modes[0, center] > 0
        for row in m.modes[1:]:
            nz = np.flatnonzero(np.abs(row) > 1e-8 * np.max(np.abs(row)))
            assert row[nz[0]] > 0
        # at fig1, c = 40 pi, every mode, psi_0 included, is positive at its
        # first non-negligible node, on even and odd grids alike
        d = preset("fig1").detector
        m_modes = auto_mode_count(d.c)
        for n_grid in (360, 361, 512):
            m = detection_modes(d, n_grid, m_modes)
            for row in m.modes:
                nz = np.flatnonzero(np.abs(row) > 1e-8 * np.max(np.abs(row)))
                assert row[nz[0]] > 0

    def test_rejects_bad_mode_counts(self):
        d = DetectorParams(B=2 * np.pi, T=0.5)
        with pytest.raises(ValueError):
            detection_modes(d, 16, 0)

    @pytest.mark.parametrize("c", [0.35, 7.0, 40 * np.pi])
    def test_mode_n_has_parity_n(self, c):
        # psi_n has parity n % 2 (Slepian & Pollak 1961), also inside the
        # chi ~ 1 cluster at c = 40 pi, where rounding cannot order the chi
        m_modes = auto_mode_count(c)
        coef, _ = povm._prolate_expansion(c, m_modes)
        for n in range(m_modes):
            assert np.all(coef[1 - n % 2::2, n] == 0), f"mode {n}"
            assert np.any(coef[n % 2::2, n] != 0), f"mode {n}"
        d = DetectorParams(B=2 * np.pi, T=4 * c / (2 * np.pi))
        m = detection_modes(d, 4 * m_modes + 1, m_modes)
        sign = (-1.0) ** np.arange(m_modes)[:, None]
        assert np.allclose(m.modes[:, ::-1], sign * m.modes, rtol=0,
                           atol=1e-12 * np.max(np.abs(m.modes)))


class TestParityBlocksAgainstDenseReference:
    """The even/odd block solve must reproduce the dense eigensolve of the
    whole weighted kernel, on even grids and on odd grids with a centre node."""

    @pytest.mark.parametrize("n_grid, c, m_modes", [
        (129, 0.01, 4), (256, 0.35, 12), (361, 7.0, 20), (129, 20.0, 24),
        (256, 20.0, 32), (360, 40 * np.pi, 90),
    ])
    def test_matches_dense_eigensolve(self, n_grid, c, m_modes):
        d = DetectorParams(B=2 * np.pi, T=4 * c / (2 * np.pi))
        m = detection_modes(d, n_grid, m_modes)
        ref = dense_detection_modes(d, n_grid, m_modes)
        assert m.modes.shape == (m_modes, n_grid)
        # the expansion's N values are the top N of the n_grid dense ones; the
        # rest of the dense spectrum is rounding noise
        n_terms = m.chi_all.size
        assert np.max(np.abs(m.chi_all - ref.chi_all[:n_terms])) < 1e-12
        assert np.max(np.abs(ref.chi_all[n_terms:])) <= 1e-12
        assert np.array_equal(m.chi, m.chi_all[:m_modes])
        # modes inside a near-degenerate chi ~ 1 cluster are not unique, so
        # compare the retained operator sum_m chi_m phi_m phi_m^T.  It is
        # compared in the sqrt(w)-weighted basis that is diagonalized: noise
        # eigenvalues of order 1e-17 carry modes scaled by 1/sqrt(w), which
        # is large at the band edges
        sw = np.sqrt(m.grid_s.weights)

        def operator(ms):
            v = ms.modes * sw
            return (v.T * ms.chi) @ v

        assert np.max(np.abs(operator(m) - operator(ref))) < 1e-12
        # every retained mode is exactly even or exactly odd in frequency
        for phi in m.modes:
            scale = np.max(np.abs(phi))
            parity = min(np.max(np.abs(phi[::-1] - phi)), np.max(np.abs(phi[::-1] + phi)))
            assert parity <= 1e-12 * scale

    def test_two_grid_independent_blocks(self, monkeypatch):
        shapes = []
        real = np.linalg.eigh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        povm._prolate_expansion.cache_clear()
        d = DetectorParams(B=2 * np.pi, T=0.5)
        for n_grid in (256, 512, 1024):
            detection_modes(d, n_grid, 12)
        # the two blocks depend on (c, M), not on the grid: solved once in all
        info = povm._prolate_expansion.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        # N = ceil(c + M + 40) Legendre terms, split evenly between the two
        # parities, both blocks in one stacked solve
        n_terms = legendre_terms(d.c, 12)
        assert n_terms // 2 <= math.ceil(d.c + 12 + 40) // 2 + 1
        assert shapes == [(2, n_terms // 2, n_terms // 2)]

    def test_a_refining_run_solves_once(self):
        povm._prolate_expansion.cache_clear()
        # grids this small make run_scenario refine through every level; only
        # the level it returns computes the modes
        result = scenarios.run_scenario(replace(preset("fig3"), n_signal=16, n_idler=16))
        assert result.n_idler == 16 * 2**MAX_REFINEMENTS
        info = povm._prolate_expansion.cache_info()
        assert (info.misses, info.hits) == (1, 0)

    def test_odd_grid_pipeline_matches_dense_modes(self, monkeypatch):
        # the default grids are always even; an odd --grid-signal puts a band
        # node at the centre, where every odd mode vanishes
        s = preset("fig3")
        result = evaluate_pipeline(s.source, s.detector, n_signal=129)
        monkeypatch.setattr(scenarios, "detection_modes", dense_detection_modes)
        dense = evaluate_pipeline(s.source, s.detector, n_signal=129)
        assert result.n_signal == dense.n_signal == 129
        assert abs(result.report.h - dense.report.h) < 1e-12
        assert abs(result.report.d_s - dense.report.d_s) < 1e-12


class TestLegendreTruncation:
    """The modes are polynomials of degree < N = povm.legendre_terms(c, M).

    On n >= N Gauss nodes their samples fix their coefficients beta in the
    orthonormal basis sqrt(k + 1/2) P_k(x), x = 2w/B, and the Gauss rule
    integrates their products exactly, so the discrete Gram matrix is
    beta beta^T.  The coefficients are recovered by solving the collocation
    system, not by projecting with the grid weights, so the check does not
    rest on the weights: their relative errors (2e-12 at n = 360 against
    40-digit values) alone leave the weighted Gram matrix of the plain
    Legendre basis up to 5e-14 from the identity.
    """

    @pytest.mark.parametrize("c", [0.01, 0.35, np.pi / 4, 7.0, 20.0, 40 * np.pi])
    def test_expansion_is_resolved(self, c):
        d = DetectorParams(B=2 * np.pi, T=4 * c / (2 * np.pi))
        m_modes = auto_mode_count(c)
        n_terms = povm.legendre_terms(c, m_modes)
        n_grid = max(4 * m_modes, n_terms)
        m = detection_modes(d, n_grid, m_modes)
        assert m.chi_all.sum() == pytest.approx(2 * c / np.pi, rel=1e-12)

        x = m.grid_s.nodes * 2 / d.B
        sw = np.sqrt(m.grid_s.weights * 2 / d.B)  # preconditions the solve only
        basis = np.polynomial.legendre.legvander(x, n_grid - 1) * np.sqrt(np.arange(n_grid) + 0.5)
        psi = m.modes * np.sqrt(d.B / (4 * np.pi))  # unit norm on [-1, 1]
        beta = np.linalg.solve(sw[:, None] * basis, (psi * sw).T).T
        assert np.max(np.abs(beta @ beta.T - np.eye(m_modes))) <= 1e-13
        # the trailing terms of the expansion, and any degree beyond it
        assert np.max(np.abs(beta[:, n_terms - 4:])) <= 1e-14


class TestFlatness:
    def flatness_ratio(self, c):
        m = modes_for_c(c, n_grid=384)
        phi0 = np.abs(m.modes[0])
        central = np.abs(m.grid_s.nodes) <= 0.8 * (m.grid_s.hi - m.grid_s.lo) / 2
        return float(np.max(phi0[central]) / np.min(phi0[central]))

    def test_flat_for_small_c(self):
        assert self.flatness_ratio(0.35) < 1.2
        assert self.flatness_ratio(np.pi / 4) < 1.5

    def test_concentrated_for_large_c(self):
        assert self.flatness_ratio(7.0) > 2.0


class TestPovmWeights:
    def test_ideal_detection(self):
        m = modes_for_c(1.0)
        assert np.array_equal(povm_weights(m, 1.0), m.chi)

    def test_halved(self):
        m = modes_for_c(1.0)
        assert np.allclose(povm_weights(m, 0.5), 0.5 * m.chi)

    def test_bounds(self):
        m = modes_for_c(3.0)
        w = povm_weights(m, 0.7)
        assert np.all(w >= -1e-12) and np.all(w <= 0.7 + 1e-12)

    def test_rejects_bad_eta(self):
        m = modes_for_c(1.0)
        for eta in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                povm_weights(m, eta)
