import numpy as np
import pytest
from dataclasses import replace

from heraldsim.herald import (
    absolute_rate,
    collapsed_wavefunctions,
    heralding_efficiency,
    idler_density_matrix,
    practical_rate,
    signal_click_probability,
    t_min,
)
from heraldsim.jsa import SourceParams, sample_jsa, separable_jsa
from heraldsim.numerics import build_grid
from heraldsim.povm import DetectorParams, detection_modes, povm_weights
from heraldsim.scenarios import evaluate_pipeline


@pytest.fixture(scope="module")
def band_modes():
    return detection_modes(DetectorParams(B=2 * np.pi, T=0.5), 256, 12)


@pytest.fixture(scope="module")
def idler_grid():
    return build_grid(-8.0, 8.0, 256)


def gaussian(width, center=0.0):
    return lambda w: np.exp(-((w - center) ** 2) / (2 * width**2))


class TestCollapsedWavefunctions:
    def test_separable_all_proportional(self, band_modes, idler_grid):
        field = separable_jsa(gaussian(1.3, 0.4), gaussian(0.8),
                              band_modes.grid_s, idler_grid)
        collapsed = collapsed_wavefunctions(field, band_modes)
        g = gaussian(0.8)(idler_grid.nodes)
        for row in collapsed:
            scale = row @ g / (g @ g)
            assert np.allclose(row, scale * g, atol=1e-12 * np.max(np.abs(collapsed)))

    def test_flat_signal_only_even_modes_contribute(self, band_modes, idler_grid):
        field = separable_jsa(lambda w: np.ones_like(w), gaussian(1.0),
                              band_modes.grid_s, idler_grid)
        collapsed = collapsed_wavefunctions(field, band_modes)
        norms = np.abs(collapsed) ** 2 @ idler_grid.weights
        # odd prolate modes integrate to zero against a flat signal
        assert np.all(norms[1::2] < 1e-16 * norms[0])

    def test_fig3_fundamental_dominates(self):
        source = SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0)
        detector = DetectorParams(B=2 * np.pi, T=0.5)
        modes = detection_modes(detector, 256, 12)
        grid_i = build_grid(-12.3, 12.3, 384)
        field = sample_jsa(source, modes.grid_s, grid_i)
        collapsed = collapsed_wavefunctions(field, modes)
        weighted = povm_weights(modes, 1.0) * (np.abs(collapsed) ** 2 @ grid_i.weights)
        assert weighted[0] / weighted.sum() > 0.99

    def test_rejects_grid_mismatch(self, band_modes, idler_grid):
        other = build_grid(-3.0, 3.0, 256)
        field = separable_jsa(gaussian(1.0), gaussian(1.0), other, idler_grid)
        with pytest.raises(ValueError):
            collapsed_wavefunctions(field, band_modes)


class TestSignalClickProbability:
    def test_full_capture_limit(self):
        # wide band and window relative to the signal support: every emitted
        # pair is detected
        source = SourceParams(sigma=1.0, mu_s=20.0, mu_i=0.0, kappa=0.1)
        detector = DetectorParams(B=30.0, T=30.0)
        result = evaluate_pipeline(source, detector, n_signal=256, n_idler=384)
        assert result.report.d_s == pytest.approx(1.0, abs=0.01)
        assert result.report.p_s == pytest.approx(
            result.report.p_pair * result.report.d_s, rel=1e-12)

    def test_separable_closed_form(self, band_modes, idler_grid):
        # rank-1 field: D_s reduces to the eta-weighted band projection of f
        f, g = gaussian(0.9), gaussian(1.1)
        full_grid = build_grid(-8.0, 8.0, 512)
        full = separable_jsa(f, g, full_grid, idler_grid)
        band = separable_jsa(f, g, band_modes.grid_s, idler_grid)
        p_s, d_s = signal_click_probability(full, band, band_modes, 1.0, kappa=0.1)
        fs = f(band_modes.grid_s.nodes)
        overlaps = (band_modes.modes * band_modes.grid_s.weights[None, :]) @ fs
        f_norm = full_grid.integrate(np.abs(f(full_grid.nodes)) ** 2)
        want = float(band_modes.chi @ np.abs(overlaps) ** 2) / (2 * np.pi * f_norm)
        assert d_s == pytest.approx(want, rel=1e-12)
        assert 0 < d_s < 1

    def test_eta_scales_linearly(self, band_modes, idler_grid):
        full_grid = build_grid(-8.0, 8.0, 512)
        full = separable_jsa(gaussian(1.0), gaussian(1.0), full_grid, idler_grid)
        band = separable_jsa(gaussian(1.0), gaussian(1.0), band_modes.grid_s, idler_grid)
        _, d1 = signal_click_probability(full, band, band_modes, 1.0, kappa=0.1)
        _, d2 = signal_click_probability(full, band, band_modes, 0.5, kappa=0.1)
        assert d2 == pytest.approx(0.5 * d1, rel=1e-12)


class TestIdlerDensityMatrix:
    def test_single_mode_is_pure(self, band_modes, idler_grid):
        field = sample_jsa(SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0),
                           band_modes.grid_s, idler_grid)
        collapsed = collapsed_wavefunctions(field, band_modes)[:1]
        state = idler_density_matrix(collapsed, np.array([band_modes.chi[0]]), idler_grid)
        assert state.lam[0] == pytest.approx(1.0, abs=1e-10)

    def test_separable_is_pure_for_any_weights(self, band_modes, idler_grid):
        field = separable_jsa(gaussian(1.2, -0.3), gaussian(0.7), band_modes.grid_s,
                              idler_grid)
        collapsed = collapsed_wavefunctions(field, band_modes)
        state = idler_density_matrix(collapsed, povm_weights(band_modes, 1.0), idler_grid)
        assert heralding_efficiency(state) == pytest.approx(1.0, abs=1e-6)

    def test_state_hygiene(self, band_modes, idler_grid):
        field = sample_jsa(SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0),
                           band_modes.grid_s, idler_grid)
        collapsed = collapsed_wavefunctions(field, band_modes)
        state = idler_density_matrix(collapsed, povm_weights(band_modes, 1.0), idler_grid)
        rho = state.rho
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10 * max(1.0, np.max(np.abs(rho)))
        trace = np.real(idler_grid.weights @ np.diag(rho)) / (2 * np.pi)
        assert trace == pytest.approx(1.0, abs=1e-8)
        assert state.lam.min() >= -1e-9
        assert state.lam.sum() == pytest.approx(1.0, abs=1e-8)
        gram = (state.eigenmodes.conj().T * idler_grid.weights[None, :]) \
            @ state.eigenmodes / (2 * np.pi)
        k = 6
        assert np.max(np.abs(gram[:k, :k] - np.eye(k))) < 1e-8

    def test_mode_sign_flips_leave_state_invariant(self, band_modes, idler_grid):
        field = sample_jsa(SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0),
                           band_modes.grid_s, idler_grid)
        collapsed = collapsed_wavefunctions(field, band_modes)
        flipped = collapsed.copy()
        flipped[1] = -flipped[1]
        flipped[3] = -flipped[3]
        w = povm_weights(band_modes, 1.0)
        a = idler_density_matrix(collapsed, w, idler_grid)
        b = idler_density_matrix(flipped, w, idler_grid)
        assert np.max(np.abs(a.rho - b.rho)) < 1e-10
        assert abs(a.lam[0] - b.lam[0]) < 1e-10

    def test_rejects_zero_collapsed(self, idler_grid):
        with pytest.raises(ValueError):
            idler_density_matrix(np.zeros((2, idler_grid.n)), np.ones(2), idler_grid)

    def test_rejects_negative_weights(self, idler_grid):
        # the amplitudes carry sqrt(eta_m), which a negative efficiency has not
        with pytest.raises(ValueError, match="non-negative"):
            idler_density_matrix(np.ones((2, idler_grid.n)), np.array([1.0, -1e-3]),
                                 idler_grid)


def dense_reference_state(collapsed, eta, grid):
    """rho, lambda and weighted eigenvectors the dense way: einsum, quadrature
    symmetrization and a full n_i x n_i eigensolve."""
    raw = np.einsum("m,mi,mj->ij", eta, collapsed, collapsed.conj())
    rho = raw / (np.real(grid.weights @ np.diag(raw)) / (2 * np.pi))
    sw = np.sqrt(grid.weights)
    a = sw[:, None] * rho * sw[None, :] / (2 * np.pi)
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    order = np.argsort(-vals, kind="stable")
    return rho, vals[order] / vals.sum(), vecs[:, order]


class TestLowRankAgainstDenseReference:
    @pytest.mark.parametrize("m,n_i,distinct_rows", [
        (1, 64, 1), (5, 128, 5), (12, 256, 12), (20, 384, 20),
        (8, 192, 4), (20, 64, 10),  # rank-deficient: rows drawn with repeats
    ])
    def test_matches_dense_eigensolve(self, m, n_i, distinct_rows):
        rng = np.random.default_rng(1000 * m + n_i)
        grid = build_grid(-8.0, 8.0, n_i)
        rows = (rng.normal(size=(distinct_rows, n_i))
                + 1j * rng.normal(size=(distinct_rows, n_i)))
        collapsed = rows[rng.integers(0, distinct_rows, m)] if distinct_rows < m else rows
        eta = rng.permutation(np.logspace(0, -12, m))

        state = idler_density_matrix(collapsed, eta, grid)
        rho_ref, lam_ref, vecs_ref = dense_reference_state(collapsed, eta, grid)
        r = state.lam.size
        assert r <= m and state.eigenmodes.shape == (n_i, r)
        assert np.max(np.abs(state.lam - lam_ref[:r])) < 1e-12
        assert np.max(np.abs(lam_ref[r:]), initial=0.0) < 1e-12

        sw = np.sqrt(grid.weights)[:, None]
        vecs = state.eigenmodes * sw / np.sqrt(2 * np.pi)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(r))) < 1e-12
        for k in range(1, r + 1):
            # rounding moves a top-k projector by about n_i * eps over the gap
            gap = lam_ref[k - 1] - lam_ref[k]
            if gap < 1e-10:
                continue
            p = vecs[:, :k] @ vecs[:, :k].conj().T
            p_ref = vecs_ref[:, :k] @ vecs_ref[:, :k].conj().T
            assert np.max(np.abs(p - p_ref)) < 1e-14 / gap

        rho = state.rho
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12 * np.max(np.abs(rho))
        assert np.real(grid.weights @ np.diag(rho)) / (2 * np.pi) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho_ref)) < 1e-12 * np.max(np.abs(rho_ref))


class TestTMin:
    def test_gaussian_pump_convention(self):
        # with tiny T and narrow amplitudes the pump length 4/sigma wins
        g = build_grid(-60.0, 60.0, 512)
        amp = np.exp(-g.nodes**2 / (2 * 10.0**2))  # fast pulse, sigma_w = 10
        value = t_min(DetectorParams(B=2 * np.pi, T=1e-3),
                      SourceParams(sigma=1.0, mu_s=0.0, mu_i=0.0),
                      (g, amp), (g, amp))
        assert value == pytest.approx(4.0)

    def test_window_dominated(self):
        g = build_grid(-8.0, 8.0, 256)
        amp = np.exp(-g.nodes**2 / 2)
        value = t_min(DetectorParams(B=2 * np.pi, T=50.0),
                      SourceParams(sigma=1.0, mu_s=0.0, mu_i=0.0),
                      (g, amp), (g, amp))
        assert value == 50.0

    def test_fig1_pipeline_window_dominated(self):
        result = evaluate_pipeline(SourceParams(sigma=1.0, mu_s=20.0, mu_i=0.0),
                                   DetectorParams(B=4 * np.pi, T=40.0))
        assert result.report.t_min == pytest.approx(40.0)

    def test_fig3_pipeline_pump_dominated(self):
        result = evaluate_pipeline(SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0),
                                   DetectorParams(B=2 * np.pi, T=0.5))
        assert result.report.t_min == pytest.approx(4.0)


class TestRates:
    def test_absolute_rate(self):
        assert absolute_rate(0.5, 2.0) == 0.25
        with pytest.raises(ValueError):
            absolute_rate(0.5, 0.0)

    @pytest.mark.parametrize("r_abs,p_pair,eff,want,tol", [
        (4.644e9, 0.14, 0.05, 32.5e6, 0.01),
        (0.430e9, 0.14, 0.05, 3.0e6, 0.02),
        (4.644e9, 0.015, 0.05, 3.5e6, 0.02),
    ])
    def test_practical_rate_values(self, r_abs, p_pair, eff, want, tol):
        assert practical_rate(r_abs, p_pair, eff) == pytest.approx(want, rel=tol)

    def test_practical_rate_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            practical_rate(1.0, 1.5, 0.5)
        with pytest.raises(ValueError):
            practical_rate(1.0, 0.5, -0.1)


class TestPipelineInvariants:
    def test_scale_covariance(self):
        base = evaluate_pipeline(SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0),
                                 DetectorParams(B=2 * np.pi, T=0.5))
        scaled = evaluate_pipeline(SourceParams(sigma=2.0, mu_s=1.0, mu_i=-0.5),
                                   DetectorParams(B=4 * np.pi, T=0.25))
        a, b = base.report, scaled.report
        assert b.h == pytest.approx(a.h, abs=1e-9)
        assert b.d_s == pytest.approx(a.d_s, abs=1e-9)
        assert b.t_min == pytest.approx(a.t_min / 2, rel=1e-9)
        assert b.r_abs == pytest.approx(2 * a.r_abs, rel=1e-9)

    def test_bt_invariance_of_heralding_efficiency(self):
        # anti-correlated Gaussian that is flat across both filter bands
        # (band >> correlation width): H depends on B and T only through c
        source = SourceParams(sigma=1.0, mu_s=0.0, mu_i=0.0)
        a = evaluate_pipeline(source, DetectorParams(B=200.0, T=0.02),
                              n_signal=512, n_idler=768)
        b = evaluate_pipeline(source, DetectorParams(B=400.0, T=0.01),
                              n_signal=512, n_idler=768)
        assert b.report.h == pytest.approx(a.report.h, abs=1e-3)

    def test_purity_lower_bound(self):
        result = evaluate_pipeline(SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0),
                                   DetectorParams(B=2 * np.pi, T=0.5))
        modes = result.modes
        state = result.state
        grid_i = state.grid_i
        field = sample_jsa(SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0),
                           modes.grid_s, grid_i)
        collapsed = collapsed_wavefunctions(field, modes)
        weighted = modes.chi * (np.abs(collapsed) ** 2 @ grid_i.weights)
        assert result.report.h >= weighted.max() / weighted.sum() - 1e-12
