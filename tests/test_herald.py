import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, example, given, settings, strategies as st

from heraldsim.herald import (
    PULSE_LENGTH_FACTOR,
    absolute_rate,
    collapsed_wavefunctions,
    idler_density_matrix,
    practical_rate,
    t_min,
)
from heraldsim.jsa import SourceParams, jsa_norm, sample_jsa, separable_jsa
from heraldsim.numerics import build_grid, rms_time_width
from heraldsim.povm import DetectorParams, detection_modes, povm_weights
from heraldsim import scenarios
from heraldsim.scenarios import Scenario, evaluate_pipeline, preset, run_scenario


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

    def test_rejects_grid_mismatch_at_any_scale(self):
        # a band so narrow that every node is below 1e-8: a field sampled on
        # a grid twice as wide must still be refused
        B = 2 * np.pi * 1e-9
        modes = detection_modes(DetectorParams(B=B, T=1e9), 64, 4)
        wide = build_grid(-B, B, 64)
        field = separable_jsa(np.ones_like, np.ones_like, wide, build_grid(-1.0, 1.0, 16))
        with pytest.raises(ValueError, match="must match the mode grid"):
            collapsed_wavefunctions(field, modes)


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
        state = idler_density_matrix(collapsed_wavefunctions(band, band_modes),
                                     povm_weights(band_modes, 1.0), idler_grid)
        d_s = state.click_weight / (2 * np.pi * jsa_norm(full))
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
        collapsed = collapsed_wavefunctions(band, band_modes)
        d1, d2 = (idler_density_matrix(collapsed, povm_weights(band_modes, eta),
                                       idler_grid).click_weight / (2 * np.pi * jsa_norm(full))
                  for eta in (1.0, 0.5))
        assert d2 == pytest.approx(0.5 * d1, rel=1e-12)

    @pytest.mark.parametrize("name", ["fig1", "fig5-180ps"])
    def test_pipeline_reads_d_s_and_h_from_the_state(self, name):
        # D_s is sum_m eta_m ||Phi_m||^2 / (2pi norm_full) to the last bit
        s = preset(name)
        result = evaluate_pipeline(s.source, s.detector)
        samples = scenarios.sample_source(s.source, s.detector.B, result.n_signal,
                                          result.n_idler)
        collapsed = collapsed_wavefunctions(samples.jsa_band, result.modes)
        weights = povm_weights(result.modes, s.detector.eta)
        mode_norms = np.abs(collapsed) ** 2 @ samples.jsa_band.grid_i.weights
        want = float(weights @ mode_norms) / (2 * np.pi * samples.norm_full)
        assert result.report.d_s == want
        assert result.report.h == result.state.lam[0]

    @pytest.mark.parametrize("name", ["fig1", "fig3", "fig5-180ps"])
    def test_mode_free_oracle(self, name):
        # D_s = eta sum_i w_i (W Phi_i)^T K (W Phi_i) / norm_full with K the
        # limiting kernel on the band nodes: no detection modes, no eigensolve.
        # It differs from the pipeline by the mode-truncation residual only
        s = preset(name)
        result = evaluate_pipeline(s.source, s.detector, s.n_signal, s.n_idler, s.m_modes)
        samples = scenarios.sample_source(s.source, s.detector.B, result.n_signal,
                                          result.n_idler)
        band = samples.jsa_band
        dw = band.grid_s.nodes[:, None] - band.grid_s.nodes[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            k = np.sin(0.5 * s.detector.T * dw) / (np.pi * dw)
        np.fill_diagonal(k, s.detector.T / (2 * np.pi))
        w_phi = band.grid_s.weights[:, None] * band.values
        per_idler = np.sum(w_phi.conj() * (k @ w_phi), axis=0).real
        d_s = s.detector.eta * (per_idler @ band.grid_i.weights) / samples.norm_full
        assert abs(d_s - result.report.d_s) <= 1e-12


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
        assert state.lam[0] == pytest.approx(1.0, abs=1e-6)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_amplitudes(self, idler_grid, bad):
        collapsed = np.ones((2, idler_grid.n), dtype=complex)
        collapsed[1, 7] = bad
        with pytest.raises(ValueError, match="collapsed amplitudes must be finite"):
            idler_density_matrix(collapsed, np.ones(2), idler_grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_efficiencies(self, idler_grid, bad):
        with pytest.raises(ValueError, match="efficiencies must be finite"):
            idler_density_matrix(np.ones((2, idler_grid.n)), np.array([1.0, bad]),
                                 idler_grid)


def assert_phase_convention(eigenmodes):
    """The first node of each column above 1e-8 of its largest magnitude is
    real and positive."""
    for col in eigenmodes.T:
        mags = np.abs(col)
        ref = col[np.flatnonzero(mags > 1e-8 * mags.max())[0]]
        assert ref.real > 0.0
        assert abs(ref.imag) <= 1e-14 * abs(ref)


class TestEigenmodePhase:
    @pytest.mark.parametrize("name", ["fig1", "fig3", "fig5-180ps"])
    def test_every_column_follows_convention(self, name):
        s = preset(name)
        state = evaluate_pipeline(s.source, s.detector).state
        assert state.eigenmodes.dtype == state.leading_mode.dtype == np.float64
        assert_phase_convention(state.eigenmodes)
        assert_phase_convention(state.leading_mode[:, None])

    @pytest.mark.parametrize("complex_rows", [False, True])
    def test_global_phase_of_amplitudes_leaves_modes_unchanged(self, complex_rows):
        rng = np.random.default_rng(7)
        grid = build_grid(-8.0, 8.0, 128)
        collapsed = rng.normal(size=(6, grid.n))
        if complex_rows:
            collapsed = collapsed + 1j * rng.normal(size=(6, grid.n))
        eta = rng.permutation(np.logspace(0, -3, 6))  # well-separated spectrum
        base = idler_density_matrix(collapsed, eta, grid)
        assert_phase_convention(base.eigenmodes)
        scale = np.max(np.abs(base.eigenmodes))
        for factor in (-1.0, np.exp(0.7j), np.exp(-2.9j)):
            other = idler_density_matrix(factor * collapsed, eta, grid)
            assert_phase_convention(other.eigenmodes)
            assert np.max(np.abs(other.eigenmodes - base.eigenmodes)) <= 1e-12 * scale
            assert np.max(np.abs(other.lam - base.lam)) <= 1e-14


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


class TestGramSpectrum:
    """The Gram-matrix spectrum and leading mode against the thin SVD that
    ``eigenmodes`` takes."""

    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("m,n_i", [(6, 64), (40, 96), (64, 64), (80, 48)])
    def test_matches_thin_svd(self, m, n_i, complex_rows):
        rng = np.random.default_rng(31 * m + n_i + complex_rows)
        grid = build_grid(-8.0, 8.0, n_i)
        collapsed = rng.normal(size=(m, n_i))
        if complex_rows:
            collapsed = collapsed + 1j * rng.normal(size=(m, n_i))
        eta = rng.permutation(np.logspace(0, -6, m))
        state = idler_density_matrix(collapsed, eta, grid)

        sw = np.sqrt(grid.weights)
        s = np.linalg.svd(state.amplitudes * sw, compute_uv=False)
        assert state.lam.size == min(m, n_i)
        assert np.max(np.abs(state.lam - s**2 / np.sum(s**2))) <= 1e-14

        assert state.lam[0] - state.lam[1] >= 1e-3  # these draws separate lam_0
        lead, ref = state.leading_mode, state.eigenmodes[:, 0]
        # the two agree up to a unit phase: the phase rule's reference node may
        # sit far below the column maximum
        phase = np.vdot(lead, ref)
        phase /= abs(phase)
        assert np.max(np.abs(phase * lead - ref)) <= 1e-10 * np.max(np.abs(ref))

        detector = DetectorParams(B=2 * np.pi, T=1e-6)
        source = SourceParams(sigma=1e6, mu_s=0.0, mu_i=0.0)
        t_lead = t_min(detector, source, PULSE_LENGTH_FACTOR * rms_time_width(grid, lead),
                       (grid, lead))
        t_ref = t_min(detector, source, PULSE_LENGTH_FACTOR * rms_time_width(grid, ref),
                      (grid, ref))
        assert t_lead > 4.0 / source.sigma
        assert t_lead == pytest.approx(t_ref, rel=1e-13)


class TestEigenmodesOnlyWhenRead:
    """The report path reads lam and the leading mode; only a mode dump takes
    the SVD that builds every idler eigenmode."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        real = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    def test_reports_take_no_svd(self, svd_calls):
        for name in ("fig1", "fig3", "fig5-180ps", "fig5-9ps", "fig5-wideband"):
            run_scenario(preset(name))
        assert len(scenarios.run_sweep(preset("fig4"))) == 17
        assert svd_calls == []

    def test_dump_takes_one_svd_per_result(self, svd_calls, tmp_path):
        results = [run_scenario(preset(name)) for name in ("fig3", "fig5-180ps")]
        svd_calls.clear()
        for i, result in enumerate(results):
            scenarios.dump_mode_tables(result, tmp_path / str(i))
        assert len(svd_calls) == len(results)

    def test_eigenmodes_are_formed_once_and_read_only(self, svd_calls):
        state = run_scenario(preset("fig3")).state
        first, second = state.eigenmodes, state.eigenmodes
        assert first is second and len(svd_calls) == 1
        assert not first.flags.writeable and not state.leading_mode.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0


class TestTMin:
    def test_gaussian_pump_convention(self):
        # with tiny T and narrow amplitudes the pump length 4/sigma wins
        g = build_grid(-60.0, 60.0, 512)
        amp = np.exp(-g.nodes**2 / (2 * 10.0**2))  # fast pulse, sigma_w = 10
        value = t_min(DetectorParams(B=2 * np.pi, T=1e-3),
                      SourceParams(sigma=1.0, mu_s=0.0, mu_i=0.0),
                      PULSE_LENGTH_FACTOR * rms_time_width(g, amp), (g, amp))
        assert value == pytest.approx(4.0)

    def test_window_dominated(self):
        g = build_grid(-8.0, 8.0, 256)
        amp = np.exp(-g.nodes**2 / 2)
        value = t_min(DetectorParams(B=2 * np.pi, T=50.0),
                      SourceParams(sigma=1.0, mu_s=0.0, mu_i=0.0),
                      PULSE_LENGTH_FACTOR * rms_time_width(g, amp), (g, amp))
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


def _run(sigma, mu_s, mu_i, B, T):
    return run_scenario(Scenario(
        name="drawn", source=SourceParams(sigma=sigma, mu_s=mu_s, mu_i=mu_i),
        detector=DetectorParams(B=B, T=T)))


# (sigma, mu_s, mu_i, B, T) of a source and window
SOURCES = st.tuples(st.floats(0.5, 2.0), st.floats(-30.0, 30.0), st.floats(-30.0, 30.0),
                    st.floats(0.5, 20.0), st.floats(0.05, 20.0))
FIG3 = (1.0, 2.0, -1.0, 2 * np.pi, 0.5)


class TestPipelineInvariants:
    @given(params=SOURCES, a=st.floats(0.3, 3.0))
    @example(params=FIG3, a=2.0)
    @settings(max_examples=25, deadline=None)
    def test_scale_covariance(self, params, a):
        # (sigma, mu, B, T) -> (a sigma, mu / a, a B, T / a) rescales every
        # frequency by a and every time by 1 / a, so H and D_s stay and the
        # times shrink by a
        sigma, mu_s, mu_i, B, T = params
        base = _run(*params).report
        scaled = _run(a * sigma, mu_s / a, mu_i / a, a * B, T / a).report
        assert scaled.h == pytest.approx(base.h, rel=0, abs=1e-12)
        assert scaled.d_s == pytest.approx(base.d_s, rel=0, abs=1e-12)
        assert a * scaled.t_min == pytest.approx(base.t_min, rel=1e-10)
        assert scaled.r_abs / a == pytest.approx(base.r_abs, rel=1e-10)

    @given(params=SOURCES)
    @example(params=FIG3)
    @settings(max_examples=25, deadline=None)
    def test_resolved_results_are_bounded(self, params):
        result = _run(*params)
        assume(result.report.resolved)
        report, modes, state = result.report, result.modes, result.state
        assert 0.0 <= report.d_s <= 1.0
        assert 0.0 < report.h <= 1.0
        assert report.p_s <= report.p_pair
        # H is at least the largest per-mode share of the click probability
        field = sample_jsa(SourceParams(*params[:3]), modes.grid_s, state.grid_i)
        collapsed = collapsed_wavefunctions(field, modes)
        weighted = modes.chi * (np.abs(collapsed) ** 2 @ state.grid_i.weights)
        assert report.h >= weighted.max() / weighted.sum() - 1e-12

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


def _small_c_ratio(s, c):
    """(1 - H) / (kappa c^2) of the scenario ``s`` at the window that gives c,
    kappa read from its band field at the level run_scenario keeps, with
    that level's ``resolved`` flag and kappa c^2."""
    s = replace(s, detector=replace(s.detector, T=4.0 * c / s.detector.B))
    result = run_scenario(s)
    band = scenarios.sample_source(s.source, s.detector.B, result.n_signal,
                                   result.n_idler).jsa_band
    x = band.grid_s.nodes * (2.0 / s.detector.B)
    pbar = np.array([np.full_like(x, np.sqrt(0.5)), np.sqrt(1.5) * x])
    phi0, phi1 = (pbar * band.grid_s.weights) @ band.values
    w_i = band.grid_i.weights
    n0, n1 = w_i @ np.abs(phi0) ** 2, w_i @ np.abs(phi1) ** 2
    overlap = np.abs(w_i @ (np.conj(phi0) * phi1)) ** 2
    kappa = (n1 * n0 - overlap) / (9.0 * n0**2)
    return (1.0 - result.report.h) / (kappa * c**2), result.report.resolved, kappa * c**2


class TestSmallWindowLimit:
    """As c -> 0 the detection modes tend to the normalized Legendre
    polynomials Pbar_n(2w/B) and chi_1 / chi_0 -> c^2 / 9 (Slepian, J. Math.
    Phys. 44, 99 (1965)), so 1 - H = kappa c^2 + O(c^4) with
    kappa = (|Phi_1|^2 |Phi_0|^2 - |<Phi_0, Phi_1>|^2) / (9 |Phi_0|^4) and
    Phi_k the band field integrated against Pbar_k.  kappa needs no prolate
    solve: two polynomials of degree <= 1."""

    @pytest.mark.parametrize("phase", [False, True], ids=["phase-off", "phase-on"])
    @pytest.mark.parametrize("c", [0.1, 0.01])
    @pytest.mark.parametrize("name", ["fig3", "fig1", "fig5-180ps", "fig5-wideband"])
    def test_one_minus_h_is_kappa_c_squared(self, name, c, phase):
        s = preset(name)
        s = replace(s, source=replace(s.source, include_group_delay_phase=phase))
        ratio, _, _ = _small_c_ratio(s, c)
        assert abs(ratio - 1.0) <= 0.2 * c**2

    @pytest.mark.parametrize("phase", [False, True], ids=["phase-off", "phase-on"])
    @given(params=SOURCES)
    @example(params=FIG3)
    @settings(max_examples=8, deadline=None)
    def test_drawn_sources_follow_kappa_c_squared(self, params, phase):
        # k(c) = (ratio - 1) / c^2 is the O(c^2) coefficient of the ratio:
        # bounded, and the same at c = 0.1 and 0.01.  Measured on 999 uniform
        # draws from these ranges, each with the phase off and on: |k| <= 0.47
        # and |k(0.1) - k(0.01)| <= 0.0016.  The presets' C = 0.2 does not
        # hold on draws, and no C is fitted per draw.
        sigma, mu_s, mu_i, B, T = params
        s = Scenario(name="drawn", detector=DetectorParams(B=B, T=T),
                     source=SourceParams(sigma=sigma, mu_s=mu_s, mu_i=mu_i,
                                         include_group_delay_phase=phase))
        k = []
        for c in (0.1, 0.01):
            ratio, resolved, kappa_c2 = _small_c_ratio(s, c)
            assume(resolved and kappa_c2 >= 1e-9)
            k.append((ratio - 1.0) / c**2)
        assert max(map(abs, k)) <= 1.0
        assert abs(k[0] - k[1]) <= 0.01


class TestLongWindowLimit:
    """As c -> oo the detection POVM tends to the projector onto the filter
    band.  So H tends to p0, the largest Schmidt weight of the sqrt(w)-weighted
    band field, and D_s to eta |Phi_band|^2 / norm_full; both gaps fall as
    1/c, H's from above and D_s's from below.  Neither limit needs a prolate
    solve.  The limits are read at 1024/1536, where p0 is 0.851385 on fig3 and
    0.409045 on fig5-180ps."""

    @pytest.mark.parametrize("name", ["fig3", "fig5-180ps"])
    def test_gaps_fall_as_one_over_c(self, name):
        s = preset(name)
        samples = scenarios.sample_source(s.source, s.detector.B, 1024, 1536)
        band = samples.jsa_band
        a = np.sqrt(band.grid_s.weights)[:, None] * band.values * np.sqrt(band.grid_i.weights)
        # the squared singular values of a are the eigenvalues of a a^T
        schmidt = np.linalg.eigvalsh(a @ a.T)
        p0 = schmidt[-1] / schmidt.sum()
        limit = s.detector.eta * jsa_norm(band) / samples.norm_full
        gaps = []
        for c in (64.0, 256.0):
            report = run_scenario(replace(s, detector=replace(s.detector,
                                                              T=4.0 * c / s.detector.B))).report
            assert report.resolved
            gaps.append((c * (report.h - p0), c * (report.d_s - limit)))
        (h64, d64), (h256, d256) = gaps
        assert h64 > 0 and d64 < 0
        assert h256 == pytest.approx(h64, rel=0.01)
        assert d256 == pytest.approx(d64, rel=0.01)
