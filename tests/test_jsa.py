import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erf

from heraldsim import jsa
from heraldsim.jsa import (
    JsaField,
    SourceParams,
    jsa_amplitude,
    jsa_norm,
    pair_probability,
    sample_jsa,
    separable_jsa,
)
from heraldsim.numerics import FrequencyGrid, build_grid, legendre_vander
from heraldsim.scenarios import PRESET_NAMES, preset, support_half_widths


def source_grid_pairs():
    """(source, grid_s, grid_i) for the full-support and band grids that
    sample_source builds for every preset, at both refinement levels and at an
    odd pair of sizes."""
    for name in PRESET_NAMES:
        s = preset(name)
        p, half_band = s.source, 0.5 * s.detector.B
        w_s, w_i = support_half_widths(p, s.detector.B)
        for n_s, n_i in ((s.n_signal, s.n_idler), (2 * s.n_signal, 2 * s.n_idler),
                         (257, 385)):
            grid_i = build_grid(-w_i, w_i, n_i)
            yield p, build_grid(-w_s, w_s, n_s), grid_i
            yield p, build_grid(-half_band, half_band, n_s), grid_i

params = st.builds(
    SourceParams,
    sigma=st.floats(0.2, 5.0),
    mu_s=st.floats(-30.0, 30.0),
    mu_i=st.floats(-30.0, 30.0),
    kappa=st.floats(0.0, 2.0),
    include_group_delay_phase=st.booleans(),
)


class TestJsaAmplitude:
    @given(p=params)
    @settings(max_examples=50, deadline=None)
    def test_unity_at_origin(self, p):
        assert jsa_amplitude(p, 0.0, 0.0) == pytest.approx(1.0)

    def test_sinc_zero(self):
        p = SourceParams(sigma=1.0, mu_s=20.0, mu_i=0.0)
        w_s = 2 * np.pi / 20.0
        assert abs(jsa_amplitude(p, w_s, -w_s)) < 1e-14

    def test_gaussian_rolloff(self):
        p = SourceParams(sigma=1.0, mu_s=5.0, mu_i=0.0)
        assert jsa_amplitude(p, 0.0, 1.0) == pytest.approx(np.exp(-0.5))

    @given(p=params, w_s=st.floats(-3, 3), w_i=st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_phase_toggle_preserves_magnitude(self, p, w_s, w_i):
        from dataclasses import replace
        off = replace(p, include_group_delay_phase=False)
        on = replace(p, include_group_delay_phase=True)
        assert abs(jsa_amplitude(on, w_s, w_i)) == pytest.approx(
            abs(jsa_amplitude(off, w_s, w_i)), abs=1e-12)

    @given(p=params, w_s=st.floats(-3, 3), w_i=st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_symbol_exchange_symmetry(self, p, w_s, w_i):
        from dataclasses import replace
        swapped = replace(p, mu_s=p.mu_i, mu_i=p.mu_s)
        assert jsa_amplitude(p, w_s, w_i) == pytest.approx(
            jsa_amplitude(swapped, w_i, w_s), abs=1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SourceParams(sigma=0.0, mu_s=0.0, mu_i=0.0)
        with pytest.raises(ValueError):
            SourceParams(sigma=1.0, mu_s=0.0, mu_i=0.0, kappa=-1.0)
        with pytest.raises(ValueError):
            SourceParams(sigma=1.0, mu_s=np.inf, mu_i=0.0)


class TestSampleJsa:
    def test_separable_params_symmetric_field(self):
        p = SourceParams(sigma=1.0, mu_s=0.0, mu_i=0.0)
        g = build_grid(-4.0, 4.0, 48)
        field = sample_jsa(p, g, g)
        # depends on w_s + w_i only, hence symmetric under axis exchange
        assert np.allclose(field.values, field.values.T, atol=1e-14)

    def test_fig1_vertical_ellipse(self):
        # long sinc axis along the signal makes the signal marginal much
        # narrower (half max) than the idler marginal
        p = SourceParams(sigma=1.0, mu_s=20.0, mu_i=0.0)
        gs = build_grid(-2.0, 2.0, 801)
        gi = build_grid(-2.0, 2.0, 801)
        intensity = np.abs(sample_jsa(p, gs, gi).values) ** 2
        marg_s = intensity @ gi.weights
        marg_i = gs.weights @ intensity

        def hwhm(nodes, marg):
            half = np.max(marg) / 2
            return np.max(np.abs(nodes[marg > half]))

        assert hwhm(gi.nodes, marg_i) > 4 * hwhm(gs.nodes, marg_s)

    def test_fig3_non_factorable(self):
        p = SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0)
        gs = build_grid(-4.0, 4.0, 96)
        gi = build_grid(-4.0, 4.0, 96)
        field = sample_jsa(p, gs, gi)
        sv = np.linalg.svd(field.values, compute_uv=False)
        assert sv[1] / sv[0] > 0.1  # visibly correlated, far from rank one


class TestMirroredSampling:
    """sample_jsa evaluates half the signal rows on mirror-symmetric grids and
    mirrors the rest; the field must be the direct evaluation."""

    @staticmethod
    def assert_direct(p, gs, gi):
        got = sample_jsa(p, gs, gi).values
        want = jsa_amplitude(p, gs.nodes[:, None], gi.nodes[None, :])
        assert got.dtype == want.dtype
        if p.include_group_delay_phase:
            # equal, up to the sign of zero imaginary parts
            assert np.array_equal(got, want)
        else:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("phase", [False, True])
    def test_preset_grids_match_direct_evaluation(self, phase):
        for p, gs, gi in source_grid_pairs():
            self.assert_direct(replace(p, include_group_delay_phase=phase), gs, gi)

    @pytest.mark.parametrize("phase", [False, True])
    def test_asymmetric_grids_match_direct_evaluation(self, phase):
        p = SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0, include_group_delay_phase=phase)
        gs, gi = build_grid(0.0, 3.0, 17), build_grid(-2.0, 5.0, 16)
        self.assert_direct(p, gs, gi)
        self.assert_direct(p, gi, gs)
        # a mirrored signal grid with an asymmetric idler grid is evaluated in full
        self.assert_direct(p, build_grid(-3.0, 3.0, 17), gi)

    @pytest.mark.parametrize("n_s, n_i", [(16, 24), (17, 25)])
    def test_symmetric_grids_evaluate_half_the_rows(self, monkeypatch, n_s, n_i):
        cells = []
        real = jsa.jsa_amplitude

        def counting(p, w_s, w_i):
            cells.append(np.broadcast(w_s, w_i).size)
            return real(p, w_s, w_i)

        monkeypatch.setattr(jsa, "jsa_amplitude", counting)
        p = SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0)
        sample_jsa(p, build_grid(-3.0, 3.0, n_s), build_grid(-4.0, 4.0, n_i))
        assert cells == [math.ceil(n_s / 2) * n_i]
        cells.clear()
        sample_jsa(p, build_grid(-3.0, 2.0, n_s), build_grid(-4.0, 4.0, n_i))
        assert cells == [n_s * n_i]


    @pytest.mark.parametrize("phase", [False, True])
    @pytest.mark.parametrize("n_s, n_i", [(16, 24), (17, 25), (63, 97)])
    def test_mirrored_fields_are_centrosymmetric(self, phase, n_s, n_i):
        # what the Legendre moments fold the idler axis on
        p = SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0, include_group_delay_phase=phase)
        field = sample_jsa(p, build_grid(-3.0, 3.0, n_s), build_grid(-4.0, 4.0, n_i))
        assert np.array_equal(field.values[::-1, ::-1], field.values.conj())

    @pytest.mark.parametrize("phase", [False, True])
    @pytest.mark.parametrize("n_s, n_i", [(16, 24), (17, 25)])
    def test_moments_fold_only_a_centrosymmetric_field(self, phase, n_s, n_i):
        # one cell off the mirror image in the upper idler half: folding the
        # idler axis would mirror the lower half's moments over that column
        p = SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0, include_group_delay_phase=phase)
        band, idler = build_grid(-np.pi, np.pi, n_s), build_grid(-4.0, 4.0, n_i)
        values = sample_jsa(p, band, idler).values.copy()
        values[n_s // 3, n_i - 3] += 0.25
        field = JsaField(grid_s=band, grid_i=idler, values=values)
        x = band.nodes * (2.0 / (band.hi - band.lo))
        want = (legendre_vander(x, 12) * band.weights) @ values
        got = field.signal_moments(12)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_moments_need_a_mirrored_signal_grid(self):
        p = SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0)
        band, idler = build_grid(-np.pi, np.pi, 16), build_grid(-4.0, 4.0, 24)
        uneven = FrequencyGrid(nodes=band.nodes, lo=band.lo, hi=band.hi,
                               weights=band.weights * np.linspace(0.5, 1.5, 16))
        for grid in (build_grid(-np.pi, 2.0, 16), uneven):
            field = JsaField(grid_s=grid, grid_i=idler, values=sample_jsa(p, band, idler).values)
            with pytest.raises(ValueError, match="mirror image"):
                field.signal_moments(4)


class TestRealField:
    def test_dtype_follows_phase_flag(self):
        g = build_grid(-4.0, 4.0, 16)
        p = SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0)
        off = sample_jsa(p, g, g)
        on = sample_jsa(replace(p, include_group_delay_phase=True), g, g)
        assert off.values.dtype == np.float64
        assert on.values.dtype == np.complex128
        assert np.allclose(np.abs(on.values), np.abs(off.values), rtol=1e-15, atol=0.0)

    def test_masked_pump_factor_equals_exp_bitwise(self):
        # the fig5-180ps full-support grids at the finer refinement level;
        # mu = 0 makes the sinc factor exactly 1, leaving the pump factor
        s = preset("fig5-180ps")
        p = s.source
        w_s, w_i = support_half_widths(p, s.detector.B)
        ws = build_grid(-w_s, w_s, 512).nodes[:, None]
        wi = build_grid(-w_i, w_i, 768).nodes[None, :]
        pump = jsa_amplitude(replace(p, mu_s=0.0, mu_i=0.0), ws, wi)
        want = np.exp(-((ws + wi) ** 2) / (2.0 * p.sigma**2))
        # exp itself wherever its square is a normal float, exactly 0 elsewhere
        want[want * want < np.finfo(float).tiny] = 0.0
        assert np.mean(want == 0.0) > 0.3  # the floor is crossed on this grid
        assert pump.dtype == want.dtype
        assert np.array_equal(pump.view(np.int64), want.view(np.int64))

    def test_pump_factor_squares_are_normal(self):
        # mu = 0 leaves the pump factor; each nonzero value squares to a normal
        # float, so |field|^2 and the products of two cells are never subnormal
        tiny = np.finfo(float).tiny
        for p, gs, gi in source_grid_pairs():
            pump = sample_jsa(replace(p, mu_s=0.0, mu_i=0.0), gs, gi).values
            live = pump[pump != 0.0]
            assert live.size > 0
            assert np.all(live * live >= tiny)

    def test_nan_input_is_not_masked(self):
        p = SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0)
        got = jsa_amplitude(p, np.array([np.nan, 1e3, 0.0]), 0.0)
        assert np.isnan(got[0]) and got[1] == 0.0 and got[2] == 1.0

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, dtype, bad):
        g = build_grid(-1.0, 1.0, 4)
        cells = [bad, complex(1.0, bad)] if dtype is complex else [bad]
        for cell in cells:
            values = np.ones((4, 4), dtype=dtype)
            values[1, 2] = cell
            with pytest.raises(ValueError, match="non-finite"):
                JsaField(grid_s=g, grid_i=g, values=values)

    @pytest.mark.parametrize("shape", [(8, 4), (4, 4), (4,), (4, 8, 1)])
    def test_rejects_values_off_the_grids(self, shape):
        g_s, g_i = build_grid(-1.0, 1.0, 4), build_grid(-2.0, 2.0, 8)
        with pytest.raises(ValueError, match="does not match grids"):
            JsaField(grid_s=g_s, grid_i=g_i, values=np.ones(shape))


class TestSeparableJsa:
    def test_rank_one_minors_vanish(self):
        g = build_grid(-3.0, 3.0, 24)
        field = separable_jsa(lambda w: np.exp(-w**2), lambda w: np.exp(-2 * w**2), g, g)
        v = field.values
        minors = v[:-1, :-1] * v[1:, 1:] - v[:-1, 1:] * v[1:, :-1]
        assert np.max(np.abs(minors)) < 1e-12

    def test_all_ones(self):
        g = build_grid(-1.0, 1.0, 8)
        field = separable_jsa(lambda w: np.ones_like(w), lambda w: np.ones_like(w), g, g)
        assert np.allclose(field.values, 1.0)


class TestJsaNorm:
    def test_pure_gaussian_box(self):
        # with no sinc factor the norm over [-W, W]^2 approaches 2 W sigma sqrt(pi)
        sigma, w = 1.0, 40.0
        p = SourceParams(sigma=sigma, mu_s=0.0, mu_i=0.0)
        g = build_grid(-w, w, 512)
        norm = jsa_norm(sample_jsa(p, g, g))
        assert norm == pytest.approx(2 * w * sigma * np.sqrt(np.pi), rel=2 * sigma / w)

    def test_separable_sinc_limit_against_brute_force(self):
        # mu_i = 0 and mu_s sigma >> 1: norm -> (2 pi / mu_s) * sigma sqrt(pi)
        mu_s = 50.0
        p = SourceParams(sigma=1.0, mu_s=mu_s, mu_i=0.0)
        ws = 6.0 + 2 * np.pi / mu_s
        gs = build_grid(-ws, ws, 768)
        gi = build_grid(-12.0, 12.0, 512)
        norm = jsa_norm(sample_jsa(p, gs, gi))
        assert norm == pytest.approx(2 * np.pi / mu_s * np.sqrt(np.pi), rel=0.02)
        # sigma = 1, mu_i = 0: |Phi|^2 = exp(-(ws + wi)^2) sinc^2(mu_s ws / 2), whose
        # wi integral over [-12, 12] is (sqrt(pi)/2) [erf(12 + ws) - erf(ws - 12)]
        reference, _ = quad(
            lambda wsig: np.sinc(mu_s * wsig / (2 * np.pi)) ** 2
            * 0.5 * np.sqrt(np.pi) * (erf(12.0 + wsig) - erf(wsig - 12.0)),
            -ws, ws, limit=500)
        assert norm == pytest.approx(reference, rel=1e-6)

    def test_fig3_resolution_convergence(self):
        p = SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0)

        def norm_at(n):
            gs = build_grid(-9.15, 9.15, n)
            gi = build_grid(-12.3, 12.3, int(1.5 * n))
            return jsa_norm(sample_jsa(p, gs, gi))

        assert norm_at(512) == pytest.approx(norm_at(256), rel=1e-6)

    def test_rejects_zero_field(self):
        g = build_grid(-1.0, 1.0, 8)
        field = separable_jsa(lambda w: np.zeros_like(w), lambda w: np.ones_like(w), g, g)
        with pytest.raises(ValueError):
            jsa_norm(field)


class TestPairProbability:
    def test_zero_kappa(self):
        assert pair_probability(0.0, 1.0) == 0.0

    def test_half_point(self):
        norm = 2.7
        kappa = 1.0 / np.sqrt(4 * np.pi**2 * norm)
        assert pair_probability(kappa, norm) == pytest.approx(0.5)

    def test_large_kappa_limit(self):
        assert pair_probability(1e8, 1.0) == pytest.approx(1.0, abs=1e-10)

    @given(kappa=st.floats(0.01, 10.0), norm=st.floats(0.01, 100.0),
           bump=st.floats(1.01, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_bounded(self, kappa, norm, bump):
        p = pair_probability(kappa, norm)
        assert 0.0 <= p < 1.0
        assert pair_probability(kappa * bump, norm) > p
        assert pair_probability(kappa, norm * bump) > p

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            pair_probability(1.0, 0.0)

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError, match="kappa must be >= 0"):
            pair_probability(-1e-3, 1.0)
