import json
import re
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heraldsim import jsa, povm, scenarios
from heraldsim.herald import PULSE_LENGTH_FACTOR
from heraldsim.jsa import JsaField, SourceParams
from heraldsim.numerics import rms_time_width
from heraldsim.povm import DetectorParams, legendre_terms
from heraldsim.scenarios import (
    CHOP_TOL,
    MAX_REFINEMENTS,
    PRESETS,
    ConfigError,
    Scenario,
    SourceSamples,
    SweepSpec,
    auto_mode_count,
    evaluate_pipeline,
    format_report_csv,
    format_sweep_csv,
    parse_config_text,
    preset,
    read_config,
    run_scenario,
    run_sweep,
    scenario_from_dict,
    support_half_widths,
)
from heraldsim.units import (
    PhysicalSource,
    fiber_mu_coefficients,
    pump_bandwidth_to_sigma,
    wavelength_band_to_angular_bandwidth,
)

FIG3_TEXT = """\
# non-factorable source, single-mode window
name = fig3-custom
sigma = 1.0
mu_s = 2.0
mu_i = -1.0
kappa = 0.1
B = 6.283185307179586
T = 0.5
"""


class TestConfigParsing:
    def test_flat_text(self):
        data = parse_config_text(FIG3_TEXT)
        assert data["name"] == "fig3-custom"
        assert float(data["mu_i"]) == -1.0

    def test_json_object(self):
        data = parse_config_text(json.dumps({"sigma": 1.0, "T": 0.5}))
        assert data["sigma"] == 1.0

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("sigma 1.0\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            scenario_from_dict({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1,
                                "T": 1, "bogus": 3})

    def test_source_exclusivity(self):
        with pytest.raises(ConfigError, match="exactly one"):
            scenario_from_dict({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1,
                                "T": 1, "pump_wavelength_nm": 1305.0})
        with pytest.raises(ConfigError, match="exactly one"):
            scenario_from_dict({"T": 1})

    def test_missing_window(self):
        with pytest.raises(ConfigError, match="'T'"):
            scenario_from_dict({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1})

    def test_invalid_physics_becomes_config_error(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"sigma": -1, "mu_s": 0, "mu_i": 0, "B": 1, "T": 1})

    @pytest.mark.parametrize("key, value", [
        ("modes", "nan"), ("grid_signal", "inf"), ("grid_idler", "-inf"),
        ("grid_signal", "300.7"), ("modes", 2.5),
    ])
    def test_integer_keys_reject_non_integral_values(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}.*expected an integer"):
            scenario_from_dict({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1,
                                "T": 1, key: value})

    def test_integer_keys_accept_integral_floats(self):
        s = scenario_from_dict({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1,
                                "T": 1, "grid_signal": "1e3", "modes": 4.0})
        assert (s.n_signal, s.m_modes) == (1000, 4)
        assert type(s.n_signal) is int and type(s.m_modes) is int

    @pytest.mark.parametrize("count", ["inf", "nan", "2.5"])
    def test_sweep_count_rejects_non_integral_values(self, count):
        with pytest.raises(ConfigError, match="sweep count"):
            scenario_from_dict({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1,
                                "T": 1, "sweep": f"T 0.1 2.0 {count}"})

    def test_sweep_spec(self):
        s = scenario_from_dict({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1,
                                "T": 1, "sweep": "T 0.1 2.0 5"})
        assert s.sweep == SweepSpec(0.1, 2.0, 5)
        with pytest.raises(ConfigError, match="only sweeps over T are supported, got 'B'"):
            scenario_from_dict({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1,
                                "T": 1, "sweep": "B 0.1 2.0 5"})

    @pytest.mark.parametrize("bounds", ["0.1 inf", "inf inf", "0.1 nan"])
    def test_sweep_bounds_must_be_finite(self, bounds):
        with pytest.raises(ConfigError, match="sweep bounds must be finite"):
            scenario_from_dict({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1,
                                "T": 1, "sweep": f"T {bounds} 3"})

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\r\nb", ","])
    def test_name_that_would_split_the_csv_row(self, name):
        text = json.dumps({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1, "T": 1,
                           "name": name})
        with pytest.raises(ConfigError, match="key 'name'"):
            scenario_from_dict(parse_config_text(text))

    def test_name_with_comma_in_flat_text(self, tmp_path):
        path = tmp_path / "comma.cfg"
        path.write_text(FIG3_TEXT.replace("name = fig3-custom", "name = a,b"))
        with pytest.raises(ConfigError, match="key 'name'.*'a,b'"):
            scenario_from_dict(read_config(path))

    @pytest.mark.parametrize("key, value", [
        ("sweep", 5), ("sweep", None), ("sweep", {"T": 1}), ("sweep", ["T", None, 2, 3]),
        ("output_path", 5), ("output_path", ["out.csv"]), ("name", None), ("name", 5),
        # float(True) is 1.0, so a boolean must not pass for a number
        ("modes", True), ("sigma", True), ("T", False), ("grid_signal", True),
        ("sweep", ["T", True, 2, 3]),
    ])
    def test_wrong_typed_json_value(self, key, value):
        text = json.dumps({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1, "T": 1,
                           key: value})
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            scenario_from_dict(parse_config_text(text))

    @pytest.mark.parametrize("value", [True, False])
    def test_json_boolean_phase(self, value):
        text = json.dumps({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1, "T": 1,
                           "phase": value})
        s = scenario_from_dict(parse_config_text(text))
        assert s.source.include_group_delay_phase is value

    def test_literal_config_reproduces_preset(self, tmp_path):
        base = preset("fig3")
        path = tmp_path / "fig3.cfg"
        path.write_text(FIG3_TEXT)
        loaded = scenario_from_dict(read_config(path))
        assert loaded.source == base.source
        assert loaded.detector == base.detector
        assert (run_scenario(loaded, refine=False).report
                == run_scenario(base, refine=False).report)


class TestDefaults:
    """A key the config leaves out takes the default of the dataclass field it
    sets, so a default written a second time in the parser, and drifting from
    the field's, fails here."""

    def test_minimal_direct_config(self):
        s = scenario_from_dict({"sigma": 1, "mu_s": 2, "mu_i": -1, "B": "3", "T": 0.5})
        assert s == Scenario(source=SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0),
                             detector=DetectorParams(B=3.0, T=0.5))

    def test_physical_keys_and_window(self):
        keys = {f.name: PRESETS["fig5-9ps"][f.name] for f in fields(PhysicalSource)}
        ps = PhysicalSource(**keys)
        mu_s, mu_i = fiber_mu_coefficients(ps)
        want = Scenario(
            source=SourceParams(sigma=pump_bandwidth_to_sigma(ps.pump_bandwidth_fwhm_nm,
                                                              ps.pump_wavelength_nm),
                                mu_s=mu_s, mu_i=mu_i),
            detector=DetectorParams(B=wavelength_band_to_angular_bandwidth(
                ps.signal_center_wavelength_nm, ps.filter_bandwidth_nm), T=9e-12))
        assert scenario_from_dict({**keys, "T": 9e-12}) == want


README_BLOCKS = re.findall(r"```ini\n(.*?)```",
                           (Path(__file__).resolve().parents[1] / "README.md").read_text(),
                           re.S)


class TestReadmeConfigs:
    def test_every_block_loads(self):
        assert len(README_BLOCKS) == 2
        for block in README_BLOCKS:
            scenario_from_dict(parse_config_text(block))

    def test_physical_block_is_fig5_9ps(self):
        physical = [scenario_from_dict(parse_config_text(block))
                    for block in README_BLOCKS if "pump_wavelength_nm" in block]
        assert len(physical) == 1
        base = preset("fig5-9ps")
        assert replace(physical[0], name=base.name) == base

    def test_direct_block_is_fig3(self):
        direct = [scenario_from_dict(parse_config_text(block))
                  for block in README_BLOCKS if "sigma" in block]
        assert direct == [preset("fig3")]


class TestPresets:
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_preset_is_its_keys_as_a_config_file(self, name, tmp_path):
        lines = [f"name = {name}"] + [
            f"{key} = {value if isinstance(value, str) else repr(value)}"
            for key, value in PRESETS[name].items()]
        path = tmp_path / f"{name}.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert scenario_from_dict(read_config(path)) == preset(name)


class TestGridExtent:
    # a band of 1 keeps the band floor B/2 + 2 sigma below the lobe rule
    def test_rule(self):
        source = SourceParams(sigma=1.0, mu_s=1.0, mu_i=-2.0)
        assert support_half_widths(source, 1.0) == pytest.approx((6 + 2 * np.pi, 6 + np.pi))

    def test_clamped(self):
        source = SourceParams(sigma=1.0, mu_s=0.0, mu_i=1e-3)
        assert support_half_widths(source, 1.0) == (40.0, 40.0)

    def test_scales_with_sigma(self):
        wide = SourceParams(sigma=2.0, mu_s=0.5, mu_i=0.25)
        assert support_half_widths(wide, 2.0) == pytest.approx(
            tuple(2 * w for w in support_half_widths(SourceParams(1.0, 1.0, 0.5), 1.0)))

    def test_band_floor(self):
        # the full-support grids cover at least the filter band plus the pump envelope
        source = SourceParams(sigma=1.0, mu_s=1.0, mu_i=0.0)
        assert support_half_widths(source, 100.0) == (52.0, 52.0)


class TestRunScenario:
    def test_deterministic_csv(self):
        s = preset("fig3")
        a = format_report_csv(s, run_scenario(s).report)
        scenarios._source_levels.cache_clear()  # sample the source again
        b = format_report_csv(s, run_scenario(s).report)
        assert a == b

    def test_kappa_calibration_matches_target(self):
        s = preset("fig5-9ps")
        result = run_scenario(s, refine=False)
        assert result.report.p_pair == pytest.approx(0.14, rel=1e-12)

    def test_single_point_sweep_matches_run(self):
        from dataclasses import replace
        s = preset("fig3")
        swept = replace(s, sweep=SweepSpec(0.5, 0.5, 1))
        rows = run_sweep(swept)
        assert len(rows) == 1
        t_value, c, report = rows[0]
        assert t_value == 0.5
        assert report == run_scenario(s).report

    def test_sweep_rows_ascend(self):
        from dataclasses import replace
        s = replace(preset("fig3"), sweep=SweepSpec(0.2, 1.0, 4))
        rows = run_sweep(s)
        ts = [row[0] for row in rows]
        assert ts == sorted(ts)

    def test_sweep_requires_spec(self):
        with pytest.raises(ConfigError):
            run_sweep(preset("fig3"))

    def test_forced_single_mode(self):
        from dataclasses import replace
        s = replace(preset("fig3"), m_modes=1)
        result = run_scenario(s, refine=False)
        assert result.state.lam[0] == pytest.approx(1.0, abs=1e-10)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("fig9")


def _at_window(s, t_value, name=None):
    """The scenario's single point at window T = t_value."""
    return replace(s, name=name or s.name, detector=replace(s.detector, T=float(t_value)),
                   sweep=None)


def _point_reports(s):
    """Reports of independent run_scenario calls at each of the sweep's T,
    each sampling the source afresh."""
    reports = []
    for t in s.sweep.values():
        scenarios._source_levels.cache_clear()
        reports.append(run_scenario(_at_window(s, t)).report)
    return reports


# sigma = 1, mu_s = 200: the first two grid levels do not resolve the sinc
# lobes along w_s, and their D_s is far from the 0.2001 of 1024/1536
DEFECT = Scenario(name="defect", source=SourceParams(sigma=1.0, mu_s=200.0, mu_i=0.0),
                  detector=DetectorParams(B=4.0 * np.pi, T=40.0))


class TestSweepReuse:
    """The points of a sweep share the held source samples; its rows must be
    bit-identical to evaluating each point on its own."""

    @pytest.mark.parametrize("s", [
        replace(preset("fig4"), sweep=SweepSpec(0.1, 4.0, 5)),
        # M runs from 12 to 30 with c, so n_s = max(32, N) differs per point
        replace(preset("fig3"), n_signal=32, sweep=SweepSpec(0.1, 20.0, 5)),
        replace(preset("fig4"), sweep=SweepSpec(0.1, 4.0, 3),
                source=replace(preset("fig4").source, include_group_delay_phase=True)),
    ], ids=["fig4", "n_s-varies", "group-delay-phase"])
    def test_sweep_equals_points(self, s):
        rows = run_sweep(s)
        assert [row[0] for row in rows] == [float(t) for t in s.sweep.values()]
        assert [row[2] for row in rows] == _point_reports(s)

    def test_source_sampled_once_per_grid_level(self, monkeypatch):
        levels = []
        real = scenarios.sample_jsa

        def counting(p, grid_s, grid_i):
            levels.append((grid_s.n, grid_i.n))
            return real(p, grid_s, grid_i)

        monkeypatch.setattr(scenarios, "sample_jsa", counting)
        run_sweep(replace(preset("fig4"), sweep=SweepSpec(0.1, 4.0, 5)))
        # one full-support and one band field per (n_s, n_i) level; every
        # fig4 point is resolved at the first level
        assert len(levels) == 2 * len(set(levels)) == 2
        levels.clear()
        # every point of this sweep starts at n_s = 256 and refines twice
        run_sweep(replace(DEFECT, sweep=SweepSpec(20.0, 25.0, 3)))
        assert len(levels) == 2 * len(set(levels)) == 6

    def test_windows_over_one_source_sample_it_once(self, monkeypatch):
        # fig5-180ps and fig5-9ps share their source and band, and differ
        # only in T: the second reads the first's samples
        calls = []
        real = scenarios.sample_jsa

        def counting(p, grid_s, grid_i):
            calls.append((grid_s.n, grid_i.n))
            return real(p, grid_s, grid_i)

        monkeypatch.setattr(scenarios, "sample_jsa", counting)
        for name in ("fig5-180ps", "fig5-9ps"):
            run_scenario(preset(name))
        assert len(calls) == 2

    def test_another_source_drops_the_held_samples(self):
        s = preset("fig3")
        result = run_scenario(s)
        held = weakref.ref(scenarios.sample_source(s.source, s.detector.B,
                                                   result.n_signal, result.n_idler))
        assert held() is not None
        run_scenario(preset("fig1"))
        assert held() is None


class TestCacheBounds:
    """Every cache that a new window can add to is bounded: the held source
    samples keep one entry per grid level of a run, MAX_REFINEMENTS + 1, and
    povm's prolate and band-row caches 4 tables each."""

    def test_windows_of_another_n_replace_the_held_level(self):
        # fig1 at these windows has N = 262, 266 and 272 > 256, so each window
        # samples the source on a signal grid of its own
        s = preset("fig1")
        result = run_scenario(_at_window(s, 41.0))
        first = weakref.ref(scenarios.sample_source(s.source, s.detector.B,
                                                    result.n_signal, result.n_idler))
        n_signal = [result.n_signal] + [run_scenario(_at_window(s, t)).n_signal
                                        for t in (42.0, 43.0)]
        assert n_signal == [262, 266, 272]
        assert len(scenarios._source_levels(s.source, s.detector.B)) == 1
        assert first() is None

    def test_povm_tables_held_per_grid_level(self):
        # six windows of six values of c, so six (c, M) and six N
        run_sweep(replace(preset("fig3"), n_signal=32, sweep=SweepSpec(0.1, 20.0, 6)))
        for cache in (povm._prolate_expansion, povm._band_rows):
            assert cache.cache_info().currsize <= 4


class TestSweepStore:
    """``sample_source`` holds the source samples of each grid level of the
    last source, which a sweep's windows share; the band's Legendre rows of
    one N on that level's grid are cached in ``povm``.  Neither changes a
    number."""

    def test_fig4_builds_band_rows_once_per_n(self, monkeypatch):
        built = []
        real = povm.legendre_vander

        def counting(x, n_terms):
            built.append(n_terms)
            return real(x, n_terms)

        monkeypatch.setattr(povm, "legendre_vander", counting)
        povm._band_rows.cache_clear()
        s = preset("fig4")
        terms = {legendre_terms(c, auto_mode_count(c))
                 for c in (replace(s.detector, T=float(t)).c for t in s.sweep.values())}
        assert len(run_sweep(s)) == 17 and len(terms) == 5
        assert len(built) == len(terms)
        assert set(built) == terms

    def test_sweep_csv_equals_windows_alone(self):
        s = preset("fig4")
        alone = [(float(t), _at_window(s, t).detector.c, report)
                 for t, report in zip(s.sweep.values(), _point_reports(s))]
        assert format_sweep_csv(run_sweep(s)) == format_sweep_csv(alone)

    def test_store_holds_only_source_samples(self):
        s = preset("fig4")
        held = scenarios._source_levels(s.source, s.detector.B)
        for t_value in (1.0, 4.0):
            run_scenario(_at_window(s, t_value))
            assert [type(v) for v in held.values()] == [SourceSamples]
        # one level per grid level that a run evaluates: the windows above
        # share the default level, and a run from 16/16 adds all of its own
        result = run_scenario(replace(_at_window(s, 1.0), n_signal=16, n_idler=16))
        assert result.n_idler == 16 * 2**MAX_REFINEMENTS
        assert scenarios._source_levels(s.source, s.detector.B) is held
        assert len(held) == 1 + (MAX_REFINEMENTS + 1)
        assert all(isinstance(v, SourceSamples) for v in held.values())

    def test_modes_share_the_band_field_grid(self):
        s = preset("fig4")
        for t_value in (1.0, 1.1, 4.0):
            result = run_scenario(_at_window(s, t_value))
            (samples,) = scenarios._source_levels(s.source, s.detector.B).values()
            assert result.modes.grid_s is samples.jsa_band.grid_s

    @pytest.mark.parametrize("name", [n for n in PRESETS if "sweep" not in PRESETS[n]])
    def test_tau_sig_is_the_marginal_width(self, name):
        s = preset(name)
        result = run_scenario(s)
        samples = scenarios.sample_source(s.source, s.detector.B, result.n_signal,
                                          result.n_idler)
        band = samples.jsa_band
        marginal = np.sqrt(np.abs(band.values) ** 2 @ band.grid_i.weights)
        assert samples.tau_sig == PULSE_LENGTH_FACTOR * rms_time_width(band.grid_s, marginal)


class TestWriteTable:
    def test_cells_are_the_fmt_text(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=100_000) * 10.0 ** rng.uniform(-300, 300, 100_000)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-315, np.finfo(float).tiny,
                   np.finfo(float).max, np.inf, -np.inf, np.nan, 1.0, -123456789.5]
        values = np.concatenate([values, special, np.zeros(3)]).reshape(-1, 4)
        path = tmp_path / "table.csv"
        scenarios._write_table(path, "a,b,c,d", list(values.T))
        want = ["a,b,c,d"] + [",".join(f"{v:.9g}" for v in row) for row in values.tolist()]
        assert path.read_text() == "\n".join(want) + "\n"


# every point a preset runs, and the defect at three windows
_PRESET_POINTS = [preset(name) for name in PRESETS if "sweep" not in PRESETS[name]]
_FIG4_POINTS = [_at_window(preset("fig4"), t, f"fig4-T{t:.6g}")
                for t in preset("fig4").sweep.values()]
_DEFECT_POINTS = [_at_window(DEFECT, t, f"defect-T{t}") for t in (20, 40, 60)]
_LEVEL_POINTS = [*_PRESET_POINTS, *_FIG4_POINTS, *_DEFECT_POINTS]


@pytest.fixture
def pipeline_calls(monkeypatch):
    """The (n_signal, n_idler) of each evaluate_pipeline call run_scenario makes."""
    calls = []
    real = scenarios.evaluate_pipeline

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((result.n_signal, result.n_idler))
        return result

    monkeypatch.setattr(scenarios, "evaluate_pipeline", counting)
    return calls


@pytest.fixture
def sampled_levels(monkeypatch):
    """The (n_signal, n_idler) of each grid level the source stage samples, in
    order: ``sample_source`` reduces each level's full-support field to its
    norm once.  The held levels are dropped first, so a run samples every
    level it reads."""
    levels = []
    real = scenarios.jsa_norm

    def recording(field):
        levels.append((field.grid_s.n, field.grid_i.n))
        return real(field)

    monkeypatch.setattr(scenarios, "jsa_norm", recording)
    scenarios._source_levels.cache_clear()
    return levels


@pytest.fixture
def evaluations(monkeypatch):
    """Every PipelineResult that evaluate_pipeline returns, in call order."""
    results = []
    real = scenarios.evaluate_pipeline

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scenarios, "evaluate_pipeline", recording)
    return results


class TestCertificate:
    """run_scenario samples the source on each level until one certifies
    itself by its Legendre tail, its signal grid holding the mode expansion,
    and evaluates only that level."""

    @pytest.mark.parametrize("name", [n for n in PRESETS if "sweep" not in PRESETS[n]])
    def test_preset_is_one_resolved_evaluation(self, name, pipeline_calls):
        result = run_scenario(preset(name))
        assert result.report.resolved
        assert len(pipeline_calls) == 1

    def test_fig4_point_is_one_resolved_evaluation(self, pipeline_calls):
        s = preset("fig4")
        for t_value in s.sweep.values():
            pipeline_calls.clear()
            point = replace(s, detector=replace(s.detector, T=float(t_value)), sweep=None)
            assert run_scenario(point).report.resolved
            assert len(pipeline_calls) == 1

    def test_defect_refines_to_the_resolved_level(self, sampled_levels, pipeline_calls):
        result = run_scenario(DEFECT)
        assert result.report.resolved
        assert (result.n_signal, result.n_idler) == (1024, 1536)
        assert result.report.d_s == pytest.approx(0.2001, abs=5e-5)
        assert sampled_levels == [(256, 384), (512, 768), (1024, 1536)]
        assert pipeline_calls == [(1024, 1536)]

    def test_defect_at_a_wider_window_stays_bounded(self, sampled_levels, pipeline_calls):
        # c = 60 pi and M = 130 need N = 360 Legendre terms, so n_s starts at
        # 360 and no n_s is sampled twice; the first two levels resolve
        # neither axis, and are not evaluated
        result = run_scenario(replace(DEFECT, detector=replace(DEFECT.detector, T=60.0)))
        assert (result.n_signal, result.n_idler) == (1024, 1536)
        assert sampled_levels == [(360, 384), (512, 768), (1024, 1536)]
        assert pipeline_calls == [(1024, 1536)]
        assert result.report.d_s == pytest.approx(0.30012, abs=5e-5)

    def test_fig1_is_one_evaluation_at_the_default_grids(self, pipeline_calls):
        # c = 40 pi and M = 90 need N = 256 terms, the default n_s
        s = preset("fig1")
        assert legendre_terms(s.detector.c, 90) == 256
        assert run_scenario(s).report.resolved
        assert pipeline_calls == [(256, 384)]

    @pytest.mark.parametrize("s", _LEVEL_POINTS, ids=lambda s: s.name)
    def test_every_level_starts_at_the_mode_expansion(self, s, sampled_levels,
                                                      pipeline_calls):
        # one rule sizes the signal grid: the doubled n_signal, raised to the
        # N Legendre terms of each detection mode
        n_terms = legendre_terms(s.detector.c, scenarios.auto_mode_count(s.detector.c))
        run_scenario(s)
        assert sampled_levels == [(max(s.n_signal * 2**level, n_terms), s.n_idler * 2**level)
                                  for level in range(len(sampled_levels))]
        assert pipeline_calls == sampled_levels[-1:]

    def test_user_set_modes_are_expanded_at_the_first_level(self, pipeline_calls):
        # c = 220 needs 272 Legendre terms per mode; 12 user-set modes start
        # the first level at n_s = 272, whose joint amplitude is resolved
        s = replace(preset("fig3"), m_modes=12,
                    detector=replace(preset("fig3").detector, T=140.0))
        result = run_scenario(s)
        assert legendre_terms(s.detector.c, 12) == 272
        assert scenarios.sample_source(s.source, s.detector.B, 272, 384).tail <= CHOP_TOL
        assert result.report.resolved
        assert pipeline_calls == [(272, 384)]

    def test_unresolved_last_level_is_flagged(self, sampled_levels, pipeline_calls):
        result = run_scenario(replace(preset("fig3"), n_signal=8, n_idler=8))
        assert not result.report.resolved
        assert len(sampled_levels) == MAX_REFINEMENTS + 1
        assert (result.n_signal, result.n_idler) == (64, 64)
        assert pipeline_calls == sampled_levels[-1:] == [(64, 64)]

    def test_without_refinement_the_first_level_is_returned(self, pipeline_calls):
        result = run_scenario(DEFECT, refine=False)
        assert not result.report.resolved
        assert pipeline_calls == [(256, 384)]


class TestOneEvaluation:
    """run_scenario evaluates the pipeline once, at the level it returns, and
    gives what evaluate_pipeline gives at that level on its own."""

    @staticmethod
    def assert_level_alone(s, result):
        scenarios._source_levels.cache_clear()
        alone = evaluate_pipeline(s.source, s.detector, n_signal=result.n_signal,
                                  n_idler=result.n_idler, m_modes=s.m_modes,
                                  pair_probability_target=s.pair_probability,
                                  external_efficiency=s.external_efficiency)
        assert alone.report == result.report
        assert (alone.n_signal, alone.n_idler) == (result.n_signal, result.n_idler)
        assert np.array_equal(alone.modes.modes, result.modes.modes)
        assert np.array_equal(alone.state.amplitudes, result.state.amplitudes)

    @pytest.mark.parametrize("s", [*_DEFECT_POINTS, replace(preset("fig3"), n_signal=8,
                                                            n_idler=8, name="fig3-8")],
                             ids=lambda s: s.name)
    def test_point_is_one_evaluation_of_its_level(self, s, evaluations):
        result = run_scenario(s)
        assert len(evaluations) == 1 and evaluations[0] is result
        self.assert_level_alone(s, result)

    def test_refining_sweep_is_one_evaluation_per_window(self, evaluations):
        s = replace(preset("fig4"), n_signal=16, n_idler=16)
        rows = run_sweep(s)
        assert len(evaluations) == len(rows) == 17
        for (t_value, _, report), result in zip(rows, evaluations):
            assert report is result.report
            self.assert_level_alone(_at_window(s, t_value), result)
        assert [report for _, _, report in rows] == _point_reports(s)

    def test_no_evaluated_defect_report_exceeds_one(self, evaluations):
        # at T = 60 the two levels below 1024/1536 would give D_s = 1.13 and 1.27
        run_scenario(_at_window(DEFECT, 60.0))
        assert evaluations
        assert all(0.0 <= r.report.d_s <= 1.0 for r in evaluations)


class TestRealField:
    @pytest.mark.parametrize("name", ["fig1", "fig5-180ps"])
    def test_complex_cast_field_gives_same_metrics(self, name, monkeypatch):
        # oracle: the real-arithmetic pipeline against the same field held
        # as complex128, which takes the complex collapse and SVD
        s = preset(name)
        real = scenarios.evaluate_pipeline(s.source, s.detector)
        sample = scenarios.sample_jsa

        def complex_field(p, grid_s, grid_i):
            field = sample(p, grid_s, grid_i)
            assert field.values.dtype == np.float64
            return JsaField(grid_s=grid_s, grid_i=grid_i,
                            values=field.values.astype(complex))

        monkeypatch.setattr(scenarios, "sample_jsa", complex_field)
        scenarios._source_levels.cache_clear()
        cast = scenarios.evaluate_pipeline(s.source, s.detector)
        assert real.state.eigenmodes.dtype == np.float64
        assert cast.state.eigenmodes.dtype == np.complex128
        assert cast.report.h == pytest.approx(real.report.h, rel=0, abs=1e-12)
        assert cast.report.d_s == pytest.approx(real.report.d_s, rel=0, abs=1e-12)
        assert cast.report.t_min == pytest.approx(real.report.t_min, rel=1e-12, abs=0)


class TestPumpFloor:
    """The pump floor zeroes only cells whose square would be subnormal, at
    most 1.5e-154 of the peak: every report, and the grid level it comes from,
    is the one of the floor at ln(tiny), which keeps every normal exp."""

    @staticmethod
    def assert_same_numbers(points):
        def results():
            # the floor is not part of the held levels' key
            scenarios._source_levels.cache_clear()
            return [run_scenario(s) for s in points]

        floored = results()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jsa, "EXP_FLOOR", float(np.log(np.finfo(float).tiny)))
            full = results()
        for a, b in zip(floored, full):
            assert a.report == b.report
            assert (a.n_signal, a.n_idler) == (b.n_signal, b.n_idler)

    @pytest.mark.parametrize("points", [_PRESET_POINTS, _FIG4_POINTS, _DEFECT_POINTS],
                             ids=["presets", "fig4", "defect"])
    def test_level_points(self, points):
        self.assert_same_numbers(points)

    # |mu| sigma below about 1 stretches the full-support grids past the floor
    @given(sigma=st.floats(0.5, 2.0), mu_s=st.floats(-2.0, 2.0), mu_i=st.floats(-2.0, 2.0),
           B=st.floats(0.5, 10.0), T=st.floats(0.05, 5.0), phase=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_drawn_sources(self, sigma, mu_s, mu_i, B, T, phase):
        self.assert_same_numbers([Scenario(
            name="drawn",
            source=SourceParams(sigma=sigma, mu_s=mu_s, mu_i=mu_i,
                                include_group_delay_phase=phase),
            detector=DetectorParams(B=B, T=T))])


class TestScenarioValidation:
    def test_output_format(self):
        with pytest.raises(ConfigError):
            Scenario(name="x", source=preset("fig3").source,
                     detector=preset("fig3").detector, output_format="xml")

    def test_pair_probability_range(self):
        with pytest.raises(ConfigError):
            Scenario(name="x", source=preset("fig3").source,
                     detector=preset("fig3").detector, pair_probability=1.5)

    def test_sweep_bounds(self):
        with pytest.raises(ConfigError):
            SweepSpec(-1.0, 2.0, 5)
        with pytest.raises(ConfigError):
            SweepSpec(2.0, 1.0, 5)
