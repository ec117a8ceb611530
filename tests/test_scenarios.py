import json
from dataclasses import replace

import numpy as np
import pytest

from heraldsim.scenarios import (
    ConfigError,
    Scenario,
    SweepSpec,
    format_report_csv,
    load_scenario,
    parse_config_text,
    preset,
    run_scenario,
    run_sweep,
    scenario_from_dict,
    scenario_to_config,
    support_half_width,
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

    def test_sweep_spec(self):
        s = scenario_from_dict({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1,
                                "T": 1, "sweep": "T 0.1 2.0 5"})
        assert s.sweep == SweepSpec("T", 0.1, 2.0, 5)
        with pytest.raises(ConfigError):
            scenario_from_dict({"sigma": 1, "mu_s": 0, "mu_i": 0, "B": 1,
                                "T": 1, "sweep": "B 0.1 2.0 5"})

    def test_config_round_trip_identical_metrics(self, tmp_path):
        base = preset("fig3")
        path = tmp_path / "fig3.cfg"
        path.write_text(scenario_to_config(base))
        loaded = load_scenario(path)
        a = run_scenario(base, refine=False).report
        b = run_scenario(loaded, refine=False).report
        assert a == b

    def test_physical_config_round_trip(self, tmp_path):
        base = preset("fig5-9ps")
        path = tmp_path / "fiber.cfg"
        path.write_text(scenario_to_config(base))
        loaded = load_scenario(path)
        assert loaded.source == base.source
        assert loaded.detector == base.detector

    def test_direct_form_round_trip_of_numpy_floats(self, tmp_path):
        # the fiber presets resolve to np.float64 fields, whose numpy 2 repr
        # "np.float64(...)" is not a number the config parser accepts
        base = replace(preset("fig5-9ps"), physical=None)
        path = tmp_path / "direct.cfg"
        path.write_text(scenario_to_config(base))
        assert load_scenario(path) == base


class TestGridExtent:
    def test_rule(self):
        assert support_half_width(1.0, 1.0) == pytest.approx(6 + 2 * np.pi)

    def test_clamped(self):
        assert support_half_width(1.0, 0.0) == 40.0

    def test_scales_with_sigma(self):
        assert support_half_width(2.0, 0.5) == pytest.approx(
            2 * support_half_width(1.0, 1.0))


class TestRunScenario:
    def test_deterministic_csv(self):
        s = preset("fig3")
        a = format_report_csv(s, run_scenario(s).report)
        b = format_report_csv(s, run_scenario(s).report)
        assert a == b

    def test_kappa_calibration_matches_target(self):
        s = preset("fig5-9ps")
        result = run_scenario(s, refine=False)
        assert result.report.p_pair == pytest.approx(0.14, rel=1e-12)

    def test_single_point_sweep_matches_run(self):
        from dataclasses import replace
        s = preset("fig3")
        swept = replace(s, sweep=SweepSpec("T", 0.5, 0.5, 1))
        rows = run_sweep(swept)
        assert len(rows) == 1
        t_value, c, report = rows[0]
        assert t_value == 0.5
        assert report == run_scenario(s).report

    def test_sweep_rows_ascend(self):
        from dataclasses import replace
        s = replace(preset("fig3"), sweep=SweepSpec("T", 0.2, 1.0, 4))
        rows = run_sweep(s, refine=False)
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
            SweepSpec("T", -1.0, 2.0, 5)
        with pytest.raises(ConfigError):
            SweepSpec("T", 2.0, 1.0, 5)
