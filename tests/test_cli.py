import argparse
import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from heraldsim import cli, scenarios
from heraldsim.scenarios import (
    PRESET_NAMES,
    PRESETS,
    SWEEP_COLUMNS,
    StageError,
    SweepSpec,
    format_report_csv,
    format_sweep_csv,
    preset,
    run_scenario,
    run_sweep,
)

FIG3_CFG = """\
name = fig3-custom
sigma = 1.0
mu_s = 2.0
mu_i = -1.0
B = 6.283185307179586
T = 0.5
"""


@pytest.fixture
def fig3_config(tmp_path):
    path = tmp_path / "fig3.cfg"
    path.write_text(FIG3_CFG)
    return path


class TestRunCommand:
    def test_run_writes_csv(self, fig3_config, tmp_path):
        out = tmp_path / "out.csv"
        assert cli.main(["run", str(fig3_config), "--out", str(out)]) == 0
        header, row = out.read_text().strip().split("\n")
        assert header.startswith("name,sigma,mu_s,mu_i,B,T,c,")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["name"] == "fig3-custom"
        assert float(cells["H"]) == pytest.approx(0.996, abs=0.005)

    def test_run_json(self, fig3_config, tmp_path, capsys):
        assert cli.main(["run", str(fig3_config), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["D_s"] == pytest.approx(0.206, abs=0.01)
        assert payload["practical_rate"] is None

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_config_not_in_utf8_is_one_line_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(bytes.fromhex("fffe00626164"))
        assert cli.main(["run", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: cannot read config") and err.count("\n") == 1

    def test_invalid_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sigma = -3\nmu_s = 0\nmu_i = 0\nB = 1\nT = 1\n")
        assert cli.main(["run", str(bad)]) == 1

    @pytest.mark.parametrize("line", ["modes = nan", "grid_signal = inf",
                                      "grid_signal = 300.7"])
    def test_non_integral_count_is_one_line_exit_1(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FIG3_CFG + line + "\n")
        assert cli.main(["run", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert "expected an integer" in captured.err

    def test_infinite_sweep_bound_is_one_line_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(FIG3_CFG + "sweep = T 0.1 inf 3\n")
        assert cli.main(["run", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert "sweep bounds must be finite" in captured.err

    @pytest.mark.parametrize("keys, flags", [
        # c = B T / 4 overflows to inf
        ({"sigma": 1.0, "mu_s": 0.0, "mu_i": 0.0, "B": 1e200, "T": 1e200}, None),
        # c is finite, but its modes would need about 1.6e300 Legendre terms
        ({**PRESETS["fig3"], "T": 1e300}, None),
        ({**PRESETS["fig3"], "sweep": "T 0.1 1e300 3"}, None),
        # 100000 x 384 cells, and a Gauss-Legendre rule of 100000 nodes
        (None, ["--grid-signal", "1e5"]),
        # N = 100042 Legendre terms per mode
        (None, ["--modes", "100000"]),
        # 1e12 windows, one array of 8 TB
        ({**PRESETS["fig3"], "sweep": "T 0.1 4.0 1000000000000"}, None),
    ])
    def test_size_past_the_budget_is_one_line_exit_1(self, tmp_path, capsys, keys, flags):
        if keys is None:
            argv = ["preset", "fig3", *flags]
        else:
            cfg = tmp_path / "big.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
            argv = ["run", str(cfg)]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_non_finite_fiber_length_is_one_line_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "fiber.cfg"
        keys = {**PRESETS["fig5-180ps"], "fiber_length_m": "nan"}
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert cli.main(["run", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "fiber_length_m" in err

    def test_numerical_failure_exit_code(self, fig3_config, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise StageError("density-matrix", ValueError("synthetic failure"))

        monkeypatch.setattr(cli, "run_scenario", boom)
        assert cli.main(["run", str(fig3_config)]) == 2
        assert "density-matrix" in capsys.readouterr().err

    @pytest.fixture
    def failing_jsa(self, monkeypatch):
        def boom(*args, **kwargs):
            raise FloatingPointError("synthetic jsa failure")

        monkeypatch.setattr(scenarios, "sample_jsa", boom)

    def test_jsa_failure_is_tagged(self, failing_jsa):
        with pytest.raises(StageError) as info:
            run_scenario(preset("fig3"))
        assert info.value.stage == "jsa"
        with pytest.raises(StageError) as info:
            run_sweep(preset("fig4"))
        assert info.value.stage == "jsa"

    def test_jsa_failure_exit_code(self, failing_jsa, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(FIG3_CFG + "sweep = T 0.2 0.6 3\n")
        assert cli.main(["run", str(cfg)]) == 2
        assert "numerical failure in jsa" in capsys.readouterr().err

    def test_detection_mode_failure_is_tagged(self, monkeypatch):
        def boom(*args, **kwargs):
            raise FloatingPointError("synthetic eigensolver failure")

        monkeypatch.setattr(scenarios, "detection_modes", boom)
        with pytest.raises(StageError) as info:
            run_scenario(preset("fig3"))
        assert info.value.stage == "detection-modes"

    @pytest.mark.parametrize("target, stage", [
        ("collapsed_wavefunctions", "collapse"),
        ("idler_density_matrix", "density-matrix"),
        ("t_min", "metrics"),
    ])
    def test_stage_failure_is_tagged(self, monkeypatch, target, stage):
        cause = FloatingPointError(f"synthetic {stage} failure")

        def boom(*args, **kwargs):
            raise cause

        monkeypatch.setattr(scenarios, target, boom)
        with pytest.raises(StageError) as info:
            run_scenario(preset("fig3"))
        assert info.value.stage == stage
        assert info.value.__cause__ is cause

    @pytest.mark.parametrize("key, value", [("output_path", 5), ("sweep", 5),
                                            ("name", None), ("modes", True),
                                            ("sigma", True)])
    def test_wrong_typed_json_value_is_one_line_exit_1(self, tmp_path, capsys,
                                                       key, value):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({"sigma": 1.0, "mu_s": 2.0, "mu_i": -1.0,
                                   "B": 6.283185307179586, "T": 0.5, key: value}))
        assert cli.main(["run", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert f"key '{key}'" in captured.err

    def test_unwritable_out_is_one_line_exit_1(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        assert cli.main(["preset", "fig3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write") and err.count("\n") == 1
        assert str(out) in err

    def test_dump_modes_onto_a_file_is_one_line_exit_1(self, fig3_config, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main(["run", str(fig3_config), "--dump-modes", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write") and err.count("\n") == 1
        assert str(taken) in err

    def test_phase_and_grid_overrides(self, fig3_config, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main(["run", str(fig3_config), "--phase", "on",
                         "--grid-signal", "128", "--grid-idler", "192",
                         "--modes", "8", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_flag_replaces_the_file_key_before_validation(self, tmp_path, capsys):
        # a grid of 4 is invalid on its own; the flag's value is the one checked
        cfg = tmp_path / "small.cfg"
        cfg.write_text(FIG3_CFG + "grid_signal = 4\n")
        assert cli.main(["run", str(cfg)]) == 1
        capsys.readouterr()
        assert cli.main(["run", str(cfg), "--grid-signal", "128"]) == 0
        flagged = capsys.readouterr().out
        cfg.write_text(FIG3_CFG + "grid_signal = 128\n")
        assert cli.main(["run", str(cfg)]) == 0
        assert flagged == capsys.readouterr().out

    def test_dump_modes(self, fig3_config, tmp_path):
        dump = tmp_path / "dump"
        assert cli.main(["run", str(fig3_config), "--dump-modes", str(dump)]) == 0
        det = (dump / "detection_modes.csv").read_text().splitlines()
        assert det[0].startswith("omega,phi_0")
        assert len(det) > 100
        idl = (dump / "idler_modes.csv").read_text().splitlines()
        assert idl[0].startswith("omega_i,mode_0_re,mode_0_im")

    def test_dump_modes_writes_one_idler_mode_per_rank(self, tmp_path):
        # with M = 3 detection modes the heralded state has rank <= 3, so only
        # three idler eigenmodes exist to write
        cfg = tmp_path / "m3.cfg"
        cfg.write_text(FIG3_CFG + "modes = 3\n")
        dump = tmp_path / "dump"
        assert cli.main(["run", str(cfg), "--dump-modes", str(dump)]) == 0
        header = (dump / "idler_modes.csv").read_text().splitlines()[0]
        assert header == "omega_i," + ",".join(
            f"mode_{n}_re,mode_{n}_im" for n in range(3))


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(FIG3_CFG + "sweep = T 0.2 0.6 3\n")
        assert cli.main(["run", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "T,c,H,D_s,T_min,R_abs"
        assert len(lines) == 4
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts == sorted(ts)

    def test_the_sweep_key_alone_picks_the_table(self, tmp_path, capsys):
        # run prints a report row without the key and a sweep table with it,
        # as preset does; there is no sweep command
        cfg = tmp_path / "nosweep.cfg"
        cfg.write_text(FIG3_CFG)
        assert cli.main(["run", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("name,sigma,")
        cfg.write_text(FIG3_CFG + "sweep = T 0.2 0.6 3\n")
        assert cli.main(["run", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith(",".join(SWEEP_COLUMNS) + "\n")
        with pytest.raises(SystemExit) as info:
            cli.main(["sweep", str(cfg)])
        assert info.value.code == 2

    def test_unresolved_points_warn_one_line_each(self, tmp_path, capsys):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(FIG3_CFG + "grid_signal = 8\ngrid_idler = 8\nsweep = T 0.5 1.0 2\n")
        rows = run_sweep(replace(preset("fig3"), n_signal=8, n_idler=8,
                                 sweep=SweepSpec(0.5, 1.0, 2)))
        assert not any(report.resolved for _, _, report in rows)
        assert cli.main(["run", str(cfg)]) == 0
        captured = capsys.readouterr()
        # stdout holds every row, as for resolved points, and the exit code is 0
        assert captured.out == format_sweep_csv(rows)
        # one line per point, naming its T and the cause a single run names
        assert captured.err.splitlines() == [
            f"warning: not converged at T = {t}: the grid, {cli._UNRESOLVED}"
            for t in ("0.5", "1")]
        assert "Legendre" in cli._UNRESOLVED

    def test_resolved_sweep_writes_nothing_to_stderr(self, capsys):
        assert cli.main(["preset", "fig4"]) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_json_holds_the_csv_cells(self, capsys):
        assert cli.main(["preset", "fig4", "--format", "json"]) == 0
        objects = json.loads(capsys.readouterr().out)
        assert cli.main(["preset", "fig4"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == ",".join(SWEEP_COLUMNS)
        assert len(objects) == len(rows) == 17
        for obj, row in zip(objects, rows):
            assert list(obj) == list(SWEEP_COLUMNS)
            assert list(obj.values()) == [float(cell) for cell in row.split(",")]

    def test_dump_modes_is_ignored_for_sweeps(self, tmp_path, capsys):
        dump = tmp_path / "dump"
        assert cli.main(["preset", "fig4", "--dump-modes", str(dump)]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(",".join(SWEEP_COLUMNS) + "\n")
        assert err == "warning: --dump-modes is ignored for sweeps\n"
        assert not dump.exists()


class TestPresetCommand:
    def test_preset_fig3(self, capsys):
        assert cli.main(["preset", "fig3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("fig3,")

    def test_resolved_run_writes_nothing_to_stderr(self, capsys):
        assert cli.main(["preset", "fig3"]) == 0
        assert capsys.readouterr().err == ""

    def test_unresolved_run_warns_in_one_line(self, capsys):
        s = replace(preset("fig3"), n_signal=8, n_idler=8)
        result = run_scenario(s)
        assert not result.report.resolved
        assert cli.main(["preset", "fig3", "--grid-signal", "8", "--grid-idler", "8"]) == 0
        captured = capsys.readouterr()
        # stdout still holds the finest level's report, and the exit code is 0
        assert captured.out == format_report_csv(s, result.report)
        assert captured.err.startswith("warning:") and captured.err.count("\n") == 1
        assert "64x64" in captured.err

    def test_preset_byte_identical_runs(self, capsys):
        cli.main(["preset", "fig3"])
        first = capsys.readouterr().out
        cli.main(["preset", "fig3"])
        second = capsys.readouterr().out
        assert first == second

    def test_preset_fig4_emits_sweep_table(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert cli.main(["preset", "fig4", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "T,c,H,D_s,T_min,R_abs"
        assert len(lines) == 18

    def test_flags_set_the_config_keys_of_their_names(self, tmp_path, capsys):
        keys = {"name": "fig3", **PRESETS["fig3"], "grid_signal": 128,
                "grid_idler": 192, "modes": 8, "phase": "on", "output_format": "json"}
        cfg = tmp_path / "fig3.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert cli.main(["run", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        assert cli.main(["preset", "fig3", "--grid-signal", "128", "--grid-idler", "192",
                         "--modes", "8", "--phase", "on", "--format", "json"]) == 0
        assert capsys.readouterr().out == from_file
        assert json.loads(from_file)["name"] == "fig3"

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_run_on_the_preset_keys_prints_what_preset_prints(self, name, tmp_path, capsys):
        cfg = tmp_path / f"{name}.cfg"
        keys = {"name": name, **PRESETS[name]}
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert cli.main(["run", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        assert cli.main(["preset", name]) == 0
        assert capsys.readouterr().out == from_file

    @staticmethod
    def _run_fig3_with(tmp_path, capsys, key, value):
        """Exit code, stdout and stderr of ``run`` on fig3's keys plus ``key = value``."""
        cfg = tmp_path / "fig3-key.cfg"
        keys = {"name": "fig3", **PRESETS["fig3"], key: value}
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        code = cli.main(["run", str(cfg)])
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("flag, key, value", [
        ("--grid-signal", "grid_signal", "abc"), ("--grid-idler", "grid_idler", "1.5"),
        ("--modes", "modes", "x"), ("--format", "output_format", "xml"),
        ("--phase", "phase", "maybe"),
    ])
    def test_bad_flag_value_is_the_config_error_of_its_key(self, tmp_path, capsys,
                                                           flag, key, value):
        code = cli.main(["preset", "fig3", flag, value])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("config error:") and err.count("\n") == 1
        assert (code, out, err) == self._run_fig3_with(tmp_path, capsys, key, value)

    @pytest.mark.parametrize("flag, key, value", [
        ("--grid-signal", "grid_signal", "1e3"), ("--phase", "phase", "true"),
    ])
    def test_flag_accepts_what_its_key_accepts(self, tmp_path, capsys, flag, key, value):
        code = cli.main(["preset", "fig3", flag, value])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "") and out.startswith("name,")
        assert (code, out, err) == self._run_fig3_with(tmp_path, capsys, key, value)

    def test_unknown_preset_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            cli.main(["preset", "fig99"])


def test_readme_flag_table_lists_the_parser_options():
    """README's table of common flags names every option of run and preset,
    each with the config key that its argparse dest sets, and gives
    the default grid sizes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| flag | config key | meaning |"):].split("\n\n", 1)[0]
    rows, meanings = {}, {}
    for line in table.splitlines()[2:]:
        # a cell may hold an escaped pipe, as in `--format csv\|json`
        flag, key, meaning = (cell.strip().strip("`")
                              for cell in re.split(r"(?<!\\)\|", line)[1:4])
        rows[flag.split()[0]] = key
        meanings[flag.split()[0]] = meaning
    assert rows["--dump-modes"] == "—"
    for flag, default in (("--grid-signal", scenarios.DEFAULT_N_SIGNAL),
                          ("--grid-idler", scenarios.DEFAULT_N_IDLER)):
        assert re.search(r"default (\d+)", meanings[flag]).group(1) == str(default), flag
    assert {k for k in rows.values() if k != "—"} == set(cli._FLAG_KEYS)

    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == {"run", "preset"}
    for command in ("run", "preset"):
        dests = {opt: action.dest for action in subparsers.choices[command]._actions
                 for opt in action.option_strings if opt not in ("-h", "--help")}
        assert set(dests) == set(rows), command
        for flag, dest in dests.items():
            assert rows[flag] == ("—" if flag == "--dump-modes" else dest), flag


def test_readme_commands_parse():
    """Every ``heraldsim`` line of README's sh blocks, without its trailing
    comment, is a command that the parser accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines() if line.startswith("heraldsim ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for words in lines:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(words)}")


def test_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: the package lists numpy alone, so the
    CLI must run where importing scipy fails."""
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from heraldsim import cli\n"
        "codes = [cli.main(['preset', 'fig4']),\n"
        f"         cli.main(['preset', 'fig1', '--dump-modes', {str(tmp_path)!r}])]\n"
        "sys.exit(0 if codes == [0, 0] else 1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "detection_modes.csv").is_file()
    assert (tmp_path / "idler_modes.csv").is_file()
