import json

import pytest

from heraldsim import cli
from heraldsim.scenarios import StageError

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

    def test_invalid_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sigma = -3\nmu_s = 0\nmu_i = 0\nB = 1\nT = 1\n")
        assert cli.main(["run", str(bad)]) == 1

    def test_numerical_failure_exit_code(self, fig3_config, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise StageError("density-matrix", ValueError("synthetic failure"))

        monkeypatch.setattr(cli, "run_scenario", boom)
        assert cli.main(["run", str(fig3_config)]) == 2
        assert "density-matrix" in capsys.readouterr().err

    def test_phase_and_grid_overrides(self, fig3_config, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main(["run", str(fig3_config), "--phase", "on",
                         "--grid-signal", "128", "--grid-idler", "192",
                         "--modes", "8", "--out", str(out)])
        assert code == 0
        assert out.exists()

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
        assert cli.main(["sweep", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "T,c,H,D_s,T_min,R_abs"
        assert len(lines) == 4
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts == sorted(ts)

    def test_sweep_without_spec_fails(self, tmp_path, capsys):
        cfg = tmp_path / "nosweep.cfg"
        cfg.write_text(FIG3_CFG)
        assert cli.main(["sweep", str(cfg)]) == 1


class TestPresetCommand:
    def test_preset_fig3(self, capsys):
        assert cli.main(["preset", "fig3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("fig3,")

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

    def test_unknown_preset_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            cli.main(["preset", "fig99"])
