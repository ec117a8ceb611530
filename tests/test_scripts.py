import os
import subprocess
import sys
from pathlib import Path

from heraldsim.scenarios import PRESET_NAMES

REPO = Path(__file__).resolve().parents[1]


def test_fiber_source_study_prints_one_row_per_fiber_preset():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "fiber_source_study.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["preset", "c", "P_pair", "H", "rate", "(MHz)"]
    fiber = [name for name in PRESET_NAMES if name.startswith("fig5")]
    assert [row.split()[0] for row in rows] == fiber
    for row in rows:
        assert len(row.split()) == 5
