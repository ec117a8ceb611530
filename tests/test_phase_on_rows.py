"""The rows ``heraldsim preset NAME --phase on`` prints, pinned byte for byte.

``bench/reference.json`` pins the rows with the group-delay phase off; this
file's ``phase_on_rows.json`` pins them with it on, for the five single-window
presets and each of fig4's sweep rows.  To record it from the checkout whose
numbers are the reference, run from the root of the checkout:

    PYTHONPATH=src python3 tests/test_phase_on_rows.py
"""
import contextlib
import io
import json
import subprocess
from pathlib import Path

from heraldsim import cli
from heraldsim.scenarios import PRESET_NAMES

ROWS = Path(__file__).resolve().parent / "phase_on_rows.json"


def phase_on_rows() -> dict:
    """{label: {"header", "row"}} of every preset's phase-on CSV output; a
    sweep's rows are labelled NAME[i]."""
    rows = {}
    for name in PRESET_NAMES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["preset", name, "--phase", "on"]) == 0
        header, *lines = out.getvalue().splitlines()
        labels = [name] if len(lines) == 1 else [f"{name}[{i}]" for i in range(len(lines))]
        rows.update((label, {"header": header, "row": line})
                    for label, line in zip(labels, lines))
    return rows


def test_phase_on_rows_match_the_record():
    assert phase_on_rows() == json.loads(ROWS.read_text())["points"]


if __name__ == "__main__":
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or None
    points = phase_on_rows()
    ROWS.write_text(json.dumps({"commit": commit, "points": points}, indent=1) + "\n")
    print(f"wrote {len(points)} rows to {ROWS}")
