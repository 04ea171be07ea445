"""Smoke tests for the experiment scripts under scripts/.

Both scripts read plan and corridor-trace fields that the generator builds,
so each is run once, as ``python scripts/<name>.py`` would run it, on a few
seeds: it must finish without a non-zero exit and print its table.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, capsys, name: str, *argv: str) -> list[str]:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), capsys.readouterr().err
    return capsys.readouterr().out.splitlines()


def test_corridor_stats_prints_its_tally(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "corridor_stats.py", "-n", "5")
    assert lines[0].split() == ["seeds", "scanned", "5"]
    assert any(line.startswith("winner area m^2") for line in lines)
    reasons = lines[lines.index("rejection reasons") + 1 :]
    assert reasons
    for line in reasons:
        assert int(line.split()[-1]) > 0


def test_failure_sweep_prints_a_row_per_value(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "failure_sweep.py", "-n", "5", "2.2")
    assert lines[0].split()[:3] == ["min_room_width", "ok", "failed"]
    (row,) = lines[1:]
    value, ok, failed, rate, mean_attempts = row.split()
    assert value == "2.20"
    assert int(ok) + int(failed) == 5
    assert rate.endswith("%")
    assert float(mean_attempts) >= 1
