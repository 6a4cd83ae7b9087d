"""Experiment scripts run in-process against golden output.

``tests/golden/audit_battery.txt`` holds the argv, exit code and stdout of
``scripts/audit_battery.py`` at a fixed run count and seed. Its chains are
criterion 7's first 200 (seed family 7000), so a change to what the audit
computes, or to the tables it reads, shows up as a byte diff here in about
a second. ``tests/golden/ratio_battery.txt`` does the same for
``scripts/ratio_battery.py`` with its default policies, so the kernel path
(dominating, median, random) and the batched path (LRU, FIFO) are both
pinned. ``tests/golden/learning_curve.txt`` pins the path from a sampled
trace through ``estimate_transition`` to the certified factor, and
``tests/golden/reproduce_lowerbound.txt`` pins the 3-page closed forms over
the script's default grid (stdout only; the best-ratio line goes to stderr).
"""

import contextlib
import io
import runpy
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def render(script, argv, monkeypatch) -> str:
    """The golden text of one script run: its argv, its exit code, then stdout."""
    path = ROOT / "scripts" / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(path), run_name="__main__")
    return f"$ {shlex.join(['python', f'scripts/{script}', *argv])}\n# exit {exit_.value.code}\n{out.getvalue()}"


def test_audit_battery_golden(monkeypatch):
    got = render("audit_battery.py", ["--runs", "200", "--seed", "7000"], monkeypatch)
    assert got == (GOLDEN / "audit_battery.txt").read_text()


def test_ratio_battery_golden(monkeypatch):
    got = render("ratio_battery.py", ["--instances", "6", "--trials", "500", "--seed", "11"], monkeypatch)
    assert got == (GOLDEN / "ratio_battery.txt").read_text()


def test_learning_curve_golden(monkeypatch):
    got = render("learning_curve.py", ["--n", "4", "--seed", "0", "--reps", "1"], monkeypatch)
    assert got == (GOLDEN / "learning_curve.txt").read_text()


def test_reproduce_lowerbound_golden(monkeypatch):
    got = render("reproduce_lowerbound.py", [], monkeypatch)
    assert got == (GOLDEN / "reproduce_lowerbound.txt").read_text()
