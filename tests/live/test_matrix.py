"""The nemesis x spec matrix: cells, the unhealable cell, and the CLI."""

import dataclasses

import pytest

from repro.gates import ROWS
from repro.gates import main as gates_main
from repro.live import SCHEDULES, run_cell, run_matrix
from repro.live.cli import main as live_main


def test_schedule_catalog_has_exactly_one_unhealable_cell():
    unhealable = [s for s in SCHEDULES.values() if s.expect_violation]
    assert [s.name for s in unhealable] == ["majority_partition"]


def test_healable_cell_passes_and_commits_after_heal():
    result = run_cell(SCHEDULES["lossy"], seed=0, duration=1500.0)
    assert result.ok, result.detail
    assert result.violations == 0
    assert result.committed > 0
    assert result.polls > 0
    assert result.report is None
    assert "lossy" in result.render()


def test_disk_fault_cell_passes():
    result = run_cell(SCHEDULES["disk_fault"], seed=0, duration=1500.0)
    assert result.ok, result.detail
    assert result.faults_injected > 0


def test_unhealable_cell_requires_a_quorum_naming_violation():
    result = run_cell(SCHEDULES["majority_partition"], seed=0, duration=1200.0)
    assert result.ok, result.detail
    assert result.violations > 0
    assert result.report is not None
    assert "no partition block holds a majority" in result.report.reason
    assert result.committed == 0


def test_run_matrix_rejects_unknown_schedules():
    with pytest.raises(KeyError):
        run_matrix(schedules=["lossy", "nope"])


def test_cli_runs_a_selected_cell(capsys):
    exit_code = live_main(
        ["matrix", "--schedule", "lossy", "--duration", "1500", "--seed", "0"]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "lossy" in out
    assert "1/1 cells ok" in out


def test_cli_lists_specs_and_schedules(capsys):
    assert live_main(["specs"]) == 0
    assert live_main(["schedules"]) == 0
    out = capsys.readouterr().out
    assert "eventually_single_primary" in out
    assert "majority_partition" in out


def test_cli_check_docs_passes_on_the_shipped_doc():
    assert gates_main(["check-docs", "live"]) == 0


def test_cli_check_docs_fails_on_incomplete_doc(monkeypatch, tmp_path, capsys):
    doc = tmp_path / "LIVENESS.md"
    doc.write_text("eventually_single_primary only\n")
    monkeypatch.setitem(ROWS, "live", dataclasses.replace(ROWS["live"], doc=str(doc)))
    assert gates_main(["check-docs", "live"]) == 1
    assert "missing documentation" in capsys.readouterr().err
