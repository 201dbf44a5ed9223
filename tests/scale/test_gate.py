"""The scale row of ``python -m repro.gates``: the E21 state run and the
scale docs-drift check."""

import dataclasses

from repro.config import ProtocolConfig, ScaleConfig
from repro.gates import ROWS, kv_writes
from repro.gates import main as gates_main


def _scale_state_run(seed, config, txns, cohorts):
    return kv_writes(seed, config, txns, **{**ROWS["scale"].shape, "cohorts": cohorts})


def test_state_run_is_deterministic_and_mechanism_invariant():
    baseline = _scale_state_run(77, None, txns=8, cohorts=5)
    again = _scale_state_run(77, None, txns=8, cohorts=5)
    assert baseline == again  # same seed, same run -- every digest and count
    assert baseline.writes == 8
    # All-off is byte-identical DOWN TO THE SCHEDULE (ledger digest)...
    all_off = _scale_state_run(
        77, ProtocolConfig(scale=ScaleConfig()), txns=8, cohorts=5
    )
    assert all_off == baseline
    # ...while armed mechanisms move messages but never change the state.
    armed = _scale_state_run(
        77, ProtocolConfig(scale=ScaleConfig(gossip=True, ack_tree=True, witnesses=1)),
        txns=8, cohorts=5,
    )
    assert armed.writes == 8
    assert armed.state == baseline.state
    assert armed.ledger != baseline.ledger  # gossip genuinely reshapes the schedule


def test_check_docs_passes_on_shipped_doc(capsys):
    assert gates_main(["check-docs", "scale"]) == 0
    assert "documents all" in capsys.readouterr().out


def test_check_docs_fails_on_incomplete_doc(monkeypatch, tmp_path, capsys):
    doc = tmp_path / "SCALE.md"
    doc.write_text("# scaling\n\nnothing relevant here\n")
    monkeypatch.setitem(ROWS, "scale", dataclasses.replace(ROWS["scale"], doc=str(doc)))
    assert gates_main(["check-docs", "scale"]) == 1
    assert "missing documentation" in capsys.readouterr().err


def test_check_docs_unreadable_doc(monkeypatch, tmp_path):
    missing = str(tmp_path / "missing.md")
    monkeypatch.setitem(ROWS, "scale", dataclasses.replace(ROWS["scale"], doc=missing))
    assert gates_main(["check-docs", "scale"]) == 2
