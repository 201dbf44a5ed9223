"""The geo row of ``python -m repro.gates``: the E20 state run and the
geo docs-drift check."""

import dataclasses

from repro.gates import ROWS, kv_writes
from repro.gates import main as gates_main


def _geo_state_run(seed, label, txns):
    row = ROWS["geo"]
    condition = next(c for c in row.conditions if c.label == label)
    return kv_writes(seed, condition.config, txns, **{**row.shape, **condition.shape})


def test_state_run_is_deterministic_and_placement_invariant():
    flat = _geo_state_run(77, "flat", txns=8)
    again = _geo_state_run(77, "flat", txns=8)
    spread = _geo_state_run(77, "spread", txns=8)
    assert flat == again  # same seed, same run -- every digest and count
    assert flat.writes == 8
    # Geography reshapes transport, never the replicated state.
    assert spread.state == flat.state
    assert spread.writes == 8


def test_check_docs_passes_on_shipped_doc(capsys):
    assert gates_main(["check-docs", "geo"]) == 0
    assert "documents all" in capsys.readouterr().out


def test_check_docs_fails_on_incomplete_doc(monkeypatch, tmp_path, capsys):
    doc = tmp_path / "GEO.md"
    doc.write_text("# geography\n\nnothing relevant here\n")
    monkeypatch.setitem(ROWS, "geo", dataclasses.replace(ROWS["geo"], doc=str(doc)))
    assert gates_main(["check-docs", "geo"]) == 1
    assert "missing documentation" in capsys.readouterr().err


def test_check_docs_unreadable_doc(monkeypatch, tmp_path):
    missing = str(tmp_path / "missing.md")
    monkeypatch.setitem(ROWS, "geo", dataclasses.replace(ROWS["geo"], doc=missing))
    assert gates_main(["check-docs", "geo"]) == 2
