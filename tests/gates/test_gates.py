"""The ``repro.gates`` registry: every row at small size, plus the two
ways a gate must fail -- a broken contract and a doc that drifted."""

import dataclasses
import pathlib

import pytest

from repro.config import ProtocolConfig
from repro.gates import ROWS, STATE, Condition, Row, main, summarize
from repro.harness.common import build_kv_system
from repro.workloads.loadgen import run_closed_loop


@pytest.mark.parametrize("name", sorted(name for name, row in ROWS.items() if row.conditions))
def test_row_holds_its_contracts(name, capsys):
    assert main(["run", name]) == 0
    assert f"{name}: OK" in capsys.readouterr().out


def test_seed_and_txns_override_the_row(capsys):
    assert main(["run", "reads", "--seed", "6", "--txns", "8"]) == 0
    assert "writes=8/8" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(name for name, row in ROWS.items() if row.doc))
def test_shipped_doc_covers_the_row_vocabulary(name, capsys):
    assert main(["check-docs", name]) == 0
    assert "documents all" in capsys.readouterr().out


def _offset_writes(seed, config, txns):
    """Distinct-key writes; the armed condition writes different values."""
    rt, _kv, _clients, driver, spec = build_kv_system(seed=seed, n_keys=txns)
    offset = 0 if config is None else 100
    jobs = [("write", ("kv", spec.key(i), i + offset)) for i in range(txns)]
    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=2, max_attempts=25)
    rt.run_for(5_000.0)
    return summarize(rt, stats.committed)


def test_run_fails_naming_the_broken_contract(monkeypatch, capsys):
    row = Row(
        "offset", seed=3, txns=4, run=_offset_writes,
        conditions=(Condition("baseline"), Condition("armed", ProtocolConfig(), STATE)),
    )
    monkeypatch.setitem(ROWS, "offset", row)
    assert main(["run", "offset"]) == 1
    err = capsys.readouterr().err
    assert "armed: broke the state contract against baseline (state digest)" in err


def test_check_docs_fails_on_a_missing_term_and_an_unreadable_doc(
    monkeypatch, tmp_path, capsys
):
    row = ROWS["geo"]
    doc = tmp_path / "GEO.md"
    doc.write_text(pathlib.Path(row.doc).read_text().replace("wan_degradation", "wan"))
    monkeypatch.setitem(ROWS, "geo", dataclasses.replace(row, doc=str(doc)))
    assert main(["check-docs", "geo"]) == 1
    assert "missing documentation for: region fault 'wan_degradation'" in (
        capsys.readouterr().err
    )
    monkeypatch.setitem(
        ROWS, "geo", dataclasses.replace(row, doc=str(tmp_path / "missing.md"))
    )
    assert main(["check-docs", "geo"]) == 2
