"""Determinism of the read serving path: same seed, same condition must
replay byte-for-byte, and every serving configuration (reads disabled,
leases, backup reads, client cache) must leave the committed state with
an identical digest -- the ``reads`` row of `python -m repro.gates`,
here at small parameters for the tier-1 suite."""

from repro.gates import ROWS, kv_writes
from repro.harness.experiments_reads import _reads_run


def test_same_seed_same_condition_replays_identically():
    first = _reads_run(5, "leases", n_keys=8, duration=150.0, rate=0.4)
    second = _reads_run(5, "leases", n_keys=8, duration=150.0, rate=0.4)
    assert first == second


def test_all_serving_configs_commit_identical_state():
    row = ROWS["reads"]
    shape = {**row.shape, "reads": (0.4, 120.0, "e19-gate")}
    runs = {
        condition.label: kv_writes(6, condition.config, 8, **{**shape, **condition.shape})
        for condition in row.conditions
    }
    assert set(runs) == {"baseline", "leases", "backup", "cache"}
    digests = {run.state for run in runs.values()}
    assert len(digests) == 1, (
        "serving configs diverged: "
        + ", ".join(f"{label}={run.state[:12]}" for label, run in sorted(runs.items()))
    )
    assert {run.writes for run in runs.values()} == {8}
