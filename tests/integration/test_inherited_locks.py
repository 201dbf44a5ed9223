"""A new primary resolves the transactions it inherits (section 3.4).

When a kv primary crashes, the new primary inherits the pending records
of transactions that had called it but not yet finished.  If the
coordinator's abort went to the dead primary, or was lost on the lossy
link, only asking the coordinator frees those transactions' write locks.
The new primary must ask until it knows the outcome, and must never abort
such a transaction on its own: the old primary may already have voted
yes.  Before this was fixed, every seed below ended with two or three kv
keys write-locked forever by transactions the coordinator had aborted.
"""

import pytest

from repro import LOSSY, Nemesis
from repro.harness.common import build_kv_system, drain, kv_jobs
from repro.workloads.loadgen import run_closed_loop

TXNS = 300


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_no_locks_outlive_primary_crashes_on_lossy_links(seed):
    rt, kv, _clients, driver, spec = build_kv_system(seed=seed, link=LOSSY)
    rt.inject(
        Nemesis().crash_primary("kv", every=300.0, count=4, recover_after=150.0)
    )
    stats = run_closed_loop(
        rt, driver, "clients", kv_jobs(rt, spec, TXNS, read_fraction=0.0),
        concurrency=4,
    )
    drain(rt, stats, TXNS)
    assert stats.submitted == TXNS
    rt.faults.stop()
    rt.quiesce(2_000.0)
    rt.check_invariants(require_convergence=False)
    primary = kv.active_primary()
    held = {
        uid: holders
        for uid in primary.store.uids()
        if (holders := primary.lockmgr.holders_of(uid))
    }
    assert held == {}, f"locks held after quiesce: {held}"
    assert primary.pending == {}
