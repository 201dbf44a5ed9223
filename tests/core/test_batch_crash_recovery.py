"""A batched backup that crashes with its ack-coalescing timer armed must
ack again after it recovers.

The crash cancels every timer the node set, including the coalescing
timer; if the "timer armed" flag survived the crash, the recovered backup
would only ever count applied buffer messages and never ack them, leaving
the primary's acked timestamp for it stuck.
"""

import pytest

from repro.config import BatchConfig, ProtocolConfig
from tests.conftest import build_counter_system


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_recovered_batched_backup_acks_again(seed):
    rt, counter, _clients, driver = build_counter_system(
        seed=seed, config=ProtocolConfig(batch=BatchConfig(enabled=True))
    )
    backup = counter.cohort(1)
    driver.call("clients", "bump", 1)
    # Applying buffer traffic in batched mode arms the coalescing timer;
    # crash right after the first application, before the timer fires.
    applied = backup.applied_ts
    while backup.applied_ts == applied:
        assert rt.sim.step()
    counter.crash_cohort(1)
    rt.run_for(30.0)
    counter.recover_cohort(1)
    rt.run_for(2_000.0)
    for _ in range(5):
        driver.call("clients", "bump", 1)
    rt.run_for(2_000.0)

    primary = counter.active_primary()
    assert primary is not None and primary.mymid != 1
    assert primary.buffer.acked[1] == primary.buffer.timestamp
