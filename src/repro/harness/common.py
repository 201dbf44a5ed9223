"""Shared plumbing for the experiment harness."""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro import EmptyModule, Runtime
from repro.analysis.tables import render_table
from repro.config import ProtocolConfig
from repro.workloads.kv import KVStoreSpec
from repro.workloads.loadgen import (
    ClosedLoopStats,
    OpenLoopStats,
    run_closed_loop,
    run_open_loop,
)


@dataclasses.dataclass
class ExperimentResult:
    """One experiment's reproduced table."""

    exp_id: str
    title: str
    claim: str          # the paper sentence(s) being reproduced
    headers: Sequence[str]
    rows: List[Sequence]
    notes: str = ""

    def render(self) -> str:
        lines = [
            f"== {self.exp_id}: {self.title} ==",
            f"claim: {self.claim}",
            "",
            render_table(self.headers, self.rows),
        ]
        if self.notes:
            lines += ["", f"note: {self.notes}"]
        return "\n".join(lines)


def format_result(result: ExperimentResult) -> str:
    return result.render()


def build_kv_system(
    seed: int = 0,
    n_cohorts: int = 3,
    n_keys: int = 16,
    config: Optional[ProtocolConfig] = None,
    link=None,
    trace=None,
    driver_site: Optional[str] = None,
    kv_config: Optional[ProtocolConfig] = None,
    client_cohorts: Optional[int] = None,
    max_events: Optional[int] = None,
) -> Tuple[Runtime, object, object, object, KVStoreSpec]:
    """Runtime with a KV group, a client group, and a driver.

    With a geo-armed *config*, cohorts are placed by its placement
    policy; *driver_site* additionally homes the driver at a topology
    site so its reads route geographically.  *kv_config* applies to the
    kv group alone and *client_cohorts* sizes the client group (default:
    *n_cohorts*), so a mechanism can be measured on the kv group without
    arming it in the client plumbing.
    """
    from repro.workloads.kv import read_program, update_program, write_program

    kwargs = {}
    if config is not None:
        kwargs["config"] = config
    if link is not None:
        kwargs["link"] = link
    if trace is not None:
        kwargs["trace"] = trace
    if max_events is not None:
        kwargs["max_events"] = max_events
    rt = Runtime(seed=seed, **kwargs)
    spec = KVStoreSpec(n_keys=n_keys)
    kv = rt.create_group("kv", spec, n_cohorts=n_cohorts, config=kv_config)
    clients = rt.create_group(
        "clients", EmptyModule(), n_cohorts=client_cohorts or n_cohorts
    )
    clients.register_program("read", read_program)
    clients.register_program("write", write_program)
    clients.register_program("update", update_program)
    driver = rt.create_driver("driver", site=driver_site)
    return rt, kv, clients, driver, spec


def kv_jobs(
    rt: Runtime,
    spec: KVStoreSpec,
    count: int,
    read_fraction: float,
    rng_name: str = "jobs",
) -> List[Tuple[str, tuple]]:
    """A randomized read/write job mix against the "kv" group."""
    rng = rt.sim.rng.fork(rng_name)
    jobs = []
    for index in range(count):
        key = spec.key(rng.randint(0, spec.n_keys - 1))
        if rng.random() < read_fraction:
            jobs.append(("read", ("kv", key)))
        else:
            jobs.append(("write", ("kv", key, index)))
    return jobs


def drain(
    rt: Runtime,
    stats: ClosedLoopStats,
    expected: int,
    step: float = 500.0,
    max_time: float = 200_000.0,
) -> None:
    """Run the simulation until the closed loop finishes (or time is up)."""
    deadline = rt.sim.now + max_time
    while stats.submitted < expected and rt.sim.now < deadline:
        rt.run_for(step)


def run_kv_batch(
    rt: Runtime,
    driver,
    spec: KVStoreSpec,
    count: int,
    read_fraction: float,
    concurrency: int = 1,
    think_time: float = 0.0,
) -> ClosedLoopStats:
    jobs = kv_jobs(rt, spec, count, read_fraction)
    stats = run_closed_loop(
        rt, driver, "clients", jobs, concurrency=concurrency, think_time=think_time
    )
    drain(rt, stats, count)
    return stats


def state_run(
    seed: int,
    config: Optional[ProtocolConfig],
    txns: int,
    *,
    cohorts: int = 3,
    kv_only: bool = False,
    settle: float = 0.0,
    link=None,
    fault=None,
    concurrency: int = 4,
    reads: Optional[Tuple[float, float, str]] = None,
    prefer: str = "primary",
    site: Optional[str] = None,
    quiesce: Optional[float] = None,
    deadline: float = 100_000.0,
) -> Tuple[Runtime, ClosedLoopStats, Optional[OpenLoopStats]]:
    """The cross-config comparable workload: *txns* distinct-key writes,
    each retried until it commits with a fixed value.

    The final replicated state is therefore independent of the schedule,
    so two configs can be compared by state digest even when loss, view
    changes or batching abort different interim attempts.  The shape:

    - *cohorts* sizes both groups; with *kv_only* the config arms the kv
      group alone and the client group keeps three paper-faithful cohorts;
    - *settle* runs before the writes start, *fault* (a Nemesis or
      FaultPlan) is injected just before them and stopped after;
    - *reads* ``(rate, duration, rng name)`` adds a concurrent read-only
      open loop steered by *prefer* from a driver at *site*, served by
      the read path whenever the config enables it.

    Returns ``(runtime, write stats, read stats or None)`` after quiesce
    and the invariant check.
    """
    if kv_only:
        groups = dict(kv_config=config, client_cohorts=3)
    else:
        groups = dict(config=config)
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=cohorts, n_keys=txns, link=link,
        driver_site=site, **groups,
    )
    if settle:
        rt.run_for(settle)
    if fault is not None:
        rt.inject(fault)
    jobs = [("write", ("kv", spec.key(index), index)) for index in range(txns)]
    writes = run_closed_loop(rt, driver, "clients", jobs, concurrency=concurrency, max_attempts=25)
    read_stats = None
    if reads is not None:
        rate, duration, name = reads
        read_stats = run_open_loop(
            rt, driver,
            key=spec.key, n_keys=txns, duration=duration, rate=rate,
            read_fraction=1.0, prefer=prefer,
            use_read_path=rt.config.reads.enabled, name=name,
        )
    end = rt.sim.now + deadline
    while (
        writes.committed < txns
        or (read_stats is not None and not read_stats.drained)
    ) and rt.sim.now < end:
        rt.run_for(200.0)
    if fault is not None:
        rt.faults.stop()
    rt.quiesce(quiesce)
    rt.check_invariants(require_convergence=False)
    return rt, writes, read_stats


def sync_msgs(rt: Runtime, msg_types: Sequence[str]) -> int:
    return sum(rt.metrics.messages_sent.get(t, 0) for t in msg_types)


#: Message types on the synchronous path of one remote call.
CALL_MSGS = ("CallMsg", "ReplyMsg")
#: Background replication traffic.
BUFFER_MSGS = ("BufferMsg", "BufferAckMsg")
#: Two-phase-commit traffic.
TWOPC_MSGS = (
    "PrepareMsg",
    "PrepareOkMsg",
    "PrepareRefusedMsg",
    "CommitMsg",
    "CommitAckMsg",
    "AbortMsg",
)
#: View change traffic (viewstamped replication).
VIEWCHANGE_MSGS = ("InviteMsg", "AcceptMsg", "InitViewMsg")
