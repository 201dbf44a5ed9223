"""``python -m repro.gates``: one equivalence harness for every extension.

Batching, the read path, geo placement, cohort scaling and sharding each
sit behind a config knob, and each promises the same two things: one
seed fixes the whole run, and arming the extension changes how the
protocol transmits, never what it computes.  This module states that
promise once, as a registry of :class:`Row` s.  A row is data: a seeded
workload, a table of conditions with one contract each, and the doc that
must name the row's vocabulary::

    python -m repro.gates run NAME [--seed S] [--txns T]
    python -m repro.gates check-docs NAME

``run`` executes every condition twice and exits 1 unless the two
same-seed runs agree, every write commits, and each condition keeps its
contract against its baseline (the row's first condition unless it names
another):

- ``schedule``: the ledger digest -- every commit, abort, view change,
  event count and the final clock -- and the state digest are
  byte-identical: a disabled mechanism costs nothing and perturbs
  nothing;
- ``outcome``: the same transactions commit and abort, with the same
  final state;
- ``state``: the final replicated state is byte-identical;
- ``fewer-messages``: the same state, on strictly fewer messages.

``check-docs`` exits 1 unless the row's doc mentions every term of its
vocabulary and the row's own commands, and 2 if the doc cannot be read.

A row's ``overhead`` table generates one ``*_overhead`` scenario of
:mod:`repro.perf`: the same contracts, checked on the seeded KV batch,
whose first pass supplies the gated events/s.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.config import (
    BatchConfig,
    GeoConfig,
    ProtocolConfig,
    ReadConfig,
    ScaleConfig,
    TraceConfig,
)
from repro.geo.topology import Datacenter, Topology, Zone, symmetric_topology
from repro.net.link import LAN, LOSSY

SCHEDULE = "schedule"
OUTCOME = "outcome"
STATE = "state"
FEWER_MESSAGES = "fewer-messages"

#: The digests each contract holds equal to the baseline's.
CONTRACTS = {
    SCHEDULE: ("ledger", "state"),
    OUTCOME: ("outcome", "state"),
    STATE: ("state",),
    FEWER_MESSAGES: ("state",),
}


@dataclasses.dataclass(frozen=True)
class Condition:
    """One configuration a row runs.  ``contract=None`` marks a baseline;
    ``shape`` overrides the row's workload shape for this condition."""

    label: str
    config: Optional[ProtocolConfig] = None
    contract: Optional[str] = None
    against: Optional[str] = None
    shape: Mapping[str, Any] = dataclasses.field(default_factory=dict)


#: The seed of every overhead scenario's KV batch.
OVERHEAD_SEED = 4242


@dataclasses.dataclass(frozen=True)
class Overhead:
    """A perf scenario: conditions timed on the seeded KV batch, in order;
    ``extra`` adds row-specific ``perf_extra`` entries from the runtimes."""

    scenario: str
    conditions: Tuple[Condition, ...]
    extra: Callable[[Dict[str, Any]], dict] = lambda runtimes: {}


class Run(NamedTuple):
    """What the contracts and the same-seed check compare."""

    writes: int  # writes the workload committed
    messages: int
    ledger: str
    state: str
    outcome: str  # digest of which transactions committed and aborted
    extra: Tuple[Tuple[str, str], ...] = ()


def summarize(rt, writes: int = 0, extra: Tuple[Tuple[str, str], ...] = ()) -> Run:
    from repro.perf.report import ledger_digest, state_digest

    ledger = rt.ledger
    outcome = repr(
        (
            sorted((str(aid), at) for aid, at in ledger.committed.items()),
            sorted((str(aid), why) for aid, why in ledger.aborted.items()),
        )
    )
    return Run(
        writes=writes,
        messages=rt.network.messages_sent_total,
        ledger=ledger_digest(rt),
        state=state_digest(rt),
        outcome=hashlib.sha256(outcome.encode()).hexdigest(),
        extra=extra,
    )


def broken(contract: str, base: Run, run: Run) -> List[str]:
    """The parts of *contract* that *run* breaks against *base*."""
    parts = [
        f"{name} digest"
        for name in CONTRACTS[contract]
        if getattr(run, name) != getattr(base, name)
    ]
    if contract == FEWER_MESSAGES and run.messages >= base.messages:
        parts.append(f"messages {run.messages} >= {base.messages}")
    return parts


# -- workloads --------------------------------------------------------------


def kv_writes(seed: int, config, txns: int, **shape) -> Run:
    """The retry-until-commit state run (:func:`repro.harness.common.state_run`)."""
    from repro.harness.common import state_run

    rt, writes, reads = state_run(seed, config, txns, **shape)
    extra = ()
    if reads is not None:
        modes = dict(sorted(reads.read_modes.items()))
        extra = (
            (
                "reads",
                f"ok={reads.reads_ok} failed={reads.reads_failed} "
                f"modes={modes} mean={round(reads.read_mean_latency, 6)}",
            ),
        )
    return summarize(rt, writes.committed, extra)


def sharded_writes(seed: int, _config, txns: int, shards: int = 4) -> Run:
    """The canonical sharded workload (it sizes its own config); the
    per-shard ledger digests ride along."""
    from repro.shard.workload import run_sharded_workload

    rt, sharded, stats = run_sharded_workload(
        seed=seed, n_shards=shards, txns=txns
    )
    return summarize(rt, stats.committed, tuple(sorted(sharded.ledger_digests().items())))


def kv_batch(
    seed: int,
    config,
    txns: int,
    cohorts: int = 3,
    trace: Optional[TraceConfig] = None,
    export: bool = False,
    liveness: bool = False,
):
    """The perf scenarios' closed-loop 50/50 KV batch; returns
    ``(runtime, wall seconds of the workload)``."""
    from repro.harness.common import build_kv_system, run_kv_batch

    if export:
        import os
        import tempfile

        path = os.path.join(tempfile.mkdtemp(prefix="repro-trace-perf-"), "trace.jsonl")
        trace = dataclasses.replace(trace, export_path=path)
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=cohorts, config=config, trace=trace
    )
    if liveness:
        from repro.live import spec_catalog

        rt.arm_liveness(spec_catalog("kv", rt.config, commits=1))
    started = time.perf_counter()
    run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=4)
    rt.quiesce()
    elapsed = time.perf_counter() - started
    if export:
        rt.tracer.maybe_export()
    return rt, elapsed


# -- the registry -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Row:
    name: str
    seed: int = 0
    txns: int = 0
    conditions: Tuple[Condition, ...] = ()
    shape: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    run: Callable[..., Run] = kv_writes
    doc: Optional[str] = None
    vocabulary: Callable[[], Dict[str, Sequence[str]]] = lambda: {}
    overhead: Optional[Overhead] = None

    def commands(self) -> Tuple[str, ...]:
        commands = (f"python -m repro.gates check-docs {self.name}",)
        if self.conditions:
            commands = (f"python -m repro.gates run {self.name}",) + commands
        return commands


def batched(max_batch: int, pipeline_depth: int) -> ProtocolConfig:
    """The batched configs E18 and the ``batch`` row sweep."""
    return ProtocolConfig(
        batch=BatchConfig(
            enabled=True,
            max_batch=max_batch,
            flush_interval=0.5,
            pipeline_depth=pipeline_depth,
        )
    )


def _batch_conditions():
    for schedule, shape in (("clean", {}), ("lossy", {"link": LOSSY})):
        baseline = f"{schedule} unbatched"
        yield Condition(baseline, shape=shape)
        for max_batch, depth in ((8, 1), (64, 2), (256, 4)):
            yield Condition(
                f"{schedule} b={max_batch} d={depth}",
                batched(max_batch, depth),
                FEWER_MESSAGES,
                against=baseline,
                shape=shape,
            )


_READS = ProtocolConfig(reads=ReadConfig(enabled=True))


def _geo(placement: str, topology: Topology) -> ProtocolConfig:
    return ProtocolConfig(
        geo=GeoConfig(topology=topology, placement=placement),
        reads=ReadConfig(enabled=True),
    )


def _knobs(config_class) -> Tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(config_class))


def _trace_terms():
    from repro.trace.events import EVENT_KINDS
    from repro.trace.monitors import MONITORS

    return {"event kind": sorted(EVENT_KINDS), "monitor": sorted(MONITORS)}


def _live_terms():
    from repro.live.matrix import SCHEDULES
    from repro.live.report import StallReport
    from repro.live.specs import (
        EventuallyCommits,
        EventuallySinglePrimary,
        NoLivelock,
        ViewChangeConverges,
    )

    specs = (EventuallySinglePrimary, EventuallyCommits, ViewChangeConverges, NoLivelock)
    return {
        "spec": tuple(spec.name for spec in specs),
        "schedule": tuple(SCHEDULES),
        "StallReport field": _knobs(StallReport),
    }


def _reads_terms():
    return {
        "ReadConfig knob": _knobs(ReadConfig),
        "event kind": (
            "lease_grant", "lease_expire", "lease_read", "lease_wait", "stale_read",
        ),
        "reject reason": ("reads_disabled", "not_active", "no_lease", "too_stale"),
        "serving mode": ("lease", "backup", "cache", "txn", "none"),
        "monitor": ("stale_lease",),
    }


def _geo_terms():
    from repro.geo.placement import PLACEMENT_POLICIES

    return {
        "GeoConfig knob": _knobs(GeoConfig),
        "placement policy": PLACEMENT_POLICIES,
        "link preset": ("INTRA_ZONE", "INTRA_DC", "CROSS_DC"),
        "region fault": ("region_partition", "wan_degradation", "restore_wan"),
        "event kind": ("geo_route",),
        "read preference": ("nearest",),
    }


def _scale_terms():
    return {
        "ScaleConfig knob": _knobs(ScaleConfig),
        "event kind": ("gossip_relay", "ack_tree", "witness_vote"),
        "wire term": ("WitnessInstallMsg", "heard_relayed"),
    }


#: The 3-DC shape E20 places on, and a one-DC topology whose every tier
#: is the flat default (LAN), which must schedule exactly like ``geo=None``.
_E20_TOPOLOGY = symmetric_topology(n_dcs=3, zones_per_dc=2, slots_per_zone=2)
_LAN_TOPOLOGY = Topology(
    (Datacenter("dc", (Zone("z", slots=8),)),),
    intra_zone=LAN, intra_dc=LAN, cross_dc=LAN,
)
_ALL_ON = ScaleConfig(gossip=True, ack_tree=True, witnesses=2)

ROWS: Dict[str, Row] = {
    row.name: row
    for row in (
        Row(
            "batch", seed=18, txns=200,
            shape={"concurrency": 16, "deadline": 200_000.0},
            conditions=tuple(_batch_conditions()),
        ),
        Row(
            "reads", seed=19, txns=32,
            shape={"settle": 60.0, "reads": (0.4, 500.0, "e19-gate")},
            conditions=(
                Condition("baseline"),
                Condition("leases", _READS, STATE),
                Condition("backup", _READS, STATE, shape={"prefer": "backup"}),
                Condition(
                    "cache",
                    ProtocolConfig(reads=ReadConfig(enabled=True, client_cache=True)),
                    STATE,
                ),
            ),
            doc="docs/READS.md", vocabulary=_reads_terms,
            overhead=Overhead(
                "lease_overhead",
                (Condition("disabled"), Condition("armed_idle", _READS, SCHEDULE)),
            ),
        ),
        Row(
            "geo", seed=20, txns=24,
            shape={
                "cohorts": 5, "settle": 300.0, "quiesce": 100.0,
                "reads": (0.3, 300.0, "e20-gate"),
            },
            conditions=(Condition("flat", _READS),) + tuple(
                Condition(
                    placement, _geo(placement, _E20_TOPOLOGY), STATE,
                    shape={"prefer": "nearest", "site": "dc-b/z1"},
                )
                for placement in (
                    "spread", "single_dc", "primary_affinity:dc-a", "single_dc:dc-a",
                )
            ),
            doc="docs/GEO.md", vocabulary=_geo_terms,
            overhead=Overhead(
                "geo_overhead",
                (
                    Condition("flat"),
                    Condition(
                        "geo",
                        ProtocolConfig(
                            geo=GeoConfig(topology=_LAN_TOPOLOGY, placement="spread")
                        ),
                        SCHEDULE,
                    ),
                ),
                lambda runtimes: {
                    "structural_links": len(runtimes["geo"].network.structural_links())
                },
            ),
        ),
        Row(
            "scale", seed=21, txns=32,
            shape={"cohorts": 7, "kv_only": True, "settle": 200.0, "quiesce": 100.0},
            conditions=(
                Condition("baseline"),
                Condition("all-off", ProtocolConfig(scale=ScaleConfig()), SCHEDULE),
                Condition("gossip", ProtocolConfig(scale=ScaleConfig(gossip=True)), STATE),
                Condition("acktree", ProtocolConfig(scale=ScaleConfig(ack_tree=True)), STATE),
                Condition("witness", ProtocolConfig(scale=ScaleConfig(witnesses=2)), STATE),
                Condition("all-on", ProtocolConfig(scale=_ALL_ON), STATE),
            ),
            doc="docs/SCALE.md", vocabulary=_scale_terms,
            overhead=Overhead(
                "scale_overhead",
                (
                    Condition("disabled"),
                    Condition("all_off", ProtocolConfig(scale=ScaleConfig()), SCHEDULE),
                    Condition(
                        "armed_n7", ProtocolConfig(scale=_ALL_ON), STATE,
                        against="baseline_n7", shape={"cohorts": 7},
                    ),
                    Condition("baseline_n7", shape={"cohorts": 7}),
                ),
                lambda runtimes: {
                    "armed_messages_n7": runtimes["armed_n7"].network.messages_sent_total,
                    "baseline_messages_n7": runtimes["baseline_n7"].network.messages_sent_total,
                },
            ),
        ),
        Row(
            "shard", seed=7, txns=60, run=sharded_writes,
            shape={"shards": 4}, conditions=(Condition("sharded"),),
        ),
        Row(
            "trace", doc="docs/TRACING.md", vocabulary=_trace_terms,
            overhead=Overhead(
                "trace_overhead",
                (
                    Condition("disabled"),
                    Condition("ring", contract=SCHEDULE, shape={"trace": TraceConfig()}),
                    Condition(
                        "export", contract=SCHEDULE,
                        shape={"trace": TraceConfig(), "export": True},
                    ),
                ),
                lambda runtimes: {"trace_events": runtimes["ring"].tracer.events_emitted},
            ),
        ),
        Row(
            "live", doc="docs/LIVENESS.md", vocabulary=_live_terms,
            overhead=Overhead(
                "liveness_overhead",
                (
                    Condition("disabled"),
                    Condition("armed", contract=OUTCOME, shape={"liveness": True}),
                ),
                lambda runtimes: {"liveness_polls": runtimes["armed"].liveness.polls},
            ),
        ),
    )
}


# -- run --------------------------------------------------------------------


def run_row(row: Row, seed: Optional[int] = None, txns: Optional[int] = None) -> List[str]:
    """Run every condition of *row* twice, print its digests, and return
    the failures (empty when every contract holds)."""
    seed = row.seed if seed is None else seed
    txns = row.txns if txns is None else txns
    runs: Dict[str, Run] = {}
    failures = []
    for condition in row.conditions:
        shape = {**row.shape, **condition.shape}
        first, second = (row.run(seed, condition.config, txns, **shape) for _ in range(2))
        label = condition.label
        runs[label] = first
        print(
            f"{label:>21}: writes={first.writes}/{txns} msgs={first.messages} "
            f"ledger={first.ledger[:16]} state={first.state[:16]}"
        )
        for name, value in first.extra:
            print(f"{'':>23}{name}: {value}")
        if first != second:
            differ = [field for field in Run._fields if getattr(first, field) != getattr(second, field)]
            failures.append(f"{label}: same-seed runs diverged in {', '.join(differ)}")
        if first.writes != txns:
            failures.append(f"{label}: committed only {first.writes}/{txns} writes")
        if condition.contract is not None:
            against = condition.against or row.conditions[0].label
            parts = broken(condition.contract, runs[against], first)
            if parts:
                failures.append(
                    f"{label}: broke the {condition.contract} contract against "
                    f"{against} ({'; '.join(parts)})"
                )
    return failures


def run_overhead(row: Row, quick: bool):
    """One pass of *row*'s perf scenario: each overhead condition on the
    seeded KV batch, in order.  Raises AssertionError on a broken
    contract; returns the first condition's runtime (the gated pass) with
    per-condition events/s, overheads and the row's extras attached as
    ``perf_extra``."""
    overhead = row.overhead
    txns = 150 if quick else 450
    runtimes, rates = {}, {}
    for condition in overhead.conditions:
        rt, elapsed = kv_batch(OVERHEAD_SEED, condition.config, txns, **condition.shape)
        runtimes[condition.label] = rt
        rates[condition.label] = rt.sim.events_processed / max(elapsed, 1e-9)
    first = overhead.conditions[0].label
    extra = {f"events_per_sec_{first}": round(rates[first], 1)}
    for condition in overhead.conditions[1:]:
        if condition.contract is None:
            continue
        label = condition.label
        against = condition.against or first
        parts = broken(
            condition.contract, summarize(runtimes[against]), summarize(runtimes[label])
        )
        if parts:
            raise AssertionError(
                f"{overhead.scenario}: {label} broke the {condition.contract} "
                f"contract against {against} ({'; '.join(parts)})"
            )
        extra[f"events_per_sec_{label}"] = round(rates[label], 1)
        if condition.contract in (SCHEDULE, OUTCOME):
            extra[f"{label}_overhead_pct"] = round(
                100.0 * (1.0 - rates[label] / rates[first]), 2
            )
    extra.update(overhead.extra(runtimes))
    runtimes[first].perf_extra = extra
    return runtimes[first]


# -- check-docs -------------------------------------------------------------


def check_docs(row: Row) -> int:
    try:
        with open(row.doc, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        print(f"cannot read {row.doc}: {error}", file=sys.stderr)
        return 2
    terms = {**row.vocabulary(), "command": row.commands()}
    missing = [
        f"{category} {term!r}"
        for category, names in terms.items()
        for term in names
        if term not in text
    ]
    if missing:
        print(f"{row.doc} is missing documentation for: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    counts = ", ".join(f"{len(names)} {category}" for category, names in terms.items())
    print(f"{row.doc} documents all {row.name} terms ({counts})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gates", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a row's conditions and check its contracts")
    run.add_argument("name", choices=sorted(name for name, row in ROWS.items() if row.conditions))
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--txns", type=int, default=None)
    docs = sub.add_parser("check-docs", help="fail unless the row's doc names its vocabulary")
    docs.add_argument("name", choices=sorted(name for name, row in ROWS.items() if row.doc))
    args = parser.parse_args(argv)
    row = ROWS[args.name]
    if args.command == "check-docs":
        return check_docs(row)
    failures = run_row(row, seed=args.seed, txns=args.txns)
    for failure in failures:
        print(f"{row.name}: FAIL -- {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"{row.name}: OK ({len(row.conditions)} conditions x 2 same-seed runs, every contract held)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
