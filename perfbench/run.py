"""Run one benchmark workload, check it, and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady_mix --seed 1 --seconds 10 --trace 0

Each run makes two passes over the same seeded open-loop schedule.

- ``--trace 0``: both passes run untraced.  The first gives the
  end-to-end metrics; goodput takes each simulated slice of the window
  from whichever pass ran it faster.  The two ledger digests must match.
- ``--trace 1``: the first pass runs untraced and gives the window time the
  traced pass is compared against; the second runs with the outside-in
  spans of ``spans.py`` installed and gives the per-layer metrics.  Its
  ledger digest must match the untraced pass.

The measured window runs from the first arrival until the last issued
operation resolves.  Building the runtime is timed separately as
``setup_s``; the quiesce and the correctness checks after the window are
timed by neither.  Every time is given at reference speed: a fixed
calibration loop is timed next to each slice of the window and each build,
and the time measured is scaled by ``CAL_REFERENCE_S`` over the loop's
time, so a machine that runs slower for a while (other work on a shared
host) slows the loop as much as the program and cancels out.  A report of
every metric with its unit and sample count goes to stdout first; the last
line is one JSON object.  A failed check prints ``"correct": false`` and
exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import pathlib
import random
import resource
import statistics
import sys
import time
from typing import NamedTuple, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.driver import ReadResult  # noqa: E402
from repro.perf.report import ledger_digest  # noqa: E402

from perfbench import spans  # noqa: E402
from perfbench.workloads import READ, SETTLE_MS, WORKLOADS, WRITE  # noqa: E402

#: Runtime builds timed per run (the two passes' own and the rest after
#: them); ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Simulated ms per kernel call in the window; the calibration loop runs
#: once before each such slice.
STEP_MS = 20.0
#: Give up if ops are still unresolved this long after the last arrival.
STALL_MS = 60_000.0
#: Seconds one ``calibration_seconds()`` call takes on an unloaded core of
#: the machine the workloads were sized on (2 cores, CPython 3.11).
CAL_REFERENCE_S = 0.001
#: Calibration loops on each side of a slice whose median scales it.
CAL_NEIGHBOURS = 4
#: Timed events pushed through the calibration heap per call.
CAL_EVENTS = 800
#: Nodes of the calibration ring (about 3 MB, more than a core's L2
#: cache), and the steps one call walks along it.
CAL_RING = 50_000
CAL_STEPS = 2000


class _CalNode:
    __slots__ = ("value", "fn", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.fn = _cal_visit
        self.next = None


def _cal_visit(node, key: int) -> int:
    return node.value + key


def _cal_ring() -> _CalNode:
    """The ring, linked in a fixed shuffled order so each step misses cache."""
    nodes = [_CalNode(i & 255) for i in range(CAL_RING)]
    order = list(range(CAL_RING))
    random.Random("perfbench/calibration").shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
    return nodes[0]


#: Everything the calibration loop touches is built here, once: the loop
#: itself allocates no object the garbage collector tracks, so it neither
#: triggers a collection of the program's heap nor moves when the
#: program's own collections fall.
_CAL_EVENTS = [((i * 7919) % 1009, i, _CalNode(i & 255)) for i in range(CAL_EVENTS)]
_CAL_HEAP: list = []
_CAL_TABLE: dict = {}
_CAL_CURSOR = [_cal_ring()]


def calibration_seconds() -> float:
    """Wall seconds of a fixed piece of work shaped like the simulator's:
    a heap of timed events, dict counters and calls through an attribute,
    then a walk through a ring of objects too big for the cache.

    It runs no program code, so its time moves only with the machine."""
    started = time.perf_counter()
    heap, table = _CAL_HEAP, _CAL_TABLE
    heap.clear()
    table.clear()
    for event in _CAL_EVENTS:
        heapq.heappush(heap, event)
        key = event[1] & 63
        table[key] = table.get(key, 0) + 1
        if len(heap) > 48:
            _at, seq, node = heapq.heappop(heap)
            node.fn(node, seq & 63)
    node, total = _CAL_CURSOR[0], 0
    for _ in range(CAL_STEPS):
        node = node.next
        total += node.value
    _CAL_CURSOR[0] = node
    return time.perf_counter() - started


class Outcome(NamedTuple):
    kind: str
    ok: bool
    due: float  # simulated ms the op fell due
    at: float  # simulated ms it resolved
    mode: Optional[str]  # how a read was served
    staleness: float


def build_timed(workload, seed: int):
    """Build and settle a runtime; returns ``(built, seconds at reference
    speed)``.

    Garbage left by earlier passes is collected first, so a cyclic
    collection of a discarded runtime does not land inside the timing.  The
    calibration loop runs just before and just after the build."""
    gc.collect()
    before = calibration_seconds()
    started = time.perf_counter()
    built = workload.build(seed)
    built[0].run_for(SETTLE_MS)
    elapsed = time.perf_counter() - started
    after = calibration_seconds()
    return built, elapsed * 2 * CAL_REFERENCE_S / (before + after)


class Pass:
    """One run of the schedule through a fresh runtime."""

    def __init__(self, workload, seed: int, ops, recorder=None):
        self.workload = workload
        self.ops = ops
        self.recorder = recorder
        if recorder is not None:
            recorder.install()
        (self.rt, self.spec, self.driver), self.setup_s = build_timed(workload, seed)
        if recorder is not None:
            recorder.now = lambda sim=self.rt.sim: sim.now
            self.rt.network.enable_address_counters()
        self.outcomes = [None] * len(ops)
        self.resolved = 0

    def run(self) -> None:
        rt, sim = self.rt, self.rt.sim
        self.workload.arm_faults(rt, sum(gap for gap, _kind, _key in self.ops))
        gc.collect()  # start both passes' windows with the same clean heap
        self.start = self._counters()
        sim.schedule(self.ops[0][0], self._arrive, 0)
        self.slices = []  # wall seconds of each STEP_MS slice of the window
        self.cals = []  # calibration loop seconds, one before each slice
        while self.resolved < len(self.ops):
            self.cals.append(calibration_seconds())
            started = time.perf_counter()
            rt.run_for(STEP_MS)
            ended = time.perf_counter() if self.resolved < len(self.ops) else self.wall_end
            self.slices.append(ended - started)
            if sim.now > self.last_due + STALL_MS:
                raise AssertionError(
                    f"{len(self.ops) - self.resolved} ops unresolved "
                    f"{STALL_MS:g} ms after the last arrival"
                )
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rt.quiesce()

    last_due = math.inf

    def _arrive(self, index: int) -> None:
        """Issue op *index*, which falls due now, and schedule the next."""
        sim, workload, driver = self.rt.sim, self.workload, self.driver
        _gap, kind, key = self.ops[index]
        uid = self.spec.key(key)
        due = sim.now
        if kind == WRITE:
            future = driver.call("clients", "write", "kv", uid, index)
        elif workload.max_staleness is not None:
            future = driver.read(
                "kv",
                uid,
                max_staleness=workload.max_staleness,
                fallback=("clients", "read", ("kv", uid)),
            )
        else:
            future = driver.call("clients", "read", "kv", uid)

        def done(future) -> None:
            result = future.result()
            ok = result.ok if isinstance(result, ReadResult) else result.committed
            if ok and kind == WRITE:
                driver.note_write(uid, index)
            mode = getattr(result, "mode", "txn") if kind == READ else None
            staleness = getattr(result, "staleness", 0.0)
            self._resolve(index, Outcome(kind, ok, due, sim.now, mode, staleness))

        future.add_done_callback(done)
        if index + 1 < len(self.ops):
            sim.schedule(self.ops[index + 1][0], self._arrive, index + 1)
        else:
            self.last_due = due

    def _resolve(self, index: int, outcome) -> None:
        self.outcomes[index] = outcome
        self.resolved += 1
        if self.resolved == len(self.ops):
            self.wall_end = time.perf_counter()
            self.end = self._counters()

    def _counters(self) -> dict:
        rt = self.rt
        counters = {
            "now": rt.sim.now,
            "events": rt.sim.events_processed,
            "timers_created": rt.sim.timers_created,
            "timers_cancelled": rt.sim.timers_cancelled,
            "sent": rt.network.messages_sent_total,
            "dropped": rt.network.messages_dropped_total,
            "bytes": rt.metrics.total_bytes(),
            "trace_events": rt.tracer.events_emitted if rt.tracer else 0,
        }
        if self.recorder is not None:
            counters["spans"] = self.recorder.snapshot()
            counters["buffer_msgs"] = sum(b.msgs_sent for b in self.recorder.buffers)
            counters["buffer_records"] = sum(b.records_sent for b in self.recorder.buffers)
            address = rt.network.address_counters()
            counters["address"] = {
                kind: dict(per_address) for kind, per_address in address.items()
            }
        return counters

    # -- derived ----------------------------------------------------------------

    @property
    def wall(self) -> float:
        """Wall seconds of the window as measured."""
        return sum(self.slices)

    @property
    def reference_slices(self) -> list:
        """Each slice's seconds at reference speed: scaled by the median
        calibration time of the slices around it, which follows the
        machine's slow and fast phases but not one interrupted loop."""
        cals, half = self.cals, CAL_NEIGHBOURS
        return [
            seconds * CAL_REFERENCE_S / statistics.median(cals[max(0, i - half) : i + half + 1])
            for i, seconds in enumerate(self.slices)
        ]

    @property
    def window_s(self) -> float:
        """Seconds of the window at reference speed."""
        return sum(self.reference_slices)

    @property
    def speed(self) -> float:
        """Reference seconds per measured second over the window."""
        return self.window_s / self.wall

    def delta(self, name: str) -> float:
        return self.end[name] - self.start[name]

    def ok_ops(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    def check(self) -> None:
        """Invariants, serializability and read staleness (after quiesce)."""
        self.rt.check_invariants()
        bound = self.workload.max_staleness
        for outcome in self.outcomes:
            if outcome.ok and bound is not None and outcome.staleness > bound:
                raise AssertionError(
                    f"read served {outcome.staleness} ms stale, bound {bound} ms"
                )


# -- metrics -------------------------------------------------------------------


def _metric(value, unit: str, samples: int | None = None) -> dict:
    metric = {"value": value, "unit": unit}
    if samples is not None:
        metric["samples"] = samples
    return metric


def _nearest_rank(ordered, fraction: float) -> float:
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(len(ordered) * fraction) - 1)]


def _tail(ordered) -> float:
    """p99, or the highest percentile with ten samples beyond it when there
    are fewer than 1000 samples."""
    return _nearest_rank(ordered, min(0.99, 1.0 - 10.0 / max(len(ordered), 20)))


def _latencies(p: Pass, kind: str):
    return sorted(o.at - o.due for o in p.outcomes if o.kind == kind and o.ok)


def _window_view_changes(p: Pass):
    ledger = p.rt.ledger
    t0, t1 = p.start["now"], p.end["now"]
    return [ev for ev in ledger.view_changes if t0 <= ev.completed_at <= t1]


def _needless(p: Pass, installs) -> int:
    """Installs with no crash, recovery or partition of the group since the
    group's previous install."""
    rt = p.rt
    members = {
        groupid: {cohort.node.node_id for cohort in group.cohorts.values()}
        for groupid, group in rt.groups.items()
    }
    previous = {groupid: 0.0 for groupid in rt.groups}
    count = 0
    for ev in sorted(rt.ledger.view_changes, key=lambda e: e.completed_at):
        since = previous[ev.groupid]
        caused = any(
            since <= fault.at <= ev.completed_at
            and (fault.target in members[ev.groupid] or fault.target not in rt.nodes)
            for fault in rt.ledger.faults
        )
        previous[ev.groupid] = ev.completed_at
        if ev in installs and not caused:
            count += 1
    return count


def _unavailability(p: Pass):
    """Per kv crash in the ledger's fault record during the arrivals: the
    simulated ms until the first commit of a write that fell due after it."""
    kv_nodes = {c.node.node_id for c in p.rt.groups["kv"].cohorts.values()}
    writes = sorted((o.due, o.at) for o in p.outcomes if o.kind == WRITE and o.ok)
    gaps = []
    for fault in p.rt.ledger.faults:
        if fault.kind != "crash" or fault.target not in kv_nodes:
            continue
        if not p.start["now"] <= fault.at <= p.last_due:
            continue
        served = [at for due, at in writes if due >= fault.at]
        if served:
            gaps.append(min(served) - fault.at)
    return sorted(gaps)


def best_window_s(p: Pass, replay: Pass) -> float:
    """Window seconds at reference speed, slice by slice the faster of two
    identical passes.

    Both passes run the same schedule, so each STEP_MS slice does the same
    work in each; taking the faster copy of every slice drops what the
    calibration does not cancel of other work on the machine."""
    a, b = p.reference_slices, replay.reference_slices
    if len(a) != len(b):
        raise AssertionError("same-seed passes took different numbers of steps")
    return sum(min(x, y) for x, y in zip(a, b))


def end_to_end(p: Pass) -> dict:
    """The end-to-end metrics read from the ledger and the op outcomes
    (everything but the two machine times, which need the replay)."""
    ok = p.ok_ops()
    issued = len(p.outcomes)
    writes, reads = _latencies(p, WRITE), _latencies(p, READ)
    installs = _window_view_changes(p)
    unavail = _unavailability(p)
    metrics = {
        "peak_rss_mb": _metric(p.peak_rss_mb, "MB"),
        "write_p50_ms": _metric(_nearest_rank(writes, 0.5), "ms", len(writes)),
        "write_p99_ms": _metric(_tail(writes), "ms", len(writes)),
        "read_p50_ms": _metric(_nearest_rank(reads, 0.5), "ms", len(reads)),
        "read_p99_ms": _metric(_tail(reads), "ms", len(reads)),
        "failed_frac": _metric((issued - ok) / issued, "frac", issued),
        "unavail_p50_ms": _metric(_nearest_rank(unavail, 0.5), "ms", len(unavail)),
        "unavail_max_ms": _metric(unavail[-1] if unavail else 0.0, "ms", len(unavail)),
        "msgs_per_op": _metric(p.delta("sent") / max(ok, 1), "msgs/op", ok),
        "view_changes": _metric(len(installs), "count"),
        "needless_view_changes": _metric(_needless(p, installs), "count"),
    }
    return metrics


def per_layer(untraced: Pass, traced: Pass) -> Tuple[dict, dict, dict]:
    """The per-layer metrics of the traced pass, its wall time by layer, and
    its span aggregates."""
    p = traced
    ok = max(p.ok_ops(), 1)
    window = spans.window(p.start["spans"], p.end["spans"])
    self_s = spans.layer_self_seconds(window)
    calls = window["calls"]

    def us_per_op(layer: str) -> float:
        return self_s.get(layer, 0.0) * p.speed * 1e6 / ok

    def frac(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def mean(values) -> float:
        return sum(values) / len(values) if values else 0.0

    rec = p.recorder
    lo, hi = window["force_waits"]
    force_waits = rec.force_waits[lo:hi]
    lo, hi = window["lock_waits"]
    lock_waits = rec.lock_waits[lo:hi]
    ledger = p.rt.ledger
    t0, t1 = p.start["now"], p.end["now"]
    commits = sum(1 for at in ledger.committed.values() if t0 <= at <= t1)
    started = sum(1 for _g, at in ledger.view_change_started if t0 <= at <= t1)
    durations = sorted(
        d for groupid in p.rt.groups for d in ledger.view_change_durations(groupid)
    )
    records = p.delta("buffer_records")
    messages = p.delta("buffer_msgs")

    path_reads = (
        sum(o.kind == READ for o in p.outcomes) if p.workload.max_staleness else 0
    )
    modes = {}
    for o in p.outcomes:
        if o.kind == READ and o.ok:
            modes[o.mode] = modes.get(o.mode, 0) + 1
    cache_hits = modes.get("cache", 0)

    def n(layer: str, name: str) -> int:
        return calls.get((layer, name), 0)

    retries = (n("driver", "Driver._send") - n("driver", "Driver._call_group")) + (
        n("driver", "Driver._send_read") - (n("driver", "Driver.read") - cache_hits)
    )
    kv_addresses = [c.address for c in p.rt.groups["kv"].cohorts.values()]
    primary_load = max(
        sum(
            p.end["address"][kind].get(address, 0) - p.start["address"][kind].get(address, 0)
            for kind in ("sent", "delivered")
        )
        for address in kv_addresses
    )
    wall = p.wall
    wrapped = sum(self_s.values())
    m = {
        "sim.events_per_op": _metric(p.delta("events") / ok, "events/op"),
        "sim.self_us_per_op": _metric(us_per_op("sim"), "us/op"),
        "sim.timer_cancel_frac": _metric(
            frac(p.delta("timers_cancelled"), p.delta("timers_created")), "frac"
        ),
        "net.self_us_per_op": _metric(us_per_op("net"), "us/op"),
        "net.bytes_per_op": _metric(p.delta("bytes") / ok, "B/op"),
        "net.drop_frac": _metric(frac(p.delta("dropped"), p.delta("sent")), "frac"),
        "core.handled_per_op": _metric(n("core", "Cohort.handle_message") / ok, "msgs/op"),
        "core.self_us_per_op": _metric(us_per_op("core"), "us/op"),
        "buffer.forces_per_commit": _metric(
            frac(len(force_waits), commits), "forces/commit", commits
        ),
        "buffer.self_us_per_op": _metric(us_per_op("buffer"), "us/op"),
        "buffer.force_wait_ms": _metric(mean(force_waits), "ms", len(force_waits)),
        "buffer.records_per_msg": _metric(frac(records, messages), "records/msg", messages),
        "buffer.force_failed": _metric(window["force_failed"], "count"),
        "vc.formed_frac": _metric(frac(len(_window_view_changes(p)), started), "frac", started),
        "vc.duration_p50_ms": _metric(
            _nearest_rank(durations, 0.5), "ms", len(durations)
        ),
        "txn.lock_wait_ms": _metric(mean(lock_waits), "ms", len(lock_waits)),
        "txn.lock_timeouts": _metric(window["lock_denied"], "count"),
        "txn.self_us_per_op": _metric(us_per_op("txn"), "us/op"),
        "storage.writes_per_op": _metric(n("storage", "StableStore.write") / ok, "writes/op"),
        "storage.self_us_per_op": _metric(us_per_op("storage"), "us/op"),
        "detect.calls_per_op": _metric(spans.layer_calls(window, "detect") / ok, "calls/op"),
        "detect.self_us_per_op": _metric(us_per_op("detect"), "us/op"),
        "trace.events_per_sim_event": _metric(
            frac(p.delta("trace_events"), p.delta("events")), "events/event"
        ),
        "trace.self_us_per_op": _metric(us_per_op("trace"), "us/op"),
        "reads.frac.lease": _metric(frac(modes.get("lease", 0), path_reads), "frac"),
        "reads.frac.backup": _metric(frac(modes.get("backup", 0), path_reads), "frac"),
        "reads.frac.cache": _metric(frac(cache_hits, path_reads), "frac"),
        "reads.fallback_frac": _metric(frac(modes.get("txn", 0), path_reads), "frac"),
        "reads.self_us_per_op": _metric(us_per_op("reads"), "us/op"),
        "scale.primary_msgs_per_op": _metric(primary_load / ok, "msgs/op"),
        "driver.retries_per_op": _metric(retries / ok, "retries/op"),
        "driver.self_us_per_op": _metric(us_per_op("driver"), "us/op"),
        "bench.span_overhead": _metric(p.window_s / untraced.window_s, "x"),
        "bench.unwrapped_frac": _metric((wall - wrapped) / wall, "frac"),
    }
    breakdown = {layer: seconds for layer, seconds in sorted(self_s.items())}
    breakdown["(unwrapped)"] = wall - wrapped
    return m, breakdown, window


# -- entry point ----------------------------------------------------------------


def _report(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        samples = metric.get("samples")
        note = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:28s} {float(metric['value'])!r:>22} {metric['unit']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ops = workload.schedule(args.seed, args.seconds)
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {len(ops)} ops"
    )
    try:
        first = Pass(workload, args.seed, ops)
        first.run()
        first.check()
        if not args.trace:
            measured = end_to_end(first)
        digest = ledger_digest(first.rt)
        first.rt = None  # release the runtime before the second pass
        recorder = spans.SpanRecorder() if args.trace else None
        try:
            second = Pass(workload, args.seed, ops, recorder)
            second.run()
        finally:
            if recorder is not None:
                recorder.uninstall()
        if ledger_digest(second.rt) != digest:
            raise AssertionError("same-seed passes produced different ledger digests")
        if not args.trace:
            second.rt = None
            setup = [first.setup_s, second.setup_s]
            setup += [
                build_timed(workload, args.seed)[1] for _ in range(SETUP_REPEATS - 2)
            ]
            ok = first.ok_ops()
            metrics = {
                "goodput_ops_per_s": _metric(
                    ok / best_window_s(first, second), "1/s", ok
                ),
                "setup_s": _metric(statistics.median(setup), "s", len(setup)),
                **measured,
                "wall_goodput_ops_per_s": _metric(
                    ok / min(first.wall, second.wall), "1/s", ok
                ),
                "machine_speed": _metric(first.speed, "x"),
            }
    except AssertionError as failure:
        print(f"check failed: {failure}")
        issued = len(ops)
        print(json.dumps({"correct": False, "attempted": issued, "failed": issued, "metrics": {}}))
        return 1

    if args.trace:
        metrics, breakdown, window = per_layer(first, second)
        _report("per-layer metrics (traced pass)", metrics)
        print(f"traced window {second.wall:.4f} s, by layer self time:")
        for layer, seconds in breakdown.items():
            print(f"  {layer:28s} {seconds:>10.4f} s  {seconds / second.wall:6.1%}")
        spans.write_table(ROOT / ".perfbench", workload.name, args.seed, window)
        result = second
    else:
        _report("end-to-end metrics", metrics)
        result = first
    print(
        "checks passed: invariants, serializability, staleness bounds, "
        "monitors, same-seed ledger digest"
    )
    # The result line carries the metrics BENCHMARK.json declares for this
    # mode; the report above also shows the ungated ones.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    line = {
        "correct": True,
        "attempted": len(ops),
        "failed": len(ops) - result.ok_ops(),
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in names
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
