"""Outside-in spans for the traced pass.

The program is not edited.  Before the traced runtime is built, ``install``
replaces the public entry points of each layer with wrappers that time the
call, and the kernel's ``schedule``/``Node.set_timer`` with wrappers that
put every callback the kernel later dispatches into a span of the layer
whose source file defined it.  A span's self time is its wall time minus
the time of the spans nested inside it, so the self times of all spans add
up to the wall time spent inside any span; the rest of the window is the
unwrapped remainder.

Spans are aggregated in memory per function (calls, self seconds) and
written out once, when the benchmark ends.  Simulated-time waits are taken
from done-callbacks on the futures that ``CommunicationBuffer.force_to``
and ``LockManager.acquire`` return; the callbacks only record, so the
traced pass follows the untraced schedule event for event.
"""

from __future__ import annotations

import importlib
import json
import inspect
import time
from typing import Callable, Dict, List, Tuple

from repro.sim.process import Process

#: Layer of a callback, from the file that defines it.  First match wins.
_LAYER_OF_PATH = (
    ("/repro/core/buffer.py", "buffer"),
    ("/repro/core/", "core"),
    ("/repro/app/", "core"),
    ("/repro/workloads/", "core"),
    ("/repro/sim/", "sim"),
    ("/repro/net/", "net"),
    ("/repro/txn/", "txn"),
    ("/repro/storage/", "storage"),
    ("/repro/detect/", "detect"),
    ("/repro/trace/", "trace"),
    ("/repro/reads/", "reads"),
    ("/repro/scale/", "scale"),
    ("/repro/driver.py", "driver"),
    ("/repro/faults/", "faults"),
    ("/perfbench/", "bench"),
)

#: (layer, module, class, methods).  ``None`` wraps every public plain
#: method the class itself defines.
_TARGETS = (
    ("sim", "repro.sim.kernel", "Simulator", ("step",)),
    ("net", "repro.net.network", "Network", ("send", "_deliver")),
    ("core", "repro.core.cohort", "Cohort", ("handle_message",)),
    ("reads", "repro.core.cohort", "Cohort", ("_handle_read",)),
    ("buffer", "repro.core.buffer", "CommunicationBuffer", None),
    ("txn", "repro.txn.locks", "LockManager", None),
    ("storage", "repro.storage.stable", "StableStore", None),
    ("detect", "repro.detect.suspicion", "FailureDetector", None),
    ("detect", "repro.detect.rtt", "RttEstimator", None),
    ("detect", "repro.detect.rtt", "AdaptiveTimeouts", None),
    ("detect", "repro.detect.backoff", "Backoff", None),
    (
        "trace",
        "repro.trace.tracer",
        "Tracer",
        ("emit", "on_send", "on_drop", "on_deliver", "on_sim_trace", "push", "pop"),
    ),
    ("reads", "repro.reads.lease", "ReadState", None),
    ("reads", "repro.reads.cache", "CommitSetCache", None),
    (
        "driver",
        "repro.driver",
        "Driver",
        (
            "call",
            "read",
            "note_write",
            "handle_message",
            "_call_group",
            "_send",
            "_send_read",
            "_on_timeout",
            "_on_read_timeout",
        ),
    ),
)

Key = Tuple[str, str]  # (layer, function)


class SpanRecorder:
    """Per-function span aggregates plus the simulated waits on futures."""

    def __init__(self) -> None:
        self.self_seconds: Dict[Key, float] = {}
        self.calls: Dict[Key, int] = {}
        self.force_waits: List[float] = []
        self.force_failed = 0
        self.lock_waits: List[float] = []
        self.lock_denied = 0
        #: Every CommunicationBuffer built while installed (for its
        #: msgs_sent/records_sent counters).
        self.buffers: List[object] = []
        self.now: Callable[[], float] = lambda: 0.0
        self._stack: List[float] = []
        self._code_keys: Dict[object, Key] = {}
        self._patched: List[Tuple[type, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def span(self, key: Key, fn: Callable) -> Callable:
        """Wrap *fn* so each call adds its self time to *key*."""
        self.self_seconds.setdefault(key, 0.0)
        self.calls.setdefault(key, 0)
        self_seconds, calls, stack = self.self_seconds, self.calls, self._stack
        perf = time.perf_counter

        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self_seconds[key] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed

        spanned.span_key = key
        return spanned

    def _dispatched(self, callback: Callable) -> Callable:
        """Span a kernel-dispatched callback under its defining layer."""
        if getattr(callback, "span_key", None) is not None:
            return callback
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process):
            code = owner._generator.gi_code
        else:
            code = getattr(callback, "__code__", None) or getattr(
                getattr(callback, "__func__", None), "__code__", None
            )
        key = self._code_keys.get(code)
        if key is None:
            path = code.co_filename.replace("\\", "/") if code else ""
            layer = next(
                (name for fragment, name in _LAYER_OF_PATH if fragment in path),
                "other",
            )
            key = (layer, getattr(code, "co_qualname", code.co_name) if code else "?")
            self._code_keys[code] = key
        return self.span(key, callback)

    def snapshot(self) -> dict:
        return {
            "self": dict(self.self_seconds),
            "calls": dict(self.calls),
            "force_waits": len(self.force_waits),
            "force_failed": self.force_failed,
            "lock_waits": len(self.lock_waits),
            "lock_denied": self.lock_denied,
        }

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        # The future hooks go in first, so the generic spans below cover them.
        self._patch_futures()
        for layer, module, cls_name, names in _TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            if names is None:
                names = [
                    name
                    for name, value in vars(cls).items()
                    if not name.startswith("_")
                    and inspect.isfunction(value)
                    and not inspect.isgeneratorfunction(value)
                ]
            for name in names:
                key = (layer, f"{cls_name}.{name}")
                self._patch(cls, name, self.span(key, vars(cls)[name]))
        self._patch_dispatch()

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._patched):
            setattr(cls, name, original)
        self._patched.clear()

    def _patch(self, cls: type, name: str, replacement: Callable) -> None:
        self._patched.append((cls, name, vars(cls)[name]))
        setattr(cls, name, replacement)

    def _patch_futures(self) -> None:
        from repro.core.buffer import CommunicationBuffer
        from repro.txn.locks import LockManager

        recorder = self
        force_to = CommunicationBuffer.force_to
        acquire = LockManager.acquire
        init = CommunicationBuffer.__init__

        def timed_force_to(buffer, viewstamp):
            future = force_to(buffer, viewstamp)
            if not future.done:  # a force that has to wait for backups
                future.add_done_callback(
                    recorder._wait_recorder("force", recorder.now())
                )
            return future

        def timed_acquire(lockmgr, *args, **kwargs):
            future = acquire(lockmgr, *args, **kwargs)
            future.add_done_callback(recorder._wait_recorder("lock", recorder.now()))
            return future

        def tracked_init(buffer, *args, **kwargs):
            init(buffer, *args, **kwargs)
            recorder.buffers.append(buffer)

        self._patch(CommunicationBuffer, "__init__", tracked_init)
        self._patch(CommunicationBuffer, "force_to", timed_force_to)
        self._patch(LockManager, "acquire", timed_acquire)

    def _wait_recorder(self, kind: str, started: float) -> Callable:
        def record(future) -> None:
            waited = self.now() - started
            if kind == "force":
                self.force_waits.append(waited)
                self.force_failed += future.failed
            else:
                self.lock_waits.append(waited)
                self.lock_denied += future.failed

        return record

    def _patch_dispatch(self) -> None:
        from repro.sim.kernel import Simulator
        from repro.sim.node import Node

        # Classifying a callback is instrumentation, so it is booked to the
        # benchmark's own layer rather than to the kernel.
        dispatched = self.span(("bench", "dispatch"), self._dispatched)
        schedule = self.span(("sim", "Simulator.schedule"), Simulator.schedule)
        set_timer = self.span(("sim", "Node.set_timer"), Node.set_timer)

        def dispatching_schedule(sim, delay, callback, *args):
            return schedule(sim, delay, dispatched(callback), *args)

        def dispatching_set_timer(node, delay, callback, *args):
            return set_timer(node, delay, dispatched(callback), *args)

        self._patch(Simulator, "schedule", dispatching_schedule)
        self._patch(Node, "set_timer", dispatching_set_timer)


def window(before: dict, after: dict) -> dict:
    """Aggregates accrued between two snapshots."""
    return {
        "self": {k: v - before["self"].get(k, 0.0) for k, v in after["self"].items()},
        "calls": {k: v - before["calls"].get(k, 0) for k, v in after["calls"].items()},
        "force_waits": (before["force_waits"], after["force_waits"]),
        "force_failed": after["force_failed"] - before["force_failed"],
        "lock_waits": (before["lock_waits"], after["lock_waits"]),
        "lock_denied": after["lock_denied"] - before["lock_denied"],
    }


def layer_self_seconds(spans: dict) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for (layer, _name), seconds in spans["self"].items():
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def layer_calls(spans: dict, layer: str) -> int:
    return sum(n for (name, _fn), n in spans["calls"].items() if name == layer)


def write_table(directory, workload: str, seed: int, spans: dict) -> None:
    """Write the per-function span table of one traced window as JSON."""
    directory.mkdir(exist_ok=True)
    rows = [
        {"layer": layer, "function": name, "calls": spans["calls"][(layer, name)], "self_s": s}
        for (layer, name), s in spans["self"].items()
        if spans["calls"][(layer, name)]
    ]
    rows.sort(key=lambda row: -row["self_s"])
    path = directory / f"spans-{workload}-{seed}.json"
    path.write_text(json.dumps(rows, indent=1) + "\n")
