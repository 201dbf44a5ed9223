"""The benchmark's workloads: what each one builds and the load it offers.

Every workload is an open loop in simulated time.  Arrivals are Poisson at
``rate`` operations per simulated millisecond, keys are zipfian over
``N_KEYS`` keys, and the whole schedule is drawn from the workload seed
before the runtime exists, so the program only ever sees the generated
operations.  One simulated time unit is read as one millisecond: the LAN
link's one-way delay is 1 unit.

A run issues ``ops_per_second * seconds`` operations.  ``ops_per_second``
is the untraced goodput the workload reached when it was sized (2 cores,
CPython 3.11), so a run measures for about ``--seconds`` wall seconds there,
while the work itself -- and every simulated-time metric -- depends only on
the seed and ``--seconds``.  See README.md for why each workload exists.
"""

from __future__ import annotations

import bisect
import dataclasses
import random
from typing import List, Optional, Tuple

from repro import (
    LAN,
    LOSSY,
    BatchConfig,
    EmptyModule,
    LinkModel,
    Nemesis,
    ProtocolConfig,
    ReadConfig,
    Runtime,
    ScaleConfig,
    TraceConfig,
)
from repro.workloads.kv import KVStoreSpec, read_program, write_program

#: Simulated time the runtime runs before the first arrival (views are
#: installed at creation; this lets heartbeats, leases and detectors warm).
SETTLE_MS = 100.0

#: Keys in the kv group, drawn zipfian by every workload.
N_KEYS = 256

READ, WRITE = "read", "write"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ops_per_second: float
    rate: float
    read_fraction: float
    theta: float
    link: LinkModel = dataclasses.field(default_factory=lambda: LAN)
    kv_cohorts: int = 3
    #: With a staleness bound, reads go through ``Driver.read`` (the reads
    #: plane); without one, through the full transactional call path.
    max_staleness: Optional[float] = None
    runtime_config: Optional[ProtocolConfig] = None
    kv_config: Optional[ProtocolConfig] = None
    monitors: bool = False
    #: Crash the kv primary every ``crash_every_ms`` and recover it
    #: ``recover_after_ms`` later (0 = no faults).
    crash_every_ms: float = 0.0
    recover_after_ms: float = 0.0

    def schedule(self, seed: int, seconds: float) -> List[Tuple[float, str, int]]:
        """The seeded open-loop schedule: ``(gap_ms, kind, key_index)``."""
        rng = random.Random(f"perfbench/{self.name}/{seed}")
        cdf = _zipf_cdf(N_KEYS, self.theta)
        ops = []
        for _ in range(max(1, int(self.ops_per_second * seconds))):
            gap = rng.expovariate(self.rate)
            kind = READ if rng.random() < self.read_fraction else WRITE
            ops.append((gap, kind, bisect.bisect_left(cdf, rng.random())))
        return ops

    def build(self, seed: int):
        """Construct the runtime, its groups and the driver."""
        kwargs = {}
        if self.runtime_config is not None:
            kwargs["config"] = self.runtime_config
        if self.monitors:
            kwargs["trace"] = TraceConfig(monitors="all")
        rt = Runtime(seed=seed, link=self.link, **kwargs)
        spec = KVStoreSpec(n_keys=N_KEYS)
        rt.create_group("kv", spec, n_cohorts=self.kv_cohorts, config=self.kv_config)
        clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
        clients.register_program("read", read_program)
        clients.register_program("write", write_program)
        driver = rt.create_driver("driver")
        return rt, spec, driver

    def arm_faults(self, rt, duration_ms: float) -> None:
        if self.crash_every_ms <= 0:
            return
        count = int(duration_ms // self.crash_every_ms)
        if count:
            rt.inject(
                Nemesis("perfbench").crash_primary(
                    "kv",
                    every=self.crash_every_ms,
                    count=count,
                    recover_after=self.recover_after_ms,
                )
            )


def _zipf_cdf(n: int, theta: float) -> List[float]:
    weights = [1.0 / rank**theta for rank in range(1, n + 1)]
    total = sum(weights)
    cdf, running = [], 0.0
    for weight in weights:
        running += weight
        cdf.append(running / total)
    cdf[-1] = 1.0
    return cdf


_READS = ProtocolConfig(reads=ReadConfig(enabled=True, client_cache=True))
_BATCHED = ProtocolConfig(batch=BatchConfig(enabled=True))
_WIDE = ProtocolConfig(
    batch=BatchConfig(enabled=True),
    scale=ScaleConfig(gossip=True, ack_tree=True, witnesses=2),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady_mix",
            ops_per_second=850.0,
            rate=1.0,
            read_fraction=0.5,
            theta=0.6,
        ),
        Workload(
            name="read_heavy",
            ops_per_second=5000.0,
            rate=2.0,
            read_fraction=0.9,
            theta=0.99,
            max_staleness=30.0,
            runtime_config=_READS,
        ),
        Workload(
            name="failover_traced",
            ops_per_second=400.0,
            rate=0.25,
            read_fraction=0.3,
            theta=0.6,
            link=LOSSY,
            monitors=True,
            crash_every_ms=600.0,
            recover_after_ms=300.0,
        ),
        Workload(
            name="wide_batched",
            ops_per_second=650.0,
            rate=1.0,
            read_fraction=0.2,
            theta=0.6,
            kv_cohorts=9,
            runtime_config=_BATCHED,
            kv_config=_WIDE,
        ),
    )
}
