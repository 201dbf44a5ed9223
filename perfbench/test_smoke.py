"""Smoke self-test of the benchmark: every workload, briefly, in both modes.

Run from the repository root::

    python3 -m pytest perfbench -q

It checks that each run passes its correctness checks, prints every named
metric with a unit, and that the simulated-time metrics repeat exactly
across two runs with the same seed.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    "goodput_ops_per_s",
    "setup_s",
    "peak_rss_mb",
    "write_p50_ms",
    "write_p99_ms",
    "read_p50_ms",
    "read_p99_ms",
    "failed_frac",
    "unavail_p50_ms",
    "unavail_max_ms",
    "msgs_per_op",
    "view_changes",
    "needless_view_changes",
)
#: Metrics measured on the machine (wall time, memory); every other metric
#: is a pure function of the simulated schedule.
WALL_CLOCK = re.compile(r"goodput|setup_s|peak_rss|self_us|^bench\.")
REPORT_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)(  \(n=\d+\))?$")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.05"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = {}
    for line in lines[:-1]:
        match = REPORT_LINE.match(line)
        if match:
            report[match.group(1)] = (float(match.group(2)), match.group(3))
    return report, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_metrics_printed_and_repeatable(capsys, workload, trace):
    first, line = _run(capsys, workload, trace)
    second, _ = _run(capsys, workload, trace)
    named = (
        [m["name"] for m in DECLARED["per_layer"]] if trace else list(END_TO_END)
    )
    for name in named:
        assert first.get(name, (0.0, ""))[1], f"{name} not printed with a unit"
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert line["correct"] is True
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in line["metrics"].items()
    }
    simulated = {name: first[name] for name in named if not WALL_CLOCK.search(name)}
    assert simulated == {name: second[name] for name in simulated}
