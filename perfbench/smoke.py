"""Smoke mode: every workload on tiny inputs, with the output checks and the trace.

Also checks that the metric names and units the benchmark prints are the ones
BENCHMARK.json declares.  Finishes in seconds; exit code 0 when all is well.
"""

from __future__ import annotations

import json
import os

from run import END_TO_END, PACKAGE, ROOT, Loop
from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS, rounds

def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def smoke(cli) -> int:
    problems = []
    end_to_end, per_layer, workloads = _declared()
    if end_to_end != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if per_layer != {name: unit for name, unit, _ in PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if workloads != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {workloads}")
    for workload in WORKLOADS:
        batch = [req for r in (next(rounds(workload, 0, smoke=True)),) for req in r]
        plain = Loop(cli, [])
        for req in batch:
            plain.run(req)
        tracer = Tracer()
        loop = Loop(cli, [], tracer)
        tracer.install()
        try:
            for req in batch:
                loop.run(req)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(batch, loop.output_bytes, loop.timed_s - plain.timed_s, PACKAGE)
        called = sorted({span[0] for span in tracer.spans})
        for failure in plain.failures + loop.failures:
            problems.append(f"{workload}: request {failure}")
        if [name for name, _, _ in PER_LAYER] != list(metrics):
            problems.append(f"{workload}: per-layer metric names")
        print(f"smoke {workload}: {len(batch)} requests, "
              f"{len(plain.failures) + len(loop.failures)} failed, "
              f"{len(tracer.spans)} spans over {called}")
    for problem in problems:
        print(f"smoke problem: {problem}")
    print("smoke " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0
