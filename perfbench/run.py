"""boolsum benchmark: CLI request mixes run in-process through boolsum.cli.cli.

    python3 perfbench/run.py --workload sums --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One client, closed loop, one process, no threads: each request is a full CLI
invocation (argument parsing, computation, report serialization) with stdout
captured.  The loop runs whole rounds of the workload's request mix until the
time spent inside requests reaches --seconds; request times are scaled to a
reference host speed measured by a probe kernel around every round.  Every
output is checked against an independent route right after its request,
outside the timed region; for the default seed the output digest recorded at
the seed commit is compared too.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first
TRACE_ROUNDS rounds twice, untraced and then traced, and prints the per-layer
metrics, so per-layer counts repeat exactly for a seed.  The last stdout line
is the result JSON; the line before it holds run details.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import mpmath

from checks import check
from reference import exp_sum_walk, signs_pascal
from tracer import Tracer
from workloads import WORKLOADS, rounds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "boolsum")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 0
TRACE_ROUNDS = 2
SETUP_FIRST = 3
"""Set-up samples before the first round; one more follows every round."""
END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TAIL_PERCENTILE = 90
"""latency_tail_s percentile: the highest of p90/p95/p99 with at least 10 samples beyond it
on every workload in a 30 s run at the seed commit, and above the 5% share of
over-limit sums, so those failures never decide it."""
FAILED_LATENCY_S = 1e9
"""Latency recorded for a failed request: above any real one, so a fix never raises a percentile."""
PROBE_SIGNS = signs_pascal((3, 5, 12), 4)
PROBES_PER_ROUND = 3
PROBE_REFERENCE_S = 0.027
"""Fastest probe_host time seen on the reference host (2 vCPU x86-64, CPython 3.11)."""
WALL_CAP_S = 140.0
"""No new round starts after this much wall time, so a run ends within 180 s."""

SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); from boolsum.cli import cli; "
    "cli.main(['sum', '--degrees', '3', '--n', '4'], prog_name='boolsum')"
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        _fail(f"no boolsum sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    from boolsum.cli import cli

    return cli


def run_request(cli, req):
    """One CLI invocation: (seconds, exit code or exception text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(args=list(req.argv), prog_name="boolsum", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a crash is a failed request, not a harness error
        code = f"exception {exc!r}"
    return time.perf_counter() - start, code, out.getvalue()


def _digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:32]


class Loop:
    """Runs requests, checks them and keeps each one's time and outcome."""

    def __init__(self, cli, digests, tracer=None):
        self.cli = cli
        self.digests = digests
        self.tracer = tracer
        self.seconds = []
        self.ok = []
        self.failures = []
        self.wrong = 0
        self.output_bytes = 0

    @property
    def timed_s(self) -> float:
        return sum(self.seconds)

    def run(self, req):
        if self.tracer is None:
            seconds, code, stdout = run_request(self.cli, req)
        else:
            self.tracer.request_id = req.index
            (seconds, code, stdout), _ = self.tracer.span("request", run_request, (self.cli, req))
        self.output_bytes += len(stdout.encode())
        problem = check(req, code, stdout)
        if problem is None and req.index < len(self.digests):
            recorded = self.digests[req.index]
            if recorded is not None and recorded != _digest(code, stdout):
                problem = "differs from the output recorded at the seed commit"
        self.seconds.append(seconds)
        self.ok.append(problem is None)
        if problem is not None:
            self.failures.append((req.index, req.command, problem))
            self.wrong += code == 0


def percentile(values, q):
    """(nearest-rank q-th percentile, number of values beyond it)."""
    ordered = sorted(values)
    index = max(0, math.ceil(len(ordered) * q / 100) - 1)
    return ordered[index], len(ordered) - index - 1


def probe_host() -> float:
    """Seconds for a fixed kernel shaped like the workloads (big-int binomial walk,
    mpmath cosines, JSON of big integers); it involves no boolsum code."""
    start = time.perf_counter()
    exp_sum_walk(5000, PROBE_SIGNS)
    ctx = mpmath.mp.clone()
    ctx.prec = 2000
    for i in range(1, 41):
        ctx.cos(ctx.mpf(i) / 7)
    json.dumps([str(3**k) for k in range(0, 4000, 8)])
    return time.perf_counter() - start


def setup_run() -> float:
    """Wall seconds of a fresh interpreter importing boolsum.cli and running `sum`."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or json.loads(proc.stdout)["result"]["exponential_sum"] != 8:
        _fail(f"set-up command failed: {proc.stderr.strip()[-200:]}")
    return elapsed


def load_digests(workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return []
    with open(DIGESTS) as fh:
        return json.load(fh)["workloads"].get(workload, [])


def warm_up(cli, workload, seed):
    """One tiny round first, so lazy imports and caches do not land on the first request."""
    loop = Loop(cli, [])
    for req in next(rounds(workload, seed, smoke=True)):
        loop.run(req)


def end_to_end(workload, seed, seconds, cli):
    """Whole rounds until --seconds inside requests, each request scaled to the reference host speed.

    The host runs for stretches of a minute up to 1.8x slower.  A fixed probe
    kernel is timed PROBES_PER_ROUND times before the first round and after
    every round; each request's time is multiplied by PROBE_REFERENCE_S over the
    fastest probe next to its round.  A failed request counts at
    FAILED_LATENCY_S; goodput divides the correct requests by the sum of the
    scaled times, so a failure adds time but no count.
    """
    setup_run()  # may compile bytecode
    setup = [setup_run() for _ in range(SETUP_FIRST)]
    warm_up(cli, workload, seed)
    probes = [[probe_host() for _ in range(PROBES_PER_ROUND)]]
    loop = Loop(cli, load_digests(workload, seed))
    started = time.perf_counter()
    seen = set()
    repeats = 0
    scaled = []
    peak_rss_mb = None
    for batch in rounds(workload, seed):
        first = len(loop.seconds)
        for req in batch:
            repeats += req.degrees in seen
            seen.add(req.degrees)
            loop.run(req)
        if peak_rss_mb is None:  # fixed work, so it does not grow with the number of rounds
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup.append(setup_run())
        probes.append([probe_host() for _ in range(PROBES_PER_ROUND)])
        scale = PROBE_REFERENCE_S / min(probes[-2] + probes[-1])
        scaled.extend(t * scale for t in loop.seconds[first:])
        if loop.timed_s >= seconds or time.perf_counter() - started > WALL_CAP_S:
            break
    samples = [t if ok else FAILED_LATENCY_S for t, ok in zip(scaled, loop.ok)]
    attempted = len(samples)
    good = sum(loop.ok)
    tail, beyond = percentile(samples, TAIL_PERCENTILE)
    values = {
        "throughput_rps": good / sum(scaled),
        "latency_p50_s": statistics.median(samples),
        "latency_tail_s": tail,
        "success_rate": good / attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    raw = [t if ok else FAILED_LATENCY_S for t, ok in zip(loop.seconds, loop.ok)]
    details = {
        "rounds": len(probes) - 1, "fail_rate": (attempted - good) / attempted,
        "unscaled": {"throughput_rps": good / loop.timed_s, "latency_p50_s": statistics.median(raw),
                     "latency_tail_s": percentile(raw, TAIL_PERCENTILE)[0]},
        "tail_percentile": TAIL_PERCENTILE, "tail_samples_beyond": beyond,
        "repeat_set_share": repeats / attempted, "timed_s": loop.timed_s,
        "loop": "closed", "clients": 1,
        "probe_s": probes, "setup_samples_s": setup,
    }
    return metrics, details, loop


def traced(workload, seed, cli):
    """The first TRACE_ROUNDS rounds untraced, then traced: per-layer metrics and overhead."""
    batch = [req for r in itertools.islice(rounds(workload, seed), TRACE_ROUNDS) for req in r]
    warm_up(cli, workload, seed)
    digests = load_digests(workload, seed)
    plain = Loop(cli, digests)
    for req in batch:
        plain.run(req)
    tracer = Tracer()
    loop = Loop(cli, digests, tracer)
    tracer.install()
    try:
        for req in batch:
            loop.run(req)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
    metrics = tracer.metrics(batch, loop.output_bytes, loop.timed_s - plain.timed_s, PACKAGE)
    commands = {}
    for req in batch:
        commands[req.command] = commands.get(req.command, 0) + 1
    details = {
        "rounds": TRACE_ROUNDS, "untraced_s": plain.timed_s, "traced_s": loop.timed_s,
        "requests_by_command": commands,
    }
    return metrics, details, loop


def emit(workload, seed, metrics, details, loop):
    """Details line, then the result line (the last line of stdout)."""
    attempted, failed = len(loop.seconds), len(loop.failures)
    head = {"workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
            "wrong_outputs": loop.wrong}
    print(json.dumps({**head, **details, "failures": loop.failures[:20]}, default=str))
    print(json.dumps({
        "correct": loop.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload, the checks and the trace, in seconds")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")
    cli = _load_program()
    if args.smoke:
        from smoke import smoke

        return smoke(cli)
    if args.trace:
        metrics, details, loop = traced(args.workload, args.seed, cli)
    else:
        metrics, details, loop = end_to_end(args.workload, args.seed, args.seconds, cli)
    emit(args.workload, args.seed, metrics, details, loop)
    return 0


if __name__ == "__main__":
    sys.exit(main())
