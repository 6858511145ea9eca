"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced public function by a wrapper at every
module attribute of the boolsum package that binds it (`from .x import f`
copies the binding, so patching the defining module alone would miss calls),
plus `CyclotomicInt.evaluate` on its class and the click command callbacks.
Each wrapper records a span (name, start, end, parent, request id) in memory;
self time is a span's duration minus the durations of its direct children.
`uninstall` restores every binding.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

FUNCTIONS = (
    ("bitcombinatorics", "sign_exponents"),
    ("cyclotomic", "orbit_sums"),
    ("cyclotomic", "alternating_orbit_sum"),
    ("cyclotomic", "closed_form_coefficient"),
    ("recurrence", "expand"),
    ("recurrence", "minimal_charpoly"),
    ("recurrence", "minimal_recurrence"),
    ("recurrence", "full_charpoly"),
    ("recurrence", "verify"),
    ("expsum", "exp_sum"),
    ("expsum", "sequence"),
    ("expsum", "find_balanced"),
    ("asymptotics", "limit_correlation"),
    ("asymptotics", "main_term"),
    ("asymptotics", "asymptotic_value"),
    ("asymptotics", "error_term"),
    ("asymptotics", "error_table"),
    ("cli", "parse_degrees"),
)
EVALUATE = "cyclotomic.evaluate"
COMMAND = "cli.command"
REQUEST = "request"

MODULES = ("asymptotics", "bitcombinatorics", "cli", "cyclotomic", "errors", "expsum", "recurrence")

_CALLS = "count"
_TIME = "s"

# (metric name, unit, better): the per-layer metrics a traced run reports.
PER_LAYER = (
    [
        ("bitcombinatorics.sign_exponents.calls", _CALLS, "lower"),
        ("bitcombinatorics.sign_exponents.self_s", _TIME, "lower"),
        ("bitcombinatorics.sign_exponents.entries", "count", "lower"),
        ("bitcombinatorics.sign_exponents.distinct_ratio", "ratio", "higher"),
    ]
    + [
        (f"cyclotomic.{f}.{stat}", unit, "lower")
        for f in ("orbit_sums", "alternating_orbit_sum", "closed_form_coefficient")
        for stat, unit in (("calls", _CALLS), ("self_s", _TIME))
    ]
    + [
        ("cyclotomic.closed_form_coefficient.distinct_ratio", "ratio", "higher"),
        ("cyclotomic.evaluate.calls", _CALLS, "lower"),
        ("cyclotomic.evaluate.self_s", _TIME, "lower"),
    ]
    + [
        (f"recurrence.{f}.{stat}", unit, "lower")
        for f in ("expand", "minimal_charpoly", "minimal_recurrence", "full_charpoly", "verify")
        for stat, unit in (("calls", _CALLS), ("self_s", _TIME))
    ]
    + [("recurrence.expand.out_coeff_bits", "bits", "lower")]
    + [
        (f"expsum.{f}.{stat}", unit, "lower")
        for f in ("exp_sum", "sequence", "find_balanced")
        for stat, unit in (("calls", _CALLS), ("self_s", _TIME))
    ]
    + [
        ("expsum.sequence.values", "count", "lower"),
        ("expsum.sequence.useful_ratio", "ratio", "higher"),
    ]
    + [
        (f"asymptotics.{f}.{stat}", unit, "lower")
        for f in ("limit_correlation", "main_term", "asymptotic_value", "error_term", "error_table")
        for stat, unit in (("calls", _CALLS), ("self_s", _TIME))
    ]
    + [
        ("asymptotics.limit_correlation.subsets", "count", "lower"),
        ("cli.parse_degrees.self_s", _TIME, "lower"),
        ("cli.command.self_s", _TIME, "lower"),
        ("cli.output_bytes", "bytes", "lower"),
    ]
    + [(f"{m}.src_lines", "lines", "lower") for m in MODULES]
    + [
        ("trace.requests", "count", "higher"),
        ("trace.overhead_s", _TIME, "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self._stack = []
        self.request_id = None
        self._restore = []
        self.entries = 0
        self.out_coeff_bits = 0
        self.subsets = 0
        self.distinct = {"bitcombinatorics.sign_exponents": set(),
                         "cyclotomic.closed_form_coefficient": set()}
        self.sequence_spans = []  # (span index, n1, values returned)

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span; returns (result, span index)."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {})), index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, original):
        signature = inspect.signature(original)
        hook = getattr(self, "_on_" + name.rsplit(".", 1)[1], None)

        def traced(*args, **kwargs):
            result, index = self.span(name, original, args, kwargs)
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result, index)
            return result

        traced.__wrapped__ = original
        return traced

    # -- counters at the same boundaries -------------------------------------

    def _on_sign_exponents(self, args, result, index):
        self.entries += args["limit"]
        self.distinct["bitcombinatorics.sign_exponents"].add((args["K"], args["limit"]))

    def _on_closed_form_coefficient(self, args, result, index):
        self.distinct["cyclotomic.closed_form_coefficient"].add((args["K"], args["j"]))

    def _on_expand(self, args, result, index):
        self.out_coeff_bits += sum(c.bit_length() for c in result.coeffs)

    def _on_limit_correlation(self, args, result, index):
        self.subsets += (1 << len(args["K"])) - 1

    def _on_sequence(self, args, result, index):
        self.sequence_spans.append((index, args["n1"], len(result.values)))

    # -- installation --------------------------------------------------------

    def install(self):
        import boolsum.cli
        import boolsum.cyclotomic

        modules = [m for name, m in list(sys.modules.items())
                   if name == "boolsum" or name.startswith("boolsum.")]
        for module_name, func_name in FUNCTIONS:
            home = sys.modules.get(f"boolsum.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        cls = getattr(boolsum.cyclotomic, "CyclotomicInt", None)
        if cls is not None and "evaluate" in vars(cls):
            original = vars(cls)["evaluate"]
            self._restore.append((cls, "evaluate", original))
            cls.evaluate = self._wrap(EVALUATE, original)
        for command in boolsum.cli.cli.commands.values():
            original = command.callback
            self._restore.append((command, "callback", original))
            command.callback = self._wrap(COMMAND, original)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self):
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = defaultdict(float)
        calls = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - children[index]
            calls[name] += 1
        return totals, calls

    def sequence_values(self, reported_by_request):
        """(values computed, useful share): stepping from n = 0 computes S(0..n1)."""
        kids = defaultdict(list)
        for name, _, _, parent, _ in self.spans:
            if parent >= 0:
                kids[parent].append(name)
        computed = 0
        requests = set()
        for index, n1, returned in self.sequence_spans:
            names = kids[index]
            if "recurrence.minimal_recurrence" in names:
                computed += n1 + 1
            else:
                computed += max(returned, names.count("expsum.exp_sum"))
            requests.add(self.spans[index][4])
        useful = sum(reported_by_request[r] for r in requests)
        return computed, (useful / computed if computed else 0.0)

    def metrics(self, requests, output_bytes, overhead_s, src_dir):
        """{name: (value, unit)} for every PER_LAYER metric, zero where nothing ran."""
        totals, calls = self.self_times()
        computed, useful_ratio = self.sequence_values({r.index: r.reported_values for r in requests})
        values = {"trace.requests": len(requests), "trace.overhead_s": overhead_s,
                  "cli.output_bytes": output_bytes,
                  "bitcombinatorics.sign_exponents.entries": self.entries,
                  "recurrence.expand.out_coeff_bits": self.out_coeff_bits,
                  "asymptotics.limit_correlation.subsets": self.subsets,
                  "expsum.sequence.values": computed,
                  "expsum.sequence.useful_ratio": useful_ratio}
        for span_name, keys in self.distinct.items():
            n = calls.get(span_name, 0)
            values[f"{span_name}.distinct_ratio"] = len(keys) / n if n else 0.0
        for module in MODULES:
            values[f"{module}.src_lines"] = src_lines(os.path.join(src_dir, f"{module}.py"))
        out = {}
        for name, unit, _ in PER_LAYER:
            if name not in values:
                span_name, stat = name.rsplit(".", 1)
                values[name] = totals.get(span_name, 0.0) if stat == "self_s" else calls.get(span_name, 0)
            out[name] = (values[name], unit)
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def src_lines(path: str) -> int:
    """Non-blank lines of a source file (0 if the module is gone)."""
    try:
        with open(path) as fh:
            return sum(1 for line in fh if line.strip())
    except FileNotFoundError:
        return 0
