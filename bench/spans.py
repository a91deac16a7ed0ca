"""Outside-in spans around ranktwo's public functions.

The tracer wraps each target function and rebinds it under every name that
refers to it in the loaded `ranktwo` modules, so calls between modules
(`counting.divisors`, `oracle.count_by_type`, ...) pass through the wrapper.
Spans nest by call stack and carry the request id.  A generator function's
span is timed per `next()` call.

Spans of the current request stay in memory as flat lists; when the request
ends, self times are computed from that request's span tree and folded into
per-name totals.  The first SPAN_LOG_CAP spans of the run are kept whole and
written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute).  `arith.factorize` is the cached trial
# division kernel behind the public `factorize`, which euler_phi, tau and
# mobius call directly; the public wrapper is on no request path.
TARGETS = (
    ("arith.factorize", "ranktwo.arith", "_factorize"),
    ("arith.divisors", "ranktwo.arith", "divisors"),
    ("arith.euler_phi", "ranktwo.arith", "euler_phi"),
    ("arith.tau", "ranktwo.arith", "tau"),
    ("counting.build_table", "ranktwo.counting", "build_table"),
    ("counting.count_total", "ranktwo.counting", "count_total"),
    ("counting.count_by_order", "ranktwo.counting", "count_by_order"),
    ("counting.count_by_type", "ranktwo.counting", "count_by_type"),
    ("counting.count_cyclic", "ranktwo.counting", "count_cyclic"),
    ("goursat.enumerate_tuples", "ranktwo.goursat", "enumerate_tuples"),
    ("goursat.describe", "ranktwo.goursat", "describe"),
    ("goursat.materialize", "ranktwo.goursat", "materialize"),
    ("goursat.find_tuple", "ranktwo.goursat", "find_tuple"),
    ("oracle.brute_subgroups", "ranktwo.oracle", "brute_subgroups"),
    ("oracle.classify", "ranktwo.oracle", "classify"),
    ("oracle.cross_check", "ranktwo.oracle", "cross_check"),
    ("cli.main", "ranktwo.cli", "main"),
)
GENERATORS = {"goursat.enumerate_tuples"}
LAYERS = ("arith", "counting", "goursat", "oracle", "cli")
SPAN_LOG_CAP = 100_000


def self_times(parents: list[int], starts: list[int], ends: list[int]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans are listed in start order and nest by call stack, so children of
    one span never overlap and their durations simply add up.
    """
    own = [e - s for s, e in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own


class Tracer:
    def __init__(self) -> None:
        self.rid = 0
        self.stack = [-1]
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.divisor_args: set[int] = set()
        self.log: list[tuple] = []

    # --- spans --------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def begin_request(self) -> None:
        self.rid += 1

    def end_request(self) -> None:
        for name, own in zip(self.names, self_times(self.parents, self.starts, self.ends)):
            self.self_ns[name] += own
        if len(self.log) + len(self.names) <= SPAN_LOG_CAP:
            self.log.extend(
                (self.rid, i, *row)
                for i, row in enumerate(zip(self.parents, self.names, self.starts, self.ends))
            )
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.stack = [-1]

    # --- counters -----------------------------------------------------------

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "arith.divisors":
            self.divisor_args.add(args[0])
        elif name in ("counting.count_by_order", "counting.count_by_type"):
            self.counts[name + ".zero"] += result == 0
        elif name == "goursat.materialize":
            self.counts["goursat.materialize.elements"] += len(result)
        elif name == "oracle.brute_subgroups":
            self.counts["oracle.brute_subgroups.subgroups"] += len(result)

    # --- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            self._observe(name, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                self.counts[name + ".yielded"] += 1
                yield item

        return traced

    def install(self) -> None:
        """Rebind every target under each name that refers to it in ranktwo."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "ranktwo"]
        for name, module, attr in TARGETS:
            orig = getattr(sys.modules[module], attr)
            wrapper = (self.wrap_generator if name in GENERATORS else self.wrap)(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    # --- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name self seconds and counters, plus the distinct divisor arguments."""
        return {
            "self_s": {name: ns / 1e9 for name, ns in self.self_ns.items()},
            "counts": dict(self.counts),
            "divisors_distinct": len(self.divisor_args),
        }

    def write_log(self, path: str) -> None:
        with open(path, "w") as fh:
            for rid, idx, parent, name, start, end in self.log:
                fh.write(json.dumps({
                    "request": rid, "span": idx, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


def per_layer(summary: dict, requests: int, request_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per request of the traced run: {metric: (value, unit)}."""
    self_s = defaultdict(float, summary["self_s"])
    counts = defaultdict(int, summary["counts"])
    out: dict[str, tuple[float, str]] = {}
    for name, _, _ in TARGETS:
        out[f"{name}.calls"] = (counts[name + ".calls"] / requests, "calls/req")
        out[f"{name}.self_s"] = (self_s[name] / requests, "s/req")
    div_calls = counts["arith.divisors.calls"]
    out["arith.divisors.distinct_frac"] = (
        summary["divisors_distinct"] / div_calls if div_calls else 0.0, "frac")
    for name in ("counting.count_by_order", "counting.count_by_type"):
        calls = counts[name + ".calls"]
        out[f"{name}.zero_frac"] = (counts[name + ".zero"] / calls if calls else 0.0, "frac")
    for key in ("goursat.enumerate_tuples.yielded", "goursat.materialize.elements",
                "oracle.brute_subgroups.subgroups"):
        out[key] = (counts[key] / requests, "1/req")
    out["cli.stdout_bytes"] = (counts["cli.stdout_bytes"] / requests, "B/req")
    for layer in LAYERS:
        layer_s = sum(s for name, s in self_s.items() if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = (layer_s / requests, "s/req")
        out[f"{layer}.share"] = (layer_s / request_s if request_s else 0.0, "frac")
    return out
