"""Run benchmark workloads against the checkout in the current directory.

    python3 bench/run.py --workload table_smooth|count_rough|enumerate_verify|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; `ranktwo` is imported from `src/` there.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (see BENCHMARK.json); with --trace 1 they are the per-layer
ones, taken from a traced run of half the time, plus the tracing overhead
against an untraced run of the same requests for the other half.  Times
are scaled to a fixed reference host speed, probed between requests (see
speed.py).  The lines before the result record the environment and the
details behind each number, raw times too; the same record is written to
.bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

LIMIT_S = 1.0  # per-request latency limit; a request past it is stopped and failed
SETUP_RUNS = 21
REQUESTS_PER_S = 120  # requests generated per measured second, about 4x today's rate
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
BENCH = Path(__file__).resolve().parent


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def measure_setup(root: Path) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh `python -m ranktwo.cli count 1 1` processes: raw, and scaled.

    The host speed is probed before and after each launch, as the client does
    around each request.
    """
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    cmd = [sys.executable, "-m", "ranktwo.cli", "count", "1", "1"]
    times, probes = [], []
    # the first launch also writes the bytecode caches, so it is not counted
    for i in range(SETUP_RUNS + 1):
        if i:
            probes.append(speed.probe())
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout != "1\n":
            raise BenchError(f"`ranktwo count 1 1` gave exit {proc.returncode}: {proc.stderr.strip()}")
        if i:
            times.append(elapsed)
    probes.append(speed.probe())
    return times, speed.scale(times, probes)


def run_client(root: Path, requests: Path, seconds: float, trace_out: Path | None = None) -> dict:
    """One fresh client process over a request file; its result object."""
    cmd = [sys.executable, str(BENCH / "client.py"), "--requests", str(requests),
           "--seconds", str(seconds), "--limit", str(LIMIT_S)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=3 * seconds + 60)
    if proc.returncode != 0:
        raise BenchError(f"client failed with exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def write_requests(path: Path, reqs: list[dict]) -> None:
    with open(path, "w") as fh:
        for req in reqs:
            fh.write(json.dumps(req) + "\n")


def latency_summary(latencies: list[float]) -> dict:
    """Median and tail in ms; the tail is the highest percentile with TAIL_BEYOND samples above it."""
    lat = sorted(latencies)
    n = len(lat)
    k = max(n - TAIL_BEYOND - 1, 0)
    return {
        "samples": n,
        "p50_ms": statistics.median(lat) * 1e3,
        "tail_ms": lat[k] * 1e3,
        "tail_percentile": 100 * (k + 1) / n,
    }


def environment(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "ranktwo").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "latency_limit_s": LIMIT_S,
        "over_limit_share": 0.0,
        "beyond_reach_probe": [r.get("argv") or ["roundtrip", r["m"], r["n"], r["tuple"]]
                               for r in workloads.beyond_reach(workload)],
    }


def throughput(res: dict, scaled: bool) -> float:
    """Requests completed correctly per second of request time."""
    return len(res["latencies_s"]) / res["scaled_busy_s" if scaled else "busy_s"]


def end_to_end(root: Path, requests: Path, seconds: float) -> tuple[dict, dict, dict]:
    setup_raw, setup = measure_setup(root)
    res = run_client(root, requests, seconds)
    lat = latency_summary(res["scaled_latencies_s"])
    raw = latency_summary(res["latencies_s"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
        "throughput_rps": (throughput(res, scaled=True), "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    details = {
        "latency": lat,
        "raw": {"setup_s": statistics.median(setup_raw), "p50_ms": raw["p50_ms"],
                "tail_ms": raw["tail_ms"], "throughput_rps": throughput(res, scaled=False)},
        "probe_median_s": res["probe_s"], "probe_iqr_s": res["probe_iqr_s"],
        "reference_probe_s": speed.REF_S,
        "setup_runs_s": setup_raw, "busy_s": res["busy_s"], "timeouts": res["timeouts"],
        "stream_exhausted": res["spent_s"] < seconds,
    }
    return metrics, details, res


def per_layer(root: Path, requests: Path, seconds: float, out_dir: Path, tag: str, workload: str):
    # half the time untraced, half traced, so a traced run takes as long as an untraced one
    plain = run_client(root, requests, seconds / 2)
    traced = run_client(root, requests, seconds / 2, trace_out=out_dir / f"spans-{tag}.jsonl")
    probe_file = out_dir / f"probe-{tag}.jsonl"
    probe_reqs = workloads.beyond_reach(workload)
    write_requests(probe_file, probe_reqs)
    probe = run_client(root, probe_file, LIMIT_S * len(probe_reqs) + 1)
    plain_rps = throughput(plain, scaled=True)
    traced_rps = throughput(traced, scaled=True)
    metrics = spans.per_layer(traced["trace"], traced["attempted"], traced["busy_s"])
    metrics["trace.throughput_rps"] = (traced_rps, "1/s")
    metrics["trace.overhead_frac"] = (1 - traced_rps / plain_rps, "frac")
    metrics["reach.stopped_frac"] = (probe["timeouts"] / probe["attempted"], "frac")
    metrics["reach.latency_ms"] = (probe["busy_s"] / probe["attempted"] * 1e3, "ms")
    details = {
        "untraced": {"attempted": plain["attempted"], "throughput_rps": plain_rps},
        "traced": {"attempted": traced["attempted"], "latency": latency_summary(traced["latencies_s"])},
        "probe": {"attempted": probe["attempted"], "timeouts": probe["timeouts"]},
    }
    return metrics, details, traced, [plain, probe]


def run_workload(root: Path, out_dir: Path, workload: str, seed: int, seconds: int,
                 trace: int) -> dict | None:
    """Measure one workload, print its lines, and return its result object."""
    tag = f"{workload}-{seed}-trace{trace}"
    env = environment(root, workload, seed, seconds, trace)
    requests = out_dir / f"requests-{tag}.jsonl"
    write_requests(requests, workloads.stream(workload, seed, REQUESTS_PER_S * seconds))
    try:
        if trace:
            metrics, details, measured, others = per_layer(
                root, requests, seconds, out_dir, tag, workload)
        else:
            metrics, details, measured = end_to_end(root, requests, seconds)
            others = []
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return None

    problems = [w for r in (measured, *others) for w in r["wrong"]]
    record = {"environment": env, "details": details, "problems": problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print("environment: " + json.dumps(env))
    print("details: " + json.dumps(details))
    for problem in problems:
        print(f"wrong output: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:16s} {name:40s} {value:14.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run ranktwo benchmark workloads.")
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ranktwo" / "cli.py").is_file():
        print(f"bench: no ranktwo sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(root, out_dir, name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
