"""Closed-loop client: one process, one request at a time, outputs checked.

    python3 bench/client.py --requests FILE --seconds S --limit L [--trace-out FILE]

Run from the root of a checkout.  It imports `ranktwo` from `src/` there,
reads requests (JSON lines, as `workloads.stream` writes them) one at a
time, and sends the next only after the previous one returns.  Between
requests it times a fixed probe (`speed.probe`), which gives each request's
time scaled to a reference host speed as well as its raw time.  It stops
when the requests and probes have taken S seconds or the file ends.  A
request still running after L seconds is stopped by a timer signal and
counted as failed.  Checking an output happens outside the timed interval.
With --trace-out, spans are recorded around ranktwo's public functions and
the span log is written to that file.

The last line of stdout is one JSON object with the latencies and counts.
It never imports sympy, so its peak memory is the program's plus the
client's own small state.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import speed
from check import check


class RequestTimeout(Exception):
    """Raised by the timer signal inside a request that passed the limit."""


def _on_alarm(signum, frame):
    raise RequestTimeout


def load_program(root: Path):
    """Import ranktwo from the checkout's src/ and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ranktwo.cli  # loads every ranktwo module

    if not Path(ranktwo.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ranktwo was imported from {ranktwo.cli.__file__}, not {src}")
    return sys.modules["ranktwo.cli"], sys.modules["ranktwo.goursat"]


def peak_rss_mb() -> float:
    """This process's peak resident memory, less the speed probe's buffer.

    VmHWM belongs to the running program image; ru_maxrss would also count
    the parent's memory inherited across fork and exec.  The probe's buffer
    stays resident all run, so it adds exactly its size to the peak.
    """
    kib = None
    try:
        with open("/proc/self/status") as fh:
            kib = next((int(line.split()[1]) for line in fh if line.startswith("VmHWM:")), None)
    except OSError:
        pass
    if kib is None:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (kib * 1024 - speed.BUFFER_BYTES) / 2**20


def _main_exit_code(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse refuses its input this way
        return exc.code


def run_one(req: dict, cli, goursat, limit: float) -> tuple[float, str, object, str | None]:
    """Run one request under the limit: (seconds, stdout or result, exit code, error)."""
    if req["kind"] == "cli":
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                return _main_exit_code(cli, req["argv"])
    else:
        m, n = req["m"], req["n"]
        t = goursat.GoursatTuple(*req["tuple"])

        def call():
            return goursat.find_tuple(m, n, goursat.materialize(m, n, t))

    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
    except RequestTimeout:
        return time.perf_counter() - t0, "", None, "timeout"
    except Exception as exc:
        return time.perf_counter() - t0, "", None, f"raised {exc!r}"
    if req["kind"] == "cli":
        return elapsed, buf.getvalue(), result, None
    return elapsed, str([result.a, result.b, result.c, result.d, result.ell]), 0, None


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (0, 0, 0)
    return q3 - q1


def run(requests_path: Path, seconds: float, limit: float, trace_out: Path | None) -> dict:
    cli, goursat = load_program(Path.cwd())
    tracer = None
    if trace_out is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    elapsed: list[float] = []  # every attempted request
    good: list[bool] = []  # completed correctly
    probes: list[float] = [speed.probe()]  # one before each request and one after the last
    timeouts = 0
    spent = 0.0  # request and probe time; the run ends when it reaches `seconds`
    wrong: list[str] = []
    with open(requests_path) as fh:
        for line in fh:
            req = json.loads(line)
            if tracer:
                tracer.begin_request()
            took, out, code, error = run_one(req, cli, goursat, limit)
            if tracer:
                tracer.end_request()
                tracer.counts["cli.stdout_bytes"] += len(out.encode()) if req["kind"] == "cli" else 0
            probes.append(speed.probe())
            elapsed.append(took)
            spent += took + probes[-1]
            if error is None:
                error = check(req, out, code)
            good.append(error is None)
            if error == "timeout":
                timeouts += 1
            elif error is not None:
                wrong.append(f"{req.get('argv') or req['tuple']}: {error}")
            if spent >= seconds:
                break

    scaled = speed.scale(elapsed, probes)
    result = {
        "attempted": len(elapsed),
        "failed": len(elapsed) - sum(good),
        "timeouts": timeouts,
        "wrong": wrong[:20],
        "wrong_count": len(wrong),
        "spent_s": spent,
        "busy_s": sum(elapsed),
        "scaled_busy_s": sum(scaled),
        "latencies_s": [t for t, ok in zip(elapsed, good) if ok],
        "scaled_latencies_s": [t for t, ok in zip(scaled, good) if ok],
        "probe_s": statistics.median(probes),
        "probe_iqr_s": _iqr(probes),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write_log(str(trace_out))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--limit", type=float, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()
    result = run(args.requests, args.seconds, args.limit, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
