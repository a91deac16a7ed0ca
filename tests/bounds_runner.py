"""The runner behind the two bounds tables, `tests/test_bounds.py` (the CLI)
and `tests/test_library_bounds.py` (the library).

Each row is one child process, `sys.executable` with the table's argv prefix
and the row's own arguments, importing ranktwo from src/.  A child may map
at most the table's address-space cap (RLIMIT_AS), so a row whose memory
runs away fails with a MemoryError instead of swapping, and it is stopped
past its wall-time budget.  The rows run two at a time.
"""

import os
import resource
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"


def _run(argv, budget, cap):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=budget, preexec_fn=partial(
                                  resource.setrlimit, resource.RLIMIT_AS, (cap, cap)))
    except subprocess.TimeoutExpired:
        return None, "", "", time.perf_counter() - start
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


def run_rows(prefix, rows, cap):
    """(exit code, stdout, stderr, seconds) for each (args, budget) of rows,
    run as `sys.executable *prefix *args`; the exit code is None for a row
    stopped at its budget."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(_run, [sys.executable, *prefix, *args], budget, cap)
                   for args, budget in rows]
        return [f.result() for f in futures]
