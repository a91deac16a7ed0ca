"""Every documented bound as one table.

For each subcommand the table lists its worst legal inputs and one input just
past each cap: MAX_RECORDS, MAX_RANGE_PAIRS, MAX_RANGE_WORK, MAX_BOUND,
64 bits and FIGURE_MAX_*.  Each row runs the CLI as its own process, the way
the console script runs it, and asserts the exit code (0, 2 or 3), no
traceback on stderr, nothing on stdout for a refusal, where given the number
of lines on stdout, and a wall-time budget at least ten times what the row
takes on a 2-vCPU x86 host (Python 3.11).  Each child may map at most
CHILD_AS_BYTES, so a row whose memory runs away fails with a MemoryError
instead of swapping.  The rows run two at a time.
"""

import os
import resource
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from ranktwo import cli, oracle

SRC = Path(__file__).parent.parent / "src"

P64 = 18446744073709551557  # the largest 64-bit prime
SEMI60 = 1000000007 * 999999937  # a 60-bit semiprime
U64 = 2**64 - 1
# 2^7*3^4*5^2*7^2*11*13*...*41, with 184,320 divisors
SMOOTH64 = 18401055938125660800
CHILD_AS_BYTES = 2 << 30

# (argv, exit code, budget in seconds[, stdout line count]), slowest first,
# so that the two lanes finish together
ROWS = [
    # MAX_RANGE_PAIRS pairs, each skipped at --bound 1: about 2.3 s
    (["verify", "--range", "1000", "1000", "--bound", "1"], 0, 60),
    # the first 10^6 records of SMOOTH64 x SMOOTH64: about 2.1 s
    (["enumerate", str(SMOOTH64), str(SMOOTH64), "--limit", "1000000"], 0, 30, 1000000),
    # 529,920 records, each block one unit: about 1.6 s
    (["enumerate", str(SMOOTH64), "2", "--limit", "1000000"], 0, 30, 529920),
    # the largest square sweep within MAX_RANGE_WORK: about 1.5 s
    (["verify", "--range", "48", "48", "--bound", str(oracle.MAX_BOUND)], 0, 90),
    # tau(SMOOTH64) records, one per block: about 0.8 s
    (["enumerate", str(SMOOTH64), "1"], 0, 15, 184320),
    # the largest table in 64 bits: about 0.3-0.4 s in each format
    (["table", "3491888400", "3491888400"], 0, 10, 295251),
    (["table", "3491888400", "3491888400", "--format", "json"], 0, 10, 1),
    (["table", "3491888400", "3491888400", "--format", "csv"], 0, 10, 295249),
    # every pair of 1..24 x 1..24, all within MAX_BOUND: about 0.3 s
    (["verify", "--range", "24", "24", "--bound", str(oracle.MAX_BOUND)], 0, 20),
    (["verify", "60", "60", "--bound", str(oracle.MAX_BOUND)], 0, 10),
    (["count", str(P64), str(P64)], 0, 5),
    (["count", str(SEMI60), str(SEMI60)], 0, 5),
    (["count", str(U64), "1", "--format", "json"], 0, 5),
    (["table", str(P64), "1"], 0, 5),
    (["table", str(SEMI60), "1", "--format", "csv"], 0, 5),
    (["enumerate", str(P64), str(P64), "--limit", "2100"], 0, 5, 2100),
    (["enumerate", str(SEMI60), str(SEMI60), "--limit", "2100", "--format", "json"], 0, 5),
    (["figure", str(cli.FIGURE_MAX_M), str(cli.FIGURE_MAX_N), str(cli.FIGURE_MAX_M),
      str(cli.FIGURE_MAX_M), str(cli.FIGURE_MAX_N), str(cli.FIGURE_MAX_N), "1"], 0, 5),
    # one past each cap
    (["count", str(U64 + 1), "1"], 2, 5),
    (["count", str(U64), str(U64)], 2, 5),  # the count passes 64 bits
    (["table", str(P64), str(P64)], 2, 5),  # m*n passes 64 bits
    (["table", "1", str(U64 + 1), "--format", "json"], 2, 5),
    (["enumerate", str(P64), str(P64), "--limit", str(cli.MAX_RECORDS + 1)], 2, 5),
    (["enumerate", str(P64), str(P64), "--limit", str(2**63 - 1)], 2, 5),
    (["enumerate", str(P64), str(P64)], 2, 5),
    (["enumerate", "720720", "720720", "--format", "csv"], 2, 5),  # 34,209,280 subgroups
    (["figure", str(cli.FIGURE_MAX_M + 1), "1", "1", "1", "1", "1", "1"], 2, 5),
    (["figure", "1", str(cli.FIGURE_MAX_N + 1), "1", "1", "1", "1", "1"], 2, 5),
    (["verify", "60", "60", "--bound", str(oracle.MAX_BOUND + 1)], 2, 5),
    (["verify", "64", "65", "--bound", str(oracle.MAX_BOUND)], 2, 5),  # m*n past --bound
    (["verify", str(U64 + 1), "1"], 2, 5),
    (["verify", "--range", "49", "49", "--bound", str(oracle.MAX_BOUND)], 2, 5),
    (["verify", "--range", "1000", "1001", "--bound", "1", "--format", "json"], 2, 5),
    (["verify", "--range", str(U64), "1", "--bound", "1"], 2, 5),  # U64 pairs
    (["verify", "--range", str(U64 + 1), "1", "--bound", "1"], 2, 5),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


def _run(argv, budget):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "ranktwo.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=budget,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return None, "", "", time.perf_counter() - start
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


@pytest.fixture(scope="module")
def results():
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(_run, argv, budget) for argv, _, budget, *_ in ROWS]
        return [f.result() for f in futures]


def test_the_just_past_rows_are_one_past_the_caps():
    assert 1000 * 1000 == cli.MAX_RANGE_PAIRS
    bound = oracle.MAX_BOUND
    assert cli._range_work(48, 48, bound) <= cli.MAX_RANGE_WORK < cli._range_work(49, 49, bound)
    assert 3491888400**2 <= U64 < P64**2


@pytest.mark.parametrize("row", range(len(ROWS)), ids=[" ".join(r[0]) for r in ROWS])
def test_bound_row(results, row):
    argv, expected, budget, *lines = ROWS[row]
    code, out, err, seconds = results[row]
    assert code is not None, f"{argv} still ran after {budget} s"
    assert code == expected, (argv, err)
    assert "Traceback" not in err, argv
    assert seconds < budget, argv
    if code == 2:
        assert out == "", argv
        assert err.startswith("error: "), argv
    else:
        assert out, argv
    if lines:
        assert out.count("\n") == lines[0], argv
