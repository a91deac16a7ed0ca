"""Every public library name at its worst 64-bit input, as one table.

The library's counterpart of `tests/test_bounds.py`.  Each row calls one
name, in a child process that may map at most CHILD_AS_BYTES, and asserts
that the call either finishes or is refused up front with the named
exception, within a wall-time budget at least ten times what the row takes
on a 2-vCPU x86 host (Python 3.11).  Rows sit at each library cap and one
past it: MAX_POINTS for `materialize` and `find_tuple`, MAX_BOUND for the
oracle, and 64 bits for everything else.  The rows run two at a time.

`counting.count_by_type` has no row: its walk is tau(m)*tau(n)*tau(gcd)
steps with no cap, so it is still unbounded (ROADMAP item 2).
"""

import os
import resource
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import ranktwo

SRC = Path(__file__).parent.parent / "src"
CHILD_AS_BYTES = 1 << 30

# The child evaluates one row's call and prints "ok" or the name of the
# exception it raised.
PRELUDE = """
import sys
from itertools import islice
from ranktwo import *
from ranktwo import counting
from ranktwo.goursat import MAX_POINTS
from ranktwo.oracle import MAX_BOUND
P64 = 18446744073709551557  # the largest 64-bit prime
SEMI64 = 4294967291 * 4294967279  # the two largest primes below 2^32
U64 = 2**64 - 1
# 2^7*3^4*5^2*7^2*11*13*...*41, with 184,320 divisors
SMOOTH64 = 18401055938125660800
PAST = MAX_POINTS + 1  # 5 * 52429
try:
    eval(sys.argv[1])
except Exception as exc:
    print(type(exc).__name__)
else:
    print("ok")
"""

# (name, call, outcome, budget in seconds), slowest first, so that the two
# lanes finish together
ROWS = [
    # the cyclic sum walks SMOOTH64's divisors until it passes 64 bits:
    # about 1.5 s
    ("count_cyclic", "counting.count_cyclic(SMOOTH64, SMOOTH64)", "OverflowError", 20),
    # about 1.1 s
    ("count_total", "counting.count_total(SMOOTH64, SMOOTH64)", "OverflowError", 20),
    # the largest table in 64 bits: about 0.4 s
    ("build_table", "build_table(3491888400, 3491888400)", "ok", 10),
    # the first point of the largest set listed, then the set: about 0.3 s
    ("find_tuple", "find_tuple(512, 512, materialize(512, 512,"
     " GoursatTuple(512, 512, 512, 512, 1)))", "ok", 10),
    ("find_tuple", "find_tuple(PAST, 1, ElementSet((PAST, 1),"
     " tuple((x, 0) for x in range(PAST))))", "ValueError", 10),
    ("materialize", "materialize(512, 512, GoursatTuple(512, 512, 512, 512, 1))", "ok", 5),
    # the oracle's largest groups: about 0.1 s each
    ("brute_subgroups", "brute_subgroups(60, 60, MAX_BOUND)", "ok", 5),
    ("brute_subgroups", "brute_subgroups(64, 64, MAX_BOUND)", "ok", 5),
    ("cross_check", "cross_check(60, 60, MAX_BOUND)", "ok", 5),
    ("cross_check", "cross_check(64, 64, MAX_BOUND)", "ok", 5),
    ("classify", "classify(ElementSet.from_iterable(64, 64,"
     " [(x, y) for x in range(64) for y in range(64)]))", "ok", 5),
    ("divisors", "divisors(SMOOTH64)", "ok", 5),
    ("divisors", "divisors(SEMI64)", "ok", 5),
    ("tau", "tau(SEMI64)", "ok", 5),
    ("count_subgroups", "count_subgroups(SEMI64, SEMI64)", "ok", 5),
    ("count_subgroups", "count_subgroups(SMOOTH64, SMOOTH64, cyclic=True)",
     "OverflowError", 5),
    ("enumerate_tuples", "list(islice(enumerate_tuples(P64, P64), 5))", "ok", 5),
    ("enumerate_tuples", "list(islice(enumerate_tuples(SMOOTH64, SMOOTH64), 5))", "ok", 5),
    ("describe", "describe(SMOOTH64, SMOOTH64,"
     " GoursatTuple(SMOOTH64, 1, SMOOTH64, 1, SMOOTH64 - 1))", "ok", 5),
    ("TypeKey", "TypeKey(U64, U64)", "ok", 5),
    ("ElementSet", "ElementSet((P64, P64), ((0, 0),))", "ok", 5),
    ("GoursatTuple", "GoursatTuple(P64, 1, P64, 1, P64 - 1)", "ok", 5),
    ("SubgroupTable", "SubgroupTable((P64, P64), 1, {1: 1}, {}, 1, 0)", "ok", 5),
    # one past each cap, refused before any work
    ("materialize", "materialize(PAST, 1, GoursatTuple(PAST, PAST, 1, 1, 1))",
     "ValueError", 5),
    ("materialize", "materialize(P64, 1, GoursatTuple(P64, P64, 1, 1, 1))", "ValueError", 5),
    ("brute_subgroups", "brute_subgroups(1, 1, MAX_BOUND + 1)", "BoundExceededError", 5),
    ("brute_subgroups", "brute_subgroups(360, 360, 360 * 360)", "BoundExceededError", 5),
    ("brute_subgroups", "brute_subgroups(P64, P64)", "BoundExceededError", 5),
    ("cross_check", "cross_check(1, 1, MAX_BOUND + 1)", "BoundExceededError", 5),
    ("cross_check", "cross_check(P64, P64, MAX_BOUND)", "BoundExceededError", 5),
    ("classify", "classify(ElementSet((1, MAX_BOUND + 1), ((0, 0),)))",
     "BoundExceededError", 5),
    ("build_table", "build_table(P64, P64)", "OverflowError", 5),
    ("divisors", "divisors(U64 + 1)", "OverflowError", 5),
    ("tau", "tau(U64 + 1)", "OverflowError", 5),
    ("count_subgroups", "count_subgroups(U64, U64)", "OverflowError", 5),
    ("enumerate_tuples", "next(enumerate_tuples(U64 + 1, 1))", "OverflowError", 5),
    ("TypeKey", "TypeKey(1, U64 + 1)", "OverflowError", 5),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


def _run(call, budget):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-c", PRELUDE, call], env=env,
                              capture_output=True, text=True, timeout=budget,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - start
    return done.stdout.strip(), done.stderr, time.perf_counter() - start


@pytest.fixture(scope="module")
def results():
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(_run, call, budget) for _, call, _, budget in ROWS]
        return [f.result() for f in futures]


def test_every_public_callable_has_a_row():
    public = {name for name in ranktwo.__all__ if callable(getattr(ranktwo, name))}
    assert public == {name for name, *_ in ROWS if name in ranktwo.__all__}
    for name, call, *_ in ROWS:
        assert name in call, call


def test_the_cap_rows_are_at_the_caps():
    from ranktwo.goursat import MAX_POINTS
    from ranktwo.oracle import MAX_BOUND

    assert 512 * 512 == MAX_POINTS
    assert 64 * 64 == MAX_BOUND


@pytest.mark.parametrize("row", range(len(ROWS)), ids=[r[1] for r in ROWS])
def test_library_bound_row(results, row):
    _, call, expected, budget = ROWS[row]
    outcome, err, seconds = results[row]
    assert outcome is not None, f"{call} still ran after {budget} s"
    assert outcome == expected, (call, err)
    assert seconds < budget, call
