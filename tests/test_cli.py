"""CLI tests: golden outputs, exit codes, and format consistency."""

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranktwo import arith, build_table, cli, describe, enumerate_tuples, goursat
from ranktwo.cli import main
from ranktwo.oracle import MAX_BOUND
from test_bounds import P64, SEMI60

GOLDEN = Path(__file__).parent / "golden"
SCHEMA_DIR = Path(__file__).parent.parent / "docs" / "schemas"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*args):
    """A fresh interpreter that imports ranktwo from src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def spawn(*argv):
    """The CLI as its own process, started the way the console script starts it."""
    return python("-m", "ranktwo.cli", *argv)


# --- count ---------------------------------------------------------------

def test_count_total(capsys):
    code, out, _ = run(capsys, "count", "12", "18")
    assert code == 0
    assert out == "80\n"


def test_count_order_filter(capsys):
    code, out, _ = run(capsys, "count", "12", "18", "--order", "6")
    assert code == 0
    assert out == "12\n"


def test_count_type_filter(capsys):
    code, out, _ = run(capsys, "count", "12", "18", "--type", "3,12")
    assert code == 0
    assert out == "2\n"


def test_count_cyclic_filter(capsys):
    code, out, _ = run(capsys, "count", "12", "18", "--cyclic")
    assert code == 0
    assert out == "48\n"


def test_count_rejects_bad_type(capsys):
    code, _, err = run(capsys, "count", "12", "18", "--type", "3,4")
    assert code == 2
    assert "does not divide" in err


def test_count_rejects_multiple_filters(capsys):
    code, _, err = run(capsys, "count", "12", "18", "--order", "2", "--cyclic")
    assert code == 2


def test_count_rejects_zero(capsys):
    code, _, err = run(capsys, "count", "0", "18")
    assert code == 2


def test_count_formats_agree(capsys):
    _, plain, _ = run(capsys, "count", "12", "18")
    _, js, _ = run(capsys, "count", "12", "18", "--format", "json")
    _, cs, _ = run(capsys, "count", "12", "18", "--format", "csv")
    value = int(plain.strip())
    assert json.loads(js)["count"] == value
    rows = list(csv.reader(io.StringIO(cs)))
    assert rows[0] == ["count"]
    assert int(rows[1][0]) == value


def test_count_order_outside_the_group(capsys):
    code, out, _ = run(capsys, "count", "12", "18", "--order", "7")
    assert code == 0
    assert out == "0\n"


def test_count_type_outside_a_product_past_64_bits(capsys):
    # m*n exceeds 64 bits; only m and n themselves need to fit
    code, out, _ = run(capsys, "count", "4294967296", "4294967297", "--type", "1,3")
    assert code == 0
    assert out == "0\n"


def test_count_rejects_order_past_64_bits(capsys):
    code, out, err = run(capsys, "count", "4294967296", "4294967296",
                         "--order", "18446744073709551616")
    assert code == 2
    assert out == ""
    assert "exceeds 64-bit range" in err


# --- table ---------------------------------------------------------------

def test_table_golden(capsys):
    code, out, _ = run(capsys, "table", "12", "18")
    assert code == 0
    assert out == (GOLDEN / "table_12_18.txt").read_text()


def test_table_json_golden_and_schema(capsys):
    code, out, _ = run(capsys, "table", "12", "18", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "table_12_18.json").read_text()
    schema = json.loads((SCHEMA_DIR / "subgroup_table.schema.json").read_text())
    jsonschema.validate(json.loads(out), schema)


def test_table_csv_golden(capsys):
    code, out, _ = run(capsys, "table", "12", "18", "--format", "csv")
    assert code == 0
    assert out == (GOLDEN / "table_12_18.csv").read_text()


def test_table_trivial(capsys):
    code, out, _ = run(capsys, "table", "1", "1")
    assert code == 0
    assert "total: 1" in out


def test_table_json_round_trip(capsys):
    _, out, _ = run(capsys, "table", "4", "6", "--format", "json")
    obj = json.loads(out)
    schema = json.loads((SCHEMA_DIR / "subgroup_table.schema.json").read_text())
    jsonschema.validate(obj, schema)
    assert obj["ambient"] == [4, 6]
    assert obj["total"] == sum(r["count"] for r in obj["by_order"])
    assert obj["total"] == sum(r["count"] for r in obj["by_type"])
    assert obj["cyclic"] + obj["noncyclic"] == obj["total"]


def plain_type_key(name):
    """(A, B) from a plain table's type name, `Z_B` or `Z_A x Z_B`."""
    factors = [int(z.removeprefix("Z_")) for z in name.split(" x ")]
    return tuple([1] * (2 - len(factors)) + factors)


@pytest.mark.parametrize("m, n", [(12, 18), (27720, 27720), (1, 1), (13, 17),
                                  (2**40, 2**20), (P64, 1), (SEMI60, 1)])
def test_table_formats_agree(capsys, m, n):
    table = build_table(m, n)
    assert list(table.by_order) == sorted(table.by_order)
    assert list(table.by_type) == sorted(table.by_type)
    _, plain, _ = run(capsys, "table", str(m), str(n))
    _, js, _ = run(capsys, "table", str(m), str(n), "--format", "json")
    _, cs, _ = run(capsys, "table", str(m), str(n), "--format", "csv")
    totals = (table.total, table.cyclic_total, table.noncyclic_total)
    by_order = list(table.by_order.items())
    by_type = [(tuple(key), cnt) for key, cnt in table.by_type.items()]

    obj = json.loads(js)
    assert obj["ambient"] == [m, n]
    assert (obj["total"], obj["cyclic"], obj["noncyclic"]) == totals
    assert [(r["order"], r["count"]) for r in obj["by_order"]] == by_order
    assert [((r["a"], r["b"]), r["count"]) for r in obj["by_type"]] == by_type

    header, *rows = csv.reader(io.StringIO(cs))
    assert header == ["row", "key", "count"]
    head, orders, types = rows[:3], rows[3:3 + len(by_order)], rows[3 + len(by_order):]
    assert [(r[0], r[1]) for r in head] == [("total", ""), ("cyclic", ""), ("noncyclic", "")]
    assert tuple(int(r[2]) for r in head) == totals
    assert {r[0] for r in orders} == {"order"} and {r[0] for r in types} == {"type"}
    assert [(int(k), int(c)) for _, k, c in orders] == by_order
    assert [(tuple(map(int, k.split("x"))), int(c)) for _, k, c in types] == by_type

    lines = plain.splitlines()
    at_order, at_type = lines.index("by order:"), lines.index("by type:")
    assert lines[:at_order] == [f"Subgroups of Z_{m} x Z_{n}"] + [
        f"{name}: {value}" for name, value in zip(("total", "cyclic", "noncyclic"), totals)]
    orders = [line.split(": ") for line in lines[at_order + 1:at_type]]
    assert [(int(k), int(c)) for k, c in orders] == by_order
    types = [line.split(": ") for line in lines[at_type + 1:]]
    assert [(plain_type_key(k.strip()), int(c)) for k, c in types] == by_type


def test_table_rejects_product_past_64_bits(capsys):
    code, out, err = run(capsys, "table", "4294967296", "4294967296")
    assert code == 2
    assert out == ""
    assert "exceeds 64-bit range" in err


def test_table_highly_composite_is_fast(capsys):
    from ranktwo.counting import count_cyclic, count_total
    start = time.perf_counter()
    code, out, _ = run(capsys, "table", "720720", "720720", "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0
    obj = json.loads(out)
    schema = json.loads((SCHEMA_DIR / "subgroup_table.schema.json").read_text())
    jsonschema.validate(obj, schema)
    assert obj["total"] == count_total(720720, 720720) == 34209280
    assert obj["cyclic"] == count_cyclic(720720, 720720)
    assert obj["total"] == sum(r["count"] for r in obj["by_order"])
    assert obj["total"] == sum(r["count"] for r in obj["by_type"])


# The largest table in 64 bits: 3491888400 = 2^4 3^3 5^2 7 11 13 17 19, with
# 218,700 types.  Digests and line counts of every format, byte for byte.
TOP_TABLE_DIGESTS = {
    "plain": ("d384006dd2550625cd6e961f2719aced38b6e7c614c937d1be4877d15fb93bd0", 295251),
    "json": ("916b0d4054e0317aa90115abe3abd65ed14c7f8271536dcdb7d74e2e386379e4", 1),
    "csv": ("eb4e873e2cc2cb5832c344118cbd58ad86e5c4912a9c42dfc762380c364021d0", 295249),
}


class _Digest:
    """A stdout that keeps only the sha256 and the line count of what is written."""

    def __init__(self):
        self.digest, self.lines = hashlib.sha256(), 0

    def write(self, s):
        self.digest.update(s.encode())
        self.lines += s.count("\n")
        return len(s)

    def flush(self):
        pass


def test_table_at_the_top_of_the_64_bit_range_is_pinned():
    for fmt, expected in TOP_TABLE_DIGESTS.items():
        sink = _Digest()
        with contextlib.redirect_stdout(sink):
            code = main(["table", "3491888400", "3491888400", "--format", fmt])
        assert code == 0
        assert (sink.digest.hexdigest(), sink.lines) == expected, fmt


# Peak RSS of `table 3491888400 3491888400` in a fresh process, as
# ru_maxrss of the children of a fresh parent (KiB on Linux).  It measured
# 59.0 MB in every format on a 2-vCPU x86 host (Python 3.11) with the local
# tables multiplied smallest first, against 66.5 MB in ascending prime order
# and 86.6 MB when the table was built as a dict with a TypeKey per type.
TOP_TABLE_RSS_MB = 65
TOP_TABLE_RSS_SCRIPT = """\
import resource, subprocess, sys
for fmt in ("plain", "json", "csv"):
    subprocess.run([sys.executable, "-m", "ranktwo.cli", "table", "3491888400",
                    "3491888400", "--format", fmt], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_top_table_peak_rss_is_within_budget():
    out, err = python("-c", TOP_TABLE_RSS_SCRIPT).communicate(timeout=60)
    assert err == ""
    assert float(out) < TOP_TABLE_RSS_MB


# --- enumerate -------------------------------------------------------------

def test_enumerate_klein(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "2")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_enumerate_12_18_line_count(capsys):
    code, out, _ = run(capsys, "enumerate", "12", "18")
    assert code == 0
    assert len(out.splitlines()) == 80


def test_enumerate_720_720_record_count(capsys):
    # one line per subgroup, below csv's header, or one json record each
    for fmt, count in [("plain", lambda out: len(out.splitlines())),
                       ("csv", lambda out: len(out.splitlines()) - 1),
                       ("json", lambda out: len(json.loads(out)["subgroups"]))]:
        code, out, _ = run(capsys, "enumerate", "720", "720", "--format", fmt)
        assert code == 0
        assert count(out) == 15272, fmt


def test_enumerate_lists_the_divisors_of_m_and_n_once_each(capsys, monkeypatch):
    # the walk takes e and c from one list of the divisors of n, so a whole
    # listing builds two divisor lists however many blocks it has
    calls = []

    def counted(k):
        calls.append(k)
        return arith.divisors(k)

    monkeypatch.setattr(goursat, "divisors", counted)
    assert sum(1 for _ in enumerate_tuples(720, 720)) == 15272
    assert len(calls) == 2
    calls.clear()
    code, out, _ = run(capsys, "enumerate", "720", "720")
    assert code == 0 and len(out.splitlines()) == 15272
    assert len(calls) == 2


def test_enumerate_trivial(capsys):
    code, out, _ = run(capsys, "enumerate", "1", "1")
    assert code == 0
    assert out.splitlines() == [
        "(1,1,1,1,1) order=1 exponent=1 invariants=(1,1) cyclic=yes "
        "generators=(0,0),(0,0)"
    ]


def test_enumerate_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "12", "18", "--limit", "3")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "2", "--format", "json")
    obj = json.loads(out)
    assert obj["ambient"] == [2, 2]
    assert len(obj["subgroups"]) == 5
    orders = sorted(r["order"] for r in obj["subgroups"])
    assert orders == [1, 2, 2, 2, 4]


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:5] == ["a", "b", "c", "d", "ell"]
    assert len(rows) == 6


def test_enumerate_json_streams_one_document(capsys):
    for argv in (["12", "18"], ["36", "48", "--limit", "5"], ["2", "2", "--limit", "0"]):
        code, out, _ = run(capsys, "enumerate", *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out)) + "\n"


def test_enumerate_huge_group_with_limit_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "enumerate", "720720", "720720", "--limit", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert len(out.splitlines()) == 3


def test_enumerate_rejects_negative_limit(capsys):
    code, out, err = run(capsys, "enumerate", "12", "18", "--limit", "-1")
    assert code == 2
    assert out == ""
    assert "--limit" in err


def test_enumerate_refuses_before_writing(capsys):
    for fmt in ("plain", "json", "csv"):
        code, out, err = run(capsys, "enumerate", str(2**64), "1", "--limit", "0",
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert "exceeds 64-bit range" in err


@pytest.mark.parametrize("fmt, ext", [("plain", "txt"), ("json", "json"), ("csv", "csv")])
def test_enumerate_golden(capsys, fmt, ext):
    code, out, _ = run(capsys, "enumerate", "12", "18", "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / f"enumerate_12_18.{ext}").read_text()


def reference_enumerate(m, n, fmt, limit=None):
    """The enumerate output as the validating path writes it: the public
    describe per tuple, then json.dumps or csv.writer per record."""
    buf = io.StringIO()
    descriptors = [describe(m, n, t) for t in itertools.islice(enumerate_tuples(m, n), limit)]
    if fmt == "json":
        records = [json.dumps({
            "tuple": [d.tuple.a, d.tuple.b, d.tuple.c, d.tuple.d, d.tuple.ell],
            "order": d.order,
            "exponent": d.exponent,
            "invariants": [d.invariants.A, d.invariants.B],
            "cyclic": d.cyclic,
            "generators": [list(g) for g in d.generators],
        }) for d in descriptors]
        buf.write(f'{{"ambient": [{m}, {n}], "subgroups": [' + ", ".join(records) + "]}\n")
    elif fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["a", "b", "c", "d", "ell", "order", "exponent", "inv_u",
                         "inv_v", "cyclic", "gen1_x", "gen1_y", "gen2_x", "gen2_y"])
        for d in descriptors:
            t = d.tuple
            (g1x, g1y), (g2x, g2y) = d.generators
            writer.writerow([t.a, t.b, t.c, t.d, t.ell, d.order, d.exponent,
                             d.invariants.A, d.invariants.B, int(d.cyclic),
                             g1x, g1y, g2x, g2y])
    else:
        for d in descriptors:
            (g1x, g1y), (g2x, g2y) = d.generators
            buf.write(
                f"{d.tuple} order={d.order} exponent={d.exponent} "
                f"invariants=({d.invariants.A},{d.invariants.B}) "
                f"cyclic={'yes' if d.cyclic else 'no'} "
                f"generators=({g1x},{g1y}),({g2x},{g2y})\n"
            )
    return buf.getvalue()


def limits_ending_in_and_at_blocks(m, n):
    """--limit values for Z_m x Z_n that end a listing inside a block (a, b,
    c, d) with a/b >= 3, or exactly at such a block's last l; the first and
    the last of each kind."""
    tuples = list(enumerate_tuples(m, n))
    inside, at_end = [], []
    for k, (t, after) in enumerate(zip(tuples, tuples[1:] + [None]), start=1):
        if t.a // t.b < 3:
            continue
        if after is not None and after[:4] == t[:4]:
            inside.append(k)
        else:
            at_end.append(k)
    return [inside[0], inside[-1], at_end[0], at_end[-1]]


LARGEST_64_BIT_PRIME = 18446744073709551557


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("m, n, limit", [(1, 1, None), (2, 2, None), (12, 18, None),
                                         (36, 48, None), (1, 1, 0), (2, 2, 3),
                                         (12, 18, 17), (36, 48, 100000), (720, 720, 500),
                                         (720, 720, None)]
                         + [(36, 48, k) for k in limits_ending_in_and_at_blocks(36, 48)]
                         # output batches end at and around BATCH_ROWS rows
                         + [(720, 720, cli.BATCH_ROWS + k) for k in (-1, 0, 1)]
                         # past the listed units head of the block a/b = p
                         + [(LARGEST_64_BIT_PRIME, LARGEST_64_BIT_PRIME,
                             goursat.UNITS_HEAD + 100)])
def test_enumerate_matches_the_validating_renderer(capsys, fmt, m, n, limit):
    argv = ["enumerate", str(m), str(n), "--format", fmt]
    if limit is not None:
        argv += ["--limit", str(limit)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == reference_enumerate(m, n, fmt, limit)


# --- reach: 64-bit primes and semiprimes ------------------------------------------


def run_cold_within_a_second(capsys, *argv):
    arith._factorize.cache_clear()
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    return result


@pytest.mark.parametrize("m, expected", [(999999937 * 1000000007, 4),
                                         (LARGEST_64_BIT_PRIME, 2),
                                         # the slowest 64-bit input for rho
                                         (4294967279 * 4294967291, 4)])
def test_count_64_bit_cyclic_group_is_fast(capsys, m, expected):
    # Z_m x Z_1 is cyclic of order m: one subgroup per divisor of m
    code, out, _ = run_cold_within_a_second(capsys, "count", str(m), "1")
    assert code == 0
    assert out == f"{expected}\n"


def test_table_of_two_32_bit_primes_is_fast(capsys):
    p, q = 4294967291, 4294967279
    code, out, _ = run_cold_within_a_second(capsys, "table", str(p), str(q),
                                            "--format", "json")
    assert code == 0
    obj = json.loads(out)
    # Z_p x Z_q is cyclic of order pq: subgroups of order 1, q, p, pq
    assert obj["total"] == 4
    assert obj["cyclic"] == 4
    assert obj["by_order"] == [{"order": o, "count": 1} for o in (1, q, p, p * q)]


def test_enumerate_64_bit_prime_is_fast(capsys):
    p = LARGEST_64_BIT_PRIME
    code, out, _ = run_cold_within_a_second(capsys, "enumerate", str(p), "1",
                                            "--limit", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("(1,1,1,1,1) order=1 ")
    assert lines[1].startswith(f"({p},{p},1,1,1) order={p} ")


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_enumerate_64_bit_prime_square_stays_lazy(capsys, fmt):
    # records 3-5 open the block a/b = p, whose p - 1 units no one can list
    p = LARGEST_64_BIT_PRIME
    code, out, _ = run_cold_within_a_second(capsys, "enumerate", str(p), str(p),
                                            "--limit", "5", "--format", fmt)
    assert code == 0
    if fmt == "json":
        tuples = [r["tuple"] for r in json.loads(out)["subgroups"]]
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        tuples = [[int(x) for x in row[:5]] for row in rows]
    else:
        tuples = [[int(x) for x in line[1:line.index(")")].split(",")]
                  for line in out.splitlines()]
    assert len(tuples) == 5
    assert tuples[2:] == [[p, 1, p, 1, ell] for ell in (1, 2, 3)]


def test_enumerate_lists_no_more_units_than_its_limit(capsys, monkeypatch):
    # the two a/b = 1 records share one listed l = 1, and the block a/b = p
    # draws its units lazily, of which --limit takes three
    p = LARGEST_64_BIT_PRIME
    expected = reference_enumerate(p, p, "plain", 5)
    drawn = []
    units = goursat._units

    def counted(e):
        for ell in units(e):
            drawn.append(ell)
            yield ell

    monkeypatch.setattr(goursat, "_units", counted)
    assert run(capsys, "enumerate", str(p), str(p), "--limit", "5") == (0, expected, "")
    assert len(drawn) <= 5


class _NoWrites:
    """A stdout that fails the test at its first write, so a request that
    should have been refused up front cannot run on for ever."""

    def write(self, s):
        raise AssertionError(f"wrote {s[:60]!r}")

    writelines = write

    def flush(self):
        pass


def run_refused(capsys, *argv):
    """(exit code, stderr) of a request that writes nothing, run cold within a second."""
    with contextlib.redirect_stdout(_NoWrites()):
        code, _, err = run_cold_within_a_second(capsys, *argv)
    return code, err


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("m, size, limit", [
    (LARGEST_64_BIT_PRIME, str(LARGEST_64_BIT_PRIME + 3), []),
    (2**63, "at least 2^64", []),  # count_subgroups overflows
    (LARGEST_64_BIT_PRIME, str(LARGEST_64_BIT_PRIME + 3), ["--limit", str(2**63 - 1)]),
], ids=["64-bit-prime-square", "past-2^64-subgroups", "64-bit-prime-square-limit-2^63-1"])
def test_enumerate_without_limit_refuses_a_huge_listing(capsys, fmt, m, size, limit):
    code, err = run_refused(capsys, "enumerate", str(m), str(m), *limit, "--format", fmt)
    assert code == 2
    assert f"has {size} subgroups" in err and "--limit" in err


def test_enumerate_record_cap_is_inclusive(capsys, monkeypatch):
    # Z_12 x Z_18 has 80 subgroups
    golden = (GOLDEN / "enumerate_12_18.txt").read_text()
    monkeypatch.setattr(cli, "MAX_RECORDS", 80)
    assert run(capsys, "enumerate", "12", "18") == (0, golden, "")
    monkeypatch.setattr(cli, "MAX_RECORDS", 79)
    code, out, err = run(capsys, "enumerate", "12", "18")
    assert (code, out) == (2, "")
    assert "has 80 subgroups, more than the 79" in err
    first_79 = "".join(golden.splitlines(True)[:79])
    assert run(capsys, "enumerate", "12", "18", "--limit", "79") == (0, first_79, "")
    code, out, err = run(capsys, "enumerate", "12", "18", "--limit", "80")
    assert (code, out) == (2, "")


# --- figure ----------------------------------------------------------------

def test_figure_golden(capsys):
    code, out, _ = run(capsys, "figure", "12", "18", "6", "2", "18", "6", "1")
    assert code == 0
    assert out == (GOLDEN / "figure_12_18_6_2_18_6_1.txt").read_text()


@pytest.mark.parametrize("argv, name", [
    (["figure", "12", "18", "6", "2", "18", "6", "1", "--format", "json"],
     "figure_12_18_6_2_18_6_1.json"),
    (["figure", "12", "18", "6", "2", "18", "6", "1", "--format", "csv"],
     "figure_12_18_6_2_18_6_1.csv"),
    (["count", "12", "18", "--format", "json"], "count_12_18.json"),
    (["count", "12", "18", "--format", "csv"], "count_12_18.csv"),
    (["count", "12", "18", "--format", "json", "--order", "6"], "count_12_18_order_6.json"),
    (["count", "12", "18", "--format", "json", "--type", "2,18"],
     "count_12_18_type_2_18.json"),
    (["count", "12", "18", "--format", "json", "--cyclic"], "count_12_18_cyclic.json"),
])
def test_format_golden(capsys, argv, name):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_figure_bullet_positions_match_materialization(capsys):
    from ranktwo import GoursatTuple, materialize
    _, out, _ = run(capsys, "figure", "12", "18", "6", "2", "18", "6", "1")
    lines = out.splitlines()
    # n data rows plus one column-label row
    assert len(lines) == 19
    bullets = set()
    for line in lines[:-1]:
        label, *cells = line.split()
        y = int(label)
        stars = [x for x, ch in enumerate(cells) if ch == "*"]
        bullets.update((x, y) for x in stars)
    expected = set(materialize(12, 18, GoursatTuple(6, 2, 18, 6, 1)).elements)
    assert bullets == expected
    assert len(bullets) == 36


def test_figure_trivial(capsys):
    code, out, _ = run(capsys, "figure", "2", "2", "1", "1", "1", "1", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].split() == ["0", "*", "."]


def test_figure_bullet_count_equals_order(capsys):
    for m, n, a, b, c, d, ell in [(9, 6, 9, 3, 6, 2, 2), (8, 8, 4, 2, 8, 4, 1)]:
        code, out, _ = run(capsys, "figure", *map(str, (m, n, a, b, c, d, ell)))
        assert code == 0
        assert sum(line.count("*") for line in out.splitlines()) == a * d


def test_figure_rejects_non_member(capsys):
    code, _, err = run(capsys, "figure", "12", "18", "5", "1", "1", "1", "1")
    assert code == 2
    assert "does not divide m" in err


def test_figure_rejects_oversized_grid(capsys):
    code, _, err = run(capsys, "figure", "41", "2", "1", "1", "1", "1", "1")
    assert code == 2


# --- verify ----------------------------------------------------------------

@pytest.mark.parametrize("fmt, ext", [("plain", "txt"), ("json", "json"), ("csv", "csv")])
def test_verify_golden(capsys, fmt, ext):
    code, out, _ = run(capsys, "verify", "12", "18", "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / f"verify_12_18.{ext}").read_text()
    if fmt == "plain":
        assert out == "OK, 80 subgroups, 0 mismatches\n"


def test_verify_trivial(capsys):
    code, out, _ = run(capsys, "verify", "1", "1")
    assert code == 0
    assert "OK" in out


def test_verify_range(capsys):
    code, out, _ = run(capsys, "verify", "--range", "8", "8")
    assert code == 0
    assert "64 pairs checked, 0 mismatches" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "12", "18", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["total_mismatches"] == 0
    assert obj["pairs"][0]["subgroups"] == 80


def test_verify_bound_exceeded(capsys):
    for fmt in ("plain", "json", "csv"):
        code, out, err = run(capsys, "verify", "30", "30", "--format", fmt)
        assert code == 2
        assert out == ""
        assert "exceeds bound" in err


def test_verify_missing_args(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_verify_range_skips_pairs_over_the_bound(capsys, monkeypatch):
    from ranktwo import oracle

    # a sweep sends only the pairs within the bound to brute force
    checked = []
    cross_check = oracle.cross_check

    def recording(m, n, bound):
        checked.append((m, n))
        return cross_check(m, n, bound)

    monkeypatch.setattr(oracle, "cross_check", recording)
    code, out, _ = run(capsys, "verify", "--range", "3", "3", "--bound", "4")
    assert code == 0
    assert "2 3: SKIP (m*n = 6 exceeds bound 4)" in out.splitlines()
    assert out.splitlines()[-1] == "6 pairs checked, 3 skipped, 0 mismatches"
    # a skipped pair's row carries the text that refuses the pair on its own
    code, single, err = run(capsys, "verify", "2", "3", "--bound", "4")
    assert (code, single) == (2, "")
    assert f"2 3: SKIP ({err.removeprefix('error: ').rstrip()})" in out.splitlines()

    code, out, _ = run(capsys, "verify", "--range", "3", "3", "--bound", "4",
                       "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert len(obj["pairs"]) == 6
    assert obj["skipped"] == [[2, 3], [3, 2], [3, 3]]
    assert obj["total_mismatches"] == 0

    code, out, _ = run(capsys, "verify", "--range", "3", "3", "--bound", "4",
                       "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert len(rows) == 10
    assert [r for r in rows if r[2] == ""] == [["2", "3", "", ""], ["3", "2", "", ""],
                                               ["3", "3", "", ""]]
    within = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    assert checked == within + [(2, 3)] + within + within


def test_verify_range_without_skips_has_no_skip_fields(capsys):
    code, out, _ = run(capsys, "verify", "--range", "2", "2", "--format", "json")
    assert code == 0
    assert "skipped" not in json.loads(out)


def test_verify_rejects_bound_below_one(capsys):
    for bound in ("0", "-5"):
        code, _, err = run(capsys, "verify", "--range", "3", "3", "--bound", bound)
        assert code == 2
        assert "--bound" in err


def test_verify_refuses_a_bound_past_the_limit(capsys):
    for fmt in ("plain", "json", "csv"):
        code, out, err = run(capsys, "verify", "2", "2", "--bound", str(MAX_BOUND + 1),
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert f"--bound must be in 1..{MAX_BOUND}" in err


def test_verify_accepts_the_bound_limit(capsys):
    code, out, _ = run(capsys, "verify", "2", "2", "--bound", str(MAX_BOUND))
    assert code == 0
    assert out == "OK, 5 subgroups, 0 mismatches\n"


@pytest.mark.parametrize("fmt, ext", [("plain", "txt"), ("json", "json"), ("csv", "csv")])
def test_verify_range_golden(capsys, fmt, ext):
    code, out, _ = run(capsys, "verify", "--range", "3", "3", "--bound", "4", "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / f"verify_range_3_3_bound_4.{ext}").read_text()


@pytest.mark.parametrize("fmt, digest", [
    ("plain", "789ca5cd386ceb93deed2b5262518f878107221b5b8fbcf588e2ac23dc8a1fff"),
    ("json", "173f007b47f1828eca9136b7516d44bdf699be052f8a5da48b7e715174819a0d"),
    ("csv", "5468200a86971f2a92196b3491b1d49dee30d5a3a5633123eb3937fbee4807ba"),
], ids=["plain", "json", "csv"])
def test_verify_range_30_30_output_is_pinned(capsys, fmt, digest):
    # all 900 pairs up to Z_30 x Z_30, each brute-forced; the digests pin
    # every line, so a change to how cross_check forms its masks cannot
    # move a subgroup count or the summary
    code, out, _ = run(capsys, "verify", "--range", "30", "30", "--bound",
                       str(MAX_BOUND), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_refuses_a_pair_together_with_range(capsys, monkeypatch):
    from ranktwo import oracle

    checked = []
    monkeypatch.setattr(oracle, "cross_check", lambda *args: checked.append(args))
    for pair in (["3", "4"], ["3"]):
        for fmt in ("plain", "json", "csv"):
            code, out, err = run(capsys, "verify", *pair, "--range", "2", "2",
                                 "--format", fmt)
            assert (code, out) == (2, ""), (pair, fmt)
            assert "either m n or --range M N, not both" in err
    assert checked == []


# A TypeKey equals the plain tuple (2, 18) but prints as TypeKey(A=2, B=18);
# verify reports type keys as plain pairs, byte for byte as before.
SKEWED_TYPE_OUTPUT = {
    "plain": "FAIL, 80 subgroups, 1 mismatches\n"
             "  mismatch {side} key=(2, 18): oracle=3 formula=4\n",
    "json": '{{"pairs": [{{"ambient": [12, 18], "subgroups": 80, "mismatches": '
            '[{{"side": "{side}", "key": [2, 18], "expected": 3, "actual": 4}}]}}], '
            '"total_mismatches": 1}}\n',
    "csv": "m,n,subgroups,mismatches\n12,18,80,1\n",
}


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_prints_a_by_type_mismatch_as_a_plain_pair(capsys, monkeypatch, fmt):
    from ranktwo import TypeKey, oracle

    count_by_type = oracle.count_by_type

    def skewed(m, n):
        types = count_by_type(m, n)
        return {**types, TypeKey(2, 18): types.get(TypeKey(2, 18), 0) + 1}

    monkeypatch.setattr(oracle, "count_by_type", skewed)
    code, out, _ = run(capsys, "verify", "12", "18", "--format", fmt)
    assert code == 3
    assert out == SKEWED_TYPE_OUTPUT[fmt].format(side="by_type")


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_prints_a_table_by_type_mismatch_as_a_plain_pair(capsys, monkeypatch, fmt):
    from ranktwo import TypeKey, build_table, oracle

    def skewed(m, n):
        table = build_table(m, n)
        by_type = dict(table.by_type)
        by_type[TypeKey(2, 18)] += 1
        return table._replace(by_type=by_type)

    monkeypatch.setattr(oracle, "build_table", skewed)
    code, out, _ = run(capsys, "verify", "12", "18", "--format", fmt)
    assert code == 3
    assert out == SKEWED_TYPE_OUTPUT[fmt].format(side="table_by_type")


class _Tail:
    """A stdout that keeps only the count and the last characters written."""

    def __init__(self):
        self.chars = 0
        self.tail = ""

    def write(self, s):
        self.chars += len(s)
        self.tail = (self.tail + s)[-100:]
        return len(s)

    def flush(self):
        pass


@pytest.mark.parametrize("m_max, n_max, fmt, tail", [
    ("100", "100", "plain", "\n1 pairs checked, 9999 skipped, 0 mismatches\n"),
    ("100", "100", "csv", "\n100,100,,\n"),
    # one line, which the skipped pairs close
    ("100", "100", "json", ", [100, 99], [100, 100]]}\n"),
    # one pair per row: a sweep that holds its 14,000 rows peaks at 0.54 MiB
    ("14000", "1", "csv", "\n14000,1,,\n"),
], ids=["plain", "csv", "json", "tall"])
def test_verify_range_streams_its_output(m_max, n_max, fmt, tail):
    # a sweep holding its pairs as lists peaks at 2-4 MB at 100 x 100, and
    # grows with M*N; one batch of BATCH_ROWS json skips takes about 0.2 MiB
    sink = _Tail()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["verify", "--range", m_max, n_max, "--bound", "1",
                         "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.tail.endswith(tail)
    assert peak < 2**19


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_refuses_a_sweep_past_the_pair_cap(capsys, fmt):
    for m_max, n_max in (("1000", "1001"), ("18446744073709551615", "1")):
        code, err = run_refused(capsys, "verify", "--range", m_max, n_max,
                                "--bound", "1", "--format", fmt)
        assert code == 2
        assert (f"--range sweeps at most {cli.MAX_RANGE_PAIRS} pairs, "
                f"got {m_max} x {n_max}") in err


def test_verify_pair_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_RANGE_PAIRS", 6)
    code, out, _ = run(capsys, "verify", "--range", "2", "3")
    assert (code, out.splitlines()[-1]) == (0, "6 pairs checked, 0 mismatches")
    code, out, err = run(capsys, "verify", "--range", "7", "1")
    assert (code, out) == (2, "")
    assert "--range sweeps at most 6 pairs, got 7 x 1 = 7" in err


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_refuses_a_sweep_past_the_work_budget(capsys, fmt):
    # the sum of m*n over 1..49 x 1..49 is (49*50/2)^2; every pair is within the bound
    code, err = run_refused(capsys, "verify", "--range", "49", "49",
                            "--bound", "4096", "--format", fmt)
    assert code == 2
    assert (f"--range checks at most {cli.MAX_RANGE_WORK} in the sum of m*n over "
            "the pairs within --bound 4096, got 1500625") in err


def test_verify_work_budget_is_inclusive(capsys, monkeypatch):
    for m_max, n_max, bound in [(2, 3, 400), (49, 49, 4096), (1000, 1000, 4096),
                                (7, 1, 3), (1, 9, 4), (10**6, 1, 4096)]:
        assert cli._range_work(m_max, n_max, bound) == sum(
            m * n for m in range(1, min(m_max, bound) + 1)
            for n in range(1, min(n_max, bound) + 1) if m * n <= bound)
    monkeypatch.setattr(cli, "MAX_RANGE_WORK", 18)
    code, out, _ = run(capsys, "verify", "--range", "2", "3")
    assert (code, out.splitlines()[-1]) == (0, "6 pairs checked, 0 mismatches")
    # 3 x 3 is 36, but only the 11 of 1 x 1..3, 2 x 1 and 3 x 1 is within --bound 3
    code, out, _ = run(capsys, "verify", "--range", "3", "3", "--bound", "3")
    assert (code, out.splitlines()[-1]) == (0, "5 pairs checked, 4 skipped, 0 mismatches")
    code, out, err = run(capsys, "verify", "--range", "3", "3")
    assert (code, out) == (2, "")
    assert "in the sum of m*n over the pairs within --bound 400, got 36" in err


# --- every number argument is checked up front --------------------------------

OVER_64_BITS = str(2**64)


@pytest.mark.parametrize("argv", [
    ["count", OVER_64_BITS, "18"],
    ["count", "12", "18", "--order", OVER_64_BITS],
    ["count", "12", "18", "--type", f"1,{OVER_64_BITS}"],
    ["table", OVER_64_BITS, "18"],
    ["enumerate", OVER_64_BITS, "18"],
    ["figure", OVER_64_BITS, "18", "1", "1", "1", "1", "1"],
    ["figure", "12", "18", OVER_64_BITS, "1", "1", "1", "1"],
    ["verify", OVER_64_BITS, "18"],
    ["verify", "--range", OVER_64_BITS, "1"],
], ids=["count-m", "count-order", "count-type", "table-m", "enumerate-m", "figure-m",
        "figure-a", "verify-m", "verify-range"])
def test_a_number_past_64_bits_is_refused_before_any_output(capsys, argv):
    if "--range" in argv:
        # a sweep that is not refused would run for ever, so it runs under a timeout
        proc = spawn(*argv)
        try:
            out, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
        code = proc.returncode
    else:
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "exceeds 64-bit range" in err


# --- random argv -------------------------------------------------------------

EDGE_VALUES = st.sampled_from([-1, 0, 1, 2, 2**63 - 1, 2**63, 2**63 + 1,
                               2**64 - 1, 2**64, 2**64 + 1]).map(str)
JUNK = st.sampled_from(["", "x", "1.5", "0x10", "1e3", "-", "--", ",", "7,", "2,3,4"])
VALUES = st.one_of(st.integers(1, 12).map(str), st.integers(-2, 40).map(str),
                   EDGE_VALUES, JUNK)
FILTERS = st.lists(st.one_of(
    st.tuples(st.just("--order"), VALUES),
    st.tuples(st.just("--type"), st.one_of(st.builds("{},{}".format, VALUES, VALUES), VALUES)),
    st.just(("--cyclic",)),
), max_size=3)
FORMATS = st.sampled_from([[], ["--format", "plain"], ["--format", "json"],
                           ["--format", "csv"], ["--format", "xml"]])


@st.composite
def argvs(draw):
    """An argv that any of the five commands may get, kept to requests that
    finish in milliseconds: enumerate always has --limit <= 1000, and verify
    a --bound or --range of a few dozen pairs."""
    command = draw(st.sampled_from(["count", "table", "enumerate", "verify", "figure"]))
    if command == "count":
        argv = ["count", draw(VALUES), draw(VALUES)]
        argv += [word for flag in draw(FILTERS) for word in flag]
    elif command == "table":
        argv = ["table", draw(VALUES), draw(VALUES)]
    elif command == "enumerate":
        argv = ["enumerate", draw(VALUES), draw(VALUES),
                "--limit", str(draw(st.integers(-2, 1000)))]
    elif command == "figure":
        # seven arguments: mostly small ones, so that many draws reach the tuple
        argv = ["figure"] + [draw(st.one_of(st.integers(1, 12).map(str), VALUES))
                             for _ in range(7)]
    else:
        small = st.one_of(st.integers(-1, 8).map(str), EDGE_VALUES, JUNK)
        pair = draw(st.sampled_from(["pair", "range", "both"]))
        argv = ["verify"]
        argv += [draw(VALUES), draw(VALUES)] if pair != "range" else []
        argv += ["--range", draw(small), draw(small)] if pair != "pair" else []
        argv += ["--bound", str(draw(st.integers(-1, 64)))]
    return argv + draw(FORMATS)


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_random_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_closed_pipe_ends_the_process_quietly():
    proc = spawn("enumerate", "720", "720")
    assert proc.stdout.readline().startswith("(1,1,1,1,1) ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=10) == -signal.SIGPIPE
    assert err == ""


# --- one parser per process ------------------------------------------------

def test_shared_parser_leaks_nothing_between_calls(capsys):
    golden_enum = (GOLDEN / "enumerate_12_18.txt").read_text()
    steps = [
        (["count", "12", "18", "--cyclic"], "48\n"),
        (["count", "12", "18"], "80\n"),
        (["verify", "--range", "1", "2"],
         "1 1: OK (1 subgroups)\n1 2: OK (2 subgroups)\n2 pairs checked, 0 mismatches\n"),
        (["verify", "12", "18"], "OK, 80 subgroups, 0 mismatches\n"),
        # a one-pair sweep prints the single-pair form
        (["verify", "--range", "1", "1"], "OK, 1 subgroups, 0 mismatches\n"),
        (["enumerate", "12", "18", "--limit", "1"], golden_enum.splitlines(True)[0]),
        (["enumerate", "12", "18"], golden_enum),
        (["count", "12", "18", "--format", "json"],
         '{"ambient": [12, 18], "filter": null, "count": 80}\n'),
        (["count", "12", "18"], "80\n"),
        (["table", "12", "18", "--format", "json"], (GOLDEN / "table_12_18.json").read_text()),
        (["table", "12", "18"], (GOLDEN / "table_12_18.txt").read_text()),
    ]
    for argv, expected in steps:
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, expected), argv


def test_a_second_call_builds_no_parser(capsys, monkeypatch):
    main(["count", "1", "1"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["count", "12", "18"], ["table", "12", "18"], ["verify", "2", "2"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert built == []


# Argvs in the canonical form: the command, its positionals, then options by
# their exact names.  Each is parsed from the option table alone.
CANONICAL_ARGVS = [
    ["count", "12", "18", "--format", "json"],
    ["count", "12", "18", "--format", "json", "--type", "2,18"],
    ["count", "12", "18", "--order", "6", "--format", "json"],
    ["count", "12", "18", "--cyclic"],
    ["table", "12", "18", "--format", "csv"],
    ["enumerate", "12", "18", "--limit", "3"],
    ["figure", "12", "18", "6", "2", "18", "6", "1", "--format", "json"],
    ["verify", "2", "2"],
    ["verify", "--range", "3", "3", "--bound", "4", "--format", "csv"],
]


def test_a_canonical_argv_builds_no_parser_in_a_fresh_process():
    # with argparse never imported, no ArgumentParser can have been built
    proc = python("-c", "import sys, ranktwo.cli; "
                  f"codes = [ranktwo.cli.main(argv) for argv in {CANONICAL_ARGVS!r}]; "
                  "assert not set(codes) - {0}, codes; "
                  "assert 'argparse' not in sys.modules")
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")


def _golden_lines(name, count=None):
    return "".join((GOLDEN / name).read_text().splitlines(True)[:count])


# Spellings the option table leaves to argparse, with the output they had when
# argparse parsed every argv.
OTHER_SPELLINGS = [
    (["count", "12", "18", "--format=json"], _golden_lines("count_12_18.json"), 0),
    (["count", "12", "18", "--form", "json"], _golden_lines("count_12_18.json"), 0),
    (["count", "--cyclic", "12", "18"], "48\n", 0),
    (["count", "--cyclic", "12", "18", "--format", "json"],
     _golden_lines("count_12_18_cyclic.json"), 0),
    (["enumerate", "12", "18", "--limit=2"], _golden_lines("enumerate_12_18.txt", 2), 0),
    (["verify", "--bound", "-5", "--range", "3", "3"], "", 2),
    (["table", "12"], "", 2),
    (["-h"], _golden_lines("help.txt"), 0),
    *[([command, "-h"], _golden_lines(f"help_{command}.txt"), 0)
      for command in ("count", "table", "enumerate", "figure", "verify")],
]


@pytest.mark.parametrize("argv, expected, code", OTHER_SPELLINGS,
                         ids=[" ".join(argv) for argv, _, _ in OTHER_SPELLINGS])
def test_other_spellings_keep_their_output(capsys, monkeypatch, argv, expected, code):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse printed help or refused the argv
        got = exc.code
    assert (got, capsys.readouterr().out) == (code, expected)


# Each command's number of positionals and its options with the number of
# words each takes.
ARGV_SHAPES = {
    "count": (2, {"--format": 1, "--order": 1, "--type": 1, "--cyclic": 0}),
    "table": (2, {"--format": 1}),
    "enumerate": (2, {"--format": 1, "--limit": 1}),
    "figure": (7, {"--format": 1}),
    "verify": (2, {"--format": 1, "--range": 2, "--bound": 1}),
}
ODD_WORDS = ["-h", "--help", "--form", "--format=json", "--limit=2", "--cyclic", "plain",
             "json", "csv", "xml", "-1", "-5", "5_0", " 7", "", "-", "--", "2,18", "x",
             "count", "verify"]
NUMBER_WORDS = st.integers(0, 20).map(str)
PARSE_WORDS = st.one_of(*[NUMBER_WORDS] * 4, st.sampled_from(ODD_WORDS))
FORMAT_WORDS = st.one_of(st.sampled_from(["plain", "json", "csv", "xml"]), PARSE_WORDS)


@st.composite
def parse_argvs(draw):
    """An argv near the canonical form: a command, about its number of
    positionals, then options, mostly its own, with about the number of
    words each takes; or any list of words."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(st.one_of(PARSE_WORDS, st.sampled_from(list(ARGV_SHAPES))),
                             max_size=8))
    command = draw(st.sampled_from(list(ARGV_SHAPES)))
    npos, options = ARGV_SHAPES[command]
    npos = draw(st.sampled_from([npos] * 6 + [npos - 1, npos + 1, 0]))
    argv = [command] + draw(st.lists(PARSE_WORDS, min_size=npos, max_size=npos))
    names = st.sampled_from(list(options))
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.one_of(*[names] * 6, st.sampled_from(ODD_WORDS)))
        width = options.get(name, 1) + draw(st.sampled_from([0] * 8 + [-1, 1]))
        words = FORMAT_WORDS if name == "--format" else PARSE_WORDS
        argv += [name] + draw(st.lists(words, min_size=max(width, 0), max_size=max(width, 0)))
    return argv


@settings(max_examples=500, deadline=None)
@given(parse_argvs())
def test_the_table_parse_agrees_with_argparse(argv):
    fast = cli._parse_canonical(argv)
    if fast is not None:
        with contextlib.redirect_stderr(io.StringIO()):  # a refusal fails the test
            reference = cli.build_parser().parse_args(argv)
        assert vars(fast) == vars(reference)


# --- start-up --------------------------------------------------------------

# Which modules importing the CLI loads, checked in a fresh process.
IMPORT_GUARD = ("import sys, ranktwo.cli; "
                "assert not {'argparse', 'dataclasses', 'inspect', 'json'} & set(sys.modules); "
                "assert {'ranktwo.goursat', 'ranktwo.oracle'} <= set(sys.modules)")


def test_importing_the_cli_loads_no_dataclasses_inspect_or_json():
    # dataclasses pulls in inspect, ast and dis: about 10 ms of every one-shot
    # call.  argparse is imported only to parse an argv the option table does
    # not.  verify imports json itself, and still works after the import.
    proc = python("-c", IMPORT_GUARD + "; sys.exit(ranktwo.cli.main(['verify', '2', '2', "
                  "'--format', 'json']))")
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")
    assert json.loads(out) == {
        "pairs": [{"ambient": [2, 2], "subgroups": 5, "mismatches": []}],
        "total_mismatches": 0,
    }
