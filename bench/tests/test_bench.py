"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

Run from the repository root; the client tests import ranktwo from src/.
"""

from __future__ import annotations

import json
import sys
from math import gcd
from pathlib import Path

import pytest
import sympy

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import client  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stream_is_deterministic_per_seed(workload):
    first = workloads.stream(workload, 7, 40)
    assert first == workloads.stream(workload, 7, 40)
    assert first != workloads.stream(workload, 8, 40)
    assert len(first) == 40


def test_reference_matches_the_paper_example():
    t = reference.subgroup_table(12, 18)
    assert t["total"] == 80
    assert t["cyclic"] == 48
    assert t["by_order"][6] == 12
    assert t["by_type"][(2, 18)] == 3


@pytest.mark.parametrize("m,n", [(1, 1), (8, 12), (30, 42), (64, 27), (360, 1260)])
def test_reference_total_is_the_gcd_double_sum(m, n):
    gcd_sum = sum(gcd(i, j) for i in sympy.divisors(m) for j in sympy.divisors(n))
    t = reference.subgroup_table(m, n)
    assert t["total"] == reference.total(m, n) == gcd_sum
    assert sum(t["by_order"].values()) == t["total"]


@pytest.mark.parametrize("p,a,b", [(2, 3, 5), (3, 2, 2), (1000003, 1, 2), (5, 0, 4)])
def test_birkhoff_types_sum_to_the_local_total(p, a, b):
    assert sum(reference.local_types(p, a, b).values()) == reference.local_total(p, a, b)


def _table_request(argv):
    return {"kind": "cli", "argv": argv, "expect": workloads._table_expect(12, 18)}


@pytest.mark.parametrize("fmt,golden", [("plain", "txt"), ("json", "json"), ("csv", "csv")])
def test_checker_accepts_the_golden_table_and_flags_a_corrupted_one(fmt, golden):
    out = (ROOT / "tests" / "golden" / f"table_12_18.{golden}").read_text()
    req = _table_request(["table", "12", "18", "--format", fmt])
    assert check.check(req, out, 0) is None
    # one by-type count moved from 3 to 4: totals still parse, the rows do not match
    corrupted = out.replace("Z_2 x Z_18: 3", "Z_2 x Z_18: 4").replace(
        '"a": 2, "b": 18, "count": 3', '"a": 2, "b": 18, "count": 4').replace(
        "type,2x18,3", "type,2x18,4")
    assert corrupted != out
    assert check.check(req, corrupted, 0) is not None
    assert check.check(req, out, 2) is not None


def test_checker_flags_wrong_counts_and_records():
    req = {"kind": "cli", "argv": ["count", "12", "18"], "expect": {"count": 80}}
    assert check.check(req, "80\n", 0) is None
    assert check.check(req, "81\n", 0) is not None
    req = {"kind": "cli", "argv": ["verify", "12", "18"], "expect": {"subgroups": 80}}
    assert check.check(req, "OK, 80 subgroups, 0 mismatches\n", 0) is None
    assert check.check(req, "OK, 79 subgroups, 0 mismatches\n", 0) is not None
    req = {"kind": "roundtrip", "m": 4, "n": 4, "tuple": [4, 4, 4, 4, 1]}
    assert check.check(req, "[4, 4, 4, 4, 1]", 0) is None
    assert check.check(req, "[4, 2, 4, 2, 1]", 0) is not None


def test_self_times_on_a_synthetic_span_tree():
    # 0 [0, 100) has children 1 [10, 40) and 3 [50, 90); 1 has child 2 [20, 25)
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 25, 90]
    assert spans.self_times(parents, starts, ends) == [30, 25, 5, 40]


def test_per_layer_shares_come_from_self_times():
    summary = {"self_s": {"counting.build_table": 1.0, "arith.divisors": 3.0, "cli.main": 0.5},
               "counts": {"arith.divisors.calls": 10}, "divisors_distinct": 4}
    out = spans.per_layer(summary, requests=5, request_s=5.0)
    assert out["arith.share"] == (0.6, "frac")
    assert out["counting.self_s"] == (0.2, "s/req")
    assert out["arith.divisors.distinct_frac"] == (0.4, "frac")
    assert out["goursat.self_s"] == (0.0, "s/req")


def test_times_scale_by_the_local_host_speed():
    ref = speed.REF_S
    # the host runs at reference speed, then at half of it
    probes = [ref] * 6 + [2 * ref] * 5
    scaled = speed.scale([1.0] * 10, probes)
    assert scaled[0] == 1.0
    assert scaled[-1] == 0.5
    assert all(0.5 <= t <= 1.0 for t in scaled)


def _write(path, reqs):
    path.write_text("".join(json.dumps(r) + "\n" for r in reqs))


def test_stopped_over_limit_request_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    reqs = [
        {"kind": "cli", "argv": ["count", "12", "18"], "expect": {"count": 80}},
        {"kind": "cli", "argv": ["count", "18446744073709551557", "1"], "expect": {"count": 2}},
    ]
    _write(tmp_path / "reqs.jsonl", reqs)
    result = client.run(tmp_path / "reqs.jsonl", seconds=60, limit=0.2, trace_out=None)
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert result["timeouts"] == 1
    assert result["wrong_count"] == 0
    assert 0.2 <= result["busy_s"] < 5


def test_traced_client_nests_spans_across_modules(tmp_path):
    import subprocess

    reqs = [{"kind": "cli", "argv": ["table", "12", "18"], "expect": workloads._table_expect(12, 18)}]
    _write(tmp_path / "reqs.jsonl", reqs)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "client.py"), "--requests", str(tmp_path / "reqs.jsonl"),
         "--seconds", "10", "--limit", "5", "--trace-out", str(tmp_path / "spans.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["wrong_count"] == 0
    counts = result["trace"]["counts"]
    assert counts["cli.main.calls"] == counts["counting.build_table.calls"] == 1
    assert counts["counting.count_by_type.calls"] > 0
    log = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    names = {s["span"]: s["name"] for s in log}
    parent_of = {s["name"]: names.get(s["parent"]) for s in log}
    assert parent_of["counting.build_table"] == "cli.main"
    assert parent_of["counting.count_by_type"] == "counting.build_table"
    assert parent_of["cli.main"] is None
