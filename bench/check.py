"""Check one request's output against its reference answer.

Runs inside the client process, which must not import sympy, so the
reference numbers arrive precomputed in each request's "expect" field.
`check` returns None when the output agrees and a one-line reason when it
does not.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re


def table_digest(by_order: dict[int, int], by_type: dict[tuple[int, int], int]) -> str:
    """Canonical fingerprint of a table's rows; reference and checker share it."""
    rows = [f"o{k}:{v}" for k, v in sorted(by_order.items())]
    rows += [f"t{a},{b}:{v}" for (a, b), v in sorted(by_type.items())]
    return hashlib.sha256(";".join(rows).encode()).hexdigest()


def _fmt(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "plain"


def _csv_rows(out: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out)))


def _parse_count(out: str, fmt: str) -> int:
    if fmt == "json":
        return json.loads(out)["count"]
    if fmt == "csv":
        header, row = _csv_rows(out)
        if header != ["count"]:
            raise ValueError(f"bad csv header {header}")
        return int(row[0])
    return int(out)


_TYPE_RE = re.compile(r"Z_(\d+)(?: x Z_(\d+))?")


def _parse_table(out: str, fmt: str) -> dict:
    """Parse a `table` output into total, cyclic, noncyclic, by_order, by_type."""
    by_order: dict[int, int] = {}
    by_type: dict[tuple[int, int], int] = {}
    head: dict[str, int] = {}
    if fmt == "json":
        doc = json.loads(out)
        head = {k: doc[k] for k in ("total", "cyclic", "noncyclic")}
        by_order = {r["order"]: r["count"] for r in doc["by_order"]}
        by_type = {(r["a"], r["b"]): r["count"] for r in doc["by_type"]}
    elif fmt == "csv":
        rows = _csv_rows(out)
        if rows[0] != ["row", "key", "count"]:
            raise ValueError(f"bad csv header {rows[0]}")
        for kind, key, cnt in rows[1:]:
            if kind == "order":
                by_order[int(key)] = int(cnt)
            elif kind == "type":
                a, b = key.split("x")
                by_type[(int(a), int(b))] = int(cnt)
            else:
                head[kind] = int(cnt)
    else:
        section = None
        for line in out.splitlines()[1:]:
            if line in ("by order:", "by type:"):
                section = line
                continue
            key, cnt = line.strip().rsplit(": ", 1)
            if section is None:
                head[key] = int(cnt)
            elif section == "by order:":
                by_order[int(key)] = int(cnt)
            else:
                a, b = _TYPE_RE.fullmatch(key).groups()
                by_type[(1, int(a)) if b is None else (int(a), int(b))] = int(cnt)
    return {**head, "by_order": by_order, "by_type": by_type}


_ENUM_RE = re.compile(r"\(\d+,\d+,\d+,\d+,\d+\) order=(\d+) .*invariants=\((\d+),(\d+)\)")


def _parse_enumerate(out: str, fmt: str) -> list[tuple[int, int, int]]:
    """(order, u, v) of every listed subgroup."""
    if fmt == "json":
        return [(r["order"], *r["invariants"]) for r in json.loads(out)["subgroups"]]
    if fmt == "csv":
        rows = _csv_rows(out)
        cols = {name: i for i, name in enumerate(rows[0])}
        return [
            (int(r[cols["order"]]), int(r[cols["inv_u"]]), int(r[cols["inv_v"]]))
            for r in rows[1:]
        ]
    records = []
    for line in out.splitlines():
        match = _ENUM_RE.match(line)
        if match is None:
            raise ValueError(f"unparsable line {line[:60]!r}")
        records.append(tuple(int(g) for g in match.groups()))
    return records


def _parse_verify(out: str, fmt: str) -> tuple[int, int]:
    """(subgroups, mismatches) of a single-pair `verify`."""
    if fmt == "json":
        doc = json.loads(out)
        (pair,) = doc["pairs"]
        return pair["subgroups"], doc["total_mismatches"]
    if fmt == "csv":
        header, row = _csv_rows(out)
        if header != ["m", "n", "subgroups", "mismatches"]:
            raise ValueError(f"bad csv header {header}")
        return int(row[2]), int(row[3])
    match = re.fullmatch(r"OK, (\d+) subgroups, (\d+) mismatches\n", out)
    if match is None:
        raise ValueError(f"unexpected verify output {out[:60]!r}")
    return int(match[1]), int(match[2])


def _check_table(out: str, fmt: str, expect: dict) -> str | None:
    t = _parse_table(out, fmt)
    total = t["total"]
    if total != expect["total"]:
        return f"total {total} != reference {expect['total']}"
    if t["cyclic"] != expect["cyclic"]:
        return f"cyclic {t['cyclic']} != reference {expect['cyclic']}"
    if t["cyclic"] + t["noncyclic"] != total:
        return "cyclic + noncyclic != total"
    if sum(t["by_order"].values()) != total:
        return "sum of by_order != total"
    if sum(t["by_type"].values()) != total:
        return "sum of by_type != total"
    if table_digest(t["by_order"], t["by_type"]) != expect["digest"]:
        return "by_order/by_type rows differ from the reference table"
    return None


def _check_enumerate(out: str, fmt: str, expect: dict) -> str | None:
    records = _parse_enumerate(out, fmt)
    if len(records) != expect["records"]:
        return f"{len(records)} records != reference {expect['records']}"
    if "digest" in expect:
        by_order: dict[int, int] = {}
        by_type: dict[tuple[int, int], int] = {}
        for order, u, v in records:
            by_order[order] = by_order.get(order, 0) + 1
            by_type[(u, v)] = by_type.get((u, v), 0) + 1
        if table_digest(by_order, by_type) != expect["digest"]:
            return "listed orders/types differ from the reference table"
    return None


def check(req: dict, out: str, code: int) -> str | None:
    """None if a request's result agrees with its reference, else the reason."""
    if req["kind"] == "roundtrip":
        return None if out == str(req["tuple"]) else f"find_tuple gave {out}"
    if code != 0:
        return f"exit code {code}"
    argv = req["argv"]
    fmt = _fmt(argv)
    expect = req["expect"]
    try:
        if argv[0] == "count":
            value = _parse_count(out, fmt)
            return None if value == expect["count"] else f"count {value} != reference {expect['count']}"
        if argv[0] == "table":
            return _check_table(out, fmt, expect)
        if argv[0] == "enumerate":
            return _check_enumerate(out, fmt, expect)
        if argv[0] == "verify":
            subgroups, mismatches = _parse_verify(out, fmt)
            if mismatches:
                return f"verify reported {mismatches} mismatches"
            return None if subgroups == expect["subgroups"] else f"verify found {subgroups} subgroups != reference {expect['subgroups']}"
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unparsable output: {exc!r}"
    return f"unknown command {argv[0]!r}"
