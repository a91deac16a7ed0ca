"""Brute-force subgroup enumeration used to cross-validate everything else.

Subgroups of Z_m x Z_n are found by closing generator pairs under addition:
since the ambient group has rank at most two, every subgroup is generated by
at most two elements, so closing each (cyclic subgroup, extra element) pair
finds them all.  No results from the tuple enumeration or the closed-form
counters are used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .counting import (
    TypeKey,
    build_table,
    count_by_order,
    count_by_type,
    count_cyclic,
    count_total,
)
from .goursat import ElementSet, InvariantPair, enumerate_tuples, materialize
from .arith import check_nat, divisors

DEFAULT_BOUND = 400


class BoundExceededError(ValueError):
    """The ambient group is too large for brute-force enumeration."""


@dataclass
class OracleReport:
    ambient: tuple[int, int]
    subgroup_count: int
    by_order: dict[int, int]
    by_type: dict[TypeKey, int]
    cyclic_count: int
    mismatches: list[tuple[str, object, object, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _element_order(x: int, y: int, m: int, n: int) -> int:
    return lcm(m // gcd(x, m), n // gcd(y, n))


def brute_subgroups(
    m: int, n: int, bound: int = DEFAULT_BOUND
) -> set[ElementSet]:
    """All subgroups of Z_m x Z_n by exhaustive generator-pair closure."""
    check_nat(m, "m")
    check_nat(n, "n")
    if m * n > bound:
        raise BoundExceededError(f"m*n = {m * n} exceeds bound {bound}")

    # elements encoded as x*n + y; precomputed addition table keeps the
    # closure loops cheap
    size = m * n
    add = [
        [((x1 + x2) % m) * n + (y1 + y2) % n for x2 in range(m) for y2 in range(n)]
        for x1 in range(m)
        for y1 in range(n)
    ]

    # cyclic subgroups first: one closure per element, deduplicated
    cyclics: set[frozenset[int]] = set()
    for g in range(size):
        pts = set()
        c = 0
        while c not in pts:
            pts.add(c)
            c = add[c][g]
        cyclics.add(frozenset(pts))

    # then extend each cyclic subgroup by every second generator; every
    # subgroup of a rank-two ambient group needs at most two generators
    found: set[frozenset[int]] = set(cyclics)
    for base in cyclics:
        # generators in the same coset of the base generate the same subgroup
        seen = set(base)
        for g in range(size):
            if g in seen:
                continue
            row_g = add[g]
            seen.update(row_g[p] for p in base)
            pts = set(base)
            c = g
            while c not in base:
                row = add[c]
                pts.update(row[p] for p in base)
                c = add[c][g]
            found.add(frozenset(pts))

    return {
        ElementSet.from_iterable(m, n, (divmod(p, n) for p in pts))
        for pts in found
    }


def classify(s: ElementSet) -> tuple[int, int, InvariantPair]:
    """Order, exponent, and invariant factor pair of an explicit subgroup."""
    m, n = s.ambient
    pts = set(s.elements)
    if (0, 0) not in pts:
        raise ValueError("not a subgroup: missing (0, 0)")
    for x1, y1 in pts:
        for x2, y2 in pts:
            if ((x1 + x2) % m, (y1 + y2) % n) not in pts:
                raise ValueError(
                    f"not a subgroup: ({x1},{y1}) + ({x2},{y2}) escapes the set"
                )
    order = len(pts)
    exponent = 1
    for x, y in pts:
        exponent = lcm(exponent, _element_order(x, y, m, n))
    return order, exponent, InvariantPair(order // exponent, exponent)


def cross_check(m: int, n: int, bound: int = DEFAULT_BOUND) -> OracleReport:
    """Compare brute force against the tuple enumeration, every counter and build_table."""
    brute = brute_subgroups(m, n, bound)

    by_order: dict[int, int] = {}
    by_type: dict[TypeKey, int] = {}
    cyclic = 0
    for s in brute:
        order, _, inv = classify(s)
        by_order[order] = by_order.get(order, 0) + 1
        key = TypeKey(inv.u, inv.v)
        by_type[key] = by_type.get(key, 0) + 1
        if inv.u == 1:
            cyclic += 1

    report = OracleReport(
        ambient=(m, n),
        subgroup_count=len(brute),
        by_order=by_order,
        by_type=by_type,
        cyclic_count=cyclic,
    )

    def mismatch(side, key, expected, actual):
        report.mismatches.append((side, key, expected, actual))

    total = count_total(m, n)
    if total != len(brute):
        mismatch("total", None, len(brute), total)

    for delta in divisors(m * n):
        expected = by_order.get(delta, 0)
        actual = count_by_order(m, n, delta)
        if expected != actual:
            mismatch("by_order", delta, expected, actual)

    type_keys = set(by_type)
    for A in divisors(gcd(m, n)):
        for B in divisors(m * n // A):
            if B % A == 0:
                type_keys.add(TypeKey(A, B))
    for key in sorted(type_keys):
        expected = by_type.get(key, 0)
        actual = count_by_type(m, n, key)
        if expected != actual:
            mismatch("by_type", (key.A, key.B), expected, actual)

    actual_cyclic = count_cyclic(m, n)
    if cyclic != actual_cyclic:
        mismatch("cyclic", None, cyclic, actual_cyclic)

    # the per-prime engine behind `table` and `count`, compared as whole tables
    table = build_table(m, n)
    if table.total != len(brute):
        mismatch("table_total", None, len(brute), table.total)
    table_types = {(k.A, k.B): c for k, c in table.by_type.items()}
    brute_types = {(k.A, k.B): c for k, c in by_type.items()}
    for side, expected, actual in (("table_by_order", by_order, table.by_order),
                                   ("table_by_type", brute_types, table_types)):
        for key in sorted(expected.keys() | actual.keys()):
            if expected.get(key) != actual.get(key):
                mismatch(side, key, expected.get(key), actual.get(key))
    if table.cyclic_total != cyclic:
        mismatch("table_cyclic", None, cyclic, table.cyclic_total)

    enumerated = {materialize(m, n, t) for t in enumerate_tuples(m, n)}
    if enumerated != brute:
        missing = sorted(len(s) for s in brute - enumerated)
        extra = sorted(len(s) for s in enumerated - brute)
        mismatch("element_sets", None, f"missing orders {missing}", f"extra orders {extra}")

    return report
