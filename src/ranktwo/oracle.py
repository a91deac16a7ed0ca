"""Brute-force subgroup enumeration used to cross-validate everything else.

The ambient group has rank at most two, so every subgroup is C1 + C2 for two
cyclic subgroups.  `brute_subgroups` steps each cyclic subgroup once from one
generator, then forms C1 + C2 for every pair where neither contains the
other, as the cosets C1 + k*g2 up to the first multiple of g2 inside C1.
`classify` proves a set closed by growing a greedy span inside it: each point
not yet spanned adds the cosets of the span along its multiples, and a point
outside the set refutes closure at once.  Neither uses any result of the
tuple enumeration or the closed-form counters.

`cross_check` classifies the brute-force subgroups into one table of facts
(total, by order, by type, cyclic) and diffs it key by key against the same
table from the paper's divisor sums and from `build_table`, then compares
the subgroups themselves with the tuple enumeration's.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .counting import (
    TypeKey,
    build_table,
    count_by_order,
    count_by_type,
    count_cyclic,
    count_total,
)
from .goursat import ElementSet, enumerate_tuples, materialize
from .arith import check_nat, divisors

DEFAULT_BOUND = 400
# Largest bound `verify --bound` accepts.  Brute force holds every subgroup's
# points at once; at m*n <= 4096 the costliest pair, Z_60 x Z_60 (720
# subgroups), takes under a second of cross_check and about 32 MB.
MAX_BOUND = 4096


class BoundExceededError(ValueError):
    """The ambient group is too large for brute-force enumeration."""


class OracleReport(NamedTuple):
    """One pair's cross-check: each mismatch is (side, key, oracle, other)."""

    ambient: tuple[int, int]
    subgroup_count: int
    mismatches: list[tuple[str, object, object, object]]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _element_order(x: int, y: int, m: int, n: int) -> int:
    return lcm(m // gcd(x, m), n // gcd(y, n))


def brute_subgroups(
    m: int, n: int, bound: int = DEFAULT_BOUND
) -> set[ElementSet]:
    """All subgroups of Z_m x Z_n as sums of two cyclic subgroups."""
    check_nat(m, "m")
    check_nat(n, "n")
    if m * n > bound:
        raise BoundExceededError(f"m*n = {m * n} exceeds bound {bound}")

    # cyclic subgroups, elements encoded as x*n + y: step one generator g,
    # and mark every other generator k*g (gcd(k, ord g) = 1) as done
    cyclics: list[tuple[tuple[int, int], list[tuple[int, int]], frozenset[int]]] = []
    done: set[int] = set()
    for gx in range(m):
        for gy in range(n):
            if gx * n + gy in done:
                continue
            pts = [(0, 0)]
            x, y = gx, gy
            while x or y:
                pts.append((x, y))
                x, y = (x + gx) % m, (y + gy) % n
            order = len(pts)
            done.update(x * n + y for k, (x, y) in enumerate(pts) if gcd(k, order) == 1)
            cyclics.append(((gx, gy), pts, frozenset(x * n + y for x, y in pts)))

    # C1 + C2 is the union of the cosets C1 + k*g2 up to the first k*g2 in C1;
    # a g2 in a coset C1 + k*g2' with k prime to the index of C1 in C1 + <g2'>
    # generates that same sum with C1, so it is skipped
    found: set[frozenset[int]] = {codes for _, _, codes in cyclics}
    for i, ((g1x, g1y), pts1, codes1) in enumerate(cyclics):
        formed: set[int] = set()
        for (g2x, g2y), _, codes2 in cyclics[i + 1:]:
            g2 = g2x * n + g2y
            if g2 in codes1 or g2 in formed or g1x * n + g1y in codes2:
                continue
            cosets = []
            tx, ty = g2x, g2y
            while tx * n + ty not in codes1:
                cosets.append([((x + tx) % m) * n + (y + ty) % n for x, y in pts1])
                tx, ty = (tx + g2x) % m, (ty + g2y) % n
            index = len(cosets) + 1
            for k, coset in enumerate(cosets, 1):
                if gcd(k, index) == 1:
                    formed.update(coset)
            found.add(codes1.union(*cosets))

    return {
        ElementSet.from_iterable(m, n, (divmod(p, n) for p in pts))
        for pts in found
    }


def classify(s: ElementSet) -> tuple[int, int, TypeKey]:
    """Order, exponent, and isomorphism type Z_u x Z_v of an explicit subgroup.

    Grows a span H from {(0, 0)}: each point of s outside H adds the cosets
    H + k*s up to the first multiple of s inside H.  A new point outside s
    refutes closure; if none appears, H = s, so s is a subgroup generated by
    the points that grew H, and its exponent is the lcm of their orders.
    """
    m, n = s.ambient
    pts = set(s.elements)
    if (0, 0) not in pts:
        raise ValueError("not a subgroup: missing (0, 0)")
    span = [(0, 0)]
    spanned = {(0, 0)}
    exponent = 1
    for sx, sy in s.elements:
        if (sx, sy) in spanned:
            continue
        grown = []
        k, tx, ty = 1, sx, sy
        while (tx, ty) not in spanned:
            for hx, hy in span:
                p = ((hx + tx) % m, (hy + ty) % n)
                if p not in pts:
                    raise ValueError(
                        f"not a subgroup: {p} = ({hx},{hy}) + {k}*({sx},{sy}) "
                        "escapes the set"
                    )
                grown.append(p)
            k, tx, ty = k + 1, (tx + sx) % m, (ty + sy) % n
        span.extend(grown)
        spanned.update(grown)
        exponent = lcm(exponent, _element_order(sx, sy, m, n))
    order = len(pts)
    return order, exponent, TypeKey(order // exponent, exponent)


def cross_check(m: int, n: int, bound: int = DEFAULT_BOUND) -> OracleReport:
    """Diff brute force's counts against the paper's and build_table's, and
    its subgroups against the tuple enumeration's.

    Each side gives four facts, total, by order, by type and cyclic, as
    dicts; a scalar sits under the key None.  The oracle and paper sides
    hold no zero counts.  Each fact is compared over the union of both
    sides' keys, so a key on one side only, even with a count of 0, is a
    mismatch with None on the other.
    """
    brute = brute_subgroups(m, n, bound)

    by_order: dict[int, int] = {}
    by_type: dict[TypeKey, int] = {}
    for s in brute:
        order, _, key = classify(s)
        by_order[order] = by_order.get(order, 0) + 1
        by_type[key] = by_type.get(key, 0) + 1
    cyclic = sum(cnt for key, cnt in by_type.items() if key.A == 1)
    oracle_facts = ({None: len(brute)}, by_order, by_type, {None: cyclic})

    types = (TypeKey(A, B) for A in divisors(gcd(m, n))
             for B in divisors(m * n // A) if B % A == 0)
    paper = (
        {None: count_total(m, n)},
        {d: cnt for d in divisors(m * n) if (cnt := count_by_order(m, n, d))},
        {key: cnt for key in types if (cnt := count_by_type(m, n, key))},
        {None: count_cyclic(m, n)},
    )
    # the per-prime engine behind `table` and `count`
    table = build_table(m, n)
    engine = ({None: table.total}, table.by_order, table.by_type,
              {None: table.cyclic_total})

    mismatches = []
    for prefix, facts in (("", paper), ("table_", engine)):
        for name, expected, actual in zip(("total", "by_order", "by_type", "cyclic"),
                                          oracle_facts, facts):
            for key in sorted(expected.keys() | actual.keys()):
                if expected.get(key) != actual.get(key):
                    # verify prints a key with str(); a TypeKey would print as
                    # TypeKey(A=.., B=..), so type keys are reported as plain (A, B)
                    shown = tuple(key) if isinstance(key, TypeKey) else key
                    mismatches.append((prefix + name, shown, expected.get(key),
                                       actual.get(key)))

    enumerated = {materialize(m, n, t) for t in enumerate_tuples(m, n)}
    if enumerated != brute:
        missing = sorted(len(s) for s in brute - enumerated)
        extra = sorted(len(s) for s in enumerated - brute)
        mismatches.append(("element_sets", None, f"missing orders {missing}",
                           f"extra orders {extra}"))

    return OracleReport((m, n), len(brute), mismatches)
