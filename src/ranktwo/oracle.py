"""Brute-force subgroup enumeration used to cross-validate everything else.

A set of points of Z_m x Z_n is held as an int, bit x*n + y standing for
(x, y): union is |, a subset test is an AND, the order is the bit count.
Translating by (tx, ty) rotates each row by ty, through a mask of the
points with y < n - ty that is built once per group, then rotates the
rows by tx, a handful of big-int operations whatever the set's size.  A
span h + <s> of a subgroup h doubles h + {0..k-1}*s to h + {0..2k-1}*s
until the shift by k*s adds nothing, so it takes about log2 of the index
shifts.

The ambient group has rank at most two, so every subgroup is C1 + C2 for two
cyclic subgroups.  `brute_subgroups` spans each cyclic subgroup once from
its lowest point, then forms C1 + <g2> for every pair where neither contains
the other.  Each sum also marks the g2 that give it with C1, its cosets
C1 + k*g2 with k prime to the index, and a marked g2 is skipped.
`classify` proves a set closed by growing a greedy span inside it: the
lowest point not yet spanned spans with it, and a point outside the set
refutes closure at once.  Neither uses any result of the tuple enumeration
or the closed-form counters.  Both are thin wrappers over the masks, which
`cross_check` uses end to end.

`cross_check` classifies the brute-force subgroups into one table of facts
(total, by order, by type, cyclic) and diffs it key by key against the same
table from the paper's divisor sums and from `build_table`, then compares
the subgroups themselves, as masks, with the tuple enumeration's.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple

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
# Largest bound `verify --bound` accepts, and the largest group `classify`
# takes.  Brute force holds every subgroup as an m*n-bit mask at once; at
# m*n <= 4096 the pair with the most subgroups, Z_60 x Z_60 (720), takes
# about 0.3 s of `verify 60 60` and 16 MB peak (2-vCPU x86, Python 3.11).
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


class _Grid:
    """Z_m x Z_n, m*n <= bound, with a set of points as an int: bit x*n + y
    is (x, y)."""

    __slots__ = ("m", "n", "size", "full", "rows", "_low")

    def __init__(self, m: int, n: int, bound: int = MAX_BOUND) -> None:
        check_nat(m, "m")
        check_nat(n, "n")
        if m * n > bound:
            raise BoundExceededError(f"m*n = {m * n} exceeds bound {bound}")
        self.m, self.n, self.size = m, n, m * n
        self.full = (1 << self.size) - 1
        self.rows = self.full // ((1 << n) - 1)  # bit x*n of every row x
        self._low: dict[int, int] = {}  # ty -> the points with y < n - ty

    def shift(self, s: int, tx: int, ty: int) -> int:
        """s translated by (tx, ty), for 0 <= tx < m and 0 <= ty < n: each row
        rotates by ty, then the rows rotate by tx."""
        n = self.n
        if ty:
            low = self._low.get(ty)
            if low is None:
                low = self._low[ty] = self.rows * ((1 << (n - ty)) - 1)
            kept = s & low
            s = (kept << ty) | ((s ^ kept) >> (n - ty))
        if tx:
            k = tx * n
            s = ((s << k) & self.full) | (s >> (self.size - k))
        return s

    def span(self, h: int, sx: int, sy: int, outside: int = 0) -> int:
        """h + <(sx, sy)> for a subgroup h.  h + {0..k-1}*(sx, sy) doubles to
        h + {0..2k-1}*(sx, sy) until the shift by k*(sx, sy) adds nothing:
        then k*(sx, sy), and so every multiple, is in the span.  Raises
        ValueError when a new point lies in outside."""
        m, n = self.m, self.n
        k, tx, ty = 1, sx, sy
        while (block := self.shift(h, tx, ty)) != h:
            if escaped := block & outside:
                px, py = divmod(_lowest(escaped), n)
                raise ValueError(
                    f"not a subgroup: {(px, py)} = ({(px - tx) % m},{(py - ty) % n})"
                    f" + {k}*({sx},{sy}) escapes the set"
                )
            h |= block
            k, tx, ty = 2 * k, 2 * tx % m, 2 * ty % n
        return h

    def encode(self, points: Iterable[tuple[int, int]]) -> int:
        n = self.n
        bits = bytearray(b"0") * self.size
        for x, y in points:
            bits[x * n + y] = 49  # "1"
        return int(bits[::-1], 2)

    def decode(self, s: int) -> ElementSet:
        n = self.n
        bits = bin(s)[:1:-1]  # bit p at index p
        pts = []
        p = bits.find("1")
        while p >= 0:
            pts.append(divmod(p, n))
            p = bits.find("1", p + 1)
        return ElementSet((self.m, n), tuple(pts))


def _lowest(s: int) -> int:
    """The lowest set bit of s > 0."""
    return (s & -s).bit_length() - 1


def _primes(k: int) -> Iterator[int]:
    """The prime divisors of k >= 1, by trial division."""
    p = 2
    while k > 1:
        if p * p > k:
            p = k
        if k % p == 0:
            yield p
            while k % p == 0:
                k //= p
        p += 1


def _sum(g: _Grid, h: int, x: int, y: int) -> tuple[int, int]:
    """The subgroup h + <(x, y)>, and the points that generate it with h:
    its cosets h + k*(x, y) with k prime to the index, which is the sum less
    the sums h + <p*(x, y)> for the primes p dividing the index."""
    total = g.span(h, x, y)
    gens = total
    for p in _primes(total.bit_count() // h.bit_count()):
        gens ^= gens & g.span(h, p * x % g.m, p * y % g.n)
    return total, gens


def _brute_masks(g: _Grid) -> set[int]:
    """Every subgroup of g's group, as a mask."""
    # cyclic subgroups: span the lowest point not yet marked, and mark every
    # generator of that span
    cyclics: list[tuple[int, int]] = []
    unmarked = g.full
    while unmarked:
        gen = _lowest(unmarked)
        c, gens = _sum(g, 1, *divmod(gen, g.n))
        unmarked ^= gens
        cyclics.append((gen, c))

    # C1 + C2 for each pair where neither holds the other's generator.  A g2
    # that generates an already formed C1 + <g2'> with C1 makes no new sum
    found = {c for _, c in cyclics}
    for i, (g1, c1) in enumerate(cyclics):
        skip = c1
        for g2, c2 in cyclics[i + 1:]:
            if skip >> g2 & 1 or c2 >> g1 & 1:
                continue
            total, gens = _sum(g, c1, *divmod(g2, g.n))
            skip |= gens
            found.add(total)
    return found


def brute_subgroups(
    m: int, n: int, bound: int = DEFAULT_BOUND
) -> set[ElementSet]:
    """All subgroups of Z_m x Z_n as sums of two cyclic subgroups."""
    g = _Grid(m, n, bound)
    return {g.decode(s) for s in _brute_masks(g)}


def _classify(g: _Grid, s: int) -> tuple[int, int, TypeKey]:
    """classify on the mask s; see there."""
    m, n = g.m, g.n
    if not s & 1:
        raise ValueError("not a subgroup: missing (0, 0)")
    outside = g.full ^ s
    span = 1
    exponent = 1
    while rest := s ^ span:
        sx, sy = divmod(_lowest(rest), n)
        span = g.span(span, sx, sy, outside)
        exponent = lcm(exponent, _element_order(sx, sy, m, n))
    order = s.bit_count()
    return order, exponent, TypeKey(order // exponent, exponent)


def classify(s: ElementSet) -> tuple[int, int, TypeKey]:
    """Order, exponent, and isomorphism type Z_u x Z_v of an explicit subgroup.

    Grows a span H from {(0, 0)}: the lowest point p of s outside H makes H
    the span H + <p>, the cosets H + k*p up to the first multiple of p in
    H.  A new point outside s refutes closure; if none appears, H = s, so s
    is a subgroup generated by the points that grew H, and its exponent is
    the lcm of their orders.  The ambient group may have at most MAX_BOUND
    points; a larger one raises BoundExceededError.
    """
    m, n = s.ambient
    g = _Grid(m, n)
    return _classify(g, g.encode(s.elements))


def cross_check(m: int, n: int, bound: int = DEFAULT_BOUND) -> OracleReport:
    """Diff brute force's counts against the paper's and build_table's, and
    its subgroups against the tuple enumeration's.

    Each side gives four facts, total, by order, by type and cyclic, as
    dicts; a scalar sits under the key None.  The oracle and paper sides
    hold no zero counts.  Each fact is compared over the union of both
    sides' keys, so a key on one side only, even with a count of 0, is a
    mismatch with None on the other.
    """
    g = _Grid(m, n, bound)
    brute = _brute_masks(g)

    by_order: dict[int, int] = {}
    by_type: dict[TypeKey, int] = {}
    for s in brute:
        order, _, key = _classify(g, s)
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

    enumerated = {g.encode(materialize(m, n, t).elements)
                  for t in enumerate_tuples(m, n)}
    if enumerated != brute:
        missing = sorted(s.bit_count() for s in brute - enumerated)
        extra = sorted(s.bit_count() for s in enumerated - brute)
        mismatches.append(("element_sets", None, f"missing orders {missing}",
                           f"extra orders {extra}"))

    return OracleReport((m, n), len(brute), mismatches)
