"""Brute-force subgroup enumeration used to cross-validate everything else.

A set of points of Z_m x Z_n is held as an int, bit x*n + y standing for
(x, y): union is |, a subset test is an AND, the order is the bit count.
Translating by (tx, ty) rotates each row by ty, through a mask of the
points with y < n - ty that is built once per group, then rotates the
rows by tx, a handful of big-int operations whatever the set's size.  A
span h + <s> of a subgroup h doubles h + {0..k-1}*s to h + {0..2k-1}*s
until the shift by k*s adds nothing, so it takes about log2 of the index
shifts.

By the structure theorem for finite abelian groups, a cyclic subgroup of
largest order is a direct summand, so every subgroup of this rank-two
group is C1 + C2 with |C2| dividing |C1|, its exponent.  `brute_subgroups`
spans each cyclic subgroup once from its lowest point and, largest order
first, forms C1 + <g2> for each later g2 whose order divides |C1|.  Each
sum also marks the g2 that give it with C1, its cosets C1 + k*g2 with k
prime to the index, and a marked g2 is skipped.  So each subgroup is typed
as it is formed, order N and exponent v as Z_{N/v} x Z_v.
`classify` types an explicit set on its own: it grows a greedy span inside
it, the lowest point not yet spanned spans with it, and the set is closed
exactly when no span leaves it.  Neither uses any result of the tuple
enumeration or the closed-form counters.

`cross_check` tallies the brute-force subgroups' total, types, cyclic
count and orders, a subgroup of order N and exponent v as type (N/v, v),
and diffs them key by key against the paper's total, by-type and cyclic
sums and against `build_table`; a type fixes its order, so orders are
diffed against `build_table` only.  It then checks, as masks, that the
tuple enumeration names each brute-force subgroup exactly once.  Each
tuple's mask is formed from its rows (`goursat._rows`, the paper's
{(i*m/a, i*l*n/c + j*n/d)} row by row), not from listed points, so the
expansion of rows into points is checked by the tests (the row masks
against the encoded `materialize` sets, `materialize` against the
paper's formula, and the `find_tuple` round trips), not by `cross_check`.
`_Grid.encode` serves only `classify`.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple

from .counting import (TypeKey, build_table, count_by_type, count_cyclic,
                       count_total)
from .goursat import ElementSet, GoursatTuple, _rows, enumerate_tuples
from .arith import check_nat

DEFAULT_BOUND = 400
# Largest bound `verify --bound` accepts, and the largest group `classify`
# takes.  Brute force holds every subgroup as an m*n-bit mask at once; at
# m*n <= 4096 the pair with the most subgroups, Z_60 x Z_60 (720), takes
# about 0.1 s of `verify 60 60` and 16 MB peak (2-vCPU x86, Python 3.11).
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

    def span(self, h: int, sx: int, sy: int) -> int:
        """h + <(sx, sy)> for a subgroup h.  h + {0..k-1}*(sx, sy) doubles to
        h + {0..2k-1}*(sx, sy) until the shift by k*(sx, sy) adds nothing:
        then k*(sx, sy), and so every multiple, is in the span."""
        m, n = self.m, self.n
        tx, ty = sx, sy
        while (block := self.shift(h, tx, ty)) != h:
            h |= block
            tx, ty = 2 * tx % m, 2 * ty % n
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


def _mask(g: _Grid, t: GoursatTuple) -> int:
    """The subgroup the valid tuple t names, as a mask, formed from its rows.

    A row is a column mask, a bit every n/d below n, shifted to the row's x
    and its least y.  The first e = a/b rows, P = e*(m/a)*n bits, repeat b
    times to fill the grid, so one multiply by the comb with a bit every P
    bits repeats them; the copies' bits are disjoint, so nothing carries.
    """
    n = g.n
    xstep, step, starts = _rows(g.m, n, t)
    col = ((1 << n) - 1) // ((1 << step) - 1)
    row = xstep * n
    head = 0
    for i, y0 in enumerate(starts):
        head |= col << (i * row + y0)
    return head * (g.full // ((1 << len(starts) * row) - 1))


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


def _brute_masks(g: _Grid) -> dict[int, int]:
    """Every subgroup of g's group, as a mask, with its exponent."""
    # cyclic subgroups: span the lowest point not yet marked, and mark every
    # generator of that span.  A cyclic subgroup's exponent is its order
    cyclics: list[tuple[int, int, int]] = []
    unmarked = g.full
    while unmarked:
        gen = _lowest(unmarked)
        c, gens = _sum(g, 1, *divmod(gen, g.n))
        unmarked ^= gens
        cyclics.append((gen, c, c.bit_count()))

    # C1 + <g2> for each later g2 whose order divides |C1|: of two of equal
    # order the first takes the second, and a marked g2 makes no new sum
    cyclics.sort(key=lambda c: -c[2])
    found = {c: order for _, c, order in cyclics}
    for i, (_, c1, o1) in enumerate(cyclics):
        skip = c1
        for g2, _, o2 in cyclics[i + 1:]:
            if o1 % o2 or skip >> g2 & 1:
                continue
            total, gens = _sum(g, c1, *divmod(g2, g.n))
            skip |= gens
            found[total] = o1
    return found


def brute_subgroups(m: int, n: int, bound: int = DEFAULT_BOUND) -> set[ElementSet]:
    """All subgroups of Z_m x Z_n as sums of two cyclic subgroups."""
    g = _Grid(m, n, bound)
    return {g.decode(s) for s in _brute_masks(g)}


def classify(s: ElementSet) -> tuple[int, int, TypeKey]:
    """Order, exponent, and isomorphism type Z_u x Z_v of an explicit subgroup.

    Grows a span H from {(0, 0)}: the lowest point p of s outside H makes H
    the span H + <p>, the cosets H + k*p up to the first multiple of p in
    H.  Each span is a sum of points of s, so a span that leaves s refutes
    closure; if none does, H = s, so s is a subgroup generated by the
    points that grew H, and its exponent is the lcm of their orders.  The
    ambient group may have at most MAX_BOUND points; a larger one raises
    BoundExceededError, and a point off the grid or listed twice ValueError.
    """
    m, n = s.ambient
    g = _Grid(m, n)
    seen = set()
    for p in s.elements:
        if not (0 <= p[0] < m and 0 <= p[1] < n):
            raise ValueError(f"{p} is not a point of Z_{m} x Z_{n}")
        if p in seen:
            raise ValueError(f"{p} is listed twice")
        seen.add(p)
    mask = g.encode(s.elements)
    if not mask & 1:
        raise ValueError("not a subgroup: missing (0, 0)")
    outside = g.full ^ mask
    span = 1
    exponent = 1
    while rest := mask ^ span:
        sx, sy = divmod(_lowest(rest), n)
        span = g.span(span, sx, sy)
        if escaped := span & outside:
            raise ValueError(f"not a subgroup: {divmod(_lowest(escaped), n)} is a sum"
                             f" of its points but lies outside it")
        exponent = lcm(exponent, _element_order(sx, sy, m, n))
    order = mask.bit_count()
    return order, exponent, TypeKey(order // exponent, exponent)


def cross_check(m: int, n: int, bound: int = DEFAULT_BOUND) -> OracleReport:
    """Diff brute force's counts against the paper's and build_table's, and
    its subgroups against the tuple enumeration's.

    Each fact is a dict; a scalar sits under the key None.  The oracle and
    paper sides hold no zero counts.  Each fact is compared over the union
    of both sides' keys, so a key on one side only, even with a count of 0,
    is a mismatch with None on the other.
    """
    g = _Grid(m, n, bound)
    brute = _brute_masks(g)

    # type (N/v, v) has order N, so by type settles by order with the paper
    by_type = Counter((s.bit_count() // v, v) for s, v in brute.items())
    total = {None: len(brute)}
    cyclic = {None: sum(cnt for (A, _), cnt in by_type.items() if A == 1)}
    # the per-prime engine behind `table` and `count`
    table = build_table(m, n)
    facts = [
        ("total", total, {None: count_total(m, n)}),
        ("by_type", by_type, count_by_type(m, n)),
        ("cyclic", cyclic, {None: count_cyclic(m, n)}),
        ("table_total", total, {None: table.total}),
        ("table_by_order", Counter(s.bit_count() for s in brute), table.by_order),
        ("table_by_type", by_type, table.by_type),
        ("table_cyclic", cyclic, {None: table.cyclic_total}),
    ]

    mismatches = []
    for side, expected, actual in facts:
        for key in sorted(expected.keys() | actual.keys()):
            if expected.get(key) != actual.get(key):
                # verify prints a key with str(); a TypeKey would print as
                # TypeKey(A=.., B=..), so type keys are reported as plain (A, B)
                shown = tuple(key) if isinstance(key, TypeKey) else key
                mismatches.append((side, shown, expected.get(key), actual.get(key)))

    # the tuples and the subgroups must be in bijection: each mask named once
    named = Counter(_mask(g, t) for t in enumerate_tuples(m, n))
    if named.keys() != brute.keys():
        missing = sorted(s.bit_count() for s in brute.keys() - named.keys())
        extra = sorted(s.bit_count() for s in named.keys() - brute.keys())
        mismatches.append(("element_sets", None, f"missing orders {missing}",
                           f"extra orders {extra}"))
    if twice := sorted(s.bit_count() for s, k in named.items() if k > 1):
        mismatches.append(("element_sets", None, "each named once",
                           f"orders named more than once {twice}"))

    return OracleReport((m, n), len(brute), mismatches)
