"""Subgroup enumeration for Z_m x Z_n via the 5-tuple parametrization.

Every subgroup of Z_m x Z_n corresponds to exactly one tuple (a, b, c, d, l)
with a | m, b | a, c | n, d | c, a/b = c/d, and 1 <= l <= a/b coprime to a/b.
This module enumerates those tuples, materializes the subgroup each one
names, classifies it (order, exponent, invariant factors, cyclicity), and
inverts the correspondence for an explicitly given subgroup.

The tuples are walked one block at a time.  A block is one (a, b, c, d): for
each a | m the walk takes the divisors e of n that divide a, e descending so
that b = a/e ascends, then the divisors c of n that e divides, c ascending,
with d = c/e.  It lists the divisors of m and of n once each and visits only
blocks that exist: with n = 1 it takes tau(m) steps.  A block's tuples are
the (a, b, c, d, l) with l a unit mod e.  For e <= UNITS_HEAD the units of e
are listed once per (a, b), and that list serves every block of the pair;
for a larger e each block draws its units lazily from 1, so e may be a
64-bit prime.  The subgroup's order a*d and its invariant factors gcd(b, d)
and lcm(a, c) depend only on the block, as does every generator coordinate
except the first generator's y = l*n/c mod n, so a caller that lists many
tuples computes them once per block.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import cycle
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple

from .arith import check_nat, divisors
from .counting import TypeKey


class TupleMembershipError(ValueError):
    """A 5-tuple violates one of the defining conditions for the ambient group."""


class NotASubgroupError(ValueError):
    """An element set is not closed under the group operation."""


class GoursatTuple(NamedTuple):
    """The tuple (a, b, c, d, l), compared and hashed as a plain tuple."""

    a: int
    b: int
    c: int
    d: int
    ell: int

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c},{self.d},{self.ell})"


class SubgroupDescriptor(NamedTuple):
    ambient: tuple[int, int]
    tuple: GoursatTuple
    order: int
    exponent: int
    invariants: TypeKey
    cyclic: bool
    generators: tuple[tuple[int, int], tuple[int, int]]


class ElementSet:
    """An explicit subgroup: sorted, deduplicated (x mod m, y mod n) pairs.

    __init__ takes the elements as given.  materialize and the oracle's
    _Grid.decode form them reduced, distinct and in order, so they build
    the set directly; from_iterable reduces, dedupes and sorts any other
    points.  Immutable, since the oracle hashes it into sets.  It equals
    only another ElementSet with the same ambient and elements, never a
    plain tuple.
    """

    __slots__ = ("ambient", "elements")

    ambient: tuple[int, int]
    elements: tuple[tuple[int, int], ...]

    def __init__(
        self, ambient: tuple[int, int], elements: tuple[tuple[int, int], ...]
    ) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "elements", elements)

    @classmethod
    def from_iterable(
        cls, m: int, n: int, points: Iterable[tuple[int, int]]
    ) -> "ElementSet":
        pts = sorted({(x % m, y % n) for x, y in points})
        return cls((m, n), tuple(pts))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: the default would set the
        # slots one by one, which __setattr__ refuses
        return ElementSet, (self.ambient, self.elements)

    def __eq__(self, other):
        if other.__class__ is not ElementSet:
            return NotImplemented
        return self.ambient == other.ambient and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.ambient, self.elements))

    def __repr__(self) -> str:
        return f"ElementSet(ambient={self.ambient!r}, elements={self.elements!r})"

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def check_membership(m: int, n: int, t: GoursatTuple) -> None:
    """Raise TupleMembershipError naming the first violated condition."""
    check_nat(m, "m")
    check_nat(n, "n")
    a, b, c, d, ell = t.a, t.b, t.c, t.d, t.ell
    for value, name in ((a, "a"), (b, "b"), (c, "c"), (d, "d"), (ell, "ell")):
        if value < 1:
            raise TupleMembershipError(f"{name} must be >= 1, got {value}")
    if m % a != 0:
        raise TupleMembershipError(f"a = {a} does not divide m = {m}")
    if a % b != 0:
        raise TupleMembershipError(f"b = {b} does not divide a = {a}")
    if n % c != 0:
        raise TupleMembershipError(f"c = {c} does not divide n = {n}")
    if c % d != 0:
        raise TupleMembershipError(f"d = {d} does not divide c = {c}")
    if a * d != b * c:
        raise TupleMembershipError(
            f"quotients differ: a/b = {a}/{b} but c/d = {c}/{d}"
        )
    e = a // b
    if t.ell > e:
        raise TupleMembershipError(f"ell = {ell} exceeds a/b = {e}")
    if gcd(ell, e) != 1:
        raise TupleMembershipError(f"ell = {ell} is not coprime to a/b = {e}")


# For e = a/b <= UNITS_HEAD the walk lists the units mod e once per (a, b), for
# every block of the pair; for a larger e each block draws its units lazily.
UNITS_HEAD = 2048


def _units(e: int) -> Iterator[int]:
    """The l in 1..e coprime to e, ascending.  Lazy: e may be a 64-bit prime."""
    return (ell for ell in range(1, e + 1) if gcd(ell, e) == 1)


def _blocks(m: int, n: int) -> Iterator[tuple[int, int, int, int, Iterable[int]]]:
    """Yield (a, b, c, d, units) for a | m, b = a/e for each e | n dividing
    a, and c | n divisible by e with d = c/e, lexicographic in (a, b, c).
    units iterates the block's l, the units mod e ascending: one list per
    (a, b) for e <= UNITS_HEAD, else a fresh _units(e) per block."""
    divs_n = divisors(n)
    for a in divisors(m):
        for e in reversed([e for e in divs_n if a % e == 0]):
            b = a // e
            listed = list(_units(e)) if e <= UNITS_HEAD else None
            for c in divs_n:
                if c % e == 0:
                    yield a, b, c, c // e, listed or _units(e)


def enumerate_tuples(m: int, n: int) -> Iterator[GoursatTuple]:
    """Yield every valid tuple for Z_m x Z_n, lexicographic in (a,b,c,d,ell)."""
    check_nat(m, "m")
    check_nat(n, "n")
    for a, b, c, d, units in _blocks(m, n):
        for ell in units:
            yield GoursatTuple(a, b, c, d, ell)


def _block_facts(m: int, n: int, a: int, b: int, c: int, d: int):
    """What every tuple of a valid block (a, b, c, d) shares: the order a*d,
    the exponent v = lcm(a, c), u = gcd(b, d) of the type Z_u x Z_v, the first
    generator's x = m/a mod m and y step n/c, and the second generator's
    y = n/d mod n.  The tuple with l has generators (m/a, l*n/c) and
    (0, n/d), mod (m, n)."""
    return a * d, lcm(a, c), gcd(b, d), (m // a) % m, n // c, (n // d) % n


def describe(m: int, n: int, t: GoursatTuple) -> SubgroupDescriptor:
    """Classify the subgroup named by t: order, exponent, type, generators."""
    check_membership(m, n, t)
    order, v, u, g1x, ystep, g2y = _block_facts(m, n, t.a, t.b, t.c, t.d)
    return SubgroupDescriptor(
        ambient=(m, n),
        tuple=t,
        order=order,
        exponent=v,
        invariants=TypeKey(u, v),
        cyclic=u == 1,
        generators=((g1x, t.ell * ystep % n), (0, g2y)),
    )


# materialize lists at most this many points, refusing a larger subgroup
# before it allocates: at about 96 bytes a point, 2^18 points take about
# 26 MB.  figure's largest group, 40 x 60, has 2,400.
MAX_POINTS = 1 << 18


def _rows(m: int, n: int, t: GoursatTuple) -> tuple[int, int, list[int]]:
    """The rows of the subgroup t names, for a valid t: the x step m/a, the
    y step n/d, and the least y of each of the first e = a/b rows.

    Row i, at x = i*m/a, is the coset i*l*n/c + <n/d> of Z_n, so it starts
    at i*l*n/c mod n/d.  Since e*l*n/c = l*n/d, row i + e starts where row
    i does: the a rows repeat these e starts b times.
    """
    step = n // t.d
    ystep = t.ell * (n // t.c)
    return m // t.a, step, [i * ystep % step for i in range(t.a // t.b)]


def materialize(m: int, n: int, t: GoursatTuple) -> ElementSet:
    """The explicit element set {(i*m/a, i*ell*n/c + j*n/d)} mod (m, n).

    Each row, from _rows, is listed from its least member in steps of n/d
    below n.  The a rows come out in ascending x, so the points are
    reduced, distinct and sorted as formed.  A subgroup of more than
    MAX_POINTS points is refused with a ValueError.
    """
    check_membership(m, n, t)
    if t.a * t.d > MAX_POINTS:
        raise ValueError(f"materialize lists at most MAX_POINTS = {MAX_POINTS} points,"
                         f" got a subgroup of order {t.a * t.d}")
    xstep, step, starts = _rows(m, n, t)
    rows = cycle([range(y0, n, step) for y0 in starts])
    return ElementSet((m, n), tuple([(x, y) for x in range(0, m, xstep)
                                     for y in next(rows)]))


def find_tuple(m: int, n: int, s: ElementSet) -> GoursatTuple:
    """Invert materialize: read the unique tuple naming the subgroup s off s.

    In the sorted set the leading x = 0 run is the column <n/d>, so its
    length is d, and a = |s|/d.  The next point, elements[d], is the least
    of row x = m/a, y1 = (l mod a/b)*n/c; since gcd(l, a/b) = 1,
    gcd(y1, n/d) = n/c, which gives c, then b = a*d/c and l.  One comparison
    with materialize proves s is that subgroup; an unsorted, duplicated or
    off-ambient s fails it and raises NotASubgroupError.  A subgroup of
    more than MAX_POINTS points is refused by materialize's ValueError.
    """
    check_nat(m, "m")
    check_nat(n, "n")
    els = s.elements
    d = bisect_left(els, (1,))  # the x = 0 run, when s is sorted
    if not d or n % d:
        raise NotASubgroupError(
            f"an x = 0 column of {d} points fits no subgroup of Z_{m} x Z_{n}"
        )
    a = len(els) // d
    y1 = els[d][1] if a > 1 else 0
    c = n // gcd(y1, n // d)
    b, rem = divmod(a * d, c)
    if rem:
        raise NotASubgroupError(
            f"a = {a} rows of d = {d} points fit no c = {c} in Z_{m} x Z_{n}"
        )
    t = GoursatTuple(a, b, c, d, (y1 // (n // c) - 1) % (a // b) + 1)
    try:
        if materialize(m, n, t) == s:
            return t
    except TupleMembershipError:
        pass
    raise NotASubgroupError(
        f"the given {len(s)}-element set is not a subgroup of Z_{m} x Z_{n}"
    )
