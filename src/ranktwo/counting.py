"""Subgroup counts for Z_m x Z_n.

Every count the library reports comes from one per-prime engine: the
local table of Z_{p^alpha} x Z_{p^beta} from the (a, b, c, d, l)
parametrization, multiplied over the primes of m*n (`local_table`,
`count_subgroups`, `_table_rows`).  `_table_rows` forms the full table as
ascending row lists, which the CLI's `table` writes as they are and
`build_table` reads into dicts.  The paper's divisor sums stay here as
the independent side `verify` checks the brute-force oracle against: the
total and cyclic counts as one sum over t | gcd(m, n) with two weights,
and the by-type sum as one walk giving every type at once.
`count_by_order` sums that walk by order; `verify` skips it, as a type
fixes its order.  The paper's other forms (per-value sums, gcd double
sums, prime-power closed forms) are tested statements in the test suite.
Everything is exact integer arithmetic.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .arith import (
    check_nat,
    checked_add,
    checked_mul,
    dirichlet,
    divisors,
    euler_phi,
    factorize,
    mobius,
    tau,
)


class _TypeKeyFields(NamedTuple):
    A: int
    B: int


class TypeKey(_TypeKeyFields):
    """Isomorphism type Z_A x Z_B with A | B, the library's one type value.

    It keys the by-type counts of `build_table` and `count_by_type`, filters
    `count_subgroups`, and is the invariant pair that `describe` and
    `oracle.classify` return.  `TypeKey(A, B)` checks its values.
    `TypeKey._make((A, B))`, `_replace` and `tuple.__new__(TypeKey, (A, B))`
    do not: they are for keys already known to be valid.  `build_table` and
    `count_by_type` make their keys, which satisfy A | B by construction,
    through `tuple.__new__`.
    Equality, order and hash are those of the tuple (A, B).
    """

    __slots__ = ()

    def __new__(cls, A: int, B: int) -> "TypeKey":
        check_nat(A, "A")
        check_nat(B, "B")
        if B % A != 0:
            raise ValueError(f"A = {A} does not divide B = {B}")
        return super().__new__(cls, A, B)


class SubgroupTable(NamedTuple):
    ambient: tuple[int, int]
    total: int
    by_order: dict[int, int]
    by_type: dict[TypeKey, int]
    cyclic_total: int
    noncyclic_total: int


def _gcd_sum(m: int, n: int, weight) -> int:
    """The sum of weight(t)*tau(m/t)*tau(n/t) over t | gcd(m, n)."""
    check_nat(m, "m")
    check_nat(n, "n")
    total = 0
    for t in divisors(gcd(m, n)):
        total = checked_add(
            total, checked_mul(weight(t), checked_mul(tau(m // t), tau(n // t)))
        )
    return total


def count_total(m: int, n: int) -> int:
    """Total number of subgroups, as sum of phi(t)*tau(m/t)*tau(n/t) over t | gcd(m,n)."""
    return _gcd_sum(m, n, euler_phi)


def count_by_type(m: int, n: int) -> dict[TypeKey, int]:
    """Number of subgroups of each type Z_A x Z_B, as the paper's sum of
    phi(ij/AB) over i | m, j | n with AB | ij and lcm(i, j) = B.

    With g = gcd(i, j), ij = g*B, so AB | ij is A | g and the summand is
    phi(g/A): one walk over (i, j, A | g) gives every type at once.  Types
    with no subgroup are absent, so no count is 0.
    """
    check_nat(m, "m")
    check_nat(n, "n")
    new = tuple.__new__
    counts: dict[TypeKey, int] = {}
    divs_n = divisors(n)
    divs_g = {g: divisors(g) for g in divisors(gcd(m, n))}  # one list per gcd(i, j)
    for i in divisors(m):
        for j in divs_n:
            g = gcd(i, j)
            B = i // g * j
            for A in divs_g[g]:
                key = new(TypeKey, (A, B))  # A | g | B
                counts[key] = checked_add(counts.get(key, 0), euler_phi(g // A))
    return counts


def count_by_order(m: int, n: int) -> dict[int, int]:
    """Number of subgroups of each order, read off `count_by_type`: a
    subgroup of type Z_A x Z_B has order A*B.  No count is 0.  `verify`
    does not call it: its by-type diff settles the orders."""
    counts: dict[int, int] = {}
    for (A, B), cnt in count_by_type(m, n).items():
        counts[A * B] = counts.get(A * B, 0) + cnt
    return counts


def count_cyclic(m: int, n: int) -> int:
    """Number of cyclic subgroups, as sum of (mu*phi)(t)*tau(m/t)*tau(n/t)."""
    return _gcd_sum(m, n, lambda t: dirichlet(mobius, euler_phi, t))


def local_table(p: int, alpha: int, beta: int) -> dict[tuple[int, int], int]:
    """Subgroup counts of Z_{p^alpha} x Z_{p^beta}, keyed by (i, j).

    A subgroup under key (i, j) has type Z_{p^i} x Z_{p^j} and so order
    p^(i+j).  The tuples are a = p^x, b = p^y, e = a/b = p^(x-y), c = p^z
    with z >= x-y, and d = c/e = p^w; the type is (gcd(b, d), lcm(a, c)),
    whose product is the order a*d.  Each tuple stands for its phi(e)
    choices of l, so l is never iterated.  Either exponent may be zero.
    """
    table: dict[tuple[int, int], int] = {}
    for x in range(alpha + 1):
        for y in range(x + 1):
            k = x - y
            phi = p**k - p ** (k - 1) if k else 1
            for z in range(k, beta + 1):
                w = z - k
                key = (min(y, w), max(x, z))
                table[key] = table.get(key, 0) + phi
    return table


def _exponents(m: int, n: int) -> dict[int, tuple[int, int]]:
    """(v_p(m), v_p(n)) for every prime p of m*n."""
    exps = {p: (e, 0) for p, e in factorize(m)}
    for p, e in factorize(n):
        exps[p] = (exps.get(p, (0, 0))[0], e)
    return exps


def _split(x: int, p: int) -> tuple[int, int]:
    """(v_p(x), x with every factor p divided out)."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e, x


def count_subgroups(
    m: int,
    n: int,
    *,
    order: int | None = None,
    key: TypeKey | None = None,
    cyclic: bool = False,
) -> int:
    """Number of subgroups, optionally only those of one order, one type, or cyclic.

    Filters given together intersect.  The count is the product over the
    primes of m*n of local lookups; an order or type with a prime factor
    outside m*n gives 0.  Only m and n are factored, never m*n.
    """
    check_nat(m, "m")
    check_nat(n, "n")
    rest = 1 if order is None else check_nat(order, "order")
    u, v = (1, 1) if key is None else (key.A, key.B)
    factors = []
    for p, (alpha, beta) in _exponents(m, n).items():
        want_c, rest = _split(rest, p)
        want_i, u = _split(u, p)
        want_j, v = _split(v, p)
        factors.append(sum(
            cnt for (i, j), cnt in local_table(p, alpha, beta).items()
            if (order is None or i + j == want_c)
            and (key is None or (i, j) == (want_i, want_j))
            and (not cyclic or i == 0)
        ))
    if rest != 1 or u != 1 or v != 1 or 0 in factors:
        return 0
    result = 1
    for f in factors:
        result = checked_mul(result, f)
    return result


def _table_rows(m: int, n: int) -> tuple[int, int, list, list]:
    """(total, cyclic, orders, types): the aggregate report as the product of
    the local tables at each prime of m*n, with orders and types as ascending
    lists of (order, count) and (u, v, count) rows.

    Orders and (u, v) multiply prime by prime, so no key is reached twice;
    zero-count rows never arise.  At each prime every local row, in ascending
    order, scales the whole list; scaling keeps the order, so each local row
    gives one ascending run, and one sort merges the runs.  The local tables
    are multiplied smallest first: at each prime the old list is held next to
    the new one, so the peak is lowest when the largest local table comes
    last.  Refuses m*n past 64 bits.  The total is formed and checked for
    overflow first; no count by order or by type exceeds it, so their
    products need no check of their own.
    """
    check_nat(m, "m")
    check_nat(n, "n")
    check_nat(m * n, "m*n")
    local_tables = sorted(
        ((p, local_table(p, alpha, beta)) for p, (alpha, beta) in _exponents(m, n).items()),
        key=lambda item: len(item[1]),
    )
    total = cyclic = 1
    for _, local in local_tables:
        total = checked_mul(total, sum(local.values()))
        cyclic *= sum(cnt for (i, _), cnt in local.items() if i == 0)
    orders = [(1, 1)]
    types = [(1, 1, 1)]
    for p, local in local_tables:
        local_order: dict[int, int] = {}
        for (i, j), cnt in local.items():
            local_order[i + j] = local_order.get(i + j, 0) + cnt
        orders = [
            (o * q, cnt * lc)
            for q, lc in sorted((p**c, lc) for c, lc in local_order.items())
            for o, cnt in orders
        ]
        orders.sort()
        types = [
            (u * pi, v * pj, cnt * lc)
            for pi, pj, lc in sorted((p**i, p**j, lc) for (i, j), lc in local.items())
            for u, v, cnt in types
        ]
        types.sort()
    return total, cyclic, orders, types


def build_table(m: int, n: int) -> SubgroupTable:
    """Aggregate report of Z_m x Z_n, read off `_table_rows`' lists, so its
    dicts iterate in ascending key order.  Each type key is made once,
    unchecked: u | v holds at every prime, so it holds for the products.
    """
    total, cyclic, orders, types = _table_rows(m, n)
    new = tuple.__new__
    return SubgroupTable(
        ambient=(m, n),
        total=total,
        by_order=dict(orders),
        by_type={new(TypeKey, (u, v)): cnt for u, v, cnt in types},
        cyclic_total=cyclic,
        noncyclic_total=total - cyclic,
    )
