"""Subgroup counts for Z_m x Z_n.

Every count the library reports comes from one per-prime engine: the
local table of Z_{p^alpha} x Z_{p^beta} from the (a, b, c, d, l)
parametrization, multiplied over the primes of m*n (`local_table`,
`count_subgroups`, `build_table`).  The paper's divisor-sum identities for
the total, by order, by type and cyclic counts stay here as the
independent side `verify` compares the brute-force oracle with; its other
forms (gcd double sums, prime-power closed forms) are tested statements
in the test suite, not library functions.  Everything is exact integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
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

    It keys `build_table`'s by-type counts, filters `count_by_type` and
    `count_subgroups`, and is the invariant pair that `describe` and
    `oracle.classify` return.  `TypeKey(A, B)` checks its values.
    `TypeKey._make((A, B))`, `_replace` and `tuple.__new__(TypeKey, (A, B))`
    do not: they are for keys already known to be valid.  `build_table`
    makes its keys, products of local types, through `tuple.__new__`.
    Equality, order and hash are those of the tuple (A, B).
    """

    __slots__ = ()

    def __new__(cls, A: int, B: int) -> "TypeKey":
        check_nat(A, "A")
        check_nat(B, "B")
        if B % A != 0:
            raise ValueError(f"A = {A} does not divide B = {B}")
        return super().__new__(cls, A, B)


@dataclass(frozen=True)
class SubgroupTable:
    ambient: tuple[int, int]
    total: int
    by_order: dict[int, int]
    by_type: dict[TypeKey, int]
    cyclic_total: int
    noncyclic_total: int


def count_total(m: int, n: int) -> int:
    """Total number of subgroups, as sum of phi(t)*tau(m/t)*tau(n/t) over t | gcd(m,n)."""
    check_nat(m, "m")
    check_nat(n, "n")
    total = 0
    for t in divisors(gcd(m, n)):
        total = checked_add(
            total, checked_mul(euler_phi(t), checked_mul(tau(m // t), tau(n // t)))
        )
    return total


def count_by_order(m: int, n: int, delta: int) -> int:
    """Number of subgroups of order delta; 0 when delta does not divide m*n."""
    check_nat(m, "m")
    check_nat(n, "n")
    check_nat(delta, "delta")
    total = 0
    for i in divisors(gcd(m, delta)):
        for j in divisors(gcd(n, delta)):
            if (i * j) % delta == 0:
                total = checked_add(total, euler_phi(i * j // delta))
    return total


def count_by_type(m: int, n: int, key: TypeKey) -> int:
    """Number of subgroups isomorphic to Z_A x Z_B; 0 when A does not divide gcd(m,n)."""
    check_nat(m, "m")
    check_nat(n, "n")
    A, B = key.A, key.B
    if gcd(m, n) % A != 0:
        return 0
    ab = A * B
    total = 0
    for i in divisors(m):
        for j in divisors(n):
            if (i * j) % ab == 0 and lcm(i, j) == B:
                total = checked_add(total, euler_phi(i * j // ab))
    return total


def count_cyclic(m: int, n: int) -> int:
    """Number of cyclic subgroups, as sum of (mu*phi)(t)*tau(m/t)*tau(n/t)."""
    check_nat(m, "m")
    check_nat(n, "n")
    total = 0
    for t in divisors(gcd(m, n)):
        mu_star_phi = dirichlet(mobius, euler_phi, t)
        total = checked_add(
            total, checked_mul(mu_star_phi, checked_mul(tau(m // t), tau(n // t)))
        )
    return total


def local_table(p: int, alpha: int, beta: int) -> dict[tuple[int, int, int], int]:
    """Subgroup counts of Z_{p^alpha} x Z_{p^beta}, keyed by (c, i, j).

    A subgroup under key (c, i, j) has order p^c and type Z_{p^i} x Z_{p^j}.
    The tuples are a = p^x, b = p^y, e = a/b = p^(x-y), c = p^z with
    z >= x-y, and d = c/e = p^w; the order is a*d and the type is
    (gcd(b, d), lcm(a, c)).  Each tuple stands for its phi(e) choices of l,
    so l is never iterated.  Either exponent may be zero.
    """
    table: dict[tuple[int, int, int], int] = {}
    for x in range(alpha + 1):
        for y in range(x + 1):
            k = x - y
            phi = p**k - p ** (k - 1) if k else 1
            for z in range(k, beta + 1):
                w = z - k
                key = (x + w, min(y, w), max(x, z))
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
            cnt for (c, i, j), cnt in local_table(p, alpha, beta).items()
            if (order is None or c == want_c)
            and (key is None or (i, j) == (want_i, want_j))
            and (not cyclic or i == 0)
        ))
    if rest != 1 or u != 1 or v != 1 or 0 in factors:
        return 0
    result = 1
    for f in factors:
        result = checked_mul(result, f)
    return result


def build_table(m: int, n: int) -> SubgroupTable:
    """Aggregate report as the product of the local tables at each prime of m*n.

    Orders and (u, v) multiply prime by prime, so no key is reached twice;
    zero-count rows never arise.  The products are ascending lists of
    (order, count) and (u, v, count) rows.  At each prime every local row,
    in ascending order, scales the whole list; scaling keeps the order, so
    each local row gives one ascending run, and one sort merges the runs.
    The dicts are read straight off the final lists, and each type key is
    made once, unchecked: u | v holds at every prime, so it holds for the
    products.  Refuses m*n past 64 bits.  The total is formed and checked
    for overflow first; no count by order or by type exceeds it, so their
    products need no check of their own.
    """
    check_nat(m, "m")
    check_nat(n, "n")
    check_nat(m * n, "m*n")
    local_tables = [
        (p, local_table(p, alpha, beta)) for p, (alpha, beta) in _exponents(m, n).items()
    ]
    total = cyclic = 1
    for _, local in local_tables:
        total = checked_mul(total, sum(local.values()))
        cyclic *= sum(cnt for (_, i, _), cnt in local.items() if i == 0)
    orders = [(1, 1)]
    types = [(1, 1, 1)]
    for p, local in local_tables:
        local_order: dict[int, int] = {}
        for (c, _, _), cnt in local.items():
            local_order[c] = local_order.get(c, 0) + cnt
        orders = [
            (o * q, cnt * lc)
            for q, lc in sorted((p**c, lc) for c, lc in local_order.items())
            for o, cnt in orders
        ]
        orders.sort()
        types = [
            (u * pi, v * pj, cnt * lc)
            for pi, pj, lc in sorted((p**i, p**j, lc) for (_, i, j), lc in local.items())
            for u, v, cnt in types
        ]
        types.sort()
    new = tuple.__new__
    return SubgroupTable(
        ambient=(m, n),
        total=total,
        by_order=dict(orders),
        by_type={new(TypeKey, (u, v)): cnt for u, v, cnt in types},
        cyclic_total=cyclic,
        noncyclic_total=total - cyclic,
    )
