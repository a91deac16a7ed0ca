"""Independent reference answers for the subgroups of Z_m x Z_n.

Everything here is computed with `sympy` and plain Python, never with
`ranktwo`, so the benchmark can check the program's outputs against
numbers the program had no part in.

The subgroup lattice of Z_m x Z_n splits over the primes dividing m*n.
At one prime p the group is Z_{p^a} x Z_{p^b}, an abelian p-group of type
lambda = (max(a, b), min(a, b)), and the number of its subgroups of type
nu = (v, u) comes from Birkhoff's formula

    prod_i p^(nu'_{i+1} (lambda'_i - nu'_i)) * [lambda'_i - nu'_{i+1} choose nu'_i - nu'_{i+1}]_p

with conjugate partitions lambda', nu' and the Gaussian binomial [.]_p.
That is a different derivation from the paper's gcd double sums, which the
program evaluates; `local_total` gives the double-sum form so the two can
be compared in the benchmark's own tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod

import sympy


def _conjugate(parts: tuple[int, ...], length: int) -> list[int]:
    """lambda'_i for i = 1..length+1 (one trailing entry so i+1 is valid)."""
    return [sum(1 for x in parts if x >= i) for i in range(1, length + 2)]


def _gauss_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def local_type_count(p: int, a: int, b: int, u: int, v: int) -> int:
    """Subgroups of Z_{p^a} x Z_{p^b} isomorphic to Z_{p^u} x Z_{p^v}, u <= v."""
    lo, hi = sorted((a, b))
    if not (0 <= u <= v and u <= lo and v <= hi):
        return 0
    lam = _conjugate((hi, lo), hi)
    nu = _conjugate((v, u), hi)
    count = 1
    for i in range(hi):
        count *= p ** (nu[i + 1] * (lam[i] - nu[i]))
        count *= _gauss_binomial(lam[i] - nu[i + 1], nu[i] - nu[i + 1], p)
    return count


@lru_cache(maxsize=4096)
def local_types(p: int, a: int, b: int) -> dict[tuple[int, int], int]:
    """Every subgroup type (p^u, p^v) of Z_{p^a} x Z_{p^b} with its count."""
    lo, hi = sorted((a, b))
    return {
        (p**u, p**v): local_type_count(p, a, b, u, v)
        for u in range(lo + 1)
        for v in range(u, hi + 1)
    }


def local_total(p: int, a: int, b: int) -> int:
    """Total subgroups of Z_{p^a} x Z_{p^b} as the sum of gcd(i, j) over divisors."""
    return sum(p ** min(i, j) for i in range(a + 1) for j in range(b + 1))


def total(m: int, n: int) -> int:
    """Total number of subgroups of Z_m x Z_n."""
    return prod(local_total(p, a, b) for p, (a, b) in exponents(m, n).items())


def exponents(m: int, n: int) -> dict[int, tuple[int, int]]:
    fm = sympy.factorint(m)
    fn = sympy.factorint(n)
    return {p: (fm.get(p, 0), fn.get(p, 0)) for p in sorted(set(fm) | set(fn))}


@lru_cache(maxsize=4096)
def subgroup_table(m: int, n: int) -> dict:
    """The full reference table: total, cyclic, by_order and by_type.

    by_type maps (A, B) with A | B to the number of subgroups isomorphic to
    Z_A x Z_B; by_order maps each order to its count.  Only nonzero entries
    appear, as in the program's table.  Callers must not modify the result,
    which is cached.
    """
    by_type: dict[tuple[int, int], int] = {(1, 1): 1}
    for p, (a, b) in exponents(m, n).items():
        local = local_types(p, a, b)
        by_type = {
            (A * pu, B * pv): cnt * lc
            for ((A, B), cnt), ((pu, pv), lc) in product(by_type.items(), local.items())
        }
    by_order: dict[int, int] = {}
    for (A, B), cnt in by_type.items():
        by_order[A * B] = by_order.get(A * B, 0) + cnt
    total = sum(by_type.values())
    cyclic = sum(cnt for (A, _), cnt in by_type.items() if A == 1)
    return {"total": total, "cyclic": cyclic, "by_order": by_order, "by_type": by_type}

