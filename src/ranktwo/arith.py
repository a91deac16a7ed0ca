"""Exact integer arithmetic kernel.

Divisors, Euler's totient, the Mobius function, Dirichlet convolution,
and trial-division factorization.

All inputs are positive integers in 64-bit range.  Zero and negative inputs
are rejected, and any product that would leave the 64-bit range raises
OverflowError rather than returning a silently huge value.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Callable

U64_MAX = 2**64 - 1

ArithmeticFn = Callable[[int], int]


def check_nat(n: int, name: str = "n") -> int:
    """Validate that n is a positive integer in 64-bit range."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"{name} must be an int, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    if n > U64_MAX:
        raise OverflowError(f"{name} = {n} exceeds 64-bit range")
    return n


def checked_mul(a: int, b: int) -> int:
    r = a * b
    if abs(r) > U64_MAX:
        raise OverflowError(f"product {a} * {b} exceeds 64-bit range")
    return r


def checked_add(a: int, b: int) -> int:
    r = a + b
    if abs(r) > U64_MAX:
        raise OverflowError(f"sum {a} + {b} exceeds 64-bit range")
    return r


@lru_cache(maxsize=65536)
def _divisors(n: int) -> tuple[int, ...]:
    small = []
    large = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    large.reverse()
    return tuple(small + large)


def divisors(n: int) -> list[int]:
    """All positive divisors of n in strictly increasing order."""
    check_nat(n)
    return list(_divisors(n))


@lru_cache(maxsize=65536)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    pairs = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, primes increasing.

    Returns the empty list for n = 1.  Deterministic trial division; fine
    for 64-bit inputs at the scales this library targets.
    """
    check_nat(n)
    return list(_factorize(n))


def is_prime(n: int) -> bool:
    check_nat(n)
    return n > 1 and _factorize(n) == ((n, 1),)


def euler_phi(n: int) -> int:
    """Euler's totient: the count of 1 <= k <= n coprime to n."""
    result = check_nat(n)
    for p, _ in _factorize(n):
        result -= result // p
    return result


def mobius(n: int) -> int:
    """Mobius function: 0 unless n is squarefree, else (-1)^(number of primes)."""
    check_nat(n)
    sign = 1
    for _, e in _factorize(n):
        if e > 1:
            return 0
        sign = -sign
    return sign


def tau(n: int) -> int:
    """Number of positive divisors."""
    check_nat(n)
    result = 1
    for _, e in _factorize(n):
        result *= e + 1
    return result


def dirichlet(f: ArithmeticFn, g: ArithmeticFn, n: int) -> int:
    """Dirichlet convolution (f * g)(n) = sum over d | n of f(d) g(n/d)."""
    check_nat(n)
    total = 0
    for d in divisors(n):
        total = checked_add(total, checked_mul(f(d), g(n // d)))
    return total

