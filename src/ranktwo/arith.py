"""Exact integer arithmetic kernel.

Prime factorization, and from it divisors, Euler's totient and the divisor
count.  Only factorizations are cached: divisors builds a fresh list from one
on each call.

Factorization takes one gcd of n with the product of the primes below a
small fixed bound, divides out just the primes that gcd shows, tests what is
left with deterministic Miller-Rabin, and splits a composite remainder with
Pollard's rho in Brent's form.  Miller-Rabin runs the first k prime bases
2, 3, 5, ..., 37, with k sized to n.  The first k bases are exact below
psi_k, the least strong pseudoprime to all of them (OEIS A014233; Jaeschke
1993; Jiang and Deng 2014; Sorenson and Webster 2015).  All twelve are run
from psi_9 = 3825123056546413051 up, which fools every base below 37, and
psi_12 = 318665857834031151167461 (about 3.2 * 10^23) is past 2^64, so the
test is exact on every 64-bit input.  Rho finds a prime factor p in about
sqrt(p) steps, so the hardest 64-bit input, a product of two primes near
2^32, takes some 10^5 steps.

All inputs are positive integers in 64-bit range.  Zero and negative inputs
are rejected, and any product that would leave the 64-bit range raises
OverflowError rather than returning a silently huge value.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress, count
from math import gcd, prod

U64_MAX = 2**64 - 1

# Every prime below this bound is divided out first, so a remainder below its
# square is prime.
_TRIAL_BOUND = 1000


def _primes_below(n: int) -> list[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    p = 2
    while p * p < n:
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
        p += 1
    return list(compress(range(n), sieve))


_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)
_PRIMORIAL = prod(_SMALL_PRIMES)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi_k, k): the first k bases of _MR_BASES are exact below psi_k, the least
# strong pseudoprime to all of them (OEIS A014233).  psi_8 = psi_7 and
# psi_11 = psi_10 = psi_9, so those k are skipped; all twelve bases are run
# from psi_9 up.
_MR_TIERS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
)


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


def divisors(n: int) -> list[int]:
    """All positive divisors of n in strictly increasing order."""
    check_nat(n)
    divs = [1]
    for p, e in _factorize(n):
        divs += [d * p**k for k in range(1, e + 1) for d in divs]
    divs.sort()
    return divs


def _miller_rabin(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 37, on as many bases as n needs."""
    k = len(_MR_BASES)
    for psi, bases in _MR_TIERS:
        if n < psi:
            k = bases
            break
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho, Brent's cycle search.

    The walk x -> x^2 + c starts at 2 with c = 1 and moves to the next c when
    a walk closes without a split, so every run finds the same factor.
    """
    batch = 128  # differences multiplied together per gcd
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: step through it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _large_prime_factors(n: int) -> list[int]:
    """Prime factors of n > 1, with multiplicity; n is prime or has no prime below _TRIAL_BOUND."""
    if n < _TRIAL_BOUND * _TRIAL_BOUND or _miller_rabin(n):
        return [n]
    d = _rho(n)
    return _large_prime_factors(d) + _large_prime_factors(n // d)


@lru_cache(maxsize=65536)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    pairs = []
    g = gcd(n, _PRIMORIAL)  # the product of n's primes below _TRIAL_BOUND
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
    if n > 1:
        pairs.extend(sorted(Counter(_large_prime_factors(n)).items()))
    return tuple(pairs)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, primes increasing.

    Returns the empty list for n = 1.  Exact and deterministic for every
    64-bit input: one gcd with the primorial of a small bound, Miller-Rabin
    on as many prime bases as n needs, Pollard-Brent rho for composite
    remainders.
    """
    check_nat(n)
    return list(_factorize(n))


def euler_phi(n: int) -> int:
    """Euler's totient: the count of 1 <= k <= n coprime to n."""
    result = check_nat(n)
    for p, _ in _factorize(n):
        result -= result // p
    return result


def tau(n: int) -> int:
    """Number of positive divisors."""
    check_nat(n)
    result = 1
    for _, e in _factorize(n):
        result *= e + 1
    return result
