"""Tests for the integer arithmetic kernel.

Expected values are frozen from independent oracles defined here (full-range
scans and direct counts), never from the functions under test.  On 64-bit
inputs, too large for a scan, the kernel is compared with sympy (test-only).
"""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ranktwo import arith
from ranktwo.counting import _mu_phi


# --- independent oracles ---------------------------------------------------

def divisors_by_scan(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def phi_by_count(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def mobius_by_definition(n):
    # 0 if a square divides n, else (-1)^(number of primes), by trial division
    count = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            count += 1
        p += 1
    return (-1) ** (count + (n > 1))


# --- divisors ----------------------------------------------------------------

def test_divisors_examples():
    assert arith.divisors(1) == [1]
    assert arith.divisors(12) == divisors_by_scan(12) == [1, 2, 3, 4, 6, 12]
    assert arith.divisors(18) == divisors_by_scan(18) == [1, 2, 3, 6, 9, 18]


def test_divisors_rejects_zero():
    with pytest.raises(ValueError):
        arith.divisors(0)


@given(st.integers(min_value=1, max_value=2000))
def test_divisors_matches_scan(n):
    assert arith.divisors(n) == divisors_by_scan(n)


# --- euler_phi ---------------------------------------------------------------

def test_phi_examples():
    assert arith.euler_phi(1) == 1
    assert arith.euler_phi(8) == phi_by_count(8) == 4
    assert arith.euler_phi(18) == phi_by_count(18) == 6


def test_phi_rejects_zero():
    with pytest.raises(ValueError):
        arith.euler_phi(0)


@given(st.integers(min_value=1, max_value=3000))
def test_phi_matches_direct_count(n):
    assert arith.euler_phi(n) == phi_by_count(n)


def test_phi_divisor_sum_identity():
    # sum of phi(d) over d | n equals n
    for n in range(1, 10001):
        assert sum(arith.euler_phi(d) for d in arith.divisors(n)) == n


# --- the cyclic weight mu*phi, a Dirichlet convolution -----------------------
# count_cyclic reads (mu*phi)(t) prime by prime off t's factorization; these
# pin it against the convolution sum over d | t of mu(d) phi(t/d).

def test_dirichlet_examples():
    assert _mu_phi(1) == 1
    # mu(1)phi(4) + mu(2)phi(2) + mu(4)phi(1) = 2 - 1 + 0
    assert _mu_phi(4) == 1
    # mu(1)phi(6) + mu(2)phi(3) + mu(3)phi(2) + mu(6)phi(1) = 2 - 2 - 1 + 1
    assert _mu_phi(6) == 0


def test_dirichlet_agrees_with_double_loop():
    limit = 10**4
    mu = [0] + [mobius_by_definition(d) for d in range(1, limit + 1)]
    conv = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for t in range(d, limit + 1, d):
            conv[t] += mu[d] * arith.euler_phi(t // d)
    for t in range(1, limit + 1):
        assert _mu_phi(t) == conv[t], t


def test_dirichlet_agrees_with_sympy_on_64_bits():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(28)
    values = [rng.randrange(1, 2**64) for _ in range(30)]
    # 13-smooth values below 2^40, with about a thousand divisors each
    for _ in range(4):
        n = 1
        while (p := rng.choice((2, 3, 5, 7, 11, 13))) * n < 2**40:
            n *= p
        values.append(n)
    for t in values:
        expected = sum(sympy.mobius(d) * sympy.totient(t // d) for d in sympy.divisors(t))
        assert _mu_phi(t) == expected, t


def test_dirichlet_rejects_zero():
    with pytest.raises(ValueError):
        _mu_phi(0)


# --- factorize ---------------------------------------------------------------

def test_factorize_examples():
    assert arith.factorize(1) == []
    assert arith.factorize(12) == [(2, 2), (3, 1)]
    assert arith.factorize(216) == [(2, 3), (3, 3)]


def test_factorize_reconstructs():
    for n in range(1, 100001):
        pairs = arith._factorize(n)
        value = 1
        for p, e in pairs:
            value *= p**e
        assert value == n


@given(st.integers(min_value=2, max_value=50000))
def test_factorize_primes_are_prime(n):
    pairs = arith.factorize(n)
    assert [p for p, _ in pairs] == sorted(p for p, _ in pairs)
    for p, e in pairs:
        assert e >= 1
        assert all(p % q for q in range(2, math.isqrt(p) + 1))


# --- primality, as factorize reports it ------------------------------------------

def is_prime(n):
    return arith.factorize(n) == [(n, 1)]


def test_is_prime_matches_divisor_scan():
    for n in range(1, 5001):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, n)))


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert arith.factorize(2**32 + 1) == [(641, 1), (6700417, 1)]
    with pytest.raises(ValueError):
        arith.factorize(0)


# --- differential checks against sympy on 64-bit inputs -------------------------

LARGEST_64_BIT_PRIME = 18446744073709551557

# Strong pseudoprimes with no factor below the trial-division bound, so only
# Miller-Rabin can reject them: the least ones to the first 3, 5, 6, 7 prime
# bases, and 3825123056546413051, which passes every prime base up to 31.
# 3215031751 passes the bases 2 to 7; 561, 41041 and 825265 are Carmichael.
PSEUDOPRIMES = (25326001, 2152302898747, 3474749660383, 341550071728321,
                3825123056546413051, 3215031751, 561, 41041, 825265)


def _random_64_bit(sympy):
    rng = random.Random(64)
    return [rng.randrange(1, 2**64) for _ in range(300)]


def _smooth_13(sympy):
    rng = random.Random(13)
    values = []
    for _ in range(100):
        n = 1
        for _ in range(rng.randrange(1, 60)):
            p = rng.choice((2, 3, 5, 7, 11, 13))
            if n * p > arith.U64_MAX:
                break
            n *= p
        values.append(n)
    return values


def _semiprimes(sympy):
    # primes on both sides of 2^20 and 2^31, and below 2^32: a product of
    # two primes above 2^32 would pass 64 bits
    near = [[sympy.prevprime(2**bits - k) for k in (0, 2**(bits - 8))]
            + [sympy.nextprime(2**bits + k) for k in (0, 2**(bits - 8))]
            for bits in (20, 31)]
    near.append([sympy.prevprime(2**32 - k) for k in (0, 20, 2**24)])
    values = [p * q for primes in near for p, q in combinations(primes, 2)]
    # balanced, but not close enough for a difference-of-squares split
    values.append(sympy.prevprime(3 * 2**30) * sympy.prevprime(2**32))
    return values


def _prime_powers(sympy):
    squares = [sympy.nextprime(10**6), sympy.nextprime(10**8), sympy.prevprime(2**32)]
    cubes = [sympy.nextprime(10**6), sympy.prevprime(int(arith.U64_MAX ** (1 / 3)))]
    return [p**2 for p in squares] + [p**3 for p in cubes]


def _edges(sympy):
    return [arith.U64_MAX, LARGEST_64_BIT_PRIME, *PSEUDOPRIMES]


@pytest.mark.parametrize("make_inputs", [
    _random_64_bit, _smooth_13, _semiprimes, _prime_powers, _edges,
], ids=lambda f: f.__name__.lstrip("_"))
def test_kernel_matches_sympy(make_inputs):
    sympy = pytest.importorskip("sympy")
    for n in make_inputs(sympy):
        assert n <= arith.U64_MAX
        assert arith.factorize(n) == sorted(sympy.factorint(n).items()), n
        assert arith.euler_phi(n) == sympy.totient(n), n
        assert arith.tau(n) == sympy.divisor_count(n), n
        assert arith.divisors(n) == sympy.divisors(n), n


def test_miller_rabin_bases_are_exact_for_64_bits():
    sympy = pytest.importorskip("sympy")
    # the first twelve prime bases admit no strong pseudoprime below
    # psi_12 = 318665857834031151167461, which is past 2^64
    assert arith._MR_BASES == tuple(sympy.primerange(38))
    assert PSI[12] > arith.U64_MAX
    assert is_prime(LARGEST_64_BIT_PRIME)
    for n in PSEUDOPRIMES:
        assert not is_prime(n), n


# --- Miller-Rabin bases sized to n -----------------------------------------------

# OEIS A014233: psi_k, the least odd composite that is a strong probable prime
# to each of the first k prime bases (Jaeschke 1993; Jiang and Deng 2014;
# Sorenson and Webster 2015).
PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    8: 341550071728321,
    9: 3825123056546413051,
    10: 3825123056546413051,
    11: 3825123056546413051,
    12: 318665857834031151167461,
}


def strong_probable_prime(n, a):
    """Whether odd n > a passes one round of Miller-Rabin to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_miller_rabin_tiers_are_proven_psi_values():
    sympy = pytest.importorskip("sympy")
    bases = arith._MR_BASES
    tiers = arith._MR_TIERS
    assert [psi for psi, _ in tiers] == sorted({psi for psi, _ in tiers})
    for i, (psi, k) in enumerate(tiers):
        assert psi == PSI[k], (psi, k)
        assert not sympy.isprime(psi), psi
        # tight: psi fools the first k bases, and every count of bases the
        # next tier skips
        next_k = tiers[i + 1][1] if i + 1 < len(tiers) else len(bases)
        assert all(PSI[j] == psi for j in range(k, next_k)), (psi, k, next_k)
        assert all(strong_probable_prime(psi, a) for a in bases[:next_k - 1]), psi
        assert not strong_probable_prime(psi, bases[next_k - 1]), psi
    # past the last tier all twelve bases run, and psi_12 fools them all
    psi_12 = PSI[len(bases)]
    assert not sympy.isprime(psi_12)
    assert all(strong_probable_prime(psi_12, a) for a in bases)
    assert not strong_probable_prime(psi_12, 41)


def _tier_band_inputs(sympy):
    """Odd n > 37 from each tier's band, at psi_k +- 2 and the primes beside psi_k."""
    rng = random.Random(233)
    edges = [37] + [psi for psi, _ in arith._MR_TIERS] + [arith.U64_MAX]
    values = []
    for low, high in zip(edges, edges[1:]):
        values += [rng.randrange(low, high) | 1 for _ in range(40)]
        values += [sympy.nextprime(rng.randrange(low, high)) for _ in range(5)]
    for psi in edges[1:-1]:
        values += [psi - 2, psi, psi + 2, sympy.prevprime(psi), sympy.nextprime(psi)]
    return [n for n in values if 37 < n <= arith.U64_MAX]


def test_sized_miller_rabin_matches_sympy_in_every_tier():
    sympy = pytest.importorskip("sympy")
    for n in _tier_band_inputs(sympy):
        assert arith._miller_rabin(n) == sympy.isprime(n), n
        assert is_prime(n) == sympy.isprime(n), n


# --- the primorial gcd at the trial-division bound ---------------------------------

def _trial_bound_inputs(sympy):
    big = sympy.prevprime(2**40)  # 40 bits
    mid = sympy.prevprime(2**30)  # 6 * mid^2 stays inside 64 bits
    p, q = sympy.prevprime(2**20), sympy.nextprime(2**19)
    return [
        997, 1009, 997**2, 997 * 1009, 1009**2, 991 * 997 * 1009,
        12 * big, 997 * big, 6 * mid**2, 2**63,
        6 * big, p * q,
    ]


def test_factorization_at_the_trial_bound_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert arith._SMALL_PRIMES == list(sympy.primerange(arith._TRIAL_BOUND))
    assert arith._PRIMORIAL == math.prod(arith._SMALL_PRIMES)
    for n in _trial_bound_inputs(sympy):
        assert n <= arith.U64_MAX
        assert arith.factorize(n) == sorted(sympy.factorint(n).items()), n
        assert arith.euler_phi(n) == sympy.totient(n), n
        assert arith.tau(n) == sympy.divisor_count(n), n
        assert arith.divisors(n) == sympy.divisors(n), n


# --- overflow guards ------------------------------------------------------------

def test_checked_mul_overflow():
    big = 2**63
    with pytest.raises(OverflowError):
        arith.checked_mul(big, big)
    with pytest.raises(OverflowError):
        arith.checked_mul(big, 2)
    assert arith.checked_mul(2**62, 2) == 2**63


def test_check_nat_overflow():
    with pytest.raises(OverflowError):
        arith.check_nat(2**64)


# --- multiplicative evaluation over the primes of m and n --------------------------
# The per-prime engine in `counting` is the product of local values over the primes
# of m and n; these checks pin that product against the prime factorization.

def _prime_power_parts(m, n):
    """(p, p^v_p(m), p^v_p(n)) for every prime p of m*n, primes found by scan."""
    parts = []
    for p in range(2, m * n + 1):
        if (m * n) % p or any(p % q == 0 for q in range(2, p)):
            continue
        pm = pn = 1
        while m % (pm * p) == 0:
            pm *= p
        while n % (pn * p) == 0:
            pn *= p
        parts.append((p, pm, pn))
    return parts


def test_multiplicative_eval_trivial():
    from ranktwo.counting import build_table, count_subgroups

    assert arith.factorize(1) == []
    assert count_subgroups(1, 1) == 1
    assert build_table(1, 1).total == 1


def test_multiplicative_eval_reproduces_generic_sums():
    # local values derived from the generic double sum itself
    from paper_forms import count_total_reference
    from ranktwo.counting import count_subgroups

    for m in range(1, 61):
        for n in range(1, 61):
            product = 1
            for _, pm, pn in _prime_power_parts(m, n):
                product *= count_total_reference(pm, pn)
            assert product == count_total_reference(m, n) == \
                count_subgroups(m, n), (m, n)
