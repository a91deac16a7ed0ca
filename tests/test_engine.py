"""Differential tests of the per-prime engine against the paper's forms.

`build_table` and `count_subgroups` multiply local tables over the primes of
m*n; the paper's divisor-sum identities and prime-power closed forms are
independent statements of the same counts.  Birkhoff's formula, as the
benchmark's `bench/reference.py` evaluates it with sympy, is a third one,
and it reaches the whole 64-bit range.
"""

import importlib.util
import math
import random
import time
from pathlib import Path

import pytest

from ranktwo import (
    TypeKey,
    build_table,
    count_subgroups,
    divisors,
    tau,
)
from ranktwo.counting import (
    count_by_order,
    count_by_type,
    count_cyclic,
    count_total,
    local_table,
)

from paper_forms import (
    count_by_order_prime_power,
    count_cyclic_by_order,
    count_total_prime_power,
)

TABLE_PAIRS = sorted(
    {(m, n) for m in range(1, 61) for n in range(1, 61)}
    | {(m, n) for m in range(1, 257) for n in range(1, 256 // m + 1)}
)


def _outside_prime(x: int) -> int:
    """The smallest prime not dividing x."""
    q = 2
    while x % q == 0 or any(q % r == 0 for r in range(2, q)):
        q += 1
    return q


def test_local_table_matches_prime_power_closed_forms():
    for p in (2, 3, 5, 7):
        for a in range(1, 6):
            for b in range(a, 6):
                local = local_table(p, a, b)
                assert local == local_table(p, b, a)
                assert sum(local.values()) == count_total_prime_power(p, a, b)
                for c in range(a + b + 1):
                    assert sum(cnt for (i, j), cnt in local.items() if i + j == c) == \
                        count_by_order_prime_power(p, a, b, c)
                for i, j in local:
                    assert i <= j and i <= a and j <= b


def test_count_subgroups_examples():
    assert count_subgroups(1, 1) == 1
    assert count_subgroups(12, 18) == 80
    assert count_subgroups(9, 27) == count_total_prime_power(3, 2, 3)
    assert count_subgroups(60, 1) == tau(60)
    assert count_subgroups(12, 18, order=6) == 12
    assert count_subgroups(12, 18, order=7) == 0
    assert count_subgroups(12, 18, key=TypeKey(2, 18)) == 3
    assert count_subgroups(12, 18, key=TypeKey(1, 5)) == 0
    assert count_subgroups(12, 18, cyclic=True) == 48


def test_build_table_matches_paper_forms():
    for m, n in TABLE_PAIRS:
        table = build_table(m, n)
        mn = m * n
        q = _outside_prime(mn)
        assert table.total == count_total(m, n) == count_subgroups(m, n), (m, n)
        assert table.cyclic_total == count_cyclic(m, n), (m, n)
        assert table.noncyclic_total == table.total - table.cyclic_total
        orders = count_by_order(m, n)
        for delta in divisors(mn) + [q, 2 * mn]:
            expected = orders.get(delta, 0)
            assert table.by_order.get(delta, 0) == expected, (m, n, delta)
            assert count_subgroups(m, n, order=delta) == expected, (m, n, delta)
        probed = set()
        for A in divisors(math.gcd(m, n)):
            for B in divisors(mn // A):
                if B % A == 0:
                    probed.add(TypeKey(A, B))
        types = count_by_type(m, n)
        for key in sorted(probed) + [TypeKey(1, q), TypeKey(q, q)]:
            expected = types.get(key, 0)
            assert table.by_type.get(key, 0) == expected, (m, n, key)
            assert count_subgroups(m, n, key=key) == expected, (m, n, key)
        assert set(table.by_type) <= probed
        assert 0 not in table.by_order.values() and 0 not in table.by_type.values()


def test_totals_and_cyclic_match_paper_forms():
    for m in range(1, 81):
        for n in range(1, 81):
            assert count_subgroups(m, n) == count_total(m, n), (m, n)
            assert count_subgroups(m, n, cyclic=True) == count_cyclic(m, n), (m, n)


def test_filters_intersect():
    for m in range(1, 25):
        for n in range(1, 25):
            for delta in divisors(m * n):
                assert count_subgroups(m, n, order=delta, cyclic=True) == \
                    count_cyclic_by_order(m, n, delta), (m, n, delta)


def test_large_prime_table_is_fast():
    start = time.perf_counter()
    table = build_table(2147483647, 2147483647)
    elapsed = time.perf_counter() - start
    assert table.total == 2147483650
    assert elapsed < 1.0


REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.py"

# Small primes, a 17-bit one, and the largest 31- and 32-bit primes.
BIRKHOFF_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                   65537, 2**31 - 1, 2**32 - 5)


def _birkhoff_pairs(seed: int, count: int) -> list[tuple[int, int]]:
    """Seeded pairs with m*n < 2^64: 1 to 6 primes, each exponent at most 20."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        m = n = 1
        for p in rng.sample(BIRKHOFF_PRIMES, rng.randint(1, 6)):
            room = 0
            while m * n * p ** (room + 1) < 2**64:
                room += 1
            alpha = rng.randint(0, min(20, room))
            beta = rng.randint(0, min(20, room - alpha))
            if rng.random() < 0.5:
                alpha, beta = beta, alpha
            m, n = m * p**alpha, n * p**beta
        pairs.append((m, n))
    return pairs


def _load_reference():
    pytest.importorskip("sympy")
    # bench/reference.py imports only sympy and the standard library
    spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference


def test_local_table_matches_birkhoffs_formula():
    reference = _load_reference()
    rng = random.Random(20123)
    for p in (2, 3, 2**31 - 1, 2**32 - 5):
        top = 0  # the largest alpha + beta with p^(alpha + beta) < 2^64
        while p ** (top + 1) < 2**64:
            top += 1
        pairs = [(alpha, s - alpha) for s in range(top + 1) for alpha in range(s + 1)]
        sample = {(top, 0), (0, top), (top // 2, top - top // 2)}
        sample |= set(rng.sample(pairs, min(24, len(pairs))))
        for alpha, beta in sorted(sample):
            by_type = {}
            for (i, j), cnt in local_table(p, alpha, beta).items():
                by_type[p**i, p**j] = by_type.get((p**i, p**j), 0) + cnt
            expected = reference.local_types(p, alpha, beta)
            assert by_type == {key: cnt for key, cnt in expected.items() if cnt}, \
                (p, alpha, beta)


def test_build_table_matches_birkhoffs_formula():
    reference = _load_reference()
    pairs = _birkhoff_pairs(20121, 300)
    # the sample reaches both large primes and an exponent of 20
    assert any(math.prod(pair) % (2**31 - 1) == 0 for pair in pairs)
    assert any(math.prod(pair) % (2**32 - 5) == 0 for pair in pairs)
    assert any(m % 2**20 == 0 or n % 2**20 == 0 for m, n in pairs)
    rng = random.Random(20122)
    for m, n in pairs:
        expected = reference.subgroup_table(m, n)
        table = build_table(m, n)
        assert (table.total, table.cyclic_total) == \
            (expected["total"], expected["cyclic"]), (m, n)
        assert table.by_order == expected["by_order"], (m, n)
        assert table.by_type == expected["by_type"], (m, n)
        assert list(table.by_order) == sorted(table.by_order), (m, n)
        assert list(table.by_type) == sorted(table.by_type), (m, n)
        assert all(type(key) is TypeKey for key in table.by_type), (m, n)
        order = rng.choice(list(expected["by_order"]))
        key = TypeKey(*rng.choice(list(expected["by_type"])))
        assert count_subgroups(m, n) == expected["total"], (m, n)
        assert count_subgroups(m, n, cyclic=True) == expected["cyclic"], (m, n)
        assert count_subgroups(m, n, order=order) == expected["by_order"][order], (m, n)
        assert count_subgroups(m, n, key=key) == expected["by_type"][key], (m, n)
