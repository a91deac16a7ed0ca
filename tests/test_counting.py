"""Tests for the closed-form counters."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ranktwo import (
    GoursatTuple,
    SubgroupTable,
    TypeKey,
    build_table,
    count_subgroups,
    describe,
    divisors,
    enumerate_tuples,
    tau,
)
from ranktwo.counting import count_by_order, count_by_type, count_cyclic, count_total

from paper_forms import (
    count_by_order_prime_power,
    count_by_order_reference,
    count_by_type_reference,
    count_cyclic_by_order,
    count_cyclic_reference,
    count_total_prime_power,
    count_total_reference,
)


# --- count_total ------------------------------------------------------------

def test_count_total_examples():
    assert count_total(1, 1) == 1
    assert count_total(12, 18) == 80
    assert count_total(2, 2) == 5


def test_count_total_forms_agree():
    for m in range(1, 101):
        for n in range(1, 101):
            assert count_total(m, n) == count_total_reference(m, n)


@given(st.integers(1, 300), st.integers(1, 300))
def test_count_total_symmetry(m, n):
    assert count_total(m, n) == count_total(n, m)


@given(st.integers(1, 200), st.integers(1, 200))
def test_count_total_isomorphism_invariance(m, n):
    g, l = math.gcd(m, n), math.lcm(m, n)
    assert count_total(m, n) == count_total(g, l)


# --- count_total_prime_power --------------------------------------------------

def test_prime_power_total_examples():
    assert count_total_prime_power(2, 1, 1) == 5 == count_total(2, 2)
    assert count_total_prime_power(3, 1, 2) == count_total(3, 9)


def test_prime_power_total_matches_generic_sum():
    for p in (2, 3, 5):
        for a in range(1, 6):
            for b in range(a, 6):
                assert count_total_prime_power(p, a, b) == count_total(p**a, p**b)


def test_prime_power_total_rejects_bad_input():
    with pytest.raises(ValueError):
        count_total_prime_power(4, 1, 1)
    with pytest.raises(ValueError):
        count_total_prime_power(2, 3, 2)


# --- count_by_order -------------------------------------------------------------

def test_count_by_order_examples():
    assert count_by_order(12, 18).get(4, 0) == 3
    assert count_by_order(7, 5).get(1, 0) == 1
    assert count_by_order(12, 18).get(216, 0) == 1


def test_count_by_order_zero_when_delta_not_dividing():
    assert count_by_order(2, 2).get(8, 0) == 0
    assert count_by_order(12, 18).get(5, 0) == 0


def test_count_by_order_partition():
    for m in range(1, 61):
        for n in range(1, 61):
            orders = count_by_order(m, n)
            total = sum(orders.get(d, 0) for d in divisors(m * n))
            assert total == count_total(m, n)


# --- count_by_order_prime_power ---------------------------------------------------

def test_prime_power_order_examples():
    assert count_by_order_prime_power(2, 1, 1, 1) == 3 == count_by_order(2, 2).get(2, 0)
    assert count_by_order_prime_power(5, 2, 3, 0) == 1


def test_prime_power_order_matches_generic_sum():
    for p in (2, 3):
        for a in range(1, 5):
            for b in range(a, 5):
                for c in range(0, a + b + 1):
                    assert count_by_order_prime_power(p, a, b, c) == \
                        count_by_order(p**a, p**b).get(p**c, 0)


def test_prime_power_order_rejects_bad_c():
    with pytest.raises(ValueError):
        count_by_order_prime_power(2, 2, 3, 6)


# --- count_by_type --------------------------------------------------------------

def test_count_by_type_examples():
    assert count_by_type(12, 18).get(TypeKey(2, 4), 0) == 1
    assert count_by_type(12, 18).get(TypeKey(6, 36), 0) == 1
    # 4 does not divide gcd(12, 18) = 6
    assert count_by_type(12, 18).get(TypeKey(4, 8), 0) == 0


def test_type_key_requires_divisibility():
    with pytest.raises(ValueError):
        TypeKey(3, 4)


@pytest.mark.parametrize("args, error", [((0, 1), ValueError), ((True, 2), TypeError),
                                         ((1, 2**64), OverflowError)])
def test_type_key_refuses_bad_values(args, error):
    with pytest.raises(error):
        TypeKey(*args)


def test_count_by_type_partition():
    for m in range(1, 41):
        for n in range(1, 41):
            types = count_by_type(m, n)
            total = 0
            cyclic = 0
            for A in divisors(math.gcd(m, n)):
                for B in divisors(m * n // A):
                    if B % A:
                        continue
                    cnt = types.get(TypeKey(A, B), 0)
                    total += cnt
                    if A == 1:
                        cyclic += cnt
            assert total == count_total(m, n)
            assert cyclic == count_cyclic(m, n)


def test_count_by_type_matches_tuple_classification():
    for m in range(1, 25):
        for n in range(1, 25):
            observed = {}
            for t in enumerate_tuples(m, n):
                u = math.gcd(t.b, t.d)
                v = math.lcm(t.a, t.c)
                observed[(u, v)] = observed.get((u, v), 0) + 1
            types = count_by_type(m, n)
            for (u, v), cnt in observed.items():
                assert types.get(TypeKey(u, v), 0) == cnt


def test_paper_sums_match_their_per_value_forms():
    # the one walk against the paper's per-value sums, also on an order and
    # types outside the group: a prime q not dividing m*n, and 2*m*n
    for m in range(1, 41):
        for n in range(1, 41):
            mn = m * n
            q = next(p for p in (2, 3, 5, 7, 11) if mn % p)
            orders = count_by_order(m, n)
            types = count_by_type(m, n)
            assert 0 not in orders.values() and 0 not in types.values()
            for delta in divisors(mn) + [q, 2 * mn]:
                assert orders.get(delta, 0) == \
                    count_by_order_reference(m, n, delta), (m, n, delta)
            keys = [TypeKey(A, B) for A in divisors(math.gcd(m, n))
                    for B in divisors(mn // A) if B % A == 0]
            for key in keys + [TypeKey(1, q), TypeKey(q, q), TypeKey(1, 2 * mn)]:
                assert types.get(key, 0) == \
                    count_by_type_reference(m, n, key), (m, n, key)
            assert set(orders) <= set(divisors(mn)) and set(types) <= set(keys)


# --- count_cyclic ---------------------------------------------------------------

def test_count_cyclic_examples():
    assert count_cyclic(12, 18) == 48
    assert count_cyclic(1, 36) == tau(36)
    assert count_cyclic(2, 2) == 4


def test_count_cyclic_forms_agree():
    for m in range(1, 101):
        for n in range(1, 101):
            assert count_cyclic(m, n) == count_cyclic_reference(m, n)


@given(st.integers(1, 300), st.integers(1, 300))
def test_count_cyclic_symmetry(m, n):
    assert count_cyclic(m, n) == count_cyclic(n, m)


# --- count_cyclic_by_order ---------------------------------------------------------

def test_count_cyclic_by_order_examples():
    assert count_cyclic_by_order(12, 18, 1) == 1
    assert count_cyclic_by_order(12, 18, 36) == 6
    assert sum(count_cyclic_by_order(12, 18, d) for d in divisors(216)) == 48


def test_count_cyclic_by_order_equals_type_slice():
    for m, n in [(12, 18), (8, 8), (6, 15), (1, 16)]:
        types = count_by_type(m, n)
        for delta in divisors(m * n):
            assert count_cyclic_by_order(m, n, delta) == \
                types.get(TypeKey(1, delta), 0)


# --- multiplicativity -----------------------------------------------------------

def test_multiplicativity_over_coprime_decompositions():
    rng = random.Random(20140593)
    checked = 0
    while checked < 200:
        m1 = rng.randint(1, 40)
        n1 = rng.randint(1, 40)
        m2 = rng.randint(1, 40)
        n2 = rng.randint(1, 40)
        if math.gcd(m1 * n1, m2 * n2) != 1 or m1 * n1 * m2 * n2 > 10**4:
            continue
        assert count_total(m1 * m2, n1 * n2) == \
            count_total(m1, n1) * count_total(m2, n2)
        assert count_cyclic(m1 * m2, n1 * n2) == \
            count_cyclic(m1, n1) * count_cyclic(m2, n2)
        checked += 1


# --- fast totals: count_subgroups and build_table --------------------------------

def test_count_total_fast_examples():
    assert count_subgroups(12, 18) == 80
    assert count_subgroups(9, 27) == count_total_prime_power(3, 2, 3)
    assert count_subgroups(60, 1) == tau(60)


def test_count_total_fast_agrees_with_sum():
    for m in range(1, 81):
        for n in range(1, 81):
            assert build_table(m, n).total == count_total(m, n), (m, n)


# --- build_table ------------------------------------------------------------------

def test_build_table_12_18_matches_published_values():
    table = build_table(12, 18)
    assert table.total == 80
    assert table.by_order == {
        1: 1, 2: 3, 3: 4, 4: 3, 6: 12, 8: 1, 9: 4, 12: 12,
        18: 12, 24: 4, 27: 1, 36: 12, 54: 3, 72: 4, 108: 3, 216: 1,
    }
    assert table.cyclic_total == 48
    assert table.noncyclic_total == 32
    assert table.by_type == {
        TypeKey(1, 1): 1, TypeKey(1, 2): 3, TypeKey(1, 3): 4,
        TypeKey(1, 4): 2, TypeKey(1, 6): 12, TypeKey(1, 9): 3,
        TypeKey(1, 12): 8, TypeKey(1, 18): 9, TypeKey(1, 36): 6,
        TypeKey(2, 2): 1, TypeKey(2, 4): 1, TypeKey(2, 6): 4,
        TypeKey(2, 12): 4, TypeKey(2, 18): 3, TypeKey(2, 36): 3,
        TypeKey(3, 3): 1, TypeKey(3, 6): 3, TypeKey(3, 9): 1,
        TypeKey(3, 12): 2, TypeKey(3, 18): 3, TypeKey(3, 36): 2,
        TypeKey(6, 6): 1, TypeKey(6, 12): 1, TypeKey(6, 18): 1,
        TypeKey(6, 36): 1,
    }


def test_subgroup_table_fields():
    assert SubgroupTable._fields == (
        "ambient", "total", "by_order", "by_type", "cyclic_total", "noncyclic_total")
    assert build_table(12, 18).ambient == (12, 18)


def test_build_table_trivial():
    table = build_table(1, 1)
    assert table.total == 1
    assert table.by_order == {1: 1}
    assert table.by_type == {TypeKey(1, 1): 1}
    assert table.cyclic_total == 1
    assert table.noncyclic_total == 0


def test_build_table_matches_enumeration():
    table = build_table(4, 6)
    by_order = {}
    by_type = {}
    cyclic = 0
    for t in enumerate_tuples(4, 6):
        d = describe(4, 6, t)
        by_order[d.order] = by_order.get(d.order, 0) + 1
        key = TypeKey(d.invariants.A, d.invariants.B)
        by_type[key] = by_type.get(key, 0) + 1
        cyclic += d.cyclic
    assert table.by_order == by_order
    assert table.by_type == by_type
    assert table.cyclic_total == cyclic
    assert table.total == sum(by_order.values())


def test_build_table_internal_invariants():
    for m, n in [(12, 18), (7, 1), (8, 12), (9, 9)]:
        table = build_table(m, n)
        assert sum(table.by_order.values()) == table.total
        assert sum(table.by_type.values()) == table.total
        assert table.cyclic_total + table.noncyclic_total == table.total
        assert table.cyclic_total == sum(
            c for k, c in table.by_type.items() if k.A == 1)
        for order in table.by_order:
            assert (m * n) % order == 0
        for key in table.by_type:
            assert math.gcd(m, n) % key.A == 0
            assert (m * n) % (key.A * key.B) == 0


def test_build_table_keys_equal_checked_keys():
    for m, n in [(1, 1), (12, 18), (1872, 1980), (2**10, 3**5 * 7)]:
        keys = list(build_table(m, n).by_type)
        assert keys == sorted(keys)
        for key in keys:
            checked = TypeKey(key.A, key.B)
            assert type(key) is TypeKey
            assert key == checked and hash(key) == hash(checked)
