"""Tests for tuple enumeration, materialization, and classification."""

import copy
import itertools
import math
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranktwo import (
    ElementSet,
    GoursatTuple,
    describe,
    enumerate_tuples,
    find_tuple,
    materialize,
)
from ranktwo.counting import count_total
from ranktwo.goursat import (
    MAX_POINTS,
    UNITS_HEAD,
    NotASubgroupError,
    SubgroupDescriptor,
    TupleMembershipError,
    check_membership,
)
from ranktwo.oracle import brute_subgroups

from paper_forms import offset_form
from test_bounds import P64


def element_order(x, y, m, n):
    return math.lcm(m // math.gcd(x, m), n // math.gcd(y, n))


def generated(m, n, generators):
    """The closure of {(0, 0)} under adding each generator, mod (m, n)."""
    span = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for gx, gy in generators:
            p = ((x + gx) % m, (y + gy) % n)
            if p not in span:
                span.add(p)
                frontier.append(p)
    return span


# --- enumerate_tuples -------------------------------------------------------

def test_enumerate_trivial_group():
    assert list(enumerate_tuples(1, 1)) == [GoursatTuple(1, 1, 1, 1, 1)]


def test_enumerate_12_18_has_80_tuples():
    assert len(list(enumerate_tuples(12, 18))) == 80


def test_enumerate_2_2():
    # the five subgroups of the Klein group, verified by brute-force closure
    expected = {
        GoursatTuple(1, 1, 1, 1, 1),
        GoursatTuple(1, 1, 2, 2, 1),
        GoursatTuple(2, 2, 1, 1, 1),
        GoursatTuple(2, 1, 2, 1, 1),
        GoursatTuple(2, 2, 2, 2, 1),
    }
    got = list(enumerate_tuples(2, 2))
    assert set(got) == expected
    assert len(got) == len(brute_subgroups(2, 2)) == 5


def test_enumerate_is_lexicographic():
    for m, n in [(2, 2), (12, 18), (8, 1), (1, 9)]:
        tuples = list(enumerate_tuples(m, n))
        assert tuples == sorted(tuples)
        assert len(tuples) == len(set(tuples))


def plain_divisors(k):
    return [x for x in range(1, k + 1) if k % x == 0]


def filter_walk(m, n):
    """Every tuple by the definition alone: a | m, b | a, c | n with e = a/b
    dividing c, d = c/e and l in 1..e coprime to e, in lexicographic order."""
    for a in plain_divisors(m):
        for b in plain_divisors(a):
            e = a // b
            for c in plain_divisors(n):
                if c % e == 0:
                    for ell in range(1, e + 1):
                        if math.gcd(ell, e) == 1:
                            yield GoursatTuple(a, b, c, c // e, ell)


def test_enumerate_equals_the_filter_walk_up_to_60():
    for m in range(1, 61):
        for n in range(1, 61):
            assert list(enumerate_tuples(m, n)) == list(filter_walk(m, n)), (m, n)


def test_enumerate_runs_past_the_units_head_of_a_64_bit_prime():
    # Z_p x Z_p lists (1,1,1,1,1), (1,1,p,p,1), then the block (p,1,p,1) whose
    # every l in 1..p-1 is a unit, UNITS_HEAD of them listed and the rest lazy
    p = 18446744073709551557
    count = UNITS_HEAD + 100
    tuples = list(itertools.islice(enumerate_tuples(p, p), count))
    assert tuples[:2] == [GoursatTuple(1, 1, 1, 1, 1), GoursatTuple(1, 1, p, p, 1)]
    assert tuples[2:] == [GoursatTuple(p, 1, p, 1, ell) for ell in range(1, count - 1)]


def test_goursat_tuple_prints_and_orders_as_before():
    t = GoursatTuple(6, 2, 18, 6, 1)
    assert str(t) == "(6,2,18,6,1)"
    assert (t.a, t.b, t.c, t.d, t.ell) == (6, 2, 18, 6, 1)
    assert GoursatTuple(1, 2, 3, 4, 5) < GoursatTuple(1, 2, 3, 5, 1) < GoursatTuple(2, 1, 1, 1, 1)


def test_enumerate_rejects_zero():
    with pytest.raises(ValueError):
        next(enumerate_tuples(0, 2))


# --- describe ---------------------------------------------------------------

def test_describe_figure_subgroup():
    d = describe(12, 18, GoursatTuple(6, 2, 18, 6, 1))
    assert d.order == 36
    assert d.exponent == 18
    assert (d.invariants.A, d.invariants.B) == (2, 18)
    assert not d.cyclic


def test_describe_trivial():
    d = describe(5, 7, GoursatTuple(1, 1, 1, 1, 1))
    assert d.order == 1
    assert d.exponent == 1
    assert (d.invariants.A, d.invariants.B) == (1, 1)
    assert d.cyclic


def test_describe_order8_subgroup():
    # classify independently by materializing and inspecting element orders
    t = GoursatTuple(4, 4, 2, 2, 1)
    s = materialize(12, 18, t)
    orders = sorted(element_order(x, y, 12, 18) for x, y in s)
    exponent = math.lcm(*orders)
    d = describe(12, 18, t)
    assert d.order == len(s) == 8
    assert d.exponent == exponent
    assert (d.invariants.A, d.invariants.B) == (len(s) // exponent, exponent) == (2, 4)


def test_describe_membership_errors_are_distinct():
    with pytest.raises(TupleMembershipError, match="does not divide m"):
        describe(12, 18, GoursatTuple(5, 1, 1, 1, 1))
    with pytest.raises(TupleMembershipError, match="does not divide a"):
        describe(12, 18, GoursatTuple(4, 3, 1, 1, 1))
    with pytest.raises(TupleMembershipError, match="does not divide n"):
        describe(12, 18, GoursatTuple(1, 1, 5, 1, 1))
    with pytest.raises(TupleMembershipError, match="does not divide c"):
        describe(12, 18, GoursatTuple(1, 1, 6, 4, 1))
    with pytest.raises(TupleMembershipError, match="quotients differ"):
        describe(12, 18, GoursatTuple(4, 2, 9, 9, 1))
    with pytest.raises(TupleMembershipError, match="exceeds a/b"):
        describe(12, 18, GoursatTuple(4, 2, 18, 9, 3))
    with pytest.raises(TupleMembershipError, match="not coprime"):
        describe(8, 8, GoursatTuple(8, 2, 8, 2, 2))


def test_public_describe_and_materialize_still_check_the_tuple():
    for m, n, t in [(12, 18, GoursatTuple(5, 1, 1, 1, 1)),
                    (12, 18, GoursatTuple(4, 2, 18, 9, 3)),
                    (8, 8, GoursatTuple(8, 2, 8, 2, 2))]:
        with pytest.raises(TupleMembershipError):
            describe(m, n, t)
        with pytest.raises(TupleMembershipError):
            materialize(m, n, t)


# --- materialize ------------------------------------------------------------

def test_materialize_figure_subgroup():
    s = materialize(12, 18, GoursatTuple(6, 2, 18, 6, 1))
    assert len(s) == 36
    cols = {}
    for x, y in s:
        cols.setdefault(x, set()).add(y)
    assert cols[0] == {0, 3, 6, 9, 12, 15}
    assert cols[2] == {1, 4, 7, 10, 13, 16}
    assert cols[4] == {2, 5, 8, 11, 14, 17}
    assert cols[6] == {0, 3, 6, 9, 12, 15}
    assert cols[8] == {1, 4, 7, 10, 13, 16}
    assert cols[10] == {2, 5, 8, 11, 14, 17}
    assert set(cols) == {0, 2, 4, 6, 8, 10}


def test_materialize_trivial():
    s = materialize(9, 4, GoursatTuple(1, 1, 1, 1, 1))
    assert s.elements == ((0, 0),)


def test_materialize_degenerate_ambient():
    # closure of {(2, 0)} in Z_4 x Z_1; order a*d = 2 forces b = 2, so the
    # naming tuple is (2,2,1,1,1)
    s = materialize(4, 1, GoursatTuple(2, 2, 1, 1, 1))
    assert s.elements == ((0, 0), (2, 0))


def test_materialize_sorted_and_deduplicated():
    for t in enumerate_tuples(6, 4):
        s = materialize(6, 4, t)
        assert list(s.elements) == sorted(set(s.elements))


def paper_formula(m, n, t):
    """The subgroup {(i*m/a, i*l*n/c + j*n/d)}, reduced, deduplicated and sorted."""
    return ElementSet.from_iterable(m, n, {
        (i * m // t.a, i * t.ell * n // t.c + j * n // t.d)
        for i in range(t.a) for j in range(t.d)})


def assert_materialize_is_the_paper_formula(m, n, t):
    s = materialize(m, n, t)
    assert s == paper_formula(m, n, t)
    assert all(p < q for p, q in zip(s.elements, s.elements[1:]))


def test_materialize_equals_the_paper_formula_up_to_24():
    # materialize lists each row from its least member and builds the set in
    # order, with no reduction, set or sort; the formula does all three
    for m in range(1, 25):
        for n in range(1, 25):
            for t in enumerate_tuples(m, n):
                assert_materialize_is_the_paper_formula(m, n, t)


@pytest.mark.parametrize("m, n, tuples", [
    (1, 4096, None),
    (4096, 1, None),
    (64, 64, [GoursatTuple(64, 64, 64, 64, 1)]),
    # 64-bit ambients with small a and d: 2^64 - 1 = 3*5*17*257*641*65537*6700417
    (2**64 - 1, 2**64 - 1, [GoursatTuple(15, 3, 15, 3, ell) for ell in (1, 2, 3, 4)]),
    (2**63, 2**63, [GoursatTuple(8, 2, 8, 2, 3), GoursatTuple(2, 1, 8, 4, 1)]),
])
def test_materialize_equals_the_paper_formula_on_edge_shapes(m, n, tuples):
    # tuples None: every tuple of the group
    for t in tuples or enumerate_tuples(m, n):
        assert_materialize_is_the_paper_formula(m, n, t)


@pytest.mark.parametrize("m, n, t", [
    (MAX_POINTS, 1, GoursatTuple(MAX_POINTS, MAX_POINTS, 1, 1, 1)),
    (1, MAX_POINTS, GoursatTuple(1, 1, MAX_POINTS, MAX_POINTS, 1)),
])
def test_materialize_lists_a_subgroup_of_max_points(m, n, t):
    s = materialize(m, n, t)
    assert len(s) == MAX_POINTS
    assert s.elements[-1] == (m - 1, n - 1)


@pytest.mark.parametrize("m, n, t", [
    (MAX_POINTS + 1, 1, GoursatTuple(MAX_POINTS + 1, MAX_POINTS + 1, 1, 1, 1)),
    (1, MAX_POINTS + 1, GoursatTuple(1, 1, MAX_POINTS + 1, MAX_POINTS + 1, 1)),
    # order a*d = 2 * (MAX_POINTS / 2 + 1), both factors within the bound
    (2, MAX_POINTS + 2, GoursatTuple(2, 1, MAX_POINTS + 2, MAX_POINTS // 2 + 1, 1)),
    (P64, 1, GoursatTuple(P64, P64, 1, 1, 1)),
    (P64, P64, GoursatTuple(P64, 1, P64, 1, 1)),
])
def test_materialize_refuses_a_subgroup_past_max_points(m, n, t):
    # refused up front: listing P64 points would take all memory
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_POINTS"):
        materialize(m, n, t)
    assert time.perf_counter() - start < 0.1


def test_find_tuple_refuses_a_subgroup_past_max_points():
    m = MAX_POINTS + 1
    s = ElementSet((m, 1), tuple((x, 0) for x in range(m)))
    with pytest.raises(ValueError, match="MAX_POINTS"):
        find_tuple(m, 1, s)


# --- value types ------------------------------------------------------------

def test_element_set_equality_and_hash_ignore_point_order():
    points = [(0, 0), (2, 3), (0, 3), (2, 0)]
    s = ElementSet.from_iterable(4, 6, points)
    t = ElementSet.from_iterable(4, 6, [(6, -3), *reversed(points)])
    assert s == t and hash(s) == hash(t)
    assert len({s, t}) == 1
    assert s.elements == ((0, 0), (0, 3), (2, 0), (2, 3))


def test_element_set_is_unequal_across_ambients_and_to_a_tuple():
    s = ElementSet.from_iterable(2, 2, [(0, 0)])
    assert s != ElementSet.from_iterable(1, 1, [(0, 0)])
    assert s != ElementSet.from_iterable(2, 4, [(0, 0)])
    assert s != ((2, 2), ((0, 0),))
    assert s != ((0, 0),)
    assert ((2, 2), ((0, 0),)) != s


def test_element_set_len_iter_and_repr():
    s = ElementSet.from_iterable(2, 2, [(1, 1), (0, 0)])
    assert len(s) == 2
    assert list(s) == [(0, 0), (1, 1)]
    assert repr(s) == "ElementSet(ambient=(2, 2), elements=((0, 0), (1, 1)))"


def test_element_set_pickles_and_copies():
    s = materialize(12, 18, GoursatTuple(6, 2, 18, 6, 1))
    for other in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert type(other) is ElementSet
        assert other == s and hash(other) == hash(s)
        assert other.ambient == (12, 18) and other.elements == s.elements


def test_element_set_refuses_assignment():
    s = ElementSet.from_iterable(2, 2, [(0, 0)])
    with pytest.raises(AttributeError):
        s.elements = ()
    with pytest.raises(AttributeError):
        s.ambient = (1, 1)
    with pytest.raises(AttributeError):
        del s.elements
    with pytest.raises(AttributeError):
        s.extra = 1
    assert s == ElementSet((2, 2), ((0, 0),))


def test_subgroup_descriptor_fields():
    assert SubgroupDescriptor._fields == (
        "ambient", "tuple", "order", "exponent", "invariants", "cyclic", "generators")
    d = describe(12, 18, GoursatTuple(6, 2, 18, 6, 1))
    assert d.ambient == (12, 18) and d.tuple == GoursatTuple(6, 2, 18, 6, 1)
    assert d.generators == ((2, 1), (0, 3))


# --- offset_form ------------------------------------------------------------

def test_offset_form_examples():
    offsets = offset_form(12, 18, GoursatTuple(6, 2, 18, 6, 1))
    assert offsets[0] == (0, 0)
    assert offsets[3] == (3, -1)


def test_offset_form_matches_materialized_columns():
    for m, n in [(12, 18), (8, 8), (6, 1), (1, 12)]:
        for t in enumerate_tuples(m, n):
            s = materialize(m, n, t)
            cols = {}
            for x, y in s:
                cols.setdefault(x, []).append(y)
            for i, j_i in offset_form(m, n, t):
                x = (i * (m // t.a)) % m
                vals = sorted(
                    i * t.ell * (n // t.c) + j * (n // t.d)
                    for j in range(j_i, j_i + t.d)
                )
                assert all(0 <= v <= n - 1 for v in vals)
                assert vals == sorted(cols[x])


# --- find_tuple -------------------------------------------------------------

def test_find_tuple_trivial():
    s = ElementSet.from_iterable(3, 3, [(0, 0)])
    assert find_tuple(3, 3, s) == GoursatTuple(1, 1, 1, 1, 1)


def test_find_tuple_full_group():
    s = ElementSet.from_iterable(
        12, 18, [(x, y) for x in range(12) for y in range(18)]
    )
    # the full group has order a*d = 216, so a = 12, d = 18, b = 12, c = 18
    assert find_tuple(12, 18, s) == GoursatTuple(12, 12, 18, 18, 1)
    assert materialize(12, 18, GoursatTuple(12, 12, 18, 18, 1)) == s


def test_find_tuple_klein_round_trip():
    for t in enumerate_tuples(2, 2):
        assert find_tuple(2, 2, materialize(2, 2, t)) == t


def test_find_tuple_rejects_non_subgroup():
    s = ElementSet.from_iterable(4, 4, [(0, 0), (1, 1), (2, 3)])
    with pytest.raises(NotASubgroupError):
        find_tuple(4, 4, s)


def is_closed(pts, m, n):
    return all(((x1 + x2) % m, (y1 + y2) % n) in pts for x1, y1 in pts for x2, y2 in pts)


def assert_find_tuple_decides(m, n, pts):
    """find_tuple names the subgroup pts is, or refuses a non-subgroup."""
    s = ElementSet.from_iterable(m, n, pts)
    if pts and is_closed(pts, m, n):
        assert materialize(m, n, find_tuple(m, n, s)) == s
    else:
        with pytest.raises(NotASubgroupError):
            find_tuple(m, n, s)


def test_find_tuple_random_subsets():
    rng = random.Random(20130)
    for m in range(1, 9):
        for n in range(1, 9):
            group = [(x, y) for x in range(m) for y in range(n)]
            for _ in range(40):
                pts = {p for p in group if rng.random() < rng.random()}
                assert_find_tuple_decides(m, n, pts - {(0, 0)})
                assert_find_tuple_decides(m, n, pts | {(0, 0)})


def test_find_tuple_subgroups_with_one_point_changed():
    for m, n in [(4, 4), (6, 4), (8, 12), (12, 18)]:
        group = [(x, y) for x in range(m) for y in range(n)]
        for t in enumerate_tuples(m, n):
            members = set(materialize(m, n, t).elements)
            for p in group:
                assert_find_tuple_decides(m, n, members ^ {p})


def test_find_tuple_rejects_a_set_of_another_ambient():
    full_4_4 = ElementSet.from_iterable(4, 4, [(x, y) for x in range(4) for y in range(4)])
    with pytest.raises(NotASubgroupError):
        find_tuple(2, 2, full_4_4)
    with pytest.raises(NotASubgroupError):
        find_tuple(4, 4, materialize(2, 2, GoursatTuple(2, 2, 2, 2, 1)))


@st.composite
def hand_built_sets(draw):
    """(m, n, t, s): s an ElementSet built through __init__ from the subgroup
    t names or from random points, then perhaps duplicated, pushed out of
    range, stripped of (0, 0), unsorted or given another ambient."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    t = draw(st.sampled_from(list(enumerate_tuples(m, n))))
    size = draw(st.sampled_from([None, 4, 40]))
    if size is None:
        pts = list(materialize(m, n, t).elements)
    else:
        pts = draw(st.lists(st.tuples(st.integers(-2, m + 1), st.integers(-2, n + 1)),
                            max_size=size))
        if draw(st.booleans()):
            pts = sorted(set(pts))
    if pts and draw(st.booleans()):
        pts.insert(draw(st.integers(0, len(pts))), draw(st.sampled_from(pts)))
    if draw(st.booleans()):
        pts.append(draw(st.sampled_from([(m, 0), (0, n), (-1, 0), (0, -1), (m, n)])))
    if draw(st.booleans()):
        pts = [p for p in pts if p != (0, 0)]
    if draw(st.booleans()):
        pts = draw(st.permutations(pts))
    ambient = (m, n)
    if draw(st.booleans()):
        ambient = draw(st.sampled_from([(n, m), (m, 2 * n), (2 * m, n), (1, 1)]))
    return m, n, t, ElementSet(ambient, tuple(pts))


@settings(max_examples=300, deadline=None)
@given(hand_built_sets())
def test_find_tuple_names_a_hand_built_set_or_refuses_it(case):
    # any exception but NotASubgroupError fails the property; a set with no
    # x = 0 point is one way to reach a division by zero
    m, n, t, s = case
    try:
        found = find_tuple(m, n, s)
    except NotASubgroupError:
        assert s != materialize(m, n, t)
    else:
        assert materialize(m, n, found) == s


def test_find_tuple_large_full_groups_are_fast():
    for m, n in [(64, 64), (48, 96), (1, 4096)]:
        s = ElementSet.from_iterable(m, n, [(x, y) for x in range(m) for y in range(n)])
        start = time.perf_counter()
        assert find_tuple(m, n, s) == GoursatTuple(m, m, n, n, 1)
        assert time.perf_counter() - start < 1.0


# --- whole-module properties --------------------------------------------------

def test_bijection_materialized_sets_distinct():
    # materialized element sets are pairwise distinct and count matches the
    # closed-form total
    for m in range(1, 37):
        for n in range(1, 37):
            sets = {materialize(m, n, t).elements for t in enumerate_tuples(m, n)}
            assert len(sets) == count_total(m, n)


def test_round_trip_and_laws():
    for m in range(1, 25):
        for n in range(1, 25):
            g = math.gcd(m, n)
            for t in enumerate_tuples(m, n):
                check_membership(m, n, t)
                s = materialize(m, n, t)
                d = describe(m, n, t)
                # order identity
                assert d.order == t.a * t.d == t.b * t.c == len(s)
                # exponent law
                exponent = 1
                for x, y in s:
                    exponent = math.lcm(exponent, element_order(x, y, m, n))
                assert d.exponent == exponent
                # invariant-pair law
                assert (d.invariants.A, d.invariants.B) == (
                    d.order // exponent, exponent)
                # the paper's identity gcd(b, d) * lcm(a, c) = a*d
                assert math.gcd(t.b, t.d) * math.lcm(t.a, t.c) == t.a * t.d
                assert g % d.invariants.A == 0
                # the two generators describe prints generate the subgroup
                assert generated(m, n, d.generators) == set(s.elements)
                # round trip
                assert find_tuple(m, n, s) == t


def test_materialized_sets_are_closed():
    for m, n in [(2, 2), (4, 6), (12, 18), (9, 3), (5, 1)]:
        for t in enumerate_tuples(m, n):
            s = materialize(m, n, t)
            pts = set(s.elements)
            for x1, y1 in pts:
                for x2, y2 in pts:
                    assert ((x1 + x2) % m, (y1 + y2) % n) in pts
