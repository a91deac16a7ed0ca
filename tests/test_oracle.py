"""Tests for the brute-force oracle and the cross-check machinery."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranktwo import (
    ElementSet,
    GoursatTuple,
    TypeKey,
    brute_subgroups,
    classify,
    cross_check,
    enumerate_tuples,
    materialize,
)
from ranktwo.counting import count_total
from ranktwo import oracle
from ranktwo.oracle import BoundExceededError


def test_brute_trivial():
    assert brute_subgroups(1, 1) == {ElementSet.from_iterable(1, 1, [(0, 0)])}


def test_brute_klein():
    subs = brute_subgroups(2, 2)
    assert len(subs) == 5
    sizes = sorted(len(s) for s in subs)
    assert sizes == [1, 2, 2, 2, 4]


def test_brute_12_18():
    assert len(brute_subgroups(12, 18)) == 80


def test_brute_bound():
    with pytest.raises(BoundExceededError):
        brute_subgroups(25, 25)
    # override works
    assert len(brute_subgroups(5, 5, bound=625)) == count_total(5, 5)


@st.composite
def translations(draw):
    """A group, a subset of it and a translation; thin groups and a zero
    coordinate are drawn often."""
    m, n = draw(st.one_of(
        st.sampled_from([(1, 1), (1, 9), (9, 1), (1, 4096), (4096, 1), (2, 2048), (2048, 2)]),
        st.tuples(st.integers(1, 24), st.integers(1, 24))))
    points = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    pts = draw(st.sets(points, max_size=min(m * n, 300)))
    tx = draw(st.one_of(st.just(0), st.integers(0, m - 1)))
    ty = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
    return m, n, pts, tx, ty


@settings(max_examples=300, deadline=None)
@given(translations())
def test_mask_shift_is_the_pointwise_translation(case):
    m, n, pts, tx, ty = case
    g = oracle._Grid(m, n)
    mask = g.encode(pts)
    assert mask == sum(1 << (x * n + y) for x, y in pts)
    assert g.decode(mask) == ElementSet.from_iterable(m, n, pts)
    moved = {((x + tx) % m, (y + ty) % n) for x, y in pts}
    assert g.shift(mask, tx, ty) == g.encode(moved)


def test_classify_trivial():
    from ranktwo import TypeKey
    s = ElementSet.from_iterable(6, 6, [(0, 0)])
    assert classify(s) == (1, 1, TypeKey(1, 1))


def test_classify_figure_subgroup():
    s = materialize(12, 18, GoursatTuple(6, 2, 18, 6, 1))
    order, exponent, inv = classify(s)
    assert (order, exponent) == (36, 18)
    assert (inv.A, inv.B) == (2, 18)


def test_classify_full_klein():
    s = ElementSet.from_iterable(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    order, exponent, inv = classify(s)
    assert (order, exponent) == (4, 2)
    assert (inv.A, inv.B) == (2, 2)


def test_classify_rejects_non_closed():
    # <(1, 0)> leaves the set first at (2, 0)
    s = ElementSet.from_iterable(4, 4, [(0, 0), (1, 0)])
    with pytest.raises(ValueError, match=r"\(2, 0\)"):
        classify(s)


@pytest.mark.parametrize("m, n, pts, named", [
    (2, 2, ((0, 0), (0, 1), (0, 2), (0, 3)), r"\(0, 2\)"),  # once read as all of Z_2 x Z_2
    (2, 2, ((0, 0), (0, 2)), r"\(0, 2\)"),  # once read as <(1, 0)>
    (2, 2, ((0, 0), (5, 5)), r"\(5, 5\)"),  # once an IndexError
    (3, 3, ((0, 0), (0, -1), (0, -2)), r"\(0, -1\)"),  # once named (1, 2)
    (2, 2, ((0, 0), (0, 1), (0, 1)), r"\(0, 1\) is listed twice"),
])
def test_classify_refuses_points_that_are_not_distinct_grid_points(m, n, pts, named):
    with pytest.raises(ValueError, match=named):
        classify(ElementSet((m, n), pts))


def pairwise_classification(pts, m, n):
    """Order, exponent and type of pts by the pairwise closure check, or None."""
    if (0, 0) not in pts or not all(((x1 + x2) % m, (y1 + y2) % n) in pts
                                    for x1, y1 in pts for x2, y2 in pts):
        return None
    exponent = math.lcm(*(math.lcm(m // math.gcd(x, m), n // math.gcd(y, n))
                          for x, y in pts))
    return len(pts), exponent, TypeKey(len(pts) // exponent, exponent)


def assert_classify_decides(m, n, pts):
    """classify accepts exactly the closed sets, classifying them as the pairwise check does."""
    expected = pairwise_classification(pts, m, n)
    s = ElementSet.from_iterable(m, n, pts)
    if expected is None:
        with pytest.raises(ValueError):
            classify(s)
    else:
        assert classify(s) == expected


def test_classify_subgroups_with_one_point_changed():
    for m, n in [(4, 4), (6, 4), (8, 12), (12, 18)]:
        group = [(x, y) for x in range(m) for y in range(n)]
        for t in enumerate_tuples(m, n):
            members = set(materialize(m, n, t).elements)
            assert_classify_decides(m, n, members)
            for p in group:
                assert_classify_decides(m, n, members ^ {p})


def test_classify_random_subsets_with_zero():
    rng = random.Random(20131)
    for m in range(1, 9):
        for n in range(1, 9):
            group = [(x, y) for x in range(m) for y in range(n)]
            for _ in range(40):
                density = rng.random()
                assert_classify_decides(m, n, {p for p in group if rng.random() < density}
                                        | {(0, 0)})


def test_classify_cyclic_iff_single_generator():
    m, n = 6, 4
    for s in brute_subgroups(m, n):
        _, _, inv = classify(s)
        generated = False
        for x, y in s:
            pts = set()
            cx, cy = 0, 0
            while (cx, cy) not in pts:
                pts.add((cx, cy))
                cx, cy = (cx + x) % m, (cy + y) % n
            if len(pts) == len(s):
                generated = True
                break
        assert (inv.A == 1) == generated


def test_invariant_u_divides_gcd():
    import math
    for m, n in [(4, 6), (8, 8), (9, 12)]:
        for s in brute_subgroups(m, n):
            _, _, inv = classify(s)
            assert math.gcd(m, n) % inv.A == 0


def test_cross_check_12_18():
    report = cross_check(12, 18)
    assert report.ok
    assert report.subgroup_count == 80


def test_cross_check_trivial():
    report = cross_check(1, 1)
    assert report.ok
    assert report.subgroup_count == 1


def test_cross_check_sweep_12():
    for m in range(1, 13):
        for n in range(1, 13):
            report = cross_check(m, n)
            assert report.ok, (m, n, report.mismatches)


def test_cross_check_walks_the_by_type_sum_once(monkeypatch):
    # the by-type tally settles the paper's by-order counts, so no second walk
    from ranktwo import counting

    calls = []
    count_by_type = counting.count_by_type

    def counted(m, n):
        calls.append((m, n))
        return count_by_type(m, n)

    monkeypatch.setattr(counting, "count_by_type", counted)
    monkeypatch.setattr(oracle, "count_by_type", counted)
    assert cross_check(12, 18).ok
    assert calls == [(12, 18)]


def test_cross_check_flags_a_wrong_table(monkeypatch):
    from ranktwo import build_table, oracle

    def skewed(m, n):
        table = build_table(m, n)
        by_order = dict(table.by_order)
        by_order[2] += 1
        return table._replace(by_order=by_order, cyclic_total=0)

    monkeypatch.setattr(oracle, "build_table", skewed)
    report = cross_check(12, 18)
    assert not report.ok
    assert ("table_by_order", 2, 3, 4) in report.mismatches
    assert ("table_cyclic", None, 48, 0) in report.mismatches

    # a zero-count row, which build_table never produces, is still a row:
    # Z_12 x Z_18 has no element of order 5
    def with_a_zero_row(m, n):
        table = build_table(m, n)
        return table._replace(by_type={**table.by_type, TypeKey(1, 5): 0})

    monkeypatch.setattr(oracle, "build_table", with_a_zero_row)
    assert cross_check(12, 18).mismatches == [("table_by_type", (1, 5), None, 0)]

    # a paper-side count for a type the oracle lacks: Z_216 is a candidate
    # type (216 divides 12 * 18), but Z_12 x Z_18 has exponent 36
    count_by_type = oracle.count_by_type
    monkeypatch.setattr(oracle, "build_table", build_table)
    monkeypatch.setattr(oracle, "count_by_type",
                        lambda m, n: {**count_by_type(m, n), TypeKey(1, 216): 7})
    assert cross_check(12, 18).mismatches == [("by_type", (1, 216), None, 7)]


def test_cross_check_flags_wrong_element_sets(monkeypatch):
    # the counts all agree, so only the element sets can show the fault
    real = oracle._mask

    def drop_a_point(g, t):
        mask = real(g, t)
        if t == GoursatTuple(6, 2, 18, 6, 1):
            return mask ^ 1 << mask.bit_length() - 1
        return mask

    monkeypatch.setattr(oracle, "_mask", drop_a_point)
    assert cross_check(12, 18).mismatches == [
        ("element_sets", None, "missing orders [36]", "extra orders [35]")]

    # a wrong subgroup of the right order: {0} x <6> comes back as <4> x {0},
    # which (3, 3, 1, 1, 1) also names, so nothing is extra but <4> x {0}
    # is named twice
    def swap_a_subgroup(g, t):
        if t == GoursatTuple(1, 1, 3, 3, 1):
            t = GoursatTuple(3, 3, 1, 1, 1)
        return real(g, t)

    monkeypatch.setattr(oracle, "_mask", swap_a_subgroup)
    assert cross_check(12, 18).mismatches == [
        ("element_sets", None, "missing orders [3]", "extra orders []"),
        ("element_sets", None, "each named once", "orders named more than once [3]")]


def test_cross_check_flags_a_tuple_named_twice(monkeypatch):
    # every subgroup is still named, so the element sets agree as sets; only
    # the count of tuples per subgroup shows the fault
    def yield_one_twice(m, n):
        for t in enumerate_tuples(m, n):
            yield t
            if t == GoursatTuple(6, 2, 18, 6, 1):
                yield t

    monkeypatch.setattr(oracle, "enumerate_tuples", yield_one_twice)
    assert cross_check(12, 18).mismatches == [
        ("element_sets", None, "each named once", "orders named more than once [36]")]


@pytest.mark.parametrize("m, n, sums", [(12, 18, 113), (60, 60, 2524)])
def test_brute_force_pairs_each_cyclic_subgroup_with_the_orders_dividing_its_own(
        monkeypatch, m, n, sums):
    # a call with h != 1 is a pair sum C1 + <(x, y)>; ord (x, y) divides |C1|
    pairs = []
    real = oracle._sum

    def counted(g, h, x, y):
        if h != 1:
            pairs.append((h.bit_count(), oracle._element_order(x, y, m, n)))
        return real(g, h, x, y)

    monkeypatch.setattr(oracle, "_sum", counted)
    oracle._brute_masks(oracle._Grid(m, n))
    assert len(pairs) == sums
    assert all(o1 % o2 == 0 for o1, o2 in pairs)


def test_brute_force_types_match_classify():
    # _brute_masks types C1 + <g2> by |C1|, the largest order in it;
    # classify types the decoded set by its own greedy span
    for m in range(1, 257):
        for n in range(1, 256 // m + 1):
            g = oracle._Grid(m, n)
            for mask, exponent in oracle._brute_masks(g).items():
                order = mask.bit_count()
                assert classify(g.decode(mask)) == \
                    (order, exponent, TypeKey(order // exponent, exponent)), (m, n)


def assert_row_masks_are_the_encoded_materialized_sets(m, n):
    # cross_check names each tuple's subgroup by _mask, formed from _rows;
    # this pins it to the points materialize lists from the same rows
    g = oracle._Grid(m, n, oracle.MAX_BOUND)
    for t in enumerate_tuples(m, n):
        assert oracle._mask(g, t) == g.encode(materialize(m, n, t).elements), (m, n, t)


def test_row_mask_is_the_encoded_materialized_set_up_to_256():
    for m in range(1, 257):
        for n in range(1, 256 // m + 1):
            assert_row_masks_are_the_encoded_materialized_sets(m, n)


@pytest.mark.parametrize("m, n", [(1, 4096), (4096, 1), (2, 2048), (64, 64)])
def test_row_mask_is_the_encoded_materialized_set_on_edge_shapes(m, n):
    assert_row_masks_are_the_encoded_materialized_sets(m, n)


def test_oracle_equals_enumeration_up_to_256():
    for m in range(1, 257):
        for n in range(1, 257 // m + 1):
            if m * n > 256:
                continue
            brute = brute_subgroups(m, n)
            enumerated = {materialize(m, n, t) for t in enumerate_tuples(m, n)}
            assert brute == enumerated, (m, n)
