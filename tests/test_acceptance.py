"""Acceptance suite: one test per release criterion.

Every check is exact integer equality; the stated runtime limits are
asserted with a wall-clock timer.  Each criterion prints a single PASS
line when it succeeds (run with `pytest -s` to see them).
"""

import contextlib
import io
import json
import math
import random
import time
from pathlib import Path

import jsonschema

from ranktwo import (
    GoursatTuple,
    TypeKey,
    build_table,
    describe,
    divisors,
    materialize,
)
from ranktwo.counting import count_by_order, count_by_type, count_cyclic, count_total
from ranktwo.cli import main
from ranktwo.oracle import cross_check

from paper_forms import (
    count_by_order_prime_power,
    count_cyclic_reference,
    count_total_prime_power,
    count_total_reference,
)

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = Path(__file__).parent.parent / "docs" / "schemas" / "subgroup_table.schema.json"


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number, description):
    print(f"PASS criterion {number}: {description}")


EXPECTED_BY_ORDER = {
    1: 1, 2: 3, 3: 4, 4: 3, 6: 12, 8: 1, 9: 4, 12: 12,
    18: 12, 24: 4, 27: 1, 36: 12, 54: 3, 72: 4, 108: 3, 216: 1,
}

EXPECTED_BY_TYPE = {
    (1, 1): 1, (1, 2): 3, (1, 3): 4, (1, 4): 2, (1, 6): 12, (1, 9): 3,
    (1, 12): 8, (1, 18): 9, (1, 36): 6,
    (2, 2): 1, (2, 4): 1, (2, 6): 4, (2, 12): 4, (2, 18): 3, (2, 36): 3,
    (3, 3): 1, (3, 6): 3, (3, 9): 1, (3, 12): 2, (3, 18): 3, (3, 36): 2,
    (6, 6): 1, (6, 12): 1, (6, 18): 1, (6, 36): 1,
}


def test_criterion_1_table_reproduction():
    with Timer() as t:
        table = build_table(12, 18)
    assert table.total == 80
    assert table.by_order == EXPECTED_BY_ORDER
    assert {(k.A, k.B): v for k, v in table.by_type.items()} == EXPECTED_BY_TYPE
    assert table.cyclic_total == 48
    assert table.noncyclic_total == 32
    assert t.elapsed < 1.0
    report(1, f"published table for (12,18) reproduced exactly in {t.elapsed:.3f}s")


def test_criterion_2_figure_reproduction():
    with Timer() as t:
        s = materialize(12, 18, GoursatTuple(6, 2, 18, 6, 1))
        d = describe(12, 18, GoursatTuple(6, 2, 18, 6, 1))
    expected = {
        (2 * i % 12, (i + 3 * j) % 18) for i in range(6) for j in range(6)
    }
    assert set(s.elements) == expected
    assert len(s) == 36
    assert d.order == 36
    assert (d.invariants.A, d.invariants.B) == (2, 18)
    assert t.elapsed < 0.1
    report(2, f"figure subgroup (6,2,18,6,1) materialized exactly in {t.elapsed:.3f}s")


def test_criterion_3_oracle_equivalence_sweep():
    with Timer() as t:
        for m in range(1, 13):
            for n in range(1, 13):
                rep = cross_check(m, n)
                assert rep.ok, (m, n, rep.mismatches)
        rep = cross_check(12, 18)
        assert rep.ok, rep.mismatches
    assert t.elapsed < 60.0
    report(3, f"oracle sweep 1..12 plus (12,18) clean in {t.elapsed:.1f}s")


def test_criterion_4_prime_power_closed_forms():
    with Timer() as t:
        for p in (2, 3, 5, 7):
            for a in range(1, 6):
                for b in range(a, 6):
                    assert count_total_prime_power(p, a, b) == \
                        count_total(p**a, p**b)
                    orders = count_by_order(p**a, p**b)
                    for c in range(0, a + b + 1):
                        assert count_by_order_prime_power(p, a, b, c) == \
                            orders.get(p**c, 0)
    assert t.elapsed < 5.0
    report(4, f"prime-power closed forms match generic sums in {t.elapsed:.2f}s")


def test_criterion_5_identity_form_agreement():
    with Timer() as t:
        for m in range(1, 101):
            for n in range(1, 101):
                assert count_total(m, n) == count_total_reference(m, n)
                assert count_cyclic(m, n) == count_cyclic_reference(m, n)
    assert t.elapsed < 10.0
    report(5, f"both printed forms agree for all m,n <= 100 in {t.elapsed:.2f}s")


def test_criterion_6_partition_properties():
    for m in range(1, 41):
        for n in range(1, 41):
            total = count_total(m, n)
            orders = count_by_order(m, n)
            assert sum(orders.get(d, 0) for d in divisors(m * n)) == total
            types = count_by_type(m, n)
            type_sum = 0
            cyclic_sum = 0
            for A in divisors(math.gcd(m, n)):
                for B in divisors(m * n // A):
                    if B % A:
                        continue
                    cnt = types.get(TypeKey(A, B), 0)
                    type_sum += cnt
                    if A == 1:
                        cyclic_sum += cnt
            assert type_sum == total
            assert cyclic_sum == count_cyclic(m, n)
    report(6, "order and type partitions sum to the totals for all m,n <= 40")


def test_criterion_7_multiplicativity():
    rng = random.Random(491428)
    checked = 0
    while checked < 200:
        m1, n1 = rng.randint(1, 40), rng.randint(1, 40)
        m2, n2 = rng.randint(1, 40), rng.randint(1, 40)
        if math.gcd(m1 * n1, m2 * n2) != 1 or m1 * n1 * m2 * n2 > 10**4:
            continue
        assert count_total(m1 * m2, n1 * n2) == \
            count_total(m1, n1) * count_total(m2, n2)
        assert count_cyclic(m1 * m2, n1 * n2) == \
            count_cyclic(m1, n1) * count_cyclic(m2, n2)
        checked += 1
    report(7, "counts factor over 200 random coprime decompositions")


def cli_stdout(*argv):
    """What main(argv) writes to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def test_criterion_8_cli_golden():
    assert cli_stdout("table", "12", "18") == (GOLDEN / "table_12_18.txt").read_text()
    assert cli_stdout("figure", "12", "18", "6", "2", "18", "6", "1") == \
        (GOLDEN / "figure_12_18_6_2_18_6_1.txt").read_text()
    assert cli_stdout("verify", "12", "18") == (GOLDEN / "verify_12_18.txt").read_text()

    obj = json.loads(cli_stdout("table", "12", "18", "--format", "json"))
    jsonschema.validate(obj, json.loads(SCHEMA.read_text()))

    report(8, "CLI golden outputs match byte-for-byte; json validates")
