"""Seeded request streams for the three workloads, with reference answers.

A request is one CLI argv run in-process through `ranktwo.cli.main`, or one
library round-trip `find_tuple(m, n, materialize(m, n, t))`.  Each request
carries the reference answer ("expect") computed here with `reference`,
never with `ranktwo`.

Streams run in rounds of fixed composition, so the latency distribution,
and with it the median and tail, stays alike from seed to seed.
table_smooth and enumerate_verify each repeat one fixed pool of inputs,
spread evenly over log-spaced cost bands; the seed sets each round's order.
count_rough runs one group of requests per template and round, on fresh
large primes the seed draws, so no large number repeats.
"""

from __future__ import annotations

import random
from math import gcd, prod

import sympy

import reference
from check import table_digest

WORKLOADS = ("table_smooth", "count_rough", "enumerate_verify")
FORMATS = ("plain", "json", "csv")

# Inputs beyond the program's reach when this benchmark was written: each
# took far longer than the per-request limit (a 60-bit semiprime about a
# minute to factor, a 64-bit prime hours).  They are never part of a
# measured stream, so no measured request fails; the traced run probes them.
BEYOND_REACH = {
    "table_smooth": [["table", "27720", "27720"], ["table", "720720", "720720", "--format", "json"]],
    "count_rough": [["count", str(1000000007 * 999999937), "1"], ["count", "18446744073709551557", "1"]],
    "enumerate_verify": [
        ("roundtrip", 64, 64, (64, 64, 64, 64, 1)),
        ("roundtrip", 48, 96, (48, 48, 96, 96, 1)),
    ],
}


def _smooth(limit: int, primes=(2, 3, 5, 7, 11, 13)) -> list[int]:
    nums = [1]
    for p in primes:
        nums = [x * p**k for x in nums for k in range(40) if x * p**k <= limit]
    return sorted(nums)


def table_work(m: int, n: int) -> int:
    """Divisor-pair steps of the seed's build_table: its type probes times tau(m) tau(n).

    There is one probe per (A, B) with A | gcd(m, n) and A | B | m*n/A, that
    is tau(m*n/A^2) probes for each A; summed over A that factors by prime.
    """
    ex = reference.exponents(m, n).values()
    probes = prod(sum(a + b - 2 * x + 1 for x in range(min(a, b) + 1)) for a, b in ex)
    return probes * prod(a + 1 for a, _ in ex) * prod(b + 1 for _, b in ex)


def _table_expect(m: int, n: int) -> dict:
    t = reference.subgroup_table(m, n)
    return {
        "total": t["total"],
        "cyclic": t["cyclic"],
        "digest": table_digest(t["by_order"], t["by_type"]),
    }


def _cli(argv: list[str], expect: dict) -> dict:
    return {"kind": "cli", "argv": argv, "expect": expect}


def _with_format(rng: random.Random, argv: list[str]) -> list[str]:
    fmt = rng.choice(FORMATS)
    return argv if fmt == "plain" else argv + ["--format", fmt]


# --- table_smooth ------------------------------------------------

# Work bands (divisor-pair steps, log-spaced) and pairs per band.  About
# 100-200 ns per step on a 2-core x86 box spans roughly 3 ms to 150 ms.
TABLE_WORK = (25_000, 1_400_000)
TABLE_BANDS = 12
TABLE_PER_BAND = 3


def _banded(rng: random.Random, candidates: list, key, lo: float, hi: float,
            bands: int, per_band: int) -> list:
    """per_band candidates from each of `bands` log-spaced bands of key over [lo, hi)."""
    edges = [lo * (hi / lo) ** (i / bands) for i in range(bands + 1)]
    buckets: list[list] = [[] for _ in range(bands)]
    for c in candidates:
        k = key(c)
        if lo <= k < hi:
            buckets[sum(1 for e in edges[1:-1] if k >= e)].append(c)
    return [c for bucket in buckets for c in rng.sample(bucket, min(per_band, len(bucket)))]


def _rounds(rng: random.Random, pool: list):
    """Endless rounds over the pool, each in a fresh seeded order.

    Output formats rotate along the pool, which is sorted by cost band, so
    each format gets an even share of every band and every round costs the
    same.
    """
    fmt = iter(FORMATS * len(pool))
    pool = [{**req, "argv": req["argv"] + ["--format", next(fmt)]} if "argv" in req else req
            for req in pool]
    while True:
        block = list(pool)
        rng.shuffle(block)
        yield block


def _table_pool() -> list[dict]:
    pool_rng = random.Random("table_smooth:pool")
    smooth = _smooth(2520)
    pairs = sorted({(pool_rng.choice(smooth), pool_rng.choice(smooth)) for _ in range(20_000)})
    chosen = _banded(pool_rng, pairs, lambda mn: table_work(*mn), *TABLE_WORK, TABLE_BANDS, TABLE_PER_BAND)
    return [_cli(["table", str(m), str(n)], _table_expect(m, n)) for m, n in chosen]


# --- count_rough -----------------------------------------------------------

U64_MAX = 2**64 - 1

# One group per template and round.  "P" is a fresh prime in [2^39, 2^40),
# "pq" a fresh product of two primes in [2^19, 2^20); the factor after it is
# a fixed small cofactor.  Trial division and the divisor scan cost about
# sqrt(P) steps, so the narrow ranges keep each template's cost alike from
# seed to seed while no large number repeats.
COUNT_TEMPLATES = (
    (("P", 1), ("1", 1)),
    (("P", 1), ("1", 12)),
    (("P", 2), ("1", 6)),
    (("P", 1), ("P", 1)),
    (("P", 6), ("pq", 1)),
    (("pq", 1), ("1", 1)),
    (("pq", 1), ("1", 4)),
    (("pq", 1), ("pq", 1)),
)


def _prime(rng: random.Random, bits: int) -> int:
    return sympy.nextprime(rng.randrange(2 ** (bits - 1), 2**bits - 2**(bits // 2)))


def _rough(rng: random.Random, kind: str, cofactor: int) -> int:
    if kind == "P":
        return cofactor * _prime(rng, 40)
    if kind == "pq":
        return cofactor * _prime(rng, 20) * _prime(rng, 20)
    return cofactor


def _count_group(rng: random.Random, template) -> list[dict]:
    (mk, mc), (nk, nc) = template
    m, n = _rough(rng, mk, mc), _rough(rng, nk, nc)
    t = reference.subgroup_table(m, n)
    # filters past 64 bits are refused by the program (exit 2)
    order = rng.choice([o for o in sorted(t["by_order"]) if o <= U64_MAX])
    A, B = rng.choice([k for k in sorted(t["by_type"]) if k[1] <= U64_MAX])
    first = rng.choice((
        _cli(["count", str(m), str(n)], {"count": t["total"]}),
        _cli(["count", str(m), str(n), "--cyclic"], {"count": t["cyclic"]}),
    ))
    # fixed order: the first request factors m and n, --type scans all
    # their divisors, and --order then mostly reuses the cached kernel
    group = [
        first,
        _cli(["count", str(m), str(n), "--type", f"{A},{B}"], {"count": t["by_type"][(A, B)]}),
        _cli(["count", str(m), str(n), "--order", str(order)], {"count": t["by_order"][order]}),
    ]
    return [{**r, "argv": _with_format(rng, r["argv"])} for r in group]


def _count_blocks(rng: random.Random):
    while True:
        templates = list(COUNT_TEMPLATES)
        rng.shuffle(templates)
        yield [req for template in templates for req in _count_group(rng, template)]


# --- enumerate_verify ------------------------

# Per round: full listings of groups with 2k-16k subgroups (log-spaced
# bands), --limit listings of huge groups, verify on m*n <= 400, and
# find_tuple round-trips.  These shares keep goursat and oracle each under
# about two thirds of request time.
ENUM_FULL_BANDS = (2000, 16000, 6, 2)
ENUM_LIMITED = 4
VERIFY_BANDS = (100, 401, 4, 3)
ROUNDTRIPS = 20
HUGE_PAIRS = ((720720, 720720), (360360, 720720), (55440, 720720), (5040, 5040))


def random_tuple(rng: random.Random, m: int, n: int) -> tuple[int, int, int, int, int]:
    """A valid (a, b, c, d, l) for Z_m x Z_n; one in four is the full group."""
    if rng.random() < 0.25:
        return (m, m, n, n, 1)
    while True:
        a = rng.choice(sympy.divisors(m))
        b = rng.choice(sympy.divisors(a))
        e = a // b
        cs = [c for c in sympy.divisors(n) if c % e == 0]
        if cs:
            break
    c = rng.choice(cs)
    ell = rng.choice([x for x in range(1, e + 1) if gcd(x, e) == 1])
    return (a, b, c, c // e, ell)


def _roundtrip(m: int, n: int, t) -> dict:
    return {"kind": "roundtrip", "m": m, "n": n, "tuple": list(t)}


def _enumerate_pool() -> list[dict]:
    pool_rng = random.Random("enumerate_verify:pool")
    smooth = _smooth(720)
    pairs = [(m, n) for m in smooth for n in smooth]
    pool = []
    for m, n in _banded(pool_rng, pairs, lambda mn: reference.total(*mn), *ENUM_FULL_BANDS):
        t = reference.subgroup_table(m, n)
        pool.append(_cli(["enumerate", str(m), str(n)],
                         {"records": t["total"], "digest": table_digest(t["by_order"], t["by_type"])}))
    for _ in range(ENUM_LIMITED):
        m, n = pool_rng.choice(HUGE_PAIRS)
        limit = pool_rng.randrange(200, 3000)
        pool.append(_cli(["enumerate", str(m), str(n), "--limit", str(limit)],
                         {"records": min(limit, reference.total(m, n))}))
    small = [(m, n) for m in range(2, 201) for n in range(2, 201)]
    for m, n in _banded(pool_rng, small, lambda mn: mn[0] * mn[1], *VERIFY_BANDS):
        pool.append(_cli(["verify", str(m), str(n)], {"subgroups": reference.total(m, n)}))
    for _ in range(ROUNDTRIPS):
        m, n = pool_rng.randrange(8, 33), pool_rng.randrange(8, 33)
        pool.append(_roundtrip(m, n, random_tuple(pool_rng, m, n)))
    return pool


_BLOCKS = {
    "table_smooth": lambda rng: _rounds(rng, _table_pool()),
    "count_rough": _count_blocks,
    "enumerate_verify": lambda rng: _rounds(rng, _enumerate_pool()),
}


def stream(workload: str, seed: int, count: int) -> list[dict]:
    """The first `count` requests of a workload's stream for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    out: list[dict] = []
    for block in _BLOCKS[workload](rng):
        out.extend(block)
        if len(out) >= count:
            return out[:count]


def beyond_reach(workload: str) -> list[dict]:
    """The stated over-limit inputs of a workload, with reference answers."""
    reqs = []
    for item in BEYOND_REACH[workload]:
        if item[0] == "roundtrip":
            _, m, n, t = item
            reqs.append(_roundtrip(m, n, t))
        elif item[0] == "table":
            reqs.append(_cli(list(item), _table_expect(int(item[1]), int(item[2]))))
        else:
            m, n = int(item[1]), int(item[2])
            reqs.append(_cli(list(item), {"count": reference.total(m, n)}))
    return reqs
