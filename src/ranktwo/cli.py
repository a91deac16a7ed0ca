"""Command-line interface.

Subcommands: count, table, enumerate, figure, verify.  Output formats are
plain (default), json, and csv.  Exit codes: 0 success, 2 usage or domain
error, 3 verification mismatch.

Every number argument passes `_positive`, which refuses a value below 1 or
past 64 bits before any output.  Every value written is an int or a fixed
token, so output is f-string rows that need no quoting, written as they
go (by table and enumerate in batches of BATCH_ROWS).  Only verify's
reports, whose mismatch text needs escaping, are written by `json.dumps`;
verify imports `json` itself, so no other command loads it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import signal
import sys

from . import counting, goursat, oracle
from .arith import check_nat
from .counting import TypeKey

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3


class CliError(Exception):
    """Invalid arguments or domain violation; maps to exit code 2."""


def _positive(value: str, name: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise CliError(f"{name} must be an integer, got {value!r}")
    return check_nat(n, name)


def _parse_type(spec: str) -> TypeKey:
    parts = spec.split(",")
    if len(parts) != 2:
        raise CliError(f"--type expects A,B, got {spec!r}")
    return TypeKey(_positive(parts[0], "A"), _positive(parts[1], "B"))


# Rows are written with one write per BATCH_ROWS of them, not one per row:
# the 295,251 rows of `table 3491888400 3491888400` take 145 writes, and
# only one batch is held as text at a time.
BATCH_ROWS = 2048


def _write_batches(rows) -> None:
    while batch := "".join(itertools.islice(rows, BATCH_ROWS)):
        sys.stdout.write(batch)


# --- count ---------------------------------------------------------------

def cmd_count(args) -> int:
    m = _positive(args.m, "m")
    n = _positive(args.n, "n")
    filters = [args.order is not None, args.type is not None, args.cyclic]
    if sum(filters) > 1:
        raise CliError("at most one of --order, --type, --cyclic may be given")
    order = key = None
    if args.order is not None:
        order = _positive(args.order, "order")
        label = f'{{"order": {order}}}'
    elif args.type is not None:
        key = _parse_type(args.type)
        label = f'{{"type": [{key.A}, {key.B}]}}'
    elif args.cyclic:
        label = '{"cyclic": true}'
    else:
        label = "null"
    value = counting.count_subgroups(m, n, order=order, key=key, cyclic=args.cyclic)

    if args.format == "json":
        print(f'{{"ambient": [{m}, {n}], "filter": {label}, "count": {value}}}')
    elif args.format == "csv":
        print(f"count\n{value}")
    else:
        print(value)
    return EXIT_OK


# --- table ---------------------------------------------------------------

def _table_lines(table: counting.SubgroupTable, fmt: str):
    """The table's output in fmt, one row at a time.  A json document is a
    single line, yielded in pieces; by_order and by_type are never empty."""
    m, n = table.ambient
    if fmt == "json":
        yield f'{{"ambient": [{m}, {n}], "total": {table.total}, "by_order": ['
        sep = ""
        for order, cnt in table.by_order.items():
            yield f'{sep}{{"order": {order}, "count": {cnt}}}'
            sep = ", "
        yield '], "by_type": ['
        sep = ""
        for (a, b), cnt in table.by_type.items():
            yield f'{sep}{{"a": {a}, "b": {b}, "count": {cnt}}}'
            sep = ", "
        yield (f'], "cyclic": {table.cyclic_total}, '
               f'"noncyclic": {table.noncyclic_total}}}\n')
    elif fmt == "csv":
        yield (f"row,key,count\ntotal,,{table.total}\ncyclic,,{table.cyclic_total}\n"
               f"noncyclic,,{table.noncyclic_total}\n")
        for order, cnt in table.by_order.items():
            yield f"order,{order},{cnt}\n"
        for (a, b), cnt in table.by_type.items():
            yield f"type,{a}x{b},{cnt}\n"
    else:
        yield (f"Subgroups of Z_{m} x Z_{n}\ntotal: {table.total}\n"
               f"cyclic: {table.cyclic_total}\nnoncyclic: {table.noncyclic_total}\n"
               "by order:\n")
        for order, cnt in table.by_order.items():
            yield f"  {order}: {cnt}\n"
        yield "by type:\n"
        for (a, b), cnt in table.by_type.items():
            yield f"  Z_{b}: {cnt}\n" if a == 1 else f"  Z_{a} x Z_{b}: {cnt}\n"


def cmd_table(args) -> int:
    m = _positive(args.m, "m")
    n = _positive(args.n, "n")
    # the whole table is built, and any refusal raised, before the first write
    table = counting.build_table(m, n)
    _write_batches(_table_lines(table, args.format))
    return EXIT_OK


# --- enumerate -----------------------------------------------------------

# A listing past this many records, with or without --limit, is refused up
# front.  At about 1 M records/s (2-vCPU x86, Python 3.11) that is about 10 s.
MAX_RECORDS = 10**7


def _plain_block(a, b, c, d, order, v, u, g1x, g2y):
    return (f"({a},{b},{c},{d},",
            f") order={order} exponent={v} invariants=({u},{v}) "
            f"cyclic={'yes' if u == 1 else 'no'} generators=({g1x},",
            f"),(0,{g2y})\n")


def _json_block(a, b, c, d, order, v, u, g1x, g2y):
    return (f', {{"tuple": [{a}, {b}, {c}, {d}, ',
            f'], "order": {order}, "exponent": {v}, "invariants": [{u}, {v}], '
            f'"cyclic": {"true" if u == 1 else "false"}, "generators": [[{g1x}, ',
            f'], [0, {g2y}]]}}')


def _csv_block(a, b, c, d, order, v, u, g1x, g2y):
    return (f"{a},{b},{c},{d},",
            f",{order},{v},{u},{v},{int(u == 1)},{g1x},",
            f",0,{g2y}\n")


def _records(m: int, n: int, block_text, limit: int):
    """Each enumerate record, in enumerate_tuples order, for a caller that
    takes at most limit of them.  block_text gives a block's fixed text
    before l, after l and after the first generator's y; _blocks yields only
    valid blocks, so no record needs describe's check."""
    for a, b, c, d, units in goursat._blocks(m, n, limit):
        order, v, u, g1x, ystep, g2y = goursat._block_facts(m, n, a, b, c, d)
        pre, mid, post = block_text(a, b, c, d, order, v, u, g1x, g2y)
        for ell in units:
            yield f"{pre}{ell}{mid}{ell * ystep % n}{post}"


def cmd_enumerate(args) -> int:
    m = _positive(args.m, "m")
    n = _positive(args.n, "n")
    limit = args.limit
    if limit is not None and limit < 0:
        raise CliError(f"--limit must be 0 or more, got {limit}")
    if limit is None or limit > MAX_RECORDS:
        # the listing has min(limit, count) records, so the group is counted
        # only when limit alone does not keep it within MAX_RECORDS; a count
        # that passes is below limit, so it becomes the limit
        try:
            limit = counting.count_subgroups(m, n)
        except OverflowError:
            limit = None  # 2^64 subgroups or more
        if limit is None or limit > MAX_RECORDS:
            size = "at least 2^64" if limit is None else limit
            raise CliError(f"Z_{m} x Z_{n} has {size} subgroups, more than the "
                           f"{MAX_RECORDS} records enumerate lists at once; "
                           f"pass --limit N with N <= {MAX_RECORDS}")
    block_text = {"plain": _plain_block, "json": _json_block,
                  "csv": _csv_block}[args.format]
    records = itertools.islice(_records(m, n, block_text, limit), limit)
    if args.format == "json":
        # every json record opens with its ", " separator but the first
        first = next(records, "")[2:]
        records = itertools.chain((f'{{"ambient": [{m}, {n}], "subgroups": [', first),
                                  records, ("]}\n",))
    elif args.format == "csv":
        records = itertools.chain(("a,b,c,d,ell,order,exponent,inv_u,inv_v,cyclic,"
                                   "gen1_x,gen1_y,gen2_x,gen2_y\n",), records)
    _write_batches(records)
    return EXIT_OK


# --- figure --------------------------------------------------------------

FIGURE_MAX_M = 40
FIGURE_MAX_N = 60


def render_figure(m: int, n: int, points) -> str:
    """ASCII grid, rows labeled n-1 down to 0, bullets (*) at subgroup points."""
    pts = set(points)
    roww = len(str(n - 1))
    cellw = len(str(m - 1))
    lines = []
    for y in range(n - 1, -1, -1):
        cells = " ".join(
            f"{'*' if (x, y) in pts else '.':>{cellw}}" for x in range(m)
        )
        lines.append(f"{y:>{roww}} {cells}")
    labels = " ".join(f"{x:>{cellw}}" for x in range(m))
    lines.append(f"{'':>{roww}} {labels}")
    return "\n".join(lines)


def cmd_figure(args) -> int:
    m = _positive(args.m, "m")
    n = _positive(args.n, "n")
    if m > FIGURE_MAX_M or n > FIGURE_MAX_N:
        raise CliError(
            f"figure rendering limited to m <= {FIGURE_MAX_M}, n <= {FIGURE_MAX_N}"
        )
    t = goursat.GoursatTuple(
        _positive(args.a, "a"), _positive(args.b, "b"),
        _positive(args.c, "c"), _positive(args.d, "d"),
        _positive(args.ell, "ell"),
    )
    try:
        s = goursat.materialize(m, n, t)
    except goursat.TupleMembershipError as exc:
        raise CliError(str(exc))

    if args.format == "json":
        points = ", ".join(f"[{x}, {y}]" for x, y in s.elements)
        print(f'{{"ambient": [{m}, {n}], "tuple": [{t.a}, {t.b}, {t.c}, {t.d}, {t.ell}], '
              f'"points": [{points}]}}')
    elif args.format == "csv":
        sys.stdout.write("x,y\n")
        sys.stdout.writelines(f"{x},{y}\n" for x, y in s.elements)
    else:
        print(render_figure(m, n, s.elements))
    return EXIT_OK


# --- verify --------------------------------------------------------------

# A --range sweep covers at most this many pairs, refused up front past it.
# At about 160k skipped pairs/s (2-vCPU x86, Python 3.11), 10^6 take 6-7 s.
MAX_RANGE_PAIRS = 10**6
# A --range sweep checks at most this much work, the sum of m*n over the
# pairs within the bound, refused up front past it.  Brute force runs at
# 2-7 us per unit (2-vCPU x86, Python 3.11), so the largest legal sweep
# takes about 10 s; --range 48 48 --bound 4096 (1,382,976) is legal and
# --range 49 49 --bound 4096 (1,500,625) is not.
MAX_RANGE_WORK = 1_500_000


def _range_work(m_max: int, n_max: int, bound: int) -> int:
    """The sum of m*n over the pairs of 1..m_max x 1..n_max with m*n <= bound:
    for each m, the n up to k = min(n_max, bound // m)."""
    work = 0
    for m in range(1, min(m_max, bound) + 1):
        k = min(n_max, bound // m)
        work += m * k * (k + 1) // 2
    return work


def cmd_verify(args) -> int:
    import json

    bound = args.bound
    if not 1 <= bound <= oracle.MAX_BOUND:
        raise CliError(f"--bound must be in 1..{oracle.MAX_BOUND}, got {bound}")
    if args.range is not None:
        if args.m is not None:
            raise CliError("verify takes either m n or --range M N, not both")
        m_max = _positive(args.range[0], "m_max")
        n_max = _positive(args.range[1], "n_max")
        size = m_max * n_max
        if size > MAX_RANGE_PAIRS:
            raise CliError(f"--range sweeps at most {MAX_RANGE_PAIRS} pairs, got "
                           f"{m_max} x {n_max} = {size}")
        work = _range_work(m_max, n_max, bound)
        if work > MAX_RANGE_WORK:
            raise CliError(f"--range checks at most {MAX_RANGE_WORK} in the sum of "
                           f"m*n over the pairs within --bound {bound}, got {work}")
        pairs = itertools.product(range(1, m_max + 1), range(1, n_max + 1))
    elif args.m is None or args.n is None:
        raise CliError("verify needs either m n or --range M N")
    else:
        pairs, size = [(_positive(args.m, "m"), _positive(args.n, "n"))], 1

    # pairs are checked and written one at a time.  head is the text due
    # before the next row: the header, then json's separator.  So a single
    # pair, refused over the bound, has written nothing.
    fmt = args.format
    write = sys.stdout.write
    head = {"json": '{"pairs": [', "csv": "m,n,subgroups,mismatches\n"}.get(fmt, "")
    checked = total_mismatches = 0
    skipped = []  # json only; the other formats count skips as size - checked
    for m, n in pairs:
        try:
            r = oracle.cross_check(m, n, bound)
        except oracle.BoundExceededError as exc:
            if size == 1:
                raise CliError(str(exc))
            if fmt == "json":
                skipped.append([m, n])
                continue
            row = f"{m},{n},,\n" if fmt == "csv" else f"{m} {n}: SKIP ({exc})\n"
        else:
            checked += 1
            total_mismatches += len(r.mismatches)
            if fmt == "json":
                mismatches = [dict(zip(("side", "key", "expected", "actual"), x))
                              for x in r.mismatches]
                row = json.dumps({"ambient": [m, n], "subgroups": r.subgroup_count,
                                  "mismatches": mismatches})
            elif fmt == "csv":
                row = f"{m},{n},{r.subgroup_count},{len(r.mismatches)}\n"
            else:
                status = "OK" if r.ok else "FAIL"
                row = (f"{status}, {r.subgroup_count} subgroups, "
                       f"{len(r.mismatches)} mismatches\n" if size == 1 else
                       f"{m} {n}: {status} ({r.subgroup_count} subgroups)\n")
                row += "".join(f"  mismatch {side} key={key}: oracle={exp} formula={act}\n"
                               for side, key, exp, act in r.mismatches)
        write(head + row)
        head = ", " if fmt == "json" else ""

    if fmt == "json":
        tail = f', "skipped": {json.dumps(skipped)}' if skipped else ""
        write(f'], "total_mismatches": {total_mismatches}{tail}}}\n')
    elif fmt == "plain" and size > 1:
        skip_note = f"{size - checked} skipped, " if checked < size else ""
        write(f"{checked} pairs checked, {skip_note}{total_mismatches} mismatches\n")
    return EXIT_OK if total_mismatches == 0 else EXIT_MISMATCH


# --- entry point ---------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ranktwo",
        description="Enumerate, classify, and count the subgroups of Z_m x Z_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["plain", "json", "csv"], default="plain")

    p = sub.add_parser("count", parents=[fmt], help="subgroup counts")
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("--order", help="count only subgroups of this order")
    p.add_argument("--type", help="count only subgroups isomorphic to Z_A x Z_B (A,B)")
    p.add_argument("--cyclic", action="store_true", help="count only cyclic subgroups")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", parents=[fmt], help="full aggregate table")
    p.add_argument("m")
    p.add_argument("n")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("enumerate", parents=[fmt], help="list every subgroup")
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("--limit", type=int, help="stop after this many subgroups")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("figure", parents=[fmt], help="lattice-point grid of one subgroup")
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("d")
    p.add_argument("ell")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", parents=[fmt], help="cross-check against brute force")
    p.add_argument("m", nargs="?")
    p.add_argument("n", nargs="?")
    p.add_argument("--range", nargs=2, metavar=("M_MAX", "N_MAX"),
                   help="check every pair 1..M_MAX x 1..N_MAX")
    p.add_argument("--bound", type=int, default=oracle.DEFAULT_BOUND,
                   help=f"max m*n for brute force, at most {oracle.MAX_BOUND} "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    # a reader that closes the pipe early (`ranktwo enumerate 720 720 | head`)
    # ends the process by SIGPIPE, with no BrokenPipeError traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
