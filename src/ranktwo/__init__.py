"""Subgroup enumeration, classification, and counting for Z_m x Z_n."""

from .arith import divisors, tau
from .counting import (
    SubgroupTable,
    TypeKey,
    build_table,
    count_by_order,
    count_by_type,
    count_cyclic,
    count_subgroups,
    count_total,
)
from .goursat import (
    ElementSet,
    GoursatTuple,
    describe,
    enumerate_tuples,
    find_tuple,
    materialize,
)
from .oracle import brute_subgroups, classify, cross_check

__all__ = [
    "ElementSet",
    "GoursatTuple",
    "SubgroupTable",
    "TypeKey",
    "brute_subgroups",
    "build_table",
    "classify",
    "count_by_order",
    "count_by_type",
    "count_cyclic",
    "count_subgroups",
    "count_total",
    "cross_check",
    "describe",
    "divisors",
    "enumerate_tuples",
    "find_tuple",
    "materialize",
    "tau",
]
