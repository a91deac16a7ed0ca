"""Subgroup enumeration, classification, and counting for Z_m x Z_n."""

from .arith import divisors, tau
from .counting import SubgroupTable, TypeKey, build_table, count_subgroups
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
    "count_subgroups",
    "cross_check",
    "describe",
    "divisors",
    "enumerate_tuples",
    "find_tuple",
    "materialize",
    "tau",
]
