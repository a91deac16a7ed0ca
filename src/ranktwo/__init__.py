"""Subgroup enumeration, classification, and counting for Z_m x Z_n."""

from .arith import divisors, tau
from .counting import (
    SubgroupTable,
    TypeKey,
    build_table,
    count_by_order,
    count_by_order_prime_power,
    count_by_type,
    count_cyclic,
    count_cyclic_reference,
    count_cyclic_by_order,
    count_subgroups,
    count_total,
    count_total_prime_power,
    count_total_reference,
)
from .goursat import (
    ElementSet,
    GoursatTuple,
    InvariantPair,
    describe,
    enumerate_tuples,
    find_tuple,
    materialize,
    offset_form,
)
from .oracle import brute_subgroups, classify, cross_check

__all__ = [
    "ElementSet",
    "GoursatTuple",
    "InvariantPair",
    "SubgroupTable",
    "TypeKey",
    "brute_subgroups",
    "build_table",
    "classify",
    "count_by_order",
    "count_by_order_prime_power",
    "count_by_type",
    "count_cyclic",
    "count_cyclic_reference",
    "count_cyclic_by_order",
    "count_subgroups",
    "count_total",
    "count_total_prime_power",
    "count_total_reference",
    "cross_check",
    "describe",
    "divisors",
    "enumerate_tuples",
    "find_tuple",
    "materialize",
    "offset_form",
    "tau",
]
