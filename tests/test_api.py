"""The package's public names, each module's public functions, and the names
the traced benchmark wraps."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import ranktwo

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_public_names():
    assert sorted(ranktwo.__all__) == [
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
    for name in ranktwo.__all__:
        assert hasattr(ranktwo, name), name


# Each module's public functions, so that a name with no caller cannot come back
# unnoticed: a change to a module's surface edits this table.
MODULE_FUNCTIONS = {
    "arith": ["check_nat", "checked_add", "checked_mul", "divisors", "euler_phi",
              "factorize", "tau"],
    "counting": ["build_table", "count_by_order", "count_by_type", "count_cyclic",
                 "count_subgroups", "count_total", "local_table"],
    "goursat": ["check_membership", "describe", "enumerate_tuples", "find_tuple",
                "materialize"],
    "oracle": ["brute_subgroups", "classify", "cross_check"],
    "cli": ["cmd_count", "cmd_enumerate", "cmd_figure", "cmd_table", "cmd_verify",
            "entry", "main", "render_figure"],
}


def test_module_public_functions():
    for name, expected in MODULE_FUNCTIONS.items():
        module = importlib.import_module(f"ranktwo.{name}")
        public = sorted(
            attr for attr, obj in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        )
        assert public == expected, name


def test_every_traced_target_resolves():
    # bench/spans.py imports only the standard library
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, module, attr in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), name
