"""The package's public names and the names the traced benchmark wraps."""

import importlib
import importlib.util
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


def test_every_traced_target_resolves():
    # bench/spans.py imports only the standard library
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, module, attr in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), name
