"""The benchmark's span targets name functions that exist.

``bench/spans.py`` wraps ``cpv`` functions by name; a renamed one would
otherwise only fail a traced benchmark run.  It imports only the standard
library, so it is loaded here straight from its file.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module_name,attr,key", spans.TARGETS)
def test_target_resolves(module_name, attr, key):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
    assert key.split(".")[0] in spans.LAYERS


def test_counters_hang_on_targets():
    names = {attr.split(".")[-1] for _, attr, _ in spans.TARGETS}
    assert set(spans.AFTER) | set(spans.ON_ERROR) <= names
    mechanisms = importlib.import_module("cpv.mechanisms")
    for table in spans.BUILTIN_TABLES:
        assert isinstance(getattr(mechanisms, table), dict)
