"""The benchmark's span targets name functions that exist, and the
commands still call them through their wrappers.

``bench/spans.py`` wraps ``cpv`` functions by name; a renamed one would
otherwise only fail a traced benchmark run, and one that resolves but is
called past its wrapper would only read 0 in it.  It imports only the
standard library, so it is loaded here straight from its file.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
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


@pytest.mark.parametrize("module_name", ["cpv.cli", "cpv.privacy"])
def test_forwards_are_exactly_the_targets_moved_away(module_name):
    # A module forwards through ``__getattr__`` the names in its ``_MOVED``:
    # each must be a target it no longer defines, and every such target
    # must be forwarded, so a forward neither goes stale nor outlives it.
    module = importlib.import_module(module_name)
    moved_away = {
        attr for owner, attr, _ in spans.TARGETS
        if owner == module_name and "." not in attr and attr not in vars(module)
    }
    assert set(module._MOVED) == moved_away
    for name in moved_away:
        assert callable(getattr(module, name))


def test_moved_targets_record_their_spans(tmp_path):
    # As ``bench/run.py --trace 1`` does: a plain pass loads every module,
    # then a traced pass runs the same commands.
    from cpv.cli import main

    fp, sp = str(tmp_path / "fp.json"), str(tmp_path / "sp.json")
    commands = [
        ["builtin", "first_price", "--params", '{"n": 2, "values": [1, 2, 3]}', "--emit", fp],
        ["builtin", "second_price", "--params", '{"n": 3, "values": [1, 2, 3]}', "--emit", sp],
        ["check", "--property", "corners", sp],  # fails
        ["synth", fp, "--emit", str(tmp_path / "fp_protocol.json")],  # a protocol
        ["synth", sp],  # a witness
    ]
    assert [main(argv) for argv in commands] == [0, 0, 1, 0, 1]
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert [main(argv) for argv in commands] == [0, 0, 1, 0, 1]
    finally:
        spans.uninstall(undo)
    recorded = {key for _, _, _, key, _, _ in tracer.spans}
    assert {
        "privacy.corners", "privacy.inseparability", "privacy.synth", "privacy.minimize",
        "privacy.witness_verify", "cli.emit",
    } <= recorded, recorded


def test_a_traced_validate_records_the_load(tmp_path):
    # ``load`` lives in ``cpv.reader``; ``cpv.cli`` imports it by name, and
    # the span still wraps the one the commands call.
    from cpv.cli import main

    path = str(tmp_path / "dfp.json")
    params = '{"n": 2, "values": [1, 2, 3]}'
    assert main(["builtin", "descending_first_price", "--params", params, "--emit", path]) == 0
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert main(["validate", path]) == 0
    finally:
        spans.uninstall(undo)
    summary = tracer.summary()
    assert summary["cli.load_s"] > 0 and summary["cli.bytes_read"] == os.path.getsize(path)
