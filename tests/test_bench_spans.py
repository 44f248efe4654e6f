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
import json
import os
from collections import Counter
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


@pytest.mark.parametrize("module_name", ["cpv.cli", "cpv.mechanisms", "cpv.privacy"])
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


# The spans, by key, that one command of each kind the three workloads run
# records, traced after a plain pass as ``bench/run.py --trace 1`` does;
# the key set is every layer key that the benchmark times.  A function moved
# to another module must still record each of its calls.
WORKLOAD_SPANS = {
    "cli.emit": 19, "cli.load": 15, "core.factor": 17, "core.rule_init": 20,
    "mechanisms.builtin": 5, "mechanisms.property": 1, "privacy.corners": 1,
    "privacy.cp_scan": 7, "privacy.gcp": 1, "privacy.inseparability": 48,
    "privacy.minimize": 1, "privacy.synth": 3, "privacy.witness_verify": 13,
    "protocol.build": 25, "protocol.cell_masks": 114, "protocol.implements": 14,
    "protocol.leaf_map": 1, "protocol.validate": 4, "search.cp_search": 4,
    "tatonnement.check": 2, "tatonnement.phase_discovery": 1, "tatonnement.reach": 4,
}


def test_every_workload_command_kind_records_its_spans(tmp_path):
    from cpv.cli import main

    files = {name: str(tmp_path / f"{name}.json") for name in (
        "fp", "sp", "dfp", "cap", "aes", "table", "table_protocol", "table_synth", "fp_protocol",
    )}
    labels = ["t0", "t1", "t2"]
    outcomes = [["x", "x", "y"], ["z", "z", "y"], ["w", "w", "w"]]  # a tree rule: agent 1, then 2
    Path(files["table"]).write_text(json.dumps({
        "schema": "cpv-1", "agents": 2, "alphabet": labels,
        "rule": {"table": [{"profile": [labels[a], labels[b]], "outcome": outcomes[a][b]}
                           for a in range(3) for b in range(3)]},
    }))
    values = '{"n": 3, "values": [1, 2, 3]}'
    commands = [
        (["builtin", "first_price", "--params", values, "--emit", files["fp"]], 0),
        (["builtin", "second_price", "--params", values, "--emit", files["sp"]], 0),
        (["builtin", "descending_first_price", "--params", values, "--emit", files["dfp"]], 0),
        (["builtin", "count_ascending_kplus1_price", "--params",
          '{"k": 1, "n": 3, "values": [1, 2, 3]}', "--emit", files["cap"]], 0),
        (["builtin", "ascending_elicitation_sp", "--params", values, "--emit", files["aes"]], 0),
        (["validate", files["table"]], 0),
        (["validate", files["dfp"]], 0),
        (["check", "--property", "cp", files["dfp"]], 0),
        (["check", "--property", "cp", files["aes"]], 1),
        (["check", "--property", "icp", files["dfp"]], 0),
        (["check", "--property", "gcp", files["dfp"]], 0),
        (["check", "--property", "tatonnement", files["dfp"]], 0),  # a discovered phase
        (["check", "--property", "tatonnement", files["cap"]], 0),
        (["check", "--property", "efficient", files["cap"]], 0),
        (["check", "--property", "corners", files["sp"]], 1),
        (["enumerate", "--queries", "elicit,count", "--emit", files["table_protocol"],
          files["table"]], 0),
        (["check", "--property", "cp", files["table"], files["table_protocol"]], 0),
        (["synth", "--emit", files["table_synth"], files["table"]], 0),
        (["synth", "--emit", files["fp_protocol"], files["fp"]], 0),
        (["synth", files["sp"]], 1),
    ]
    assert [main(argv) for argv, _ in commands] == [code for _, code in commands]
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert [main(argv) for argv, _ in commands] == [code for _, code in commands]
    finally:
        spans.uninstall(undo)
    recorded = Counter(key for _, _, _, key, _, _ in tracer.spans)
    assert set(spans.TIMED_KEYS) <= set(recorded)
    assert recorded == WORKLOAD_SPANS, sorted(recorded.items())
