"""The ``cpv-1`` table in ``cpv.reader`` against the writer and against mutants.

Every document the program writes must pass the table's checker, its
protocol tree node by node as the reader builds it, and no
mutant of one (a field deleted, retyped or nested deep) may crash a command:
it loads and gets a verdict, or it exits 2 with an error that says where.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cpv.cli import main
from cpv.jsonwriter import protocol_to_json
from cpv.mechanisms import BUILTIN_PROTOCOLS, BUILTIN_RULES, _builtin_to_json, instance_to_json
from cpv.protocol import Protocol
from cpv.reader import _check, instance_from_json
from cpv.search import synthesize_or_witness
from cpv.treereader import protocol_from_json
from test_cli import BUNDLE_PARAMS

# Small parameters for every built-in rule.
RULE_PARAMS = {
    "serial_dictatorship": {"n": 2, "objects": ["A", "B"], "order": [2, 1]},
    "first_price": {"n": 2, "values": [1, 2, 3]},
    "second_price": {"n": 3, "values": [1, 2]},
    "kth_price": {"n": 3, "k": 3, "values": ["1/2", 2]},
    "uniform_price": {"n": 3, "k": 2, "values": [1, 2]},
    "double_auction_walrasian": {"n": 2, "values": [1, 2], "selection": "upper"},
    "fair_tiebreak_2x2": {},
    "fig2_instance": {},
    "appC_sp_restriction": {},
    "non_clinching": {},
    "efficient_completions_2x2": {},
    "house_ir_efficient_family": {},
    "school_stable_family": {},
    "school_count_instance": {},
}


def bundle_doc(name: str) -> dict:
    """The bundle ``builtin NAME --emit`` writes at the ``BUNDLE_PARAMS`` size."""
    return _builtin_to_json(BUILTIN_PROTOCOLS[name](BUNDLE_PARAMS[name]))


def rule_docs(name: str) -> list[dict]:
    """The instance ``builtin NAME --emit`` writes, or each member of a family."""
    built = BUILTIN_RULES[name](RULE_PARAMS[name])
    return [instance_to_json(b) for b in (built if isinstance(built, list) else [built])]


class TestWriterAgreesWithTable:
    def test_every_builtin_rule_has_params(self):
        assert set(RULE_PARAMS) == set(BUILTIN_RULES)

    @pytest.mark.parametrize("name", sorted(BUNDLE_PARAMS))
    def test_emitted_bundle(self, name):
        doc = bundle_doc(name)
        _check("instance", doc, "")
        protocol_from_json(doc["protocol"], instance_from_json(doc).space, "/protocol")

    @pytest.mark.parametrize("name", sorted(RULE_PARAMS))
    def test_emitted_rule_and_family_members(self, name):
        for doc in rule_docs(name):
            _check("instance", doc, "")

    def test_synthesized_protocol(self):
        instance = BUILTIN_RULES["serial_dictatorship"]({"n": 2, "objects": ["A", "B"]})
        protocol = synthesize_or_witness(instance.rule)
        assert isinstance(protocol, Protocol)
        doc = protocol_to_json(protocol)
        _check("protocol file", doc, "")
        protocol_from_json(doc, instance.space, "")


# --- mutants -----------------------------------------------------------------

DOCS = {f"bundle {n}": bundle_doc(n) for n in sorted(BUNDLE_PARAMS)}
DOCS.update(
    (f"rule {n}", rule_docs(n)[0])
    for n in ("first_price", "double_auction_walrasian", "non_clinching", "school_count_instance",
              "school_stable_family")
)
WRONG = [None, True, 0, -1, 7, 2.5, "", "x", "1/0", [], {}, [1], {"a": 1}, [["x"]]]
COMMANDS = [["validate"]] + [
    ["check", "--property", prop] for prop in ("cp", "efficient", "ir", "stable", "sp", "osp")
]


def field_paths(doc, depth: int = 7) -> list[tuple]:
    """Paths of the fields down to ``depth``; of each array, its first two
    entries and its last stand for the rest."""
    out, stack = [], [(doc, ())]
    while stack:
        node, path = stack.pop()
        if len(path) == depth:
            continue
        if isinstance(node, dict):
            items = list(node.items())
        elif isinstance(node, list):
            items = [(i, node[i]) for i in sorted({0, 1, len(node) - 1}) if 0 <= i < len(node)]
        else:
            continue
        for key, value in items:
            out.append(path + (key,))
            stack.append((value, path + (key,)))
    return sorted(out, key=repr)


PATHS = {name: field_paths(doc) for name, doc in DOCS.items()}


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = json.loads(json.dumps(DOCS[name]))
    *parents, last = draw(st.sampled_from(PATHS[name]))
    node = doc
    for key in parents:
        node = node[key]
    how = draw(st.sampled_from(["delete", "retype", "nest"]))
    if how == "delete":
        del node[last]
    elif how == "retype":
        node[last] = draw(st.sampled_from(WRONG))
    else:
        for _ in range(draw(st.integers(1, 300))):
            node[last] = [node[last]]
    return doc


def run(argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(doc=mutants())
def test_mutants_get_a_verdict_or_a_pointer(doc, tmp_path):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        code, report = run([*command, str(path)])
        assert code in (0, 1, 2), report
        if code == 1:
            assert report.get("holds") is False or "result" in report, report
        if code == 2 and command == ["validate"] and report.get("kind") != "resource":
            error = report["error"]
            # a defect of the tree as built names its node, not a field
            assert re.fullmatch(r".* \(at /.*\)", error) or " at node /" in error, error
