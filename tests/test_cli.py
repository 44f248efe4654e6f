from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cpv
from cpv.check import _PROPERTIES
from cpv.cli import _PROPERTY_NAMES, load, main
from cpv.core import LoadError
from cpv.mechanisms import BUILTIN_PROTOCOLS, BUILTIN_RULES, _builtin_to_json, instance_to_json
from cpv.privacy import check_protocol_cp

# The directory holding the imported ``cpv`` package, so that a
# ``python -m cpv.cli`` child runs the same copy, installed or not.
CPV_ROOT = str(Path(cpv.__file__).resolve().parent.parent)

FAIR_INSTANCE = {
    "schema": "cpv-1",
    "agents": 2,
    "alphabet": ["A", "B"],
    "rule": {
        "table": [
            {"profile": ["A", "A"], "outcome": "x"},
            {"profile": ["A", "B"], "outcome": "x"},
            {"profile": ["B", "A"], "outcome": "x'"},
            {"profile": ["B", "B"], "outcome": "x"},
        ]
    },
}

FIG_PROTOCOL = {
    "schema": "cpv-1",
    "tree": {
        "query": {"kind": "elicit", "agent": 1, "cells": [["A"], ["B"]]},
        "children": [
            {
                "query": {"kind": "elicit", "agent": 2, "cells": [["A"], ["B"]]},
                "children": [{}, {}],
            },
            {
                "query": {"kind": "elicit", "agent": 2, "cells": [["A"], ["B"]]},
                "children": [{}, {}],
            },
        ],
    },
}


def child_env() -> dict[str, str]:
    """Environment for a CLI subprocess, built from scratch so that nothing
    from the caller leaks into it.  The child writes no bytecode cache: one
    left in the source tree would make every later start of ``cpv`` skip
    compiling, and time differently."""
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": CPV_ROOT, "PYTHONDONTWRITEBYTECODE": "1"}


def run_cli(args, capsys) -> tuple[int, dict]:
    code = main(args)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


@pytest.fixture()
def fair_files(tmp_path: Path):
    instance = tmp_path / "fair.json"
    instance.write_text(json.dumps(FAIR_INSTANCE))
    protocol = tmp_path / "fig.json"
    protocol.write_text(json.dumps(FIG_PROTOCOL))
    return str(instance), str(protocol)


class TestLoad:
    def test_fair_instance_loads_four_rows(self, fair_files, capsys):
        code, doc = run_cli(["validate", fair_files[0]], capsys)
        assert code == 0 and doc["instance"] == "ok"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "cpv-1",,}')
        code, doc = run_cli(["validate", str(bad)], capsys)
        assert code == 2
        assert "line" in doc["error"] and "column" in doc["error"]

    def test_missing_row_reported_with_labels(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FAIR_INSTANCE))
        doc["rule"]["table"].pop()
        p = tmp_path / "partial.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli(["validate", str(p)], capsys)
        assert code == 2 and "not total" in out["error"]

    def test_overlapping_protocol_cells_exit_2(self, tmp_path, fair_files, capsys):
        proto = {
            "schema": "cpv-1",
            "tree": {
                "query": {
                    "kind": "extensional",
                    "cells": [
                        [["A", "A"], ["A", "B"]],
                        [["A", "A"], ["B", "A"], ["B", "B"]],
                    ],
                },
                "children": [{}, {}],
            },
        }
        p = tmp_path / "overlap.json"
        p.write_text(json.dumps(proto))
        code, out = run_cli(["validate", fair_files[0], str(p)], capsys)
        assert code == 2
        assert "overlap" in out["error"] and "/tree" in out["error"]

    def test_builtin_reference_materializes(self, tmp_path, capsys):
        inst = {
            "schema": "cpv-1",
            "rule": {"builtin": "second_price", "params": {"n": 3, "values": [1, 2, 3]}},
        }
        p = tmp_path / "spa.json"
        p.write_text(json.dumps(inst))
        code, out = run_cli(["validate", str(p)], capsys)
        assert code == 0
        assert out == {"command": "validate", "instance": "ok", "schema": "cpv-1"}

    def test_unsupported_schema(self, tmp_path, capsys):
        p = tmp_path / "old.json"
        p.write_text(json.dumps({**FAIR_INSTANCE, "schema": "cpv-0"}))
        code, out = run_cli(["validate", str(p)], capsys)
        assert code == 2 and "schema" in out["error"]


class TestCheck:
    def test_cp_violation_names_agent_2(self, fair_files, capsys):
        code, doc = run_cli(
            ["check", "--property", "cp", fair_files[0], fair_files[1]], capsys
        )
        assert code == 1
        assert doc["violation"]["agent"] == 2
        assert doc["violation"]["types"] == ["A", "B"]

    def test_corners_fair(self, fair_files, capsys):
        code, doc = run_cli(["check", "--property", "corners", fair_files[0]], capsys)
        assert code == 1
        assert doc["violation"]["shared"] == "x"

    def test_missing_protocol_is_input_error(self, fair_files, capsys):
        code, doc = run_cli(["check", "--property", "cp", fair_files[0]], capsys)
        assert code == 2
        assert doc == {"error": "property 'cp' needs a protocol file"}


# The whole stdout of `check` on the ascending clock for the second price,
# n=3 over 1..4: every protocol-level check fails on it, each at its own
# first violation.
ASCENDING_REPORTS = {
    "icp": '"holds":false,"property":"icp","schema":"cpv-1","violation":{"agent":1,'
    '"leaves":[94,75],"profiles":[["1","1","1"],["2","1","1"]],"shared":"q=1,t=1",'
    '"types":["1","2"]}}',
    "gcp": '"holds":false,"property":"gcp","schema":"cpv-1","violation":{"node":0,'
    '"profiles":[["4","4","3"],["4","3","4"]]}}',
    "tatonnement": '"discovered_phase":null,"failure":"no initial phase with disjoint '
    'outcome reach","holds":false,"property":"tatonnement","schema":"cpv-1"}',
    "nonbossy": '"holds":false,"property":"nonbossy","schema":"cpv-1","violation":'
    '{"affected":3,"agent":1,"profile":["1","1","3"],"types":["1","2"]}}',
    "osp": '"holds":false,"property":"osp","schema":"cpv-1","violation":{"agent":1,'
    '"node":0,"true_type":"2"}}',
}


NOT_IMPLEMENTED = '{"error":"protocol does not implement the rule (leaf 2 is non-constant)"}\n'


class TestCheckReports:
    @pytest.fixture(scope="class")
    def ascending(self, tmp_path_factory) -> str:
        path = str(tmp_path_factory.mktemp("ascending") / "asc.json")
        argv = ["builtin", "ascending_elicitation_sp", "--params", '{"n":3,"values":[1,2,3,4]}']
        assert main([*argv, "--emit", path]) == 0
        return path

    @pytest.mark.parametrize("prop", sorted(ASCENDING_REPORTS))
    def test_ascending_clock_report(self, prop, ascending, capsys):
        capsys.readouterr()
        code = main(["check", "--property", prop, ascending])
        expected = '{"command":"check",' + ASCENDING_REPORTS[prop] + "\n"
        assert (code, capsys.readouterr().out) == (1, expected)

    @staticmethod
    def one_query_files(tmp_path, phase=None) -> tuple[str, str]:
        """The fair tie-break rule and a protocol that asks agent 1 only,
        which leaves agent 2's answer, and the outcome, open."""
        assert main(["builtin", "fair_tiebreak_2x2", "--emit", str(tmp_path / "fair.json")]) == 0
        tree = {"query": {"kind": "elicit", "agent": 1, "cells": [["A"], ["B"]]},
                "children": [{}, {}]}
        protocol = {"schema": "cpv-1", "tree": tree, **({"phase": phase} if phase else {})}
        (tmp_path / "one.json").write_text(json.dumps(protocol))
        return str(tmp_path / "fair.json"), str(tmp_path / "one.json")

    @pytest.mark.parametrize("phase", [None, [0]], ids=["discovered", "given"])
    def test_tatonnement_names_the_non_constant_leaf(self, phase, tmp_path, capsys):
        files = self.one_query_files(tmp_path, phase)
        capsys.readouterr()
        code = main(["check", "--property", "tatonnement", *files])
        assert (code, capsys.readouterr().out) == (2, NOT_IMPLEMENTED)

    @pytest.mark.parametrize(
        "argv", [["run", "--profile", "B,A"], ["check", "--property", "cp"]], ids=["run", "cp"]
    )
    def test_run_and_check_word_the_precondition_alike(self, argv, tmp_path, capsys):
        files = self.one_query_files(tmp_path)
        capsys.readouterr()
        code = main([*argv, *files])
        assert (code, capsys.readouterr().out) == (2, NOT_IMPLEMENTED)


# The files of the reports below, each written once: a built-in as ``builtin
# --emit`` writes it (a protocol name gives its bundle), then edited.
REPORT_FILES = {
    "sd": ("serial_dictatorship", {"n": 2, "objects": ["a", "b"]}),
    "cap": ("count_ascending_kplus1_price", {"k": 1, "n": 2, "values": [1, 2]}),
    "cap3": ("count_ascending_kplus1_price", {"k": 1, "n": 3, "values": [1, 2, 3]}),
    "cap0": ("count_ascending_kplus1_price", {"k": 1, "n": 3, "values": [0, 1, 2, 3]}),
    "msm": ("multicount_stable_matching", {}),
    "fp": ("first_price", {"n": 2, "values": [1, 2]}),
    "spa": ("second_price", {"n": 2, "values": [1, 2]}),
    "school": ("school_count_instance", {}),
    "dac": ("double_auction_count", {"n": 4, "values": [1, 2, 3]}),
    # a second seat at a: the student placed at b wants it
    "unstable": ("school_count_instance", {}, ("model/capacities/a", 2)),
    # agent 1 pays 9 for the item at the first profile
    "overpaid": ("first_price", {"n": 2, "values": [1, 2]},
                 ("components/winner=1,price=1/0", "q=1,t=9")),
    # the item goes to agent 2 where agent 1 bids higher
    "misallocated": ("first_price", {"n": 2, "values": [1, 2]},
                     ("components/winner=1,price=2", ["q=0,t=0", "q=1,t=2"])),
    # below the first leaf, a count query whose answer the leaf already
    # knows: its empty cells are pruned, then the query is contracted
    "noted": ("count_ascending_kplus1_price", {"k": 1, "n": 3, "values": [1, 2, 3]},
              ("protocol/tree/children/0/children/0", {
                  "query": {"kind": "count", "subset": ["2", "3"], "cells": [[0], [1], [2, 3]]},
                  "children": [None, {}, None]})),
}

def _checked(body: str) -> str:
    return '{"command":"check",' + body + "\n"


# The whole stdout and exit code of `check`: case -> (property, files, exit
# code, stdout).  "fair" and "fig" are FAIR_INSTANCE and FIG_PROTOCOL;
# "fig0" is FIG_PROTOCOL with the phase [0], and "fig[0, 1]" with [0, 1].
CHECK_REPORTS = {
    "cp fails": ("cp", ["fair", "fig"], 1, _checked(
        '"holds":false,"property":"cp","schema":"cpv-1","violation":{"agent":2,'
        '"leaves":[2,3],"profiles":[["A","A"],["A","B"]],"shared":"x","types":["A","B"]}}'
    )),
    "corners fails": ("corners", ["fair"], 1, _checked(
        '"holds":false,"property":"corners","schema":"cpv-1","violation":{"agents":[1,2],'
        '"at":["A","A"],"fourth":"x\'","shared":"x","types_i":["A","B"],"types_j":["A","B"]}}'
    )),
    "tatonnement fails, given phase": ("tatonnement", ["fair", "fig0"], 1, _checked(
        '"failure":"subtree","failure_at":{"node":0,"violation":{"agent":2,"leaves":[2,3],'
        '"profiles":[["A","A"],["A","B"]],"shared":"x","types":["A","B"]}},"holds":false,'
        '"property":"tatonnement","schema":"cpv-1"}'
    )),
    # phase [0, 1] covers only the leaves below node 1, the row of agent 1's A
    "tatonnement fails, uncovered leaf": ("tatonnement", ["fair", "fig[0, 1]"], 1, _checked(
        '"failure":"coverage","failure_at":{"leaf":5},"holds":false,"property":"tatonnement",'
        '"schema":"cpv-1"}'
    )),
    "tatonnement fails, overlapping end nodes": ("tatonnement", ["fair", "fig[0, 1, 4]"], 1,
        _checked('"failure":"disjointness","failure_at":{"nodes":[1,4],"shared":"x"},'
                 '"holds":false,"property":"tatonnement","schema":"cpv-1"}')),
    "efficient fails": ("efficient", ["misallocated"], 1, _checked(
        '"counterexample":{"profile":["2","1"],"winners":[2]},"holds":false,'
        '"property":"efficient","schema":"cpv-1"}'
    )),
    "ir fails": ("ir", ["overpaid"], 1, _checked(
        '"counterexample":{"agent":1,"profile":["1","1"]},"holds":false,"property":"ir",'
        '"schema":"cpv-1"}'
    )),
    "stable fails": ("stable", ["unstable"], 1, _checked(
        '"counterexample":{"profile":["s1\'","s2"],"school":"a","student":2},"holds":false,'
        '"property":"stable","schema":"cpv-1"}'
    )),
    # the double auction's universe holds 42 of its 81 profiles: the first
    # bossy pair inside it is named, not one that leaves it
    "nonbossy fails in the universe": ("nonbossy", ["dac"], 1, _checked(
        '"holds":false,"property":"nonbossy","schema":"cpv-1","violation":{"affected":2,'
        '"agent":1,"profile":["1","3","1","3"],"types":["1","2"]}}'
    )),
    # "bossy" has one bossy pair, and "bossy_universe" leaves its second profile out
    "nonbossy fails": ("nonbossy", ["bossy"], 1, _checked(
        '"holds":false,"property":"nonbossy","schema":"cpv-1","violation":{"affected":2,'
        '"agent":1,"profile":["a","a"],"types":["a","b"]}}'
    )),
    "nonbossy holds on the universe": ("nonbossy", ["bossy_universe"], 0, _checked(
        '"holds":true,"property":"nonbossy","schema":"cpv-1"}'
    )),
    "sp fails": ("sp", ["fp"], 1, _checked(
        '"counterexample":{"agent":1,"profile":["2","1"],"report":"1"},"holds":false,'
        '"property":"sp","schema":"cpv-1"}'
    )),
    "tatonnement holds, discovered phase": ("tatonnement", ["sd"], 0, _checked(
        '"discovered_phase":[0,1,2],"holds":true,"property":"tatonnement","schema":"cpv-1"}'
    )),
    "tatonnement holds, given phase": ("tatonnement", ["cap"], 0, _checked(
        '"holds":true,"property":"tatonnement","schema":"cpv-1"}'
    )),
    **{
        f"tatonnement holds on the count clock from 0 in {name}": ("tatonnement", [name], 0,
            _checked('"holds":true,"property":"tatonnement","schema":"cpv-1"}'))
        for name in ("cap0", "cap0_multicount")
    },
    **{
        f"{prop} holds": (
            prop, [file], 0, _checked(f'"holds":true,"property":"{prop}","schema":"cpv-1"}}')
        )
        for prop, file in [
            ("cp", "sd"), ("gcp", "sd"), ("icp", "sd"), ("osp", "sd"), ("corners", "fp"),
            ("nonbossy", "fp"), ("efficient", "fp"), ("ir", "fp"), ("stable", "school"),
            ("sp", "spa"),
        ]
    },
    **{
        f"{prop} without a protocol": (
            prop, ["fp"], 2, f'{{"error":"property {prop!r} needs a protocol file"}}\n'
        )
        for prop in ("cp", "icp", "gcp", "tatonnement", "osp")
    },
}


# The whole stdout and exit code of other commands: case -> (argv, with file
# names for paths, exit code, stdout).  "fig<phase>" is FIG_PROTOCOL with a
# phase that the loader refuses, so `validate` and `check` refuse it alike.
# "fair_ba" is FAIR_INSTANCE with agent 2's types listed as B, A: no common
# alphabet, so no count query can be drawn: `enumerate` names only the kinds
# it drew, and refuses a family that draws none.  "numbers" has the type
# labels 1 and 2, numbers, and "numbers_synth" is the protocol that `synth
# --emit` writes for it; `run --profile` names a label in a JSON array by
# equality, as the loader does, and one in the comma form by its JSON text.
# "tie" has the labels "1" and 1, and the string label wins.
COMMAND_REPORTS = {
    "validate, notes": (["validate", "noted"], 0, '{"command":"validate","instance":"ok",'
        '"notes":["pruned empty cell 0 at /tree/0/0","pruned empty cell 2 at /tree/0/0",'
        '"contracted degenerate query at /tree/0/0"],"protocol":"ok","schema":"cpv-1"}\n'),
    "validate, instance and protocol": (["validate", "fair", "fig"], 0, '{"command":"validate",'
        '"instance":"ok","notes":[],"protocol":"ok","schema":"cpv-1"}\n'),
    "enumerate, nonexistent": (["enumerate", "--queries", "elicit,count", "fair"], 1,
        '{"command":"enumerate","family":{"count":"exact","elicit":"binary"},'
        '"queries":"elicit,count","result":"proven-nonexistent","schema":"cpv-1","states":1,'
        '"status":"nonexistent"}\n'),
    "enumerate, no common alphabet": (["enumerate", "--queries", "elicit,count", "fair_ba"], 1,
        '{"command":"enumerate","family":{"elicit":"binary"},"queries":"elicit,count",'
        '"result":"proven-nonexistent","schema":"cpv-1","states":1,"status":"nonexistent"}\n'),
    "enumerate, no kind drawn": (["enumerate", "--queries", "count", "fair_ba"], 2,
        '{"error":"the query family draws no query on this instance: '
        'count kinds need a common alphabet"}\n'),
    "enumerate, found": (["enumerate", "sd"], 0, '{"command":"enumerate","family":'
        '{"elicit":"binary"},"nodes":3,"queries":"elicit","schema":"cpv-1","states":3,'
        '"status":"found"}\n'),
    "enumerate, unknown kind": (["enumerate", "--queries", "elicit,bogus", "fair"], 2,
        '{"error":"unknown query family \'bogus\'"}\n'),
    **{
        f"enumerate, queries {queries!r}": (
            ["enumerate", "--queries", queries, "fair"], 2,
            '{"error":"at least one query family must be enabled"}\n',
        )
        for queries in ("", ",")
    },
    # the raw --queries string is echoed; the family names each kind once
    "enumerate, spaced kinds": (["enumerate", "--queries", " count , elicit ", "fair"], 1,
        '{"command":"enumerate","family":{"count":"exact","elicit":"binary"},'
        '"queries":" count , elicit ","result":"proven-nonexistent","schema":"cpv-1",'
        '"states":1,"status":"nonexistent"}\n'),
    "enumerate, repeated kind": (["enumerate", "--queries", "elicit,elicit", "fair"], 1,
        '{"command":"enumerate","family":{"elicit":"binary"},"queries":"elicit,elicit",'
        '"result":"proven-nonexistent","schema":"cpv-1","states":1,"status":"nonexistent"}\n'),
    "run, number labels": (["run", "--profile", "1,2", "numbers", "numbers_synth"], 0,
        '{"command":"run","leaf":3,"leaf_profiles":[[1,2]],"outcome":"b","path":[{"answer":0,'
        '"node":0,"query":"elicit(agent 1)"},{"answer":1,"node":1,"query":"elicit(agent 2)"}],'
        '"schema":"cpv-1"}\n'),
    "run, a string label wins a tie": (["run", "--profile", "1", "tie", "tie_elicit"], 0,
        '{"command":"run","leaf":1,"leaf_profiles":[["1"]],"outcome":"s","path":[{"answer":0,'
        '"node":0,"query":"elicit(agent 1)"}],"schema":"cpv-1"}\n'),
    # the JSON text of the label 1 is 1, not true
    "run, true is no number label": (["run", "--profile", "true,2", "numbers", "numbers_synth"],
        2, '{"error":"agent 0: unknown type label \'true\'"}\n'),
    # a JSON array names labels as the loader does, by equality: true and 1.0 name 1
    **{
        f"run, {entry} names 1 in a JSON array": (
            ["run", "--profile", f"[{entry},2]", "numbers", "numbers_synth"], 0,
            '{"command":"run","leaf":3,"leaf_profiles":[[1,2]],"outcome":"b","path":[{"answer":0,'
            '"node":0,"query":"elicit(agent 1)"},{"answer":1,"node":1,"query":"elicit(agent 2)"}],'
            '"schema":"cpv-1"}\n',
        )
        for entry in ("true", "1.0")
    },
    # "commas" has the labels "a,b" and " c": a JSON array names them, while
    # the comma-separated form splits the first and strips the second
    "run, labels as a JSON array": (["run", "--profile", '["a,b"," c"]', "commas", "commas_elicit"],
        0, '{"command":"run","leaf":3,"leaf_profiles":[["a,b"," c"]],"outcome":"y","path":'
        '[{"answer":0,"node":0,"query":"elicit(agent 1)"},{"answer":1,"node":1,'
        '"query":"elicit(agent 2)"}],"schema":"cpv-1"}\n'),
    "run, a label with a comma": (["run", "--profile", "a,b, c", "commas", "commas_elicit"], 2,
        '{"error":"profile has 3 labels, expected 2"}\n'),
    "run, a label with an edge space": (["run", "--profile", " c, c", "commas", "commas_elicit"],
        2, '{"error":"agent 0: unknown type label \'c\'"}\n'),
    "run, count clock": (["run", "--profile", "3,1,2", "cap3"], 0, '{"command":"run","leaf":7,'
        '"leaf_profiles":[["3","1","2"],["3","2","1"],["3","2","2"]],'
        '"outcome":"winners=1,price=2","path":[{"answer":1,"node":0,'
        '"query":"count(subset size 2)"},{"answer":0,"node":6,"query":"elicit(agent 1)"}],'
        '"schema":"cpv-1"}\n'),
    # a count query written as a multi-count query over its one subset
    **{
        f"run, count clock from 0 in {name}": (["run", "--profile", '["0","1","2"]', name], 0,
            '{"command":"run","leaf":11,"leaf_profiles":[["0","1","2"],["0","1","3"],'
            '["1","0","2"],["1","0","3"],["1","1","2"],["1","1","3"]],"outcome":"winners=3,price=1",'
            '"path":[{"answer":1,"node":0,"query":"count(subset size 3)"},{"answer":0,"node":6,'
            '"query":"count(subset size 2)"},{"answer":1,"node":7,"query":"elicit(agent 1)"},'
            '{"answer":1,"node":9,"query":"elicit(agent 2)"}],"schema":"cpv-1"}\n')
        for name in ("cap0", "cap0_multicount")
    },
    **{
        f"validate, count clock from 0 in {name}": (["validate", name], 0,
            '{"command":"validate","instance":"ok","notes":[],"protocol":"ok","schema":"cpv-1"}\n')
        for name in ("cap0", "cap0_multicount")
    },
    "run, multicount cutoff search": (
        ["run", "--profile", '["a>b,a2,b1","a>b,a1,b2"]', "msm"], 0,
        '{"command":"run","leaf":9,"leaf_profiles":[["a>b,a2,b1","a>b,a1,b2"],'
        '["a>b,a2,b2","a>b,a1,b1"]],"outcome":"1:a,2:b|cut:a2b1","path":[{"answer":1,"node":0,'
        '"query":"multicount(l=2)"},{"answer":1,"node":4,"query":"multicount(l=2)"},'
        '{"answer":0,"node":8,"query":"elicit(agent 1)"}],"schema":"cpv-1"}\n'),
    "builtin, efficient completions": (["builtin", "efficient_completions_2x2"], 0,
        '{"command":"builtin","kind":"family","members":4,"name":"efficient_completions_2x2",'
        '"schema":"cpv-1"}\n'),
    **{
        f"{command}, phase {phase}": (
            [*argv, "fair", f"fig{phase}"], 2, f'{{"error":"{error}"}}\n',
        )
        for command, argv in [
            ("tatonnement", ["check", "--property", "tatonnement"]), ("validate", ["validate"]),
        ]
        for phase, error in [
            ([], "phase must be nonempty (at /phase)"),
            ([99], "unknown node id 99 (at /phase/0)"),
            ([99, 98], "unknown node id 99 (at /phase/0)"),
            ([0, 98], "unknown node id 98 (at /phase/1)"),
            ([1], "phase must contain the root (at /phase)"),
            ([0, 2], "convexity broken: node 1 between members 0 and 2 (at /phase/1)"),
        ]
    },
}


class TestWholeCheckReports:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory) -> dict[str, str]:
        root = tmp_path_factory.mktemp("reports")
        docs = {"fair": FAIR_INSTANCE, "fig": FIG_PROTOCOL, "fig0": {**FIG_PROTOCOL, "phase": [0]}}
        docs["fair_ba"] = {
            **{k: v for k, v in FAIR_INSTANCE.items() if k != "alphabet"},
            "alphabets": [["A", "B"], ["B", "A"]],
        }
        docs["numbers"] = {
            "schema": "cpv-1", "agents": 2, "alphabet": [1, 2], "rule": {"table": [
                {"profile": [t1, t2], "outcome": "a" if t1 == t2 == 1 else "b" if t1 == 1 else "c"}
                for t1 in (1, 2) for t2 in (1, 2)
            ]},
        }
        elicit = [{"kind": "elicit", "agent": agent, "cells": [[1], [2]]} for agent in (1, 2)]
        docs["numbers_synth"] = {"schema": "cpv-1", "tree": {"query": elicit[0], "children": [
            {"query": elicit[1], "children": [{}, {}]}, {}
        ]}}
        docs["tie"] = {"schema": "cpv-1", "agents": 1, "alphabet": ["1", 1], "rule": {"table": [
            {"profile": ["1"], "outcome": "s"}, {"profile": [1], "outcome": "n"}
        ]}}
        docs["tie_elicit"] = {"schema": "cpv-1", "tree": {
            "query": {"kind": "elicit", "agent": 1, "cells": [["1"], [1]]}, "children": [{}, {}]
        }}
        docs["commas"] = {
            "schema": "cpv-1", "agents": 2, "alphabet": ["a,b", " c"], "rule": {"table": [
                {"profile": profile, "outcome": x} for profile, x in zip(
                    itertools.product(["a,b", " c"], repeat=2), "xyzz"
                )
            ]},
        }
        elicit = [
            {"kind": "elicit", "agent": agent, "cells": [["a,b"], [" c"]]} for agent in (1, 2)
        ]
        docs["commas_elicit"] = {"schema": "cpv-1", "tree": {"query": elicit[0], "children": [
            {"query": elicit[1], "children": [{}, {}]}, {}
        ]}}
        # agent 1 moving from a to b keeps its own component p and turns agent 2's p into q
        outcomes = {("a", "a"): "x", ("a", "b"): "x", ("b", "a"): "y", ("b", "b"): "x"}
        docs["bossy"] = {
            "schema": "cpv-1", "agents": 2, "alphabet": ["a", "b"],
            "rule": {"table": [{"profile": list(p), "outcome": x} for p, x in outcomes.items()]},
            "components": {"x": ["p", "p"], "y": ["p", "q"]},
        }
        docs["bossy_universe"] = {**docs["bossy"], "universe": [["a", "a"], ["a", "b"], ["b", "b"]]}
        for phase in ([], [99], [99, 98], [0, 98], [1], [0, 2], [0, 1], [0, 1, 4]):
            docs[f"fig{phase}"] = {**FIG_PROTOCOL, "phase": phase}
        for name, (builtin, params, *edits) in REPORT_FILES.items():
            path = str(root / f"{name}.json")
            assert main(["builtin", builtin, "--params", json.dumps(params), "--emit", path]) == 0
            docs[name] = json.loads(Path(path).read_text())
            for field, value in edits:
                _set(field, value)(docs[name])
        docs["cap0_multicount"] = json.loads(json.dumps(docs["cap0"]))
        _one_subset_multicounts(docs["cap0_multicount"])
        for name, doc in docs.items():
            (root / f"{name}.json").write_text(json.dumps(doc))
        return {name: str(root / f"{name}.json") for name in docs}

    @pytest.mark.parametrize("case", sorted(CHECK_REPORTS))
    def test_report(self, case, files, capsys):
        prop, names, code, stdout = CHECK_REPORTS[case]
        capsys.readouterr()
        got = main(["check", "--property", prop, *(files[name] for name in names)])
        assert (got, capsys.readouterr().out) == (code, stdout)

    @pytest.mark.parametrize("case", sorted(COMMAND_REPORTS))
    def test_command_report(self, case, files, capsys):
        argv, code, stdout = COMMAND_REPORTS[case]
        capsys.readouterr()
        got = main([files.get(arg, arg) for arg in argv])
        assert (got, capsys.readouterr().out) == (code, stdout)


class TestSynthRoundTrip:
    def test_sd_synth_emit_load_check(self, tmp_path, capsys):
        inst_path = tmp_path / "sd.json"
        code, _ = run_cli(
            [
                "builtin",
                "serial_dictatorship",
                "--params",
                '{"n": 2, "objects": ["A", "B"]}',
                "--emit",
                str(inst_path),
            ],
            capsys,
        )
        assert code == 0
        proto_path = tmp_path / "sd_proto.json"
        code, doc = run_cli(["synth", str(inst_path), "--emit", str(proto_path)], capsys)
        assert code == 0 and doc["result"] == "protocol"
        code, doc = run_cli(
            ["check", "--property", "cp", str(inst_path), str(proto_path)], capsys
        )
        assert code == 0 and doc["holds"] is True

    def test_fair_synth_reports_witness(self, fair_files, capsys):
        code, doc = run_cli(["synth", fair_files[0]], capsys)
        assert code == 1
        assert doc["result"] == "witness"
        assert doc["witness"]["factors"] == [["A", "B"], ["A", "B"]]


class TestEnumerate:
    def test_fair_elicit_nonexistent(self, fair_files, capsys):
        code, doc = run_cli(["enumerate", "--queries", "elicit", fair_files[0]], capsys)
        assert code == 1 and doc["result"] == "proven-nonexistent"

    def test_school_count_nonexistent(self, tmp_path, capsys):
        inst = {"schema": "cpv-1", "rule": {"builtin": "school_count_instance"}}
        p = tmp_path / "school.json"
        p.write_text(json.dumps(inst))
        code, doc = run_cli(["enumerate", "--queries", "elicit,count", str(p)], capsys)
        assert code == 1 and doc["result"] == "proven-nonexistent"

    def test_enumerate_and_synth_emit_one_file(self, tmp_path, capsys):
        # first price with 3 agents and 12 values: one decider serves both
        rule = tmp_path / "fp12.json"
        params = json.dumps({"n": 3, "values": list(range(1, 13))})
        assert main(["builtin", "first_price", "--params", params, "--emit", str(rule)]) == 0
        searched, synthesized = tmp_path / "searched.json", tmp_path / "synthesized.json"
        assert main(["enumerate", "--emit", str(searched), str(rule)]) == 0
        assert main(["synth", "--emit", str(synthesized), str(rule)]) == 0
        capsys.readouterr()
        assert searched.read_bytes() == synthesized.read_bytes()


class TestRunAndTatonnement:
    def test_run_transcript(self, fair_files, capsys):
        code, doc = run_cli(
            ["run", "--profile", "B,A", fair_files[0], fair_files[1]], capsys
        )
        assert code == 0
        assert doc["outcome"] == "x'"
        assert [s["answer"] for s in doc["path"]] == [1, 0]

    def test_tatonnement_with_embedded_phase(self, tmp_path, capsys):
        bundle_path = tmp_path / "count.json"
        code, _ = run_cli(
            [
                "builtin",
                "count_ascending_kplus1_price",
                "--params",
                '{"k": 1, "n": 3, "values": [1, 2, 3]}',
                "--emit",
                str(bundle_path),
            ],
            capsys,
        )
        assert code == 0
        code, doc = run_cli(
            ["check", "--property", "tatonnement", str(bundle_path)], capsys
        )
        assert code == 0 and doc["holds"] is True

    def test_unknown_builtin(self, capsys):
        code, doc = run_cli(["builtin", "nope"], capsys)
        assert code == 2
        assert doc == {"error": "unknown builtin 'nope'"}


# (built-in, parameters holding one key the built-in does not take, that key)
UNTAKEN = {
    "misspelt optional": (
        "double_auction_walrasian", {"n": 2, "values": [1, 2], "selectoin": "upper"}, "selectoin"
    ),
    "a parameter of another auction": ("first_price", {"n": 2, "values": [1, 2], "k": 2}, "k"),
    "parameters for one that takes none": ("fair_tiebreak_2x2", {"n": 5}, "n"),
}


class TestUntakenBuiltinParameters:
    @pytest.mark.parametrize("case", sorted(UNTAKEN))
    def test_params_exit_2_naming_the_key(self, case, capsys):
        name, params, key = UNTAKEN[case]
        code, doc = run_cli(["builtin", name, "--params", json.dumps(params)], capsys)
        assert code == 2
        assert doc["error"].startswith(f"unknown builtin parameter {key!r}; ")

    def test_instance_file_exits_2_at_rule_params(self, tmp_path, capsys):
        name, params, key = UNTAKEN["a parameter of another auction"]
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"schema": "cpv-1", "rule": {"builtin": name, "params": params}}))
        code, doc = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert doc["error"] == (
            f"unknown builtin parameter {key!r}; this builtin takes n, values (at /rule/params)"
        )


@pytest.mark.parametrize(
    "objects, error",
    [
        (["a>b", "c"], "object 'a>b' holds '>', which joins the objects of a type label (at /)"),
        (["a", "a"], "object 'a' is listed twice (at /)"),
    ],
    ids=["holds >", "listed twice"],
)
def test_serial_dictatorship_refuses_an_object_no_type_label_can_hold(objects, error, capsys):
    params = json.dumps({"n": 2, "objects": objects})
    code, doc = run_cli(["builtin", "serial_dictatorship", "--params", params], capsys)
    assert (code, doc) == (2, {"error": error})


class TestPretty:
    """``--pretty`` prints the compact report indented: the bytes of
    ``json.dumps(report, indent=2, sort_keys=True)`` and a newline."""

    @pytest.fixture()
    def sd_bundle(self, tmp_path) -> str:
        path = str(tmp_path / "sd.json")
        argv = ["builtin", "serial_dictatorship", "--params", '{"n": 2, "objects": ["A", "B"]}']
        assert main([*argv, "--emit", path]) == 0
        return path

    @pytest.mark.parametrize(
        "argv, expected_code",
        [
            (["check", "--property", "cp", "sd"], 0),
            (["check", "--property", "cp", "fair", "fig"], 1),
            (["synth", "fair"], 1),
            (["check", "--property", "cp", "fair"], 2),  # no protocol file
        ],
        ids=["check-holds", "check-violation", "synth-witness", "error"],
    )
    def test_pretty_is_the_compact_report_indented(
        self, argv, expected_code, fair_files, sd_bundle, capsys
    ):
        files = {"fair": fair_files[0], "fig": fair_files[1], "sd": sd_bundle}
        argv = [files.get(a, a) for a in argv]
        capsys.readouterr()
        assert main(argv) == expected_code
        compact = capsys.readouterr().out
        assert main(["--pretty", *argv]) == expected_code
        pretty = capsys.readouterr().out
        assert pretty == json.dumps(json.loads(compact), indent=2, sort_keys=True) + "\n"


class TestDeterminism:
    def test_byte_identical_reports(self, fair_files):
        cmd = [
            sys.executable,
            "-m",
            "cpv.cli",
            "check",
            "--property",
            "cp",
            fair_files[0],
            fair_files[1],
        ]
        runs = [subprocess.run(cmd, capture_output=True, env=child_env()) for _ in range(3)]
        for res in runs:
            # FIG on FAIR violates CP, so each run reports holds=false, exit 1.
            assert res.returncode == 1, res.stderr
            assert res.stdout
            doc = json.loads(res.stdout)
            assert doc["schema"] == "cpv-1" and doc["holds"] is False
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout


def _fair_with(**fields) -> str:
    return json.dumps({**FAIR_INSTANCE, **fields})


def _count_bundle_with(*edits) -> str:
    """The count clock bundle as ``builtin --emit`` writes it, after ``edits``."""
    return _bundle_with("count_ascending_kplus1_price", {"k": 1, "n": 3, "values": [1, 2, 3]},
                        *edits)


def _bundle_with(name: str, params: dict, *edits) -> str:
    """The built-in bundle ``name`` as ``builtin --emit`` writes it, after ``edits``."""
    doc = _builtin_to_json(BUILTIN_PROTOCOLS[name](params))
    for edit in edits:
        edit(doc)
    return json.dumps(doc)


def _fair_two_with(*edits) -> str:
    """The ``fair_two_query`` bundle as ``builtin --emit`` writes it, after ``edits``."""
    return _bundle_with("fair_two_query", {}, *edits)


def _one_subset_multicounts(doc) -> None:
    """An edit that writes every count query of a bundle's protocol as a
    multi-count query over its one subset, each count as a 1-vector."""
    nodes = [doc["protocol"]["tree"]]
    while nodes:
        node = nodes.pop()
        query = node.get("query", {})
        if query.get("kind") == "count":
            node["query"] = {"kind": "multicount", "subsets": [query["subset"]],
                             "cells": [[[v] for v in cell] for cell in query["cells"]]}
        nodes.extend(child for child in node.get("children", ()) if child is not None)


def _append(path: str, value):
    """An edit that appends ``value`` to the array at the slash-separated ``path``."""

    def edit(doc):
        for key in path.split("/"):
            doc = doc[int(key) if isinstance(doc, list) else key]
        doc.append(value)

    return edit


def _set(path: str, value):
    """An edit that sets the field at the slash-separated ``path``."""
    *parents, last = path.split("/")

    def edit(doc):
        for key in parents:
            doc = doc[int(key) if isinstance(doc, list) else key]
        doc[int(last) if isinstance(doc, list) else last] = value

    return edit


def _table_of(alphabet: list, rows: list, **fields) -> str:
    """A two-agent table instance on ``alphabet`` with the ``(profile,
    outcome)`` rows in the order given."""
    table = [{"profile": p, "outcome": o} for p, o in rows]
    return json.dumps({"schema": "cpv-1", "agents": 2, "alphabet": alphabet,
                       "rule": {"table": table}, **fields})


def _contracted_root(kept: dict) -> dict:
    """A protocol on the universe {BA, BB} whose root asks agent 1 A or B,
    a query contracted away, and whose kept child for B is ``kept``."""
    return {
        "universe": [["B", "A"], ["B", "B"]],
        "tree": {"query": {"kind": "elicit", "agent": 1, "cells": [["A"], ["B"]]},
                 "children": [None, kept]},
    }


# The nine profiles over a, b, c in a shuffled order; row 5 repeats row 2's.
_SHUFFLED = [["c", "a"], ["a", "b"], ["b", "c"], ["a", "a"], ["c", "c"], ["b", "a"],
             ["a", "c"], ["c", "b"], ["b", "b"]]
_REPEATED = [(p if r != 5 else _SHUFFLED[2], "xyz"[r % 3]) for r, p in enumerate(_SHUFFLED)]
_AB = [(["a", "a"], "x"), (["a", "b"], "y"), (["b", "a"], "y"), (["b", "b"], "x")]

# (file text, bytes or None, command, recursion limit, expected JSON pointer of the
# error, "resource", or the whole report line, which starts with "{");
# 1000 is the interpreter's default limit.
MALFORMED = {
    "alphabet not a list": (_fair_with(alphabet=5), ["validate"], 1000, "/alphabet"),
    "unknown factor label": (
        _fair_with(universe={"factors": [["Z"], ["A"]]}), ["validate"], 1000,
        "/universe/factors/0",
    ),
    "table row not an object": (
        _fair_with(rule={"table": [1, 2, 3, 4]}), ["validate"], 1000, "/rule/table/0"
    ),
    "top-level array": (json.dumps([FAIR_INSTANCE]), ["validate"], 1000, "/"),
    "non-numeric values": (
        _fair_with(model={"kind": "auction", "values": [["x", "y"], ["1", "2"]]}),
        ["check", "--property", "efficient"], 1000, "/model/values",
    ),
    "deeply nested file": ("[" * 100_000 + "]" * 100_000, ["validate"], 1000, "/"),
    "capacities not an object": (
        _fair_with(model={"kind": "house", "capacities": [1, 2]}), ["validate"], 1000,
        "/model/capacities",
    ),
    "alphabet label is a list": (
        _fair_with(alphabet=[["A"], ["B"]]), ["validate"], 1000, "/alphabet/0"
    ),
    "universe profile is a number": (
        _fair_with(universe=[1, 2]), ["validate"], 1000, "/universe/0"
    ),
    "outcomes is a number": (
        _count_bundle_with(_set("outcomes", 5)), ["validate"], 1000, "/outcomes"
    ),
    "phase is a number": (
        _count_bundle_with(_set("protocol/phase", 5)), ["validate"], 1000, "/protocol/phase"
    ),
    "phase entry is not a node id": (
        _count_bundle_with(_set("protocol/phase/0", "root")), ["validate"], 1000,
        "/protocol/phase/0",
    ),
    "phase entry is an unknown node id": (
        _count_bundle_with(_set("protocol/phase/1", 999)), ["validate"], 1000,
        "/protocol/phase/1",
    ),
    "phase without the root": (
        _count_bundle_with(_set("protocol/phase", [1])), ["check", "--property", "cp"], 1000,
        "/protocol/phase",
    ),
    "children is a number": (
        _count_bundle_with(_set("protocol/tree/children", 5)), ["validate"], 1000,
        "/protocol/tree/children",
    ),
    "tree node is a number": (
        _count_bundle_with(_set("protocol/tree/children/0", 5)), ["validate"], 1000,
        "/protocol/tree/children/0",
    ),
    "query cell is a number": (
        _count_bundle_with(_set("protocol/tree/query/cells/0", 5)), ["validate"], 1000,
        "/protocol/tree/query/cells/0",
    ),
    # a partition of the counts {0..3} (of {0..3}^2 for a vector) holds neither
    "count cell value above n": (
        _count_bundle_with(_append("protocol/tree/query/cells/1", 99)), ["validate"], 1000,
        '{"error":"count 99 out of range at node /tree"}',
    ),
    "negative count cell value": (
        _count_bundle_with(_append("protocol/tree/query/cells/1", -3)),
        ["check", "--property", "cp"], 1000,
        '{"error":"count -3 out of range at node /tree"}',
    ),
    "count vector above n": (
        _bundle_with("multicount_stable_matching", {}, _append("protocol/tree/query/cells/0",
                                                               [7, 7])),
        ["check", "--property", "cp"], 1000,
        '{"error":"count vector (7, 7) out of range at node /tree"}',
    ),
    "count cell value 9": (
        _count_bundle_with(_append("protocol/tree/query/cells/1", 9)), ["validate"], 1000,
        '{"error":"count 9 out of range at node /tree"}',
    ),
    "multicount over no subsets": (
        _bundle_with("multicount_stable_matching", {},
                     _set("protocol/tree/query", {"kind": "multicount", "subsets": [],
                                                  "cells": [[[]], [[]]]})),
        ["validate"], 1000, '{"error":"overlap: count vector () in two cells at node /tree"}',
    ),
    # a one-subset multi-count query reads as a count query, and a vector
    # of the wrong length is named in full
    "one-subset multicount cell value [9]": (
        _count_bundle_with(_one_subset_multicounts, _append("protocol/tree/query/cells/1", [9])),
        ["validate"], 1000, '{"error":"count 9 out of range at node /tree"}',
    ),
    "one-subset multicount cell value [7, 7]": (
        _count_bundle_with(_one_subset_multicounts,
                           _append("protocol/tree/query/cells/1", [7, 7])),
        ["validate"], 1000, '{"error":"count (7, 7) out of range at node /tree"}',
    ),
    "components row is a number": (
        _count_bundle_with(_set("components/winners=1,price=1", 5)), ["validate"], 1000,
        "/components/winners=1,price=1",
    ),
    "type_scores is a number": (
        _count_bundle_with(_set("model/type_scores", 5)), ["validate"], 1000,
        "/model/type_scores",
    ),
    # --params is its own document: its pointers start at its root
    "params not JSON": (
        None, ["builtin", "first_price", "--params", "{bad", "--emit"], 1000, "/"
    ),
    "params not an object": (
        None, ["builtin", "first_price", "--params", "5", "--emit"], 1000, "/"
    ),
    "params values is a number": (
        None, ["builtin", "first_price", "--params", '{"n":2,"values":5}', "--emit"],
        1000, "/values",
    ),
    "no agents and no alphabets": (
        json.dumps({k: v for k, v in {**FAIR_INSTANCE, "agents": 0}.items() if k != "alphabet"}),
        ["validate"], 1000, "/alphabets",
    ),
    "agents is a boolean": (_fair_with(agents=True), ["validate"], 1000, "/agents"),
    "second price with one agent": (
        None, ["builtin", "second_price", "--params", '{"n":1,"values":[1,2]}', "--emit"], 1000,
        '{"error":"second price needs at least 2 agents (at /)"}',
    ),
    "ascending clock with one agent": (
        None, ["builtin", "ascending_elicitation_sp", "--params", '{"n":1,"values":[1,2]}',
               "--emit"], 1000, '{"error":"second price needs at least 2 agents (at /)"}',
    ),
    "params k is a boolean": (
        None, ["builtin", "kth_price", "--params", '{"n":2,"values":[1,2],"k":true}', "--emit"],
        1000, "/k",
    ),
    "rule params is a number": (
        json.dumps({"schema": "cpv-1", "rule": {"builtin": "first_price", "params": 5}}),
        ["validate"], 1000, "/rule/params",
    ),
    # the first row at fault is named, whichever way the rows are read
    "shuffled table whose row 5 repeats a profile": (
        _table_of(["a", "b", "c"], _REPEATED), ["validate"], 1000,
        '{"error":"duplicate profile row (at /rule/table/5)"}',
    ),
    # two defects: the column pass decides, so an unknown label anywhere is named
    # before a repeated profile, whichever comes first
    "repeated profile before an unknown label": (
        _table_of(["a", "b"], [*_AB[:2], (["a", "b"], "y"), (["b", "z"], "x")]), ["validate"],
        1000, '{"error":"agent 1: unknown type label \'z\' (at /rule/table/3/profile)"}',
    ),
    "unknown label before a repeated profile": (
        _table_of(["a", "b"], [_AB[0], (["z", "b"], "y"), *_AB[2:], (["a", "a"], "x")]),
        ["validate"], 1000,
        '{"error":"agent 0: unknown type label \'z\' (at /rule/table/1/profile)"}',
    ),
    "unknown label in the last row": (
        _table_of(["a", "b"], [*_AB[:3], (["b", "z"], "x")]), ["validate"], 1000,
        '{"error":"agent 1: unknown type label \'z\' (at /rule/table/3/profile)"}',
    ),
    "profile given as a string": (
        _table_of(["a", "b"], [_AB[0], ("ab", "y"), *_AB[2:]]), ["validate"], 1000,
        '{"error":"expected an array (at /rule/table/1/profile)"}',
    ),
    "outcome is not a string": (
        _table_of(["a", "b"], [*_AB[:2], (["b", "a"], 7), _AB[3]]), ["validate"], 1000,
        '{"error":"expected a string (at /rule/table/2/outcome)"}',
    ),
    "file not UTF-8": (b"\xff\xfe{}", ["validate"], 1000, "/"),
    "integer past the conversion limit": (
        _fair_with().replace('"agents": 2', '"agents": ' + "1" * 5000), ["validate"], 1000, "/"
    ),
    "params integer past the conversion limit": (
        None, ["builtin", "first_price", "--params", '{"n": ' + "1" * 5000 + "}", "--emit"], 1000,
        '{"error":"parse error in --params: integer too long (at /)"}',
    ),
    # the agent count is refused before the shared alphabet is repeated that often
    "shared alphabet for 10^4000 agents": (
        _table_of(["a", "b"], _AB).replace('"agents": 2', '"agents": 1' + "0" * 4000),
        ["validate"], 1000, '{"error":"agent count exceeds cap 1048576","kind":"resource"}',
    ),
    "one-label alphabet for 10^4000 agents": (
        _table_of(["a"], [(["a", "a"], "x")]).replace('"agents": 2', '"agents": 1' + "0" * 4000),
        ["validate"], 1000, '{"error":"agent count exceeds cap 1048576","kind":"resource"}',
    ),
    # one column iterator per agent, zipped: no agent count nests them deep enough to crash;
    # a missing profile is named by its first 64 labels, and "..." where it has more
    "table for 65536 agents": (
        json.dumps({"schema": "cpv-1", "agents": 65536, "alphabet": ["a"], "rule": {"table": []}}),
        ["validate"], 1000,
        '{"error":"rule table is not total: missing [' + ", ".join(["'a'"] * 64)
        + ']... (at /rule/table)"}',
    ),
    "table for 64 agents": (
        json.dumps({"schema": "cpv-1", "agents": 64, "alphabet": ["a"], "rule": {"table": []}}),
        ["validate"], 1000,
        '{"error":"rule table is not total: missing [' + ", ".join(["'a'"] * 64)
        + '] (at /rule/table)"}',
    ),
    # the profile count over the cap is not printed: 2^100000 has too many digits
    "64 agents of two labels": (
        json.dumps({
            "schema": "cpv-1", "agents": 64, "alphabet": ["a", "b"], "rule": {"table": []}
        }),
        ["validate"], 1000, '{"error":"profile space size exceeds cap 1048576","kind":"resource"}',
    ),
    "100000 agents of two labels": (
        json.dumps({
            "schema": "cpv-1", "agents": 100_000, "alphabet": ["a", "b"], "rule": {"table": []}
        }),
        ["validate"], 1000, '{"error":"profile space size exceeds cap 1048576","kind":"resource"}',
    ),
    # an agent count below 1 is refused before any k is checked against it
    **{
        f"{name} with {n} agents": (
            None, ["builtin", name, "--params", f'{{"n":{n},"values":[1,2]}}', "--emit"], 1000,
            '{"error":"first price needs at least 1 agent (at /)"}',
        )
        for name in ("first_price", "descending_first_price") for n in (0, -1)
    },
    # a universe is refused where it is read, the instance's before the protocol's
    **{
        f"empty universe, {' '.join(command)}": (
            _table_of(["a", "b"], _AB, universe=[]), command, 1000,
            '{"error":"universe is empty (at /universe)"}',
        )
        for command in (["validate"], ["check", "--property", "corners"], ["synth"])
    },
    "bundle with an empty instance universe": (
        _count_bundle_with(_set("universe", [])), ["validate"], 1000,
        '{"error":"universe is empty (at /universe)"}',
    ),
    "bundle with an empty protocol universe": (
        _count_bundle_with(_set("protocol/universe", [])), ["validate"], 1000,
        '{"error":"universe is empty (at /protocol/universe)"}',
    ),
    # refused by the tree reader where the build walk reaches the node
    "children without a query": (
        _count_bundle_with(_set("protocol/tree/children/0/children/0", {"children": [{}, {}]})),
        ["validate"], 1000,
        '{"error":"children without a query (at /protocol/tree/children/0/children/0)"}',
    ),
    **{
        f"elicit agent number {agent}": (
            _count_bundle_with(_set("protocol/tree/children/0/query/agent", agent)),
            ["validate"], 1000,
            '{"error":"agent number out of range (at /protocol/tree/children/0/query/agent)"}',
        )
        for agent in (0, 4)
    },
    # the root's query is contracted (only B is present for agent 1); a
    # defect of the node it keeps is named by that node's path in the file
    "overlap under a contracted query": (
        _fair_with(protocol=_contracted_root({
            "query": {"kind": "elicit", "agent": 2, "cells": [["A"], ["A", "B"]]},
            "children": [{}, {}],
        })),
        ["validate"], 1000, '{"error":"overlap: type 0 in two cells at node /tree/1"}',
    ),
    "one child for two cells under a contracted query": (
        _fair_with(protocol=_contracted_root({
            "query": {"kind": "elicit", "agent": 2, "cells": [["A"], ["B"]]}, "children": [{}],
        })),
        ["validate"], 1000, '{"error":"1 children for 2 cells at node /tree/1"}',
    ),
    # a tree node is checked where the build walk reaches it
    "tree is a number": (
        _fair_two_with(_set("protocol/tree", 5)), ["validate"], 1000,
        '{"error":"expected a node object (at /protocol/tree)"}',
    ),
    "child node is a number": (
        _fair_two_with(_set("protocol/tree/children/0", 5)), ["validate"], 1000,
        '{"error":"expected a node object (at /protocol/tree/children/0)"}',
    ),
    "child query of an unknown kind": (
        _fair_two_with(_set("protocol/tree/children/0/query/kind", "bogus")), ["validate"], 1000,
        '{"error":"expected a query of kind elicit, count, multicount or extensional'
        ' (at /protocol/tree/children/0/query)"}',
    ),
    "children is an object": (
        _fair_two_with(_set("protocol/tree/children/1/children", {"a": 1})), ["validate"], 1000,
        '{"error":"expected an array (at /protocol/tree/children/1/children)"}',
    ),
    "elicit agent is a string": (
        _fair_two_with(_set("protocol/tree/query/agent", "1")), ["validate"], 1000,
        '{"error":"expected an integer (at /protocol/tree/query/agent)"}',
    ),
    "elicit cell label is an array": (
        _fair_two_with(_set("protocol/tree/children/1/query/cells/0/0", ["A"])), ["validate"],
        1000, '{"error":"expected a label, not an array or object'
        ' (at /protocol/tree/children/1/query/cells/0/0)"}',
    ),
    # the walk counts a node's children before it reads any of them, and
    # reports the defects of a tree in preorder
    "three children for two cells, the third a number": (
        _fair_two_with(_set("protocol/tree/children", [{}, {}, 5])), ["validate"], 1000,
        '{"error":"3 children for 2 cells at node /tree"}',
    ),
    "overlap above a child query of an unknown kind": (
        _fair_two_with(_set("protocol/tree/query/cells", [["A"], ["A", "B"]]),
                       _set("protocol/tree/children/0/query/kind", "bogus")),
        ["validate"], 1000, '{"error":"overlap: type 0 in two cells at node /tree"}',
    ),
    # a subtree under a cell that is empty on the node's label is refused unread
    "number under a cell that is empty on the universe": (
        _fair_with(protocol={
            "universe": [["B", "A"], ["B", "B"]],
            "tree": {"query": {"kind": "elicit", "agent": 1, "cells": [["A"], ["B"]]},
                     "children": [5, {}]},
        }),
        ["validate"], 1000, '{"error":"subtree attached to an empty cell at node /tree/0"}',
    ),
    "universe profile of the wrong length": (
        _table_of(["a", "b"], _AB, universe=[["a", "a"], ["a", "b"], ["b"], ["b", "b"]]),
        ["validate"], 1000, '{"error":"profile has 1 labels, expected 2 (at /universe/2)"}',
    ),
}

RUN_WITH_LIMIT = (
    "import sys\n"
    "sys.setrecursionlimit(int(sys.argv[1]))\n"
    "from cpv.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def test_a_tree_deeper_than_the_recursion_limit_is_emitted(tmp_path, capsys):
    # The writer builds a protocol's document without recursion, so a clock
    # of 60 levels is written under a recursion limit of 60, byte for byte
    # as under the default limit, and the file reloads.
    params = json.dumps({"n": 1, "values": list(range(60))})
    argv = ["builtin", "descending_first_price", "--params", params, "--emit"]
    low, default = tmp_path / "low.json", tmp_path / "default.json"
    res = subprocess.run([sys.executable, "-c", RUN_WITH_LIMIT, "60", *argv, str(low)],
                         capture_output=True, env=child_env())
    assert res.returncode == 0, res.stdout.decode() + res.stderr.decode()[-2000:]
    assert main([*argv, str(default)]) == 0
    assert low.read_bytes() == default.read_bytes()
    capsys.readouterr()
    code, doc = run_cli(["validate", str(low)], capsys)
    assert (code, doc["protocol"]) == (0, "ok")


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_2_with_json_error_and_no_traceback(self, case, tmp_path):
        text, command, limit, expected = MALFORMED[case]
        target = tmp_path / "input.json"
        if isinstance(text, bytes):
            target.write_bytes(text)
        elif text is not None:
            target.write_text(text)
        cmd = [sys.executable, "-c", RUN_WITH_LIMIT, str(limit), *command, str(target)]
        res = subprocess.run(cmd, capture_output=True, env=child_env())
        assert b"Traceback" not in res.stderr, res.stderr.decode()[-2000:]
        assert res.returncode == 2
        doc = json.loads(res.stdout)
        if expected == "resource":
            assert doc["kind"] == "resource" and doc["error"]
        elif expected.startswith("{"):
            assert res.stdout.decode() == expected + "\n"
        else:
            assert doc["error"].endswith(f"(at {expected})"), doc

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (_set("phase", 5), "/phase"),
            (_set("tree/children/0", 5), "/tree/children/0"),
            (_set("space", 5), "/space"),
            (_set("tree/children/0/query/kind", "bogus"), "/tree/children/0/query"),
        ],
        ids=["phase", "tree node", "space", "query kind"],
    )
    def test_protocol_file_pointers_start_at_its_root(
        self, edit, expected, tmp_path, fair_files, capsys
    ):
        # A separate protocol file is its own document; only a bundle's
        # embedded protocol is read at /protocol.
        proto = {**json.loads(json.dumps(FIG_PROTOCOL)), "phase": [0]}
        edit(proto)
        p = tmp_path / "protocol.json"
        p.write_text(json.dumps(proto))
        code, doc = run_cli(["validate", fair_files[0], str(p)], capsys)
        assert code == 2
        assert doc["error"].endswith(f"(at {expected})"), doc

    def test_pointer_escapes_a_slash_in_a_key(self, tmp_path, capsys):
        # RFC 6901: "/" in a member name reads "~1"; the price 1/2 puts one there
        doc = instance_to_json(BUILTIN_RULES["first_price"]({"n": 2, "values": ["1/2", 1]}))
        doc["components"]["winner=1,price=1/2"] = 5
        p = tmp_path / "half.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli(["validate", str(p)], capsys)
        assert code == 2 and out["error"].endswith("(at /components/winner=1,price=1~12)"), out


# (command line, the error it exits 2 with); "fair.json" is the fair instance
_COMMAND_NAMES = "validate, check, synth, run, enumerate, builtin"
MALFORMED_ARGV = {
    "no command": ([], f"no command; expected one of {_COMMAND_NAMES}"),
    "unknown command": (
        ["verify", "fair.json"], f"unknown command 'verify'; expected one of {_COMMAND_NAMES}"
    ),
    "missing --property": (["check", "fair.json"], "check: missing --property"),
    "--property bogus": (
        ["check", "--property", "bogus", "fair.json"],
        "check: --property must be one of cp, gcp, icp, tatonnement, corners, nonbossy, "
        "efficient, ir, stable, sp, osp; not 'bogus'",
    ),
    "missing instance": (["validate"], "validate: missing instance"),
    "extra positional": (
        ["validate", "fair.json", "fair.json", "fair.json"],
        "validate: unexpected argument 'fair.json'",
    ),
    "unknown option": (
        ["validate", "--strict", "fair.json"], "validate: unknown option '--strict'"
    ),
    "abbreviated option": (
        ["check", "--prop", "corners", "fair.json"], "check: unknown option '--prop'"
    ),
    "option without its value": (
        ["synth", "fair.json", "--emit"], "synth: option --emit needs a value"
    ),
    "option followed by another": (
        ["synth", "--emit", "--pretty", "fair.json"], "synth: option --emit needs a value"
    ),
    "--pretty after the command": (
        ["validate", "fair.json", "--pretty"], "validate: unknown option '--pretty'"
    ),
}


class TestMalformedCommandLine:
    @pytest.mark.parametrize("case", sorted(MALFORMED_ARGV))
    def test_exit_2_with_json_error_and_no_traceback(self, case, tmp_path):
        argv, error = MALFORMED_ARGV[case]
        (tmp_path / "fair.json").write_text(json.dumps(FAIR_INSTANCE))
        cmd = [sys.executable, "-m", "cpv.cli", *argv]
        res = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=tmp_path)
        assert b"Traceback" not in res.stderr, res.stderr.decode()[-2000:]
        assert res.returncode == 2
        assert res.stdout.decode() == json.dumps({"error": error}, separators=(",", ":")) + "\n"
        assert res.stderr.decode() == f"error: {error}\n"

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--pretty", "--help"]], ids=" ".join)
    def test_help_names_every_command(self, argv):
        cmd = [sys.executable, "-m", "cpv.cli", *argv]
        res = subprocess.run(cmd, capture_output=True, env=child_env())
        assert res.returncode == 0 and not res.stderr, res.stderr.decode()
        out = res.stdout.decode()
        assert out.startswith("usage: cpv ")
        for name in _COMMAND_NAMES.split(", "):
            assert re.search(rf"^  cpv {name} ", out, re.M), name

    @pytest.mark.parametrize("argv", [["check", "--help"], ["check", "fair.json", "-h"]],
                             ids=" ".join)
    def test_check_help_names_every_property(self, argv):
        cmd = [sys.executable, "-m", "cpv.cli", *argv]
        res = subprocess.run(cmd, capture_output=True, env=child_env())
        assert res.returncode == 0 and not res.stderr, res.stderr.decode()
        out = res.stdout.decode()
        assert out.startswith("usage: cpv check --property {cp,gcp,")
        for prop in _PROPERTIES:
            assert re.search(rf"\b{prop}\b", out), prop

    def test_the_property_choices_are_the_checks(self):
        # the command line lists them without importing cpv.check
        assert _PROPERTY_NAMES == tuple(_PROPERTIES)

    def test_emit_with_equals_and_a_file_after_double_dash(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # a file whose name starts with "--" is read as one after "--"
        assert main([*FIRST_PRICE, "--emit=--fp.json"]) == 0
        capsys.readouterr()
        code, doc = run_cli(["synth", "--emit=p.json", "--", "--fp.json"], capsys)
        assert (code, doc["emitted"]) == (0, "p.json")
        assert load("--fp.json", "p.json").protocol is not None


def _first_price_with(edit) -> str:
    """The first price instance as ``builtin --emit`` writes it, after ``edit``."""
    doc = instance_to_json(BUILTIN_RULES["first_price"]({"n": 2, "values": [1, 2]}))
    edit(doc)
    return json.dumps(doc)


def _instead(name: str, params: dict, *edits):
    """An edit that swaps the document for built-in ``name`` as ``builtin
    --emit`` writes it, then applies ``edits``."""

    def edit(doc):
        doc.clear()
        doc.update(instance_to_json(BUILTIN_RULES[name](params)))
        for change in edits:
            change(doc)

    return edit


# First price with an unreadable last outcome; agent 1 pays 9 at the first
# profile, a violation of ir and sp that a scan in profile order meets first.
_OVERPAID = _instead(
    "first_price", {"n": 3, "values": [1, 2, 3, 4, 5]},
    _set("components/winner=1,price=1/0", "q=1,t=9"),
    _set("components/winner=1,price=5/0", "q=1x,t=5"),
)
# non_clinching without x4 in agent 1's lo preferences; in the second file
# agent 2's lo type prefers x2, a violation of sp at the first profile.
_NO_X4 = _set("model/outcome_prefs/0/0", [["x1"], ["x3"], ["x2"]])
_PREFERS_X2 = _set("model/outcome_prefs/1/0", [["x2"], ["x1"], ["x3"], ["x4"]])


class TestPropertyChecksRefuseWhatTheyCannotRead:
    @pytest.mark.parametrize(
        "prop, edit, message",
        [
            ("efficient", lambda doc: doc.pop("components"), "components"),
            ("ir", _set("components/winner=1,price=2/0", "won"), "'won'"),
            ("sp", lambda doc: doc["model"].pop("values"), "values"),
            ("efficient", _set("components/winner=1,price=2/0", "q=1x,t=2"), "'q=1x,t=2'"),
            ("efficient", _OVERPAID, "'q=1x,t=5'"),
            ("ir", _OVERPAID, "'q=1x,t=5'"),
            ("sp", _OVERPAID, "'q=1x,t=5'"),
            ("sp", _instead("non_clinching", {}, _NO_X4), "'x4' missing from agent 1's"),
            ("sp", _instead("non_clinching", {}, _NO_X4, _PREFERS_X2),
             "'x4' missing from agent 1's"),
        ],
        ids=["no components", "malformed component", "no values", "malformed winner",
             "malformed after a violation, efficient", "malformed after a violation, ir",
             "malformed after a violation, sp", "outcome missing from preferences",
             "outcome missing after a violation"],
    )
    def test_exit_2_naming_the_need(self, prop, edit, message, tmp_path, capsys):
        p = tmp_path / "fp.json"
        p.write_text(_first_price_with(edit))
        code, doc = run_cli(["check", "--property", prop, str(p)], capsys)
        assert code == 2 and message in doc["error"], doc

    def test_values_short_of_the_agents_is_a_load_error(self, tmp_path, capsys):
        p = tmp_path / "fp.json"
        p.write_text(_first_price_with(_set("model/values", [])))
        code, doc = run_cli(["check", "--property", "sp", str(p)], capsys)
        assert code == 2 and doc["error"].endswith("(at /model/values)"), doc


class TestAuctionValues:
    @pytest.mark.parametrize(
        "values",
        [[1, 1.0], [1.5, "3/2"], ["1.5", "3/2"], [2, "2"], ["2", "4/2"], [100, "1e2"],
         ["0", "-0"]],
        ids=["int and float", "float and fraction", "decimal and fraction", "int and string",
             "unreduced fraction", "exponent", "signed zero"],
    )
    def test_equal_values_spelled_differently_are_refused(self, values, capsys):
        params = json.dumps({"n": 2, "values": [*values, 7]})
        code, doc = run_cli(["builtin", "first_price", "--params", params], capsys)
        assert code == 2 and "auction type values must be distinct" in doc["error"], doc


class TestLabelIdentity:
    """The loader looks a label up by equality, as a ``dict`` does, so JSON
    ``true`` reads as the label ``1``, ``false`` as ``0`` and ``1.0`` as
    ``1``, in rule tables, universes and extensional cells alike; an
    alphabet that holds two such labels is refused."""

    BINARY = {"schema": "cpv-1", "agents": 2, "alphabet": [0, 1]}

    def _load(self, tmp_path, name: str, doc: dict, protocol: dict | None = None):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**self.BINARY, **doc}))
        ppath = None
        if protocol is not None:
            ppath = tmp_path / f"{name}_protocol.json"
            ppath.write_text(json.dumps({"schema": "cpv-1", **protocol}))
        return load(str(path), ppath and str(ppath))

    @staticmethod
    def _table(labels) -> dict:
        rows = [{"profile": [a, b], "outcome": f"o{a}{b}"} for a in (0, 1) for b in (0, 1)]
        for row, spelled in zip(rows, labels):
            row["profile"] = spelled
        return {"rule": {"table": rows[::-1]}}

    def test_booleans_and_floats_name_the_integer_labels(self, tmp_path):
        plain = self._table([[0, 0], [0, 1], [1, 0], [1, 1]])
        spelled = self._table([[False, 0], [0, True], [1.0, False], [True, 1.0]])
        universe, spelled_universe = [[0, 1], [1, 1]], [[False, True], [1.0, True]]
        cells = [[[0, 1]], [[1, 1]]]
        spelled_cells = [[[0.0, True]], [[True, 1]]]
        expected = self._load(tmp_path, "plain", {**plain, "universe": universe}, {
            "universe": universe, "tree": {"query": {"kind": "extensional", "cells": cells},
                                           "children": [{}, {}]},
        })
        got = self._load(tmp_path, "spelled", {**spelled, "universe": spelled_universe}, {
            "universe": spelled_universe,
            "tree": {"query": {"kind": "extensional", "cells": spelled_cells},
                     "children": [{}, {}]},
        })
        assert got == expected
        # outcomes keep their order of first appearance, and the labels their own spelling
        assert got.instance.rule.outcomes == ("o11", "o10", "o01", "o00")
        assert got.instance.space.alphabets == ((0, 1), (0, 1))

    def test_a_boolean_row_repeats_its_integer_row(self, tmp_path):
        doc = self._table([[0, 0], [0, 1], [1, 0], [True, 0]])
        with pytest.raises(LoadError, match=r"^duplicate profile row \(at /rule/table/1\)$"):
            self._load(tmp_path, "repeat", doc)

    def test_an_alphabet_of_true_and_one_is_refused(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({**self.BINARY, "alphabet": [True, 1], **self._table([])}))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == (
            '{"error":"agent 0: duplicate type labels (at /alphabet)"}\n'
        )


# Small parameters for every built-in protocol bundle.
BUNDLE_PARAMS = {
    "serial_dictatorship": {"n": 2, "objects": ["A", "B"]},
    "descending_first_price": {"n": 2, "values": [1, 2, 3]},
    "count_ascending_kplus1_price": {"k": 1, "n": 3, "values": [1, 2, 3]},
    "double_auction_count": {"n": 4, "values": [1, 2, 3]},
    "multicount_stable_matching": {},
    "ascending_elicitation_sp": {"n": 3, "values": [1, 2, 3]},
    "fair_two_query": {},
}


class TestBundleReload:
    def test_every_builtin_protocol_has_params(self):
        assert set(BUNDLE_PARAMS) == set(BUILTIN_PROTOCOLS)

    @pytest.mark.parametrize("name", sorted(BUNDLE_PARAMS))
    def test_emitted_bundle_reloads_with_same_cp_verdict(self, name, tmp_path, capsys):
        params = BUNDLE_PARAMS[name]
        path = str(tmp_path / f"{name}.json")
        code, _ = run_cli(
            ["builtin", name, "--params", json.dumps(params), "--emit", path], capsys
        )
        assert code == 0
        code, doc = run_cli(["validate", path], capsys)
        assert code == 0, doc
        assert doc["protocol"] == "ok"
        bundle = BUILTIN_PROTOCOLS[name](params)
        expected = check_protocol_cp(bundle.protocol, bundle.instance.rule).ok
        code, doc = run_cli(["check", "--property", "cp", path], capsys)
        assert doc["holds"] is expected
        assert code == (0 if expected else 1)


class TestFamilies:
    def test_family_emission(self, tmp_path, capsys):
        out = tmp_path / "family.json"
        code, doc = run_cli(
            ["builtin", "house_ir_efficient_family", "--emit", str(out)], capsys
        )
        assert code == 0 and doc["kind"] == "family" and doc["members"] == 1
        saved = json.loads(out.read_text())
        assert len(saved["family"]) == 1

    @pytest.mark.parametrize("name", ["house_ir_efficient_family", "school_stable_family"])
    @pytest.mark.parametrize(
        "command",
        [["validate"], ["check", "--property", "corners"], ["synth"], ["enumerate"]],
        ids=["validate", "check", "synth", "enumerate"],
    )
    def test_family_file_is_refused_at_family(self, name, command, tmp_path, capsys):
        # A family file holds no rule of its own; the refusal names the family
        # and its size, not a missing /rule.
        path = tmp_path / "family.json"
        _, built = run_cli(["builtin", name, "--emit", str(path)], capsys)
        members = built["members"]
        code, doc = run_cli([*command, str(path)], capsys)
        assert code == 2
        assert doc["error"].endswith("(at /family)"), doc
        assert f"a family with {members} member" in doc["error"], doc


FIRST_PRICE = ["builtin", "first_price", "--params", '{"n":2,"values":[1,2]}']


class TestEmit:
    """``--emit`` rewrites its target in place: the bytes of a fresh file, on
    the old inode and mode, with any longer old tail cut off."""

    @pytest.fixture()
    def fresh(self, tmp_path, capsys) -> bytes:
        path = tmp_path / "fresh.json"
        code, _ = run_cli([*FIRST_PRICE, "--emit", str(path)], capsys)
        assert code == 0
        return path.read_bytes()

    @pytest.mark.parametrize(
        "old",
        [lambda b: b + b"TAIL" * 500, lambda b: b"{}\n", lambda b: b],
        ids=["longer", "shorter", "identical"],
    )
    def test_overwrite_gives_the_fresh_bytes_in_place(self, old, fresh, tmp_path, capsys):
        target = tmp_path / "old.json"
        target.write_bytes(old(fresh))
        target.chmod(0o640)
        before = target.stat()
        code, doc = run_cli([*FIRST_PRICE, "--emit", str(target)], capsys)
        assert code == 0 and doc["emitted"] == str(target)
        after = target.stat()
        assert target.read_bytes() == fresh
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_non_seekable_target(self, fresh):
        # A pipe cannot be truncated; the document still goes through whole,
        # followed by the report line.
        if not Path("/dev/stdout").exists():
            pytest.skip("no /dev/stdout")
        cmd = [sys.executable, "-m", "cpv.cli", *FIRST_PRICE, "--emit", "/dev/stdout"]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        assert res.returncode == 0, res.stderr.decode()
        emitted, report = res.stdout[: len(fresh)], res.stdout[len(fresh):]
        assert emitted == fresh
        assert json.loads(report)["emitted"] == "/dev/stdout"

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_target_exits_2(self, where, tmp_path):
        target = tmp_path / "missing" / "x.json" if where != "directory" else tmp_path
        cmd = [sys.executable, "-m", "cpv.cli", *FIRST_PRICE, "--emit", str(target)]
        res = subprocess.run(cmd, capture_output=True, env=child_env())
        assert b"Traceback" not in res.stderr, res.stderr.decode()[-2000:]
        assert res.returncode == 2
        lines = res.stdout.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"].startswith(f"cannot write {target}: "), lines


class TestTimings:
    """Timings go to stderr alone, split into load, compute and emit."""

    LINE = re.compile(r"elapsed: \d+\.\d{3}s \(load (\d+\.\d{3})s, "
                      r"compute \d+\.\d{3}s, emit (\d+\.\d{3})s\)\n")

    def test_stderr_splits_elapsed_and_stdout_carries_none(self, tmp_path, capsys):
        path = str(tmp_path / "fp.json")
        # builtin loads nothing, and check emits nothing: (argv, the idle group)
        for argv, idle in [([*FIRST_PRICE, "--emit", path], 1),
                           (["check", "--property", "corners", path], 2)]:
            assert main(argv) == 0
            out, err = capsys.readouterr()
            assert out.count("\n") == 1 and json.loads(out)["schema"] == "cpv-1"  # the report alone
            match = self.LINE.fullmatch(err)
            assert match and match.group(idle) == "0.000", err


class TestPropertiesOnTheUniverse:
    """``check`` decides a rule property on the instance's universe: the
    profiles outside it, and the outcomes only they take, play no part."""

    def test_school_count_sp_counterexample_lies_in_the_universe(self, tmp_path, capsys):
        path = tmp_path / "school.json"
        run_cli(["builtin", "school_count_instance", "--emit", str(path)], capsys)
        code, doc = run_cli(["check", "--property", "sp", str(path)], capsys)
        assert code == 1 and doc["holds"] is False
        assert doc["counterexample"] == {"agent": 2, "profile": ["s1'", "s2"], "report": "s2'"}

    def test_multicount_matching_sp_ignores_the_filler_outcome(self, tmp_path, capsys):
        path = tmp_path / "msm.json"
        run_cli(["builtin", "multicount_stable_matching", "--emit", str(path)], capsys)
        code, doc = run_cli(["check", "--property", "sp", str(path)], capsys)
        assert code == 0 and doc["holds"] is True
