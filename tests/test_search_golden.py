"""Golden results of the CP decider and the OSP reference search.

Both visit states in a fixed order, so the status, the number of states
visited and the size of the protocol they build are part of the contract.
These pin them on the paper's small instances, and pin the whole
``enumerate`` report on the benchmark's seed-1 ``random_search`` rules.
The CP rows run ``cpv.search.exhaustive_cp_search``, the one greedy
decider, which ``synth`` also runs (over elicitation, with no state bound):
a found protocol has as many nodes as it visited states, and a
nonexistence proof counts the states up to the first one where no query
passes the node test.  The OSP rows run the AND-OR search of ``tests/oracles.py``,
which backtracks; the AND-OR CP search there visits the same states where
a protocol is found and, where none is, at least as many as the greedy
decider (``REFERENCE_STATES``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from cpv.cli import load, main
from cpv.clocks import count_ascending_price
from cpv.matching import (
    fig_shaded_3x3,
    multicount_stable_matching,
    non_clinching,
    school_count_instance,
    serial_dictatorship,
)
from cpv.search import exhaustive_cp_search

from corpus import random_rule
from oracles import exhaustive_osp_search, reference_cp_search


def sd2():
    return serial_dictatorship(2, ("A", "B"), (0, 1))


def sd3():
    return serial_dictatorship(3, ("a", "b", "c"), (0, 1, 2))


def cp_sd2():
    return exhaustive_cp_search(sd2().rule, "elicit")


def cp_sd3():
    return exhaustive_cp_search(sd3().rule, "elicit")


def cp_school():
    inst = school_count_instance()
    return exhaustive_cp_search(inst.rule, "elicit,count", universe=inst.universe)


def cp_fig_shaded():
    return exhaustive_cp_search(fig_shaded_3x3().rule, "elicit")


def cp_multicount_matching():
    inst = multicount_stable_matching().instance
    return exhaustive_cp_search(inst.rule, "elicit,count,multicount", universe=inst.universe)


def cp_count_clock_every_kind():
    inst = count_ascending_price(2, 4, range(1, 9)).instance
    return exhaustive_cp_search(inst.rule, "elicit,count,multicount", universe=inst.universe)


def cp_count_clock_count():
    inst = count_ascending_price(2, 4, range(1, 9)).instance
    return exhaustive_cp_search(inst.rule, "count", universe=inst.universe)


def cp_count_clock_m12_count():
    inst = count_ascending_price(1, 3, range(1, 13)).instance
    return exhaustive_cp_search(inst.rule, "count", universe=inst.universe)


def cp_multicount_matching_count():
    inst = multicount_stable_matching().instance
    return exhaustive_cp_search(inst.rule, "count", universe=inst.universe)


def cp_multicount_matching_multicount():
    inst = multicount_stable_matching().instance
    return exhaustive_cp_search(inst.rule, "multicount", universe=inst.universe)


def cp_random_rule_count():
    return exhaustive_cp_search(random_rule(586426330, 3, 4), "count")


def osp_sd2():
    inst = sd2()
    return exhaustive_osp_search(inst.rule, inst.model)


def osp_sd3():
    inst = sd3()
    return exhaustive_osp_search(inst.rule, inst.model)


def osp_sd3_budget():
    inst = sd3()
    return exhaustive_osp_search(inst.rule, inst.model, max_states=5)


def osp_non_clinching():
    inst = non_clinching()
    return exhaustive_osp_search(inst.rule, inst.model)


# (search, status, states, nodes of the found protocol)
GOLDEN = [
    (cp_sd2, "found", 3, 3),
    (cp_sd3, "found", 11, 11),
    (cp_school, "nonexistent", 1, None),
    (cp_fig_shaded, "nonexistent", 2, None),
    (cp_multicount_matching, "found", 31, 31),
    # count kinds: no count clock is found over exact counts, nor is any
    # count-only built-in
    (cp_count_clock_every_kind, "nonexistent", 1, None),
    (cp_count_clock_count, "nonexistent", 1, None),
    (cp_count_clock_m12_count, "nonexistent", 1, None),
    (cp_multicount_matching_count, "nonexistent", 6, None),
    (cp_multicount_matching_multicount, "nonexistent", 6, None),
    (cp_random_rule_count, "found", 7, 7),
    (osp_sd2, "found", 3, 3),
    (osp_sd3, "found", 43, 43),
    (osp_sd3_budget, "budget_exhausted", 6, None),
    (osp_non_clinching, "nonexistent", 1, None),
]


@pytest.mark.parametrize(
    "search,status,states,nodes", GOLDEN, ids=[g[0].__name__ for g in GOLDEN]
)
def test_golden_search(search, status, states, nodes):
    result = search()
    assert result.status == status
    assert result.states == states
    if nodes is None:
        assert result.protocol is None
    else:
        assert len(result.protocol.nodes) == nodes


def load_gen():
    """``bench/gen.py``, which imports only the standard library, loaded
    straight from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(family: str, states: int, nodes: int | None = None) -> str:
    """The compact, key-sorted stdout of ``enumerate``: found with
    ``nodes``, else proven nonexistent."""
    kinds = {"elicit": "binary", **({"count": "exact"} if "count" in family else {})}
    doc = {"command": "enumerate", "family": kinds, "queries": family, "schema": "cpv-1",
           "states": states}
    if nodes is None:
        doc.update(result="proven-nonexistent", status="nonexistent")
    else:
        doc.update(nodes=nodes, status="found")
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# The whole `enumerate` report on each rule of the benchmark's seed-1
# `random_search` files, with the first 16 hex digits of the SHA-256 of the
# emitted protocol where one is found.
RANDOM_SEARCH_REPORTS = {
    "r00_tree": (0, _report("elicit", 55, 55), "c0962063581eedea"),
    "r01_tree": (0, _report("elicit", 39, 39), "ae3ed47225f9bf4a"),
    "r02_tree": (0, _report("elicit", 79, 79), "08853bc123b8e816"),
    "r03_tree": (0, _report("elicit", 63, 63), "320d145e1ad6d51f"),
    "r04_planted": (1, _report("elicit", 20), None),
    "r05_planted": (1, _report("elicit", 2), None),
    "r06_planted": (1, _report("elicit", 2), None),
    "r07_uniform": (1, _report("elicit", 16), None),
    "c00_tree": (0, _report("elicit,count", 41, 41), "590cb826ea62388d"),
    "c01_planted": (1, _report("elicit,count", 27), None),
}


# Where the AND-OR reference visits more states than the greedy decider:
# the states it visits before it proves nonexistence.
REFERENCE_STATES = {"r04_planted": 126, "r06_planted": 8, "r07_uniform": 187, "c01_planted": 35}


def test_random_search_reports_are_pinned(tmp_path, capsys):
    rules = load_gen().generate(1)
    assert [name for name, _, _ in rules] == list(RANDOM_SEARCH_REPORTS)
    for name, doc, meta in rules:
        path, emitted = tmp_path / f"{name}.json", tmp_path / f"{name}_protocol.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["enumerate", "--queries", meta["family"], str(path)])
        report = capsys.readouterr().out
        main(["enumerate", "--queries", meta["family"], "--emit", str(emitted), str(path)])
        digest = hashlib.sha256(emitted.read_bytes()).hexdigest()[:16] if emitted.exists() else None
        assert (code, report, digest) == RANDOM_SEARCH_REPORTS[name], name
        doc = json.loads(report)
        reference = reference_cp_search(load(str(path)).instance.rule, meta["family"])
        expected = (doc["status"], REFERENCE_STATES.get(name, doc["states"]))
        assert (reference.status, reference.states) == expected, name
