from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

import cpv.protocol as protocol_module
import cpv.treereader as treereader_module
from cpv import cli
from cpv.clocks import descending_first_price
from cpv.core import ChoiceRule, InputError, ProfileSet, TypeSpace
from cpv.matching import fair_tiebreak_2x2, fair_two_query_protocol
from cpv.protocol import (
    CountQuery,
    ElicitQuery,
    ProtocolDefect,
    build_from_spec,
    implements,
    validate_protocol,
)
from cpv.run import run_protocol

from corpus import (
    corpus_seeds,
    elicit_node,
    profile_set,
    profiles_of,
    random_implementing_protocol,
    random_rule,
)


def fair():
    return fair_tiebreak_2x2()


def two_query():
    return fair_two_query_protocol(fair()).protocol


def one_query():
    """The first query alone: is agent 1's type A?"""
    return build_from_spec(fair().space, elicit_node(1, ["A", "B"], {}, {}))


class TestValidation:
    def test_two_query_protocol_ok(self):
        assert validate_protocol(two_query()) == ()

    def test_overlapping_extensional_cells(self):
        cells = [("A", "A"), ("A", "B")], [("A", "A"), ("B", "A"), ("B", "B")]
        tree = {"query": _extensional(*cells), "children": [{}, {}]}
        with pytest.raises(ProtocolDefect, match="overlap"):
            build_from_spec(fair().space, tree)

    def test_nonexhaustive_extensional_cells(self):
        tree = {"query": _extensional([("A", "A"), ("A", "B")], [("B", "A")]), "children": [{}, {}]}
        with pytest.raises(ProtocolDefect, match="non-exhaustive"):
            build_from_spec(fair().space, tree)

    def test_empty_cells_pruned_and_recorded(self):
        space = TypeSpace.shared(2, ("A", "B"))
        universe = profile_set(space, [(0, 0), (0, 1)])
        outer = elicit_node(1, ["A", "B"], elicit_node(2, ["A", "B"], {}, {}), None)
        protocol = build_from_spec(space, outer, universe)
        assert any("pruned" in note or "contracted" in note for note in protocol.notes)

    def test_partition_invariants_by_popcount(self):
        protocol = two_query()
        for node in protocol.nodes:
            if node.is_leaf:
                continue
            total = sum(protocol.nodes[c].label.bit_count() for c in node.children)
            assert total == node.label.bit_count()


def _split_on_agent_1(second):
    """A root asking agent 1 "A or B?", with ``second`` under answer B."""
    return elicit_node(1, ["A", "B"], {}, second)


def _extensional(*cells):
    """An extensional query over the 2x2 space, its cells given as label pairs."""
    return {"kind": "extensional", "cells": [[list(p) for p in c] for c in cells]}


# (tree, universe profiles or None, path, message): each defect's first report.
# A defect that the cpv-1 check or the query reader refuses first is tested there.
SPEC_DEFECTS = {
    "child count": (
        elicit_node(1, ["A", "B"], {}), None, "/tree", "1 children for 2 cells",
    ),
    "missing subtree": (
        _split_on_agent_1(None), None, "/tree/1", "missing subtree for nonempty cell"
    ),
    "subtree on empty cell": (  # the universe is row A
        _split_on_agent_1({}), [(0, 0), (0, 1)],
        "/tree/1", "subtree attached to an empty cell",
    ),
    "extensional overlap": (
        _split_on_agent_1(
            {"query": _extensional([("B", "A"), ("B", "B")], [("B", "B")]), "children": [{}, {}]}
        ),
        None, "/tree/1", "overlap: profile ('B', 'B')",
    ),
    "extensional non-exhaustive": (
        _split_on_agent_1(
            {"query": _extensional([("B", "A")], [("A", "B")]), "children": [{}, {}]}
        ),
        None, "/tree/1", "non-exhaustive: profile ('B', 'B') in no cell",
    ),
    # the query is checked before its children are counted
    "one-cell query with two children": (
        elicit_node(1, [["A", "B"]], {}, {}), None, "/tree", "query needs at least 2 cells",
    ),
}


class TestSpecDefects:
    @pytest.mark.parametrize("case", sorted(SPEC_DEFECTS))
    def test_defect_message_and_path(self, case):
        tree, profiles, path, message = SPEC_DEFECTS[case]
        space = TypeSpace.shared(2, ("A", "B"))
        universe = None if profiles is None else profile_set(space, profiles)
        with pytest.raises(ProtocolDefect) as info:
            build_from_spec(space, tree, universe)
        assert (info.value.path, info.value.message) == (path, message)

    def test_loading_splits_each_interior_node_once(self, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "dfp.json")
        params = json.dumps({"n": 2, "values": [1, 2, 3]})
        assert cli.main(["builtin", "descending_first_price", "--params", params,
                         "--emit", path]) == 0
        capsys.readouterr()
        calls = []
        real = protocol_module.query_cell_masks

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(protocol_module, "query_cell_masks", counting)
        protocol = cli.load(path).protocol
        interior = [v for v in protocol.nodes if not v.is_leaf]
        assert len(interior) == 4
        assert len(calls) == len(interior)

    def test_loading_decodes_each_query_once(self, tmp_path, monkeypatch, capsys):
        # a count query at the root, elicit queries below it
        path = str(tmp_path / "cap.json")
        params = json.dumps({"k": 1, "n": 3, "values": [1, 2, 3]})
        assert cli.main(["builtin", "count_ascending_kplus1_price", "--params", params,
                         "--emit", path]) == 0
        capsys.readouterr()
        queries = []
        with open(path) as fh:
            stack = [json.load(fh)["protocol"]["tree"]]
        while stack:
            node = stack.pop()
            if "query" in node:
                queries.append(node["query"])
                stack.extend(c for c in node["children"] if c is not None)
        pointers = []
        real = treereader_module._query_from_json

        def counting(space, spec, pointer):
            pointers.append(pointer)
            return real(space, spec, pointer)

        monkeypatch.setattr(treereader_module, "_query_from_json", counting)
        protocol = cli.load(path).protocol
        assert len(pointers) == len(set(pointers)) == len(queries)
        assert len(queries) == sum(1 for v in protocol.nodes if not v.is_leaf)


class TestRun:
    def test_fig_profile_walk(self):
        inst = fair()
        protocol = two_query()
        path, leaf, outcome = run_protocol(protocol, (1, 0), inst.rule)
        assert [pos for _, _, pos in path] == [1, 0]
        assert profiles_of(ProfileSet(protocol.space, protocol.nodes[leaf].label)) == [(1, 0)]
        assert outcome == "1:B,2:A"

    def test_descending_trace(self):
        bundle = descending_first_price(2, [1, 2, 3])
        space = bundle.instance.space
        profile = space.profile_of_labels(["2", "3"])
        path, _, outcome = run_protocol(bundle.protocol, profile, bundle.instance.rule)
        # agent 1 "is 3?" no, agent 2 "is 3?" yes
        assert [pos for _, _, pos in path] == [1, 0]
        assert outcome == "winner=2,price=3"

    def test_single_node_protocol(self):
        space = TypeSpace.shared(2, ("A", "B"))
        protocol = build_from_spec(space, {})
        rule = ChoiceRule(space, ("x",), (0, 0, 0, 0))
        assert run_protocol(protocol, (1, 1), rule) == ([], 0, "x")

    def test_nonimplementing_rule_raises(self):
        inst = fair()
        with pytest.raises(InputError, match="does not implement"):
            run_protocol(one_query(), (1, 0), inst.rule)


class TestImplements:
    def test_two_query_implements(self):
        assert implements(two_query(), fair().rule).ok

    def test_truncated_counterexample_leaf(self):
        inst = fair()
        res = implements(one_query(), inst.rule)
        assert not res.ok
        assert set(res.violation[1]) == {(1, 0), (1, 1)}

    def test_root_only_constant_rule(self):
        space = TypeSpace.shared(2, ("A", "B"))
        from cpv.core import ChoiceRule

        rule = ChoiceRule(space, ("x",), (0, 0, 0, 0))
        protocol = build_from_spec(space, {})
        assert implements(protocol, rule).ok

    @given(st.sampled_from(corpus_seeds(25)))
    def test_leaf_partition_refines_fibers(self, seed):
        rule = random_rule(seed)
        protocol = random_implementing_protocol(rule, seed + 1)
        assert implements(protocol, rule).ok
        # every profile lands in a leaf where the rule is constant
        leaf_of = protocol.leaf_map()
        assert len(leaf_of) == rule.space.total and -1 not in leaf_of


def _one_subset(*cells) -> CountQuery:
    """The count query over the subset {0} whose cells hold the counts given."""
    return CountQuery(((0,),), tuple(tuple((c,) for c in cell) for cell in cells))


class TestQueryValidation:
    def test_count_needs_common_alphabet(self):
        space = TypeSpace((("a", "b"), ("x", "y")))
        q = _one_subset((0,), (1, 2))
        with pytest.raises(ProtocolDefect, match="common alphabet"):
            q.validate(space)

    def test_multicount_wording_on_a_space_without_common_alphabet(self):
        space = TypeSpace((("a", "b"), ("x", "y")))
        q = CountQuery(((0,), (1,)), (((0, 0),), ((1, 1),)))
        with pytest.raises(ProtocolDefect) as info:
            q.validate(space)
        assert info.value.message == "multi-count query requires a common alphabet"

    # (query, message): a count or count vector that no profile can have;
    # over one subset a count is named as a number, a longer vector in full
    OUTSIDE_THE_DOMAIN = {
        "count above n": (_one_subset((1,), (0, 2, 99)), "count 99 out of range"),
        "negative count": (_one_subset((1, -3), (0, 2)), "count -3 out of range"),
        "one subset, a vector of the wrong length": (
            CountQuery(((0,),), (((0,), (1,)), ((2,), (7, 7)))), "count (7, 7) out of range",
        ),
        "count vector above n": (
            CountQuery(((0,), (1,)), (
                tuple((a, b) for a in range(3) for b in range(3) if a + b < 2),
                tuple((a, b) for a in range(3) for b in range(3) if a + b >= 2) + ((7, 7),),
            )),
            "count vector (7, 7) out of range",
        ),
        "count vector of the wrong length": (
            CountQuery(((0,), (1,)), (
                ((0, 0), (7,)),
                tuple((a, b) for a in range(3) for b in range(3) if a + b),
            )),
            "count vector (7,) out of range",
        ),
    }

    @pytest.mark.parametrize("case", sorted(OUTSIDE_THE_DOMAIN))
    def test_count_cell_outside_the_domain(self, case):
        query, message = self.OUTSIDE_THE_DOMAIN[case]
        space = TypeSpace.shared(2, ("a", "b", "c"))
        with pytest.raises(ProtocolDefect) as info:
            query.validate(space, "/tree")
        assert (info.value.path, info.value.message) == ("/tree", message)

    def test_unknown_agent(self):
        # the query reader refuses an agent number out of range before this
        space = TypeSpace.shared(2, ("A", "B"))
        with pytest.raises(ProtocolDefect) as info:
            ElicitQuery(5, ((0,), (1,))).validate(space, "/tree/1")
        assert (info.value.path, info.value.message) == ("/tree/1", "unknown agent 5")

    def test_degenerate_spec_contracted(self):
        space = TypeSpace.shared(1, ("A", "B"))
        protocol = build_from_spec(space, elicit_node(1, ["A", "B"], {}, {}))
        assert len(protocol.leaves()) == 2


class TestDeepBuild:
    def test_deep_chain_builds_in_preorder(self):
        # a 3000-level chain: one type per level, far deeper than the
        # interpreter's recursion limit
        protocol = descending_first_price(1, list(range(3000))).protocol
        assert len(protocol.nodes) == 5999
        assert validate_protocol(protocol) == ()
        for v in protocol.nodes:
            if not v.is_leaf:
                assert v.children[0] == v.id + 1
