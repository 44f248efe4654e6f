from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

import cpv.protocol as protocol_module
from cpv import cli
from cpv.core import ChoiceRule, InputError, ProfileSet, TypeSpace
from cpv.mechanisms import (
    descending_first_price,
    fair_tiebreak_2x2,
    fair_two_query_protocol,
)
from cpv.protocol import (
    CountQuery,
    ElicitQuery,
    ExtensionalQuery,
    NodeSpec,
    ProtocolDefect,
    build_from_spec,
    implements,
    run_protocol,
    validate_protocol,
)

from corpus import (
    corpus_seeds,
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
    inst = fair()
    spec = NodeSpec(
        ElicitQuery(0, ((0,), (1,))),
        (NodeSpec(), NodeSpec()),
    )
    return build_from_spec(inst.space, spec)


class TestValidation:
    def test_two_query_protocol_ok(self):
        assert validate_protocol(two_query()) == ()

    def test_overlapping_extensional_cells(self):
        inst = fair()
        aa = [["A", "A"]]
        cells = (
            profile_set(inst.space, [(0, 0), (0, 1)]).mask,
            profile_set(inst.space, [(0, 0), (1, 0), (1, 1)]).mask,
        )
        spec = NodeSpec(ExtensionalQuery(cells), (NodeSpec(), NodeSpec()))
        with pytest.raises(ProtocolDefect, match="overlap"):
            build_from_spec(inst.space, spec)

    def test_nonexhaustive_extensional_cells(self):
        inst = fair()
        cells = (
            profile_set(inst.space, [(0, 0), (0, 1)]).mask,
            profile_set(inst.space, [(1, 0)]).mask,
        )
        spec = NodeSpec(ExtensionalQuery(cells), (NodeSpec(), NodeSpec()))
        with pytest.raises(ProtocolDefect, match="non-exhaustive"):
            build_from_spec(inst.space, spec)

    def test_empty_cells_pruned_and_recorded(self):
        space = TypeSpace.shared(2, ("A", "B"))
        universe = profile_set(space, [(0, 0), (0, 1)])
        spec = NodeSpec(
            ElicitQuery(1, ((0,), (1,))),
            (NodeSpec(), NodeSpec()),
        )
        outer = NodeSpec(
            ElicitQuery(0, ((0,), (1,))),
            (spec, None),
        )
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
    return NodeSpec(ElicitQuery(0, ((0,), (1,))), (NodeSpec(), second))


def _extensional(*cells):
    """Extensional cells over the 2x2 space, profiles given as index pairs."""
    space = TypeSpace.shared(2, ("A", "B"))
    return ExtensionalQuery(
        tuple(profile_set(space, c).mask for c in cells)
    )


# (spec, universe profiles or None, path, message): each defect's first report.
SPEC_DEFECTS = {
    "children without a query": (
        NodeSpec(None, (NodeSpec(), NodeSpec())), None, "/tree", "children without a query"
    ),
    "child count": (
        NodeSpec(ElicitQuery(0, ((0,), (1,))), (NodeSpec(),)),
        None, "/tree", "1 children for 2 cells",
    ),
    "missing subtree": (
        _split_on_agent_1(None), None, "/tree/1", "missing subtree for nonempty cell"
    ),
    "subtree on empty cell": (  # the universe is row A
        _split_on_agent_1(NodeSpec()), [(0, 0), (0, 1)],
        "/tree/1", "subtree attached to an empty cell",
    ),
    "extensional overlap": (
        _split_on_agent_1(
            NodeSpec(_extensional([(1, 0), (1, 1)], [(1, 1)]), (NodeSpec(), NodeSpec()))
        ),
        None, "/tree/1", "overlap: profile ('B', 'B')",
    ),
    "extensional non-exhaustive": (
        _split_on_agent_1(
            NodeSpec(_extensional([(1, 0)], [(0, 1)]), (NodeSpec(), NodeSpec()))
        ),
        None, "/tree/1", "non-exhaustive: profile ('B', 'B') in no cell",
    ),
    "unknown agent": (
        _split_on_agent_1(
            NodeSpec(ElicitQuery(5, ((0,), (1,))), (NodeSpec(), NodeSpec()))
        ),
        None, "/tree/1", "unknown agent 5",
    ),
    # the query is checked before its children are counted
    "one-cell query with two children": (
        NodeSpec(ElicitQuery(0, ((0, 1),)), (NodeSpec(), NodeSpec())),
        None, "/tree", "query needs at least 2 cells",
    ),
}


class TestSpecDefects:
    @pytest.mark.parametrize("case", sorted(SPEC_DEFECTS))
    def test_defect_message_and_path(self, case):
        spec, profiles, path, message = SPEC_DEFECTS[case]
        space = TypeSpace.shared(2, ("A", "B"))
        universe = None if profiles is None else profile_set(space, profiles)
        with pytest.raises(ProtocolDefect) as info:
            build_from_spec(space, spec, universe)
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
        protocol = build_from_spec(space, NodeSpec())
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
        leaf_profiles = set((1, 0) for _ in [0])
        assert set(res.violation[1]) == {(1, 0), (1, 1)}

    def test_root_only_constant_rule(self):
        space = TypeSpace.shared(2, ("A", "B"))
        from cpv.core import ChoiceRule

        rule = ChoiceRule(space, ("x",), (0, 0, 0, 0))
        protocol = build_from_spec(space, NodeSpec())
        assert implements(protocol, rule).ok

    @given(st.sampled_from(corpus_seeds(25)))
    def test_leaf_partition_refines_fibers(self, seed):
        rule = random_rule(seed)
        protocol = random_implementing_protocol(rule, seed + 1)
        assert implements(protocol, rule).ok
        # every profile lands in a leaf where the rule is constant
        leaf_of = protocol.leaf_map()
        assert sorted(leaf_of) == list(range(rule.space.total))


class TestQueryValidation:
    def test_count_needs_common_alphabet(self):
        space = TypeSpace((("a", "b"), ("x", "y")))
        q = CountQuery((0,), ((0,), (1, 2)))
        with pytest.raises(ProtocolDefect, match="common alphabet"):
            q.validate(space)

    def test_degenerate_spec_contracted(self):
        space = TypeSpace.shared(1, ("A", "B"))
        spec = NodeSpec(ElicitQuery(0, ((0,), (1,))), (NodeSpec(), NodeSpec()))
        protocol = build_from_spec(space, spec)
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
