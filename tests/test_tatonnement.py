from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from cpv.clocks import count_ascending_price
from cpv.core import InputError
from cpv.matching import (
    fair_tiebreak_2x2,
    fair_two_query_protocol,
    serial_dictatorship,
    serial_dictatorship_protocol,
)
from cpv.privacy import check_protocol_cp
from cpv.protocol import build_from_spec
from cpv.tatonnement import (
    check_tatonnement,
    outcome_reach,
    phase_discovery,
    validate_phase,
)

from corpus import corpus_seeds, random_implementing_protocol, random_rule


def count_bundle():
    return count_ascending_price(1, 3, [1, 2, 3])


def naive_convex(protocol, members: set[int]) -> bool:
    """Oracle: check convexity by enumerating all ancestor chains."""
    for w in members:
        chain = []
        v = protocol.nodes[w].parent
        while v != -1:
            chain.append(v)
            v = protocol.nodes[v].parent
        inside = [u for u in chain if u in members]
        if not inside:
            continue
        highest = max(
            (chain.index(u) for u in inside), default=-1
        )
        for u in chain[: highest + 1]:
            if u not in members:
                return False
    return True


class TestValidatePhase:
    def test_root_only(self):
        b = count_bundle()
        assert validate_phase(b.protocol, [0]) == (0,)

    def test_initial_phase_holds_the_root(self):
        b = count_bundle()
        with pytest.raises(InputError, match="phase must contain the root"):
            validate_phase(b.protocol, [1])
        with pytest.raises(InputError, match="phase must contain the root"):
            check_tatonnement(b.protocol, b.instance.rule, [1])

    def test_all_nodes(self):
        b = count_bundle()
        end = validate_phase(b.protocol, range(len(b.protocol.nodes)))
        assert end == tuple(v.id for v in b.protocol.leaves())

    def test_gap_is_a_defect(self):
        b = count_bundle()
        protocol = b.protocol
        grandchildren = [
            v.id
            for v in protocol.nodes
            if v.parent != -1 and protocol.nodes[v.parent].parent != -1
        ]
        with pytest.raises(InputError, match="convexity"):
            validate_phase(protocol, [0, grandchildren[0]])

    def test_unknown_node(self):
        b = count_bundle()
        with pytest.raises(InputError):
            validate_phase(b.protocol, [999])

    @given(st.sampled_from(corpus_seeds(30, offset=7)))
    @settings(deadline=None)
    def test_accepts_exactly_convex_sets(self, seed):
        import random

        rule = random_rule(seed, max_agents=2)
        protocol = random_implementing_protocol(rule, seed + 3)
        if len(protocol.nodes) > 12:
            return
        rng = random.Random(seed)
        ids = list(range(len(protocol.nodes)))
        for _ in range(12):
            members = set(rng.sample(ids, rng.randint(1, len(ids))))
            if not naive_convex(protocol, members):
                with pytest.raises(InputError, match="convexity"):
                    validate_phase(protocol, members)
            elif 0 not in members:
                with pytest.raises(InputError, match="phase must contain the root"):
                    validate_phase(protocol, members)
            else:
                validate_phase(protocol, members)


class TestOutcomeReach:
    def test_union_recursion(self):
        b = count_bundle()
        reach = outcome_reach(b.protocol, b.instance.rule)
        for v in b.protocol.nodes:
            if not v.is_leaf:
                assert reach[v.id] == frozenset().union(
                    *(reach[c] for c in v.children)
                )

    def test_leaf_singletons(self):
        b = count_bundle()
        reach = outcome_reach(b.protocol, b.instance.rule)
        for leaf in b.protocol.leaves():
            assert len(reach[leaf.id]) == 1


class TestCheckTatonnement:
    def test_count_protocol_passes(self):
        b = count_bundle()
        assert check_tatonnement(b.protocol, b.instance.rule, b.phase).ok

    def test_count_protocol_is_cp(self):
        b = count_bundle()
        assert check_protocol_cp(b.protocol, b.instance.rule).ok

    def test_serial_dictatorship_root_phase(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        bundle = serial_dictatorship_protocol(inst, (0, 1))
        assert check_tatonnement(bundle.protocol, inst.rule, (0,)).ok

    def test_fair_protocol_disjointness_fails(self):
        inst = fair_tiebreak_2x2()
        protocol = fair_two_query_protocol(inst).protocol
        phase = (0,) + tuple(protocol.root.children)
        verdict = check_tatonnement(protocol, inst.rule, phase)
        assert not verdict.ok and verdict.violation[0] == "disjointness"

    def test_invalid_phase_rejected(self):
        b = count_bundle()
        protocol = b.protocol
        non_initial = [protocol.root.children[0]]
        with pytest.raises(InputError):
            check_tatonnement(protocol, b.instance.rule, non_initial)

    @given(st.sampled_from(corpus_seeds(30, offset=8)))
    @settings(deadline=None)
    def test_tatonnement_implies_cp(self, seed):
        import random

        rule = random_rule(seed)
        protocol = random_implementing_protocol(rule, seed + 5)
        rng = random.Random(seed ^ 0x55)
        # random initial convex phase: root plus a downward-closed sample
        members = {0}
        frontier = list(protocol.root.children)
        while frontier and rng.random() < 0.6:
            v = frontier.pop(rng.randrange(len(frontier)))
            members.add(v)
            frontier.extend(protocol.nodes[v].children)
        verdict = check_tatonnement(protocol, rule, members)
        if verdict.ok:  # internal assertion re-checks CP; make it explicit
            assert check_protocol_cp(protocol, rule).ok


class TestPhaseDiscovery:
    def test_count_prefix_discovered(self):
        b = count_bundle()
        phase = phase_discovery(b.protocol, b.instance.rule)
        assert phase is not None
        assert check_tatonnement(b.protocol, b.instance.rule, phase).ok
        count_nodes = {
            v.id for v in b.protocol.nodes if v.query is not None and v.id in b.phase
        }
        assert count_nodes & set(phase)

    def test_fair_protocol_none(self):
        inst = fair_tiebreak_2x2()
        protocol = fair_two_query_protocol(inst).protocol
        assert phase_discovery(protocol, inst.rule) is None

    def test_single_leaf_protocol(self):
        from cpv.core import ChoiceRule, TypeSpace

        space = TypeSpace.shared(2, ("A", "B"))
        rule = ChoiceRule(space, ("x",), (0, 0, 0, 0))
        protocol = build_from_spec(space, {})
        assert phase_discovery(protocol, rule) == (0,)
