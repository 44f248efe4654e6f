from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from cpv.core import ChoiceRule, ProfileSet, TypeSpace, Witness, product_factorization
from cpv.jsonwriter import protocol_to_json
from cpv.mechanisms import (
    fair_tiebreak_2x2,
    first_price,
    non_clinching,
    order_statistic_restriction,
    school_count_instance,
    serial_dictatorship,
)
from cpv.privacy import check_protocol_cp
from cpv.protocol import Protocol, implements, query_cell_masks
from cpv.search import _family_queries, exhaustive_cp_search
from cpv.synthesis import (
    _classes_on,
    corners_scan,
    inseparability_classes,
    synthesize_or_witness,
    witness_minimize,
)

from corpus import corpus_seeds, random_rule
from oracles import (
    ObstructionReport,
    exhaustive_osp_search,
    obstruction_scan,
    protected_pair_classes,
    reference_cp_search,
    witness_oracle,
)

ELICIT = "elicit"
ELICIT_COUNT = "elicit,count"
ELICIT_COUNT_MULTICOUNT = "elicit,count,multicount"


class TestCpSearch:
    def test_fair_rule_nonexistent(self):
        inst = fair_tiebreak_2x2()
        result = exhaustive_cp_search(inst.rule, ELICIT)
        assert result.status == "nonexistent"

    def test_serial_dictatorship_found(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        result = exhaustive_cp_search(inst.rule, ELICIT)
        assert result.status == "found"
        assert implements(result.protocol, inst.rule).ok
        assert check_protocol_cp(result.protocol, inst.rule).ok

    def test_school_instance_nonexistent_with_counts(self):
        inst = school_count_instance()
        result = exhaustive_cp_search(inst.rule, ELICIT_COUNT, universe=inst.universe)
        assert result.status == "nonexistent"

    def test_budget_exhaustion_is_explicit(self):
        inst = serial_dictatorship(3, ("a", "b", "c"), (0, 1, 2))
        result = exhaustive_cp_search(inst.rule, ELICIT, max_states=3)
        assert result.status == "budget_exhausted"

    @given(st.sampled_from(corpus_seeds(30, offset=9)))
    @settings(deadline=None)
    def test_memoization_soundness(self, seed):
        rule = random_rule(seed, max_agents=2, max_types=3)
        if rule.space.total > 9:
            return
        # witness_oracle is an independent brute force over the same family
        result = exhaustive_cp_search(rule, ELICIT)
        expected = "found" if witness_oracle(rule) is None else "nonexistent"
        assert result.status == expected


class TestOracleAgreement:
    @given(st.sampled_from(corpus_seeds(40, offset=10)))
    @settings(deadline=None)
    def test_three_way_agreement(self, seed):
        rule = random_rule(seed)
        synth = synthesize_or_witness(rule)
        oracle = witness_oracle(rule)
        search = exhaustive_cp_search(rule, ELICIT)
        assert search.status in ("found", "nonexistent")
        assert isinstance(synth, Protocol) == (oracle is None) == (search.status == "found")


class TestGreedyReference:
    """The greedy decider against the AND-OR search of ``tests/oracles.py``,
    which backtracks over every candidate of every state."""

    @pytest.mark.parametrize("queries", [ELICIT, ELICIT_COUNT, ELICIT_COUNT_MULTICOUNT])
    def test_greedy_equals_the_reference(self, queries):
        for seed in corpus_seeds(600, offset=28):
            rule = random_rule(seed)
            greedy = exhaustive_cp_search(rule, queries)
            reference = reference_cp_search(rule, queries)
            assert greedy.status == reference.status, seed
            assert greedy.states <= 2 * rule.space.total - 1, seed
            if greedy.protocol:
                assert greedy.states == reference.states == len(greedy.protocol.nodes), seed
                assert len(greedy.protocol.nodes) == len(reference.protocol.nodes), seed
                assert protocol_to_json(greedy.protocol) == protocol_to_json(reference.protocol)
            else:
                assert greedy.states <= reference.states, seed

    def test_top_ladder_rung_is_the_synthesized_protocol(self):
        # first price with 3 agents and 32 values: 32768 profiles
        rule = first_price(3, tuple(range(1, 33))).rule
        result = exhaustive_cp_search(rule, ELICIT)
        assert result.status == "found" and result.states == len(result.protocol.nodes)
        assert result.protocol == synthesize_or_witness(rule)


class TestClassesOnMasks:
    """The decider's inseparability classes on any profile set against the
    components of its protected pairs, found by brute force."""

    @staticmethod
    def count_cells(rule: ChoiceRule, state: int):
        """The nonempty cells of every exact count and multi-count query on
        the state."""
        kinds = {"count": "exact", "multicount": "exact"}
        for _, queries in _family_queries(rule.space, kinds):
            for query in queries:
                yield from filter(None, query_cell_masks(rule.space, query, state))

    def assert_agree(self, rule: ChoiceRule, state: int):
        for agent in range(rule.space.n):
            assert _classes_on(rule, state, agent) == protected_pair_classes(rule, state, agent)

    def test_count_split_states(self):
        nonproduct = 0
        for seed in corpus_seeds(60, offset=29):
            rule = random_rule(seed)
            if not rule.space.common_alphabet:
                continue
            for cell in self.count_cells(rule, (1 << rule.space.total) - 1):
                nonproduct += product_factorization(rule.space, ProfileSet(rule.space, cell)) is None
                self.assert_agree(rule, cell)
        assert nonproduct > 100

    @pytest.mark.parametrize("k", [1, 2])
    def test_order_statistic_universes(self, k):
        rule = first_price(3, (1, 2, 3, 4)).rule
        universe = order_statistic_restriction(rule.space, k)
        assert product_factorization(rule.space, universe) is None
        self.assert_agree(rule, universe.mask)
        for cell in self.count_cells(rule, universe.mask):
            self.assert_agree(rule, cell)

    def test_product_states_give_the_inseparability_classes(self):
        for seed in corpus_seeds(60, offset=30):
            rule, rng = random_rule(seed), random.Random(seed)
            factors = tuple(
                tuple(sorted(rng.sample(range(m), rng.randint(1, m)))) for m in rule.space.sizes
            )
            state = ProfileSet.from_factors(rule.space, factors).mask
            self.assert_agree(rule, state)
            for agent in range(rule.space.n):
                assert _classes_on(rule, state, agent) == inseparability_classes(rule, factors, agent)


class TestCornersGap:
    """The corners test is necessary for contextual privacy, not sufficient.

    Every outcome of this 3x3 rule appears at most twice, so no square has
    three equal corners; yet every first query separates an equal-outcome
    unilateral pair, so the whole space is a witness and no CP protocol
    exists (the shape of Kushilevitz's non-decomposable example).
    """

    ROWS = ((0, 0, 1), (3, 4, 1), (3, 2, 2))  # agent 1's type picks the row

    def rule(self) -> ChoiceRule:
        space = TypeSpace.shared(2, ("a", "b", "c"))
        table = tuple(x for row in self.ROWS for x in row)
        return ChoiceRule(space, ("o0", "o1", "o2", "o3", "o4"), table)

    def test_corners_holds(self):
        assert corners_scan(self.rule()).ok

    def test_whole_space_is_the_witness_and_stays_whole(self):
        rule = self.rule()
        whole = Witness(((0, 1, 2), (0, 1, 2)))
        assert synthesize_or_witness(rule) == whole
        assert witness_minimize(rule, whole) == whole
        assert witness_oracle(rule) is not None

    @pytest.mark.parametrize("spec", ["elicit", "elicit,count"])
    def test_search_proves_nonexistence_at_the_root(self, spec):
        result = exhaustive_cp_search(self.rule(), spec)
        assert (result.status, result.states) == ("nonexistent", 1)


class TestOspSearch:
    def test_non_clinching_nonexistent(self):
        inst = non_clinching()
        result = exhaustive_osp_search(inst.rule, inst.model)
        assert result.status == "nonexistent"

    def test_serial_dictatorship_found(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        result = exhaustive_osp_search(inst.rule, inst.model)
        assert result.status == "found"

    def test_constant_rule_found_root_only(self):
        space = TypeSpace.shared(2, ("A", "B"))
        rule = ChoiceRule(space, ("x",), (0, 0, 0, 0), (("p", "p"),))
        from cpv.mechanisms import DomainModel

        model = DomainModel(
            kind="abstract",
            outcome_prefs=(((("x",),), (("x",),)), ((("x",),), (("x",),))),
        )
        result = exhaustive_osp_search(rule, model)
        assert result.status == "found"
        assert len(result.protocol.nodes) == 1


class TestObstructionScan:
    def scan(self) -> ObstructionReport:
        inst = school_count_instance()
        return obstruction_scan(inst.rule, inst.universe, ELICIT_COUNT)

    def indices(self):
        inst = school_count_instance()
        space = inst.space

        def idx(l1, l2):
            return space.index(space.profile_of_labels([l1, l2]))

        return {
            1: idx("s1", "s2"),
            2: idx("s1'", "s2"),
            3: idx("s1", "s2'"),
            4: idx("s1'", "s2'"),
        }

    def test_every_separating_query_violated(self):
        report = self.scan()
        assert report.nonconstant
        assert report.holds
        assert all(not e.safe for e in report.entries)

    def test_count_partition_case_list(self):
        report = self.scan()
        p = self.indices()

        def norm(partition):
            return frozenset(frozenset(cell) for cell in partition)

        got = {norm(e.partition) for e in report.entries if e.kind == "count"}
        expected = {
            norm(((p[1], p[2]), (p[3], p[4]))),
            norm(((p[1], p[3]), (p[2], p[4]))),
            norm(((p[1],), (p[2], p[3]), (p[4],))),
            norm(((p[3],), (p[1], p[4]), (p[2],))),
        }
        assert got == expected

    def test_elicit_entries(self):
        report = self.scan()
        p = self.indices()
        elicits = {e.detail: e for e in report.entries if e.kind == "elicit"}
        assert set(elicits) == {"agent 1", "agent 2"}
        v1 = elicits["agent 1"].violation
        assert set(v1) == {p[1], p[2]}  # profiles 1 and 2 differ in agent 1 only
        v2 = elicits["agent 2"].violation
        assert set(v2) == {p[1], p[3]}

    def test_all_equal_outcomes_vacuous(self):
        space = TypeSpace.shared(2, ("A", "B"))
        rule = ChoiceRule(space, ("x",), (0, 0, 0, 0))
        report = obstruction_scan(rule, ProfileSet.full(space), ELICIT)
        assert not report.nonconstant
        assert not report.holds
        assert all(not e.safe for e in report.entries)

    def test_kinds_inducing_one_partition_are_each_listed(self):
        # On {(a,b), (b,b)}, eliciting agent 1 and counting the a's split the
        # region alike; the scan reports every kind, so it lists both.
        space = TypeSpace.shared(2, ("a", "b"))
        rule = ChoiceRule(space, ("x", "y"), (0, 0, 0, 1))
        region = ProfileSet(space, (1 << space.index((0, 1))) | (1 << space.index((1, 1))))
        report = obstruction_scan(rule, region, ELICIT_COUNT)
        kinds = [(e.kind, e.detail) for e in report.entries]
        assert kinds == [("elicit", "agent 1"), ("count", "{a}")]
        elicit, count = (set(e.partition) for e in report.entries)
        assert elicit == count == {(space.index((0, 1)),), (space.index((1, 1)),)}
        assert all(e.safe for e in report.entries) and not report.holds
