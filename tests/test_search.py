from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import cpv.search as search_module
from cpv.auctions import first_price, order_statistic_restriction, second_price
from cpv.core import (
    ChoiceRule,
    InputError,
    ProfileSet,
    TypeSpace,
    Witness,
    constant_on,
    product_factorization,
)
from cpv.counts import _blocks
from cpv.jsonwriter import protocol_to_json
from cpv.matching import (
    fair_tiebreak_2x2,
    non_clinching,
    school_count_instance,
    serial_dictatorship,
)
from cpv.privacy import check_protocol_cp
from cpv.protocol import Protocol, implements, query_cell_masks
from cpv.search import (
    exhaustive_cp_search,
    inseparability_classes,
    synthesize_or_witness,
    witness_minimize,
    witness_verify,
)
from cpv.synthesis import corners_scan

from corpus import corpus_seeds, random_rule
from oracles import (
    ObstructionReport,
    distinct_splits,
    exhaustive_osp_search,
    family_queries,
    obstruction_scan,
    protected_pair_classes,
    reference_cp_search,
    same_outcome_pairs,
    separates_protected_pair,
    witness_oracle,
)

ELICIT = "elicit"
ELICIT_COUNT = "elicit,count"
ELICIT_COUNT_MULTICOUNT = "elicit,count,multicount"
COUNT_KINDS = {"count": "exact", "multicount": "exact"}
COUNT_FAMILIES = ["count", "multicount", "count,multicount"]


def count_queries(space: TypeSpace, state: int, kinds=COUNT_KINDS):
    """The reference stream of the exact count queries of ``kinds``."""
    return itertools.chain.from_iterable(q for _, q in family_queries(space, state, kinds))


def first_safe_split(rule: ChoiceRule, queries: str, pairs, state: int):
    """The first query of the reference stream of the count family
    ``queries`` that splits the state and passes the pair test, or ``None``."""
    drawn = count_queries(rule.space, state, dict.fromkeys(queries.split(","), "exact"))
    for query, cells in distinct_splits(rule.space, state, drawn):
        if separates_protected_pair(cells, pairs, state) is None:
            return query
    return None


def run_recording_steps(monkeypatch, rule: ChoiceRule, queries: str, universe=None):
    """``exhaustive_cp_search`` with the states it steps, in order, each
    with the query it takes there: ``None`` at a leaf and at the stuck
    state."""
    build = search_module.build_protocol
    steps = []

    def recording_build(space, step, state, universe):
        def recording_step(label, s):
            steps.append((label, None))
            taken = step(label, s)
            steps[-1] = (label, taken and taken[0])
            return taken

        return build(space, recording_step, state, universe)

    monkeypatch.setattr(search_module, "build_protocol", recording_build)
    return exhaustive_cp_search(rule, queries, universe), steps


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

    def test_empty_universe_refused(self):
        rule = fair_tiebreak_2x2().rule
        with pytest.raises(InputError, match="^universe is empty$"):
            exhaustive_cp_search(rule, ELICIT, ProfileSet(rule.space, 0))

    def test_school_instance_nonexistent_with_counts(self):
        inst = school_count_instance()
        result = exhaustive_cp_search(inst.rule, ELICIT_COUNT, universe=inst.universe)
        assert result.status == "nonexistent"

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

    @pytest.mark.parametrize(
        "queries", [ELICIT, ELICIT_COUNT, ELICIT_COUNT_MULTICOUNT, *COUNT_FAMILIES]
    )
    def test_greedy_equals_the_reference(self, queries):
        for seed in corpus_seeds(600, offset=28):
            rule = random_rule(seed)
            if "elicit" not in queries and not rule.space.common_alphabet:
                continue  # count kinds alone draw no query there
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


class TestWitnesses:
    """The engine's witness: the stuck state's factors, given only when
    elicitation is in the family and that state is a product set."""

    def test_product_stuck_states_carry_a_verified_witness(self, monkeypatch):
        witnesses = past_the_root = 0
        for seed in corpus_seeds(300, offset=31):
            rule = random_rule(seed)
            if not rule.space.common_alphabet:
                continue
            result, steps = run_recording_steps(monkeypatch, rule, ELICIT_COUNT)
            stepped = [label for label, _ in steps]
            if result.status != "nonexistent":
                assert result.witness is None
                continue
            factors = product_factorization(rule.space, ProfileSet(rule.space, stepped[-1]))
            if factors is None:
                assert result.witness is None, seed
                continue
            assert result.witness == Witness(factors) and witness_verify(rule, result.witness), seed
            witnesses += 1
            past_the_root += len(stepped) > 1
        assert witnesses > 20 and past_the_root > 5

    @pytest.mark.parametrize("k", [1, 2])
    def test_no_witness_where_the_stuck_state_is_no_product(self, k):
        rule = second_price(3, (1, 2, 3, 4)).rule
        universe = order_statistic_restriction(rule.space, k)
        assert product_factorization(rule.space, universe) is None
        result = exhaustive_cp_search(rule, ELICIT_COUNT, universe=universe)
        assert (result.status, result.states, result.witness) == ("nonexistent", 1, None)

    def test_count_alone_gives_no_witness(self):
        nonexistent = 0
        for seed in corpus_seeds(300, offset=31):
            rule = random_rule(seed)
            if not rule.space.common_alphabet:
                continue
            result = exhaustive_cp_search(rule, "count")
            nonexistent += result.status == "nonexistent"
            assert result.witness is None, seed
        assert nonexistent > 20


class TestCountNodeTest:
    """Lemma 1 of ``cpv.search``: an exact count or multi-count query is
    safe on a state iff each of its subsets is a union of the blocks that
    ``_blocks`` joins, against the reference pair test of
    ``tests/oracles.py``, on every such query of the state."""

    @staticmethod
    def verdicts(rule: ChoiceRule, universe: int, state: int):
        """Per count query on the state, the join's verdict and the oracle's."""
        blocks = [set(b) for b in _blocks(rule, state)]
        pairs = same_outcome_pairs(rule, universe)
        for query in count_queries(rule.space, state):
            unions = all(b <= set(s) or b.isdisjoint(s) for s in query.subsets for b in blocks)
            cells = query_cell_masks(rule.space, query, state)
            yield unions, separates_protected_pair(cells, pairs, state)

    def assert_agree(self, rule: ChoiceRule, universe: int, state: int, seen: set):
        for unions, pair in self.verdicts(rule, universe, state):
            assert unions == (pair is None)
            seen.add(unions)

    def test_roots_and_states_below_a_count_split(self):
        seen = set()
        for seed in corpus_seeds(150, offset=32):
            rule = random_rule(seed)
            if not rule.space.common_alphabet:
                continue
            root = (1 << rule.space.total) - 1
            self.assert_agree(rule, root, root, seen)
            for cell in TestClassesOnMasks.count_cells(rule, root):
                self.assert_agree(rule, root, cell, seen)
        assert seen == {False, True}

    @pytest.mark.parametrize("k", [1, 2])
    def test_order_statistic_universes(self, k):
        seen = set()
        for rule in (first_price(3, (1, 2, 3, 4)).rule, second_price(3, (1, 2, 3, 4)).rule):
            universe = order_statistic_restriction(rule.space, k).mask
            self.assert_agree(rule, universe, universe, seen)
            for cell in TestClassesOnMasks.count_cells(rule, universe):
                self.assert_agree(rule, universe, cell, seen)
        assert seen == {False, True}


class TestCountsBesideElicitation:
    """Lemma 2 of ``cpv.search`` and the count split the engine picks
    without elicitation."""

    @staticmethod
    def cases():
        """Corpus rules on a common alphabet, each over the whole space, a
        random product set and a random profile set."""
        for seed in corpus_seeds(400, offset=33):
            rule, rng = random_rule(seed, 3, 4), random.Random(seed)
            if not rule.space.common_alphabet:
                continue
            factors = tuple(
                tuple(sorted(rng.sample(range(m), rng.randint(1, m)))) for m in rule.space.sizes
            )
            yield seed, rule, None
            yield seed, rule, ProfileSet.from_factors(rule.space, factors)
            yield seed, rule, ProfileSet(rule.space, rng.getrandbits(rule.space.total) or 1)

    @staticmethod
    def report(result):
        protocol = result.protocol and protocol_to_json(result.protocol)
        return result.status, result.states, result.witness, protocol

    def test_elicitation_decides_alone(self, monkeypatch):
        stuck = 0
        for seed, rule, universe in self.cases():
            elicit, steps = run_recording_steps(monkeypatch, rule, ELICIT, universe)
            every = exhaustive_cp_search(rule, ELICIT_COUNT_MULTICOUNT, universe)
            assert self.report(every) == self.report(elicit), seed
            if elicit.status == "nonexistent":
                root = (1 << rule.space.total) - 1 if universe is None else universe.mask
                pairs = same_outcome_pairs(rule, root)
                state = steps[-1][0]
                assert first_safe_split(rule, "count,multicount", pairs, state) is None, seed
                stuck += 1
        assert stuck > 50

    @pytest.mark.parametrize("queries", COUNT_FAMILIES)
    def test_the_pick_is_the_first_safe_split_of_the_stream(self, queries, monkeypatch):
        picked = stuck = 0
        for seed, rule, universe in self.cases():
            root = (1 << rule.space.total) - 1 if universe is None else universe.mask
            pairs = same_outcome_pairs(rule, root)
            _, steps = run_recording_steps(monkeypatch, rule, queries, universe)
            for state, query in steps:
                if not constant_on(rule, state):
                    assert query == first_safe_split(rule, queries, pairs, state), seed
                    picked += query is not None
                    stuck += query is None
        assert picked > 30 and stuck > 50

    @pytest.mark.parametrize(
        "queries, status, states",
        [("count", "found", 4), ("multicount", "nonexistent", 1), ("count,multicount", "found", 4)],
    )
    def test_multicount_alone_finds_no_pair_of_two_blocks(self, queries, status, states):
        # the count of a's splits the 2x2 space, but its two blocks {a}
        # and {b} leave no two distinct proper unions to pair
        rule = random_rule(677885673, 3, 4)
        root = (1 << rule.space.total) - 1
        assert rule.table == (1, 0, 0, 1) and _blocks(rule, root) == [(0,), (1,)]
        result = exhaustive_cp_search(rule, queries)
        assert (result.status, result.states) == (status, states)


class TestClassesOnMasks:
    """Inseparability classes on any profile set against the components of
    its protected pairs, found by brute force."""

    @staticmethod
    def count_cells(rule: ChoiceRule, state: int):
        """The nonempty cells of every exact count and multi-count query on
        the state."""
        for query in count_queries(rule.space, state):
            yield from filter(None, query_cell_masks(rule.space, query, state))

    def assert_agree(self, rule: ChoiceRule, state: int):
        for agent in range(rule.space.n):
            assert inseparability_classes(rule, state, agent) == protected_pair_classes(
                rule, state, agent
            )

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
            self.assert_agree(rule, ProfileSet.from_factors(rule.space, factors).mask)


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
