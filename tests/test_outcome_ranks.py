"""The outcome-rank table against the per-profile rank functions it replaced.

``outcome_ranks`` decides once per (agent, type, outcome id) how an agent
values an outcome; ``sp``, ``ir``, ``osp`` and the OSP search then compare
integers.  The oracles below are the earlier implementations, which
ranked an outcome afresh at every profile: ``slow_outcome_rank_fn`` and
the checks built on it.  They run on seeded corpus rules with three kinds
of model: auctions whose utilities tie, abstract outcome preferences with
tied groups, and house models with endowments.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import cpv.properties as properties
from cpv.auctions import first_price, second_price
from cpv.clocks import descending_first_price
from cpv.core import ChoiceRule, InputError, ProfileSet, TypeSpace, Verdict
from cpv.mechanisms import DomainModel
from cpv.properties import (
    UnsupportedProtocolError,
    _parse_auction_component,
    _readable,
    check_protocol_osp,
    check_rule_property,
)
from cpv.protocol import ElicitQuery, Protocol, query_cell_masks

from corpus import corpus_seeds, random_implementing_protocol, random_rule
from oracles import _all_partitions, exhaustive_osp_search, root_mask, solve

# ---------------------------------------------------------------------------
# oracles: rank an outcome at every profile where it is compared


def slow_outcome_rank_fn(rule: ChoiceRule, model: DomainModel):
    _readable(rule, model)
    if model.outcome_prefs is not None:
        rank_tables = []
        for agent_prefs in model.outcome_prefs:
            per_type = []
            for groups in agent_prefs:
                table = {}
                for r, group in enumerate(groups):
                    for label in group:
                        table[label] = r
                per_type.append(table)
            rank_tables.append(per_type)

        def rank(agent: int, type_index: int, outcome_id: int):
            label = rule.outcomes[outcome_id]
            try:
                return rank_tables[agent][type_index][label]
            except KeyError:
                raise InputError(
                    f"outcome {label!r} missing from agent {agent + 1}'s preferences"
                ) from None

        return rank
    if model.kind in ("assignment", "house", "school"):
        def rank(agent: int, type_index: int, outcome_id: int):
            return model.type_prefs[agent][type_index].index(rule.components[outcome_id][agent])

        return rank
    if model.kind in ("auction", "double_auction"):
        def rank(agent: int, type_index: int, outcome_id: int):
            q, t = _parse_auction_component(rule.components[outcome_id][agent])
            return -(q * model.values[agent][type_index] - t)

        return rank
    raise InputError(f"no outcome ranking available for kind {model.kind!r}")


def slow_sp(rule: ChoiceRule, model: DomainModel) -> Verdict:
    space = rule.space
    rank = slow_outcome_rank_fn(rule, model)
    for k in range(space.total):
        profile = space.profile(k)
        for i in range(space.n):
            stride = space.strides[i]
            truth = rank(i, profile[i], rule.table[k])
            for t2 in range(space.sizes[i]):
                if t2 == profile[i]:
                    continue
                k2 = k + (t2 - profile[i]) * stride
                if rank(i, profile[i], rule.table[k2]) < truth:
                    return Verdict(
                        False,
                        {
                            "profile": space.labels(profile),
                            "agent": i + 1,
                            "report": space.alphabets[i][t2],
                        },
                    )
    return Verdict(True)


def slow_ir(rule: ChoiceRule, model: DomainModel) -> Verdict:
    space = rule.space
    for k in range(space.total):
        profile = space.profile(k)
        for i in range(space.n):
            if model.kind == "house":
                got = rule.components[rule.table[k]][i]
                order = model.type_prefs[i][profile[i]]
                worse = order.index(got) > order.index(model.endowments[i])
            else:
                q, t = _parse_auction_component(rule.components[rule.table[k]][i])
                worse = q * model.values[i][profile[i]] - t < 0
            if worse:
                return Verdict(False, {"profile": space.labels(profile), "agent": i + 1})
    return Verdict(True)


def slow_osp_node_failure(space: TypeSpace, rule: ChoiceRule, rank, agent: int, masks):
    stride, size = space.strides[agent], space.sizes[agent]
    members = [list(ProfileSet(space, m).indices()) for m in masks]
    home: dict[int, int] = {}
    for pos, ks in enumerate(members):
        for k in ks:
            home.setdefault(k // stride % size, pos)
    for true_t in sorted(home):
        own = home[true_t]
        worst = max(
            rank(agent, true_t, rule.table[k])
            for k in members[own]
            if k // stride % size == true_t
        )
        for pos, ks in enumerate(members):
            if pos == own:
                continue
            if min(rank(agent, true_t, rule.table[k]) for k in ks) < worst:
                return true_t, pos
    return None


def slow_osp(protocol: Protocol, rule: ChoiceRule, model: DomainModel) -> Verdict:
    space = protocol.space
    rank = slow_outcome_rank_fn(rule, model)
    for v in protocol.nodes:
        if v.is_leaf:
            continue
        if not isinstance(v.query, ElicitQuery):
            raise UnsupportedProtocolError(
                f"node {v.id}: obvious dominance needs elicitation queries"
            )
        agent = v.query.agent
        masks = [protocol.nodes[c].label for c in v.children]
        failure = slow_osp_node_failure(space, rule, rank, agent, masks)
        if failure is not None:
            true_t, pos = failure
            return Verdict(False, (v.id, agent, true_t, v.children[pos]))
    return Verdict(True)


def slow_osp_search(rule: ChoiceRule, model: DomainModel, max_states: int):
    space = rule.space
    rank = slow_outcome_rank_fn(rule, model)

    def candidates(state: int):
        seen: set[frozenset[int]] = set()
        for agent in range(space.n):
            present = ProfileSet(space, state).projection(agent)
            absent = tuple(t for t in range(space.sizes[agent]) if t not in present)
            for blocks in _all_partitions(present):
                if len(blocks) < 2:
                    continue
                cells = (blocks[0] + absent,) + blocks[1:]
                query = ElicitQuery(agent, tuple(tuple(sorted(c)) for c in cells))
                masks = tuple(m for m in query_cell_masks(space, query, state) if m)
                signature = frozenset(masks)
                if len(masks) < 2 or signature in seen:
                    continue
                seen.add(signature)
                if slow_osp_node_failure(space, rule, rank, agent, masks) is None:
                    yield query, masks

    return solve(rule, root_mask(space, None), candidates, max_states)


# ---------------------------------------------------------------------------
# seeded rules with models


def _auction_case(seed: int):
    """Small integer and half values and payments, so utilities often tie."""
    base = random_rule(seed)
    rng = random.Random(seed ^ 0xA0C7)
    space = base.space
    values = tuple(
        tuple(Fraction(rng.randint(0, 3), rng.choice((1, 2))) for _ in range(size))
        for size in space.sizes
    )
    components = tuple(
        tuple(
            f"q={rng.randint(0, 1)},t={Fraction(rng.randint(-1, 3), rng.choice((1, 2)))}"
            for _ in range(space.n)
        )
        for _ in base.outcomes
    )
    rule = ChoiceRule(space, base.outcomes, base.table, components)
    return rule, DomainModel(kind="auction", values=values)


def _prefs_case(seed: int):
    """Abstract outcome preferences: each type orders the outcome labels in
    groups of indifferent outcomes."""
    rule = random_rule(seed)
    rng = random.Random(seed ^ 0x9F3)

    def groups():
        order = list(rule.outcomes)
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, len(order) - 1)))
        return tuple(tuple(order[a:b]) for a, b in zip([0, *cuts], [*cuts, len(order)]))

    prefs = tuple(tuple(groups() for _ in range(size)) for size in rule.space.sizes)
    return rule, DomainModel(kind="abstract", outcome_prefs=prefs)


def _house_case(seed: int):
    """Objects per agent drawn with repeats, so outcomes tie for an agent."""
    base = random_rule(seed)
    rng = random.Random(seed ^ 0x40E)
    space = base.space
    objects = ("h1", "h2", "h3")[: rng.randint(2, 3)]
    prefs = tuple(
        tuple(tuple(rng.sample(objects, len(objects))) for _ in range(size))
        for size in space.sizes
    )
    components = tuple(
        tuple(rng.choice(objects) for _ in range(space.n)) for _ in base.outcomes
    )
    rule = ChoiceRule(space, base.outcomes, base.table, components)
    endowments = tuple(rng.choice(objects) for _ in range(space.n))
    model = DomainModel(kind="house", objects=objects, type_prefs=prefs, endowments=endowments)
    return rule, model


CASES = {"auction": _auction_case, "prefs": _prefs_case, "house": _house_case}
SEEDS = corpus_seeds(70, offset=12)  # per kind: 210 rules in all


class TestAgainstPerProfileRanks:
    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_sp(self, kind):
        for seed in SEEDS:
            rule, model = CASES[kind](seed)
            assert check_rule_property(rule, model, "sp") == slow_sp(rule, model), seed

    @pytest.mark.parametrize("kind", ["auction", "house"])  # kinds with an outside option
    def test_ir(self, kind):
        for seed in SEEDS:
            rule, model = CASES[kind](seed)
            assert check_rule_property(rule, model, "ir") == slow_ir(rule, model), seed

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_osp(self, kind):
        # each rule on its whole space and on a random restricted universe,
        # whose labels leave some types of an agent out of every child
        verdicts = set()
        for seed in SEEDS:
            rule, model = CASES[kind](seed)
            rng, space = random.Random(seed ^ 0x05B), rule.space
            keys = rng.sample(range(space.total), rng.randint(1, space.total))
            for universe in (None, ProfileSet(space, sum(1 << k for k in keys))):
                protocol = random_implementing_protocol(rule, seed, universe)
                verdict = check_protocol_osp(protocol, rule, model)
                assert verdict == slow_osp(protocol, rule, model), (seed, universe)
                verdicts.add((universe is None, verdict.ok))
        assert len(verdicts) == 4, verdicts

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_osp_search(self, kind):
        statuses = set()
        for seed in SEEDS:
            rule, model = CASES[kind](seed)
            fast = exhaustive_osp_search(rule, model, max_states=300)
            slow = slow_osp_search(rule, model, max_states=300)
            assert (fast.status, fast.states) == (slow.status, slow.states), seed
            statuses.add(fast.status)
        assert {"found", "nonexistent"} <= statuses


def test_the_corpus_holds_both_verdicts_and_ties():
    # the comparison is only as good as its cases: both verdicts of sp occur,
    # and some agent is indifferent between two outcomes in every kind
    for kind, case in CASES.items():
        verdicts, ties = set(), 0
        for seed in SEEDS:
            rule, model = case(seed)
            verdicts.add(check_rule_property(rule, model, "sp").ok)
            rank = slow_outcome_rank_fn(rule, model)
            ids = sorted(set(rule.table))
            ties += any(
                len({rank(i, t, o) for o in ids}) < len(ids)
                for i, size in enumerate(rule.space.sizes)
                for t in range(size)
            )
        assert verdicts == {True, False}, kind
        assert ties > len(SEEDS) // 4, kind


class TestComponentsParsedOncePerRank:
    """Each (agent, type, outcome id) is valued once, not at every profile
    where the outcome is compared."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(comp):
            seen.append(comp)
            return _parse_auction_component(comp)

        monkeypatch.setattr(properties, "_parse_auction_component", counting)
        return seen

    @staticmethod
    def bound(rule: ChoiceRule) -> int:
        return sum(rule.space.sizes) * len(set(rule.table))

    @pytest.mark.parametrize("prop", ["sp", "ir"])
    def test_rule_properties(self, prop, calls):
        inst = second_price(3, range(1, 9))
        check_rule_property(inst.rule, inst.model, prop)
        assert 0 < len(calls) <= self.bound(inst.rule)

    def test_osp(self, calls):
        bundle = descending_first_price(3, range(1, 6))
        inst = bundle.instance
        check_protocol_osp(bundle.protocol, inst.rule, inst.model)
        assert 0 < len(calls) <= self.bound(inst.rule)

    def test_osp_search(self, calls):
        inst = first_price(2, range(1, 5))
        assert exhaustive_osp_search(inst.rule, inst.model).status == "nonexistent"
        assert 0 < len(calls) <= self.bound(inst.rule)
