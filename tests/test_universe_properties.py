"""``sp`` and ``ir`` decided on a universe, against a brute force.

The brute force below values outcomes from the model directly (quasilinear
utility in auctions, minus the preference position in house models) and
scans the universe in index order: profile, then agent, then report.  The
seeded rules get random universes, product sets and sets that are not
products, so a misreport often leaves the universe.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cpv.core import ChoiceRule, ProfileSet, Verdict, product_factorization
from cpv.mechanisms import DomainModel
from cpv.properties import check_rule_property

from corpus import corpus_seeds, random_rule


def auction_case(rule: ChoiceRule, rng: random.Random):
    space = rule.space
    values = tuple(tuple(rng.randint(0, 3) for _ in range(size)) for size in space.sizes)
    components = tuple(
        tuple(f"q={rng.randint(0, 1)},t={rng.randint(-1, 3)}" for _ in range(space.n))
        for _ in rule.outcomes
    )
    rule = ChoiceRule(space, rule.outcomes, rule.table, components)
    return rule, DomainModel(kind="auction", values=values)


def house_case(rule: ChoiceRule, rng: random.Random):
    space = rule.space
    objects = ("h1", "h2", "h3")
    prefs = tuple(
        tuple(tuple(rng.sample(objects, 3)) for _ in range(size)) for size in space.sizes
    )
    components = tuple(tuple(rng.choice(objects) for _ in range(space.n)) for _ in rule.outcomes)
    rule = ChoiceRule(space, rule.outcomes, rule.table, components)
    endowments = tuple(rng.choice(objects) for _ in range(space.n))
    model = DomainModel(kind="house", objects=objects, type_prefs=prefs, endowments=endowments)
    return rule, model


def random_universe(space, rng: random.Random, product: bool) -> ProfileSet:
    if product:
        factors = [rng.sample(range(size), rng.randint(1, size)) for size in space.sizes]
        return ProfileSet.from_factors(space, factors)
    keys = rng.sample(range(space.total), rng.randint(1, space.total))
    return ProfileSet(space, sum(1 << k for k in keys))


def utility(model: DomainModel, agent: int, t: int, component: str):
    if model.kind == "auction":
        q, pay = (Fraction(part.split("=")[1]) for part in component.split(","))
        return q * model.values[agent][t] - pay
    return -model.type_prefs[agent][t].index(component)


def brute_sp(rule: ChoiceRule, model: DomainModel, universe: ProfileSet) -> Verdict:
    space = rule.space
    for k in universe.indices():
        profile = space.profile(k)
        for i, t in enumerate(profile):
            truth = utility(model, i, t, rule.components[rule.table[k]][i])
            for s in range(space.sizes[i]):
                lie = profile[:i] + (s,) + profile[i + 1:]
                if not universe.contains(lie):
                    continue
                if utility(model, i, t, rule.components[rule.table[space.index(lie)]][i]) > truth:
                    example = {
                        "profile": space.labels(profile),
                        "agent": i + 1,
                        "report": space.alphabets[i][s],
                    }
                    return Verdict(False, example)
    return Verdict(True)


def brute_ir(rule: ChoiceRule, model: DomainModel, universe: ProfileSet) -> Verdict:
    space = rule.space
    for k in universe.indices():
        profile = space.profile(k)
        for i, t in enumerate(profile):
            outside = 0 if model.kind == "auction" else utility(model, i, t, model.endowments[i])
            if utility(model, i, t, rule.components[rule.table[k]][i]) < outside:
                return Verdict(False, {"profile": space.labels(profile), "agent": i + 1})
    return Verdict(True)


CASES = {"auction": auction_case, "house": house_case}
SEEDS = corpus_seeds(60, offset=13)


def cases(kind: str):
    for n, seed in enumerate(SEEDS):
        rng = random.Random(seed ^ 0x51)
        rule, model = CASES[kind](random_rule(seed), rng)
        yield seed, rule, model, random_universe(rule.space, rng, product=n % 2 == 0)


@pytest.mark.parametrize("prop,brute", [("sp", brute_sp), ("ir", brute_ir)])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_property_on_a_universe_matches_brute_force(kind, prop, brute):
    verdicts, products = set(), set()
    for seed, rule, model, universe in cases(kind):
        result = check_rule_property(rule, model, prop, universe)
        assert result == brute(rule, model, universe), seed
        verdicts.add(result.ok)
        products.add(product_factorization(rule.space, universe) is not None)
    # both verdicts and both kinds of universe occur
    assert verdicts == {True, False} and products == {True, False}
