"""Rule families against the property checks and the filters they replaced.

A family (``efficient_completions_2x2``, ``house_ir_efficient_family``,
``school_stable_family``) is every completion of the assignments that
``_admissible`` keeps at each profile, and ``_admissible`` keeps those that
the per-profile tests of ``check_rule_property`` do not fault.  Two
independent oracles check that:

- every map from the family's profiles to feasible assignments, kept when
  ``check_rule_property`` accepts it, must give exactly the family;
- the hand-written filters that the builders held before ``_admissible``
  (a Pareto-dominator scan with an endowment comparison, the stable
  assignments of two students at school a, and the 2x2 profiles with a
  forced outcome) must give the same admissible sets.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from cpv.core import ChoiceRule, DomainModel, Instance, TypeSpace
from cpv.mechanisms import (
    _SCHOOL_SCORES,
    _admissible,
    _school_model,
    _scored_at_a,
    _two_houses,
    assignment_space,
    efficient_completions_2x2,
    fair_tiebreak_2x2,
    house_ir_efficient_family,
    school_stable_family,
)
from cpv.properties import _blocking, _inefficient, _irrational, check_rule_property

# ---------------------------------------------------------------------------
# oracles: the filters the family builders held


def old_pareto_dominator(a, feasible, profile, rank):
    """The first assignment in ``feasible`` that Pareto-dominates ``a``."""
    n = len(profile)
    ranks = [rank(i, profile[i], a[i]) for i in range(n)]
    for b in feasible:
        alt = [rank(i, profile[i], b[i]) for i in range(n)]
        if all(x <= r for x, r in zip(alt, ranks)) and any(x < r for x, r in zip(alt, ranks)):
            return b
    return None


def old_ir_efficient(space: TypeSpace, model: DomainModel):
    """Per profile: the efficient assignments that give every agent an
    object she ranks no lower than her endowment."""
    feasible = list(itertools.permutations(model.objects, space.n))
    prefs, endowments = model.type_prefs, model.endowments

    def rank(i: int, t: int, obj: str) -> int:
        return prefs[i][t].index(obj)

    admissible = []
    for profile in space.iter_profiles():
        efficient = [
            a for a in feasible
            if old_pareto_dominator(a, feasible, profile, rank) is None
        ]
        admissible.append([
            a for a in efficient
            if all(
                prefs[i][profile[i]].index(a[i]) <= prefs[i][profile[i]].index(endowments[i])
                for i in range(space.n)
            )
        ])
    return admissible


def old_stable_assignments(scores):
    """Both students rank school a first: the one placed at b envies
    justifiably iff she outscores the one at a."""
    return [a for a in (("a", "b"), ("b", "a")) if scores[a.index("b")] <= scores[a.index("a")]]


def old_stable(space: TypeSpace):
    return [
        old_stable_assignments(tuple(_SCHOOL_SCORES[lab] for lab in space.labels(profile)))
        for profile in space.iter_profiles()
    ]


def old_efficient_2x2():
    """Profiles AA, AB, BA, BB: the off-diagonal ones are forced."""
    both = [("A", "B"), ("B", "A")]
    return [both, [("A", "B")], [("B", "A")], both]


# ---------------------------------------------------------------------------
# the families


def _school() -> tuple[TypeSpace, DomainModel]:
    space = TypeSpace((("s1", "s1'"), ("s2", "s2'")))
    return space, _school_model(space, _scored_at_a)


def _fair() -> tuple[TypeSpace, DomainModel]:
    base = fair_tiebreak_2x2()
    return base.space, base.model


# name -> (builder, its space and model, its properties, its tests, the old filter)
FAMILIES = {
    "efficient 2x2": (
        efficient_completions_2x2, _fair, ("efficient",), (_inefficient,),
        lambda space, model: old_efficient_2x2(),
    ),
    "house": (
        house_ir_efficient_family, _two_houses, ("efficient", "ir"), (_inefficient, _irrational),
        old_ir_efficient,
    ),
    "school": (
        school_stable_family, _school, ("stable",), (_blocking,),
        lambda space, model: old_stable(space),
    ),
}


def labelled(inst: Instance) -> tuple[str, ...]:
    """The rule as the outcome label of each profile, in index order."""
    return tuple(inst.rule.outcomes[o] for o in inst.rule.table)


def every_map(space: TypeSpace, model: DomainModel) -> list[Instance]:
    """One instance per map from the profiles to assignments of the model's
    objects, in ``itertools.product`` order; outcome ids number each map's
    distinct assignments in order of first appearance."""
    feasible = list(itertools.permutations(model.objects, space.n))
    instances = []
    for choice in itertools.product(feasible, repeat=space.total):
        ids: dict = {}
        table = tuple(ids.setdefault(a, len(ids)) for a in choice)
        labels = tuple(",".join(f"{i + 1}:{obj}" for i, obj in enumerate(a)) for a in ids)
        instances.append(Instance(ChoiceRule(space, labels, table, tuple(ids)), model))
    return instances


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_members_are_the_maps_the_checks_accept(name):
    build, setting, props, _, _ = FAMILIES[name]
    space, model = setting()
    maps = every_map(space, model)
    assert len(maps) == 16
    accepted = [
        labelled(inst) for inst in maps
        if all(check_rule_property(inst.rule, inst.model, prop).ok for prop in props)
    ]
    family = build()
    assert all(inst.model == model and inst.space == space for inst in family)
    assert [labelled(inst) for inst in family] == accepted


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_admissible_matches_the_old_filter(name):
    _, setting, _, tests, old = FAMILIES[name]
    space, model = setting()
    assert _admissible(space, model, tests) == old(space, model)


def test_member_counts():
    # four completions of the 2x2 ties; one IR and efficient house rule and
    # one stable school rule, as c07 and c08 quantify over
    assert [len(build()) for build, *_ in FAMILIES.values()] == [4, 1, 1]


def three_houses() -> tuple[TypeSpace, DomainModel]:
    objects = ("h1", "h2", "h3")
    space = assignment_space(3, objects)
    prefs = tuple(tuple(tuple(lab.split(">")) for lab in alpha) for alpha in space.alphabets)
    return space, DomainModel(kind="house", objects=objects, type_prefs=prefs, endowments=objects)


class TestThreeHouses:
    @pytest.fixture(scope="class")
    def admissible(self):
        space, model = three_houses()
        return _admissible(space, model, (_inefficient, _irrational))

    def test_admissible_set_sizes(self, admissible):
        # 216 profiles: 180 with one IR and efficient assignment, 24 with
        # two and 12 with three, so the class holds 2**24 * 3**12 rules
        assert Counter(map(len, admissible)) == {1: 180, 2: 24, 3: 12}

    def test_matches_the_old_filter(self, admissible):
        assert admissible == old_ir_efficient(*three_houses())

    @pytest.mark.parametrize("seed", range(5))
    def test_checks_fault_exactly_the_inadmissible_profile(self, seed, admissible):
        # a random completion holds both properties; one profile moved off
        # its admissible set fails one of them there and nowhere earlier
        space, model = three_houses()
        rng = random.Random(seed)
        choice = [rng.choice(options) for options in admissible]
        feasible = list(itertools.permutations(model.objects, space.n))
        k = rng.randrange(space.total)
        ids = {a: o for o, a in enumerate(feasible)}
        labels = tuple(",".join(f"{i + 1}:{obj}" for i, obj in enumerate(a)) for a in feasible)

        def rule(choice):
            return ChoiceRule(space, labels, tuple(ids[a] for a in choice), tuple(feasible))

        assert all(check_rule_property(rule(choice), model, p).ok for p in ("efficient", "ir"))
        choice[k] = rng.choice([a for a in feasible if a not in admissible[k]])
        verdicts = [check_rule_property(rule(choice), model, p) for p in ("efficient", "ir")]
        assert not all(verdicts)
        at = space.labels(space.profile(k))
        assert all(v.ok or v.violation["profile"] == at for v in verdicts)
