"""Seeded generators for the randomized property suites, and the readers
of profile sets and rules that only the tests need.

Every generated object is a pure function of the integer seed, so suite
failures are reproducible by seed alone.
"""

from __future__ import annotations

import random

from cpv.core import ChoiceRule, ProfileSet, TypeSpace
from cpv.protocol import ElicitQuery, Protocol, build_protocol

CORPUS_SEED = 20240

LETTERS = "abcdefghi"


def random_space(rng: random.Random, max_agents: int = 3, max_types: int = 3) -> TypeSpace:
    n = rng.randint(2, max_agents)
    alphabets = []
    for _ in range(n):
        size = rng.randint(2, max_types)
        alphabets.append(tuple(LETTERS[:size]))
    return TypeSpace(tuple(alphabets))


def random_rule(seed: int, max_agents: int = 3, max_types: int = 3) -> ChoiceRule:
    rng = random.Random(seed)
    space = random_space(rng, max_agents, max_types)
    n_outcomes = rng.randint(1, min(5, space.total))
    outcomes = tuple(f"x{i}" for i in range(n_outcomes))
    table = tuple(rng.randrange(n_outcomes) for _ in range(space.total))
    used = sorted(set(table))
    remap = {x: i for i, x in enumerate(used)}
    return ChoiceRule(
        space,
        tuple(outcomes[x] for x in used),
        tuple(remap[x] for x in table),
    )


def random_component_rule(seed: int, max_agents: int = 3, max_types: int = 3) -> ChoiceRule:
    """Rule with per-agent components; distinct outcomes get distinct
    component rows so ids stay canonical bundles."""
    rng = random.Random(seed)
    base = random_rule(seed, max_agents, max_types)
    n = base.space.n
    rows: set[tuple[str, ...]] = set()
    components = []
    for _ in range(base.outcome_count):
        while True:
            row = tuple(rng.choice(("p", "q", "r")) for _ in range(n))
            row = tuple(f"{c}{rng.randint(0, 1)}" for c in row)
            if row not in rows:
                rows.add(row)
                components.append(row)
                break
    return ChoiceRule(base.space, base.outcomes, base.table, tuple(components))


def random_implementing_protocol(
    rule: ChoiceRule, seed: int, universe: ProfileSet | None = None
) -> Protocol:
    """Random full-information-enough elicitation protocol: split states by
    random binary type subsets until the rule is constant.  The tree covers
    ``universe``, the whole space by default."""
    rng = random.Random(seed)
    space = rule.space

    def constant(label: int) -> bool:
        seen = -1
        mask = label
        while mask:
            low = mask & -mask
            x = rule.table[low.bit_length() - 1]
            if seen == -1:
                seen = x
            elif x != seen:
                return False
            mask ^= low
        return True

    def present(label: int, agent: int) -> list[int]:
        seen = set()
        mask = label
        while mask:
            low = mask & -mask
            k = low.bit_length() - 1
            seen.add((k // space.strides[agent]) % space.sizes[agent])
            mask ^= low
        return sorted(seen)

    def step(label: int, _state):
        if constant(label):
            return None
        splittable = [i for i in range(space.n) if len(present(label, i)) > 1]
        agent = rng.choice(splittable)
        types = present(label, agent)
        size = rng.randint(1, len(types) - 1)
        subset = tuple(sorted(rng.sample(types, size)))
        rest = tuple(t for t in range(space.sizes[agent]) if t not in subset)
        return ElicitQuery(agent, (subset, rest)), lambda c, m: None

    return build_protocol(space, step, None, universe)


def corpus_seeds(count: int, offset: int = 0) -> list[int]:
    rng = random.Random(CORPUS_SEED + offset)
    return [rng.randrange(1 << 30) for _ in range(count)]


def profile_set(space: TypeSpace, profiles) -> ProfileSet:
    """The set of the given profiles."""
    return ProfileSet.from_indices(space, (space.index(p) for p in profiles))


def profiles_of(pset: ProfileSet) -> list:
    """The member profiles of a set, in index order."""
    return [pset.space.profile(k) for k in pset.indices()]


def outcome(rule: ChoiceRule, profile) -> str:
    """The rule's outcome label at a profile."""
    return rule.outcomes[rule.table[rule.space.index(profile)]]
