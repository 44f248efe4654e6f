"""Slow oracles for the bit-parallel label kernel.

Every whole-mask fast path in ``core`` and ``protocol`` is compared here
with a plain per-profile loop: the oracle decodes each profile's types,
computes its answer (type, count or count vector) and assigns it to the
cell holding that answer.  Spaces, labels and queries are seeded random,
and include one agent, alphabets of one type and alphabets that differ
between agents.
"""

from __future__ import annotations

import itertools
import random

import pytest

from cpv.core import (
    ChoiceRule,
    InputError,
    ProfileSet,
    TypeSpace,
    constant_on,
    iter_mask,
    mask_flags,
    mask_indices,
    mask_of_flags,
    product_indices,
)
from cpv.protocol import (
    CountQuery,
    ElicitQuery,
    ExtensionalQuery,
    MultiCountQuery,
    ProtocolDefect,
    build_protocol,
    implements,
    query_cell_masks,
)

SEEDS = range(120)


# --- oracles -------------------------------------------------------------------


def types_of(space: TypeSpace, k: int) -> list[int]:
    out = []
    for i in range(space.n):
        out.append((k // space.strides[i]) % space.sizes[i])
    return out


def members(space: TypeSpace, mask: int) -> list[int]:
    return [k for k in range(space.total) if (mask >> k) & 1]


def answer(space: TypeSpace, query, k: int):
    types = types_of(space, k)
    if isinstance(query, ElicitQuery):
        return types[query.agent]
    if isinstance(query, CountQuery):
        return sum(1 for t in types if t in query.subset)
    return tuple(sum(1 for t in types if t in sub) for sub in query.subsets)


def oracle_cell_masks(space: TypeSpace, query, label: int) -> list[int]:
    out = [0] * len(query.cells)
    for k in members(space, label):
        if isinstance(query, ExtensionalQuery):
            hits = [c for c, m in enumerate(query.cells) if (m >> k) & 1]
        else:
            value = answer(space, query, k)
            hits = [c for c, cell in enumerate(query.cells) if value in cell]
        assert len(hits) == 1
        out[hits[0]] |= 1 << k
    return out


# --- seeded generators ------------------------------------------------------------


def random_space(rng: random.Random, common: bool) -> TypeSpace:
    n = rng.randint(1, 4)
    if common:
        size = rng.randint(1, 4)
        return TypeSpace.shared(n, tuple(f"t{j}" for j in range(size)))
    return TypeSpace(
        tuple(tuple(f"a{i}t{j}" for j in range(rng.randint(1, 4))) for i in range(n))
    )


def random_label(rng: random.Random, space: TypeSpace) -> int:
    shape = rng.choice(("random", "sparse", "full", "empty"))
    if shape == "full":
        return (1 << space.total) - 1
    if shape == "empty":
        return 0
    p = 0.1 if shape == "sparse" else rng.random()
    return sum(1 << k for k in range(space.total) if rng.random() < p)


def random_partition(rng: random.Random, domain: list) -> tuple[tuple, ...]:
    """Cells in random order; some may be empty, every value is in one."""
    cells: list[list] = [[] for _ in range(rng.randint(1, len(domain) + 1))]
    for v in domain:
        rng.choice(cells).append(v)
    rng.shuffle(cells)
    return tuple(tuple(c) for c in cells)


def random_subset(rng: random.Random, size: int) -> tuple[int, ...]:
    return tuple(t for t in range(size) if rng.random() < 0.5)


def random_query(rng: random.Random, space: TypeSpace, kind: str):
    if kind == "elicit":
        agent = rng.randrange(space.n)
        return ElicitQuery(agent, random_partition(rng, list(range(space.sizes[agent]))))
    if kind == "count":
        counts = list(range(space.n + 1))
        return CountQuery(random_subset(rng, space.sizes[0]), random_partition(rng, counts))
    if kind == "multicount":
        subsets = tuple(random_subset(rng, space.sizes[0]) for _ in range(rng.randint(1, 3)))
        vectors = list(itertools.product(range(space.n + 1), repeat=len(subsets)))
        return MultiCountQuery(subsets, random_partition(rng, vectors))
    cells = random_partition(rng, list(range(space.total)))
    return ExtensionalQuery(tuple(sum(1 << k for k in cell) for cell in cells))


def random_factors(rng: random.Random, space: TypeSpace) -> list[list[int]]:
    return [
        sorted(set(rng.randrange(size) for _ in range(rng.randint(1, 3))))
        for size in space.sizes
    ]


def random_rule(rng: random.Random, space: TypeSpace) -> ChoiceRule:
    outcomes = tuple(f"x{j}" for j in range(rng.randint(1, 3)))
    table = tuple(rng.randrange(len(outcomes)) for _ in range(space.total))
    return ChoiceRule(space, outcomes, table)


# --- splitting ----------------------------------------------------------------------


class TestQueryCellMasks:
    @pytest.mark.parametrize("kind", ["elicit", "count", "multicount", "extensional"])
    def test_matches_per_profile_oracle(self, kind):
        for seed in SEEDS:
            rng = random.Random(seed)
            common = kind in ("count", "multicount") or rng.random() < 0.5
            space = random_space(rng, common)
            query = random_query(rng, space, kind)
            label = random_label(rng, space)
            got = query_cell_masks(space, query, label)
            assert got == oracle_cell_masks(space, query, label), (seed, query, label)

    def test_one_agent_with_one_type(self):
        space = TypeSpace.shared(1, ("only",))
        full = (1 << space.total) - 1
        for query in (
            ElicitQuery(0, ((0,),)),
            CountQuery((0,), ((1,), (0,))),
            CountQuery((), ((0, 1),)),
            MultiCountQuery(((0,), ()), (((1, 0),), ((0, 0), (0, 1), (1, 1)))),
        ):
            assert query_cell_masks(space, query, full) == oracle_cell_masks(space, query, full)

    def test_valid_elicitations_on_a_non_common_space(self):
        # queries that pass validate, on labels of a non-common space
        space = TypeSpace((("a", "b", "c"), ("x", "y"), ("p", "q", "r", "s")))
        rng = random.Random(7)
        for agent in range(space.n):
            for _ in range(20):
                cells = random_partition(rng, list(range(space.sizes[agent])))
                cells = tuple(c for c in cells if c)
                query = ElicitQuery(agent, cells)
                label = random_label(rng, space)
                assert query_cell_masks(space, query, label) == oracle_cell_masks(
                    space, query, label
                )

    @pytest.mark.parametrize("cells", [((0,), (1,), (2,)), ((0, 1), (-1,)), ((0,), (1, 5))])
    def test_elicit_type_out_of_range_is_refused(self, cells):
        # digit masks would shift such a type into another agent's digits
        space = TypeSpace.shared(2, ("lo", "hi"))
        query = ElicitQuery(1, cells)
        with pytest.raises(ProtocolDefect, match="elicit type index -?[0-9]+ out of range"):
            query.validate(space, "/tree")
        with pytest.raises(ProtocolDefect, match="out of range at node /tree"):
            build_protocol(space, lambda label, state: (query, lambda c, m: None))


class TestDigitMasks:
    def test_digit_mask_matches_decoded_types(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            space = random_space(rng, rng.random() < 0.5)
            agent = rng.randrange(space.n)
            types = random_subset(rng, space.sizes[agent])
            expected = sum(
                1 << k for k in range(space.total) if types_of(space, k)[agent] in types
            )
            assert space.digit_mask(agent, types) == expected


# --- per-profile loops replaced by whole-mask operations ------------------------------


class TestMaskPrimitives:
    def test_indices_flags_and_inverse(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            space = random_space(rng, False)
            mask = random_label(rng, space)
            naive = members(space, mask)
            assert mask_indices(mask) == naive
            assert list(iter_mask(mask)) == naive
            assert list(ProfileSet(space, mask).indices()) == naive
            flags = mask_flags(mask, space.total)
            assert [k for k in range(space.total) if flags[k]] == naive
            assert mask_of_flags(flags) == mask

    def test_from_indices(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            space = random_space(rng, False)
            picks = [rng.randrange(space.total) for _ in range(rng.randint(0, 6))]
            naive = 0
            for k in picks:
                naive |= 1 << k
            assert ProfileSet.from_indices(space, picks).mask == naive

    @pytest.mark.parametrize("bad", [-1, 8, 100])
    def test_from_indices_rejects_out_of_range(self, bad):
        space = TypeSpace.shared(3, ("A", "B"))
        with pytest.raises(InputError, match=f"profile index {bad} out of range"):
            ProfileSet.from_indices(space, [0, bad])

    def test_from_factors(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            space = random_space(rng, False)
            factors = [
                [rng.randrange(size) for _ in range(rng.randint(1, 3))] for size in space.sizes
            ]
            naive = 0
            for profile in itertools.product(*factors):
                naive |= 1 << space.index(profile)
            assert ProfileSet.from_factors(space, factors).mask == naive

    def test_product_indices(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            space = random_space(rng, False)
            factors = random_factors(rng, space)
            naive = [space.index(p) for p in itertools.product(*factors)]
            assert product_indices(space, factors) == naive

    def test_constant_on(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            space = random_space(rng, False)
            rule = random_rule(rng, space)
            mask = random_label(rng, space)
            naive = len({rule.table[k] for k in members(space, mask)}) <= 1
            assert constant_on(rule, mask) is naive


class TestLabelLookup:
    def test_index_of_labels_matches_positional_lookup(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            space = random_space(rng, False)
            labels = [rng.choice(a) for a in space.alphabets]
            profile = tuple(a.index(lab) for a, lab in zip(space.alphabets, labels))
            assert space.index_of_labels(labels) == space.index(profile)
            assert space.profile_of_labels(labels) == profile

    @pytest.mark.parametrize(
        "labels, message",
        [
            (["A"], "profile has 1 labels, expected 2"),
            (["A", "Z"], "agent 1: unknown type label 'Z'"),
            ([["A"], "B"], r"agent 0: unknown type label \['A'\]"),
        ],
    )
    def test_errors(self, labels, message):
        space = TypeSpace.shared(2, ("A", "B"))
        for lookup in (space.index_of_labels, space.profile_of_labels):
            with pytest.raises(InputError, match=message):
                lookup(labels)


# --- protocols ------------------------------------------------------------------------


def random_protocol(rng: random.Random, space: TypeSpace, rule: ChoiceRule):
    """Random elicitation splits; stops at constant labels or at random."""

    def step(label: int, _state):
        if constant_on(rule, label) or rng.random() < 0.15:
            return None
        agent = rng.randrange(space.n)
        cells = tuple(c for c in random_partition(rng, list(range(space.sizes[agent]))) if c)
        if len(cells) < 2:
            return None
        return ElicitQuery(agent, cells), lambda c, m: None

    return build_protocol(space, step)


class TestProtocolLoops:
    def test_leaf_map_and_implements(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            space = random_space(rng, False)
            rule = random_rule(rng, space)
            protocol = random_protocol(rng, space, rule)
            naive_map = {}
            for v in protocol.nodes:
                if v.is_leaf:
                    for k in members(space, v.label):
                        naive_map[k] = v.id
            got = protocol.leaf_map()
            assert got == naive_map and list(got) == list(naive_map)
            failing = None
            for v in protocol.nodes:
                if v.is_leaf and failing is None:
                    keys = members(space, v.label)
                    other = [k for k in keys if rule.table[k] != rule.table[keys[0]]]
                    if other:
                        failing = (v.id, (space.profile(keys[0]), space.profile(other[0])))
            res = implements(protocol, rule)
            if failing is None:
                assert res.ok
            else:
                assert not res.ok and (res.leaf, res.profiles) == failing
