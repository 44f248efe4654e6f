"""Slow oracles for the bit-parallel label kernel.

Every whole-mask fast path in ``core``, ``protocol`` and ``privacy`` is
compared here with a plain per-profile loop: the oracle decodes each
profile's types, computes its answer (type, count or count vector) and
assigns it to the cell holding that answer, or walks each profile's
unilateral neighbours.  Spaces, labels and queries are seeded random, and
include one agent, alphabets of one type and alphabets that differ
between agents.
"""

from __future__ import annotations

import itertools
import random

import pytest

from cpv.clocks import count_ascending_price, descending_first_price
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
)
from cpv.privacy import (
    _leaf_list,
    _leaves_share_a_line,
    _outcome_values,
    _own_components,
    _unilateral_scan,
    check_protocol_cp,
    unilateral_pairs,
)
from cpv.protocol import (
    CountQuery,
    ElicitQuery,
    ExtensionalQuery,
    ProtocolDefect,
    build_protocol,
    implements,
    query_cell_masks,
)
from cpv.synthesis import product_indices
from cpv.tatonnement import check_tatonnement, phase_discovery
from cpv.variants import check_protocol_icp

from corpus import (
    corpus_seeds,
    random_component_rule,
    random_implementing_protocol,
)
from corpus import random_rule as corpus_rule

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
    if kind in ("count", "multicount"):  # over one subset, or over one to three
        width = 1 if kind == "count" else rng.randint(1, 3)
        subsets = tuple(random_subset(rng, space.sizes[0]) for _ in range(width))
        vectors = list(itertools.product(range(space.n + 1), repeat=width))
        return CountQuery(subsets, random_partition(rng, vectors))
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
            CountQuery(((0,),), (((1,),), ((0,),))),
            CountQuery(((),), (((0,), (1,)),)),
            CountQuery(((0,), ()), (((1, 0),), ((0, 0), (0, 1), (1, 1)))),
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

    def test_from_indices_names_the_first_index_out_of_range(self):
        space = TypeSpace.shared(3, ("A", "B"))
        picks = iter([3, 9, 0, -2])  # read once, as any iterable
        with pytest.raises(InputError, match="^profile index 9 out of range$"):
            ProfileSet.from_indices(space, picks)

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


def random_protocol(rng: random.Random, space: TypeSpace, rule: ChoiceRule, universe=None):
    """Random elicitation splits of ``universe`` (the whole space by
    default); stops at constant labels or at random."""

    def step(label: int, _state):
        if constant_on(rule, label) or rng.random() < 0.15:
            return None
        agent = rng.randrange(space.n)
        cells = tuple(c for c in random_partition(rng, list(range(space.sizes[agent]))) if c)
        if len(cells) < 2:
            return None
        return ElicitQuery(agent, cells), lambda c, m: None

    return build_protocol(space, step, None, universe)


def oracle_implements(space: TypeSpace, protocol, rule: ChoiceRule):
    """(leaf, (lowest profile, lowest one with another outcome)) of the first
    non-constant leaf, by a loop over each leaf's members; None if none."""
    for v in protocol.nodes:
        if v.is_leaf:
            keys = members(space, v.label)
            other = [k for k in keys if rule.table[k] != rule.table[keys[0]]]
            if other:
                return v.id, (space.profile(keys[0]), space.profile(other[0]))
    return None


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
            failing = oracle_implements(space, protocol, rule)
            res = implements(protocol, rule)
            if failing is None:
                assert res.ok
            else:
                assert not res.ok and res.violation == failing


# --- the protocol-level privacy decision on leaf masks ----------------------------------


def with_components(rng: random.Random, rule: ChoiceRule) -> ChoiceRule:
    """``rule`` with per-agent components from a two-letter alphabet, so that
    distinct outcomes often share an agent's component."""
    rows = tuple(tuple(rng.choice("pq") for _ in range(rule.space.n)) for _ in rule.outcomes)
    return ChoiceRule(rule.space, rule.outcomes, rule.table, rows)


def scan_case(seed: int):
    """A rule and a protocol implementing it, by seed: corpus rules with
    outcomes only or with components (up to 4 agents and 4 types), and
    rules on kernel spaces, which include one agent and one-type alphabets;
    about a third of them on a random restricted universe."""
    rng = random.Random(seed)
    source = seed % 3
    if source == 0:
        rule = corpus_rule(seed, 4, 4)
    elif source == 1:
        rule = random_component_rule(seed, 4, 4)
    else:
        rule = with_components(rng, random_rule(rng, random_space(rng, rng.random() < 0.5)))
    universe = None
    if rng.random() < 0.5:
        mask = random_label(rng, rule.space) or 1 << rng.randrange(rule.space.total)
        universe = ProfileSet(rule.space, mask)
    return rng, rule, random_implementing_protocol(rule, seed, universe)


def oracle_separated_tie(space: TypeSpace, protocol, value, label: int) -> bool:
    """Whether a profile of ``label`` and one of its unilateral neighbours in
    ``label`` reach distinct leaves with equal ``value[agent]``, by decoding
    each member and trying every other type of every agent."""
    leaf = {k: v.id for v in protocol.nodes if v.is_leaf for k in members(space, v.label)}
    for k in members(space, label):
        types = types_of(space, k)
        for agent in range(space.n):
            for t in range(space.sizes[agent]):
                other = space.index(tuple(types[:agent] + [t] + types[agent + 1:]))
                if (
                    (label >> other) & 1
                    and leaf[other] != leaf[k]
                    and value[agent][other] == value[agent][k]
                ):
                    return True
    return False


SCAN_SEEDS = corpus_seeds(300, offset=16)


class TestUnilateralDecision:
    def test_leaf_masks_decide_as_the_scans_do(self):
        decided = {True: 0, False: 0}
        for seed in SCAN_SEEDS:
            rng, rule, protocol = scan_case(seed)
            space, universe = rule.space, protocol.universe
            labels = [universe]
            labels += [v.label for v in rng.sample(protocol.nodes, min(4, len(protocol.nodes)))]
            labels += [random_label(rng, space) & universe for _ in range(3)]
            values = [_outcome_values(rule)]
            if rule.has_components:
                values.append(_own_components(rule))
            leaf = _leaf_list(protocol)
            for value in values:
                for label in labels:
                    pieces = [m for v in protocol.leaves() if (m := v.label & label)]
                    got = _leaves_share_a_line(space, pieces, value)
                    assert got is oracle_separated_tie(space, protocol, value, label), seed
                    first = next(unilateral_pairs(space, label, leaf, value), None)
                    assert got is (first is not None), seed
                    violation = _unilateral_scan(protocol, value, label)
                    if first is None:
                        assert violation is None
                    else:
                        k, agent, t2, _ = first
                        assert (violation.profile_a, violation.agent, violation.type_b) == (
                            space.profile(k), agent, t2
                        )
                    decided[got] += 1
        # the sweep meets both verdicts often
        assert min(decided.values()) > 200, decided

    def test_implements_on_restricted_universes(self):
        for seed in SCAN_SEEDS:
            rng, rule, protocol = scan_case(seed)
            space = rule.space
            # a tree that stops at random leaves non-constant leaves
            early = random_protocol(rng, space, rule, ProfileSet(space, protocol.universe))
            for tree in (protocol, early):
                failing = oracle_implements(space, tree, rule)
                res = implements(tree, rule)
                expected = (True, None) if failing is None else (False, failing)
                assert (res.ok, res.violation) == expected, seed


class TestPairScanOnlyNamesAViolation:
    """On a protocol that holds, no unilateral pair is enumerated."""

    @pytest.fixture(autouse=True)
    def no_pair_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pair scan run on a protocol that holds")

        monkeypatch.setattr("cpv.privacy.unilateral_pairs", refuse)

    def test_descending_first_price(self):
        bundle = descending_first_price(3, range(1, 7))
        protocol, rule = bundle.protocol, bundle.instance.rule
        assert check_protocol_cp(protocol, rule).ok
        assert check_protocol_icp(protocol, rule).ok
        assert check_tatonnement(protocol, rule, phase_discovery(protocol, rule)).ok

    def test_count_clock(self):
        bundle = count_ascending_price(2, 4, range(1, 6))
        assert check_protocol_cp(bundle.protocol, bundle.instance.rule).ok
