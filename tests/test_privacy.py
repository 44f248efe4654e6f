from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cpv.core import ChoiceRule, InputError, ProfileSet, TypeSpace, Verdict, Witness, mask_flags
from cpv.mechanisms import (
    fair_tiebreak_2x2,
    fair_two_query_protocol,
    fig_shaded_3x3,
    first_price,
    non_clinching,
    second_price,
    serial_dictatorship,
    serial_dictatorship_protocol,
)
from cpv.privacy import check_protocol_cp
from cpv.protocol import NodeSpec, ElicitQuery, Protocol, build_from_spec, implements
from cpv.search import (
    inseparability_classes,
    synthesize_or_witness,
    witness_minimize,
    witness_verify,
)
from cpv.synthesis import (
    CornersViolation,
    _rows_may_fail,
    _some_plane_fails,
    check_nonbossy,
    corners_scan,
)
from cpv.variants import check_protocol_gcp, check_protocol_icp

from corpus import (
    corpus_seeds,
    outcome,
    profile_set,
    random_component_rule,
    random_implementing_protocol,
    random_rule,
)
from oracles import protected_pair_classes, witness_oracle


def product_classes(rule: ChoiceRule, factors, agent):
    """:func:`inseparability_classes` on the product set ``factors``."""
    return inseparability_classes(rule, ProfileSet.from_factors(rule.space, factors).mask, agent)


def naive_inseparability(rule: ChoiceRule, factors, agent):
    """Independent oracle: all-pairs direct test plus explicit transitive
    closure by fixpoint iteration."""
    space = rule.space
    types = list(factors[agent])
    direct = {(a, b): False for a in types for b in types}
    others = [factors[i] for i in range(space.n) if i != agent]
    other_agents = [i for i in range(space.n) if i != agent]
    for a, b in itertools.combinations(types, 2):
        for combo in itertools.product(*others):
            pa, pb = [0] * space.n, [0] * space.n
            for i, t in zip(other_agents, combo):
                pa[i] = pb[i] = t
            pa[agent], pb[agent] = a, b
            if outcome(rule, tuple(pa)) == outcome(rule, tuple(pb)):
                direct[(a, b)] = direct[(b, a)] = True
    related = dict(direct)
    for a in types:
        related[(a, a)] = True
    changed = True
    while changed:
        changed = False
        for a, b, c in itertools.product(types, repeat=3):
            if related[(a, b)] and related[(b, c)] and not related[(a, c)]:
                related[(a, c)] = True
                changed = True
    classes = []
    seen = set()
    for a in types:
        if a in seen:
            continue
        cls = tuple(sorted(b for b in types if related[(a, b)]))
        classes.append(cls)
        seen.update(cls)
    return tuple(sorted(classes))


class TestInseparability:
    def test_shaded_grid_agent2_single_class(self):
        inst = fig_shaded_3x3()
        factors = ((0, 1, 2), (0, 1, 2))
        classes = product_classes(inst.rule, factors, 1)
        assert classes == ((0, 1, 2),)

    def test_shaded_grid_agent1_partition(self):
        inst = fig_shaded_3x3()
        factors = ((0, 1, 2), (0, 1, 2))
        classes = product_classes(inst.rule, factors, 0)
        assert classes == naive_inseparability(inst.rule, factors, 0)
        assert classes == ((0, 2), (1,))  # t1 with t3; t2 alone

    def test_injective_rule_singletons(self):
        inst = non_clinching()
        factors = ((0, 1), (0, 1))
        for agent in range(2):
            classes = product_classes(inst.rule, factors, agent)
            assert classes == ((0,), (1,))

    def test_diagonal_set_gives_the_protected_pair_classes(self):
        # classes are defined on every profile set: on the diagonal no
        # unilateral pair lies inside, so every present type is alone
        inst = fair_tiebreak_2x2()
        diag = profile_set(inst.space, [(0, 0), (1, 1)]).mask
        for agent in range(2):
            classes = inseparability_classes(inst.rule, diag, agent)
            assert classes == protected_pair_classes(inst.rule, diag, agent) == ((0,), (1,))

    @given(st.sampled_from(corpus_seeds(40)))
    @settings(deadline=None)
    def test_matches_naive_closure(self, seed):
        rule = random_rule(seed)
        factors = tuple(tuple(range(s)) for s in rule.space.sizes)
        for agent in range(rule.space.n):
            classes = product_classes(rule, factors, agent)
            assert classes == naive_inseparability(rule, factors, agent)

    @given(st.sampled_from(corpus_seeds(25, offset=1)))
    @settings(deadline=None)
    def test_monotone_under_enlargement(self, seed):
        import random

        rule = random_rule(seed)
        rng = random.Random(seed ^ 0xABCD)
        space = rule.space
        sub = tuple(
            tuple(sorted(rng.sample(range(s), rng.randint(1, s))))
            for s in space.sizes
        )
        full = tuple(tuple(range(s)) for s in space.sizes)
        for agent in range(space.n):
            small = product_classes(rule, sub, agent)
            big = product_classes(rule, full, agent)
            for cls in small:
                anchor = next(c for c in big if cls[0] in c)
                assert all(t in anchor for t in cls)


class TestProtocolCp:
    def test_fair_two_query_violation_names_agent_2(self):
        inst = fair_tiebreak_2x2()
        protocol = fair_two_query_protocol(inst).protocol
        verdict = check_protocol_cp(protocol, inst.rule)
        assert not verdict.ok
        v = verdict.violation
        assert v.agent == 1  # agent 2, 1-based
        assert (v.type_a, v.type_b) == (0, 1)
        assert v.profile_a == (0, 0) and v.profile_b == (0, 1)
        assert v.detail == "1:A,2:B"

    def test_serial_dictatorship_cp(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        bundle = serial_dictatorship_protocol(inst, (0, 1))
        assert check_protocol_cp(bundle.protocol, inst.rule).ok

    def test_root_only_constant_rule(self):
        space = TypeSpace.shared(2, ("A", "B"))
        rule = ChoiceRule(space, ("x",), (0, 0, 0, 0))
        protocol = build_from_spec(space, NodeSpec())
        assert check_protocol_cp(protocol, rule).ok

    def test_precondition_requires_implements(self):
        inst = fair_tiebreak_2x2()
        spec = NodeSpec(ElicitQuery(0, ((0,), (1,))), (NodeSpec(), NodeSpec()))
        truncated = build_from_spec(inst.space, spec)
        with pytest.raises(InputError):
            check_protocol_cp(truncated, inst.rule)


class TestProtocolGcp:
    def test_serial_dictatorship_gcp(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        bundle = serial_dictatorship_protocol(inst, (0, 1))
        assert check_protocol_gcp(bundle.protocol, inst.rule).ok

    def test_injective_rule_any_protocol_gcp(self):
        inst = non_clinching()
        for first in (0, 1):
            spec = NodeSpec(
                ElicitQuery(first, ((0,), (1,))),
                (
                    NodeSpec(ElicitQuery(1 - first, ((0,), (1,))), (NodeSpec(), NodeSpec())),
                    NodeSpec(ElicitQuery(1 - first, ((0,), (1,))), (NodeSpec(), NodeSpec())),
                ),
            )
            protocol = build_from_spec(inst.space, spec)
            assert implements(protocol, inst.rule).ok
            assert check_protocol_gcp(protocol, inst.rule).ok

    @given(st.sampled_from(corpus_seeds(40, offset=2)))
    @settings(deadline=None)
    def test_gcp_implies_cp(self, seed):
        rule = random_rule(seed)
        protocol = random_implementing_protocol(rule, seed + 7)
        if check_protocol_gcp(protocol, rule).ok:
            assert check_protocol_cp(protocol, rule).ok


class TestProtocolIcp:
    def test_serial_dictatorship_icp(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        bundle = serial_dictatorship_protocol(inst, (0, 1))
        assert check_protocol_icp(bundle.protocol, inst.rule).ok

    def test_missing_components_rejected(self):
        space = TypeSpace.shared(2, ("A", "B"))
        rule = ChoiceRule(space, ("x",), (0, 0, 0, 0))
        protocol = build_from_spec(space, NodeSpec())
        with pytest.raises(InputError):
            check_protocol_icp(protocol, rule)

    def test_bossy_rule_fails_icp(self):
        # agent 1's report flips agent 2's object while keeping her own
        space = TypeSpace.shared(2, ("A", "B"))
        outcomes = ("o1", "o2")
        components = (("p", "u"), ("p", "v"))
        rule = ChoiceRule(space, outcomes, (0, 0, 1, 1), components)
        assert not check_nonbossy(rule).ok
        spec = NodeSpec(ElicitQuery(0, ((0,), (1,))), (NodeSpec(), NodeSpec()))
        protocol = build_from_spec(space, spec)
        assert implements(protocol, rule).ok
        assert check_protocol_cp(protocol, rule).ok
        verdict = check_protocol_icp(protocol, rule)
        assert not verdict.ok
        assert verdict.violation.agent == 0

    @given(st.sampled_from(corpus_seeds(40, offset=3)))
    @settings(deadline=None)
    def test_icp_implies_cp(self, seed):
        rule = random_component_rule(seed)
        protocol = random_implementing_protocol(rule, seed + 11)
        if check_protocol_icp(protocol, rule).ok:
            assert check_protocol_cp(protocol, rule).ok


class TestCorners:
    def naive_scan(self, rule):
        space = rule.space
        for i, j in itertools.combinations(range(space.n), 2):
            rest_agents = [a for a in range(space.n) if a not in (i, j)]
            rest_types = itertools.product(*(range(space.sizes[a]) for a in rest_agents))
            for rest in rest_types:
                base = [0] * space.n
                for a, t in zip(rest_agents, rest):
                    base[a] = t
                for ti, ti2 in itertools.combinations(range(space.sizes[i]), 2):
                    for tj, tj2 in itertools.combinations(range(space.sizes[j]), 2):
                        cells = []
                        for a, b in ((ti, tj), (ti, tj2), (ti2, tj), (ti2, tj2)):
                            base[i], base[j] = a, b
                            cells.append(outcome(rule, tuple(base)))
                        o00, o01, o10, o11 = cells
                        for three, fourth in (
                            ((o00, o01, o10), o11),
                            ((o00, o01, o11), o10),
                            ((o00, o10, o11), o01),
                            ((o01, o10, o11), o00),
                        ):
                            if three[0] == three[1] == three[2] != fourth:
                                return False
        return True

    def test_fair_rule_violation(self):
        inst = fair_tiebreak_2x2()
        result = corners_scan(inst.rule)
        assert not result.ok
        v = result.violation
        assert v.shared_outcome == "1:A,2:B" and v.fourth_outcome == "1:B,2:A"

    def test_serial_dictatorships_pass(self):
        for order in ((0, 1), (1, 0)):
            inst = serial_dictatorship(2, ("A", "B"), order)
            assert corners_scan(inst.rule).ok

    def test_second_price_violation(self):
        inst = second_price(3, [1, 2, 3])
        assert not corners_scan(inst.rule).ok
        assert not self.naive_scan(inst.rule)

    @given(st.sampled_from(corpus_seeds(40, offset=4)))
    @settings(deadline=None)
    def test_matches_naive(self, seed):
        rule = random_rule(seed)
        assert corners_scan(rule).ok == self.naive_scan(rule)

    @given(st.sampled_from(corpus_seeds(40, offset=5)))
    @settings(deadline=None)
    def test_corners_violation_forces_witness(self, seed):
        rule = random_rule(seed)
        if not corners_scan(rule).ok:
            assert isinstance(synthesize_or_witness(rule), Witness)


class TestSynthesis:
    def test_fair_witness_is_full_space(self):
        inst = fair_tiebreak_2x2()
        result = synthesize_or_witness(inst.rule)
        assert isinstance(result, Witness)
        assert result.factors == ((0, 1), (0, 1))

    def test_serial_dictatorship_synthesizes(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        result = synthesize_or_witness(inst.rule)
        assert isinstance(result, Protocol)
        assert check_protocol_cp(result, inst.rule).ok

    def test_returned_witness_verifies(self):
        inst = second_price(3, [1, 2, 3])
        result = synthesize_or_witness(inst.rule)
        assert isinstance(result, Witness)
        assert witness_verify(inst.rule, result)


class TestWitnessOracle:
    def test_fair_found(self):
        inst = fair_tiebreak_2x2()
        assert witness_oracle(inst.rule) is not None

    def test_serial_dictatorship_none(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        assert witness_oracle(inst.rule) is None

    def test_constant_rule_none(self):
        space = TypeSpace.shared(2, ("A", "B"))
        rule = ChoiceRule(space, ("x",), (0, 0, 0, 0))
        assert witness_oracle(rule) is None

    def test_cap_exceeded(self):
        from cpv.core import ResourceError

        inst = second_price(3, [1, 2, 3])
        with pytest.raises(ResourceError):
            witness_oracle(inst.rule, cap=10)


class TestWitnessVerify:
    def test_full_space_under_sd_rejected(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        w = Witness(((0, 1), (0, 1)))
        assert not witness_verify(inst.rule, w)

    def test_singleton_factors_rejected(self):
        inst = fair_tiebreak_2x2()
        assert not witness_verify(inst.rule, Witness(((0,), (0,))))

    def test_malformed_factors(self):
        inst = fair_tiebreak_2x2()
        with pytest.raises(InputError):
            witness_verify(inst.rule, Witness(((0, 5), (0,))))

    def test_minimize_keeps_verifying(self):
        inst = second_price(3, [1, 2, 3])
        w = synthesize_or_witness(inst.rule)
        small = witness_minimize(inst.rule, w)
        assert witness_verify(inst.rule, small)
        assert all(
            len(f) <= len(g) for f, g in zip(small.factors, w.factors)
        )


class TestNonbossy:
    def test_serial_dictatorship_ok(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        assert check_nonbossy(inst.rule).ok

    def test_bossy_construction_flagged(self):
        space = TypeSpace.shared(2, ("A", "B"))
        rule = ChoiceRule(
            space, ("o1", "o2"), (0, 0, 1, 1), (("p", "u"), ("p", "v"))
        )
        res = check_nonbossy(rule)
        assert not res.ok
        assert res.violation[0] == 0 and res.violation[4] == 1

    def test_constant_rule_ok(self):
        space = TypeSpace.shared(2, ("A", "B"))
        rule = ChoiceRule(space, ("x",), (0, 0, 0, 0), (("p", "q"),))
        assert check_nonbossy(rule).ok


class TestEquivalenceProperties:
    @given(st.sampled_from(corpus_seeds(60, offset=6)))
    @settings(deadline=None)
    def test_cp_and_nonbossy_iff_icp(self, seed):
        rule = random_component_rule(seed)
        protocol = random_implementing_protocol(rule, seed + 13)
        cp = check_protocol_cp(protocol, rule).ok
        icp = check_protocol_icp(protocol, rule).ok
        nonbossy = check_nonbossy(rule).ok
        if cp and nonbossy:
            assert icp
        if icp:
            assert nonbossy


# --- slow oracles for the product-set kernel ------------------------------------------
#
# Both are the per-profile loops the kernel replaced: every profile goes
# through the checked ``TypeSpace.index``, inseparability runs its fibers
# once per opponent profile, and the corners scan tries every square in
# the unilateral scan order (base profile, agent i, raised type, agent j,
# raised type) with no row-pair filter.


def slow_inseparability(rule: ChoiceRule, factors, agent: int):
    space = rule.space
    factors = tuple(tuple(sorted(set(f))) for f in factors)
    types = factors[agent]
    rep = {t: t for t in types}

    def join(a, b):
        ra, rb = rep[a], rep[b]
        if ra != rb:
            for t in types:
                if rep[t] == rb:
                    rep[t] = ra

    others = [i for i in range(space.n) if i != agent]
    base = [0] * space.n
    for combo in itertools.product(*(factors[i] for i in others)):
        for i, t in zip(others, combo):
            base[i] = t
        fiber = {}
        for t in types:
            base[agent] = t
            x = rule.table[space.index(tuple(base))]
            if x in fiber:
                join(fiber[x], t)
            else:
                fiber[x] = t
    groups = {}
    for t in types:
        groups.setdefault(rep[t], []).append(t)
    return tuple(sorted(tuple(g) for g in groups.values()))


def slow_corners_scan(rule: ChoiceRule, region: ProfileSet | None = None) -> Verdict:
    space, table = rule.space, rule.table
    if space.n < 2:
        return Verdict(True)
    inside = set(region.indices()) if region is not None else set(range(space.total))

    def moved(profile, agent, t):
        out = list(profile)
        out[agent] = t
        return tuple(out)

    for k in sorted(inside):
        p00 = space.profile(k)
        for i in range(space.n):
            for ti2 in range(p00[i] + 1, space.sizes[i]):
                p10 = moved(p00, i, ti2)
                if space.index(p10) not in inside:
                    continue
                for j in range(i + 1, space.n):
                    for tj2 in range(p00[j] + 1, space.sizes[j]):
                        p01, p11 = moved(p00, j, tj2), moved(p10, j, tj2)
                        if space.index(p01) not in inside or space.index(p11) not in inside:
                            continue
                        o00, o10, o01, o11 = (
                            table[space.index(p)] for p in (p00, p10, p01, p11)
                        )
                        for three, fourth in (
                            ((o00, o10, o01), o11),
                            ((o00, o10, o11), o01),
                            ((o00, o01, o11), o10),
                            ((o10, o01, o11), o00),
                        ):
                            if three[0] == three[1] == three[2] != fourth:
                                return Verdict(
                                    False,
                                    CornersViolation(
                                        i, j, (p00[i], ti2), (p00[j], tj2), p00,
                                        rule.outcomes[three[0]], rule.outcomes[fourth],
                                    ),
                                )
    return Verdict(True)


def any_space(rng: random.Random) -> TypeSpace:
    """One to four agents with one to four types each; alphabets common or not."""
    n = rng.randint(1, 4)
    if rng.random() < 0.5:
        return TypeSpace.shared(n, tuple(f"t{j}" for j in range(rng.randint(1, 4))))
    return TypeSpace(
        tuple(tuple(f"a{i}t{j}" for j in range(rng.randint(1, 4))) for i in range(n))
    )


def any_rule(seed: int) -> ChoiceRule:
    rng = random.Random(seed)
    space = any_space(rng)
    outcomes = tuple(f"x{j}" for j in range(rng.randint(1, 4)))
    table = tuple(rng.randrange(len(outcomes)) for _ in range(space.total))
    return ChoiceRule(space, outcomes, table)


def sub_factors(rng: random.Random, space: TypeSpace):
    """Nonempty factors: the full alphabet, one type, or a random subset."""
    out = []
    for size in space.sizes:
        shape = rng.choice(("full", "one", "some"))
        if shape == "full":
            out.append(tuple(range(size)))
        elif shape == "one":
            out.append((rng.randrange(size),))
        else:
            out.append(tuple(sorted(rng.sample(range(size), rng.randint(1, size)))))
    return tuple(out)


def holey_region(rng: random.Random, space: TypeSpace) -> ProfileSet:
    keep = rng.choice((0.5, 0.8, 0.95))
    return ProfileSet.from_indices(
        space, [k for k in range(space.total) if rng.random() < keep]
    )


def row_pairs(space: TypeSpace):
    """Every row pair ``(a, shift, stride, size)`` of every ordered agent pair
    (i, j): the row of agent j's types through base profile ``a`` (agent j
    at type 0) and that row with agent i's type raised, ``shift`` further."""
    for i, j in itertools.permutations(range(space.n), 2):
        si, sj, size_j = space.strides[i], space.strides[j], space.sizes[j]
        for a in range(space.total):
            if a // sj % size_j:
                continue
            ti = a // si % space.sizes[i]
            for ti2 in range(ti + 1, space.sizes[i]):
                yield a, (ti2 - ti) * si, sj, size_j


def any_failing_square(rule: ChoiceRule, member) -> bool:
    """Whether some square with all four corners in the region has exactly
    three equal corners, by trying every square."""
    space, table = rule.space, rule.table
    for k in range(space.total):
        for i, j in itertools.combinations(range(space.n), 2):
            (si, sj), (mi, mj) = (space.strides[i], space.strides[j]), (space.sizes[i], space.sizes[j])
            for di in range(si, (mi - k // si % mi) * si, si):
                for dj in range(sj, (mj - k // sj % mj) * sj, sj):
                    corners = (k, k + di, k + dj, k + di + dj)
                    if all(member[c] for c in corners):
                        xs = [table[c] for c in corners]
                        if any(xs.count(x) == 3 for x in xs):
                            return True
    return False


KERNEL_SEEDS = range(150)


class TestProductSetKernel:
    def test_inseparability_matches_per_profile_loop(self):
        for seed in KERNEL_SEEDS:
            rule = any_rule(seed)
            rng = random.Random(seed ^ 0x5EED)
            full = tuple(tuple(range(s)) for s in rule.space.sizes)
            for factors in (full, sub_factors(rng, rule.space), sub_factors(rng, rule.space)):
                for agent in range(rule.space.n):
                    classes = product_classes(rule, factors, agent)
                    assert classes == slow_inseparability(rule, factors, agent), (
                        seed, factors, agent,
                    )

    def test_inseparability_on_a_profile_set_region(self):
        for seed in KERNEL_SEEDS:
            rule = any_rule(seed)
            factors = sub_factors(random.Random(seed), rule.space)
            region = ProfileSet.from_factors(rule.space, factors)
            for agent in range(rule.space.n):
                classes = inseparability_classes(rule, region.mask, agent)
                assert classes == slow_inseparability(rule, factors, agent)

    def test_corners_matches_ordered_scan(self):
        for seed in KERNEL_SEEDS:
            rule = any_rule(seed)
            assert corners_scan(rule) == slow_corners_scan(rule), seed

    def test_corners_matches_ordered_scan_on_regions_with_holes(self):
        for seed in KERNEL_SEEDS:
            rule = any_rule(seed)
            region = holey_region(random.Random(seed ^ 0xF00D), rule.space)
            assert corners_scan(rule, region) == slow_corners_scan(rule, region), seed

    def test_corners_matches_ordered_scan_on_corpus_rules(self):
        for seed in corpus_seeds(60, offset=7):
            rule = random_rule(seed, max_agents=4, max_types=4)
            assert corners_scan(rule) == slow_corners_scan(rule), seed

    def test_row_pair_filter_is_exact(self):
        # a row pair is flagged iff one of its squares has exactly three equal corners
        for seed in range(60):
            rule = any_rule(seed)
            space = rule.space
            region = holey_region(random.Random(seed), space)
            member = mask_flags(region.mask, space.total)
            table = rule.table
            for a, shift, stride, size in row_pairs(space):
                cols = [
                    (table[k], table[k + shift])
                    for k in range(a, a + size * stride, stride)
                    if member[k] and member[k + shift]
                ]
                defect = any(
                    [x, y, u, v].count(w) == 3
                    for (x, y), (u, v) in itertools.combinations(cols, 2)
                    for w in (x, y, u, v)
                )
                assert _rows_may_fail(table, member, a, shift, stride, size) is defect

    def test_plane_decision_matches_every_square(self):
        # full planes are decided by their row sets, planes with a hole by row pairs
        verdicts = set()
        for seed in KERNEL_SEEDS:
            rule = any_rule(seed)
            space = rule.space
            rng = random.Random(seed ^ 0xC0DE)
            for region in (
                ProfileSet.full(space), holey_region(rng, space),
                ProfileSet.from_factors(space, sub_factors(rng, space)),
            ):
                member = mask_flags(region.mask, space.total)
                found = any_failing_square(rule, member)
                assert _some_plane_fails(space, rule.table, member) is found, seed
                verdicts.add(found)
        assert verdicts == {False, True}

    def test_no_plane_fails_on_first_price(self):
        rule = first_price(3, [1, 2, 3, 4, 5]).rule
        member = mask_flags((1 << rule.space.total) - 1, rule.space.total)
        assert not _some_plane_fails(rule.space, rule.table, member)

    def test_only_defect_in_a_plane_with_a_hole(self):
        # the square of test_only_defect_late_in_scan_order, in the plane of
        # agents 2 and 3 with agent 1 at c, which lacks the profile (c, a, a)
        space = TypeSpace.shared(3, ("a", "b", "c"))
        table = list(range(space.total))
        shared = space.index((2, 1, 1))
        for profile in ((2, 1, 2), (2, 2, 1)):
            table[space.index(profile)] = shared
        rule = ChoiceRule(space, tuple(f"x{k}" for k in range(space.total)), tuple(table))
        region = ProfileSet.from_indices(space, set(range(space.total)) - {space.index((2, 0, 0))})
        result = corners_scan(rule, region)
        assert result == slow_corners_scan(rule, region)
        assert result.violation == CornersViolation(
            1, 2, (1, 2), (1, 2), (2, 1, 1), f"x{shared}", f"x{space.index((2, 2, 2))}"
        )

    def test_no_row_pair_flagged(self):
        # first price is privately implementable: no failing square, no flagged row pair
        rule = first_price(3, [1, 2, 3, 4, 5]).rule
        space = rule.space
        member = mask_flags((1 << space.total) - 1, space.total)
        for a, shift, stride, size in row_pairs(space):
            assert not _rows_may_fail(rule.table, member, a, shift, stride, size)
        assert corners_scan(rule) == slow_corners_scan(rule) == Verdict(True)

    def test_only_defect_late_in_scan_order(self):
        # all outcomes distinct except three corners of the last square that
        # agents 2 and 3 span, with agent 1 at its last type
        space = TypeSpace.shared(3, ("a", "b", "c"))
        table = list(range(space.total))
        shared = space.index((2, 1, 1))
        for profile in ((2, 1, 2), (2, 2, 1)):
            table[space.index(profile)] = shared
        rule = ChoiceRule(space, tuple(f"x{k}" for k in range(space.total)), tuple(table))
        result = corners_scan(rule)
        assert result == slow_corners_scan(rule)
        assert result.violation == CornersViolation(
            1, 2, (1, 2), (1, 2), (2, 1, 1), f"x{shared}", f"x{space.index((2, 2, 2))}"
        )
        region = ProfileSet.from_indices(space, set(range(space.total)) - {shared})
        assert corners_scan(rule, region) == slow_corners_scan(rule, region) == Verdict(True)

    def test_flags_are_per_row_pair(self):
        # rows 0 and 2 of agent 1 hold the only failing square; rows 0 and 1
        # share the base row 0 but hold none
        space = TypeSpace((("a", "b", "c"), ("a", "b")))
        rule = ChoiceRule(space, ("A", "B", "C", "D"), (0, 0, 2, 3, 0, 1))
        result = corners_scan(rule)
        assert result == slow_corners_scan(rule)
        assert result.violation == CornersViolation(0, 1, (0, 2), (0, 1), (0, 0), "A", "B")

    def test_one_agent_has_no_squares(self):
        rule = ChoiceRule(TypeSpace.shared(1, ("a", "b", "c")), ("x", "y"), (0, 0, 1))
        assert corners_scan(rule) == slow_corners_scan(rule) == Verdict(True)


class TestFactorCheck:
    """Factors are checked once per call; the scans then index the rule table
    by arithmetic, where a negative type would wrap round the table."""

    CASES = {
        "out of range": (((0, 2), (0, 1)), "agent 0: {}type index 2 out of range"),
        "negative": (((0, 1), (-1, 1)), "agent 1: {}type index -1 out of range"),
        "too few factors": (((0, 1),), "{}factor count differs from agent count"),
        "too many factors": (((0,), (0,), (0,)), "{}factor count differs from agent count"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_inseparability_refuses(self, case):
        factors, message = self.CASES[case]
        rule = fair_tiebreak_2x2().rule
        for agent in range(2):
            with pytest.raises(InputError, match=message.format("")):
                product_classes(rule, factors, agent)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_witness_verify_refuses(self, case):
        factors, message = self.CASES[case]
        rule = fair_tiebreak_2x2().rule
        with pytest.raises(InputError, match=message.format("witness ")):
            witness_verify(rule, Witness(factors))

    def test_empty_factor_refused(self):
        rule = fair_tiebreak_2x2().rule
        with pytest.raises(InputError, match="agent 1: empty factor"):
            product_classes(rule, ((0, 1), ()), 0)
        with pytest.raises(InputError, match="agent 1: empty witness factor"):
            witness_verify(rule, Witness(((0, 1), ())))
