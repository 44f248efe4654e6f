from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from cpv.core import ChoiceRule, InputError, Instance, TypeSpace, Witness
from cpv.mechanisms import (
    DomainModel,
    _two_houses,
    appC_sp_restriction,
    ascending_elicitation_sp,
    count_ascending_price,
    descending_first_price,
    double_auction_count,
    double_auction_walrasian,
    efficient_completions_2x2,
    first_price,
    house_ir_efficient_family,
    kth_price,
    multicount_stable_matching,
    non_clinching,
    school_stable_family,
    second_price,
    serial_dictatorship,
    serial_dictatorship_protocol,
    uniform_price,
)
from cpv.privacy import check_protocol_cp
from cpv.protocol import (
    NodeSpec,
    ElicitQuery,
    build_from_spec,
    implements,
    validate_protocol,
)
from cpv.properties import UnsupportedProtocolError, check_protocol_osp, check_rule_property
from cpv.run import run_protocol
from cpv.synthesis import check_nonbossy, corners_scan
from cpv.tatonnement import check_tatonnement
from cpv.variants import check_protocol_gcp, check_protocol_icp

from corpus import outcome, profiles_of


class TestAuctionRules:
    def test_first_price_lexicographic_tie(self):
        inst = first_price(2, [1, 2])
        space = inst.space
        profile = space.profile_of_labels(["2", "2"])
        assert outcome(inst.rule, profile) == "winner=1,price=2"

    def test_second_price_definition(self):
        inst = second_price(3, [1, 2, 3])
        profile = inst.space.profile_of_labels(["1", "2", "3"])
        assert outcome(inst.rule, profile) == "winner=3,price=2"

    def test_kth_price_parameter_bounds(self):
        with pytest.raises(InputError):
            kth_price(3, [1, 2, 3], 4)

    def test_uniform_price_winners_and_price(self):
        inst = uniform_price(4, [1, 2, 3], 2)
        profile = inst.space.profile_of_labels(["3", "1", "2", "3"])
        # two units: agents 1 and 4 at value 3 win, price is the third highest
        assert (
            outcome(inst.rule, profile)
            == "winners=1+4,price=2"
        )

    def test_components_mark_single_winner(self):
        inst = second_price(3, [1, 2, 3])
        for x in range(inst.rule.outcome_count):
            row = inst.rule.components[x]
            assert sum(1 for c in row if c.startswith("q=1")) == 1


def efficient_by_value_sums(rule, model) -> bool:
    """Reference: the winners' values sum to the sum of as many highest values."""
    for k, profile in enumerate(rule.space.iter_profiles()):
        values = [model.values[i][t] for i, t in enumerate(profile)]
        winners = [i for i, c in enumerate(rule.components[rule.table[k]]) if c.startswith("q=1")]
        best = sorted(values, reverse=True)[: len(winners)]
        if sum(values[i] for i in winners) != sum(best):
            return False
    return True


class TestAuctionEfficiency:
    def test_agrees_with_value_sums_on_random_rules(self):
        rng = random.Random(5)
        verdicts = set()
        for _ in range(400):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            space = TypeSpace(tuple(tuple(f"t{j}" for j in range(s)) for s in sizes))
            pool = [Fraction(rng.randint(-2, 3), rng.randint(1, 2)) for _ in range(4)]
            values = tuple(tuple(rng.choice(pool) for _ in range(s)) for s in sizes)
            rows = {
                tuple(rng.choice(["q=0,t=0", "q=1,t=1/2"]) for _ in sizes)
                for _ in range(rng.randint(1, 4))
            }
            table = tuple(rng.randrange(len(rows)) for _ in range(space.total))
            labels = tuple(f"o{x}" for x in range(len(rows)))
            rule = ChoiceRule(space, labels, table, tuple(sorted(rows)))
            model = DomainModel(kind="auction", values=values)
            expected = efficient_by_value_sums(rule, model)
            assert check_rule_property(rule, model, "efficient").ok == expected
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestDescendingProtocol:
    def test_trace_2_3(self):
        bundle = descending_first_price(2, [1, 2, 3])
        _, _, reached = run_protocol(
            bundle.protocol,
            bundle.instance.space.profile_of_labels(["2", "3"]),
            bundle.instance.rule,
        )
        assert reached == "winner=2,price=3"

    def test_implements_first_price_and_is_private(self):
        for n, values in ((2, [1, 2, 3]), (3, [1, 2, 3, 4, 5])):
            bundle = descending_first_price(n, values)
            rule = bundle.instance.rule
            assert validate_protocol(bundle.protocol) == ()
            assert implements(bundle.protocol, rule).ok
            assert check_protocol_cp(bundle.protocol, rule).ok
            assert check_protocol_icp(bundle.protocol, rule).ok


class TestSerialDictatorship:
    def test_all_orders_all_checks(self):
        for n, n_objects in ((2, 2), (2, 3), (3, 3)):
            objects = ("a", "b", "c")[:n_objects]
            for order in itertools.permutations(range(n)):
                inst = serial_dictatorship(n, objects, order)
                bundle = serial_dictatorship_protocol(inst, order)
                assert implements(bundle.protocol, inst.rule).ok
                assert check_protocol_cp(bundle.protocol, inst.rule).ok
                assert check_protocol_gcp(bundle.protocol, inst.rule).ok
                assert check_protocol_icp(bundle.protocol, inst.rule).ok
                assert check_rule_property(inst.rule, inst.model, "efficient").ok
                assert check_rule_property(inst.rule, inst.model, "sp").ok
                assert check_nonbossy(inst.rule).ok

    def test_table_outcomes(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        space = inst.space
        got = {
            space.labels(p): outcome(inst.rule, p)
            for p in space.iter_profiles()
        }
        assert got[("A>B", "A>B")] == "1:A,2:B"
        assert got[("B>A", "B>A")] == "1:B,2:A"
        assert got[("A>B", "B>A")] == "1:A,2:B"
        assert got[("B>A", "A>B")] == "1:B,2:A"


class TestCountAscending:
    def test_trace_1_2_3(self):
        bundle = count_ascending_price(1, 3, [1, 2, 3])
        space = bundle.instance.space
        path, _, reached = run_protocol(
            bundle.protocol, space.profile_of_labels(["1", "2", "3"]), bundle.instance.rule
        )
        assert reached == "winners=3,price=2"
        kinds = [query for _, query, _ in path]
        # the clearing count at level 1 fails; the level-2 count is then
        # forced on the restricted space and contracts away, leaving the
        # elicitation round that identifies agent 3 by elimination
        assert kinds[0].startswith("count")
        assert all(k.startswith("elicit") for k in kinds[1:])
        assert [pos for _, _, pos in path] == [1, 1, 1]

    def test_price_matches_order_statistic(self):
        for k, n in ((1, 3), (1, 4), (2, 3), (2, 4)):
            bundle = count_ascending_price(k, n, [1, 2, 3])
            space, rule = bundle.instance.space, bundle.instance.rule
            for p in profiles_of(bundle.instance.universe):
                values = sorted((int(space.labels(p)[i]) for i in range(n)), reverse=True)
                label = outcome(rule, p)
                assert label.endswith(f"price={values[k]}")

    def test_tatonnement_and_cp(self):
        for k, n in ((1, 3), (1, 4), (2, 3), (2, 4)):
            bundle = count_ascending_price(k, n, [1, 2, 3])
            assert check_tatonnement(
                bundle.protocol, bundle.instance.rule, bundle.phase
            ).ok


class TestDoubleAuction:
    def test_price_in_median_interval(self):
        for sel in ("lower", "upper"):
            inst = double_auction_walrasian(4, [1, 2, 3], sel)
            for k in range(inst.space.total):
                values = sorted(
                    (int(lab) for lab in inst.space.labels(inst.space.profile(k))),
                    reverse=True,
                )
                label = inst.rule.outcomes[inst.rule.table[k]]
                price = int(label.split(";")[0].split("=")[1])
                assert values[2] <= price <= values[1]

    def test_holdings_balance(self):
        inst = double_auction_walrasian(4, [1, 2], "lower")
        for label in inst.rule.outcomes:
            bits = label.split("h=")[1]
            assert bits.count("1") == 2  # goods never appear or vanish

    def test_both_selections_violate_corners(self):
        for sel in ("lower", "upper"):
            inst = double_auction_walrasian(4, [1, 2], sel)
            assert not corners_scan(inst.rule).ok

    def test_count_protocol(self):
        bundle = double_auction_count(4, [1, 2, 3])
        assert check_tatonnement(bundle.protocol, bundle.instance.rule, bundle.phase).ok

    def test_odd_n_rejected(self):
        with pytest.raises(InputError):
            double_auction_walrasian(5, [1, 2])


def keep_endowments_rule() -> Instance:
    """Everyone keeps her endowment regardless of reports."""
    space, model = _two_houses()
    rule = ChoiceRule(space, ("1:h1,2:h2",), (0,) * space.total, (("h1", "h2"),))
    return Instance(rule, model)


class TestHouseAssignment:
    def test_family_is_pinned_and_violates_corners(self):
        family = house_ir_efficient_family()
        for inst in family:
            assert check_rule_property(inst.rule, inst.model, "ir").ok
            assert check_rule_property(inst.rule, inst.model, "efficient").ok
            assert not corners_scan(inst.rule).ok

    def test_keep_endowments_inefficient(self):
        inst = keep_endowments_rule()
        assert check_rule_property(inst.rule, inst.model, "ir").ok
        res = check_rule_property(inst.rule, inst.model, "efficient")
        assert not res.ok
        assert res.violation["profile"] == ("h2>h1", "h1>h2")


class TestSchool:
    def test_stable_family_violates_corners(self):
        for inst in school_stable_family():
            assert check_rule_property(inst.rule, inst.model, "stable").ok
            assert not corners_scan(inst.rule).ok

    def test_stability_check_finds_blocking_pair(self):
        inst = school_stable_family()[0]
        # swap the outcome at the profile where student 1 outranks student 2
        table = list(inst.rule.table)
        k = inst.space.index(inst.space.profile_of_labels(["s1", "s2"]))
        table[k] = 1 - table[k]
        from cpv.core import ChoiceRule

        broken = ChoiceRule(
            inst.space, inst.rule.outcomes, tuple(table), inst.rule.components
        )
        res = check_rule_property(broken, inst.model, "stable")
        assert not res.ok


class TestMulticountMatching:
    def test_protocol_and_rule(self):
        bundle = multicount_stable_matching()
        inst = bundle.instance
        assert validate_protocol(bundle.protocol) == ()
        assert implements(bundle.protocol, inst.rule).ok
        assert check_tatonnement(bundle.protocol, inst.rule, bundle.phase).ok
        assert check_rule_property(inst.rule, inst.model, "stable").ok

    def test_cutoffs_inside_outcomes(self):
        bundle = multicount_stable_matching()
        rule = bundle.instance.rule
        used = {
            rule.outcomes[rule.table[k]]
            for k in bundle.instance.universe.indices()
        }
        assert all("|cut:" in label for label in used)

    def test_first_clearing_cutoff_is_permissive(self):
        bundle = multicount_stable_matching()
        space = bundle.instance.space
        rule = bundle.instance.rule
        p = space.profile_of_labels(["a>b,a2,b1", "b>a,a1,b2"])
        assert outcome(rule, p) == "1:a,2:b|cut:a1b1"


class TestNonClinching:
    def test_table_matches_definition(self):
        inst = non_clinching()
        got = [inst.rule.outcomes[x] for x in inst.rule.table]
        assert got == ["x1", "x2", "x3", "x4"]

    def test_strategyproof(self):
        inst = non_clinching()
        assert check_rule_property(inst.rule, inst.model, "sp").ok

    def test_group_private_for_any_implementing_protocol(self):
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
            assert check_protocol_gcp(protocol, inst.rule).ok


class TestOsp:
    def app_b_protocol(self, first: int):
        inst = non_clinching()
        spec = NodeSpec(
            ElicitQuery(first, ((0,), (1,))),
            (
                NodeSpec(ElicitQuery(1 - first, ((0,), (1,))), (NodeSpec(), NodeSpec())),
                NodeSpec(ElicitQuery(1 - first, ((0,), (1,))), (NodeSpec(), NodeSpec())),
            ),
        )
        return inst, build_from_spec(inst.space, spec)

    def test_agent1_first_fails_at_root(self):
        inst, protocol = self.app_b_protocol(0)
        res = check_protocol_osp(protocol, inst.rule, inst.model)
        assert not res.ok and res.violation[:2] == (0, 0)

    def test_agent2_first_fails_at_root(self):
        inst, protocol = self.app_b_protocol(1)
        res = check_protocol_osp(protocol, inst.rule, inst.model)
        assert not res.ok and res.violation[:2] == (0, 1)

    def test_serial_dictatorship_obviously_dominant(self):
        inst = serial_dictatorship(2, ("A", "B"), (0, 1))
        bundle = serial_dictatorship_protocol(inst, (0, 1))
        assert check_protocol_osp(bundle.protocol, inst.rule, inst.model).ok

    def test_count_queries_unsupported(self):
        bundle = count_ascending_price(1, 3, [1, 2, 3])
        with pytest.raises(UnsupportedProtocolError):
            check_protocol_osp(
                bundle.protocol, bundle.instance.rule, bundle.instance.model
            )


class TestEfficientCompletions:
    def test_exactly_the_dictatorships_are_private(self):
        sd12 = serial_dictatorship(2, ("A", "B"), (0, 1))
        sd21 = serial_dictatorship(2, ("A", "B"), (1, 0))
        completions = efficient_completions_2x2()
        assert len(completions) == 4
        private = [
            inst for inst in completions if corners_scan(inst.rule).ok
        ]
        assert len(private) == 2

        def table_by_labels(inst):
            return tuple(
                outcome(inst.rule, p)
                for p in inst.space.iter_profiles()
            )

        sd_tables = {table_by_labels(sd12), table_by_labels(sd21)}
        assert {table_by_labels(i) for i in private} == sd_tables


class TestAscendingElicitation:
    def test_implements_but_leaks(self):
        bundle = ascending_elicitation_sp(3, [1, 2, 3])
        rule = bundle.instance.rule
        assert implements(bundle.protocol, rule).ok
        assert not check_protocol_gcp(bundle.protocol, rule).ok
        assert not check_protocol_cp(bundle.protocol, rule).ok


class TestAppC:
    def test_witness_tensor_recomputed(self):
        inst, factors = appC_sp_restriction()
        space, rule = inst.space, inst.rule

        def at(p1, p2, p3):
            return outcome(rule, space.profile_of_labels([str(p1), str(p2), str(p3)]))

        # winner pays the second-highest value; a is agent 2 winning at 6
        assert at(2, 8, 6) == "winner=2,price=6"
        assert at(0, 3, 6) == at(0, 3, 4)  # agent 3's 6 and 4 inseparable
        assert at(5, 8, 4) == at(5, 8, 1)  # agent 3's 4 and 1 inseparable
        from cpv.search import witness_verify

        assert witness_verify(rule, Witness(factors))
