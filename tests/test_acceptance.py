"""Acceptance suite: every headline possibility/impossibility result at
desk scale, one criterion per test, one PASS/FAIL line each (run with
``pytest tests/test_acceptance.py -s`` to see the lines)."""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

from cpv.core import Witness
from cpv.mechanisms import (
    appC_sp_restriction,
    count_ascending_price,
    descending_first_price,
    double_auction_count,
    double_auction_walrasian,
    efficient_completions_2x2,
    fair_tiebreak_2x2,
    fair_two_query_protocol,
    first_price,
    house_ir_efficient_family,
    kth_price,
    multicount_stable_matching,
    non_clinching,
    school_count_instance,
    school_stable_family,
    second_price,
    serial_dictatorship,
    serial_dictatorship_protocol,
    uniform_price,
)
from cpv.privacy import check_protocol_cp
from cpv.properties import check_protocol_osp, check_rule_property
from cpv.protocol import (
    CountQuery,
    ElicitQuery,
    MultiCountQuery,
    NodeSpec,
    Protocol,
    build_from_spec,
    implements,
)
from cpv.search import exhaustive_cp_search, synthesize_or_witness, witness_verify
from cpv.synthesis import check_nonbossy, corners_scan
from cpv.tatonnement import check_tatonnement, phase_discovery
from cpv.variants import check_protocol_gcp, check_protocol_icp

from corpus import (
    corpus_seeds,
    random_component_rule,
    random_implementing_protocol,
    random_rule,
)
from oracles import exhaustive_osp_search, obstruction_scan, witness_oracle

ELICIT = "elicit"


@contextmanager
def criterion(num: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{num:2d}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[{num:2d}] PASS {label} ({elapsed * 1000:.1f} ms)")


def test_c01_fair_rule_is_not_contextually_private():
    with criterion(1, "fair tie-break rule: witness, nonexistence, agent-2 leak"):
        inst = fair_tiebreak_2x2()
        protocol = fair_two_query_protocol(inst).protocol

        def body():
            synth = synthesize_or_witness(inst.rule)
            search = exhaustive_cp_search(inst.rule, ELICIT)
            verdict = check_protocol_cp(protocol, inst.rule)
            return synth, search, verdict

        body()  # warm caches so the timed run measures steady state
        start = time.perf_counter()
        synth, search, verdict = body()
        elapsed = time.perf_counter() - start

        assert isinstance(synth, Witness)
        assert synth.factors == ((0, 1), (0, 1))
        assert search.status == "nonexistent"
        assert not verdict.ok
        assert verdict.violation.agent == 1  # agent 2, 1-based
        assert elapsed < 0.001


def test_c02_efficient_completions_split_into_dictatorships_and_leaks():
    with criterion(2, "2x2 efficient completions: exactly the two dictatorships are private"):
        completions = efficient_completions_2x2()
        assert len(completions) == 4
        sd_tables = set()
        for order in ((0, 1), (1, 0)):
            inst = serial_dictatorship(2, ("A", "B"), order)
            sd_tables.add(
                tuple(inst.rule.outcomes[x] for x in inst.rule.table)
            )
        private, leaky = [], []
        for inst in completions:
            table = tuple(inst.rule.outcomes[x] for x in inst.rule.table)
            ok = corners_scan(inst.rule).ok
            synth = synthesize_or_witness(inst.rule)
            assert ok == isinstance(synth, Protocol)
            (private if ok else leaky).append(table)
            if not ok:
                assert witness_verify(inst.rule, synth)
        assert set(private) == sd_tables
        assert len(leaky) == 2


def test_c03_serial_dictatorships_have_every_property():
    with criterion(3, "serial dictatorship: CP+GCP+ICP, efficient, SP, non-bossy (all orders)"):
        start = time.perf_counter()
        cases = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
        for n, n_objects in cases:
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
        assert time.perf_counter() - start < 1.0


def test_c04_descending_protocol_implements_first_price_privately():
    with criterion(4, "descending clock implements first price with CP and ICP"):
        for n, values in ((2, [1, 2, 3]), (2, [1, 2, 3, 4, 5]), (3, [1, 2, 3]), (3, [1, 2, 3, 4, 5])):
            bundle = descending_first_price(n, values)
            reference = first_price(n, values)
            assert bundle.instance.rule.table == reference.rule.table
            assert implements(bundle.protocol, bundle.instance.rule).ok
            assert check_protocol_cp(bundle.protocol, bundle.instance.rule).ok
            assert check_protocol_icp(bundle.protocol, bundle.instance.rule).ok


def test_c05_second_price_impossibility_and_no_ties_certificate():
    with criterion(5, "second price: corners violation, witness, 9-type no-ties certificate"):
        start = time.perf_counter()
        spa = second_price(3, [1, 2, 3])
        assert not corners_scan(spa.rule).ok
        synth = synthesize_or_witness(spa.rule)
        assert isinstance(synth, Witness)
        assert witness_verify(spa.rule, synth)

        big, factors = appC_sp_restriction()
        assert factors == ((0, 2, 5), (3, 7, 8), (1, 4, 6))
        assert witness_verify(big.rule, Witness(factors))
        restricted = synthesize_or_witness(big.rule, factors)
        assert isinstance(restricted, Witness)
        assert restricted.factors == factors
        assert time.perf_counter() - start < 5.0


def test_c06_uniform_price_impossibility():
    with criterion(6, "uniform price auctions: witness for k units with n = k+2"):
        for k in (1, 2, 3):
            inst = uniform_price(k + 2, [1, 2, 3], k)
            synth = synthesize_or_witness(inst.rule)
            assert isinstance(synth, Witness)
            assert witness_verify(inst.rule, synth)


def test_c07_house_assignment_impossibility():
    with criterion(7, "house assignment: every IR+efficient completion violates corners"):
        family = house_ir_efficient_family()
        assert family
        for inst in family:
            assert check_rule_property(inst.rule, inst.model, "ir").ok
            assert check_rule_property(inst.rule, inst.model, "efficient").ok
            assert not corners_scan(inst.rule).ok


def test_c08_stable_matching_impossibility():
    with criterion(8, "school choice: every stable completion violates corners"):
        family = school_stable_family()
        assert family
        for inst in family:
            assert check_rule_property(inst.rule, inst.model, "stable").ok
            assert not corners_scan(inst.rule).ok


def test_c09_double_auction_impossibility():
    with criterion(9, "double auction: both median price selections violate corners"):
        for selection in ("lower", "upper"):
            inst = double_auction_walrasian(4, [1, 2], selection)
            result = corners_scan(inst.rule)
            assert not result.ok
            v = result.violation
            # the failing square sits at the ambiguous median interval:
            # the two varied agents flip between the low and high type
            assert v.types_i == (0, 1) and v.types_j == (0, 1)


def test_c10_count_queries_enable_private_auctions():
    with criterion(10, "count protocols: ascending uniform price and double auction are private"):
        bundles = [
            count_ascending_price(k, n, [1, 2, 3])
            for k, n in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
        ]
        bundles.append(double_auction_count(4, [1, 2, 3]))
        for bundle in bundles:
            rule = bundle.instance.rule
            assert check_tatonnement(bundle.protocol, rule, bundle.phase).ok
            assert check_protocol_cp(bundle.protocol, rule).ok
            discovered = phase_discovery(bundle.protocol, rule)
            assert discovered is not None
            assert check_tatonnement(bundle.protocol, rule, discovered).ok
            count_nodes = {
                v.id
                for v in bundle.protocol.nodes
                if isinstance(v.query, CountQuery)
            }
            assert count_nodes <= set(discovered)


def test_c11_count_queries_cannot_stabilize_matching():
    with criterion(11, "school scores: every separating elicit/count query leaks; search agrees"):
        inst = school_count_instance()
        family = "elicit,count"
        report = obstruction_scan(inst.rule, inst.universe, family)
        assert report.nonconstant
        assert report.holds
        assert all(not e.safe for e in report.entries)

        space = inst.space

        def idx(l1, l2):
            return space.index(space.profile_of_labels([l1, l2]))

        p = {1: idx("s1", "s2"), 2: idx("s1'", "s2"), 3: idx("s1", "s2'"), 4: idx("s1'", "s2'")}

        def norm(partition):
            return frozenset(frozenset(c) for c in partition)

        count_partitions = {
            norm(e.partition) for e in report.entries if e.kind == "count"
        }
        assert count_partitions == {
            norm(((p[1], p[2]), (p[3], p[4]))),
            norm(((p[1], p[3]), (p[2], p[4]))),
            norm(((p[1],), (p[2], p[3]), (p[4],))),
            norm(((p[3],), (p[1], p[4]), (p[2],))),
        }
        search = exhaustive_cp_search(inst.rule, family, universe=inst.universe)
        assert search.status == "nonexistent"


def test_c12_multicount_queries_stabilize_matching():
    with criterion(12, "multi-count cutoff search yields a private stable protocol"):
        bundle = multicount_stable_matching()
        inst = bundle.instance
        assert any(
            isinstance(v.query, MultiCountQuery) for v in bundle.protocol.nodes
        )
        assert check_tatonnement(bundle.protocol, inst.rule, bundle.phase).ok
        assert check_protocol_cp(bundle.protocol, inst.rule).ok
        assert check_rule_property(inst.rule, inst.model, "stable").ok


def test_c13_group_privacy_without_obvious_dominance():
    with criterion(13, "injective two-type rule: SP and group-private, yet never OSP"):
        start = time.perf_counter()
        inst = non_clinching()
        assert check_rule_property(inst.rule, inst.model, "sp").ok
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
            assert not check_protocol_osp(protocol, inst.rule, inst.model).ok
        search = exhaustive_osp_search(inst.rule, inst.model)
        assert search.status == "nonexistent"
        assert time.perf_counter() - start < 1.0


def test_c14_characterization_equivalence_on_random_rules():
    with criterion(14, "500 random rules: synthesis, witness oracle, and search agree"):
        seeds = corpus_seeds(500, offset=14)
        for seed in seeds:
            rule = random_rule(seed)
            synth = synthesize_or_witness(rule)
            oracle = witness_oracle(rule)
            search = exhaustive_cp_search(rule, ELICIT)
            assert search.status in ("found", "nonexistent")
            assert isinstance(synth, Protocol) == (oracle is None) == (search.status == "found"), (
                f"disagreement at seed {seed}"
            )
            if isinstance(synth, Witness):
                assert witness_verify(rule, synth)
                assert witness_verify(rule, oracle)


def _builtin_protocol_rule_pairs():
    pairs = []
    inst = serial_dictatorship(2, ("A", "B"), (0, 1))
    pairs.append((serial_dictatorship_protocol(inst, (0, 1)).protocol, inst.rule, None))
    inst3 = serial_dictatorship(3, ("a", "b", "c"), (1, 0, 2))
    pairs.append((serial_dictatorship_protocol(inst3, (1, 0, 2)).protocol, inst3.rule, None))
    b = descending_first_price(2, [1, 2, 3])
    pairs.append((b.protocol, b.instance.rule, None))
    b = count_ascending_price(1, 3, [1, 2, 3])
    pairs.append((b.protocol, b.instance.rule, b.phase))
    b = double_auction_count(4, [1, 2, 3])
    pairs.append((b.protocol, b.instance.rule, b.phase))
    b = multicount_stable_matching()
    pairs.append((b.protocol, b.instance.rule, b.phase))
    fair = fair_tiebreak_2x2()
    pairs.append((fair_two_query_protocol(fair).protocol, fair.rule, None))
    from cpv.mechanisms import ascending_elicitation_sp

    b = ascending_elicitation_sp(3, [1, 2, 3])
    pairs.append((b.protocol, b.instance.rule, None))
    return pairs


def test_c15_implication_chains():
    with criterion(15, "GCP=>CP, ICP=>CP, CP+nonbossy<=>ICP, tatonnement=>CP everywhere"):
        for protocol, rule, phase in _builtin_protocol_rule_pairs():
            cp = check_protocol_cp(protocol, rule).ok
            if check_protocol_gcp(protocol, rule).ok:
                assert cp
            if rule.has_components and check_protocol_icp(protocol, rule).ok:
                assert cp
            if phase is not None and check_tatonnement(protocol, rule, phase).ok:
                assert cp
        import random

        for seed in corpus_seeds(120, offset=15):
            rule = random_component_rule(seed)
            protocol = random_implementing_protocol(rule, seed + 1)
            cp = check_protocol_cp(protocol, rule).ok
            gcp = check_protocol_gcp(protocol, rule).ok
            icp = check_protocol_icp(protocol, rule).ok
            nonbossy = check_nonbossy(rule).ok
            if gcp:
                assert cp
            if icp:
                assert cp and nonbossy
            if cp and nonbossy:
                assert icp
            rng = random.Random(seed ^ 0x99)
            members = {0}
            frontier = list(protocol.root.children)
            while frontier and rng.random() < 0.5:
                v = frontier.pop(rng.randrange(len(frontier)))
                members.add(v)
                frontier.extend(protocol.nodes[v].children)
            if check_tatonnement(protocol, rule, members).ok:
                assert cp


def test_c16_rank_payment_uniqueness():
    with criterion(16, "rank payments: only the first-price rule is efficient and private"):
        verdicts = {}
        for k in (1, 2, 3):
            inst = kth_price(3, [1, 2, 3], k)
            efficient = check_rule_property(inst.rule, inst.model, "efficient").ok
            private = isinstance(synthesize_or_witness(inst.rule), Protocol)
            verdicts[k] = (efficient, private)
        assert verdicts == {1: (True, True), 2: (True, False), 3: (True, False)}


def test_c05_boundary_two_bidders():
    with criterion(5, "second price: private with 2 bidders, a witness from 3 on"):
        for m, nodes in ((3, 9), (4, 13), (6, 21)):
            rule = second_price(2, list(range(1, m + 1))).rule
            synth = synthesize_or_witness(rule)
            assert isinstance(synth, Protocol) and len(synth.nodes) == nodes
            assert check_protocol_cp(synth, rule).ok
        rule = second_price(3, [1, 2, 3]).rule
        assert witness_verify(rule, synthesize_or_witness(rule))


def test_c17_uniform_price_with_one_loser():
    # The repository's finding, not a result of the paper: with k = n-1
    # units only one bidder loses, and an elicitation protocol is private.
    with criterion(17, "uniform price: private with k = n-1 units, a witness for k <= n-2"):
        nodes = {(3, 3): 13, (3, 4): 19, (4, 3): 17, (4, 4): 25}
        for (n, m), count in nodes.items():
            for k in range(1, n):
                rule = uniform_price(n, list(range(1, m + 1)), k).rule
                synth = synthesize_or_witness(rule)
                if k == n - 1:
                    assert isinstance(synth, Protocol) and len(synth.nodes) == count
                    assert check_protocol_cp(synth, rule).ok
                else:
                    assert witness_verify(rule, synth)
