"""The economic property checks: efficiency, individual rationality,
stability and strategyproofness of a rule, and obvious dominance of an
elicitation protocol.

Auction outcomes are read from their components, ``q=<0|1>,t=<price>``
with the price a normalized fraction, as :mod:`cpv.auctions` writes
them.  Individual rationality, stability and Pareto efficiency are each
decided by one per-profile test, ``_irrational``, ``_blocking``,
``_inefficient``: given ``(model, profile, assignment)``, an outcome's
per-agent components, it returns the fields of its fault's counterexample,
or ``None``.  The checks scan profiles with them, and the rule families of
:mod:`cpv.matching` complete the assignments that the tests admit at
each profile.  ``sp`` has no such test, since a misreport moves along a
line of unilateral neighbours; auction efficiency keeps its own winner
scan.

Only ``cpv check`` of these properties imports this module; ``builtin``,
which builds rules and protocols in the families of :mod:`cpv.mechanisms`,
compiles none of it but for the families of :mod:`cpv.matching` that
complete the tests' admissible assignments.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from typing import Optional

from cpv.core import (
    ChoiceRule,
    DomainModel,
    InputError,
    ProfileSet,
    TypeSpace,
    Verdict,
    mask_flags,
    outcome_ids,
)


class UnsupportedProtocolError(InputError):
    """The operation supports a narrower protocol class than it was given."""


def _pref_rank(model: DomainModel, agent: int, type_index: int, obj: str) -> int:
    """The position of ``obj`` in the preference order of the agent's type."""
    order = model.type_prefs[agent][type_index]
    try:
        return order.index(obj)
    except ValueError:
        raise InputError(f"object {obj!r} missing from a preference order") from None


def _score(model: DomainModel, agent: int, type_index: int, school: str) -> int:
    """The score of the agent's type at ``school``."""
    for c, s in model.type_scores[agent][type_index]:
        if c == school:
            return s
    raise InputError(f"no score for school {school!r}")


# The model fields that the checks of each kind read.
_READS = {
    "auction": ("values",), "double_auction": ("values",), "assignment": ("objects", "type_prefs"),
    "house": ("objects", "type_prefs", "endowments"),
    "school": ("objects", "capacities", "type_prefs", "type_scores"),
}


def _readable(rule: ChoiceRule, model: DomainModel) -> None:
    """Refuses a model, or a rule, that lacks what the checks of its kind read."""
    if model is None:
        raise InputError("property checks need a domain model")
    missing = [field for field in _READS.get(model.kind, ()) if getattr(model, field) is None]
    if missing:
        raise InputError(f"a {model.kind!r} model needs {', '.join(missing)} for its checks")
    if model.kind in _READS and not rule.has_components:
        raise InputError(f"checks of a {model.kind!r} model need per-agent outcome components")


def check_rule_property(
    rule: ChoiceRule, model: DomainModel, prop: str, universe: ProfileSet | None = None
) -> Verdict:
    """Decides ``prop`` on the profiles of ``universe`` (the whole space by
    default): only those profiles are scanned, a misreport counts only if
    its profile lies there too, and only the outcomes the rule takes there
    are ranked.  A violation is the counterexample as a report gives it."""
    _readable(rule, model)
    checks = {
        "efficient": _check_efficient,
        "ir": _check_ir,
        "stable": _check_stable,
        "sp": _check_sp,
    }
    if prop not in checks:
        raise InputError(f"unknown property {prop!r}")
    mask = (1 << rule.space.total) - 1 if universe is None else universe.mask
    return checks[prop](rule, model, mask)


def _scan(space: TypeSpace, mask: int):
    """``(index, profile)`` of each profile in the mask, ascending."""
    return itertools.compress(enumerate(space.iter_profiles()), mask_flags(mask, space.total))


def _first_fault(rule: ChoiceRule, mask: int, test) -> Verdict:
    """A per-profile ``test``'s verdict: the first fault in the mask, if any."""
    space = rule.space
    for k, profile in _scan(space, mask):
        fault = test(profile, rule.components[rule.table[k]])
        if fault is not None:
            return Verdict(False, {"profile": space.labels(profile), **fault})
    return Verdict(True)


def _check_efficient(rule: ChoiceRule, model: DomainModel, mask: int) -> Verdict:
    space = rule.space
    if model.kind == "auction":
        # Winners per outcome id, read once.  The winners are efficient iff
        # their values are the highest ones, which integer ranks of the
        # values decide as well as the values do.
        winners = {
            o: [i for i, c in enumerate(rule.components[o]) if _parse_auction_component(c)[0] == 1]
            for o in sorted(outcome_ids(rule, mask))
        }
        order = {v: r for r, v in enumerate(sorted({v for row in model.values for v in row}))}
        ranks = [[order[v] for v in row] for row in model.values]
        for k, profile in _scan(space, mask):
            v = [ranks[i][t] for i, t in enumerate(profile)]
            won = winners[rule.table[k]]
            if sorted(v[i] for i in won) != sorted(v)[len(v) - len(won):]:
                return Verdict(
                    False, {"profile": space.labels(profile), "winners": [i + 1 for i in won]}
                )
        return Verdict(True)
    if model.kind in ("assignment", "house"):
        return _first_fault(rule, mask, partial(_inefficient, model))
    raise InputError(f"efficiency is not defined for kind {model.kind!r}")


def _inefficient(model: DomainModel, profile, assignment) -> Optional[dict]:
    """``{"dominating": label}`` of the first assignment of the model's
    objects that Pareto-dominates ``assignment`` at the profile, or ``None``."""
    n = len(profile)
    ranks = [_pref_rank(model, i, profile[i], assignment[i]) for i in range(n)]
    for b in itertools.permutations(model.objects, n):
        alt = [_pref_rank(model, i, profile[i], b[i]) for i in range(n)]
        if all(x <= r for x, r in zip(alt, ranks)) and any(x < r for x, r in zip(alt, ranks)):
            from cpv.matching import _assignment_outcome

            return {"dominating": _assignment_outcome(b)}
    return None


def _check_ir(rule: ChoiceRule, model: DomainModel, mask: int) -> Verdict:
    if model.kind not in ("house", "auction"):
        raise InputError(f"individual rationality is not defined for kind {model.kind!r}")
    # every part of every outcome the mask reaches is judged once, in the
    # order (agent, type, outcome id), so a malformed one is refused first
    ids = sorted(outcome_ids(rule, mask))
    judged = {
        (i, t, c): _rational(model, i, t, c)
        for i, size in enumerate(rule.space.sizes) for t in range(size)
        for c in (rule.components[o][i] for o in ids)
    }
    test = partial(_irrational, model, rational=lambda _, *key: judged[key])
    return _first_fault(rule, mask, test)


def _rational(model: DomainModel, agent: int, t: int, component: str) -> bool:
    """Whether the agent of true type ``t`` weakly prefers ``component`` to
    her outside option: her endowment in a house model, utility 0 in an
    auction."""
    floor = _utility(model, agent, t, model.endowments[agent]) if model.kind == "house" else 0
    return _utility(model, agent, t, component) >= floor


def _irrational(model: DomainModel, profile, assignment, rational=_rational) -> Optional[dict]:
    """``{"agent": i}`` of the first agent ``i`` (from 1) whose part is not
    ``rational`` for her, :func:`_rational` or a table of it, or ``None``."""
    for i, (t, component) in enumerate(zip(profile, assignment)):
        if not rational(model, i, t, component):
            return {"agent": i + 1}
    return None


def _check_stable(rule: ChoiceRule, model: DomainModel, mask: int) -> Verdict:
    if model.kind != "school":
        raise InputError(f"stability is not defined for kind {model.kind!r}")
    return _first_fault(rule, mask, partial(_blocking, model))


def _blocking(model: DomainModel, profile, assignment) -> Optional[dict]:
    """``{"student": i, "school": c}`` of the first blocking pair, or ``None``:
    student ``i`` (from 1) prefers ``c`` to her school, and ``c`` has a free
    seat or a student it scores below her.  A student placed outside the
    schools (a profile outside the modeled region) blocks nothing."""
    capacities = dict(model.capacities)
    placed: dict[str, list[int]] = {}
    for i, own in enumerate(assignment):
        placed.setdefault(own, []).append(i)
    for i, own in enumerate(assignment):
        if own not in model.objects:
            continue
        own_rank = _pref_rank(model, i, profile[i], own)
        for c in model.objects:
            if _pref_rank(model, i, profile[i], c) >= own_rank:
                continue
            at_c = placed.get(c, [])
            if len(at_c) < capacities.get(c, 0):
                return {"student": i + 1, "school": c}
            my_score = _score(model, i, profile[i], c)
            if any(_score(model, j, profile[j], c) < my_score for j in at_c):
                return {"student": i + 1, "school": c}
    return None


def _parse_auction_component(comp: str) -> tuple[int, Fraction]:
    try:
        q_part, t_part = comp.split(",", 1)
        return int(q_part.split("=")[1]), Fraction(t_part.split("=")[1])
    except (ValueError, IndexError, ZeroDivisionError):
        raise InputError(f"malformed auction component {comp!r}") from None


def _check_sp(rule: ChoiceRule, model: DomainModel, mask: int) -> Verdict:
    space = rule.space
    ranks = outcome_ranks(rule, model, outcome_ids(rule, mask))
    # a profile outside the mask gets the extra outcome id ``last``, ranked last
    last = rule.outcome_count
    table = [o if m else last for o, m in zip(rule.table, mask_flags(mask, space.total))]
    for row in itertools.chain.from_iterable(ranks):
        row.append(last)
    for k, profile in _scan(space, mask):
        for i, t in enumerate(profile):
            row, stride = ranks[i][t], space.strides[i]
            start = k - t * stride  # the agent's reports run from here by stride
            reports = [row[o] for o in table[start : start + space.sizes[i] * stride : stride]]
            if min(reports) < reports[t]:
                lie = next(s for s, r in enumerate(reports) if r < reports[t])
                report = space.alphabets[i][lie]
                example = {"profile": space.labels(profile), "agent": i + 1, "report": report}
                return Verdict(False, example)
    return Verdict(True)


def _utility(model: DomainModel, agent: int, type_index: int, component: str):
    """What the agent of the given true type gets from ``component``, her
    part of an outcome: the quasilinear utility ``q*v - t`` in auction
    domains, minus the position of her object in her preference order in
    assignment, house and school domains."""
    if model.kind in ("auction", "double_auction"):
        q, t = _parse_auction_component(component)
        return q * model.values[agent][type_index] - t
    if model.kind in ("assignment", "house", "school"):
        return -_pref_rank(model, agent, type_index, component)
    raise InputError(f"no outcome ranking available for kind {model.kind!r}")


def outcome_ranks(rule: ChoiceRule, model: DomainModel, ids) -> list[list[list]]:
    """``[agent][type][outcome id]``: the rank of each outcome id in ``ids``
    for the agent with that true type, ``None`` for the other ids.  Ranks
    are dense integers; smaller is better and ties share a rank.  They
    follow the model's outcome preferences when it has them (the position
    of the group holding the outcome's label), and :func:`_utility` of the
    agent's component otherwise."""
    _readable(rule, model)
    ids = sorted(ids)
    ranks = []
    for i, size in enumerate(rule.space.sizes):
        ranks.append([])
        for t in range(size):
            if model.outcome_prefs is None:
                key = [-_utility(model, i, t, rule.components[o][i]) for o in ids]
            else:
                groups = model.outcome_prefs[i][t]
                position = {label: r for r, group in enumerate(groups) for label in group}
                try:
                    key = [position[rule.outcomes[o]] for o in ids]
                except KeyError as exc:
                    missing = f"outcome {exc.args[0]!r} missing from agent {i + 1}'s preferences"
                    raise InputError(missing) from None
            dense = {v: r for r, v in enumerate(sorted(set(key)))}
            row = [None] * rule.outcome_count
            for o, v in zip(ids, key):
                row[o] = dense[v]
            ranks[i].append(row)
    return ranks


# ---------------------------------------------------------------------------
# obvious dominance


def check_protocol_osp(protocol, rule: ChoiceRule, model: DomainModel) -> Verdict:
    """At every query the truthful cell's worst continuation must weakly
    beat every other cell's best continuation, under the mover's
    true-type ranking.  Elicitation protocols only.  A violation reads
    ``(node, agent, true type, deviating child)``.  The protocol's classes
    are imported here: the rule families of :mod:`cpv.matching` read this
    module's per-profile tests and build no protocol."""
    from cpv.protocol import ElicitQuery

    space = protocol.space
    ranks = outcome_ranks(rule, model, outcome_ids(rule, protocol.universe))
    for v in protocol.nodes:
        if v.is_leaf:
            continue
        if not isinstance(v.query, ElicitQuery):
            raise UnsupportedProtocolError(
                f"node {v.id}: obvious dominance needs elicitation queries"
            )
        agent = v.query.agent
        masks = [protocol.nodes[c].label for c in v.children]
        failure = _osp_node_failure(space, rule, ranks, agent, masks)
        if failure is not None:
            true_t, pos = failure
            return Verdict(False, (v.id, agent, true_t, v.children[pos]))
    return Verdict(True)


def osp_to_json(space: TypeSpace, violation) -> dict:
    """An obvious-dominance violation as a report gives it."""
    node, agent, true_type, _ = violation
    return {"node": node, "agent": agent + 1, "true_type": space.alphabets[agent][true_type]}


def _osp_node_failure(space: TypeSpace, rule: ChoiceRule, ranks, agent: int, masks):
    """First (true type, deviating child position) at an elicitation node
    of ``agent`` whose children carry ``masks``, or ``None``; ``ranks`` is
    an :func:`outcome_ranks` table holding every outcome under the masks.

    True types are tried in ascending order; for each, its own child is the
    first mask that meets the type's digit mask, and the worst outcome of
    that child within the digit mask must weakly beat the best outcome of
    every other child.
    """
    outcomes = [outcome_ids(rule, m) for m in masks]
    for true_t in range(space.sizes[agent]):
        digit = space.digit_mask(agent, (true_t,))
        own = next((pos for pos, m in enumerate(masks) if m & digit), None)
        if own is None:
            continue
        row = ranks[agent][true_t]
        worst = max(map(row.__getitem__, outcome_ids(rule, masks[own] & digit)))
        for pos, outs in enumerate(outcomes):
            if pos != own and min(map(row.__getitem__, outs)) < worst:
                return true_t, pos
    return None
