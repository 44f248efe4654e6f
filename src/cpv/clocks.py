"""Built-in auction clocks: the protocols that implement the rules of
:mod:`cpv.auctions`, by elicitation (the descending and ascending clocks)
or by market-clearing counts (the count clocks of the uniform price and the
double auction).

This is the one builder module that imports :mod:`cpv.protocol` at module
level: a clock ``builtin`` builds a protocol, and a rule ``builtin``, which
loads :mod:`cpv.auctions` alone, compiles neither this module nor
``cpv.protocol``.
"""

from __future__ import annotations

from cpv.auctions import (
    _ranks,
    double_auction_walrasian,
    first_price,
    order_statistic_restriction,
    second_price,
    uniform_price,
)
from cpv.core import ChoiceRule, Instance, ProtocolBundle, TypeSpace, constant_on
from cpv.mechanisms import suggested_count_phase
from cpv.protocol import CountQuery, ElicitQuery, build_protocol


def _clock(space: TypeSpace, rule: ChoiceRule, cells):
    """Step function of a price clock.  At each level in turn, each agent in
    order is asked which of the level's cells ``cells[pos]`` of her alphabet
    holds her type.  State ``(pos, agent, last)`` asks ``agent`` at level
    ``pos``; the clock stops after level ``last``, at a level whose cells
    are ``None``, and once the rule is constant on the node's label."""
    queries = [
        None if split is None else [ElicitQuery(agent, split) for agent in range(space.n)]
        for split in cells
    ]

    def step(label: int, state):
        pos, agent, last = state
        if pos > last or queries[pos] is None or constant_on(rule, label):
            return None
        nxt = (pos, agent + 1, last) if agent + 1 < space.n else (pos + 1, 0, last)
        return queries[pos][agent], lambda c, m: nxt

    return step


def _ascending_cells(rank) -> list:
    """Per value rank ``r``, ascending: the cells (types ranked above ``r``,
    the rest), or ``None`` at the top rank, where no type is above."""
    cells = []
    for r in range(len(rank)):
        above = tuple(t for t, s in enumerate(rank) if s > r)
        rest = tuple(t for t, s in enumerate(rank) if s <= r)
        cells.append((above, rest) if above else None)
    return cells


def descending_first_price(n: int, values) -> ProtocolBundle:
    """Price clock falls through the type grid; at each price agents are
    asked in order whether their type equals it, and the first yes wins
    at that price."""
    inst = first_price(n, values)
    rank, _ = _ranks(inst.space)
    m = len(rank)
    levels = sorted(range(m), key=rank.__getitem__, reverse=True)
    step = _clock(inst.space, inst.rule, [((t,), (*range(t), *range(t + 1, m))) for t in levels])
    return ProtocolBundle(inst, build_protocol(inst.space, step, (0, 0, m - 1)))


def ascending_elicitation_sp(n: int, values) -> ProtocolBundle:
    """English-auction style elicitation for the second-price rule: each
    agent in turn is asked whether her type exceeds the clock level.
    Implements the rule but leaks losers' types."""
    inst = second_price(n, values)
    cells = _ascending_cells(_ranks(inst.space)[0])
    step = _clock(inst.space, inst.rule, cells)
    return ProtocolBundle(inst, build_protocol(inst.space, step, (0, 0, len(cells) - 1)))


def count_ascending_price(k: int, n: int, values) -> ProtocolBundle:
    """Ascending market-clearing counts find the (k+1)-th highest type,
    then agents are asked in order whether they are above it. The type
    space is restricted so that the k-th and (k+1)-th highest differ."""
    return _count_clock(uniform_price(n, values, k), k)


def double_auction_count(n: int, values) -> ProtocolBundle:
    """Market-clearing counts find the price, then each agent reveals
    whether she is above it, which pins down all trades.  Restricted so
    the two median types differ."""
    return _count_clock(double_auction_walrasian(n, values, "lower"), n // 2)


def _count_clock(inst0: Instance, k: int) -> ProtocolBundle:
    """Clock over ascending levels: "are exactly k types above the level?"
    until yes, then each agent in order says whether she is above it.
    Restricted so that the k-th and (k+1)-th highest types differ."""
    space = inst0.space
    universe = order_statistic_restriction(space, k)
    inst = Instance(inst0.rule, inst0.model, universe)
    cells = _ascending_cells(_ranks(space)[0])
    clock = _clock(space, inst.rule, cells)

    def step(label: int, state):
        if len(state) == 3:  # the count said yes at this level: the clock asks
            return clock(label, state)
        pos = state[0]
        if cells[pos] is None:  # the top level: no type is above it
            return None
        query = count_equals_query(space, cells[pos][0], k)
        return query, lambda c, m: (pos, 0, pos) if c == 0 else (pos + 1,)

    protocol = build_protocol(space, step, (0,), universe)
    return ProtocolBundle(inst, protocol, suggested_count_phase(protocol))


def count_equals_query(space: TypeSpace, subset, value: int) -> CountQuery:
    """Binary count query: is |{i : type_i in subset}| equal to ``value``?"""
    others = tuple((c,) for c in range(space.n + 1) if c != value)
    return CountQuery((tuple(sorted(set(subset))),), (((value,),), others))
