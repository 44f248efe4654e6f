"""Built-in auction rules: the k-th price, first, second and uniform price
auctions, the double auction, and the order-statistic restriction that the
count clocks of :mod:`cpv.clocks` run on.

Payments are type values written as normalized fractions
(``str(Fraction(label))``: a type labelled ``1.5`` pays ``3/2``), so
nothing is a float and outcome equality is plain label identity.  Ties go
to the lowest agent index.  A rule ``builtin`` loads this module and the
registry :mod:`cpv.mechanisms` alone; no protocol module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache

from cpv.core import DomainModel, InputError, Instance, ProfileSet, TypeSpace, mask_of_flags
from cpv.mechanisms import _tabulate


def auction_space(n: int, values) -> TypeSpace:
    labels = tuple(str(v) for v in values)
    if len(set(_numeric_values(labels))) != len(labels):
        raise InputError("auction type values must be distinct")
    return TypeSpace.shared(n, labels)


def _numeric_values(labels) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, labels))


def _ranks(space: TypeSpace) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Value rank of each type of an auction space (0 for the lowest value)
    and the price label of each rank: the value as a normalized fraction,
    so type ``1.5`` is priced ``3/2``.  The values are distinct, so the ranks
    are a permutation of the types and order them as the values do;
    ``itertools.product(rank, repeat=n)`` lists the profiles in index order,
    each as its types' ranks."""
    values = _numeric_values(space.alphabets[0])
    order = sorted(range(len(values)), key=values.__getitem__)
    rank = sorted(range(len(order)), key=order.__getitem__)  # the inverse of ``order``
    return tuple(rank), tuple(str(values[t]) for t in order)


def _auction_model(space: TypeSpace, kind: str = "auction", endowments=None) -> DomainModel:
    values = _numeric_values(space.alphabets[0])
    return DomainModel(kind=kind, values=(values,) * space.n, endowments=endowments)


def _sales(n: int, price, word: str):
    """Outcome of selling one unit to each of ``winners`` at the price of
    rank ``r``, memoized: a rule has few distinct outcomes."""

    @cache
    def sale(winners: tuple[int, ...], r: int):
        who = "+".join(str(i + 1) for i in winners)
        comps = tuple(f"q=1,t={price[r]}" if i in winners else "q=0,t=0" for i in range(n))
        return f"{word}={who},price={price[r]}", comps

    return sale


def kth_price(n: int, values, k: int) -> Instance:
    """Standard single-winner auction: highest type wins (lowest index on
    ties) and pays the k-th highest type."""
    if not 1 <= k <= n:
        raise InputError(f"k={k} needs 1 <= k <= n={n}")
    space = auction_space(n, values)
    rank, price = _ranks(space)
    sale = _sales(n, price, "winner")
    profiles = itertools.product(rank, repeat=n)
    outcomes = (sale((v.index(max(v)),), sorted(v)[-k]) for v in profiles)
    return _tabulate(space, outcomes, _auction_model(space))


def first_price(n: int, values) -> Instance:
    if n < 1:
        raise InputError("first price needs at least 1 agent")
    return kth_price(n, values, 1)


def second_price(n: int, values) -> Instance:
    if n < 2:
        raise InputError("second price needs at least 2 agents")
    return kth_price(n, values, 2)


def uniform_price(n: int, values, k: int) -> Instance:
    """k units: the k highest types win (lexicographic on ties) and each
    pays the (k+1)-th highest type."""
    if not 1 <= k < n:
        raise InputError(f"k={k} needs 1 <= k < n={n}")
    space = auction_space(n, values)
    rank, price = _ranks(space)
    sale = _sales(n, price, "winners")

    def outcome(v):
        ranked = sorted(range(n), key=lambda i: -v[i])
        return sale(tuple(sorted(ranked[:k])), v[ranked[k]])

    profiles = itertools.product(rank, repeat=n)
    return _tabulate(space, map(outcome, profiles), _auction_model(space))


def order_statistic_restriction(space: TypeSpace, k: int) -> ProfileSet:
    """Profiles of an auction space whose k-th and (k+1)-th highest types differ."""
    rank, _ = _ranks(space)
    keep = bytearray()
    for v in itertools.product(rank, repeat=space.n):
        ranked = sorted(v)
        keep.append(ranked[-k] != ranked[-k - 1])
    if not any(keep):
        raise InputError("order-statistic restriction leaves an empty space")
    return ProfileSet(space, mask_of_flags(keep))


def appC_sp_restriction():
    """Second-price instance on nine types together with the 3x3x3 product
    set whose outcome tensor certifies impossibility without ties."""
    inst = second_price(3, list(range(9)))
    factors = ((5, 0, 2), (8, 7, 3), (6, 4, 1))
    return inst, tuple(tuple(sorted(f)) for f in factors)


# --- double auction ---------------------------------------------------------


def double_auction_walrasian(n: int, values, selection: str = "lower") -> Instance:
    """Uniform-price double auction.  Agents 1..n/2 are buyers, the rest
    sellers with one good each.  The price is an endpoint of the median
    interval of the type profile; agents strictly above the price hold a
    good afterwards, leftover goods stay with marginal sellers (then go
    to marginal buyers), lexicographically.
    """
    if n < 2 or n % 2:
        raise InputError("double auction needs an even number of agents")
    if selection not in ("lower", "upper"):
        raise InputError("price selection must be 'lower' or 'upper'")
    m = n // 2
    space = auction_space(n, values)
    rank, price = _ranks(space)
    endow = tuple([0] * m + [1] * m)
    marginal_order = (*range(m, n), *range(m))  # sellers, then buyers

    @cache
    def trade(r: int, held: frozenset):
        t = price[r]
        comps = tuple(
            f"h=1,t={t}" if i in held and not endow[i]
            else f"h=0,t=-{t}" if i not in held and endow[i]
            else f"h={int(i in held)},t=0"
            for i in range(n)
        )
        bits = "".join("1" if i in held else "0" for i in range(n))
        return f"p={t};h={bits}", comps

    def outcome(v):
        r = sorted(v)[m - 1 if selection == "lower" else m]
        above = [i for i in range(n) if v[i] > r]
        marginal = [i for i in marginal_order if v[i] == r]
        return trade(r, frozenset(above + marginal[: m - len(above)]))

    model = _auction_model(space, "double_auction", endow)
    return _tabulate(space, map(outcome, itertools.product(rank, repeat=n)), model)
