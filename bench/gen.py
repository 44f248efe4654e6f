"""Seeded random choice rules for the ``random_search`` workload.

Every rule is a pure function of the seed and is written as a ``cpv-1``
instance file; the program under test sees only the files.  Three kinds
are drawn, each with a known or cross-checked verdict:

* ``tree``: the outcome table of a random sequential-elicitation tree whose
  leaves carry pairwise distinct outcomes.  That tree is contextually
  private, so a private protocol exists (synthesis and search must find one).
* ``planted``: a ``tree`` rule with one 2x2 square overwritten so that three
  corners share an outcome and the fourth differs.  The corners condition
  fails, so no private elicitation protocol exists.
* ``uniform``: outcomes drawn uniformly; its verdict is unknown beforehand
  and is decided by the oracle's cross-checks alone.
"""

from __future__ import annotations

import itertools
import random

OUTCOME_POOL = 40
# (kind, types per agent) per slot.  The search cost of one rule varies
# widely with the seed (its coefficient of variation is about 0.65 for every
# kind), so the slots favour cheap, steady tree rules and keep the planted
# and uniform rules small; fixed slot kinds keep the total effort of one seed
# close to that of any other.  Uniform rules use 6 types because at 8 types
# their search is heavy-tailed (up to 3 000+ states against a median of a
# few hundred).  Few rules keep a pass short.  The planted rule searched
# with count queries uses 5 types: over 30 seeds, its search time alone
# had a standard deviation of 0.15 s at 7 types, most of the seed-to-seed
# spread of a whole pass, and 0.025 s at 5 (in-process, two-core x86-64
# VM, Python 3.11).
ELICIT_SLOTS = (("tree", 8),) * 4 + (("planted", 7),) * 3 + (("uniform", 6),)
COUNT_SLOTS = (("tree", 7), ("planted", 5))


def _tree_table(rng: random.Random, m: int, max_leaves: int) -> dict:
    """Profile -> leaf number of a random two-agent elicitation tree."""
    leaves = [(tuple(range(m)), tuple(range(m)))]
    target = rng.randint(max_leaves // 2, max_leaves)
    while len(leaves) < target:
        splittable = [k for k, (a, b) in enumerate(leaves) if len(a) > 1 or len(b) > 1]
        if not splittable:
            break
        a, b = leaves.pop(rng.choice(splittable))
        agent = rng.choice([i for i, f in enumerate((a, b)) if len(f) > 1])
        types = list((a, b)[agent])
        rng.shuffle(types)
        cut = rng.randint(1, len(types) - 1)
        for part in (tuple(sorted(types[:cut])), tuple(sorted(types[cut:]))):
            leaves.append((part, b) if agent == 0 else (a, part))
    table = {}
    for leaf, (a, b) in enumerate(leaves):
        for p in itertools.product(a, b):
            table[p] = leaf
    return table


def _rule(rng: random.Random, kind: str, m: int) -> dict:
    pool = [f"x{k}" for k in range(OUTCOME_POOL)]
    if kind == "uniform":
        table = {p: rng.choice(pool) for p in itertools.product(range(m), repeat=2)}
    else:
        leaf_of = _tree_table(rng, m, OUTCOME_POOL)
        names = rng.sample(pool, max(leaf_of.values()) + 1)
        table = {p: names[leaf] for p, leaf in leaf_of.items()}
        if kind == "planted":
            a, b = sorted(rng.sample(range(m), 2))
            c, d = sorted(rng.sample(range(m), 2))
            shared, fourth = rng.sample(pool, 2)
            table[(a, c)] = table[(a, d)] = table[(b, c)] = shared
            table[(b, d)] = fourth
    labels = [f"t{k}" for k in range(m)]
    return {
        "schema": "cpv-1",
        "agents": 2,
        "alphabet": labels,
        "rule": {
            "table": [
                {"profile": [labels[p[0]], labels[p[1]]], "outcome": table[p]}
                for p in itertools.product(range(m), repeat=2)
            ]
        },
    }


def generate(seed: int) -> list[tuple[str, dict, dict]]:
    """``(name, cpv-1 document, meta)`` for every rule of one seed.

    ``meta`` holds the rule's ``kind`` and the query ``family`` it is
    searched with.
    """
    rng = random.Random(f"cpv-random-search/{seed}")
    out = []
    for prefix, family, slots in (("r", "elicit", ELICIT_SLOTS), ("c", "elicit,count", COUNT_SLOTS)):
        for slot, (kind, m) in enumerate(slots):
            doc = _rule(rng, kind, m)
            out.append((f"{prefix}{slot:02d}_{kind}", doc, {"kind": kind, "family": family}))
    return out
