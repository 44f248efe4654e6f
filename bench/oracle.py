"""Independent brute-force re-verification of what ``cpv`` reports.

This module reads ``cpv-1`` files itself and imports nothing from ``cpv``,
so a defect in the program cannot hide in a shared helper.  Every check
raises :class:`OracleError` with a reason when the artifact is wrong.
"""

from __future__ import annotations

import itertools
import json


class OracleError(Exception):
    """A reported verdict or artifact does not hold up."""


class Instance:
    """A choice rule read from a ``cpv-1`` instance file."""

    def __init__(self, doc: dict) -> None:
        n = doc["agents"]
        if "alphabet" in doc:
            self.alphabets = [list(doc["alphabet"]) for _ in range(n)]
        else:
            self.alphabets = [list(a) for a in doc["alphabets"]]
        self.n = n
        self.outcome = {}
        for row in doc["rule"]["table"]:
            self.outcome[tuple(row["profile"])] = row["outcome"]
        self.components = doc.get("components")
        self.universe = _universe(doc.get("universe"))
        self.protocol = doc.get("protocol")

    @classmethod
    def load(cls, path: str) -> Instance:
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def profiles(self):
        if self.universe is not None:
            return sorted(self.universe, key=self.rank)
        return list(itertools.product(*self.alphabets))

    def rank(self, profile) -> tuple[int, ...]:
        return tuple(a.index(t) for a, t in zip(self.alphabets, profile))

    def contains(self, profile) -> bool:
        if self.universe is not None:
            return profile in self.universe
        return all(t in a for a, t in zip(self.alphabets, profile))


def _universe(spec):
    if spec is None:
        return None
    if isinstance(spec, dict):
        return set(itertools.product(*spec["factors"]))
    return {tuple(p) for p in spec}


class _Node:
    __slots__ = ("kind", "arg", "cells", "children")

    def __init__(self, doc: dict) -> None:
        query = doc.get("query")
        self.children = [None if c is None else _Node(c) for c in doc.get("children", [])]
        if query is None:
            self.kind = None
            return
        self.kind = query["kind"]
        cells = query["cells"]
        if self.kind == "elicit":
            self.arg = query["agent"] - 1
            self.cells = {t: c for c, cell in enumerate(cells) for t in cell}
        elif self.kind == "count":
            self.arg = set(query["subset"])
            self.cells = {v: c for c, cell in enumerate(cells) for v in cell}
        elif self.kind == "multicount":
            self.arg = [set(s) for s in query["subsets"]]
            self.cells = {tuple(v): c for c, cell in enumerate(cells) for v in cell}
        elif self.kind == "extensional":
            self.arg = None
            self.cells = {tuple(p): c for c, cell in enumerate(cells) for p in cell}
        else:
            raise OracleError(f"unknown query kind {self.kind!r}")

    def answer(self, profile) -> int:
        if self.kind == "elicit":
            key = profile[self.arg]
        elif self.kind == "count":
            key = sum(t in self.arg for t in profile)
        elif self.kind == "multicount":
            key = tuple(sum(t in s for t in profile) for s in self.arg)
        else:
            key = profile
        if key not in self.cells:
            raise OracleError(f"profile {list(profile)} falls in no cell")
        return self.cells[key]


class Tree:
    """A protocol tree; leaves are named by their path of cell indices."""

    def __init__(self, doc: dict) -> None:
        self.root = _Node(doc["tree"])

    def leaf(self, profile) -> tuple[int, ...]:
        node, path = self.root, []
        while node.kind is not None:
            c = node.answer(profile)
            if c >= len(node.children) or node.children[c] is None:
                raise OracleError(f"profile {list(profile)} reaches a missing subtree")
            path.append(c)
            node = node.children[c]
        return tuple(path)


def load_tree(inst: Instance, protocol_path: str | None) -> Tree:
    if protocol_path is None:
        if inst.protocol is None:
            raise OracleError("no protocol to verify")
        return Tree(inst.protocol)
    with open(protocol_path, encoding="utf-8") as fh:
        return Tree(json.load(fh))


def _neighbours(inst: Instance, profile):
    """Unilateral deviations to a later type, in the universe."""
    for i, alphabet in enumerate(inst.alphabets):
        for t2 in alphabet[alphabet.index(profile[i]) + 1:]:
            other = profile[:i] + (t2,) + profile[i + 1:]
            if inst.contains(other):
                yield i, other


def leaf_partition(inst: Instance, tree: Tree) -> dict:
    """profile -> leaf, after checking that each leaf's outcome is constant."""
    leaf_of = {p: tree.leaf(p) for p in inst.profiles()}
    seen: dict = {}
    for p, leaf in leaf_of.items():
        x = inst.outcome[p]
        if seen.setdefault(leaf, x) != x:
            raise OracleError(f"leaf {leaf} is not constant: {seen[leaf]!r} and {x!r}")
    return leaf_of


def private_violation(inst: Instance, leaf_of: dict, individual: bool = False):
    """First unilateral pair in distinct leaves with an equal outcome (or,
    for ``individual``, an equal own component); ``None`` when private."""
    for p in inst.profiles():
        for i, q in _neighbours(inst, p):
            if leaf_of[p] == leaf_of[q]:
                continue
            a, b = inst.outcome[p], inst.outcome[q]
            if individual:
                a, b = inst.components[a][i], inst.components[b][i]
            if a == b:
                return p, q, i
    return None


def verify_protocol(inst: Instance, tree: Tree, prop: str = "cp") -> None:
    """The protocol's leaves are constant and it has property ``prop``."""
    leaf_of = leaf_partition(inst, tree)
    if prop == "gcp":
        outcomes = {}
        for p, leaf in leaf_of.items():
            outcomes.setdefault(leaf, inst.outcome[p])
        if len(set(outcomes.values())) != len(outcomes):
            raise OracleError("two leaves share an outcome, so the protocol is not GCP")
        return
    bad = private_violation(inst, leaf_of, individual=prop == "icp")
    if bad is not None:
        p, q, i = bad
        raise OracleError(f"not {prop}: {list(p)} and {list(q)} (agent {i + 1}) leak")


def verify_violation(inst: Instance, tree: Tree, v: dict) -> None:
    """A reported CP violation is a unilateral pair with an equal outcome
    that the protocol sends to distinct leaves."""
    i = v["agent"] - 1
    p, q = tuple(v["profiles"][0]), tuple(v["profiles"][1])
    if not (inst.contains(p) and inst.contains(q)):
        raise OracleError("violation profiles lie outside the universe")
    differ = [k for k in range(inst.n) if p[k] != q[k]]
    if differ != [i] or [p[i], q[i]] != v["types"]:
        raise OracleError("violation profiles are not a unilateral pair of the named agent")
    if inst.outcome[p] != inst.outcome[q] or inst.outcome[p] != v["shared"]:
        raise OracleError("violation profiles do not share the named outcome")
    if tree.leaf(p) == tree.leaf(q):
        raise OracleError("violation profiles reach the same leaf")


def verify_corners(inst: Instance, v: dict) -> None:
    """A reported square has three corners with one outcome and a fourth
    corner with another."""
    i, j = v["agents"][0] - 1, v["agents"][1] - 1
    at = list(v["at"])
    corners = []
    for ti, tj in itertools.product(v["types_i"], v["types_j"]):
        p = list(at)
        p[i], p[j] = ti, tj
        p = tuple(p)
        if not inst.contains(p):
            raise OracleError(f"corner {list(p)} lies outside the universe")
        corners.append(inst.outcome[p])
    if i == j or len(set(v["types_i"])) != 2 or len(set(v["types_j"])) != 2:
        raise OracleError("square does not vary two agents over two types each")
    if sorted(corners) != sorted([v["shared"]] * 3 + [v["fourth"]]) or v["shared"] == v["fourth"]:
        raise OracleError(f"square corners {corners} are not three equal and one different")


def verify_witness(inst: Instance, factors: list[list[str]]) -> None:
    """The rule is non-constant on the product of ``factors`` and every
    agent's factor is a single inseparability class on it."""
    if len(factors) != inst.n or any(not f for f in factors):
        raise OracleError("witness needs one nonempty factor per agent")
    product = list(itertools.product(*factors))
    if any(not inst.contains(p) for p in product):
        raise OracleError("witness leaves the universe")
    if len({inst.outcome[p] for p in product}) < 2:
        raise OracleError("rule is constant on the witness")
    for i, factor in enumerate(factors):
        parent = {t: t for t in factor}

        def find(t):
            while parent[t] != t:
                t = parent[t]
            return t

        rest = [f for k, f in enumerate(factors) if k != i]
        for others in itertools.product(*rest):
            by_outcome: dict = {}
            for t in factor:
                p = others[:i] + (t,) + others[i:]
                first = by_outcome.setdefault(inst.outcome[p], t)
                parent[find(t)] = find(first)
        if len({find(t) for t in factor}) != 1:
            raise OracleError(f"agent {i + 1}'s witness factor splits into separable classes")
