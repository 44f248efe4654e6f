"""The cpv-1 reader's whole-column passes against the row walk.

``TypeSpace.indices_of_rows`` indexes label rows one agent column at a
time, and ``cpv.reader._whole`` checks arrays of label rows and of table
rows one type pass per field.  Here both are checked against the slow
paths they replace: random table instances, valid and corrupted in every
way a row can be at fault, must load to the same ``Instance``, or fail with
the same message at the same pointer, as ``oracles.instance_by_rows`` run
with the per-entry shape walk alone.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import pytest

from cpv import reader
from cpv.cli import main
from cpv.core import InputError, TypeSpace
from cpv.treereader import protocol_from_json
from oracles import instance_by_rows

SEEDS = range(300)


def random_instance(rng: random.Random) -> dict:
    """A table instance on 1-3 agents, its rows shuffled, its labels strings
    or integers (then at times spelled as booleans or floats), maybe with
    an outcome list and a universe of profiles."""
    n = rng.randint(1, 3)
    numeric = rng.random() < 0.4
    pool = list(range(4)) if numeric else ["a", "b", "c", "d"]
    shared = rng.random() < 0.5
    alphabets = [rng.sample(pool, rng.randint(1, 3)) for _ in range(1 if shared else n)]
    if shared:
        alphabets *= n

    def spell(label):  # 0 and 1 at times as false and true, any integer as a float
        if numeric and rng.random() < 0.3:
            return bool(label) if label in (0, 1) and rng.random() < 0.5 else float(label)
        return label

    profiles = [[]]
    for alphabet in alphabets:
        profiles = [p + [t] for p in profiles for t in alphabet]
    rng.shuffle(profiles)
    outcomes = [f"o{i}" for i in range(rng.randint(1, 4))]
    doc = {
        "schema": "cpv-1", "agents": n,
        "rule": {"table": [
            {"profile": [spell(t) for t in p], "outcome": rng.choice(outcomes)} for p in profiles
        ]},
    }
    doc.update({"alphabet": alphabets[0]} if shared else {"alphabets": alphabets})
    if rng.random() < 0.3:
        doc["outcomes"] = outcomes
    if rng.random() < 0.5:
        picks = rng.sample(profiles, min(len(profiles), rng.randint(1, 4)))
        doc["universe"] = [[spell(t) for t in p] for p in picks]
    return doc


def corrupt(rng: random.Random, doc: dict) -> str:
    """Spoils one row of the table or the universe in place; returns how."""
    rows = doc["rule"]["table"]
    n = doc["agents"]
    target = rows if "universe" not in doc or rng.random() < 0.6 else None
    r = rng.randrange(len(rows) if target is not None else len(doc["universe"]))
    profile = rows[r]["profile"] if target is not None else doc["universe"][r]
    how = rng.choice(["longer", "shorter", "string", "unknown", "unhashable", "number"]
                     + (["outcome", "not an object", "no profile", "no outcome", "repeat",
                         "missing"] if target is not None else []))
    if how == "longer":
        profile.append(profile[0] if profile else "a")
    elif how == "shorter":
        profile.pop()
    elif how == "string":  # "ab" is two labels long, as a profile of two agents
        value = "".join(str(t) for t in profile) if n == 2 else "ab"
        if target is not None:
            rows[r]["profile"] = value
        else:
            doc["universe"][r] = value
    elif how == "unknown":
        profile[rng.randrange(n)] = "zz"
    elif how == "unhashable":
        profile[rng.randrange(n)] = [profile[0]]
    elif how == "number":
        if target is not None:
            rows[r]["profile"] = 7
        else:
            doc["universe"][r] = 7
    elif how == "outcome":
        rows[r]["outcome"] = rng.choice([7, None, ["o0"], True])
    elif how == "not an object":
        rows[r] = [rows[r]["profile"], rows[r]["outcome"]]
    elif how in ("no profile", "no outcome"):
        del rows[r][how[3:]]
    elif how == "repeat":
        rows.append({"profile": list(rows[r]["profile"]), "outcome": "o0"})
        rows[r], rows[-1] = rows[-1], rows[r]
    else:
        del rows[r]
    return how


def result(load, doc):
    """``("ok", instance)`` or ``("error", message)``."""
    try:
        return "ok", load(doc)
    except InputError as exc:
        return "error", str(exc)


def by_rows(doc):
    """The oracle's result, with the shape checked by the per-entry walk alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reader, "_whole", lambda item, entries: False)
        mp.setattr(reader, "_CHECKS", {name: reader._compile(name) for name in reader.CPV1})
        return result(instance_by_rows, doc)


@pytest.mark.parametrize("seed", SEEDS)
def test_whole_columns_load_what_the_row_walk_loads(seed):
    rng = random.Random(seed)
    doc = random_instance(rng)
    how = corrupt(rng, doc) if seed % 3 else "valid"
    doc = json.loads(json.dumps(doc))  # as a file holds it
    expected = by_rows(doc)
    assert result(reader.instance_from_json, doc) == expected, how
    if how == "valid":
        assert expected[0] == "ok", expected


def test_every_corruption_is_drawn_and_refused():
    seen = {}
    for seed in SEEDS:
        rng = random.Random(seed)
        doc = random_instance(rng)
        if seed % 3:
            how = corrupt(rng, doc)
            seen.setdefault(how, set()).add(by_rows(json.loads(json.dumps(doc)))[0])
    assert len(seen) == 12 and all(kinds == {"error"} for kinds in seen.values()), seen


def test_an_empty_universe_is_refused_by_both_readers():
    doc = {**random_instance(random.Random(0)), "universe": []}
    expected = ("error", "universe is empty (at /universe)")
    assert result(reader.instance_from_json, doc) == by_rows(doc) == expected


@pytest.mark.parametrize("where", ["table", "universe"])
def test_the_row_walk_names_and_never_decides(where, monkeypatch):
    # the column pass decides; a walk that finds every row valid after the
    # pass refused one is a bug, not rows to build from
    doc = random_instance(random.Random(1))
    doc["universe"] = [row["profile"] for row in doc["rule"]["table"][:2]]
    assert result(reader.instance_from_json, doc)[0] == "ok"
    calls = []

    def refuse(space, rows):
        calls.append(rows)
        if len(calls) == {"table": 1, "universe": 2}[where]:
            raise KeyError("refused")
        return map(space.index_of_labels, rows)

    monkeypatch.setattr(TypeSpace, "indices_of_rows", refuse)
    with pytest.raises(AssertionError, match=r"\(bug\)$"):
        reader.instance_from_json(doc)


def test_a_tree_deeper_than_the_recursion_limit_is_read():
    # the descending clock of one agent over 1200 prices, one level per price
    assert sys.getrecursionlimit() == 1000
    labels = [str(v) for v in range(1200)]
    tree: dict = {}
    for t in range(1, 1200):
        query = {"kind": "elicit", "agent": 1, "cells": [[labels[t]], labels[:t] + labels[t + 1:]]}
        tree = {"query": query, "children": [{}, tree]}
    doc = {"schema": "cpv-1", "rule": {"builtin": "first_price",
                                       "params": {"n": 1, "values": list(range(1200))}},
           "protocol": {"tree": tree}}
    instance = reader.instance_from_json(doc)
    protocol, phase = protocol_from_json(doc["protocol"], instance.space, "/protocol")
    assert len(protocol.nodes) == 2399 and phase is None


class TestIndicesOfRows:
    def test_agrees_with_index_of_labels(self):
        for seed in range(50):
            rng = random.Random(seed)
            space = TypeSpace(tuple(
                tuple(rng.sample(["a", "b", "c", 1, 2.5, None], rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            ))
            rows = [[rng.choice(a) for a in space.alphabets] for _ in range(rng.randint(0, 20))]
            assert list(space.indices_of_rows(rows)) == list(map(space.index_of_labels, rows))

    @pytest.mark.parametrize("row, error", [
        (["a"], KeyError), (["a", "b", "a"], KeyError), (["a", "z"], KeyError),
        (["a", ["b"]], TypeError),
    ], ids=["shorter", "longer", "unknown", "unhashable"])
    def test_a_row_at_fault_raises_when_read(self, row, error):
        space = TypeSpace.shared(2, ("a", "b"))
        keys = space.indices_of_rows([["a", "b"], row])
        assert next(keys) == 1
        with pytest.raises(error):
            next(keys)


class TestModelValues:
    """Integer values stay ``int``; any other number is a ``Fraction``."""

    def _model(self, values):
        return reader._model_from_json({"kind": "auction", "values": values})

    def test_integers_stay_integers(self):
        values = self._model([[1, 2], [3, 4]]).values
        assert values == ((1, 2), (3, 4)) and {type(v) for row in values for v in row} == {int}

    def test_a_float_or_a_fraction_string_reads_as_a_fraction(self):
        values = self._model([[1.5, "3/2"], [2, "7"]]).values
        assert values == ((Fraction(3, 2), Fraction(3, 2)), (2, 7))
        assert [type(v) for v in values[0]] == [Fraction, Fraction]

    def test_a_boolean_is_refused_at_the_values(self, tmp_path, capsys):
        doc = {"schema": "cpv-1", "agents": 1, "alphabet": ["a", "b"],
               "rule": {"table": [{"profile": ["a"], "outcome": "x"},
                                  {"profile": ["b"], "outcome": "y"}]},
               "model": {"kind": "auction", "values": [[1, True]]}}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--property", "efficient", str(path)]) == 2
        assert capsys.readouterr().out.endswith('(at /model/values)"}\n')
