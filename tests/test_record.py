"""``core.record`` checked against its slow oracle, ``dataclasses.dataclass(frozen=True)``.

The same classes are declared twice, once with each decorator, and every
operation ``record`` provides must behave the same on both versions.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import pytest

from cpv.core import FrozenRecordError, record


def _declare(decorate) -> dict:
    @decorate
    class Pair:
        a: int
        b: tuple = ()

    @decorate
    class Twin:  # the fields of Pair, but another class
        a: int
        b: tuple = ()

    @decorate
    class Sorted:
        items: tuple
        tag: str = "s"

        def __post_init__(self) -> None:
            object.__setattr__(self, "items", tuple(sorted(self.items)))

    @decorate
    class Grid:
        sizes: tuple

        @functools.cached_property
        def total(self) -> int:
            return math.prod(self.sizes)

    return {"Pair": Pair, "Twin": Twin, "Sorted": Sorted, "Grid": Grid}


RECORD = _declare(record)
DATA = _declare(functools.partial(dataclasses.dataclass, frozen=True))
BOTH = [RECORD, DATA]
IDS = ["record", "dataclass"]

CALLS = [
    ("Pair", (1,), {}),
    ("Pair", (1, (2,)), {}),
    ("Pair", (), {"a": 1}),
    ("Pair", (), {"b": (2, 3), "a": 1}),
    ("Pair", (1,), {"b": (3,)}),
    ("Sorted", ((3, 1, 2),), {}),
    ("Sorted", (), {"items": (2, 1), "tag": "t"}),
    ("Grid", ((2, 3),), {}),
]

BAD_CALLS = {
    "missing": ("Pair", (), {}),
    "missing with another given": ("Pair", (), {"b": ()}),
    "too many": ("Pair", (1, 2, 3), {}),
    "unknown keyword": ("Pair", (1,), {"c": 2}),
    "duplicate": ("Pair", (1,), {"a": 2}),
}


def make(classes: dict, call):
    name, args, kwargs = call
    return classes[name](*args, **kwargs)


@pytest.mark.parametrize("call", CALLS, ids=repr)
def test_construction_repr_and_hash_match_dataclass(call):
    mine, oracle = make(RECORD, call), make(DATA, call)
    assert repr(mine) == repr(oracle)
    assert hash(mine) == hash(oracle)
    assert vars(mine) == vars(oracle)


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_bad_arguments_raise_type_error(case):
    for classes in BOTH:
        with pytest.raises(TypeError):
            make(classes, BAD_CALLS[case])


@pytest.mark.parametrize("classes", BOTH, ids=IDS)
def test_equality(classes):
    Pair, Twin = classes["Pair"], classes["Twin"]
    assert Pair(1) == Pair(1, ())
    assert not Pair(1) != Pair(1, ())
    assert Pair(1) != Pair(2)
    assert Pair(1, (2,)) != Pair(1, (3,))
    assert Pair(1) != Twin(1)  # equal field values, another class
    assert Pair(1).__eq__(Twin(1)) is NotImplemented
    assert Pair(1) != (1, ())
    assert Pair(1) in {Pair(1, ()): "hashable"}


@pytest.mark.parametrize("classes", BOTH, ids=IDS)
def test_post_init_may_set_fields(classes):
    obj = classes["Sorted"]((3, 1, 2))
    assert obj.items == (1, 2, 3)
    assert obj == classes["Sorted"]((1, 2, 3))


@pytest.mark.parametrize("classes", BOTH, ids=IDS)
def test_cached_property_computes_once(classes):
    grid = classes["Grid"]((2, 3))
    before = hash(grid)
    assert grid.total == 6
    assert vars(grid)["total"] == 6
    # the cached value is not a field
    assert grid == classes["Grid"]((2, 3))
    assert hash(grid) == before
    assert repr(grid) == repr(classes["Grid"]((2, 3)))


@pytest.mark.parametrize("classes", BOTH, ids=IDS)
@pytest.mark.parametrize("attr", ["a", "b", "new"])
def test_assignment_and_deletion_raise(classes, attr):
    obj = classes["Pair"](1)
    with pytest.raises(AttributeError):
        setattr(obj, attr, 5)
    with pytest.raises(AttributeError):
        delattr(obj, attr)
    assert obj == classes["Pair"](1)


def test_frozen_error_is_an_attribute_error():
    with pytest.raises(FrozenRecordError, match="'a'"):
        RECORD["Pair"](1).a = 2
