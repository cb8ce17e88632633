"""``gk3.records``: the frozen value records every gk3 value type is made with."""

from __future__ import annotations

from functools import cached_property

import pytest

from gk3.records import derived, record
from gk3.serialize import dumps_canonical


@record
class Point:
    """Two fields, one with a default, and a derived field."""

    x: int
    y: int = 0
    norm: int = derived

    def __post_init__(self):
        object.__setattr__(self, "norm", self.x * self.x + self.y * self.y)

    @cached_property
    def doubled(self) -> "Point":
        return Point(2 * self.x, 2 * self.y)


@record
class Twin:
    """The fields of ``Point`` in another class."""

    x: int
    y: int = 0
    norm: int = derived

    __post_init__ = Point.__post_init__


@record
class Built:
    """A record with its own ``__init__``."""

    value: int
    cache = None  # no annotation, so no field

    def __init__(self, text: str):
        object.__setattr__(self, "value", int(text))


def test_init_defaults_and_derived_fields():
    p = Point(3, 4)
    assert (p.x, p.y, p.norm) == (3, 4, 25)
    assert Point(2).y == 0 and Point(x=1, y=2).norm == 5
    with pytest.raises(TypeError):
        Point(1, 2, 5)  # a derived field is no argument
    assert Point._fields == ("x", "y", "norm")
    assert "norm" not in vars(Point)  # the marker does not stay as a class value


def test_records_are_frozen():
    p = Point(1)
    for change in (lambda: setattr(p, "x", 2), lambda: delattr(p, "x"), lambda: setattr(p, "z", 1)):
        with pytest.raises(AttributeError, match="frozen"):
            change()
    assert p.x == 1


def test_equality_and_hash_hold_within_one_class():
    assert Point(3, 4) == Point(3, 4) and hash(Point(3, 4)) == hash(Point(3, 4))
    assert Point(3, 4) != Point(4, 3)
    assert repr(Twin(3, 4)) == "Twin(x=3, y=4, norm=25)"
    assert Point(3, 4) != Twin(3, 4) and Twin(3, 4) != Point(3, 4)  # equal fields, another class
    assert len({Point(1), Point(1), Point(2)}) == 2
    # the hash of the field tuple, as a dataclass has it
    assert hash(Point(3, 4)) == hash((3, 4, 25))


def test_repr_names_every_field():
    assert repr(Point(3, 4)) == "Point(x=3, y=4, norm=25)"
    assert repr(Built("7")) == "Built(value=7)"


def test_cached_property_and_own_init():
    p = Point(1, 2)
    assert p.doubled is p.doubled and p.doubled == Point(2, 4)
    b = Built("12")
    assert b.value == 12 and b.cache is None and Built._fields == ("value",)
    assert b == Built("12") and b != Built("13")


def test_a_record_is_written_as_its_fields():
    assert dumps_canonical(Point(3, 4)) == '{\n  "norm": 25,\n  "x": 3,\n  "y": 4\n}\n'
