"""The one field rule every config block checks its fields by."""

import dataclasses
import typing
from dataclasses import dataclass

import numpy as np
import pytest

from sagep.evaluators import ChannelCase
from sagep.fields import ConfigError, check_fields, field_types, finite
from sagep.orchestrator import RunConfig


def blocks(cls) -> list:
    """cls, then each config block its fields are typed as, depth first."""
    return [cls] + [block for hint in field_types(cls).values()
                    for member in typing.get_args(hint) or (hint,)
                    if dataclasses.is_dataclass(member)
                    for block in blocks(member)]


# The channel case is a file the evaluator block names, not a field type.
BLOCKS = blocks(RunConfig) + [ChannelCase]


def wrong_value(hint):
    """A value of another type than hint: a bool for a number, a string for
    a list, a list for a string, and a string for anything else."""
    if typing.get_origin(hint) is tuple:
        return "x"
    args = typing.get_args(hint) or (hint,)
    if int in args or float in args:
        return True
    return ["x"] if str in args else "x"


@pytest.mark.parametrize("cls, name", [
    (cls, name) for cls in BLOCKS for name in field_types(cls)],
    ids=lambda v: getattr(v, "__name__", v))
def test_every_field_rejects_a_wrong_type(cls, name):
    value = wrong_value(field_types(cls)[name])
    with pytest.raises(ConfigError, match=rf"^{name} must be .*, got "):
        cls(**{name: value})


@dataclass(frozen=True)
class Block:
    count: int = 0
    ratio: float = 0.0
    label: str | tuple[str, ...] | None = None
    names: tuple[str, ...] = ()
    pair: tuple[float, float] = (0.0, 1.0)
    profile: np.ndarray | None = None

    def __post_init__(self):
        check_fields(self)


@pytest.mark.parametrize("name, value, what", [
    ("count", True, "an integer"),
    ("count", 1.0, "an integer"),
    ("ratio", False, "a finite number"),
    ("ratio", float("nan"), "a finite number"),
    ("ratio", 10 ** 400, "a finite number"),
    ("label", 3, "a string, a list of strings or null"),
    ("names", "ab", "a list of strings"),
    ("names", ["a", 1], "a list of strings"),
    ("pair", [0.0], "a pair of finite numbers"),
    ("pair", [0.0, float("inf")], "a pair of finite numbers"),
    ("profile", [[0.0]], "a list of finite numbers or null"),
    ("profile", np.zeros((2, 2)), "a list of finite numbers or null"),
])
def test_message_names_field_rule_and_value(name, value, what):
    with pytest.raises(ConfigError) as info:
        Block(**{name: value})
    assert str(info.value) == f"{name} must be {what}, got {value!r}"


def test_values_are_stored_in_their_declared_form():
    block = Block(count=np.int64(3), ratio=2, names=["a", "b"], pair=[0, 1],
                  profile=[1, 2])
    assert block.names == ("a", "b") and block.pair == (0, 1)
    assert block.profile.dtype == float and block.profile.tolist() == [1, 2]
    assert (block.count, block.ratio) == (3, 2)
    assert Block(label="ab").label == "ab"
    assert Block(label=["a", "b"]).label == ("a", "b")
    assert Block(profile=None).profile is None


def test_finite_is_a_float_value():
    assert finite(1) and finite(np.float32(0.5)) and finite(-1e308)
    assert not any(map(finite, [True, "1", float("inf"), float("nan"),
                                10 ** 400, None]))
