"""The frozen value types built every tick keep the dataclass contract.

Each class has its `__init__` replaced by `slot_init`; its twin below is the
same fields under a plain `@dataclass(frozen=True, slots=True)`, so every
observable behaviour must agree between the two. Instances that `slot_build`
makes from columns must agree with constructed ones in the same way.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import itertools
import pickle

import pytest

from swarmsim import ActuatorCommand, Broadcast, ControlInput, ControlOutput, SensorReading
from swarmsim._slots import slot_build, slot_init
from swarmsim.controllers import Message


def _twin(cls: type) -> type:
    fields = [
        (f.name, f.type)
        if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, slots=True)


READING = SensorReading(0.25, "robot", 3)
COMMAND = ActuatorCommand(1.5, -0.25)

# class -> (full positional arguments, {field: replacement value})
CASES = {
    SensorReading: ((0.5, "robot", 7), {"kind": "wall", "robot": None}),
    ActuatorCommand: ((1.0, -0.2), {"w": 0.3}),
    Message: ((4, b"hello"), {"payload": b"bye"}),
    Broadcast: ((b"x" * 5, 12.0), {"radius": 3.5}),
    ControlInput: (
        ((READING, SensorReading(1.0, "none")), True, (Message(1, b"a"),), 5),
        {"tick": 6, "inbox": ()},
    ),
    ControlOutput: ((COMMAND, Broadcast(b"b", 2.0)), {"broadcast": None}),
}
PARAMS = pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)


@PARAMS
def test_signature_matches_the_generated_init(cls):
    ours = inspect.signature(cls)
    theirs = inspect.signature(_twin(cls))
    assert [(p.name, p.kind, p.default) for p in ours.parameters.values()] == [
        (p.name, p.kind, p.default) for p in theirs.parameters.values()
    ]
    assert ours == theirs  # annotations too


@PARAMS
def test_instances_are_frozen(cls):
    args, _ = CASES[cls]
    obj = cls(*args)
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, field.name)
    assert not hasattr(obj, "__dict__")


@PARAMS
def test_equality_hash_and_repr_agree_with_the_twin(cls):
    args, changes = CASES[cls]
    twin = _twin(cls)
    obj, other = cls(*args), dataclasses.replace(cls(*args), **changes)
    assert obj == cls(*args) and obj != other
    assert hash(obj) == hash(twin(*args)) == hash(cls(*args))
    assert repr(obj) == repr(twin(*args))
    assert [getattr(obj, f.name) for f in dataclasses.fields(cls)] == list(args)
    kwargs = {f.name: a for f, a in zip(dataclasses.fields(cls), args)}
    assert cls(**kwargs) == obj


@PARAMS
def test_defaults_apply(cls):
    fields = dataclasses.fields(cls)
    required = sum(f.default is dataclasses.MISSING for f in fields)
    args, _ = CASES[cls]
    short = cls(*args[:required])
    for field in fields[required:]:
        assert getattr(short, field.name) == field.default
    assert repr(short) == repr(_twin(cls)(*args[:required]))


@PARAMS
def test_replace_pickle_and_deepcopy_round_trip(cls):
    args, changes = CASES[cls]
    obj = cls(*args)
    changed = dataclasses.replace(obj, **changes)
    assert type(changed) is cls
    fields = dataclasses.fields(cls)
    assert changed == cls(*(changes.get(f.name, getattr(obj, f.name)) for f in fields))
    assert dataclasses.replace(changed, **{k: getattr(obj, k) for k in changes}) == obj
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(clone) is cls and clone == obj and hash(clone) == hash(obj)


@PARAMS
def test_missing_or_extra_arguments_raise_type_error(cls):
    args, _ = CASES[cls]
    twin = _twin(cls)
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls))
    for bad_args, bad_kwargs in (
        (args[: required - 1], {}),
        (args + (None,), {}),
        (args, {"unknown": 1}),
        (args, {dataclasses.fields(cls)[0].name: args[0]}),
    ):
        with pytest.raises(TypeError):
            twin(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


# class -> (columns for three instances, {field: replacement value}); the
# engine builds these three types from columns every tick.
BULK = {
    SensorReading: (([0.5, 0.25, 1.0], ["wall", "robot", "none"], [None, 7, None]), {"robot": 2}),
    ControlInput: (
        (
            [(READING,), (), (READING, SensorReading(1.0, "none"))],
            [True, False, True],
            [(Message(1, b"a"),), (), (Message(0, b""), Message(2, b"bc"))],
            [5, 5, 5],
        ),
        {"tick": 6, "inbox": ()},
    ),
    Message: (([4, 0, 9], [b"hello", b"", b"xyz"]), {"payload": b"bye"}),
}
BULK_PARAMS = pytest.mark.parametrize("cls", list(BULK), ids=lambda c: c.__name__)


@BULK_PARAMS
def test_built_from_columns_equals_constructed(cls):
    columns, changes = BULK[cls]
    twin = _twin(cls)
    built = slot_build(cls, 3, *(iter(column) for column in columns))
    rows = list(zip(*columns))
    assert len(built) == 3
    for obj, row in zip(built, rows):
        made = cls(*row)
        assert type(obj) is cls and not hasattr(obj, "__dict__")
        assert obj == made and hash(obj) == hash(made) == hash(twin(*row))
        assert repr(obj) == repr(made) == repr(twin(*row))
        assert dataclasses.replace(obj, **changes) == dataclasses.replace(made, **changes)
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(clone) is cls and clone == made and hash(clone) == hash(made)
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, field.name)


def test_build_fills_trailing_defaults_and_checks_its_columns():
    walls = slot_build(SensorReading, 2, [0.5, 0.25], itertools.repeat("wall"))
    assert walls == [SensorReading(0.5, "wall"), SensorReading(0.25, "wall")]
    assert all(w.robot is None for w in walls)
    assert slot_build(Message, 0, [], []) == []
    with pytest.raises(TypeError, match="no column and no default"):
        slot_build(Message, 1, [1])
    with pytest.raises(TypeError, match="3 columns for 2 fields"):
        slot_build(Message, 1, [1], [b"x"], [None])


def _refused_classes():
    @dataclasses.dataclass(slots=True)
    class Mutable:
        x: int

    @dataclasses.dataclass(frozen=True, slots=True)
    class Checked:
        x: int

        def __post_init__(self) -> None:
            pass

    @dataclasses.dataclass(frozen=True, slots=True)
    class Factory:
        x: list = dataclasses.field(default_factory=list)

    @dataclasses.dataclass(frozen=True, slots=True)
    class KeywordOnly:
        x: int = dataclasses.field(kw_only=True)

    @dataclasses.dataclass(frozen=True)
    class NoSlots:
        x: int

    return (Mutable, Checked, Factory, KeywordOnly, NoSlots)


def test_slot_init_refuses_what_it_cannot_keep():
    for cls in _refused_classes():
        with pytest.raises(TypeError, match="slot_init"):
            slot_init(cls)


def test_slot_build_refuses_what_slot_init_refuses():
    for cls in _refused_classes():
        with pytest.raises(TypeError, match="slot_init"):
            slot_build(cls, 1, [1])
