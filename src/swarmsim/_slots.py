"""Cheaper construction for the frozen value types built every tick."""

from __future__ import annotations

import dataclasses
import types
from collections import deque
from functools import cache
from itertools import repeat
from typing import Iterable


@cache
def _slot_fields(cls: type) -> tuple[tuple[str, object, object], ...]:
    """(name, slot setter, default or MISSING) per field of `cls`, after
    checking that writing the slots alone builds a complete instance."""
    fields = dataclasses.fields(cls)
    if hasattr(cls, "__post_init__") or not cls.__dataclass_params__.frozen:
        raise TypeError(f"{cls.__name__}: slot_init needs a frozen dataclass without __post_init__")
    out = []
    for field in fields:
        if not field.init or field.kw_only or field.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{cls.__name__}.{field.name}: slot_init supports plain fields only")
        slot = cls.__dict__.get(field.name)
        if type(slot) is not types.MemberDescriptorType:
            raise TypeError(f"{cls.__name__}.{field.name}: slot_init needs a slots=True dataclass")
        out.append((field.name, slot.__set__, field.default))
    return tuple(out)


def slot_init(cls: type) -> type:
    """Give a `@dataclass(frozen=True, slots=True)` class an `__init__` with
    the same parameters and defaults as the generated one that stores each
    field through its slot's member descriptor, instead of through
    `object.__setattr__` by name. Apply it outside (after) the dataclass
    decorator. Instances stay frozen: only `__init__` writes the slots.

    Only plain fields are supported: every field in `__init__`, positional,
    with no default factory, and no `__post_init__`.
    """
    namespace: dict[str, object] = {}
    params = []
    body = []
    for i, (name, setter, default) in enumerate(_slot_fields(cls)):
        namespace[f"_set{i}"] = setter
        if default is dataclasses.MISSING:
            params.append(name)
        else:
            namespace[f"_default{i}"] = default
            params.append(f"{name}=_default{i}")
        body.append(f"    _set{i}(self, {name})")
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body) + "\n"
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = dict(cls.__init__.__annotations__)
    cls.__init__ = init
    return cls


def slot_build(cls: type, count: int, *columns: Iterable) -> list:
    """`count` instances of `cls`, equal to `[cls(*row) for row in
    zip(*columns)]`, built a field at a time: `object.__new__` for all of
    them, then one pass per field that stores a column through the slot
    setter `slot_init` uses. No Python frame runs per instance. Trailing
    fields without a column take their defaults. Every column must yield at
    least `count` values; `cls` must be a class `slot_init` accepts."""
    fields = _slot_fields(cls)
    if len(columns) > len(fields):
        raise TypeError(f"{cls.__name__}: {len(columns)} columns for {len(fields)} fields")
    objs = list(map(object.__new__, repeat(cls, count)))
    for i, (name, setter, default) in enumerate(fields):
        if i < len(columns):
            column = columns[i]
        elif default is dataclasses.MISSING:
            raise TypeError(f"{cls.__name__}.{name}: no column and no default")
        else:
            column = repeat(default)
        deque(map(setter, objs, column), maxlen=0)
    return objs
