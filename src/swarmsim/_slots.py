"""Cheaper construction for the frozen value types built every tick."""

from __future__ import annotations

import dataclasses


def slot_init(cls: type) -> type:
    """Give a `@dataclass(frozen=True, slots=True)` class an `__init__` with
    the same parameters and defaults as the generated one that stores each
    field through its slot's member descriptor, instead of through
    `object.__setattr__` by name. Apply it outside (after) the dataclass
    decorator. Instances stay frozen: only `__init__` writes the slots.

    Only plain fields are supported: every field in `__init__`, positional,
    with no default factory, and no `__post_init__`.
    """
    fields = dataclasses.fields(cls)
    if hasattr(cls, "__post_init__") or not cls.__dataclass_params__.frozen:
        raise TypeError(f"{cls.__name__}: slot_init needs a frozen dataclass without __post_init__")
    namespace: dict[str, object] = {}
    params = []
    body = []
    for i, field in enumerate(fields):
        if not field.init or field.kw_only or field.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{cls.__name__}.{field.name}: slot_init supports plain fields only")
        namespace[f"_set{i}"] = cls.__dict__[field.name].__set__
        if field.default is dataclasses.MISSING:
            params.append(field.name)
        else:
            namespace[f"_default{i}"] = field.default
            params.append(f"{field.name}=_default{i}")
        body.append(f"    _set{i}(self, {field.name})")
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body) + "\n"
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = dict(cls.__init__.__annotations__)
    cls.__init__ = init
    return cls
