"""What the library's value classes promise, checked on one value of each:
Quaternion, ComplexPair, SU2Matrix, ExtendedComplex and ProjectivePoint
are immutable, slotted dataclasses compared and hashed by value."""

import copy
import dataclasses
import pickle

import pytest


def assert_immutable_value(value, /, **changes):
    """`value` behaves as an immutable value; `changes` are new values of
    some of its fields, for dataclasses.replace."""
    cls = type(value)
    names = [f.name for f in dataclasses.fields(value)]
    parts = tuple(getattr(value, name) for name in names)
    shown = f"{cls.__name__}({', '.join(f'{n}={p!r}' for n, p in zip(names, parts))})"
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    # a slotted class's frozen __setattr__ raises TypeError here (CPython 3.10 to 3.13)
    with pytest.raises(TypeError):
        value.extra = 1
    assert not hasattr(value, "extra")
    assert not hasattr(value, "__dict__")
    assert tuple(getattr(value, name) for name in names) == parts
    assert cls(*parts) == value and cls(**dict(zip(names, parts))) == value
    assert hash(value) == hash(parts)
    assert repr(value) == shown
    assert dataclasses.astuple(value) == tuple(
        dataclasses.astuple(p) if dataclasses.is_dataclass(p) else p for p in parts
    )
    moved = dataclasses.replace(value, **changes)
    assert type(moved) is cls and moved != value
    assert [getattr(moved, name) for name in names] == [changes.get(n, p) for n, p in zip(names, parts)]
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)
