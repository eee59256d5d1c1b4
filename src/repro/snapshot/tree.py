"""Plain-value projection of a live object graph (snapshot diffs).

A checkpoint pickles the live :class:`~repro.sim.system.System`, so
it has no per-component schema to compare. :func:`state_tree` supplies
one generically: every object becomes a dict of its fields, so a diff of
two projections names the first differing field by its attribute path
(``channels[0].banks[3].act_time``) and no field can be left out.
Dict key order is state too (an LLC set's keys are its LRU stack), so
live dicts project to :class:`~collections.OrderedDict`, whose equality
is order-aware.
"""

from __future__ import annotations

import enum
import pickle
import types
from collections import OrderedDict, deque

__all__ = ["state_tree"]

_LEAVES = (type(None), bool, int, float, complex, str, bytes, enum.Enum)
_FUNCTIONS = (type, types.FunctionType, types.BuiltinFunctionType)
_NOT_FIELDS = ("__dict__", "__weakref__")
_OBJECT_GETSTATE = getattr(object, "__getstate__", None)


def _fields(value) -> dict:
    """What pickle stores for ``value``, by field name.

    A class with its own ``__reduce__`` contributes the ``args`` and
    ``state`` of its reduction, and one with its own ``__getstate__``
    what that returns (a dict's items as fields); any other object its
    ``__slots__`` fields (in MRO order), then its ``__dict__``.
    """
    cls = type(value)
    if (cls.__reduce_ex__ is not object.__reduce_ex__
            or cls.__reduce__ is not object.__reduce__):
        reduced = value.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        fields = {"args": reduced[1]}
        if len(reduced) > 2 and reduced[2] is not None:
            fields["state"] = reduced[2]
        return fields
    if getattr(cls, "__getstate__", _OBJECT_GETSTATE) is not _OBJECT_GETSTATE:
        state = value.__getstate__()
        return dict(state) if isinstance(state, dict) else {"state": state}
    fields = {}
    for base in reversed(cls.__mro__):
        slots = base.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in _NOT_FIELDS and hasattr(value, name):
                fields[name] = getattr(value, name)
    fields.update(getattr(value, "__dict__", {}))
    return fields


def state_tree(obj: object) -> object:
    """Project ``obj`` onto dicts, lists and scalars.

    - An object becomes a dict of its fields (see :func:`_fields`),
      tagged with its class name under ``"__class__"``.
    - Containers map element-wise: dicts by key into an
      ``OrderedDict`` that keeps their key order, lists, tuples and
      deques by index, arrays to ``tolist()``, and a set to the sorted
      list of its elements' own projections.
    - A shared or cyclic reference becomes ``"<ref PATH>"``, naming the
      path where the object was first seen. The graph is walked
      breadth-first, so that is its shortest path; paths use the diff
      notation ``a.b[3].c``.
    """
    # id -> (first path, the object): holding the object keeps its id
    # from being reused by a temporary (a reduction's state) meanwhile.
    seen: dict[int, tuple] = {}
    pending: deque = deque()

    def project(value, path: str):
        if isinstance(value, _LEAVES):
            return value
        if isinstance(value, _FUNCTIONS):
            return f"{value.__module__}.{value.__qualname__}"
        if not isinstance(value, tuple):
            first = seen.get(id(value))
            if first is not None:
                return f"<ref {first[0]}>"
            seen[id(value)] = (path, value)
        if isinstance(value, (set, frozenset)):
            return sorted(map(state_tree, value), key=repr)
        if hasattr(value, "tolist"):
            return value.tolist()
        if isinstance(value, dict):
            shell: dict | list = OrderedDict()
            items = [
                (key, f"{path}.{key}" if path else str(key), item)
                for key, item in value.items()
            ]
        elif isinstance(value, (list, tuple, deque)):
            shell = [None] * len(value)
            items = [
                (i, f"{path}[{i}]", item) for i, item in enumerate(value)
            ]
        elif isinstance(value, types.MethodType):
            shell = {"__class__": "method", "__func__": value.__qualname__}
            items = [("__self__", f"{path}.__self__", value.__self__)]
        else:
            shell = {"__class__": type(value).__qualname__}
            items = [
                (name, f"{path}.{name}" if path else name, field)
                for name, field in _fields(value).items()
            ]
        pending.append((shell, items))
        return shell

    root = project(obj, "")
    while pending:
        shell, items = pending.popleft()
        for key, child_path, child in items:
            shell[key] = project(child, child_path)
    return root
