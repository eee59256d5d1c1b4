"""The stable value projection and code fingerprint behind every key.

The campaign result cache (:mod:`repro.sim.campaign`) and the warm-image
key (:mod:`repro.snapshot.warm`) both key entries by a digest of a
*value projection* of their inputs. The projection lives here, below
both, so they cannot drift: a value that is safe to key in one is safe
in the other, and a value with no stable representation is rejected
identically everywhere.

Which code computed a stored value is :func:`code_fingerprint`, which
the snapshot container stamps into every file and checks on read.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from pathlib import Path

from repro.errors import ConfigError

__all__ = ["jsonable", "code_fingerprint"]


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """SHA-256 over the relative path and bytes of each ``repro/**/*.py``,
    computed on first use, once per process (not at import)."""
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix().encode()
        data = path.read_bytes()
        digest.update(len(name).to_bytes(8, "big") + name)
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()[:20]


def jsonable(value):
    """A stable, identity-free JSON projection of a config value.

    Raises :class:`ConfigError` for values with no stable representation
    (anything that would fall back to the default ``object.__repr__``,
    whose embedded memory address differs between runs and would silently
    poison the cache key).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if hasattr(value, "__dict__"):
        projection = {
            name: jsonable(attr)
            for name, attr in sorted(vars(value).items())
        }
        projection["__class__"] = type(value).__qualname__
        return projection
    if type(value).__repr__ is object.__repr__:
        raise ConfigError(
            f"config value of type {type(value).__qualname__!r} has no "
            "stable representation and cannot be cache-keyed; give it a "
            "deterministic __repr__ or use a dataclass"
        )
    return repr(value)

