"""The mechanism registry: name -> :class:`MechanismPlugin`.

Builtin plugins self-register on first lookup (lazy import, so merely
importing :mod:`repro.mech` never drags in the mechanism
implementations). Registration order is deliberate and stable: the
ten pre-plugin mechanism names first, in their historical order, then
the related-work additions — seeded sweeps that draw from
:func:`mechanism_names` stay reproducible across releases that only
*append* mechanisms.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.errors import ConfigError
from repro.mech.plugin import MechanismPlugin

__all__ = ["register_mechanism", "get_plugin", "mechanism_names"]

_REGISTRY: dict[str, MechanismPlugin] = {}
_builtins_loaded = False

P = TypeVar("P", bound=type[MechanismPlugin])


def register_mechanism(name: str) -> Callable[[P], P]:
    """Class decorator registering a :class:`MechanismPlugin` subclass.

    ::

        @register_mechanism("crow-cache")
        class CrowCachePlugin(MechanismPlugin):
            def build(self, ctx): ...

    The decorated class is instantiated once; the instance must be
    stateless (run state belongs on the ``Mechanism`` objects it
    builds). Registering a name twice raises
    :class:`~repro.errors.ConfigError` — plugins are process-global, and
    a silent overwrite would let an import-order accident swap the
    semantics of every config naming the mechanism.
    """
    if not name:
        raise ConfigError("mechanism name must be non-empty")

    def decorate(cls: P) -> P:
        if name in _REGISTRY:
            raise ConfigError(
                f"mechanism {name!r} is already registered "
                f"(by {type(_REGISTRY[name]).__name__}); "
                f"registered mechanisms: {', '.join(sorted(_REGISTRY))}"
            )
        plugin = cls()
        plugin.name = name
        _REGISTRY[name] = plugin
        return cls

    return decorate


def _ensure_builtins() -> None:
    """Import the builtin plugin modules exactly once."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    # Historical names first (their registration order defines the
    # stable prefix of mechanism_names()), then the related-work plugins.
    import repro.mech.builtin  # noqa: F401
    import repro.mech.hira  # noqa: F401
    import repro.mech.cncprac  # noqa: F401
    import repro.mech.clrdram  # noqa: F401


def get_plugin(name: str) -> MechanismPlugin:
    """The plugin registered under ``name``.

    Raises :class:`~repro.errors.ConfigError` listing every registered
    mechanism when the name is unknown — this is the single validation
    point behind :class:`~repro.sim.config.SystemConfig`, the CLI and
    campaign specs.
    """
    _ensure_builtins()
    plugin = _REGISTRY.get(name)
    if plugin is None:
        raise ConfigError(
            f"unknown mechanism {name!r}; registered mechanisms: "
            f"{', '.join(mechanism_names())}"
        )
    return plugin


def mechanism_names() -> tuple[str, ...]:
    """All registered mechanism names, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)
