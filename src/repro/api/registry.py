"""One generic plugin registry for the whole code base.

Before this module existed every subpackage rolled its own registry
idiom: ``gpusim.device`` kept a module-level dict plus an alias table,
``libraries.base`` a class-decorator registry, ``core.criteria`` a dict
comprehension, ``models.zoo`` two parallel dicts and
``experiments.registry`` a literal mapping.  Each had its own error type
and error message format.  :class:`Registry` unifies them: named
registration (usable as a decorator), alias resolution, case-insensitive
lookup and a uniform :class:`UnknownPluginError` message that lists the
valid names.

The five registry instances live next to the things they register:

* :data:`repro.gpusim.device.DEVICES` — :class:`~repro.gpusim.device.DeviceSpec` presets,
* :data:`repro.libraries.base.LIBRARIES` — library planner classes,
* :data:`repro.core.criteria.CRITERIA` — importance-criterion classes,
* :data:`repro.models.zoo.MODELS` — network builder callables,
* :data:`repro.experiments.registry.EXPERIMENTS` — experiment generators.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, List, Mapping, Optional, Tuple, Type, TypeVar

T = TypeVar("T")


class UnknownPluginError(KeyError):
    """Raised when a name is not present in a :class:`Registry`.

    Subclassed by each registry's legacy error type (for example
    :class:`repro.gpusim.device.UnknownDeviceError`) so existing
    ``except`` clauses keep working while new code can catch the single
    shared type.
    """


class RegistryError(ValueError):
    """Raised for invalid registrations (empty names, bad aliases)."""



class Registry(Generic[T]):
    """A named collection of plugins with aliases and uniform errors.

    Parameters
    ----------
    kind:
        Human-readable singular noun used in error messages
        (``"device"``, ``"library"``, ...).
    error_cls:
        Exception class raised for unknown names.  Must accept a single
        message argument; usually a subclass of
        :class:`UnknownPluginError`.
    aliases:
        Initial ``alias -> canonical name`` mapping.
    sort_names:
        When true (the default) :meth:`available` returns names sorted
        alphabetically; otherwise in registration order (the experiment
        registry preserves the paper's figure/table order).
    """

    def __init__(
        self,
        kind: str,
        *,
        error_cls: Type[KeyError] = UnknownPluginError,
        aliases: Optional[Mapping[str, str]] = None,
        sort_names: bool = True,
    ) -> None:
        self.kind = kind
        self.error_cls = error_cls
        self._entries: Dict[str, T] = {}
        self._aliases: Dict[str, str] = {}
        self._sort_names = sort_names
        for alias, target in (aliases or {}).items():
            self.alias(alias, target)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    @staticmethod
    def _normalise(name: str) -> str:
        return name.strip().lower()

    @staticmethod
    def _derive_name(obj: object) -> str:
        name = getattr(obj, "name", "") or getattr(obj, "__name__", "")
        if not isinstance(name, str) or not name:
            raise RegistryError(
                f"cannot derive a registry name from {obj!r}; "
                "pass one explicitly: register(name, obj)"
            )
        return name

    def register(self, name=None, obj=None, *, aliases: Tuple[str, ...] = ()):
        """Register a plugin; usable directly or as a decorator.

        Supported forms::

            REG.register("name", obj)          # direct
            @REG.register("name")              # decorator with explicit name
            @REG.register                      # decorator, name from obj.name
                                               # or obj.__name__
        """

        if name is not None and not isinstance(name, str):
            # Bare-decorator form: ``name`` is actually the object.
            return self._register(self._derive_name(name), name, aliases)
        if obj is not None:
            if name is None:
                raise RegistryError("register(name, obj) requires a name")
            return self._register(name, obj, aliases)

        def decorator(plugin):
            key = name if name is not None else self._derive_name(plugin)
            return self._register(key, plugin, aliases)

        return decorator

    def _register(self, name: str, obj: T, aliases: Tuple[str, ...] = ()) -> T:
        key = self._normalise(name)
        if not key:
            raise RegistryError(f"{self.kind} names must be non-empty")
        if key in self._aliases:
            raise RegistryError(
                f"{self.kind} name {key!r} is already an alias for {self._aliases[key]!r}"
            )
        self._entries[key] = obj
        for alias in aliases:
            self.alias(alias, key)
        return obj

    def alias(self, alias: str, target: str) -> None:
        """Map an alternative name onto a canonical one."""

        alias_key = self._normalise(alias)
        target_key = self._normalise(target)
        if not alias_key:
            raise RegistryError(f"{self.kind} aliases must be non-empty")
        if alias_key in self._entries:
            raise RegistryError(
                f"{self.kind} alias {alias_key!r} shadows a registered name"
            )
        self._aliases[alias_key] = target_key

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def available(self) -> List[str]:
        """Registered canonical names."""

        names = list(self._entries)
        return sorted(names) if self._sort_names else names

    def canonical(self, name: str) -> str:
        """Resolve aliases and case to a canonical registered name."""

        if not isinstance(name, str):
            raise self.error_cls(f"{self.kind} must be a string, got {name!r}")
        key = self._normalise(name)
        key = self._aliases.get(key, key)
        if key not in self._entries:
            raise self.error_cls(
                f"unknown {self.kind} {name!r}; available: {self.available()}"
            )
        return key

    def get(self, name: str) -> T:
        """Look up the registered object by name or alias."""

        return self._entries[self.canonical(name)]

    def create(self, name: str, *args, **kwargs):
        """Call the registered object (class or factory) with the arguments."""

        factory = self.get(name)
        if not callable(factory):
            raise TypeError(f"{self.kind} {name!r} is not callable")
        return factory(*args, **kwargs)

    def items(self) -> List[Tuple[str, T]]:
        return [(name, self._entries[name]) for name in self.available()]

    def aliases(self) -> Dict[str, str]:
        """A copy of the ``alias -> canonical name`` table."""

        return dict(self._aliases)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        key = self._normalise(name)
        return self._aliases.get(key, key) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.available())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Registry kind={self.kind!r} entries={self.available()}>"


__all__ = ["Registry", "RegistryError", "UnknownPluginError"]
