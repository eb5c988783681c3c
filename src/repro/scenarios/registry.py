"""Named registries for algorithms, adversaries and problems.

Every component a scenario can reference is registered under a short stable
name.  The CLI, the benchmark harnesses and :mod:`repro.scenarios.spec` all
enumerate and construct components through these registries instead of
hard-coding dictionaries, so adding an algorithm (or plugging in a
third-party one) is a single decorator::

    from repro.scenarios import register_algorithm

    @register_algorithm("my-gossip", defaults={"fanout": 2})
    class MyGossipAlgorithm(UnicastAlgorithm):
        def __init__(self, fanout: int = 1): ...

The registered callable may be a class or a factory function; its signature
is introspected so ``python -m repro list`` can show the tunable parameters
and their defaults, and so unknown parameters are rejected early with a
helpful message.

The library's own components are registered by import path instead
(:mod:`repro.scenarios.builtins`, :mod:`repro.backends`): looking up or
listing names imports none of them, and each is imported on first use.
"""

from __future__ import annotations

import difflib
import functools
import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.utils.validation import ConfigurationError


@dataclass(frozen=True)
class ParameterInfo:
    """One constructor parameter of a registered component."""

    name: str
    required: bool
    default: Any = None
    annotation: str = ""

    def describe(self) -> Dict[str, Any]:
        """A JSON-ready summary (used by ``python -m repro list --json``)."""
        info: Dict[str, Any] = {"name": self.name, "required": self.required}
        if not self.required:
            info["default"] = self.default
        if self.annotation:
            info["annotation"] = self.annotation
        return info


@dataclass(frozen=True)
class RegistryEntry:
    """A named component: factory plus registration-time default parameters."""

    name: str
    factory: Callable[..., Any]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""

    def parameters(self) -> List[ParameterInfo]:
        """The factory's parameters with registration defaults applied."""
        parameters: List[ParameterInfo] = []
        for parameter in self._signature_parameters:
            if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
                continue
            if parameter.name in self.defaults:
                default = self.defaults[parameter.name]
                required = False
            elif parameter.default is parameter.empty:
                default = None
                required = True
            else:
                default = parameter.default
                required = False
            annotation = (
                "" if parameter.annotation is parameter.empty else str(parameter.annotation)
            )
            parameters.append(
                ParameterInfo(
                    name=parameter.name,
                    required=required,
                    default=default,
                    annotation=annotation,
                )
            )
        return parameters

    def accepts(self, parameter_name: str) -> bool:
        """Whether the factory accepts the given keyword parameter."""
        for parameter in self._signature_parameters:
            if parameter.kind is parameter.VAR_KEYWORD:
                return True
            if parameter.name == parameter_name and parameter.kind is not parameter.VAR_POSITIONAL:
                return True
        return False

    def create(self, **params: Any) -> Any:
        """Instantiate the component with defaults overridden by ``params``."""
        merged = dict(self.defaults)
        merged.update(params)
        unknown = [name for name in merged if not self.accepts(name)]
        if unknown:
            known = ", ".join(info.name for info in self.parameters()) or "(none)"
            raise ConfigurationError(
                f"{self.name!r} does not accept parameter(s) {sorted(unknown)}; "
                f"known parameters: {known}"
            )
        missing = [
            info.name for info in self.parameters() if info.required and info.name not in merged
        ]
        if missing:
            raise ConfigurationError(
                f"{self.name!r} requires parameter(s) {missing}"
            )
        return self.factory(**merged)

    def describe(self) -> Dict[str, Any]:
        """A JSON-ready summary of the entry."""
        return {
            "name": self.name,
            "description": self.description,
            "parameters": [info.describe() for info in self.parameters()],
        }

    @functools.cached_property
    def _signature_parameters(self) -> Tuple[inspect.Parameter, ...]:
        # Computed once per entry: every create() checks each parameter
        # against it, so sweeps would otherwise re-inspect per repetition.
        try:
            signature = inspect.signature(self.factory)
        except (TypeError, ValueError):  # builtins / C callables
            return ()
        return tuple(signature.parameters.values())


def _first_docstring_line(obj: Any) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.strip().splitlines()[0].strip()


class _PathEntry(RegistryEntry):
    """An entry whose factory is given as an import path ``"module:attribute"``.

    The path is imported on the first read of :attr:`factory` (so by
    :meth:`parameters`, :meth:`create` and :meth:`describe` too), and a
    description left unset is then the factory's first docstring line.
    The dataclass ``__init__`` stores both fields through the setters.
    """

    #: The import path the factory was registered by.
    path = ""

    @property  # type: ignore[override]
    def factory(self) -> Callable[..., Any]:
        if "_factory" not in self.__dict__:
            module_name, _, attribute = self.path.partition(":")
            try:
                factory = getattr(importlib.import_module(module_name), attribute)
            except (ImportError, AttributeError) as error:
                raise ConfigurationError(
                    f"cannot load {self.name!r} from {self.path!r}: {error}"
                ) from error
            self.__dict__["_factory"] = factory
        return self.__dict__["_factory"]

    @factory.setter
    def factory(self, factory: Any) -> None:
        self.__dict__["path" if isinstance(factory, str) else "_factory"] = factory

    @property  # type: ignore[override]
    def description(self) -> str:
        if self.__dict__["_description"] is None:
            self.__dict__["_description"] = _first_docstring_line(self.factory)
        return self.__dict__["_description"]

    @description.setter
    def description(self, description: Any) -> None:
        self.__dict__["_description"] = description


class Registry:
    """A case-sensitive name → :class:`RegistryEntry` mapping for one kind."""

    def __init__(self, kind: str):
        self._kind = kind
        self._entries: Dict[str, RegistryEntry] = {}

    @property
    def kind(self) -> str:
        """What this registry holds: ``"algorithm"``, ``"adversary"`` or ``"problem"``."""
        return self._kind

    def register(
        self,
        name: str,
        *,
        defaults: Optional[Mapping[str, Any]] = None,
        description: Optional[str] = None,
        replace: bool = False,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering a class or factory function under ``name``."""
        if not name or not isinstance(name, str):
            raise ConfigurationError(f"{self._kind} registry names must be non-empty strings")

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._entries and not replace:
                raise ConfigurationError(
                    f"{self._kind} {name!r} is already registered; "
                    f"pass replace=True to override"
                )
            self._entries[name] = RegistryEntry(
                name=name,
                factory=factory,
                defaults=dict(defaults or {}),
                description=description
                if description is not None
                else _first_docstring_line(factory),
            )
            return factory

        return decorator

    def _register_path(
        self,
        name: str,
        path: str,
        *,
        defaults: Optional[Mapping[str, Any]] = None,
        description: Optional[str] = None,
    ) -> None:
        """Register the factory at import path ``"module:attribute"`` under ``name``.

        How the library registers its own components: nothing is imported
        until the entry's factory is first needed (see :class:`_PathEntry`).
        """
        self._entries[name] = _PathEntry(name, path, dict(defaults or {}), description)

    def get(self, name: str) -> RegistryEntry:
        """The entry for ``name``; raises with a suggestion on a miss.

        A lookup miss never escapes as a bare :class:`KeyError`: it becomes
        a :class:`~repro.utils.validation.ConfigurationError` naming the
        closest registered name (did-you-mean) plus the full known list.
        """
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "(none registered)"
            suggestion = ""
            if isinstance(name, str) and self._entries:
                close = difflib.get_close_matches(name, self.names(), n=1, cutoff=0.5)
                if close:
                    suggestion = f" did you mean {close[0]!r}?"
            raise ConfigurationError(
                f"unknown {self._kind} {name!r};{suggestion} "
                f"known {self._kind}s: {known}"
            ) from None

    def create(self, name: str, **params: Any) -> Any:
        """Instantiate the component registered under ``name``."""
        return self.get(name).create(**params)

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(self._entries)

    def entries(self) -> List[RegistryEntry]:
        """All entries, sorted by name."""
        return [self._entries[name] for name in self.names()]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


ALGORITHM_REGISTRY = Registry("algorithm")
ADVERSARY_REGISTRY = Registry("adversary")
PROBLEM_REGISTRY = Registry("problem")

register_algorithm = ALGORITHM_REGISTRY.register
register_adversary = ADVERSARY_REGISTRY.register
register_problem = PROBLEM_REGISTRY.register
