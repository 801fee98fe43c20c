"""The one name -> spec table behind every pluggable axis.

The paper's evaluation is a cross product selected by name -- topology
x routing scheme x selection policy x traffic pattern x arrival process
(x engine, x experiment) -- and each axis is one :class:`Registry`
instance living next to the things it names: ``topology.TOPOLOGIES``,
``routing.schemes.SCHEMES``, ``routing.policies.POLICIES``,
``traffic.registry.PATTERNS`` / ``ARRIVALS``, ``sim.engines.ENGINES``
and ``experiments.registry.EXPERIMENTS``; what a worker process may be
asked to run is one more, ``orchestrator.lease.TASKS`` (DESIGN.md
section 3.1 tabulates what each spec declares).

A spec is any object with a ``name``; what else it declares is up to
the axis (``supports(graph)``, typed ``kwargs``, ``build``, ``render``).
Consumers -- :meth:`repro.config.SimConfig.validate`, the CLI's
``choices=`` lists and listing verbs, the tournament -- only *read*
registries, so an entry registered at runtime is selectable everywhere
with no other edit.

This module imports nothing from the package, so every layer can use it
without import cycles.  No registry call sits on a per-message or
per-event path: names are resolved once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, Generic, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, TypeVar)

Spec = TypeVar("Spec")

#: sentinel default for kwargs a caller must supply
REQUIRED = object()


class UsageError(ValueError):
    """A run *description* refused: an unknown registered name, an
    undeclared or mistyped kwarg, an unparsable list, a scheme or
    pattern named for a topology it declares it cannot serve.  The
    message names what is declared, available or required;
    ``repro.cli.main`` reports this class alone as one line with exit
    status 2 -- a plain :class:`ValueError` from inside a run keeps its
    traceback."""


@dataclass(frozen=True)
class Kwarg:
    """One declared keyword argument of a registered spec's builder."""

    name: str
    #: value type: int, float, str or bool (int does not accept bool)
    type: type
    #: default value, or :data:`REQUIRED` when the caller must supply it
    default: Any = REQUIRED
    help: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def check(self, value: Any) -> None:
        """Raise :class:`UsageError` unless ``value`` fits the type."""
        want = (int, float) if self.type is float else self.type
        if not isinstance(value, want) or (
                self.type is not bool and isinstance(value, bool)):
            raise UsageError(
                f"kwarg {self.name!r} wants {self.type.__name__}, "
                f"got {type(value).__name__} ({value!r})")

    def parse(self, text: str) -> Any:
        """Typed value from a CLI ``key=value`` string."""
        if self.type is bool:
            low = text.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise UsageError(f"kwarg {self.name!r}: not a boolean: {text!r}")
        try:
            return self.type(text)
        except ValueError:
            raise UsageError(
                f"kwarg {self.name!r}: not a valid "
                f"{self.type.__name__}: {text!r}") from None

    def describe(self) -> str:
        """``name:type=default`` (listing verbs print these)."""
        default = "<required>" if self.required else self.default
        return f"{self.name}:{self.type.__name__}={default}"


def comma_list(text: str, item: type, what: str) -> Tuple[Any, ...]:
    """``"1,2,4"`` as a tuple of ``item`` (a CLI value that is a list
    stays a ``str`` :class:`Kwarg`; its consumer splits it here)."""
    try:
        return tuple(item(part.strip()) for part in text.split(","))
    except ValueError:
        raise UsageError(
            f"{what}: not a comma-separated list of {item.__name__} "
            f"values: {text!r}") from None


class Registry(Generic[Spec]):
    """Specs of one ``kind`` (``"routing scheme"``, ``"engine"``, ...)
    keyed by name.

    Iteration and ``in`` work on names; iteration keeps registration
    order (the order artefacts are regenerated in), :meth:`names` sorts.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._specs: Dict[str, Spec] = {}

    def register(self, spec: Spec, name: Optional[str] = None) -> Spec:
        """Add ``spec`` under ``name`` (default: ``spec.name``);
        rejects duplicate names."""
        if name is None:
            name = spec.name  # type: ignore[attr-defined]
        if name in self._specs:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._specs[name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove an entry (tests register throwaway ones)."""
        self._specs.pop(name, None)

    def names(self) -> Tuple[str, ...]:
        """Registered names, sorted."""
        return tuple(sorted(self._specs))

    def get(self, name: str) -> Spec:
        """The spec registered under ``name``; the error of an unknown
        name lists what is available."""
        try:
            return self._specs[name]
        except KeyError:
            raise UsageError(
                f"unknown {self.kind} {name!r}; available: "
                f"{', '.join(self.names()) or 'none'}") from None

    __getitem__ = get

    def items(self) -> List[Tuple[str, Spec]]:
        """(name, spec) pairs, sorted by name."""
        return [(name, self._specs[name]) for name in self.names()]

    def supported(self, graph: Any) -> Tuple[str, ...]:
        """Sorted names of the specs whose ``supports(graph)`` holds."""
        return tuple(name for name, spec in self.items()
                     if spec.supports(graph))  # type: ignore[attr-defined]

    def supporting(self, name: str, graph: Any) -> Spec:
        """The spec registered under ``name``, refused with its
        ``topology_note`` when it declares it cannot serve ``graph``."""
        spec = self.get(name)
        if not spec.supports(graph):  # type: ignore[attr-defined]
            raise UsageError(
                f"{self.kind} {name!r} does not support topology "
                f"{graph.name!r} (requires: "
                f"{spec.topology_note})")  # type: ignore[attr-defined]
        return spec

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    # -- declared kwargs (specs carrying a ``kwargs`` tuple of Kwarg) --------

    def _declared(self, name: str) -> Dict[str, Kwarg]:
        return {k.name: k for k in self.get(name).kwargs}  # type: ignore

    def check_kwargs(self, name: str, kwargs: Mapping[str, Any]) -> None:
        """Raise :class:`UsageError` unless ``kwargs`` are all declared
        by ``name``'s spec with the right types and nothing required is
        missing."""
        declared = self._declared(name)
        unknown = set(kwargs) - set(declared)
        if unknown:
            raise UsageError(
                f"{self.kind} {name!r} got unknown kwargs "
                f"{sorted(unknown)}; declared: {sorted(declared) or 'none'}")
        for k in declared.values():
            if k.name in kwargs:
                k.check(kwargs[k.name])
            elif k.required:
                raise UsageError(
                    f"{self.kind} {name!r} requires kwarg {k.name!r} "
                    f"({k.help})")

    def parse_kwargs(self, name: str,
                     pairs: Sequence[str]) -> Dict[str, Any]:
        """Typed kwargs from CLI ``key=value`` strings, against the
        declaration of ``name``'s spec."""
        declared = self._declared(name)
        out: Dict[str, Any] = {}
        for pair in pairs:
            key, sep, text = pair.partition("=")
            if not sep:
                raise UsageError(
                    f"{self.kind} argument {pair!r} is not of the form "
                    f"key=value")
            if key not in declared:
                raise UsageError(
                    f"{self.kind} {name!r} declares no kwarg {key!r}; "
                    f"declared: {sorted(declared) or 'none'}")
            out[key] = declared[key].parse(text)
        return out
