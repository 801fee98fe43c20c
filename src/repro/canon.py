"""Canonical freezing and hashing of plain-data values.

Two consumers need an order- and representation-insensitive view of
nested keyword arguments:

* the runner's graph/table memo caches key on frozen ``topology_kwargs``
  (which may contain nested dicts and lists);
* the orchestrator's result store keys cache entries on a SHA-256 of
  the full point description (config + runner kwargs + code version).

Both go through this module so a config hashes identically no matter
where it was built.  ``freeze`` produces a hashable tuple tree for
in-memory dict keys; ``canonical_json`` produces a byte-stable JSON
encoding (sorted keys, no whitespace) for on-disk keys.

:class:`PlainData` is the one record codec: every config, result and
report that crosses a process, disk or socket boundary takes its JSON
form from its own fields.
"""

from __future__ import annotations

import hashlib
import json
import typing
from array import array
from collections.abc import Mapping
from dataclasses import fields
from functools import lru_cache
from typing import Any, Dict, Tuple

__all__ = ["PlainData", "freeze", "canonical_json", "digest"]


def freeze(value: Any) -> Any:
    """Recursively convert ``value`` into a hashable canonical form.

    Mappings become key-sorted ``(key, value)`` tuples, sequences and
    sets become tuples (sets are sorted by repr for a stable order);
    scalars pass through.  Two equal nested structures freeze to equal
    (and equally-hashable) values regardless of insertion order.
    """
    if isinstance(value, Mapping):
        return tuple(sorted(((str(k), freeze(v)) for k, v in value.items()),
                            key=lambda kv: kv[0]))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((freeze(v) for v in value), key=repr))
    return value


def _plain(value: Any) -> Any:
    """JSON-encodable mirror of ``freeze``'s normalisation."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_plain(v) for v in value), key=repr)
    return value


def canonical_json(value: Any) -> str:
    """Byte-stable JSON: sorted keys, compact separators.

    Floats round-trip exactly through Python's JSON (repr-based), so a
    value hashed here and later re-read from disk re-hashes to the same
    digest.
    """
    return json.dumps(_plain(value), sort_keys=True,
                      separators=(",", ":"))


def digest(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


class PlainData:
    """Base of the frozen dataclasses whose JSON form is their fields.

    :meth:`to_dict` walks the fields: a nested record becomes its own
    dict, a tuple, list or ``array`` a list, a mapping a shallow
    ``dict``; anything else is kept as is.  :meth:`from_dict` inverts
    it from the field annotations, so ``cls.from_dict(json.loads(
    json.dumps(r.to_dict()))) == r`` for every record (floats survive
    JSON bit-exactly).  A missing key takes the field's default; an
    unknown key, a missing required one or a value of the wrong shape
    is a :class:`ValueError` naming the class.
    """

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Any) -> Any:
        name = cls.__name__
        if not isinstance(data, Mapping):
            raise ValueError(f"{name} must be a mapping, got {data!r}")
        hints = _hints(cls)
        unknown = set(data) - hints.keys()
        if unknown:
            raise ValueError(f"unknown {name} fields {sorted(unknown)}")
        try:
            return cls(**{k: _decode(hints[k], v, f"{name}.{k}")
                          for k, v in data.items()})
        except TypeError as exc:    # a missing field, a value's type
            raise ValueError(f"{name}: {exc}") from exc


def _encode(value: Any) -> Any:
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, PlainData):
        return value.to_dict()
    if isinstance(value, array):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, Mapping):
        return dict(value)
    return value


#: resolved field annotations, once per record class
_hints = lru_cache(maxsize=None)(typing.get_type_hints)


@lru_cache(maxsize=None)
def _shape(hint: Any) -> Tuple[Any, Any]:
    """``(container, item hint)`` of a field annotation; ``Optional[X]``
    is ``X`` (``None`` decodes to ``None`` whatever the hint)."""
    origin = typing.get_origin(hint) or hint
    args = typing.get_args(hint)
    if origin is typing.Union:
        return _shape(args[0])
    return origin, (args[0] if args else None)


def _decode(hint: Any, value: Any, where: str) -> Any:
    origin, item = _shape(hint)
    if value is None:
        return None
    if isinstance(origin, type) and issubclass(origin, PlainData):
        return origin.from_dict(value)
    if origin is array:
        return array("d", value)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return origin(value if item is None else
                      (_decode(item, v, where) for v in value))
    if origin in (dict, Mapping):
        if not isinstance(value, Mapping):
            raise ValueError(f"{where} must be a mapping, got {value!r}")
        return dict(value)
    return value
