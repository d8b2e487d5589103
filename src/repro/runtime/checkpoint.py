"""Checkpoint serialization.

Soft checkpoints travel from an active engine to its passive replica as
bytes (paper II.F.2: the scheduler "serializes them and sends them to the
partner").  The encoder below is deliberately *canonical* — dict keys are
sorted, tuples and bytes are tagged — so that two identical states always
produce identical bytes.  Tests use this property to assert replay
equality at the byte level.

Supported value types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``list``, ``tuple``, and ``dict`` with str/int/tuple keys.
This covers everything component state cells and runtime snapshots
contain; anything else is a hard error (a component trying to checkpoint
an open socket should fail loudly, not pickle it).

Plain str-keyed dicts — the overwhelmingly common shape in state cells
and message payloads — map to plain JSON objects, whose key order the
encoder's ``sort_keys`` already makes canonical; the tagged
``{"__t__": "d", ...}`` wrapper (with its per-key sort) is reserved for
dicts with non-string keys.  A str-keyed dict that happens to contain
the tag key itself still takes the wrapped path, keeping decoding
unambiguous.

The same serializer encodes every wire payload, so it is written to
cost one Python call per *container*, not per value: :func:`_encode`
dispatches on exact ``type()`` and keeps scalars inline in the container
loops (subclasses and ``bytes`` fall through to the ``isinstance`` chain in
:func:`_encode_rare`), the JSON text is produced
and parsed by one module-level encoder / decoder, and decoding undoes
the tags in an ``object_hook`` the C parser calls once per JSON object,
innermost first.  The bytes are pinned by a reference encoder kept in
``tests/props/test_prop_serializer.py``.
"""

from __future__ import annotations

import json
from base64 import b64decode, b64encode
from typing import Any

from repro.errors import StateError

_TAG = "__t__"

#: Exact types the JSON encoder takes as they are.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _encode(obj: Any) -> Any:
    """The JSON-ready form of ``obj`` (exact builtin types inline)."""
    kind = type(obj)
    if kind in _SCALARS:
        return obj
    scalars = _SCALARS
    if kind is dict:
        if _TAG not in obj:
            out = {}
            for key, value in obj.items():
                if type(key) is not str:
                    break
                out[key] = (value if type(value) in scalars
                            else _encode(value))
            else:
                return out
        return _encode_tagged_dict(obj)
    if kind is list:
        return [x if type(x) in scalars else _encode(x) for x in obj]
    if kind is tuple:
        return {_TAG: "t",
                "v": [x if type(x) in scalars else _encode(x) for x in obj]}
    return _encode_rare(obj)


def _encode_rare(obj: Any) -> Any:
    """Everything :func:`_encode` has no exact-type branch for."""
    if isinstance(obj, (bool, int, float, str)):
        return obj  # a subclass: the JSON encoder writes it as its base
    if isinstance(obj, bytes):
        return {_TAG: "b", "v": b64encode(obj).decode("ascii")}
    for base in (tuple, list, dict):
        if isinstance(obj, base):
            return _encode(base(obj))
    raise StateError(
        f"unserializable checkpoint value of type {type(obj).__name__}")


def _encode_tagged_dict(obj: dict) -> Any:
    items = [[_encode_key(key), _encode(value)]
             for key, value in obj.items()]
    items.sort(key=_key_order)
    return {_TAG: "d", "v": items}


def _encode_key(key: Any) -> Any:
    if key is None or isinstance(key, (str, int, bool, tuple, bytes)):
        return _encode(key)
    raise StateError(f"unserializable dict key of type {type(key).__name__}")


#: ``allow_nan`` and ``ensure_ascii`` stay at their ``json.dumps``
#: defaults; the circular-reference check is off because :func:`_encode`
#: hands over a tree it has just built (a cycle overflows its recursion
#: first, as it always did).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False)
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _key_order(pair: list) -> str:
    """Sort key of one tagged-dict entry: its encoded key as JSON text."""
    return _KEY_ENCODER.encode(pair[0])


def _untag(obj: dict) -> Any:
    """``object_hook``: children arrive already decoded."""
    tag = obj.get(_TAG)
    if tag is None:
        return obj
    if tag == "t":
        return tuple(obj["v"])
    if tag == "b":
        return b64decode(obj["v"])
    if tag == "d":
        return {key: value for key, value in obj["v"]}
    raise StateError(f"corrupt checkpoint: unknown tag {tag!r}")


_DECODER = json.JSONDecoder(object_hook=_untag)


def dumps(obj: Any) -> bytes:
    """Serialize ``obj`` to canonical bytes."""
    return _ENCODER.encode(_encode(obj)).encode("utf-8")


def loads(blob: bytes) -> Any:
    """Inverse of :func:`dumps`.

    Bytes that :func:`dumps` could not have produced — bad UTF-8, bad
    JSON, anything around the one value (whitespace included), a tag
    without its value, nesting past the recursion limit — raise
    :class:`~repro.errors.StateError`.
    """
    try:
        text = blob.decode("utf-8")
        obj, end = _DECODER.raw_decode(text)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise StateError(f"corrupt checkpoint: {exc!r}") from exc
    if end != len(text):
        raise StateError(f"corrupt checkpoint: {len(text) - end} "
                         f"characters after the value")
    return obj
