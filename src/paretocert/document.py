"""Input documents: the one reader of JSON files, and the rules that every
input document (problem, finite-dimensional program, trajectory, directions,
control) keeps.

A file is read once: its value is parsed from those bytes (UTF-8 JSON) and
its digest is the SHA-256 of the same bytes.  A document is a JSON object
with every required field and no other; a count is a JSON integer (not a
bool) with a lower bound; an expression list is a list of strings; a sample
array is a list, or a list of equal-length lists, of JSON numbers (int or
float, not bool or string), every one finite, of the shape the request
expects.  Each check raises ``error(message)`` (a :class:`DocumentError`
unless the schema passes its own subclass or factory) with a message that
names the JSON path, and :func:`read` puts the file path in front.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from itertools import chain

import numpy as np

__all__ = ["DocumentError", "parse", "read", "mapping", "integer", "strings", "samples"]


class DocumentError(ValueError):
    """An input document breaks its schema; the message names the JSON path."""


def parse(text: str | bytes, error=DocumentError):
    """The JSON value of a text (bytes are UTF-8)."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as err:  # not JSON, or bytes that are not UTF-8
        raise error(f"invalid JSON: {err}") from None


def read(path: str, kind: str, schema):
    """``(schema(value), sha256)`` of the JSON file at path.  The bytes are
    read once: the value is parsed from them and the digest is of them."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise DocumentError(f"cannot read {kind} file: {err}") from None
    try:
        return schema(parse(raw)), hashlib.sha256(raw).hexdigest()
    except DocumentError as err:
        raise type(err)(f"{path}: {err}") from None


def mapping(document, required, optional=(), error=DocumentError) -> Mapping:
    """The JSON object of a text, or the mapping given, with every required
    field and no field outside required and optional."""
    data = parse(document, error) if isinstance(document, (str, bytes)) else document
    if not isinstance(data, Mapping):
        raise error("document must be a JSON object")
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise error(f"unknown fields: {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise error(f"missing field '{key}'")
    return data


def integer(data: Mapping, key: str, least: int, error=DocumentError) -> int:
    """data[key], a JSON integer of at least ``least``."""
    value = data[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise error(f"'{key}' must be an integer of at least {least}, not {value!r}")
    return value


def strings(data: Mapping, key: str, length: int | None, error=DocumentError) -> list:
    """data[key], a list of ``length`` strings (None: at least one)."""
    value = data[key]
    if not (isinstance(value, list) and set(map(type, value)) <= {str}
            and (len(value) == length if length is not None else value)):
        count = "a nonempty list of" if length is None else f"a list of {length}"
        raise error(f"'{key}' must be {count} strings")
    return value


def samples(data: Mapping, key: str, shape: tuple, error=DocumentError) -> np.ndarray:
    """data[key] as a float array of the given shape, one or two entries,
    each a length or None for any: a JSON list (of lists) of finite numbers
    (a numpy array is read as its nested list).  The element types are
    checked in one pass, as a set."""
    value = data[key]
    if isinstance(value, np.ndarray):
        value = value.tolist()
    rows = value if len(shape) == 2 else [value]
    if not isinstance(value, list) or set(map(type, rows)) - {list}:
        raise error(f"'{key}' must be a list of {'lists of ' * (len(shape) - 1)}numbers")
    not_finite = f"'{key}' entries must be finite numbers"
    types = set(map(type, chain.from_iterable(rows)))
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in types):
        raise error(not_finite)
    try:
        array = np.array(value, dtype=float)
    except OverflowError:  # an integer beyond the double range
        raise error(not_finite) from None
    except ValueError:  # rows of different lengths
        raise error(f"'{key}' rows differ in length") from None
    if array.ndim != len(shape) or any(e not in (None, f) for e, f in zip(shape, array.shape)):
        expected = ", ".join("any" if e is None else str(e) for e in shape)
        raise error(f"'{key}' has shape ({', '.join(map(str, array.shape))}), "
                    f"expected ({expected})")
    if not np.isfinite(array).all():
        raise error(not_finite)
    return array
