"""Typed field access for the store's JSON metadata files.

The catalog manifest, each ``projection.json`` and each column-file header
have one decoder apiece, beside their writers (the catalog open,
:meth:`~repro.storage.projection.Projection.open`,
:meth:`~repro.storage.column_file.ColumnFile.open`), and the scrubber runs
those same decoders. This is the vocabulary they refuse in: every refusal
is one :class:`~repro.errors.MetadataError` whose message names the file
and the field.
"""

from __future__ import annotations

import json
import reprlib

from ..errors import EncodingError, MetadataError

#: Field kinds: a test on the parsed JSON value, and what it must be.
_KINDS = {
    "count": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "int": (lambda v: type(v) is int, "an integer"),
    "number": (lambda v: type(v) in (int, float), "a number"),
    "int?": (lambda v: v is None or type(v) is int, "an integer or null"),
    "text": (lambda v: isinstance(v, str), "a string"),
    "text?": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "object": (lambda v: isinstance(v, dict), "an object"),
}

_REQUIRED = object()


class MetadataReader:
    """Decodes one metadata file at *path*; *what* heads every refusal
    (``"corrupt catalog manifest"``, ``"cannot open column file"``)."""

    def __init__(self, path, what: str):
        self.path = path
        self.what = what

    def error(self, problem: str) -> MetadataError:
        return MetadataError(f"{self.path}: {self.what}: {problem}")

    def bad(self, field: str, problem: str) -> MetadataError:
        return self.error(f"field {field!r} {problem}")

    def parse(self, raw: bytes) -> dict:
        """*raw* as one JSON object."""
        try:
            data = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise self.error(f"not UTF-8 JSON: {exc}") from None
        if not isinstance(data, dict):
            raise self.error(
                f"holds a JSON {type(data).__name__}, not an object"
            )
        return data

    def value(self, value, kind: str, field: str):
        """*value* when it is of *kind*; a refusal naming *field* if not."""
        test, noun = _KINDS[kind]
        if not test(value):
            raise self.bad(field, f"is {reprlib.repr(value)}, not {noun}")
        return value

    def field(self, obj: dict, key: str, kind: str, at: str = "",
              default=_REQUIRED):
        """``obj[key]`` of *kind*, reported as ``<at>.<key>`` (or *key*);
        *default* when the key is absent, if one is given."""
        field = f"{at}.{key}" if at else key
        if key not in obj:
            if default is not _REQUIRED:
                return default
            raise self.bad(field, "is missing")
        return self.value(obj[key], kind, field)

    def known(self, name: str, lookup, noun: str, field: str):
        """``lookup(name)`` for a registry *lookup* (column types,
        encodings) that raises :class:`EncodingError` on unknown names."""
        try:
            return lookup(name)
        except EncodingError:
            pass
        raise self.bad(field, f"is {name!r}, not a known {noun}")
