"""Canonical JSON serialization and hashing helpers."""

from __future__ import annotations

import hashlib
import json
import json.encoder
from types import UnionType
from typing import Any, get_args, get_origin

# The wire encodes one line per record, so canonical JSON goes straight to
# CPython's C encoder, built once, instead of through ``JSONEncoder.encode``
# and ``iterencode``, which build a new one per call.  Its settings are what
# ``json.dumps(obj, sort_keys=True, separators=(",", ":"),
# ensure_ascii=False)`` uses: lexicographic keys, no whitespace, UTF-8 text
# left unescaped, NaN and infinities written as ``NaN``/``Infinity``.  No
# circular-reference markers: records and documents are trees.
if json.encoder.c_make_encoder is None or json.encoder.c_encode_basestring is None:
    raise ImportError("holobench needs CPython's C json encoder (json.encoder.c_make_encoder)")

# Canonical JSON text of one string, quotes included: what ``canon_dumps``
# writes for a string, key or value.
canon_str = json.encoder.c_encode_basestring

_c_encode = json.encoder.c_make_encoder(
    None,  # markers
    json.JSONEncoder().default,
    canon_str,
    None,  # indent
    ":",  # key separator
    ",",  # item separator
    True,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)


def is_int(value: Any) -> bool:
    """Whether a JSON value is an integer.  ``true`` and ``false`` are not,
    though Python's ``bool`` subclasses ``int``."""
    return type(value) is int


def fits(value: Any, hint: Any) -> bool:
    """Whether a JSON value fits a resolved field type: ``Any``, ``X | None``,
    ``dict[str, X]`` or a scalar type.  ``true`` and ``false`` fit only
    ``Any``; an integer fits ``float``."""
    if hint is Any:
        return True
    origin = get_origin(hint)
    if origin is UnionType:
        return any(fits(value, arg) for arg in get_args(hint))
    if origin is dict:
        _, value_hint = get_args(hint)
        return isinstance(value, dict) and all(
            isinstance(k, str) and fits(v, value_hint) for k, v in value.items()
        )
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def canon_dumps(obj: Any) -> str:
    """Canonical JSON text of a document."""
    return "".join(_c_encode(obj, 0))


def canon_bytes(obj: Any) -> bytes:
    return canon_dumps(obj).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def doc_hash(obj: Any) -> str:
    """Hash of a document's canonical form, insensitive to formatting."""
    return sha256_hex(canon_bytes(obj))


def read_document(path: str, error: type[Exception]) -> str:
    """The text of the document file at ``path``: one binary read, its bytes
    decoded once as UTF-8.  A binary read skips the text layer's decoder and
    newline translation; JSON reads a CR as whitespace either way, so only
    the position a JSON refusal reports can differ in a file with CRs."""
    with open(path, "rb") as f:
        return decode_document(f.read(), path, error)


def decode_document(raw: bytes, path: str, error: type[Exception]) -> str:
    """``raw``, the bytes of the document file at ``path``, as text; bytes
    that are not UTF-8 raise ``error`` naming the file.  Documents are never
    handed to ``json.loads`` as bytes, which would also take UTF-16, UTF-32
    and a leading byte order mark."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
