"""Canonical JSON serialization and hashing helpers."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

# Serialize to canonical JSON: lexicographic keys, no whitespace.  One
# encoder serves the whole process; ``json.dumps`` with these arguments
# would build a new one per call, and the wire encodes one line per record.
canon_dumps: Callable[[Any], str] = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
).encode


def canon_bytes(obj: Any) -> bytes:
    return canon_dumps(obj).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def doc_hash(obj: Any) -> str:
    """Hash of a document's canonical form, insensitive to formatting."""
    return sha256_hex(canon_bytes(obj))
