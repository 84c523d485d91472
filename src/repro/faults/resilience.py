"""The defense the chaos layer proves out: atomic, checksummed writes.

Checkpoint integrity uses a content checksum over the canonical JSON
encoding, and every write goes through a tmp file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import os


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically: tmp file, fsync, rename.

    An interrupt mid-write can no longer truncate an existing file at
    ``path`` — either the old content survives untouched or the new
    content is fully in place.  Returns ``path``.
    """
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return path


def content_checksum(text: str) -> str:
    """SHA-256 hex digest of a document body (checkpoint integrity)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
