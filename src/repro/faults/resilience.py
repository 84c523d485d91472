"""Defenses the chaos layer proves out: retries and atomic writes.

Everything here is deliberately deterministic.  Backoff delays follow a
fixed exponential schedule (no jitter — reproducibility beats thundering
herds in a single-origin system), and checkpoint integrity uses a
content checksum over the canonical JSON encoding.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Callable

from ..errors import ReproError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry + backoff knobs for one task class.

    Attributes:
        max_retries: additional attempts after the first failure.
        backoff_base: seconds slept before retry 1.
        backoff_factor: multiplier applied per further retry.
    """

    max_retries: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError("max_retries cannot be negative")
        if self.backoff_base < 0 or self.backoff_factor < 0:
            raise ReproError("backoff parameters cannot be negative")

    def delay_for(self, retry: int) -> float:
        """Seconds to sleep before the ``retry``-th retry (0-based)."""
        return self.backoff_base * self.backoff_factor**retry

    def sleep_before(self, retry: int, sleeper: Callable[[float], None] = time.sleep) -> None:
        """Deterministic exponential backoff before the given retry."""
        delay = self.delay_for(retry)
        if delay > 0:
            sleeper(delay)


# ----------------------------------------------------------------------
# Atomic, checksummed file writes
# ----------------------------------------------------------------------


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
