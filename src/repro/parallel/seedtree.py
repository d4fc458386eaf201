"""SplitMix64-style seed tree: per-task seeds from one root seed.

Fanning work out over processes must not perturb results: a task's seed
has to depend only on *what* the task is (its path in the task tree),
never on which worker runs it or in what order.  ``derive_seed`` mixes
a root seed with a path of labels (strings, ints, floats) through the
SplitMix64 finaliser — the same mixer the schedule hash uses
(:mod:`repro.core.schedule`) — so every ``(root, path)`` pair maps to a
stable, well-distributed 63-bit seed, identical in every process and
on every platform (no dependence on ``PYTHONHASHSEED``).

Path components are hashed by *value*: strings via their UTF-8 bytes,
ints via their two's-complement-64 value, floats via their IEEE-754
bits (so ``0.1`` and ``0.2`` are distinct labels even when formatting
would round them).  Sibling seeds are independent in the SplitMix64
sense; distinct paths give distinct seeds with overwhelming
probability (64-bit collision odds).
"""

from __future__ import annotations

import struct
import zlib
from typing import Union

__all__ = ["PathPart", "derive_seed"]

PathPart = Union[str, int, float]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(value: int) -> int:
    """The SplitMix64 finaliser (same constants as core.schedule)."""
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def _encode_part(part: PathPart) -> int:
    """A 64-bit label for one path component, keyed by type and value."""
    if isinstance(part, bool):  # bool is an int subclass; forbid ambiguity
        raise TypeError("seed-tree path parts must be str, int, or float")
    if isinstance(part, str):
        data = part.encode("utf-8")
        # Two independent CRCs make a cheap, deterministic 64-bit value.
        low = zlib.crc32(data)
        high = zlib.crc32(b"seedtree:" + data)
        return ((high << 32) | low) & _MASK64
    if isinstance(part, int):
        return _splitmix64(part & _MASK64)
    if isinstance(part, float):
        (bits,) = struct.unpack("<Q", struct.pack("<d", part))
        return _splitmix64(bits ^ _GOLDEN)
    raise TypeError(
        f"seed-tree path parts must be str, int, or float, not "
        f"{type(part).__name__}"
    )


def derive_seed(root: int, *path: PathPart) -> int:
    """A deterministic 63-bit seed for ``path`` under ``root``.

    The derivation chains the SplitMix64 finaliser over the encoded
    path components, so it is order-sensitive (``("a", "b")`` and
    ``("b", "a")`` differ) and prefix-stable (extending a path never
    changes the seeds of its siblings).
    """
    state = _splitmix64(root & _MASK64)
    for part in path:
        state = _splitmix64(state ^ _encode_part(part))
    return state >> 1  # 63 bits: safe for every seed-taking API here
