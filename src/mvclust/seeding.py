"""Deterministic RNG streams derived from one master seed."""

from __future__ import annotations

import zlib

import numpy as np


def _tag_value(tag):
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    raise TypeError(f"rng tag must be int or str, got {type(tag).__name__}")


def check_seed(seed) -> int:
    """``seed`` as an int in [0, 2**64), the range of a generator key word;
    a seed outside it raises ValueError rather than alias one inside."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def rng_for(seed: int, *tags) -> np.random.Generator:
    """A generator keyed by (seed, *tags); same key, same stream, always."""
    key = [check_seed(seed)]
    key.extend(_tag_value(t) for t in tags)
    return np.random.default_rng(key)
