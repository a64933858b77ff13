"""Deterministic RNG streams derived from one master seed, and the integer
rule that seeds, sizes and counts follow."""

from __future__ import annotations

import zlib

import numpy as np


def _tag_value(tag):
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    raise TypeError(f"rng tag must be int or str, got {type(tag).__name__}")


def check_int(name: str, value) -> int:
    """``value`` as an int; it must be an int or a numpy integer, and a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_ints(name: str, value) -> tuple[int, ...]:
    """``value`` as a tuple of ints; it must be a list or tuple of what ``check_int`` takes."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list or tuple, got {value!r}")
    return tuple(check_int(f"{name}[{i}]", item) for i, item in enumerate(value))


def check_seed(seed) -> int:
    """``seed`` as an int in [0, 2**64), the range of a generator key word;
    a seed that is not an integer, or is outside that range, raises
    ValueError rather than alias one inside."""
    seed = check_int("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def rng_for(seed: int, *tags) -> np.random.Generator:
    """A generator keyed by (seed, *tags); same key, same stream, always."""
    key = [check_seed(seed)]
    key.extend(_tag_value(t) for t in tags)
    return np.random.default_rng(key)
