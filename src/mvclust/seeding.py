"""Deterministic RNG streams derived from one master seed, and the two rules
every number a caller passes follows: ``check_int`` and ``check_real``."""

from __future__ import annotations

import math
import zlib

import numpy as np


def _tag_value(tag):
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    raise TypeError(f"rng tag must be int or str, got {type(tag).__name__}")


def check_int(name: str, value, lowest=None) -> int:
    """``value`` as an int of at least ``lowest``; it must be an int or a
    numpy integer, and a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return _at_least(name, int(value), lowest)


def check_ints(name: str, value, lowest=None) -> tuple[int, ...]:
    """``value`` as a tuple of ints; it must be a list or tuple of what ``check_int`` takes."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list or tuple, got {value!r}")
    return tuple(check_int(f"{name}[{i}]", item, lowest) for i, item in enumerate(value))


def check_real(name: str, value, lowest=None, above=None):
    """``value`` once it is a finite int, float or numpy real (not a bool)
    of at least ``lowest`` and greater than ``above``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) or not finite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if above is not None and value <= above:
        raise ValueError(f"{name} must be > {above}, got {value}")
    return _at_least(name, value, lowest)


def finite(number) -> bool:
    """Whether a real number is a finite float64."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an int beyond float64
        return False


def _at_least(name, value, lowest):
    if lowest is not None and value < lowest:
        raise ValueError(f"{name} must be >= {lowest}, got {value}")
    return value


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
