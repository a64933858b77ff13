"""Named parameter storage with Adam state and a binary checkpoint format."""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .graph import as_tensor

_MAGIC = b"NGPS"
_FORMAT_VERSION = 1
_FLAG_MOMENTS = 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # the defaults of Kingma & Ba (arXiv:1412.6980)
_BLOCK = 32768  # Adam's elements per block: 256 KB of float64 or 128 KB of float32, cache-sized


def write_atomic(path, chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path`` through a temp file in the
    same directory and ``os.replace``: a reader sees the previous file or the
    complete new one, never a part. On any error the temp file is removed
    and the previous file is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            # the temp file is ours, not the caller's: name the file they asked for
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


class ParamStore:
    """Named parameters of one float dtype, each with a gradient and two Adam moments.

    The store is built in one call from its complete ``(name, array)`` pairs.
    Values, gradients and the two moments each live in one contiguous arena;
    ``store[name]``, ``grad(name)`` and ``moments(name)`` are writable views
    into them that share the parameter's shape. Gradients and moments start
    as untouched zero pages, so a store that never trains never faults them
    in. ``step`` counts completed Adam steps and drives bias correction.
    Every arena has ``dtype`` (float64 by default; training uses float32);
    checkpoints are ``<f8`` whatever the dtype.
    """

    def __init__(self, items=(), dtype=np.float64):
        arrays = {}
        for name, value in items:
            if not name or not isinstance(name, str):
                raise ValueError(f"invalid parameter name {name!r}")
            if name in arrays:
                raise ValueError(f"parameter {name!r} already exists")
            arrays[name] = np.asarray(value)
        total = sum(arr.size for arr in arrays.values())
        self._value, self._grad, self._m, self._v = (np.zeros(total, dtype=dtype) for _ in range(4))
        self._views: dict[str, tuple[np.ndarray, ...]] = {}
        offset = 0
        for name, arr in arrays.items():
            span = slice(offset, offset + arr.size)
            views = tuple(buf[span].reshape(arr.shape) for buf in (self._value, self._grad, self._m, self._v))
            views[0][...] = arr
            self._views[name] = views
            offset += arr.size
        self.step = 0

    @property
    def dtype(self) -> np.dtype:
        return self._value.dtype

    def names(self) -> list[str]:
        return list(self._views)

    def __contains__(self, name) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, name) -> np.ndarray:
        return self._views[name][0]

    def grad(self, name) -> np.ndarray:
        return self._views[name][1]

    def moments(self, name) -> tuple[np.ndarray, np.ndarray]:
        return self._views[name][2:]

    def set_value(self, name, value) -> None:
        current = self[name]
        arr = as_tensor(value)
        if arr.shape != current.shape:
            raise ValueError(f"shape mismatch for {name!r}: {arr.shape} vs {current.shape}")
        current[...] = arr

    def zero_grads(self) -> None:
        self._grad.fill(0.0)

    def accumulate_grad(self, name, g) -> None:
        grad = self.grad(name)
        grad += g

    def adam_step(self, learning_rate) -> None:
        """One Adam update from the current gradients; gradients are left intact.

        Runs over the arenas in cache-sized blocks with in-place ufuncs; per
        element it computes ``m*b1 + (1-b1)*g``, ``v*b2 + (1-b2)*(g*g)`` and
        ``x - (lr*(m/c1)) / (sqrt(v/c2)+eps)`` under the ``ADAM_*`` constants.
        """
        if not learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        t = self.step + 1
        c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
        scratch_a = np.empty(min(_BLOCK, self._value.size), dtype=self.dtype)
        scratch_b = np.empty_like(scratch_a)
        for start in range(0, self._value.size, _BLOCK):
            span = slice(start, start + _BLOCK)
            x, g, m, v = self._value[span], self._grad[span], self._m[span], self._v[span]
            a, b = scratch_a[: x.size], scratch_b[: x.size]
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            m += a
            v *= ADAM_BETA2
            np.multiply(g, g, out=a)
            a *= 1.0 - ADAM_BETA2
            v += a
            np.divide(m, c1, out=a)
            a *= learning_rate
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPSILON
            a /= b
            x -= a
        self.step = t

    def clone(self, dtype=None) -> "ParamStore":
        """A copy of every arena and ``step``, in ``dtype`` (default: this store's)."""
        out = ParamStore(((name, self[name]) for name in self._views), dtype=dtype or self.dtype)
        out.step = self.step
        out._grad[...] = self._grad
        out._m[...] = self._m
        out._v[...] = self._v
        return out

    # -- checkpoint format -------------------------------------------------
    #
    # Little-endian layout, byte-stable for identical stores:
    #   magic "NGPS" | u32 version | u32 flags | u64 step | u32 count
    #   per parameter, sorted by name:
    #     u16 name_len | name utf-8 | u8 ndim | u64*ndim dims
    #     value payload (<f8, C order) [ | m payload | v payload ]

    def save(self, path, include_moments=True) -> None:
        """Write the checkpoint atomically (see ``write_atomic``)."""
        write_atomic(path, self._checkpoint_chunks(include_moments))

    def _checkpoint_chunks(self, include_moments):
        flags = _FLAG_MOMENTS if include_moments else 0
        yield _MAGIC
        yield struct.pack("<IIQI", _FORMAT_VERSION, flags, self.step, len(self))
        for name in sorted(self._views):
            value, _, m, v = self._views[name]
            raw = name.encode("utf-8")
            yield struct.pack(f"<H{len(raw)}sB{value.ndim}Q", len(raw), raw, value.ndim, *value.shape)
            for arr in (value, m, v) if include_moments else (value,):
                yield arr.astype("<f8", copy=False).data

    @classmethod
    def load(cls, path) -> "ParamStore":
        """Read a checkpoint into a float64 store; an unreadable file, unknown
        header flags, a truncated payload or trailing bytes raise a
        ``ValueError`` that names the file (and the parameter)."""
        try:
            buf = Path(path).read_bytes()
        except OSError as exc:
            raise ValueError(f"cannot read parameter checkpoint {path}: {exc}") from exc
        if buf[:4] != _MAGIC:
            raise ValueError(f"not a parameter checkpoint: {path}")
        offset = 4 + struct.calcsize("<IIQI")
        if len(buf) < offset:
            raise ValueError(f"truncated parameter checkpoint {path}: header needs {offset} bytes, has {len(buf)}")
        version, flags, step, count = struct.unpack_from("<IIQI", buf, 4)
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path} has format version {version}, only {_FORMAT_VERSION} is supported")
        if flags & ~_FLAG_MOMENTS:
            raise ValueError(f"{path} sets unknown header flag bits {flags & ~_FLAG_MOMENTS:#x}")
        n_arrays = 3 if flags & _FLAG_MOMENTS else 1
        entries = []  # (name, value[, m, v]) as read-only views of the file buffer
        name = None
        for index in range(count):
            what = f"parameter {index + 1} of {count}" + (f" after {name!r}" if name else "")
            try:
                (name_len,) = struct.unpack_from("<H", buf, offset)
                raw = buf[offset + 2 : offset + 2 + name_len]
                if len(raw) < name_len:
                    raise struct.error("name cut short")
                name = raw.decode("utf-8")
                what = f"parameter {name!r}"
                offset += 2 + name_len
                (ndim,) = struct.unpack_from("<B", buf, offset)
                shape = struct.unpack_from(f"<{ndim}Q", buf, offset + 1)
                offset += 1 + 8 * ndim
            except struct.error:
                raise ValueError(f"truncated parameter checkpoint {path}: header of {what}") from None
            size = math.prod(shape)
            nbytes = 8 * size * n_arrays
            if len(buf) - offset < nbytes:
                raise ValueError(
                    f"truncated parameter checkpoint {path}: {what} needs {nbytes} bytes of data, "
                    f"{len(buf) - offset} left"
                )
            arrays = np.frombuffer(buf, dtype="<f8", count=size * n_arrays, offset=offset).reshape(n_arrays, *shape)
            offset += nbytes
            entries.append((name, *arrays))
        if offset != len(buf):
            raise ValueError(
                f"parameter checkpoint {path} has {len(buf) - offset} trailing bytes after "
                + (f"the last parameter {name!r}" if name else "its header")
            )
        store = cls((name, value) for name, value, *_ in entries)
        store.step = step
        if n_arrays == 3:
            for name, _, m, v in entries:
                store_m, store_v = store.moments(name)
                store_m[...] = m
                store_v[...] = v
        return store
