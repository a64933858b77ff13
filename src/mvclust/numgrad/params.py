"""Named parameter storage with Adam state and a binary checkpoint format."""

from __future__ import annotations

import math
import mmap
import os
import struct
import sys
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

    The store is built in one call from its complete ``(name, array)`` pairs,
    or zeroed from its shapes by ``zeros``. Values, gradients and the two
    moments each live in one contiguous arena; ``store[name]``, ``grad(name)``
    and ``moments(name)`` are writable views into them that share the
    parameter's shape. The arenas are one private anonymous page mapping, not
    heap memory (so ``tracemalloc`` does not see them): a page stays unmapped
    until it is first written, whatever the heap did before, and a freed
    store returns its pages to the OS. A store that never trains never faults
    in its gradients or moments. ``step`` counts completed Adam steps and
    drives bias correction. Every arena has ``dtype`` (float64 by default;
    training uses float32); checkpoints are ``<f8`` whatever the dtype.
    """

    def __init__(self, items=(), dtype=np.float64):
        arrays = {}
        for name, value in items:
            if not name or not isinstance(name, str):
                raise ValueError(f"invalid parameter name {name!r}")
            if name in arrays:
                raise ValueError(f"parameter {name!r} already exists")
            arrays[name] = np.asarray(value)
        self._layout({name: arr.shape for name, arr in arrays.items()}, dtype)
        for name, arr in arrays.items():
            self[name][...] = arr

    @classmethod
    def zeros(cls, shapes, dtype=np.float64) -> "ParamStore":
        """A store of zeros from a ``name -> shape`` mapping, in its order."""
        store = cls.__new__(cls)
        store._layout(shapes, dtype)
        return store

    def _layout(self, shapes, dtype) -> None:
        """Map the four zeroed arenas and each name's views into them from
        the ``name -> shape`` mapping, in order; ``step`` starts at 0."""
        total = sum(math.prod(shape) for shape in shapes.values())
        self._value, self._grad, self._m, self._v = arenas = _zeroed_pages(4 * total, dtype).reshape(4, total)
        self._views: dict[str, tuple[np.ndarray, ...]] = {}
        offset = 0
        for name, shape in shapes.items():
            span = slice(offset, offset + math.prod(shape))
            self._views[name] = tuple(buf[span].reshape(shape) for buf in arenas)
            offset = span.stop
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
        out = ParamStore.zeros({name: self[name].shape for name in self._views}, dtype or self.dtype)
        for got, have in zip((out._value, out._grad, out._m, out._v), (self._value, self._grad, self._m, self._v)):
            got[...] = have
        out.step = self.step
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
        header flags, a truncated payload, trailing bytes or a parameter name
        that is not UTF-8, empty or repeated raise a ``ValueError`` that names
        the file (and the parameter).

        Every header is checked against the file's size before anything is
        allocated; then each payload is read in place into its arena slice,
        so a load holds no other copy of the file.
        """
        try:
            with open(path, "rb") as fh:
                return cls._read_checkpoint(fh, os.fstat(fh.fileno()).st_size, path)
        except OSError as exc:
            raise ValueError(f"cannot read parameter checkpoint {path}: {exc}") from exc

    @classmethod
    def _read_checkpoint(cls, fh, size, path) -> "ParamStore":
        header = 4 + struct.calcsize("<IIQI")
        head = fh.read(header)
        if head[:4] != _MAGIC:
            raise ValueError(f"not a parameter checkpoint: {path}")
        if len(head) < header:
            raise ValueError(f"truncated parameter checkpoint {path}: header needs {header} bytes, has {len(head)}")
        version, flags, step, count = struct.unpack_from("<IIQI", head, 4)
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path} has format version {version}, only {_FORMAT_VERSION} is supported")
        if flags & ~_FLAG_MOMENTS:
            raise ValueError(f"{path} sets unknown header flag bits {flags & ~_FLAG_MOMENTS:#x}")
        n_arrays = 3 if flags & _FLAG_MOMENTS else 1
        shapes, starts = {}, []  # name -> shape, in file order; where each payload starts
        name = None
        for index in range(count):
            where = f"parameter {index + 1} of {count}"
            what = where + (f" after {name!r}" if name else "")
            (name_len,) = struct.unpack("<H", _read_header(fh, 2, path, what))
            raw = _read_header(fh, name_len, path, what)
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"parameter checkpoint {path}: the name of {where} is not UTF-8") from None
            if not name:
                raise ValueError(f"parameter checkpoint {path}: {where} has an empty name")
            if name in shapes:
                raise ValueError(f"parameter checkpoint {path}: {where} repeats the name {name!r}")
            what = f"parameter {name!r}"
            (ndim,) = struct.unpack("<B", _read_header(fh, 1, path, what))
            shape = struct.unpack(f"<{ndim}Q", _read_header(fh, 8 * ndim, path, what))
            start = fh.tell()
            nbytes = 8 * math.prod(shape) * n_arrays
            if size - start < nbytes:
                raise ValueError(
                    f"truncated parameter checkpoint {path}: {what} needs {nbytes} bytes of data, {size - start} left"
                )
            shapes[name] = shape
            starts.append(start)
            fh.seek(start + nbytes)
        end = fh.tell()
        if end != size:
            raise ValueError(
                f"parameter checkpoint {path} has {size - end} trailing bytes after "
                + (f"the last parameter {name!r}" if name else "its header")
            )
        store = cls.zeros(shapes)
        store.step = step
        for name, start in zip(shapes, starts):
            value, _, m, v = store._views[name]
            fh.seek(start)
            for arr in (value, m, v)[:n_arrays]:
                got = fh.readinto(arr)
                if got != arr.nbytes:
                    raise ValueError(
                        f"truncated parameter checkpoint {path}: read {got} of the {arr.nbytes} bytes "
                        f"of an array of parameter {name!r}"
                    )
        if sys.byteorder != "little":  # the payloads are <f8
            for arena in (store._value, store._m, store._v)[:n_arrays]:
                arena.byteswap(inplace=True)
        return store


def _zeroed_pages(size, dtype) -> np.ndarray:
    """A 1-D array of ``size`` zeros of ``dtype`` over a private anonymous
    mapping; ``mmap``'s default would share the pages with forked children."""
    dtype = np.dtype(dtype)
    if size == 0:  # a zero-length mapping is an error
        return np.zeros(0, dtype)
    nbytes = size * dtype.itemsize
    if hasattr(mmap, "MAP_PRIVATE"):
        pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    else:  # Windows: an anonymous mapping is private to the process
        pages = mmap.mmap(-1, nbytes)
    return np.frombuffer(pages, dtype)


def _read_header(fh, n, path, what) -> bytes:
    """The next ``n`` bytes of a header field of ``what``, which must all be there."""
    raw = fh.read(n)
    if len(raw) < n:
        raise ValueError(f"truncated parameter checkpoint {path}: header of {what}")
    return raw
