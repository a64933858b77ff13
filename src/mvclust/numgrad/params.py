"""Named parameter storage with Adam state and a binary checkpoint format."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .graph import as_tensor

_MAGIC = b"NGPS"
_FORMAT_VERSION = 1
_FLAG_MOMENTS = 1


class Param:
    __slots__ = ("value", "grad", "m", "v")

    def __init__(self, value):
        self.value = value
        self.grad = np.zeros_like(value)
        self.m = np.zeros_like(value)
        self.v = np.zeros_like(value)


class ParamStore:
    """Named float64 parameters, each with a gradient and two Adam moments.

    The value, gradient and moment arrays of one parameter always share a
    shape. ``step`` counts completed Adam steps and drives bias correction.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}
        self.step = 0

    def add(self, name: str, value) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"invalid parameter name {name!r}")
        if name in self._params:
            raise ValueError(f"parameter {name!r} already exists")
        self._params[name] = Param(as_tensor(value).copy())

    def names(self) -> list[str]:
        return list(self._params)

    def __contains__(self, name) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __getitem__(self, name) -> np.ndarray:
        return self._params[name].value

    def grad(self, name) -> np.ndarray:
        return self._params[name].grad

    def moments(self, name) -> tuple[np.ndarray, np.ndarray]:
        p = self._params[name]
        return p.m, p.v

    def set_value(self, name, value) -> None:
        p = self._params[name]
        arr = as_tensor(value)
        if arr.shape != p.value.shape:
            raise ValueError(f"shape mismatch for {name!r}: {arr.shape} vs {p.value.shape}")
        p.value[...] = arr

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad[...] = 0.0

    def accumulate_grad(self, name, g) -> None:
        p = self._params[name]
        p.grad += g

    def adam_step(self, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8) -> None:
        """One Adam update from the current gradients; gradients are left intact."""
        if not learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < beta1 < 1.0 or not 0.0 < beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        t = self.step + 1
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        for p in self._params.values():
            p.m *= beta1
            p.m += (1.0 - beta1) * p.grad
            p.v *= beta2
            p.v += (1.0 - beta2) * (p.grad * p.grad)
            p.value -= learning_rate * (p.m / c1) / (np.sqrt(p.v / c2) + epsilon)
        self.step = t

    def clone(self) -> "ParamStore":
        out = ParamStore()
        out.step = self.step
        for name, p in self._params.items():
            out.add(name, p.value)
            q = out._params[name]
            q.grad[...] = p.grad
            q.m[...] = p.m
            q.v[...] = p.v
        return out

    # -- checkpoint format -------------------------------------------------
    #
    # Little-endian layout, byte-stable for identical stores:
    #   magic "NGPS" | u32 version | u32 flags | u64 step | u32 count
    #   per parameter, sorted by name:
    #     u16 name_len | name utf-8 | u8 ndim | u64*ndim dims
    #     value payload (<f8, C order) [ | m payload | v payload ]

    def save(self, path, include_moments=True) -> None:
        flags = _FLAG_MOMENTS if include_moments else 0
        chunks = [
            _MAGIC,
            struct.pack("<IIQI", _FORMAT_VERSION, flags, self.step, len(self._params)),
        ]
        for name in sorted(self._params):
            p = self._params[name]
            raw = name.encode("utf-8")
            chunks.append(struct.pack("<H", len(raw)))
            chunks.append(raw)
            chunks.append(struct.pack("<B", p.value.ndim))
            if p.value.ndim:
                chunks.append(struct.pack(f"<{p.value.ndim}Q", *p.value.shape))
            chunks.append(p.value.astype("<f8", copy=False).tobytes(order="C"))
            if include_moments:
                chunks.append(p.m.astype("<f8", copy=False).tobytes(order="C"))
                chunks.append(p.v.astype("<f8", copy=False).tobytes(order="C"))
        Path(path).write_bytes(b"".join(chunks))

    @classmethod
    def load(cls, path) -> "ParamStore":
        buf = Path(path).read_bytes()
        if buf[:4] != _MAGIC:
            raise ValueError(f"not a parameter checkpoint: {path}")
        version, flags, step, count = struct.unpack_from("<IIQI", buf, 4)
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        offset = 4 + struct.calcsize("<IIQI")
        store = cls()
        store.step = step
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", buf, offset)
            offset += 2
            name = buf[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", buf, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}Q", buf, offset) if ndim else ()
            offset += 8 * ndim
            size = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            nbytes = 8 * size

            def take():
                # a read-only view: add() and the moment assignments copy it once
                nonlocal offset
                arr = np.frombuffer(buf, dtype="<f8", count=size, offset=offset).reshape(shape)
                offset += nbytes
                return arr

            store.add(name, take())
            if flags & _FLAG_MOMENTS:
                p = store._params[name]
                p.m[...] = take()
                p.v[...] = take()
        return store

