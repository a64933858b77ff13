"""Dense computation graphs with reverse-mode differentiation.

A ``Graph`` is an ordered list of primitive nodes over named values. Values
live in three namespaces: declared graph inputs (bound per call), declared
parameters (resolved through a ``ParamStore`` or plain mapping), and outputs
of earlier nodes. ``forward`` evaluates every node in order and returns the
complete value table; ``backward`` walks the node list in reverse and
accumulates gradients into the parameter store.

``forward`` computes in one floating dtype, float64 unless told otherwise:
training runs its graphs in float32, inference and the gradient oracles in
float64. Replaying a graph on the same inputs and parameters is
bit-identical: every primitive is a deterministic sequential numpy operation.

Every value ``forward`` computes is scanned for non-finite entries exactly
once, and the first node that yields one is named in a ``NumericError``.
Each node's output is scanned by ``forward`` after the node runs, except a
``linear`` node's: ``_eval_linear`` scans its product ``x @ w + b`` itself,
before its optional ReLU, because the ReLU would turn a ``-inf`` into 0 and
hide the overflow, while a finite product stays finite through it.
"""

from __future__ import annotations

import numpy as np


class GraphError(ValueError):
    """Graph construction or binding problem (bad shape, unknown name)."""


class NumericError(ArithmeticError):
    """A forward value came out non-finite."""


def as_tensor(value, dtype=np.float64) -> np.ndarray:
    """Coerce to a C-contiguous array of ``dtype`` (row-major); no copy when
    ``value`` already is one."""
    return np.ascontiguousarray(value, dtype=dtype)


class Node:
    __slots__ = ("op", "name", "inputs", "attrs")

    def __init__(self, op, name, inputs, attrs):
        self.op = op
        self.name = name
        self.inputs = tuple(inputs)
        self.attrs = attrs

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Node({self.op!r}, {self.name!r}, inputs={self.inputs})"


class Graph:
    """Builder and container for an ordered primitive-operation list.

    Builder methods append one node and return its output name, so graphs
    compose as ordinary expressions::

        g = Graph()
        x = g.input("x")
        h = g.linear(x, g.param("w"), g.param("b"), relu=True)
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.inputs: list[str] = []
        self.params: list[str] = []
        self._defined: set[str] = set()
        self._param_set: set[str] = set()
        self._counter = 0

    # -- namespace management -------------------------------------------

    def input(self, name: str) -> str:
        self._claim(name)
        self.inputs.append(name)
        return name

    def param(self, name: str) -> str:
        """Declare a parameter; repeated declarations of the same name are fine."""
        if name in self._param_set:
            return name
        self._claim(name)
        self.params.append(name)
        self._param_set.add(name)
        return name

    def _claim(self, name):
        if not name or not isinstance(name, str):
            raise GraphError(f"invalid value name {name!r}")
        if name in self._defined:
            raise GraphError(f"value name {name!r} already defined")
        self._defined.add(name)

    def _require(self, names):
        for n in names:
            if n not in self._defined:
                raise GraphError(f"reference to undefined value {n!r}")

    def _emit(self, op, inputs, name=None, **attrs) -> str:
        self._require(inputs)
        if name is None:
            self._counter += 1
            name = f"{op}.{self._counter}"
        self._claim(name)
        self.nodes.append(Node(op, name, inputs, attrs))
        return name

    # -- primitives ------------------------------------------------------

    def linear(self, x, w, b, relu=False, name=None):
        """Dense layer ``x @ w + b`` of a 2-D ``x`` and ``w`` and a 1-D ``b``,
        followed by ReLU when ``relu`` is set: the graph's one dense
        primitive. The bias and the ReLU are applied in place on the fresh
        product.
        """
        return self._emit("linear", (x, w, b), name, relu=bool(relu))

    def add(self, a, b, name=None):
        return self._emit("add", (a, b), name)

    def sub(self, a, b, name=None):
        return self._emit("sub", (a, b), name)

    def mul(self, a, b, name=None):
        return self._emit("mul", (a, b), name)

    def div(self, a, b, name=None):
        return self._emit("div", (a, b), name)

    def affine(self, x, scale=1.0, shift=0.0, name=None):
        """Elementwise scale * x + shift with float constants."""
        return self._emit("affine", (x,), name, scale=float(scale), shift=float(shift))

    def sigmoid(self, x, name=None):
        return self._emit("sigmoid", (x,), name)

    def softplus(self, x, name=None):
        """``log(1 + exp(x))``, finite for every finite ``x``."""
        return self._emit("softplus", (x,), name)

    def exp(self, x, name=None):
        return self._emit("exp", (x,), name)

    def log(self, x, name=None):
        return self._emit("log", (x,), name)

    def sqrt(self, x, name=None):
        return self._emit("sqrt", (x,), name)

    def square(self, x, name=None):
        return self._emit("square", (x,), name)

    def clip(self, x, lo, hi, name=None):
        return self._emit("clip", (x,), name, lo=float(lo), hi=float(hi))

    def sum(self, x, axis=None, keepdims=False, name=None):
        return self._emit("sum", (x,), name, axis=axis, keepdims=keepdims)

    def mean(self, x, name=None):
        """The mean of every element of ``x``, a scalar."""
        return self._emit("mean", (x,), name)

    def logsumexp(self, x, axis=None, keepdims=False, name=None):
        return self._emit("logsumexp", (x,), name, axis=axis, keepdims=keepdims)

    def slice(self, x, axis, start, stop, name=None):
        return self._emit("slice", (x,), name, axis=int(axis), start=int(start), stop=int(stop))

    def expand_dims(self, x, axis, name=None):
        return self._emit("expand_dims", (x,), name, axis=int(axis))


# -- forward ----------------------------------------------------------------


def forward(graph: Graph, inputs, params=None, dtype=np.float64) -> dict:
    """Evaluate every node in ``dtype``; returns the full name -> array value table.

    Inputs and parameters are coerced to ``dtype`` (a view, not a copy, when
    they already have it). The returned table holds inputs, parameters and
    all intermediates, which is exactly the record ``backward`` needs.
    """
    values: dict[str, np.ndarray] = {}
    inputs = dict(inputs or {})
    unknown = set(inputs) - set(graph.inputs)
    if unknown:
        raise GraphError(f"unknown graph inputs: {sorted(unknown)}")
    for name in graph.inputs:
        if name not in inputs:
            raise GraphError(f"graph input {name!r} not bound")
        arr = as_tensor(inputs[name], dtype)
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values in input {name!r}")
        values[name] = arr
    for name in graph.params:
        if params is None or name not in params:
            raise GraphError(f"parameter {name!r} not bound")
        values[name] = as_tensor(params[name], dtype)
    # the isfinite check after every node is the error contract; numpy's own
    # overflow/invalid warnings would only duplicate it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for node in graph.nodes:
            args = [values[n] for n in node.inputs]
            try:
                out = _EVAL[node.op](node, args)
            except (ValueError, IndexError) as exc:
                raise GraphError(f"node {node.name!r} ({node.op}): {exc}") from exc
            if node.op != "linear" and not np.isfinite(out).all():  # linear scans its own product
                raise NumericError(f"non-finite values produced by node {node.name!r} ({node.op})")
            values[node.name] = out
    return values


def backward(graph: Graph, values, loss: str, params) -> None:
    """Accumulate d(loss)/d(param) into ``params`` for a scalar loss value.

    ``values`` is the table returned by ``forward``. A gradient with respect
    to an array is taken by declaring the array a parameter.
    """
    if loss not in values:
        raise GraphError(f"unknown loss value {loss!r}")
    seed = values[loss]
    if seed.size != 1:
        raise GraphError(f"loss {loss!r} must be scalar, got shape {seed.shape}")
    grads: dict[str, np.ndarray] = {loss: np.ones_like(seed)}
    for node in reversed(graph.nodes):
        g = grads.pop(node.name, None)
        if g is None:
            continue
        args = [values[n] for n in node.inputs]
        for name, contrib in _GRAD[node.op](node, args, values[node.name], g):
            # contributions may alias or view the upstream gradient; that is
            # safe because stored gradients are only ever replaced, never
            # mutated in place (accumulation allocates, adam touches params)
            if name in grads:
                grads[name] = grads[name] + contrib
            else:
                grads[name] = contrib
    for name in graph.params:
        if name in grads:
            params.accumulate_grad(name, grads[name])


# -- primitive implementations ------------------------------------------------


def _unbroadcast(g, shape):
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _expand_reduced(g, x_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, x_shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, x_shape)


def _eval_linear(node, args):
    x, w, b = args
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"linear needs 2-D operands, got {x.shape} @ {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"linear inner dimensions differ: {x.shape} @ {w.shape}")
    out = x @ w
    if b.shape != (w.shape[1],):
        raise ValueError(f"linear bias must have shape ({w.shape[1]},), got {b.shape}")
    out += b
    # the layer's one scan (forward skips it): before the ReLU, which would
    # clamp -inf to 0
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite values produced by node {node.name!r} (linear)")
    if node.attrs["relu"]:
        np.maximum(out, 0.0, out=out)
    return out


def _sigmoid(x):
    """``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))`` below,
    so no ``exp`` overflows. With ``e = exp(-|x|)`` both are ``max(e, x >= 0)
    / (1 + e)``: where x >= 0 the mask is 1 and e <= 1, elsewhere the mask is
    0 and e >= 0. So the numerator needs no select."""
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0, dtype=x.dtype)
    e += 1.0
    out /= e
    return out


def _softplus(x):
    """``log(1 + exp(x))`` as ``max(x, 0) + log1p(exp(-|x|))``, computed in
    place on the output buffer; no ``exp`` overflows. Within a few ulps of
    ``np.logaddexp(0, x)``. The gradient, ``sigmoid(x)``, is computed from
    ``x``, not from this value, so its rounding moves no gradient."""
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def _eval_sum(node, args):
    return np.sum(args[0], axis=node.attrs["axis"], keepdims=node.attrs["keepdims"])


def _eval_logsumexp(node, args):
    (x,) = args
    axis, keepdims = node.attrs["axis"], node.attrs["keepdims"]
    m = np.max(x, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    return out if keepdims else np.squeeze(out, axis=axis)


def _slicer(node):
    sl = [slice(None)] * (node.attrs["axis"] + 1)
    sl[node.attrs["axis"]] = slice(node.attrs["start"], node.attrs["stop"])
    return tuple(sl)


def _eval_slice(node, args):
    (x,) = args
    if node.attrs["axis"] >= x.ndim:
        raise ValueError(f"slice axis {node.attrs['axis']} out of range for shape {x.shape}")
    if node.attrs["stop"] > x.shape[node.attrs["axis"]]:
        raise ValueError(f"slice bounds exceed extent {x.shape[node.attrs['axis']]}")
    return x[_slicer(node)]


_EVAL = {
    "linear": _eval_linear,
    "add": lambda n, a: a[0] + a[1],
    "sub": lambda n, a: a[0] - a[1],
    "mul": lambda n, a: a[0] * a[1],
    "div": lambda n, a: a[0] / a[1],
    "affine": lambda n, a: n.attrs["scale"] * a[0] + n.attrs["shift"],
    "sigmoid": lambda n, a: _sigmoid(a[0]),
    "softplus": lambda n, a: _softplus(a[0]),
    "exp": lambda n, a: np.exp(a[0]),
    "log": lambda n, a: np.log(a[0]),
    "sqrt": lambda n, a: np.sqrt(a[0]),
    "square": lambda n, a: a[0] * a[0],
    "clip": lambda n, a: np.clip(a[0], n.attrs["lo"], n.attrs["hi"]),
    "sum": _eval_sum,
    "mean": lambda n, a: np.mean(a[0]),
    "logsumexp": _eval_logsumexp,
    "slice": _eval_slice,
    "expand_dims": lambda n, a: np.expand_dims(a[0], n.attrs["axis"]),
}


def _grad_linear(node, args, out, g):
    x, w, _ = args
    if node.attrs["relu"]:
        g = g * (out > 0)
    return [(node.inputs[0], g @ w.T), (node.inputs[1], x.T @ g), (node.inputs[2], g.sum(axis=0))]


def _grad_add(node, args, out, g):
    a, b = args
    return [(node.inputs[0], _unbroadcast(g, a.shape)), (node.inputs[1], _unbroadcast(g, b.shape))]


def _grad_sub(node, args, out, g):
    a, b = args
    return [(node.inputs[0], _unbroadcast(g, a.shape)), (node.inputs[1], _unbroadcast(-g, b.shape))]


def _grad_mul(node, args, out, g):
    a, b = args
    return [(node.inputs[0], _unbroadcast(g * b, a.shape)), (node.inputs[1], _unbroadcast(g * a, b.shape))]


def _grad_div(node, args, out, g):
    a, b = args
    return [
        (node.inputs[0], _unbroadcast(g / b, a.shape)),
        (node.inputs[1], _unbroadcast(-g * out / b, b.shape)),
    ]


def _grad_clip(node, args, out, g):
    (x,) = args
    mask = (x >= node.attrs["lo"]) & (x <= node.attrs["hi"])
    return [(node.inputs[0], g * mask)]


def _grad_sum(node, args, out, g):
    return [(node.inputs[0], _expand_reduced(g, args[0].shape, node.attrs["axis"], node.attrs["keepdims"]))]


def _grad_logsumexp(node, args, out, g):
    x = args[0]
    axis, keepdims = node.attrs["axis"], node.attrs["keepdims"]
    out_k = out if keepdims else (
        out.reshape([1] * x.ndim) if axis is None else np.expand_dims(out, axis)
    )
    g_k = _expand_reduced(g, x.shape, axis, keepdims)
    return [(node.inputs[0], g_k * np.exp(x - out_k))]


def _grad_slice(node, args, out, g):
    z = np.zeros_like(args[0])
    z[_slicer(node)] = g
    return [(node.inputs[0], z)]


_GRAD = {
    "linear": _grad_linear,
    "add": _grad_add,
    "sub": _grad_sub,
    "mul": _grad_mul,
    "div": _grad_div,
    "affine": lambda n, a, o, g: [(n.inputs[0], g * n.attrs["scale"])],
    "sigmoid": lambda n, a, o, g: [(n.inputs[0], g * o * (1.0 - o))],
    "softplus": lambda n, a, o, g: [(n.inputs[0], g * _sigmoid(a[0]))],
    "exp": lambda n, a, o, g: [(n.inputs[0], g * o)],
    "log": lambda n, a, o, g: [(n.inputs[0], g / a[0])],
    "sqrt": lambda n, a, o, g: [(n.inputs[0], 0.5 * g / o)],
    "square": lambda n, a, o, g: [(n.inputs[0], 2.0 * g * a[0])],
    "clip": _grad_clip,
    "sum": _grad_sum,
    "mean": lambda n, a, o, g: [(n.inputs[0], np.broadcast_to(g, a[0].shape) / a[0].size)],
    "logsumexp": _grad_logsumexp,
    "slice": _grad_slice,
    "expand_dims": lambda n, a, o, g: [(n.inputs[0], np.squeeze(g, axis=n.attrs["axis"]))],
}
