"""In-memory spans around calls into the program, installed from outside it.

``Tracer.install`` replaces each traced function with a wrapper at the place
its callers look it up: a module global such as ``mvclust.training.forward``
(the name ``train`` resolves at call time), or a class attribute such as
``ParamStore.adam_step``. ``Tracer.uninstall`` puts the originals back, so an
untraced operation runs the program's own code with nothing in between.

A span records its name, its parent span, start and end on the
``perf_counter_ns`` clock, and optional attributes. Spans stay in memory
until ``write`` dumps them as JSON.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import weakref
from pathlib import Path


def graph_kind(graph) -> str:
    """Which graph a forward/backward call evaluates: the ELBO graph outputs
    ``elbo``, a greedy pretraining stage declares the throwaway ``dw``, a
    fine-tuning graph outputs ``loss``, an encoder graph outputs ``logvar``."""
    names = {node.name for node in graph.nodes}
    if "elbo" in names:
        return "elbo"
    if "dw" in graph.params:
        return "greedy"
    if "loss" in names:
        return "finetune"
    if "logvar" in names and "x" in graph.inputs:
        return "infer"
    return "other"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name, start, attrs):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._kinds: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def open(self, name, attrs=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter_ns(), attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span) -> None:
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        span = self.open(name, attrs)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrappers ------------------------------------------------------------

    def _graph_attrs(self, graph, rows):
        kind = self._kinds.get(graph)
        if kind is None:
            kind = self._kinds[graph] = graph_kind(graph)
        return {"graph": kind, "rows": rows}

    def _wrap(self, fn, name, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, attrs_of(*args, **kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(owner, attribute, span name, attrs_of)`` target."""
        for owner, attr, name, attrs_of in targets:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, attrs_of))
            else:
                wrapped = self._wrap(raw, name, attrs_of)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_seconds(self, span, children) -> float:
        """Duration minus the time direct children cover (children run one
        after another on one thread, so their intervals do not overlap)."""
        return span.seconds - sum(c.seconds for c in children.get(span.id, ()))

    def write(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0
        rows = [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start_us": (s.start - origin) / 1e3,
                "dur_us": (s.end - s.start) / 1e3,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]
        Path(path).write_text(json.dumps({"spans": rows}) + "\n")


def program_targets(tracer: Tracer):
    """Every boundary the traced run records, keyed where callers look it up."""
    import mvclust.cli as cli
    import mvclust.metrics as metrics
    import mvclust.model as model
    import mvclust.training as training
    from mvclust.data import NormalizationRecord
    from mvclust.numgrad import ParamStore

    def graph_call(graph, values_or_inputs, *rest, **kw):
        table = values_or_inputs if isinstance(values_or_inputs, dict) else {}
        x = table.get("x", table.get("x0"))
        return tracer._graph_attrs(graph, None if x is None else int(x.shape[0]))

    return [
        (training, "train", "training.train", None),
        (training, "pretrain_autoencoders", "training.pretrain", None),
        (training, "init_gmm", "training.init_gmm", None),
        (training, "kmeans", "training.kmeans", None),
        (training, "evaluate", "training.evaluate", None),
        (training, "normalize", "data.normalize", None),
        (training, "forward", "numgrad.graph.forward", graph_call),
        (training, "backward", "numgrad.graph.backward", graph_call),
        (training, "fused_posterior", "model.fused_posterior", None),
        (training, "assign_clusters", "model.assign_clusters", None),
        (training, "save_checkpoint", "training.save_checkpoint", None),
        (training, "load_checkpoint", "training.load_checkpoint", None),
        (model, "forward", "numgrad.graph.forward", graph_call),
        (model, "fused_posterior", "model.fused_posterior", None),
        (model, "responsibilities", "model.responsibilities", None),
        (model, "init_params", "model.init_params", None),
        (model.Model, "load", "model.load", None),
        (ParamStore, "adam_step", "numgrad.params.adam_step", None),
        (ParamStore, "zero_grads", "numgrad.params.zero_grads", None),
        (ParamStore, "save", "numgrad.params.save", None),
        (ParamStore, "load", "numgrad.params.load", None),
        (NormalizationRecord, "apply", "data.normalize", None),
        (cli, "cmd_assign", "cli.assign", None),
        (cli, "load_dataset", "data.load_dataset", None),
        (cli, "assign_clusters", "model.assign_clusters", None),
        (metrics, "accuracy", "metrics.score", None),
        (metrics, "nmi", "metrics.score", None),
        (metrics, "ari", "metrics.score", None),
        (metrics, "purity", "metrics.score", None),
    ]
