"""Training protocol: layer-wise pretraining, k-means GMM init, joint ELBO
ascent with Adam and a step-decayed learning rate, checkpointing.

``train`` computes in float32 (``TRAIN_DTYPE``): the model's parameter store,
its gradients and Adam moments, and every pretraining and ELBO step.
k-means, evaluation and every saved artifact stay float64.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .data import MultiViewDataset, batch_iter, normalize
from .model import (
    Model,
    ModelConfig,
    _enc,
    _layer_widths,
    assign_clusters,
    decoder_nodes,
    encoder_nodes,
    fused_posterior,
    param_shapes,
)
from .numgrad import Graph, NumericError, ParamStore, backward, forward
from .numgrad.params import write_atomic
from .seeding import rng_for

CHECKPOINT_STATE_FILE = "state.json"
HISTORY_FILE = "history.csv"
_HISTORY_COLUMNS = ("epoch", "learning_rate", "elbo", "acc", "nmi", "ari", "purity")
_VAR_FLOOR = 1e-4
TRAIN_DTYPE = np.float32


@dataclass
class TrainConfig:
    """Everything a training run needs besides the dataset itself."""

    n_clusters: int
    latent_dim: int = 10
    likelihood: str | None = None  # falls back to the manifest's kind
    learning_rate: float = 1e-4
    lr_decay: float = 0.9
    decay_every: int = 10
    epochs: int = 100
    batch_size: int = 256
    pretrain_epochs: int = 10
    finetune_epochs: int = 20
    seed: int = 0
    mc_samples: int = 1
    encoder_hidden: tuple[int, ...] = (500, 500, 200)
    decoder_hidden: tuple[int, ...] = (2000, 500, 500)
    checkpoint_every: int = 0
    eval_every: int = 10

    def __post_init__(self):
        self.encoder_hidden = tuple(int(w) for w in self.encoder_hidden)
        self.decoder_hidden = tuple(int(w) for w in self.decoder_hidden)
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.decay_every < 1:
            raise ValueError("decay_every must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if min(self.epochs, self.pretrain_epochs, self.finetune_epochs) < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        raw = json.loads(Path(path).read_text())
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields in {path}: {sorted(unknown)}")
        return cls(**raw)

    def learning_rate_at(self, epoch: int) -> float:
        return self.learning_rate * self.lr_decay ** (epoch // self.decay_every)


# -- k-means --------------------------------------------------------------


@dataclass
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int


def _pairwise_sq(points, centroids):
    d2 = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp(points, k, rng):
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centroids[c] = points[idx]
        closest = np.minimum(closest, ((points - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _lloyd(points, centroids, max_iter):
    """Lloyd iterations; returns result plus the per-iteration objective
    trace (which never increases)."""
    k = centroids.shape[0]
    labels = None
    trace = []
    it = 0
    for it in range(1, max_iter + 1):
        d2 = _pairwise_sq(points, centroids)
        new_labels = d2.argmin(axis=1)
        # reseed empties to the point farthest from its assigned centroid
        for c in range(k):
            if not np.any(new_labels == c):
                dist = d2[np.arange(points.shape[0]), new_labels]
                far = int(dist.argmax())
                centroids[c] = points[far]
                d2 = _pairwise_sq(points, centroids)
                new_labels = d2.argmin(axis=1)
        trace.append(float(d2[np.arange(points.shape[0]), new_labels].sum()))
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            # a cluster can stay empty on fully degenerate data even after
            # reseeding; its centroid then keeps the reseeded position
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
    inertia = float(((points - centroids[labels]) ** 2).sum())
    return KMeansResult(centroids, labels, inertia, it), trace


def kmeans(points, n_clusters: int, seed: int, n_restarts: int = 20, max_iter: int = 300) -> KMeansResult:
    """Lloyd's algorithm from k-means++ seeding; the best of ``n_restarts``
    runs by within-cluster sum of squares wins."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a (n, d) matrix")
    if points.shape[0] < n_clusters:
        raise ValueError(f"need at least {n_clusters} points, got {points.shape[0]}")
    best = None
    for restart in range(n_restarts):
        rng = rng_for(seed, "kmeans", restart)
        init = _kmeanspp(points, n_clusters, rng)
        result, _ = _lloyd(points, init, max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


# -- pretraining ------------------------------------------------------------


def _mse_graph_pair(hidden_relu):
    """One greedy stage: encoder layer + throwaway transposed decoder layer."""
    g = Graph()
    x = g.input("x")
    h = g.linear(x, g.param("w"), g.param("b"), relu=hidden_relu)
    recon = g.linear(h, g.param("dw"), g.param("db"))
    g.mean(g.square(g.sub(recon, x)), name="loss")
    return g


def _finetune_graph(config: ModelConfig, view: int) -> Graph:
    """Full per-view autoencoder (mean paths only) under squared error."""
    g = Graph()
    x = g.input("x")
    mu, _ = encoder_nodes(g, config, view, x)
    out = decoder_nodes(g, config, view, mu)
    recon = out if config.likelihood == "bernoulli" else out[0]
    g.mean(g.square(g.sub(recon, x)), name="loss")
    return g


def _adam_epoch(graph, store, feeds, learning_rate, where) -> float:
    """One pass of mini-batch Adam on ``graph``'s "loss" over ``feeds``, an
    iterable of input dicts; returns the mean loss weighted by each batch's
    rows (those of its first input). A ``NumericError`` is re-raised naming
    ``where``, the batch and the largest parameters."""
    total = 0.0
    rows = 0
    for batch_no, inputs in enumerate(feeds):
        store.zero_grads()
        try:
            values = forward(graph, inputs, store, dtype=store.dtype)
            backward(graph, values, "loss", store)
        except NumericError as exc:
            raise NumericError(f"{where} batch {batch_no}: {exc}; parameter norms: {_diagnostics(store)}") from exc
        store.adam_step(learning_rate)
        size = next(iter(inputs.values())).shape[0]
        total += float(values["loss"]) * size
        rows += size
    return total / rows


def _pretrain(graph, views: dict, fresh, X, epochs, config, stream, where) -> list[float]:
    """Train copies of the model ``views`` (store name -> writable view) plus
    the ``fresh`` (name, value) pairs on ``X``, in ``X``'s dtype, then write
    the trained values back into the views. Returns the per-epoch losses."""
    store = ParamStore([*views.items(), *fresh], dtype=X.dtype)
    losses = []
    for epoch in range(epochs):
        batches = batch_iter(X.shape[0], config.batch_size, config.seed, epoch, stream=stream)
        feeds = ({"x": X[batch]} for batch in batches)
        losses.append(_adam_epoch(graph, store, feeds, config.learning_rate, f"{where} epoch {epoch}"))
    for name, view in views.items():
        view[...] = store[name]
    return losses


def pretrain_autoencoders(model: Model, dataset: MultiViewDataset, config: TrainConfig) -> dict:
    """Greedy layer-wise pretraining, then per-view end-to-end fine-tuning.

    Each encoder layer is trained against a throwaway transposed decoder
    layer under squared error; the trained weights are written back through
    views of the model store (the mean half only for the posterior head,
    whose log-variance half stays zero, i.e. variance 1). Fine-tuning then
    trains the real encoder/decoder stacks of the view jointly. Every stage
    computes in the model store's dtype. Returns per-view loss histories for diagnostics.
    """
    mcfg = model.config
    histories = {}
    for v in range(mcfg.n_views):
        X = dataset.matrices[v].astype(model.params.dtype, copy=False)
        enc_widths, _ = _layer_widths(mcfg, v)
        greedy_out = enc_widths[:-1] + [mcfg.latent_dim]  # head trains its mean half
        n_stages = len(greedy_out) - 1
        current = X
        stage_losses = []
        for stage in range(n_stages):
            fan_in, fan_out = greedy_out[stage], greedy_out[stage + 1]
            hidden = stage < n_stages - 1
            # the encoder side starts from and returns to the model's own
            # weights (for the head, its mean half [:, :J]); only the
            # throwaway transposed decoder layer is fresh
            w = model.params[_enc(v, stage, "w")][:, :fan_out]
            b = model.params[_enc(v, stage, "b")][:fan_out]
            rng = rng_for(config.seed, "pretrain-init", v, stage)
            fresh = [("dw", rng.normal(0.0, np.sqrt(2.0 / fan_out), size=(fan_out, fan_in))), ("db", np.zeros(fan_in))]
            graph = _mse_graph_pair(hidden_relu=hidden)
            stream, where = ("pretrain", v, stage), f"pretrain view {v} stage {stage}"
            losses = _pretrain(graph, {"w": w, "b": b}, fresh, current, config.pretrain_epochs, config, stream, where)
            stage_losses.append(losses)
            if hidden:
                current = np.maximum(current @ w + b, 0.0)

        views = {name: model.params[name] for name in param_shapes(mcfg) if name.startswith((f"enc{v}_", f"dec{v}_"))}
        stream, where = ("finetune", v), f"finetune view {v}"
        fine_losses = _pretrain(_finetune_graph(mcfg, v), views, (), X, config.finetune_epochs, config, stream, where)
        histories[v] = {"greedy": stage_losses, "finetune": fine_losses}
    return histories


def init_gmm(model: Model, dataset: MultiViewDataset, seed: int) -> None:
    """k-means on the fused posterior means seeds the mixture: centroids
    become component means, within-cluster variances (floored) become
    component variances, and both the mixture and fusion logits reset to
    uniform."""
    embeddings = fused_posterior(model, dataset.matrices).mean
    result = kmeans(embeddings, model.config.n_clusters, seed)
    global_var = np.maximum(embeddings.var(axis=0), _VAR_FLOOR)
    variances = np.empty((model.config.n_clusters, model.config.latent_dim))
    for c in range(model.config.n_clusters):
        members = embeddings[result.labels == c]
        if members.shape[0] < 2:
            variances[c] = global_var
        else:
            variances[c] = np.maximum(members.var(axis=0), _VAR_FLOOR)
    model.params.set_value("gmm_means", result.centroids)
    model.params.set_value("gmm_logvars", np.log(variances))
    model.params.set_value("mix_logits", np.zeros(model.config.n_clusters))
    model.params.set_value("fusion_logits", np.zeros(model.config.n_views))


# -- joint training -----------------------------------------------------------


@dataclass
class TrainResult:
    model: Model
    elbo_history: list[float]
    metrics_history: list[dict] = field(default_factory=list)

    @property
    def final_metrics(self) -> dict | None:
        return self.metrics_history[-1] if self.metrics_history else None


def evaluate(model: Model, dataset: MultiViewDataset) -> dict | None:
    """ACC/NMI/ARI/purity of the model's labels, or None without ground truth.

    Raw datasets are passed through the model's stored normalization record.
    """
    if dataset.labels is None:
        return None
    mats = dataset.matrices
    if dataset.normalization is None and model.normalization is not None:
        mats = model.normalization.apply(mats)
    pred = assign_clusters(model, mats)
    return {
        "acc": metrics_mod.accuracy(pred, dataset.labels),
        "nmi": metrics_mod.nmi(pred, dataset.labels),
        "ari": metrics_mod.ari(pred, dataset.labels),
        "purity": metrics_mod.purity(pred, dataset.labels),
    }


def _prepare_dataset(dataset: MultiViewDataset, config: TrainConfig):
    kind = config.likelihood or dataset.likelihood
    if kind is None:
        raise ValueError("likelihood is set neither in the config nor the dataset manifest")
    if dataset.normalization is not None:
        if dataset.normalization.kind != kind:
            raise ValueError(
                f"dataset is already normalized as {dataset.normalization.kind!r}, config wants {kind!r}"
            )
        return dataset, kind
    return normalize(dataset, kind), kind


def save_checkpoint(directory, model: Model, epoch_next: int, elbo_history, metrics_history) -> None:
    directory = Path(directory)
    model.save(directory, include_moments=True)
    state = {
        "format_version": 1,
        "epoch_next": epoch_next,
        "elbo_history": list(elbo_history),
        "metrics_history": list(metrics_history),
    }
    write_atomic(directory / CHECKPOINT_STATE_FILE, [(json.dumps(state, indent=2) + "\n").encode()])


def load_checkpoint(directory):
    directory = Path(directory)
    model = Model.load(directory)
    state = json.loads((directory / CHECKPOINT_STATE_FILE).read_text())
    return model, int(state["epoch_next"]), list(state["elbo_history"]), list(state["metrics_history"])


def _check_resumable(found: ModelConfig, expected: ModelConfig, checkpoint) -> None:
    """Reject a checkpoint whose model differs from the one the config and
    dataset build; the message names the first differing field."""
    for f in fields(ModelConfig):
        have, want = getattr(found, f.name), getattr(expected, f.name)
        if have != want:
            raise ValueError(
                f"checkpoint {checkpoint} has {f.name}={have!r}, but the config and dataset give {f.name}={want!r}"
            )


def _diagnostics(params: ParamStore) -> str:
    worst = sorted(params.names(), key=lambda n: -np.abs(params[n]).max())[:8]
    return ", ".join(f"{n}:|max|={np.abs(params[n]).max():.3e}" for n in worst)


class _HistoryLog:
    def __init__(self, path, fresh):
        self.path = Path(path) if path else None
        if self.path and (fresh or not self.path.exists()):
            with open(self.path, "w", newline="") as fh:
                csv.writer(fh).writerow(_HISTORY_COLUMNS)

    def append(self, epoch, lr, elbo, scores):
        if not self.path:
            return
        row = [epoch, f"{lr:.12g}", f"{elbo:.12g}"]
        for key in ("acc", "nmi", "ari", "purity"):
            row.append("" if not scores else f"{scores[key]:.6f}")
        with open(self.path, "a", newline="") as fh:
            csv.writer(fh).writerow(row)


def _elbo_feeds(data: MultiViewDataset, config: TrainConfig, epoch: int):
    """The ELBO graph's inputs for each batch of ``epoch``: the views' rows
    and the batch's noise draws, in the epoch's data order."""
    noise_rng = rng_for(config.seed, "noise", epoch)
    for batch in batch_iter(data.n, config.batch_size, config.seed, epoch):
        eps = noise_rng.standard_normal((config.mc_samples, batch.shape[0], config.latent_dim))
        inputs = {f"x{v}": data.matrices[v][batch] for v in range(data.n_views)}
        inputs.update({f"eps{l}": eps[l] for l in range(config.mc_samples)})
        yield inputs


def train(dataset: MultiViewDataset, config: TrainConfig, out_dir=None, resume_from=None) -> TrainResult:
    """Run the whole protocol; every stochastic choice derives from the seed.

    Fresh runs do pretraining and GMM initialization first; resumed runs
    pick up the model, optimizer moments and histories from a checkpoint
    directory and continue to ``config.epochs``. The model trains in a
    ``TRAIN_DTYPE`` store either way.
    """
    data, kind = _prepare_dataset(dataset, config)
    out_dir = Path(out_dir) if out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    mcfg = ModelConfig(
        view_dims=data.dims,
        latent_dim=config.latent_dim,
        n_clusters=config.n_clusters,
        likelihood=kind,
        encoder_hidden=config.encoder_hidden,
        decoder_hidden=config.decoder_hidden,
    )
    if resume_from:
        model, start_epoch, history, metrics_history = load_checkpoint(resume_from)
        _check_resumable(model.config, mcfg, resume_from)
        # exact for a checkpoint written by train(): it holds float32 values
        model.params = model.params.clone(TRAIN_DTYPE)
    else:
        model = Model.initialize(mcfg, config.seed, dtype=TRAIN_DTYPE)
        model.normalization = data.normalization
        pretrain_autoencoders(model, data, config)
        init_gmm(model, data, config.seed)
        start_epoch = 0
        history: list[float] = []
        metrics_history: list[dict] = []

    graph = model.elbo_graph(config.mc_samples)
    log = _HistoryLog(out_dir / HISTORY_FILE if out_dir else None, fresh=not resume_from)
    for epoch in range(start_epoch, config.epochs):
        lr = config.learning_rate_at(epoch)
        # the graph's loss is -elbo, so the negated mean loss is the mean ELBO exactly
        history.append(-_adam_epoch(graph, model.params, _elbo_feeds(data, config, epoch), lr, f"epoch {epoch}"))

        scores = None
        is_last = epoch == config.epochs - 1
        if data.labels is not None and config.eval_every > 0 and ((epoch + 1) % config.eval_every == 0 or is_last):
            scores = evaluate(model, data)
            metrics_history.append({"epoch": epoch, **scores})
        log.append(epoch, lr, history[-1], scores)

        if out_dir and config.checkpoint_every > 0 and (epoch + 1) % config.checkpoint_every == 0:
            save_checkpoint(out_dir / f"checkpoint-{epoch + 1:04d}", model, epoch + 1, history, metrics_history)

    if out_dir:
        model.save(out_dir / "model")
    return TrainResult(model, history, metrics_history)
