"""Training protocol: layer-wise pretraining, k-means GMM init, joint ELBO
ascent with Adam and a step-decayed learning rate, checkpointing.

``train`` computes in float32 (``TRAIN_DTYPE``): the model's parameter store,
its gradients and Adam moments, and every pretraining and ELBO step.
k-means, evaluation and every saved artifact stay float64.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .data import FORMAT_VERSION, LoadError, MultiViewDataset, batch_iter, check_format_version, json_build
from .data import json_field, load_json, normalize, save_json
from .model import Model, ModelConfig, _enc, assign_clusters, check_architecture, decoder_nodes, encoder_nodes
from .model import fused_posterior
from .numgrad import Graph, NumericError, ParamStore, backward, forward
from .numgrad.params import write_atomic
from .seeding import check_int, check_real, check_seed, rng_for

CHECKPOINT_STATE_FILE = "state.json"
HISTORY_FILE = "history.csv"
_HISTORY_COLUMNS = ("epoch", "learning_rate", "elbo", *metrics_mod.SCORE_NAMES)
_VAR_FLOOR = 1e-4
TRAIN_DTYPE = np.float32
LR_DECAY = 0.9  # the learning rate is multiplied by LR_DECAY every DECAY_EVERY epochs
DECAY_EVERY = 10
KMEANS_RESTARTS = 20
KMEANS_MAX_ITER = 300


@dataclass
class TrainConfig:
    """Everything a training run needs besides the dataset itself."""

    n_clusters: int
    latent_dim: int = 10
    learning_rate: float = 1e-4
    epochs: int = 100
    batch_size: int = 256
    pretrain_epochs: int = 10
    finetune_epochs: int = 20
    seed: int = 0
    mc_samples: int = 1
    encoder_hidden: tuple[int, ...] = ModelConfig.encoder_hidden
    decoder_hidden: tuple[int, ...] = ModelConfig.decoder_hidden
    checkpoint_every: int = 0
    eval_every: int = 10

    def __post_init__(self):
        check_architecture(self)
        check_real("learning_rate", self.learning_rate, above=0)
        lowest = {"batch_size": 1, "mc_samples": 1, "epochs": 0, "pretrain_epochs": 0,
                  "finetune_epochs": 0, "checkpoint_every": 0, "eval_every": 0}
        for name, low in lowest.items():
            setattr(self, name, check_int(name, getattr(self, name), low))
        self.seed = check_seed(self.seed)

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """A JSON object of fields; anything else raises a ``LoadError`` naming the file."""
        return json_build(load_json(path, "config file"), cls, f"config file {path}")

    def learning_rate_at(self, epoch: int) -> float:
        return self.learning_rate * LR_DECAY ** (epoch // DECAY_EVERY)


# -- k-means --------------------------------------------------------------


@dataclass
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float


def _pairwise_sq(sq_norms, twice_points, centroids):
    """Squared distances ``|p|^2 - 2 p.c + |c|^2`` floored at 0, from the
    points' squared norms (a column) and the points doubled."""
    d2 = twice_points @ centroids.T
    np.subtract(sq_norms, d2, out=d2)
    d2 += (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


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
    trace (which never increases).

    Each centroid is its members' per-feature ``bincount`` sums over their
    count: the sums add the same rows in the same order as a boolean-mask
    ``mean(axis=0)``, so the result is bitwise that mean."""
    n, k = points.shape[0], centroids.shape[0]
    rows = np.arange(n)
    sq_norms = (points * points).sum(axis=1)[:, None]
    twice_points = 2.0 * points
    columns = np.ascontiguousarray(points.T)
    sums = np.empty_like(centroids)
    labels = None
    trace = []
    for _ in range(max_iter):
        d2 = _pairwise_sq(sq_norms, twice_points, centroids)
        new_labels = d2.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        # reseed empties to the point farthest from its assigned centroid
        for c in range(k):
            if counts[c] == 0:
                far = int(d2[rows, new_labels].argmax())
                centroids[c] = points[far]
                d2 = _pairwise_sq(sq_norms, twice_points, centroids)
                new_labels = d2.argmin(axis=1)
                counts = np.bincount(new_labels, minlength=k)
        trace.append(float(d2[rows, new_labels].sum()))
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for j, column in enumerate(columns):
            sums[:, j] = np.bincount(labels, weights=column, minlength=k)
        # a cluster can stay empty on fully degenerate data even after
        # reseeding; its centroid then keeps the reseeded position
        members = counts > 0
        centroids[members] = sums[members] / counts[members, None]
    inertia = float(((points - centroids[labels]) ** 2).sum())
    return KMeansResult(centroids, labels, inertia), trace


def kmeans(points, n_clusters: int, seed: int) -> KMeansResult:
    """Lloyd's algorithm from k-means++ seeding; the best of ``KMEANS_RESTARTS``
    runs by within-cluster sum of squares wins."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a (n, d) matrix")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite, got NaN or infinity")
    n_clusters = check_int("n_clusters", n_clusters, 1)
    if points.shape[0] < n_clusters:
        raise ValueError(f"need at least {n_clusters} points, got {points.shape[0]}")
    best = None
    for restart in range(KMEANS_RESTARTS):
        rng = rng_for(seed, "kmeans", restart)
        init = _kmeanspp(points, n_clusters, rng)
        result, _ = _lloyd(points, init, KMEANS_MAX_ITER)
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
        try:
            values = forward(graph, inputs, store, dtype=store.dtype)
            backward(graph, values, "loss", store)
        except NumericError as exc:
            raise NumericError(f"{where} batch {batch_no}: {exc}; parameter norms: {_diagnostics(store)}") from exc
        loss = float(values["loss"])
        del values  # else this step's table is still alive while the next forward builds its own
        store.adam_step(learning_rate)
        size = next(iter(inputs.values())).shape[0]
        total += loss * size
        rows += size
    return total / rows


def _pretrain(graph, params: dict, X, epochs, config, stream, where) -> list[float]:
    """Train a copy of ``params`` (each parameter ``graph`` declares -> a
    writable array) on ``X``, in ``X``'s dtype, then write the trained values
    back into the arrays. Returns the per-epoch losses."""
    store = ParamStore(params.items(), dtype=X.dtype)
    losses = []
    for epoch in range(epochs):
        batches = batch_iter(X.shape[0], config.batch_size, config.seed, epoch, stream=stream)
        feeds = ({"x": X[batch]} for batch in batches)
        losses.append(_adam_epoch(graph, store, feeds, config.learning_rate, f"{where} epoch {epoch}"))
    for name, array in params.items():
        array[...] = store[name]
    return losses


def pretrain_autoencoders(model: Model, dataset: MultiViewDataset, config: TrainConfig) -> dict:
    """Greedy layer-wise pretraining, then per-view end-to-end fine-tuning.

    Each encoder layer of the model store, one stage per layer, is trained
    against a throwaway transposed decoder layer under squared error, its
    widths read from the stored weight; the trained weights are written back
    through views of the store (the mean half only for the posterior head,
    whose log-variance half stays zero, i.e. variance 1). Fine-tuning then
    trains the real encoder/decoder stacks of the view jointly. Every stage
    computes in the model store's dtype. Returns per-view loss histories for diagnostics.
    """
    mcfg = model.config
    histories = {}
    n_stages = len(mcfg.encoder_hidden) + 1
    for v in range(mcfg.n_views):
        X = dataset.matrices[v].astype(model.params.dtype, copy=False)
        current = X
        stage_losses = []
        for stage in range(n_stages):
            hidden = stage < n_stages - 1
            # the encoder side starts from and returns to the model's own
            # weights (for the head, its mean half [:, :J]); only the
            # throwaway transposed decoder layer is fresh
            w, b = (model.params[_enc(v, stage, kind)] for kind in "wb")
            if not hidden:
                w, b = w[:, : mcfg.latent_dim], b[: mcfg.latent_dim]
            fan_in, fan_out = w.shape
            rng = rng_for(config.seed, "pretrain-init", v, stage)
            dw = rng.normal(0.0, np.sqrt(2.0 / fan_out), size=(fan_out, fan_in))
            params = {"w": w, "b": b, "dw": dw, "db": np.zeros(fan_in)}
            graph = _mse_graph_pair(hidden_relu=hidden)
            stream, where = ("pretrain", v, stage), f"pretrain view {v} stage {stage}"
            stage_losses.append(_pretrain(graph, params, current, config.pretrain_epochs, config, stream, where))
            if hidden:
                # in place, as the engine's `linear`: one (n, width) array where `maximum(x @ w + b, 0)` held two
                current = current @ w
                current += b
                np.maximum(current, 0.0, out=current)

        graph = _finetune_graph(mcfg, v)
        params = {name: model.params[name] for name in graph.params}
        stream, where = ("finetune", v), f"finetune view {v}"
        fine_losses = _pretrain(graph, params, X, config.finetune_epochs, config, stream, where)
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


def evaluate(model: Model, views, labels) -> dict:
    """ACC/NMI/ARI/purity of the model's labels for ``views``, the matrices
    as the encoders take them, against the ground truth ``labels``."""
    return metrics_mod.scores(assign_clusters(model, views), labels)


def save_checkpoint(directory, model: Model, epoch_next: int, elbo_history, metrics_history) -> None:
    """The model with its Adam moments and the run state; ``epoch_next`` must
    be the length of ``elbo_history``, as ``load_checkpoint`` requires."""
    if epoch_next != len(elbo_history):
        raise ValueError(f"epoch_next must be {len(elbo_history)}, the length of elbo_history, got {epoch_next}")
    directory = Path(directory)
    model.save(directory, include_moments=True)
    state = {
        "format_version": FORMAT_VERSION,
        "epoch_next": epoch_next,
        "elbo_history": list(elbo_history),
        "metrics_history": list(metrics_history),
    }
    save_json(directory / CHECKPOINT_STATE_FILE, state)


def load_checkpoint(directory):
    directory = Path(directory)
    model = Model.load(directory)
    path = directory / CHECKPOINT_STATE_FILE
    state, where = load_json(path, "checkpoint state"), f"checkpoint state {path}"
    check_format_version(state, where)
    kinds = {"epoch_next": "int", "elbo_history": "tuple[float, ...]", "metrics_history": "tuple[dict, ...]"}
    epoch_next, history, metrics_history = (json_field(state, key, kind, where) for key, kind in kinds.items())
    if epoch_next != len(history):
        raise LoadError(f"{where}: epoch_next must be {len(history)}, the length of elbo_history, got {epoch_next}")
    return model, epoch_next, history, metrics_history


def _check_resumable(found: Model, expected: ModelConfig, record, checkpoint) -> None:
    """Reject a checkpoint whose model differs from the one the config and
    dataset build, naming the first differing field, or whose normalization
    record differs from the dataset's, naming the first differing view."""
    for f in fields(ModelConfig):
        have, want = getattr(found.config, f.name), getattr(expected, f.name)
        if have != want:
            raise ValueError(
                f"checkpoint {checkpoint} has {f.name}={have!r}, but the config and dataset give {f.name}={want!r}"
            )
    stored = found.normalization
    for v, pair in enumerate(zip(record.offsets, record.scales)):
        if stored is None or not all(map(np.array_equal, (stored.offsets[v], stored.scales[v]), pair)):
            raise ValueError(
                f"checkpoint {checkpoint} was trained on other data: its {expected.likelihood} normalization "
                f"differs from the dataset's in view {v}"
            )


def _diagnostics(params: ParamStore) -> str:
    worst = sorted(params.names(), key=lambda n: -np.abs(params[n]).max())[:8]
    return ", ".join(f"{n}:|max|={np.abs(params[n]).max():.3e}" for n in worst)


def _write_history(path, history, metrics_history, config: TrainConfig) -> None:
    """Rewrite ``history.csv`` from the run record: a row per finished epoch
    with its learning rate and ELBO, and its scores where it was evaluated."""
    scored = {entry["epoch"]: entry for entry in metrics_history}
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(_HISTORY_COLUMNS)
    for epoch, elbo in enumerate(history):
        scores = scored.get(epoch)
        cells = ("" if scores is None else f"{scores[key]:.6f}" for key in metrics_mod.SCORE_NAMES)
        writer.writerow([epoch, f"{config.learning_rate_at(epoch):.12g}", f"{elbo:.12g}", *cells])
    write_atomic(path, [text.getvalue().encode()])


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
    ``TRAIN_DTYPE`` store either way. ``dataset`` is raw: it is normalized
    for the likelihood its manifest names, and the model keeps the record.
    """
    if dataset.likelihood is None:
        raise ValueError("the dataset manifest names no likelihood")
    if config.n_clusters > dataset.n:
        raise ValueError(f"n_clusters {config.n_clusters} exceeds the {dataset.n} rows of dataset {dataset.name!r}")
    data = normalize(dataset, dataset.likelihood)
    out_dir = Path(out_dir) if out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    mcfg = ModelConfig(
        view_dims=data.dims,
        latent_dim=config.latent_dim,
        n_clusters=config.n_clusters,
        likelihood=data.likelihood,
        encoder_hidden=config.encoder_hidden,
        decoder_hidden=config.decoder_hidden,
    )
    if resume_from:
        model, start_epoch, history, metrics_history = load_checkpoint(resume_from)
        if start_epoch > config.epochs:
            raise ValueError(f"checkpoint {resume_from} has epoch_next={start_epoch}, past epochs={config.epochs}")
        _check_resumable(model, mcfg, data.normalization, resume_from)
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
    if out_dir:
        _write_history(out_dir / HISTORY_FILE, history, metrics_history, config)
    for epoch in range(start_epoch, config.epochs):
        lr = config.learning_rate_at(epoch)
        # the graph's loss is -elbo, so the negated mean loss is the mean ELBO exactly
        history.append(-_adam_epoch(graph, model.params, _elbo_feeds(data, config, epoch), lr, f"epoch {epoch}"))

        is_last = epoch == config.epochs - 1
        if data.labels is not None and config.eval_every > 0 and ((epoch + 1) % config.eval_every == 0 or is_last):
            metrics_history.append({"epoch": epoch, **evaluate(model, data.matrices, data.labels)})

        if out_dir:
            _write_history(out_dir / HISTORY_FILE, history, metrics_history, config)
            if config.checkpoint_every > 0 and (epoch + 1) % config.checkpoint_every == 0:
                save_checkpoint(out_dir / f"checkpoint-{epoch + 1:04d}", model, epoch + 1, history, metrics_history)

    if out_dir:
        model.save(out_dir / "model")
    return TrainResult(model, history, metrics_history)
