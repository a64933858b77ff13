"""The benchmark's workloads: inputs made from a seed, one operation each,
and the checks that decide whether an operation's output is correct.

Every workload exists at three scales. ``full`` is the protocol as the
program's acceptance criterion 5 runs it (minutes per operation), ``bench``
is what a timed run repeats (a few seconds per operation) and ``smoke`` is a
tiny shape for the benchmark's own test. The fit workloads keep the data and
the network at every scale except ``smoke`` and shorten only the epoch
counts, so an ELBO step costs the same at ``bench`` as at ``full``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mvclust.cli as cli
import mvclust.training as training
from mvclust.data import MultiViewDataset, load_dataset, normalize, save_dataset, synth_generate
from mvclust.metrics import accuracy, nmi
from mvclust.model import LOG_2PI, LOGVAR_MAX, LOGVAR_MIN, Model, ModelConfig, assign_clusters
from mvclust.numgrad import NumericError, forward

# (greedy, finetune, ELBO) epochs; each fit workload has its own at bench scale
_EPOCHS = {"full": (10, 20, 100), "smoke": (1, 1, 2)}
# log-posterior gap below which the assign oracle does not judge a row
NEAR_TIE = 1e-6


def digest(elbo_history, params) -> str:
    """sha256 over the ELBO history and every final parameter value."""
    h = hashlib.sha256(np.asarray(elbo_history, dtype="<f8").tobytes())
    for name in sorted(params.names()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


def oracle_log_posterior(params, config: ModelConfig, matrices) -> np.ndarray:
    """log pi_c + log N(mu | m_c, sigma2_c) per row of normalized views,
    written out in numpy: encoder matmuls, then softmax-weighted fusion of
    the per-view means."""
    J = config.latent_dim
    logits = params["fusion_logits"]
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    n_layers = len(config.encoder_hidden) + 1
    mu = 0.0
    for v, h in enumerate(matrices):
        for i in range(n_layers):
            h = h @ params[f"enc{v}_w{i}"] + params[f"enc{v}_b{i}"]
            if i < n_layers - 1:
                h = np.maximum(h, 0.0)
        mu = mu + weights[v] * h[:, :J]
    mix = params["mix_logits"]
    log_pi = mix - (np.log(np.exp(mix - mix.max()).sum()) + mix.max())
    logvars = np.clip(params["gmm_logvars"], LOGVAR_MIN, LOGVAR_MAX)
    diff2 = (mu[:, None, :] - params["gmm_means"][None, :, :]) ** 2
    log_n = -0.5 * (J * LOG_2PI + logvars.sum(axis=1) + (diff2 / np.exp(logvars)).sum(axis=2))
    return log_pi + log_n


def oracle_labels(scores) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels and the mask of rows whose top two scores are not a near tie."""
    top2 = np.sort(scores, axis=1)[:, -2:]
    return scores.argmax(axis=1), (top2[:, 1] - top2[:, 0]) >= NEAR_TIE


def table_figures(model: Model, tables, passes: int) -> dict:
    """Computed, not timed: GFLOP of the matmul nodes and MB of every value
    in the tables ``forward`` returned (``passes`` 3 adds backward's two
    matmuls per forward one), plus the parameter count and the bytes one Adam
    step reads (value, gradient, two moments) and writes (value, two moments)."""
    flop = nbytes = 0
    for graph, table in tables:
        for node in graph.nodes:
            if node.op == "matmul":
                a, b = (table[name] for name in node.inputs)
                flop += 2 * a.shape[0] * a.shape[1] * b.shape[1]
        nbytes += sum(value.nbytes for value in table.values())
    params = model.params
    n_params = sum(params[name].size for name in params.names())
    itemsize = params[params.names()[0]].itemsize
    return {
        "graphs_per_step": len(tables),
        "nodes": len(model.elbo_graph().nodes),
        "matmul_gflop_per_step": passes * flop / 1e9,
        "value_mb_per_step": nbytes / 1e6,
        "n_params": n_params,
        "adam_mb_per_step": 7 * itemsize * n_params / 1e6,
    }


@dataclass
class Outcome:
    """One operation: named wall times, check failures and reported figures."""

    times: dict
    failures: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    digest: str | None = None


# -- fit workloads -------------------------------------------------------------


@dataclass
class FitState:
    dataset: MultiViewDataset
    config: training.TrainConfig
    model_config: ModelConfig
    check_criterion5: bool
    reference: str | None = None  # the first operation's digest


class FitWorkload:
    """``train()`` on a synthetic set; the operation is the time to a clustering."""

    def __init__(self, name, synth, data_seed, train_kwargs, bench_epochs, smoke_synth, smoke_train, criterion5=False):
        self.name = name
        self.synth = synth
        self.data_seed = data_seed
        self.train_kwargs = train_kwargs
        self.bench_epochs = bench_epochs
        self.smoke_synth = smoke_synth
        self.smoke_train = smoke_train
        self.criterion5 = criterion5

    def setup(self, seed: int, scale: str, workdir: Path) -> FitState:
        synth = {**self.synth, **(self.smoke_synth if scale == "smoke" else {})}
        kwargs = {**self.train_kwargs, **(self.smoke_train if scale == "smoke" else {})}
        pretrain, finetune, epochs = self.bench_epochs if scale == "bench" else _EPOCHS[scale]
        config = training.TrainConfig(
            seed=seed, pretrain_epochs=pretrain, finetune_epochs=finetune, epochs=epochs, **kwargs
        )
        # the data as `mvclust train` reads it: a CSV manifest, loaded back
        generated = synth_generate(seed=self.data_seed + seed, **synth)
        dataset = load_dataset(save_dataset(generated, workdir / "data"))
        model_config = ModelConfig(
            view_dims=dataset.dims,
            latent_dim=config.latent_dim,
            n_clusters=config.n_clusters,
            likelihood=dataset.likelihood,
            encoder_hidden=config.encoder_hidden,
            decoder_hidden=config.decoder_hidden,
        )
        return FitState(dataset, config, model_config, self.criterion5 and scale == "full" and seed == 0)

    def operate(self, state: FitState):
        """The timed part: returns the outcome and the ``TrainResult`` to check."""
        start = time.perf_counter()
        try:
            result = training.train(state.dataset, state.config)
        except NumericError as exc:
            return Outcome({"op_s": time.perf_counter() - start}, [f"NumericError: {exc}"]), None
        fit_s = time.perf_counter() - start
        return Outcome({"op_s": fit_s, "fit_s": fit_s}), result

    def check(self, state: FitState, out: Outcome, result) -> None:
        if result is None:
            return
        history = result.elbo_history
        last10 = float(np.mean(history[-10:]))
        scores = result.final_metrics
        out.figures.update(elbo_first=history[0], elbo_last10=last10, acc=scores["acc"], nmi=scores["nmi"])
        if not last10 > history[0]:
            out.failures.append(f"elbo_last10 {last10:.6g} is not above the epoch-0 ELBO {history[0]:.6g}")
        model = result.model
        labels = assign_clusters(model, model.normalization.apply(state.dataset.matrices))
        k = state.config.n_clusters
        if labels.shape != (state.dataset.n,) or labels.min() < 0 or labels.max() >= k:
            out.failures.append(f"labels outside [0, {k}) or of wrong length")
        if state.check_criterion5 and not (scores["acc"] >= 0.95 and scores["nmi"] >= 0.90):
            out.failures.append(f"criterion 5 missed: acc {scores['acc']:.4f}, nmi {scores['nmi']:.4f}")
        out.digest = digest(history, model.params)
        if state.reference is None:
            state.reference = out.digest
        elif out.digest != state.reference:
            out.failures.append("determinism digest differs from the first operation of this run")

    def shape_figures(self, state: FitState) -> dict:
        """Shapes of one ELBO step of a full batch, forward and backward."""
        model = Model.initialize(state.model_config, 0)
        graph = model.elbo_graph(state.config.mc_samples)
        rows = min(state.config.batch_size, state.dataset.n)
        data = normalize(state.dataset, state.model_config.likelihood).matrices
        inputs = {f"x{v}": x[:rows] for v, x in enumerate(data)}
        latent = (rows, state.config.latent_dim)
        inputs.update({f"eps{l}": np.zeros(latent) for l in range(state.config.mc_samples)})
        return table_figures(model, [(graph, forward(graph, inputs, model.params))], passes=3)


# -- assign-archive --------------------------------------------------------------

# rows per encoder pass in mvclust.model.fused_posterior
INFER_CHUNK = 4096
_ASSIGN_N = {"full": 50000, "bench": 20000, "smoke": 300}
_TRAIN_N = 1500
_CHECKPOINT_STEP = 1320
_CHECKPOINT_EPOCH = 100


@dataclass
class AssignState:
    model: Model
    manifest: Path
    archive: Path
    checkpoint: Path
    resaved: Path
    predictions: Path
    elbo_history: list
    truth: np.ndarray
    normalized: list
    expected: np.ndarray
    judged: np.ndarray
    reference: np.ndarray | None = None  # the first operation's labels


class AssignWorkload:
    """Checkpoint round trip of a default-size model, then `mvclust assign`."""

    name = "assign-archive"
    synth = dict(n_clusters=3, n_views=2, latent_dim=4, separation=5.0, view_dims=(20, 25), noise=0.3)
    data_seed = 4200
    smoke_model = dict(encoder_hidden=(16, 16, 8), decoder_hidden=(16, 16, 16))

    def setup(self, seed: int, scale: str, workdir: Path) -> AssignState:
        n = _ASSIGN_N[scale]
        full = synth_generate(n=_TRAIN_N + n, seed=self.data_seed + seed, likelihood="gaussian", **self.synth)
        train_part, new_part = (
            MultiViewDataset(
                name=f"synthetic-{tag}",
                view_names=list(full.view_names),
                matrices=[m[rows] for m in full.matrices],
                labels=full.labels[rows],
                likelihood="gaussian",
            )
            for tag, rows in (("train", slice(0, _TRAIN_N)), ("new", slice(_TRAIN_N, None)))
        )
        manifest = save_dataset(new_part, workdir / "new")
        config = ModelConfig(
            view_dims=full.dims,
            latent_dim=10,
            n_clusters=3,
            likelihood="gaussian",
            **(self.smoke_model if scale == "smoke" else {}),
        )
        model = Model.initialize(config, seed)
        normalized = normalize(train_part, "gaussian")
        model.normalization = normalized.normalization
        training.init_gmm(model, normalized, seed)
        # Adam moments as a resumed run would carry them
        rng = np.random.default_rng([seed, 1])
        for name in model.params.names():
            m, v = model.params.moments(name)
            m[...] = rng.normal(0.0, 1e-3, size=m.shape)
            v[...] = rng.random(size=v.shape) * 1e-6
        model.params.step = _CHECKPOINT_STEP
        archive = workdir / "model"
        model.save(archive)
        elbo_history = [float(x) for x in -np.linspace(50.0, 3.0, _CHECKPOINT_EPOCH)]
        record = model.normalization
        normalized_new = [(x - off) * sc for x, off, sc in zip(new_part.matrices, record.offsets, record.scales)]
        # in chunks, so that the oracle's activations do not set the run's peak memory
        scores = np.concatenate(
            [
                oracle_log_posterior(model.params, config, [x[i : i + INFER_CHUNK] for x in normalized_new])
                for i in range(0, n, INFER_CHUNK)
            ]
        )
        expected, judged = oracle_labels(scores)
        return AssignState(
            model=model,
            manifest=manifest,
            archive=archive,
            checkpoint=workdir / "checkpoint",
            resaved=workdir / "checkpoint-resaved",
            predictions=workdir / "labels.txt",
            elbo_history=elbo_history,
            truth=new_part.labels,
            normalized=normalized_new,
            expected=expected,
            judged=judged,
        )

    def operate(self, state: AssignState):
        """The timed part: returns the outcome and what the checks read.
        Assign runs first, so the checkpoint read back is not held while it
        runs and the peak resident set is the program's."""
        t0 = time.perf_counter()
        argv = ["assign", "--model", str(state.archive), "--manifest", str(state.manifest)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(state.predictions)])
        t1 = time.perf_counter()
        training.save_checkpoint(state.checkpoint, state.model, _CHECKPOINT_EPOCH, state.elbo_history, [])
        t2 = time.perf_counter()
        loaded = training.load_checkpoint(state.checkpoint)
        t3 = time.perf_counter()
        times = {"op_s": t3 - t0, "assign_s": t1 - t0, "checkpoint_save_s": t2 - t1, "checkpoint_load_s": t3 - t2}
        return Outcome(times), (loaded, code)

    def check(self, state: AssignState, out: Outcome, payload) -> None:
        loaded, code = payload
        self.check_checkpoint(state, loaded, out)
        if code != 0:
            out.failures.append(f"mvclust assign exited with {code}")
        else:
            self.check_labels(state, out)

    def shape_figures(self, state: AssignState) -> dict:
        """Shapes of one inference chunk through every encoder, forward only."""
        model = state.model
        tables = []
        for v, x in enumerate(state.normalized):
            graph = model.encoder_graph(v)
            tables.append((graph, forward(graph, {"x": x[:INFER_CHUNK]}, model.params)))
        return table_figures(model, tables, passes=1)

    def check_checkpoint(self, state: AssignState, loaded, out: Outcome) -> None:
        model, epoch_next, history, metrics_history = loaded
        saved = state.model.params
        if (epoch_next, history, metrics_history) != (_CHECKPOINT_EPOCH, state.elbo_history, []):
            out.failures.append("checkpoint state read back differs")
        if model.params.step != saved.step or sorted(model.params.names()) != sorted(saved.names()):
            out.failures.append("checkpoint step or parameter names read back differ")
            return
        for name in saved.names():
            same = np.array_equal(model.params[name], saved[name]) and all(
                np.array_equal(a, b) for a, b in zip(model.params.moments(name), saved.moments(name))
            )
            if not same:
                out.failures.append(f"checkpoint value or moments of {name} read back differ")
                return
        training.save_checkpoint(state.resaved, model, epoch_next, history, metrics_history)
        for path in sorted(state.checkpoint.iterdir()):
            if path.read_bytes() != (state.resaved / path.name).read_bytes():
                out.failures.append(f"re-saved checkpoint file {path.name} is not byte-identical")

    def check_labels(self, state: AssignState, out: Outcome) -> None:
        text = state.predictions.read_text().split()
        labels = np.array([int(t) for t in text], dtype=np.int64)
        if labels.shape != state.expected.shape:
            out.failures.append(f"assign wrote {labels.shape[0]} labels for {state.expected.shape[0]} samples")
            return
        wrong = int(np.count_nonzero((labels != state.expected) & state.judged))
        if wrong:
            out.failures.append(f"{wrong} labels differ from the numpy oracle")
        if state.reference is None:
            state.reference = labels
        elif not np.array_equal(labels, state.reference):
            out.failures.append("labels differ from the first operation of this run")
        n = labels.shape[0]
        out.figures.update(
            acc=accuracy(labels, state.truth),
            nmi=nmi(labels, state.truth),
            near_ties=int(n - np.count_nonzero(state.judged)),
            assign_samples_per_s=n / out.times["assign_s"],
        )


WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload(
            "fit-gauss-2v",
            synth=dict(
                n_clusters=3, n_views=2, n=1500, latent_dim=4, separation=5.0, view_dims=(20, 25),
                noise=0.3, likelihood="gaussian",
            ),
            data_seed=42,
            train_kwargs=dict(n_clusters=3),
            bench_epochs=(1, 1, 2),
            smoke_synth=dict(n=120),
            smoke_train=dict(encoder_hidden=(16, 16, 8), decoder_hidden=(16, 16, 16)),
            criterion5=True,
        ),
        FitWorkload(
            "fit-bern-6v-narrow",
            synth=dict(
                n_clusters=10, n_views=6, n=2000, latent_dim=6, separation=5.0,
                view_dims=(240, 76, 216, 47, 64, 6), noise=0.3, likelihood="bernoulli",
            ),
            data_seed=7,
            train_kwargs=dict(n_clusters=10, encoder_hidden=(64, 64, 32), decoder_hidden=(128, 64, 64)),
            bench_epochs=(1, 1, 4),
            smoke_synth=dict(n=150, view_dims=(24, 8, 20, 5, 6, 3)),
            smoke_train=dict(encoder_hidden=(8, 8, 4), decoder_hidden=(8, 8, 8)),
        ),
        AssignWorkload(),
    )
}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
