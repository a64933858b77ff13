"""Training protocol: config, k-means, GMM init, pretraining, joint loop."""

import dataclasses
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest

from mvclust import (
    Model,
    ModelConfig,
    NumericError,
    ParamStore,
    TrainConfig,
    assign_clusters,
    evaluate,
    init_gmm,
    kmeans,
    model_inputs,
    normalize,
    pretrain_autoencoders,
    synth_generate,
    train,
)
from mvclust import metrics as metrics_mod
from mvclust import training as training_mod
from mvclust.training import (
    DECAY_EVERY,
    LR_DECAY,
    TRAIN_DTYPE,
    _adam_epoch,
    _lloyd,
    _mse_graph_pair,
    load_checkpoint,
    save_checkpoint,
)

from helpers import mixture_moments, softmax, tiny_config


def small_config(**overrides):
    base = dict(
        n_clusters=3,
        latent_dim=2,
        learning_rate=1e-3,
        epochs=3,
        batch_size=32,
        pretrain_epochs=2,
        finetune_epochs=2,
        seed=0,
        encoder_hidden=(8, 6),
        decoder_hidden=(6, 8),
        eval_every=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def small_dataset(seed=0, n=90, separation=6.0):
    return synth_generate(3, 2, n, 2, separation=separation, view_dims=(5, 4), seed=seed, noise=0.2)


def small_bernoulli_dataset():
    """``small_dataset`` whose manifest names the Bernoulli likelihood."""
    return dataclasses.replace(small_dataset(), likelihood="bernoulli")


# -- TrainConfig ------------------------------------------------------------


def test_config_defaults_match_protocol():
    config = TrainConfig(n_clusters=10)
    assert config.latent_dim == 10
    assert config.learning_rate == pytest.approx(1e-4)
    assert (LR_DECAY, DECAY_EVERY) == (0.9, 10)
    assert config.epochs == 100
    assert config.batch_size == 256
    assert config.pretrain_epochs == 10
    assert config.finetune_epochs == 20
    assert config.mc_samples == 1
    assert config.encoder_hidden == (500, 500, 200)
    assert config.decoder_hidden == (2000, 500, 500)


def test_config_validation():
    # a learning rate that is infinite, beyond float64 or not a number is
    # refused here as a config file refuses it, naming the field
    for kwargs, named in (
        ({"n_clusters": 0}, "n_clusters must be >= 1, got 0"),
        ({"n_clusters": 2, "learning_rate": 0.0}, "learning_rate must be > 0, got 0.0"),
        ({"n_clusters": 2, "learning_rate": -1e-3}, "learning_rate must be > 0, got -0.001"),
        ({"n_clusters": 2, "learning_rate": float("inf")}, "learning_rate must be a finite number, got inf"),
        ({"n_clusters": 2, "learning_rate": float("nan")}, "learning_rate must be a finite number, got nan"),
        ({"n_clusters": 2, "learning_rate": 10**400}, f"learning_rate must be a finite number, got {10**400!r}"),
        ({"n_clusters": 2, "learning_rate": True}, "learning_rate must be a finite number, got True"),
        ({"n_clusters": 2, "learning_rate": None}, "learning_rate must be a finite number, got None"),
        ({"n_clusters": 2, "learning_rate": "1e-3"}, "learning_rate must be a finite number, got '1e-3'"),
        ({"n_clusters": 2, "batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"n_clusters": 2, "epochs": -1}, "epochs must be >= 0, got -1"),
        ({"n_clusters": 2, "seed": -3}, "seed must be in [0, 2**64), got -3"),
        ({"n_clusters": 2, "mc_samples": 0}, "mc_samples must be >= 1, got 0"),
    ):
        with pytest.raises(ValueError) as caught:
            TrainConfig(**kwargs)
        assert str(caught.value) == named


def test_config_takes_numpy_and_integer_learning_rates_as_they_are():
    for rate in (np.float32(1e-3), np.float64(1e-3), np.int64(1), 1):
        assert TrainConfig(n_clusters=2, learning_rate=rate).learning_rate is rate


_COUNT_FIELDS = ("epochs", "batch_size", "pretrain_epochs", "finetune_epochs", "mc_samples",
                 "checkpoint_every", "eval_every", "seed")


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("field", _COUNT_FIELDS)
def test_config_counts_must_be_integers(field, value):
    with pytest.raises(ValueError) as caught:
        TrainConfig(n_clusters=2, **{field: value})
    assert str(caught.value) == f"{field} must be an integer, got {value!r}"


def test_config_numpy_integer_counts_become_ints():
    config = TrainConfig(n_clusters=2, **{field: np.int64(2) for field in _COUNT_FIELDS})
    assert all(type(getattr(config, field)) is int for field in _COUNT_FIELDS)


def test_config_rejects_a_seed_beyond_64_bits():
    assert TrainConfig(n_clusters=2, seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"):
        TrainConfig(n_clusters=2, seed=2**64)


def test_config_file_roundtrip(tmp_path):
    config = small_config(seed=11)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(config)))
    assert TrainConfig.from_file(path) == config


def test_config_unknown_field_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_clusters": 2, "momentum": 0.9}))
    with pytest.raises(ValueError, match="momentum"):
        TrainConfig.from_file(path)


def test_learning_rate_schedule():
    config = TrainConfig(n_clusters=2)
    for epoch in range(35):
        assert config.learning_rate_at(epoch) == pytest.approx(1e-4 * 0.9 ** (epoch // 10))


# -- kmeans --------------------------------------------------------------------


def test_kmeans_single_cluster_returns_mean():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((40, 3))
    result = kmeans(points, 1, seed=0)
    assert result.centroids[0] == pytest.approx(points.mean(axis=0), abs=1e-12)
    assert np.all(result.labels == 0)


def test_kmeans_two_point_masses():
    points = np.array([[0.0], [0.0], [0.0], [10.0], [10.0]])
    result = kmeans(points, 2, seed=1)
    assert sorted(result.centroids.reshape(-1)) == pytest.approx([0.0, 10.0])
    assert result.inertia == pytest.approx(0.0)


def test_kmeans_matches_brute_force_partition_minimum():
    rng = np.random.default_rng(7)
    points = rng.uniform(-4, 4, (8, 1))
    best = np.inf
    for assignment in itertools.product([0, 1], repeat=8):
        assignment = np.array(assignment)
        if len(set(assignment)) < 2:
            continue
        cost = sum(
            ((points[assignment == c] - points[assignment == c].mean(axis=0)) ** 2).sum()
            for c in (0, 1)
        )
        best = min(best, cost)
    result = kmeans(points, 2, seed=3)
    assert result.inertia == pytest.approx(best, abs=1e-10)


def test_kmeans_rejects_too_few_points():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 3)), 5, seed=0)


@pytest.mark.parametrize("n_clusters", [0, -1])
def test_kmeans_rejects_fewer_than_one_cluster(n_clusters):
    with pytest.raises(ValueError, match=f"n_clusters must be >= 1, got {n_clusters}"):
        kmeans(np.zeros((4, 3)), n_clusters, seed=0)


@pytest.mark.parametrize("n_clusters", [2.5, True, np.float64(2.0), "2"], ids=["float", "bool", "numpy-float", "str"])
def test_kmeans_rejects_a_cluster_count_that_is_not_an_integer(n_clusters):
    with pytest.raises(ValueError) as caught:
        kmeans(np.zeros((4, 3)), n_clusters, seed=0)
    assert str(caught.value) == f"n_clusters must be an integer, got {n_clusters!r}"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_kmeans_rejects_points_that_are_not_finite(bad):
    # k-means++ would otherwise fail inside rng.choice on NaN probabilities
    points = np.arange(12.0).reshape(4, 3)
    points[2, 1] = bad
    with pytest.raises(ValueError, match=r"^points must be finite, got NaN or infinity$"):
        kmeans(points, 2, seed=0)


def test_kmeans_rejects_points_that_are_not_a_matrix():
    with pytest.raises(ValueError, match=r"points must be a \(n, d\) matrix"):
        kmeans(np.zeros(6), 2, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(9)
    points = rng.standard_normal((50, 2))
    a = kmeans(points, 3, seed=4)
    b = kmeans(points, 3, seed=4)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.labels, b.labels)


def test_lloyd_objective_never_increases():
    rng = np.random.default_rng(11)
    points = rng.standard_normal((60, 2))
    init = points[rng.choice(60, size=4, replace=False)].copy()
    _, trace = _lloyd(points, init, max_iter=50)
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_lloyd_reseeds_empty_cluster():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    # duplicate initial centroids guarantee one empty cluster on assignment
    init = np.array([[0.0, 0.0], [0.0, 0.0]])
    result, _ = _lloyd(points, init.copy(), max_iter=20)
    assert len(set(result.labels.tolist())) == 2
    assert result.inertia == pytest.approx(0.01, abs=1e-12)


def _masked_lloyd(points, centroids, max_iter):
    """The boolean-mask Lloyd loop, as the reference: distances recomputed in
    full every iteration, one mask per cluster for emptiness and for each mean."""

    def pairwise_sq(points, centroids):
        d2 = (
            (points * points).sum(axis=1)[:, None]
            - 2.0 * points @ centroids.T
            + (centroids * centroids).sum(axis=1)[None, :]
        )
        return np.maximum(d2, 0.0)

    k = centroids.shape[0]
    labels = None
    trace = []
    for _ in range(max_iter):
        d2 = pairwise_sq(points, centroids)
        new_labels = d2.argmin(axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                dist = d2[np.arange(points.shape[0]), new_labels]
                centroids[c] = points[int(dist.argmax())]
                d2 = pairwise_sq(points, centroids)
                new_labels = d2.argmin(axis=1)
        trace.append(float(d2[np.arange(points.shape[0]), new_labels].sum()))
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
    inertia = float(((points - centroids[labels]) ** 2).sum())
    return centroids, labels, inertia, trace


def _lloyd_cases():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((4, 5)) * 3
        points = centers[rng.integers(4, size=300)] + rng.standard_normal((300, 5))
        yield f"blobs-{seed}", points, points[rng.choice(300, size=4, replace=False)]
    rng = np.random.default_rng(6)
    points = rng.standard_normal((2000, 10))
    yield "latent-shape", points, points[rng.choice(2000, size=10, replace=False)]
    # 3 distinct rows, each repeated: more clusters than distinct points, so
    # reseeding runs and some clusters stay empty
    distinct = np.array([[0.0, 1.0], [4.0, -2.0], [-3.0, 0.5]])
    points = distinct[rng.integers(3, size=40)]
    yield "k-above-distinct", points, np.zeros((5, 2))
    # duplicated rows among distinct ones, and duplicated initial centroids
    points = np.concatenate([rng.standard_normal((30, 3)), np.repeat(rng.standard_normal((4, 3)), 10, axis=0)])
    yield "duplicated-rows", rng.permutation(points), np.repeat(points[:2], 3, axis=0)


@pytest.mark.parametrize("case", list(_lloyd_cases()), ids=lambda case: case[0])
def test_lloyd_is_bitwise_the_masked_loop(case):
    _, points, init = case
    want_centroids, want_labels, want_inertia, want_trace = _masked_lloyd(points, init.copy(), 100)
    result, trace = _lloyd(points, init.copy(), 100)
    assert np.array_equal(result.centroids, want_centroids)
    assert np.array_equal(result.labels, want_labels)
    assert result.inertia == want_inertia
    assert trace == want_trace


# -- pretraining -----------------------------------------------------------------


def test_an_adam_step_drops_its_values_before_the_next_forward(monkeypatch):
    # two value tables alive at once would raise a fit's peak memory by one table
    x = np.random.default_rng(0).standard_normal((512, 64))
    rng = np.random.default_rng(1)
    shapes = {"w": (64, 32), "b": (32,), "dw": (32, 64), "db": (64,)}
    store = ParamStore([(name, rng.standard_normal(shape) * 0.1) for name, shape in shapes.items()])
    alive = []

    def counted_forward(*args, **kwargs):
        alive.append(tracemalloc.get_traced_memory()[0])
        return forward(*args, **kwargs)

    forward = training_mod.forward
    monkeypatch.setattr(training_mod, "forward", counted_forward)
    tracemalloc.start()
    try:
        _adam_epoch(_mse_graph_pair(True), store, ({"x": x} for _ in range(3)), 1e-3, "test")
    finally:
        tracemalloc.stop()
    # one table here is three 512 x 64 float64 arrays (768 KB) and a smaller one
    assert len(alive) == 3 and max(alive) - min(alive) < x.nbytes / 4


def test_pretrain_zero_epochs_leaves_random_init():
    dataset = normalize(small_dataset(), "gaussian")
    config = small_config(pretrain_epochs=0, finetune_epochs=0)
    mcfg = ModelConfig(dataset.dims, 2, 3, "gaussian", (8, 6), (6, 8))
    model = Model.initialize(mcfg, seed=0)
    before = {n: model.params[n].copy() for n in model.params.names()}
    pretrain_autoencoders(model, dataset, config)
    for name, value in before.items():
        assert np.array_equal(model.params[name], value)


def test_greedy_pretraining_writes_only_the_encoder_through_its_views():
    dataset = normalize(small_dataset(), "gaussian")
    config = small_config(pretrain_epochs=2, finetune_epochs=0)
    mcfg = ModelConfig(dataset.dims, 2, 3, "gaussian", (8, 6), (6, 8))
    model = Model.initialize(mcfg, seed=0, dtype=TRAIN_DTYPE)
    before = {n: model.params[n].copy() for n in model.params.names()}
    pretrain_autoencoders(model, dataset, config)
    J = mcfg.latent_dim
    for v in range(mcfg.n_views):
        # the head trains its mean half; its log-variance half stays zero
        head_w, head_b = model.params[f"enc{v}_w2"], model.params[f"enc{v}_b2"]
        assert not np.any(head_w[:, J:]) and not np.any(head_b[J:])
        assert not np.array_equal(head_w[:, :J], before[f"enc{v}_w2"][:, :J])
        for name in (f"enc{v}_w0", f"enc{v}_b0", f"enc{v}_w1", f"enc{v}_b1"):
            assert not np.array_equal(model.params[name], before[name]), name
    for name in model.params.names():
        if name.startswith("dec"):
            assert np.array_equal(model.params[name], before[name]), name


def test_a_greedy_stage_writes_the_next_input_in_place():
    # the product, the bias and the ReLU are written into one (n, width)
    # array, where `maximum(x @ w + b, 0)` held more than one at a time
    n, width = 4000, 256
    mat = np.random.default_rng(0).standard_normal((n, 3))
    from mvclust.data import MultiViewDataset

    dataset = normalize(MultiViewDataset("wide", ["a"], [mat]), "gaussian")
    config = small_config(pretrain_epochs=0, finetune_epochs=0, encoder_hidden=(width,), decoder_hidden=(4,))
    mcfg = ModelConfig(dataset.dims, 2, 3, "gaussian", (width,), (4,))
    model = Model.initialize(mcfg, seed=0, dtype=TRAIN_DTYPE)
    tracemalloc.start()
    try:
        pretrain_autoencoders(model, dataset, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stage_input = n * width * np.dtype(TRAIN_DTYPE).itemsize
    assert stage_input < peak < 1.5 * stage_input


def test_pretrain_losses_trend_down():
    dataset = normalize(small_dataset(), "gaussian")
    config = small_config(pretrain_epochs=8, finetune_epochs=8, learning_rate=5e-3)
    mcfg = ModelConfig(dataset.dims, 2, 3, "gaussian", (8, 6), (6, 8))
    model = Model.initialize(mcfg, seed=0)
    histories = pretrain_autoencoders(model, dataset, config)
    for view_hist in histories.values():
        for stage_losses in view_hist["greedy"]:
            assert stage_losses[-1] < stage_losses[0]
        assert view_hist["finetune"][-1] < view_hist["finetune"][0]


def test_pretrain_recovers_low_rank_view():
    # a noiseless rank-2 view is reconstructible with J=2: after
    # fine-tuning the residual should be well under 10% of the variance
    rng = np.random.default_rng(5)
    z = rng.standard_normal((300, 2))
    mat = z @ rng.standard_normal((2, 6))
    from mvclust.data import MultiViewDataset

    dataset = normalize(MultiViewDataset("rank2", ["a"], [mat]), "gaussian")
    config = TrainConfig(
        n_clusters=2, latent_dim=2, learning_rate=3e-3,
        pretrain_epochs=40, finetune_epochs=120, batch_size=64, seed=1,
        encoder_hidden=(16, 8), decoder_hidden=(8, 16), epochs=0, eval_every=0,
    )
    mcfg = ModelConfig(dataset.dims, 2, 2, "gaussian", (16, 8), (8, 16))
    model = Model.initialize(mcfg, seed=1)
    pretrain_autoencoders(model, dataset, config)

    from mvclust import decode, fused_posterior

    (recon,) = decode(model, fused_posterior(model, dataset.matrices).mean)
    x = dataset.matrices[0]
    residual = ((x - recon) ** 2).mean()
    variance = ((x - x.mean(axis=0)) ** 2).mean()
    assert residual < 0.1 * variance


# -- init_gmm ---------------------------------------------------------------------


def test_init_gmm_on_identical_samples_hits_variance_floor():
    from mvclust.data import MultiViewDataset

    mat = np.tile([0.3, -0.2, 0.5], (20, 1))
    dataset = MultiViewDataset("const", ["a"], [mat])
    mcfg = ModelConfig((3,), 2, 2, "gaussian", (4,), (4,))
    model = Model.initialize(mcfg, seed=0)
    init_gmm(model, dataset, seed=0)
    _, means, variances = mixture_moments(model.params)
    assert np.allclose(means[0], means[1])
    assert np.all(variances == pytest.approx(1e-4))


def test_init_gmm_uniform_mixture_and_fusion():
    dataset = normalize(small_dataset(), "gaussian")
    mcfg = ModelConfig(dataset.dims, 2, 3, "gaussian", (8, 6), (6, 8))
    model = Model.initialize(mcfg, seed=2)
    init_gmm(model, dataset, seed=2)
    assert mixture_moments(model.params)[0] == pytest.approx(np.full(3, 1 / 3))
    assert softmax(model.params["fusion_logits"]) == pytest.approx(np.full(2, 0.5))


def test_init_gmm_recovers_separated_embedding_centroids():
    # pretrained encoders on well-separated clusters give a well-separated
    # embedding, so the k-means centroids land on the per-class means
    dataset = normalize(small_dataset(seed=4, n=300, separation=15.0), "gaussian")
    config = small_config(pretrain_epochs=5, finetune_epochs=10, learning_rate=3e-3, seed=4)
    mcfg = ModelConfig(dataset.dims, 2, 3, "gaussian", (8, 6), (6, 8))
    model = Model.initialize(mcfg, seed=4)
    pretrain_autoencoders(model, dataset, config)
    init_gmm(model, dataset, seed=4)

    from mvclust import fused_posterior

    emb = fused_posterior(model, dataset.matrices).mean
    for c in range(3):
        truth = emb[dataset.labels == c].mean(axis=0)
        best = min(np.linalg.norm(model.params["gmm_means"][k] - truth) for k in range(3))
        assert best < 0.1


def test_evaluate_scores_the_matrices_it_is_given():
    raw = small_dataset()
    normalized = normalize(raw, "gaussian")
    model = Model.initialize(ModelConfig(raw.dims, 2, 3, "gaussian", (8, 6), (6, 8)), seed=2)
    model.normalization = normalized.normalization
    init_gmm(model, normalized, seed=2)
    scores = evaluate(model, normalized.matrices, raw.labels)
    assert scores == metrics_mod.scores(assign_clusters(model, normalized.matrices), raw.labels)
    assert evaluate(model, model_inputs(model, raw), raw.labels) == scores
    # no record is applied: the raw matrices as they are give other labels
    assert evaluate(model, raw.matrices, raw.labels) != scores


# -- train ------------------------------------------------------------------------


def test_train_zero_epochs_equals_initialization():
    dataset = small_dataset()
    config = small_config(epochs=0)
    result = train(dataset, config)

    data = normalize(dataset, "gaussian")
    mcfg = ModelConfig(data.dims, 2, 3, "gaussian", (8, 6), (6, 8))
    expected = Model.initialize(mcfg, config.seed, dtype=TRAIN_DTYPE)  # as train() builds it
    pretrain_autoencoders(expected, data, config)
    init_gmm(expected, data, config.seed)
    assert result.elbo_history == []
    for name in expected.params.names():
        assert np.array_equal(result.model.params[name], expected.params[name])


def test_train_seed_determinism():
    dataset = small_dataset()
    a = train(dataset, small_config(seed=5))
    b = train(dataset, small_config(seed=5))
    assert a.elbo_history == b.elbo_history
    for name in a.model.params.names():
        assert np.array_equal(a.model.params[name], b.model.params[name])


def test_train_rejects_an_already_normalized_dataset():
    with pytest.raises(ValueError, match="dataset 'synthetic' is already normalized"):
        train(normalize(small_dataset(), "gaussian"), small_config())


def test_train_rejects_a_dataset_normalized_for_the_other_likelihood():
    with pytest.raises(ValueError, match="dataset 'synthetic' is already normalized"):
        train(normalize(small_dataset(), "bernoulli"), small_config())


def test_train_rejects_more_clusters_than_rows_before_pretraining(monkeypatch):
    import mvclust.training

    def refuse(*args, **kwargs):
        raise AssertionError("pretraining must not run")

    monkeypatch.setattr(mvclust.training, "pretrain_autoencoders", refuse)
    with pytest.raises(ValueError, match="n_clusters 50 exceeds the 40 rows of dataset 'synthetic'"):
        train(small_dataset(n=40), small_config(n_clusters=50))


def test_train_different_seeds_differ():
    dataset = small_dataset()
    a = train(dataset, small_config(seed=5, epochs=1))
    b = train(dataset, small_config(seed=6, epochs=1))
    assert a.elbo_history != b.elbo_history


def test_train_elbo_improves_on_separated_synthetic_data():
    dataset = small_dataset(n=150)
    config = small_config(epochs=12, pretrain_epochs=3, finetune_epochs=3)
    result = train(dataset, config)
    assert result.elbo_history[-1] > result.elbo_history[0]


def test_train_bernoulli_end_to_end_recovers_clusters():
    # at the protocol's default learning rate the mixture structure set up
    # by pretraining + k-means survives joint training; larger rates trade
    # cluster separation for reconstruction on data this small
    dataset = small_dataset(seed=2, n=240, separation=8.0)
    dataset.likelihood = "bernoulli"  # force min-max normalization + Bernoulli decoders
    config = small_config(epochs=15, pretrain_epochs=4, finetune_epochs=6, learning_rate=1e-4, eval_every=15)
    result = train(dataset, config)
    assert result.model.config.likelihood == "bernoulli"
    assert result.final_metrics["acc"] >= 0.9
    assert result.elbo_history[-1] > result.elbo_history[0]


def test_train_with_two_monte_carlo_samples():
    dataset = small_dataset(n=60)
    config = small_config(epochs=2, mc_samples=2)
    result = train(dataset, config)
    assert len(result.elbo_history) == 2
    assert all(np.isfinite(v) for v in result.elbo_history)


def test_train_writes_history_csv(tmp_path):
    dataset = small_dataset()
    config = small_config(epochs=2, eval_every=1)
    train(dataset, config, out_dir=tmp_path)
    lines = (tmp_path / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,learning_rate,elbo,acc,nmi,ari,purity"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"
    assert all(len(row.split(",")) == 7 for row in lines[1:])


def test_checkpoint_resume_reproduces_uninterrupted_run(tmp_path):
    dataset = small_dataset()
    full = train(dataset, small_config(epochs=4, seed=7))

    part_dir = tmp_path / "run"
    train(dataset, small_config(epochs=2, seed=7, checkpoint_every=2), out_dir=part_dir)
    ckpt = part_dir / "checkpoint-0002"
    model, epoch_next, history, _ = load_checkpoint(ckpt)
    assert epoch_next == 2
    resumed = train(dataset, small_config(epochs=4, seed=7), resume_from=ckpt)

    assert resumed.elbo_history == full.elbo_history
    for name in full.model.params.names():
        assert np.array_equal(resumed.model.params[name], full.model.params[name])


def test_resumed_run_leaves_the_history_csv_of_the_uninterrupted_run(tmp_path):
    dataset = small_dataset()
    config = small_config(epochs=4, seed=7, eval_every=1, checkpoint_every=2)
    run = tmp_path / "run"
    train(dataset, config, out_dir=run)
    uninterrupted = (run / "history.csv").read_bytes()
    assert len(uninterrupted.splitlines()) == 5
    # into its own directory, where epochs 2 and 3 are already logged
    train(dataset, config, out_dir=run, resume_from=run / "checkpoint-0002")
    assert (run / "history.csv").read_bytes() == uninterrupted
    # and into a fresh one, which gets the whole record
    train(dataset, config, out_dir=tmp_path / "fresh", resume_from=run / "checkpoint-0002")
    assert (tmp_path / "fresh" / "history.csv").read_bytes() == uninterrupted


def test_save_checkpoint_writes_parameters_once(tmp_path, monkeypatch):
    model = Model.initialize(tiny_config("gaussian"), 0)
    model.params.step = 3
    calls = []
    original = ParamStore.save

    def counted(self, path, include_moments=True):
        calls.append(include_moments)
        original(self, path, include_moments=include_moments)

    monkeypatch.setattr(ParamStore, "save", counted)
    save_checkpoint(tmp_path / "ckpt", model, 1, [-1.0], [])
    assert calls == [True]
    loaded, epoch_next, history, _ = load_checkpoint(tmp_path / "ckpt")
    assert (epoch_next, history, loaded.params.step) == (1, [-1.0], 3)


def test_save_checkpoint_refuses_a_state_load_checkpoint_would_reject(tmp_path):
    model = Model.initialize(tiny_config("gaussian"), 0)
    with pytest.raises(ValueError, match="epoch_next must be 1, the length of elbo_history, got 5"):
        save_checkpoint(tmp_path / "ckpt", model, 5, [-1.0], [])
    assert not (tmp_path / "ckpt").exists()


def test_checkpoint_mismatch_rejected(tmp_path):
    dataset = small_dataset()
    part_dir = tmp_path / "run"
    train(dataset, small_config(epochs=2, checkpoint_every=2), out_dir=part_dir)
    other = synth_generate(3, 2, 50, 2, separation=3.0, view_dims=(6, 4), seed=1)
    with pytest.raises(ValueError, match="checkpoint"):
        train(other, small_config(epochs=3), resume_from=part_dir / "checkpoint-0002")


@pytest.fixture(scope="module")
def gaussian_checkpoint(tmp_path_factory):
    part_dir = tmp_path_factory.mktemp("resume") / "run"
    train(small_dataset(), small_config(epochs=2, checkpoint_every=2), out_dir=part_dir)
    return part_dir / "checkpoint-0002"


@pytest.mark.parametrize(
    "field, overrides, dataset",
    [
        ("view_dims", {}, lambda: synth_generate(3, 2, 50, 2, separation=3.0, view_dims=(6, 4), seed=1)),
        ("latent_dim", {"latent_dim": 3}, small_dataset),
        ("n_clusters", {"n_clusters": 4}, small_dataset),
        ("likelihood", {}, small_bernoulli_dataset),
        ("encoder_hidden", {"encoder_hidden": (8, 7)}, small_dataset),
        ("decoder_hidden", {"decoder_hidden": (6, 9)}, small_dataset),
    ],
)
def test_resume_rejects_a_different_model_by_field_name(gaussian_checkpoint, field, overrides, dataset):
    with pytest.raises(ValueError, match=rf"checkpoint .* has {field}=.*config and dataset give {field}="):
        train(dataset(), small_config(epochs=3, **overrides), resume_from=gaussian_checkpoint)


def test_resume_rejects_a_checkpoint_past_the_configured_epochs(gaussian_checkpoint):
    with pytest.raises(ValueError, match=r"checkpoint .*checkpoint-0002 has epoch_next=2, past epochs=1"):
        train(small_dataset(), small_config(epochs=1), resume_from=gaussian_checkpoint)


def test_resume_rejects_other_data_of_the_same_shape(gaussian_checkpoint):
    other = small_dataset(seed=1)
    assert other.dims == small_dataset().dims
    with pytest.raises(ValueError, match=r"checkpoint .* gaussian normalization differs from the dataset's in view 0"):
        train(other, small_config(epochs=3), resume_from=gaussian_checkpoint)


def test_train_runs_in_float32_and_resumes_in_float32(gaussian_checkpoint):
    fresh = train(small_dataset(), small_config(epochs=2))
    assert fresh.model.params.dtype == np.float32 == TRAIN_DTYPE
    model, *_ = load_checkpoint(gaussian_checkpoint)
    assert model.params.dtype == np.float64  # archives load as float64 for inference
    resumed = train(small_dataset(), small_config(epochs=3), resume_from=gaussian_checkpoint)
    assert resumed.model.params.dtype == np.float32
    assert resumed.model.params.step == model.params.step + 3  # one epoch of 90 rows in batches of 32


@pytest.mark.parametrize("artifact", ["descriptor.json", "params.bin", "state.json"])
def test_failed_checkpoint_write_leaves_the_previous_file(tmp_path, monkeypatch, artifact):
    model = Model.initialize(tiny_config("gaussian"), 0)
    save_checkpoint(tmp_path, model, 1, [-1.0], [])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_replace = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == artifact:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    model.params.set_value("mix_logits", np.ones(3))
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path, model, 2, [-1.0, -0.5], [])
    assert (tmp_path / artifact).read_bytes() == before[artifact]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)


def test_train_requires_some_likelihood():
    dataset = small_dataset()
    dataset.likelihood = None
    with pytest.raises(ValueError, match="likelihood"):
        train(dataset, small_config(epochs=1))


def test_divergent_training_aborts_with_diagnostics():
    dataset = small_dataset()
    config = small_config(epochs=3, learning_rate=1e30, pretrain_epochs=0, finetune_epochs=0)
    with pytest.raises(NumericError, match="parameter norms"):
        train(dataset, config)


@pytest.mark.parametrize(
    "epochs, where",
    [
        ((1, 0, 0), "pretrain view 0 stage 0 epoch 0 batch 1"),
        ((0, 1, 0), "finetune view 0 epoch 0 batch 1"),
        ((0, 0, 1), "epoch 0 batch 1"),
    ],
)
def test_divergence_in_any_phase_names_where_it_happened(epochs, where):
    pretrain, finetune, elbo = epochs
    config = small_config(pretrain_epochs=pretrain, finetune_epochs=finetune, epochs=elbo, learning_rate=1e30)
    with pytest.raises(NumericError, match=rf"^{where}: non-finite .*; parameter norms: "):
        train(small_dataset(), config)


def test_simplex_preserved_after_many_adam_steps():
    rng = np.random.default_rng(13)
    from mvclust import ParamStore

    store = ParamStore([("fusion_logits", np.zeros(4)), ("mix_logits", np.zeros(6))])
    for _ in range(1000):
        store.grad("fusion_logits")[...] = rng.standard_normal(4)
        store.grad("mix_logits")[...] = rng.standard_normal(6)
        store.adam_step(0.05)
    for name, size in (("fusion_logits", 4), ("mix_logits", 6)):
        w = softmax(store[name])
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(np.isfinite(store[name]))
