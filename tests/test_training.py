"""Training protocol: config, k-means, GMM init, pretraining, joint loop."""

import itertools
import json
import os

import numpy as np
import pytest

from mvclust import (
    Model,
    ModelConfig,
    NumericError,
    ParamStore,
    TrainConfig,
    init_gmm,
    kmeans,
    normalize,
    pretrain_autoencoders,
    synth_generate,
    train,
)
from mvclust.model import softmax
from mvclust.training import TRAIN_DTYPE, _lloyd, load_checkpoint, save_checkpoint

from helpers import tiny_config


def small_config(**overrides):
    base = dict(
        n_clusters=3,
        latent_dim=2,
        likelihood="gaussian",
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


# -- TrainConfig ------------------------------------------------------------


def test_config_defaults_match_protocol():
    config = TrainConfig(n_clusters=10)
    assert config.latent_dim == 10
    assert config.learning_rate == pytest.approx(1e-4)
    assert config.lr_decay == pytest.approx(0.9)
    assert config.decay_every == 10
    assert config.epochs == 100
    assert config.batch_size == 256
    assert config.pretrain_epochs == 10
    assert config.finetune_epochs == 20
    assert config.mc_samples == 1
    assert config.encoder_hidden == (500, 500, 200)
    assert config.decoder_hidden == (2000, 500, 500)


def test_config_validation():
    for kwargs in (
        {"n_clusters": 0},
        {"n_clusters": 2, "learning_rate": 0.0},
        {"n_clusters": 2, "lr_decay": 0.0},
        {"n_clusters": 2, "lr_decay": 1.5},
        {"n_clusters": 2, "batch_size": 0},
        {"n_clusters": 2, "epochs": -1},
        {"n_clusters": 2, "seed": -3},
        {"n_clusters": 2, "mc_samples": 0},
    ):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


def test_config_file_roundtrip(tmp_path):
    config = small_config(seed=11)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
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
    result = kmeans(points, 1, seed=0, n_restarts=3)
    assert result.centroids[0] == pytest.approx(points.mean(axis=0), abs=1e-12)
    assert np.all(result.labels == 0)


def test_kmeans_two_point_masses():
    points = np.array([[0.0], [0.0], [0.0], [10.0], [10.0]])
    result = kmeans(points, 2, seed=1, n_restarts=5)
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


# -- pretraining -----------------------------------------------------------------


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
        n_clusters=2, latent_dim=2, likelihood="gaussian", learning_rate=3e-3,
        pretrain_epochs=40, finetune_epochs=120, batch_size=64, seed=1,
        encoder_hidden=(16, 8), decoder_hidden=(8, 16), epochs=0, eval_every=0,
    )
    mcfg = ModelConfig(dataset.dims, 2, 2, "gaussian", (16, 8), (8, 16))
    model = Model.initialize(mcfg, seed=1)
    pretrain_autoencoders(model, dataset, config)

    from mvclust import decode_gaussian, encode_view

    mu, _ = encode_view(model, 0, dataset.matrices[0])
    recon = decode_gaussian(model, 0, mu)[0]
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
    prior = model.prior()
    assert np.allclose(prior.means[0], prior.means[1])
    assert np.all(prior.variances == pytest.approx(1e-4))


def test_init_gmm_uniform_mixture_and_fusion():
    dataset = normalize(small_dataset(), "gaussian")
    mcfg = ModelConfig(dataset.dims, 2, 3, "gaussian", (8, 6), (6, 8))
    model = Model.initialize(mcfg, seed=2)
    init_gmm(model, dataset, seed=2)
    assert model.prior().weights == pytest.approx(np.full(3, 1 / 3))
    assert model.fusion_weights().weights == pytest.approx(np.full(2, 0.5))


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
    prior = model.prior()
    for c in range(3):
        truth = emb[dataset.labels == c].mean(axis=0)
        best = min(np.linalg.norm(prior.means[k] - truth) for k in range(3))
        assert best < 0.1


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
    config = small_config(
        likelihood="bernoulli", epochs=15, pretrain_epochs=4, finetune_epochs=6,
        learning_rate=1e-4, eval_every=15,
    )
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
        ("likelihood", {"likelihood": "bernoulli"}, small_dataset),
        ("encoder_hidden", {"encoder_hidden": (8, 7)}, small_dataset),
        ("decoder_hidden", {"decoder_hidden": (6, 9)}, small_dataset),
    ],
)
def test_resume_rejects_a_different_model_by_field_name(gaussian_checkpoint, field, overrides, dataset):
    with pytest.raises(ValueError, match=rf"checkpoint .* has {field}=.*config and dataset give {field}="):
        train(dataset(), small_config(epochs=3, **overrides), resume_from=gaussian_checkpoint)


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
        train(dataset, small_config(likelihood=None, epochs=1))


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
        store.zero_grads()
        store.accumulate_grad("fusion_logits", rng.standard_normal(4))
        store.accumulate_grad("mix_logits", rng.standard_normal(6))
        store.adam_step(0.05)
    for name, size in (("fusion_logits", 4), ("mix_logits", 6)):
        w = softmax(store[name])
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(np.isfinite(store[name]))
