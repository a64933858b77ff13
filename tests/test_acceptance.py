"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines (they are captured otherwise).
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mvclust import (
    Model,
    ModelConfig,
    ParamStore,
    TrainConfig,
    accuracy,
    ari,
    elbo_terms,
    fused_posterior,
    hungarian,
    load_dataset,
    nmi,
    purity,
    responsibilities,
    synth_generate,
    train,
)
from mvclust.training import _lloyd, load_checkpoint, save_checkpoint

from helpers import (
    brute_force_accuracy,
    fd_gradient_errors,
    gamma_direct,
    mixture_moments,
    random_views,
    randomized_model,
    softmax,
    tiny_config,
)


def _report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): PASS{suffix}")


def test_criterion_1_gradient_oracle():
    started = time.time()
    worst_overall = 0.0
    for kind, seed in (("bernoulli", 3), ("gaussian", 4)):
        config = tiny_config(kind)  # m=2, d=(4,5), J=2, K=3
        model = randomized_model(config, seed=seed)
        views = random_views(config, 7, seed=seed + 50)
        eps = np.random.default_rng(seed + 90).standard_normal((1, 7, 2))
        inputs = {f"x{v}": views[v] for v in range(2)}
        inputs["eps0"] = eps[0]
        worst, worst_at = fd_gradient_errors(model.elbo_graph(1), inputs, model.params, h=1e-5)
        assert worst < 1e-4, (kind, worst_at)
        worst_overall = max(worst_overall, worst)
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(1, "gradient oracle", f"worst rel err {worst_overall:.2e}, {elapsed:.1f}s")


def test_criterion_2_elbo_term_quadrature():
    config = ModelConfig(
        view_dims=(3,), latent_dim=1, n_clusters=2, likelihood="bernoulli",
        encoder_hidden=(4,), decoder_hidden=(4,),
    )
    model = Model.initialize(config, seed=0)
    for name in model.params.names():
        model.params.set_value(name, np.zeros_like(model.params[name]))
    rng = np.random.default_rng(23)
    model.params.set_value("enc0_w0", 0.5 * rng.standard_normal((3, 4)))
    model.params.set_value("enc0_b0", 0.1 * rng.standard_normal(4))
    head = np.zeros((4, 2))
    head[:, 0] = 0.4 * rng.standard_normal(4)  # log-variance column stays 0 (var 1)
    model.params.set_value("enc0_w1", head)
    model.params.set_value("gmm_means", [[-1.2], [1.4]])
    model.params.set_value("gmm_logvars", [[0.25], [-0.4]])
    model.params.set_value("mix_logits", [0.4, -0.2])

    x = rng.uniform(0.1, 0.9, (1, 3))
    eps_value = 0.41
    terms = elbo_terms(model, [x], np.array([[[eps_value]]]))
    implementation = float((terms["gauss_kl"] + terms["cat_kl"] + terms["entropy"])[0])

    post = fused_posterior(model, [x])  # one view: its weight is exactly 1.0
    mu_t = float(post.mean[0, 0])
    var_t = float(post.var[0, 0])
    z = mu_t + math.sqrt(var_t) * eps_value
    weights, means, variances = mixture_moments(model.params)
    gamma = gamma_direct(np.array([z]), weights, means, variances)

    grid = np.linspace(-10.0, 10.0, 400_001)
    q = np.exp(-0.5 * (grid - mu_t) ** 2 / var_t) / np.sqrt(2 * np.pi * var_t)
    weighted_log_prior = np.zeros_like(grid)
    for c in range(2):
        log_n = (
            -0.5 * math.log(2 * np.pi * variances[c, 0])
            - 0.5 * (grid - means[c, 0]) ** 2 / variances[c, 0]
        )
        weighted_log_prior += gamma[c] * log_n
    expected = np.trapezoid(q * weighted_log_prior, grid)
    expected += float(np.sum(gamma * np.log(weights / gamma)))
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(q > 0, q * np.log(q), 0.0)
    expected -= np.trapezoid(integrand, grid)

    gap = abs(implementation - expected)
    assert gap < 1e-6
    _report(2, "ELBO term oracle", f"quadrature gap {gap:.2e}")


def test_criterion_3_responsibility_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        j = int(rng.integers(1, 5))
        weights = softmax(rng.standard_normal(k))
        means = rng.uniform(-3.0, 3.0, (k, j))
        variances = rng.uniform(0.1, 3.0, (k, j))
        z = rng.normal(0.0, 2.0, j)
        mixture = {"mix_logits": np.log(weights), "gmm_means": means, "gmm_logvars": np.log(variances)}
        got = responsibilities(z[None, :], mixture)[0]
        want = gamma_direct(z, weights, means, variances)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-12
    _report(3, "responsibility oracle", f"worst abs diff {worst:.2e} over 1000 instances")


def test_criterion_4_metrics_oracles():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        pred = rng.integers(0, int(rng.integers(1, 7)), size=n)
        true = rng.integers(0, int(rng.integers(1, 7)), size=n)
        assert accuracy(pred, true) == brute_force_accuracy(pred, true)

    for trial in range(120):
        cost = rng.integers(-30, 30, size=(5, 5)).astype(float)
        if trial % 2:
            cost += rng.standard_normal((5, 5))
        _, total = hungarian(cost)
        best = min(
            sum(cost[i, perm[i]] for i in range(5))
            for perm in itertools.permutations(range(5))
        )
        assert total == pytest.approx(best, abs=1e-9)

    assert nmi([0, 0, 1, 1, 2], [2, 2, 0, 0, 1]) == 1.0
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)
    assert nmi([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(0.8, abs=1e-12)
    assert ari([0, 0, 1, 1, 2], [1, 1, 2, 2, 0]) == 1.0
    assert ari([0] * 6, [0, 0, 0, 1, 1, 1]) == pytest.approx(0.0, abs=1e-12)
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5, abs=1e-12)
    assert purity([0, 1, 1, 2], [3, 5, 5, 7]) == 1.0
    assert purity([0] * 9, [0, 0, 0, 1, 1, 1, 2, 2, 2]) == pytest.approx(1.0 / 3.0)
    # majority counts per predicted cluster: (1 + 2) / 5
    assert purity([0, 0, 1, 1, 1], [0, 1, 1, 1, 2]) == pytest.approx(0.6)
    _report(4, "metrics oracles", "200 accuracy + 120 hungarian instances exact")


def test_criterion_5_synthetic_end_to_end():
    started = time.time()
    dataset = synth_generate(
        3, 2, 1500, 4, separation=5.0, view_dims=(20, 25), seed=42, noise=0.3,
        likelihood="gaussian",
    )
    config = TrainConfig(n_clusters=3, seed=0)  # everything else at defaults
    result = train(dataset, config)
    elapsed = time.time() - started

    scores = result.final_metrics
    history = result.elbo_history
    last10 = float(np.mean(history[-10:]))
    assert scores is not None
    assert scores["acc"] >= 0.95
    assert scores["nmi"] >= 0.90
    assert last10 > history[0]
    assert elapsed < 300.0
    _report(
        5,
        "synthetic end-to-end",
        f"acc {scores['acc']:.4f}, nmi {scores['nmi']:.4f}, "
        f"elbo {history[0]:.2f} -> {last10:.2f}, {elapsed:.0f}s",
    )


UCI_REFERENCE = {"acc": 0.9570, "nmi": 0.9166, "ari": 0.9107}  # published reference scores


def _uci_manifest():
    env = os.environ.get("MVCLUST_UCI_DIGITS")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "uci_digits")
    for base in candidates:
        manifest = base / "manifest.json" if base.is_dir() else base
        if manifest.exists():
            return manifest
    return None


def test_criterion_6_uci_digits_regression():
    manifest = _uci_manifest()
    if manifest is None:
        pytest.skip(
            "UCI digits feature files not present; run scripts/prepare_uci_digits.py "
            "and set MVCLUST_UCI_DIGITS (or place the dataset under data/uci_digits/)"
        )
    started = time.time()
    dataset = load_dataset(manifest)
    assert dataset.n == 2000
    assert dataset.dims == (240, 76, 216, 47, 64, 6)

    per_seed = []
    for seed in (0, 1, 2):
        config = TrainConfig(n_clusters=10, seed=seed, eval_every=25)
        result = train(dataset, config)
        per_seed.append(result.final_metrics)
    mean_scores = {k: float(np.mean([s[k] for s in per_seed])) for k in ("acc", "nmi", "ari")}
    elapsed = time.time() - started

    for key, reference in UCI_REFERENCE.items():
        print(
            f"[acceptance] uci-digits {key}: {mean_scores[key]:.4f} over 3 seeds, "
            f"reference {reference:.4f}, gap {reference - mean_scores[key]:+.4f}"
        )
    assert mean_scores["acc"] >= 0.85
    assert elapsed < 1800.0
    _report(6, "uci-digits regression", f"mean acc {mean_scores['acc']:.4f}, {elapsed:.0f}s")


def test_criterion_7_invariant_suites():
    # simplex preservation through 1000 Adam steps on free logits
    rng = np.random.default_rng(5)
    store = ParamStore([("fusion_logits", np.zeros(5)), ("mix_logits", np.zeros(7))])
    for _ in range(1000):
        store.grad("fusion_logits")[...] = rng.standard_normal(5)
        store.grad("mix_logits")[...] = rng.standard_normal(7)
        store.adam_step(0.05)
    for name in ("fusion_logits", "mix_logits"):
        w = softmax(store[name])
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) < 1e-12

    # responsibilities always normalize within 1e-10
    for _ in range(200):
        k = int(rng.integers(1, 8))
        j = int(rng.integers(1, 5))
        mixture = {
            "mix_logits": np.log(softmax(rng.standard_normal(k))),
            "gmm_means": rng.uniform(-4.0, 4.0, (k, j)),
            "gmm_logvars": np.log(rng.uniform(0.05, 4.0, (k, j))),
        }
        gamma = responsibilities(rng.normal(0.0, 3.0, (9, j)), mixture)
        assert np.abs(gamma.sum(axis=1) - 1.0).max() < 1e-10

    # seed determinism of full training runs
    dataset = synth_generate(3, 2, 120, 2, separation=6.0, view_dims=(5, 4), seed=8, noise=0.2)
    config = TrainConfig(
        n_clusters=3, latent_dim=2, learning_rate=1e-3,
        epochs=3, batch_size=32, pretrain_epochs=2, finetune_epochs=2, seed=3,
        encoder_hidden=(8, 6), decoder_hidden=(6, 8), eval_every=0,
    )
    first = train(dataset, config)
    second = train(dataset, config)
    assert first.elbo_history == second.elbo_history

    # checkpoint round-trip is bit-identical
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt"
        save_checkpoint(ckpt, first.model, 3, first.elbo_history, [])
        model, epoch_next, history, _ = load_checkpoint(ckpt)
        assert epoch_next == 3 and history == first.elbo_history
        for name in first.model.params.names():
            assert np.array_equal(model.params[name], first.model.params[name])
        again = Path(tmp) / "again.bin"
        model.params.save(again, include_moments=True)
        assert again.read_bytes() == (ckpt / "params.bin").read_bytes()

    # k-means objective never increases within a restart
    for trial in range(20):
        points = rng.standard_normal((80, 3))
        init = points[rng.choice(80, size=4, replace=False)].copy()
        _, trace = _lloyd(points, init, max_iter=100)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    _report(7, "invariant suites", "simplex, gamma sums, determinism, checkpoints, k-means")
