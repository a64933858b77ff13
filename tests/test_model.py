"""Model operations: encoding, fusion, sampling, decoding, responsibilities,
assignment, both ELBO objectives, generation."""

import math

import numpy as np
import pytest

from mvclust import (
    FusionWeights,
    GmmPrior,
    LatentPosterior,
    Model,
    ModelConfig,
    ParamStore,
    assign_clusters,
    backward,
    decode_bernoulli,
    decode_gaussian,
    elbo_bernoulli,
    elbo_gaussian,
    elbo_terms,
    encode_view,
    forward,
    fuse_posteriors,
    fused_posterior,
    generate,
    responsibilities,
    sample_latent,
)
from mvclust.model import BERNOULLI_EPS, LOG_2PI, LOGVAR_MAX, LOGVAR_MIN, softmax

from helpers import gamma_direct, random_views, randomized_model, tiny_config


def zero_model(config):
    model = Model.initialize(config, seed=0)
    for name in model.params.names():
        model.params.set_value(name, np.zeros_like(model.params[name]))
    return model


# -- encode_view ----------------------------------------------------------------


def test_encode_zero_network():
    model = zero_model(tiny_config("bernoulli"))
    mu, logvar = encode_view(model, 0, np.random.default_rng(0).uniform(0, 1, (3, 4)))
    assert np.all(mu == 0.0)
    assert np.all(logvar == 0.0)  # variance 1


def test_encode_hand_set_toy():
    config = ModelConfig(
        view_dims=(2,), latent_dim=1, n_clusters=1, likelihood="bernoulli",
        encoder_hidden=(1,), decoder_hidden=(1,),
    )
    model = zero_model(config)
    model.params.set_value("enc0_w0", [[0.5], [-1.0]])
    model.params.set_value("enc0_b0", [0.2])
    model.params.set_value("enc0_w1", [[2.0, -3.0]])
    model.params.set_value("enc0_b1", [0.05, 0.1])
    mu, logvar = encode_view(model, 0, [1.0, 0.6])
    # relu(0.5 - 0.6 + 0.2) = 0.1; head: mu = 0.25, logvar = -0.2
    assert mu.reshape(-1) == pytest.approx([0.25], abs=1e-12)
    assert logvar.reshape(-1) == pytest.approx([-0.2], abs=1e-12)


def test_encode_duplicate_rows_identical():
    model = randomized_model(tiny_config("gaussian"), seed=5)
    x = np.random.default_rng(1).standard_normal(5)
    mu, logvar = encode_view(model, 1, np.stack([x, x]))
    assert np.array_equal(mu[0], mu[1])
    assert np.array_equal(logvar[0], logvar[1])


def test_encode_dimension_mismatch():
    model = zero_model(tiny_config("bernoulli"))
    with pytest.raises(ValueError):
        encode_view(model, 0, np.zeros((2, 5)))  # view 0 expects d=4


# -- fuse_posteriors --------------------------------------------------------------


def test_fuse_single_view_is_identity():
    mu = np.array([[1.0, 2.0]])
    var = np.array([[0.5, 3.0]])
    post = fuse_posteriors([(mu, var)], FusionWeights(np.zeros(1)))
    assert np.array_equal(post.mean, mu)
    assert np.array_equal(post.var, var)


def test_fuse_equal_weights_arithmetic():
    post = fuse_posteriors(
        [
            (np.array([[0.0, 2.0]]), np.array([[1.0, 1.0]])),
            (np.array([[2.0, 0.0]]), np.array([[3.0, 1.0]])),
        ],
        FusionWeights(np.zeros(2)),
    )
    assert post.mean.reshape(-1) == pytest.approx([1.0, 1.0])
    assert post.var.reshape(-1) == pytest.approx([2.0, 1.0])


def test_fuse_matches_scripted_convex_combination():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal(3)
    stats = [(rng.standard_normal((6, 4)), rng.uniform(0.1, 2.0, (6, 4))) for _ in range(3)]
    post = fuse_posteriors(stats, FusionWeights(logits))
    w = np.exp(logits - logits.max())
    w /= w.sum()
    mu = sum(w[v] * stats[v][0] for v in range(3))
    var = sum(w[v] * stats[v][1] for v in range(3))
    assert post.mean == pytest.approx(mu, abs=1e-12)
    assert post.var == pytest.approx(var, abs=1e-12)


def test_fuse_permuting_views_with_weights_is_invariant():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal(3)
    stats = [(rng.standard_normal((2, 3)), rng.uniform(0.1, 2.0, (2, 3))) for _ in range(3)]
    perm = [2, 0, 1]
    post = fuse_posteriors(stats, FusionWeights(logits))
    post_p = fuse_posteriors([stats[i] for i in perm], FusionWeights(logits[perm]))
    assert post_p.mean == pytest.approx(post.mean, abs=1e-12)
    assert post_p.var == pytest.approx(post.var, abs=1e-12)


@pytest.mark.parametrize("n_views", range(1, 7))
def test_fuse_equals_numpy_convex_combination_exactly(n_views):
    # init_gmm's k-means runs on these means, so fusion must not drift by an ulp
    rng = np.random.default_rng(40 + n_views)
    logits = 3.0 * rng.standard_normal(n_views)
    stats = [(rng.standard_normal((7, 4)), rng.uniform(0.1, 2.0, (7, 4))) for _ in range(n_views)]
    post = fuse_posteriors(stats, FusionWeights(logits))
    w = FusionWeights(logits).weights
    mu, var = w[0] * stats[0][0], w[0] * stats[0][1]
    for v in range(1, n_views):
        mu = mu + w[v] * stats[v][0]
        var = var + w[v] * stats[v][1]
    assert np.array_equal(post.mean, mu)
    assert np.array_equal(post.var, var)


def test_fuse_missing_view_and_bad_variance():
    stats = [(np.zeros((1, 2)), np.ones((1, 2)))]
    with pytest.raises(ValueError, match="views"):
        fuse_posteriors(stats, FusionWeights(np.zeros(2)))
    with pytest.raises(ValueError, match="positive"):
        fuse_posteriors([(np.zeros((1, 2)), np.zeros((1, 2)))], FusionWeights(np.zeros(1)))


def test_fusion_weights_always_on_simplex():
    rng = np.random.default_rng(10)
    for scale in (0.1, 10.0, 300.0):
        w = FusionWeights(scale * rng.standard_normal(5)).weights
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-12


# -- sample_latent ------------------------------------------------------------------


def test_sample_latent_zero_noise_returns_mean():
    post = LatentPosterior(np.array([[0.3, -1.0]]), np.array([[2.0, 0.5]]))
    assert np.array_equal(sample_latent(post, np.zeros((1, 2))), post.mean)


def test_sample_latent_standard_normal_passthrough():
    noise = np.random.default_rng(2).standard_normal((4, 3))
    post = LatentPosterior(np.zeros((4, 3)), np.ones((4, 3)))
    assert np.array_equal(sample_latent(post, noise), noise)


def test_sample_latent_monte_carlo_moments():
    n = 100_000
    mean = np.array([0.5, -1.0])
    var = np.array([2.0, 0.5])
    post = LatentPosterior(np.tile(mean, (n, 1)), np.tile(var, (n, 1)))
    z = sample_latent(post, np.random.default_rng(3).standard_normal((n, 2)))
    se_mean = np.sqrt(var / n)
    assert np.all(np.abs(z.mean(axis=0) - mean) < 3 * se_mean)
    se_var = var * np.sqrt(2.0 / n)
    assert np.all(np.abs(z.var(axis=0) - var) < 3 * se_var)


# -- decoders ------------------------------------------------------------------------


def test_decode_bernoulli_zero_network_is_half():
    model = zero_model(tiny_config("bernoulli"))
    out = decode_bernoulli(model, 0, np.zeros((2, 2)))
    assert np.all(out == 0.5)


def test_decode_bernoulli_hand_set_toy():
    config = ModelConfig(
        view_dims=(2,), latent_dim=1, n_clusters=1, likelihood="bernoulli",
        encoder_hidden=(1,), decoder_hidden=(1,),
    )
    model = zero_model(config)
    model.params.set_value("dec0_w0", [[0.8]])
    model.params.set_value("dec0_b0", [-0.05])
    model.params.set_value("dec0_w1", [[1.5, -2.0]])
    model.params.set_value("dec0_b1", [0.2, 0.3])
    out = decode_bernoulli(model, 0, [0.5])
    # relu(0.4 - 0.05) = 0.35; head = [0.725, -0.4]
    expected = [1 / (1 + math.exp(-0.725)), 1 / (1 + math.exp(0.4))]
    assert out.reshape(-1) == pytest.approx(expected, abs=1e-12)


def test_decode_bernoulli_clamps_saturated_head():
    config = ModelConfig(
        view_dims=(1,), latent_dim=1, n_clusters=1, likelihood="bernoulli",
        encoder_hidden=(1,), decoder_hidden=(1,),
    )
    model = zero_model(config)
    model.params.set_value("dec0_b1", [100.0])
    out = decode_bernoulli(model, 0, [0.0])
    assert out.reshape(-1)[0] == 1.0 - BERNOULLI_EPS


def test_decode_gaussian_zero_network():
    model = zero_model(tiny_config("gaussian"))
    mu, logvar = decode_gaussian(model, 1, np.zeros((3, 2)))
    assert np.all(mu == 0.0)
    assert np.all(logvar == 0.0)


def test_decode_gaussian_hand_set_toy():
    config = ModelConfig(
        view_dims=(1,), latent_dim=1, n_clusters=1, likelihood="gaussian",
        encoder_hidden=(1,), decoder_hidden=(1,),
    )
    model = zero_model(config)
    model.params.set_value("dec0_w0", [[2.0]])
    model.params.set_value("dec0_b0", [0.1])
    model.params.set_value("dec0_w1", [[0.5, -1.0]])
    model.params.set_value("dec0_b1", [-0.3, 0.2])
    mu, logvar = decode_gaussian(model, 0, [0.4])
    # relu(0.8 + 0.1) = 0.9; mean head 0.9*0.5 - 0.3 = 0.15; logvar -0.7
    assert mu.reshape(-1) == pytest.approx([0.15], abs=1e-12)
    assert logvar.reshape(-1) == pytest.approx([-0.7], abs=1e-12)


def test_decode_gaussian_logvar_clamped():
    config = ModelConfig(
        view_dims=(1,), latent_dim=1, n_clusters=1, likelihood="gaussian",
        encoder_hidden=(1,), decoder_hidden=(1,),
    )
    model = zero_model(config)
    model.params.set_value("dec0_b1", [0.0, 40.0])
    _, logvar = decode_gaussian(model, 0, [0.0])
    assert logvar.reshape(-1)[0] == LOGVAR_MAX
    model.params.set_value("dec0_b1", [0.0, -40.0])
    _, logvar = decode_gaussian(model, 0, [0.0])
    assert logvar.reshape(-1)[0] == LOGVAR_MIN


def test_decoder_kind_mismatch():
    model = zero_model(tiny_config("bernoulli"))
    with pytest.raises(ValueError):
        decode_gaussian(model, 0, np.zeros((1, 2)))
    model = zero_model(tiny_config("gaussian"))
    with pytest.raises(ValueError):
        decode_bernoulli(model, 0, np.zeros((1, 2)))


# -- responsibilities ------------------------------------------------------------------


def test_responsibilities_single_component():
    prior = GmmPrior(np.ones(1), np.zeros((1, 2)), np.ones((1, 2)))
    assert np.array_equal(responsibilities(np.zeros(2), prior), [1.0])


def test_responsibilities_symmetric_split():
    prior = GmmPrior(
        np.array([0.5, 0.5]), np.array([[1.0, -2.0], [-1.0, 2.0]]), np.ones((2, 2))
    )
    gamma = responsibilities(np.zeros(2), prior)
    assert gamma == pytest.approx([0.5, 0.5], abs=1e-14)


def test_responsibilities_density_ratio_instance():
    prior = GmmPrior(np.array([0.3, 0.7]), np.array([[0.0], [1.0]]), np.ones((2, 1)))
    gamma = responsibilities(np.array([0.5]), prior)
    d0 = 0.3 * math.exp(-0.125)
    d1 = 0.7 * math.exp(-0.125)
    assert gamma == pytest.approx([d0 / (d0 + d1), d1 / (d0 + d1)], abs=1e-14)


def test_responsibilities_sum_to_one():
    rng = np.random.default_rng(4)
    prior = GmmPrior(
        softmax(rng.standard_normal(5)),
        rng.uniform(-3, 3, (5, 3)),
        rng.uniform(0.1, 3.0, (5, 3)),
    )
    gamma = responsibilities(rng.standard_normal((50, 3)), prior)
    assert np.abs(gamma.sum(axis=1) - 1.0).max() < 1e-10
    assert np.all(gamma >= 0.0)


def test_mix_logit_shift_leaves_gamma_and_elbo_unchanged():
    model = randomized_model(tiny_config("bernoulli"), seed=6)
    views = random_views(model.config, 5, seed=7)
    eps = np.random.default_rng(8).standard_normal((1, 5, 2))
    base_gamma = responsibilities(np.zeros((3, 2)), model.prior())
    base_elbo = elbo_bernoulli(model, views, eps)
    model.params.set_value("mix_logits", model.params["mix_logits"] + 7.5)
    assert responsibilities(np.zeros((3, 2)), model.prior()) == pytest.approx(base_gamma, abs=1e-12)
    assert elbo_bernoulli(model, views, eps) == pytest.approx(base_elbo, abs=1e-10)


# -- assign_clusters --------------------------------------------------------------------


def test_assign_single_cluster_all_zero():
    config = tiny_config("bernoulli", n_clusters=1)
    model = randomized_model(config, seed=9)
    labels = assign_clusters(model, random_views(config, 6, seed=10))
    assert np.array_equal(labels, np.zeros(6, dtype=int))


def test_assign_dominant_component():
    config = tiny_config("bernoulli")
    model = zero_model(config)  # every fused mean is the origin
    model.params.set_value("gmm_means", [[7.0, 7.0], [0.0, 0.0], [-7.0, 7.0]])
    labels = assign_clusters(model, random_views(config, 4, seed=11))
    assert np.array_equal(labels, np.ones(4, dtype=int))


def test_assign_matches_composed_oracles():
    config = tiny_config("gaussian")
    model = randomized_model(config, seed=12)
    views = random_views(config, 9, seed=13)
    labels = assign_clusters(model, views)

    stats = []
    for v in range(config.n_views):
        mu, logvar = encode_view(model, v, views[v])
        stats.append((mu, np.exp(logvar)))
    post = fuse_posteriors(stats, model.fusion_weights())
    prior = model.prior()
    expected = [
        int(np.argmax(gamma_direct(z, prior.weights, prior.means, prior.variances)))
        for z in post.mean
    ]
    assert np.array_equal(labels, expected)


def test_assign_is_deterministic():
    config = tiny_config("bernoulli")
    model = randomized_model(config, seed=14)
    views = random_views(config, 8, seed=15)
    assert np.array_equal(assign_clusters(model, views), assign_clusters(model, views))


def test_assign_missing_view():
    model = zero_model(tiny_config("bernoulli"))
    with pytest.raises(ValueError, match="views"):
        assign_clusters(model, [np.zeros((2, 4))])


# -- ELBO objectives -----------------------------------------------------------------------


def test_elbo_bernoulli_vanishing_construction():
    # K=1 standard-normal prior, encoder pinned at mu=0 var=1, decoder
    # reproducing x within the clamp: every term cancels
    config = ModelConfig(
        view_dims=(3,), latent_dim=2, n_clusters=1, likelihood="bernoulli",
        encoder_hidden=(2,), decoder_hidden=(2,),
    )
    model = zero_model(config)
    x = np.array([[1.0, 0.0, 1.0]])
    model.params.set_value("dec0_b1", [50.0, -50.0, 50.0])
    value = elbo_bernoulli(model, [x], np.zeros((1, 1, 2)))
    assert abs(value) < 1e-8
    terms = elbo_terms(model, [x], np.zeros((1, 1, 2)))
    assert terms["gauss_kl"] == pytest.approx([-1.0])  # -J/2
    assert terms["entropy"] == pytest.approx([1.0])  # +J/2
    assert terms["cat_kl"] == pytest.approx([0.0])


def test_elbo_cat_term_zero_when_gamma_equals_pi():
    # identical mixture components force gamma = pi for every z
    config = tiny_config("bernoulli")
    model = randomized_model(config, seed=16)
    model.params.set_value("gmm_means", np.tile([0.4, -0.2], (3, 1)))
    model.params.set_value("gmm_logvars", np.tile([0.1, -0.3], (3, 1)))
    model.params.set_value("mix_logits", [0.3, -0.2, 1.0])
    views = random_views(config, 6, seed=17)
    eps = np.random.default_rng(18).standard_normal((1, 6, 2))
    terms = elbo_terms(model, [v for v in views], eps)
    assert np.abs(terms["cat_kl"]).max() < 1e-12


def test_elbo_bernoulli_rejects_out_of_range_data():
    model = zero_model(tiny_config("bernoulli"))
    views = [np.full((2, 4), 1.5), np.zeros((2, 5))]
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        elbo_bernoulli(model, views, np.zeros((1, 2, 2)))


def test_elbo_terms_rejects_out_of_range_bernoulli_data():
    model = zero_model(tiny_config("bernoulli"))
    views = [np.zeros((2, 4)), np.full((2, 5), 2.0)]
    with pytest.raises(ValueError, match=r"view 1 data must lie in \[0, 1\]"):
        elbo_terms(model, views, np.zeros((1, 2, 2)))


@pytest.mark.parametrize("score", [fused_posterior, lambda model, views: elbo_terms(model, views, np.zeros((1, 2, 2)))])
def test_fusion_and_elbo_require_all_views_of_one_length(score):
    model = zero_model(tiny_config("gaussian"))
    with pytest.raises(ValueError, match=r"expected 2 views, got 1 \(all views are required\)"):
        score(model, [np.zeros((2, 4))])
    with pytest.raises(ValueError, match="same number of rows"):
        score(model, [np.zeros((2, 4)), np.zeros((3, 5))])


def test_graphs_are_built_once_per_config():
    a, b = Model.initialize(tiny_config("gaussian"), seed=0), Model.initialize(tiny_config("gaussian"), seed=1)
    assert a.elbo_graph(2) is b.elbo_graph(2) and a.elbo_graph() is not a.elbo_graph(2)
    assert a.encoder_graph(1) is b.encoder_graph(1) and a.decoder_graph(0) is b.decoder_graph(0)


def test_elbo_nonrecon_terms_match_quadrature():
    # J=1, K=2: the analytic Gaussian-KL + categorical + entropy terms must
    # equal the integral decomposition E_q[log p(z, c-average)] - E_q[log q],
    # with gamma frozen at the sampled z, integrated by dense trapezoid
    config = ModelConfig(
        view_dims=(3,), latent_dim=1, n_clusters=2, likelihood="bernoulli",
        encoder_hidden=(4,), decoder_hidden=(4,),
    )
    model = zero_model(config)
    rng = np.random.default_rng(19)
    model.params.set_value("enc0_w0", 0.5 * rng.standard_normal((3, 4)))
    model.params.set_value("enc0_b0", 0.1 * rng.standard_normal(4))
    head = np.zeros((4, 2))
    head[:, 0] = 0.4 * rng.standard_normal(4)  # mean column random, log-var column zero
    model.params.set_value("enc0_w1", head)
    model.params.set_value("gmm_means", [[-1.0], [1.5]])
    model.params.set_value("gmm_logvars", [[0.2], [-0.3]])
    model.params.set_value("mix_logits", [0.3, -0.1])

    x = rng.uniform(0.1, 0.9, (1, 3))
    eps = np.array([[[0.37]]])
    terms = elbo_terms(model, [x], eps)
    implementation = float((terms["gauss_kl"] + terms["cat_kl"] + terms["entropy"])[0])

    mu, logvar = encode_view(model, 0, x)
    mu_t = float(mu[0, 0])
    var_t = float(np.exp(logvar[0, 0]))
    z = mu_t + math.sqrt(var_t) * 0.37
    prior = model.prior()
    gamma = gamma_direct(np.array([z]), prior.weights, prior.means, prior.variances)

    grid = np.linspace(-10.0, 10.0, 200_001)
    q = np.exp(-0.5 * (grid - mu_t) ** 2 / var_t) / np.sqrt(2 * np.pi * var_t)
    log_p_mix = np.zeros_like(grid)
    for c in range(2):
        log_n = (
            -0.5 * math.log(2 * np.pi * prior.variances[c, 0])
            - 0.5 * (grid - prior.means[c, 0]) ** 2 / prior.variances[c, 0]
        )
        log_p_mix += gamma[c] * log_n
    t1 = np.trapezoid(q * log_p_mix, grid)
    t2 = float(np.sum(gamma * np.log(prior.weights / gamma)))
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(q > 0, q * np.log(q), 0.0)
    t3 = -np.trapezoid(integrand, grid)
    assert implementation == pytest.approx(t1 + t2 + t3, abs=1e-6)


def test_elbo_gaussian_reconstruction_zero_point():
    # decoder mean = x and variance = 1/(2 pi) makes the log density zero
    config = ModelConfig(
        view_dims=(2,), latent_dim=1, n_clusters=1, likelihood="gaussian",
        encoder_hidden=(1,), decoder_hidden=(1,),
    )
    model = zero_model(config)
    x = np.array([[0.7, -0.4]])
    model.params.set_value("dec0_b1", [0.7, -0.4, -LOG_2PI, -LOG_2PI])
    terms = elbo_terms(model, [x], np.zeros((1, 1, 1)))
    assert abs(float(terms["recon"][0])) < 1e-12


def test_elbo_gaussian_collapsed_nonrecon_terms_vanish():
    config = ModelConfig(
        view_dims=(2,), latent_dim=3, n_clusters=1, likelihood="gaussian",
        encoder_hidden=(2,), decoder_hidden=(2,),
    )
    model = zero_model(config)
    terms = elbo_terms(model, [np.zeros((4, 2))], np.zeros((1, 4, 3)))
    total = terms["gauss_kl"] + terms["cat_kl"] + terms["entropy"]
    assert np.abs(total).max() < 1e-12


def _numpy_encode(model, view, x):
    cfg = model.config
    widths = [cfg.view_dims[view], *cfg.encoder_hidden, 2 * cfg.latent_dim]
    h = x
    for i in range(len(widths) - 1):
        h = h @ model.params[f"enc{view}_w{i}"] + model.params[f"enc{view}_b{i}"]
        if i < len(widths) - 2:
            h = np.maximum(h, 0.0)
    J = cfg.latent_dim
    return h[:, :J], np.clip(h[:, J:], LOGVAR_MIN, LOGVAR_MAX)


def _numpy_decode(model, view, z):
    cfg = model.config
    d = cfg.view_dims[view]
    head = d if cfg.likelihood == "bernoulli" else 2 * d
    widths = [cfg.latent_dim, *cfg.decoder_hidden, head]
    h = z
    for i in range(len(widths) - 1):
        h = h @ model.params[f"dec{view}_w{i}"] + model.params[f"dec{view}_b{i}"]
        if i < len(widths) - 2:
            h = np.maximum(h, 0.0)
    if cfg.likelihood == "bernoulli":
        return np.clip(1.0 / (1.0 + np.exp(-h)), BERNOULLI_EPS, 1.0 - BERNOULLI_EPS)
    return h[:, :d], np.clip(h[:, d:], LOGVAR_MIN, LOGVAR_MAX)


def _numpy_elbo_terms(model, views, eps):
    """Plain-numpy re-derivation of every objective term (no graphs)."""
    cfg = model.config
    stats = [_numpy_encode(model, v, views[v]) for v in range(cfg.n_views)]
    logits = model.params["fusion_logits"]
    w = np.exp(logits - logits.max())
    w /= w.sum()
    mu_t = sum(w[v] * stats[v][0] for v in range(cfg.n_views))
    var_t = sum(w[v] * np.exp(stats[v][1]) for v in range(cfg.n_views))
    z = mu_t + np.sqrt(var_t) * eps[0]
    prior = model.prior()
    gamma = np.stack([gamma_direct(row, prior.weights, prior.means, prior.variances) for row in z])

    recon = np.zeros(z.shape[0])
    for v in range(cfg.n_views):
        if cfg.likelihood == "bernoulli":
            mu_x = _numpy_decode(model, v, z)
            recon += (views[v] * np.log(mu_x) + (1 - views[v]) * np.log(1 - mu_x)).sum(axis=1)
        else:
            mu_x, logvar_x = _numpy_decode(model, v, z)
            recon += (
                -0.5 * LOG_2PI - 0.5 * logvar_x - 0.5 * (views[v] - mu_x) ** 2 / np.exp(logvar_x)
            ).sum(axis=1)

    logvar_c = np.log(prior.variances)
    inner = (
        logvar_c[None, :, :]
        + var_t[:, None, :] / prior.variances[None, :, :]
        + (mu_t[:, None, :] - prior.means[None, :, :]) ** 2 / prior.variances[None, :, :]
    ).sum(axis=2)
    gauss_kl = -0.5 * (gamma * inner).sum(axis=1)
    cat_kl = (gamma * (np.log(prior.weights)[None, :] - np.log(gamma))).sum(axis=1)
    entropy = 0.5 * (1.0 + np.log(var_t)).sum(axis=1)
    return recon, gauss_kl, cat_kl, entropy


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_elbo_terms_match_numpy_rederivation(kind):
    config = tiny_config(kind)
    model = randomized_model(config, seed=20)
    views = random_views(config, 5, seed=21)
    eps = np.random.default_rng(22).standard_normal((1, 5, 2))
    got = elbo_terms(model, views, eps)
    recon, gauss_kl, cat_kl, entropy = _numpy_elbo_terms(model, views, eps)
    assert got["recon"] == pytest.approx(recon, abs=1e-10)
    assert got["gauss_kl"] == pytest.approx(gauss_kl, abs=1e-10)
    assert got["cat_kl"] == pytest.approx(cat_kl, abs=1e-10)
    assert got["entropy"] == pytest.approx(entropy, abs=1e-10)
    total = (recon + gauss_kl + cat_kl + entropy).mean()
    scorer = elbo_bernoulli if kind == "bernoulli" else elbo_gaussian
    assert scorer(model, views, eps) == pytest.approx(total, abs=1e-10)


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_float32_elbo_gradients_agree_with_float64(kind):
    # the same float32-representable parameters and inputs, stepped in both
    # dtypes; every gradient agrees within 1e-5 of its parameter's largest
    # float64 gradient entry (about 20x the error seen on this net)
    config = tiny_config(kind)
    narrow = randomized_model(config, seed=40).params.clone(np.float32)
    wide = narrow.clone(np.float64)
    views = random_views(config, 16, seed=41)
    eps = np.random.default_rng(42).standard_normal((16, 2))
    inputs = {"x0": views[0], "x1": views[1], "eps0": eps}
    inputs = {k: v.astype(np.float32) for k, v in inputs.items()}
    graph = Model(config, wide).elbo_graph(1)
    losses = []
    for store in (narrow, wide):
        store.zero_grads()
        values = forward(graph, inputs, store, dtype=store.dtype)
        assert values["loss"].dtype == store.dtype
        backward(graph, values, "loss", store)
        losses.append(float(values["loss"]))
    assert losses[0] == pytest.approx(losses[1], rel=1e-5)
    for name in wide.names():
        assert narrow.grad(name).dtype == np.float32
        scale = max(np.abs(wide.grad(name)).max(), 1e-3)
        assert np.abs(narrow.grad(name) - wide.grad(name)).max() <= 1e-5 * scale, name


def test_float32_bernoulli_elbo_with_saturated_decoder_is_finite():
    # a head bias of +40 gives sigmoid(h) = 1 in float32, where a log(1 - mu)
    # form of the likelihood reads log(0); the logit form stays finite
    config = tiny_config("bernoulli")
    model = randomized_model(config, seed=43)
    for v in range(config.n_views):
        model.params.set_value(f"dec{v}_b2", np.full(config.view_dims[v], 40.0))
    narrow = model.params.clone(np.float32)
    views = random_views(config, 6, seed=44)
    inputs = {"x0": views[0], "x1": views[1], "eps0": np.random.default_rng(45).standard_normal((6, 2))}
    graph = model.elbo_graph(1)
    narrow.zero_grads()
    values = forward(graph, inputs, narrow, dtype=np.float32)
    backward(graph, values, "loss", narrow)
    assert np.isfinite(values["loss"])
    assert all(np.all(np.isfinite(narrow.grad(name))) for name in narrow.names())
    wide = forward(graph, {k: v.astype(np.float32) for k, v in inputs.items()}, narrow.clone(np.float64))
    assert float(values["loss"]) == pytest.approx(float(wide["loss"]), rel=1e-5)


def test_elbo_multi_sample_averages_branches():
    config = tiny_config("gaussian")
    model = randomized_model(config, seed=23)
    views = random_views(config, 4, seed=24)
    eps = np.random.default_rng(25).standard_normal((3, 4, 2))
    combined = elbo_gaussian(model, views, eps, n_samples=3)
    singles = [elbo_gaussian(model, views, eps[l : l + 1]) for l in range(3)]
    assert combined == pytest.approx(np.mean(singles), abs=1e-10)


# -- generate -------------------------------------------------------------------------------


def test_generate_zero_noise_decodes_component_mean():
    config = tiny_config("bernoulli")
    model = randomized_model(config, seed=26)
    prior = model.prior()
    out = generate(model, 0, 1, np.zeros(2))
    expected = decode_bernoulli(model, 0, prior.means[1][None, :])[0]
    assert np.array_equal(out, expected)


def test_generate_zero_decoder_is_all_half():
    model = zero_model(tiny_config("bernoulli", n_clusters=1))
    out = generate(model, 1, 0, np.zeros((3, 2)))
    assert np.all(out == 0.5)


def test_generate_deterministic_given_noise():
    model = randomized_model(tiny_config("gaussian"), seed=27)
    noise = np.random.default_rng(28).standard_normal((4, 2))
    assert np.array_equal(generate(model, 0, 2, noise), generate(model, 0, 2, noise))


def test_generate_bad_cluster_index():
    model = zero_model(tiny_config("bernoulli"))
    with pytest.raises(ValueError, match="cluster"):
        generate(model, 0, 3, np.zeros(2))


# -- config and archive ------------------------------------------------------------------------


def test_parameter_stack_shapes():
    config = tiny_config("gaussian", latent_dim=3)
    model = Model.initialize(config, seed=0)
    params = model.params
    # posterior head is exactly 2J wide; gaussian decoder head exactly 2d
    assert params["enc0_w2"].shape == (5, 6)
    assert params["enc0_b2"].shape == (6,)
    assert params["enc0_w0"].shape == (4, 6)
    assert params["enc1_w0"].shape == (5, 6)
    assert params["dec0_w2"].shape == (6, 8)
    assert params["fusion_logits"].shape == (2,)
    assert params["mix_logits"].shape == (3,)
    assert params["gmm_means"].shape == (3, 3)
    assert params["gmm_logvars"].shape == (3, 3)
    bern = Model.initialize(tiny_config("bernoulli", latent_dim=3), seed=0)
    assert bern.params["dec0_w2"].shape == (6, 4)


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(view_dims=(), latent_dim=2, n_clusters=2, likelihood="bernoulli")
    with pytest.raises(ValueError):
        ModelConfig(view_dims=(3,), latent_dim=0, n_clusters=2, likelihood="bernoulli")
    with pytest.raises(ValueError):
        ModelConfig(view_dims=(3,), latent_dim=2, n_clusters=2, likelihood="poisson")


def test_model_archive_roundtrip(tmp_path):
    config = tiny_config("gaussian")
    model = randomized_model(config, seed=29)
    views = random_views(config, 5, seed=30)
    labels = assign_clusters(model, views)
    model.save(tmp_path / "m")
    loaded = Model.load(tmp_path / "m")
    assert loaded.config == config
    for name in model.params.names():
        assert np.array_equal(loaded.params[name], model.params[name])
    assert np.array_equal(assign_clusters(loaded, views), labels)


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_inference_graphs_emit_heads_without_renames(kind):
    model = zero_model(tiny_config(kind))
    enc, dec = model.encoder_graph(0), model.decoder_graph(1)
    assert enc.inputs == ["x"] and {"mu", "logvar"} <= {node.name for node in enc.nodes}
    assert ({"mu"} if kind == "bernoulli" else {"mu", "logvar"}) <= {node.name for node in dec.nodes}
    assert all(node.op != "affine" for node in enc.nodes + dec.nodes)


def test_model_load_checks_shapes_without_building_a_model(tmp_path, monkeypatch):
    import mvclust.model

    model = randomized_model(tiny_config("gaussian"), seed=32)
    model.save(tmp_path / "m")

    def refuse(*args, **kwargs):
        raise AssertionError("Model.load must not initialize a model")

    monkeypatch.setattr(mvclust.model, "init_params", refuse)
    loaded = Model.load(tmp_path / "m")
    for name in model.params.names():
        assert np.array_equal(loaded.params[name], model.params[name])


def test_model_archive_wrong_shape_detected(tmp_path):
    model = randomized_model(tiny_config("gaussian"), seed=33)
    model.save(tmp_path / "m")
    values = {name: model.params[name] for name in model.params.names()}
    values["enc1_b0"] = np.zeros(values["enc1_b0"].shape[0] + 1)
    store = ParamStore(values.items())
    store.save(tmp_path / "m" / "params.bin", include_moments=False)
    with pytest.raises(ValueError, match="archive"):
        Model.load(tmp_path / "m")


def test_model_archive_mismatch_detected(tmp_path):
    model = randomized_model(tiny_config("gaussian"), seed=31)
    model.save(tmp_path / "m")
    other = randomized_model(tiny_config("bernoulli"), seed=31)
    other.params.save(tmp_path / "m" / "params.bin", include_moments=False)
    with pytest.raises(ValueError, match="archive"):
        Model.load(tmp_path / "m")
