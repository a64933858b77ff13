"""Model operations: encoding, fusion, decoding, responsibilities,
assignment, the ELBO objective under both likelihoods, generation."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from mvclust import (
    Graph,
    LatentPosterior,
    LoadError,
    Model,
    ModelConfig,
    NumericError,
    ParamStore,
    TrainConfig,
    assign_clusters,
    backward,
    decode,
    elbo_terms,
    forward,
    fused_posterior,
    generate,
    model_inputs,
    responsibilities,
)
from mvclust import model as model_module
from mvclust.data import MultiViewDataset, normalize
from mvclust.model import _INFER_CHUNK, BERNOULLI_EPS, LOG_2PI, LOGVAR_MAX, LOGVAR_MIN, fusion_nodes

from helpers import gamma_direct, mixture_moments, mixture_params, random_views, randomized_model, softmax, tiny_config


def zero_model(config):
    model = Model.initialize(config, seed=0)
    for name in model.params.names():
        model.params.set_value(name, np.zeros_like(model.params[name]))
    return model


def encode(model, view, x):
    """(mean, clamped log-variance) of view ``view``'s encoder graph on ``x``."""
    values = forward(model.encoder_graph(view), {"x": x}, model.params)
    return values["mu"], values["logvar"]


def fuse(per_view, logits):
    """Forward ``fusion_nodes`` on per-view (mean, log-variance) pairs under the fusion ``logits``."""
    g = Graph()
    mu, var = fusion_nodes(g, [(g.input(f"mu{v}"), g.input(f"logvar{v}")) for v in range(len(per_view))])
    inputs = {f"{k}{v}": a for v, pair in enumerate(per_view) for k, a in zip(("mu", "logvar"), pair)}
    values = forward(g, inputs, {"fusion_logits": logits})
    return LatentPosterior(values[mu], values[var])


def numpy_fuse(per_view, logits):
    """Fused (mean, variance) under weights exp(f - logsumexp f), summed view by view as the graph does."""
    top = logits.max()
    w = np.exp(logits - (np.log(np.sum(np.exp(logits - top))) + top))
    mu, var = w[0] * per_view[0][0], w[0] * np.exp(per_view[0][1])
    for v in range(1, len(per_view)):
        mu = mu + w[v] * per_view[v][0]
        var = var + w[v] * np.exp(per_view[v][1])
    return mu, var


# -- encoders -------------------------------------------------------------------


def test_encode_zero_network():
    model = zero_model(tiny_config("bernoulli"))
    mu, logvar = encode(model, 0, np.random.default_rng(0).uniform(0, 1, (3, 4)))
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
    mu, logvar = encode(model, 0, [[1.0, 0.6]])
    # relu(0.5 - 0.6 + 0.2) = 0.1; head: mu = 0.25, logvar = -0.2
    assert mu.reshape(-1) == pytest.approx([0.25], abs=1e-12)
    assert logvar.reshape(-1) == pytest.approx([-0.2], abs=1e-12)


def test_encode_duplicate_rows_identical():
    model = randomized_model(tiny_config("gaussian"), seed=5)
    x = np.random.default_rng(1).standard_normal(5)
    mu, logvar = encode(model, 1, np.stack([x, x]))
    assert np.array_equal(mu[0], mu[1])
    assert np.array_equal(logvar[0], logvar[1])


def test_encode_dimension_mismatch():
    model = zero_model(tiny_config("bernoulli"))
    with pytest.raises(ValueError, match=r"view 0 must be \(n, 4\)"):
        fused_posterior(model, [np.zeros((2, 5)), np.zeros((2, 5))])  # view 0 expects d=4


# -- fusion -----------------------------------------------------------------------


def test_fuse_single_view_is_identity():
    mu = np.array([[1.0, 2.0]])
    logvar = np.log([[0.5, 3.0]])
    post = fuse([(mu, logvar)], np.zeros(1))
    assert np.array_equal(post.mean, mu)
    assert np.array_equal(post.var, np.exp(logvar))


def test_fuse_equal_weights_arithmetic():
    post = fuse(
        [
            (np.array([[0.0, 2.0]]), np.log([[1.0, 1.0]])),
            (np.array([[2.0, 0.0]]), np.log([[3.0, 1.0]])),
        ],
        np.zeros(2),
    )
    assert post.mean.reshape(-1) == pytest.approx([1.0, 1.0])
    assert post.var.reshape(-1) == pytest.approx([2.0, 1.0])


def test_fuse_matches_scripted_convex_combination():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal(3)
    stats = [(rng.standard_normal((6, 4)), np.log(rng.uniform(0.1, 2.0, (6, 4)))) for _ in range(3)]
    post = fuse(stats, logits)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    mu = sum(w[v] * stats[v][0] for v in range(3))
    var = sum(w[v] * np.exp(stats[v][1]) for v in range(3))
    assert post.mean == pytest.approx(mu, abs=1e-12)
    assert post.var == pytest.approx(var, abs=1e-12)


def test_fuse_permuting_views_with_weights_is_invariant():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal(3)
    stats = [(rng.standard_normal((2, 3)), np.log(rng.uniform(0.1, 2.0, (2, 3)))) for _ in range(3)]
    perm = [2, 0, 1]
    post = fuse(stats, logits)
    post_p = fuse([stats[i] for i in perm], logits[perm])
    assert post_p.mean == pytest.approx(post.mean, abs=1e-12)
    assert post_p.var == pytest.approx(post.var, abs=1e-12)


@pytest.mark.parametrize("n_views", range(1, 7))
def test_fuse_equals_numpy_convex_combination_exactly(n_views):
    # init_gmm's k-means runs on these means, so fusion must not drift by an
    # ulp; the oracle weighs the views by log-sum-exp, as the ELBO graph does
    rng = np.random.default_rng(40 + n_views)
    random_logits = 3.0 * rng.standard_normal(n_views)
    stats = [(rng.standard_normal((7, 4)), np.log(rng.uniform(0.1, 2.0, (7, 4)))) for _ in range(n_views)]
    for logits in (random_logits, np.zeros(n_views)):  # 6 zero logits weigh 0.16666666666666669, not 1/6
        post = fuse(stats, logits)
        mu, var = numpy_fuse(stats, logits)
        assert np.array_equal(post.mean, mu)
        assert np.array_equal(post.var, var)


def test_fuse_missing_view_and_bad_variance():
    # a missing view is fused_posterior's check (test_fusion_and_elbo_require_all_views_of_one_length);
    # every finite log-variance is a valid one; a non-finite one is refused
    with pytest.raises(NumericError, match="'logvar0'"):
        fuse([(np.zeros((1, 2)), np.array([[0.0, np.inf]]))], np.zeros(1))


def test_fusion_weights_always_on_simplex():
    # view v's mean is row v of the identity, so the fused mean is the weights
    rng = np.random.default_rng(10)
    stats = [(np.eye(5)[v : v + 1], np.zeros((1, 5))) for v in range(5)]
    for scale in (0.1, 10.0, 300.0):
        w = fuse(stats, scale * rng.standard_normal(5)).mean[0]
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-12


# -- decoders ------------------------------------------------------------------------


def decoder_logvar(model, view, z):
    """The Gaussian decoder's clamped log-variance head, read from its graph."""
    return forward(model.decoder_graph(), {"z": z}, model.params)[f"logvar{view}"]


def test_decode_bernoulli_zero_network_is_half():
    model = zero_model(tiny_config("bernoulli"))
    out = decode(model, np.zeros((2, 2)))
    assert len(out) == 2 and all(np.all(view == 0.5) for view in out)


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
    (out,) = decode(model, [[0.5]])
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
    (out,) = decode(model, [[0.0]])
    assert out.reshape(-1)[0] == 1.0 - BERNOULLI_EPS


def test_decode_gaussian_zero_network():
    model = zero_model(tiny_config("gaussian"))
    mu, logvar = decode(model, np.zeros((3, 2)))[1], decoder_logvar(model, 1, np.zeros((3, 2)))
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
    (mu,), logvar = decode(model, [[0.4]]), decoder_logvar(model, 0, [[0.4]])
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
    logvar = decoder_logvar(model, 0, [[0.0]])
    assert logvar.reshape(-1)[0] == LOGVAR_MAX
    model.params.set_value("dec0_b1", [0.0, -40.0])
    logvar = decoder_logvar(model, 0, [[0.0]])
    assert logvar.reshape(-1)[0] == LOGVAR_MIN


# -- responsibilities ------------------------------------------------------------------


@pytest.mark.parametrize(
    "logits, means, logvars",
    [
        (np.zeros(2), np.zeros((2, 2)), np.zeros((2, 3))),
        (np.zeros(2), np.zeros(2), np.zeros(2)),
        (np.zeros(1), np.zeros((2, 2)), np.zeros((2, 2))),
    ],
    ids=["shapes-differ", "means-not-2d", "weights-length"],
)
def test_responsibilities_reject_a_mixture_of_mismatched_shapes(logits, means, logvars):
    # one logit for two components would broadcast to a uniform mixture unnoticed
    mixture = {"mix_logits": logits, "gmm_means": means, "gmm_logvars": logvars}
    with pytest.raises(ValueError, match=r"must be \(K,\), \(K, J\), \(K, J\)"):
        responsibilities(np.zeros((3, 2)), mixture)


def test_responsibilities_single_component():
    mixture = mixture_params(np.ones(1), np.zeros((1, 2)), np.ones((1, 2)))
    assert np.array_equal(responsibilities(np.zeros((1, 2)), mixture), [[1.0]])


def test_responsibilities_symmetric_split():
    mixture = mixture_params(np.array([0.5, 0.5]), np.array([[1.0, -2.0], [-1.0, 2.0]]), np.ones((2, 2)))
    (gamma,) = responsibilities(np.zeros((1, 2)), mixture)
    assert gamma == pytest.approx([0.5, 0.5], abs=1e-14)


def test_responsibilities_density_ratio_instance():
    mixture = mixture_params(np.array([0.3, 0.7]), np.array([[0.0], [1.0]]), np.ones((2, 1)))
    (gamma,) = responsibilities(np.array([[0.5]]), mixture)
    d0 = 0.3 * math.exp(-0.125)
    d1 = 0.7 * math.exp(-0.125)
    assert gamma == pytest.approx([d0 / (d0 + d1), d1 / (d0 + d1)], abs=1e-14)


def test_responsibilities_sum_to_one():
    rng = np.random.default_rng(4)
    mixture = mixture_params(
        softmax(rng.standard_normal(5)),
        rng.uniform(-3, 3, (5, 3)),
        rng.uniform(0.1, 3.0, (5, 3)),
    )
    gamma = responsibilities(rng.standard_normal((50, 3)), mixture)
    assert np.abs(gamma.sum(axis=1) - 1.0).max() < 1e-10
    assert np.all(gamma >= 0.0)


def test_responsibilities_match_the_direct_form_on_raw_parameters():
    # logits far from uniform, log-variances beyond both clamps
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 7))
        j = int(rng.integers(1, 5))
        mixture = {
            "mix_logits": rng.uniform(-12.0, 12.0, k),
            "gmm_means": rng.uniform(-3.0, 3.0, (k, j)),
            "gmm_logvars": rng.uniform(-25.0, 25.0, (k, j)),
        }
        z = rng.normal(0.0, 2.0, (6, j))
        mix = mixture["mix_logits"]
        log_pi = mix - (mix.max() + np.log(np.exp(mix - mix.max()).sum()))
        logvars = np.clip(mixture["gmm_logvars"], LOGVAR_MIN, LOGVAR_MAX)
        diff = z[:, None, :] - mixture["gmm_means"][None, :, :]
        log_n = -0.5 * (j * LOG_2PI + logvars.sum(axis=1) + (diff**2 / np.exp(logvars)).sum(axis=2))
        joint = log_n + log_pi
        top = joint.max(axis=1, keepdims=True)
        want = np.exp(joint - (top + np.log(np.exp(joint - top).sum(axis=1, keepdims=True))))
        want = np.clip(want, 1e-10, 1.0)
        want /= want.sum(axis=1, keepdims=True)
        worst = max(worst, float(np.abs(responsibilities(z, mixture) - want).max()))
    assert worst < 1e-12


def test_responsibilities_read_a_float32_store_in_float64():
    model = randomized_model(tiny_config("gaussian"), seed=44)
    store32 = model.params.clone(np.float32)
    z = np.random.default_rng(45).standard_normal((5, 2))
    gamma = responsibilities(z, store32)
    assert gamma.dtype == np.float64
    assert np.array_equal(gamma, responsibilities(z, {n: store32[n].astype(np.float64) for n in store32.names()}))


def test_mix_logit_shift_leaves_gamma_and_elbo_unchanged():
    model = randomized_model(tiny_config("bernoulli"), seed=6)
    views = random_views(model.config, 5, seed=7)
    eps = np.random.default_rng(8).standard_normal((1, 5, 2))
    base_gamma = responsibilities(np.zeros((3, 2)), model.params)
    base_elbo = float(elbo_terms(model, views, eps)["elbo"])
    model.params.set_value("mix_logits", model.params["mix_logits"] + 7.5)
    assert responsibilities(np.zeros((3, 2)), model.params) == pytest.approx(base_gamma, abs=1e-12)
    assert float(elbo_terms(model, views, eps)["elbo"]) == pytest.approx(base_elbo, abs=1e-10)


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

    stats = [_numpy_encode(model, v, views[v]) for v in range(config.n_views)]
    mu, _ = numpy_fuse(stats, model.params["fusion_logits"])
    weights, means, variances = mixture_moments(model.params)
    expected = [int(np.argmax(gamma_direct(z, weights, means, variances))) for z in mu]
    assert np.array_equal(labels, expected)


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_inference_across_a_chunk_boundary_equals_the_chunks_apart(kind):
    config = tiny_config(kind)
    model = randomized_model(config, seed=20)
    views = random_views(config, _INFER_CHUNK + 5, seed=21)
    pieces = [[mat[rows] for mat in views] for rows in (slice(None, _INFER_CHUNK), slice(_INFER_CHUNK, None))]
    post = fused_posterior(model, views)
    apart = [fused_posterior(model, piece) for piece in pieces]
    assert np.array_equal(post.mean, np.concatenate([p.mean for p in apart]))
    assert np.array_equal(post.var, np.concatenate([p.var for p in apart]))
    labels = assign_clusters(model, views)
    assert np.array_equal(labels, np.concatenate([assign_clusters(model, piece) for piece in pieces]))
    z = np.random.default_rng(22).standard_normal((_INFER_CHUNK + 5, config.latent_dim))
    halves = (z[:_INFER_CHUNK], z[_INFER_CHUNK:])
    calls = (lambda z: decode(model, z), lambda z: [responsibilities(z, model.params)], lambda z: generate(model, 1, z))
    for call in calls:
        for whole, *apart in zip(call(z), *(call(half) for half in halves)):
            assert np.array_equal(whole, np.concatenate(apart))


def _peak_bytes(call):
    """The tracemalloc peak of ``call()`` and its result, which stays alive."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_inference_memory_grows_only_by_what_it_returns(monkeypatch):
    monkeypatch.setattr(model_module, "_INFER_CHUNK", 256)
    config = ModelConfig(view_dims=(20, 25), latent_dim=10, n_clusters=3, likelihood="gaussian",
                         encoder_hidden=(64, 64, 32), decoder_hidden=(128, 64, 64))
    model = randomized_model(config, seed=23)
    views = random_views(config, 8 * 256, seed=24)
    z = np.random.default_rng(25).standard_normal((8 * 256, config.latent_dim))
    # bytes per row that fused_posterior holds besides its result: each view's means and log-variances
    per_view = 2 * config.n_views * config.latent_dim * 8
    calls = {
        "decode": (lambda rows: decode(model, z[:rows]), 0),
        "responsibilities": (lambda rows: [responsibilities(z[:rows], model.params)], 0),
        "fused_posterior": (lambda rows: vars(fused_posterior(model, [x[:rows] for x in views])).values(), per_view),
    }
    for name, (call, held_per_row) in calls.items():
        call(1)  # builds and caches the graphs outside the measurement
        (peak2, out2), (peak8, out8) = _peak_bytes(lambda: call(2 * 256)), _peak_bytes(lambda: call(8 * 256))
        returned = sum(a.nbytes for a in out8) - sum(a.nbytes for a in out2)
        # from 2 to 8 chunks, each forward's value table stays one chunk's: a
        # forward over every row at once would add megabytes here
        assert peak8 - peak2 <= returned + 6 * 256 * held_per_row + 2**15, name


def test_model_inputs_rejects_other_view_dims():
    model = zero_model(tiny_config("gaussian"))
    dataset = MultiViewDataset("other", ["a", "b"], [np.zeros((3, 4)), np.zeros((3, 6))])
    with pytest.raises(ValueError, match=r"dataset view dims \(4, 6\) do not match model view dims \(4, 5\)"):
        model_inputs(model, dataset)


def test_model_inputs_rejects_data_that_names_another_likelihood():
    model = zero_model(tiny_config("gaussian"))
    views = random_views(tiny_config("gaussian"), 3, seed=3)
    other = MultiViewDataset("other", ["a", "b"], views, likelihood="bernoulli")
    with pytest.raises(ValueError, match="dataset 'other' names likelihood 'bernoulli', the model's is 'gaussian'"):
        model_inputs(model, other)
    for likelihood in ("gaussian", None):
        assert model_inputs(model, MultiViewDataset("d", ["a", "b"], views, likelihood=likelihood)) is views


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_model_inputs_puts_a_raw_dataset_through_the_model_record_only(kind):
    config = tiny_config(kind)
    own = MultiViewDataset("own", ["a", "b"], random_views(config, 6, seed=1))
    other = MultiViewDataset("other", ["a", "b"], random_views(config, 6, seed=2))
    model = zero_model(config)
    assert model_inputs(model, other) is other.matrices  # no record, nothing to apply
    model.normalization = normalize(own, kind).normalization
    for got, want in zip(model_inputs(model, other), model.normalization.apply(other.matrices)):
        assert np.array_equal(got, want)
    # a dataset normalized by its own record would reach the encoders mis-scaled
    with pytest.raises(ValueError, match="dataset 'other' is already normalized"):
        model_inputs(model, normalize(other, kind))


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
    value = float(elbo_terms(model, [x], np.zeros((1, 1, 2)))["elbo"])
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


def test_elbo_terms_rejects_out_of_range_bernoulli_data():
    model = zero_model(tiny_config("bernoulli"))
    views = [np.zeros((2, 4)), np.full((2, 5), 2.0)]
    with pytest.raises(ValueError, match=r"view 1 data must lie in \[0, 1\]"):
        elbo_terms(model, views, np.zeros((1, 2, 2)))


@pytest.mark.parametrize("shape", [(4, 2), (0, 4, 2), (1, 3, 2), (1, 4, 3), (1, 1, 4, 2)])
def test_elbo_terms_rejects_noise_of_another_shape(shape):
    model = zero_model(tiny_config("gaussian"))
    views = random_views(tiny_config("gaussian"), 4, seed=3)
    with pytest.raises(ValueError) as caught:
        elbo_terms(model, views, np.zeros(shape))
    assert str(caught.value) == f"noise must have shape (L, 4, 2) with L >= 1, got {shape}"


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_elbo_terms_rejects_an_empty_batch(kind):
    model = zero_model(tiny_config(kind))
    with pytest.raises(ValueError, match="at least one row"):
        elbo_terms(model, [np.zeros((0, 4)), np.zeros((0, 5))], np.zeros((1, 0, 2)))


@pytest.mark.parametrize("score", [fused_posterior, lambda model, views: elbo_terms(model, views, np.zeros((1, 2, 2)))])
def test_fusion_and_elbo_require_all_views_of_one_length(score):
    model = zero_model(tiny_config("gaussian"))
    with pytest.raises(ValueError, match=r"expected 2 views, got 1 \(all views are required\)"):
        score(model, [np.zeros((2, 4))])
    with pytest.raises(ValueError, match="same number of rows"):
        score(model, [np.zeros((2, 4)), np.zeros((3, 5))])


@pytest.mark.parametrize("seed", range(5))
def test_elbo_entropy_reads_the_fused_posterior_variance_exactly(seed):
    # one fused posterior: the ELBO's entropy term is 0.5 * sum_j (1 + log
    # sigma2_j) of the very variance inference reports, to the last bit
    config = ModelConfig((4, 3, 5, 2, 6, 3), 2, 3, "gaussian", (6, 5), (5, 6))
    model = randomized_model(config, seed=seed)
    views = random_views(config, 9, seed=seed)
    entropy = elbo_terms(model, views, np.zeros((1, 9, 2)))["entropy"]
    var = fused_posterior(model, views).var
    assert np.array_equal(entropy, 0.5 * np.sum(np.log(var), axis=1) + 0.5 * 2)


def test_graphs_are_built_once_per_config():
    a, b = Model.initialize(tiny_config("gaussian"), seed=0), Model.initialize(tiny_config("gaussian"), seed=1)
    assert a.elbo_graph(2) is b.elbo_graph(2) and a.elbo_graph() is not a.elbo_graph(2)
    assert a.encoder_graph(1) is b.encoder_graph(1) and a.decoder_graph() is b.decoder_graph()


@pytest.mark.parametrize(
    "n_samples, named",
    [(2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"), (0, "must be >= 1, got 0")],
    ids=["float", "bool", "zero"],
)
def test_elbo_graph_names_a_sample_count_that_is_not_a_positive_integer(n_samples, named):
    model = Model.initialize(tiny_config("gaussian"), seed=0)
    model.elbo_graph(1)  # a cached graph for 1 is not handed out for True
    with pytest.raises(ValueError, match=f"^n_samples {named}$"):
        model.elbo_graph(n_samples)


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

    post = fused_posterior(model, [x])  # one view: its weight is exactly 1.0
    mu_t = float(post.mean[0, 0])
    var_t = float(post.var[0, 0])
    z = mu_t + math.sqrt(var_t) * 0.37
    weights, means, variances = mixture_moments(model.params)
    gamma = gamma_direct(np.array([z]), weights, means, variances)

    grid = np.linspace(-10.0, 10.0, 200_001)
    q = np.exp(-0.5 * (grid - mu_t) ** 2 / var_t) / np.sqrt(2 * np.pi * var_t)
    log_p_mix = np.zeros_like(grid)
    for c in range(2):
        log_n = (
            -0.5 * math.log(2 * np.pi * variances[c, 0])
            - 0.5 * (grid - means[c, 0]) ** 2 / variances[c, 0]
        )
        log_p_mix += gamma[c] * log_n
    t1 = np.trapezoid(q * log_p_mix, grid)
    t2 = float(np.sum(gamma * np.log(weights / gamma)))
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


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_decode_matches_numpy_rederivation_in_every_view(kind):
    model = randomized_model(tiny_config(kind), seed=37)
    z = np.random.default_rng(38).standard_normal((6, 2))
    got = decode(model, z)
    assert len(got) == model.config.n_views
    for v, mu in enumerate(got):
        want = _numpy_decode(model, v, z)
        assert mu == pytest.approx(want if kind == "bernoulli" else want[0], abs=1e-12)


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
    weights, means, variances = mixture_moments(model.params)
    gamma = np.stack([gamma_direct(row, weights, means, variances) for row in z])

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

    logvar_c = np.log(variances)
    inner = (
        logvar_c[None, :, :]
        + var_t[:, None, :] / variances[None, :, :]
        + (mu_t[:, None, :] - means[None, :, :]) ** 2 / variances[None, :, :]
    ).sum(axis=2)
    gauss_kl = -0.5 * (gamma * inner).sum(axis=1)
    cat_kl = (gamma * (np.log(weights)[None, :] - np.log(gamma))).sum(axis=1)
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
    assert float(got["elbo"]) == pytest.approx(total, abs=1e-10)


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
    combined = float(elbo_terms(model, views, eps)["elbo"])
    singles = [float(elbo_terms(model, views, eps[l : l + 1])["elbo"]) for l in range(3)]
    assert combined == pytest.approx(np.mean(singles), abs=1e-10)


# -- generate -------------------------------------------------------------------------------


def test_generate_zero_noise_decodes_component_mean():
    config = tiny_config("bernoulli")
    model = randomized_model(config, seed=26)
    out = generate(model, 1, np.zeros((1, 2)))
    expected = decode(model, model.params["gmm_means"][1][None, :])
    assert len(out) == 2 and all(np.array_equal(o, e) for o, e in zip(out, expected))


def test_generate_zero_decoder_is_all_half():
    model = zero_model(tiny_config("bernoulli", n_clusters=1))
    out = generate(model, 0, np.zeros((3, 2)))
    assert [view.shape for view in out] == [(3, 4), (3, 5)]
    assert all(np.all(view == 0.5) for view in out)


def test_generate_deterministic_given_noise():
    model = randomized_model(tiny_config("gaussian"), seed=27)
    noise = np.random.default_rng(28).standard_normal((4, 2))
    assert all(np.array_equal(a, b) for a, b in zip(generate(model, 2, noise), generate(model, 2, noise)))


@pytest.mark.parametrize("logvar, clamped", [(40.0, LOGVAR_MAX), (-40.0, LOGVAR_MIN)])
def test_generate_draws_under_the_clamped_component_log_variance(logvar, clamped):
    model = randomized_model(tiny_config("gaussian"), seed=35)
    model.params.set_value("gmm_logvars", np.full((3, 2), logvar))
    noise = np.random.default_rng(36).standard_normal((4, 2))
    expected = decode(model, model.params["gmm_means"][2] + math.exp(clamped / 2) * noise)
    for got, want in zip(generate(model, 2, noise), expected, strict=True):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_generate_bad_cluster_index():
    model = zero_model(tiny_config("bernoulli"))
    with pytest.raises(ValueError, match="cluster"):
        generate(model, 3, np.zeros((1, 2)))


@pytest.mark.parametrize("cluster", [1.5, True, np.float64(1.0)], ids=["float", "bool", "numpy-float"])
def test_generate_rejects_a_cluster_that_is_not_an_integer(cluster):
    # int() would read each as component 1
    model = zero_model(tiny_config("bernoulli"))
    with pytest.raises(ValueError, match=re.escape(f"cluster must be an integer, got {cluster!r}")):
        generate(model, cluster, np.zeros((1, 2)))
    assert generate(model, np.int64(1), np.zeros((1, 2)))[0].shape == (1, 4)


@pytest.mark.parametrize(
    "call, dim",
    [
        (lambda model: fused_posterior(model, [np.zeros(4), np.zeros((1, 5))]), 4),
        (lambda model: decode(model, np.zeros(2)), 2),
        (lambda model: responsibilities(np.zeros(2), model.params), 2),
        (lambda model: generate(model, 0, np.zeros(2)), 2),
    ],
    ids=["fused_posterior", "decode", "responsibilities", "generate"],
)
def test_inference_rejects_a_one_dimensional_row(call, dim):
    with pytest.raises(ValueError, match=rf"must be \(n, {dim}\), got shape \({dim},\)"):
        call(zero_model(tiny_config("gaussian")))


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


_SIZE_FIELDS = [
    (config_class, field)
    for config_class in (ModelConfig, TrainConfig)
    for field in ("latent_dim", "n_clusters", "view_dims", "encoder_hidden", "decoder_hidden")
    if not (config_class is TrainConfig and field == "view_dims")  # a TrainConfig reads them from the dataset
]


@pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), "2"], ids=["float", "bool", "numpy-float", "str"])
@pytest.mark.parametrize("config_class, field", _SIZE_FIELDS, ids=[f"{c.__name__}-{f}" for c, f in _SIZE_FIELDS])
def test_architecture_sizes_must_be_integers(config_class, field, value):
    if config_class is TrainConfig:
        args = {"n_clusters": 2}
    else:
        args = {"view_dims": (3, 4), "latent_dim": 2, "n_clusters": 2, "likelihood": "gaussian"}
    sized = field in ("view_dims", "encoder_hidden", "decoder_hidden")
    args[field] = (3, value) if sized else value
    with pytest.raises(ValueError) as caught:
        config_class(**args)
    assert str(caught.value) == f"{field}{'[1]' if sized else ''} must be an integer, got {value!r}"


_SEQUENCE_FIELDS = [f for f in _SIZE_FIELDS if f[1] in ("view_dims", "encoder_hidden", "decoder_hidden")]


@pytest.mark.parametrize("value", [3, np.int64(3), "35", None], ids=["int", "numpy-int", "str", "none"])
@pytest.mark.parametrize("config_class, field", _SEQUENCE_FIELDS, ids=[f"{c.__name__}-{f}" for c, f in _SEQUENCE_FIELDS])
def test_architecture_widths_must_be_a_list_or_tuple(config_class, field, value):
    if config_class is TrainConfig:
        args = {"n_clusters": 2}
    else:
        args = {"view_dims": (3, 4), "latent_dim": 2, "n_clusters": 2, "likelihood": "gaussian"}
    args[field] = value
    with pytest.raises(ValueError) as caught:
        config_class(**args)
    assert str(caught.value) == f"{field} must be a list or tuple, got {value!r}"


def test_numpy_integer_sizes_become_ints():
    size = np.int64(3)
    config = ModelConfig(view_dims=(size,), latent_dim=size, n_clusters=size, likelihood="gaussian",
                         encoder_hidden=(size,), decoder_hidden=(size,))
    sizes = (*config.view_dims, config.latent_dim, config.n_clusters, *config.encoder_hidden, *config.decoder_hidden)
    assert all(type(size) is int for size in sizes)


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
    enc, dec = model.encoder_graph(0), model.decoder_graph()
    assert enc.inputs == ["x"] and {"mu", "logvar"} <= {node.name for node in enc.nodes}
    heads = {"mu0", "mu1"} if kind == "bernoulli" else {"mu0", "mu1", "logvar0", "logvar1"}
    assert dec.inputs == ["z"] and heads <= {node.name for node in dec.nodes}
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
    with pytest.raises(LoadError) as caught:
        Model.load(tmp_path / "m")
    archive = tmp_path / "m" / "params.bin"
    assert str(caught.value) == f"parameter archive {archive}: enc1_b0 is (7,), the descriptor gives (6,)"


def test_model_archive_mismatch_detected(tmp_path):
    model = randomized_model(tiny_config("gaussian"), seed=31)
    model.save(tmp_path / "m")
    other = randomized_model(tiny_config("bernoulli"), seed=31)
    other.params.save(tmp_path / "m" / "params.bin", include_moments=False)
    # the first name in sorted order whose shape differs: view 0's decoder head bias
    with pytest.raises(LoadError, match=r"archive .*params\.bin: dec0_b2 is \(4,\), the descriptor gives \(8,\)$"):
        Model.load(tmp_path / "m")


@pytest.mark.parametrize("edit, named", [
    (lambda values: values.pop("gmm_means"), "gmm_means is missing, the descriptor gives (3, 2)"),
    (lambda values: values.update(extra=np.zeros(2)), "extra is (2,), the descriptor gives none"),
], ids=["missing", "extra"])
def test_model_archive_with_a_parameter_missing_or_extra_names_it(tmp_path, edit, named):
    model = randomized_model(tiny_config("gaussian"), seed=34)
    model.save(tmp_path / "m")
    values = {name: model.params[name] for name in model.params.names()}
    edit(values)
    ParamStore(values.items()).save(tmp_path / "m" / "params.bin", include_moments=False)
    with pytest.raises(LoadError) as caught:
        Model.load(tmp_path / "m")
    assert str(caught.value) == f"parameter archive {tmp_path / 'm' / 'params.bin'}: {named}"
