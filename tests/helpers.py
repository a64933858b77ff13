"""Shared test utilities: tiny models, finite differences, small oracles."""

import itertools

import numpy as np

from mvclust import Model, ModelConfig, backward, forward
from mvclust.model import LOGVAR_MAX, LOGVAR_MIN


def tiny_config(kind, latent_dim=2, n_clusters=3):
    return ModelConfig(
        view_dims=(4, 5),
        latent_dim=latent_dim,
        n_clusters=n_clusters,
        likelihood=kind,
        encoder_hidden=(6, 5),
        decoder_hidden=(5, 6),
    )


def randomized_model(config, seed, scale=0.4):
    """A model whose every parameter is random, so no gradient is
    structurally zero."""
    model = Model.initialize(config, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for name in model.params.names():
        model.params.set_value(name, scale * rng.standard_normal(model.params[name].shape))
    return model


def random_views(config, n, seed):
    rng = np.random.default_rng(seed)
    if config.likelihood == "bernoulli":
        return [rng.uniform(0.05, 0.95, (n, d)) for d in config.view_dims]
    return [rng.standard_normal((n, d)) for d in config.view_dims]


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_gradient_errors(graph, inputs, params, loss="loss", h=1e-5):
    """Worst relative error between backward() and central differences,
    checked for every entry of every parameter."""
    params.zero_grads()
    values = forward(graph, inputs, params)
    backward(graph, values, loss, params)
    worst = 0.0
    worst_at = None
    for name in params.names():
        flat = params[name].reshape(-1)
        grad = params.grad(name).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(forward(graph, inputs, params)[loss])
            flat[i] = orig - h
            down = float(forward(graph, inputs, params)[loss])
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = rel_err(grad[i], fd)
            if err > worst:
                worst, worst_at = err, (name, i, float(grad[i]), fd)
    return worst, worst_at


def softmax(x):
    """Simplex weights ``exp(x - max x) / sum``, in float64."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max())
    return e / e.sum()


def mixture_moments(params):
    """(weights, means, variances) of a mapping's mixture parameters, in
    float64: the softmax of ``mix_logits``, ``gmm_means``, and the exp of the
    clamped ``gmm_logvars``."""
    logvars = np.clip(np.asarray(params["gmm_logvars"], dtype=np.float64), LOGVAR_MIN, LOGVAR_MAX)
    return softmax(params["mix_logits"]), np.asarray(params["gmm_means"], dtype=np.float64), np.exp(logvars)


def mixture_params(weights, means, variances):
    """Mixture parameters with the given weights, means and variances."""
    return {"mix_logits": np.log(weights), "gmm_means": np.asarray(means), "gmm_logvars": np.log(variances)}


def gamma_direct(z, weights, means, variances, floor=1e-10):
    """Density-ratio responsibilities computed without log-space tricks."""
    z = np.asarray(z, dtype=np.float64)
    dens = np.empty(len(weights))
    for c in range(len(weights)):
        diff = z - means[c]
        norm = np.prod(1.0 / np.sqrt(2.0 * np.pi * variances[c]))
        dens[c] = weights[c] * norm * np.exp(-0.5 * np.sum(diff * diff / variances[c]))
    gamma = dens / dens.sum()
    gamma = np.clip(gamma, floor, 1.0)
    return gamma / gamma.sum()


def brute_force_accuracy(pred, true):
    """Best one-to-one mapping score by enumerating all permutations."""
    pred = np.asarray(pred)
    true = np.asarray(true)
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(true, return_inverse=True)
    size = max(pi.max(), ti.max()) + 1
    table = np.zeros((size, size), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    best = 0
    for perm in itertools.permutations(range(size)):
        best = max(best, sum(table[i, perm[i]] for i in range(size)))
    return best / len(pred)
