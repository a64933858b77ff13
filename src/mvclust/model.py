"""Shared-latent multi-view VAE with a Gaussian-mixture prior.

Each view v has its own encoder producing a Gaussian posterior
(mu_v, sigma_v^2) over the shared latent z; the per-view posteriors are
fused by simplex weights w (softmax of free logits) into

    mu    = sum_v w_v * mu_v
    sigma2 = sum_v w_v * sigma_v^2

The latent prior is a K-component diagonal-Gaussian mixture, and each view
has its own decoder (Bernoulli or Gaussian likelihood). Training maximizes
a closed-form evidence lower bound built from four terms: per-view
reconstruction, a responsibility-weighted Gaussian cross term, a
categorical term sum_c gamma_c * log(pi_c / gamma_c), and the posterior
entropy term 0.5 * sum_j (1 + log sigma2_j).

Fusion and the responsibilities gamma are defined once, by the node builders
``fusion_nodes`` and ``_gamma_nodes``: the ELBO graph calls them, and
``fuse_posteriors`` and ``responsibilities`` forward small graphs of them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numgrad import Graph, ParamStore, as_tensor, forward
from .numgrad.params import write_atomic
from .seeding import rng_for

LOG_2PI = math.log(2.0 * math.pi)
LOGVAR_MIN = -15.0
LOGVAR_MAX = 15.0
BERNOULLI_EPS = 1e-10
GAMMA_FLOOR = 1e-10
LIKELIHOODS = ("bernoulli", "gaussian")

PARAMS_FILE = "params.bin"
DESCRIPTOR_FILE = "descriptor.json"

# batch size used when pushing whole datasets through the encoders
_INFER_CHUNK = 4096


@dataclass(frozen=True)
class ModelConfig:
    """Architecture descriptor: view dims, latent size, mixture size, widths."""

    view_dims: tuple[int, ...]
    latent_dim: int
    n_clusters: int
    likelihood: str
    encoder_hidden: tuple[int, ...] = (500, 500, 200)
    decoder_hidden: tuple[int, ...] = (2000, 500, 500)

    def __post_init__(self):
        object.__setattr__(self, "view_dims", tuple(int(d) for d in self.view_dims))
        object.__setattr__(self, "encoder_hidden", tuple(int(d) for d in self.encoder_hidden))
        object.__setattr__(self, "decoder_hidden", tuple(int(d) for d in self.decoder_hidden))
        if not self.view_dims or any(d < 1 for d in self.view_dims):
            raise ValueError(f"view_dims must be positive, got {self.view_dims}")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.likelihood not in LIKELIHOODS:
            raise ValueError(f"likelihood must be one of {LIKELIHOODS}, got {self.likelihood!r}")
        if any(w < 1 for w in self.encoder_hidden) or any(w < 1 for w in self.decoder_hidden):
            raise ValueError("hidden widths must be >= 1")

    @property
    def n_views(self) -> int:
        return len(self.view_dims)

    def to_dict(self) -> dict:
        return {
            "view_dims": list(self.view_dims),
            "latent_dim": self.latent_dim,
            "n_clusters": self.n_clusters,
            "likelihood": self.likelihood,
            "encoder_hidden": list(self.encoder_hidden),
            "decoder_hidden": list(self.decoder_hidden),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            view_dims=tuple(d["view_dims"]),
            latent_dim=int(d["latent_dim"]),
            n_clusters=int(d["n_clusters"]),
            likelihood=str(d["likelihood"]),
            encoder_hidden=tuple(d["encoder_hidden"]),
            decoder_hidden=tuple(d["decoder_hidden"]),
        )


@dataclass
class FusionWeights:
    """Free logits whose softmax is the view-weight vector on the simplex."""

    logits: np.ndarray

    def __post_init__(self):
        self.logits = as_tensor(self.logits).reshape(-1)

    @property
    def weights(self) -> np.ndarray:
        return softmax(self.logits)


@dataclass
class GmmPrior:
    """Mixture weights plus per-component diagonal Gaussian moments."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.weights = as_tensor(self.weights).reshape(-1)
        self.means = as_tensor(self.means)
        self.variances = as_tensor(self.variances)
        if self.means.shape != self.variances.shape or self.means.ndim != 2:
            raise ValueError("means and variances must both be (K, J)")
        if self.weights.shape[0] != self.means.shape[0]:
            raise ValueError("weights length must match component count")
        if np.any(self.weights <= 0) or abs(self.weights.sum() - 1.0) > 1e-8:
            raise ValueError("mixture weights must be positive and sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("component variances must be positive")

    @property
    def n_clusters(self) -> int:
        return self.means.shape[0]


@dataclass
class LatentPosterior:
    """Fused posterior mean and variance of the shared latent, per sample."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.mean = as_tensor(self.mean)
        self.var = as_tensor(self.var)
        if self.mean.shape != self.var.shape:
            raise ValueError("mean and var must share a shape")


def softmax(x: np.ndarray) -> np.ndarray:
    x = as_tensor(x)
    e = np.exp(x - np.max(x))
    return e / e.sum()


# -- parameter naming ---------------------------------------------------------


def _enc(v, i, kind):
    return f"enc{v}_{kind}{i}"


def _dec(v, i, kind):
    return f"dec{v}_{kind}{i}"


def _layer_widths(config: ModelConfig, view: int):
    enc = [config.view_dims[view], *config.encoder_hidden, 2 * config.latent_dim]
    head = config.view_dims[view] if config.likelihood == "bernoulli" else 2 * config.view_dims[view]
    dec = [config.latent_dim, *config.decoder_hidden, head]
    return enc, dec


def _dense_layers(config: ModelConfig):
    """(naming function, view, index, fan_in, fan_out, is_head) of every dense layer."""
    for v in range(config.n_views):
        for name, widths in zip((_enc, _dec), _layer_widths(config, v)):
            for i in range(len(widths) - 1):
                yield name, v, i, widths[i], widths[i + 1], i == len(widths) - 2


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The parameter layout: every name and its shape, in parameter order."""
    shapes = {}
    for name, v, i, fan_in, fan_out, _ in _dense_layers(config):
        shapes[name(v, i, "w")] = (fan_in, fan_out)
        shapes[name(v, i, "b")] = (fan_out,)
    K, J = config.n_clusters, config.latent_dim
    shapes.update(fusion_logits=(config.n_views,), mix_logits=(K,), gmm_means=(K, J), gmm_logvars=(K, J))
    return shapes


def init_params(config: ModelConfig, seed: int, dtype=np.float64) -> ParamStore:
    """He-initialized hidden layers, small linear heads, zeroed log-variance
    head columns (so every variance starts at 1), drawn in float64 and
    stored in ``dtype``."""
    values = {name: np.zeros(shape) for name, shape in param_shapes(config).items()}
    for name, v, i, fan_in, fan_out, head in _dense_layers(config):
        scale = math.sqrt(1.0 / fan_in) if head else math.sqrt(2.0 / fan_in)
        rng = rng_for(seed, "init-enc" if name is _enc else "init-dec", v, i)
        w = rng.normal(0.0, scale, size=(fan_in, fan_out))
        if head and (name is _enc or config.likelihood == "gaussian"):
            w[:, fan_out // 2 :] = 0.0  # the log-variance half of a (mean, log-variance) head
        values[name(v, i, "w")] = w
    values["gmm_means"] = 0.01 * rng_for(seed, "init-gmm").normal(size=values["gmm_means"].shape)
    return ParamStore(values.items(), dtype=dtype)


# -- graph builders -----------------------------------------------------------


def encoder_nodes(g: Graph, config: ModelConfig, view: int, x: str, names=(None, None)) -> tuple[str, str]:
    """Append the view encoder to ``g``; returns (mean, clamped log-variance) named ``names``."""
    widths, _ = _layer_widths(config, view)
    h = x
    for i in range(len(widths) - 1):
        h = g.linear(h, g.param(_enc(view, i, "w")), g.param(_enc(view, i, "b")), relu=i < len(widths) - 2)
    J = config.latent_dim
    mu = g.slice(h, axis=1, start=0, stop=J, name=names[0])
    logvar = g.clip(g.slice(h, axis=1, start=J, stop=2 * J), LOGVAR_MIN, LOGVAR_MAX, name=names[1])
    return mu, logvar


def decoder_nodes(g: Graph, config: ModelConfig, view: int, z: str, names=(None, None), logits=False):
    """Append the view decoder; returns the Bernoulli mean (its logits when
    ``logits`` is set), or the Gaussian (mean, logvar), named ``names``."""
    _, widths = _layer_widths(config, view)
    h = z
    for i in range(len(widths) - 1):
        h = g.linear(h, g.param(_dec(view, i, "w")), g.param(_dec(view, i, "b")), relu=i < len(widths) - 2)
    d = config.view_dims[view]
    if config.likelihood == "bernoulli":
        if logits:
            return h
        return g.clip(g.sigmoid(h), BERNOULLI_EPS, 1.0 - BERNOULLI_EPS, name=names[0])
    mu = g.slice(h, axis=1, start=0, stop=d, name=names[0])
    logvar = g.clip(g.slice(h, axis=1, start=d, stop=2 * d), LOGVAR_MIN, LOGVAR_MAX, name=names[1])
    return mu, logvar


@functools.cache
def build_encoder_graph(config: ModelConfig, view: int) -> Graph:
    g = Graph()
    encoder_nodes(g, config, view, g.input("x"), names=("mu", "logvar"))
    return g


@functools.cache
def build_decoder_graph(config: ModelConfig, view: int) -> Graph:
    g = Graph()
    decoder_nodes(g, config, view, g.input("z"), names=("mu", "logvar"))
    return g


def fusion_nodes(g: Graph, per_view, w: str) -> tuple[str, str]:
    """Convex combination of per-view (mean, variance) node pairs under the
    (m,) weight node ``w``; returns the fused (mean, variance)."""
    mu_t = None
    var_t = None
    for v, (mu_v, var_v) in enumerate(per_view):
        w_v = g.slice(w, axis=0, start=v, stop=v + 1)  # (1,)
        mu_term = g.mul(mu_v, w_v)
        var_term = g.mul(var_v, w_v)
        mu_t = mu_term if mu_t is None else g.add(mu_t, mu_term)
        var_t = var_term if var_t is None else g.add(var_t, var_term)
    return mu_t, var_t


def _gamma_nodes(g: Graph, J: int, z: str, log_pi: str, means: str, logvars: str) -> str:
    """Posterior cluster probabilities of z under the mixture, floored and
    renormalized; log-sum-exp normalization happens in log space."""
    z_e = g.expand_dims(z, axis=1)  # (B, 1, J)
    diff2 = g.square(g.sub(z_e, means))  # (B, K, J)
    inv_var = g.exp(g.affine(logvars, scale=-1.0))  # (K, J)
    maha = g.sum(g.mul(diff2, inv_var), axis=2)  # (B, K)
    logdet = g.sum(logvars, axis=1)  # (K,)
    log_n = g.affine(g.add(maha, logdet), scale=-0.5, shift=-0.5 * J * LOG_2PI)
    unnorm = g.add(log_n, log_pi)  # (B, K)
    log_gamma = g.sub(unnorm, g.logsumexp(unnorm, axis=1, keepdims=True))
    gamma = g.clip(g.exp(log_gamma), GAMMA_FLOOR, 1.0)
    return g.div(gamma, g.sum(gamma, axis=1, keepdims=True))


@functools.cache
def build_elbo_graph(config: ModelConfig, n_samples: int = 1) -> Graph:
    """The full training objective as one graph.

    Inputs: x0..x{m-1} (batch per view) and eps0..eps{L-1} (standard-normal
    draws, each (B, J)). Named outputs, all per-sample means over the L
    draws except the final scalars:

      recon, gauss_kl, cat_kl, entropy  -- (B,) objective terms
      elbo_samples                      -- (B,) their sum
      elbo                              -- scalar batch mean
      loss                              -- -elbo, the minimization target
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    m = config.n_views
    J = config.latent_dim
    g = Graph()
    xs = [g.input(f"x{v}") for v in range(m)]
    eps = [g.input(f"eps{l}") for l in range(n_samples)]

    per_view = [encoder_nodes(g, config, v, xs[v]) for v in range(m)]

    fusion = g.param("fusion_logits")
    w = g.exp(g.sub(fusion, g.logsumexp(fusion)))  # (m,)
    mu_t, var_t = fusion_nodes(g, [(mu_v, g.exp(logvar_v)) for mu_v, logvar_v in per_view], w)
    sigma_t = g.sqrt(var_t)

    mix = g.param("mix_logits")
    log_pi = g.sub(mix, g.logsumexp(mix))  # (K,)
    means = g.param("gmm_means")
    logvars = g.clip(g.param("gmm_logvars"), LOGVAR_MIN, LOGVAR_MAX)
    var_c = g.exp(logvars)

    # entropy term is draw-independent: 0.5 * sum_j (1 + log sigma2_j)
    entropy = g.affine(g.sum(g.log(var_t), axis=1), scale=0.5, shift=0.5 * J, name="entropy")

    recon_l, gauss_l, cat_l = [], [], []
    for l in range(n_samples):
        z = g.add(mu_t, g.mul(sigma_t, eps[l]))
        gamma = _gamma_nodes(g, J, z, log_pi, means, logvars)

        ratio = g.div(g.expand_dims(var_t, axis=1), var_c)  # (B, K, J)
        sq = g.div(g.square(g.sub(g.expand_dims(mu_t, axis=1), means)), var_c)
        inner = g.sum(g.add(g.add(ratio, sq), logvars), axis=2)  # (B, K)
        gauss_l.append(g.affine(g.sum(g.mul(gamma, inner), axis=1), scale=-0.5))

        cat_l.append(g.sum(g.mul(gamma, g.sub(log_pi, g.log(gamma))), axis=1))

        recon_v = None
        for v in range(m):
            if config.likelihood == "bernoulli":
                # x log sigmoid(h) + (1 - x) log(1 - sigmoid(h)) = x h - softplus(h),
                # finite however far the logits h saturate, in float32 too
                h = decoder_nodes(g, config, v, z, logits=True)
                ll = g.sub(g.mul(xs[v], h), g.softplus(h))
            else:
                mu_x, logvar_x = decoder_nodes(g, config, v, z)
                sq_x = g.mul(g.square(g.sub(xs[v], mu_x)), g.exp(g.affine(logvar_x, scale=-1.0)))
                ll = g.add(g.affine(logvar_x, scale=-0.5, shift=-0.5 * LOG_2PI), g.affine(sq_x, scale=-0.5))
            r = g.sum(ll, axis=1)  # (B,)
            recon_v = r if recon_v is None else g.add(recon_v, r)
        recon_l.append(recon_v)

    def averaged(parts, name):
        total = parts[0]
        for p in parts[1:]:
            total = g.add(total, p)
        return g.affine(total, scale=1.0 / n_samples, name=name)

    recon = averaged(recon_l, "recon")
    gauss_kl = averaged(gauss_l, "gauss_kl")
    cat_kl = averaged(cat_l, "cat_kl")
    elbo_samples = g.add(g.add(recon, gauss_kl), g.add(cat_kl, entropy), name="elbo_samples")
    elbo = g.mean(elbo_samples, name="elbo")
    g.affine(elbo, scale=-1.0, name="loss")
    return g


# -- the model object ---------------------------------------------------------


class Model:
    """A ModelConfig plus its ParamStore; its graphs are cached per config."""

    def __init__(self, config: ModelConfig, params: ParamStore, normalization=None):
        self.config = config
        self.params = params
        self.normalization = normalization

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int, dtype=np.float64) -> "Model":
        return cls(config, init_params(config, seed, dtype))

    def encoder_graph(self, view: int) -> Graph:
        return build_encoder_graph(self.config, view)

    def decoder_graph(self, view: int) -> Graph:
        return build_decoder_graph(self.config, view)

    def elbo_graph(self, n_samples: int = 1) -> Graph:
        return build_elbo_graph(self.config, n_samples)

    def fusion_weights(self) -> FusionWeights:
        return FusionWeights(self.params["fusion_logits"].copy())

    def prior(self) -> GmmPrior:
        """The mixture in float64, whatever the store's dtype."""
        logvars = np.clip(as_tensor(self.params["gmm_logvars"]), LOGVAR_MIN, LOGVAR_MAX)
        return GmmPrior(
            weights=softmax(self.params["mix_logits"]),
            means=self.params["gmm_means"].copy(),
            variances=np.exp(logvars),
        )

    def save(self, directory, include_moments=False) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        descriptor = {"format_version": 1, "model": self.config.to_dict()}
        if self.normalization is not None:
            descriptor["normalization"] = self.normalization.to_dict()
        write_atomic(directory / DESCRIPTOR_FILE, [(json.dumps(descriptor, indent=2) + "\n").encode()])
        self.params.save(directory / PARAMS_FILE, include_moments=include_moments)

    @classmethod
    def load(cls, directory) -> "Model":
        from .data import NormalizationRecord

        directory = Path(directory)
        descriptor = json.loads((directory / DESCRIPTOR_FILE).read_text())
        config = ModelConfig.from_dict(descriptor["model"])
        params = ParamStore.load(directory / PARAMS_FILE)
        expected = param_shapes(config)
        if set(params.names()) != set(expected) or any(params[n].shape != s for n, s in expected.items()):
            raise ValueError(f"parameter archive does not match descriptor in {directory}")
        norm = descriptor.get("normalization")
        normalization = NormalizationRecord.from_dict(norm) if norm else None
        return cls(config, params, normalization)


# -- operations ----------------------------------------------------------------


def _check_batch(x, dim, what) -> np.ndarray:
    arr = as_tensor(x)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{what} must be (n, {dim}), got shape {np.shape(x)}")
    return arr


def _check_views(model: Model, views) -> list[np.ndarray]:
    """One (n, d_v) batch per view of the model, all with the same n."""
    m = model.config.n_views
    if len(views) != m:
        raise ValueError(f"expected {m} views, got {len(views)} (all views are required)")
    mats = [_check_batch(views[v], model.config.view_dims[v], f"view {v}") for v in range(m)]
    if any(mat.shape[0] != mats[0].shape[0] for mat in mats):
        raise ValueError("all views must have the same number of rows")
    return mats


def encode_view(model: Model, view: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Per-view posterior statistics: (mean, log variance), each (n, J)."""
    if not 0 <= view < model.config.n_views:
        raise ValueError(f"view index {view} out of range")
    arr = _check_batch(x, model.config.view_dims[view], f"view {view} input")
    values = forward(model.encoder_graph(view), {"x": arr}, model.params)
    return values["mu"], values["logvar"]


@functools.cache
def _fusion_graph(n_views: int) -> tuple[Graph, str, str]:
    g = Graph()
    per_view = [(g.input(f"mu{v}"), g.input(f"var{v}")) for v in range(n_views)]
    return g, *fusion_nodes(g, per_view, g.input("w"))


def fuse_posteriors(per_view, weights: FusionWeights) -> LatentPosterior:
    """Convex combination of per-view (mean, variance) pairs."""
    w = weights.weights
    if len(per_view) != w.shape[0]:
        raise ValueError(f"expected {w.shape[0]} views, got {len(per_view)} (all views are required)")
    inputs = {"w": w}
    for v, (mu_v, var_v) in enumerate(per_view):
        inputs[f"mu{v}"], inputs[f"var{v}"] = mu_v, as_tensor(var_v)
        if np.any(inputs[f"var{v}"] <= 0):
            raise ValueError(f"view {v} variances must be positive")
    g, mu, var = _fusion_graph(len(per_view))
    values = forward(g, inputs)
    return LatentPosterior(values[mu], values[var])


def sample_latent(posterior: LatentPosterior, noise) -> np.ndarray:
    """Reparameterized draw z = mean + sqrt(var) * noise."""
    return posterior.mean + np.sqrt(posterior.var) * as_tensor(noise)


def decode_bernoulli(model: Model, view: int, z) -> np.ndarray:
    if model.config.likelihood != "bernoulli":
        raise ValueError("model decoders are not Bernoulli")
    arr = _check_batch(z, model.config.latent_dim, "latent z")
    return forward(model.decoder_graph(view), {"z": arr}, model.params)["mu"]


def decode_gaussian(model: Model, view: int, z) -> tuple[np.ndarray, np.ndarray]:
    if model.config.likelihood != "gaussian":
        raise ValueError("model decoders are not Gaussian")
    arr = _check_batch(z, model.config.latent_dim, "latent z")
    values = forward(model.decoder_graph(view), {"z": arr}, model.params)
    return values["mu"], values["logvar"]


@functools.cache
def _gamma_graph(J: int) -> tuple[Graph, str]:
    g = Graph()
    return g, _gamma_nodes(g, J, *(g.input(name) for name in ("z", "log_pi", "means", "logvars")))


def responsibilities(z, prior: GmmPrior) -> np.ndarray:
    """Posterior cluster probabilities gamma_c for each z row.

    Computed in log space with log-sum-exp normalization, then floored at
    ``GAMMA_FLOOR`` and renormalized so collapsed components cannot produce
    -inf downstream.
    """
    z_arr = as_tensor(z)
    single = z_arr.ndim == 1
    z2 = z_arr[None, :] if single else z_arr
    if z2.ndim != 2 or z2.shape[1] != prior.means.shape[1]:
        raise ValueError(f"z must be (n, {prior.means.shape[1]})")
    g, gamma = _gamma_graph(prior.means.shape[1])
    inputs = {"z": z2, "log_pi": np.log(prior.weights), "means": prior.means, "logvars": np.log(prior.variances)}
    out = forward(g, inputs)[gamma]
    return out[0] if single else out


def fused_posterior(model: Model, views) -> LatentPosterior:
    """Encode every view and fuse; ``views`` is one matrix per view."""
    m = model.config.n_views
    mats = _check_views(model, views)
    n = mats[0].shape[0]
    weights = model.fusion_weights()
    means = np.empty((n, model.config.latent_dim))
    variances = np.empty((n, model.config.latent_dim))
    for start in range(0, n, _INFER_CHUNK):
        sl = slice(start, min(n, start + _INFER_CHUNK))
        stats = []
        for v in range(m):
            mu, logvar = encode_view(model, v, mats[v][sl])
            stats.append((mu, np.exp(logvar)))
        post = fuse_posteriors(stats, weights)
        means[sl] = post.mean
        variances[sl] = post.var
    return LatentPosterior(means, variances)


def assign_clusters(model: Model, views) -> np.ndarray:
    """Hard labels: encode, fuse, take z = posterior mean, argmax gamma.

    Ties in the argmax break toward the smallest cluster index.
    """
    post = fused_posterior(model, views)
    gamma = responsibilities(post.mean, model.prior())
    return np.argmax(gamma, axis=1)


def _normalize_noise(noise, n, latent_dim, n_samples):
    arr = as_tensor(noise)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.shape != (n_samples, n, latent_dim):
        raise ValueError(f"noise must have shape ({n_samples}, {n}, {latent_dim}), got {arr.shape}")
    return arr


def elbo_terms(model: Model, views, noise, n_samples: int = 1) -> dict:
    """Forward the objective graph; returns per-sample term arrays and the
    scalar batch-mean ELBO under keys recon/gauss_kl/cat_kl/entropy/
    elbo_samples/elbo. Bernoulli models require data in [0, 1]."""
    mats = _check_views(model, views)
    if model.config.likelihood == "bernoulli":
        for v, arr in enumerate(mats):
            if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
                raise ValueError(f"view {v} data must lie in [0, 1] for the Bernoulli objective")
    eps = _normalize_noise(noise, mats[0].shape[0], model.config.latent_dim, n_samples)
    inputs = {f"x{v}": mat for v, mat in enumerate(mats)}
    inputs.update({f"eps{l}": eps[l] for l in range(n_samples)})
    values = forward(model.elbo_graph(n_samples), inputs, model.params)
    keys = ("recon", "gauss_kl", "cat_kl", "entropy", "elbo_samples", "elbo")
    return {k: values[k] for k in keys}


def elbo_bernoulli(model: Model, views, noise, n_samples: int = 1) -> float:
    """Per-sample-mean ELBO for binary-normalized data in [0, 1]."""
    if model.config.likelihood != "bernoulli":
        raise ValueError("model decoders are not Bernoulli")
    return float(elbo_terms(model, views, noise, n_samples)["elbo"])


def elbo_gaussian(model: Model, views, noise, n_samples: int = 1) -> float:
    """Per-sample-mean ELBO under Gaussian decoders."""
    if model.config.likelihood != "gaussian":
        raise ValueError("model decoders are not Gaussian")
    return float(elbo_terms(model, views, noise, n_samples)["elbo"])


def generate(model: Model, view: int, cluster: int, noise) -> np.ndarray:
    """Draw z from the chosen prior component and decode view ``view``.

    Returns the decoded mean (no binarization for Bernoulli decoders).
    """
    prior = model.prior()
    if not 0 <= cluster < prior.n_clusters:
        raise ValueError(f"cluster index {cluster} out of range [0, {prior.n_clusters})")
    eps = as_tensor(noise)
    single = eps.ndim == 1
    eps2 = eps[None, :] if single else eps
    if eps2.ndim != 2 or eps2.shape[1] != model.config.latent_dim:
        raise ValueError(f"noise must be (n, {model.config.latent_dim})")
    z = prior.means[cluster] + np.sqrt(prior.variances[cluster]) * eps2
    if model.config.likelihood == "bernoulli":
        out = decode_bernoulli(model, view, z)
    else:
        out = decode_gaussian(model, view, z)[0]
    return out[0] if single else out
