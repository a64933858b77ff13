"""Shared-latent multi-view VAE with a Gaussian-mixture prior.

Each view v has its own encoder producing a Gaussian posterior
(mu_v, log sigma_v^2) over the shared latent z; the per-view posteriors are
fused by simplex weights w = exp(f - logsumexp f) of free logits f into

    mu    = sum_v w_v * mu_v
    sigma2 = sum_v w_v * exp(log sigma_v^2)

The latent prior is a K-component diagonal-Gaussian mixture, and each view
has its own decoder (Bernoulli or Gaussian likelihood). Training maximizes
a closed-form evidence lower bound built from four terms: per-view
reconstruction, a responsibility-weighted Gaussian cross term, a
categorical term sum_c gamma_c * log(pi_c / gamma_c), and the posterior
entropy term 0.5 * sum_j (1 + log sigma2_j).

Fusion (the view weights, each exp(log sigma_v^2) and their combination),
the mixture (log pi, means, clamped log-variances) and the responsibilities
gamma are defined once, by the node builders ``fusion_nodes``,
``mixture_nodes`` and ``_gamma_nodes``: the ELBO graph calls them, and
``fused_posterior``, ``responsibilities`` and ``generate`` forward small
graphs of them. Every inference call forwards its graphs over chunks of rows,
holding one chunk's value table plus what it returns. One decoder graph
decodes every view from one shared z; every operation takes (n, d) matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import FORMAT_VERSION, LIKELIHOODS, LoadError, NormalizationRecord, check_batch, check_format_version
from .data import MultiViewDataset, json_args, json_field, load_json, save_json
from .numgrad import Graph, ParamStore, as_tensor, forward
from .seeding import check_int, check_ints, rng_for

LOG_2PI = math.log(2.0 * math.pi)
LOGVAR_MIN = -15.0
LOGVAR_MAX = 15.0
BERNOULLI_EPS = 1e-10
GAMMA_FLOOR = 1e-10

PARAMS_FILE = "params.bin"
DESCRIPTOR_FILE = "descriptor.json"

# rows per inference forward: one chunk's value table is all an inference call holds besides its result
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
        object.__setattr__(self, "view_dims", check_ints("view_dims", self.view_dims, 1))
        if not self.view_dims:
            raise ValueError("view_dims must name at least one view")
        check_architecture(self)
        if self.likelihood not in LIKELIHOODS:
            raise ValueError(f"likelihood must be one of {LIKELIHOODS}, got {self.likelihood!r}")

    @property
    def n_views(self) -> int:
        return len(self.view_dims)


def check_architecture(config) -> None:
    """Check the fields every model config has, naming the offender; cast
    latent_dim and n_clusters to int and the hidden widths to int tuples."""
    for name in ("encoder_hidden", "decoder_hidden"):
        object.__setattr__(config, name, check_ints(name, getattr(config, name), 1))
    for name in ("latent_dim", "n_clusters"):
        object.__setattr__(config, name, check_int(name, getattr(config, name), 1))


@dataclass
class LatentPosterior:
    """Fused posterior mean and variance of the shared latent, per sample."""

    mean: np.ndarray
    var: np.ndarray


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
    head columns (so every variance starts at 1) and zero biases; each
    layer is drawn in float64 straight into its slice of a ``dtype`` store."""
    store = ParamStore.zeros(param_shapes(config), dtype)
    for name, v, i, fan_in, fan_out, head in _dense_layers(config):
        scale = math.sqrt(1.0 / fan_in) if head else math.sqrt(2.0 / fan_in)
        rng = rng_for(seed, "init-enc" if name is _enc else "init-dec", v, i)
        w = store[name(v, i, "w")]
        w[...] = rng.normal(0.0, scale, size=(fan_in, fan_out))
        if head and (name is _enc or config.likelihood == "gaussian"):
            w[:, fan_out // 2 :] = 0.0  # the log-variance half of a (mean, log-variance) head
    means = store["gmm_means"]
    means[...] = 0.01 * rng_for(seed, "init-gmm").normal(size=means.shape)
    return store


# -- graph builders -----------------------------------------------------------


def _dense_stack(g: Graph, layer, view: int, widths, h: str) -> str:
    """Append the dense layers ``layer(view, i, ...)`` of ``widths`` to ``h``,
    ReLU after every one but the last; returns the last layer's output."""
    for i in range(len(widths) - 1):
        h = g.linear(h, g.param(layer(view, i, "w")), g.param(layer(view, i, "b")), relu=i < len(widths) - 2)
    return h


def _gaussian_head(g: Graph, h: str, d: int, names) -> tuple[str, str]:
    """Split a (mean, log-variance) head of width 2d into the mean and the
    clamped log-variance, named ``names``."""
    mu = g.slice(h, axis=1, start=0, stop=d, name=names[0])
    return mu, g.clip(g.slice(h, axis=1, start=d, stop=2 * d), LOGVAR_MIN, LOGVAR_MAX, name=names[1])


def encoder_nodes(g: Graph, config: ModelConfig, view: int, x: str, names=(None, None)) -> tuple[str, str]:
    """Append the view encoder to ``g``; returns (mean, clamped log-variance) named ``names``."""
    h = _dense_stack(g, _enc, view, _layer_widths(config, view)[0], x)
    return _gaussian_head(g, h, config.latent_dim, names)


def decoder_nodes(g: Graph, config: ModelConfig, view: int, z: str, names=(None, None), logits=False):
    """Append the view decoder; returns the Bernoulli mean (its logits when
    ``logits`` is set), or the Gaussian (mean, logvar), named ``names``."""
    h = _dense_stack(g, _dec, view, _layer_widths(config, view)[1], z)
    if config.likelihood == "gaussian":
        return _gaussian_head(g, h, config.view_dims[view], names)
    return h if logits else g.clip(g.sigmoid(h), BERNOULLI_EPS, 1.0 - BERNOULLI_EPS, name=names[0])


@functools.cache
def build_encoder_graph(config: ModelConfig, view: int) -> Graph:
    g = Graph()
    encoder_nodes(g, config, view, g.input("x"), names=("mu", "logvar"))
    return g


@functools.cache
def build_decoder_graph(config: ModelConfig) -> Graph:
    """Every view's decoder on one input ``z``: outputs ``mu{v}``, and ``logvar{v}`` if Gaussian."""
    g = Graph()
    z = g.input("z")
    for v in range(config.n_views):
        decoder_nodes(g, config, v, z, names=(f"mu{v}", f"logvar{v}"))
    return g


def fusion_nodes(g: Graph, per_view) -> tuple[str, str]:
    """Declare ``fusion_logits`` f and fuse the per-view (mean, clamped
    log-variance) node pairs under the view weights w = exp(f - logsumexp f);
    returns the fused (mean, variance), sum_v w_v * (mu_v, exp(logvar_v))."""
    fusion = g.param("fusion_logits")
    w = g.exp(g.sub(fusion, g.logsumexp(fusion)))  # (m,)
    variances = [g.exp(logvar_v) for _, logvar_v in per_view]
    mu_t = None
    var_t = None
    for v, (mu_v, _) in enumerate(per_view):
        w_v = g.slice(w, axis=0, start=v, stop=v + 1)  # (1,)
        mu_term = g.mul(mu_v, w_v)
        var_term = g.mul(variances[v], w_v)
        mu_t = mu_term if mu_t is None else g.add(mu_t, mu_term)
        var_t = var_term if var_t is None else g.add(var_t, var_term)
    return mu_t, var_t


def mixture_nodes(g: Graph) -> tuple[str, str, str]:
    """Declare the mixture parameters; returns (log pi, means, clamped
    log-variances), with log pi = mix_logits - logsumexp(mix_logits)."""
    mix = g.param("mix_logits")
    log_pi = g.sub(mix, g.logsumexp(mix))  # (K,)
    means = g.param("gmm_means")
    return log_pi, means, g.clip(g.param("gmm_logvars"), LOGVAR_MIN, LOGVAR_MAX)


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


@functools.lru_cache(maxsize=None, typed=True)  # typed: n_samples=True is refused, not a cached 1
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
    n_samples = check_int("n_samples", n_samples, 1)
    m = config.n_views
    J = config.latent_dim
    g = Graph()
    xs = [g.input(f"x{v}") for v in range(m)]
    eps = [g.input(f"eps{l}") for l in range(n_samples)]

    mu_t, var_t = fusion_nodes(g, [encoder_nodes(g, config, v, xs[v]) for v in range(m)])
    sigma_t = g.sqrt(var_t)

    log_pi, means, logvars = mixture_nodes(g)
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

    def decoder_graph(self) -> Graph:
        return build_decoder_graph(self.config)

    def elbo_graph(self, n_samples: int = 1) -> Graph:
        return build_elbo_graph(self.config, n_samples)

    def save(self, directory, include_moments=False) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        descriptor = {"format_version": FORMAT_VERSION, "model": asdict(self.config)}
        if self.normalization is not None:
            record = self.normalization
            descriptor["normalization"] = {k: [a.tolist() for a in getattr(record, k)] for k in ("offsets", "scales")}
        save_json(directory / DESCRIPTOR_FILE, descriptor)
        self.params.save(directory / PARAMS_FILE, include_moments=include_moments)

    @classmethod
    def load(cls, directory) -> "Model":
        directory = Path(directory)
        path = directory / DESCRIPTOR_FILE
        descriptor, where = load_json(path, "model descriptor"), f"model descriptor {path}"
        check_format_version(descriptor, where)
        args = json_args(json_field(descriptor, "model", "dict", where), ModelConfig, where)
        try:
            config = ModelConfig(**args)
        except (TypeError, ValueError) as exc:
            raise LoadError(f"{where} is invalid: {exc}") from None
        normalization = record = json_field(descriptor, "normalization", "dict | None", where)
        if record is not None:
            kind, at = "tuple[tuple[float, ...], ...]", f"{where} normalization"
            offsets, scales = ([as_tensor(a) for a in json_field(record, k, kind, at)] for k in ("offsets", "scales"))
            normalization = NormalizationRecord(offsets, scales)
            have = ([o.shape for o in offsets], [s.shape for s in scales])
            want = ([(d,) for d in config.view_dims],) * 2
            if have != want:
                raise LoadError(f"{where}: normalization (offset shapes, scale shapes) {have} does not fit {want}")
        path = directory / PARAMS_FILE
        params = ParamStore.load(path)
        found, expected = {name: params[name].shape for name in params.names()}, param_shapes(config)
        for name in sorted(found.keys() | expected.keys()):
            have, want = found.get(name, "missing"), expected.get(name, "none")
            if have != want:
                raise LoadError(f"parameter archive {path}: {name} is {have}, the descriptor gives {want}")
        return cls(config, params, normalization)


# -- operations ----------------------------------------------------------------


def _check_views(model: Model, views) -> list[np.ndarray]:
    """One (n, d_v) batch per view of the model, all with the same n."""
    m = model.config.n_views
    if len(views) != m:
        raise ValueError(f"expected {m} views, got {len(views)} (all views are required)")
    mats = [check_batch(views[v], model.config.view_dims[v], f"view {v}") for v in range(m)]
    if any(mat.shape[0] != mats[0].shape[0] for mat in mats):
        raise ValueError("all views must have the same number of rows")
    return mats


def model_inputs(model: Model, dataset: MultiViewDataset) -> list[np.ndarray]:
    """A raw dataset's matrices as the encoders take them: through
    ``model.normalization`` when the model has one. The dataset must have the
    model's view dims and likelihood, or name none; a normalized one raises."""
    if dataset.normalization is not None:
        raise ValueError(f"dataset {dataset.name!r} is already normalized; the model normalizes a raw one")
    if dataset.likelihood not in (None, model.config.likelihood):
        named = f"dataset {dataset.name!r} names likelihood {dataset.likelihood!r}"
        raise ValueError(f"{named}, the model's is {model.config.likelihood!r}")
    if dataset.dims != model.config.view_dims:
        raise ValueError(f"dataset view dims {dataset.dims} do not match model view dims {model.config.view_dims}")
    return dataset.matrices if model.normalization is None else model.normalization.apply(dataset.matrices)


def _chunked(graph: Graph, inputs: dict, params, outputs) -> list[np.ndarray]:
    """Forward ``graph`` in float64 on each ``_INFER_CHUNK`` rows of the (n, ...)
    ``inputs``, one value table alive at a time; returns the named ``outputs``
    as (n, ...) arrays. A batch of 0 rows still gets one forward."""
    n, results = len(next(iter(inputs.values()))), None
    for start in range(0, max(n, 1), _INFER_CHUNK):
        rows = slice(start, start + _INFER_CHUNK)
        values = forward(graph, {name: arr[rows] for name, arr in inputs.items()}, params)
        if results is None:
            results = [np.empty((n, *values[name].shape[1:])) for name in outputs]
        for out, name in zip(results, outputs):
            out[rows] = values[name]
        del values  # before the next chunk's forward
    return results


def decode(model: Model, z) -> list[np.ndarray]:
    """Decoded mean of every view for each z row, one (n, d_v) matrix per
    view: the clipped Bernoulli probabilities or the Gaussian means."""
    arr = check_batch(z, model.config.latent_dim, "latent z")
    outputs = [f"mu{v}" for v in range(model.config.n_views)]
    return _chunked(model.decoder_graph(), {"z": arr}, model.params, outputs)


@functools.cache
def _gamma_graph(J: int) -> tuple[Graph, str]:
    g = Graph()
    return g, _gamma_nodes(g, J, g.input("z"), *mixture_nodes(g))


def responsibilities(z, mixture) -> np.ndarray:
    """Posterior cluster probabilities gamma_c for each z row, in float64,
    under the mixture parameters ``mixture``: a mapping (a ParamStore or a
    dict) holding ``mix_logits``, ``gmm_means`` and ``gmm_logvars``.

    Computed in log space with log-sum-exp normalization, then floored at
    ``GAMMA_FLOOR`` and renormalized so collapsed components cannot produce
    -inf downstream.
    """
    shapes = tuple(np.shape(mixture[name]) for name in ("mix_logits", "gmm_means", "gmm_logvars"))
    if len(shapes[1]) != 2 or shapes != (shapes[1][:1], shapes[1], shapes[1]):
        raise ValueError(f"mix_logits, gmm_means, gmm_logvars must be (K,), (K, J), (K, J), got {shapes}")
    J = shapes[1][1]
    g, gamma = _gamma_graph(J)
    return _chunked(g, {"z": check_batch(z, J, "z")}, mixture, [gamma])[0]


@functools.cache
def _fusion_graph(n_views: int) -> tuple[Graph, str, str]:
    g = Graph()
    return g, *fusion_nodes(g, [(g.input(f"mu{v}"), g.input(f"logvar{v}")) for v in range(n_views)])


def fused_posterior(model: Model, views) -> LatentPosterior:
    """Encode every view and fuse; ``views`` is one matrix per view. Each
    view's encoder graph runs over the chunks, keeping only its mean and
    log-variance, then the ``fusion_nodes`` graph under ``fusion_logits``."""
    mats = _check_views(model, views)
    stats = [_chunked(model.encoder_graph(v), {"x": x}, model.params, ["mu", "logvar"]) for v, x in enumerate(mats)]
    per_view = {f"{k}{v}": a for v, pair in enumerate(stats) for k, a in zip(("mu", "logvar"), pair)}
    g, mu, var = _fusion_graph(model.config.n_views)
    return LatentPosterior(*_chunked(g, per_view, model.params, [mu, var]))


def assign_clusters(model: Model, views) -> np.ndarray:
    """Hard labels: encode, fuse, take z = posterior mean, argmax gamma.

    Ties in the argmax break toward the smallest cluster index.
    """
    post = fused_posterior(model, views)
    gamma = responsibilities(post.mean, model.params)
    return np.argmax(gamma, axis=1)


def elbo_terms(model: Model, views, noise) -> dict:
    """Forward the objective graph of L draws on ``noise`` of shape (L, n, J),
    L >= 1, which sets L; returns per-sample term arrays and the scalar
    batch-mean ELBO under keys recon/gauss_kl/cat_kl/entropy/elbo_samples/elbo.
    Bernoulli models require data in [0, 1]."""
    mats = _check_views(model, views)
    if mats[0].shape[0] == 0:
        raise ValueError("the objective needs at least one row, got an empty batch")
    if model.config.likelihood == "bernoulli":
        for v, arr in enumerate(mats):
            if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
                raise ValueError(f"view {v} data must lie in [0, 1] for the Bernoulli objective")
    eps, shape = as_tensor(noise), (mats[0].shape[0], model.config.latent_dim)
    if eps.ndim != 3 or eps.shape[0] < 1 or eps.shape[1:] != shape:
        raise ValueError(f"noise must have shape (L, {shape[0]}, {shape[1]}) with L >= 1, got {eps.shape}")
    inputs = {f"x{v}": mat for v, mat in enumerate(mats)}
    inputs.update({f"eps{l}": draw for l, draw in enumerate(eps)})
    values = forward(model.elbo_graph(len(eps)), inputs, model.params)
    keys = ("recon", "gauss_kl", "cat_kl", "entropy", "elbo_samples", "elbo")
    return {k: values[k] for k in keys}


@functools.cache
def _draw_graph(cluster: int) -> tuple[Graph, str]:
    """z = mu_c + sqrt(exp(clamped log sigma_c^2)) * eps for row ``cluster`` of ``mixture_nodes``."""
    g = Graph()
    _, means, logvars = mixture_nodes(g)
    row = functools.partial(g.slice, axis=0, start=cluster, stop=cluster + 1)
    return g, g.add(row(means), g.mul(g.sqrt(g.exp(row(logvars))), g.input("eps")))


def generate(model: Model, cluster: int, noise) -> list[np.ndarray]:
    """Draw one z per ``noise`` row from prior component ``cluster``; returns
    every view's decoded means from it (no binarization for Bernoulli views)."""
    K = model.config.n_clusters
    if not 0 <= check_int("cluster", cluster) < K:
        raise ValueError(f"cluster index {cluster} out of range [0, {K})")
    g, z = _draw_graph(cluster)
    eps = check_batch(noise, model.config.latent_dim, "noise")
    return decode(model, _chunked(g, {"eps": eps}, model.params, [z])[0])
