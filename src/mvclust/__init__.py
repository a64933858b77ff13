"""Multi-view clustering through a shared generative latent space."""

from .data import (
    LoadError,
    MultiViewDataset,
    NormalizationRecord,
    batch_iter,
    load_dataset,
    normalize,
    save_dataset,
    synth_generate,
)
from .metrics import accuracy, ari, contingency, hungarian, nmi, purity
from .model import (
    LatentPosterior,
    Model,
    ModelConfig,
    assign_clusters,
    decode,
    elbo_terms,
    fused_posterior,
    generate,
    model_inputs,
    responsibilities,
)
from .numgrad import Graph, GraphError, NumericError, ParamStore, backward, forward
from .training import (
    KMeansResult,
    TrainConfig,
    TrainResult,
    evaluate,
    init_gmm,
    kmeans,
    load_checkpoint,
    pretrain_autoencoders,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
