"""Command-line interface: train, assign, eval, embed, generate, synth.

Every command is a thin shell over one library call. Reports are plain
``key: value`` text or CSV; diagnostics go to stderr. Exit codes: 0 on
success, 2 for missing or invalid inputs, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .data import LoadError, load_dataset, save_dataset, synth_generate
from .model import DESCRIPTOR_FILE, Model, assign_clusters, fused_posterior, generate
from .numgrad import GraphError, NumericError
from .seeding import rng_for
from .training import TrainConfig, evaluate, train


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _require_file(path, what) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def _load_model(path) -> Model:
    p = Path(path)
    if not (p / DESCRIPTOR_FILE).exists():
        raise FileNotFoundError(f"model archive not found: {p}")
    return Model.load(p)


def _model_inputs(model: Model, manifest_path):
    dataset = load_dataset(_require_file(manifest_path, "manifest"))
    if dataset.dims != model.config.view_dims:
        raise LoadError(
            f"dataset view dims {dataset.dims} do not match model view dims {model.config.view_dims}"
        )
    mats = dataset.matrices
    if model.normalization is not None:
        mats = model.normalization.apply(mats)
    return dataset, mats


def _metrics_report(scores: dict) -> str:
    return "".join(f"{key}: {scores[key]:.6f}\n" for key in ("acc", "nmi", "ari", "purity"))


def _read_labels(path) -> np.ndarray:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise LoadError(f"label file {path} is empty")
    try:
        return np.array([int(t) for t in lines], dtype=np.int64)
    except ValueError:
        raise LoadError(f"label file {path} must hold one integer per line") from None


def cmd_train(args) -> int:
    manifest = _require_file(args.manifest, "manifest")
    config_path = _require_file(args.config, "config")
    config = TrainConfig.from_file(config_path)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)  # re-validates
    dataset = load_dataset(manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = train(dataset, config, out_dir=out)

    echo = {"manifest": str(manifest), "out": str(out), "config": config.to_dict()}
    (out / "config.json").write_text(json.dumps(echo, indent=2) + "\n")

    print(f"elbo: {result.elbo_history[-1]:.6f}" if result.elbo_history else "elbo: nan")
    # train() already scored its last epoch; only score again when it did not
    scores = result.final_metrics
    if scores is None or scores["epoch"] != config.epochs - 1:
        scores = evaluate(result.model, dataset)
    if scores is not None:
        report = _metrics_report(scores)
        (out / "metrics.txt").write_text(report)
        print(report, end="")
    if args.embeddings:
        data = dataset.matrices
        if result.model.normalization is not None:
            data = result.model.normalization.apply(data)
        emb = fused_posterior(result.model, data).mean
        np.savetxt(out / "embeddings.csv", emb, delimiter=",", fmt="%.17g")
    print(f"artifacts: {out}")
    return 0


def cmd_assign(args) -> int:
    model = _load_model(args.model)
    _, mats = _model_inputs(model, args.manifest)
    labels = assign_clusters(model, mats)
    Path(args.out).write_text("\n".join(str(int(v)) for v in labels) + "\n")
    print(f"labels: {args.out}")
    return 0


def cmd_eval(args) -> int:
    pred = _read_labels(_require_file(args.pred, "predictions file"))
    truth = _read_labels(_require_file(args.truth, "truth file"))
    if pred.shape[0] != truth.shape[0]:
        raise LoadError(f"label counts differ: {pred.shape[0]} vs {truth.shape[0]}")
    scores = {
        "acc": metrics_mod.accuracy(pred, truth),
        "nmi": metrics_mod.nmi(pred, truth),
        "ari": metrics_mod.ari(pred, truth),
        "purity": metrics_mod.purity(pred, truth),
    }
    print(_metrics_report(scores), end="")
    return 0


def cmd_embed(args) -> int:
    model = _load_model(args.model)
    _, mats = _model_inputs(model, args.manifest)
    emb = fused_posterior(model, mats).mean
    np.savetxt(args.out, emb, delimiter=",", fmt="%.17g")
    print(f"embeddings: {args.out}")
    return 0


def cmd_generate(args) -> int:
    model = _load_model(args.model)
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    noise = rng_for(args.seed, "generate").standard_normal((args.count, model.config.latent_dim))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for v in range(model.config.n_views):
        samples = generate(model, v, args.cluster, noise)
        np.savetxt(out / f"view{v}.csv", samples, delimiter=",", fmt="%.17g")
    print(f"samples: {out}")
    return 0


def cmd_synth(args) -> int:
    spec = json.loads(_require_file(args.spec, "synth spec").read_text())
    known = {"name", "n_clusters", "n_views", "n", "latent_dim", "separation", "view_dims", "seed", "noise", "likelihood"}
    unknown = set(spec) - known
    if unknown:
        raise ValueError(f"unknown synth spec fields: {sorted(unknown)}")
    name = spec.pop("name", None)
    dataset = synth_generate(
        n_clusters=int(spec["n_clusters"]),
        n_views=int(spec["n_views"]),
        n=int(spec["n"]),
        latent_dim=int(spec["latent_dim"]),
        separation=float(spec["separation"]),
        view_dims=spec["view_dims"],
        seed=int(spec.get("seed", 0)),
        noise=float(spec.get("noise", 0.1)),
        likelihood=str(spec.get("likelihood", "gaussian")),
    )
    if name:
        dataset.name = str(name)
    manifest = save_dataset(dataset, args.out)
    print(f"manifest: {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvclust", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="pretrain, initialize the mixture, and train the model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--embeddings", action="store_true", help="also export fused posterior means")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("assign", help="write one cluster label per sample")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_assign)

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("embed", help="export fused posterior means as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("generate", help="decode synthetic samples from one mixture component")
    p.add_argument("--model", required=True)
    p.add_argument("--cluster", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("synth", help="generate a synthetic multi-view dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        return _fail(str(exc), 2)
    except (LoadError, ValueError, GraphError) as exc:
        return _fail(str(exc), 2)
    except NumericError as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
