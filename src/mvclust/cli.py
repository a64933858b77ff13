"""Command-line interface: train, assign, eval, embed, generate, synth.

Every command is a thin shell over one library call. Reports are plain
``key: value`` text or CSV; diagnostics go to stderr. Exit codes: 0 on
success, 2 for missing or invalid inputs, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import metrics as metrics_mod
from .data import LoadError, json_args, json_field, load_dataset, load_json, load_labels, save_dataset, save_json
from .data import save_labels, save_matrix, synth_generate
from .model import Model, assign_clusters, fused_posterior, generate, model_inputs
from .numgrad import NumericError
from .numgrad.params import write_atomic
from .seeding import check_int, rng_for
from .training import TrainConfig, evaluate, train


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _metrics_report(scores: dict) -> str:
    return "".join(f"{key}: {scores[key]:.6f}\n" for key in metrics_mod.SCORE_NAMES)


def cmd_train(args) -> int:
    manifest = Path(args.manifest)
    config = TrainConfig.from_file(args.config)
    dataset = load_dataset(manifest)
    out = Path(args.out)
    result = train(dataset, config, out_dir=out)

    save_json(out / "config.json", {"manifest": str(manifest), "out": str(out), "config": dataclasses.asdict(config)})

    print(f"elbo: {result.elbo_history[-1]:.6f}" if result.elbo_history else "elbo: nan")
    # train() already scored its last epoch; only score again when it did not
    scores = result.final_metrics
    if dataset.labels is not None and (scores is None or scores["epoch"] != config.epochs - 1):
        scores = evaluate(result.model, model_inputs(result.model, dataset), dataset.labels)
    if scores is not None:
        report = _metrics_report(scores)
        write_atomic(out / "metrics.txt", [report.encode()])
        print(report, end="")
    print(f"artifacts: {out}")
    return 0


def cmd_assign(args) -> int:
    model = Model.load(args.model)
    mats = model_inputs(model, load_dataset(args.manifest))
    save_labels(args.out, assign_clusters(model, mats))
    print(f"labels: {args.out}")
    return 0


def cmd_eval(args) -> int:
    pred = load_labels(args.pred, None)
    truth = load_labels(args.truth, None)
    print(_metrics_report(metrics_mod.scores(pred, truth)), end="")
    return 0


def cmd_embed(args) -> int:
    model = Model.load(args.model)
    save_matrix(args.out, fused_posterior(model, model_inputs(model, load_dataset(args.manifest))).mean)
    print(f"embeddings: {args.out}")
    return 0


def cmd_generate(args) -> int:
    model = Model.load(args.model)
    check_int("--count", args.count, 1)
    noise = rng_for(args.seed, "generate").standard_normal((args.count, model.config.latent_dim))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for v, samples in enumerate(generate(model, args.cluster, noise)):
        save_matrix(out / f"view{v}.csv", samples)
    print(f"samples: {out}")
    return 0


def cmd_synth(args) -> int:
    spec, where = load_json(args.spec, "synth spec"), f"synth spec {args.spec}"
    name = json_field(spec, "name", "str | None", where)
    spec.pop("name", None)
    kwargs = json_args(spec, synth_generate, where)  # its own errors name the spec already
    try:
        dataset = synth_generate(**kwargs)
    except ValueError as exc:
        raise LoadError(f"{where}: {exc}") from exc
    if name:
        dataset.name = name
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
    except (FileNotFoundError, FileExistsError, NotADirectoryError, IsADirectoryError, ValueError) as exc:
        return _fail(str(exc), 2)
    except NumericError as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
