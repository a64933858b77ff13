#!/usr/bin/env python3
"""Run every mvclust command once on a tiny Gaussian and a tiny Bernoulli set.

Each set gets its own directory under OUT with the synth spec, the dataset,
a trained run (model, checkpoints, history and metrics) and the
outputs of assign, embed, generate and eval. Every command's standard output
goes to ``log.txt`` next to them. All paths inside OUT are relative, so two
tours of the same code give byte-identical trees wherever they run:

    PYTHONPATH=src python scripts/cli_tour.py OUT
    diff -r OUT other-OUT
"""

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from mvclust.cli import main as cli_main

SPEC = {"n_clusters": 3, "n_views": 2, "n": 60, "latent_dim": 2, "separation": 6.0, "view_dims": [5, 4], "seed": 3}
CONFIG = {
    "n_clusters": 3, "latent_dim": 2, "learning_rate": 1e-3, "epochs": 4, "batch_size": 16, "pretrain_epochs": 1,
    "finetune_epochs": 2, "seed": 1, "encoder_hidden": [8, 6], "decoder_hidden": [6, 8],
    "checkpoint_every": 2, "eval_every": 2,
}


def tour(likelihood: str) -> None:
    """Every command on one set, in the current directory."""
    Path("synth.json").write_text(json.dumps({**SPEC, "likelihood": likelihood}) + "\n")
    Path("config.json").write_text(json.dumps(CONFIG) + "\n")
    model, manifest = ["--model", "run/model"], ["--manifest", "data/manifest.json"]
    commands = [
        ["synth", "--spec", "synth.json", "--out", "data"],
        ["train", *manifest, "--config", "config.json", "--out", "run"],
        ["assign", *model, *manifest, "--out", "labels.txt"],
        ["embed", *model, *manifest, "--out", "embeddings.csv"],
        ["generate", *model, "--cluster", "1", "--count", "5", "--seed", "2", "--out", "generated"],
        ["eval", "--pred", "labels.txt", "--truth", "data/labels.txt"],
    ]
    with open("log.txt", "w") as log, contextlib.redirect_stdout(log):
        for argv in commands:
            print("$ mvclust " + " ".join(argv))
            if cli_main(argv) != 0:
                raise SystemExit(f"mvclust {' '.join(argv)} failed in {Path.cwd()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to create; it must not exist")
    out = Path(parser.parse_args(argv).out).resolve()
    out.mkdir(parents=True)
    start = Path.cwd()
    try:
        for likelihood in ("gaussian", "bernoulli"):
            (out / likelihood).mkdir()
            os.chdir(out / likelihood)
            tour(likelihood)
    finally:
        os.chdir(start)
    print(f"tour: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
