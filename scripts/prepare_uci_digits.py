#!/usr/bin/env python3
"""Convert the UCI handwritten-digits feature files into a dataset directory.

The six ``mfeat-*`` files (https://archive.ics.uci.edu/dataset/72) each hold
2000 whitespace-separated rows ordered by digit (200 rows per class). This
script rewrites them with ``mvclust.save_dataset`` as headerless CSV
matrices plus a labels file and a manifest that ``mvclust train`` can
consume:

    python scripts/prepare_uci_digits.py --src /path/to/mfeat --out data/uci_digits
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from mvclust import MultiViewDataset, save_dataset

VIEWS = [
    ("pix", "mfeat-pix", 240),
    ("fou", "mfeat-fou", 76),
    ("fac", "mfeat-fac", 216),
    ("zer", "mfeat-zer", 47),
    ("kar", "mfeat-kar", 64),
    ("mor", "mfeat-mor", 6),
]
N_SAMPLES = 2000
SAMPLES_PER_CLASS = 200


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the six mfeat-* files")
    parser.add_argument("--out", required=True, help="dataset directory to create")
    args = parser.parse_args(argv)

    src = Path(args.src)
    matrices = []
    for name, filename, dim in VIEWS:
        path = src / filename
        if not path.exists():
            print(f"error: missing feature file {path}", file=sys.stderr)
            return 2
        matrix = np.loadtxt(path)
        if matrix.shape != (N_SAMPLES, dim):
            print(f"error: {path} has shape {matrix.shape}, expected ({N_SAMPLES}, {dim})", file=sys.stderr)
            return 2
        matrices.append(matrix)

    dataset = MultiViewDataset(
        name="uci_digits",
        view_names=[name for name, _, _ in VIEWS],
        matrices=matrices,
        labels=np.repeat(np.arange(10), SAMPLES_PER_CLASS),
        likelihood="bernoulli",
    )
    print(f"manifest: {save_dataset(dataset, args.out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
