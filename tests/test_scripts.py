"""The scripts: dataset preparation on fabricated feature files, and the CLI tour."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from mvclust import load_dataset

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name="prepare_uci_digits"):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prepare_digits_dataset_roundtrip(tmp_path):
    script = _load_script()
    rng = np.random.default_rng(0)
    src = tmp_path / "raw"
    src.mkdir()
    for _, filename, dim in script.VIEWS:
        np.savetxt(src / filename, rng.uniform(0, 6, (2000, dim)), fmt="%.6g")
    out = tmp_path / "dataset"
    assert script.main(["--src", str(src), "--out", str(out)]) == 0

    dataset = load_dataset(out / "manifest.json")
    assert dataset.n == 2000
    assert dataset.dims == (240, 76, 216, 47, 64, 6)
    assert dataset.likelihood == "bernoulli"
    assert np.array_equal(np.unique(dataset.labels), np.arange(10))
    assert np.array_equal(dataset.labels[:200], np.zeros(200))


def test_prepare_digits_missing_file(tmp_path, capsys):
    script = _load_script()
    assert script.main(["--src", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert "mfeat-pix" in capsys.readouterr().err


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


def test_cli_tour_is_byte_identical_across_runs(tmp_path):
    tour = _load_script("cli_tour")
    for name in ("a", "b"):
        assert tour.main([str(tmp_path / name)]) == 0
    first, second = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert "bernoulli/run/checkpoint-0004/params.bin" in first and "gaussian/generated/view1.csv" in first
    assert first == second
