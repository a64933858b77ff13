"""End-to-end CLI behavior; every command is checked against the library."""

import json

import numpy as np
import pytest

from mvclust import Model, assign_clusters, fused_posterior, generate, load_dataset
from mvclust.cli import main
from mvclust.seeding import rng_for


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthetic dataset plus one trained run, shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = {
        "name": "demo",
        "n_clusters": 3,
        "n_views": 2,
        "n": 120,
        "latent_dim": 2,
        "separation": 8.0,
        "view_dims": [5, 4],
        "seed": 3,
        "noise": 0.2,
        "likelihood": "gaussian",
    }
    spec_path = root / "synth.json"
    spec_path.write_text(json.dumps(spec))
    data_dir = root / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == 0

    config = {
        "n_clusters": 3,
        "latent_dim": 2,
        "learning_rate": 1e-3,
        "epochs": 4,
        "batch_size": 32,
        "pretrain_epochs": 2,
        "finetune_epochs": 3,
        "seed": 1,
        "encoder_hidden": [8, 6],
        "decoder_hidden": [6, 8],
        "eval_every": 2,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = root / "run"
    code = main([
        "train",
        "--manifest", str(data_dir / "manifest.json"),
        "--config", str(config_path),
        "--out", str(out_dir),
        "--embeddings",
    ])
    assert code == 0
    return {
        "root": root,
        "manifest": data_dir / "manifest.json",
        "config": config_path,
        "out": out_dir,
        "model": out_dir / "model",
    }


def test_missing_manifest_exits_2(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_clusters": 2}))
    code = main([
        "train", "--manifest", str(tmp_path / "nope.json"),
        "--config", str(config), "--out", str(tmp_path / "o"),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "nope.json" in captured.err


def test_train_rejects_a_negative_seed_flag(workspace, tmp_path, capsys):
    code = main([
        "train", "--manifest", str(workspace["manifest"]),
        "--config", str(workspace["config"]), "--out", str(tmp_path / "o"), "--seed", "-1",
    ])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o" / "model").exists()


def test_train_artifacts(workspace, capsys):
    out = workspace["out"]
    assert (out / "model" / "descriptor.json").exists()
    assert (out / "model" / "params.bin").exists()
    assert (out / "config.json").exists()
    assert (out / "history.csv").exists()
    assert (out / "metrics.txt").exists()
    assert (out / "embeddings.csv").exists()
    echo = json.loads((out / "config.json").read_text())
    assert echo["config"]["seed"] == 1
    report = (out / "metrics.txt").read_text()
    for key in ("acc:", "nmi:", "ari:", "purity:"):
        assert key in report


def test_train_is_seed_deterministic(workspace):
    rerun = workspace["root"] / "run2"
    code = main([
        "train",
        "--manifest", str(workspace["manifest"]),
        "--config", str(workspace["config"]),
        "--out", str(rerun),
    ])
    assert code == 0
    assert (rerun / "metrics.txt").read_bytes() == (workspace["out"] / "metrics.txt").read_bytes()
    assert (rerun / "history.csv").read_bytes() == (workspace["out"] / "history.csv").read_bytes()


def test_assign_matches_library(workspace, tmp_path):
    out_file = tmp_path / "labels.txt"
    code = main([
        "assign", "--model", str(workspace["model"]),
        "--manifest", str(workspace["manifest"]), "--out", str(out_file),
    ])
    assert code == 0
    got = np.array([int(v) for v in out_file.read_text().split()])
    dataset = load_dataset(workspace["manifest"])
    model = Model.load(workspace["model"])
    expected = assign_clusters(model, model.normalization.apply(dataset.matrices))
    assert got.shape[0] == dataset.n
    assert np.array_equal(got, expected)


def test_assign_on_a_float32_trained_archive_matches_the_run_in_process(workspace, tmp_path):
    from mvclust import TrainConfig, train

    dataset = load_dataset(workspace["manifest"])
    result = train(dataset, TrainConfig.from_file(workspace["config"]), out_dir=tmp_path / "run")
    assert result.model.params.dtype == np.float32
    in_process = assign_clusters(result.model, result.model.normalization.apply(dataset.matrices))
    out_file = tmp_path / "labels.txt"
    code = main([
        "assign", "--model", str(tmp_path / "run" / "model"),
        "--manifest", str(workspace["manifest"]), "--out", str(out_file),
    ])
    assert code == 0
    assert np.array_equal(np.array([int(v) for v in out_file.read_text().split()]), in_process)


def test_train_evaluates_labelled_data_once(workspace, tmp_path, monkeypatch):
    import mvclust.cli
    import mvclust.training

    calls = []
    original = mvclust.training.evaluate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mvclust.training, "evaluate", counted)
    monkeypatch.setattr(mvclust.cli, "evaluate", counted)
    config = json.loads(workspace["config"].read_text())
    config["eval_every"] = config["epochs"]  # train() scores the last epoch only
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    rerun = tmp_path / "run"
    assert main([
        "train", "--manifest", str(workspace["manifest"]), "--config", str(config_path), "--out", str(rerun),
    ]) == 0
    assert len(calls) == 1
    assert (rerun / "metrics.txt").read_bytes() == (workspace["out"] / "metrics.txt").read_bytes()


def test_train_metrics_report_matches_assign_then_eval(workspace, tmp_path, capsys):
    # the report must score the same labels `assign` produces (i.e. the
    # model's normalization record is applied before encoding)
    pred = tmp_path / "pred.txt"
    assert main([
        "assign", "--model", str(workspace["model"]),
        "--manifest", str(workspace["manifest"]), "--out", str(pred),
    ]) == 0
    capsys.readouterr()
    truth = workspace["manifest"].parent / "labels.txt"
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 0
    from_eval = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
    report = (workspace["out"] / "metrics.txt").read_text()
    from_train = dict(line.split(": ") for line in report.strip().splitlines())
    assert from_train == from_eval


def test_assign_is_stable(workspace, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert main([
            "assign", "--model", str(workspace["model"]),
            "--manifest", str(workspace["manifest"]), "--out", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_assign_dim_mismatch_diagnosed(workspace, tmp_path, capsys):
    other = tmp_path / "other"
    spec = {
        "name": "bad", "n_clusters": 2, "n_views": 2, "n": 10, "latent_dim": 2,
        "separation": 1.0, "view_dims": [3, 4], "seed": 0,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    main(["synth", "--spec", str(spec_path), "--out", str(other)])
    code = main([
        "assign", "--model", str(workspace["model"]),
        "--manifest", str(other / "manifest.json"), "--out", str(tmp_path / "x.txt"),
    ])
    assert code == 2
    assert "view dims" in capsys.readouterr().err


def test_eval_identical_files(tmp_path, capsys):
    labels = tmp_path / "l.txt"
    labels.write_text("0\n0\n1\n1\n2\n")
    assert main(["eval", "--pred", str(labels), "--truth", str(labels)]) == 0
    out = capsys.readouterr().out
    scores = dict(line.split(": ") for line in out.strip().splitlines())
    assert float(scores["acc"]) == 1.0
    assert float(scores["nmi"]) == 1.0
    assert float(scores["ari"]) == 1.0
    assert float(scores["purity"]) == 1.0


def test_eval_hand_instance_through_cli(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("\n".join("00112") + "\n")
    truth.write_text("\n".join("11022") + "\n")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 0
    scores = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
    assert float(scores["acc"]) == pytest.approx(0.8)


def test_eval_empty_file_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    full = tmp_path / "full.txt"
    full.write_text("0\n1\n")
    assert main(["eval", "--pred", str(empty), "--truth", str(full)]) == 2
    assert "empty" in capsys.readouterr().err


def test_eval_count_mismatch(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("0\n1\n")
    b = tmp_path / "b.txt"
    b.write_text("0\n1\n2\n")
    assert main(["eval", "--pred", str(a), "--truth", str(b)]) == 2
    assert "differ" in capsys.readouterr().err


def test_embed_matches_library(workspace, tmp_path):
    out_file = tmp_path / "emb.csv"
    code = main([
        "embed", "--model", str(workspace["model"]),
        "--manifest", str(workspace["manifest"]), "--out", str(out_file),
    ])
    assert code == 0
    emb = np.loadtxt(out_file, delimiter=",", ndmin=2)
    dataset = load_dataset(workspace["manifest"])
    model = Model.load(workspace["model"])
    expected = fused_posterior(model, model.normalization.apply(dataset.matrices)).mean
    assert emb.shape == (dataset.n, model.config.latent_dim)
    assert np.allclose(emb, expected, atol=0, rtol=0)


def test_generate_outputs(workspace, tmp_path):
    out_dir = tmp_path / "gen"
    code = main([
        "generate", "--model", str(workspace["model"]), "--cluster", "1",
        "--count", "6", "--seed", "9", "--out", str(out_dir),
    ])
    assert code == 0
    model = Model.load(workspace["model"])
    noise = rng_for(9, "generate").standard_normal((6, model.config.latent_dim))
    for v in range(model.config.n_views):
        got = np.loadtxt(out_dir / f"view{v}.csv", delimiter=",", ndmin=2)
        assert got.shape == (6, model.config.view_dims[v])
        assert np.allclose(got, generate(model, v, 1, noise), atol=0, rtol=0)


def test_generate_seed_deterministic(workspace, tmp_path):
    dirs = [tmp_path / "g1", tmp_path / "g2"]
    for d in dirs:
        assert main([
            "generate", "--model", str(workspace["model"]), "--cluster", "0",
            "--count", "3", "--seed", "4", "--out", str(d),
        ]) == 0
    assert (dirs[0] / "view0.csv").read_bytes() == (dirs[1] / "view0.csv").read_bytes()


def test_synth_manifest_loads_back(workspace):
    dataset = load_dataset(workspace["manifest"])
    assert dataset.n == 120
    assert dataset.dims == (5, 4)
    assert dataset.labels is not None
    assert dataset.likelihood == "gaussian"


def test_synth_rejects_unknown_fields(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_clusters": 2, "n_views": 1, "n": 5, "latent_dim": 2,
                                     "separation": 1.0, "view_dims": [3], "bogus": 1}))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
    assert "bogus" in capsys.readouterr().err
