"""End-to-end CLI behavior; every command is checked against the library."""

import json
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from mvclust import LoadError, Model, assign_clusters, fused_posterior, generate, load_dataset
from mvclust.cli import main
from mvclust.seeding import rng_for
from mvclust.training import load_checkpoint, save_checkpoint


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


def test_train_has_no_seed_flag(workspace, tmp_path, capsys):
    # the config file's `seed` is the run's one seed
    with pytest.raises(SystemExit) as info:
        main(["train", "--manifest", str(workspace["manifest"]), "--config", str(workspace["config"]),
              "--out", str(tmp_path / "o"), "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config, named",
    [
        ([3], "config.json must hold a JSON object"),
        ({}, "config.json is missing the required fields ['n_clusters']"),
        ({"n_clusters": 3, "batch_size": "256"}, "config.json: batch_size must be int, got '256'"),
        ({"n_clusters": 3, "eval_every": -5}, "eval_every must be >= 0"),
        ({"n_clusters": 3, "checkpoint_every": -1}, "checkpoint_every must be >= 0"),
        ({"n_clusters": 3, "likelihood": "poisson"}, "config.json has unknown fields ['likelihood']"),
        ({"n_clusters": 3, "encoder_hidden": [0]}, "encoder_hidden[0] must be >= 1, got 0"),
        ({"n_clusters": 500}, "n_clusters 500 exceeds the 120 rows of dataset 'demo'"),
    ],
    ids=["not-an-object", "missing-field", "wrong-type", "negative-eval-every", "negative-checkpoint-every",
         "unknown-likelihood", "encoder-hidden-zero", "more-clusters-than-rows"],
)
def test_bad_config_file_exits_2_naming_the_file_or_field(workspace, tmp_path, capsys, config, named):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main([
        "train", "--manifest", str(workspace["manifest"]), "--config", str(config_path), "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "o" / "model").exists()


def test_malformed_config_json_exits_2_naming_the_file(workspace, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"n_clusters": 3,\n}')
    code = main([
        "train", "--manifest", str(workspace["manifest"]), "--config", str(config_path), "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and f"config file {config_path} is not valid JSON" in err
    assert not (tmp_path / "o" / "model").exists()


def test_a_numeric_failure_exits_1_with_only_the_error_line(tmp_path, capsys):
    spec = {"n_clusters": 2, "n_views": 2, "n": 20, "latent_dim": 2, "separation": 4.0, "view_dims": [3, 3], "seed": 0}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    config = {"n_clusters": 2, "latent_dim": 2, "learning_rate": 1e30, "encoder_hidden": [4], "decoder_hidden": [4]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = main([
        "train", "--manifest", str(tmp_path / "data" / "manifest.json"), "--config", str(tmp_path / "config.json"),
        "--out", str(tmp_path / "o"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: pretrain view 0 stage 0 epoch ")
    assert "non-finite values" in captured.err
    assert not (tmp_path / "o" / "model").exists()


def test_train_has_no_embeddings_flag(workspace, tmp_path, capsys):
    # `mvclust embed --model OUT/model` exports the embeddings of a trained run
    with pytest.raises(SystemExit) as info:
        main(["train", "--manifest", str(workspace["manifest"]), "--config", str(workspace["config"]),
              "--out", str(tmp_path / "o"), "--embeddings"])
    assert info.value.code == 2
    assert "unrecognized arguments: --embeddings" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_artifacts(workspace, capsys):
    out = workspace["out"]
    assert (out / "model" / "descriptor.json").exists()
    assert (out / "model" / "params.bin").exists()
    assert (out / "config.json").exists()
    assert (out / "history.csv").exists()
    assert (out / "metrics.txt").exists()
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


def test_an_archive_whose_record_names_its_kind_assigns_the_same_labels(workspace, tmp_path):
    # archives written before the record lost its "kind" key still load
    model_dir = tmp_path / "model"
    shutil.copytree(workspace["model"], model_dir)
    descriptor = json.loads((model_dir / "descriptor.json").read_text())
    assert sorted(descriptor["normalization"]) == ["offsets", "scales"]
    _damage_descriptor(model_dir, lambda d: d["normalization"].update(kind="gaussian"))
    labels = {}
    for tag, model in (("new", workspace["model"]), ("old", model_dir)):
        labels[tag] = tmp_path / f"{tag}.txt"
        argv = ["assign", "--model", str(model), "--manifest", str(workspace["manifest"]), "--out", str(labels[tag])]
        assert main(argv) == 0
    assert labels["old"].read_bytes() == labels["new"].read_bytes()


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


def _scores(text):
    return dict(line.split(": ") for line in text.strip().splitlines())


def test_train_scores_the_final_model_when_it_evaluated_no_epoch(workspace, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**json.loads(workspace["config"].read_text()), "eval_every": 0}))
    run, pred = tmp_path / "run", tmp_path / "pred.txt"
    manifest = ["--manifest", str(workspace["manifest"])]
    assert main(["train", *manifest, "--config", str(config_path), "--out", str(run)]) == 0
    assert main(["assign", "--model", str(run / "model"), *manifest, "--out", str(pred)]) == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(pred), "--truth", str(workspace["manifest"].parent / "labels.txt")]) == 0
    assert _scores((run / "metrics.txt").read_text()) == _scores(capsys.readouterr().out)


def test_train_on_an_unlabeled_manifest_writes_no_metrics(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["manifest"].parent, data)
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest["labels"]
    (data / "manifest.json").write_text(json.dumps(manifest))
    run = tmp_path / "run"
    assert main(["train", "--manifest", str(data / "manifest.json"), "--config", str(workspace["config"]),
                 "--out", str(run)]) == 0
    assert (run / "model" / "params.bin").exists()
    assert not (run / "metrics.txt").exists()
    assert "acc:" not in capsys.readouterr().out


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


@pytest.mark.parametrize("command", ["assign", "embed"])
def test_data_naming_another_likelihood_exits_2(workspace, tmp_path, capsys, command):
    manifest = json.loads(workspace["manifest"].read_text())
    manifest["likelihood"] = "bernoulli"
    shutil.copytree(workspace["manifest"].parent, tmp_path / "data")
    (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out.txt"
    code = main([
        command, "--model", str(workspace["model"]),
        "--manifest", str(tmp_path / "data" / "manifest.json"), "--out", str(out),
    ])
    assert code == 2 and not out.exists()
    assert "names likelihood 'bernoulli', the model's is 'gaussian'" in capsys.readouterr().err


# the flags each command reads a file or directory from
_INPUT_FLAGS = {"train": ("--manifest", "--config"), "synth": ("--spec",), "eval": ("--pred", "--truth"),
                "assign": ("--model", "--manifest")}
_FILE_INPUTS = [("assign", "--manifest"), ("train", "--config"), ("synth", "--spec"), ("eval", "--pred"),
                ("eval", "--truth")]


@pytest.mark.parametrize(
    "command, flag, kind",
    [*((command, flag, kind) for command, flag in _FILE_INPUTS for kind in ("missing", "directory")),
     ("assign", "--model", "missing"), ("assign", "--model", "params-directory")],
)
def test_an_unreadable_input_path_exits_2_naming_it(workspace, tmp_path, capsys, command, flag, kind):
    path = named = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "params-directory":
        shutil.copytree(workspace["model"], path)
        named = path / "params.bin"
        named.unlink()
        named.mkdir()
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n")
    paths = {"--model": workspace["model"], "--manifest": workspace["manifest"], "--config": workspace["config"],
             "--pred": labels, "--truth": labels, flag: path}
    argv = [command, *(arg for f in _INPUT_FLAGS[command] for arg in (f, str(paths[f])))]
    out = tmp_path / "out"
    assert main(argv if command == "eval" else [*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_a_view_csv_without_rows_exits_2_with_only_the_error_line(workspace, tmp_path, capsys, text):
    data = tmp_path / "data"
    shutil.copytree(workspace["manifest"].parent, data)
    (data / "view1.csv").write_text(text)
    argv = ["assign", "--model", str(workspace["model"]), "--manifest", str(data / "manifest.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print a second stderr line
        assert main([*argv, "--out", str(tmp_path / "l.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: view 'view1': {data / 'view1.csv'} has shape (0, 1), manifest declares (120, 4)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, name", [("assign", "l.txt"), ("embed", "z.csv")])
def test_a_write_into_a_missing_directory_exits_2_naming_the_file(workspace, tmp_path, capsys, command, name):
    out = tmp_path / "nodir" / name
    argv = [command, "--model", str(workspace["model"]), "--manifest", str(workspace["manifest"]), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, name", [("assign", "l.txt"), ("embed", "z.csv")])
def test_a_write_onto_a_directory_exits_2_leaving_it_as_it_was(workspace, tmp_path, capsys, command, name):
    out = tmp_path / name
    out.mkdir()
    (out / "kept.txt").write_text("kept\n")
    argv = [command, "--model", str(workspace["model"]), "--manifest", str(workspace["manifest"]), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"Is a directory: {str(out)!r}\n")
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == [out / "kept.txt"]
    assert (out / "kept.txt").read_text() == "kept\n"


def test_an_out_path_the_system_refuses_exits_2(tmp_path, capsys):
    # any OSError is a bad input; this one is a name longer than a file system takes
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_clusters": 2, "n_views": 1, "n": 5, "latent_dim": 2, "separation": 1.0,
                                "view_dims": [3], "seed": 0}))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / ("x" * 300) / "data")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File name too long" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [spec]


@pytest.mark.parametrize("command", ["train", "generate"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_an_out_directory_that_is_a_file_exits_2_naming_it(workspace, tmp_path, capsys, command, under):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "run" if under else afile
    argv = {
        "train": ["train", "--manifest", str(workspace["manifest"]), "--config", str(workspace["config"])],
        "generate": ["generate", "--model", str(workspace["model"]), "--cluster", "0", "--count", "2"],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(afile) in err
    assert afile.read_text() == "kept\n" and list(tmp_path.iterdir()) == [afile]


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


def test_eval_rejects_a_negative_label(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    pred.write_text("0\n-1\n")
    truth = tmp_path / "truth.txt"
    truth.write_text("0\n1\n")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 2
    err = capsys.readouterr().err
    assert "pred.txt row 1: label -1 out of range" in err


@pytest.mark.parametrize("which", ["pred", "truth"])
@pytest.mark.parametrize(
    "token", ["1_0", "\u0663", "\u00a01", "1\u20282"],
    ids=["underscore", "arabic-indic-three", "no-break-space", "line-separator"],
)
def test_eval_rejects_a_label_not_in_ascii_digits(tmp_path, capsys, which, token):
    files = {"pred": tmp_path / "pred.txt", "truth": tmp_path / "truth.txt"}
    for name, path in files.items():
        path.write_text(f"0\n{token}\n" if name == which else "0\n1\n")
    assert main(["eval", "--pred", str(files["pred"]), "--truth", str(files["truth"])]) == 2
    assert f"{which}.txt row 1: {token!r} is not an integer" in capsys.readouterr().err


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
    for v, want in enumerate(generate(model, 1, noise)):
        got = np.loadtxt(out_dir / f"view{v}.csv", delimiter=",", ndmin=2)
        assert got.shape == (6, model.config.view_dims[v])
        assert np.allclose(got, want, atol=0, rtol=0)


def test_generate_seed_deterministic(workspace, tmp_path):
    dirs = [tmp_path / "g1", tmp_path / "g2"]
    for d in dirs:
        assert main([
            "generate", "--model", str(workspace["model"]), "--cluster", "0",
            "--count", "3", "--seed", "4", "--out", str(d),
        ]) == 0
    assert (dirs[0] / "view0.csv").read_bytes() == (dirs[1] / "view0.csv").read_bytes()


@pytest.mark.parametrize("seed", ["-1", str(2**64)], ids=["negative", "beyond-64-bits"])
def test_generate_rejects_a_seed_outside_64_bits(workspace, tmp_path, capsys, seed):
    out = tmp_path / "gen"
    argv = ["generate", "--model", str(workspace["model"]), "--cluster", "0", "--count", "2", "--seed", seed]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_of_no_samples_exits_2(workspace, tmp_path, capsys):
    out = tmp_path / "gen"
    argv = ["generate", "--model", str(workspace["model"]), "--cluster", "0", "--count", "0", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --count must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("site", ["config-file", "model-descriptor", "synth-spec"])
def test_a_json_object_its_target_refuses_exits_2_naming_the_file(workspace, tmp_path, capsys, site):
    # TrainConfig, ModelConfig and synth_generate are built from a file by one
    # rule: a ValueError of theirs reads "WHERE PATH: message"
    out = tmp_path / "out"
    if site == "model-descriptor":
        shutil.copytree(workspace["model"], tmp_path / "model")
        path = _damage_descriptor(tmp_path / "model", lambda d: d["model"].update(latent_dim=0))
        argv = ["assign", "--model", str(tmp_path / "model"), "--manifest", str(workspace["manifest"])]
    elif site == "config-file":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_clusters": 3, "latent_dim": 0}))
        argv = ["train", "--manifest", str(workspace["manifest"]), "--config", str(path)]
    else:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_clusters": 2, "n_views": 1, "n": 5, "latent_dim": 0, "separation": 1.0,
                                    "view_dims": [3], "seed": 0}))
        argv = ["synth", "--spec", str(path)]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {site.replace('-', ' ')} {path}: latent_dim must be >= 1, got 0\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "spec, named",
    [
        ({"n_clusters": 2, "n_views": 1}, "missing the required fields ['n', 'latent_dim', 'separation', 'view_dims', 'seed']"),
        ({"n_clusters": 2, "n_views": 1, "n": 5, "latent_dim": 2, "separation": 1.0, "view_dims": 3, "seed": 0},
         "view_dims must be tuple[int, ...], got 3"),
        ({"n_clusters": "two", "n_views": 1, "n": 5, "latent_dim": 2, "separation": 1.0, "view_dims": [3], "seed": 0},
         "n_clusters must be int, got 'two'"),
        ({"n_clusters": 2, "n_views": 1, "n": 5, "latent_dim": 2, "separation": 1.0, "view_dims": [3], "seed": 0,
          "likelihood": "poisson"}, "likelihood must be one of"),
        ([3], "spec.json must hold a JSON object"),
    ],
    ids=["missing-fields", "view-dims-not-a-list", "count-not-a-number", "unknown-likelihood", "not-an-object"],
)
def test_bad_synth_spec_exits_2_naming_the_field(tmp_path, capsys, spec, named):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "d" / "manifest.json").exists()


def _damage_descriptor(model_dir, edit):
    path = model_dir / "descriptor.json"
    descriptor = json.loads(path.read_text())
    edit(descriptor)
    path.write_text(json.dumps(descriptor))
    return path


# how each damaged descriptor differs from the one train wrote
_DESCRIPTOR_DAMAGE = {
    "descriptor-without-model": lambda d: d.pop("model"),
    "descriptor-unknown-field": lambda d: d["model"].update(depth=3),
    "descriptor-format-version-7": lambda d: d.update(format_version=7),
    "descriptor-record-of-one-view": lambda d: [d["normalization"][key].pop() for key in ("offsets", "scales")],
    "descriptor-record-of-other-dim": lambda d: d["normalization"]["scales"][1].pop(),
    "descriptor-record-nan-offset": lambda d: d["normalization"]["offsets"][0].__setitem__(0, float("nan")),
}


# how each damaged manifest differs from one of three rows and a one-column
# view, and the field its error names
_MANIFEST_DAMAGE = {
    "manifest-views-not-a-list": ({"views": 5}, "views"),
    "manifest-n-not-a-number": ({"n": None}, "n"),
    "manifest-no-rows": ({"n": 0}, "n"),
    "manifest-no-views": ({"views": []}, "views"),
    "manifest-zero-dim-second-view": ({"views": [{"name": "v", "path": "v.csv", "dim": 1},
                                                 {"name": "w", "path": "w.csv", "dim": 0}]}, "dim"),
}


@pytest.mark.parametrize("damage", [*_DESCRIPTOR_DAMAGE, *_MANIFEST_DAMAGE, "params-name-not-utf8"])
def test_damaged_archive_or_manifest_exits_2_naming_the_file(workspace, tmp_path, capsys, damage):
    model_dir, manifest = tmp_path / "model", workspace["manifest"]
    shutil.copytree(workspace["model"], model_dir)
    if damage in _DESCRIPTOR_DAMAGE:
        named = _damage_descriptor(model_dir, _DESCRIPTOR_DAMAGE[damage])
    elif damage == "params-name-not-utf8":
        named = model_dir / "params.bin"
        raw = bytearray(named.read_bytes())
        raw[24 + 2] = 0xFF  # the first name byte, after the 24-byte file header and the u16 name length
        named.write_bytes(bytes(raw))
    else:
        manifest = named = tmp_path / "manifest.json"
        bad, field = _MANIFEST_DAMAGE[damage]
        (tmp_path / "v.csv").write_text("")  # every damage is found before the view is read
        manifest.write_text(json.dumps({"name": "x", "n": 3, "views": [{"name": "v", "path": "v.csv", "dim": 1}],
                                        **bad}))
    code = main(["assign", "--model", str(model_dir), "--manifest", str(manifest), "--out", str(tmp_path / "l.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(named) in err
    if damage in _MANIFEST_DAMAGE:
        assert f": {field} must" in err
    assert not (tmp_path / "l.txt").exists()


# (input file, its damage, the field the error must name); each input is
# written by the workspace run, so the damage is the only fault
_BAD_FIELDS = {
    "config-unknown-field": ("config", lambda d: d.update(momentum=0.9), "momentum"),
    "config-missing-field": ("config", lambda d: d.pop("n_clusters"), "n_clusters"),
    "config-float-count": ("config", lambda d: d.update(epochs=4.0), "epochs"),
    "config-infinite-rate": ("config", lambda d: d.update(learning_rate=float("inf")), "learning_rate"),
    "config-rate-beyond-float": ("config", lambda d: d.update(learning_rate=10**400), "learning_rate"),
    "config-lr-decay": ("config", lambda d: d.update(lr_decay=0.9), "lr_decay"),
    "config-decay-every": ("config", lambda d: d.update(decay_every=10), "decay_every"),
    "config-likelihood": ("config", lambda d: d.update(likelihood="gaussian"), "likelihood"),
    "config-seed-beyond-64-bits": ("config", lambda d: d.update(seed=2**64), "seed"),
    "synth-unknown-field": ("synth", lambda d: d.update(depth=3), "depth"),
    "synth-unsettable-parameter": ("synth", lambda d: d.update(return_latent=True), "return_latent"),
    "synth-missing-field": ("synth", lambda d: d.pop("seed"), "seed"),
    "synth-float-count-and-string-seed": ("synth", lambda d: d.update(n=7.9, seed="3"), "n"),
    "synth-string-seed": ("synth", lambda d: d.update(seed="3"), "seed"),
    "synth-negative-seed": ("synth", lambda d: d.update(seed=-1), "seed"),
    "synth-seed-beyond-64-bits": ("synth", lambda d: d.update(seed=2**64), "seed"),
    "synth-nan-separation": ("synth", lambda d: d.update(separation=float("nan")), "separation"),
    "synth-zero-view-dim": ("synth", lambda d: d.update(view_dims=[3, 0]), "view_dims"),
    "synth-negative-noise": ("synth", lambda d: d.update(noise=-0.1), "noise"),
    "synth-negative-separation": ("synth", lambda d: d.update(separation=-1.0), "separation"),
    "synth-separation-beyond-float": ("synth", lambda d: d.update(separation=10**400), "separation"),
    "descriptor-unknown-field": ("descriptor", lambda d: d["model"].update(depth=3), "depth"),
    "descriptor-missing-field": ("descriptor", lambda d: d["model"].pop("latent_dim"), "latent_dim"),
    "descriptor-string-dims": ("descriptor", lambda d: d["model"].update(view_dims="45"), "view_dims"),
    "descriptor-float-latent-dim": ("descriptor", lambda d: d["model"].update(latent_dim=2.0), "latent_dim"),
    "manifest-missing-field": ("manifest", lambda d: d.pop("n"), "n"),
    "manifest-string-count": ("manifest", lambda d: d.update(n="120"), "n"),
    "manifest-float-dim": ("manifest", lambda d: d["views"][1].update(dim=2.9), "dim"),
    "manifest-zero-dim": ("manifest", lambda d: d["views"][1].update(dim=0), "dim"),
    "manifest-view-missing-field": ("manifest", lambda d: d["views"][0].pop("path"), "path"),
    "manifest-number-path": ("manifest", lambda d: d["views"][0].update(path=5), "path"),
    "manifest-number-labels": ("manifest", lambda d: d.update(labels=5), "labels"),
    "state-missing-field": ("state", lambda d: d.pop("epoch_next"), "epoch_next"),
    "state-string-epoch": ("state", lambda d: d.update(epoch_next="1"), "epoch_next"),
    "state-history-of-strings": ("state", lambda d: d.update(elbo_history=["-1.0"]), "elbo_history"),
    "state-metrics-not-objects": ("state", lambda d: d.update(metrics_history=[1]), "metrics_history"),
    "state-missing-metrics": ("state", lambda d: d.pop("metrics_history"), "metrics_history"),
    "state-epoch-not-history-length": ("state", lambda d: d.update(epoch_next=2), "epoch_next"),
}


@pytest.mark.parametrize("case", list(_BAD_FIELDS))
def test_every_json_input_names_the_file_and_the_field(workspace, tmp_path, capsys, case):
    what, damage, field = _BAD_FIELDS[case]
    model, data = tmp_path / "model", tmp_path / "data"
    shutil.copytree(workspace["model"], model)
    shutil.copytree(workspace["manifest"].parent, data)
    save_checkpoint(model, Model.load(model), 1, [-1.0], [])
    paths = {"config": tmp_path / "config.json", "synth": tmp_path / "synth.json", "state": model / "state.json",
             "descriptor": model / "descriptor.json", "manifest": data / "manifest.json"}
    shutil.copy(workspace["config"], paths["config"])
    shutil.copy(workspace["root"] / "synth.json", paths["synth"])
    path = paths[what]
    obj = json.loads(path.read_text())
    damage(obj)
    path.write_text(json.dumps(obj))
    if what == "state":
        with pytest.raises(LoadError) as info:
            load_checkpoint(model)
        err = str(info.value)
    else:
        out = ["--out", str(tmp_path / "out")]
        argv = {
            "config": ["train", "--manifest", str(paths["manifest"]), "--config", str(path), *out],
            "synth": ["synth", "--spec", str(path), *out],
        }.get(what, ["assign", "--model", str(model), "--manifest", str(paths["manifest"]), *out])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    assert str(path) in err
    assert re.search(rf"'{field}'|: {field}(\[\d+\])? must be", err), err


@pytest.mark.parametrize("what", ["descriptor", "state"])
def test_unsupported_format_version_is_rejected_naming_the_file(workspace, tmp_path, what):
    model = tmp_path / "model"
    save_checkpoint(model, Model.load(workspace["model"]), 1, [-1.0], [])
    path = model / f"{what}.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": 3}))
    with pytest.raises(LoadError, match=rf"{re.escape(str(path))} has format_version 3"):
        load_checkpoint(model)


def _artifact_commands(workspace, tmp_path):
    """(argv, artifact) for every file a command writes besides the model archive."""
    model = ["--model", str(workspace["model"])]
    manifest = ["--manifest", str(workspace["manifest"])]
    train = ["train", *manifest, "--config", str(workspace["config"]), "--out", str(tmp_path / "run")]
    synth = ["synth", "--spec", str(workspace["root"] / "synth.json"), "--out", str(tmp_path / "data")]
    generate = ["generate", *model, "--cluster", "0", "--count", "3", "--out", str(tmp_path / "g")]
    return {
        "assign labels": (["assign", *model, *manifest, "--out", str(tmp_path / "l.txt")], tmp_path / "l.txt"),
        "embed": (["embed", *model, *manifest, "--out", str(tmp_path / "z.csv")], tmp_path / "z.csv"),
        "generate view": (generate, tmp_path / "g" / "view0.csv"),
        "dataset view": (synth, tmp_path / "data" / "view0.csv"),
        "dataset labels": (synth, tmp_path / "data" / "labels.txt"),
        "manifest": (synth, tmp_path / "data" / "manifest.json"),
        "metrics.txt": (train, tmp_path / "run" / "metrics.txt"),
        "history.csv": (train, tmp_path / "run" / "history.csv"),
        "config echo": (train, tmp_path / "run" / "config.json"),
    }


@pytest.mark.parametrize(
    "artifact",
    ["assign labels", "embed", "generate view", "dataset view", "dataset labels", "manifest",
     "metrics.txt", "history.csv", "config echo"],
)
def test_failed_artifact_write_leaves_the_previous_file(workspace, tmp_path, monkeypatch, capsys, artifact):
    argv, target = _artifact_commands(workspace, tmp_path)[artifact]
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(b"previous\n")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == target:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main(argv) == 2  # an OSError, like every unusable path
    assert capsys.readouterr().err == "error: disk full\n"
    assert target.read_bytes() == b"previous\n"
    assert [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")] == []
