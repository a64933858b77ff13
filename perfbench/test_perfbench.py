"""The benchmark's own test: tiny shapes of every workload, the output
checks, the trace and the JSON contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = {}
    for name in NAMES:
        for trace in (0, 1):
            directory = tmp_path_factory.mktemp(f"{name}-{trace}")
            done = bench("--workload", name, "--seed", "0", "--seconds", "0.5", "--trace", str(trace),
                         "--scale", "smoke", "--out", str(directory))
            assert done.returncode == 0, done.stderr
            out[name, trace] = (json.loads(done.stdout.strip().splitlines()[-1]), directory)
    return out


def test_workloads_match_the_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_last_line_follows_the_contract(smoke_runs, name, trace):
    result, _ = smoke_runs[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        record = json.loads(next(smoke_runs[name, trace][1].glob("results-*.json")).read_text())
        op_times = [op["times"]["op_s"] for op in record["operations"]]
        assert result["metrics"]["op_s"]["value"] == statistics.median(op_times)
        assert len(record["setup_s"]) >= min(5, len(record["operations"]) + 1)
        assert result["metrics"]["setup_s"]["value"] == statistics.median(record["setup_s"])


def test_trace_covers_each_workloads_layers(smoke_runs):
    fit, _ = smoke_runs["fit-gauss-2v", 1]
    for name in ("numgrad.graph.elbo_forward_ms", "numgrad.graph.elbo_backward_ms", "numgrad.params.adam_ms",
                 "training.pretrain_s", "training.elbo_epochs_s", "metrics.score_ms", "training.init_acc"):
        assert fit["metrics"][name]["value"] > 0, name
    assign, directory = smoke_runs["assign-archive", 1]
    for name in ("model.load_ms", "model.fused_posterior_ms", "data.load_dataset_s", "numgrad.params.save_ms",
                 "numgrad.params.load_ms", "cli.assign_self_ms", "numgrad.graph.infer_forward_ms"):
        assert assign["metrics"][name]["value"] > 0, name
    # the bypass: assigning never runs backward, Adam or pretraining
    for name in ("numgrad.graph.elbo_backward_ms", "numgrad.params.adam_ms", "training.optimizer_steps"):
        assert assign["metrics"][name]["value"] == 0, name
    spans = json.loads(next(directory.glob("spans-*.json")).read_text())["spans"]
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert {s["name"] for s in spans if s["parent"] is None} == {"perfbench.op"}


def test_fit_digest_repeats_across_processes(smoke_runs, tmp_path):
    done = bench("--workload", "fit-bern-6v-narrow", "--seconds", "0.5", "--scale", "smoke", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    _, first = smoke_runs["fit-bern-6v-narrow", 0]

    def digests(directory):
        record = json.loads(next(directory.glob("results-*.json")).read_text())
        return {op["digest"] for op in record["operations"]}

    assert len(digests(first)) == 1 and digests(first) == digests(tmp_path)


def test_assign_checks_catch_wrong_outputs(tmp_path):
    workload = workloads.WORKLOADS["assign-archive"]
    state = workload.setup(0, "smoke", tmp_path)
    out, payload = workload.operate(state)
    workload.check(state, out, payload)
    assert out.failures == []

    # one label moved to another cluster
    labels = state.predictions.read_text().split()
    row = int(np.flatnonzero(state.judged)[0])
    labels[row] = str((int(labels[row]) + 1) % 3)
    state.predictions.write_text("\n".join(labels) + "\n")
    bad = workloads.Outcome(dict(out.times))
    workload.check_labels(state, bad)
    assert any("numpy oracle" in f for f in bad.failures)

    # a moment that does not read back
    model, epoch_next, history, metrics_history = payload[0]
    name = model.params.names()[0]
    model.params.moments(name)[0][...] += 1.0
    bad = workloads.Outcome(dict(out.times))
    workload.check_checkpoint(state, (model, epoch_next, history, metrics_history), bad)
    assert any("moments" in f for f in bad.failures)


def test_fit_checks_catch_wrong_outputs(tmp_path):
    workload = workloads.WORKLOADS["fit-gauss-2v"]
    state = workload.setup(0, "smoke", tmp_path)
    out, result = workload.operate(state)
    workload.check(state, out, result)
    assert out.failures == []

    result.elbo_history[:] = [h - 1000.0 * i for i, h in enumerate(result.elbo_history)]
    bad = workloads.Outcome(dict(out.times))
    workload.check(state, bad, result)
    assert any("epoch-0 ELBO" in f for f in bad.failures)
    assert any("determinism digest" in f for f in bad.failures)


def test_oracle_agrees_with_the_program(tmp_path):
    from mvclust.model import assign_clusters

    state = workloads.WORKLOADS["assign-archive"].setup(1, "smoke", tmp_path)
    labels = assign_clusters(state.model, state.normalized)
    assert np.array_equal(labels[state.judged], state.expected[state.judged])


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
