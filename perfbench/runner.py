"""One benchmark run: set-up, the timed operations, their checks, metrics
and the report; and the seed sweep."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time

import mvclust.training as training
from envinfo import environment
from layers import layer_metrics, median
from mvclust.metrics import accuracy
from spans import Tracer, program_targets
from workloads import WORKLOADS, fresh_dir, oracle_labels, oracle_log_posterior

# set up before the first operation, then again after each operation while
# there are fewer than SETUP_REPEATS set-ups or they have taken less than
# SETUP_SHARE of the run so far, so that a fast set-up gets many samples and
# all of them spread over the run; setup_s is their median
SETUP_REPEATS = 5
SETUP_SHARE = 1 / 6
MIN_OPS = 2
SUMMARY_UNITS = {
    "fit_s": "s",
    "elbo_first": "nats",
    "elbo_last10": "nats",
    "acc": "fraction",
    "nmi": "fraction",
    "checkpoint_save_s": "s",
    "checkpoint_load_s": "s",
    "assign_s": "s",
    "assign_samples_per_s": "1/s",
    "near_ties": "count",
}
SWEEP_SEEDS = range(5)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one run -----------------------------------------------------------------


class Run:
    """Set up one workload, operate it for a while, and collect metrics."""

    def __init__(self, workload, seed, scale, seconds, trace, out_dir):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        self.work = out_dir / f"work-{workload.name}-{os.getpid()}"
        self.setup_times = []
        self.ops = []  # (traced, Outcome)
        self.init_accs = []
        self.tracer = None
        self.state = None

    def set_up(self):
        """Set the workload up afresh. The inputs are the same every time, so
        the checks' reference output carries over to the new state."""
        reference = getattr(self.state, "reference", None)
        self.state = None  # the previous set-up's arrays are freed first
        workdir = fresh_dir(self.work / "inputs")
        start = time.perf_counter()
        self.state = self.workload.setup(self.seed, self.scale, workdir)
        self.setup_times.append(time.perf_counter() - start)
        self.state.reference = reference

    def _install(self, tracer):
        tracer.install(program_targets(tracer))
        traced_init = training.init_gmm

        # training.init_acc: ACC of the mixture k-means seeds, read by the
        # benchmark's own oracle in a span of its own so no program span and
        # no self time includes it; uninstall restores the original init_gmm
        def init_gmm_then_score(model, dataset, seed):
            traced_init(model, dataset, seed)
            with tracer.span("perfbench.init_acc_probe"):
                labels, _ = oracle_labels(oracle_log_posterior(model.params, model.config, dataset.matrices))
                self.init_accs.append(accuracy(labels, dataset.labels))

        training.init_gmm = init_gmm_then_score

    def operate(self):
        if self.trace:
            self.tracer = Tracer()
        # --seconds bounds the set-ups, the operations and their checks
        start = time.perf_counter()
        self.set_up()
        while True:
            traced = bool(self.trace) and len(self.ops) % 2 == 1
            if traced:
                self._install(self.tracer)
                try:
                    with self.tracer.span("perfbench.op"):
                        out, payload = self.workload.operate(self.state)
                finally:
                    self.tracer.uninstall()
            else:
                out, payload = self.workload.operate(self.state)
            self.workload.check(self.state, out, payload)
            del payload
            self.ops.append((traced, out))
            if len(self.setup_times) < SETUP_REPEATS:
                self.set_up()
            while sum(self.setup_times) < SETUP_SHARE * (time.perf_counter() - start):
                self.set_up()
            elapsed = time.perf_counter() - start
            typical = median([o.times["op_s"] for _, o in self.ops])
            # stop once another operation would end over half of one past the deadline
            if len(self.ops) >= MIN_OPS and elapsed + 0.5 * typical > self.seconds:
                break

    def end_to_end(self) -> dict:
        plain = [o for traced, o in self.ops if not traced]
        return {
            "setup_s": median(self.setup_times),
            "op_s": median([o.times["op_s"] for o in plain]),
            "peak_rss_mb": peak_rss_mb(),
        }

    def summary(self) -> dict:
        """Medians over untraced operations of every time and figure they report."""
        rows = [{**o.times, **o.figures} for traced, o in self.ops if not traced]
        keys = dict.fromkeys(k for row in rows for k in row if k != "op_s")
        return {k: {"value": median([row[k] for row in rows if k in row]), "unit": SUMMARY_UNITS[k]} for k in keys}

    def per_layer(self) -> dict:
        state = self.state
        traced = [o for t, o in self.ops if t]
        plain = [o for t, o in self.ops if not t]
        figures = self.workload.shape_figures(state)
        metrics = layer_metrics(self.tracer, figures)
        overhead = median([o.times["op_s"] for o in traced]) / median([o.times["op_s"] for o in plain]) - 1.0
        archive = getattr(state, "checkpoint", None)
        metrics.update(
            {
                "perfbench.trace_overhead_pct": 100.0 * overhead,
                "training.init_acc": median(self.init_accs),
                "quality.acc": median([o.figures.get("acc", 0.0) for o in traced]),
                "quality.nmi": median([o.figures.get("nmi", 0.0) for o in traced]),
                "training.elbo_last10": median([o.figures.get("elbo_last10", 0.0) for o in traced]),
                "numgrad.params.archive_mb": (
                    sum(p.stat().st_size for p in archive.iterdir()) / 1e6 if archive and archive.exists() else 0.0
                ),
            }
        )
        return metrics

    def execute(self, spec) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            self.operate()
            metrics = self.per_layer() if self.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        kind = "per_layer" if self.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json {kind}")
        failed = sum(1 for _, o in self.ops if o.failures)
        result = {
            "correct": failed == 0,
            "attempted": len(self.ops),
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
        }
        record = {
            "workload": self.workload.name,
            "seed": self.seed,
            "scale": self.scale,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "environment": environment(),
            "setup_s": self.setup_times,
            "operations": [
                {"traced": t, "times": o.times, "figures": o.figures, "digest": o.digest, "failures": o.failures}
                for t, o in self.ops
            ],
            "summary": self.summary(),
            **result,
        }
        stem = f"{self.workload.name}-seed{self.seed}-{self.scale}-trace{int(self.trace)}"
        (self.out_dir / f"results-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if self.tracer is not None:
            self.tracer.write(self.out_dir / f"spans-{stem}.json")
        report(record)
        return result


def report(record) -> None:
    env = record["environment"]
    blas = env["blas"]
    print(
        f"# {record['workload']} seed={record['seed']} scale={record['scale']} trace={record['trace']} "
        f"| nproc={env['nproc']} {blas['name']} {blas['version']} threads={blas['threads']} "
        f"numpy={env['numpy']} python={env['python']} l3={env['l3_bytes']}"
    )
    for i, op in enumerate(record["operations"]):
        parts = [f"{k}={v:.4f}" for k, v in {**op["times"], **op["figures"]}.items()]
        verdict = "ok" if not op["failures"] else "FAIL " + "; ".join(op["failures"])
        tag = " traced" if op["traced"] else ""
        digest = f" digest={op['digest'][:16]}" if op["digest"] else ""
        print(f"#  op {i}{tag}: {' '.join(parts)}{digest} {verdict}")
    for name, m in {**record["summary"], **record["metrics"]}.items():
        print(f"#  {name} = {m['value']:.6g} {m['unit']}")
    print(f"#  checks: {'PASS' if record['correct'] else 'FAIL'} ({record['failed']} of {record['attempted']} failed)")


# -- other modes ---------------------------------------------------------------


def sweep(scale, out_dir) -> dict:
    """Non-gating: one fit per seed 0-4 of each fit workload; min/mean ACC and NMI."""
    summary = {}
    for name, workload in WORKLOADS.items():
        if not name.startswith("fit-"):
            continue
        rows = []
        for seed in SWEEP_SEEDS:
            work = fresh_dir(out_dir / f"work-sweep-{os.getpid()}")
            try:
                state = workload.setup(seed, scale, work)
                out, payload = workload.operate(state)
                workload.check(state, out, payload)
                del payload
            finally:
                shutil.rmtree(work, ignore_errors=True)
            row = {"seed": seed, "fit_s": out.times["op_s"], **out.figures, "failures": out.failures}
            rows.append(row)
            print(f"# sweep {name} " + " ".join(f"{k}={v}" for k, v in row.items()), flush=True)
        accs = [r.get("acc", 0.0) for r in rows]
        nmis = [r.get("nmi", 0.0) for r in rows]
        summary[name] = {
            "acc_min": min(accs),
            "acc_mean": statistics.fmean(accs),
            "nmi_min": min(nmis),
            "nmi_mean": statistics.fmean(nmis),
            "runs": rows,
        }
    (out_dir / f"sweep-{scale}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return {name: {k: v for k, v in s.items() if k != "runs"} for name, s in summary.items()}
