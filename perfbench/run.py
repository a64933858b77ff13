"""Benchmark of mvclust: time to a clustering, ELBO-step cost, and
checkpoint/assign throughput.

    python3 perfbench/run.py --workload fit-gauss-2v --seed 0 --seconds 40 --trace 0

One run sets the workload up, then repeats its operation until ``--seconds``
is spent, checking each operation's output. It sets the workload up again
after each operation while there have been fewer than five set-ups or they
have taken less than a sixth of the run so far (``setup_s`` is the median);
``--seconds`` counts the set-ups too. ``op_s`` is the median untraced
operation. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, which holds the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its per-layer
metrics with ``--trace 1``. A traced run alternates untraced and
traced operations; per-layer numbers come from the traced ones and the
tracing overhead from comparing the two.

Other modes:

    --workload all        every workload in one process, one report; its
                          peak_rss_mb is the process's peak so far, so only a
                          single-workload run gives a workload's own peak
    --scale full          the full criterion-5 protocol (minutes per fit)
    --scale smoke         tiny shapes, seconds per run (the benchmark's test)
    --sweep               seeds 0-4 of both fit workloads, ACC/NMI report,
                          at full scale unless --scale says otherwise

Everything the run writes goes under ``--out`` (default ``.bench_out`` at the
repository root): a results file per run, the spans of a traced run, and a
work directory that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _prepare_environment() -> None:
    """BLAS threads at most the CPUs this process may use; then the program
    from this checkout's ``src``, never from anywhere else."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)
    src = ROOT / "src"
    if not (src / "mvclust" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}/mvclust")
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"perfbench: no BENCHMARK.json at {ROOT}")
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("smoke", "bench", "full"), help="default: full with --sweep, else bench")
    parser.add_argument("--sweep", action="store_true", help="seed sweep of the fit workloads instead of a run")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)
    args.scale = args.scale or ("full" if args.sweep else "bench")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _prepare_environment()
    from runner import WORKLOADS, Run, sweep

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.out.mkdir(parents=True, exist_ok=True)
    if args.sweep:
        print(json.dumps({"sweep": sweep(args.scale, args.out)}))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    results = {
        name: Run(WORKLOADS[name], args.seed, args.scale, args.seconds, args.trace, args.out).execute(spec)
        for name in names
    }
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "workloads": results,
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
