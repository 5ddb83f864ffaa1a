"""pyrcnn benchmark: one run of one workload.

    python3 perfbench/run.py --workload greedy_default --seed 1 --seconds 15 --trace 0

Run from the repository root.  The engine is imported from ``src/`` of the
same checkout.  BLAS is pinned to one thread (pyrcnn is single-core by
design; small GEMMs only lose to BLAS threading).  ``--trace 0`` prints the
end-to-end metrics, timed in seconds at reference speed (speed.py), and
``--trace 1`` the per-layer metrics from a separate, span-recording run
plus a kernel probe.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  The line before it
records the environment.  Inputs are made from ``--seed``; scratch files go
to ``.bench_work/`` and are removed, except the result and the span dump.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src, spec = ROOT / "src", ROOT / "BENCHMARK.json"
    if not spec.is_file() or not (src / "pyrcnn").is_dir():
        print(f"error: no BENCHMARK.json or pyrcnn sources under {ROOT}",
              file=sys.stderr)
        return 2
    bench = json.loads(spec.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r} (have "
              f"{', '.join(names)})", file=sys.stderr)
        return 2

    from workloads import FULL, BenchError, run

    base = ROOT / ".bench_work"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = base / f"{tag}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     work, FULL[args.workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]][0],
                           "unit": result["metrics"][m["name"]][1]}
               for m in declared}
    env = environment(args.seed)
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    (base / "results").mkdir(parents=True, exist_ok=True)
    (base / "results" / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "environment": env,
         "failures": result["failures"], "samples": result["samples"],
         **line}, indent=1), encoding="utf-8")
    if result["tracer"] is not None:
        (base / "traces").mkdir(parents=True, exist_ok=True)
        result["tracer"].write(base / "traces" / f"{tag}.jsonl")
        if result["tracer"].missing:
            print(f"note: bindings not found, spans absent: "
                  f"{', '.join(result['tracer'].missing)}", file=sys.stderr)
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
