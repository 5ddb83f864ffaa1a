"""Paired A/B runs of the checked-in benchmark between two checkouts.

    python3 tools/bench_pairs.py --parent ../base --change . \
        --workload monolith_fixed --seeds 1-10 --out BENCH_9.json

Runs ``perfbench/run.py --trace 0`` in each checkout, one pair per seed:
both sides get the same seed, and the side that runs first alternates from
pair to pair.  Each run uses its own checkout's benchmark and engine and
the run length that checkout's BENCHMARK.json sets.  The output file holds
the environment line of the first run (BLAS threads included) and, per
workload and end-to-end metric, every run's value, each side's median and
quartiles, in how many pairs the change was better (ties count for
neither side), and a verdict.  A run that exits non-zero is recorded with
its error and counted as failed.

The verdict reads the metric's ``bound`` as a fraction of the parent's
median and is the first of these that holds:

- ``gain``: the change wins at least 9 of every 10 pairs and its median
  is better than the parent's by more than the parent's interquartile
  range;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``unresolved``: either side's interquartile range is wider than the
  bound (or the metric has no bound, or a side has no successful run),
  and not every run of the change is better than every run of the
  parent;
- ``no_worse``: otherwise.

Per workload, each side also makes one traced run (``--trace 1``) on each
of the first three seeds, after the pairs, the side that runs first
alternating as in the pairs.  Their greedy level times, in wall seconds,
and the ratio of each run (slowest level over fastest; 0 without levels)
go under ``level_cost``: every run's values (or its error) and, per
value, the median over the runs that succeeded: the paper's claim that
every level costs about the same, measured on more than one sample.

The end-to-end times are seconds at the reference speed of the meter's
own kernel (``perfbench/speed.py``), and a change that slows that kernel
(a worker thread beside it, say) reads as a gain.  So each untraced
run's wall seconds go under ``wall_s`` too: per timed phase (setup,
train, extract, eval), the median of the run's ``samples.wall`` in
``.bench_work/results/<workload>-seed<N>-trace0.json`` of its checkout,
and per side the median of those over its runs.  A gain in reference
seconds that the wall seconds do not share comes from the meter.

Each side's engine size, the line count of its ``src/pyrcnn/*.py``, goes
under ``source_lines``, so a change that claims less code is measured by
the same tool as its benchmark numbers; the line count of its
``tests/*.py`` goes under ``test_lines``, so code moved from the engine
into the tests shows on both sides.  ``blas_runtime`` holds the
runtime configuration of numpy's OpenBLAS, with the core it runs, as a
process with the runs' environment reads it
(``pyrcnn.telemetry.blas_runtime``; ``unknown`` for another BLAS):
bit-equal results hold for one kernel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_bytes import blas_runtime_in  # noqa: E402

SIDES = ("parent", "change")
LEVEL_COST = ("pyramid.level0_s", "pyramid.level1_s", "pyramid.level2_s",
              "pyramid.level_cost_ratio")
TRACED_SEEDS = 3
WALL_PHASES = ("setup_s", "train_s", "extract_s", "eval_s")


def parse_seeds(text: str) -> list[int]:
    """'1-4,9' -> [1, 2, 3, 4, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: bool = False) -> dict:
    """One benchmark run, untraced or traced: its environment and result
    lines, and for an untraced run its `wall_medians`, or the error it
    ended with."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": proc.stderr.strip()[-2000:] or
                f"exit {proc.returncode}"}
    result = {**json.loads(lines[-2]), **json.loads(lines[-1])}
    if not trace:
        result["wall"] = wall_medians(
            checkout / ".bench_work" / "results"
            / f"{workload}-seed{seed}-trace0.json")
    return result


def wall_medians(path: Path) -> dict:
    """Per timed phase, the median wall seconds of the untraced run whose
    result file is `path` (its `samples.wall`)."""
    wall = json.loads(path.read_text(encoding="utf-8"))["samples"]["wall"]
    return {phase: statistics.median(wall[phase]) for phase in WALL_PHASES}


def summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def verdict(entry: dict) -> str:
    """`gain`, `worse`, `unresolved` or `no_worse` for one metric's
    `compare` entry (see the module docstring)."""
    parent, change = entry["parent"], entry["change"]
    if not parent["n"] or not change["n"]:
        return "unresolved"
    sign = -1.0 if entry["better"] == "lower" else 1.0
    gain = sign * (change["median"] - parent["median"])  # > 0: better
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] > 0 \
            and gain > parent["q3"] - parent["q1"]:
        return "gain"
    bound = entry["bound"]
    scale = abs(parent["median"])
    if bound is not None and -gain > bound * scale:
        return "worse"
    spread = max(side["q3"] - side["q1"] for side in (parent, change))
    # every change run better than every parent run settles any spread
    better = {side: [sign * v for v in entry[side]["runs"] if v is not None]
              for side in SIDES}
    if (bound is None or spread > bound * scale) \
            and min(better["change"]) <= max(better["parent"]):
        return "unresolved"
    return "no_worse"


def compare(runs: dict, declared: list[dict]) -> dict:
    """Per metric: both sides' runs and summaries, the change's wins and
    the verdict."""
    out = {}
    for spec in declared:
        name, better = spec["name"], spec["better"]
        values = {side: [r["metrics"][name]["value"] if "metrics" in r
                         else None for r in runs[side]] for side in SIDES}
        wins = pairs = 0
        for p, c in zip(values["parent"], values["change"]):
            if p is None or c is None:
                continue
            pairs += 1
            wins += c < p if better == "lower" else c > p
        entry = {"unit": spec["unit"], "better": better,
                 "bound": spec.get("bound"), "change_wins": wins,
                 "pairs": pairs}
        for side in SIDES:
            kept = [v for v in values[side] if v is not None]
            entry[side] = {**summary(kept), "runs": values[side]}
        if entry["parent"]["n"] and entry["change"]["n"] \
                and entry["parent"]["median"]:
            entry["change_over_parent"] = \
                entry["change"]["median"] / entry["parent"]["median"]
        entry["verdict"] = verdict(entry)
        out[name] = entry
    return out


def level_cost(run: dict) -> dict:
    """The level times and their ratio from one traced run, or its error."""
    if "metrics" not in run:
        return {"error": run.get("error")}
    return {name: run["metrics"][name]["value"] for name in LEVEL_COST}


def median_level_cost(runs: list[dict]) -> dict:
    """One side's traced runs: each run's `level_cost` with its seed, and
    per value the median over the runs without an error (None if none
    succeeded)."""
    costs = [{"seed": run["seed"], **level_cost(run)} for run in runs]
    kept = [cost for cost in costs if "error" not in cost]
    return {"median": {name: statistics.median(cost[name] for cost in kept)
                       for name in LEVEL_COST} if kept else None,
            "runs": costs}


def median_wall(runs: list[dict]) -> dict:
    """One side's untraced runs: each run's `wall_medians` (None for a run
    that failed) and, per phase, their median over the runs that have
    them (None if none has)."""
    walls = [run.get("wall") for run in runs]
    kept = [wall for wall in walls if wall]
    return {"median": {phase: statistics.median(wall[phase] for wall in kept)
                       for phase in WALL_PHASES} if kept else None,
            "runs": walls}


def python_lines(directory: Path) -> int:
    """Lines (newlines, as ``wc -l`` counts them) of ``directory/*.py``."""
    return sum(path.read_bytes().count(b"\n")
               for path in directory.glob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True,
                    help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name; repeat for several")
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="one pair per seed, e.g. 1-10 or 3,5,11")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    specs = {side: json.loads((path / "BENCHMARK.json").read_text(
        encoding="utf-8")) for side, path in checkouts.items()}
    result = {"command": "perfbench/run.py --trace 0; level_cost: --trace 1 "
                         f"on the first {TRACED_SEEDS} seeds",
              "environment": None, "blas_threads": None,
              "blas_runtime": blas_runtime_in(dict(os.environ)),
              "source_lines": {side: python_lines(path / "src" / "pyrcnn")
                               for side, path in checkouts.items()},
              "test_lines": {side: python_lines(path / "tests")
                             for side, path in checkouts.items()},
              "workloads": {}}
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        order = []
        for k, seed in enumerate(args.seeds):
            first = SIDES[k % 2]
            order.append(f"{first} first")
            for side in (first, SIDES[1 - k % 2]):
                run = run_once(checkouts[side], workload, seed,
                               specs[side]["run_seconds"])
                run["seed"] = seed
                runs[side].append(run)
                if result["environment"] is None and "environment" in run:
                    result["environment"] = run["environment"]
                    result["blas_threads"] = run["environment"]["blas_threads"]
                shown = run.get("error") or json.dumps(
                    {m: round(v["value"], 4)
                     for m, v in run["metrics"].items()})
                print(f"{workload} seed {seed} {side}: {shown}", flush=True)
        result["workloads"][workload] = {
            "seeds": args.seeds, "order": order,
            "attempted": {s: sum(r.get("attempted", 0) for r in runs[s])
                          for s in SIDES},
            "failed": {s: sum(r.get("failed", 0) + ("error" in r)
                              for r in runs[s]) for s in SIDES},
            "errors": {s: [r["error"] for r in runs[s] if "error" in r]
                       for s in SIDES},
            "metrics": compare(runs, specs["change"]["end_to_end"]),
            "wall_s": {"unit": "wall s",
                       **{side: median_wall(runs[side]) for side in SIDES}},
        }
        for name, entry in result["workloads"][workload]["metrics"].items():
            print(f"{workload} {name}: {entry['verdict']}", flush=True)
        wall = result["workloads"][workload]["wall_s"]
        print(f"{workload} wall s: "
              f"{json.dumps({side: wall[side]['median'] for side in SIDES})}",
              flush=True)
        traced = {side: [] for side in SIDES}
        seeds = args.seeds[:TRACED_SEEDS]
        for k, seed in enumerate(seeds):
            for side in (SIDES[k % 2], SIDES[1 - k % 2]):
                run = run_once(checkouts[side], workload, seed,
                               specs[side]["run_seconds"], trace=True)
                traced[side].append({**run, "seed": seed})
        result["workloads"][workload]["level_cost"] = {
            "unit": "wall s", "seeds": seeds,
            **{side: median_level_cost(traced[side]) for side in SIDES}}
        print(f"{workload} level cost: "
              f"{json.dumps(result['workloads'][workload]['level_cost'])}",
              flush=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
