"""Self-test of the benchmark at tiny size (a few seconds).

    python3 perfbench/selftest.py

Runs every workload untraced and traced on a tiny gallery and checks that
each metric BENCHMARK.json names is emitted with its declared unit and that
all output checks pass; then corrupts one features.csv row and checks that
the row check counts exactly that row as a failure, and drops one held-out
row and checks that the AUC check counts it as one failure.  Exits 0 on
success.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys

import run as bench_run  # pins BLAS before numpy is imported

import checks as ck
from workloads import TINY, run


def _rewrite_rows(path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _corrupt_first_row(rows) -> None:
    rows[1][2] = repr(float(rows[1][2]) + 1e-12)


def _drop_held_out_row(held_out: str):
    def edit(rows):
        rows[:] = [r for r in rows if r[0] != held_out]
    return edit


def main() -> int:
    root = bench_run.ROOT
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = root / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    problems = []
    try:
        for w in spec["workloads"]:
            name = w["name"]
            for trace in (False, True):
                out = run(name, 3, 0.0, trace, work / f"{name}-{int(trace)}",
                          TINY[name], probe_budget_s=0.002)
                declared = spec["per_layer" if trace else "end_to_end"]
                for m in declared:
                    got = out["metrics"].get(m["name"])
                    if got is None:
                        problems.append(f"{name}: {m['name']} not emitted")
                    elif got[1] != m["unit"]:
                        problems.append(f"{name}: {m['name']} unit {got[1]} "
                                        f"!= declared {m['unit']}")
                if out["failed"]:
                    problems.append(f"{name}: checks failed {out['failures']}")
                if name == "greedy_default" and not trace:
                    st = out["state"]
                    features = st.out / "features.csv"
                    eval_index = st.out / "eval_index.csv"
                    _rewrite_rows(features, _corrupt_first_row)
                    c = ck.Checks()
                    ck.feature_rows_match(c, features, st.out / "model.bin",
                                          eval_index, 10_000, 3)
                    if c.failed != 1:
                        problems.append(f"corrupted feature row: {c.failed} "
                                        f"failures of {c.attempted}, want 1")
                    # a missing row is a failure, not a crash
                    from pyrcnn import load_index
                    held_out = str(load_index(eval_index).records[0].path)
                    _rewrite_rows(features, _drop_held_out_row(held_out))
                    c = ck.Checks()
                    ck.report_auc_matches(c, st.out / "report.csv", features,
                                          eval_index, [])
                    ck.dead_unit_frac(features, eval_index)
                    if c.failed != 1:
                        problems.append(f"missing feature row: {c.failed} "
                                        f"failures of {c.attempted}, want 1")
                print(f"selftest: {name} trace={int(trace)} ok", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
