"""tools/bench_pairs.py: seed ranges, run summaries, pairwise wins, the
traced level costs, the wall seconds and the engine's size."""

import importlib.util
import json
import os
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(**values):
    """One successful run's result with the given metric values."""
    return {"metrics": {name: {"value": v} for name, v in values.items()}}


def test_parse_seeds_expands_ranges_and_single_seeds():
    assert bench_pairs.parse_seeds("1-4,9") == [1, 2, 3, 4, 9]
    assert bench_pairs.parse_seeds("7") == [7]


def test_summary_of_no_values():
    assert bench_pairs.summary([]) == {"n": 0}


def test_summary_of_one_value_is_its_own_quartiles():
    assert bench_pairs.summary([2.5]) == {"n": 1, "median": 2.5, "q1": 2.5,
                                          "q3": 2.5}


def test_summary_of_several_values():
    assert bench_pairs.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0}


DECLARED = [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "r", "unit": "pairs/s", "better": "higher"}]


def test_compare_counts_wins_by_direction_skipping_ties_and_errors():
    runs = {
        "parent": [run(t=1.0, r=10.0), run(t=2.0, r=20.0),
                   {"error": "exit 1"}, run(t=3.0, r=30.0),
                   run(t=4.0, r=40.0)],
        "change": [run(t=0.5, r=5.0), run(t=2.0, r=20.0),
                   run(t=1.0, r=10.0), {"error": "exit 1"},
                   run(t=5.0, r=50.0)],
    }
    out = bench_pairs.compare(runs, DECLARED)

    lower = out["t"]
    # pair 0: change lower (a win); pair 1: tie (neither side); pairs 2 and
    # 3: one side errored (skipped); pair 4: change higher (a loss)
    assert (lower["pairs"], lower["change_wins"]) == (3, 1)
    assert (lower["unit"], lower["better"], lower["bound"]) == ("s", "lower",
                                                                0.25)
    assert lower["parent"]["runs"] == [1.0, 2.0, None, 3.0, 4.0]
    assert lower["change"]["runs"] == [0.5, 2.0, 1.0, None, 5.0]
    assert lower["parent"]["n"] == lower["change"]["n"] == 4
    assert lower["parent"]["median"] == 2.5
    assert lower["change"]["median"] == 1.5
    assert lower["change_over_parent"] == pytest.approx(0.6)

    higher = out["r"]
    # the same shape the other way up: only pair 4 is a win
    assert (higher["pairs"], higher["change_wins"]) == (3, 1)
    assert higher["bound"] is None


def test_compare_without_a_successful_run_on_one_side():
    runs = {"parent": [{"error": "boom"}], "change": [run(t=1.0, r=1.0)]}
    out = bench_pairs.compare(runs, DECLARED)["t"]
    assert (out["pairs"], out["change_wins"]) == (0, 0)
    assert out["parent"] == {"n": 0, "runs": [None]}
    assert "change_over_parent" not in out


def verdict(parent, change, better="lower", bound=0.25):
    """The verdict on hand-made runs of one metric `t`."""
    runs = {"parent": [run(t=v) for v in parent],
            "change": [run(t=v) for v in change]}
    declared = [{"name": "t", "unit": "s", "better": better, "bound": bound}]
    return bench_pairs.compare(runs, declared)["t"]["verdict"]


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]


def test_verdict_gain_needs_nine_in_ten_wins_and_a_gap_past_the_iqr():
    faster = [v - 1.0 for v in PARENT]
    assert verdict(PARENT, faster) == "gain"
    assert verdict([-v for v in PARENT], [-v for v in faster],
                   better="higher") == "gain"
    # 8 of 10 wins: not a gain, and within the bound
    eight = faster[:8] + [v + 0.5 for v in PARENT[8:]]
    assert verdict(PARENT, eight) == "no_worse"
    # 10 of 10 wins by less than the parent's IQR (0.2 here)
    assert verdict(PARENT, [v - 0.05 for v in PARENT]) == "no_worse"


def test_verdict_worse_past_the_bound_as_a_fraction_of_the_parent():
    assert verdict(PARENT, [v * 1.3 for v in PARENT]) == "worse"
    assert verdict(PARENT, [v * 1.2 for v in PARENT]) == "no_worse"
    assert verdict(PARENT, [v * 0.7 for v in PARENT],
                   better="higher") == "worse"
    assert verdict(PARENT, [v * 1.3 for v in PARENT],
                   better="higher") == "gain"


def test_verdict_unresolved_when_a_side_spreads_past_the_bound():
    wide = [6.0, 14.0, 7.0, 13.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0]
    assert verdict(wide, PARENT) == "unresolved"
    assert verdict(PARENT, wide) == "unresolved"
    # a wider spread, each change run better than every parent run but
    # the median gap (6.1) within the parent's IQR (10.6)
    wider = [6.0, 20.0, 6.5, 19.0, 7.0, 18.0, 7.5, 17.0, 8.0, 16.0]
    assert verdict(wider, [5.9] * 10) == "no_worse"
    assert verdict(wider, [5.9] * 9 + [6.1]) == "unresolved"


def test_verdict_unresolved_without_a_bound_or_a_side():
    assert verdict(PARENT, PARENT, bound=None) == "unresolved"
    runs = {"parent": [{"error": "exit 1"}] * 2, "change": [run(t=1.0)] * 2}
    declared = [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25}]
    assert bench_pairs.compare(runs, declared)["t"]["verdict"] == \
        "unresolved"


LEVELS = {"pyramid.level0_s": 1.2, "pyramid.level1_s": 2.0,
          "pyramid.level2_s": 2.2, "pyramid.level_cost_ratio": 2.2 / 1.2}


def test_level_cost_of_a_traced_run_or_its_error():
    assert bench_pairs.level_cost(run(**LEVELS, **{"layers.fwd_s": 0.5})) \
        == LEVELS
    assert bench_pairs.level_cost({"error": "exit 1"}) == {"error": "exit 1"}


def test_median_level_cost_keeps_every_run_and_skips_errors():
    """Each value's median is over the runs that succeeded, and every run
    stays listed with its seed, an errored one with its error."""
    scaled = [{k: v * f for k, v in LEVELS.items()} for f in (1, 3, 2)]
    runs = [{**run(**levels), "seed": seed}
            for seed, levels in zip((4, 5, 7), scaled)]
    runs.insert(1, {"error": "exit 1", "seed": 6})
    cost = bench_pairs.median_level_cost(runs)
    assert cost["median"] == {k: v * 2 for k, v in LEVELS.items()}
    assert cost["runs"] == [{"seed": 4, **scaled[0]},
                            {"seed": 6, "error": "exit 1"},
                            {"seed": 5, **scaled[1]},
                            {"seed": 7, **scaled[2]}]
    assert bench_pairs.median_level_cost([{"error": "boom", "seed": 1}]) \
        == {"median": None, "runs": [{"seed": 1, "error": "boom"}]}


def test_main_records_each_sides_engine_lines(tmp_path, monkeypatch):
    """`source_lines` counts the lines of src/pyrcnn/*.py in each checkout,
    no other file."""
    sources = {"a": {"x.py": "1\n2\n3\n", "y.py": "1\n"},
               "b": {"x.py": "1\n2\n"}}
    for side, files in sources.items():
        engine = tmp_path / side / "src" / "pyrcnn"
        engine.mkdir(parents=True)
        for name, text in files.items():
            (engine / name).write_text(text, encoding="utf-8")
        (engine / "notes.txt").write_text("1\n2\n", encoding="utf-8")
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": 1, "end_to_end": DECLARED}),
            encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda *args, **kwargs: run(t=1.0, r=2.0, **LEVELS))
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "a"), "--change",
                             str(tmp_path / "b"), "--workload", "w",
                             "--seeds", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["source_lines"] == {"parent": 4, "change": 2}


def test_main_records_each_sides_test_lines(tmp_path, monkeypatch):
    """`test_lines` counts the lines of tests/*.py in each checkout, no
    other file, so code moved from src/pyrcnn into tests/ shows as fewer
    source lines and more test lines."""
    sources = {"a": {"x.py": "1\n2\n3\n", "y.py": "1\n"},
               "b": {"x.py": "1\n2\n"}}
    tests = {"a": {"test_x.py": "1\n"},
             "b": {"test_x.py": "1\n", "reference.py": "1\n2\n"}}
    for side in sources:
        for folder, files in ((("src", "pyrcnn"), sources[side]),
                              (("tests",), tests[side])):
            where = tmp_path.joinpath(side, *folder)
            where.mkdir(parents=True)
            for name, text in files.items():
                (where / name).write_text(text, encoding="utf-8")
            (where / "notes.txt").write_text("1\n2\n", encoding="utf-8")
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": 1, "end_to_end": DECLARED}),
            encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda *args, **kwargs: run(t=1.0, r=2.0, **LEVELS))
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "a"), "--change",
                             str(tmp_path / "b"), "--workload", "w",
                             "--seeds", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["source_lines"] == {"parent": 4, "change": 2}
    assert result["test_lines"] == {"parent": 1, "change": 3}


def test_main_records_the_blas_runtime_the_runs_inherit(tmp_path,
                                                        monkeypatch):
    """`blas_runtime` is the configuration a process with the tool's own
    environment reads, the one every run inherits."""
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": 1, "end_to_end": DECLARED}),
            encoding="utf-8")
    seen = []

    def fake_blas(env):
        seen.append(env)
        return "OpenBLAS 0.3.31  DYNAMIC_ARCH SkylakeX MAX_THREADS=64"

    monkeypatch.setattr(bench_pairs, "blas_runtime_in", fake_blas)
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda *args, **kwargs: run(t=1.0, r=2.0, **LEVELS))
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "a"), "--change",
                             str(tmp_path / "b"), "--workload", "w",
                             "--seeds", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["blas_runtime"] == \
        "OpenBLAS 0.3.31  DYNAMIC_ARCH SkylakeX MAX_THREADS=64"
    assert seen == [dict(os.environ)]


def test_main_makes_traced_runs_per_side_on_the_first_three_seeds(
        tmp_path, monkeypatch):
    """Every pair is untraced; then each side makes one traced run on each
    of the first three seeds, alternating which side goes first, and
    their level times and medians land under `level_cost` in wall
    seconds."""
    declared = {"run_seconds": 15, "end_to_end": DECLARED}
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps(declared), encoding="utf-8")
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=False):
        calls.append((checkout.name, workload, seed, trace))
        if trace:  # the change's levels take twice as long; seed 6 fails
            if seed == 6:
                return {"error": "exit 1"}
            scale = (2 if checkout.name == "b" else 1) * seed
            return run(**{k: v * scale for k, v in LEVELS.items()})
        return {**run(t=1.0, r=2.0), "environment": {"blas_threads": 1},
                "attempted": 3, "failed": 0}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "a"), "--change",
                             str(tmp_path / "b"), "--workload", "w1",
                             "--workload", "w2", "--seeds", "5-7,9",
                             "--out", str(out)]) == 0
    traced = [("a", 5), ("b", 5), ("b", 6), ("a", 6), ("a", 7), ("b", 7)]
    assert [c for c in calls if c[3]] == \
        [(side, w, seed, True) for w in ("w1", "w2") for side, seed in traced]
    assert len([c for c in calls if not c[3]]) == 2 * 4 * 2
    result = json.loads(out.read_text(encoding="utf-8"))
    cost = result["workloads"]["w2"]["level_cost"]
    assert (cost["unit"], cost["seeds"]) == ("wall s", [5, 6, 7])
    # the medians of seeds 5 and 7, seed 6 having failed
    assert cost["parent"]["median"] == pytest.approx(
        {k: v * 6 for k, v in LEVELS.items()})
    assert cost["change"]["median"]["pyramid.level1_s"] == \
        pytest.approx(2.0 * 2 * 6)
    assert [r["seed"] for r in cost["parent"]["runs"]] == [5, 6, 7]
    assert cost["parent"]["runs"][0] == {"seed": 5, **{
        k: v * 5 for k, v in LEVELS.items()}}
    assert cost["parent"]["runs"][1] == {"seed": 6, "error": "exit 1"}
    assert result["workloads"]["w1"]["metrics"]["t"]["pairs"] == 4


FAKE_RUN = textwrap.dedent("""\
    import argparse, json, pathlib
    ap = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        ap.add_argument(flag)
    args = ap.parse_args()
    results = pathlib.Path(".bench_work/results")
    results.mkdir(parents=True, exist_ok=True)
    wall = {"setup_s": [3.0, 1.0, 2.0], "train_s": [4.0],
            "extract_s": [1.0, 2.0], "eval_s": [0.5, 0.25, 9.0]}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(
        {"samples": {"train_s": [1.0], "wall": wall}}))
    print(json.dumps({"environment": {"blas_threads": 1}}))
    print(json.dumps({"attempted": 1, "failed": 0, "metrics": {}}))
""")


def test_run_once_reads_an_untraced_runs_wall_medians(tmp_path):
    """An untraced run's `wall` holds, per timed phase, the median of the
    wall samples in its checkout's result file; a traced run has none."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN,
                                                   encoding="utf-8")
    out = bench_pairs.run_once(tmp_path, "w", 3, 15)
    assert out["wall"] == {"setup_s": 2.0, "train_s": 4.0, "extract_s": 1.5,
                           "eval_s": 0.5}
    assert out["attempted"] == 1
    assert "wall" not in bench_pairs.run_once(tmp_path, "w", 3, 15,
                                              trace=True)


def test_main_records_each_sides_median_wall_seconds(tmp_path, monkeypatch):
    """`wall_s` holds every untraced run's wall medians (None for a failed
    run) and per side their median over the runs that succeeded, next to
    the reference-second metrics."""
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": 15, "end_to_end": DECLARED}),
            encoding="utf-8")

    def fake_run(checkout, workload, seed, seconds, trace=False):
        if trace:
            return run(**LEVELS)
        if checkout.name == "b" and seed == 2:
            return {"error": "exit 1"}
        scale = seed * (0.5 if checkout.name == "b" else 1.0)
        return {**run(t=1.0, r=2.0),
                "wall": {phase: scale * (k + 1) for k, phase in
                         enumerate(bench_pairs.WALL_PHASES)}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "a"), "--change",
                             str(tmp_path / "b"), "--workload", "w",
                             "--seeds", "1-3", "--out", str(out)]) == 0
    wall = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"][
        "wall_s"]
    assert wall["unit"] == "wall s"
    assert wall["parent"]["median"] == {"setup_s": 2.0, "train_s": 4.0,
                                        "extract_s": 6.0, "eval_s": 8.0}
    # the change's seeds 1 and 3, seed 2 having failed
    assert wall["change"]["median"] == {"setup_s": 1.0, "train_s": 2.0,
                                        "extract_s": 3.0, "eval_s": 4.0}
    assert wall["change"]["runs"][1] is None
    assert wall["parent"]["runs"][2] == {"setup_s": 3.0, "train_s": 6.0,
                                         "extract_s": 9.0, "eval_s": 12.0}
    assert bench_pairs.median_wall([{"error": "exit 1"}]) == {
        "median": None, "runs": [None]}
