"""tools/bench_pairs.py: seed ranges, run summaries, pairwise wins, the
traced level costs and the engine's size."""

import importlib.util
import json
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


LEVELS = {"pyramid.level0_s": 1.2, "pyramid.level1_s": 2.0,
          "pyramid.level2_s": 2.2, "pyramid.level_cost_ratio": 2.2 / 1.2}


def test_level_cost_of_a_traced_run_or_its_error():
    assert bench_pairs.level_cost(run(**LEVELS, **{"layers.fwd_s": 0.5})) \
        == LEVELS
    assert bench_pairs.level_cost({"error": "exit 1"}) == {"error": "exit 1"}


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


def test_main_makes_one_traced_run_per_side_and_workload(tmp_path,
                                                         monkeypatch):
    """Every pair is untraced; then each side makes one traced run on the
    first seed, whose level times land under `level_cost` in wall
    seconds."""
    declared = {"run_seconds": 15, "end_to_end": DECLARED}
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps(declared), encoding="utf-8")
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=False):
        calls.append((checkout.name, workload, seed, trace))
        if trace:  # the change's levels take twice as long
            scale = 2 if checkout.name == "b" else 1
            return run(**{k: v * scale for k, v in LEVELS.items()})
        return {**run(t=1.0, r=2.0), "environment": {"blas_threads": 1},
                "attempted": 3, "failed": 0}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "a"), "--change",
                             str(tmp_path / "b"), "--workload", "w1",
                             "--workload", "w2", "--seeds", "5-6",
                             "--out", str(out)]) == 0
    assert [c for c in calls if c[3]] == [("a", "w1", 5, True),
                                          ("b", "w1", 5, True),
                                          ("a", "w2", 5, True),
                                          ("b", "w2", 5, True)]
    assert len([c for c in calls if not c[3]]) == 2 * 2 * 2
    result = json.loads(out.read_text(encoding="utf-8"))
    cost = result["workloads"]["w2"]["level_cost"]
    assert (cost["unit"], cost["seed"]) == ("wall s", 5)
    assert cost["parent"] == LEVELS
    assert cost["change"]["pyramid.level1_s"] == 4.0
    assert result["workloads"]["w1"]["metrics"]["t"]["pairs"] == 2
