"""The three benchmark workloads and the run loop they share.

All three are closed-loop, single-process batch jobs driven through pyrcnn's
public entry points and timed from outside:

* greedy_default -- the paper's procedure at the default config:
  ``pyrcnn train`` (3 levels x 200 iterations, batch 32, validation on),
  then ``extract`` over the gallery + ``eval`` on the held-out index.
* monolith_fixed -- ``build_monolithic`` + ``train_network`` on 76-edge
  center crops for a fixed iteration count, no validation: the same layer
  kernels on large maps, with no tied entry stage; then the net embeds
  every crop and ``eval`` runs on the held-out index.
* embed_eval -- a 2000-image gallery and a short model; ``extract`` over
  every image and ``eval`` of 500,000 held-out pairs: forward-only
  inference plus the data/metrics/report I/O path.

Every workload reports every end-to-end metric: each one trains, extracts
and evaluates, at its own scale.  The pieces a workload times are listed in
its ``train``/``extract``/``evaluate`` methods; everything else is set-up
or checking.  An untraced run reports its times in seconds at reference
speed (speed.py), which takes the host's speed drift out of them; a traced
run reports wall seconds.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import checks as ck
from instrument import instrument, layer_metrics
from spans import SpanSummary, Tracer
from speed import SpeedMeter


class BenchError(RuntimeError):
    """An operation of the program failed, so no result can be reported."""


@dataclass(frozen=True)
class Sizes:
    identities: int
    per_identity: int
    holdout: float           # share of identities held out for eval
    iterations: int          # greedy iterations per level
    eval_pairs: int
    nets: int                # networks trained, each from its own seed
    monolith_iterations: int
    setup_reps: int          # set-up repeated, setup_s is the median
    check_rows: int          # features.csv rows checked bit for bit


_DEFAULT_GALLERY = dict(identities=48, per_identity=12, holdout=1 / 3)

# greedy_default and monolith_fixed extract the whole 576-image gallery and
# evaluate 100,000 pairs per cycle, so that each rate sample spans seconds:
# sub-second samples spread up to 37% between runs as the CPU's speed
# drifted.
FULL = {
    "greedy_default": Sizes(
        **_DEFAULT_GALLERY, iterations=200, eval_pairs=100_000, nets=1,
        monolith_iterations=0, setup_reps=3, check_rows=16),
    "monolith_fixed": Sizes(
        **_DEFAULT_GALLERY, iterations=200, eval_pairs=100_000, nets=3,
        monolith_iterations=6, setup_reps=3, check_rows=0),
    # 2000 images and 500,000 pairs (not 4000 and 1,000,000), one training
    # on half the identities and one set-up: more would push a full
    # benchmark pass past its time limit on a slow host.
    "embed_eval": Sizes(
        identities=100, per_identity=20, holdout=1 / 2, iterations=10,
        eval_pairs=500_000, nets=1, monolith_iterations=0,
        setup_reps=1, check_rows=16),
}

# Self-test sizes: every phase runs, in seconds.
TINY = {
    name: replace(sizes, identities=10, per_identity=4,
                  iterations=min(sizes.iterations, 2),
                  eval_pairs=400, nets=min(sizes.nets, 2),
                  monolith_iterations=min(sizes.monolith_iterations, 1),
                  setup_reps=2, check_rows=100)
    for name, sizes in FULL.items()
}

EDGE = 76
_clock = time.perf_counter


@dataclass
class State:
    root: Path
    config: Path
    extract_count: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def gallery(self) -> Path:
        return self.root / "gallery"

    @property
    def out(self) -> Path:
        return self.root / "out"


class Context:
    """What one run shares across its phases: seed, sizes, tracer, checks."""

    def __init__(self, seed: int, sizes: Sizes, tracer: Tracer | None):
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.checks = ck.Checks()
        self.pairs = None   # the pairs the last `pyrcnn eval` drew

    def phase(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, root=True)

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def cli(self, *args) -> None:
        from pyrcnn import cli
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([str(a) for a in args])
        if rc != 0:     # nothing after it can run: no result line
            raise BenchError(f"pyrcnn {' '.join(map(str, args))} exited {rc}")

    def write_config(self, root: Path) -> Path:
        s = self.sizes
        root.mkdir(parents=True, exist_ok=True)
        config = root / "run.json"
        config.write_text(json.dumps({
            "seed": self.seed, "output_dir": "out",
            "data": {"dir": "gallery", "n_identities": s.identities,
                     "images_per_identity": s.per_identity, "edge": EDGE,
                     "holdout_fraction": s.holdout},
            "train": {"iterations_per_level": s.iterations, "batch_size": 32},
            "evaluation": {"n_pairs": s.eval_pairs},
        }, indent=1), encoding="utf-8")
        return config


# ---------------------------------------------------------------------------
# workloads


class PyramidPipeline:
    """synth -> train -> extract -> eval through ``pyrcnn.cli.main``:
    extract embeds every gallery image, eval runs on the held-out index."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self, root: Path) -> State:
        config = self.ctx.write_config(root)
        self.ctx.cli("synth", "--config", config)
        return State(root, config)

    def train(self, st: State, net: int) -> None:
        self.ctx.cli("train", "--config", st.config)

    def extract(self, st: State) -> None:
        index = st.gallery / "index.csv"
        self.ctx.cli("extract", "--config", st.config, st.out / "model.bin",
                     index)
        if not st.extract_count:
            from pyrcnn import load_index
            st.extract_count = len(load_index(index).records)

    def evaluate(self, st: State) -> None:
        self.ctx.cli("eval", "--config", st.config, st.out / "features.csv",
                     st.out / "eval_index.csv")

    def check(self, st: State) -> float:
        c = self.ctx.checks
        traces = sorted(st.out.glob("trace_level*.csv"))
        c.record(len(traces) == 3, f"expected 3 level traces, got {len(traces)}")
        for t in traces:
            ck.losses_finite(c, ck.trace_losses(t), t.name)
        ck.model_round_trip(c, st.out / "model.bin", st.root)
        ck.feature_rows_match(c, st.out / "features.csv", st.out / "model.bin",
                              st.gallery / "index.csv",
                              self.ctx.sizes.check_rows, self.ctx.seed)
        return ck.dead_unit_frac(st.out / "features.csv",
                                 st.out / "eval_index.csv")


class Monolith:
    """The end-to-end baseline: 4-stage networks over 76-edge crops.

    A few iterations leave a monolith close to its initialization, whose
    held-out AUC swings with the seed (0.52 to 0.78 over seeds 101-110), so
    the run trains several initializations and reports the median AUC."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self, root: Path) -> State:
        from pyrcnn import (center_crop, data, derive_seed, load_index,
                            split_by_identity, write_index)
        config = self.ctx.write_config(root)
        self.ctx.cli("synth", "--config", config)
        st = State(root, config)
        index = load_index(st.gallery / "index.csv")
        train_index, eval_index = split_by_identity(
            index, self.ctx.sizes.holdout,
            derive_seed(self.ctx.seed, "holdout-split"))
        st.out.mkdir(parents=True, exist_ok=True)
        write_index(st.out / "eval_index.csv",
                    [(str(r.path), eval_index.identity_names[r.identity])
                     for r in eval_index.records])
        st.extras["train_ids"] = [r.identity for r in train_index.records]
        st.extras["train_crops"] = [center_crop(data.load_image(r), EDGE)
                                    for r in train_index.records]
        eval_crops = [center_crop(data.load_image(r), EDGE)
                      for r in eval_index.records]
        st.extras["crops"] = [
            (str(r.path), crop) for r, crop in zip(
                train_index.records + eval_index.records,
                st.extras["train_crops"] + eval_crops)]
        st.extras["losses"] = []
        st.extract_count = len(st.extras["crops"])
        return st

    def train(self, st: State, net: int) -> None:
        # through the module, so the traced run's wrappers see the calls
        from pyrcnn import (PyramidSpec, TrainConfig, data, derive_seed,
                            make_rng, pyramid)
        seed = derive_seed(self.ctx.seed, f"monolith-net{net}")
        model, comp = pyramid.build_monolithic(PyramidSpec(levels=3), seed)
        sampler = data.PairSampler(st.extras["train_ids"],
                                   make_rng(seed, "pairs"))
        trace = pyramid.train_network(
            model, comp, st.extras["train_crops"], sampler,
            TrainConfig(seed=seed),
            iterations=self.ctx.sizes.monolith_iterations)
        st.extras["net"] = model
        st.extras["losses"].append(trace.losses)

    def extract(self, st: State) -> None:
        from pyrcnn import FeatureVector, features, layers
        net = st.extras["net"]
        vectors = []
        for path, crop in st.extras["crops"]:
            with self.ctx.span("features.extract"):
                vectors.append(FeatureVector(
                    layers.network_forward(net, crop).array, path, "monolith"))
        features.write_features(st.out / "features.csv", vectors)

    def evaluate(self, st: State) -> None:
        self.ctx.cli("eval", "--config", st.config, st.out / "features.csv",
                     st.out / "eval_index.csv")

    def check(self, st: State) -> float:
        c = self.ctx.checks
        for losses in st.extras["losses"]:
            ck.losses_finite(c, losses, "train_network")
        return ck.dead_unit_frac(st.out / "features.csv",
                                 st.out / "eval_index.csv")


def make_workload(name: str, ctx: Context):
    if name in ("greedy_default", "embed_eval"):
        return PyramidPipeline(ctx)
    if name == "monolith_fixed":
        return Monolith(ctx)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# run loop


class _Timer:
    """Times the phases of a run: seconds at reference speed (speed.py) in
    an untraced run, wall seconds in a traced one.  Wall times of the
    untraced run are kept in ``wall`` for the result file."""

    def __init__(self, reference: bool):
        self.meter = SpeedMeter() if reference else None
        self.wall: dict[str, list[float]] = {}

    def __call__(self, key: str, fn, *args):
        """Run fn(*args); return (its result, seconds)."""
        if self.meter is None:
            t0 = _clock()
            result = fn(*args)
            return result, _clock() - t0
        result, wall, seconds = self.meter.time(fn, *args)
        self.wall.setdefault(key, []).append(wall)
        return result, seconds


@contextlib.contextmanager
def _capture_eval_pairs(ctx: Context):
    """Keep the pairs `pyrcnn eval` draws, for the AUC recomputation.  If
    cli no longer binds sample_pairs, ctx.pairs stays None and the AUC
    check records a failure."""
    from pyrcnn import cli
    original = getattr(cli, "sample_pairs", None)
    if original is None:
        yield
        return

    def capture(*args, **kwargs):
        ctx.pairs = None
        ctx.pairs = original(*args, **kwargs)
        return ctx.pairs

    cli.sample_pairs = capture
    try:
        yield
    finally:
        cli.sample_pairs = original


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        sizes: Sizes, probe_budget_s: float = 0.1) -> dict:
    """One benchmark run.  Returns {"metrics", "samples", "attempted",
    "failed", "failures", "tracer", "state"}; metrics map name -> (value,
    unit), samples hold the timings the medians come from (untraced: also
    the wall times, under "wall", and the reference kernel's times)."""
    tracer = Tracer() if trace else None
    ctx = Context(seed, sizes, tracer)
    wl = make_workload(workload, ctx)
    with _capture_eval_pairs(ctx):
        if tracer:
            instrument(tracer)
        timer = _Timer(reference=tracer is None)
        setup_times, st = [], None
        for r in range(sizes.setup_reps):
            # One set-up in memory at a time, or peak RSS depends on when
            # the garbage collector frees the previous one.  Its files stay
            # until the run ends: deleting them slows the next set-up's file
            # writes by up to 2x.
            st = None
            gc.collect()
            with ctx.phase("bench.setup"):
                st, took = timer("setup_s", wl.setup, work / f"setup{r}")
                setup_times.append(took)

        # Timed phases.  Network 0 is trained, then cycles of one extract
        # and one eval run; while networks remain (the monolith trains
        # several initializations), each cycle trains the next one first.
        # Once all are trained, cycles repeat while another fits in
        # `seconds` of cycle time, so the rate samples cover that much
        # machine time.  The traced run makes one cycle, after an untraced
        # train for the tracing overhead.
        train_times, extract_times, eval_times, aucs = [], [], [], []
        if tracer:
            tracer.unwrap_all()
            untraced = timer("train_s", wl.train, st, 0)[1]
            instrument(tracer)
        cycles_s = 0.0
        for net in itertools.count():
            if net < sizes.nets:
                with ctx.phase("bench.train"):
                    train_times.append(timer("train_s", wl.train, st, net)[1])
            cycle_start = _clock()
            with ctx.phase("bench.extract"):
                extract_times.append(timer("extract_s", wl.extract, st)[1])
            with ctx.phase("bench.eval"):
                eval_times.append(timer("eval_s", wl.evaluate, st)[1])
            if net < sizes.nets:
                aucs.append(ck.report_value(st.out / "report.csv", "auc"))
            cycle = _clock() - cycle_start
            cycles_s += cycle
            if tracer or (net + 1 >= sizes.nets
                          and cycles_s + cycle > seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.unwrap_all()

    metrics: dict[str, tuple[float, str]] = {}
    train_s = statistics.median(train_times)
    if tracer:
        metrics.update(layer_metrics(SpanSummary(tracer)))
        from probe import run_probe
        for name, us in run_probe(seed, probe_budget_s).items():
            metrics[name] = (us, "us")
        metrics["bench.trace_overhead_s"] = (train_s - untraced, "s")
        metrics["bench.trace_overhead_share"] = (
            (train_s - untraced) / untraced, "ratio")
    else:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["train_s"] = (train_s, "s")
        metrics["extract_images_per_s"] = (
            st.extract_count / statistics.median(extract_times), "images/s")
        metrics["eval_pairs_per_s"] = (
            sizes.eval_pairs / statistics.median(eval_times), "pairs/s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    dead = wl.check(st)
    ck.report_auc_matches(ctx.checks, st.out / "report.csv",
                          st.out / "features.csv", st.out / "eval_index.csv",
                          ctx.pairs)
    if tracer:
        metrics["features.dead_unit_frac"] = (dead, "ratio")
        metrics["bench.error_rate"] = (
            ctx.checks.failed / ctx.checks.attempted, "ratio")
    else:
        metrics["heldout_auc"] = (statistics.median(aucs), "ratio")
    samples = {"setup_s": setup_times, "train_s": train_times,
               "extract_s": extract_times, "eval_s": eval_times}
    if timer.meter is not None:
        samples["wall"] = timer.wall
        samples["kernel_s"] = timer.meter.kernel_s
    return {"metrics": metrics, "samples": samples,
            "attempted": ctx.checks.attempted, "failed": ctx.checks.failed,
            "failures": ctx.checks.failures, "tracer": tracer, "state": st}
