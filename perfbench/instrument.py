"""Where the traced run hooks into pyrcnn, and the per-layer metrics it yields.

Every hook wraps a name as the *calling* module binds it, so each span is
one call across a module boundary.  ``layer_metrics`` turns the recorded
spans into the per-layer metrics named in BENCHMARK.json; a span that was
never recorded (its binding is gone, or the workload never reaches it)
contributes count 0 and time 0.
"""

from __future__ import annotations

from spans import SpanSummary, Tracer, percentile

# A greedy level (train_level) and the monolithic baseline (train_network)
# share one span name, so their loop glue is measured the same way.
TRAIN = "pyramid.train"


def _level(args, kwargs, result):
    return int(kwargs["level"] if "level" in kwargs else args[1])


def instrument(tr: Tracer) -> None:
    from pyrcnn import cli, data, features, layers, pyramid, tensor

    def batch_shape(args, kwargs, result):
        """(distinct images, image slots) of a training pair batch.  Only
        batches drawn under a training span get the note: eval's
        large draw would otherwise time the benchmark's own set
        building inside `data.sample_pairs`."""
        if not tr.inside(TRAIN):
            return None
        distinct = {p.first for p in result} | {p.second for p in result}
        return len(distinct), 2 * len(result)

    hooks = [
        # pyramid: the trainer and its loop glue
        (pyramid, "train_level", TRAIN, _level),
        (pyramid, "train_network", TRAIN, lambda a, k, r: -1),
        (pyramid, "_validation_auc", "pyramid.validate", None),
        (pyramid, "sgd_step", "pyramid.sgd", None),
        (pyramid, "preprocess_dataset", "pyramid.preprocess",
         lambda a, k, r: len(r)),
        (cli, "save_model", "pyramid.save", None),
        (cli, "load_model", "pyramid.load", None),
        # layers: every forward / backward entry another module calls
        (pyramid, "_forward_cached", "layers.fwd", None),
        (pyramid, "layer_forward", "layers.fwd", None),
        (features, "layer_forward", "layers.fwd", None),
        (features, "network_forward", "layers.fwd", None),
        (layers, "network_forward", "layers.fwd", None),
        (pyramid, "_backward_cached", "layers.bwd", None),
        # loss
        (pyramid, "pair_loss_grads", "loss.pair_grads", None),
        # data
        (data.PairSampler, "batch", "data.pair_batch", batch_shape),
        (cli, "sample_pairs", "data.sample_pairs", None),
        (cli, "load_image", "data.load_image", None),
        (data, "load_image", "data.load_image", None),
        (cli, "load_index", "data.load_index", None),
        (cli, "synth_generate", "data.synth", None),
        # features
        (cli, "extract_representation", "features.extract", None),
        (cli, "write_features", "features.write", None),
        (features, "write_features", "features.write", None),
        (cli, "read_features", "features.read", None),
        (cli, "write_report", "features.write_report", None),
        # metrics
        (cli, "evaluate_distances", "metrics.evaluate",
         lambda a, k, r: len(r.curve.points)),
        # cli subcommands: their self time is the command's own loop, so
        # load_model and load_index above are hooked to be subtracted
        (cli, "cmd_extract", "cli.extract", None),
        (cli, "cmd_eval", "cli.eval", None),
        # tensor
        (tensor.Tensor, "from_array", "tensor.wrap", None),
    ]
    for owner, attr, name, note in hooks:
        tr.wrap(owner, attr, name, note)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: SpanSummary) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every span-derived per-layer metric."""
    m: dict[str, tuple[float, str]] = {}
    us = 1e6

    levels: dict[int, float] = {}
    for i in s.ids(TRAIN):
        level = s.tr.notes[i]
        if level is not None and level >= 0:
            levels[level] = levels.get(level, 0.0) + s.dur[i]
    for level in range(3):
        m[f"pyramid.level{level}_s"] = (levels.get(level, 0.0), "s")
    train_s = s.total(TRAIN)
    m["pyramid.train_self_s"] = (s.self_total(TRAIN), "s")
    m["pyramid.sgd_s"] = (s.total("pyramid.sgd"), "s")
    m["pyramid.validate_s"] = (s.total("pyramid.validate"), "s")
    m["pyramid.validate_share"] = (
        _share(s.total("pyramid.validate", under=TRAIN), train_s), "ratio")
    m["pyramid.preprocess_s"] = (s.total("pyramid.preprocess"), "s")
    m["pyramid.preprocess_images"] = (
        sum(n or 0 for n in s.notes("pyramid.preprocess")), "count")
    m["pyramid.save_s"] = (s.total("pyramid.save"), "s")
    m["pyramid.level_cost_ratio"] = (
        max(levels.values()) / min(levels.values())
        if len(levels) > 1 else 0.0, "ratio")

    for role in ("fwd", "bwd"):
        d = s.durations(f"layers.{role}")
        m[f"layers.{role}_calls"] = (len(d), "count")
        m[f"layers.{role}_s"] = (sum(d), "s")
        m[f"layers.{role}_us_p50"] = (percentile(d, 50) * us, "us")
        m[f"layers.{role}_us_p99"] = (percentile(d, 99) * us, "us")
    batches = [n for n in s.notes("data.pair_batch", under=TRAIN) if n]
    train_pairs = sum(slots for _, slots in batches) / 2
    m["layers.fwd_per_train_pair"] = (
        _share(s.count("layers.fwd", under=TRAIN), train_pairs), "ratio")

    m["loss.pair_grads_calls"] = (s.count("loss.pair_grads"), "count")
    m["loss.pair_grads_s"] = (s.total("loss.pair_grads"), "s")

    m["data.pair_batch_calls"] = (s.count("data.pair_batch", under=TRAIN),
                                  "count")
    m["data.pair_batch_s"] = (s.total("data.pair_batch", under=TRAIN), "s")
    m["data.sample_pairs_s"] = (s.total("data.sample_pairs"), "s")
    m["data.batch_distinct_ratio"] = (
        _share(sum(d for d, _ in batches), sum(n for _, n in batches)),
        "ratio")
    m["data.load_image_calls"] = (s.count("data.load_image"), "count")
    m["data.load_image_s"] = (s.total("data.load_image"), "s")
    m["data.synth_s"] = (s.total("data.synth"), "s")

    extract = s.durations("features.extract")
    m["features.extract_s"] = (sum(extract), "s")
    m["features.extract_us_p50"] = (percentile(extract, 50) * us, "us")
    m["features.extract_us_p99"] = (percentile(extract, 99) * us, "us")
    m["features.write_s"] = (s.total("features.write"), "s")
    m["features.read_s"] = (s.total("features.read"), "s")
    m["features.write_report_s"] = (s.total("features.write_report"), "s")

    points = [n for n in s.notes("metrics.evaluate") if n]
    m["metrics.evaluate_s"] = (s.total("metrics.evaluate"), "s")
    m["metrics.roc_points"] = (
        _share(sum(points), len(points)), "count")

    m["cli.eval_self_s"] = (s.self_total("cli.eval"), "s")
    m["cli.extract_self_s"] = (s.self_total("cli.extract"), "s")

    m["tensor.wraps"] = (s.count("tensor.wrap", under="bench.train"), "count")
    return m
