"""The layer functions the traced run wraps, their work counters, and the
per-layer metrics computed from them.

Metric names are ``<module>.<function>.<stat>``: ``calls`` and ``self_s``
come from the spans, every other stat from a counter below, except the
ratios ``kept_ratio`` (kept / offered) and ``row_epochs_per_s`` (training
rows x epochs per second of ``model.train`` self time).
"""

from __future__ import annotations

import numpy as np

from tracer import Target


def _train(stat, args, kwargs, result, error):
    inputs = args[1] if len(args) > 1 else kwargs["inputs"]
    config = args[3] if len(args) > 3 else kwargs["config"]
    stat.add("epochs", config.epochs)
    stat.add("row_epochs", len(inputs) * config.epochs)


def _forward(stat, args, kwargs, result, error):
    x = args[1] if len(args) > 1 else kwargs["x"]
    stat.add("rows", 1 if np.ndim(x) == 1 else len(x))


def _predict(stat, args, kwargs, result, error):
    stat.add("refused", int(error == "NoKnownAccessPoints"))


def _parse(stat, args, kwargs, result, error):
    text = args[0] if args else kwargs["text"]
    stat.add("bytes", len(text.encode("utf-8")))
    stat.add("entries", len(result or ()))


def _filter(stat, args, kwargs, result, error):
    stat.add("offered", len(args[0] if args else kwargs["entries"]))
    stat.add("kept", len(result or ()))


def _select(stat, args, kwargs, result, error):
    if result is not None:
        stat.add("offered", len(result.pcc_x))
        stat.add("kept", len(result.kept_columns))


def _astar(stat, args, kwargs, result, error):
    stat.add("path_cells", len(result.cells) if result is not None else 0)


def _nav_step(stat, args, kwargs, result, error):
    fix = args[1] if len(args) > 1 else kwargs["fix"]
    stat.add("misses", int(fix is None))
    if result is None:
        return
    state, command = result
    stat.add("aborts", int(state.mode.name == "ABORTED"))
    reason = command.reason if command is not None else ""
    stat.add("forward", int(reason == "forward"))
    stat.add("turns", int(reason.startswith("turn")))
    stat.add("stops", int(reason == "stop"))


def _trial_request(args, kwargs):
    return f"trial-{kwargs.get('seed', 0)}"


TARGETS = (
    Target("cli", "main"),
    Target("rfsim", "run_trial", request=_trial_request),
    Target("rfsim", "simulate_scan"),
    Target("rfsim", "step_robot", leaf=True),
    Target("model", "train", count=_train),
    Target("model", "forward", count=_forward),
    Target("model", "predict_position", count=_predict),
    Target("model", "save_model"),
    Target("model", "load_model"),
    Target("scan_ingest", "read_scan_directory"),
    Target("scan_ingest", "parse_scan_text", count=_parse),
    Target("scan_ingest", "filter_by_ssid", count=_filter),
    Target("scan_ingest", "aggregate_resamples"),
    Target("scan_ingest", "build_dataset"),
    Target("scan_ingest", "read_csv"),
    Target("scan_ingest", "write_csv"),
    Target("features", "select_features", count=_select),
    Target("features", "split"),
    Target("features", "fit_normalizer"),
    Target("features", "normalize_features"),
    Target("planner", "astar", count=_astar),
    Target("planner", "extract_checkpoints"),
    Target("navctl", "nav_step", count=_nav_step),
)


def per_layer_value(tracer, name: str) -> float:
    """Value of per-layer metric ``name`` (``<module>.<function>.<stat>``) from a finished trace."""
    layer, stat_name = name.rsplit(".", 1)
    stat = tracer.stats.get(layer)
    if stat is None:
        raise KeyError(f"no traced layer for metric {name}")
    counts = stat.counts
    if stat_name == "calls":
        return stat.calls
    if stat_name == "self_s":
        return stat.self_s
    if stat_name == "kept_ratio":
        return counts.get("kept", 0) / counts["offered"] if counts.get("offered") else 0.0
    if stat_name == "row_epochs_per_s":
        return counts.get("row_epochs", 0) / stat.self_s if stat.self_s > 0 else 0.0
    return counts.get(stat_name, 0)
