"""Command-line entry point for the whole pipeline.

Subcommands: ingest, select-features, train, evaluate, plan, simulate,
navigate, plus make-world / make-dataset to produce synthetic inputs.
Options may come from a ``key = value`` config file (``--config``); explicit
command-line flags win.  Every command is deterministic given its inputs
and seeds; every output goes through the file layer (``fileio``), which
writes atomically (temp file + rename), so a failed run leaves nothing
half-written.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import features, model, navctl, planner, rfsim, scan_ingest
from .errors import InvalidParameter, ToolkitError, check_seed
from .fileio import read_bytes, write_rows

_SUPPRESS = argparse.SUPPRESS


class CliError(ToolkitError):
    """A command-line usage or input problem with a one-line diagnostic."""


def _as_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InvalidParameter(f"not a boolean: {text!r}")


def _as_ssid_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _as_cell(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidParameter(f"expected 'ix,iy', got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    try:
        lines = read_bytes(Path(path)).decode("utf-8").removeprefix("\ufeff").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        caster = _OPTIONS[key][0] if key in _OPTIONS else None
        if caster is None:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = caster(value.strip())
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _merge_options(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- explicit flags."""
    merged = dict(defaults)
    explicit = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = _parse_config_file(config_path)
        merged.update({k: v for k, v in file_values.items() if k in defaults})
    merged.update(explicit)
    for key in ("seed", "world_seed"):
        if merged.get(key) is not None:
            check_seed(merged[key])
    return merged


def run_training_pipeline(
    dataset: scan_ingest.FingerprintDataset,
    threshold: float = features.DEFAULT_PCC_THRESHOLD,
    ratio: float = features.DEFAULT_TRAIN_RATIO,
    train_config: model.TrainConfig | None = None,
):
    """Feature selection, split, normalization and training in one call.

    Returns (bundle, report, split); the report carries the test-set
    normalized MAE and mean Euclidean error in feet when the split left any
    test rows.
    """
    train_config = train_config or model.TrainConfig()
    selection = features.select_features(dataset, threshold)
    if not selection.kept_columns:
        raise ToolkitError(f"no columns reach correlation {threshold}; nothing to train on")
    split_data = features.split(dataset, ratio, train_config.seed)
    train_reduced = features.reduce_columns(split_data.train, selection.kept_columns)
    params = features.fit_normalizer(train_reduced)
    inputs = features.normalize_features(params, train_reduced.rssi)
    targets = features.normalize_coords(params, np.stack([train_reduced.x, train_reduced.y], axis=1))
    net = model.MlpRegressor.default(len(selection.kept_columns))
    report = model.train(net, inputs, targets, train_config)
    bundle = model.ModelBundle(net, selection, params)
    if split_data.test.n_rows:
        mae_norm, mean_ft, _ = evaluate_bundle(bundle, split_data.test)
        report.test_mae_norm = mae_norm
        report.test_mean_error_ft = mean_ft
    return bundle, report, split_data


def evaluate_bundle(bundle: model.ModelBundle, dataset: scan_ingest.FingerprintDataset):
    """Metrics plus per-row scatter data for a labelled dataset.

    Returns (normalized MAE, mean Euclidean error in feet, rows of
    (x_true, y_true, x_pred, y_pred) in feet).
    """
    missing = [c for c in bundle.selection.kept_columns if c not in dataset.ap_columns]
    if missing:
        raise ToolkitError("dataset is missing feature columns: " + ", ".join(missing))
    reduced = features.reduce_columns(dataset, bundle.selection.kept_columns)
    inputs = model.prepare_features(bundle, reduced.rssi)
    truth_ft = np.stack([reduced.x, reduced.y], axis=1)
    truth = features.normalize_coords(bundle.params, truth_ft)
    with np.errstate(over="ignore", invalid="ignore"):  # huge weights overflow: refused below, with no numpy warning
        pred = model.forward(bundle.model, inputs)
        per_row_norm = np.linalg.norm(pred - truth, axis=1)
        pred_ft = features.denormalize_coords(bundle.params, pred)
        row_ft = features.error_feet(bundle.params, per_row_norm)
    finite = np.isfinite(pred_ft).all(axis=1) & np.isfinite(row_ft)  # so each row error is below 1e155 (norm squares it): no mean overflows
    if not finite.all():
        r = int(np.argmin(finite))
        raise ToolkitError(f"dataset row {r + 1}: the prediction ({pred_ft[r, 0]:g}, {pred_ft[r, 1]:g}) ft or its error {row_ft[r]:g} ft is not finite")
    mae_norm = model.mae_loss(pred, truth)
    mean_ft = features.error_feet(bundle.params, float(per_row_norm.mean()))
    rows = [(tx, ty, px, py) for (tx, ty), (px, py) in zip(truth_ft, pred_ft)]
    return mae_norm, mean_ft, rows


def _load_world_with_overrides(opts) -> rfsim.SimWorld:
    world = rfsim.load_world(opts["world"])
    if opts.get("noise_sigma") is not None:
        world = rfsim.with_noise_sigma(world, opts["noise_sigma"])
    return world


def _run_trials(opts, count: int) -> tuple[float, list[rfsim.TrialResult]]:
    """simulate's and navigate's trials: ``count`` seeded trials from ``--seed`` on the world's route, with
    the model, or with ``--oracle`` a None bundle, which fixes at the true positions; returns corner_success_rate's (rate, results)."""
    world = _load_world_with_overrides(opts)
    bundle = None if opts["oracle"] else model.load_model(opts["model"])
    nav_config = navctl.NavConfig(
        step_distance=opts["step_distance"], checkpoint_radius=opts["checkpoint_radius"], max_consecutive_misses=opts["max_misses"]
    )
    return rfsim.corner_success_rate(
        world, bundle, count, opts["seed"], opts.get("start"), opts.get("goal"),
        nav_config=nav_config, success_radius=opts["success_radius"], scan_period=opts["scan_period"],
    )


def _read_dataset(opts) -> scan_ingest.FingerprintDataset:
    """The dataset CSV, range-checked, and reduced to the columns that reach ``--min-presence`` when it is given."""
    dataset = scan_ingest.read_csv(opts["dataset"])
    features.check_ranges(dataset)
    if opts.get("min_presence") is not None:
        dataset = features.reduce_columns(dataset, features.columns_with_presence(dataset, opts["min_presence"]))
    return dataset


def _write_dataset(dataset: scan_ingest.FingerprintDataset, path) -> int:
    features.check_ranges(dataset)  # a CSV that _read_dataset would refuse is not written
    scan_ingest.write_csv(dataset, path)
    print(f"wrote {dataset.n_rows} rows x {len(dataset.ap_columns)} access-point columns to {path}")
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(opts) -> int:
    directory = Path(opts["scan_dir"])
    if not directory.is_dir():
        raise CliError(f"not a directory: {directory}")
    allowlist = set(opts["ssid"]) if opts.get("ssid") else None
    snapshots, errors = scan_ingest.read_scan_directory(directory, allowlist, aggregate=opts["aggregate"])
    if errors:
        for path, exc in errors:
            print(f"{path}: {exc}", file=sys.stderr)
        return 1
    if not snapshots:
        raise CliError(f"no scan files found in {directory}")
    dataset = scan_ingest.build_dataset(snapshots)
    if not dataset.ap_columns:
        on = f" on SSID {', '.join(map(repr, sorted(allowlist)))}" if allowlist else ""
        raise CliError(f"no access point{on} in the scans of {directory}; nothing to write")
    return _write_dataset(dataset, opts["output"])


def cmd_select_features(opts) -> int:
    dataset = _read_dataset(opts)
    selection = features.select_features(dataset, opts["threshold"])
    kept = set(selection.kept_columns)
    print(f"kept {len(kept)} of {len(dataset.ap_columns)} columns at threshold {opts['threshold']}")
    for mac in dataset.ap_columns:
        marker = "*" if mac in kept else " "
        print(f" {marker} {mac}  pcc_x={selection.pcc_x[mac]:+.4f}  pcc_y={selection.pcc_y[mac]:+.4f}")
    if opts.get("output"):
        rows = [(mac, int(mac in kept), selection.pcc_x[mac], selection.pcc_y[mac]) for mac in dataset.ap_columns]
        write_rows(opts["output"], ["mac", "kept", "pcc_x", "pcc_y"], rows)
    return 0


def cmd_train(opts) -> int:
    dataset = _read_dataset(opts)
    config = model.TrainConfig(**{f.name: opts[f.name] for f in dataclasses.fields(model.TrainConfig)})  # the options are the fields
    bundle, report, _ = run_training_pipeline(dataset, threshold=opts["threshold"], ratio=opts["ratio"], train_config=config)
    model.save_model(bundle.model, bundle.selection, bundle.params, opts["output"])
    losses = [(i, *pair) for i, pair in enumerate(zip(report.train_loss, report.val_loss), start=1)]
    write_rows(opts.get("report") or str(opts["output"]) + ".report.csv", ["epoch", "train_loss", "val_loss"], losses)
    print(f"kept columns: {len(bundle.selection.kept_columns)}; epochs: {config.epochs}")
    if report.test_mae_norm is not None:
        print(f"test normalized MAE: {report.test_mae_norm:.4f}")
        print(f"test mean error: {report.test_mean_error_ft:.2f} ft")
    else:
        print(f"final train loss (no test rows): {report.train_loss[-1]:.4f}")
    return 0


def cmd_evaluate(opts) -> int:
    bundle = model.load_model(opts["model"])
    dataset = _read_dataset(opts)
    mae_norm, mean_ft, rows = evaluate_bundle(bundle, dataset)
    if opts.get("output"):
        write_rows(opts["output"], ["x_true", "y_true", "x_pred", "y_pred"], rows)
    print(f"rows: {len(rows)}")
    print(f"normalized MAE: {mae_norm:.4f}")
    print(f"mean error: {mean_ft:.2f} ft")
    return 0


def cmd_plan(opts) -> int:
    grid = planner.GridMap.load(opts["map"])
    path = planner.astar(grid, opts["start"], opts["goal"])
    heading = planner.Heading.from_letter(opts["heading"]) if opts.get("heading") else planner.first_segment_heading(path)
    checkpoints = planner.extract_checkpoints(path, heading)
    if opts.get("output"):
        write_rows(opts["output"], ["ix", "iy", "action"], [(*cp.cell, cp.action.value) for cp in checkpoints])
    print(f"path: {len(path.cells)} cells, cost {path.cost}")
    for cp in checkpoints:
        print(f"  {cp.cell[0]},{cp.cell[1]}  {cp.action.value}")
    return 0


def cmd_make_world(opts) -> int:
    world = rfsim.reference_world(noise_sigma=opts["noise_sigma"], rng_seed=opts["world_seed"])
    rfsim.save_world(world, opts["output"])
    print(f"wrote reference world ({len(world.grid.walkable_cells())} walkable cells, {len(world.aps)} APs) to {opts['output']}")
    return 0


def cmd_make_dataset(opts) -> int:
    world = _load_world_with_overrides(opts)
    dataset = rfsim.generate_synthetic_dataset(world, resamples=opts["resamples"], seed=opts.get("seed"))
    return _write_dataset(dataset, opts["output"])


def cmd_simulate(opts) -> int:
    rate, results = _run_trials(opts, opts["trials"])
    if opts.get("output"):
        rows = []
        for i, r in enumerate(results):
            commands = sum(kind == "command" for kind, _, _ in r.events)  # every other event is a fix
            rows.append((i, r.seed, int(r.success), r.final_error, r.reason, commands, len(r.events) - commands))
        write_rows(opts["output"], ["trial", "seed", "success", "final_error_ft", "reason", "commands", "fixes"], rows)
    successes = sum(r.success for r in results)
    print(f"success rate: {successes}/{len(results)} = {rate:.2f}")
    return 0


def cmd_navigate(opts) -> int:
    _, (result,) = _run_trials(opts, 1)
    prefix = opts["out_prefix"]
    commands = [(t, c.left_speed, c.right_speed, c.duration, c.reason) for kind, t, c in result.events if kind == "command"]
    fixes = [payload for kind, _, payload in result.events if kind != "command"]
    fixes = [(*true, *(estimate or (None, None))) for true, estimate in fixes]
    write_rows(f"{prefix}_trajectory.csv", ["x", "y", "heading"], result.trajectory)
    write_rows(f"{prefix}_fixes.csv", ["x_true", "y_true", "x_est", "y_est"], fixes)
    write_rows(f"{prefix}_commands.csv", ["timestamp", "left_speed", "right_speed", "duration", "reason"], commands)
    status = "success" if result.success else f"failure ({result.reason})"
    print(f"{status}: final error {result.final_error:.2f} ft after {len(commands)} commands")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# Every option, declared once: name -> (config-file caster, or None for a
# path flag that is not a config key; help; argparse keywords).  The flag is
# --name with '-' for '_' unless "flags" overrides it; an "action" flag takes
# no type.
_OPTIONS = {
    "output": (None, "file to write", {"flags": ("-o", "--output")}),
    "report": (None, "per-epoch loss CSV (default: <model>.report.csv)", {}),
    "out_prefix": (None, "prefix for the trajectory/fixes/commands CSVs", {}),
    "ssid": (_as_ssid_list, "SSID allowlist entry (repeatable)", {"action": "append"}),
    "aggregate": (_as_bool, "keep every resample as its own row instead of the per-location median",
                  {"flags": ("--no-aggregate",), "action": "store_false"}),
    "threshold": (float, "correlation threshold for feature selection", {}),
    "min_presence": (float, "optional presence-fraction pre-filter", {}),
    "ratio": (float, "train fraction for the split", {}),
    "epochs": (int, "training epochs", {}),
    "validation_split": (float, "validation fraction carved from the training rows", {}),
    "batch_size": (int, "minibatch size", {}),
    "learning_rate": (float, "optimizer learning rate", {}),
    "optimizer": (str, "optimizer", {"choices": ("adam", "sgd")}),
    "seed": (int, "seed of the split and training, the dataset noise (default: the world's) or the first trial", {}),
    "heading": (str, "initial heading E, N, W or S (default: along the first segment)", {}),
    "start": (_as_cell, "start cell 'ix,iy' (trials default to the reference corner route)", {}),
    "goal": (_as_cell, "goal cell 'ix,iy'", {}),
    "trials": (int, "number of seeded trials", {}),
    "oracle": (_as_bool, "use exact positions instead of the model", {"action": "store_true"}),
    "noise_sigma": (float, "every AP's shadowing noise, dB", {}),
    "success_radius": (float, "success radius around the goal, feet", {}),
    "scan_period": (float, "simulated seconds per scan", {}),
    "step_distance": (float, "forward step, feet", {}),
    "checkpoint_radius": (float, "checkpoint detection radius, feet", {}),
    "max_misses": (int, "consecutive missing fixes before abort", {}),
    "resamples": (int, "scans per location", {}),
    "world_seed": (int, "seed stored in the world file", {}),
}

_REQUIRED = object()  # the default of a flag that must be given
_NAV_POSITIONALS = {"world": "world file", "model?": "model file (optional with --oracle)"}
_NAV_DEFAULTS = {"start": None, "goal": None, "seed": 0, "oracle": False, "noise_sigma": None, "success_radius": 2.0,
                 "scan_period": 2.0, "step_distance": navctl.NavConfig.step_distance,
                 "checkpoint_radius": navctl.NavConfig.checkpoint_radius, "max_misses": navctl.NavConfig.max_consecutive_misses}

# command -> (function, help, positionals as name -> help with "?" marking an
# optional one, option defaults); a command has exactly the options it lists.
_COMMANDS = {
    "ingest": (cmd_ingest, "compile a directory of scan files into a dataset CSV",
               {"scan_dir": "directory of <x>_<y>_<rep>.txt scan files"}, {"output": _REQUIRED, "ssid": None, "aggregate": True}),
    "select-features": (cmd_select_features, "report per-column correlations and the kept set", {"dataset": "dataset CSV"},
                        {"output": None, "threshold": features.DEFAULT_PCC_THRESHOLD, "min_presence": None}),
    "train": (cmd_train, "select features, split, normalize and train a position model", {"dataset": "dataset CSV"},
              {"output": _REQUIRED, "report": None, "threshold": features.DEFAULT_PCC_THRESHOLD, "min_presence": None,
               "ratio": features.DEFAULT_TRAIN_RATIO, **{f.name: f.default for f in dataclasses.fields(model.TrainConfig)}}),
    "evaluate": (cmd_evaluate, "predicted-vs-actual scatter data and metrics for a dataset",
                 {"model": "model file", "dataset": "labelled dataset CSV"}, {"output": None}),
    "plan": (cmd_plan, "A* path and checkpoint plan on a grid map", {"map": "grid map text file"},
             {"start": _REQUIRED, "goal": _REQUIRED, "heading": None, "output": None}),
    "make-world": (cmd_make_world, "write the built-in reference simulation world", {},
                   {"output": _REQUIRED, "noise_sigma": 2.0, "world_seed": 7}),
    "make-dataset": (cmd_make_dataset, "generate a synthetic fingerprint dataset from a world", {"world": "world file"},
                     {"output": _REQUIRED, "resamples": 3, "seed": None, "noise_sigma": None}),
    "simulate": (cmd_simulate, "run seeded closed-loop trials and report the success rate", _NAV_POSITIONALS,
                 {"trials": 100, "output": None, **_NAV_DEFAULTS}),
    "navigate": (cmd_navigate, "run one closed-loop trial and write full logs", _NAV_POSITIONALS,
                 {"out_prefix": _REQUIRED, **_NAV_DEFAULTS}),
}


@lru_cache(maxsize=1)  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rssinav", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, positionals, defaults) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=summary)
        sub.add_argument("--config", help="key = value config file; flags override it")
        for name, help_text in positionals.items():
            sub.add_argument(name.rstrip("?"), nargs="?" if name.endswith("?") else None, default=_SUPPRESS, help=help_text)
        for name, default in defaults.items():
            caster, help_text, keywords = _OPTIONS[name]
            keywords = dict(keywords)
            flags = keywords.pop("flags", ("--" + name.replace("_", "-"),))
            if "action" not in keywords:
                keywords["type"] = caster
            sub.add_argument(*flags, dest=name, required=default is _REQUIRED, default=_SUPPRESS, help=help_text, **keywords)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, _, _, defaults = _COMMANDS[args.command]
    try:
        opts = _merge_options(args, defaults)
        if args.command in ("simulate", "navigate") and not opts.get("oracle") and not opts.get("model"):
            print("error: a model file is required unless --oracle is given", file=sys.stderr)
            return 2
        return func(opts)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
