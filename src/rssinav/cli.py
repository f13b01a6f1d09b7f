"""Command-line entry point for the whole pipeline.

Subcommands: ingest, select-features, train, evaluate, plan, simulate,
navigate, plus make-world / make-dataset to produce synthetic inputs.
Options may come from a ``key = value`` config file (``--config``); explicit
command-line flags win.  Every command is deterministic given its inputs
and seeds, and primary outputs are written atomically (temp file + rename)
so a failed run leaves nothing half-written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import features, model, navctl, planner, rfsim, scan_ingest
from .errors import ToolkitError

_SUPPRESS = argparse.SUPPRESS


class CliError(ToolkitError):
    """A command-line usage or input problem with a one-line diagnostic."""


def _as_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _as_ssid_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _as_cell(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'ix,iy', got {text!r}")
    return int(parts[0]), int(parts[1])


# Documented config-file schema: key -> (caster, help).  Unknown keys are errors.
CONFIG_SCHEMA = {
    "ssid": (_as_ssid_list, "comma-separated SSID allowlist for ingest"),
    "aggregate": (_as_bool, "aggregate repeated scans per location (default true)"),
    "threshold": (float, "correlation threshold for feature selection"),
    "min_presence": (float, "optional presence-fraction pre-filter (off by default)"),
    "ratio": (float, "train fraction for the split"),
    "epochs": (int, "training epochs"),
    "validation_split": (float, "validation fraction carved from training data"),
    "batch_size": (int, "minibatch size"),
    "learning_rate": (float, "optimizer learning rate"),
    "optimizer": (str, "adam or sgd"),
    "seed": (int, "seed for split/training/simulation"),
    "heading": (str, "initial heading letter: E, N, W or S"),
    "start": (_as_cell, "start cell as ix,iy"),
    "goal": (_as_cell, "goal cell as ix,iy"),
    "trials": (int, "number of simulation trials"),
    "oracle": (_as_bool, "use exact positions instead of the model"),
    "noise_sigma": (float, "override every AP's shadowing noise, dB"),
    "success_radius": (float, "success radius around the goal, feet"),
    "scan_period": (float, "simulated seconds per scan"),
    "step_distance": (float, "forward step length, feet"),
    "checkpoint_radius": (float, "checkpoint detection radius, feet"),
    "max_misses": (int, "consecutive missing fixes before abort"),
    "resamples": (int, "scans per location for synthetic datasets"),
    "world_seed": (int, "seed stored in a generated world file"),
}


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        caster = CONFIG_SCHEMA[key][0]
        try:
            values[key] = caster(value.strip())
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _merge_options(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- explicit flags."""
    merged = dict(defaults)
    explicit = {k: v for k, v in vars(args).items() if k not in ("command", "config", "func")}
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = _parse_config_file(config_path)
        merged.update({k: v for k, v in file_values.items() if k in defaults})
    merged.update(explicit)
    return merged


@contextlib.contextmanager
def _atomic_output(path, binary: bool = False):
    """Write to a unique temp file next to ``path`` (mode 0o666 less the umask) and rename on success."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    umask = os.umask(0)
    os.umask(umask)
    mode = "wb" if binary else "w"
    try:
        with open(fd, mode, encoding=None if binary else "utf-8", newline=None if binary else "") as fh:
            os.chmod(tmp, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _write_rows(path, header, rows) -> None:
    """Atomically write a CSV of a header and rows; floats (numpy's too) are
    written as repr(float), so they round-trip, and None as an empty cell."""
    with _atomic_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def run_training_pipeline(
    dataset: scan_ingest.FingerprintDataset,
    threshold: float = features.DEFAULT_PCC_THRESHOLD,
    ratio: float = features.DEFAULT_TRAIN_RATIO,
    train_config: model.TrainConfig | None = None,
    min_presence: float | None = None,
):
    """Feature selection, split, normalization and training in one call.

    Returns (bundle, report, split); the report carries the test-set
    normalized MAE and mean Euclidean error in feet when the split left any
    test rows.
    """
    train_config = train_config or model.TrainConfig()
    if min_presence is not None:
        dataset = features.reduce_columns(dataset, features.columns_with_presence(dataset, min_presence))
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
    pred = model.forward(bundle.model, inputs, mode="infer")
    mae_norm = model.mae_loss(pred, truth)
    per_row_norm = np.linalg.norm(pred - truth, axis=1)
    mean_ft = features.error_feet(bundle.params, float(per_row_norm.mean()))
    pred_ft = features.denormalize_coords(bundle.params, pred)
    rows = [(tx, ty, px, py) for (tx, ty), (px, py) in zip(truth_ft, pred_ft)]
    return mae_norm, mean_ft, rows


def _load_world_with_overrides(opts) -> rfsim.SimWorld:
    world = rfsim.load_world(opts["world"])
    if opts.get("noise_sigma") is not None:
        world = rfsim.with_noise_sigma(world, opts["noise_sigma"])
    return world


def _trial_logs(result: rfsim.TrialResult) -> tuple[list, list]:
    """A trial's command-log rows and fix rows, derived from its event log."""
    commands = [(t, c.left_speed, c.right_speed, c.duration, c.reason) for kind, t, c in result.events if kind == "command"]
    fixes = [payload for kind, _, payload in result.events if kind != "command"]
    return commands, [(*true, *(estimate or (None, None))) for true, estimate in fixes]


def _trial_options(opts) -> dict:
    """The run_trial keyword arguments that simulate and navigate share."""
    nav_config = navctl.NavConfig(
        step_distance=opts["step_distance"],
        checkpoint_radius=opts["checkpoint_radius"],
        max_consecutive_misses=opts["max_misses"],
    )
    return dict(nav_config=nav_config, success_radius=opts["success_radius"], oracle=opts["oracle"], scan_period=opts["scan_period"])


def _write_dataset(dataset: scan_ingest.FingerprintDataset, path) -> int:
    with _atomic_output(path) as fh:
        scan_ingest.write_csv(dataset, fh)
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
        print(f"no scan files found in {directory}", file=sys.stderr)
        return 1
    return _write_dataset(scan_ingest.build_dataset(snapshots), opts["output"])


def cmd_select_features(opts) -> int:
    dataset = scan_ingest.read_csv(opts["dataset"])
    if opts.get("min_presence") is not None:
        dataset = features.reduce_columns(dataset, features.columns_with_presence(dataset, opts["min_presence"]))
    selection = features.select_features(dataset, opts["threshold"])
    kept = set(selection.kept_columns)
    print(f"kept {len(kept)} of {len(dataset.ap_columns)} columns at threshold {opts['threshold']}")
    for mac in dataset.ap_columns:
        marker = "*" if mac in kept else " "
        print(f" {marker} {mac}  pcc_x={selection.pcc_x[mac]:+.4f}  pcc_y={selection.pcc_y[mac]:+.4f}")
    if opts.get("output"):
        rows = [(mac, int(mac in kept), selection.pcc_x[mac], selection.pcc_y[mac]) for mac in dataset.ap_columns]
        _write_rows(opts["output"], ["mac", "kept", "pcc_x", "pcc_y"], rows)
    return 0


def cmd_train(opts) -> int:
    dataset = scan_ingest.read_csv(opts["dataset"])
    config = model.TrainConfig(
        epochs=opts["epochs"],
        validation_split=opts["validation_split"],
        batch_size=opts["batch_size"],
        learning_rate=opts["learning_rate"],
        seed=opts["seed"],
        optimizer=opts["optimizer"],
    )
    bundle, report, _ = run_training_pipeline(
        dataset, threshold=opts["threshold"], ratio=opts["ratio"], train_config=config, min_presence=opts.get("min_presence")
    )
    with _atomic_output(opts["output"], binary=True) as fh:
        model.save_model(bundle.model, bundle.selection, bundle.params, fh)
    report_path = opts.get("report") or str(opts["output"]) + ".report.csv"
    with _atomic_output(report_path) as fh:
        model.write_report_csv(report, fh)
    print(f"kept columns: {len(bundle.selection.kept_columns)}; epochs: {config.epochs}")
    if report.test_mae_norm is not None:
        print(f"test normalized MAE: {report.test_mae_norm:.4f}")
        print(f"test mean error: {report.test_mean_error_ft:.2f} ft")
    else:
        print(f"final train loss (no test rows): {report.train_loss[-1]:.4f}")
    return 0


def cmd_evaluate(opts) -> int:
    bundle = model.load_model(opts["model"])
    dataset = scan_ingest.read_csv(opts["dataset"])
    mae_norm, mean_ft, rows = evaluate_bundle(bundle, dataset)
    if opts.get("output"):
        _write_rows(opts["output"], ["x_true", "y_true", "x_pred", "y_pred"], rows)
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
        with _atomic_output(opts["output"]) as fh:
            planner.write_plan_csv(checkpoints, fh)
    print(f"path: {len(path.cells)} cells, cost {path.cost}")
    for cp in checkpoints:
        print(f"  {cp.cell[0]},{cp.cell[1]}  {cp.action.value}")
    return 0


def cmd_make_world(opts) -> int:
    world = rfsim.reference_world(noise_sigma=opts["noise_sigma"], rng_seed=opts["world_seed"])
    with _atomic_output(opts["output"]) as fh:
        rfsim.save_world(world, fh)
    print(f"wrote reference world ({len(world.grid.walkable_cells())} walkable cells, {len(world.aps)} APs) to {opts['output']}")
    return 0


def cmd_make_dataset(opts) -> int:
    world = _load_world_with_overrides(opts)
    dataset = rfsim.generate_synthetic_dataset(world, resamples=opts["resamples"], seed=opts.get("seed"))
    return _write_dataset(dataset, opts["output"])


def cmd_simulate(opts) -> int:
    world = _load_world_with_overrides(opts)
    bundle = None if opts["oracle"] else model.load_model(opts["model"])
    rate, results = rfsim.corner_success_rate(
        world,
        bundle,
        trials=opts["trials"],
        base_seed=opts["seed"],
        start=opts.get("start"),
        goal=opts.get("goal"),
        **_trial_options(opts),
    )
    if opts.get("output"):
        rows = [(i, r.seed, int(r.success), r.final_error, r.reason, *map(len, _trial_logs(r))) for i, r in enumerate(results)]
        _write_rows(opts["output"], ["trial", "seed", "success", "final_error_ft", "reason", "commands", "fixes"], rows)
    successes = sum(r.success for r in results)
    print(f"success rate: {successes}/{len(results)} = {rate:.2f}")
    return 0


def cmd_navigate(opts) -> int:
    world = _load_world_with_overrides(opts)
    bundle = None if opts["oracle"] else model.load_model(opts["model"])
    start = opts.get("start") or rfsim.REFERENCE_START
    goal = opts.get("goal") or rfsim.REFERENCE_GOAL
    result = rfsim.run_trial(
        world,
        bundle,
        start,
        goal,
        seed=opts["seed"],
        **_trial_options(opts),
    )
    prefix = opts["out_prefix"]
    commands, fixes = _trial_logs(result)
    _write_rows(f"{prefix}_trajectory.csv", ["x", "y", "heading"], result.trajectory)
    _write_rows(f"{prefix}_fixes.csv", ["x_true", "y_true", "x_est", "y_est"], fixes)
    _write_rows(f"{prefix}_commands.csv", ["timestamp", "left_speed", "right_speed", "duration", "reason"], commands)
    status = "success" if result.success else f"failure ({result.reason})"
    print(f"{status}: final error {result.final_error:.2f} ft after {len(commands)} commands")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

_DEFAULTS = {
    "ingest": {"ssid": None, "aggregate": True},
    "select-features": {"threshold": features.DEFAULT_PCC_THRESHOLD, "min_presence": None, "output": None},
    "train": {
        "threshold": features.DEFAULT_PCC_THRESHOLD,
        "min_presence": None,
        "ratio": features.DEFAULT_TRAIN_RATIO,
        "epochs": model.DEFAULT_EPOCHS,
        "validation_split": model.DEFAULT_VALIDATION_SPLIT,
        "batch_size": model.DEFAULT_BATCH_SIZE,
        "learning_rate": model.DEFAULT_LEARNING_RATE,
        "optimizer": "adam",
        "seed": 0,
        "report": None,
    },
    "evaluate": {"output": None},
    "plan": {"heading": None, "output": None},
    "make-world": {"noise_sigma": 2.0, "world_seed": 7},
    "make-dataset": {"resamples": 3, "seed": None, "noise_sigma": None},
    "simulate": {
        "trials": 100,
        "seed": 0,
        "oracle": False,
        "noise_sigma": None,
        "start": None,
        "goal": None,
        "success_radius": 2.0,
        "scan_period": 2.0,
        "step_distance": 2.0,
        "checkpoint_radius": 1.5,
        "max_misses": 10,
        "output": None,
        "model": None,
    },
    "navigate": {
        "seed": 0,
        "oracle": False,
        "noise_sigma": None,
        "start": None,
        "goal": None,
        "success_radius": 2.0,
        "scan_period": 2.0,
        "step_distance": 2.0,
        "checkpoint_radius": 1.5,
        "max_misses": 10,
        "model": None,
    },
}


def _add_nav_options(sub) -> None:
    sub.add_argument("--start", type=_as_cell, default=_SUPPRESS, help="start cell 'ix,iy' (default: world's corner route)")
    sub.add_argument("--goal", type=_as_cell, default=_SUPPRESS, help="goal cell 'ix,iy'")
    sub.add_argument("--seed", type=int, default=_SUPPRESS, help="base seed")
    sub.add_argument("--oracle", action="store_true", default=_SUPPRESS, help="use exact positions instead of the model")
    sub.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=_SUPPRESS, help="override AP shadowing noise, dB")
    sub.add_argument("--success-radius", dest="success_radius", type=float, default=_SUPPRESS, help="success radius, feet")
    sub.add_argument("--scan-period", dest="scan_period", type=float, default=_SUPPRESS, help="simulated seconds per scan")
    sub.add_argument("--step-distance", dest="step_distance", type=float, default=_SUPPRESS, help="forward step, feet")
    sub.add_argument("--checkpoint-radius", dest="checkpoint_radius", type=float, default=_SUPPRESS, help="checkpoint radius, feet")
    sub.add_argument("--max-misses", dest="max_misses", type=int, default=_SUPPRESS, help="consecutive missing fixes before abort")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rssinav", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", help="key = value config file; flags override it")
        sub.set_defaults(func=func)
        return sub

    sub = add("ingest", cmd_ingest, "compile a directory of scan files into a dataset CSV")
    sub.add_argument("scan_dir", help="directory of <x>_<y>_<rep>.txt scan files")
    sub.add_argument("-o", "--output", required=True, help="dataset CSV to write")
    sub.add_argument("--ssid", action="append", default=_SUPPRESS, help="SSID allowlist entry (repeatable)")
    sub.add_argument("--no-aggregate", dest="aggregate", action="store_false", default=_SUPPRESS,
                     help="keep every resample as its own row instead of the per-location median")

    sub = add("select-features", cmd_select_features, "report per-column correlations and the kept set")
    sub.add_argument("dataset", help="dataset CSV")
    sub.add_argument("-o", "--output", default=_SUPPRESS, help="optional selection report CSV")
    sub.add_argument("--threshold", type=float, default=_SUPPRESS, help="correlation threshold")
    sub.add_argument("--min-presence", dest="min_presence", type=float, default=_SUPPRESS, help="optional presence pre-filter")

    sub = add("train", cmd_train, "select features, split, normalize and train a position model")
    sub.add_argument("dataset", help="dataset CSV")
    sub.add_argument("-o", "--output", required=True, help="model file to write")
    sub.add_argument("--report", default=_SUPPRESS, help="per-epoch loss CSV (default: <model>.report.csv)")
    sub.add_argument("--threshold", type=float, default=_SUPPRESS, help="correlation threshold")
    sub.add_argument("--min-presence", dest="min_presence", type=float, default=_SUPPRESS, help="optional presence pre-filter")
    sub.add_argument("--ratio", type=float, default=_SUPPRESS, help="train fraction")
    sub.add_argument("--epochs", type=int, default=_SUPPRESS)
    sub.add_argument("--validation-split", dest="validation_split", type=float, default=_SUPPRESS)
    sub.add_argument("--batch-size", dest="batch_size", type=int, default=_SUPPRESS)
    sub.add_argument("--learning-rate", dest="learning_rate", type=float, default=_SUPPRESS)
    sub.add_argument("--optimizer", choices=("adam", "sgd"), default=_SUPPRESS)
    sub.add_argument("--seed", type=int, default=_SUPPRESS)

    sub = add("evaluate", cmd_evaluate, "predicted-vs-actual scatter data and metrics for a dataset")
    sub.add_argument("model", help="model file")
    sub.add_argument("dataset", help="labelled dataset CSV")
    sub.add_argument("-o", "--output", default=_SUPPRESS, help="scatter CSV (x_true,y_true,x_pred,y_pred)")

    sub = add("plan", cmd_plan, "A* path and checkpoint plan on a grid map")
    sub.add_argument("map", help="grid map text file")
    sub.add_argument("--start", type=_as_cell, required=True, help="start cell 'ix,iy'")
    sub.add_argument("--goal", type=_as_cell, required=True, help="goal cell 'ix,iy'")
    sub.add_argument("--heading", default=_SUPPRESS, help="initial heading (E/N/W/S); default: along the first segment")
    sub.add_argument("-o", "--output", default=_SUPPRESS, help="plan CSV (ix,iy,action)")

    sub = add("make-world", cmd_make_world, "write the built-in reference simulation world")
    sub.add_argument("-o", "--output", required=True, help="world file to write")
    sub.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=_SUPPRESS, help="AP shadowing noise, dB")
    sub.add_argument("--world-seed", dest="world_seed", type=int, default=_SUPPRESS, help="seed stored in the world file")

    sub = add("make-dataset", cmd_make_dataset, "generate a synthetic fingerprint dataset from a world")
    sub.add_argument("world", help="world file")
    sub.add_argument("-o", "--output", required=True, help="dataset CSV to write")
    sub.add_argument("--resamples", type=int, default=_SUPPRESS, help="scans per location")
    sub.add_argument("--seed", type=int, default=_SUPPRESS, help="noise seed (default: the world's seed)")
    sub.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=_SUPPRESS, help="override AP noise, dB")

    sub = add("simulate", cmd_simulate, "run seeded closed-loop trials and report the success rate")
    sub.add_argument("world", help="world file")
    sub.add_argument("model", nargs="?", default=_SUPPRESS, help="model file (optional with --oracle)")
    sub.add_argument("--trials", type=int, default=_SUPPRESS)
    sub.add_argument("-o", "--output", default=_SUPPRESS, help="per-trial results CSV")
    _add_nav_options(sub)

    sub = add("navigate", cmd_navigate, "run one closed-loop trial and write full logs")
    sub.add_argument("world", help="world file")
    sub.add_argument("model", nargs="?", default=_SUPPRESS, help="model file (optional with --oracle)")
    sub.add_argument("--out-prefix", dest="out_prefix", required=True, help="prefix for trajectory/fixes/commands CSVs")
    _add_nav_options(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_options(args, _DEFAULTS.get(args.command, {}))
        if args.command in ("simulate", "navigate") and not opts.get("oracle") and not opts.get("model"):
            print("error: a model file is required unless --oracle is given", file=sys.stderr)
            return 2
        return args.func(opts)
    except (ToolkitError, OSError, ValueError) as exc:  # ValueError: option and dataclass validation
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
