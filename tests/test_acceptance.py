"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers and runtime."""

import csv
import io
import time

import numpy as np
import pytest

from test_model import max_relative_error, numeric_gradients, random_model_and_batch
from test_planner import bfs_cost, random_grid, random_reachable_pair

from rssinav import features, model, navctl, planner, rfsim, scan_ingest
from rssinav.cli import main, run_training_pipeline


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="session")
def trial_batch(ref_world, trained):
    """The calibrated corner-trial batch shared by criteria 5 and 6."""
    bundle, _, _ = trained
    world = rfsim.with_noise_sigma(ref_world, rfsim.REFERENCE_TRIAL_SIGMA)
    started = time.perf_counter()
    fix_error = rfsim.mean_fix_error(world, bundle, draws_per_cell=3, seed=1234)
    rate, results = rfsim.corner_success_rate(world, bundle, trials=100, base_seed=0)
    oracle_rate, _ = rfsim.corner_success_rate(world, None, trials=100, base_seed=0, oracle=True)
    doubled = rfsim.with_noise_sigma(ref_world, 2 * rfsim.REFERENCE_TRIAL_SIGMA)
    doubled_rate, doubled_results = rfsim.corner_success_rate(doubled, bundle, trials=100, base_seed=0)
    elapsed = time.perf_counter() - started
    return {
        "fix_error": fix_error,
        "rate": rate,
        "results": results + doubled_results,
        "oracle_rate": oracle_rate,
        "doubled_rate": doubled_rate,
        "elapsed": elapsed,
    }


def test_criterion_1_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        net, X, T = random_model_and_batch(rng)
        analytic = model.backward(net, X, T)
        numeric = numeric_gradients(net, X, T, step=1e-4)
        worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.perf_counter() - started
    report(1, "gradient-oracle", worst < 1e-4 and elapsed < 10.0, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_astar_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 200:
        grid = random_grid(rng, 20, 20, 0.3)
        pair = random_reachable_pair(rng, grid)
        if pair is None:
            continue
        start, goal = pair
        path = planner.astar(grid, start, goal)
        assert path.cost == bfs_cost(grid, start, goal), (start, goal)
        assert len(path.cells) - 1 >= planner.manhattan(start, goal)
        checked += 1
    elapsed = time.perf_counter() - started
    report(2, "astar-optimality", elapsed < 5.0, f"200 grids, all optimal, {elapsed:.1f}s")


def _random_dataset(rng):
    n_cols = int(rng.integers(0, 5))
    n_rows = int(rng.integers(0, 7))
    columns = tuple(f"{int(v):012X}" for v in rng.integers(0, 2**48, n_cols))
    columns = tuple(":".join(c[i : i + 2] for i in range(0, 12, 2)) for c in dict.fromkeys(columns))
    values = np.round(rng.uniform(-100, 10, (n_rows, len(columns))), 6)
    xs = np.round(rng.uniform(-50, 50, n_rows), 6)
    ys = np.round(rng.uniform(-50, 50, n_rows), 6)
    return scan_ingest.FingerprintDataset(columns, values, xs, ys)


def _random_bundle(rng):
    net, X, _ = random_model_and_batch(rng, output_width=2)  # a model file holds an (x, y) network
    macs = tuple(f"02:00:00:00:{i:02X}:01" for i in range(net.input_width))
    selection = features.FeatureSelection(
        macs,
        {m: float(rng.uniform(-1, 1)) for m in macs},
        {m: float(rng.uniform(-1, 1)) for m in macs},
        0.24,
    )
    lo = rng.uniform(-95, -60, net.input_width)
    params = features.NormalizationParams(lo, lo + rng.uniform(1, 40, net.input_width), 0.0, 0.0, float(rng.uniform(5, 20)))
    return model.ModelBundle(net, selection, params), X


def test_criterion_3_round_trips():
    fixture = 'Cell 01 - Address: AA:BB:CC:DD:EE:FF\nESSID:"CSU Net"\nSignal level=-61 dBm\n'
    ok = scan_ingest.parse_scan_text(fixture) == [scan_ingest.ScanEntry("AA:BB:CC:DD:EE:FF", "CSU Net", -61)]
    ok = ok and scan_ingest.parse_scan_text("") == []

    rng = np.random.default_rng(13)
    for _ in range(100):
        ds = _random_dataset(rng)
        buf = io.StringIO()
        scan_ingest.write_csv(ds, buf)
        ok = ok and scan_ingest.read_csv(io.StringIO(buf.getvalue())) == ds

    for _ in range(100):
        bundle, X = _random_bundle(rng)
        buf = io.BytesIO()
        model.save_model(bundle.model, bundle.selection, bundle.params, buf)
        loaded = model.load_model(io.BytesIO(buf.getvalue()))
        ok = ok and np.array_equal(model.forward(loaded.model, X), model.forward(bundle.model, X))
        ok = ok and loaded.selection == bundle.selection and loaded.params == bundle.params
    report(3, "round-trips", ok, "scan fixtures exact; 100 CSV + 100 model round-trips identical")


def test_criterion_4_synthetic_mae_band(ref_dataset):
    started = time.perf_counter()
    bundle, rep, _ = run_training_pipeline(ref_dataset, train_config=model.TrainConfig(seed=0))
    elapsed = time.perf_counter() - started

    mae = rep.test_mae_norm
    # the feet conversion is the exact product with the shared extent
    identity = features.error_feet(bundle.params, mae) == mae * bundle.params.extent
    conversion = features.error_feet(
        features.NormalizationParams(np.array([-90.0]), np.array([-30.0]), 0.0, 0.0, 12.0), 0.14
    ) == pytest.approx(1.68, abs=1e-12)  # 0.14 normalized over a 12 ft extent is 1.68 ft
    ok = mae <= 0.20 and identity and conversion and elapsed < 180.0
    report(4, "synthetic-mae-band", ok, f"test MAE_norm {mae:.4f} <= 0.20, ft = norm x extent exact, {elapsed:.1f}s")


def test_criterion_5_corner_navigation_band(trial_batch):
    fix_error = trial_batch["fix_error"]
    rate = trial_batch["rate"]
    oracle = trial_batch["oracle_rate"]
    doubled = trial_batch["doubled_rate"]
    elapsed = trial_batch["elapsed"]
    ok = (
        1.5 <= fix_error <= 1.9
        and 0.30 <= rate <= 0.70
        and oracle >= 0.95
        and doubled < rate
        and elapsed < 120.0
    )
    report(
        5,
        "corner-navigation-band",
        ok,
        f"fix err {fix_error:.2f} ft, rate {rate:.2f}, oracle {oracle:.2f}, doubled-sigma {doubled:.2f}, {elapsed:.1f}s",
    )


def test_criterion_6_navigation_safety(trial_batch):
    ok = True
    for result in trial_batch["results"]:
        previous = None
        for kind, _, _ in result.events:
            if kind == "command" and previous == "command":
                ok = False
            previous = kind

    config = navctl.NavConfig(max_consecutive_misses=10)
    plan = (planner.Checkpoint((3, 0), planner.Action.STOP),)
    state = navctl.NavState.initial(plan, config, navctl.DrivetrainCalibration())
    aborted_early = False
    for i in range(10):
        state, cmd = navctl.nav_step(state, None)
        aborted_early = aborted_early or state.mode is navctl.Mode.ABORTED or cmd is not None
    state, cmd = navctl.nav_step(state, None)  # the (max + 1)-th consecutive miss
    ok = ok and not aborted_early and state.mode is navctl.Mode.ABORTED and cmd is None
    report(6, "navigation-safety", ok, f"{len(trial_batch['results'])} trials alternate fix/command; abort at miss 11")


def test_criterion_7_feature_selection_properties():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(20):
        n = int(rng.integers(10, 60))
        xs = rng.uniform(0, 12, n)
        ys = rng.uniform(0, 12, n)
        tied = xs + rng.normal(0, 0.01 * 12, n)  # 1% of the coordinate range
        noise = rng.uniform(-90, -30, n)
        zeros = np.zeros(n)
        ds = scan_ingest.FingerprintDataset(
            ("02:00:00:00:00:01", "02:00:00:00:00:02", "02:00:00:00:00:03"),
            np.stack([tied, noise, zeros], axis=1),
            xs,
            ys,
        )
        at_zero = features.select_features(ds, threshold=0.0)
        ok = ok and set(at_zero.kept_columns) >= {"02:00:00:00:00:01", "02:00:00:00:00:02"}
        at_default = features.select_features(ds, threshold=0.24)
        ok = ok and "02:00:00:00:00:01" in at_default.kept_columns  # x-tied column always kept
        ok = ok and "02:00:00:00:00:03" not in at_default.kept_columns  # sentinel column always dropped
    report(7, "feature-selection-properties", ok, "20 random datasets: tied column kept, sentinel dropped")


def test_criterion_8_determinism(ref_world, tmp_path):
    world_file = tmp_path / "world.txt"
    rfsim.save_world(ref_world, world_file)
    dataset_file = tmp_path / "dataset.csv"
    scan_ingest.write_csv(rfsim.generate_synthetic_dataset(ref_world, resamples=3), dataset_file)

    models = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.bin"
        assert main(["train", str(dataset_file), "-o", str(out), "--seed", "7"]) == 0
        models.append(out.read_bytes())
    train_ok = models[0] == models[1]

    trials = []
    for name in ("a", "b"):
        out = tmp_path / f"trials_{name}.csv"
        code = main(
            ["simulate", str(world_file), str(tmp_path / "a.bin"), "--trials", "5", "--seed", "7", "-o", str(out)]
        )
        assert code == 0
        trials.append(out.read_bytes())
    simulate_ok = trials[0] == trials[1]
    report(8, "determinism", train_ok and simulate_ok, "train and simulate outputs byte-identical across reruns")
