import contextlib
import csv
import hashlib
import io
import json
import os
import re
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rssinav import cli, features, model, scan_ingest
from rssinav.cli import build_parser, main
from rssinav.errors import ToolkitError

ONE_CELL = (
    "Cell 01 - Address: AA:BB:CC:DD:EE:0{i}\n"
    '          ESSID:"CSU Net"\n'
    "          Signal level={level} dBm\n"
)


def write_scan_dir(tmp_path):
    scans = tmp_path / "scans"
    scans.mkdir()
    for (x, y), base in (((0, 0), -52), ((4, 0), -63)):
        for rep in range(3):
            text = "".join(
                ONE_CELL.format(i=i, level=base - 3 * i + rep) for i in (1, 2)
            )
            (scans / f"{x}_{y}_{rep}.txt").write_text(text)
    return scans


def model_bytes(bundle) -> bytes:
    sink = io.BytesIO()
    model.save_model(bundle.model, bundle.selection, bundle.params, sink)
    return sink.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """world + dataset + trained model, built once through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    world = root / "world.txt"
    dataset = root / "dataset.csv"
    model = root / "model.bin"
    assert main(["make-world", "-o", str(world)]) == 0
    assert main(["make-dataset", str(world), "-o", str(dataset)]) == 0
    assert main(["train", str(dataset), "-o", str(model), "--epochs", "150", "--seed", "3"]) == 0
    return root, world, dataset, model


class TestIngest:
    def test_fixture_directory(self, tmp_path, capsys):
        scans = write_scan_dir(tmp_path)
        out = tmp_path / "ds.csv"
        assert main(["ingest", str(scans), "-o", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["AA:BB:CC:DD:EE:01", "AA:BB:CC:DD:EE:02", "x", "y"]
        assert len(rows) == 3  # header + 2 locations
        assert "2 rows" in capsys.readouterr().out

    def test_no_aggregate_keeps_resamples(self, tmp_path):
        scans = write_scan_dir(tmp_path)
        out = tmp_path / "ds.csv"
        assert main(["ingest", str(scans), "-o", str(out), "--no-aggregate"]) == 0
        assert len(list(csv.reader(out.read_text().splitlines()))) == 7  # header + 2 locations x 3 reps

    def test_ssid_allowlist_flag(self, tmp_path):
        scans = write_scan_dir(tmp_path)
        (scans / "9_9_0.txt").write_text('Cell 01 - Address: 99:00:00:00:00:01\nESSID:"Hotspot"\nSignal level=-30 dBm\n')
        out = tmp_path / "ds.csv"
        assert main(["ingest", str(scans), "-o", str(out), "--ssid", "CSU Net"]) == 0
        header = next(csv.reader(out.read_text().splitlines()))
        assert "99:00:00:00:00:01" not in header

    @pytest.mark.parametrize("ssids", [["Nope"], ["Nope", "CSU Visitor"]])
    def test_ssid_allowlist_matching_no_access_point_fails(self, tmp_path, capsys, ssids):
        scans = write_scan_dir(tmp_path)
        out = tmp_path / "ds.csv"
        assert main(["ingest", str(scans), "-o", str(out), *(arg for ssid in ssids for arg in ("--ssid", ssid))]) == 1
        named = ", ".join(repr(ssid) for ssid in sorted(ssids))
        assert capsys.readouterr().err == f"error: no access point on SSID {named} in the scans of {scans}; nothing to write\n"
        assert not out.exists()

    def test_captures_without_cells_fail(self, tmp_path, capsys):
        scans = tmp_path / "scans"
        scans.mkdir()
        (scans / "0_0_0.txt").write_text("wlan0     No scan results\n")
        assert main(["ingest", str(scans), "-o", str(tmp_path / "ds.csv")]) == 1
        assert capsys.readouterr().err == f"error: no access point in the scans of {scans}; nothing to write\n"
        assert not (tmp_path / "ds.csv").exists()

    def test_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["ingest", str(empty), "-o", str(tmp_path / "ds.csv")]) == 1
        assert "no scan files found" in capsys.readouterr().err
        assert not (tmp_path / "ds.csv").exists()

    def test_malformed_file_named_in_diagnostics(self, tmp_path, capsys):
        scans = write_scan_dir(tmp_path)
        bad = scans / "1_1_0.txt"
        duplicate_mac = ONE_CELL.format(i=1, level=-50) * 2
        latin1_essid = ONE_CELL.format(i=1, level=-50).replace("CSU Net", "CSU\xffNet")
        for content in (duplicate_mac.encode(), latin1_essid.encode("latin-1")):
            bad.write_bytes(content)
            assert main(["ingest", str(scans), "-o", str(tmp_path / "ds.csv")]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(str(bad) + ": ")  # listed with the per-file errors
            assert not (tmp_path / "ds.csv").exists()

    def test_signal_level_too_long_for_int_is_listed(self, tmp_path, capsys):
        scans = tmp_path / "scans"
        scans.mkdir()
        (scans / "0_0_0.txt").write_text(ONE_CELL.format(i=1, level=-50))
        bad = scans / "1_0_0.txt"
        bad.write_text(ONE_CELL.format(i=1, level="-" + "9" * 4301))  # more digits than int() converts
        assert main(["ingest", str(scans), "-o", str(tmp_path / "ds.csv")]) == 1
        assert capsys.readouterr().err == f"{bad}: cell 01 has a signal level of 4301 digits\n"
        assert not (tmp_path / "ds.csv").exists()

    def test_each_failing_capture_named_once(self, tmp_path, capsys):
        scans = write_scan_dir(tmp_path)
        latin1, duplicate_mac = scans / "1.5_0.5_0.txt", scans / "2_2_0.txt"
        latin1.write_bytes(ONE_CELL.format(i=1, level=-50).replace("CSU Net", "CSU\xe9Net").encode("latin-1"))
        duplicate_mac.write_text(ONE_CELL.format(i=1, level=-50) * 2)
        assert main(["ingest", str(scans), "-o", str(tmp_path / "ds.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and err.count(str(latin1)) == err.count(str(duplicate_mac)) == 1

    def test_a_position_the_dataset_readers_refuse_writes_nothing(self, tmp_path, capsys):
        scans = write_scan_dir(tmp_path)
        (scans / "20000000000_0_0.txt").write_text(ONE_CELL.format(i=1, level=-50))  # parses; x is past COORDINATE_LIMIT, in row 3
        out = tmp_path / "ds.csv"
        assert main(["ingest", str(scans), "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: dataset row 3, column x: 2e+10 ft is outside [-1e+09, 1e+09]\n"
        assert not out.exists()


def test_make_dataset_refuses_cells_the_dataset_readers_refuse(workspace, tmp_path, capsys):
    world = tmp_path / "world.txt"
    lines = workspace[1].read_text().splitlines(keepends=True)
    world.write_text("12 12 1e300\n" + "".join(lines[1:]))  # the first cell's center is x = 5e299 ft
    out = tmp_path / "ds.csv"
    assert main(["make-dataset", str(world), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: dataset row 1, column x: 5e+299 ft is outside [-1e+09, 1e+09]\n"
    assert not out.exists()


class TestTrainEvaluate:
    def test_train_writes_model_and_report(self, workspace, capsys):
        root, _, _, model = workspace
        assert model.exists()
        assert (root / "model.bin.report.csv").exists()

    def test_train_is_byte_deterministic(self, workspace, tmp_path):
        _, _, dataset, _ = workspace
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            assert main(["train", str(dataset), "-o", str(out), "--epochs", "40", "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.bin.report.csv").read_bytes() == (tmp_path / "b.bin.report.csv").read_bytes()

    @pytest.mark.parametrize("variant", ["byte-order mark", "lower-case header"])
    def test_a_variant_of_the_dataset_text_trains_the_same_model(self, workspace, tmp_path, variant):
        _, _, dataset, _ = workspace
        header, rows = dataset.read_bytes().split(b"\n", 1)
        plain = header.replace(b"02:00:00:00:00:", b"AA:BB:CC:DD:EE:") + b"\n" + rows
        (tmp_path / "plain.csv").write_bytes(plain)
        if variant == "byte-order mark":
            (tmp_path / "variant.csv").write_bytes("\ufeff".encode() + plain)
        else:
            (tmp_path / "variant.csv").write_bytes(header.replace(b"02:00:00:00:00:", b"aa:bb:cc:dd:ee:") + b"\n" + rows)
        for name in ("plain", "variant"):
            assert main(["train", str(tmp_path / f"{name}.csv"), "-o", str(tmp_path / f"{name}.bin"), "--epochs", "40", "--seed", "7"]) == 0
        assert (tmp_path / "variant.bin").read_bytes() == (tmp_path / "plain.bin").read_bytes()

    def test_train_without_flags_writes_the_library_defaults_model(self, workspace, tmp_path):
        _, _, dataset, _ = workspace
        out = tmp_path / "m.bin"
        assert main(["train", str(dataset), "-o", str(out)]) == 0
        assert out.read_bytes() == model_bytes(cli.run_training_pipeline(scan_ingest.read_csv(dataset))[0])

    def test_min_presence_drops_a_sparse_column_in_select_features_and_train(self, workspace, tmp_path):
        _, _, dataset, _ = workspace
        sparse = "02:00:00:00:00:02"
        header, *rows = dataset.read_text().splitlines()
        column = header.split(",").index(sparse)
        cells = [row.split(",") for row in rows]
        for row in cells:
            if float(row[-2]) < 8:  # 75 of the 95 rows: missing (0) there, so it tracks x
                row[column] = "0"
        path = tmp_path / "sparse.csv"
        path.write_text("".join(",".join(line) + "\n" for line in [header.split(","), *cells]))
        data = scan_ingest.read_csv(path)
        assert sparse in features.select_features(data).kept_columns  # correlation alone keeps it
        reduced = features.reduce_columns(data, features.columns_with_presence(data, 0.5))
        assert sparse not in reduced.ap_columns

        assert main(["select-features", str(path), "--min-presence", "0.5", "-o", str(tmp_path / "f.csv")]) == 0
        listed = [line.split(",")[0] for line in (tmp_path / "f.csv").read_text().splitlines()[1:]]
        assert listed == list(reduced.ap_columns)
        out = tmp_path / "m.bin"
        assert main(["train", str(path), "--min-presence", "0.5", "--epochs", "40", "--seed", "7", "-o", str(out)]) == 0
        bundle, _, _ = cli.run_training_pipeline(reduced, train_config=model.TrainConfig(epochs=40, seed=7))
        assert model.load_model(out).selection.kept_columns == bundle.selection.kept_columns
        assert out.read_bytes() == model_bytes(bundle)

    def test_missing_dataset_fails_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "model.bin"
        assert main(["train", str(tmp_path / "nope.csv"), "-o", str(out)]) == 1
        assert not out.exists()

    def test_evaluate_scatter_rows_match_dataset(self, workspace, tmp_path, capsys):
        _, _, dataset, model = workspace
        scatter = tmp_path / "scatter.csv"
        assert main(["evaluate", str(model), str(dataset), "-o", str(scatter)]) == 0
        rows = list(csv.reader(scatter.read_text().splitlines()))
        assert rows[0] == ["x_true", "y_true", "x_pred", "y_pred"]
        assert len(rows) - 1 == 95
        printed = capsys.readouterr().out
        assert "normalized MAE" in printed and "mean error" in printed

    def test_evaluate_on_training_rows_beats_recorded_heldout_error(self, trained):
        from rssinav.cli import evaluate_bundle

        bundle, report, split = trained
        mae_on_train, _, _ = evaluate_bundle(bundle, split.train)
        assert mae_on_train <= report.test_mae_norm

    def test_evaluate_incompatible_dataset_fails(self, workspace, tmp_path, capsys):
        _, _, _, model = workspace
        other = tmp_path / "other.csv"
        other.write_text("FF:00:00:00:00:01,x,y\n-50,1,2\n")
        assert main(["evaluate", str(model), str(other)]) == 1
        assert "missing feature columns" in capsys.readouterr().err

    # finite weights whose predictions overflow: finite but about 1e302 ft away (inf ft off), or NaN
    @pytest.mark.parametrize("weight, prediction, error", [(1e300, r"\(-?[\d.]+e\+30\d, -?[\d.]+e\+30\d\)", "inf"), (1e308, r"\(nan, nan\)", "nan")])
    def test_evaluate_refuses_an_overflowing_model_naming_the_row(self, workspace, tmp_path, capsys, weight, prediction, error):
        from rssinav.model import load_model, save_model

        _, _, dataset, model = workspace
        bundle = load_model(model)
        bundle.model.layers[0].weights[...] = weight
        save_model(bundle.model, bundle.selection, bundle.params, tmp_path / "huge.bin")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert main(["evaluate", str(tmp_path / "huge.bin"), str(dataset), "-o", str(tmp_path / "scatter.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(rf"error: dataset row 1: the prediction {prediction} ft or its error {error} ft is not finite\n", err)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["huge.bin"]


class TestPlan:
    def test_plan_csv(self, workspace, tmp_path, capsys):
        root, world, _, _ = workspace
        map_file = tmp_path / "map.txt"
        map_file.write_text("".join(world.read_text().splitlines(keepends=True)[:13]))
        out = tmp_path / "plan.csv"
        assert main(["plan", str(map_file), "--start", "0,0", "--goal", "11,3", "-o", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["ix", "iy", "action"]
        assert rows[-1][2] == "stop"
        assert "cost 14" in capsys.readouterr().out

    def test_no_route_fails(self, workspace, tmp_path, capsys):
        _, world, _, _ = workspace
        map_file = tmp_path / "map.txt"
        map_file.write_text("".join(world.read_text().splitlines(keepends=True)[:13]))
        assert main(["plan", str(map_file), "--start", "0,0", "--goal", "11,11"]) == 1


class TestSimulateNavigate:
    def test_oracle_simulate_rate_printed(self, workspace, tmp_path, capsys):
        _, world, _, _ = workspace
        out = tmp_path / "trials.csv"
        assert main(["simulate", str(world), "--oracle", "--trials", "3", "-o", str(out)]) == 0
        assert "success rate: 3/3 = 1.00" in capsys.readouterr().out
        assert len(list(csv.reader(out.read_text().splitlines()))) == 4

    def test_simulate_is_deterministic(self, workspace, tmp_path):
        _, world, _, model = workspace
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", str(world), str(model), "--trials", "1", "--seed", "7", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("oracle", [False, True])
    def test_simulate_prints_its_rate_once(self, workspace, tmp_path, monkeypatch, oracle):
        # stdout is a block-buffered file, as in `rssinav simulate ... > out.txt`
        _, world, _, model = workspace
        stdout = tmp_path / "stdout.txt"
        argv = ["simulate", str(world), *(["--oracle"] if oracle else [str(model)]), "--trials", "7"]
        with open(stdout, "w", encoding="utf-8") as fh:
            monkeypatch.setattr(sys, "stdout", fh)
            print("before the run, unflushed")
            assert main([*argv, "-o", str(tmp_path / "trials.csv")]) == 0
            monkeypatch.undo()
        assert re.fullmatch(r"before the run, unflushed\nsuccess rate: \d/7 = \d\.\d\d\n", stdout.read_text())

    def test_model_required_without_oracle(self, workspace, capsys):
        _, world, _, _ = workspace
        assert main(["simulate", str(world), "--trials", "1"]) == 2
        assert "model file is required" in capsys.readouterr().err

    def test_navigate_writes_logs(self, workspace, tmp_path, capsys):
        _, world, _, _ = workspace
        prefix = str(tmp_path / "run")
        code = main(["navigate", str(world), "--oracle", "--out-prefix", prefix])
        assert code == 0
        for suffix in ("_trajectory.csv", "_fixes.csv", "_commands.csv"):
            assert (tmp_path / f"run{suffix}").exists()
        commands = list(csv.reader(Path(prefix + "_commands.csv").read_text().splitlines()))
        assert commands[0] == ["timestamp", "left_speed", "right_speed", "duration", "reason"]
        assert commands[-1][4] == "stop"
        assert commands[-1][1:4] == ["0.0", "0.0", "0.0"]  # floats as repr(float), even whole ones
        assert all(repr(float(cell)) == cell for row in commands[1:] for cell in row[:4])
        assert f"after {len(commands) - 1} commands" in capsys.readouterr().out
        fixes = list(csv.reader(Path(prefix + "_fixes.csv").read_text().splitlines()))
        assert fixes[0] == ["x_true", "y_true", "x_est", "y_est"]
        assert all(row[:2] == row[2:] for row in fixes[1:])  # an oracle fix is the true position
        trajectory = list(csv.reader(Path(prefix + "_trajectory.csv").read_text().splitlines()))
        assert trajectory[:2] == [["x", "y", "heading"], ["0.5", "0.5", "0.0"]]  # the start cell, facing east

    @pytest.mark.parametrize("foreign_aps", [False, True])
    def test_navigate_matches_its_simulate_row(self, workspace, tmp_path, capsys, foreign_aps):
        _, world, _, model = workspace
        if foreign_aps:  # APs the model has never seen: every scan is a missed fix, and the run aborts
            renamed = tmp_path / "foreign_world.txt"
            renamed.write_text(world.read_text().replace("ap 02:00:00:00:00:0", "ap 02:00:00:00:00:1"))
            world = renamed
        table = tmp_path / "trials.csv"
        assert main(["simulate", str(world), str(model), "--trials", "4", "--seed", "2", "-o", str(table)]) == 0
        capsys.readouterr()
        for row in csv.DictReader(table.read_text().splitlines()):
            prefix = str(tmp_path / f"run{row['seed']}")
            assert main(["navigate", str(world), str(model), "--seed", row["seed"], "--out-prefix", prefix]) == 0
            status = "success" if row["success"] == "1" else f"failure ({row['reason']})"
            error = float(row["final_error_ft"])
            assert capsys.readouterr().out == f"{status}: final error {error:.2f} ft after {row['commands']} commands\n"
            assert len(list(csv.reader(Path(prefix + "_commands.csv").read_text().splitlines()))) - 1 == int(row["commands"])
            fixes = list(csv.reader(Path(prefix + "_fixes.csv").read_text().splitlines()))[1:]
            assert len(fixes) == int(row["fixes"])
            assert all((r[2:] == ["", ""]) == foreign_aps for r in fixes)  # a missed fix has empty estimate cells
            trajectory = {tuple(r[:2]) for r in csv.reader(Path(prefix + "_trajectory.csv").read_text().splitlines())}
            assert all(tuple(r[:2]) in trajectory for r in fixes)  # every scan is taken on the driven path

    def test_unreachable_goal_fails(self, workspace, capsys):
        _, world, _, _ = workspace
        assert main(["simulate", str(world), "--oracle", "--trials", "1", "--goal", "11,11"]) == 1

    def test_existing_tmp_file_survives_output(self, workspace, tmp_path):
        _, world, _, _ = workspace
        out = tmp_path / "trials.csv"
        mine = tmp_path / "trials.csv.tmp"
        mine.write_text("user data\n")
        assert main(["simulate", str(world), "--oracle", "--trials", "1", "-o", str(out)]) == 0
        assert mine.read_text() == "user data\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trials.csv", "trials.csv.tmp"]
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask


class TestValidationErrors:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "{world}", "--oracle", "--trials", "0", "-o", "{out}"], "trials must be >= 1"),
            (["train", "{dataset}", "--epochs", "0", "-o", "{out}"], "epochs must be >= 1"),
            (["navigate", "{world}", "--oracle", "--step-distance", "-1", "--out-prefix", "{out}"], "must be positive"),
            (["train", "{nan_dataset}", "-o", "{out}"], "line 2: non-finite number 'nan'"),
            (["simulate", "{inf_world}", "--oracle", "-o", "{out}"], "non-finite number 'inf'"),
            (["simulate", "{world}", "--oracle", "--noise-sigma", "1e308", "-o", "{out}"], "noise_sigma must be in"),
            (["simulate", "{world}", "--oracle", "--success-radius", "nan", "-o", "{out}"], "success_radius must be positive"),
            (["simulate", "{world}", "--oracle", "--checkpoint-radius", "nan", "-o", "{out}"], "checkpoint_radius must be positive"),
            (["navigate", "{world}", "--oracle", "--scan-period", "nan", "--out-prefix", "{out}"], "scan_period must be positive"),
            # finite, but the trial clock would overflow to inf
            (["navigate", "{world}", "--oracle", "--scan-period", "1e308", "--out-prefix", "{out}"], "scan_period 1e+308 s overflows the clock"),
            (["navigate", "{world}", "--oracle", "--max-misses", "-1", "--out-prefix", "{out}"], "max_consecutive_misses must be"),
            (["plan", "{latin1_map}", "--start", "0,0", "--goal", "1,0", "-o", "{out}"], "map file {latin1_map} is not UTF-8"),
            (["simulate", "{latin1_world}", "--oracle", "-o", "{out}"], "world file {latin1_world} is not UTF-8"),
            (["train", "{latin1_dataset}", "-o", "{out}"], "dataset {latin1_dataset} is not UTF-8"),
            (["train", "{dataset}", "--learning-rate", "-1", "-o", "{out}"], "learning_rate must be positive and finite, got -1.0"),
            # diverges at once; numpy's overflow warnings would be errors here
            (["train", "{dataset}", "--learning-rate", "1e308", "--epochs", "5", "-o", "{out}"], "training loss became non-finite"),
            (["train", "{dataset}", "--min-presence", "nan", "-o", "{out}"], "min_presence must be in [0, 1], got nan"),
            (["select-features", "{dataset}", "--min-presence", "1.5", "-o", "{out}"], "min_presence must be in [0, 1], got 1.5"),
            (["train", "{dataset}", "--threshold", "nan", "-o", "{out}"], "threshold must be in [0, 1], got nan"),
            (["select-features", "{dataset}", "--threshold", "-0.1", "-o", "{out}"], "threshold must be in [0, 1], got -0.1"),
            (["evaluate", "{null_arch_model}", "{dataset}", "-o", "{out}"], "bad architecture header: 'NoneType' object is not iterable"),
            (["train", "{dataset}", "--seed", "-1", "-o", "{out}"], "seed must be >= 0, got -1"),
            # an output error names the target, not the temp file beside it
            (["make-world", "-o", "{out}/w.txt"], "No such file or directory: '{out}/w.txt'"),
            (["make-world", "-o", "{world.parent}"], "Is a directory: '{world.parent}'"),
            # every seed option shares TrainConfig's check
            (["simulate", "{world}", "--oracle", "--seed", "-1", "-o", "{out}"], "seed must be >= 0, got -1"),
            (["navigate", "{world}", "--oracle", "--seed", "-1", "--out-prefix", "{out}"], "seed must be >= 0, got -1"),
            (["make-dataset", "{world}", "--seed", "-1", "-o", "{out}"], "seed must be >= 0, got -1"),
            (["make-world", "--world-seed", "-1", "-o", "{out}"], "seed must be >= 0, got -1"),
            # finite, so the CSV reader takes them, but statistics over them would overflow
            (["train", "{huge_x}", "--threshold", "0", "-o", "{out}"], "dataset row 1, column x: 1e+308 ft is outside [-1e+09, 1e+09]"),
            (["select-features", "{huge_x}", "-o", "{out}"], "dataset row 1, column x: 1e+308 ft is outside [-1e+09, 1e+09]"),
            (["evaluate", "{model}", "{huge_x}", "-o", "{out}"], "dataset row 1, column x: 1e+308 ft is outside [-1e+09, 1e+09]"),
            (["train", "{huge_rssi}", "--threshold", "0", "-o", "{out}"], "row 1, column 02:00:00:00:00:01: 1e+308 dBm is outside [-255, 0]"),
            (["select-features", "{huge_rssi}", "-o", "{out}"], "row 1, column 02:00:00:00:00:01: 1e+308 dBm is outside [-255, 0]"),
            (["train", "{ap_header}", "-o", "{out}"], "header column 1: 'AP1' is not a MAC address"),
        ],
    )
    def test_bad_option_is_one_error_line(self, workspace, tmp_path, capsys, args, message):
        root, world, dataset, model = workspace
        out = tmp_path / "out"
        lines = dataset.read_text().splitlines()
        nan_dataset = root / "nan_dataset.csv"
        nan_dataset.write_text("\n".join([lines[0], lines[1].rsplit(",", 1)[0] + ",nan"] + lines[2:]) + "\n")
        inf_world = root / "inf_world.txt"
        inf_world.write_text(world.read_text().replace(" -40 3 2\n", " inf 3 2\n", 1))
        latin1_map = root / "latin1_map.txt"
        latin1_map.write_bytes(b"2 1 1\n..\n# caf\xe9\n")
        latin1_world = root / "latin1_world.txt"
        latin1_world.write_bytes(world.read_bytes().replace(b"LabNet", b"LabN\xe9t", 1))
        latin1_dataset = root / "latin1_dataset.csv"
        latin1_dataset.write_bytes(dataset.read_bytes().replace(b"\n", b"\n\xe9", 1))
        data = model.read_bytes()[:-32]  # a model whose header has "arch": null, re-signed
        header_end = 16 + struct.unpack_from("<I", data, 12)[0]
        header = data[16:header_end].replace(b'"arch":[', b'"arch":null,"layers":[', 1)
        body = data[:12] + struct.pack("<I", len(header)) + header + data[header_end:]
        null_arch_model = root / "null_arch_model.bin"
        null_arch_model.write_bytes(body + hashlib.sha256(body).digest())
        huge = {}
        for name, column in (("huge_x", -2), ("huge_rssi", 0)):  # column 0 is AP 02:00:00:00:00:01
            rows = [line.split(",") for line in lines]
            rows[1][column], rows[2][column] = "1e308", "-1e308"
            huge[name] = root / f"{name}.csv"
            huge[name].write_text("".join(",".join(row) + "\n" for row in rows))
        paths = dict(world=world, dataset=dataset, out=out, nan_dataset=nan_dataset, inf_world=inf_world, latin1_map=latin1_map)
        ap_header = root / "ap_header.csv"
        ap_header.write_text(dataset.read_text().replace("02:00:00:00:00:01", "AP1", 1))
        paths.update(latin1_world=latin1_world, latin1_dataset=latin1_dataset, null_arch_model=null_arch_model, model=model, **huge)
        paths.update(ap_header=ap_header)
        argv = [a.format(**paths) for a in args]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message.format(**paths) in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda dataset: cli.cmd_ingest({"scan_dir": str(dataset)}), cli.CliError, "not a directory: {dataset}"),
            (lambda dataset: cli.run_training_pipeline(scan_ingest.read_csv(dataset), threshold=1.0), ToolkitError,
             "no columns reach correlation 1.0; nothing to train on"),
        ],
        ids=["ingest-a-file", "train-threshold-1"],
    )
    def test_command_error_raised(self, workspace, call, error, message):
        dataset = workspace[2]
        with pytest.raises(error) as raised:
            call(dataset)
        assert raised.type is error and str(raised.value) == message.format(dataset=dataset)


class TestGoldenOutputs:
    """SHA-256 digests of oracle runs, recorded from the per-substep
    integration loop that the straight-command accumulate reproduces bit for
    bit: a change that moves one bit of the kinematics fails here.  Oracle
    runs use no trained model, so no BLAS result enters them."""

    def test_oracle_simulate_and_navigate_digests(self, tmp_path):
        world = str(tmp_path / "world.txt")
        assert main(["make-world", "-o", world]) == 0
        assert main(["simulate", world, "--oracle", "--trials", "20", "--seed", "0", "-o", str(tmp_path / "sim.csv")]) == 0
        assert main(["navigate", world, "--oracle", "--seed", "3", "--out-prefix", str(tmp_path / "nav")]) == 0
        digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("sim.csv", "nav_trajectory.csv")}
        assert digest == {
            "sim.csv": "93d8d94b82ac4be557be128d3b094bffbf8435050b39c44cf57f52b31246922c",
            "nav_trajectory.csv": "7ed51a6420fb9335e3b6aa4fb30c3ca3cc54a0ccf1e74fd29d451f4422967b62",
        }


_NAV_FLAGS = ["--checkpoint-radius", "--config", "--goal", "--max-misses", "--noise-sigma", "--oracle", "--scan-period", "--seed"]
_NAV_FLAGS += ["--start", "--step-distance", "--success-radius"]

# each subcommand's long flags, as its --help lists them
LONG_FLAGS = {
    "ingest": ["--config", "--no-aggregate", "--output", "--ssid"],
    "select-features": ["--config", "--min-presence", "--output", "--threshold"],
    "train": ["--batch-size", "--config", "--epochs", "--learning-rate", "--min-presence", "--optimizer", "--output", "--ratio"]
    + ["--report", "--seed", "--threshold", "--validation-split"],
    "evaluate": ["--config", "--output"],
    "plan": ["--config", "--goal", "--heading", "--output", "--start"],
    "make-world": ["--config", "--noise-sigma", "--output", "--world-seed"],
    "make-dataset": ["--config", "--noise-sigma", "--output", "--resamples", "--seed"],
    "simulate": sorted(_NAV_FLAGS + ["--output", "--trials"]),
    "navigate": sorted(_NAV_FLAGS + ["--out-prefix"]),
}


class TestHelp:
    @pytest.mark.parametrize("command", list(LONG_FLAGS))
    def test_every_subcommand_documents_its_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert "--config" in out
        invocations = re.findall(r"^  (-\S.*?)(?: {2,}|$)", out, re.M)  # the option lines, without their help
        flags = {flag for line in invocations for flag in re.findall(r"--[a-z][a-z-]*", line)} - {"--help"}
        assert sorted(flags) == LONG_FLAGS[command]


# Flag values at the edges of every caster and check.  A count flag never gets a
# large valid value: 5,000 digits exceed int()'s conversion limit, so argparse
# refuses them, and the base argv keeps --epochs, --trials and --resamples small
# (huge counts are valid inputs that only run long).
_EDGE_VALUES = ["-1", "0", "nan", "inf", "1e400", "9" * 5000, "", "a,b", "empty_dir", "missing/nothing.txt", "latin1.txt"]
_VALUELESS_FLAGS = {"--oracle", "--no-aggregate"}

# each subcommand's valid positionals and required options; "{...}" names a workspace file
_FUZZ_BASE = {
    "ingest": ["-o", "out.csv"],  # the scan directory is drawn
    "select-features": ["{dataset}"],
    "train": ["{dataset}", "-o", "model.bin", "--epochs", "2"],
    "evaluate": ["{model}", "{dataset}"],
    "plan": ["map.txt", "--start", "0,0", "--goal", "1,0"],
    "make-world": ["-o", "world.txt"],
    "make-dataset": ["{world}", "-o", "dataset.csv", "--resamples", "1"],
    "simulate": ["{world}", "{model}", "--trials", "2"],
    "navigate": ["{world}", "{model}", "--out-prefix", "nav"],
}


@st.composite
def _edge_argv(draw) -> tuple[str, list[str], list[str]]:
    """(subcommand, its drawn positionals, its drawn flags)."""
    command = draw(st.sampled_from(sorted(_FUZZ_BASE)))
    positionals = [draw(st.sampled_from(["scans", "bad_scans", "empty_dir"]))] if command == "ingest" else []
    flags = draw(st.lists(st.sampled_from(LONG_FLAGS[command]), min_size=1, max_size=3, unique=True))
    return command, positionals, [f if f in _VALUELESS_FLAGS else f"{f}={draw(st.sampled_from(_EDGE_VALUES))}" for f in flags]


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=_edge_argv())
    def test_edge_flags_exit_cleanly(self, workspace, drawn):
        """Any subcommand with one to three edge-valued flags exits 0, 1 or 2 and prints
        no traceback; exit 1 is one ``error:`` line, or ingest's per-file report."""
        _, world, dataset, model = workspace
        command, positionals, flags = drawn
        argv = [command, *positionals, *(a.format(world=world, dataset=dataset, model=model) for a in _FUZZ_BASE[command]), *flags]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as work, contextlib.chdir(work), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            write_scan_dir(Path(work))
            os.mkdir("bad_scans")
            Path("bad_scans/0_0_0.txt").write_text("Cell 01 - Address: AA:BB:CC:DD:EE:01\n")  # no ESSID or Signal line
            os.mkdir("empty_dir")
            Path("latin1.txt").write_bytes(b"epochs = 3 # caf\xe9\n")
            Path("map.txt").write_text("2 1 1\n..\n")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code == 1 and lines != ["bad_scans/0_0_0.txt: cell 01 is missing its ESSID line"]:  # not ingest's per-file report
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, workspace, tmp_path, capsys):
        _, world, dataset, _ = workspace
        config = tmp_path / "run.conf"
        config.write_text("# training setup\nepochs = 10\nseed = 5\nthreshold = 0.24\n")
        out = tmp_path / "m.bin"
        assert main(["train", str(dataset), "-o", str(out), "--config", str(config), "--epochs", "12"]) == 0
        report = list(csv.reader((tmp_path / "m.bin.report.csv").read_text().splitlines()))
        assert len(report) - 1 == 12  # the flag beat the config file

    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys):
        _, _, dataset, _ = workspace
        config = tmp_path / "bad.conf"
        config.write_text("epohcs = 10\n")
        assert main(["train", str(dataset), "-o", str(tmp_path / "m.bin"), "--config", str(config)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, setting, flags",
        [
            ("simulate", "oracle = yes", ["--oracle"]),
            ("ingest", "aggregate = no", ["--no-aggregate"]),
            ("ingest", "ssid = CSU Net, Other", ["--ssid", "CSU Net", "--ssid", "Other"]),
            ("train", "trials = 5\nepochs = 3", ["--epochs", "3"]),  # trials is simulate's key: train ignores it
        ],
    )
    def test_config_key_acts_like_its_flag(self, workspace, tmp_path, capsys, command, setting, flags):
        _, world, dataset, _ = workspace
        scans = write_scan_dir(tmp_path)
        for ssid, mac in (("Hotspot", "99:00:00:00:00:01"), ("Other", "99:00:00:00:00:02")):
            (scans / f"9_9_{mac[-1]}.txt").write_text(f'Cell 01 - Address: {mac}\nESSID:"{ssid}"\nSignal level=-30 dBm\n')
        config = tmp_path / "run.conf"
        config.write_text(setting + "\n")
        out = tmp_path / "out.csv"
        argv = {"simulate": [str(world), "--trials", "2"], "ingest": [str(scans)], "train": [str(dataset)]}[command]

        def run(extra):
            out.unlink(missing_ok=True)
            code = main([command, *argv, "-o", str(out), *extra])
            return code, capsys.readouterr().out, out.read_bytes() if out.exists() else None

        from_config = run(["--config", str(config)])
        assert from_config[0] == 0
        assert from_config == run(flags)
        assert from_config != run([])

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"output = x\n", "unknown config key 'output'"),  # a path flag, not a key
            (b"# setup\nepochs = ten\n", "{config}:2: bad value for epochs"),
            (b"epochs = 3 # caf\xe9\n", "cannot read config file {config}"),
        ],
    )
    def test_bad_config_is_one_error_line(self, workspace, tmp_path, capsys, text, message):
        _, _, dataset, _ = workspace
        config = tmp_path / "bad.conf"
        config.write_bytes(text)
        assert main(["train", str(dataset), "-o", str(tmp_path / "m.bin"), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message.format(config=config) in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.conf"]

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin1"])
    def test_unreadable_config_keeps_the_read_text_message(self, workspace, tmp_path, capsys, kind):
        _, _, dataset, _ = workspace
        config = tmp_path / "bad.conf"
        if kind == "directory":
            config.mkdir()
        elif kind == "latin1":
            config.write_bytes(b"epochs = 3\n" * 1000 + b"# caf\xe9\n")
        with pytest.raises((OSError, UnicodeDecodeError)) as reading:
            config.read_text(encoding="utf-8")  # the read the config parser used to make
        assert main(["train", str(dataset), "-o", str(tmp_path / "m.bin"), "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: cannot read config file {config}: {reading.value}\n"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_model_keeps_the_read_bytes_message(workspace, tmp_path, capsys, kind):
    _, world, _, _ = workspace
    model = tmp_path / "model.bin"
    if kind == "directory":
        model.mkdir()
    with pytest.raises(OSError) as reading:
        model.read_bytes()  # the read load_model used to make
    assert main(["simulate", str(world), str(model), "--trials", "1"]) == 1
    assert capsys.readouterr().err == f"error: {reading.value}\n"


def with_output_width_3(data: bytes) -> bytes:
    """A saved model file re-signed with a third output: the last dense layer
    and the header say 3, and a zero weight row and bias are appended."""
    body = data[:-32]
    (length,) = struct.unpack_from("<I", body, 12)
    header = json.loads(body[16 : 16 + length])
    last = header["arch"][-1]
    assert last["kind"] == "dense" and last["out"] == header["output_width"] == 2
    last["out"] = header["output_width"] = 3
    edited = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blocks_end = body.index(b"format = ") - 4  # the sidecar's length field follows the parameter blocks
    biases = blocks_end - 2 * 8
    body = (
        body[:12] + struct.pack("<I", len(edited)) + edited + body[16 + length : biases] + bytes(8 * last["in"])
        + body[biases:blocks_end] + bytes(8) + body[blocks_end:]
    )
    return body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("command", ["simulate", "navigate", "evaluate"])
def test_a_model_with_three_outputs_is_one_error_line(workspace, tmp_path, capsys, command):
    _, world, dataset, model = workspace
    crafted = tmp_path / "model.bin"
    crafted.write_bytes(with_output_width_3(model.read_bytes()))
    argv = {
        "simulate": ["simulate", str(world), str(crafted), "--trials", "1"],
        "navigate": ["navigate", str(world), str(crafted), "--out-prefix", str(tmp_path / "run")],
        "evaluate": ["evaluate", str(crafted), str(dataset)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: model output width is 3, not 2 (x and y)\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["model.bin"]


def test_main_reuses_one_parser_across_calls(workspace, tmp_path, capsys):
    """Runs in one process, a usage error among them, print and exit exactly as
    runs that each build a fresh parser."""
    _, world, _, model = workspace
    runs = [
        ["simulate", str(world), str(model), "--trials", "2", "--seed", "4"],
        ["plan", str(world)],  # no --start: a usage error, exit 2
        ["navigate", "--help"],
        ["simulate", str(world), "--oracle", "--trials", "3", "-o", str(tmp_path / "trials.csv")],
        ["make-world", "-o", str(tmp_path / "world.txt"), "--world-seed", "x"],
        ["simulate", str(world), str(model), "--trials", "2", "--seed", "4"],
    ]

    def outcomes(fresh: bool) -> list:
        seen = []
        for argv in runs:
            if fresh:
                build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, *capsys.readouterr(), (tmp_path / "trials.csv").read_bytes() if argv[-1].endswith(".csv") else b""))
        return seen

    reused = outcomes(fresh=False)
    assert [code for code, *_ in reused] == [0, 2, 0, 0, 2, 0]
    assert reused == outcomes(fresh=True)
    assert build_parser() is build_parser()
