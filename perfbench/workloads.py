"""The three workloads.  Each is closed-loop with one client on one thread:
the next operation starts when the previous one has returned.

The program is driven only through ``rssinav.cli.main`` and the names
exported from ``rssinav/__init__.py``; trial outcomes are read from the
``simulate -o`` and ``navigate`` CSVs.  Every workload checks its outputs
and records a SHA-256 of its primary output per unit of work, so a repeat
that produces different bytes counts as a failed operation.

- ``train``: offline model build on the reference L-corridor, captures to
  scored model.
- ``trials``: closed-loop corner trials through ``rssinav simulate``.
- ``online``: the robot's scan -> fix -> command loop on a large floor.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import statistics
import time

import numpy as np

import rssinav
import rssinav.cli
from loadgen import FLOOR_ALLOWLIST, bfs_cost, capture_name, is_walkable_path, render_iwlist, room_floor

clock = time.perf_counter


def run_cli(*argv) -> tuple[int, str]:
    """``rssinav <argv>`` in-process; returns (exit code, stdout + stderr)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = rssinav.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Workload:
    """Set-up, warm-up, one step per operation, and the output checks."""

    name = ""
    min_steps = 1  # steps the timed loop runs even past its deadline
    trace_steps = 1  # steps of the traced comparison

    def __init__(self, work, seed: int):
        self.work = work
        self.seed = seed
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.hashes: dict = {}  # unit of work -> SHA-256 of its first output
        self.mark = lambda request: None  # names the request being served, when traced

    def fail(self, operations: int, message: str, correctness: bool = True) -> None:
        """Count failed operations; ``correctness`` failures also clear ``correct``."""
        self.failed += operations
        self.correct = self.correct and not correctness
        if len(self.problems) < 20:
            self.problems.append(message)

    def same_output(self, key, digest: str) -> bool:
        """Record the first digest for ``key``; later ones must match it."""
        return self.hashes.setdefault(key, digest) == digest

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def step(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Checks made once, after the timed loop."""

    def metrics(self) -> dict:
        raise NotImplementedError

    def report(self) -> dict:
        return {}


# ---------------------------------------------------------------------------


class Train(Workload):
    """``ingest --ssid LabNet`` -> ``train --seed S`` -> ``evaluate``, through ``cli.main``.

    Set-up writes the reference corridor's 95 cells x 3 scans as iwlist
    captures and builds once.  Builds cycle through ``SUBSEEDS`` training
    seeds derived from the run seed, because the test error of one model
    swings by about a third between training seeds; the reported error is
    the median over them, and so is the MAE that must meet the 0.20 band
    (3 of training seeds 0 to 199 miss it on their own).
    The captures' noise is the same for every run seed: with seed-dependent
    captures that median still spread by 0.23 (quartile distance / median)
    between run seeds, because all 16 models share one capture set.
    """

    name = "train"
    SUBSEEDS = 16
    CAPTURE_SEED = 7  # make-world's world seed
    MAE_BAND = 0.20  # acceptance criterion 4's test MAE_norm limit
    min_steps = SUBSEEDS
    trace_steps = 3  # an odd count, so one training seed off the band cannot move the median over it

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.world = rssinav.reference_world()
        self.captures = None  # the latest set-up's capture directory
        self.setups = 0
        self.dataset = work / "dataset.csv"
        self.model = work / "model.bin"
        self.scatter = work / "scatter.csv"
        self.train_seeds = [seed * self.SUBSEEDS + k for k in range(self.SUBSEEDS)]
        self.latencies: list[float] = []
        self.train_latencies: list[float] = []
        self.scores: dict[int, tuple[float, float]] = {}  # training seed -> (test MAE_norm, test error ft)

    def setup(self):
        """Write the captures, ingest them once to find each training seed's
        held-out rows, and build one model: the set-up is then dominated by
        the program's own work, not by file-system noise."""
        self.setups += 1
        self.captures = self.work / f"captures{self.setups}"  # a fresh directory, as on a first run
        self.captures.mkdir()
        digest = hashlib.sha256()
        grid = self.world.grid
        for i, cell in enumerate(grid.walkable_cells()):
            x, y = grid.cell_center(cell)
            for rep in range(3):
                snapshot = rssinav.simulate_scan(self.world, (x, y), draw_index=i * 3 + rep, seed=self.CAPTURE_SEED)
                text = render_iwlist(snapshot.entries)
                (self.captures / capture_name(x, y, rep)).write_text(text, encoding="utf-8")
                digest.update(text.encode())
        if not self.same_output("captures", digest.hexdigest()):
            self.fail(0, "set-up wrote different captures on a repeat")
        code, out = run_cli("ingest", self.captures, "-o", self.dataset, "--ssid", "LabNet")
        if code != 0:
            raise RuntimeError(f"set-up ingest failed: {out.strip()}")
        dataset = rssinav.read_csv(self.dataset)
        for train_seed in self.train_seeds:  # the rows `train --seed` holds out for testing
            rssinav.write_csv(rssinav.split(dataset, seed=train_seed).test, self.work / f"test_{train_seed}.csv")
        self.attempted += 1
        self.build(self.train_seeds[0])

    def warmup(self):
        """The set-up's own build warmed up the process."""

    def step(self):
        train_seed = self.train_seeds[self.steps % self.SUBSEEDS]
        self.mark(f"build-{self.steps}")
        self.steps += 1
        self.attempted += 1
        total, train = self.build(train_seed)
        self.latencies.append(total)
        self.train_latencies.append(train)

    def build(self, train_seed: int) -> tuple[float, float]:
        test_csv = self.work / f"test_{train_seed}.csv"
        t0 = clock()
        ingest = run_cli("ingest", self.captures, "-o", self.dataset, "--ssid", "LabNet")
        trained = run_cli("train", self.dataset, "-o", self.model, "--seed", train_seed)
        t1 = clock()
        evaluated = run_cli("evaluate", self.model, test_csv, "-o", self.scatter)
        t2 = clock()
        self.check_build(train_seed, ingest, trained, evaluated)
        return t2 - t0, t1 - t0

    def check_build(self, train_seed, ingest, trained, evaluated) -> None:
        for step, (code, out) in (("ingest", ingest), ("train", trained), ("evaluate", evaluated)):
            if code != 0:
                return self.fail(1, f"{step} (seed {train_seed}) exited {code}: {out.strip()[-200:]}")
        if not self.same_output(("model", train_seed), sha256_file(self.model)):
            return self.fail(1, f"train --seed {train_seed} wrote a different model file on a repeat")
        try:
            bundle = rssinav.load_model(self.model)
        except rssinav.ToolkitError as exc:
            return self.fail(1, f"saved model (seed {train_seed}) does not load: {exc}")
        in_memory = re.findall(r"test normalized MAE: (\S+)\ntest mean error: (\S+) ft", trained[1])
        from_file = re.findall(r"normalized MAE: (\S+)\nmean error: (\S+) ft", evaluated[1])
        if not in_memory or in_memory != from_file:
            return self.fail(1, f"evaluate on the loaded model (seed {train_seed}) gives {from_file}, train printed {in_memory}")
        with open(self.scatter, newline="") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        truth = np.array([r[:2] for r in rows])
        pred = np.array([r[2:] for r in rows])
        mae_norm = float(np.abs(pred - truth).mean() / bundle.params.extent)
        error_ft = float(np.hypot(*(pred - truth).T).mean())
        if not (math.isfinite(mae_norm) and math.isfinite(error_ft)):
            return self.fail(1, f"non-finite test error for seed {train_seed}")
        self.scores.setdefault(train_seed, (mae_norm, error_ft))

    def verify(self):
        """The workload's accuracy, the median test MAE over its training seeds,
        must meet acceptance criterion 4's band.  Single seeds that miss it are
        listed in the report: accuracy, not a failed build."""
        self.attempted += 1
        mae_norm = statistics.median(mae for mae, _ in self.scores.values())
        if mae_norm > self.MAE_BAND:
            self.fail(1, f"median test MAE_norm {mae_norm:.4f} > {self.MAE_BAND} over {len(self.scores)} training seeds", correctness=False)

    def metrics(self):
        return {
            "op_p50_ms": 1e3 * statistics.median(self.latencies),
            "ops_per_s": len(self.latencies) / sum(self.latencies),
            "error_ft": statistics.median(err for _, err in self.scores.values()),
        }

    def report(self):
        return {
            "builds": len(self.latencies),
            "training_seeds": len(self.scores),
            "train_s_p50": statistics.median(self.train_latencies),
            "test_mae_norm_median": statistics.median(mae for mae, _ in self.scores.values()),
            "test_error_ft_median": statistics.median(err for _, err in self.scores.values()),
            "test_mae_norm_by_seed": {s: round(m, 6) for s, (m, _) in sorted(self.scores.items())},
            "seeds_over_mae_band": sorted(s for s, (m, _) in self.scores.items() if m > self.MAE_BAND),
        }


# ---------------------------------------------------------------------------

_REASON = re.compile(r"^(done|aborted|fix_budget|left_map)(\+left_walkable)?$")
_NAVIGATE = re.compile(r"^(success|failure \((\S+)\)): final error (\S+) ft after (\d+) commands$", re.M)


class Trials(Workload):
    """``simulate world model --trials N --seed B -o trials.csv``, through ``cli.main``.

    Set-up is ``make-world`` -> ``make-dataset`` -> ``train --seed 0``, the
    acceptance suite's calibrated model, so every run seed drives the same
    model over different trials: across training seeds the corner success
    rate ranges from 0.04 to 0.91, which would swamp any timing bound.
    Every timed call runs batch 0, so calls do the same work and their
    median is steady; after the loop, ``BATCHES - 1`` more batches run once
    each, untimed, so accuracy covers ``BATCHES`` x 100 distinct trials.
    """

    name = "trials"
    TRIALS = 100
    BATCHES = 4
    SCAN_PERIOD = 2.0  # simulate's default, which the rerun's timestamps step by
    min_steps = 3
    trace_steps = 2

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.world = work / "world.txt"
        self.dataset = work / "dataset.csv"
        self.model = work / "model.bin"
        self.latencies: list[float] = []
        self.outcomes: dict[int, list[dict]] = {}  # batch -> parsed CSV rows

    def base_seed(self, batch: int) -> int:
        return (self.seed * self.BATCHES + batch) * self.TRIALS

    def setup(self):
        for argv in (
            ("make-world", "-o", self.world),
            ("make-dataset", self.world, "-o", self.dataset),
            ("train", self.dataset, "-o", self.model, "--seed", 0),
        ):
            code, out = run_cli(*argv)
            if code != 0:
                raise RuntimeError(f"set-up {argv[0]} failed: {out.strip()}")
        if not self.same_output("model", sha256_file(self.model)):
            self.fail(0, "set-up trained a different model on a repeat")

    def warmup(self):
        self.attempted += self.TRIALS
        self.simulate(0)

    def step(self):
        self.steps += 1
        self.attempted += self.TRIALS
        self.latencies.append(self.simulate(0))

    def simulate(self, batch: int) -> float:
        out_csv = self.work / f"trials_{batch}.csv"
        t0 = clock()
        code, out = run_cli("simulate", self.world, self.model, "--trials", self.TRIALS, "--seed", self.base_seed(batch), "-o", out_csv)
        elapsed = clock() - t0
        if code != 0:
            self.fail(self.TRIALS, f"simulate batch {batch} exited {code}: {out.strip()[-200:]}")
        elif not self.same_output(("trials", batch), sha256_file(out_csv)):
            self.fail(self.TRIALS, f"simulate batch {batch} wrote a different CSV on a repeat")
        elif batch not in self.outcomes:
            self.outcomes[batch] = self.parse_trials(out_csv, batch)
        return elapsed

    def parse_trials(self, path, batch: int) -> list[dict]:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["trial", "seed", "success", "final_error_ft", "reason", "commands", "fixes"] or len(rows) != self.TRIALS + 1:
            self.fail(self.TRIALS, f"batch {batch}: unexpected CSV header or row count")
            return []
        parsed = []
        for i, row in enumerate(rows[1:]):
            try:
                trial, seed, success, error, reason, commands, fixes = row
                record = {
                    "seed": int(seed),
                    "success": int(success),
                    "final_error_ft": float(error),
                    "reason": reason,
                    "commands": int(commands),
                    "fixes": int(fixes),
                }
                ok = (
                    int(trial) == i
                    and record["seed"] == self.base_seed(batch) + i
                    and record["success"] in (0, 1)
                    and math.isfinite(record["final_error_ft"])
                    and _REASON.match(reason)
                    and (not record["success"] or reason == "done")
                    and 0 <= record["commands"] <= record["fixes"]
                )
            except ValueError:
                ok = False
            if not ok:
                self.fail(1, f"batch {batch}: bad trial row {row}")
                continue
            parsed.append(record)
        return parsed

    def verify(self):
        """Run the remaining batches, then rerun one trial with ``navigate``:
        it must alternate fix and command and reproduce that trial's CSV row."""
        for batch in range(1, self.BATCHES):
            self.attempted += self.TRIALS
            self.simulate(batch)
        rows = self.outcomes.get(0)
        self.attempted += 1
        if not rows:
            return self.fail(1, "no parsed trial rows to rerun")
        row = rows[self.seed % len(rows)]
        prefix = self.work / "rerun"
        code, out = run_cli("navigate", self.world, self.model, "--seed", row["seed"], "--out-prefix", prefix)
        status = _NAVIGATE.search(out)
        if code != 0 or not status:
            return self.fail(1, f"navigate --seed {row['seed']} exited {code}: {out.strip()[-200:]}")
        with open(f"{prefix}_commands.csv", newline="") as fh:
            commands = [(float(r[0]), float(r[3])) for r in list(csv.reader(fh))[1:]]
        with open(f"{prefix}_fixes.csv", newline="") as fh:
            fixes = len(list(csv.reader(fh))) - 1
        # a command is issued at the time of the fix that caused it; the next
        # fix comes whole scan periods after that command finished
        fix_events, previous_end = 0, 0.0
        for timestamp, duration in commands:
            periods = (timestamp - previous_end) / self.SCAN_PERIOD
            if periods < 1 - 1e-9 or abs(periods - round(periods)) > 1e-6:
                return self.fail(1, f"navigate --seed {row['seed']}: command at {timestamp} without a fix before it")
            fix_events += round(periods)
            previous_end = timestamp + duration
        success = status.group(1) == "success"
        reason = "done" if success else status.group(2)
        expected = (bool(row["success"]), row["reason"], f"{row['final_error_ft']:.2f}", row["commands"], row["fixes"])
        actual = (success, reason, status.group(3), int(status.group(4)), fixes)
        if fix_events > fixes or len(commands) != int(status.group(4)) or actual != expected:
            self.fail(1, f"navigate --seed {row['seed']} gives {actual}, its simulate row {expected}")

    def distinct_trials(self) -> list[dict]:
        return [row for batch in sorted(self.outcomes) for row in self.outcomes[batch]]

    def metrics(self):
        trials = self.distinct_trials()
        return {
            "op_p50_ms": 1e3 * statistics.median(self.latencies) / self.TRIALS,
            "ops_per_s": self.TRIALS * len(self.latencies) / sum(self.latencies),
            "error_ft": statistics.fmean(row["final_error_ft"] for row in trials),
        }

    def report(self):
        trials = self.distinct_trials()
        bundle = rssinav.load_model(self.model)
        world = rssinav.reference_world()  # make-world's defaults: sigma 2.0, world seed 7
        errors = []  # rfsim.mean_fix_error's procedure: every walkable cell centre, 3 draws
        for cell in world.grid.walkable_cells():
            center = world.grid.cell_center(cell)
            for _ in range(3):
                snapshot = rssinav.simulate_scan(world, center, draw_index=len(errors), seed=self.seed)
                estimate = rssinav.predict_position(bundle, snapshot)
                errors.append(math.hypot(estimate.x - center[0], estimate.y - center[1]))
        return {
            "calls": len(self.latencies),
            "distinct_trials": len(trials),
            "trials_per_s": self.TRIALS * len(self.latencies) / sum(self.latencies),
            "success_rate": statistics.fmean(row["success"] for row in trials),
            "fix_error_ft": statistics.fmean(errors),
            "final_error_ft_mean": statistics.fmean(row["final_error_ft"] for row in trials),
        }


# ---------------------------------------------------------------------------


class Online(Workload):
    """The robot's decision loop on a 160 x 100 ft room-and-door floor.

    Set-up builds the floor, writes iwlist captures at every ``SPACING``-th
    cell in each axis, and runs ``ingest --ssid LabNet --ssid LabGuest`` ->
    ``train --seed 0``.  The floor and model are the same for every run
    seed (A* p50 differs by 1.7x between floor seeds); the seed picks the
    missions and the scan noise.  A mission plans from a random start to a
    random goal, then fixes at every second path cell until the navigator
    stops or aborts.  Scan text is rendered outside the timed region.
    """

    name = "online"
    FLOOR_SEED = 2026
    SPACING = 8
    CAPTURE_REPS = 2
    MISSIONS = 128
    MIN_DISTANCE = 40  # Manhattan distance between a mission's start and goal
    min_steps = MISSIONS
    trace_steps = 40

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.captures = work / "captures"
        self.dataset = work / "dataset.csv"
        self.model = work / "model.bin"
        self.allowlist = set(FLOOR_ALLOWLIST)
        self.fix_latencies: list[float] = []
        self.plan_latencies: list[float] = []
        self.paths: dict[int, tuple] = {}  # mission -> planned cells, first run
        self.errors: dict[int, tuple[float, int]] = {}  # mission -> (sum of fix errors ft, fixes), first run
        self.tally: dict[str, int] = {}

    def setup(self):
        self.world = room_floor(self.FLOOR_SEED)
        grid = self.world.grid
        self.captures.mkdir(exist_ok=True)
        draw = 0
        for iy in range(self.SPACING // 2, grid.height, self.SPACING):
            for ix in range(self.SPACING // 2, grid.width, self.SPACING):
                if not grid.walkable[iy, ix]:
                    continue
                x, y = grid.cell_center((ix, iy))
                for rep in range(self.CAPTURE_REPS):
                    snapshot = rssinav.simulate_scan(self.world, (x, y), draw_index=draw, seed=self.FLOOR_SEED)
                    draw += 1
                    (self.captures / capture_name(x, y, rep)).write_text(render_iwlist(snapshot.entries), encoding="utf-8")
        ssids = [arg for ssid in sorted(self.allowlist) for arg in ("--ssid", ssid)]
        for argv in (
            ("ingest", self.captures, "-o", self.dataset, *ssids),
            ("train", self.dataset, "-o", self.model, "--seed", 0),
        ):
            code, out = run_cli(*argv)
            if code != 0:
                raise RuntimeError(f"set-up {argv[0]} failed: {out.strip()}")
        if not self.same_output("model", sha256_file(self.model)):
            self.fail(0, "set-up trained a different model on a repeat")
        self.bundle = rssinav.load_model(self.model)
        self.missions = self.make_missions()

    def make_missions(self) -> list[tuple]:
        walkable = self.world.grid.walkable
        cells = np.argwhere(walkable)  # (iy, ix)
        rng = np.random.default_rng([self.seed, 0x0A11])
        missions = []
        while len(missions) < self.MISSIONS:
            (sy, sx), (gy, gx) = cells[rng.integers(len(cells), size=2)]
            if abs(int(sx) - int(gx)) + abs(int(sy) - int(gy)) >= self.MIN_DISTANCE:
                missions.append(((int(sx), int(sy)), (int(gx), int(gy)), int(rng.integers(2**31))))
        return missions

    def warmup(self):
        for mission in range(2):
            self.fly(mission, record=False)

    def step(self):
        mission = self.steps % self.MISSIONS
        self.steps += 1
        try:
            self.fly(mission, record=True)
        except Exception as exc:  # one broken mission is reported, the run goes on
            self.attempted += 1
            self.fail(1, f"mission {mission} raised {type(exc).__name__}: {exc}")

    def fly(self, mission: int, record: bool) -> None:
        start, goal, scan_seed = self.missions[mission]
        grid = self.world.grid
        self.mark(f"mission-{mission}")
        t0 = clock()
        path = rssinav.astar(grid, start, goal)
        cells = path.cells
        heading = rssinav.Heading((cells[1][0] - cells[0][0], cells[1][1] - cells[0][1]))
        plan = rssinav.extract_checkpoints(path, heading)
        plan_s = clock() - t0
        state = rssinav.NavState.initial(plan, cell_size=grid.cell_size)
        stream = hashlib.sha256()
        error_sum, fixes = 0.0, 0
        latencies = []
        for k, cell in enumerate(cells[::2]):
            if state.mode in (rssinav.Mode.DONE, rssinav.Mode.ABORTED):
                break
            center = grid.cell_center(cell)
            text = render_iwlist(rssinav.simulate_scan(self.world, center, draw_index=k, seed=scan_seed).entries)
            self.mark(f"fix-{len(self.fix_latencies) + len(latencies)}")
            t0 = clock()
            entries = rssinav.filter_by_ssid(rssinav.parse_scan_text(text), self.allowlist)
            try:
                estimate = rssinav.predict_position(self.bundle, rssinav.ScanSnapshot(tuple(entries)))
                fix = (estimate.x, estimate.y)
            except rssinav.ToolkitError as exc:
                if type(exc).__name__ != "NoKnownAccessPoints":
                    raise
                fix = None
            state, command = rssinav.nav_step(state, fix)
            latencies.append(clock() - t0)
            problem = command_problem(fix, state, command)
            if problem:
                self.fail(1, f"mission {mission} fix {k}: {problem}")
            kind = "miss" if fix is None else "none" if command is None else command.reason
            stream.update(f"{k},{kind if command is None else command}\n".encode())
            if fix is not None:
                error_sum += math.hypot(fix[0] - center[0], fix[1] - center[1])
                fixes += 1
            if record:
                self.tally[kind] = self.tally.get(kind, 0) + 1
        if not record:
            return
        self.attempted += 1 + len(latencies)
        self.plan_latencies.append(plan_s)
        self.fix_latencies += latencies
        end = "aborted" if state.mode is rssinav.Mode.ABORTED else "done" if state.mode is rssinav.Mode.DONE else "open"
        self.tally[f"missions_{end}"] = self.tally.get(f"missions_{end}", 0) + 1
        if not self.same_output(("mission", mission), stream.hexdigest()):
            self.fail(1 + len(latencies), f"mission {mission} gave a different command stream on a repeat")
        if mission not in self.paths:
            self.paths[mission] = cells
            self.errors[mission] = (error_sum, fixes)

    def verify(self):
        walkable = self.world.grid.walkable
        for mission, cells in self.paths.items():
            start, goal, _ = self.missions[mission]
            if cells[0] != start or cells[-1] != goal or not is_walkable_path(walkable, cells):
                self.fail(1, f"mission {mission}: A* path is not a walkable 4-neighbour chain from start to goal")
            elif bfs_cost(walkable, start, goal) != len(cells) - 1:
                self.fail(1, f"mission {mission}: A* cost {len(cells) - 1} differs from the BFS oracle")

    def metrics(self):
        decision_s = sum(self.fix_latencies) + sum(self.plan_latencies)
        error_sum = sum(e for e, _ in self.errors.values())
        fixes = sum(n for _, n in self.errors.values())
        return {
            "op_p50_ms": 1e3 * statistics.median(self.fix_latencies),
            "ops_per_s": len(self.fix_latencies) / decision_s,
            "error_ft": error_sum / fixes,
        }

    def report(self):
        return {
            "missions": len(self.plan_latencies),
            "distinct_missions": len(self.paths),
            "fixes": len(self.fix_latencies),
            "fix_p50_us": 1e6 * statistics.median(self.fix_latencies),
            "fix_p99_us": 1e6 * percentile(self.fix_latencies, 99),
            "plan_p50_ms": 1e3 * statistics.median(self.plan_latencies),
            "plan_p90_ms": 1e3 * percentile(self.plan_latencies, 90),
            "fix_outcomes": dict(sorted(self.tally.items())),
        }


def command_problem(fix, state, command) -> str | None:
    """What is wrong with the command ``nav_step`` returned for one fix event:
    a position fix must yield exactly one command, a missed fix none, and a
    stop must end the mission."""
    if fix is None:
        return None if command is None else f"a missed fix yielded {command!r}"
    if not isinstance(command, rssinav.DriveCommand):
        return f"a position fix yielded {command!r}, not one command"
    if (command.reason == "stop") != (state.mode is rssinav.Mode.DONE):
        return f"command {command.reason!r} left the navigator in mode {state.mode.value}"
    return None


WORKLOADS = {cls.name: cls for cls in (Train, Trials, Online)}
