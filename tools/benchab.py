#!/usr/bin/env python3
"""In-process A/B timing of one layer: a parent tree's code against this
tree's, in alternating blocks inside one process, so a gain of a few
percent can be told from the machine's drift.

    python3 tools/benchab.py PARENT [--layer trials|run|online] [--pairs 60] [--trials 100] [--label L]

PARENT is a source checkout (a directory holding ``src/rssinav``) or a git
revision of this repository, exported with ``git archive`` as in
``bytediff.py``; naming this tree (``.``) gives an A/A run, the noise floor.
Each tree's ``src/rssinav`` is imported under its own package name, so both
run side by side with their own caches.  The inputs are built once per
process: the reference world and the test suite's reference model (training
seed 0 on the world's synthetic dataset), trained in a third import of this
tree that no block runs, and read by each tree's own ``load_model``.  The
layers (default ``trials``):

- ``trials``: a block is ``--trials`` serial ``rfsim.run_trial`` calls
  (simulate's defaults, seeds (p + 1) * trials onwards in pair p, so each
  block starts with cold noise caches).  Each call derives a fresh run of
  one trial, so nothing a run keeps is reused (the all-miss case of the
  run's memos), and each fix goes through the model as a lone row.
- ``run``: a block builds one ``rfsim._trials`` run on the same seeds and
  runs them all in one call, in lockstep, as ``simulate`` runs 128 seeds,
  so its trials share what the run keeps and each round's rows go through
  the model at once.  A tree whose runner takes one seed, from before the
  lockstep runs, is called once per seed.
- ``online``: the robot's decision loop on scan text.  A block is
  ``--trials`` missions along the reference route, one fix per route cell
  until the navigator stops or aborts; a fix is ``parse_scan_text`` ->
  ``filter_by_ssid`` -> ``predict_position`` -> ``nav_step``.  Mission m's
  scans are ``simulate_scan`` draws of seed m, plus one cell of a foreign
  network for the filter to drop, rendered to text once before any timing
  and fed to both sides.

The pairs run in eight child processes, one after the other, an eighth of
the pairs each: they import the parent tree first and this tree first in
turn, so a layout that favours whichever side a process imports first shows
as a gap between the processes, and the interval resamples the processes
as well as their pairs.  In each, pair p runs the same block on each side,
the parent first in even pairs and this tree first in odd ones, after one
untimed warm-up block per side.  If any trial's or fix's outcome differs
between the sides, the script refuses: it prints the first differing seed
or mission, writes nothing and exits 1.  Otherwise it writes
``bench/BENCH_<layer>_ab_<label>.json`` with every block time, the per-pair
time ratios (this tree / parent), their median, the pairs this tree won,
each process's median and wins, and a bootstrap 95% confidence interval of
the median ratio that resamples the processes, then the pairs inside each.
The last line printed is a summary to quote, with every process; when
``bench/`` holds the layer's A/A file ``BENCH_<layer>_ab_aa.json`` (another
file than the one written), it ends with that file's median and interval.
In-process work only: start-up and set-up stay perfbench's.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):  # before numpy loads
    os.environ.setdefault(_name, "1")

import argparse
import functools
import importlib.util
import inspect
import io
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from benchpairs import describe, parent_tree
from bytediff import ROOT

BOOTSTRAP = 10_000  # resamples of the processes and their pairs for the interval of the median ratio
PROCESSES = 8  # child processes a recording runs in, importing the parent tree first in every other one


def load_tree(tree: Path, name: str):
    """``tree``'s ``src/rssinav`` imported as the package ``name``, with its ``cli`` module."""
    package = tree / "src" / "rssinav"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # before it runs: its relative imports look it up
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def build_sides(trees: dict[str, Path]) -> dict[str, tuple]:
    """Per side: its package and its (world, bundle, path), the model trained once and passed through bytes;
    the trees are imported in ``trees``' order.  The model is trained in a third import of this tree, as a
    side whose own package trained it ran its blocks slower (A/A ``run`` medians 1.05 and 1.02 on a 2-core VM)."""
    trainer = load_tree(ROOT, "rssinav_ab_model")
    world = trainer.rfsim.reference_world()
    bundle, _, _ = trainer.cli.run_training_pipeline(trainer.rfsim.generate_synthetic_dataset(world), train_config=trainer.model.TrainConfig(seed=0))
    saved = io.BytesIO()
    trainer.model.save_model(bundle.model, bundle.selection, bundle.params, saved)
    packages = {side: load_tree(tree, f"rssinav_ab_{side}") for side, tree in trees.items()}
    sides = {}
    for side, package in packages.items():
        world = package.rfsim.reference_world()
        path = package.planner.astar(world.grid, package.rfsim.REFERENCE_START, package.rfsim.REFERENCE_GOAL)
        sides[side] = (package, (world, package.model.load_model(io.BytesIO(saved.getvalue())), path))
    return sides


def run_trials(side: tuple, seeds: range, shared: bool) -> tuple[float, list[str]]:
    """Seconds for the trials of ``seeds``, all in one ``rfsim._trials`` run when ``shared``, else each by
    ``run_trial``, a fresh run; and each trial's outcome and event log as text."""
    package, (world, bundle, path) = side
    rfsim = package.rfsim
    t0 = time.perf_counter()
    if shared:
        run = rfsim._trials(world, bundle, path)
        results = run(seeds) if "seeds" in inspect.signature(run).parameters else [run(seed) for seed in seeds]
    else:
        results = [rfsim.run_trial(world, bundle, path, seed=seed) for seed in seeds]
    elapsed = time.perf_counter() - t0
    return elapsed, [repr((r.seed, r.success, r.final_error, r.reason, r.events)) for r in results]


def render_missions(side: tuple, count: int) -> list[list[str]]:
    """Each mission's scan texts, one per route cell: mission m's ``simulate_scan`` draws of seed m, with
    one cell of a foreign network appended."""
    package, (world, _, path) = side
    rfsim, scan = package.rfsim, package.scan_ingest
    foreign = scan.ScanEntry("02:00:00:00:0F:01", "Neighbour", -70)
    return [
        [
            rfsim.render_scan_text(scan.ScanSnapshot(rfsim.simulate_scan(world, world.grid.cell_center(cell), draw_index=k, seed=m).entries + (foreign,)))
            for k, cell in enumerate(path.cells)
        ]
        for m in range(count)
    ]


def run_online(side: tuple, missions: list[list[str]]) -> tuple[float, list[str]]:
    """Seconds for every mission's fixes, parse -> filter -> predict -> nav_step, and each mission's fixes,
    modes and commands as text."""
    package, (world, bundle, path) = side
    scan, model, navctl, planner = package.scan_ingest, package.model, package.navctl, package.planner
    allowlist = {ap.ssid for ap in world.aps}
    start = navctl.NavState.initial(planner.extract_checkpoints(path, planner.first_segment_heading(path)), cell_size=world.grid.cell_size)
    terminal = (navctl.Mode.DONE, navctl.Mode.ABORTED)
    logs = []
    t0 = time.perf_counter()
    for texts in missions:
        state, log = start, []
        for text in texts:
            entries = scan.filter_by_ssid(scan.parse_scan_text(text), allowlist)
            try:
                fix = tuple(model.predict_position(bundle, scan.ScanSnapshot(tuple(entries))))
            except model.NoKnownAccessPoints:
                fix = None
            state, command = navctl.nav_step(state, fix)
            log.append((fix, state.mode.value, state.next_checkpoint_index, state.miss_counter, command))
            if state.mode in terminal:
                break
        logs.append(log)
    elapsed = time.perf_counter() - t0
    return elapsed, [repr(log) for log in logs]


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu": model or platform.processor(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def bootstrap_ci(processes: list[list[float]]) -> list[float]:
    """The 2.5th and 97.5th percentiles of the pooled median over two-level resamples (fixed seed): each
    process's share of a resample is drawn from a process picked at random, its pairs drawn among that
    process's, so the interval sees how far one process's layout moves the ratios as well as their spread."""
    rng = np.random.default_rng(0)
    sizes = np.array([len(ratios) for ratios in processes])
    starts = np.cumsum(sizes) - sizes
    draws = []
    for size in sizes.tolist():
        picked = rng.integers(len(sizes), size=(BOOTSTRAP, 1))
        draws.append(starts[picked] + rng.integers(sizes[picked], size=(BOOTSTRAP, size)))
    medians = np.median(np.concatenate(processes)[np.concatenate(draws, axis=1)], axis=1)
    return [float(np.percentile(medians, 2.5)), float(np.percentile(medians, 97.5))]


def noise_floor(written: Path, layer: str) -> str:
    """The layer's A/A file's median ratio and interval as a summary suffix; empty when there is none or it is the file written."""
    path = ROOT / "bench" / f"BENCH_{layer}_ab_aa.json"
    if path == written or not path.exists():
        return ""
    record = json.loads(path.read_text(encoding="utf-8"))
    low, high = record["ci95"]
    return f"; A/A {path.name} median ratio {record['median_ratio']:.4f}, CI {low:.4f} to {high:.4f}"


def run_process(args, trees: dict[str, Path], pairs: range) -> dict:
    """Time ``pairs`` in this process, the trees imported in ``trees``' order: each side's block seconds,
    or the refusal message when the sides' outcomes differ."""
    sides = build_sides(trees)
    if args.layer == "online":
        missions = render_missions(sides["change"], args.trials)
        run_block, block, unit = run_online, lambda pair: missions, "mission"
    else:
        run_block, unit = functools.partial(run_trials, shared=args.layer == "run"), "seed"
        block = lambda pair: range((pair + 1) * args.trials, (pair + 2) * args.trials)
    seconds = {"parent": [], "change": []}
    for pair in [-1, *pairs]:  # pair -1 is the untimed warm-up
        work = block(pair)
        outcomes = {}
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            elapsed, outcomes[side] = run_block(sides[side], work)
            if pair >= 0:
                seconds[side].append(elapsed)
        if outcomes["parent"] != outcomes["change"]:
            first = next(i for i, (a, b) in enumerate(zip(outcomes["parent"], outcomes["change"])) if a != b)
            which = first if args.layer == "online" else work[first]
            return {"refused": f"the trees' {args.layer} differ (first at {unit} {which}); no timing reported"}
    return {"seconds": seconds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="parent source checkout (directory) or git revision")
    parser.add_argument("--layer", choices=("trials", "run", "online"), default="trials", help="the layer timed (default: trials)")
    parser.add_argument("--pairs", type=int, default=60)
    parser.add_argument("--trials", type=int, default=100, help="serial trials, or online missions, per block (default: 100)")
    parser.add_argument("--label", default="change", help="the file name's last part (default: change)")
    parser.add_argument("--child", nargs=3, metavar=("FIRST", "START", "STOP"), help=argparse.SUPPRESS)  # a child's share
    args = parser.parse_args(argv)
    if args.pairs < PROCESSES or args.trials < 1:
        parser.error(f"--pairs must be >= {PROCESSES} and --trials >= 1")

    if args.child:  # a child: PARENT is a directory, FIRST the side it imports first
        first, start, stop = args.child[0], int(args.child[1]), int(args.child[2])
        trees = {"parent": Path(args.parent), "change": ROOT}
        order = [first, *(side for side in trees if side != first)]
        print(json.dumps(run_process(args, {side: trees[side] for side in order}, range(start, stop))))
        return 0

    bounds = [args.pairs * k // PROCESSES for k in range(PROCESSES + 1)]
    processes = []
    with parent_tree(args.parent) as (parent, revision):
        for k, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            first = ("parent", "change")[k % 2]
            argv = [sys.executable, __file__, str(parent), "--layer", args.layer, "--trials", str(args.trials), "--child", first, str(start), str(stop)]
            done = subprocess.run(argv, capture_output=True, text=True)
            if done.returncode:
                print(f"error: the process importing {first} first failed (exit {done.returncode}): {done.stderr.strip()[-2000:]}", file=sys.stderr)
                return 1
            process = json.loads(done.stdout.splitlines()[-1])
            if "refused" in process:
                print(f"error: {process['refused']}", file=sys.stderr)
                return 1
            processes.append({"imported_first": first, "pairs": [start, stop], **process})
        revisions = {"parent": describe(parent, revision), "change": describe(ROOT, None)}

    seconds = {side: [t for process in processes for t in process["seconds"][side]] for side in ("parent", "change")}
    for process in processes:
        ratios = [c / p for p, c in zip(process["seconds"]["parent"], process["seconds"]["change"])]
        process.update(ratios=ratios, median_ratio=statistics.median(ratios), wins=sum(r < 1 for r in ratios))
        del process["seconds"]
    ratios = [r for process in processes for r in process["ratios"]]
    record = {
        "layer": args.layer,
        "label": args.label,
        "pairs": args.pairs,
        ("missions_per_block" if args.layer == "online" else "trials_per_block"): args.trials,
        "revisions": revisions,
        "machine": machine(),
        "results_identical": True,
        "block_seconds": seconds,
        "first": ["parent" if pair % 2 == 0 else "change" for pair in range(args.pairs)],
        "processes": [{k: process[k] for k in ("imported_first", "pairs", "median_ratio", "wins")} for process in processes],
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "quartiles": statistics.quantiles(ratios, n=4, method="inclusive"),
        "wins": sum(r < 1 for r in ratios),
        "ci95": bootstrap_ci([process["ratios"] for process in processes]),
    }
    out = ROOT / "bench" / f"BENCH_{args.layer}_ab_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    low, high = record["ci95"]
    print(
        f"{out.name}: time ratio change/parent median {record['median_ratio']:.4f}, CI {low:.4f} to {high:.4f}, "
        f"change faster in {record['wins']}/{args.pairs} pairs; "
        + ", ".join(f"{p['imported_first']} imported first {p['median_ratio']:.4f} ({p['wins']}/{p['pairs'][1] - p['pairs'][0]})" for p in processes)
        + f"; block medians parent {statistics.median(seconds['parent']) * 1e3:.1f} ms, "
        f"change {statistics.median(seconds['change']) * 1e3:.1f} ms; {args.layer} identical" + noise_floor(out, args.layer)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
