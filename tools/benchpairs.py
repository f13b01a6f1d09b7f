#!/usr/bin/env python3
"""Paired benchmark runs: run ``perfbench/run.py`` on a parent tree and on
this tree, alternating which side goes first, and write every run's metrics
and their comparison to one JSON file.

    python3 tools/benchpairs.py PARENT --workload W --seed S --pairs N [--label L]

PARENT is a source checkout (a directory holding ``src/rssinav``) or a git
revision of this repository, which is exported with ``git archive`` as in
``bytediff.py``.  Each pair runs the workload once per side for 25 s (the
benchmark's run length) with the same seed; even pairs run the parent
first, odd pairs this tree first, so a machine that drifts over minutes
favours neither side.  Naming this tree as PARENT (``.``) runs the same code
on both sides: an A/A run that records the machine's noise floor.

The file ``bench/BENCH_<workload>_s<seed>_<label>.json`` holds both
revisions, the machine from the first run's ``report`` line, every run's
end-to-end metrics, operation counts and ``speed`` block (the raw,
unnormalized figures and the speed probe's ``reference_median_s``), and
per metric: each side's median and quartiles, the per-pair ratios (this
tree / parent), the pairs this tree won, and whether the median gap exceeds
the parent's quartile distance.  ``summary`` compares the metrics as
reported, at the nominal machine speed; ``raw_summary`` compares the raw
figures and the probe's median, so a normalized gap that the raw figures do
not show, beside a gap in ``reference_median_s``, is the probe's bias and
not the program's.  ``outputs_match`` says whether
every run on both sides reported the same ``output_sha256``.  No wall-clock
value enters a primary output of the program; the file is a measurement and
differs from run to run.  The last line printed is a one-line summary to
quote; when ``bench/`` holds an A/A file of the workload and seed
(``BENCH_<workload>_s<seed>_aa.json``, another file than the one written),
the summary ends with its ``ops_per_s`` median ratio and pair range, so a
claim reads against the machine's noise floor.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from bytediff import ROOT, export_revision

SECONDS = 25  # perfbench --seconds per run, the benchmark's own run length


def run_perfbench(tree: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line, plus the ``report`` line as ``report``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py imports the tree's own src/
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"error: perfbench failed in {tree} (exit {done.returncode}): {done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["report"] = next(json.loads(line[len("report ") :]) for line in lines if line.startswith("report "))
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def raw_values(run: dict) -> dict:
    """A run's figures before speed normalization, and the speed probe's median reference time."""
    return {**run["speed"]["raw"], "reference_median_s": run["speed"]["reference_median_s"]}


def compare(runs: list[dict], directions: dict[str, str], values=lambda run: run["metrics"]) -> dict:
    """Per metric: each side's quartiles, the per-pair ratios and wins, and whether the median gap clears the parent's spread."""
    pairs = sorted({run["pair"] for run in runs})
    side = {(run["pair"], run["side"]): values(run) for run in runs}
    summary = {}
    for name, better in directions.items():
        parent = [side[p, "parent"][name] for p in pairs]
        change = [side[p, "change"][name] for p in pairs]
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
        stats = {"parent": quartiles(parent), "change": quartiles(change)}
        gap = stats["change"]["median"] - stats["parent"]["median"]
        summary[name] = {
            "better": better,
            **stats,
            "ratios": [c / p if p else None for p, c in zip(parent, change)],
            "median_ratio": stats["change"]["median"] / stats["parent"]["median"] if stats["parent"]["median"] else None,
            "wins": wins,
            "pairs": len(pairs),
            "gap_exceeds_parent_iqr": (gap if better == "higher" else -gap) > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return summary


def noise_floor(workload: str, seed: int, written: Path) -> str:
    """The ``ops_per_s`` median ratio and pair range of the A/A file of this workload and seed, as a
    summary suffix; empty when there is none, it is the file written, or it holds no ratio."""
    path = ROOT / "bench" / f"BENCH_{workload}_s{seed}_aa.json"
    if path == written or not path.exists():
        return ""
    s = json.loads(path.read_text(encoding="utf-8"))["summary"]["ops_per_s"]
    ratios = [r for r in s["ratios"] if r is not None]
    if not ratios or s["median_ratio"] is None:
        return ""
    return f"; A/A ops_per_s {path.name} median ratio {s['median_ratio']:.4f}, pairs {min(ratios):.4f} to {max(ratios):.4f}"


@contextmanager
def parent_tree(arg: str):
    """A directory, or a git revision exported and cleaned up: yields (the tree, the revision or None)."""
    if (Path(arg) / "src" / "rssinav").is_dir():
        yield Path(arg).resolve(), None
        return
    export = Path(tempfile.mkdtemp(prefix="parent-tree-"))
    try:
        yield export_revision(arg, export / "parent-tree").resolve(), arg
    finally:
        shutil.rmtree(export, ignore_errors=True)


def describe(tree: Path, revision: str | None) -> str:
    """A git revision as its full hash; a directory as its path, with its HEAD and whether it has uncommitted changes if it is a checkout."""
    git = ["git", "-C", str(ROOT if revision else tree)]
    if revision:
        return subprocess.run([*git, "rev-parse", revision], capture_output=True, text=True, check=True).stdout.strip()
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode:
        return str(tree)
    dirty = subprocess.run([*git, "status", "--porcelain", "--", "src"], capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + (" with uncommitted changes under src/" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="parent source checkout (directory) or git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", default="change", help="the file name's last part (default: change)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}

    with parent_tree(args.parent) as (parent, revision):
        trees = {"parent": parent, "change": ROOT}
        runs = []
        for pair in range(args.pairs):
            for order, name in enumerate(("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                result = run_perfbench(trees[name], args.workload, args.seed)
                metrics = {metric: value["value"] for metric, value in result["metrics"].items()}
                runs.append({
                    "pair": pair,
                    "side": name,
                    "order": order,
                    "metrics": metrics,
                    **{key: result[key] for key in ("correct", "attempted", "failed")},
                    "output_sha256": result["report"]["output_sha256"],
                    "speed": result["report"]["speed"],
                    "machine": result["report"]["machine"],
                })
                print(f"pair {pair} {name:<6} " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), file=sys.stderr, flush=True)
        revisions = {"parent": describe(parent, revision), "change": describe(ROOT, None)}

    summary = compare(runs, {name: better for name, better in directions.items() if all(name in run["metrics"] for run in runs)})
    raw_directions = {**directions, "reference_median_s": "lower"}  # a lower reference time: a faster machine
    raw_summary = compare(runs, {name: raw_directions[name] for name in raw_values(runs[0]) if name in raw_directions}, raw_values)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": SECONDS,
        "pairs": args.pairs,
        "label": args.label,
        "revisions": revisions,
        "machine": runs[0]["machine"],
        "outputs_match": all(run["output_sha256"] == runs[0]["output_sha256"] for run in runs),
        "failed": {name: sum(run["failed"] for run in runs if run["side"] == name) for name in ("parent", "change")},
        "summary": summary,
        "raw_summary": raw_summary,
        "runs": [{k: v for k, v in run.items() if k != "machine"} for run in runs],
    }
    out = ROOT / "bench" / f"BENCH_{args.workload}_s{args.seed}_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    head = "ops_per_s" if "ops_per_s" in summary else next(iter(summary))
    s = summary[head]
    print(
        f"{out.name}: {head} parent {s['parent']['median']:.6g} [{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}] -> "
        f"change {s['change']['median']:.6g} [{s['change']['q1']:.6g}, {s['change']['q3']:.6g}], median ratio {s['median_ratio']:.4f}, "
        f"won {s['wins']}/{s['pairs']} pairs, gap {'exceeds' if s['gap_exceeds_parent_iqr'] else 'within'} parent IQR; "
        f"raw {head} median ratio {raw_summary[head]['median_ratio']:.4f} (won {raw_summary[head]['wins']}/{s['pairs']}), "
        f"reference_median_s median ratio {raw_summary['reference_median_s']['median_ratio']:.4f}; "
        f"outputs {'identical' if record['outputs_match'] else 'DIFFER'}; failed ops {record['failed']['parent']}/{record['failed']['change']}"
        + noise_floor(args.workload, args.seed, out)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
