#!/usr/bin/env python3
"""Byte-identity check: build every primary output in a parent tree and in
this tree, and print each output's SHA-256 and whether the two agree.

    python3 tools/bytediff.py PARENT [--keep DIR]

PARENT is a source checkout (a directory holding ``src/rssinav``) or a git
revision of this repository, which is exported with ``git archive``.  The
script writes one set of shared inputs (two sets of scan captures in two
SSIDs, one in 3-line cells and one in iwlist's verbose layout, and a 120x100
grid map with walls), then runs the same CLI pipeline in each tree, each in
its own directory, with every output path relative to it:

    make-world, make-dataset, ingest (plain, --no-aggregate, --ssid),
    ingest and ingest --ssid on the iwlist-layout captures,
    train --seed 0 and train --optimizer sgd --batch-size 7
    --validation-split 0 (model file and report each), evaluate, select-features,
    select-features and train --epochs 50 on the ingested captures with
    --min-presence 0.5 (which drops the one access point most scans miss),
    simulate --trials 100 -o, simulate --trials 7 -o, simulate --trials 1
    -o (one trial), simulate --trials 1500 -o, simulate --trials 130 -o and
    simulate --trials 256 -o (runner calls of 128 seeds: eleven and a tail
    of 92, one and a tail of 2, and two), simulate --oracle --trials 50 -o,
    simulate --oracle --trials 130 -o (a call of 128 and a tail of 2, with
    no model rows),
    simulate --oracle --trials 7 --step-distance 30 -o, simulate --trials 12
    -o from seeds 2**32 - 6 and 2**63 - 8 and with --step-distance 0.3,
    simulate --trials 3 -o with --step-distance 0.02 and 0.01,
    simulate --trials 300 --noise-sigma 6 -o, simulate --trials 50 -o on the
    route with right turns (--start 3,11 --goal 11,3), simulate --trials
    150 --step-distance 0.1 --noise-sigma 20 -o, navigate (three
    CSVs), navigate --oracle on the reverse route, on a route with right
    turns and with --step-distance 30, navigate --seed 2**32 (three CSVs
    each), plan -o

A 30 ft step is a 30 s command, longer than the 10 s the increment memo
keeps, so those two runs cover the uncached integration path.  The seeds
from 2**32 - 6 are one and two 32-bit words long, those from 2**63 - 8 wrap
to 0-3 under the 63-bit seed mask, 0.3 ft steps take about 40 fixes, 0.02
ft steps 400-460 and 0.01 ft steps run each trial to the 500-fix budget, so
those runs cover every grouping of the trials' noise lanes and their
extension past a block's 16 draws up to the budget.  The trials CSV shows
the noise only through each trial's course: the 0.02 ft trials' rows change
when the extension's draws change, the 0.01 ft trials' rows do not (each
ends at the budget with the same error), but they index the extension's last
draw.
At --noise-sigma 6 and on the route with right turns, a few trials fail a
walkability check inside the map, so later trials of the run reach nodes of
the pose graph whose path has failed it.  At --noise-sigma 20 with 0.1 ft
steps, 150 trials make about 7,200 moves, past the 2,048 the pose graph
keeps, so that run covers the moves that are made but not kept.

Each command's stdout is compared too, and so are the exit status and
stderr of a few runs that must fail with one error line (FAILURES).  The
exit status is 0 when every output exists in both trees and matches, else
1.  Model-based digests depend on the BLAS build, so compare two trees on
one machine; this check is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (label, argv, output files); "{captures}", "{iwlist}" and "{map}" name the shared inputs
STEPS = [
    ("make-world", ["make-world", "-o", "world.txt"], ["world.txt"]),
    ("make-dataset", ["make-dataset", "world.txt", "-o", "dataset.csv"], ["dataset.csv"]),
    ("ingest", ["ingest", "{captures}", "-o", "ingest.csv"], ["ingest.csv"]),
    ("ingest --no-aggregate", ["ingest", "{captures}", "-o", "ingest_resamples.csv", "--no-aggregate"], ["ingest_resamples.csv"]),
    ("ingest --ssid", ["ingest", "{captures}", "-o", "ingest_ssid.csv", "--ssid", "LabNet"], ["ingest_ssid.csv"]),
    ("ingest iwlist", ["ingest", "{iwlist}", "-o", "ingest_iwlist.csv"], ["ingest_iwlist.csv"]),
    ("ingest iwlist --ssid", ["ingest", "{iwlist}", "-o", "ingest_iwlist_ssid.csv", "--ssid", "LabNet"], ["ingest_iwlist_ssid.csv"]),
    ("train", ["train", "dataset.csv", "-o", "model.bin", "--seed", "0"], ["model.bin", "model.bin.report.csv"]),
    # SGD, a ragged last batch (71 training rows in batches of 7) and no validation rows
    ("train --optimizer sgd", ["train", "dataset.csv", "-o", "model_sgd.bin", "--optimizer", "sgd", "--batch-size", "7"]
     + ["--validation-split", "0", "--epochs", "50", "--seed", "3"], ["model_sgd.bin", "model_sgd.bin.report.csv"]),
    ("evaluate", ["evaluate", "model.bin", "dataset.csv", "-o", "evaluate.csv"], ["evaluate.csv"]),
    ("select-features", ["select-features", "dataset.csv", "-o", "features.csv"], ["features.csv"]),
    ("select-features --min-presence", ["select-features", "ingest.csv", "--min-presence", "0.5", "-o", "features_presence.csv"],
     ["features_presence.csv"]),
    ("train --min-presence", ["train", "ingest.csv", "--min-presence", "0.5", "--epochs", "50", "-o", "model_presence.bin"],
     ["model_presence.bin", "model_presence.bin.report.csv"]),
    ("simulate", ["simulate", "world.txt", "model.bin", "--trials", "100", "-o", "trials.csv"], ["trials.csv"]),
    ("simulate --trials 7", ["simulate", "world.txt", "model.bin", "--trials", "7", "-o", "trials_7.csv"], ["trials_7.csv"]),
    ("simulate --trials 1", ["simulate", "world.txt", "model.bin", "--trials", "1", "-o", "trials_1.csv"], ["trials_1.csv"]),
    ("simulate --trials 1500", ["simulate", "world.txt", "model.bin", "--trials", "1500", "-o", "trials_1500.csv"], ["trials_1500.csv"]),
    ("simulate --trials 130", ["simulate", "world.txt", "model.bin", "--trials", "130", "-o", "trials_130.csv"], ["trials_130.csv"]),
    ("simulate --trials 256", ["simulate", "world.txt", "model.bin", "--trials", "256", "-o", "trials_256.csv"], ["trials_256.csv"]),
    ("simulate --oracle", ["simulate", "world.txt", "--oracle", "--trials", "50", "-o", "trials_oracle.csv"], ["trials_oracle.csv"]),
    ("simulate --oracle --trials 130", ["simulate", "world.txt", "--oracle", "--trials", "130", "-o", "trials_oracle_130.csv"],
     ["trials_oracle_130.csv"]),
    ("simulate --step-distance 30", ["simulate", "world.txt", "--oracle", "--trials", "7", "--step-distance", "30", "-o", "trials_long.csv"],
     ["trials_long.csv"]),
    # scan noise: seeds of one and two 32-bit words in one run, seeds masked past 2**63 to 0-3, trials of
    # about 40 fixes, past the 16 draws a seed's noise block holds, and trials that run to the fix budget
    ("simulate --seed 2**32 - 6", ["simulate", "world.txt", "model.bin", "--seed", "4294967290", "--trials", "12", "-o", "trials_2w.csv"],
     ["trials_2w.csv"]),
    ("simulate --seed 2**63 - 8", ["simulate", "world.txt", "model.bin", "--seed", "9223372036854775800", "--trials", "12", "-o", "trials_wrap.csv"],
     ["trials_wrap.csv"]),
    ("simulate --step-distance 0.3", ["simulate", "world.txt", "model.bin", "--trials", "12", "--step-distance", "0.3", "-o", "trials_short.csv"],
     ["trials_short.csv"]),
    ("simulate --step-distance 0.02", ["simulate", "world.txt", "model.bin", "--trials", "3", "--step-distance", "0.02", "-o", "trials_crawl.csv"],
     ["trials_crawl.csv"]),
    ("simulate --step-distance 0.01", ["simulate", "world.txt", "model.bin", "--trials", "3", "--step-distance", "0.01", "-o", "trials_budget.csv"],
     ["trials_budget.csv"]),
    # trials that reach nodes whose path failed a walkability check: at high noise, and on the staircase
    # route of "navigate right turns"
    ("simulate --noise-sigma 6", ["simulate", "world.txt", "model.bin", "--trials", "300", "--noise-sigma", "6", "-o", "trials_noisy.csv"],
     ["trials_noisy.csv"]),
    ("simulate right turns", ["simulate", "world.txt", "model.bin", "--trials", "50", "--start", "3,11", "--goal", "11,3", "-o", "trials_right.csv"],
     ["trials_right.csv"]),
    # 0.1 ft steps at sigma 20: about 7,200 moves, past the pose graph's cap of 2,048 kept moves
    ("simulate --noise-sigma 20", ["simulate", "world.txt", "model.bin", "--trials", "150", "--step-distance", "0.1", "--noise-sigma", "20",
                                   "-o", "trials_wander.csv"], ["trials_wander.csv"]),
    ("navigate", ["navigate", "world.txt", "model.bin", "--out-prefix", "nav"],
     ["nav_trajectory.csv", "nav_fixes.csv", "nav_commands.csv"]),
    # the oracle reverse of the reference route turns left, as the forward one does; the
    # staircase route from the north leg's far end turns right twice and left once
    ("navigate reverse", ["navigate", "world.txt", "--oracle", "--start", "11,3", "--goal", "0,0", "--out-prefix", "nav_rev"],
     ["nav_rev_trajectory.csv", "nav_rev_fixes.csv", "nav_rev_commands.csv"]),
    ("navigate right turns", ["navigate", "world.txt", "--oracle", "--start", "3,11", "--goal", "11,3", "--out-prefix", "nav_right"],
     ["nav_right_trajectory.csv", "nav_right_fixes.csv", "nav_right_commands.csv"]),
    ("navigate --step-distance 30", ["navigate", "world.txt", "--oracle", "--step-distance", "30", "--out-prefix", "nav_long"],
     ["nav_long_trajectory.csv", "nav_long_fixes.csv", "nav_long_commands.csv"]),
    ("navigate --seed 2**32", ["navigate", "world.txt", "model.bin", "--seed", "4294967296", "--out-prefix", "nav_2w"],
     ["nav_2w_trajectory.csv", "nav_2w_fixes.csv", "nav_2w_commands.csv"]),
    ("plan", ["plan", "{map}", "--start", "0,0", "--goal", "119,99", "-o", "plan.csv"], ["plan.csv"]),
]

# (label, argv) of runs that must fail; their messages must not change
FAILURES = [
    ("train --epochs 0", ["train", "dataset.csv", "-o", "failed.bin", "--epochs", "0"]),
    ("simulate --oracle --max-misses -1", ["simulate", "world.txt", "--oracle", "--max-misses", "-1"]),
    ("plan --heading Q", ["plan", "{map}", "--start", "0,0", "--goal", "119,99", "--heading", "Q"]),
    ("make-dataset --resamples 0", ["make-dataset", "world.txt", "-o", "failed.csv", "--resamples", "0"]),
    ("simulate --oracle --seed -1", ["simulate", "world.txt", "--oracle", "--seed", "-1"]),
    ("ingest --ssid Nope", ["ingest", "{captures}", "-o", "failed_ssid.csv", "--ssid", "Nope"]),
]


def iwlist_cell(cell: int, mac: str, ssid: str, rssi: int, tsf: int) -> list[str]:
    """A 16-line cell in iwlist's verbose layout, the signal line before the ESSID and a timer value
    ``tsf`` that differs from scan to scan."""
    channel = 1 + int(mac[-2:], 16) % 11
    pad = " " * 20
    return [
        f"          Cell {cell:02d} - Address: {mac}",
        f"{pad}Channel:{channel}",
        f"{pad}Frequency:{2.407 + 0.005 * channel:.3f} GHz (Channel {channel})",
        f"{pad}Quality={max(0, min(70, rssi + 110))}/70  Signal level={rssi} dBm  ",
        f"{pad}Encryption key:on",
        f'{pad}ESSID:"{ssid}"',
        f"{pad}Bit Rates:1 Mb/s; 2 Mb/s; 5.5 Mb/s; 11 Mb/s; 6 Mb/s",
        f"{pad}          9 Mb/s; 12 Mb/s; 18 Mb/s; 24 Mb/s; 36 Mb/s",
        f"{pad}Mode:Master",
        f"{pad}Extra:tsf={tsf:016x}",
        f"{pad}Extra: Last beacon: {tsf % 997}ms ago",
        f"{pad}IE: Unknown: 00{len(ssid):02X}{ssid.encode().hex().upper()}",
        f"{pad}IE: IEEE 802.11i/WPA2 Version 1",
        f"{pad}    Group Cipher : CCMP",
        f"{pad}    Pairwise Ciphers (1) : CCMP",
        f"{pad}    Authentication Suites (1) : PSK",
    ]


def write_captures(directory: Path, iwlist: bool = False) -> None:
    """Seeded scan captures: 6x4 locations x 3 scans of 9 APs, a third of them on SSID Guest;
    AP 02:00:00:00:01:01 is heard only from x >= 20 ft, a third of the locations.  With ``iwlist``, the
    set draws from its own seed and is in iwlist's verbose layout: a preamble line, then 16-line cells,
    and the file 0_0_0.txt has \\r\\n line ends."""
    directory.mkdir()
    rnd = random.Random(2027 if iwlist else 2026)
    aps = [(f"02:00:00:00:01:{i:02X}", "Guest" if i % 3 == 0 else "LabNet", rnd.uniform(0, 30), rnd.uniform(0, 20)) for i in range(9)]
    for x in range(0, 30, 5):
        for y in range(0, 20, 5):
            for rep in range(3):
                lines = []
                for cell, (mac, ssid, ax, ay) in enumerate(aps, start=1):
                    rssi = round(-40 - 30 * math.log10(max(1.0, math.hypot(ax - x, ay - y))) + rnd.gauss(0, 2))
                    if mac.endswith(":01") and x < 20:
                        continue
                    if iwlist:
                        lines += iwlist_cell(cell, mac, ssid, rssi, ((x * 100 + y) * 10 + rep) * 4096 + cell)
                    else:
                        lines += [f"Cell {cell:02d} - Address: {mac}", f'          ESSID:"{ssid}"', f"          Signal level={rssi} dBm"]
                if iwlist:
                    lines.insert(0, "wlan0     Scan completed :")
                newline = "\r\n" if iwlist and x == y == rep == 0 else "\n"
                (directory / f"{x}_{y}_{rep}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8", newline=newline)


def write_map(path: Path, width: int = 120, height: int = 100) -> None:
    """Rooms behind walls on every 15th column and 10th row, with one door in each wall segment."""
    rnd = random.Random(7)
    rows = [["."] * width for _ in range(height)]
    for wy in range(10, height, 10):
        rows[wy] = ["#"] * width
        for x0 in range(0, width, 15):
            rows[wy][rnd.randrange(x0 + 1 if x0 else 0, min(x0 + 15, width))] = "."
    for wx in range(15, width, 15):
        for y0 in range(0, height, 10):
            band = range(y0 + 1 if y0 else 0, min(y0 + 10, height))
            for y in band:
                rows[y][wx] = "#"
            rows[rnd.choice(band)][wx] = "."
    path.write_text(f"{width} {height} 1\n" + "".join("".join(row) + "\n" for row in rows), encoding="utf-8")


def export_revision(revision: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def run_tree(tree: Path, work: Path, inputs: dict[str, str]) -> dict[str, str]:
    """Run every step, then every failing run, in ``work`` with ``tree``'s source;
    return output name -> SHA-256 (or a failure note)."""
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def run(argv):
        return subprocess.run([sys.executable, "-m", "rssinav", *(arg.format(**inputs) for arg in argv)], cwd=work, env=env, capture_output=True)

    digests = {}
    for label, argv, outputs in STEPS:
        done = run(argv)
        digests[f"{label}: stdout"] = hashlib.sha256(done.stdout).hexdigest() if done.returncode == 0 else f"exit {done.returncode}"
        for name in outputs:
            path = work / name
            digests[f"{label}: {name}"] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    for label, argv in FAILURES:
        done = run(argv)
        digest = hashlib.sha256(b"exit %d\n" % done.returncode + done.stderr).hexdigest()
        digests[f"{label}: exit and stderr"] = digest if done.returncode else "exit 0, not a failure"
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="parent source checkout (directory) or git revision")
    parser.add_argument("--keep", help="build in this new directory and keep it, instead of a temporary one")
    args = parser.parse_args(argv)
    work = Path(args.keep) if args.keep else Path(tempfile.mkdtemp(prefix="bytediff-"))
    try:
        if args.keep:
            work.mkdir(parents=True)
        parent = Path(args.parent)
        if not (parent / "src" / "rssinav").is_dir():
            parent = export_revision(args.parent, work / "parent-tree")
        write_captures(work / "captures")
        write_captures(work / "iwlist", iwlist=True)
        write_map(work / "map.txt")
        inputs = {"captures": str(work / "captures"), "iwlist": str(work / "iwlist"), "map": str(work / "map.txt")}
        before = run_tree(parent.resolve(), work / "parent", inputs)
        after = run_tree(ROOT, work / "change", inputs)
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)
    width = max(map(len, after))
    same = 0
    for name, digest in after.items():
        if digest == before[name] and len(digest) == 64:
            same += 1
            print(f"{name:<{width}}  same       {digest}")
        else:
            print(f"{name:<{width}}  DIFFERENT  {digest}  parent: {before[name]}")
    print(f"{same} of {len(after)} outputs identical")
    return 0 if same == len(after) else 1


if __name__ == "__main__":
    sys.exit(main())
