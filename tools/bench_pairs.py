"""Compare two commits with alternating ``perfbench/run.py`` pairs.

Each pair runs one seed on both commits, every run from a fresh
``git archive`` copy of its commit that is deleted afterwards, so no
directory is shared between runs. Pairs alternate the run order: even
pairs run BASE first, odd pairs HEAD first. Prints one line per run, then
per metric the medians, the change, and in how many pairs HEAD read lower
(overall and per run order), with the quartiles of BASE's runs. Run from
inside the repository:

    python tools/bench_pairs.py BASE HEAD --workload eval-grid \\
        --seeds 7001-7008 [--seconds 14] [--workdir DIR]

BASE and HEAD are any commit names ``git archive`` takes; for uncommitted
work, ``git stash create`` names a commit of the working tree without
changing it. Nothing under ``perfbench/`` is changed.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_seeds(text):
    """``"7001-7004"`` or ``"1,5,9"`` as a list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def checkout(commit, dest):
    """A fresh copy of ``commit``'s tree at ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(commit, workload, seed, seconds, dest):
    """The result object of one perfbench run of ``commit``."""
    checkout(commit, dest)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=dest, capture_output=True, text=True)
    finally:
        shutil.rmtree(dest)
    if proc.returncode != 0:
        raise SystemExit(f"{commit} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(pairs):
    """Per-metric lines over ``pairs``, a list of (order, base, head)
    result objects; order 0 ran BASE first."""
    lines = []
    for name in sorted(pairs[0][1]["metrics"]):
        base = [p[1]["metrics"][name]["value"] for p in pairs]
        head = [p[2]["metrics"][name]["value"] for p in pairs]
        mb, mh = statistics.median(base), statistics.median(head)
        q1, _, q3 = (statistics.quantiles(base, n=4) if len(base) > 1
                     else (mb, mb, mb))
        lower = [h < b for h, b in zip(head, base)]
        per_order = ", ".join(
            f"{'base' if order == 0 else 'head'} first "
            f"{sum(lo for lo, p in zip(lower, pairs) if p[0] == order)}/"
            f"{sum(p[0] == order for p in pairs)}" for order in (0, 1))
        change = f"{100 * (mh / mb - 1):+.1f}%" if mb else "n/a"
        lines.append(f"{name}: base {mb:.6g} (quartiles {q1:.6g}-{q3:.6g}) "
                     f"head {mh:.6g} {change}; lower in {sum(lower)}/"
                     f"{len(pairs)} ({per_order})")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    ap.add_argument("--seconds", type=float, default=14)
    ap.add_argument("--workdir", type=Path)
    args = ap.parse_args(argv)
    work = Path(tempfile.mkdtemp(dir=args.workdir))
    pairs = []
    try:
        for n, seed in enumerate(args.seeds):
            order = n % 2
            sides = [("base", args.base), ("head", args.head)]
            got = {}
            for side, commit in sides[::-1] if order else sides:
                got[side] = res = run_once(commit, args.workload, seed,
                                           args.seconds, work / f"{n}-{side}")
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in
                                  sorted(res["metrics"].items()))
                print(f"seed {seed} {side}: correct={res['correct']} "
                      f"failed={res['failed']} {values}", flush=True)
            pairs.append((order, got["base"], got["head"]))
    finally:
        shutil.rmtree(work)
    print("\n".join(summary(pairs)))


if __name__ == "__main__":
    main()
