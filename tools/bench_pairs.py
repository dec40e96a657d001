"""Compare two commits with alternating ``perfbench/run.py`` pairs.

Each pair runs one seed on both commits, every run from a fresh
``git archive`` copy of its commit that is deleted afterwards, so no
directory is shared between runs. Pairs alternate the run order: even
pairs run BASE first, odd pairs HEAD first. Prints one line per run, then
per metric the medians, the change, and in how many pairs HEAD read lower
(overall, per run order, and split by a two-core control run before each
pair), with the quartiles of BASE's runs. Each run line also gives the run's op counts and the minor page faults, voluntary
context switches and system CPU seconds of the perfbench process tree
(``resource.getrusage`` of this process's children, read before and after
that subprocess only). Run from inside the repository:

    python tools/bench_pairs.py BASE HEAD --workload eval-grid \\
        --seeds 7001-7008 [--seconds 14] [--workdir DIR]

BASE and HEAD are any commit names ``git archive`` takes; for uncommitted
work, ``git stash create`` names a commit of the working tree without
changing it. Nothing under ``perfbench/`` is changed.

With ``--json PATH`` the run also writes one JSON object to PATH, or merges
its workload into the object already there, so several workloads share a
file (``BENCH_<n>.json``). Its keys:

- ``base``, ``head``: the two commit names, as given.
- ``control``: per workload, the two-core control run before and after
  its pairs (``before``, ``after``). Each holds ``serial_s``, one process running
  two fixed single-threaded GEMM loops in sequence; ``parallel_s``, two
  processes running one loop each at once; and ``ratio``, serial_s over
  parallel_s. A host that gives two cores reads near 2, one core near 1.
- ``workloads``: per workload name, ``seeds`` (in run order),
  ``pair_controls`` (the ``ratio`` of the control run just before each
  pair, in run order), ``environment`` (perfbench's block from the first
  run) and ``metrics``. Per metric: ``unit``; ``base_median`` and
  ``head_median``; ``base_quartiles``, [q1, q3] of BASE's runs;
  ``change``, head_median / base_median - 1 (null when base_median is 0);
  ``lower``, the number of pairs in which HEAD read lower, and
  ``pairs``, the number of pairs; ``lower_by_order``, the same two
  counts for ``base_first`` and ``head_first`` pairs; and
  ``by_control``, the pairs split by their control: ``two_core`` holds
  those whose ratio reads at least 1.6, ``one_core`` the rest. Each
  holds ``lower`` and ``pairs`` as above, and ``median_change``, the
  median over its pairs of head / base - 1 (pairs with base 0 left out;
  null when none is left).
  Per workload also ``runs``: per side (``base``, ``head``), one entry per
  run in seed order with its ``seed``, perfbench's ``correct``,
  ``attempted`` and ``failed`` (ops), and ``minflt``, ``nvcsw`` and
  ``sys_s``: the minor page faults, the voluntary context switches (a
  process gives up the CPU to wait, as on a lock or for I/O; the
  children's ``ru_nvcsw``) and the system CPU seconds of the perfbench
  process tree. And ``rusage``: per side, the medians of ``minflt``,
  ``nvcsw`` and ``sys_s`` over its runs.
"""
import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
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
    """The result object of one perfbench run of ``commit``, with
    perfbench's ``environment`` block added under that key and the run's
    ``minflt``, ``nvcsw`` and ``sys_s`` under ``rusage``."""
    checkout(commit, dest)
    try:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=dest, capture_output=True, text=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    finally:
        shutil.rmtree(dest)
    if proc.returncode != 0:
        raise SystemExit(f"{commit} seed {seed} failed:\n{proc.stderr}")
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return dict(json.loads(result),
                environment=json.loads(detail)["environment"],
                rusage={"minflt": after.ru_minflt - before.ru_minflt,
                        "nvcsw": after.ru_nvcsw - before.ru_nvcsw,
                        "sys_s": after.ru_stime - before.ru_stime})


# a fixed single-threaded GEMM loop; BLAS is pinned before numpy loads
_LOOP = ("import os; os.environ['OPENBLAS_NUM_THREADS'] = "
         "os.environ['OMP_NUM_THREADS'] = '1'\n"
         "import numpy as np\n"
         "a = np.random.default_rng(0).standard_normal((300, 300))\n"
         "for _ in range({n}): a = np.tanh(a @ a)\n")


def control(loops=400):
    """The two-core control: ``serial_s`` for one process running two GEMM
    loops in sequence, ``parallel_s`` for two processes running one each
    at once, and their ratio."""
    def timed(procs):
        start = time.perf_counter()
        for p in [subprocess.Popen([sys.executable, "-c", c])
                  for c in procs]:
            if p.wait() != 0:
                raise SystemExit("the control's GEMM loop failed")
        return time.perf_counter() - start

    serial = timed([_LOOP.format(n=2 * loops)])
    parallel = timed([_LOOP.format(n=loops)] * 2)
    return {"serial_s": serial, "parallel_s": parallel,
            "ratio": serial / parallel}


_TWO_CORE = 1.6  # the least control ratio that counts as a second core


def _split(head, base, keep):
    """``lower``, ``pairs`` and ``median_change`` over the pairs ``keep``
    selects: a ``by_control`` entry."""
    got = [(h, b) for h, b, k in zip(head, base, keep) if k]
    changes = [h / b - 1 for h, b in got if b]
    return {"lower": sum(h < b for h, b in got), "pairs": len(got),
            "median_change": statistics.median(changes) if changes else None}


def metrics(pairs, pair_controls):
    """Per metric over ``pairs``, a list of (order, base, head) result
    objects in which order 0 ran BASE first, and ``pair_controls``, the
    control ratio read before each: the ``metrics`` entries of the
    ``--json`` object."""
    two_core = [r >= _TWO_CORE for r in pair_controls]
    out = {}
    for name in sorted(pairs[0][1]["metrics"]):
        base = [p[1]["metrics"][name]["value"] for p in pairs]
        head = [p[2]["metrics"][name]["value"] for p in pairs]
        mb, mh = statistics.median(base), statistics.median(head)
        q1, _, q3 = (statistics.quantiles(base, n=4) if len(base) > 1
                     else (mb, mb, mb))
        lower = [h < b for h, b in zip(head, base)]
        out[name] = {
            "unit": pairs[0][1]["metrics"][name]["unit"],
            "base_median": mb, "head_median": mh, "base_quartiles": [q1, q3],
            "change": mh / mb - 1 if mb else None,
            "lower": sum(lower), "pairs": len(pairs),
            "lower_by_order": {
                side: [sum(lo for lo, p in zip(lower, pairs) if p[0] == o),
                       sum(p[0] == o for p in pairs)]
                for o, side in enumerate(("base_first", "head_first"))},
            "by_control": {
                "two_core": _split(head, base, two_core),
                "one_core": _split(head, base, [not t for t in two_core])}}
    return out


def runs(seeds, pairs):
    """The ``runs`` and ``rusage`` entries of the ``--json`` object, from
    ``pairs`` as `metrics` takes them, run for ``seeds`` in order."""
    out = {"runs": {}, "rusage": {}}
    for i, side in ((1, "base"), (2, "head")):
        out["runs"][side] = got = [
            {"seed": seed, "correct": p[i]["correct"],
             "attempted": p[i]["attempted"], "failed": p[i]["failed"],
             **p[i]["rusage"]} for seed, p in zip(seeds, pairs)]
        out["rusage"][side] = {k: statistics.median(r[k] for r in got)
                               for k in ("minflt", "nvcsw", "sys_s")}
    return out


def _percent(change):
    return "n/a" if change is None else f"{100 * change:+.1f}%"


def summary(pairs, pair_controls):
    """Per-metric lines over ``pairs`` and ``pair_controls``, as `metrics`
    takes them."""
    lines = []
    for name, m in metrics(pairs, pair_controls).items():
        (q1, q3), by = m["base_quartiles"], m["lower_by_order"]
        split = "; ".join(
            f"control {label}: lower in {c['lower']}/{c['pairs']}, median "
            f"paired {_percent(c['median_change'])}"
            for label, c in ((f">={_TWO_CORE}", m["by_control"]["two_core"]),
                             (f"<{_TWO_CORE}", m["by_control"]["one_core"])))
        lines.append(
            f"{name}: base {m['base_median']:.6g} (quartiles {q1:.6g}-"
            f"{q3:.6g}) head {m['head_median']:.6g} {_percent(m['change'])};"
            f" lower in {m['lower']}/{m['pairs']} (base first "
            f"{by['base_first'][0]}/{by['base_first'][1]}, head first "
            f"{by['head_first'][0]}/{by['head_first'][1]}); {split}")
    return lines


def write_json(path, base, head, workload, seeds, pairs, controls,
               pair_controls):
    """Merge this run's workload into the ``--json`` object at ``path``."""
    path = Path(path)
    doc = json.loads(path.read_text()) if path.exists() else {}
    if doc and (doc.get("base"), doc.get("head")) != (base, head):
        raise SystemExit(f"{path} compares {doc.get('base')} with "
                         f"{doc.get('head')}, not {base} with {head}")
    doc.update(base=base, head=head)
    doc.setdefault("control", {})[workload] = controls
    doc.setdefault("workloads", {})[workload] = {
        "seeds": seeds, "pair_controls": pair_controls,
        "environment": pairs[0][1]["environment"],
        "metrics": metrics(pairs, pair_controls), **runs(seeds, pairs)}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    ap.add_argument("--seconds", type=float, default=14)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    work = Path(tempfile.mkdtemp(dir=args.workdir))
    pairs, pair_controls, controls = [], [], {}
    if args.json:
        controls["before"] = control()
    try:
        for n, seed in enumerate(args.seeds):
            order = n % 2
            pair_controls.append(control()["ratio"])
            print(f"seed {seed} control={pair_controls[-1]:.3f}", flush=True)
            sides = [("base", args.base), ("head", args.head)]
            got = {}
            for side, commit in sides[::-1] if order else sides:
                got[side] = res = run_once(commit, args.workload, seed,
                                           args.seconds, work / f"{n}-{side}")
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in
                                  sorted(res["metrics"].items()))
                print(f"seed {seed} {side}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"minflt={res['rusage']['minflt']} "
                      f"nvcsw={res['rusage']['nvcsw']} "
                      f"sys_s={res['rusage']['sys_s']:.3f} {values}",
                      flush=True)
            pairs.append((order, got["base"], got["head"]))
    finally:
        shutil.rmtree(work)
    print("\n".join(summary(pairs, pair_controls)))
    if args.json:
        controls["after"] = control()
        write_json(args.json, args.base, args.head, args.workload,
                   args.seeds, pairs, controls, pair_controls)


if __name__ == "__main__":
    main()
