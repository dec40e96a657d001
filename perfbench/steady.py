"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py --seeds 0-9 [--workloads train-a1 ...]

Each set runs every seed once untraced, with one counted op added after
the timed window, and traces the first seed once. Per workload and
end-to-end metric it reports each set's median and quartile spread
(``statistics.quantiles(n=4)``, (q3 - q1) / median) and whether

* the spread is within the metric's bound from BENCHMARK.json and within a
  third of it, the margin the benchmark aims for;
* the two sets' medians differ, in either direction, by no more than the
  bound.

The spread of ``setup_s`` is reported but does not fail the check: each
run has only two cold set-ups of about 10 s, timed as measured, so its
seed-to-seed spread follows the host's load; the benchmark bounds only its
median.

Exact counts (calls, multiplies, basis evaluations, edges, distinct CG
keys) must be identical between the sets for every seed, and between the
counted op of an untraced run and the first traced op of a traced run.
Every op must also pass its output check. Prints one JSON report; exits 1
when anything disagrees.
"""

import argparse
import json
import statistics
import sys

import run
from golden import seed_range


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(workload, seeds, seconds):
    runs, counts, failures = [], {}, []
    for seed in seeds:
        detail, result = run.measure(workload, seed, seconds, trace=False,
                                     count_pass=True)
        runs.append(result["metrics"])
        counts[seed] = detail["count_pass"]
        if not result["correct"]:
            failures.append({"seed": seed, "failures": detail["failures"]})
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(
                result["metrics"].items())), file=sys.stderr)
    detail, result = run.measure(workload, seeds[0], seconds, trace=True)
    if not result["correct"]:
        failures.append({"seed": seeds[0], "trace": True,
                         "failures": detail["failures"]})
    return runs, counts, detail["op0_counts"], failures


def check_workload(workload, seeds, seconds, bench):
    sets = [run_set(workload, seeds, seconds) for _ in range(2)]
    report = {"workload": workload, "seeds": list(seeds), "metrics": {},
              "failures": sets[0][3] + sets[1][3]}
    ok = not report["failures"]
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r[name]["value"] for r in s[0]] for s in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [_spread(v) for v in values]
        change = (medians[1] - medians[0]) / medians[0]
        row = {"unit": metric["unit"], "bound": bound, "medians": medians,
               "spreads": spreads, "median_change": change,
               "medians_agree": abs(change) <= bound,
               "spread_within_bound": max(spreads) <= bound,
               "spread_within_third": max(spreads) <= bound / 3}
        if name != "setup_s":
            ok &= row["spread_within_bound"]
        ok &= row["medians_agree"]
        report["metrics"][name] = row
    same_sets = sets[0][1] == sets[1][1]
    first = seeds[0]
    traced_same = all(s[2] == s[1][first] for s in sets)
    report["counts_identical_between_sets"] = same_sets
    report["counts_identical_traced_vs_untraced"] = traced_same
    report["counts"] = sets[0][1][first]
    report["ok"] = bool(ok and same_sets and traced_same)
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=range(10))
    ap.add_argument("--workloads", nargs="+", choices=run.WORKLOADS,
                    default=run.WORKLOADS)
    args = ap.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    try:
        run.import_package()
        reports = [check_workload(w, list(args.seeds), bench["run_seconds"],
                                  bench)
                   for w in args.workloads]
    except run.BenchError as exc:
        print(f"steady: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(reports, indent=1, sort_keys=True))
    return 0 if all(r["ok"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
