"""Record the reference outputs the benchmark checks ops against.

    python3 perfbench/golden.py --workload train-a1 --seeds 0-23

For each seed, one process runs a whole training trajectory (or one
``cli.cmd_eval`` pass) plus a counted op, and the per-step losses (or the
per-record NMAE, aggregate and prediction checksum) are stored under
``perfbench/golden/<workload>.json``. Existing seeds are replaced; others
are kept. Record only from a commit whose outputs are known to be right.
"""

import argparse
import json
import sys

import run


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(workload, seed):
    wl = run.PLAN["workloads"][workload]
    spec, (result,) = run.run_children(
        workload, seed, seconds=0.0, trace=False, count_pass=True,
        min_ops=wl.get("traj_len", 1), children=1)
    ops = [result["warmup"]] + result["ops"] + [result["count_pass"]]
    errors = [op["error"] for op in ops if op.get("error")]
    if errors:
        raise run.BenchError(f"seed {seed}: {errors[0]}")
    if "loss" in result["warmup"]:
        losses = [op["loss"] for op in result["ops"]]
        for op in ops:
            if op["loss"] != losses[op["step"] - 1]:
                raise run.BenchError(f"seed {seed}: loss not repeatable")
        return {"loss": losses}
    first = result["ops"][0]
    for op in ops:
        if op["records"] != first["records"]:
            raise run.BenchError(f"seed {seed}: NMAE not repeatable")
    return {"records": first["records"], "aggregate": first["aggregate"],
            "checksum": result["count_pass"]["checksum"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="a seed or an inclusive range such as 0-23")
    args = ap.parse_args(argv)
    path = run.BENCH_DIR / "golden" / f"{args.workload}.json"
    golden = (json.loads(path.read_text()) if path.is_file()
              else {"workload": args.workload, "seeds": {}})
    try:
        run.import_package()
        for seed in args.seeds:
            golden["seeds"][str(seed)] = record(args.workload, seed)
            print(f"{args.workload} seed {seed}: recorded", file=sys.stderr)
    except run.BenchError as exc:
        print(f"golden: {exc}", file=sys.stderr)
        return 2
    finally:
        path.parent.mkdir(exist_ok=True)
        golden["seeds"] = dict(sorted(golden["seeds"].items(),
                                      key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
