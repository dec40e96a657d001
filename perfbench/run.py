"""Benchmark entry point for the infgcn package.

    python3 perfbench/run.py --workload train-a1 --seed 0 --seconds 8 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are generated here from ``--seed``, outside any timed
region. Each measured process is a fresh interpreter with BLAS pinned to
one thread and its own empty CG cache directory under ``.perfbench/``,
which is removed afterwards; ``HOME`` points there too, so the user's
``~/.cache/infgcn`` is never read or written.

``--trace 0`` starts ``plan.json``'s ``children`` processes one after
another and reports the end-to-end metrics; the timed window is split
evenly between them. Op times are reported at nominal host speed, scaled
by a reference kernel timed around each op (``reference.py``); set-up time
is as measured. ``--trace 1`` starts one process that wraps the package's
public functions and reports per-layer metrics; its spans are written to
``.perfbench/traces/``.

The last line of stdout is the result object; the line before it holds
the details (sample counts, exact counts, checks, environment).
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
PLAN = json.loads((BENCH_DIR / "plan.json").read_text())
WORKLOADS = tuple(PLAN["workloads"])
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def import_package():
    """Import infgcn from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "infgcn" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}/infgcn")
    os.environ.update(PIN)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import infgcn
    if Path(infgcn.__file__).resolve().parent != SRC / "infgcn":
        raise BenchError(f"imported infgcn from {infgcn.__file__}")


# ---------------------------------------------------------------------------
# inputs


def _edges(coords, cutoff):
    from infgcn import geometry
    return len(geometry.build_radius_graph(coords, cutoff)[0])


def _synthetic_record(dest, name, seed_words, want_edges, cutoff):
    """A record from ``dataio.make_synthetic_dataset`` whose radius graph
    has exactly ``want_edges`` directed edges, so that every seed asks for
    the same conv work; the first sub-seed that gives it is kept."""
    from infgcn import dataio
    for sub in range(1000):
        tmp = dest / f".try-{name}"
        stem, = dataio.make_synthetic_dataset(tmp, n_records=1,
                                              seed=[*seed_words, sub])
        _, coords, _ = dataio.load_record(stem)
        if _edges(coords, cutoff) == want_edges:
            for suffix in (".json", ".bin", ".truth.json"):
                os.replace(stem + suffix, dest / (name + suffix))
            shutil.rmtree(tmp)
            return str(dest / name)
        shutil.rmtree(tmp)
    raise BenchError(f"no {want_edges}-edge record for seed {seed_words}")


def _molecule_record(dest, name, seed, spec):
    """A QM9-sized record: atoms placed one by one in a cube, at least
    ``min_sep`` bohr apart, redrawn until the radius graph has exactly
    ``edges`` directed edges. The density is a Gaussian-type-orbital
    mixture on the same radial ladder ``make_synthetic_dataset`` uses."""
    import numpy as np
    from infgcn import basis, dataio, geometry, so3
    rng = np.random.default_rng([seed, 18])
    n, half = spec["atoms"], spec["half_width"]
    for _ in range(10000):
        coords = []
        while len(coords) < n:
            p = rng.uniform(-half, half, 3)
            if all(np.linalg.norm(p - q) >= spec["min_sep"] for q in coords):
                coords.append(p)
        coords = np.array(coords)
        if _edges(coords, spec["cutoff"]) == spec["edges"]:
            break
    else:
        raise BenchError(f"no {spec['edges']}-edge molecule for seed {seed}")
    types = rng.integers(0, 5, size=n)
    ladder = basis.make_exponents()
    gto = basis.RadialBasisSpec(ladder[[2, 5, 8, 11]], 2)
    coeffs = rng.standard_normal((n, gto.n_radial, gto.n_sh))
    for l in range(gto.l_max + 1):
        coeffs[:, :, so3.block_slice(l)] /= (1.0 + l) ** 2
    ext = spec["extent"]
    shape = tuple(spec["shape"])
    empty = geometry.VoxelGrid(shape, np.diag([ext] * 3),
                               np.full(3, -ext / 2), np.zeros(np.prod(shape)))
    values = basis.expand_density(gto, coeffs, coords,
                                  geometry.grid_coordinates(empty))
    grid = geometry.VoxelGrid(shape, empty.cell, empty.origin, values)
    stem = dest / name
    dataio.save_record(stem, types, coords, grid)
    return str(stem)


def make_inputs(workload, seed, data_dir):
    """Generate a workload's inputs; returns the child spec fields."""
    from infgcn import dataio, model
    wl = PLAN["workloads"][workload]
    data_dir.mkdir(parents=True)
    if workload == "train-a1":
        stem = _synthetic_record(data_dir, "rec000", (seed,), wl["edges"],
                                 wl["cutoff"])
    elif workload == "train-qm9":
        stem = _molecule_record(data_dir, "rec000", seed, wl)
    else:
        stems = [_synthetic_record(data_dir, f"rec{r:03d}", (seed, 1000 + r),
                                   wl["edges"], wl["cutoff"])
                 for r in range(wl["records"])]
        ckpt = data_dir / "eval.ckpt"
        model.save_checkpoint(
            model.init_params(model.ModelConfig(), seed=wl["params_seed"],
                              zero_heads=False), ckpt)
        return {"data_dir": str(data_dir), "checkpoint": str(ckpt),
                "inf_sample": wl["inf_sample"], "jobs": wl["jobs"],
                "voxels": sum(dataio.load_record(s)[2].n_voxels
                              for s in stems)}
    return {"stem": stem, "queries": wl["queries"], "lr": wl["lr"],
            "traj_len": wl["traj_len"], "ckpt_out": str(data_dir / "ckpt"),
            "voxels": wl["queries"]}


# ---------------------------------------------------------------------------
# processes


def _nominal(seconds, ref_before, ref_after):
    """``seconds`` rescaled to the reference kernel's nominal speed, using
    the reference times measured in the same process just before and just
    after."""
    from reference import NOMINAL_S
    return seconds * NOMINAL_S / (0.5 * (ref_before + ref_after))


def run_child(spec, work, index, deadline):
    """Start one measured process and wait for it; returns its result."""
    cache = work / f"cache-{index}"
    home = work / f"home-{index}"
    cache.mkdir()
    home.mkdir()
    spec = dict(spec, out=str(work / f"child-{index}.json"))
    spec_path = work / f"spec-{index}.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, **PIN)
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               INFGCN_CACHE_DIR=str(cache), HOME=str(home),
               XDG_CACHE_HOME=str(home / ".cache"))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-B", str(BENCH_DIR / "child.py"), str(spec_path)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"child {index} passed the time limit") from None
    if code != 0:
        raise BenchError(f"child {index} exited with code {code}")
    result = json.loads(Path(spec["out"]).read_text())
    result["setup_s"] = result["t_ready"] - t_spawn
    for i, op in enumerate(result["ops"]):
        op["norm_dt"] = _nominal(op["dt"], *result["refs"][i:i + 2])
    shutil.rmtree(cache)
    shutil.rmtree(home)
    return result


def run_children(workload, seed, seconds, trace, count_pass=False,
                 min_ops=1, children=None):
    """Generate inputs and run the measured processes of one run. With
    ``count_pass`` the last untraced process also runs one op with
    counting wrappers after its timed window, for comparing exact counts."""
    deadline = time.monotonic() + PLAN["time_limit_s"]
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir()
    try:
        spec = make_inputs(workload, seed, work / "data")
        spec.update(workload=workload, seed=seed, trace=bool(trace),
                    min_ops=min_ops, count_pass=False, trace_out=None)
        if trace:
            traces = WORK_ROOT / "traces"
            traces.mkdir(exist_ok=True)
            spec.update(seconds=seconds, min_ops=2,
                        trace_out=str(traces / f"{workload}-seed{seed}.json"))
            return spec, [run_child(spec, work, 0, deadline)]
        n = children or PLAN["children"]
        results = []
        for i in range(n):
            last = i == n - 1
            results.append(run_child(
                dict(spec, seconds=seconds / n,
                     count_pass=count_pass and last),
                work, i, deadline))
        return spec, results
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# checks


def load_golden(workload, seed):
    path = BENCH_DIR / "golden" / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def _close(a, b, rtol):
    return (isinstance(a, (int, float)) and math.isfinite(a)
            and abs(a - b) <= rtol * abs(b))


class Checker:
    """Counts attempted and failed ops. An op fails when it raised a typed
    error, when its output differs from the recorded reference for this
    seed, or when it differs from the first op of the run with the same
    input (step index); the last catches non-determinism on seeds that have
    no reference."""

    def __init__(self, golden):
        self.golden = golden
        self.tol = PLAN["tolerance"]
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def _fail(self, why):
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(why)

    def _same(self, key, value, rtol):
        if key not in self.first:
            self.first[key] = value
            return math.isfinite(value)
        return _close(value, self.first[key], rtol)

    def op(self, rec):
        self.attempted += 1
        if rec.get("error"):
            return self._fail(rec["error"])
        counts = rec.get("counts", {})
        if counts.get("layers.conv_forward.law_failures", 0):
            return self._fail("conv_forward broke matvec == E*C*(L+1)^4")
        if "loss" in rec:
            i, loss = rec["step"], rec["loss"]
            rtol = self.tol["loss_rtol"]
            if self.golden is not None and not _close(
                    loss, self.golden["loss"][i - 1], rtol):
                return self._fail(f"step {i} loss {loss!r} != reference")
            if not self._same(("loss", i), loss, rtol):
                return self._fail(f"step {i} loss {loss!r} not repeatable")
            return
        rtol = self.tol["nmae_rtol"]
        for name, value in sorted(rec["records"].items()):
            if self.golden is not None and not _close(
                    value, self.golden["records"][name], rtol):
                return self._fail(f"{name} NMAE {value!r} != reference")
            if not self._same(("nmae", name), value, rtol):
                return self._fail(f"{name} NMAE {value!r} not repeatable")
        if "checksum" in rec:
            rtol = self.tol["checksum_rtol"]
            for j, value in enumerate(rec["checksum"]):
                if self.golden is not None and not _close(
                        value, self.golden["checksum"][j], rtol):
                    return self._fail(f"checksum[{j}] {value!r} != reference")
                if not self._same(("checksum", j), value, rtol):
                    return self._fail(f"checksum[{j}] not repeatable")


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    return {"percentile": p, "value": _quantile(values, p / 100.0), "n": n}


def _quantile(values, q):
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(spec, results):
    """Op times are rescaled to nominal host speed (see reference.py);
    set-up time is as measured. The detail line has the op times as
    measured too, the 90th-percentile tail and voxels per second."""
    ops = [op for r in results for op in r["ops"] if not op.get("error")]
    if not ops:
        raise BenchError("no op completed")

    def timing(dts):
        return {"p50": statistics.median(dts),
                "tail": _quantile(dts, PLAN["tail_quantile"]),
                "voxels_per_s": statistics.median(spec["voxels"] / d
                                                  for d in dts)}

    nominal = timing([op["norm_dt"] for op in ops])
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "step_nominal_s.p50": (nominal["p50"], "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results),
                        "MiB"),
    }
    detail = {"timed_ops": len(ops),
              "ops_per_process": [len(r["ops"]) for r in results],
              "step_nominal_s": nominal,
              "step_s_as_measured": timing([op["dt"] for op in ops]),
              "reference_s": statistics.median(
                  x for r in results for x in r["refs"]),
              "setup_s_per_process": [r["setup_s"] for r in results],
              "rss_mb_per_process": [r["rss_mb"] for r in results],
              "tail_quantile": PLAN["tail_quantile"],
              "highest_percentile_10_beyond": tail_percentile(
                  [op["norm_dt"] for op in ops])}
    return metrics, detail


def per_layer(spec, result):
    """Per-op means over the traced ops of one traced process."""
    traced = [op for op in result["ops"] if op["traced"] and not op["error"]]
    plain = [op["norm_dt"] for op in result["ops"]
             if not op["traced"] and not op["error"]]
    if not traced or not plain:
        raise BenchError("the traced run needs a traced and an untraced op")
    n = len(traced)

    def mean(f):
        return sum(f(op) for op in traced) / n

    def self_s(*labels):
        return mean(lambda op: sum(op["self"].get(x, 0.0) for x in labels))

    def count(key):
        return mean(lambda op: op["counts"].get(key, 0))

    from probes import CONV_STAGES, LABELS, MULT_STAGES
    m = {}
    for label in LABELS:
        m[label + ".calls"] = (count(label + ".calls"), "count")
    for label in PLAN["self_s_reported"]:
        m[label + ".self_s"] = (self_s(label), "s")
    for name, labels in PLAN["self_s_merged"].items():
        m[name + ".self_s"] = (self_s(*labels), "s")
    for stage in MULT_STAGES:
        m["layers.mults." + stage] = (count("layers.mults." + stage), "count")
    for key in ("basis.expand_density.evals",
                "basis.expand_density_backward.evals"):
        m[key] = (count(key), "count")
    calls = sum(r["counts"].get("geometry.build_radius_graph.calls", 0)
                for r in [result["setup"]] + traced)
    edges = sum(r["counts"].get("geometry.build_radius_graph.edges", 0)
                for r in [result["setup"]] + traced)
    m["geometry.build_radius_graph.edges"] = (edges / max(calls, 1), "count")
    cg_calls = count("so3.cg_table.calls")
    distinct = mean(lambda op: op["cg_distinct"])
    m["so3.cg_table.distinct_keys"] = (distinct, "count")
    m["so3.cg_table.hit_ratio"] = (1.0 - distinct / cg_calls if cg_calls
                                   else 0.0, "fraction")
    m["so3.cg_table.cold_s"] = (
        result["setup"]["self"].get("so3.cg_table", 0.0), "s")
    conv_mults = sum(count("layers.mults." + s) for s in CONV_STAGES)
    m["layers.conv_forward.mults_per_s"] = (
        conv_mults / self_s("layers.conv_forward"), "mults/s")
    m["layers.radial_forward.mults_per_s"] = (
        count("layers.mults.radial") / self_s("layers.radial_forward"),
        "mults/s")
    jobs = spec.get("jobs", 1)
    wall = mean(lambda op: op["eval_wall_s"])
    busy = mean(lambda op: op["busy_s"])
    m["cli.cmd_eval.busy_frac"] = (busy / (jobs * wall) if wall else 0.0,
                                   "fraction")
    m["cli.cmd_eval.wait_s"] = (jobs * wall - busy, "s")
    m["trace.coverage"] = (min(op["root_s"] / op["dt"] for op in traced),
                           "fraction")
    m["trace.overhead_frac"] = (statistics.median(op["norm_dt"]
                                                  for op in traced)
                                / statistics.median(plain) - 1.0, "fraction")
    detail = {
        "traced_ops": n, "untraced_ops": len(plain),
        "self_s": {label: self_s(label) for label in LABELS},
        "op0_counts": dict(traced[0]["counts"],
                           cg_distinct=traced[0]["cg_distinct"]),
    }
    return m, detail


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_pin": PIN}


def measure(workload, seed, seconds, trace, count_pass=False):
    """One run; returns (detail, result) as printed by the command line."""
    spec, results = run_children(workload, seed, seconds, trace, count_pass)
    checker = Checker(load_golden(workload, seed))
    for r in results:
        for rec in [r["warmup"]] + r["ops"] + (
                [r["count_pass"]] if "count_pass" in r else []):
            checker.op(rec)
    if trace:
        metrics, detail = per_layer(spec, results[0])
    else:
        metrics, detail = end_to_end(spec, results)
    detail.update(
        workload=workload, seed=seed, trace=bool(trace),
        golden=checker.golden is not None, failures=checker.reasons,
        error_rate=checker.failed / checker.attempted,
        threads_after_setup=[r["threads_after_setup"] for r in results],
        environment=environment())
    if count_pass:
        detail["count_pass"] = next(
            dict(r["count_pass"]["counts"],
                 cg_distinct=r["count_pass"]["cg_distinct"])
            for r in results if "count_pass" in r)
    result = {"correct": checker.failed == 0,
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return detail, result


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative")
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_package()
        detail, result = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
