"""One measured process: set up a workload, run timed ops, report.

Started by ``run.py`` with a JSON spec path as its only argument, in a
fresh interpreter whose CG cache directory is empty. It writes its result
as JSON to the path the spec names and prints nothing to stdout.

Set-up ends when the warm-up op (one training step, or one full
``cli.cmd_eval`` pass) returns. Timed ops follow until the next op would
end past the spec's time window; at least ``min_ops`` run. The reference
kernel is timed after set-up and after every op. An op that raises one of
the package's typed errors is recorded as failed and the run goes on.
"""

import json
import os
import resource
import sys
import threading
import time

from infgcn import cli, dataio, geometry, grad, model
from infgcn.errors import (AccuracyError, DomainError, NonFiniteError,
                           SchemaError)

import probes
import reference
from tracer import Tracer

TYPED_ERRORS = (AccuracyError, DomainError, NonFiniteError, SchemaError)


class TrainWorkload:
    """Sampled-query training on one record: the step ``cmd_train`` takes
    with batch size 1. Trajectories of ``traj_len`` steps restart from the
    initial parameters, so every step index has a fixed reference loss; the
    last step of a trajectory also saves a checkpoint."""

    def __init__(self, spec):
        self.seed = spec["seed"]
        self.queries = spec["queries"]
        self.traj_len = spec["traj_len"]
        self.ckpt = spec["ckpt_out"]
        cfg = model.ModelConfig()
        types, coords, self.grid = dataio.load_record(spec["stem"])
        self.graph = geometry.MolecularGraph.from_coords(types, coords,
                                                         cfg.cutoff)
        self.params = model.init_params(cfg, seed=0)
        self.registry = grad.ParamRegistry(self.params)
        self.initial = self.registry.flatten(self.params)
        self.lr = spec["lr"]
        self.reset()

    def reset(self):
        self.registry.unflatten(self.params, self.initial)
        self.state = grad.init_optimizer(self.registry,
                                         method="adaptive-moments",
                                         lr=self.lr)
        self.step = 1

    def op(self):
        """One training step; returns its record (loss keyed by step)."""
        i = self.step
        qs = geometry.sample_queries(self.grid, self.queries, (self.seed, i))
        loss, grads = grad.loss_and_grad(self.params, self.graph, qs.points,
                                         qs.targets, volume_weight=qs.weight)
        grad.optimize_step(self.state, self.params, grads, self.registry)
        if i == self.traj_len:
            model.save_checkpoint(self.params, self.ckpt)
        return {"step": i, "loss": loss}

    def advance(self, failed):
        if failed or self.step == self.traj_len:
            self.reset()
        else:
            self.step += 1


class EvalWorkload:
    """One full-grid ``cli.cmd_eval`` pass over every record, two threads."""

    def __init__(self, spec):
        self.cfg = cli.RunConfig(dataset=spec["data_dir"],
                                 out_dir=spec["data_dir"],
                                 model=model.ModelConfig(), optimizer={},
                                 inf_sample=spec["inf_sample"],
                                 seed=spec["seed"])
        self.ckpt = spec["checkpoint"]
        self.jobs = spec["jobs"]

    def op(self):
        rep = cli.cmd_eval(self.cfg, self.ckpt, jobs=self.jobs)
        return {"records": rep["records"],
                "aggregate": rep["aggregate_nmae"]}

    def reset(self):
        pass

    def advance(self, failed):
        pass


def run_op(work):
    """Run one op; returns (record, seconds). Typed errors are recorded."""
    t0 = time.perf_counter()
    try:
        rec = work.op()
        rec["error"] = None
    except TYPED_ERRORS as exc:
        rec = {"error": f"{type(exc).__name__}: {exc}"}
    dt = time.perf_counter() - t0
    work.advance(rec["error"] is not None)
    return rec, dt


def _op_summary(tracer, cg, checksum, op, main_thread):
    spans = tracer.spans_of(op)
    out = {"self": tracer.self_time(op),
           "counts": tracer.counts(op),
           "cg_distinct": len(cg.keys.get(op, ())),
           "root_s": tracer.root_time(op, main_thread),
           "busy_s": sum(s[3] - s[2] for s in spans
                         if s[1] == "model.predict_density"),
           "eval_wall_s": sum(s[3] - s[2] for s in spans
                              if s[1] == "cli.cmd_eval")}
    if op in checksum.parts:
        out["checksum"] = checksum.value(op)
    return out


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    main_thread = threading.get_ident()
    tracer = cg = checksum = None
    if spec["trace"]:
        tracer = Tracer(probes.TARGETS)
        cg, checksum = probes.make_hooks(tracer)
        tracer.install()

    workload = (EvalWorkload if spec["workload"] == "eval-grid"
                else TrainWorkload)
    work = workload(spec)
    warmup, _ = run_op(work)
    work.reset()
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "warmup": warmup,
              "threads_after_setup": len(os.listdir("/proc/self/task"))}
    if tracer is not None:
        result["setup"] = _op_summary(tracer, cg, checksum, "setup",
                                      main_thread)
        tracer.uninstall()

    # refs[i] and refs[i + 1] are the host-speed samples around op i
    refs = [reference.sample(spec.get("jobs", 1))]
    ops = []
    window = spec["seconds"]
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 0
        if traced:
            tracer.op = len(ops)
            tracer.install()
        rec, dt = run_op(work)
        if traced:
            tracer.uninstall()
            rec.update(_op_summary(tracer, cg, checksum, len(ops),
                                   main_thread))
        refs.append(reference.sample(spec.get("jobs", 1)))
        rec.update(dt=dt, traced=traced)
        ops.append(rec)
        elapsed = time.perf_counter() - start
        if len(ops) >= spec["min_ops"] and elapsed + dt > window:
            break
    result["ops"] = ops
    result["refs"] = refs
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if spec["count_pass"]:
        counter = Tracer(probes.TARGETS)
        ccg, csum = probes.make_hooks(counter)
        counter.op = "count"
        work.reset()
        counter.install()
        rec, _ = run_op(work)
        counter.uninstall()
        rec["counts"] = counter.counts("count")
        rec["cg_distinct"] = len(ccg.keys.get("count", ()))
        if "count" in csum.parts:
            rec["checksum"] = csum.value("count")
        result["count_pass"] = rec

    if tracer is not None and spec.get("trace_out"):
        with open(spec["trace_out"], "w") as fh:
            json.dump(tracer.span_table(), fh)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
