"""Command-line surface: train, eval, predict, equivariance-check,
gradcheck, graphon-demo.

Every subcommand assembles a JSON report, prints it to stdout with sorted
keys, and returns it from the corresponding `cmd_*` function so tests can
call the pieces directly. With --deterministic, wall-clock fields are
zeroed so reports for a fixed seed are byte-identical.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import dataio, geometry, grad, graphon, model, so3
from .errors import AccuracyError, DomainError, NonFiniteError, SchemaError

_ERRORS = (AccuracyError, DomainError, NonFiniteError, SchemaError)

_OPT_DEFAULTS = {"method": "adaptive-moments", "lr": 1e-3, "patience": 10,
                 "decay_factor": 0.5}
_RUN_KEYS = {"dataset", "out_dir", "model", "optimizer", "train_sample",
             "inf_sample", "batch_size", "n_iter", "val_every", "seed",
             "split"}


@dataclasses.dataclass
class RunConfig:
    dataset: str
    out_dir: str
    model: model.ModelConfig
    optimizer: dict
    train_sample: int = 1024
    inf_sample: int = 4096
    batch_size: int = 64
    n_iter: int = 100
    val_every: int = 25
    seed: int = 0
    split: dict = None


def _model_config(block):
    if not isinstance(block, dict):
        raise SchemaError("config: 'model' must be an object")
    try:
        return model.ModelConfig(**block)
    except TypeError as exc:
        raise SchemaError(f"config: bad model field ({exc})") from None


def load_run_config(path):
    try:
        with open(path) as fh:
            d = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such config") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    unknown = sorted(set(d) - _RUN_KEYS)
    if unknown:
        raise SchemaError(f"{path}: unknown config key {unknown[0]!r}")
    opt = dict(_OPT_DEFAULTS)
    given = d.get("optimizer", {})
    if not isinstance(given, dict):
        raise SchemaError(f"{path}: optimizer must be an object")
    extra = sorted(set(given) - set(_OPT_DEFAULTS))
    if extra:
        raise SchemaError(f"{path}: unknown optimizer key {extra[0]!r}")
    opt.update(given)
    for name in ("lr", "patience", "decay_factor"):
        value = opt[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{path}: optimizer.{name} must be a number")
    if not isinstance(d.get("split") or {}, dict):
        raise SchemaError(f"{path}: split must be an object")
    cfg = RunConfig(dataset=d.get("dataset"),
                    out_dir=d.get("out_dir", "runs"),
                    model=_model_config(d.get("model", {})),
                    optimizer=opt,
                    train_sample=d.get("train_sample", 1024),
                    inf_sample=d.get("inf_sample", 4096),
                    batch_size=d.get("batch_size", 64),
                    n_iter=d.get("n_iter", 100),
                    val_every=d.get("val_every", 25),
                    seed=d.get("seed", 0),
                    split=d.get("split"))
    for name in ("train_sample", "inf_sample", "batch_size", "val_every"):
        if not isinstance(getattr(cfg, name), int) or getattr(cfg, name) < 1:
            raise SchemaError(f"{path}: {name} must be a positive integer")
    if not isinstance(cfg.n_iter, int) or cfg.n_iter < 0:
        raise SchemaError(f"{path}: n_iter must be a non-negative integer")
    return cfg


def _load_dataset(cfg):
    if not cfg.dataset:
        raise SchemaError("config: 'dataset' is required for this command")
    stems = dataio.list_records(cfg.dataset)
    if not stems:
        raise SchemaError(f"{cfg.dataset}: no records found")
    records = {}
    for stem in stems:
        name = os.path.basename(stem)
        types, coords, grid = dataio.load_record(stem)
        graph = geometry.MolecularGraph.from_coords(types, coords,
                                                    cfg.model.cutoff)
        records[name] = {"name": name, "types": types, "coords": coords,
                         "grid": grid, "graph": graph}

    def pick(key):
        names = (cfg.split or {}).get(key)
        if names is None:
            return list(records.values())
        missing = [n for n in names if n not in records]
        if missing:
            raise SchemaError(f"split[{key!r}]: unknown record "
                              f"{missing[0]!r}")
        return [records[n] for n in names]

    return pick("train"), pick("val")


def _sample_nmae(params, recs, cfg, step):
    acc = model.NMAEAccumulator()
    for ridx, rec in enumerate(recs):
        k = min(cfg.inf_sample, rec["grid"].n_voxels)
        qs = geometry.sample_queries(rec["grid"], k,
                                     (cfg.seed, 7919, step, ridx))
        pred = model.predict_density(params, rec["graph"], qs.points,
                                     coeffs=model.encode(params, rec["graph"]))
        acc.add(pred, qs.targets)
    return acc.value()


def cmd_train(cfg, deterministic=False):
    """Sampled-query training loop with plateau decay and best checkpoint."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    train, val = _load_dataset(cfg)
    params = model.init_params(cfg.model, seed=cfg.seed)
    registry = grad.ParamRegistry(params)
    state = grad.init_optimizer(registry, **cfg.optimizer)
    ckpt_path = os.path.join(cfg.out_dir, "model.ckpt")
    log_path = os.path.join(cfg.out_dir, "train_log.jsonl")
    model.save_checkpoint(params, ckpt_path)
    best = math.inf
    nb = min(cfg.batch_size, len(train))
    with open(log_path, "w") as log:
        for step in range(1, cfg.n_iter + 1):
            t0 = time.perf_counter()
            start = ((step - 1) * nb) % len(train)
            mean_loss = 0.0
            summed = np.zeros(registry.n_params)
            try:
                for t in range(nb):
                    rec = train[(start + t) % len(train)]
                    k = min(cfg.train_sample, rec["grid"].n_voxels)
                    qs = geometry.sample_queries(rec["grid"], k,
                                                 (cfg.seed, step, t))
                    loss, g = grad.loss_and_grad(
                        params, rec["graph"], qs.points, qs.targets,
                        volume_weight=qs.weight)
                    mean_loss += loss / nb
                    summed += g
                summed /= nb
                grad.optimize_step(state, params, summed, registry)
            except NonFiniteError:
                # neither call writes params before it raises, so they
                # still hold the last good step
                model.save_checkpoint(
                    params, os.path.join(cfg.out_dir, "last_good.ckpt"))
                raise
            nmae_val = None
            if step % cfg.val_every == 0 or step == cfg.n_iter:
                nmae_val = _sample_nmae(params, val, cfg, step)
                grad.plateau_update(state, nmae_val)
                if nmae_val < best:
                    best = nmae_val
                    model.save_checkpoint(params, ckpt_path)
            wall = 0 if deterministic else int(
                (time.perf_counter() - t0) * 1000)
            log.write(json.dumps(
                {"step": step, "loss": mean_loss, "nmae_val": nmae_val,
                 "lr": state.lr, "wall_ms": wall}, sort_keys=True) + "\n")
    return {"steps": cfg.n_iter,
            "best_nmae_val": None if math.isinf(best) else best,
            "checkpoint": ckpt_path, "log": log_path}


def _eval_record(params, rec, cfg, rotated, resample, seed, ridx):
    graph, coords, grid = rec["graph"], rec["coords"], rec["grid"]
    transform = None
    if rotated:
        R = so3.random_rotation(np.random.default_rng((seed, 4242, ridx)))
        c = geometry.cell_center(grid)
        if resample:
            coords, grid = geometry.rotate_instance(coords, grid, R)
        else:
            # analytic variant: rotate atoms and query points, keep targets
            coords = c + (coords - c) @ R.T
            transform = lambda pts: c + (pts - c) @ R.T
        graph = geometry.MolecularGraph.from_coords(rec["types"], coords,
                                                    params.config.cutoff)
    coeffs = model.encode(params, graph)
    acc = model.NMAEAccumulator()
    for batch in geometry.partition_grid(grid, cfg.inf_sample):
        pts = batch.points if transform is None else transform(batch.points)
        acc.add(model.predict_density(params, graph, pts, coeffs=coeffs),
                batch.targets)
    return acc


def cmd_eval(cfg, checkpoint, rotated=False, resample=True, seed=None,
             jobs=1, deterministic=False):
    """Full-grid partitioned NMAE per record plus the pooled aggregate."""
    params = model.load_checkpoint(checkpoint)
    if params.config != cfg.model:
        raise DomainError("checkpoint model config does not match the run "
                          "config")
    seed = cfg.seed if seed is None else seed
    _, recs = _load_dataset(cfg)
    t0 = time.perf_counter()
    work = [(params, rec, cfg, rotated, resample, seed, i)
            for i, rec in enumerate(recs)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            accs = list(pool.map(lambda a: _eval_record(*a), work))
    else:
        accs = [_eval_record(*a) for a in work]
    pooled = model.NMAEAccumulator()
    per_record = {}
    for rec, acc in zip(recs, accs):
        per_record[rec["name"]] = acc.value()
        pooled.abs_err += acc.abs_err
        pooled.abs_target += acc.abs_target
    report = {"checkpoint": os.fspath(checkpoint), "rotated": bool(rotated),
              "resampled": bool(resample and rotated),
              "records": per_record, "aggregate_nmae": pooled.value(),
              "n_records": len(recs)}
    if not deterministic:
        wall = time.perf_counter() - t0
        report["wall_ms"] = int(wall * 1000)
        report["voxels_per_s"] = round(
            sum(rec["grid"].n_voxels for rec in recs) / wall, 1)
    return report


def cmd_predict(cfg, checkpoint, out_dir=None, jobs=1):
    """Full-grid prediction and error CUBE files for every record."""
    params = model.load_checkpoint(checkpoint)
    if params.config != cfg.model:
        raise DomainError("checkpoint model config does not match the run "
                          "config")
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    _, recs = _load_dataset(cfg)

    def run(rec):
        grid, graph = rec["grid"], rec["graph"]
        coeffs = model.encode(params, graph)
        parts = [model.predict_density(params, graph, b.points, coeffs=coeffs)
                 for b in geometry.partition_grid(grid, cfg.inf_sample)]
        pred = np.concatenate(parts)
        numbers = rec["types"] + 1  # vocab indices to nuclear charges
        pred_grid = geometry.VoxelGrid(grid.shape, grid.cell, grid.origin,
                                       pred, grid.pbc)
        err_grid = geometry.VoxelGrid(grid.shape, grid.cell, grid.origin,
                                      pred - grid.values, grid.pbc)
        paths = {}
        for tag, g in (("pred", pred_grid), ("err", err_grid)):
            path = os.path.join(out, f"{rec['name']}.{tag}.cube")
            dataio.export_cube(path, g, numbers, rec["coords"],
                               comment=f"{tag} for {rec['name']}")
            paths[tag] = path
        return rec["name"], paths, model.nmae(pred, grid.values)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run, recs))
    else:
        rows = [run(rec) for rec in recs]
    return {"out_dir": out,
            "records": {name: {**paths, "nmae": err}
                        for name, paths, err in rows}}


def _random_instance(mcfg, seed, n_atoms=5, n_queries=64):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-1.5, 1.5, size=(n_atoms, 3))
    types = rng.integers(0, mcfg.vocab, size=n_atoms)
    graph = geometry.MolecularGraph.from_coords(types, coords, mcfg.cutoff)
    queries = rng.uniform(-2.0, 2.0, size=(n_queries, 3))
    return graph, queries


def cmd_equivariance_check(mcfg, seed=0):
    graph, queries = _random_instance(mcfg, seed)
    params = model.init_params(mcfg, seed=seed, zero_heads=False)
    rep = model.equivariance_report(params, graph, queries, seed=seed + 1)
    rep["l_max"] = mcfg.l_max
    rep["pass"] = bool(rep["max_rel_deviation"] < 1e-7)
    return rep


def cmd_gradcheck(mcfg, seed=0, n_sampled=200):
    graph, queries = _random_instance(mcfg, seed, n_atoms=4, n_queries=24)
    rng = np.random.default_rng(seed + 1)
    target = rng.standard_normal(queries.shape[0])
    report = grad.check_gradient(
        model.init_params(mcfg, seed=seed, zero_heads=False), graph,
        queries, target, n_sampled=n_sampled, seed=seed + 2)
    report["l_max"] = mcfg.l_max
    return report


def cmd_graphon_demo(out_dir, seed=0, n_nodes=256):
    os.makedirs(out_dir, exist_ok=True)
    return graphon.graphon_demo_report(
        n_nodes=n_nodes, seed=seed,
        json_path=os.path.join(out_dir, "report.json"),
        csv_path=os.path.join(out_dir, "eigenvalue_decay.csv"))


def _jobs(text):
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="infgcn",
        description="equivariant density model and graphon laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, config="required", seed=True, jobs=False,
                deterministic=False):
        """A subcommand with only the shared flags its cmd_* function
        reads; ``config`` is "required", "optional" or None."""
        p = sub.add_parser(name, help=summary)
        if config is not None:
            p.add_argument("--config", required=config == "required",
                           help="path to a run-config JSON file")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if jobs:
            p.add_argument("--jobs", type=_jobs, default=1,
                           help="records evaluated at once (at least 1)")
        if deterministic:
            p.add_argument("--deterministic", action="store_true",
                           help="zero wall-clock fields in the report")
        return p

    command("train", "train on a dataset directory", deterministic=True)
    pe = command("eval", "full-grid partitioned NMAE", jobs=True,
                 deterministic=True)
    pe.add_argument("--checkpoint", required=True)
    pe.add_argument("--rotated", action="store_true",
                    help="rotate atoms and resample the target grid")
    pp = command("predict", "write prediction and error CUBEs", seed=False,
                 jobs=True)
    pp.add_argument("--checkpoint", required=True)
    pp.add_argument("--out", default=None)
    command("equivariance-check", "two-branch rotation test",
            config="optional")
    pg = command("gradcheck", "finite-difference gradient check",
                 config="optional")
    pg.add_argument("--n-params", type=int, default=200)
    pd = command("graphon-demo", "graphon equivalence report",
                 config=None)
    pd.add_argument("--out", default="graphon_demo")
    pd.add_argument("--nodes", type=int, default=256)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "train":
            cfg = load_run_config(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            report = cmd_train(cfg, deterministic=args.deterministic)
        elif args.command == "eval":
            cfg = load_run_config(args.config)
            report = cmd_eval(cfg, args.checkpoint, rotated=args.rotated,
                              seed=args.seed, jobs=args.jobs,
                              deterministic=args.deterministic)
        elif args.command == "predict":
            cfg = load_run_config(args.config)
            report = cmd_predict(cfg, args.checkpoint, out_dir=args.out,
                                 jobs=args.jobs)
        elif args.command == "equivariance-check":
            mcfg = (load_run_config(args.config).model if args.config
                    else model.ModelConfig())
            report = cmd_equivariance_check(mcfg, seed=args.seed or 0)
        elif args.command == "gradcheck":
            mcfg = (load_run_config(args.config).model if args.config
                    else model.ModelConfig())
            report = cmd_gradcheck(mcfg, seed=args.seed or 0,
                                   n_sampled=args.n_params)
        else:
            report = cmd_graphon_demo(args.out, seed=args.seed or 0,
                                      n_nodes=args.nodes)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
