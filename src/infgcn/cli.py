"""Command-line surface: train, eval, predict, equivariance-check,
gradcheck, graphon-demo.

Every subcommand assembles a JSON report, prints it to stdout with sorted
keys, and returns it from the corresponding `cmd_*` function so tests can
call the pieces directly. With --deterministic, wall-clock fields are
zeroed so reports for a fixed seed are byte-identical.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import dataio, geometry, grad, graphon, model, schema, so3
from .errors import AccuracyError, DomainError, NonFiniteError, SchemaError
from .model import ModelConfig

_ERRORS = (AccuracyError, DomainError, NonFiniteError, SchemaError)


@dataclasses.dataclass
class RunConfig:
    """A run's dataset, outputs, model and optimizer blocks and sizes."""
    dataset: str = schema.spec(None)
    out_dir: str = schema.spec("runs")
    model: ModelConfig = schema.spec(ModelConfig())
    optimizer: dict = schema.spec({}, of=grad.OptimizerConfig)
    train_sample: int = schema.spec(1024, low=1)
    inf_sample: int = schema.spec(4096, low=1)
    batch_size: int = schema.spec(64, low=1)
    n_iter: int = schema.spec(100, low=0)
    val_every: int = schema.spec(25, low=1)
    seed: int = schema.spec(0, low=0)
    split: dict = schema.spec(None, keys=("train", "val"))


def load_run_config(path):
    return schema.from_dict(RunConfig, dataio.read_json(path, "config"),
                            lambda msg: SchemaError(f"{path}: {msg}"))


def _load_dataset(cfg):
    if not cfg.dataset:
        raise SchemaError("config: 'dataset' is required for this command")
    if not os.path.isdir(cfg.dataset):
        raise SchemaError(f"{cfg.dataset}: dataset is not a directory")
    stems = dataio.list_records(cfg.dataset)
    if not stems:
        raise SchemaError(f"{cfg.dataset}: no records found")
    records = {}
    for stem in stems:
        name = os.path.basename(stem)
        types, coords, grid = dataio.load_record(stem)
        if grid.pbc:
            raise SchemaError(
                f"{stem}.json: field 'pbc' is true, but periodic cells are "
                "not modelled yet: graphs, the residual layer and the basis "
                "expansion ignore lattice images")
        graph = geometry.MolecularGraph.from_coords(types, coords,
                                                    cfg.model.cutoff)
        records[name] = {"name": name, "types": types, "coords": coords,
                         "grid": grid, "graph": graph}

    def pick(key):
        names = (cfg.split or {}).get(key)
        if names is None:
            return list(records.values())
        if not names:
            raise SchemaError(f"split[{key!r}]: the list is empty")
        missing = [n for n in names if n not in records]
        if missing:
            raise SchemaError(f"split[{key!r}]: unknown record "
                              f"{missing[0]!r}")
        return [records[n] for n in names]

    return pick("train"), pick("val")


def _make_out_dir(path, name):
    """Create the output directory ``path``; SchemaError naming the setting
    ``name`` when it cannot be, as when a file has that path."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"{name}: cannot create directory {path!r} "
                          f"({exc.strerror or exc})") from None
    return path


def _decode(params, graph, batches):
    """Encode ``graph`` once and concatenate `model.predict_density` over the
    points of each query sample in ``batches``."""
    coeffs = model.encode(params, graph)
    return np.concatenate([
        model.predict_density(params, graph, b.points, coeffs=coeffs)
        for b in batches])


def _sample_nmae(params, recs, cfg, step):
    preds, targets = [], []
    for ridx, rec in enumerate(recs):
        k = min(cfg.inf_sample, rec["grid"].n_voxels)
        qs = geometry.sample_queries(rec["grid"], k,
                                     (cfg.seed, 7919, step, ridx))
        preds.append(_decode(params, rec["graph"], [qs]))
        targets.append(qs.targets)
    return model.nmae(np.concatenate(preds), np.concatenate(targets))


def _write_log(path, text, mode="a"):
    """Write to the training log; an OSError becomes a DomainError."""
    with dataio.open_file(path, "training log", mode, DomainError) as fh:
        fh.write(text)


def cmd_train(cfg, deterministic=False):
    """Sampled-query training loop with plateau decay and best checkpoint."""
    train, val = _load_dataset(cfg)
    _make_out_dir(cfg.out_dir, "out_dir")
    params = model.init_params(cfg.model, seed=cfg.seed)
    registry = grad.ParamRegistry(params)
    state = grad.init_optimizer(registry, **cfg.optimizer)
    ckpt_path = os.path.join(cfg.out_dir, "model.ckpt")
    log_path = os.path.join(cfg.out_dir, "train_log.jsonl")
    model.save_checkpoint(params, ckpt_path)
    nb = min(cfg.batch_size, len(train))
    _write_log(log_path, "", "w")
    for step in range(1, cfg.n_iter + 1):
        t0 = time.perf_counter()
        start = ((step - 1) * nb) % len(train)
        mean_loss = 0.0
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
                if t == 0:
                    summed = g
                else:
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
            if nmae_val < state.best_val:
                model.save_checkpoint(params, ckpt_path)
            grad.plateau_update(state, nmae_val)
        wall = 0 if deterministic else int((time.perf_counter() - t0) * 1000)
        _write_log(log_path, json.dumps(
            {"step": step, "loss": mean_loss, "nmae_val": nmae_val,
             "lr": state.lr, "wall_ms": wall}, sort_keys=True) + "\n")
    return {"steps": cfg.n_iter,
            "best_nmae_val": None if math.isinf(state.best_val)
            else state.best_val,
            "checkpoint": ckpt_path, "log": log_path}


def _load_model(cfg, checkpoint):
    """The checkpoint's parameters, which must be for the run's model."""
    params = model.load_checkpoint(checkpoint)
    if params.config != cfg.model:
        raise DomainError("checkpoint model config does not match the run "
                          "config")
    return params


def _map_records(fn, jobs, *items):
    """``list(map(fn, *items))``, on ``jobs`` threads when above one."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *items))
    return list(map(fn, *items))


def _eval_record(params, cfg, rec, rotation=None, resample=True):
    """Predictions over the record's grid, and its values. A ``rotation``
    turns the atoms about the cell center, then resamples the values or,
    without ``resample``, turns the cell: its nodes are the turned queries."""
    graph, coords, grid = rec["graph"], rec["coords"], rec["grid"]
    if rotation is not None:
        if resample:
            coords, grid = geometry.rotate_instance(coords, grid, rotation)
        else:
            c = geometry.cell_center(grid)
            coords = c + (coords - c) @ rotation.T
            grid = dataclasses.replace(
                grid, cell=grid.cell @ rotation.T,
                origin=c + (grid.origin - c) @ rotation.T)
        graph = geometry.MolecularGraph.from_coords(rec["types"], coords,
                                                    params.config.cutoff)
    batches = geometry.partition_grid(grid, cfg.inf_sample)
    return _decode(params, graph, batches), grid.values


def cmd_eval(cfg, checkpoint, rotated=False, resample=True, seed=None,
             jobs=1, deterministic=False):
    """Full-grid partitioned NMAE per record plus the pooled aggregate."""
    params = _load_model(cfg, checkpoint)
    seed = cfg.seed if seed is None else seed
    _, recs = _load_dataset(cfg)
    rotations = [so3.random_rotation(np.random.default_rng((seed, 4242, i)))
                 if rotated else None for i in range(len(recs))]
    t0 = time.perf_counter()
    preds, targets = zip(*_map_records(
        functools.partial(_eval_record, params, cfg, resample=resample),
        jobs, recs, rotations))
    report = {"checkpoint": os.fspath(checkpoint), "rotated": bool(rotated),
              "resampled": bool(resample and rotated),
              "records": {rec["name"]: model.nmae(pred, target)
                          for rec, pred, target in zip(recs, preds, targets)},
              "aggregate_nmae": model.nmae(np.concatenate(preds),
                                           np.concatenate(targets)),
              "n_records": len(recs)}
    if not deterministic:
        wall = time.perf_counter() - t0
        report["wall_ms"] = int(wall * 1000)
        report["voxels_per_s"] = round(
            sum(rec["grid"].n_voxels for rec in recs) / wall, 1)
    return report


def cmd_predict(cfg, checkpoint, out_dir=None, jobs=1):
    """Full-grid prediction and error CUBE files for every record."""
    params = _load_model(cfg, checkpoint)
    out = _make_out_dir(out_dir or cfg.out_dir,
                        "--out" if out_dir else "out_dir")
    _, recs = _load_dataset(cfg)

    def run(rec):
        grid = rec["grid"]
        pred, values = _eval_record(params, cfg, rec)
        numbers = rec["types"] + 1  # vocab indices to nuclear charges
        paths = {}
        for tag, field in (("pred", pred), ("err", pred - values)):
            path = os.path.join(out, f"{rec['name']}.{tag}.cube")
            dataio.export_cube(path, dataclasses.replace(grid, values=field),
                               numbers, rec["coords"],
                               comment=f"{tag} for {rec['name']}")
            paths[tag] = path
        return rec["name"], paths, model.nmae(pred, values)

    rows = _map_records(run, jobs, recs)
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
    _make_out_dir(out_dir, "--out")
    return graphon.graphon_demo_report(
        n_nodes=n_nodes, seed=seed,
        json_path=os.path.join(out_dir, "report.json"),
        csv_path=os.path.join(out_dir, "eigenvalue_decay.csv"))


def _int_at_least(low):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "integer"  # argparse's "invalid integer value: ..."
    return parse


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
            p.add_argument("--seed", type=_int_at_least(0), default=None)
        if jobs:
            p.add_argument("--jobs", type=_int_at_least(1), default=1,
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
    pg.add_argument("--n-params", type=_int_at_least(1), default=200)
    pd = command("graphon-demo", "graphon equivalence report",
                 config=None)
    pd.add_argument("--out", default="graphon_demo")
    pd.add_argument("--nodes", type=_int_at_least(1), default=256)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        path = getattr(args, "config", None)  # graphon-demo reads none
        cfg = load_run_config(path) if path else RunConfig()
        if args.command == "train":
            if args.seed is not None:
                cfg.seed = args.seed
            report = cmd_train(cfg, deterministic=args.deterministic)
        elif args.command == "eval":
            report = cmd_eval(cfg, args.checkpoint, rotated=args.rotated,
                              seed=args.seed, jobs=args.jobs,
                              deterministic=args.deterministic)
        elif args.command == "predict":
            report = cmd_predict(cfg, args.checkpoint, out_dir=args.out,
                                 jobs=args.jobs)
        elif args.command == "equivariance-check":
            report = cmd_equivariance_check(cfg.model, seed=args.seed or 0)
        elif args.command == "gradcheck":
            report = cmd_gradcheck(cfg.model, seed=args.seed or 0,
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
