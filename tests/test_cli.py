import contextlib
import dataclasses
import io
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from cube import read_cube
from hypothesis import given, settings
from hypothesis import strategies as st
from json_values import VALUES

from infgcn import cli, dataio, geometry, grad, layers, model, so3
from infgcn.errors import DomainError, NonFiniteError, SchemaError

SMALL_MODEL = {"l_max": 1, "channels": 2, "n_layers": 1, "cutoff": 3.0,
               "r_max": 3.0}


def write_config(tmp_path, data_dir, out_dir, **overrides):
    cfg = {"dataset": str(data_dir), "out_dir": str(out_dir),
           "model": dict(SMALL_MODEL), "train_sample": 64,
           "inf_sample": 128, "batch_size": 2, "n_iter": 6,
           "val_every": 3, "seed": 1}
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def oracle_instance(tmp_path, seed=3):
    """A record whose density is a model's own output, plus its checkpoint."""
    mcfg = model.ModelConfig(**SMALL_MODEL)
    params = model.init_params(mcfg, seed=seed, zero_heads=False)
    rng = np.random.default_rng(seed + 1)
    coords = rng.uniform(-1.0, 1.0, size=(4, 3))
    types = rng.integers(0, mcfg.vocab, size=4)
    graph = geometry.MolecularGraph.from_coords(types, coords, mcfg.cutoff)
    shape = (8, 8, 8)
    grid0 = geometry.VoxelGrid(shape, np.diag([6.0] * 3), np.full(3, -3.0),
                               np.zeros(512))
    dens = model.predict_density(params, graph,
                                 geometry.grid_coordinates(grid0))
    grid = geometry.VoxelGrid(shape, grid0.cell, grid0.origin, dens)
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    dataio.save_record(data / "orc", types, coords, grid)
    ckpt = tmp_path / "oracle.ckpt"
    model.save_checkpoint(params, ckpt)
    return data, ckpt


def test_run_config_defaults_and_validation(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": "d", "model": SMALL_MODEL}))
    cfg = cli.load_run_config(path)
    assert (cfg.train_sample, cfg.inf_sample, cfg.batch_size) \
        == (1024, 4096, 64)
    assert cfg.optimizer == {"method": "adaptive-moments", "lr": 1e-3,
                             "patience": 10, "decay_factor": 0.5}
    # the edges of each optimizer range load
    path.write_text(json.dumps({"dataset": "d", "optimizer": {
        "lr": 2, "patience": 0, "decay_factor": 1}}))
    assert cli.load_run_config(path).optimizer["decay_factor"] == 1
    for bad, needle in (
            ({"dataset": "d", "typo": 1}, "typo"),
            ({"dataset": "d", "optimizer": {"momentum": 0.9}}, "momentum"),
            ({"dataset": "d", "train_sample": 0}, "train_sample"),
            ({"dataset": "d", "n_iter": -1}, "n_iter"),
            ({"dataset": "d", "model": {"nope": 3}}, "model")):
        path.write_text(json.dumps(bad))
        with pytest.raises(SchemaError, match=needle):
            cli.load_run_config(path)


@pytest.mark.parametrize("bad, needle", [
    ([], "JSON object"),
    ({"optimizer": [1]}, "optimizer must be an object"),
    ({"optimizer": {"lr": "fast"}}, "optimizer.lr"),
    ({"optimizer": {"patience": None}}, "optimizer.patience"),
    ({"optimizer": {"decay_factor": [0.5]}}, "optimizer.decay_factor"),
    ({"split": ["rec000"]}, "split must be an object"),
    ({"seed": "a"}, "seed must be a non-negative integer"),
    ({"seed": 1.5}, "seed must be a non-negative integer"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"seed": True}, "seed must be a non-negative integer"),
    ({"split": {"train": "rec000"}}, "split['train'] must be a list"),
    ({"split": {"val": 5}}, "split['val'] must be a list"),
    ({"split": {"train": [0]}}, "split['train'] must be a list"),
    ({"split": {"tain": ["rec000"]}}, "unknown split key 'tain'"),
    ({"train_sample": True}, "train_sample must be a positive integer"),
    ({"inf_sample": True}, "inf_sample must be a positive integer"),
    ({"batch_size": True}, "batch_size must be a positive integer"),
    ({"val_every": True}, "val_every must be a positive integer"),
    ({"optimizer": {"lr": -1}}, "optimizer.lr must be a positive finite"),
    ({"optimizer": {"lr": 0}}, "optimizer.lr must be a positive finite"),
    ({"optimizer": {"lr": float("nan")}}, "optimizer.lr"),
    ({"optimizer": {"lr": float("inf")}}, "optimizer.lr"),
    ({"optimizer": {"decay_factor": 2}}, "optimizer.decay_factor must be"),
    ({"optimizer": {"decay_factor": 0}}, "optimizer.decay_factor"),
    ({"optimizer": {"decay_factor": float("nan")}}, "optimizer.decay_factor"),
    ({"optimizer": {"patience": 0.5}}, "optimizer.patience must be a non-"),
    ({"optimizer": {"patience": -1}}, "optimizer.patience"),
    ({"optimizer": {"patience": True}}, "optimizer.patience"),
    ({"model": {"l_max": 2.5}}, "l_max must be an integer >= 0, got 2.5"),
    ({"model": {"l_max": True}}, "l_max must be an integer >= 0, got True"),
    ({"model": {"residual": 2}}, "residual must be bool, got 2"),
    ({"out_dir": 5}, "out_dir must be a string"),
    ({"dataset": ["x"]}, "dataset must be a string"),
    ({"dataset": "no-such-dir"}, "no-such-dir: dataset is not a directory"),
    ({"model": {"cutoff": True}}, "model.cutoff must be a positive finite"),
    ({"model": {"r_max": True}}, "model.r_max must be a positive finite"),
    ({"model": {"cutoff": "3"}}, "model.cutoff"),
    ({"model": {"r_min": "x"}}, "model.r_min"),
    ({"model": {"r_max": float("inf")}}, "model.r_max"),
    ({"model": {"cutoff": 10**400}}, "model.cutoff"),
    ({"optimizer": {"lr": 10**400}}, "optimizer.lr"),
    ({"optimizer": {"method": "sgd"}}, "optimizer.method must be one of"),
    ({"optimizer": {"method": 5}}, "optimizer.method"),
    ({"optimizer": {"method": ["x"]}}, "optimizer.method"),
    ({"model": {"channels": 10**12}}, "over 100,000,000 parameters")])
def test_main_rejects_malformed_config(tmp_path, monkeypatch, capsys, bad,
                                       needle):
    # both commands load the config; only train reads the dataset directory
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    reads_data = isinstance(bad, dict) and isinstance(bad.get("dataset"), str)
    for command in ("train",) if reads_data else ("gradcheck", "train"):
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and needle in err, command


# (block, field) for every field a run config declares
_CONFIG_FIELDS = (
    [(None, f.name) for f in dataclasses.fields(cli.RunConfig)]
    + [(block, f.name) for block, cls in (("model", model.ModelConfig),
                                          ("optimizer", grad.OptimizerConfig))
       for f in dataclasses.fields(cls)]
    + [("split", "train"), ("split", "val")])


def test_every_declared_field_is_documented_in_readme():
    # the config table, or "Data format" for a record's metadata
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    config, data = readme.split("A run config:")[1].split("## Data format")
    data = data.split("\n## ")[0]
    for section, classes in (
            (config, (cli.RunConfig, model.ModelConfig, grad.OptimizerConfig)),
            (data, (dataio.RecordMeta, dataio.Units))):
        for cls in classes:
            for f in dataclasses.fields(cls):
                assert f"`{f.name}`" in section, (cls.__name__, f.name)


def _assert_typed(obj, cls):
    """Each field of ``obj``, a ``cls`` or a dict of its fields, has its
    declared type."""
    if isinstance(obj, dict):
        assert set(obj) == {f.name for f in dataclasses.fields(cls)}
    for f in dataclasses.fields(cls):
        v = obj[f.name] if isinstance(obj, dict) else getattr(obj, f.name)
        if dataclasses.is_dataclass(f.type):
            _assert_typed(v, f.type)
        elif f.name == "optimizer":
            _assert_typed(v, grad.OptimizerConfig)
        elif f.name == "split":
            assert v is None or all(
                isinstance(n, str) for names in v.values() for n in names)
        else:
            assert type(v) is f.type or (v is None and f.default is None)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(value=VALUES, run=st.sampled_from(_CONFIG_FIELDS))
def test_fuzzed_config_loads_typed_or_names_the_field(tmp_path_factory,
                                                      value, run):
    # the value goes into every field in turn; main runs one of them, and
    # train then stops at the missing dataset unless the config failed
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    for block, name in _CONFIG_FIELDS:
        d = {"dataset": str(tmp_path_factory.getbasetemp() / "no-data")}
        if block is None:
            d[name], label = value, name
        else:
            d[block] = {name: value}
            label = (f"split[{name!r}]" if block == "split"
                     else f"{block}.{name}")
        path.write_text(json.dumps(d))
        try:
            cfg = cli.load_run_config(path)
        except SchemaError as exc:
            assert label in str(exc)
        except DomainError as exc:  # r_min < r_max, and the size bound
            assert name in ("r_min", "r_max", "l_max", "channels",
                            "n_layers", "vocab") and name in str(exc)
        else:
            _assert_typed(cfg, cli.RunConfig)
            # a bool, an int to Python, loads only where one is declared
            assert not isinstance(value, bool) or name == "residual"
        if (block, name) == run and name != "dataset":
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert cli.main(["train", "--config", str(path)]) == 1
            assert err.getvalue().startswith("error:")


def test_train_zero_iterations_keeps_init(tmp_path):
    dataio.make_synthetic_dataset(tmp_path / "data", seed=5,
                                  shape=(8, 8, 8))
    cfg = cli.load_run_config(write_config(
        tmp_path, tmp_path / "data", tmp_path / "out", n_iter=0))
    report = cli.cmd_train(cfg)
    loaded = model.load_checkpoint(report["checkpoint"])
    init = model.init_params(cfg.model, seed=cfg.seed)
    for (na, a), (nb, b) in zip(loaded.named_arrays(), init.named_arrays()):
        assert na == nb and np.array_equal(a, b)
    assert report["best_nmae_val"] is None


def test_train_writes_log_and_checkpoint(tmp_path):
    dataio.make_synthetic_dataset(tmp_path / "data", n_records=2, seed=6,
                                  shape=(8, 8, 8))
    cfg = cli.load_run_config(write_config(
        tmp_path, tmp_path / "data", tmp_path / "out"))
    report = cli.cmd_train(cfg)
    lines = [json.loads(l) for l in
             Path(report["log"]).read_text().splitlines()]
    assert [l["step"] for l in lines] == [1, 2, 3, 4, 5, 6]
    for l in lines:
        assert np.isfinite(l["loss"])
        if l["step"] % 3 == 0:
            assert l["nmae_val"] is not None
        else:
            assert l["nmae_val"] is None
    assert report["best_nmae_val"] is not None
    loaded = model.load_checkpoint(report["checkpoint"])
    assert loaded.config == cfg.model


def test_train_deterministic_repeat(tmp_path):
    dataio.make_synthetic_dataset(tmp_path / "data", seed=7, shape=(8, 8, 8))
    logs = []
    for run in ("a", "b"):
        cfg = cli.load_run_config(write_config(
            tmp_path, tmp_path / "data", tmp_path / run, n_iter=4))
        report = cli.cmd_train(cfg, deterministic=True)
        logs.append(Path(report["log"]).read_bytes())
    assert logs[0] == logs[1]


def test_train_aborts_on_non_finite_with_last_good(tmp_path, monkeypatch):
    dataio.make_synthetic_dataset(tmp_path / "data", seed=8, shape=(6, 6, 6))
    # the first step's gradient overflows, as a diverging run's would; a
    # record cannot carry a non-finite density in (`load_record`)
    real = grad.loss_and_grad

    def loss_and_grad(*args, **kwargs):
        loss, g = real(*args, **kwargs)
        g[17] = np.inf
        return loss, g

    monkeypatch.setattr(grad, "loss_and_grad", loss_and_grad)
    cfg = cli.load_run_config(write_config(
        tmp_path, tmp_path / "data", tmp_path / "out", n_iter=3,
        train_sample=216))
    with pytest.raises(NonFiniteError):
        cli.cmd_train(cfg)
    saved = model.load_checkpoint(tmp_path / "out" / "last_good.ckpt")
    init = model.init_params(cfg.model, seed=cfg.seed)
    for (_, a), (_, b) in zip(saved.named_arrays(), init.named_arrays()):
        assert np.array_equal(a, b)


def test_eval_oracle_checkpoint_is_storage_noise_only(tmp_path):
    data, ckpt = oracle_instance(tmp_path)
    cfg = cli.load_run_config(write_config(tmp_path, data, tmp_path / "out"))
    report = cli.cmd_eval(cfg, ckpt, deterministic=True)
    assert report["aggregate_nmae"] < 1e-4
    assert report["records"]["orc"] < 1e-4
    assert "wall_ms" not in report and "voxels_per_s" not in report
    timed = cli.cmd_eval(cfg, ckpt)
    assert timed["aggregate_nmae"] == report["aggregate_nmae"]
    assert timed["voxels_per_s"] > 0 and timed["wall_ms"] >= 0


def test_main_eval_deterministic_stdout_is_byte_identical(tmp_path, capsys):
    data, ckpt = oracle_instance(tmp_path, seed=5)
    argv = ["eval", "--config", str(write_config(tmp_path, data, tmp_path)),
            "--checkpoint", str(ckpt), "--deterministic"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "wall_ms" not in outs[0] and "voxels_per_s" not in outs[0]


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_records_are_encoded_once_and_decoded_per_batch(tmp_path, monkeypatch,
                                                        command):
    mcfg = dict(SMALL_MODEL, n_layers=2)
    dataio.make_synthetic_dataset(tmp_path / "data", n_records=2, seed=14,
                                  shape=(8, 8, 8))
    ckpt = tmp_path / "init.ckpt"
    model.save_checkpoint(
        model.init_params(model.ModelConfig(**mcfg), seed=15), ckpt)
    cfg = cli.load_run_config(write_config(
        tmp_path, tmp_path / "data", tmp_path / "out", model=mcfg,
        inf_sample=37))
    calls = {"conv": 0, "predict": 0}
    queries = []

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if key == "predict":
                queries.append(args[2])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(layers, "conv_forward",
                        counted(layers.conv_forward, "conv"))
    monkeypatch.setattr(model, "predict_density",
                        counted(model.predict_density, "predict"))
    if command == "eval":
        cli.cmd_eval(cfg, ckpt, deterministic=True)
    else:
        cli.cmd_predict(cfg, ckpt, out_dir=tmp_path / "cubes")
    grids = [dataio.load_record(stem)[2]
             for stem in dataio.list_records(tmp_path / "data")]
    assert calls["conv"] == 2 * 2  # n_layers x n_records
    # every batch is predicted, once
    assert calls["predict"] == sum(len(geometry.partition_grid(g, 37))
                                   for g in grids)
    # and together the batches' queries are every grid node exactly once
    got = np.concatenate(queries)
    want = np.concatenate([geometry.grid_coordinates(g) for g in grids])
    assert np.array_equal(got[np.lexsort(got.T)], want[np.lexsort(want.T)])


def test_unrotated_eval_reuses_the_loaded_graphs(tmp_path, monkeypatch):
    # the dataset loader builds each record's graph; an unrotated eval
    # reads it instead of building an equal one again
    dataio.make_synthetic_dataset(tmp_path / "data", n_records=2, seed=16,
                                  shape=(8, 8, 8))
    mcfg = model.ModelConfig(**SMALL_MODEL)
    params = model.init_params(mcfg, seed=17, zero_heads=False)
    ckpt = tmp_path / "init.ckpt"
    model.save_checkpoint(params, ckpt)
    cfg = cli.load_run_config(write_config(
        tmp_path, tmp_path / "data", tmp_path / "out", inf_sample=100))
    real = geometry.build_radius_graph
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "build_radius_graph", counted)
    rep = cli.cmd_eval(cfg, ckpt, deterministic=True)
    assert len(calls) == 2  # once per record, by the loader
    monkeypatch.setattr(geometry, "build_radius_graph", real)
    for stem in dataio.list_records(tmp_path / "data"):
        types, coords, grid = dataio.load_record(stem)
        graph = geometry.MolecularGraph.from_coords(types, coords,
                                                    mcfg.cutoff)
        pred = model.predict_density(params, graph,
                                     geometry.grid_coordinates(grid))
        want = model.nmae(pred, grid.values)
        got = rep["records"][Path(stem).name]
        assert abs(got - want) <= 1e-12 * abs(want)


def test_eval_builds_one_decode_table_for_all_records(tmp_path, monkeypatch):
    # both records' decode batches take the residual net's table, built
    # from the same parameters, so it is built once
    dataio.make_synthetic_dataset(tmp_path / "data", n_records=2, seed=16,
                                  shape=(16, 16, 16))
    ckpt = tmp_path / "init.ckpt"
    model.save_checkpoint(model.init_params(
        model.ModelConfig(**SMALL_MODEL), seed=17, zero_heads=False), ckpt)
    cfg = cli.load_run_config(write_config(
        tmp_path, tmp_path / "data", tmp_path / "out", inf_sample=4096))
    calls = {"_table": 0, "_decode_table": 0}

    def counted(name):
        fn = getattr(layers, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(layers, name, wrapper)

    counted("_table")
    counted("_decode_table")
    cli.cmd_eval(cfg, ckpt, jobs=1, deterministic=True)
    assert calls == {"_table": 1, "_decode_table": 2}


def test_eval_partition_and_jobs_invariance(tmp_path):
    data, ckpt = oracle_instance(tmp_path, seed=9)
    got = {}
    for inf_sample, jobs in ((37, 1), (256, 1), (512, 1), (256, 2)):
        cfg = cli.load_run_config(write_config(
            tmp_path, data, tmp_path / "out", inf_sample=inf_sample))
        rep = cli.cmd_eval(cfg, ckpt, jobs=jobs, deterministic=True)
        got[(inf_sample, jobs)] = rep["aggregate_nmae"]
    vals = list(got.values())
    assert max(vals) - min(vals) < 1e-12


def test_cold_two_thread_eval_builds_the_conv_plan_once(tmp_path,
                                                        monkeypatch):
    # both records' encodes ask for the plan at once: one thread builds it
    # and the other waits for that build. The build is held open long
    # enough for both threads to reach it
    dataio.make_synthetic_dataset(tmp_path / "data", n_records=2, seed=18,
                                  shape=(8, 8, 8))
    ckpt = tmp_path / "init.ckpt"
    model.save_checkpoint(model.init_params(
        model.ModelConfig(**SMALL_MODEL), seed=19), ckpt)
    cfg = cli.load_run_config(write_config(
        tmp_path, tmp_path / "data", tmp_path / "out"))
    builds = []
    real = layers._build_plan

    def slow(l_max):
        builds.append(l_max)
        time.sleep(0.2)
        return real(l_max)

    monkeypatch.setattr(layers, "_build_plan", slow)
    monkeypatch.setattr(layers, "_PLANS", {})
    cli.cmd_eval(cfg, ckpt, jobs=2, deterministic=True)
    assert builds == [SMALL_MODEL["l_max"]]


def test_eval_rotated_exact_queries_match_unrotated(tmp_path):
    data, _ = oracle_instance(tmp_path, seed=10)
    mcfg = model.ModelConfig(**SMALL_MODEL)
    other = model.init_params(mcfg, seed=77, zero_heads=False)
    ckpt = tmp_path / "other.ckpt"
    model.save_checkpoint(other, ckpt)
    cfg = cli.load_run_config(write_config(tmp_path, data, tmp_path / "out"))
    plain = cli.cmd_eval(cfg, ckpt, deterministic=True)
    exact = cli.cmd_eval(cfg, ckpt, rotated=True, resample=False,
                         deterministic=True)
    base = plain["aggregate_nmae"]
    assert base > 1.0  # mismatched params, so the score is far from zero
    assert abs(exact["aggregate_nmae"] - base) / base < 1e-6
    resampled = cli.cmd_eval(cfg, ckpt, rotated=True, deterministic=True)
    assert np.isfinite(resampled["aggregate_nmae"])
    assert resampled["resampled"]


def test_analytic_rotation_decodes_at_the_turned_nodes(tmp_path,
                                                        monkeypatch):
    # without resampling the cell is turned: its nodes are the record's
    # nodes turned about the cell center, and the targets stay as stored
    data, ckpt = oracle_instance(tmp_path, seed=11)
    cfg = cli.load_run_config(write_config(tmp_path, data, tmp_path / "out"))
    _, (rec,) = cli._load_dataset(cfg)
    R = so3.random_rotation(np.random.default_rng(12))
    queries = []
    real = model.predict_density

    def recorded(params, graph, points, **kwargs):
        queries.append(points)
        return real(params, graph, points, **kwargs)

    monkeypatch.setattr(model, "predict_density", recorded)
    _, values = cli._eval_record(model.load_checkpoint(ckpt), cfg, rec, R,
                                 resample=False)
    grid = rec["grid"]
    c = geometry.cell_center(grid)
    want = c + (geometry.grid_coordinates(grid) - c) @ R.T
    assert np.allclose(np.concatenate(queries), want, rtol=0, atol=1e-12)
    assert np.array_equal(values, grid.values)


def test_eval_config_mismatch_rejected(tmp_path):
    data, ckpt = oracle_instance(tmp_path)
    bad = dict(SMALL_MODEL, channels=3)
    cfg = cli.load_run_config(write_config(tmp_path, data, tmp_path / "out",
                                           model=bad))
    with pytest.raises(DomainError, match="config"):
        cli.cmd_eval(cfg, ckpt)


def test_main_eval_rejects_corrupt_checkpoint(tmp_path, capsys):
    data, ckpt = oracle_instance(tmp_path)
    raw = ckpt.read_bytes()
    corrupt = tmp_path / "corrupt.ckpt"
    corrupt.write_bytes(raw[:14])  # cut inside the header JSON
    config = write_config(tmp_path, data, tmp_path / "out")
    assert cli.main(["eval", "--config", str(config),
                     "--checkpoint", str(corrupt)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "header JSON" in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_main_rejects_missing_checkpoint_naming_it(tmp_path, capsys,
                                                   command):
    data, _ = oracle_instance(tmp_path)
    config = write_config(tmp_path, data, tmp_path / "out")
    missing = tmp_path / "nope.ckpt"
    assert cli.main([command, "--config", str(config),
                     "--checkpoint", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope.ckpt" in err


@pytest.mark.parametrize("command, name", [
    ("train", "out_dir"), ("predict", "out_dir"), ("predict", "--out"),
    ("graphon-demo", "--out")])
def test_main_rejects_a_file_as_output_directory(tmp_path, capsys, command,
                                                 name):
    data, ckpt = oracle_instance(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    config = write_config(tmp_path, data,
                          taken if name == "out_dir" else tmp_path / "out")
    argv = {"train": ["train", "--config", str(config)],
            "predict": ["predict", "--config", str(config),
                        "--checkpoint", str(ckpt)],
            "graphon-demo": ["graphon-demo", "--nodes", "16"]}[command]
    if name == "--out":
        argv += ["--out", str(taken)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: ") and str(taken) in err
    assert taken.read_text() == ""


def test_main_train_names_an_unwritable_checkpoint(tmp_path, capsys):
    # a directory where model.ckpt goes: replacing it fails with an
    # OSError, which must leave main as a typed error and no temp file
    data, _ = oracle_instance(tmp_path)
    out = tmp_path / "out"
    (out / "model.ckpt").mkdir(parents=True)
    config = write_config(tmp_path, data, out, n_iter=1)
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "model.ckpt" in err
    assert [p.name for p in out.iterdir()] == ["model.ckpt"]
    assert list((out / "model.ckpt").iterdir()) == []


@pytest.mark.parametrize("target", ["config", "record", "log", "cube",
                                    "report"])
def test_main_names_a_directory_where_a_file_goes(tmp_path, capsys, target):
    # each file main reads or writes, made a directory: the OSError leaves
    # main as a typed error naming the path, and no temp file is left
    data, ckpt = oracle_instance(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path, data, out, n_iter=1)
    path = {"config": tmp_path / "config.d", "record": data / "orc.bin",
            "log": out / "train_log.jsonl", "cube": out / "orc.pred.cube",
            "report": out / "report.json"}[target]
    if target == "record":
        path.unlink()
    path.mkdir(parents=True)
    argv = {"config": ["train", "--config", str(path)],
            "record": ["train", "--config", str(config)],
            "log": ["train", "--config", str(config)],
            "cube": ["predict", "--config", str(config),
                     "--checkpoint", str(ckpt)],
            "report": ["graphon-demo", "--out", str(out), "--nodes", "16"]}
    assert cli.main(argv[target]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"),
                    reason="needs Linux /proc/self/mem")
def test_main_names_a_checkpoint_that_fails_after_open(tmp_path, capsys):
    # /proc/self/mem opens, and its first read fails with EIO: an error
    # past the open must leave main typed, naming the path
    config = tmp_path / "run.json"
    config.write_text("{}")
    assert cli.main(["eval", "--config", str(config),
                     "--checkpoint", "/proc/self/mem"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read checkpoint '/proc/self/mem': ")


def test_eval_and_predict_score_a_record_alike(tmp_path):
    # both decode a record through one routine and score the whole
    # prediction, so they report the same float
    data, _ = oracle_instance(tmp_path, seed=12)
    ckpt = tmp_path / "other.ckpt"
    model.save_checkpoint(model.init_params(
        model.ModelConfig(**SMALL_MODEL), seed=78, zero_heads=False), ckpt)
    cfg = cli.load_run_config(write_config(tmp_path, data, tmp_path / "out",
                                           inf_sample=37))
    scored = cli.cmd_eval(cfg, ckpt, deterministic=True)["records"]["orc"]
    predicted = cli.cmd_predict(cfg, ckpt)["records"]["orc"]["nmae"]
    assert scored > 1.0  # mismatched params, so the score is far from zero
    assert scored == predicted


def test_predict_round_trips_through_cube(tmp_path):
    data, ckpt = oracle_instance(tmp_path, seed=11)
    cfg = cli.load_run_config(write_config(tmp_path, data, tmp_path / "out"))
    report = cli.cmd_predict(cfg, ckpt, out_dir=tmp_path / "cubes")
    entry = report["records"]["orc"]
    assert entry["nmae"] < 1e-4
    _, _, pred_grid = read_cube(entry["pred"])
    _, _, err_grid = read_cube(entry["err"])
    types, coords, truth = dataio.load_record(data / "orc")
    params = model.load_checkpoint(ckpt)
    graph = geometry.MolecularGraph.from_coords(types, coords,
                                                params.config.cutoff)
    direct = model.predict_density(params, graph,
                                   geometry.grid_coordinates(truth))
    tol = 1e-5 * max(1.0, np.abs(direct).max())
    assert np.abs(pred_grid.values - direct).max() < tol
    assert np.abs(err_grid.values - (direct - truth.values)).max() < tol


def test_equivariance_check_passes_and_degrades(monkeypatch):
    mcfg = model.ModelConfig(l_max=2, channels=2, n_layers=2, cutoff=3.0,
                             r_max=3.0)
    rep = cli.cmd_equivariance_check(mcfg, seed=2)
    assert rep["pass"] and rep["n_rotations"] == 20
    flat = cli.cmd_equivariance_check(
        model.ModelConfig(l_max=0, channels=2, n_layers=1, cutoff=3.0,
                          r_max=3.0), seed=3)
    assert flat["pass"]

    # negative control: corrupting one coupling entry must break
    # equivariance. A uniform rescale would not (CG blocks stay valid
    # intertwiners under scaling). Paths consuming degree >= 1 inputs are
    # nearly silent at init, and the edge-frame kernel of a path from the
    # O(1) scalar features is one M = 0, m = m' = 0 entry, equivariant at
    # any value; so hit the (1, 1, 2) table that the edge frames' Wigner
    # block J_2 is built from.
    real = so3.cg_table

    def crooked(l, k, J):
        table = real(l, k, J)
        if (l, k, J) == (1, 1, 2):
            table = table.copy()
            table[0, 0, 0] += 5.0
        return table

    monkeypatch.setattr(so3, "cg_table", crooked)
    # the conv plan memoizes the tables it was built from; an empty memo
    # makes this run build its plan from the crooked table
    monkeypatch.setattr(layers, "_PLANS", {})
    broken = cli.cmd_equivariance_check(mcfg, seed=2)
    assert not broken["pass"]
    assert broken["max_rel_deviation"] > 1e-7


def test_gradcheck_command():
    mcfg = model.ModelConfig(l_max=1, channels=2, n_layers=1, cutoff=3.0,
                             r_max=3.0)
    rep = cli.cmd_gradcheck(mcfg, seed=4, n_sampled=60)
    assert rep["pass"]
    assert rep["n_sampled"] == 60


def test_main_graphon_demo_and_errors(tmp_path, capsys):
    out = tmp_path / "lab"
    code = cli.main(["graphon-demo", "--out", str(out), "--nodes", "64"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["pass"]
    assert (out / "report.json").exists()
    assert (out / "eigenvalue_decay.csv").exists()

    code = cli.main(["train", "--config", str(tmp_path / "missing.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_train_then_eval(tmp_path, capsys):
    dataio.make_synthetic_dataset(tmp_path / "data", seed=12,
                                  shape=(8, 8, 8))
    cfg_path = write_config(tmp_path, tmp_path / "data", tmp_path / "out",
                            n_iter=2, val_every=2)
    assert cli.main(["train", "--config", str(cfg_path),
                     "--deterministic"]) == 0
    train_rep = json.loads(capsys.readouterr().out)
    assert cli.main(["eval", "--config", str(cfg_path), "--checkpoint",
                     train_rep["checkpoint"], "--deterministic",
                     "--rotated"]) == 0
    eval_rep = json.loads(capsys.readouterr().out)
    assert eval_rep["rotated"] and np.isfinite(eval_rep["aggregate_nmae"])


_CKPT = ["--config", "run.json", "--checkpoint", "model.ckpt"]


def test_parser_registers_flags_where_they_are_read():
    parse = cli._build_parser().parse_args
    args = parse(["eval", *_CKPT, "--jobs", "2", "--seed", "5",
                  "--deterministic"])
    assert (args.jobs, args.seed, args.deterministic) == (2, 5, True)
    assert parse(["predict", *_CKPT, "--jobs", "3"]).jobs == 3
    args = parse(["train", "--config", "run.json", "--seed", "4",
                  "--deterministic"])
    assert (args.seed, args.deterministic) == (4, True)


@pytest.mark.parametrize("argv, message", [
    (["train", "--config", "run.json", "--jobs", "4"],
     "unrecognized arguments: --jobs 4"),
    (["predict", *_CKPT, "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["predict", *_CKPT, "--deterministic"],
     "unrecognized arguments: --deterministic"),
    (["gradcheck", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
    (["graphon-demo", "--config", "run.json"],
     "unrecognized arguments: --config run.json"),
    (["eval", *_CKPT, "--jobs", "0"], "--jobs: must be at least 1, got 0"),
    (["predict", *_CKPT, "--jobs", "-1"], "--jobs: must be at least 1"),
    (["train", "--config", "run.json", "--seed", "-1"],
     "--seed: must be at least 0, got -1"),
    (["eval", *_CKPT, "--seed", "x"], "--seed: invalid integer value: 'x'"),
    (["gradcheck", "--n-params", "0"], "--n-params: must be at least 1, got 0"),
    (["gradcheck", "--n-params", "-5"], "--n-params: must be at least 1"),
    (["graphon-demo", "--nodes", "0"], "--nodes: must be at least 8, got 0"),
    (["graphon-demo", "--nodes", "7"], "--nodes: must be at least 8, got 7"),
])
def test_main_rejects_flags_the_command_does_not_read(argv, message,
                                                      capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_split_with_unknown_record_rejected(tmp_path):
    dataio.make_synthetic_dataset(tmp_path / "data", seed=13,
                                  shape=(6, 6, 6))
    cfg = cli.load_run_config(write_config(
        tmp_path, tmp_path / "data", tmp_path / "out",
        split={"train": ["rec000"], "val": ["ghost"]}))
    with pytest.raises(SchemaError, match="ghost"):
        cli.cmd_train(cfg)

@pytest.mark.parametrize("key", ["train", "val"])
def test_empty_split_rejected_naming_it(tmp_path, key):
    # an empty train split divided by zero; an empty val split failed
    # later with an NMAE DomainError that named neither
    dataio.make_synthetic_dataset(tmp_path / "data", seed=13,
                                  shape=(6, 6, 6))
    split = {"train": ["rec000"], "val": ["rec000"]}
    split[key] = []
    cfg = cli.load_run_config(write_config(
        tmp_path, tmp_path / "data", tmp_path / "out", n_iter=1,
        val_every=1, split=split))
    with pytest.raises(SchemaError, match=rf"split\['{key}'\]"):
        cli.cmd_train(cfg)


def test_periodic_record_is_rejected_naming_it(tmp_path):
    # graphs, the residual layer and the basis expansion ignore lattice
    # images, so a periodic record would be silently mispredicted
    stems = dataio.make_synthetic_dataset(tmp_path / "data", n_records=2,
                                          seed=14, shape=(6, 6, 6))
    types, coords, grid = dataio.load_record(stems[1])
    dataio.save_record(stems[1], types, coords, geometry.VoxelGrid(
        grid.shape, grid.cell, grid.origin, grid.values, pbc=True))
    assert dataio.load_record(stems[1])[2].pbc  # the loader accepts it
    cfg = cli.load_run_config(write_config(
        tmp_path, tmp_path / "data", tmp_path / "out", n_iter=0))
    with pytest.raises(SchemaError, match=r"rec001\.json: field 'pbc'"):
        cli.cmd_train(cfg)
