import json
from pathlib import Path

import numpy as np
import pytest

from infgcn import cli, dataio, geometry, layers, model, so3
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
    ({"split": ["rec000"]}, "split must be an object")])
def test_main_rejects_malformed_config(tmp_path, capsys, bad, needle):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["gradcheck", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and needle in err


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_non_finite_with_last_good(tmp_path):
    stems = dataio.make_synthetic_dataset(tmp_path / "data", seed=8,
                                          shape=(6, 6, 6))
    blob = np.fromfile(stems[0] + ".bin", dtype="<f4")
    blob[17] = np.inf
    blob.tofile(stems[0] + ".bin")
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

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
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
    assert calls["conv"] == 2 * 2  # n_layers x n_records
    assert calls["predict"] == 2 * -(-512 // 37)  # every batch is predicted


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


def test_predict_round_trips_through_cube(tmp_path):
    data, ckpt = oracle_instance(tmp_path, seed=11)
    cfg = cli.load_run_config(write_config(tmp_path, data, tmp_path / "out"))
    report = cli.cmd_predict(cfg, ckpt, out_dir=tmp_path / "cubes")
    entry = report["records"]["orc"]
    assert entry["nmae"] < 1e-4
    _, _, pred_grid = dataio.read_cube(entry["pred"])
    _, _, err_grid = dataio.read_cube(entry["err"])
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
    # intertwiners under scaling), and paths consuming degree >= 1 inputs
    # are nearly silent at init, so hit (1, 0, 1), which carries the O(1)
    # scalar features.
    real = so3.cg_table

    def crooked(l, k, J):
        table = real(l, k, J)
        if (l, k, J) == (1, 0, 1):
            dense = table.dense.copy()
            dense[0, 0, 0] += 5.0
            return so3.CGTable(l, k, J, dense)
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