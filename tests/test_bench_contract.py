"""The benchmark under ``perfbench/`` calls the package by name: the
functions it wraps, the arguments its hooks read, and the training step it
times. These tests import it, unchanged, check that it still fits, and
replay some of its stored reference outputs in-process."""

import ast
import inspect
import os
import pathlib
import sys

import numpy as np
import pytest

from infgcn import dataio

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

# the call arguments each argument-reading hook binds by name
HOOK_ARGS = {
    "layers.conv_forward": ("graph", "params", "counters"),
    "layers.radial_forward": ("counters",),
    "layers.residual_forward": ("counters",),
    "basis.expand_density": ("queries", "centers", "spec"),
    "basis.expand_density_backward": ("queries", "centers", "spec"),
    "model.predict_density": ("queries",),
}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import child
    import probes
    import tracer
    return child, probes, tracer


def test_probed_functions_bind_the_arguments_hooks_read(bench):
    _, probes, tracer = bench
    for module, attrs in probes.FUNCTIONS:
        for attr in attrs:
            assert callable(getattr(module, attr, None)), \
                f"{module.__name__}.{attr}"
    hooks = tracer.Tracer(probes.TARGETS)
    probes.make_hooks(hooks)
    reading = {label for label, hook in hooks.hooks.items()
               if isinstance(hook, probes._Bound)}
    assert reading == set(HOOK_ARGS)
    fns = {label: getattr(module, attr) for label, module, attr
           in probes.TARGETS}
    for label, names in HOOK_ARGS.items():
        params = inspect.signature(fns[label]).parameters
        assert all(n in params for n in names), (label, names)


def test_train_workload_reset_repeats_the_trajectory(bench, tmp_path):
    # run_op resets the workload after the trajectory's last step, from the
    # copy of the initial parameters it took; an unflatten that rebinds the
    # buffer instead of writing into it would leave the arrays trained
    child = bench[0]
    stems = dataio.make_synthetic_dataset(tmp_path / "data", seed=3,
                                          n_atoms=3, shape=(8, 8, 8))
    work = child.TrainWorkload({
        "seed": 5, "queries": 32, "traj_len": 2, "lr": 1e-2,
        "stem": stems[0], "ckpt_out": str(tmp_path / "traj.ckpt")})
    recs, after_step1 = [], None
    for _ in range(3):
        rec, _ = child.run_op(work)
        recs.append(rec)
        # the arrays the forward reads are the buffer the optimizer wrote
        assert np.array_equal(np.concatenate(
            [a.ravel() for _, a in work.params.named_arrays()]),
            work.params.flat)
        if after_step1 is None:
            after_step1 = work.params.flat.copy()
    assert [r["error"] for r in recs] == [None] * 3
    assert [r["step"] for r in recs] == [1, 2, 1]
    assert recs[2]["loss"] == recs[0]["loss"]
    assert (tmp_path / "traj.ckpt").exists()
    assert np.array_equal(work.params.flat, after_step1)


@pytest.fixture
def bench_run(bench):
    import run
    return (run,) + bench


def _rel_err(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("seed", [0, 10])
def test_train_a1_replays_its_golden_losses(bench_run, tmp_path, seed):
    # the benchmark's stored five-step trajectory, from the inputs it
    # generates for this seed; an op that drifts past 1e-6 fails there
    run, child, _, _ = bench_run
    spec = run.make_inputs("train-a1", seed, tmp_path / "data")
    work = child.TrainWorkload(dict(spec, seed=seed))
    want = run.load_golden("train-a1", seed)["loss"]
    got = []
    for _ in want:
        rec, _ = child.run_op(work)
        assert rec["error"] is None
        got.append(rec["loss"])
    assert max(map(_rel_err, got, want)) <= 1e-6, (got, want)


def test_eval_grid_replays_its_golden_nmae_and_checksum(bench_run, tmp_path):
    # one cmd_eval pass under the benchmark's counting hooks, as its count
    # pass runs it: per-record and aggregate NMAE and the prediction
    # checksum hold to 1e-9
    run, child, probes, tracer = bench_run
    spec = run.make_inputs("eval-grid", 0, tmp_path / "data")
    work = child.EvalWorkload(dict(spec, seed=0))
    want = run.load_golden("eval-grid", 0)
    counter = tracer.Tracer(probes.TARGETS)
    _, checksum = probes.make_hooks(counter)
    counter.op = "count"
    counter.install()
    try:
        rec, _ = child.run_op(work)
    finally:
        counter.uninstall()
    assert rec["error"] is None
    assert rec["records"].keys() == want["records"].keys()
    for name, value in rec["records"].items():
        assert _rel_err(value, want["records"][name]) <= 1e-9, name
    assert _rel_err(rec["aggregate"], want["aggregate"]) <= 1e-9
    got = checksum.value("count")
    assert max(map(_rel_err, got, want["checksum"])) <= 1e-9, got



def _identifiers(node):
    """Every name ``node`` refers to: a Name, an Attribute, an import alias
    or an identifier string constant (perfbench names what it wraps)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield from (n.name.rsplit(".", 1)[-1], n.asname)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            yield n.value


def test_every_public_definition_is_used_by_the_package_or_perfbench():
    # a public function or class that only tests call belongs with them;
    # a top-level statement's own name and ``__all__`` lists do not count
    package = sorted(pathlib.Path(ROOT, "src", "infgcn").glob("*.py"))
    defined, users = [], {}
    for path in package + sorted(pathlib.Path(PERFBENCH).rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            where = (path, stmt.lineno)
            if isinstance(stmt, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in stmt.targets):
                continue
            if path in package and isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                defined.append((stmt.name, where))
            for name in _identifiers(stmt):
                users.setdefault(name, set()).add(where)
    unused = [f"{where[0].stem}.{name}" for name, where in defined
              if not users.get(name, set()) - {where}]
    assert not unused, unused


def test_no_module_keeps_an_export_list():
    # the leading underscore is the one statement of what is public
    for path in sorted(pathlib.Path(ROOT, "src", "infgcn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(
                           node, (ast.AugAssign, ast.AnnAssign)) else [])
            assert not any(getattr(t, "id", None) == "__all__"
                           for t in targets), path.name
