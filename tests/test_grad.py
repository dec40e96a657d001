import ctypes
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from infgcn import basis, geometry, grad, layers, model, so3
from infgcn.errors import DomainError, NonFiniteError


def make_instance(cfg, seed=0, n_atoms=4, n_queries=12):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-1.0, 1.0, size=(n_atoms, 3))
    types = rng.integers(0, cfg.vocab, size=n_atoms)
    graph = geometry.MolecularGraph.from_coords(types, coords, cfg.cutoff)
    queries = rng.uniform(-1.5, 1.5, size=(n_queries, 3))
    target = rng.standard_normal(n_queries)
    return graph, queries, target


class ScalarParams:
    """Minimal parameter object for optimizer unit tests: one array, a view
    of its flat buffer."""

    def __init__(self, x0):
        self.flat = np.array([float(x0)])
        self.x = self.flat[:1]

    def named_arrays(self):
        return [("x", self.x)]


def test_registry_round_trip():
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=2, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=1, zero_heads=False)
    reg = grad.ParamRegistry(params)
    assert reg.n_params == params.flat.size
    flat = reg.flatten(params)
    flat2 = flat + np.arange(flat.size) * 1e-3
    reg.unflatten(params, flat2)
    assert np.array_equal(reg.flatten(params), flat2)
    name, off = reg.slot_of(0)
    assert name == "embed" and off == 0
    name, _ = reg.slot_of(reg.n_params - 1)
    assert name == "residual.radial.head_b"
    with pytest.raises(DomainError):
        reg.slot_of(reg.n_params)
    with pytest.raises(DomainError):
        reg.unflatten(params, flat2[:-1])


def test_unused_embedding_row_gets_zero_grad():
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=1, cutoff=3.0,
                            vocab=5, r_max=3.0)
    params = model.init_params(cfg, seed=2, zero_heads=False)
    rng = np.random.default_rng(3)
    coords = rng.uniform(-1.0, 1.0, size=(4, 3))
    types = np.array([0, 1, 1, 2])  # rows 3 and 4 never referenced
    graph = geometry.MolecularGraph.from_coords(types, coords, cfg.cutoff)
    queries = rng.uniform(-1.0, 1.0, size=(10, 3))
    target = rng.standard_normal(10)
    _, flat_grad = grad.loss_and_grad(params, graph, queries, target)
    grads = grad.ParamRegistry(params).views(flat_grad)
    assert np.all(grads["embed"][3] == 0.0)
    assert np.all(grads["embed"][4] == 0.0)
    assert np.any(grads["embed"][:3] != 0.0)


def _gradient_with_empty_filled(monkeypatch, value, cfg):
    """``loss_and_grad``'s gradient when its ``np.empty`` returns memory
    filled with ``value``, as `nan_twin` fills layer gradients."""
    fake = types.ModuleType("numpy")
    fake.__dict__.update(vars(np))
    fake.empty = lambda shape, *args, **kw: np.full(shape, value, *args, **kw)
    with monkeypatch.context() as patch:
        patch.setattr(grad, "np", fake)
        params = model.init_params(cfg, seed=24, zero_heads=False)
        return grad.loss_and_grad(params, *make_instance(cfg, seed=25))[1]


@pytest.mark.parametrize("options", [{}, {"mode": "fc"},
                                     {"residual": False}])
def test_gradient_vector_needs_no_zero_fill(monkeypatch, options):
    # an entry no backward writes keeps the NaN; vocab 5 leaves unused rows
    cfg = model.ModelConfig(l_max=2, channels=3, n_layers=2, cutoff=3.0,
                            vocab=5, r_max=3.0, **options)
    got = _gradient_with_empty_filled(monkeypatch, np.nan, cfg)
    assert np.array_equal(got, _gradient_with_empty_filled(monkeypatch, 0.0,
                                                           cfg))


def test_linear_head_matches_closed_form():
    # one layer, identity activations, no residual: the prediction is an
    # affine function of the conv head parameters, so the least-squares
    # gradient 2 J^T (pred - target) is exact
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=1, cutoff=3.0,
                            vocab=3, residual=False, act0="identity",
                            act_l="identity", r_max=3.0)
    params = model.init_params(cfg, seed=4, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=5, n_queries=8)
    loss, flat_g = grad.loss_and_grad(params, graph, queries, target)
    reg = grad.ParamRegistry(params)
    flat = reg.flatten(params)
    base = model.predict_density(params, graph, queries)
    resid = base - target

    head = [i for i, name in enumerate(reg.names)
            if name in ("conv0.radial.head_w", "conv0.radial.head_b")]
    rng = np.random.default_rng(6)
    offs = []
    for i in head:
        lo = reg.offsets[i]
        n = int(np.prod(reg.shapes[i]))
        offs.extend(lo + rng.choice(n, size=min(20, n), replace=False))
    for i in offs:
        bumped = flat.copy()
        bumped[i] += 1.0
        reg.unflatten(params, bumped)
        col = model.predict_density(params, graph, queries) - base
        reg.unflatten(params, flat)
        want = 2.0 * float(resid @ col)
        got = flat_g[i]
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("l_max,residual,mode", [
    (0, True, "channel"),
    (1, False, "channel"),
    (2, True, "fc"),
])
def test_fd_gradients_across_axes(l_max, residual, mode):
    cfg = model.ModelConfig(l_max=l_max, channels=2, n_layers=2, cutoff=3.0,
                            vocab=3, residual=residual, mode=mode, r_max=3.0)
    params = model.init_params(cfg, seed=7 + l_max, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=8 + l_max)
    report = grad.check_gradient(params, graph, queries, target,
                                 n_sampled=80, seed=9)
    assert report["pass"], report["worst"]
    assert report["max_rel_error"] < 1e-4


@pytest.mark.parametrize("pbc", [True, False])
def test_fd_gradients_on_grid_targets(pbc):
    # queries and targets drawn through the voxel pipeline, wrapped and
    # clamped variants
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=1, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=10, zero_heads=False)
    rng = np.random.default_rng(11)
    n = 8
    vals = rng.standard_normal(n ** 3)
    g0 = geometry.VoxelGrid((n, n, n), 3.0 * np.eye(3),
                            np.full(3, -1.5), vals, pbc=pbc)
    coords = rng.uniform(-1.0, 1.0, size=(4, 3))
    types = rng.integers(0, cfg.vocab, size=4)
    graph = geometry.MolecularGraph.from_coords(types, coords, cfg.cutoff)
    queries = rng.uniform(-1.4, 1.4, size=(12, 3))
    target = geometry.trilinear_sample(g0, queries)
    report = grad.check_gradient(params, graph, queries, target,
                                 n_sampled=60, seed=12,
                                 volume_weight=g0.voxel_volume)
    assert report["pass"], report["worst"]


def test_check_gradient_quadratic_exact():
    # restricted to the head parameters of an identity-activation model the
    # loss is exactly quadratic, so central differences are exact at any h
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=1, cutoff=3.0,
                            vocab=3, residual=False, act0="identity",
                            act_l="identity", r_max=3.0)
    params = model.init_params(cfg, seed=13, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=14, n_queries=16)
    report = grad.check_gradient(
        params, graph, queries, target, n_sampled=50, h=1e-3, seed=15,
        names=("conv0.radial.head_w", "conv0.radial.head_b"))
    assert report["max_rel_error"] < 1e-9
    with pytest.raises(DomainError):
        grad.check_gradient(params, graph, queries, target,
                            names=("no.such.array",))


def test_zero_feature_block_has_finite_gradient():
    # zero heads leave every degree >= 1 block exactly zero going into the
    # gate; the epsilon keeps the norm-gate adjoint finite there
    cfg = model.ModelConfig(l_max=2, channels=2, n_layers=2, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=16, zero_heads=True)
    graph, queries, target = make_instance(cfg, seed=17)
    loss, grads = grad.loss_and_grad(params, graph, queries, target)
    assert np.isfinite(loss)
    for g in grad.ParamRegistry(params).views(grads).values():
        assert np.all(np.isfinite(g))


def test_gradient_descent_zero_grad_is_identity():
    p = ScalarParams(2.5)
    reg = grad.ParamRegistry(p)
    state = grad.init_optimizer(reg, method="gradient-descent", lr=0.1)
    grad.optimize_step(state, p, np.zeros(1), reg)
    assert p.x[0] == 2.5
    assert state.step == 1


def test_quadratic_descent_is_monotone():
    p = ScalarParams(3.0)
    reg = grad.ParamRegistry(p)
    state = grad.init_optimizer(reg, method="gradient-descent", lr=0.1)
    losses = [p.x[0] ** 2]
    for _ in range(40):
        grad.optimize_step(state, p, 2.0 * p.x, reg)
        losses.append(p.x[0] ** 2)
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-3


def test_adaptive_moments_converges():
    p = ScalarParams(3.0)
    reg = grad.ParamRegistry(p)
    state = grad.init_optimizer(reg, method="adaptive-moments", lr=0.05)
    for _ in range(400):
        grad.optimize_step(state, p, 2.0 * p.x, reg)
    assert abs(p.x[0]) < 1e-2
    with pytest.raises(DomainError):
        grad.init_optimizer(reg, method="momentum")


def test_plateau_halves_after_patience():
    reg = grad.ParamRegistry(ScalarParams(0.0))
    state = grad.init_optimizer(reg, lr=1e-3, patience=10)
    decayed = [grad.plateau_update(state, 1.0) for _ in range(11)]
    assert decayed == [False] * 10 + [True]
    assert state.lr == 5e-4
    # improvements reset the counter
    assert not grad.plateau_update(state, 0.5)
    for v in (0.4, 0.3, 0.2):
        assert not grad.plateau_update(state, v)
    assert state.lr == 5e-4
    with pytest.raises(NonFiniteError):
        grad.plateau_update(state, float("nan"))


def test_non_finite_gradient_aborts():
    p = ScalarParams(1.0)
    reg = grad.ParamRegistry(p)
    state = grad.init_optimizer(reg)
    with pytest.raises(NonFiniteError):
        grad.optimize_step(state, p, np.array([np.nan]), reg)


@pytest.mark.parametrize("n", [0, 2])
def test_gradient_of_wrong_length_is_rejected(n):
    p = ScalarParams(1.0)
    reg = grad.ParamRegistry(p)
    state = grad.init_optimizer(reg)
    with pytest.raises(DomainError, match="^gradient must have shape "
                       rf"\(1,\), got \({n},\)$"):
        grad.optimize_step(state, p, np.zeros(n), reg)
    assert p.flat[0] == 1.0 and state.step == 0


def test_non_finite_gradient_names_its_array():
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=2, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=36)
    reg = grad.ParamRegistry(params)
    state = grad.init_optimizer(reg)
    grads = np.zeros(reg.n_params)
    reg.views(grads)["conv1.radial.head_w"][2, 1] = np.inf
    with pytest.raises(NonFiniteError, match=r"^non-finite gradient for "
                       r"conv1\.radial\.head_w$"):
        grad.optimize_step(state, params, grads, reg)


def test_training_loop_is_deterministic():
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=1, cutoff=3.0,
                            vocab=3, r_max=3.0)

    def run():
        params = model.init_params(cfg, seed=20, zero_heads=True)
        graph, queries, target = make_instance(cfg, seed=21)
        reg = grad.ParamRegistry(params)
        state = grad.init_optimizer(reg, lr=1e-2)
        for _ in range(5):
            _, grads = grad.loss_and_grad(params, graph, queries, target)
            grad.optimize_step(state, params, grads, reg)
        return reg.flatten(params)

    assert np.array_equal(run(), run())

def _allocating_adam(state, flat, g):
    """The textbook Adam update with fresh arrays, kept as the reference
    for optimize_step's, which keeps its moments unnormalized."""
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    mhat = state.m / (1.0 - state.beta1 ** state.step)
    vhat = state.v / (1.0 - state.beta2 ** state.step)
    return flat - state.lr * mhat / (np.sqrt(vhat) + state.eps)


def _assert_adam_close(state, moved, ref, want_moved):
    """optimize_step's moments and parameter moves against the textbook's,
    to 1e-12 of each one's scale: the folded update rounds differently.
    Its moments compare through their factors, m = (1 - b1) m~ and
    v = (1 - b2) v~."""
    for got, want in (((1.0 - state.beta1) * state.m, ref.m),
                      ((1.0 - state.beta2) * state.v, ref.v),
                      (moved, want_moved)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_adam_in_place_matches_allocating_update():
    cfg = model.ModelConfig(l_max=2, channels=3, n_layers=2, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=30, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=31)
    reg = grad.ParamRegistry(params)
    state = grad.init_optimizer(reg, lr=1e-2)
    ref = grad.init_optimizer(reg, lr=1e-2)
    m, v = state.m, state.v
    flat0 = reg.flatten(params)
    flat = flat0
    for step in range(1, 7):
        if step == 4:  # a plateau halves the step size mid-run
            state.lr = ref.lr = state.lr / 2
        _, grads = grad.loss_and_grad(params, graph, queries, target)
        ref.step = step
        flat = _allocating_adam(ref, flat, grads)
        grad.optimize_step(state, params, grads, reg)
        assert state.step == step
        _assert_adam_close(state, params.flat - flat0, ref, flat - flat0)
    assert state.m is m and state.v is v  # updated in place


def _sliced_instance(monkeypatch, method):
    # 7-entry slices: the update spans many slices and ends in a partial one
    monkeypatch.setattr(grad, "_SLICE", 7)
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=1, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=33, zero_heads=False)
    reg = grad.ParamRegistry(params)
    assert reg.n_params % 7 and reg.n_params > 10 * 7
    return params, reg, grad.init_optimizer(reg, method=method, lr=1e-2)


@pytest.mark.parametrize("method", grad._METHODS)
def test_sliced_update_matches_allocating_update(monkeypatch, method):
    params, reg, state = _sliced_instance(monkeypatch, method)
    ref = grad.init_optimizer(reg, method=method, lr=1e-2)
    flat0 = params.flat.copy()
    flat = flat0
    rng = np.random.default_rng(34)
    for step in range(1, 7):
        if step == 4:
            state.lr = ref.lr = state.lr / 2
        grads = rng.standard_normal(reg.n_params) * 10.0 ** rng.integers(-3, 3)
        ref.step = step
        grad.optimize_step(state, params, grads, reg)
        if method == "gradient-descent":
            flat = flat - ref.lr * grads
            assert not state.m.any() and not state.v.any()
            assert np.array_equal(params.flat, flat)
        else:
            flat = _allocating_adam(ref, flat, grads)
            _assert_adam_close(state, params.flat - flat0, ref, flat - flat0)
    assert state.step == 6


@pytest.mark.parametrize("method", grad._METHODS)
def test_non_finite_gradient_in_last_slice_writes_nothing(monkeypatch,
                                                          method):
    params, reg, state = _sliced_instance(monkeypatch, method)
    rng = np.random.default_rng(35)
    for _ in range(2):
        grad.optimize_step(state, params, rng.standard_normal(reg.n_params),
                           reg)
    before = [params.flat.copy(), state.m.copy(), state.v.copy()]
    grads = rng.standard_normal(reg.n_params)
    grads[-1] = np.nan
    with pytest.raises(NonFiniteError):
        grad.optimize_step(state, params, grads, reg)
    for got, want in zip([params.flat, state.m, state.v], before):
        assert np.array_equal(got, want)
    assert state.step == 2


def test_update_of_one_slice_starts_no_worker(monkeypatch):
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=1, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=47, zero_heads=False)
    reg = grad.ParamRegistry(params)
    assert reg.n_params <= grad._SLICE
    split = model.bind(params, params.flat.copy())
    states = [grad.init_optimizer(reg, lr=1e-2) for _ in range(2)]
    rng = np.random.default_rng(48)
    for _ in range(3):
        grads = rng.standard_normal(reg.n_params)
        with monkeypatch.context() as m:  # both halves, one on a worker
            m.setattr(grad, "_SLICE", 7)
            grad.optimize_step(states[1], split, grads, reg)
        with monkeypatch.context() as m:
            m.setattr(grad, "ThreadPoolExecutor", None)  # no pool may start
            grad.optimize_step(states[0], params, grads, reg)
    assert np.array_equal(params.flat, split.flat)
    assert np.array_equal(states[0].m, states[1].m)
    assert np.array_equal(states[0].v, states[1].v)


def test_optimizer_step_allocates_no_parameter_sized_temporary():
    # 2.2M parameters, 18 MB per flat vector: the update allocated two such
    # temporaries (34.3 MB peak); in slices, screened by a sum, the peak is
    # the two threads' 1 MB scratch buffers
    params = model.init_params(model.ModelConfig(), seed=0, zero_heads=False)
    reg = grad.ParamRegistry(params)
    state = grad.init_optimizer(reg)
    grads = np.random.default_rng(36).standard_normal(reg.n_params)
    grad.optimize_step(state, params, grads, reg)
    peak = _traced_peak(lambda: grad.optimize_step(state, params, grads, reg))
    assert peak < 4.0


def _assert_views_of_flat(params):
    """Every trainable array is a view of ``params.flat`` at its offset."""
    for name, a in params.named_arrays():
        assert np.shares_memory(a, params.flat), name
    assert np.array_equal(
        np.concatenate([a.ravel() for _, a in params.named_arrays()]),
        params.flat)


def test_param_arrays_stay_views_of_one_buffer(tmp_path):
    cfg = model.ModelConfig(l_max=2, channels=3, n_layers=2, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=40, zero_heads=False)
    _assert_views_of_flat(params)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(params, path)
    loaded = model.load_checkpoint(path)
    _assert_views_of_flat(loaded)
    assert np.array_equal(loaded.flat, params.flat)
    reg = grad.ParamRegistry(loaded)
    buf = loaded.flat
    # distinct values, so an array viewing the wrong offset shows
    reg.unflatten(loaded, np.arange(reg.n_params) * 1e-3)
    assert loaded.flat is buf
    _assert_views_of_flat(loaded)
    graph, queries, target = make_instance(cfg, seed=41)
    state = grad.init_optimizer(reg)
    _, grads = grad.loss_and_grad(loaded, graph, queries, target)
    before = loaded.flat.copy()
    grad.optimize_step(state, loaded, grads, reg)
    assert loaded.flat is buf and not np.array_equal(loaded.flat, before)
    _assert_views_of_flat(loaded)


def test_gradient_whose_sum_overflows_still_updates():
    # two finite entries of 1e308 sum to inf: the screen falls back to the
    # full scan, which finds every entry finite
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=2, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=36)
    reg = grad.ParamRegistry(params)
    state = grad.init_optimizer(reg, method="gradient-descent", lr=1e-3)
    want = params.flat.copy()
    grads = np.zeros(reg.n_params)
    grads[[3, -2]] = 1e308
    want -= 1e-3 * grads
    grad.optimize_step(state, params, grads, reg)
    assert np.array_equal(params.flat, want)
    assert state.step == 1


def test_bind_views_another_vector_and_leaves_params_alone():
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=2, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=42, zero_heads=False)
    before = params.flat.copy()
    vec = np.arange(params.flat.size) * 1e-3
    bound = model.bind(params, vec)
    assert bound.flat is vec
    _assert_views_of_flat(bound)
    _assert_views_of_flat(params)
    assert np.array_equal(params.flat, before)
    # fixed arrays and the config are shared, not copied
    assert bound.convs[1].radial.centers is params.convs[1].radial.centers
    assert bound.config is params.config


def _count_calls(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_loss_and_grad_runs_radial_nets_and_harmonics_once(monkeypatch):
    # default model, 1024 queries: 3 conv layers run a radial net each and
    # the residual layer its net's hidden layers alone, edge frames are
    # built once per conv layer, and harmonics are evaluated once for the
    # residual layer and once per 512-query basis chunk. The backward passes
    # read the forward's caches, so these are all the calls (a backward
    # that recomputed its forward would double every count).
    cfg = model.ModelConfig()
    params = model.init_params(cfg, seed=0, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=32, n_atoms=5,
                                           n_queries=1024)
    counts = {}
    for name in ("radial_forward", "_hidden", "_frame"):
        _count_calls(monkeypatch, layers, name, counts)
    _count_calls(monkeypatch, so3, "eval_real_sh", counts)
    grad.loss_and_grad(params, graph, queries, target)
    assert counts == {"radial_forward": 3, "_hidden": 4, "_frame": 3,
                      "eval_real_sh": 3}


def _record_basis_chunks(monkeypatch):
    """Lists that receive ``(thread, out)`` of every `so3.eval_real_sh`
    call and ``(thread, Y)`` of every basis chunk allocated."""
    calls, chunks = [], []
    real_sh, real_chunks = so3.eval_real_sh, basis._factor_chunks

    def eval_real_sh(l_max, d, rows=False, out=None):
        calls.append((threading.get_ident(), out))
        return real_sh(l_max, d, rows=rows, out=out)

    def factor_chunks(*args, **kwargs):
        for sl, (E, Y) in real_chunks(*args, **kwargs):
            chunks.append((threading.get_ident(), Y))
            yield sl, (E, Y)

    monkeypatch.setattr(so3, "eval_real_sh", eval_real_sh)
    monkeypatch.setattr(basis, "_factor_chunks", factor_chunks)
    return calls, chunks


def test_training_step_fills_basis_chunks_on_the_worker(monkeypatch):
    # 1030 queries make three basis chunks. The calling thread allocates
    # them and the worker fills them, in the buffers given; the residual
    # layer's harmonics, with no buffer, are the worker's too
    cfg = model.ModelConfig(l_max=3, channels=4)
    params = model.init_params(cfg, seed=47, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=48, n_atoms=5,
                                           n_queries=1030)
    main = threading.get_ident()
    calls, chunks = _record_basis_chunks(monkeypatch)
    grad.loss_and_grad(params, graph, queries, target)
    assert [t for t, _ in chunks] == [main] * 3
    assert [out for _, out in calls if out is not None] == [
        Y for _, Y in chunks]
    assert len(calls) == 4
    assert main not in {t for t, _ in calls}


def test_prediction_fills_basis_chunks_inline(monkeypatch):
    cfg = model.ModelConfig(l_max=3, channels=4)
    params = model.init_params(cfg, seed=47, zero_heads=False)
    graph, queries, _ = make_instance(cfg, seed=48, n_atoms=5,
                                      n_queries=1030)
    main = threading.get_ident()
    calls, chunks = _record_basis_chunks(monkeypatch)
    model.predict_density(params, graph, queries)
    assert [t for t, _ in chunks] == [main] * 3
    assert [out for _, out in calls if out is not None] == [
        Y for _, Y in chunks]
    assert {t for t, _ in calls} == {main}


def _inline_jobs(monkeypatch):
    """Make the forward trace and every backward ignore ``submit``, as
    direct callers run them: the residual layer's pairs and every radial
    backward then run inline."""
    for module, name in ((model, "forward_trace"),
                         (layers, "residual_backward"),
                         (layers, "conv_backward")):
        def inline(*args, submit=None, _real=getattr(module, name), **kw):
            return _real(*args, **kw)

        monkeypatch.setattr(module, name, inline)


def _leaves(x, path=""):
    """``(path, array)`` of every array in nested dicts, lists and tuples."""
    if isinstance(x, dict):
        items = x.items()
    elif isinstance(x, (list, tuple)):
        items = enumerate(x)
    else:
        return [(path, x)] if isinstance(x, np.ndarray) else []
    return [leaf for k, v in items for leaf in _leaves(v, f"{path}/{k}")]


def _record_traces(monkeypatch):
    """A list that receives a copy of every array of each forward trace."""
    traces, real = [], model.forward_trace

    def recorded(*args, **kwargs):
        dens, trace = real(*args, **kwargs)
        traces.append([(p, a.copy()) for p, a in _leaves(trace)])
        return dens, trace

    monkeypatch.setattr(model, "forward_trace", recorded)
    return traces


@pytest.mark.parametrize("residual", [True, False])
@pytest.mark.parametrize("mode,l_max", [("channel", 7), ("fc", 3)])
@pytest.mark.parametrize("edgeless", [False, True])
def test_worker_backward_matches_inline_backward(monkeypatch, mode, l_max,
                                                 residual, edgeless):
    cfg = model.ModelConfig(mode=mode, l_max=l_max, channels=4,
                            residual=residual)
    params = model.init_params(cfg, seed=37, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=38, n_atoms=5,
                                           n_queries=64)
    if edgeless:  # no conv layer submits a row
        graph = geometry.MolecularGraph.from_coords(
            graph.atom_type, 4.0 * cfg.cutoff * graph.atom_coord, cfg.cutoff)
        assert graph.n_edges == 0
    traces = _record_traces(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave as often as they can
    try:
        loss, vec = grad.loss_and_grad(params, graph, queries, target)
    finally:
        sys.setswitchinterval(interval)
    _inline_jobs(monkeypatch)
    want_loss, want = grad.loss_and_grad(params, graph, queries, target)
    assert loss == want_loss
    assert np.array_equal(vec, want)
    got, ref = traces
    assert [p for p, _ in got] == [p for p, _ in ref]
    assert any("residual_cache/radial" in p for p, _ in got) == residual
    for (path, a), (_, b) in zip(got, ref):
        assert np.array_equal(a, b), path


def test_worker_forward_counts_match_inline_counts():
    # the worker's radial forward counts into the caller's counters while
    # the calling thread's conv layers do: same totals, same key order. The
    # worker runs two jobs: the basis factors, then the residual pairs
    cfg = model.ModelConfig(l_max=3, channels=4)
    params = model.init_params(cfg, seed=43, zero_heads=False)
    graph, queries, _ = make_instance(cfg, seed=44, n_atoms=5, n_queries=64)
    want = layers.OpCounters()
    want_dens, _ = model.forward_trace(params, graph, queries, counters=want)

    got, jobs = layers.OpCounters(), []

    def submit(fn, *args):
        jobs.append(pool.submit(fn, *args))
        return jobs[-1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            dens, _ = model.forward_trace(params, graph, queries,
                                          counters=got, submit=submit)
    finally:
        sys.setswitchinterval(interval)
    assert len(jobs) == 2
    assert np.array_equal(dens, want_dens)
    assert list(got.counts.items()) == list(want.counts.items())


def test_worker_error_is_raised_after_every_job_finishes(monkeypatch):
    cfg = model.ModelConfig(l_max=2, channels=3, n_layers=3, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=39, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=40)
    # every net's backward ends in its hidden layers': the conv nets' run
    # inside radial_backward, the residual net's is submitted alone
    real, main = layers._hidden_backward, threading.get_ident()
    finished, threads = [], {}

    def hidden_backward(net, *args):
        threads[id(net)] = threading.get_ident()
        try:
            # the residual net's job is submitted first, then conv2's;
            # conv0's comes last
            if net is params.convs[2].radial:
                raise DomainError("conv2 radial failed")
            if net is params.convs[0].radial:
                time.sleep(0.2)
            real(net, *args)
        finally:
            finished.append(net)

    monkeypatch.setattr(layers, "_hidden_backward", hidden_backward)
    n_threads = threading.active_count()
    with pytest.raises(DomainError, match="^conv2 radial failed$"):
        grad.loss_and_grad(params, graph, queries, target)
    nets = [params.residual.radial] + [cp.radial for cp in params.convs]
    assert len(finished) == len(nets)
    assert finished[0] is params.residual.radial
    assert finished[-1] is params.convs[0].radial
    assert sorted(threads) == sorted(id(net) for net in nets)
    assert main not in threads.values()
    assert threading.active_count() == n_threads


def test_encode_error_is_raised_after_the_forward_job_finishes(monkeypatch):
    # the worker's residual job fails too, later: the caller gets the
    # encode's error, as when both ran inline, and only once the job is done
    cfg = model.ModelConfig(l_max=2, channels=3, n_layers=2, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=45, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=46)
    main, finished = threading.get_ident(), []
    real_conv = layers.conv_forward

    def residual_pairs(*args):
        time.sleep(0.2)
        finished.append(threading.get_ident())
        raise DomainError("residual pairs failed")

    def conv_forward(*args, **kwargs):
        return np.full_like(real_conv(*args, **kwargs), np.nan)

    monkeypatch.setattr(layers, "_residual_pairs", residual_pairs)
    monkeypatch.setattr(layers, "conv_forward", conv_forward)
    n_threads = threading.active_count()
    with pytest.raises(NonFiniteError, match=r"conv_forward\[0\]"):
        grad.loss_and_grad(params, graph, queries, target)
    assert finished and main not in finished
    assert threading.active_count() == n_threads


@pytest.mark.parametrize("encode_fails", [False, True])
def test_factor_job_error_is_raised_after_every_job_finishes(monkeypatch,
                                                             encode_fails):
    # the basis factors' job fails at once, while the residual job still
    # runs: the caller gets the factors' error once that job is done. An
    # encode error still wins, as when both ran inline
    cfg = model.ModelConfig(l_max=2, channels=3, n_layers=2, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=45, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=46)
    main, finished = threading.get_ident(), []
    real_pairs, real_conv = layers._residual_pairs, layers.conv_forward

    def fill_chunks(*args):
        raise DomainError("basis factors failed")

    def residual_pairs(*args):
        time.sleep(0.2)
        finished.append(threading.get_ident())
        return real_pairs(*args)

    def conv_forward(*args, **kwargs):
        return np.full_like(real_conv(*args, **kwargs), np.nan)

    monkeypatch.setattr(basis, "_fill_chunks", fill_chunks)
    monkeypatch.setattr(layers, "_residual_pairs", residual_pairs)
    if encode_fails:
        monkeypatch.setattr(layers, "conv_forward", conv_forward)
    n_threads = threading.active_count()
    error, match = ((NonFiniteError, r"conv_forward\[0\]") if encode_fails
                    else (DomainError, "^basis factors failed$"))
    with pytest.raises(error, match=match):
        grad.loss_and_grad(params, graph, queries, target)
    assert finished and main not in finished
    assert threading.active_count() == n_threads


def _molecule(seed, n_atoms=18, half_width=2.8, min_sep=1.8):
    """A QM9-sized molecule: atoms drawn in a cube, at least ``min_sep``
    bohr apart, under the default cutoff."""
    rng = np.random.default_rng(seed)
    coords = []
    while len(coords) < n_atoms:
        p = rng.uniform(-half_width, half_width, 3)
        if all(np.linalg.norm(p - q) >= min_sep for q in coords):
            coords.append(p)
    types = rng.integers(0, 5, size=n_atoms)
    return geometry.MolecularGraph.from_coords(types, np.array(coords), 3.0)


def _traced_peak(fn):
    """Peak of traced allocations (numpy's included) while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def test_predict_density_builds_no_caches():
    # 18 atoms, the first 4096 nodes of a 24^3 grid over a 10 bohr box: the
    # forward-only path peaked at 31 MB before the caches existed; keeping
    # the basis factors alone would add ~47 MB, the radial activations of
    # the residual layer ~20 MB
    graph = _molecule(0)
    params = model.init_params(model.ModelConfig(), seed=0, zero_heads=False)
    grid = geometry.VoxelGrid((24, 24, 24), 10.0 * np.eye(3),
                              np.full(3, -5.0), np.zeros(24 ** 3))
    queries = geometry.grid_coordinates(grid)[:4096]
    model.predict_density(params, graph, queries[:8])  # build the CG memo
    peak = _traced_peak(lambda: model.predict_density(params, graph, queries))
    assert peak < 40.0


def test_fc_training_step_keeps_no_per_path_scalars():
    # fc mode's phi is (E, paths, C, C): ~26 MB per layer at L=5, C=16 and
    # 88 edges. Keeping all three through the backward, and the previous
    # layer's gradients into the next, peaked at 286 MB on this input
    graph = _molecule(0)
    cfg = model.ModelConfig(mode="fc", l_max=5, channels=16)
    params = model.init_params(cfg, seed=0, zero_heads=False)
    rng = np.random.default_rng(1)
    queries = rng.uniform(-5.0, 5.0, size=(1024, 3))
    target = rng.standard_normal(1024)
    grad.loss_and_grad(params, graph, queries[:8], target[:8])
    peak = _traced_peak(
        lambda: grad.loss_and_grad(params, graph, queries, target))
    assert peak < 240.0


def test_training_step_memory_stays_below_allocating_step():
    # one loss_and_grad + optimize_step at 18 atoms and 1024 queries: the
    # caches the backward reads must fit under the peak the step had when
    # the backward recomputed its forward and Adam allocated its
    # temporaries, 154 MB on this input
    graph = _molecule(0)
    params = model.init_params(model.ModelConfig(), seed=0, zero_heads=False)
    rng = np.random.default_rng(1)
    queries = rng.uniform(-5.0, 5.0, size=(1024, 3))
    target = rng.standard_normal(1024)
    reg = grad.ParamRegistry(params)
    state = grad.init_optimizer(reg)
    grad.loss_and_grad(params, graph, queries[:8], target[:8])

    def step():
        _, grads = grad.loss_and_grad(params, graph, queries, target)
        grad.optimize_step(state, params, grads, reg)

    assert _traced_peak(step) < 154.0


def test_training_step_never_decodes_from_the_residual_table(monkeypatch):
    # a batch whose prediction decodes from the residual net's table; the
    # training step's forward keeps a cache and takes its pairs from the
    # worker, so it runs the exact pairs and never reads the table
    cfg = model.ModelConfig(l_max=1, channels=4, n_layers=1, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=54, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=55, n_atoms=5,
                                           n_queries=400)
    assert geometry.radius_pairs(graph.atom_coord, queries,
                                 3.0)[3].size >= 1425
    tables, real = [], layers._decode_table
    monkeypatch.setattr(layers, "_decode_table",
                        lambda p: tables.append(p) or real(p))
    pred = model.predict_density(params, graph, queries)
    assert len(tables) == 1 and layers._DECODE[1] is not None

    def fail(*args):
        raise AssertionError("the training step read the decode table")

    monkeypatch.setattr(layers, "_table_eval", fail)
    monkeypatch.setattr(layers, "_decode_table", fail)
    dens, _ = model.forward_trace(params, graph, queries)
    assert np.abs(dens - pred).max() <= 1e-12 * np.abs(pred).max()
    loss, _ = grad.loss_and_grad(params, graph, queries, target)
    assert np.isfinite(loss)


# seven training steps at train-qm9 size in a fresh interpreter: the malloc
# setting is process-wide, so this process cannot show the parent's faults
# once any test has trained. Prints the minor faults per step over the last
# 3; the kept heap still grew in the third step of some processes
_FAULT_STEPS = """
import resource, sys
import numpy as np
sys.path.insert(0, {tests!r})
from test_grad import _molecule
from infgcn import grad, model
graph = _molecule(0)
params = model.init_params(model.ModelConfig(), seed=0, zero_heads=False)
rng = np.random.default_rng(1)
queries = rng.uniform(-5.0, 5.0, size=(1024, 3))
target = rng.standard_normal(1024)
reg = grad.ParamRegistry(params)
state = grad.init_optimizer(reg)
def step():
    _, g = grad.loss_and_grad(params, graph, queries, target)
    grad.optimize_step(state, params, g, reg)
for _ in range(4):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                    reason="the C library has no mallopt")
def test_training_step_keeps_its_heap_between_steps():
    # 18 atoms, 1024 queries, default model, BLAS on one thread: with
    # glibc's dynamic thresholds each step trimmed the ~45 MB it freed and
    # faulted it in again, 8,812-9,329 minor faults per step (6 processes);
    # with the heap kept, 5-154 (20 processes; glibc 2.36, 2 vCPUs)
    tests = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env.update(PYTHONPATH=str(tests.parent / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", _FAULT_STEPS.format(tests=str(tests))],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    assert float(out.stdout) < 500


@pytest.fixture
def fake_libc(monkeypatch):
    """A C library whose mallopt records its calls in ``libc.calls``, in an
    environment with no malloc settings, and `_keep_heap` not yet run."""
    def mallopt(param, value):
        libc.calls.append((param, value))
        return 1

    libc = types.SimpleNamespace(mallopt=mallopt, calls=[])
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    for k in list(os.environ):
        if k.startswith("MALLOC_") or k == "GLIBC_TUNABLES":
            monkeypatch.delenv(k)
    grad._keep_heap.cache_clear()
    yield libc
    grad._keep_heap.cache_clear()


def test_training_steps_set_malloc_thresholds_once(fake_libc):
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=1, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=5, zero_heads=False)
    graph, queries, target = make_instance(cfg, seed=6)
    model.predict_density(params, graph, queries)
    assert fake_libc.calls == []  # prediction leaves malloc alone
    for _ in range(2):
        grad.loss_and_grad(params, graph, queries, target)
    assert fake_libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("name, value", [
    ("MALLOC_ARENA_MAX", "2"),
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0"),
    ("GLIBC_TUNABLES", "glibc.pthread.rseq=0:glibc.malloc.mmap_max=0"),
])
def test_user_malloc_settings_are_left_alone(fake_libc, monkeypatch, name,
                                             value):
    monkeypatch.setenv(name, value)
    grad._keep_heap()
    assert fake_libc.calls == []


def test_other_tunables_still_keep_the_heap(fake_libc, monkeypatch):
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.pthread.rseq=0")
    grad._keep_heap()
    assert len(fake_libc.calls) == 2


def test_c_library_without_mallopt_is_left_alone(fake_libc, monkeypatch):
    opened = []
    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: opened.append(name) or object())
    grad._keep_heap()
    grad._keep_heap()
    assert opened == [None]  # looked up once, and no error raised
