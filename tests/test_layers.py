import copy
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coeff_rotation import cg_table, rotate_coeffs
from infgcn import basis, geometry, layers, so3
from infgcn.errors import DomainError
from oracles import axis_angle_rotation


def random_feats(rng, n, l_max, channels):
    """(n, channels, (l_max+1)^2) features, drawn one degree at a time."""
    return np.concatenate([rng.standard_normal((n, channels, 2 * l + 1))
                           for l in range(l_max + 1)], axis=2)


def small_instance(rng, n_atoms=5, l_max=2, channels=3, cutoff=3.0,
                   zero_head=False, mode="channel"):
    coords = rng.uniform(-1.5, 1.5, size=(n_atoms, 3))
    graph = geometry.MolecularGraph.from_coords(
        np.zeros(n_atoms, dtype=int), coords, cutoff)
    feats = random_feats(rng, n_atoms, l_max, channels)
    params = layers.init_conv_layer(rng, l_max, channels, cutoff,
                                    mode=mode, zero_head=zero_head)
    return graph, feats, params


def nan_twin(layer):
    """A gradient twin of ``layer``: a copy whose trainable arrays are NaN,
    so an entry a backward fails to write shows."""
    twin = copy.deepcopy(layer)
    for _, owner, attr in twin.slots("grad"):
        getattr(owner, attr).fill(np.nan)
    return twin


def _reference_radial_backward(params, r, grad_out):
    """The radial adjoint in one whole-array pass that computes its own
    activations, as radial_backward did when called without a cache."""
    e = layers._embed(params, r)
    a1 = e @ params.w1 + params.b1
    h1 = layers.silu(a1)
    a2 = h1 @ params.w2 + params.b2
    h2 = layers.silu(a2)
    g_a2 = (grad_out @ params.head_w.T) * layers._silu_grad(a2)
    g_a1 = (g_a2 @ params.w2.T) * layers._silu_grad(a1)
    return {"w1": e.T @ g_a1, "b1": g_a1.sum(axis=0),
            "w2": h1.T @ g_a2, "b2": g_a2.sum(axis=0),
            "head_w": h2.T @ grad_out, "head_b": grad_out.sum(axis=0)}


def _assert_grads_close(twin, want):
    """Every trainable array of a gradient twin against a reference's
    gradients, ``{"self_w": ..., "radial": {name: ...}}``."""
    if "self_w" in want:
        _assert_close(twin.self_w, want["self_w"])
    radial = getattr(twin, "radial", twin)
    assert sorted(want["radial"]) == sorted(a for *_, a in radial.slots(""))
    for key, g in want["radial"].items():
        _assert_close(getattr(radial, key), g)


def test_paths_l1_explicit():
    assert layers.make_paths(1) == (
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 1, 2))


def test_paths_count_and_triangle():
    paths = layers.make_paths(7)
    assert len(paths) == 344
    for l, k, J in paths:
        assert abs(l - k) <= J <= l + k
    assert list(paths) == sorted(paths)


def test_op_counters_lose_no_concurrent_add():
    # a training step's worker and main thread add to one counter at once
    counters, n_threads, n_adds = layers.OpCounters(), 4, 20_000
    barrier = threading.Barrier(n_threads)

    def add():
        barrier.wait(timeout=30)
        for _ in range(n_adds):
            counters.add("radial", 1)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=add) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert counters.counts == {"radial": n_threads * n_adds}


def test_radial_deterministic():
    rng = np.random.default_rng(0)
    p = layers.init_radial_net(rng, 3.0, 10, zero_head=False)
    r = np.array([0.7, 0.7, 2.1])
    out = layers.radial_forward(p, r)
    assert np.array_equal(out[0], out[1])
    again = layers.radial_forward(p, r)
    assert np.array_equal(out, again)


def test_radial_zero_head_gives_zero():
    rng = np.random.default_rng(1)
    p = layers.init_radial_net(rng, 3.0, 8, zero_head=True)
    out = layers.radial_forward(p, np.linspace(0.0, 3.0, 7))
    assert np.all(out == 0.0)


def test_radial_rejects_out_of_range():
    rng = np.random.default_rng(2)
    p = layers.init_radial_net(rng, 3.0, 4)
    with pytest.raises(DomainError):
        layers.radial_forward(p, np.array([3.5]))
    with pytest.raises(DomainError):
        layers.radial_forward(p, np.array([-0.1]))
    with pytest.raises(DomainError):  # NaN fails both comparisons
        layers.radial_forward(p, np.array([1.0, np.nan]))


def test_embed_has_no_subnormal_entries():
    # width = cutoff/63, so every r in [0, cutoff] has centers 37.6-38.6
    # widths away, where the Gaussian is subnormal; entries kept are at
    # least 1e-300, so their products with weights of magnitude 1e-7 or more
    # are normal too
    rng = np.random.default_rng(3)
    p = layers.init_radial_net(rng, 3.0, 4)
    e = layers._embed(p, np.linspace(0.0, 3.0, 20001))
    assert np.all((e == 0.0) | (e >= 1e-300))
    assert np.all(e.max(axis=1) >= np.exp(-0.125))


def _row_mults(p):
    """Multiplies of one exact row of a radial net."""
    return p.w1.size + p.w2.size + p.head_w.size


def _scaled_net(scale, out_dim=8, seed=43):
    """A radial net with its hidden weights scaled: phi's derivatives, and
    so the decode table's error, grow with them."""
    p = layers.init_radial_net(np.random.default_rng(seed), 3.0, out_dim,
                               zero_head=False)
    p.w1 *= scale
    p.w2 *= scale
    return p


# with or without a cache the net runs on the whole array; sizes around
# the residual layer's block edges, at 40 outputs and at 128, the default
# residual width
_SIZES = [0, 1, layers._ROWS, layers._ROWS + 1, 2 * layers._ROWS + 7]


@pytest.mark.parametrize(
    "n, out_dim", [(n, 40) for n in _SIZES] + [(n, 128) for n in _SIZES],
    ids=[str(n) for n in _SIZES] + [f"{n}-128" for n in _SIZES])
def test_uncached_radial_forward_is_bit_identical_to_cached(n, out_dim):
    rng = np.random.default_rng(42)
    p = _scaled_net(10.0, out_dim=out_dim, seed=42)
    r = rng.uniform(0.0, 3.0, size=n)
    cached = layers.radial_forward(p, r, cache={})
    counters = layers.OpCounters()
    uncached = layers.radial_forward(p, r, counters)
    assert uncached.shape == (n, out_dim)
    assert np.array_equal(uncached, cached)
    assert counters.counts["radial"] == n * _row_mults(p)


def _decode_distances(rng, p, n=4000):
    """``n`` distances a decode table pays for, among them 0, the cutoff,
    just past it (inside the check's slack) and every interval edge."""
    h = p.cutoff / layers._K
    edges = np.arange(layers._K + 1) * h
    special = np.concatenate([[0.0, p.cutoff, p.cutoff + 1e-10], edges,
                              np.nextafter(edges[1:], 0.0),
                              np.nextafter(edges[:-1], np.inf)])
    return np.concatenate([special,
                           rng.uniform(0.0, p.cutoff, n - special.size)])


def _table_values(p, r):
    """The kept decode table of net ``p`` evaluated at ``r``."""
    coef, _ = layers._decode_table(p)
    order, T, runs = layers._table_eval(p.cutoff / layers._K, r)
    out = np.empty((r.size, p.out_dim))
    for i, lo, hi in runs:
        out[order[lo:hi]] = T[lo:hi] @ coef[i]
    return out


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_uncached_radial_decode_table_matches_exact_net(scale):
    rng = np.random.default_rng(44)
    p = _scaled_net(scale)
    r = _decode_distances(rng, p)
    exact = layers.radial_forward(p, r, cache={})
    got = _table_values(p, r)
    assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()


def _on_net(radial, l_max=1):
    """A residual layer around ``radial``, whose width must be (l_max+1) C."""
    return layers.ResidualParams(l_max=l_max,
                                 channels=radial.out_dim // (l_max + 1),
                                 cutoff=radial.cutoff, radial=radial)


def _table_batch(rng, params, n_atoms=5, n_queries=700):
    """Queries, atoms and features of a batch with more pairs than an
    8-output table pays for (1,296), the sizes ``_scaled_net`` makes."""
    coords = rng.uniform(-1.5, 1.5, size=(n_atoms, 3))
    queries = rng.uniform(-2.5, 2.5, size=(n_queries, 3))
    feats = random_feats(rng, n_atoms, params.l_max, params.channels)
    assert geometry.radius_pairs(coords, queries, 3.0)[3].size >= 1300
    return queries, coords, feats


def test_uncached_radial_decode_falls_back_on_large_weights():
    # x10 weights: no table of this size comes within 1e-13 of scale, so
    # the residual layer runs its exact pairs, after one build and check
    rng = np.random.default_rng(45)
    params = _on_net(_scaled_net(10.0))
    batch = _table_batch(rng, params)
    counters = layers.OpCounters()
    got = layers.residual_forward(*batch, params, counters)
    assert layers._decode_table(params.radial)[0] is None
    assert np.array_equal(
        got, layers.residual_forward(*batch, params, cache={}))
    n_pairs = geometry.radius_pairs(batch[1], batch[0], 3.0)[3].size
    assert counters.counts["radial"] > n_pairs * _row_mults(params.radial)


def test_uncached_radial_fallback_runs_in_row_blocks():
    # a failed table check leaves an uncached batch to the exact route,
    # which runs the radial net's hidden layers in blocks of _ROWS pairs:
    # at the default residual width and 16,698 pairs its peak must stay
    # below 44.0e6 bytes, the 44.03e6 peak that per-pair radial outputs and
    # projections of the whole batch reached
    import tracemalloc

    params = _on_net(_scaled_net(10.0, out_dim=128), l_max=7)
    rng = np.random.default_rng(47)
    coords = rng.uniform(-1.5, 1.5, size=(5, 3))
    queries = rng.uniform(-2.5, 2.5, size=(5400, 3))
    feats = random_feats(rng, 5, 7, 16)
    assert geometry.radius_pairs(coords, queries, 3.0)[3].size > 16 * 1024
    layers.residual_forward(queries, coords, feats, params)
    assert layers._decode_table(params.radial)[0] is None
    tracemalloc.start()
    try:
        layers.residual_forward(queries, coords, feats, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 44.0e6


@pytest.mark.parametrize("n, out_dim", [(20, 40), (20, 5504), (76, 40),
                                        (76, 5504), (3400, 300)])
def test_conv_sized_radial_batches_never_build_a_table(monkeypatch, out_dim,
                                                       n):
    # 5,504 = 344 paths x 16 channels, the default conv head. The radial
    # net alone never decodes from a table, whatever the batch: 3,400
    # distances at 300 outputs would pay for one
    rng = np.random.default_rng(46)
    p = layers.init_radial_net(rng, 3.0, out_dim, zero_head=False)
    r = rng.uniform(0.0, 3.0, size=n)
    monkeypatch.setattr(layers, "_table", None)  # a table build would fail
    counters = layers.OpCounters()
    got = layers.radial_forward(p, r, counters)
    assert counters.counts["radial"] == n * _row_mults(p)
    assert np.array_equal(got, layers.radial_forward(p, r, cache={}))


def _counting_table(monkeypatch):
    """Patch ``layers._table`` to record each build; returns the record."""
    builds, real = [], layers._table
    monkeypatch.setattr(layers, "_table",
                        lambda p: builds.append(p) or real(p))
    return builds


def test_decode_table_is_built_once_per_net(monkeypatch):
    builds = _counting_table(monkeypatch)
    params = _on_net(_scaled_net(1.0))
    batch = _table_batch(np.random.default_rng(48), params)
    first = layers.residual_forward(*batch, params)
    counters = layers.OpCounters()
    assert np.array_equal(layers.residual_forward(*batch, params, counters),
                          first)
    assert len(builds) == 1
    # a hit charges only the evaluation: per pair, the table's P+1 rows
    # at every (k, m) slot
    n_pairs = geometry.radius_pairs(batch[1], batch[0], 3.0)[3].size
    assert counters.counts["radial"] == n_pairs * (layers._P + 1) * 4
    # one bit of any array or scalar of the net is a different net
    for name in ("cutoff", "width", "centers", "w1", "b1", "w2", "b2",
                 "head_w", "head_b"):
        q = copy.deepcopy(params)
        value = getattr(q.radial, name)
        if isinstance(value, float):
            setattr(q.radial, name, np.nextafter(value, np.inf))
        else:
            value.flat[3] = np.nextafter(value.flat[3], np.inf)
        layers.residual_forward(*batch, q)
        layers.residual_forward(*batch, params)
    assert len(builds) == 1 + 2 * 9


def test_decode_table_concurrent_first_build():
    # racing first builds take no lock: every thread must still get the
    # serial result, and the memo must keep a table equal to the serial one
    params = _on_net(_scaled_net(1.0))
    batch = _table_batch(np.random.default_rng(50), params, n_queries=2000)
    want = layers.residual_forward(*batch, params)
    table = layers._DECODE[1]
    layers._DECODE = None  # restored by the autouse fixture
    n_threads = 6
    barrier = threading.Barrier(n_threads)
    got = [None] * n_threads

    def decode(i):
        barrier.wait(timeout=30)
        got[i] = layers.residual_forward(*batch, params)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(g, want) for g in got)
    assert np.array_equal(layers._DECODE[1], table)


def test_failed_decode_check_is_paid_once(monkeypatch):
    # x3 weights: this net's table misses its check, so every call runs
    # the exact pairs, and only the first builds and checks a table
    builds = _counting_table(monkeypatch)
    params = _on_net(_scaled_net(3.0))
    rng = np.random.default_rng(51)
    for i in range(3):
        batch = _table_batch(rng, params)
        counters = layers.OpCounters()
        got = layers.residual_forward(*batch, params, counters)
        assert np.array_equal(
            got, layers.residual_forward(*batch, params, cache={}))
        n_pairs = geometry.radius_pairs(batch[1], batch[0], 3.0)[3].size
        exact = n_pairs * _row_mults(params.radial)
        assert (counters.counts["radial"] > exact) == (i == 0)
    assert len(builds) == 1 and layers._DECODE[1] is None


def test_radial_backward_matches_fd():
    rng = np.random.default_rng(4)
    p = layers.init_radial_net(rng, 3.0, 5, zero_head=False)
    r = rng.uniform(0.1, 2.9, size=4)
    weight = rng.standard_normal((4, 5))
    cache, grads = {}, nan_twin(p)
    layers.radial_forward(p, r, cache=cache)
    layers.radial_backward(p, weight, grads, cache)
    for name in ("w1", "b1", "w2", "b2", "head_w", "head_b"):
        arr = getattr(p, name)
        flat_idx = rng.choice(arr.size, size=min(5, arr.size), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, arr.shape)
            h = 1e-5 * max(1.0, abs(arr[idx]))
            old = arr[idx]
            arr[idx] = old + h
            up = float((weight * layers.radial_forward(p, r)).sum())
            arr[idx] = old - h
            dn = float((weight * layers.radial_forward(p, r)).sum())
            arr[idx] = old
            fd = (up - dn) / (2 * h)
            got = getattr(grads, name)[idx]
            assert abs(fd - got) / max(abs(fd), abs(got), 1e-8) < 1e-5


def test_radial_backward_from_forward_cache_matches_reference():
    rng = np.random.default_rng(41)
    p = layers.init_radial_net(rng, 3.0, 6, zero_head=False)
    r = rng.uniform(0.0, 3.0, size=9)
    weight = rng.standard_normal((9, 6))
    cache = {}
    out = layers.radial_forward(p, r, cache=cache)
    assert np.array_equal(out, layers.radial_forward(p, r))
    assert sorted(cache) == ["d1", "d2", "e", "h1", "h2"]
    grads = nan_twin(p)
    assert layers.radial_backward(p, weight, grads, cache) is None
    _assert_grads_close(
        grads, {"radial": _reference_radial_backward(p, r, weight)})


def test_conv_no_edges_is_self_interaction():
    rng = np.random.default_rng(5)
    coords = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    graph = geometry.MolecularGraph.from_coords(
        np.zeros(2, dtype=int), coords, 3.0)
    assert graph.n_edges == 0
    feats = random_feats(rng, 2, 2, 3)
    params = layers.init_conv_layer(rng, 2, 3, 3.0)
    params.self_w[:] = rng.standard_normal(params.self_w.shape)
    out = layers.conv_forward(graph, feats, params)
    for l in range(3):
        sl = so3.block_slice(l)
        want = params.self_w[l][None, :, None] * feats[:, :, sl]
        assert np.array_equal(out[:, :, sl], want)


def test_conv_zero_head_reduces_to_self_interaction():
    rng = np.random.default_rng(6)
    graph, feats, params = small_instance(rng, zero_head=True)
    assert graph.n_edges > 0
    out = layers.conv_forward(graph, feats, params)
    assert np.allclose(out, feats, atol=1e-15)


def test_conv_translation_invariance_bitwise():
    # eighth-integer coordinates keep displacement arithmetic exact
    rng = np.random.default_rng(7)
    coords = rng.integers(-12, 12, size=(5, 3)) / 8.0
    shift = np.array([1.25, -0.5, 3.75])
    feats = random_feats(rng, 5, 2, 3)
    params = layers.init_conv_layer(rng, 2, 3, 3.0, zero_head=False)
    g1 = geometry.MolecularGraph.from_coords(np.zeros(5, int), coords, 3.0)
    g2 = geometry.MolecularGraph.from_coords(np.zeros(5, int),
                                             coords + shift, 3.0)
    out1 = layers.conv_forward(g1, feats, params)
    out2 = layers.conv_forward(g2, feats, params)
    assert np.array_equal(out1, out2)


def _conv_equivariance_err(rng, l_max, mode, layers_n=1, gate=False):
    channels = 3
    cutoff = 3.0
    coords = rng.uniform(-1.5, 1.5, size=(5, 3))
    graph = geometry.MolecularGraph.from_coords(
        np.zeros(5, dtype=int), coords, cutoff)
    feats = random_feats(rng, 5, l_max, channels)
    stack = [layers.init_conv_layer(rng, l_max, channels, cutoff,
                                    mode=mode, zero_head=False)
             for _ in range(layers_n)]
    R = so3.random_rotation(rng)
    graph_r = geometry.MolecularGraph.from_coords(
        np.zeros(5, dtype=int), coords @ R.T, cutoff)

    def run(g, f):
        for p in stack:
            f = layers.conv_forward(g, f, p)
            if gate:
                f = layers.gate_forward(f)
        return f

    plain = rotate_coeffs(run(graph, feats), R)
    rotated = run(graph_r, rotate_coeffs(feats, R))
    return np.abs(rotated - plain).max()


def test_conv_equivariance_single_layer():
    rng = np.random.default_rng(8)
    assert _conv_equivariance_err(rng, 3, "channel") < 1e-8


def test_conv_equivariance_fc_mode():
    rng = np.random.default_rng(9)
    assert _conv_equivariance_err(rng, 2, "fc") < 1e-8


def test_stacked_conv_gate_equivariance():
    rng = np.random.default_rng(10)
    err = _conv_equivariance_err(rng, 3, "channel", layers_n=3, gate=True)
    assert err < 1e-7


def test_channel_mode_has_fewer_parameters():
    rng = np.random.default_rng(11)
    ch = layers.init_conv_layer(rng, 2, 4, 3.0, mode="channel")
    fc = layers.init_conv_layer(rng, 2, 4, 3.0, mode="fc")
    size = lambda p: sum(getattr(o, a).size for _, o, a in p.slots("x"))
    assert size(ch) < size(fc)


def test_conv_deterministic():
    rng = np.random.default_rng(12)
    graph, feats, params = small_instance(rng)
    a = layers.conv_forward(graph, feats, params)
    b = layers.conv_forward(graph, feats, params)
    assert np.array_equal(a, b)


def test_conv_layout_mismatch():
    rng = np.random.default_rng(13)
    graph, feats, params = small_instance(rng, l_max=2)
    bad = random_feats(rng, graph.n_atoms, 3, 3)
    with pytest.raises(DomainError):
        layers.conv_forward(graph, bad, params)


def test_conv_rejects_a_graph_built_at_a_larger_cutoff():
    # two atoms 3.5 apart are an edge at 4.0, past the radial net's range;
    # the check names both cutoffs before any distance is tested
    rng = np.random.default_rng(14)
    graph = geometry.MolecularGraph.from_coords(
        [0, 0], [[0.0, 0.0, 0.0], [3.5, 0.0, 0.0]], 4.0)
    params = layers.init_conv_layer(rng, 1, 2, 3.0)
    with pytest.raises(DomainError,
                       match=r"^graph cutoff 4\.0 exceeds the conv layer's "
                             r"cutoff 3\.0$"):
        layers.conv_forward(graph, random_feats(rng, 2, 1, 2), params)


@pytest.mark.parametrize("call, field", [
    ("conv_forward_degrees", "feats"), ("conv_forward_nodes", "feats"),
    ("conv_forward_channels", "feats"), ("conv_backward_feats", "feats"),
    ("conv_backward_degrees", "grad_out"), ("gate_forward_split", "feats"),
    ("gate_forward_2d", "feats"), ("gate_backward_degrees", "grad_out"),
    ("residual_forward_degrees", "feats"),
    ("residual_backward_degrees", "feats"),
    ("residual_backward_long", "grad_z"),
    ("residual_backward_column", "grad_z"),
    ("residual_forward_queries", "queries"),
    ("residual_backward_coords", "coords")])
def test_layers_reject_bad_shapes_naming_argument(call, field):
    rng = np.random.default_rng(25)
    graph, feats, params = small_instance(rng, n_atoms=4, l_max=2, channels=3)
    res = layers.init_residual_layer(rng, 2, 3, 3.0)
    coords = graph.atom_coord
    q = rng.uniform(-1.0, 1.0, size=(5, 3))
    extra = random_feats(rng, 4, 3, 3)  # one degree more than the layer
    # a backward checks shapes before it reads its cache or gradient twin:
    # an empty cache would raise KeyError, a None twin AttributeError
    twin, cache = None, {}
    calls = {
        "conv_forward_degrees": lambda: layers.conv_forward(
            graph, extra, params),
        "conv_forward_nodes": lambda: layers.conv_forward(
            graph, feats[:3], params),
        "conv_forward_channels": lambda: layers.conv_forward(
            graph, feats[:, :2], params),
        "conv_backward_feats": lambda: layers.conv_backward(
            graph, extra, params, feats, twin, cache),
        "conv_backward_degrees": lambda: layers.conv_backward(
            graph, feats, params, extra, twin, cache),
        "gate_forward_split": lambda: layers.gate_forward(feats[:, :, :5]),
        "gate_forward_2d": lambda: layers.gate_forward(feats[:, 0]),
        "gate_backward_degrees": lambda: layers.gate_backward(feats, extra),
        "residual_forward_degrees": lambda: layers.residual_forward(
            q, coords, extra, res),
        "residual_backward_degrees": lambda: layers.residual_backward(
            q, coords, extra, res, np.zeros(5), twin, cache),
        "residual_backward_long": lambda: layers.residual_backward(
            q, coords, feats, res, np.zeros(6), twin, cache),
        "residual_backward_column": lambda: layers.residual_backward(
            q, coords, feats, res, np.zeros((5, 1)), twin, cache),
        "residual_forward_queries": lambda: layers.residual_forward(
            q[:, :2], coords, feats, res),
        "residual_backward_coords": lambda: layers.residual_backward(
            q, coords.T, feats, res, np.zeros(5), twin, cache),
    }
    with pytest.raises(DomainError, match=f"^{field} must have shape"):
        calls[call]()


def test_conv_counters_closed_form():
    rng = np.random.default_rng(14)
    for L in (1, 2, 3):
        graph, feats, params = small_instance(rng, l_max=L)
        counters = layers.OpCounters()
        layers.conv_forward(graph, feats, params, counters)
        E, C = graph.n_edges, params.channels
        assert sorted(counters.counts) == ["matvec", "mixing", "radial",
                                           "rotation"]
        matvec = sum((2 * l + 1) * (2 * k + 1)
                     for l in range(L + 1) for k in range(L + 1))
        assert matvec == (L + 1) ** 4
        assert counters.counts["matvec"] == E * C * (L + 1) ** 4
        # in the edge frame a pair's kernel is non-zero only where
        # |m| = |m'|: 1 + 4 min(l, k) entries, each mixing the pair's
        # 2 min(l, k) + 1 paths
        mixing = sum((2 * min(l, k) + 1) * (4 * min(l, k) + 1)
                     for l in range(L + 1) for k in range(L + 1))
        assert counters.counts["mixing"] == E * C * mixing
        # two rotations (features in, messages out), each two products with
        # J_l per degree and two (m, -m) turns of two multiplies per slot
        rotation = 2 * sum((2 * l + 1) ** 2 for l in range(L + 1)) \
            + 4 * (L + 1) ** 2
        assert counters.counts["rotation"] == 2 * E * C * rotation
    plan = layers.conv_plan(7)
    assert sum(pair[7].size for pair in plan.pairs) == 624
    assert plan.mixing == 5160


# The per-path loops that conv_forward and conv_backward replaced, kept as
# the reference the batched plan must reproduce.


def _reference_blocks(paths, Y):
    return {(l, k, J): np.einsum("eM,Mab->eab", Y[:, so3.block_slice(J)],
                                 cg_table(l, k, J))
            for (l, k, J) in paths}


def _reference_edge_terms(graph, params):
    """Each edge's length and direction, from the raw edge vectors, and its
    per-path radial scalars, (E, paths, C) or in fc mode (E, paths, C, C)."""
    r = np.linalg.norm(graph.edge_vec, axis=1)
    dims = (params.channels,) * (1 if params.mode == "channel" else 2)
    phi = layers.radial_forward(params.radial, r)
    return r, graph.edge_vec / r[:, None], phi.reshape(
        (graph.n_edges, len(params.paths)) + dims)


def _blocks(x):
    """The per-degree blocks of a feature array, as copies."""
    return {l: x[:, :, so3.block_slice(l)].copy()
            for l in range(int(np.sqrt(x.shape[2])))}


def _reference_conv_forward(graph, feats, params):
    L, C = params.l_max, params.channels
    feats = _blocks(feats)
    out = {l: params.self_w[l][None, :, None] * feats[l]
           for l in range(L + 1)}
    if graph.n_edges == 0:
        return np.concatenate(list(out.values()), axis=2)
    r, rhat, phi = _reference_edge_terms(graph, params)
    Y = so3.eval_real_sh(2 * L, rhat)
    G = _reference_blocks(params.paths, Y)
    src, dst = graph.edge_src, graph.edge_dst
    for l in range(L + 1):
        msg = np.zeros((graph.n_edges, C, 2 * l + 1))
        for k in range(L + 1):
            shape = ((graph.n_edges, C, 2 * l + 1, 2 * k + 1)
                     if params.mode == "channel" else
                     (graph.n_edges, C, C, 2 * l + 1, 2 * k + 1))
            W = np.zeros(shape)
            for p, (pl, pk, J) in enumerate(params.paths):
                if (pl, pk) != (l, k):
                    continue
                g = G[(l, k, J)]
                if params.mode == "channel":
                    W += phi[:, p, :, None, None] * g[:, None, :, :]
                else:
                    W += phi[:, p, :, :, None, None] * g[:, None, None, :, :]
            fk = feats[k][dst]
            if params.mode == "channel":
                msg += np.einsum("ecab,ecb->eca", W, fk)
            else:
                msg += np.einsum("ecdab,edb->eca", W, fk)
        np.add.at(out[l], src, msg)
    return np.concatenate(list(out.values()), axis=2)


def _reference_conv_backward(graph, feats, params, grad_out):
    L = params.l_max
    feats, grad_out = _blocks(feats), _blocks(grad_out)
    grad_f = {}
    grad_self = np.zeros_like(params.self_w)
    for l in range(L + 1):
        g = grad_out[l]
        grad_f[l] = params.self_w[l][None, :, None] * g
        grad_self[l] = np.einsum("nca,nca->c", g, feats[l])
    if graph.n_edges == 0:
        return np.concatenate(list(grad_f.values()), axis=2), {
            "self_w": grad_self, "radial": _reference_radial_backward(
                params.radial, np.zeros(0),
                np.zeros((0, params.radial.out_dim)))}
    r, rhat, phi = _reference_edge_terms(graph, params)
    Y = so3.eval_real_sh(2 * L, rhat)
    G = _reference_blocks(params.paths, Y)
    src, dst = graph.edge_src, graph.edge_dst
    grad_phi = np.zeros_like(phi)
    for l in range(L + 1):
        gmsg = grad_out[l][src]
        for k in range(L + 1):
            fk = feats[k][dst]
            acc_fk = np.zeros_like(fk)
            for p, (pl, pk, J) in enumerate(params.paths):
                if (pl, pk) != (l, k):
                    continue
                g = G[(l, k, J)]
                if params.mode == "channel":
                    grad_phi[:, p] = np.einsum("eca,ecb,eab->ec", gmsg, fk, g)
                    acc_fk += phi[:, p, :, None] * np.einsum(
                        "eca,eab->ecb", gmsg, g)
                else:
                    grad_phi[:, p] = np.einsum("eca,edb,eab->ecd", gmsg, fk, g)
                    acc_fk += np.einsum("ecd,eca,eab->edb",
                                        phi[:, p], gmsg, g)
            np.add.at(grad_f[k], dst, acc_fk)
    grad_radial = _reference_radial_backward(
        params.radial, r, grad_phi.reshape(graph.n_edges, -1))
    return np.concatenate(list(grad_f.values()), axis=2), {
        "self_w": grad_self, "radial": grad_radial}


def _assert_close(got, want):
    # summation order differs from the reference; 1e-12 of the scale
    tol = 1e-12 * max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.abs(got - want).max(initial=0.0) <= tol


@pytest.mark.parametrize("mode", ["channel", "fc"])
@pytest.mark.parametrize("l_max", [1, 2, 3, 7])
@pytest.mark.parametrize("n_atoms", [5, 0])
def test_conv_matches_reference_loop(mode, l_max, n_atoms):
    rng = np.random.default_rng(100 + l_max)
    if n_atoms:
        graph, feats, params = small_instance(
            rng, n_atoms=n_atoms, l_max=l_max, channels=3, mode=mode)
        assert graph.n_edges > 0
    else:  # two atoms out of each other's reach: an edge-free graph
        graph = geometry.MolecularGraph.from_coords(
            np.zeros(2, dtype=int), np.array([[0.0, 0, 0], [10.0, 0, 0]]),
            3.0)
        assert graph.n_edges == 0
        feats = random_feats(rng, 2, l_max, 3)
        params = layers.init_conv_layer(rng, l_max, 3, 3.0, mode=mode,
                                        zero_head=False)
    params.self_w[:] = rng.standard_normal(params.self_w.shape)
    grad_out = random_feats(rng, graph.n_atoms, l_max, 3)

    cache = {}
    got = layers.conv_forward(graph, feats, params, cache=cache)
    assert np.array_equal(got, layers.conv_forward(graph, feats, params))
    # fc mode's C-times-larger phi is redone in the backward, not kept;
    # an edge-free graph fills the cache too, with zero-row arrays
    assert ("phi" in cache) == (mode == "channel")
    want = _reference_conv_forward(graph, feats, params)
    for l in range(l_max + 1):
        sl = so3.block_slice(l)
        _assert_close(got[:, :, sl], want[:, :, sl])

    grads = nan_twin(params)
    got_f = layers.conv_backward(graph, feats, params, grad_out, grads, cache)
    want_f, want_p = _reference_conv_backward(graph, feats, params, grad_out)
    for l in range(l_max + 1):
        sl = so3.block_slice(l)
        _assert_close(got_f[:, :, sl], want_f[:, :, sl])
    _assert_grads_close(grads, want_p)


@pytest.mark.parametrize("mode", ["channel", "fc"])
def test_conv_backward_forms_no_kernel(monkeypatch, mode):
    # the adjoint reads the edge-frame kernel at its non-zero entries only;
    # it never builds the dense W the forward's matvec takes
    calls = []
    real = layers._kernel

    def counting(*args):
        calls.append(args[2][:2])
        return real(*args)

    monkeypatch.setattr(layers, "_kernel", counting)
    rng = np.random.default_rng(23)
    graph, feats, params = small_instance(rng, l_max=3, mode=mode)
    cache = {}
    layers.conv_forward(graph, feats, params, cache=cache)
    assert calls == [pair[:2] for pair in layers.conv_plan(3).pairs]
    calls.clear()
    layers.conv_backward(graph, feats, params, random_feats(rng, 5, 3, 3),
                         nan_twin(params), cache)
    assert calls == []


@pytest.mark.parametrize("mode", ["channel", "fc"])
def test_conv_backward_reads_the_forwards_rotated_features(monkeypatch,
                                                           mode):
    # one forward and backward turn the features, the messages, the
    # message gradients and the feature gradients once each: the backward
    # reads the rotated features ``f`` the forward cached
    calls = []
    real = layers._rotate

    def counting(*args, **kwargs):
        calls.append(kwargs.get("inverse", False))
        return real(*args, **kwargs)

    rng = np.random.default_rng(24)
    graph, feats, params = small_instance(rng, l_max=3, mode=mode)
    uncached = layers.conv_forward(graph, feats, params)
    monkeypatch.setattr(layers, "_rotate", counting)
    cache = {}
    assert np.array_equal(
        layers.conv_forward(graph, feats, params, cache=cache), uncached)
    # the backward reads each edge's reverse and the source runs from the
    # graph, so the cache keeps no edge order
    keys = {"frame", "f", "radial"}
    assert set(cache) == (keys | {"phi"} if mode == "channel" else keys)
    layers.conv_backward(graph, feats, params, random_feats(rng, 5, 3, 3),
                         nan_twin(params), cache)
    assert calls == [False, True, False, True]


def test_conv_plan_built_once(monkeypatch):
    # a cold plan builds no path's full table: cg_table is called only for
    # the couplings wigner_blocks builds J_l from, the M = 0 row builder
    # once per path, and each row takes one exact scalar per |m|
    tables, rows, scalars = [], [], []
    real_table, real_row = so3.cg_table, so3.cg_m0
    real_scalar = so3._cg_complex_scalar

    def counting_table(*args):
        tables.append(args)
        return real_table(*args)

    def counting_scalar(*args):
        scalars.append(args)
        return real_scalar(*args)

    def counting_row(l, k, J, ma, mb):
        rows.append((l, k, J))
        scalars.clear()
        out = real_row(l, k, J, ma, mb)
        assert sorted(s[1] for s in scalars) == list(range(min(l, k) + 1))
        assert all(s == (l, s[1], k, -s[1], J, 0) for s in scalars)
        return out

    monkeypatch.setattr(so3, "cg_table", counting_table)
    monkeypatch.setattr(so3, "cg_m0", counting_row)
    monkeypatch.setattr(so3, "_cg_complex_scalar", counting_scalar)
    monkeypatch.setattr(layers, "_PLANS", {})
    rng = np.random.default_rng(24)
    graph, feats, params = small_instance(rng, l_max=3)
    layers.conv_forward(graph, feats, params)
    assert tables == [(j - 1, 1, j) for j in range(2, 4)]
    assert rows == list(params.paths)
    tables.clear()
    rows.clear()
    scalars.clear()
    # a built plan is read without the lock
    monkeypatch.setattr(layers, "_PLAN_LOCK", _NoLock())
    cache = {}
    layers.conv_forward(graph, feats, params, cache=cache)
    layers.conv_backward(graph, feats, params, feats, nan_twin(params), cache)
    assert tables == rows == scalars == []


def test_conv_plan_matches_the_full_table_slice():
    # every plan entry equals c_J times the M = 0 row of the full table at
    # the pair's non-zero entries, in the layout ConvPlan documents; L = 9
    # covers both parities of l + k + J for every (l, k) <= 9
    for L in (0, 9):
        plan = layers.conv_plan(L)
        paths = layers.make_paths(L)
        assert [p[:2] for p in plan.pairs] == sorted({p[:2] for p in paths})
        for l, k, p0, p1, qz, a, b, nz in plan.pairs:
            m = np.arange(-min(l, k), min(l, k) + 1)
            ma = np.concatenate([m, -m[m != 0]])
            mb = np.concatenate([m, m[m != 0]])
            assert np.array_equal(a, l * l + l + ma)
            assert np.array_equal(b, k * k + k + mb)
            assert np.array_equal(nz, (l + ma) * (2 * k + 1) + k + mb)
            want = np.array([math.sqrt((2 * J + 1) / (4 * math.pi))
                             * so3.cg_table(l, k, J)[J, l + ma, k + mb]
                             for _, _, J in paths[p0:p1]])
            assert qz.shape == want.shape
            assert np.abs(qz - want).max() <= 1e-15, (l, k)


class _NoLock:
    def __enter__(self):
        raise AssertionError("a built plan was read under the lock")

    def __exit__(self, *exc):
        return False


def test_conv_plan_concurrent_first_build(monkeypatch):
    # threads that ask for a plan at once share one build, held open long
    # enough for every thread to reach it, and get the same plan, equal to
    # a serial build
    want = layers._build_plan(4)
    builds = []
    real = layers._build_plan

    def slow(l_max):
        builds.append(l_max)
        time.sleep(0.2)
        return real(l_max)

    monkeypatch.setattr(layers, "_build_plan", slow)
    monkeypatch.setattr(layers, "_PLANS", {})
    n_threads = 6
    barrier = threading.Barrier(n_threads)
    got = [None] * n_threads

    def build(i):
        barrier.wait(timeout=30)
        got[i] = layers.conv_plan(4)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [4]
    plan = layers._PLANS[4]
    assert all(p is plan for p in got)
    assert (plan.l_max, plan.mixing, plan.rotation) == (
        want.l_max, want.mixing, want.rotation)
    for x, y in zip((plan.orders, plan.flip) + plan.wigner,
                    (want.orders, want.flip) + want.wigner):
        assert np.array_equal(x, y)
    assert len(plan.wigner) == len(want.wigner)
    assert len(plan.pairs) == len(want.pairs)
    for a, b in zip(plan.pairs, want.pairs):
        assert a[:4] == b[:4]
        assert all(np.array_equal(x, y) for x, y in zip(a[4:], b[4:]))


def _edge_rotation(rhat):
    """R_e = R_y(-theta) R_z(-phi), taking the unit vector ``rhat`` onto
    z-hat, from its azimuth and polar angle."""
    x, y, z = rhat
    phi, theta = np.arctan2(y, x), np.arctan2(np.hypot(x, y), z)
    return (axis_angle_rotation([0, 1, 0], -theta)
            @ axis_angle_rotation([0, 0, 1], -phi))


def test_edge_frame_rotation_matches_wigner_blocks():
    L = 7
    S = so3.num_sh(L)
    rng = np.random.default_rng(41)
    rhat = rng.standard_normal((6, 3))
    rhat /= np.linalg.norm(rhat, axis=1, keepdims=True)
    # along +-z, phi = atan2(0, 0), and atan2(+0, -0) = pi
    poles = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, 1.0],
             [-0.0, -0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]
    rhat = np.concatenate([rhat, poles])
    plan = layers.conv_plan(L)
    frame = layers._frame(rhat, plan)
    # the unit vectors of every slot, one per channel: column j of D
    eye = np.broadcast_to(np.eye(S)[:, None, :], (S, len(rhat), S)).copy()
    D = layers._rotate(eye, frame, plan)
    DT = layers._rotate(eye, frame, plan, inverse=True)
    Y = so3.eval_real_sh(L, rhat)
    z_hat = so3.eval_real_sh(L, np.array([0.0, 0.0, 1.0]))
    for e, r in enumerate(rhat):
        R = _edge_rotation(r)
        assert np.abs(R @ r - [0.0, 0.0, 1.0]).max() <= 1e-15
        for l, want in enumerate(so3.wigner_blocks(L, R)):
            sl = so3.block_slice(l)
            assert np.abs(D[sl, e, sl] - want).max() <= 1e-12
            assert np.abs(DT[sl, e, sl] - want.T).max() <= 1e-12
            # nothing leaks between degrees
            assert not np.any(np.delete(D[:, e, sl], sl, axis=0))
        # D Y(rhat) = Y(R rhat) = Y(z-hat), through the same code path
        turned = layers._rotate(np.ascontiguousarray(Y[e][:, None, None]),
                                tuple(t[:, e:e + 1] for t in frame), plan)
        assert np.abs(turned[:, 0, 0] - z_hat).max() <= 1e-12


def _reference_sigmoid(x):
    """The masked sigmoid that the branch-free layers._sigmoid replaced."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bit_identical_to_masked_reference():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2055, 128)) * 8.0
    tiny = np.finfo(float).tiny
    x.ravel()[:18] = (0.0, -0.0, 800.0, -800.0, np.inf, -np.inf,
                      1e-300, -1e-300, 709.0, -709.0, 745.0, -745.0,
                      5e-324, -5e-324, tiny / 3, -tiny / 3, np.nan, -np.nan)
    with np.errstate(over="raise", invalid="raise"):
        got = layers._sigmoid(x)
        want = _reference_sigmoid(x)
    # sign bits included; a NaN stays a NaN (its sign bit follows the
    # order of operations, which the two forms do not share)
    nan = np.isnan(x)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    assert got.ravel()[:6].tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]


def test_silu_and_its_derivative_bit_identical_to_reference_forms():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2055, 128)) * 8.0
    x.ravel()[:6] = (0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300)
    s = _reference_sigmoid(x)
    want = x * s
    assert np.array_equal(layers.silu(x), want)
    inplace = x.copy()
    assert layers.silu(inplace, out=inplace) is inplace
    assert np.array_equal(inplace, want)
    assert np.array_equal(layers._act("silu")[1](x),
                          s * (1.0 + x * (1.0 - s)))


def test_gate_zero_stays_zero():
    rng = np.random.default_rng(15)
    feats = random_feats(rng, 4, 2, 3)
    feats[:, :, 1:] = 0.0
    out = layers.gate_forward(feats)
    assert np.all(out[:, :, 1:] == 0.0)


def test_gate_identity_passthrough():
    rng = np.random.default_rng(16)
    feats = random_feats(rng, 4, 2, 3)
    out = layers.gate_forward(feats, act0="identity", act_l="identity")
    assert np.allclose(out, feats, atol=1e-15)


def test_gate_commutes_with_rotation():
    rng = np.random.default_rng(17)
    feats = random_feats(rng, 4, 3, 2)
    R = so3.random_rotation(rng)
    a = layers.gate_forward(rotate_coeffs(feats, R))
    b = rotate_coeffs(layers.gate_forward(feats), R)
    assert np.abs(a - b).max() < 1e-10


def test_gate_backward_matches_fd():
    rng = np.random.default_rng(18)
    feats = random_feats(rng, 3, 2, 2)
    weight = random_feats(rng, 3, 2, 2)

    def loss(f):
        return float((weight * layers.gate_forward(f)).sum())

    grad = layers.gate_backward(feats, weight)
    for l in range(3):
        sl = so3.block_slice(l)
        arr = feats[:, :, sl]
        for fi in rng.choice(arr.size, size=4, replace=False):
            idx = np.unravel_index(fi, arr.shape)
            h = 1e-6
            old = arr[idx]
            arr[idx] = old + h
            up = loss(feats)
            arr[idx] = old - h
            dn = loss(feats)
            arr[idx] = old
            fd = (up - dn) / (2 * h)
            got = grad[:, :, sl][idx]
            assert abs(fd - got) / max(abs(fd), abs(got), 1e-8) < 1e-5


def test_conv_backward_matches_fd():
    rng = np.random.default_rng(19)
    graph, feats, params = small_instance(rng, n_atoms=3, l_max=2,
                                          channels=2)
    weight = random_feats(rng, 3, 2, 2)

    def loss():
        return float((weight * layers.conv_forward(graph, feats,
                                                   params)).sum())

    cache, grads = {}, nan_twin(params)
    layers.conv_forward(graph, feats, params, cache=cache)
    grad_f = layers.conv_backward(graph, feats, params, weight, grads, cache)
    # feature gradients
    for l in range(3):
        sl = so3.block_slice(l)
        arr = feats[:, :, sl]
        for fi in rng.choice(arr.size, size=4, replace=False):
            idx = np.unravel_index(fi, arr.shape)
            h = 1e-6
            old = arr[idx]
            arr[idx] = old + h
            up = loss()
            arr[idx] = old - h
            dn = loss()
            arr[idx] = old
            fd = (up - dn) / (2 * h)
            got = grad_f[:, :, sl][idx]
            assert abs(fd - got) / max(abs(fd), abs(got), 1e-8) < 1e-4
    # parameter gradients: self-interaction and radial trunk plus head
    checks = [(params.self_w, grads.self_w),
              (params.radial.head_w, grads.radial.head_w),
              (params.radial.w1, grads.radial.w1),
              (params.radial.b2, grads.radial.b2)]
    for arr, g in checks:
        for fi in rng.choice(arr.size, size=4, replace=False):
            idx = np.unravel_index(fi, arr.shape)
            h = 1e-5 * max(1.0, abs(arr[idx]))
            old = arr[idx]
            arr[idx] = old + h
            up = loss()
            arr[idx] = old - h
            dn = loss()
            arr[idx] = old
            fd = (up - dn) / (2 * h)
            got = g[idx]
            if max(abs(fd), abs(got)) < 1e-8:
                continue  # both zero at finite-difference resolution
            assert abs(fd - got) / max(abs(fd), abs(got), 1e-6) < 1e-4


def _adjoint_graph(rng, n_random, z_pair, isolated):
    """Up to four atoms drawn in a 3-bohr box, then optionally a pair along
    z and an atom out of everyone's reach (also when no other atom is)."""
    coords = [rng.uniform(-1.5, 1.5, size=(n_random, 3))]
    if z_pair:
        p = rng.uniform(-1.5, 1.5, size=3)
        coords.append([p, p + (0.0, 0.0, rng.uniform(0.5, 2.5))])
    if isolated or not (n_random or z_pair):
        coords.append([(50.0, 0.0, 0.0)])
    coords = np.concatenate(coords)
    return geometry.MolecularGraph.from_coords(
        np.zeros(len(coords), dtype=int), coords, 3.0)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_random=st.integers(0, 4),
       z_pair=st.booleans(), isolated=st.booleans(),
       l_max=st.integers(0, 3), channels=st.integers(1, 3),
       mode=st.sampled_from(layers.CONV_MODES))
@example(seed=0, n_random=0, z_pair=True, isolated=False, l_max=2,
         channels=2, mode="channel")  # two atoms: one radial row
@example(seed=0, n_random=0, z_pair=True, isolated=False, l_max=1,
         channels=2, mode="fc")
@example(seed=0, n_random=1, z_pair=False, isolated=True, l_max=2,
         channels=2, mode="fc")  # no edges
def test_conv_backward_is_the_adjoint_of_its_forward(
        seed, n_random, z_pair, isolated, l_max, channels, mode):
    # the conv output is linear in the features and in the radial head's
    # weights and biases, so <conv(x + d) - conv(x), w> = <d, grad> holds
    # to rounding for each of the three, with no finite differences
    rng = np.random.default_rng(seed)
    graph = _adjoint_graph(rng, n_random, z_pair, isolated)
    params = layers.init_conv_layer(rng, l_max, channels, 3.0, mode=mode,
                                    zero_head=False)
    params.radial.head_w *= 100.0  # full Glorot scale
    params.radial.head_b[:] = rng.standard_normal(params.radial.out_dim)
    params.self_w[:] = rng.standard_normal(params.self_w.shape)
    n = graph.n_atoms
    x, w = (random_feats(rng, n, l_max, channels) for _ in range(2))
    cache, grads = {}, nan_twin(params)
    y = layers.conv_forward(graph, x, params, cache=cache)
    grad_x = layers.conv_backward(graph, x, params, w, grads, cache)

    def check(moved_x, moved, d, grad):
        moved_y = layers.conv_forward(graph, moved_x, moved, cache={})
        scale = ((np.abs(moved_y) + np.abs(y)) * np.abs(w)).sum() \
            + (np.abs(d) * np.abs(grad)).sum()
        err = abs(((moved_y - y) * w).sum() - (d * grad).sum())
        assert err <= 1e-12 * scale, (err, scale)

    d = random_feats(rng, n, l_max, channels)
    check(x + d, params, d, grad_x)
    for name in ("head_w", "head_b"):
        moved = copy.deepcopy(params)
        d = rng.standard_normal(getattr(params.radial, name).shape)
        getattr(moved.radial, name)[...] += d
        check(x, moved, d, getattr(grads.radial, name))
    if graph.n_edges == 0:
        assert not np.any(grads.radial.head_w)


def _residual_points(rng, n_atoms, n_queries, on_atom, at_cutoff, lonely):
    """Up to four atoms and five queries drawn around the origin, then
    optionally a query on an atom, one exactly 3 bohr (the cutoff) from an
    atom, and an atom out of every query's reach (also when there is no
    other atom). Atoms sit on a 1/8-bohr lattice, so the cutoff distance is
    exact."""
    coords = [np.round(8.0 * rng.uniform(-1.5, 1.5, size=(n_atoms, 3))) / 8]
    queries = [rng.uniform(-2.0, 2.0, size=(n_queries, 3))]
    if on_atom or at_cutoff:
        atom = np.round(8.0 * rng.uniform(-1.5, 1.5, size=3)) / 8
        coords.append([atom])
        if on_atom:
            queries.append([atom])
        if at_cutoff:
            queries.append([atom + (0.0, 0.0, 3.0)])
    if lonely or not (n_atoms or on_atom or at_cutoff):
        coords.append([(50.0, 0.0, 0.0)])
    return np.concatenate(coords), np.concatenate(queries)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_atoms=st.integers(0, 4),
       n_queries=st.integers(0, 5), on_atom=st.booleans(),
       at_cutoff=st.booleans(), lonely=st.booleans(),
       l_max=st.integers(0, 3), channels=st.integers(1, 3))
@example(seed=0, n_atoms=1, n_queries=2, on_atom=True, at_cutoff=False,
         lonely=False, l_max=2, channels=2)
@example(seed=0, n_atoms=0, n_queries=0, on_atom=False, at_cutoff=True,
         lonely=False, l_max=3, channels=1)
@example(seed=0, n_atoms=2, n_queries=1, on_atom=False, at_cutoff=False,
         lonely=True, l_max=1, channels=3)
@example(seed=0, n_atoms=0, n_queries=3, on_atom=False, at_cutoff=False,
         lonely=True, l_max=2, channels=2)  # no pair at all
def test_residual_backward_is_the_adjoint_of_its_forward(
        seed, n_atoms, n_queries, on_atom, at_cutoff, lonely, l_max,
        channels):
    # z is linear in the features and in the radial head's weights and
    # biases, so <z(x + d) - z(x), w> = <d, grad> holds to rounding for
    # each; the backward runs with no submit, then on a one-worker pool
    rng = np.random.default_rng(seed)
    coords, queries = _residual_points(rng, n_atoms, n_queries, on_atom,
                                       at_cutoff, lonely)
    _, _, _, r = geometry.radius_pairs(coords, queries, 3.0)
    assert (3.0 in r) == at_cutoff and (0.0 in r) >= on_atom
    params = layers.init_residual_layer(rng, l_max, channels, 3.0,
                                        zero_head=False)
    params.radial.head_w *= 100.0  # full Glorot scale
    params.radial.head_b[:] = rng.standard_normal(params.radial.out_dim)
    x = random_feats(rng, len(coords), l_max, channels)
    w = rng.standard_normal(len(queries))
    z = layers.residual_forward(queries, coords, x, params)
    moves = [(None, random_feats(rng, len(coords), l_max, channels))] + [
        (name, rng.standard_normal(getattr(params.radial, name).shape))
        for name in ("head_w", "head_b")]
    runs, jobs = [], []
    with ThreadPoolExecutor(max_workers=1) as pool:
        def submit(fn, *args):
            jobs.append(pool.submit(fn, *args))

        for kw in ({}, {"submit": submit}):
            cache, grads = {}, nan_twin(params)
            layers.residual_forward(queries, coords, x, params, cache=cache)
            runs.append((layers.residual_backward(
                queries, coords, x, params, w, grads, cache, **kw), grads))
    assert len(jobs) == 1
    jobs[0].result()
    for grad_x, grads in runs:
        for name, d in moves:
            if name is None:
                moved, moved_x, grad = params, x + d, grad_x
            else:
                moved, moved_x = copy.deepcopy(params), x
                getattr(moved.radial, name)[...] += d
                grad = getattr(grads.radial, name)
            moved_z = layers.residual_forward(queries, coords, moved_x,
                                              moved)
            scale = ((np.abs(moved_z) + np.abs(z)) * np.abs(w)).sum() \
                + (np.abs(d) * np.abs(grad)).sum()
            err = abs(((moved_z - z) * w).sum() - (d * grad).sum())
            assert err <= 1e-12 * scale, (name, err, scale)
        if r.size == 0:
            assert not np.any(grad_x) and not np.any(grads.radial.head_w)
    (grad_x, grads), (want_x, want) = runs
    assert np.array_equal(grad_x, want_x)
    for _, _, attr in grads.slots(""):
        assert np.array_equal(getattr(grads.radial, attr),
                              getattr(want.radial, attr))


def test_residual_far_query_and_zero_features():
    rng = np.random.default_rng(20)
    coords = rng.uniform(-1.0, 1.0, size=(4, 3))
    feats = random_feats(rng, 4, 2, 3)
    params = layers.init_residual_layer(rng, 2, 3, 3.0, zero_head=False)
    far = np.array([[50.0, 0.0, 0.0]])
    assert layers.residual_forward(far, coords, feats, params)[0] == 0.0
    zero = np.zeros((4, 3, 9))
    q = np.array([[0.2, 0.1, -0.3]])
    assert layers.residual_forward(q, coords, zero, params)[0] == 0.0


def test_residual_rotation_invariance():
    rng = np.random.default_rng(21)
    coords = rng.uniform(-1.5, 1.5, size=(5, 3))
    feats = random_feats(rng, 5, 3, 2)
    params = layers.init_residual_layer(rng, 3, 2, 3.0, zero_head=False)
    queries = rng.uniform(-2.0, 2.0, size=(7, 3))
    z = layers.residual_forward(queries, coords, feats, params)
    R = so3.random_rotation(rng)
    z_rot = layers.residual_forward(queries @ R.T, coords @ R.T,
                                    rotate_coeffs(feats, R), params)
    assert np.abs(z - z_rot).max() < 1e-8


def test_residual_query_on_atom_invariant():
    rng = np.random.default_rng(22)
    coords = np.array([[0.5, -0.25, 1.0], [1.5, 0.5, 0.5]])
    feats = random_feats(rng, 2, 2, 2)
    params = layers.init_residual_layer(rng, 2, 2, 3.0, zero_head=False)
    q = coords[:1].copy()
    z = layers.residual_forward(q, coords, feats, params)
    R = axis_angle_rotation(np.array([0.0, 0.0, 1.0]), 0.83)
    # rotate about the query point itself so it stays on the atom
    shift = lambda x: (x - q[0]) @ R.T + q[0]
    z_rot = layers.residual_forward(q, shift(coords), rotate_coeffs(feats, R),
                                    params)
    assert abs(z[0] - z_rot[0]) < 1e-8
    assert np.isfinite(z[0])


def test_residual_backward_matches_fd():
    rng = np.random.default_rng(23)
    coords = rng.uniform(-1.0, 1.0, size=(3, 3))
    feats = random_feats(rng, 3, 2, 2)
    params = layers.init_residual_layer(rng, 2, 2, 3.0, zero_head=False)
    queries = rng.uniform(-1.5, 1.5, size=(4, 3))
    weight = rng.standard_normal(4)

    def loss():
        return float((weight * layers.residual_forward(
            queries, coords, feats, params)).sum())

    cache, grads = {}, nan_twin(params)
    layers.residual_forward(queries, coords, feats, params, cache=cache)
    grad_f = layers.residual_backward(queries, coords, feats, params, weight,
                                      grads, cache)
    for l in range(3):
        sl = so3.block_slice(l)
        arr = feats[:, :, sl]
        for fi in rng.choice(arr.size, size=3, replace=False):
            idx = np.unravel_index(fi, arr.shape)
            h = 1e-6
            old = arr[idx]
            arr[idx] = old + h
            up = loss()
            arr[idx] = old - h
            dn = loss()
            arr[idx] = old
            fd = (up - dn) / (2 * h)
            got = grad_f[:, :, sl][idx]
            assert abs(fd - got) / max(abs(fd), abs(got), 1e-8) < 1e-4
    arr, g = params.radial.head_w, grads.radial.head_w
    for fi in rng.choice(arr.size, size=4, replace=False):
        idx = np.unravel_index(fi, arr.shape)
        h = 1e-5
        old = arr[idx]
        arr[idx] = old + h
        up = loss()
        arr[idx] = old - h
        dn = loss()
        arr[idx] = old
        fd = (up - dn) / (2 * h)
        assert abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8) < 1e-4

@pytest.mark.parametrize("field, bad", [
    ("queries", np.nan), ("coords", np.nan), ("coords", np.inf),
    ("centers", np.nan), ("centers", np.inf)])
def test_residual_rejects_non_finite_points_naming_them(field, bad):
    # a NaN point fails every cutoff test, so it silently got z = 0 or
    # dropped out of the pairs; the basis expansion, which calls the atoms
    # centers, returned NaN densities. Both decoders share the check.
    rng = np.random.default_rng(26)
    res = layers.init_residual_layer(rng, 2, 3, 3.0)
    queries = rng.uniform(-1.0, 1.0, size=(5, 3))
    atoms = rng.uniform(-1.0, 1.0, size=(4, 3))
    (queries if field == "queries" else atoms)[1, 2] = bad
    feats = random_feats(rng, 4, 2, 3)
    spec = basis.RadialBasisSpec.default(l_max=2, n=3)
    calls = []
    if field != "centers":
        calls += [lambda: layers.residual_forward(queries, atoms, feats, res),
                  lambda: layers.residual_backward(queries, atoms, feats, res,
                                                   np.ones(5), None, {})]
    if field != "coords":
        coeffs = np.ones((4, spec.n_radial, spec.n_sh))
        calls += [lambda: basis.expand_density(spec, coeffs, atoms, queries),
                  lambda: basis.expand_density_backward(
                      spec, np.ones(5), atoms, queries, {})]
    for call in calls:
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            call()


def _reference_coupled_harmonics(queries, coords, params, qi, vi):
    """Per degree k the pairs' unit-direction harmonics coupled with the
    scalar through CG(0, k, k), (E, 2k+1); a query on an atom gets an
    arbitrary direction and its k >= 1 rows are zeroed."""
    d = coords[vi] - queries[qi]
    r = np.linalg.norm(d, axis=1)
    degen = r < 1e-12
    d[degen] = (0.0, 0.0, 1.0)
    Y = so3.eval_real_sh(params.l_max, d / np.linalg.norm(d, axis=1)[:, None])
    t = []
    for k in range(params.l_max + 1):
        tk = Y[:, so3.block_slice(k)] @ so3.cg_table(0, k, k)[:, 0, :]
        if k > 0:
            tk[degen] = 0.0
        t.append(tk)
    return t


def _reference_residual_forward(queries, coords, feats, params):
    """The residual forward as a per-degree gather of pair features and a
    3-operand einsum, kept as the reference for the per-atom projection."""
    vi, qi, _, r = geometry.radius_pairs(coords, queries, params.cutoff)
    if qi.size == 0:
        return np.zeros(len(queries))
    phi = layers.radial_forward(params.radial, r).reshape(
        r.size, params.l_max + 1, params.channels)
    t = _reference_coupled_harmonics(queries, coords, params, qi, vi)
    contrib = np.zeros(qi.size)
    for k in range(params.l_max + 1):
        fk = feats[vi][:, :, so3.block_slice(k)]
        contrib += np.einsum("ec,ecb,eb->e", phi[:, k], fk, t[k])
    return np.bincount(qi, weights=contrib, minlength=len(queries))


def _reference_residual_backward(queries, coords, feats, params, grad_z):
    """The residual adjoint with the same gathers and einsums, and the
    feature gradient scattered pair by pair."""
    vi, qi, _, r = geometry.radius_pairs(coords, queries, params.cutoff)
    grad_f = np.zeros_like(feats)
    if qi.size == 0:
        return grad_f, {"radial": _reference_radial_backward(
            params.radial, np.zeros(0), np.zeros((0, params.radial.out_dim)))}
    phi = layers.radial_forward(params.radial, r).reshape(
        r.size, params.l_max + 1, params.channels)
    t = _reference_coupled_harmonics(queries, coords, params, qi, vi)
    ge = grad_z[qi]
    grad_phi = np.empty_like(phi)
    for k in range(params.l_max + 1):
        sl = so3.block_slice(k)
        grad_phi[:, k] = ge[:, None] * np.einsum(
            "ecb,eb->ec", feats[vi][:, :, sl], t[k])
        outer = (ge[:, None] * phi[:, k])[:, :, None] * t[k][:, None, :]
        block = np.zeros_like(grad_f[:, :, sl])
        np.add.at(block, vi, outer)
        grad_f[:, :, sl] = block
    return grad_f, {"radial": _reference_radial_backward(
        params.radial, r, grad_phi.reshape(qi.size, -1))}


def _full_scale_batch(rng):
    """The default residual layer (L = 7, C = 16) with its head at full
    Glorot scale, x100 as the fingerprint has it, and a batch of well over
    1,425 pairs. An atom at the origin sees queries along x at every table
    interval edge, at both float neighbours of each and at the cutoff, and
    one query sits 3e-13 bohr from another atom."""
    params = layers.init_residual_layer(rng, 7, 16, 3.0, zero_head=False)
    params.radial.head_w *= 100.0
    coords = rng.uniform(-1.5, 1.5, size=(5, 3))
    coords[0] = 0.0
    edges = np.arange(layers._K + 1) * (3.0 / layers._K)
    x = np.concatenate([edges, np.nextafter(edges, 0.0),
                        np.nextafter(edges, 3.0)])
    queries = np.concatenate([
        rng.uniform(-2.5, 2.5, size=(400, 3)),
        np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=1),
        coords[1:2] + 3e-13])
    feats = random_feats(rng, 5, 7, 16)
    return queries, coords, feats, params


def test_folded_residual_decode_matches_the_exact_forward(monkeypatch):
    rng = np.random.default_rng(52)
    queries, coords, feats, params = _full_scale_batch(rng)
    vi, qi, _, r = geometry.radius_pairs(coords, queries, 3.0)
    edges = np.arange(layers._K + 1) * (3.0 / layers._K)
    assert r.size >= 1425 and np.isin(edges, r[vi == 0]).all()
    assert 0.0 < r[qi == len(queries) - 1].min() < 1e-12
    exact = layers.residual_forward(queries, coords, feats, params, cache={})
    # no per-pair radial scalars: the uncached forward never runs the net
    monkeypatch.setattr(layers, "radial_forward", None)
    got = layers.residual_forward(queries, coords, feats, params)
    assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()
    # with the table kept, per pair the P+1 table rows at each of the 64
    # (k, m) slots and a dot product over them; per atom the fold
    counters = layers.OpCounters()
    assert np.array_equal(
        layers.residual_forward(queries, coords, feats, params, counters),
        got)
    P1 = layers._P + 1
    assert counters.counts == {"radial": r.size * 64 * P1,
                               "residual": 5 * 64 * layers._K * P1 * 16
                               + r.size * P1}


@pytest.mark.parametrize("path", ["folded", "fallback", "exact", "cached"])
def test_residual_forward_searches_its_pairs_once(monkeypatch, path):
    # the folded decode, the exact pairs after a failed table check, a
    # batch too small for a table and a training forward each call
    # radius_pairs once
    params = _on_net(_scaled_net(10.0 if path == "fallback" else 1.0))
    batch = _table_batch(np.random.default_rng(53), params)
    if path == "exact":
        batch = (batch[0][:20],) + batch[1:]
    calls, real = [], geometry.radius_pairs
    monkeypatch.setattr(geometry, "radius_pairs",
                        lambda *a: calls.append(a) or real(*a))
    # each contraction's cells: the table's K intervals, or the head's one
    cells, real_contract = [], layers._contract

    def contract(tab, feats, Y, rows, *args):
        cells.append(len(tab) // rows.shape[1])
        return real_contract(tab, feats, Y, rows, *args)

    monkeypatch.setattr(layers, "_contract", contract)
    cache = {} if path == "cached" else None
    layers.residual_forward(*batch, params, cache=cache)
    assert len(calls) == 1
    assert set(cells) == {layers._K if path == "folded" else 1}


def test_no_residual_route_forms_per_pair_radial_outputs(monkeypatch):
    # every route folds the head, or the decode table, into each atom's
    # features and contracts a pair's row [h2, 1], or T_j(t), with it: with
    # the full net unavailable, a training forward and backward, a small
    # uncached batch and a table batch still give the reference's values
    rng = np.random.default_rng(54)
    queries, coords, feats, params = _full_scale_batch(rng)
    params.radial.head_b[:] = rng.standard_normal(params.radial.out_dim)
    grad_z = rng.standard_normal(len(queries))
    want_z = _reference_residual_forward(queries, coords, feats, params)
    want_f, want_p = _reference_residual_backward(queries, coords, feats,
                                                  params, grad_z)
    small = queries[:20]
    want_small = _reference_residual_forward(small, coords, feats, params)
    table = layers.residual_forward(queries, coords, feats, params)
    assert layers._DECODE[1] is not None  # built and kept

    def fail(*args, **kwargs):
        raise AssertionError("a residual route ran the full radial net")

    monkeypatch.setattr(layers, "radial_forward", fail)
    monkeypatch.setattr(layers, "_net", fail)
    cache, grads = {}, nan_twin(params)
    _assert_close(layers.residual_forward(queries, coords, feats, params,
                                          cache=cache), want_z)
    _assert_close(layers.residual_backward(queries, coords, feats, params,
                                           grad_z, grads, cache), want_f)
    _assert_grads_close(grads, want_p)
    _assert_close(layers.residual_forward(small, coords, feats, params),
                  want_small)
    _assert_close(table, want_z)
    assert np.array_equal(
        layers.residual_forward(queries, coords, feats, params), table)


@pytest.mark.parametrize("n_queries", [1, 341, 342, 683, 700])
def test_uncached_exact_residual_is_bit_identical_to_cached(n_queries):
    # three atoms that every query reaches: 3 n pairs, around the edges of
    # the uncached route's _ROWS-pair blocks; a failed table check keeps
    # every batch on the exact route
    params = _on_net(_scaled_net(10.0, out_dim=128), l_max=7)
    rng = np.random.default_rng(55)
    coords = rng.uniform(-0.1, 0.1, size=(3, 3))
    d = rng.standard_normal((n_queries, 3))
    queries = d / np.linalg.norm(d, axis=1)[:, None] * rng.uniform(
        0.0, 2.5, size=(n_queries, 1))
    feats = random_feats(rng, 3, 7, 16)
    assert geometry.radius_pairs(coords, queries, 3.0)[3].size == 3 * n_queries
    cached = layers.residual_forward(queries, coords, feats, params, cache={})
    counters = layers.OpCounters()
    got = layers.residual_forward(queries, coords, feats, params, counters)
    assert layers._DECODE is None or layers._DECODE[1] is None
    assert np.array_equal(got, cached)
    _assert_close(got, _reference_residual_forward(queries, coords, feats,
                                                   params))


def test_residual_layer_reads_no_coupling_tables(monkeypatch):
    # CG(0, k, k) is the identity, so the residual layer contracts the
    # harmonics with the features directly
    rng = np.random.default_rng(44)
    coords = rng.uniform(-1.5, 1.5, size=(6, 3))
    feats = random_feats(rng, 6, 7, 4)
    params = layers.init_residual_layer(rng, 7, 4, 3.0, zero_head=False)
    queries = rng.uniform(-2.5, 2.5, size=(40, 3))
    queries[7] = coords[4]
    calls = []
    real = so3.cg_table

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(so3, "cg_table", counting)
    cache = {}
    layers.residual_forward(queries, coords, feats, params, cache=cache)
    layers.residual_backward(queries, coords, feats, params,
                             rng.standard_normal(40), nan_twin(params), cache)
    assert cache["qi"].size > 0 and calls == []


@pytest.mark.parametrize("l_max,channels", [(3, 2), (7, 16)])
@pytest.mark.parametrize("case", ["query_on_atom", "no_pairs"])
def test_residual_matches_reference_einsum(l_max, channels, case):
    rng = np.random.default_rng(43)
    coords = rng.uniform(-1.5, 1.5, size=(6, 3))
    feats = random_feats(rng, 6, l_max, channels)
    params = layers.init_residual_layer(rng, l_max, channels, 3.0,
                                        zero_head=False)
    if case == "query_on_atom":
        queries = rng.uniform(-2.5, 2.5, size=(40, 3))
        queries[7] = coords[4]
        queries[8] = coords[1] + 3e-13  # closer than any usable direction
    else:
        queries = rng.uniform(20.0, 30.0, size=(5, 3))
    grad_z = rng.standard_normal(len(queries))
    counters, cache = layers.OpCounters(), {}
    z = layers.residual_forward(queries, coords, feats, params, counters,
                                cache=cache)
    assert np.array_equal(
        z, layers.residual_forward(queries, coords, feats, params))
    _assert_close(z, _reference_residual_forward(queries, coords, feats,
                                                 params))
    assert set(cache) == {"qi", "vi", "radial", "Y", "rows", "tab", "YB"}
    n_pairs = cache["qi"].size
    assert (n_pairs == 0) == (case == "no_pairs")
    assert np.all(np.diff(cache["vi"]) >= 0)  # pairs come sorted by atom
    # per atom with pairs the head folded into its features, per pair the
    # dot of its row [h2, 1] with the fold applied to its harmonics
    D = layers.RadialNetParams.HIDDEN + 1
    atoms = np.unique(cache["vi"]).size
    assert counters.counts.get("residual", 0) == \
        atoms * D * (l_max + 1) ** 2 * channels + n_pairs * D
    grads = nan_twin(params)
    got_f = layers.residual_backward(queries, coords, feats, params, grad_z,
                                     grads, cache)
    want_f, want_p = _reference_residual_backward(queries, coords, feats,
                                                  params, grad_z)
    _assert_close(got_f, want_f)
    _assert_grads_close(grads, want_p)
    if case == "no_pairs":
        assert not np.any(got_f)


@pytest.mark.parametrize("case", ["query_on_atom", "no_pairs"])
def test_residual_backward_with_forward_cache_matches_uncached(case):
    # the backward reads the pairs, radial features and harmonics the
    # forward cached; the reference recomputes all of them from scratch
    rng = np.random.default_rng(42)
    coords = rng.uniform(-1.0, 1.0, size=(4, 3))
    feats = random_feats(rng, 4, 3, 2)
    params = layers.init_residual_layer(rng, 3, 2, 3.0, zero_head=False)
    if case == "query_on_atom":
        queries = rng.uniform(-2.0, 2.0, size=(9, 3))
        queries[3] = coords[2]
    else:
        queries = rng.uniform(20.0, 30.0, size=(5, 3))
    grad_z = rng.standard_normal(len(queries))
    cache = {}
    z = layers.residual_forward(queries, coords, feats, params, cache=cache)
    assert np.array_equal(
        z, layers.residual_forward(queries, coords, feats, params))
    assert (cache["qi"].size == 0) == (case == "no_pairs")
    assert np.all(np.diff(cache["vi"]) >= 0)  # pairs come sorted by atom
    grads = nan_twin(params)
    got_f = layers.residual_backward(queries, coords, feats, params, grad_z,
                                     grads, cache)
    want_f, want_p = _reference_residual_backward(queries, coords, feats,
                                                  params, grad_z)
    _assert_close(got_f, want_f)
    _assert_grads_close(grads, want_p)
    if case == "no_pairs":
        assert not np.any(want_f)


@pytest.mark.parametrize("layer", ["channel", "fc", "residual"])
@pytest.mark.parametrize("reach", ["connected", "disconnected"])
def test_backwards_overwrite_every_gradient_entry(layer, reach):
    # loss_and_grad hands each backward a twin viewing its gradient vector
    # and does not zero it per layer: every entry must be written, and a
    # layer with no edges or no query-atom pairs writes exact zeros
    rng = np.random.default_rng(61)
    far = reach == "disconnected"
    coords = (np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]) if far
              else rng.uniform(-1.5, 1.5, size=(5, 3)))
    feats = random_feats(rng, len(coords), 2, 3)
    cache = {}
    if layer == "residual":
        params = layers.init_residual_layer(rng, 2, 3, 3.0, zero_head=False)
        queries = rng.uniform(20.0, 30.0, size=(6, 3)) if far else \
            rng.uniform(-2.0, 2.0, size=(6, 3))
        grad_z = rng.standard_normal(6)
        layers.residual_forward(queries, coords, feats, params, cache=cache)
        assert (cache["qi"].size == 0) == far
        grads = nan_twin(params)
        got_f = layers.residual_backward(queries, coords, feats, params,
                                         grad_z, grads, cache)
        want_f, want_p = _reference_residual_backward(queries, coords, feats,
                                                      params, grad_z)
    else:
        graph = geometry.MolecularGraph.from_coords(
            np.zeros(len(coords), dtype=int), coords, 3.0)
        assert (graph.n_edges == 0) == far
        params = layers.init_conv_layer(rng, 2, 3, 3.0, mode=layer,
                                        zero_head=False)
        grad_out = random_feats(rng, len(coords), 2, 3)
        layers.conv_forward(graph, feats, params, cache=cache)
        grads = nan_twin(params)
        got_f = layers.conv_backward(graph, feats, params, grad_out, grads,
                                     cache)
        want_f, want_p = _reference_conv_backward(graph, feats, params,
                                                  grad_out)
    written = [getattr(owner, attr) for _, owner, attr in grads.slots("")]
    assert all(np.all(np.isfinite(a)) for a in written)
    _assert_close(got_f, want_f)
    _assert_grads_close(grads, want_p)
    if far:
        assert not any(np.any(getattr(o, a))
                       for _, o, a in grads.radial.slots(""))
