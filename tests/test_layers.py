import sys
import threading

import numpy as np
import pytest

from coeff_rotation import rotate_coeffs
from infgcn import geometry, layers, so3
from infgcn.errors import DomainError


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


def test_paths_l1_explicit():
    assert layers.make_paths(1) == (
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 1, 2))


def test_paths_count_and_triangle():
    paths = layers.make_paths(7)
    assert len(paths) == 344
    for l, k, J in paths:
        assert abs(l - k) <= J <= l + k
    assert list(paths) == sorted(paths)


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


def test_radial_backward_matches_fd():
    rng = np.random.default_rng(4)
    p = layers.init_radial_net(rng, 3.0, 5, zero_head=False)
    r = rng.uniform(0.1, 2.9, size=4)
    weight = rng.standard_normal((4, 5))
    grads = layers.radial_backward(p, r, weight)
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
            got = grads[name][idx]
            assert abs(fd - got) / max(abs(fd), abs(got), 1e-8) < 1e-5


def test_radial_backward_with_forward_cache_matches_uncached():
    rng = np.random.default_rng(41)
    p = layers.init_radial_net(rng, 3.0, 6, zero_head=False)
    r = rng.uniform(0.0, 3.0, size=9)
    weight = rng.standard_normal((9, 6))
    cache = {}
    out = layers.radial_forward(p, r, cache=cache)
    assert np.array_equal(out, layers.radial_forward(p, r))
    assert sorted(cache) == ["a1", "a2", "e", "h1", "h2"]
    cached = layers.radial_backward(p, r, weight, cache=cache)
    uncached = layers.radial_backward(p, r, weight)
    assert cached.keys() == uncached.keys()
    for key, g in uncached.items():
        _assert_close(cached[key], g)


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
    calls = {
        "conv_forward_degrees": lambda: layers.conv_forward(
            graph, extra, params),
        "conv_forward_nodes": lambda: layers.conv_forward(
            graph, feats[:3], params),
        "conv_forward_channels": lambda: layers.conv_forward(
            graph, feats[:, :2], params),
        "conv_backward_feats": lambda: layers.conv_backward(
            graph, extra, params, feats),
        "conv_backward_degrees": lambda: layers.conv_backward(
            graph, feats, params, extra),
        "gate_forward_split": lambda: layers.gate_forward(feats[:, :, :5]),
        "gate_forward_2d": lambda: layers.gate_forward(feats[:, 0]),
        "gate_backward_degrees": lambda: layers.gate_backward(feats, extra),
        "residual_forward_degrees": lambda: layers.residual_forward(
            q, coords, extra, res),
        "residual_backward_degrees": lambda: layers.residual_backward(
            q, coords, extra, res, np.zeros(5)),
        "residual_backward_long": lambda: layers.residual_backward(
            q, coords, feats, res, np.zeros(6)),
        "residual_backward_column": lambda: layers.residual_backward(
            q, coords, feats, res, np.zeros((5, 1))),
        "residual_forward_queries": lambda: layers.residual_forward(
            q[:, :2], coords, feats, res),
        "residual_backward_coords": lambda: layers.residual_backward(
            q, coords.T, feats, res, np.zeros(5)),
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
        matvec = sum((2 * l + 1) * (2 * k + 1)
                     for l in range(L + 1) for k in range(L + 1))
        assert matvec == (L + 1) ** 4
        assert counters.counts["matvec"] == E * C * (L + 1) ** 4
        mixing = sum((2 * l + 1) * (2 * k + 1)
                     for (l, k, J) in layers.make_paths(L))
        assert counters.counts["mixing"] == E * C * mixing
        assembly = sum((2 * J + 1) * (2 * l + 1) * (2 * k + 1)
                       for (l, k, J) in layers.make_paths(L))
        assert counters.counts["assembly"] == E * assembly


# The per-path loops that conv_forward and conv_backward replaced, kept as
# the reference the batched plan must reproduce.


def _reference_blocks(paths, Y):
    return {(l, k, J): np.einsum("eM,Mab->eab", Y[:, so3.block_slice(J)],
                                 so3.cg_table(l, k, J).dense)
            for (l, k, J) in paths}


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
    r, rhat = layers._edge_geometry(graph)
    Y = so3.eval_real_sh(2 * L, rhat)
    phi = layers._phi_per_path(params, r)
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
            "self_w": grad_self, "radial": layers.radial_backward(
                params.radial, np.zeros(0),
                np.zeros((0, params.radial.out_dim)))}
    r, rhat = layers._edge_geometry(graph)
    Y = so3.eval_real_sh(2 * L, rhat)
    phi = layers._phi_per_path(params, r)
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
    grad_radial = layers.radial_backward(
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
    assert bool(cache) == (graph.n_edges > 0)
    want = _reference_conv_forward(graph, feats, params)
    for l in range(l_max + 1):
        sl = so3.block_slice(l)
        _assert_close(got[:, :, sl], want[:, :, sl])

    # the backward reading the forward's cache and the one building its own
    # must both match the reference, and each other
    cached = layers.conv_backward(graph, feats, params, grad_out, cache=cache)
    uncached = layers.conv_backward(graph, feats, params, grad_out)
    want_f, want_p = _reference_conv_backward(graph, feats, params, grad_out)
    for got_f, got_p in (cached, uncached):
        for l in range(l_max + 1):
            sl = so3.block_slice(l)
            _assert_close(got_f[:, :, sl], want_f[:, :, sl])
        _assert_close(got_p["self_w"], want_p["self_w"])
        assert got_p["radial"].keys() == want_p["radial"].keys()
        for key, want_g in want_p["radial"].items():
            _assert_close(got_p["radial"][key], want_g)
    _assert_close(cached[0], uncached[0])
    _assert_close(cached[1]["self_w"], uncached[1]["self_w"])
    for key, g in uncached[1]["radial"].items():
        _assert_close(cached[1]["radial"][key], g)


def test_conv_plan_built_once(monkeypatch):
    calls = []
    real = so3.cg_table

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(so3, "cg_table", counting)
    monkeypatch.setattr(layers, "_PLANS", {})
    rng = np.random.default_rng(24)
    graph, feats, params = small_instance(rng, l_max=3)
    layers.conv_forward(graph, feats, params)
    assert sorted(calls) == sorted(params.paths)
    calls.clear()
    layers.conv_forward(graph, feats, params)
    layers.conv_backward(graph, feats, params, feats)
    assert calls == []


def test_conv_plan_concurrent_first_build(monkeypatch):
    # racing first builds (of the CG tables too) take no lock; every thread
    # must still get a plan equal to a serial build, and the memo one of them
    want = layers._build_plan(4)
    monkeypatch.setattr(layers, "_PLANS", {})
    monkeypatch.setattr(so3, "_MEMO", {})
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
    assert any(layers._PLANS[4] is plan for plan in got)
    for plan in got:
        assert (plan.assembly, plan.mixing) == (want.assembly, want.mixing)
        assert len(plan.pairs) == len(want.pairs)
        for a, b in zip(plan.pairs, want.pairs):
            assert a[:4] == b[:4]
            assert all(np.array_equal(x, y) for x, y in zip(a[4], b[4]))


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
    x.ravel()[:8] = (0.0, -0.0, 800.0, -800.0, np.inf, -np.inf,
                     1e-300, -1e-300)
    with np.errstate(over="raise", invalid="raise"):
        got = layers._sigmoid(x)
        want = _reference_sigmoid(x)
    assert np.array_equal(got, want)
    assert got.ravel()[:6].tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]


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

    grad_f, grad_p = layers.conv_backward(graph, feats, params, weight)
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
    checks = [(params.self_w, grad_p["self_w"]),
              (params.radial.head_w, grad_p["radial"]["head_w"]),
              (params.radial.w1, grad_p["radial"]["w1"]),
              (params.radial.b2, grad_p["radial"]["b2"])]
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
    R = so3.axis_angle_rotation(np.array([0.0, 0.0, 1.0]), 0.83)
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

    grad_f, grad_p = layers.residual_backward(queries, coords, feats,
                                              params, weight)
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
    arr, g = params.radial.head_w, grad_p["radial"]["head_w"]
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

@pytest.mark.parametrize("case", ["query_on_atom", "no_pairs"])
def test_residual_backward_with_forward_cache_matches_uncached(case):
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
    got_f, got_p = layers.residual_backward(queries, coords, feats, params,
                                            grad_z, cache=cache)
    want_f, want_p = layers.residual_backward(queries, coords, feats, params,
                                              grad_z)
    _assert_close(got_f, want_f)
    assert got_p["radial"].keys() == want_p["radial"].keys()
    for key, g in want_p["radial"].items():
        _assert_close(got_p["radial"][key], g)
    if case == "no_pairs":
        assert not np.any(want_f)


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
        tk = Y[:, so3.block_slice(k)] @ so3.cg_table(0, k, k).dense[:, 0, :]
        if k > 0:
            tk[degen] = 0.0
        t.append(tk)
    return t


def _reference_residual_forward(queries, coords, feats, params):
    """The residual forward as a per-degree gather of pair features and a
    3-operand einsum, kept as the reference for the per-atom projection."""
    terms = layers._residual_terms(queries, coords, params)
    qi, vi = terms["qi"], terms["vi"]
    if qi.size == 0:
        return np.zeros(len(queries))
    t = _reference_coupled_harmonics(queries, coords, params, qi, vi)
    contrib = np.zeros(qi.size)
    for k in range(params.l_max + 1):
        fk = feats[vi][:, :, so3.block_slice(k)]
        contrib += np.einsum("ec,ecb,eb->e", terms["phi"][:, k], fk, t[k])
    return np.bincount(qi, weights=contrib, minlength=len(queries))


def _reference_residual_backward(queries, coords, feats, params, grad_z):
    """The residual adjoint with the same gathers and einsums, and the
    feature gradient scattered pair by pair."""
    terms = layers._residual_terms(queries, coords, params, cache={})
    qi, vi = terms["qi"], terms["vi"]
    grad_f = np.zeros_like(feats)
    if qi.size == 0:
        return grad_f, {"radial": layers.radial_backward(
            params.radial, np.zeros(0), np.zeros((0, params.radial.out_dim)))}
    phi = terms["phi"]
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
    return grad_f, {"radial": layers.radial_backward(
        params.radial, terms["r"], grad_phi.reshape(qi.size, -1))}


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
                             rng.standard_normal(40), cache=cache)
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
    _assert_close(z, _reference_residual_forward(queries, coords, feats,
                                                 params))
    n_pairs = cache["qi"].size
    assert (n_pairs == 0) == (case == "no_pairs")
    assert counters.counts.get("residual", 0) == \
        n_pairs * (l_max + 1) ** 2 * (channels + 1)
    want_f, want_p = _reference_residual_backward(queries, coords, feats,
                                                  params, grad_z)
    for c in (cache, None):
        got_f, got_p = layers.residual_backward(queries, coords, feats,
                                                params, grad_z, cache=c)
        _assert_close(got_f, want_f)
        for key, g in want_p["radial"].items():
            _assert_close(got_p["radial"][key], g)
