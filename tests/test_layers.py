import numpy as np
import pytest

from infgcn import geometry, layers, so3
from infgcn.errors import DomainError


def random_feats(rng, n, l_max, channels):
    return layers.NodeFeatures(l_max, channels, {
        l: rng.standard_normal((n, channels, 2 * l + 1))
        for l in range(l_max + 1)})


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
        want = params.self_w[l][None, :, None] * feats.blocks[l]
        assert np.array_equal(out.blocks[l], want)


def test_conv_zero_head_reduces_to_self_interaction():
    rng = np.random.default_rng(6)
    graph, feats, params = small_instance(rng, zero_head=True)
    assert graph.n_edges > 0
    out = layers.conv_forward(graph, feats, params)
    for l in range(feats.l_max + 1):
        assert np.allclose(out.blocks[l], feats.blocks[l], atol=1e-15)


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
    for l in range(3):
        assert np.array_equal(out1.blocks[l], out2.blocks[l])


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

    plain = run(graph, feats).rotate(R)
    rotated = run(graph_r, feats.rotate(R))
    return rotated.max_abs_diff(plain)


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
    size = lambda p: sum(a.size for _, a in p.named_arrays("x"))
    assert size(ch) < size(fc)


def test_conv_deterministic():
    rng = np.random.default_rng(12)
    graph, feats, params = small_instance(rng)
    a = layers.conv_forward(graph, feats, params)
    b = layers.conv_forward(graph, feats, params)
    for l in a.blocks:
        assert np.array_equal(a.blocks[l], b.blocks[l])


def test_conv_layout_mismatch():
    rng = np.random.default_rng(13)
    graph, feats, params = small_instance(rng, l_max=2)
    bad = random_feats(rng, graph.n_atoms, 3, 3)
    with pytest.raises(DomainError):
        layers.conv_forward(graph, bad, params)


def test_conv_counters_closed_form():
    rng = np.random.default_rng(14)
    for L in (1, 2, 3):
        graph, feats, params = small_instance(rng, l_max=L)
        counters = layers.OpCounters()
        layers.conv_forward(graph, feats, params, counters)
        E, C = graph.n_edges, feats.channels
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


def test_gate_zero_stays_zero():
    rng = np.random.default_rng(15)
    feats = random_feats(rng, 4, 2, 3)
    for l in (1, 2):
        feats.blocks[l][:] = 0.0
    out = layers.gate_forward(feats)
    for l in (1, 2):
        assert np.all(out.blocks[l] == 0.0)


def test_gate_identity_passthrough():
    rng = np.random.default_rng(16)
    feats = random_feats(rng, 4, 2, 3)
    out = layers.gate_forward(feats, act0="identity", act_l="identity")
    for l in range(3):
        assert np.allclose(out.blocks[l], feats.blocks[l], atol=1e-15)


def test_gate_commutes_with_rotation():
    rng = np.random.default_rng(17)
    feats = random_feats(rng, 4, 3, 2)
    R = so3.random_rotation(rng)
    a = layers.gate_forward(feats.rotate(R))
    b = layers.gate_forward(feats).rotate(R)
    assert a.max_abs_diff(b) < 1e-10


def test_gate_backward_matches_fd():
    rng = np.random.default_rng(18)
    feats = random_feats(rng, 3, 2, 2)
    weight = random_feats(rng, 3, 2, 2)

    def loss(f):
        out = layers.gate_forward(f)
        return sum(float((weight.blocks[l] * out.blocks[l]).sum())
                   for l in out.blocks)

    grad = layers.gate_backward(feats, weight)
    for l in range(3):
        arr = feats.blocks[l]
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
            got = grad.blocks[l][idx]
            assert abs(fd - got) / max(abs(fd), abs(got), 1e-8) < 1e-5


def test_conv_backward_matches_fd():
    rng = np.random.default_rng(19)
    graph, feats, params = small_instance(rng, n_atoms=3, l_max=2,
                                          channels=2)
    weight = random_feats(rng, 3, 2, 2)

    def loss():
        out = layers.conv_forward(graph, feats, params)
        return sum(float((weight.blocks[l] * out.blocks[l]).sum())
                   for l in out.blocks)

    grad_f, grad_p = layers.conv_backward(graph, feats, params, weight)
    # feature gradients
    for l in range(3):
        arr = feats.blocks[l]
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
            got = grad_f.blocks[l][idx]
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
    zero = layers.NodeFeatures.zeros(4, 2, 3)
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
                                    feats.rotate(R), params)
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
    z_rot = layers.residual_forward(q, shift(coords), feats.rotate(R), params)
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
        arr = feats.blocks[l]
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
            got = grad_f.blocks[l][idx]
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