import dataclasses
import json
import struct

import numpy as np
import pytest
from disk_full import DiskFullAt
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infgcn import basis, dataio, geometry, layers, model, so3
from infgcn.errors import DomainError, NonFiniteError

SMALL = model.ModelConfig(l_max=2, channels=3, n_layers=2, cutoff=3.0,
                          vocab=4, r_min=0.5, r_max=3.0)


def small_instance(rng, n_atoms=5, cfg=SMALL):
    coords = rng.uniform(-1.2, 1.2, size=(n_atoms, 3))
    types = rng.integers(0, cfg.vocab, size=n_atoms)
    graph = geometry.MolecularGraph.from_coords(types, coords, cfg.cutoff)
    return graph


def test_config_defaults():
    cfg = model.ModelConfig()
    assert (cfg.l_max, cfg.channels, cfg.n_layers) == (7, 16, 3)
    assert cfg.cutoff == 3.0
    assert cfg.residual and cfg.mode == "channel"
    with pytest.raises(DomainError):
        model.ModelConfig(n_layers=0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="cutoff"):
            model.ModelConfig(cutoff=bad)


@pytest.mark.parametrize("field, value", [
    ("mode", "dense"), ("act0", "relu"), ("act_l", "tanh"),
    ("spacing", "log"), ("r_min", 5.0), ("r_min", 7.5), ("l_max", 2.5),
    ("l_max", True), ("l_max", -1), ("channels", 0), ("n_layers", "2"),
    ("vocab", None), ("residual", 2), ("residual", "no"), ("cutoff", True),
    ("r_max", True), ("cutoff", "3"), ("r_min", "x"), ("cutoff", 10**400),
    ("r_max", float("inf")), ("channels", 10**12), ("l_max", 10**6),
    ("vocab", 10**12), ("l_max", 21), ("l_max", 100)])
def test_config_rejects_unknown_choice_naming_field(field, value):
    with pytest.raises(DomainError, match=field):
        model.ModelConfig(**{field: value})


@pytest.mark.parametrize("cfg", [
    model.ModelConfig(), SMALL, model.ModelConfig(mode="fc", l_max=3),
    model.ModelConfig(l_max=0, channels=1, n_layers=1, residual=False)])
def test_n_params_counts_the_built_layout(cfg):
    # the size bound reads this count, so it must be the layout's own
    assert cfg.n_params() == model.init_params(cfg).flat.size


def test_init_features_isotropic():
    rng = np.random.default_rng(0)
    params = model.init_params(SMALL, seed=1)
    types = np.array([2, 2, 0])
    f = model.init_features(params, types)
    assert f.shape == (3, SMALL.channels, 9)
    assert np.array_equal(f[0], f[1])
    assert np.all(f[:, :, 1:] == 0.0)
    assert np.array_equal(f[:, :, 0], params.embed[types])
    with pytest.raises(DomainError):
        model.init_features(params, np.array([4]))
    params.embed[1] = 0.0
    z = model.init_features(params, np.array([1]))
    assert np.all(z == 0.0)


def test_init_features_rejects_non_integer_types():
    # float types were truncated: [0.5, 1] read as types 0 and 1
    params = model.init_params(SMALL, seed=1)
    with pytest.raises(DomainError) as graph_err:
        geometry.MolecularGraph([0.5, 1], np.zeros((2, 3)), 3.0)
    with pytest.raises(DomainError) as feat_err:
        model.init_features(params, [0.5, 1])
    assert str(feat_err.value) == str(graph_err.value)


def test_zero_params_zero_output():
    rng = np.random.default_rng(1)
    params = model.init_params(SMALL, seed=2, zero_heads=True)
    params.embed[:] = 0.0
    graph = small_instance(rng)
    q = rng.uniform(-2, 2, size=(11, 3))
    assert np.all(model.predict_density(params, graph, q) == 0.0)


def test_no_residual_is_pure_expansion():
    rng = np.random.default_rng(2)
    cfg = model.ModelConfig(l_max=2, channels=3, n_layers=2, cutoff=3.0,
                            vocab=4, residual=False, r_max=3.0)
    params = model.init_params(cfg, seed=3, zero_heads=False)
    graph = small_instance(rng, cfg=cfg)
    q = rng.uniform(-2, 2, size=(9, 3))
    dens, trace = model.forward_trace(params, graph, q)
    direct = basis.expand_density(cfg.basis_spec(), trace["coeffs"],
                                  graph.atom_coord, q)
    assert np.array_equal(dens, direct)


@pytest.mark.parametrize("mode", ["channel", "fc"])
@pytest.mark.parametrize("residual", [True, False])
def test_encode_then_decode_matches_one_pass(mode, residual):
    rng = np.random.default_rng(21)
    cfg = dataclasses.replace(SMALL, mode=mode, residual=residual)
    params = model.init_params(cfg, seed=22, zero_heads=False)
    lone = geometry.MolecularGraph.from_coords(
        [1, 2], [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0 * cfg.cutoff]], cfg.cutoff)
    assert lone.n_edges == 0
    for graph in (small_instance(rng, cfg=cfg), lone):
        # one query sits on an atom, where only l = 0 basis terms survive
        q = np.vstack([graph.atom_coord[:1], rng.uniform(-2, 2, (13, 3))])
        coeffs = model.encode(params, graph)
        assert np.array_equal(
            model.predict_density(params, graph, q, coeffs=coeffs),
            model.predict_density(params, graph, q))
        dens, trace = model.forward_trace(params, graph, q)
        assert np.array_equal(trace["coeffs"], coeffs)
        assert np.array_equal(dens, model.predict_density(params, graph, q))


def test_decode_table_follows_in_place_parameter_updates(monkeypatch):
    # the residual net's decode table is memoized across predictions; an
    # in-place update of params.flat, as optimize_step makes, must not
    # leave a stale table in use
    rng = np.random.default_rng(23)
    params = model.init_params(SMALL, seed=24, zero_heads=False)
    graph = small_instance(rng)
    q = rng.uniform(-2, 2, size=(1500, 3))
    builds, real = [], layers._table
    monkeypatch.setattr(layers, "_table",
                        lambda p: builds.append(p) or real(p))
    first = model.predict_density(params, graph, q)
    assert np.array_equal(model.predict_density(params, graph, q), first)
    assert len(builds) == 1  # the pairs are a table-sized batch, built once
    reg = model.ParamRegistry(params)
    i = reg.names.index("residual.radial.w1")
    params.flat[reg.offsets[i]:reg.offsets[i + 1]] *= 1.5
    second = model.predict_density(params, graph, q)
    assert len(builds) == 2 and not np.array_equal(second, first)
    assert not any(np.shares_memory(a, params.flat)
                   for a in layers._DECODE[0])
    monkeypatch.setattr(layers, "_DECODE", None)
    assert np.array_equal(model.predict_density(params, graph, q), second)
    assert len(builds) == 3


def test_partitioned_box_decode_matches_one_dense_pass():
    # whole-plane batches of a diagonal cell decode from 1-D tables; flat
    # batches and a sheared cell's batches keep the dense path, as does the
    # cached forward of training
    rng = np.random.default_rng(25)
    cfg = dataclasses.replace(SMALL, l_max=3)
    params = model.init_params(cfg, seed=26, zero_heads=False)
    graph = small_instance(rng, cfg=cfg)
    coeffs = model.encode(params, graph)
    for cell in (np.diag([4.0, 3.5, 4.5]),
                 [[4.0, 0.0, 0.0], [0.5, 3.5, 0.0], [0.0, 0.0, 4.5]]):
        grid = geometry.VoxelGrid((16, 17, 4), cell, np.full(3, -2.0),
                                  np.zeros(1088))
        nodes = geometry.grid_coordinates(grid)
        whole, _ = model.forward_trace(params, graph, nodes)
        for bs in (100, 272, 600):
            got = np.concatenate([model.predict_density(
                params, graph, b.points, coeffs=coeffs)
                for b in geometry.partition_grid(grid, bs)])
            assert np.abs(got - whole).max() <= 1e-12 * np.abs(whole).max()


def test_predict_rejects_bad_coeffs_naming_them():
    rng = np.random.default_rng(23)
    params = model.init_params(SMALL, seed=24, zero_heads=False)
    graph = small_instance(rng)
    q = rng.uniform(-1, 1, size=(4, 3))
    coeffs = model.encode(params, graph)
    for bad in (coeffs[1:], coeffs[:, :-1], coeffs[:, :, :4], coeffs[0]):
        with pytest.raises(DomainError, match="coeffs"):
            model.predict_density(params, graph, q, coeffs=bad)
    for value in (np.nan, np.inf):
        bad = coeffs.copy()
        bad[2, 1, 3] = value
        with pytest.raises(NonFiniteError, match="coeffs"):
            model.predict_density(params, graph, q, coeffs=bad)


def test_predict_rejects_coincident_atoms():
    # build_radius_graph keeps the zero-length edges of two atoms at one
    # point, and conv refuses them rather than pick a direction
    params = model.init_params(SMALL, seed=25, zero_heads=False)
    graph = geometry.MolecularGraph.from_coords(
        [0, 1, 2], [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]],
        SMALL.cutoff)
    with pytest.raises(DomainError, match="^coincident atoms produce "
                       "directionless edges$"):
        model.predict_density(params, graph, np.zeros((2, 3)))


def test_predict_names_the_conv_layer_that_goes_non_finite():
    rng = np.random.default_rng(26)
    params = model.init_params(SMALL, seed=27, zero_heads=False)
    params.convs[0].self_w[0, 1] = np.inf
    with pytest.raises(NonFiniteError, match=r"conv_forward\[0\]$"):
        model.predict_density(params, small_instance(rng),
                              rng.uniform(-1, 1, size=(4, 3)))


def test_full_model_equivariance():
    rng = np.random.default_rng(3)
    params = model.init_params(SMALL, seed=4, zero_heads=False)
    graph = small_instance(rng)
    q = rng.uniform(-1.5, 1.5, size=(16, 3))
    base = model.predict_density(params, graph, q)
    for _ in range(3):
        R = so3.random_rotation(rng)
        graph_r = geometry.MolecularGraph.from_coords(
            graph.atom_type, graph.atom_coord @ R.T, SMALL.cutoff)
        rot = model.predict_density(params, graph_r, q @ R.T)
        assert np.abs(rot - base).max() < 1e-7 * max(1.0, np.abs(base).max())


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), l_max=st.integers(0, 3),
       channels=st.integers(1, 3), mode=st.sampled_from(layers.CONV_MODES),
       n_layers=st.integers(1, 2), residual=st.booleans(),
       act_l=st.sampled_from(layers.ACTIVATIONS), n_random=st.integers(0, 3),
       z_pair=st.booleans(), isolated=st.booleans())
@example(seed=0, l_max=2, channels=2, mode="fc", n_layers=2, residual=True,
         act_l="silu", n_random=2, z_pair=True, isolated=True)
@example(seed=1, l_max=2, channels=3, mode="channel", n_layers=2,
         residual=True, act_l="identity", n_random=3, z_pair=True,
         isolated=False)
def test_prediction_is_equivariant_and_matches_the_trace_bitwise(
        seed, l_max, channels, mode, n_layers, residual, act_l, n_random,
        z_pair, isolated):
    # under 1,024 query-atom pairs, so no decode table or second row block
    # separates the uncached radial pass from the cached one
    rng = np.random.default_rng(seed)
    cfg = model.ModelConfig(l_max=l_max, channels=channels, n_layers=n_layers,
                            cutoff=3.0, vocab=3, residual=residual, mode=mode,
                            act_l=act_l, r_min=0.5, r_max=3.0)
    params = model.init_params(cfg, seed=seed % 1000, zero_heads=False)
    nets = [cp.radial for cp in params.convs]
    for net in nets + ([params.residual.radial] if residual else []):
        net.head_w *= 100.0  # full Glorot scale
        net.head_b[:] = rng.standard_normal(net.out_dim)
    coords = [rng.uniform(-1.5, 1.5, size=(n_random, 3))]
    if z_pair:
        p = rng.uniform(-1.5, 1.5, size=3)
        coords.append([p, p + (0.0, 0.0, rng.uniform(0.5, 2.5))])
    if isolated or not (n_random or z_pair):
        coords.append([(50.0, 0.0, 0.0)])
    coords = np.concatenate(coords)
    types = rng.integers(0, cfg.vocab, size=len(coords))
    graph = geometry.MolecularGraph.from_coords(types, coords, cfg.cutoff)
    queries = rng.uniform(-2.0, 2.0, size=(16, 3))
    base = model.predict_density(params, graph, queries)
    traced, _ = model.forward_trace(params, graph, queries)
    assert np.array_equal(traced, base)
    R = so3.random_rotation(rng)
    graph_r = geometry.MolecularGraph.from_coords(types, coords @ R.T,
                                                  cfg.cutoff)
    rot = model.predict_density(params, graph_r, queries @ R.T)
    assert np.abs(rot - base).max() <= 1e-10 * np.abs(base).max()


def test_equivariance_report():
    rng = np.random.default_rng(4)
    params = model.init_params(SMALL, seed=5, zero_heads=False)
    graph = small_instance(rng)
    q = rng.uniform(-1.5, 1.5, size=(10, 3))
    rep = model.equivariance_report(params, graph, q, seed=9)
    assert rep["n_rotations"] == 20
    assert rep["max_rel_deviation"] < 1e-8


def test_loss_l2_examples():
    assert model.loss_l2(np.array([1.0]), np.array([1.0])) == 0.0
    assert model.loss_l2(np.array([3.0]), np.array([1.0]), 1.0) == 4.0
    with pytest.raises(DomainError):
        model.loss_l2(np.zeros(3), np.zeros(4))


def test_loss_monte_carlo_matches_riemann():
    # dense-grid oracle: uniform sampling is an unbiased estimate of the
    # Riemann sum, within a few percent at this sample size
    rng = np.random.default_rng(5)
    n = 20
    g0 = geometry.VoxelGrid((n, n, n), 4.0 * np.eye(3), np.zeros(3),
                            np.zeros(n ** 3))
    nodes = geometry.grid_coordinates(g0)
    c = geometry.cell_center(g0)
    d2 = np.einsum("qx,qx->q", nodes - c, nodes - c)
    target = np.exp(-d2)
    pred = np.exp(-1.15 * d2) * 1.1
    w = g0.voxel_volume
    riemann = model.loss_l2(pred, target, w)
    sample = np.random.default_rng(11).choice(n ** 3, size=4096,
                                              replace=False)
    vol = abs(np.linalg.det(g0.cell))
    mc = model.loss_l2(pred[sample], target[sample],
                       vol / sample.size)
    assert abs(mc - riemann) / riemann < 0.02


def test_nmae_examples():
    t = np.array([0.3, -0.7, 1.4])
    assert model.nmae(t, t) == 0.0
    assert model.nmae(np.zeros(3), t) == 100.0
    assert abs(model.nmae(1.1 * t, t) - 10.0) < 1e-9
    with pytest.raises(DomainError):
        model.nmae(t, np.zeros(3))


def test_count_parameters_closed_form():
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=1, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg, seed=0)
    n_paths = len(layers.make_paths(1))
    assert n_paths == 6
    radial = lambda out: 64 * 128 + 128 + 128 * 128 + 128 + 128 * out + out
    want = (3 * 2                      # embedding table
            + radial(n_paths * 2) + 2 * 2   # conv radial + self weights
            + radial(2 * 2))           # residual head: (l_max+1)*channels
    assert params.flat.size == want


def _reference_flat(cfg, seed, zero_heads):
    """init_params' flat vector, drawn array by array: embeddings, then per
    conv layer its radial net and self weights, then the residual layer's
    radial net."""
    rng = np.random.default_rng(seed)

    def glorot(shape):
        bound = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-bound, bound, size=shape)

    def radial(out):  # the head is drawn first
        head = (np.zeros((128, out)) if zero_heads
                else 0.01 * glorot((128, out)))
        w1, w2 = glorot((64, 128)), glorot((128, 128))
        return [w1, np.zeros(128), w2, np.zeros(128), head, np.zeros(out)]

    arrays = [rng.standard_normal((cfg.vocab, cfg.channels))]
    per_path = cfg.channels if cfg.mode == "channel" else cfg.channels ** 2
    for _ in range(cfg.n_layers):
        arrays += radial(len(layers.make_paths(cfg.l_max)) * per_path)
        arrays.append(np.ones((cfg.l_max + 1, cfg.channels)))
    if cfg.residual:
        arrays += radial((cfg.l_max + 1) * cfg.channels)
    return np.concatenate([a.ravel() for a in arrays])


@pytest.mark.parametrize("mode", ["channel", "fc"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_init_params_matches_reference_draws(mode, seed):
    cfg = dataclasses.replace(SMALL, mode=mode)
    for zero_heads in (True, False):
        params = model.init_params(cfg, seed=seed, zero_heads=zero_heads)
        assert np.array_equal(params.flat,
                              _reference_flat(cfg, seed, zero_heads))


def test_checkpoint_load_draws_no_random_numbers(tmp_path, monkeypatch):
    params = model.init_params(SMALL, seed=9, zero_heads=False)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(params, path)

    def no_generator(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = model.load_checkpoint(path)
    assert np.array_equal(loaded.flat, params.flat)
    for (_, a), (_, b) in zip(loaded.named_arrays(), params.named_arrays()):
        assert np.shares_memory(a, loaded.flat) and np.array_equal(a, b)


def test_checkpoint_roundtrip(tmp_path):
    params = model.init_params(SMALL, seed=7, zero_heads=False)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(params, path)
    loaded = model.load_checkpoint(path)
    assert loaded.config == params.config
    for (na, a), (nb, b) in zip(params.named_arrays(),
                                loaded.named_arrays()):
        assert na == nb
        assert np.array_equal(a, b)


def test_checkpoint_rejects_corruption(tmp_path):
    params = model.init_params(SMALL, seed=8)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(params, path)
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad1.ckpt"
    bad_magic.write_bytes(b"XXXXXX\n\n" + raw[8:])
    with pytest.raises(DomainError):
        model.load_checkpoint(bad_magic)
    truncated = tmp_path / "bad2.ckpt"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(DomainError):
        model.load_checkpoint(truncated)
    trailing = tmp_path / "bad3.ckpt"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(DomainError):
        model.load_checkpoint(trailing)
    for name, blob, needle in _corrupt_headers(raw):
        bad = tmp_path / f"{name}.ckpt"
        bad.write_bytes(blob)
        with pytest.raises(DomainError, match=needle):
            model.load_checkpoint(bad)


def _corrupt_headers(raw):
    """(name, file bytes, expected message) for damaged checkpoint headers,
    built from the valid checkpoint ``raw``."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    blob = raw[12 + hlen:]

    def with_header(h):
        hb = json.dumps(h).encode()
        return raw[:8] + struct.pack("<I", len(hb)) + hb + blob

    no_arrays = {k: v for k, v in header.items() if k != "arrays"}
    no_config = {k: v for k, v in header.items() if k != "config"}
    extra = dict(header, config=dict(header["config"], depth=3))
    bool_cutoff = dict(header, config=dict(header["config"], cutoff=True))
    return [
        ("cut_length", raw[:10], "header length"),
        ("cut_header", raw[:12 + hlen // 2], "header JSON"),
        ("not_utf8", raw[:12] + b"\xff" * hlen + blob, "header JSON"),
        ("not_object", with_header([1, 2]), "header JSON"),
        ("no_arrays", with_header(no_arrays), "'arrays'"),
        ("no_config", with_header(no_config), "'config'"),
        ("unknown_field", with_header(extra), "depth"),
        ("bool_cutoff", with_header(bool_cutoff), "cutoff"),
    ]


def _reference_checkpoint_bytes(params, **extra):
    """The checkpoint bytes as the per-array writer produced them: magic,
    header length, header (with any ``extra`` entries), then each named
    array in turn."""
    arrays = params.named_arrays()
    header = {
        "config": dataclasses.asdict(params.config),
        "arrays": [[name, list(a.shape)] for name, a in arrays],
        **extra,
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    out = [b"INFGCN1\n", struct.pack("<I", len(hbytes)), hbytes]
    out.extend(np.ascontiguousarray(a, dtype="<f8").tobytes()
               for _, a in arrays)
    return b"".join(out)


@pytest.mark.parametrize("cfg", [SMALL, model.ModelConfig(
    l_max=2, channels=3, mode="fc", residual=False)])
def test_checkpoint_bytes_match_per_array_writer(tmp_path, cfg):
    params = model.init_params(cfg, seed=13, zero_heads=False)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(params, path)
    assert path.read_bytes() == _reference_checkpoint_bytes(params)


def test_checkpoint_loads_with_or_without_exponents_entry(tmp_path):
    # files written before the entry was dropped carry the basis exponents,
    # which the config already determines; the reader ignores them
    params = model.init_params(SMALL, seed=14, zero_heads=False)
    old = _reference_checkpoint_bytes(
        params, exponents=SMALL.basis_spec().exponents.tolist())
    for name, raw in (("old", old), ("new", _reference_checkpoint_bytes(
            params))):
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(raw)
        loaded = model.load_checkpoint(path)
        assert loaded.config == SMALL
        assert loaded.flat.tobytes() == params.flat.tobytes()


def test_checkpoint_write_failure_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(model.init_params(SMALL, seed=11), path)
    before = path.read_bytes()
    # writes 1-3 are the magic, header length and header; 4 is the blob
    monkeypatch.setattr(dataio, "open",
                        lambda *a, **kw: DiskFullAt(open(*a, **kw), 4),
                        raising=False)
    with pytest.raises(DomainError, match="model.ckpt.*No space left"):
        model.save_checkpoint(
            model.init_params(SMALL, seed=12, zero_heads=False), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_deterministic_forward():
    rng = np.random.default_rng(9)
    params = model.init_params(SMALL, seed=10, zero_heads=False)
    again = model.init_params(SMALL, seed=10, zero_heads=False)
    for (_, a), (_, b) in zip(params.named_arrays(), again.named_arrays()):
        assert np.array_equal(a, b)
    graph = small_instance(rng)
    q = rng.uniform(-1, 1, size=(8, 3))
    d1 = model.predict_density(params, graph, q)
    d2 = model.predict_density(params, graph, q)
    assert np.array_equal(d1, d2)


def test_nmae_invariant_under_exact_rotation():
    rng = np.random.default_rng(10)
    student = model.init_params(SMALL, seed=11, zero_heads=False)
    teacher = model.init_params(SMALL, seed=12, zero_heads=False)
    graph = small_instance(rng)
    q = rng.uniform(-1.5, 1.5, size=(32, 3))
    target = model.predict_density(teacher, graph, q)
    base = model.nmae(model.predict_density(student, graph, q), target)
    R = so3.random_rotation(rng)
    graph_r = geometry.MolecularGraph.from_coords(
        graph.atom_type, graph.atom_coord @ R.T, SMALL.cutoff)
    rot = model.nmae(model.predict_density(student, graph_r, q @ R.T), target)
    assert abs(rot - base) / max(base, 1e-12) < 1e-6