import math
import re

import numpy as np
import pytest

from infgcn import basis, geometry, grad, graphon, layers, model, so3
from infgcn.errors import DomainError


def test_radius_graph_pair_counts():
    two = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    src, dst, vec = geometry.build_radius_graph(two, 3.0)
    assert len(src) == 2
    assert np.allclose(vec[0], [2.0, 0.0, 0.0])
    far = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    src, dst, vec = geometry.build_radius_graph(far, 3.0)
    assert len(src) == 0


def test_radius_graph_brute_force_oracle():
    rng = np.random.default_rng(0)
    coords = rng.uniform(-3.0, 3.0, size=(10, 3))
    cutoff = 2.5
    src, dst, vec = geometry.build_radius_graph(coords, cutoff)
    want = []
    for u in range(10):
        for v in range(10):
            if u == v:
                continue
            r = coords[v] - coords[u]
            if math.sqrt(float(r @ r)) <= cutoff:
                want.append((u, v, r))
    assert len(src) == len(want)
    for e, (u, v, r) in enumerate(want):
        assert src[e] == u and dst[e] == v
        assert np.array_equal(vec[e], r)


def test_radius_pairs_brute_force_oracle():
    rng = np.random.default_rng(1)
    centers = rng.uniform(-3.0, 3.0, size=(7, 3))
    points = rng.uniform(-3.0, 3.0, size=(12, 3))
    cutoff = 2.5
    # a pair exactly at the cutoff: points[5] - centers[3] = (1.5, 2, 0)
    # holds exactly, and so does its length 2.5
    centers[3], points[5] = (0.5, -1.0, 0.25), (2.0, 1.0, 0.25)
    want = []
    for i in range(7):
        for j in range(12):
            d = points[j] - centers[i]
            r = math.sqrt(float(d @ d))
            if r <= cutoff:
                want.append((i, j, d, r))
    i, j, vec, dist = geometry.radius_pairs(centers, points, cutoff)
    assert list(zip(i.tolist(), j.tolist())) == [w[:2] for w in want]
    assert (3, 5) in zip(i.tolist(), j.tolist())
    for e, (_, _, d, r) in enumerate(want):
        assert np.array_equal(vec[e], d)  # from the center to the point
        assert abs(dist[e] - r) <= 1e-15 * cutoff
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError, match="^cutoff must be positive"):
            geometry.radius_pairs(centers, points, bad)


def test_radius_pairs_is_the_one_cutoff_search(monkeypatch):
    # the radius graph and the residual layer's query-atom pairs both come
    # from radius_pairs, so a change to the search (lattice images, say)
    # reaches both
    calls = []
    real = geometry.radius_pairs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "radius_pairs", counting)
    rng = np.random.default_rng(2)
    coords = rng.uniform(-1.5, 1.5, size=(5, 3))
    geometry.build_radius_graph(coords, 3.0)
    assert len(calls) == 1
    res = layers.init_residual_layer(rng, 2, 3, 3.0)
    feats = rng.standard_normal((5, 3, 9))
    layers.residual_forward(rng.uniform(-2.0, 2.0, size=(6, 3)), coords,
                            feats, res)
    assert len(calls) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_radius_graph_rejects_non_finite_coords(bad):
    # a NaN atom fails every cutoff test, so it used to get no edges
    coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, bad]])
    with pytest.raises(DomainError, match="^coords must be finite"):
        geometry.build_radius_graph(coords, 3.0)
    with pytest.raises(DomainError, match="^atom_coord must be finite"):
        geometry.MolecularGraph.from_coords(np.zeros(3, dtype=int), coords,
                                            3.0)


def test_graph_symmetry_exact():
    rng = np.random.default_rng(4)
    g = geometry.MolecularGraph.from_coords(
        np.zeros(6, dtype=int), rng.uniform(-2, 2, size=(6, 3)), 3.0)
    pairs = {(int(u), int(v)): g.edge_vec[e]
             for e, (u, v) in enumerate(zip(g.edge_src, g.edge_dst))}
    for (u, v), r in pairs.items():
        assert (v, u) in pairs
        assert np.array_equal(pairs[(v, u)], -r)


def test_graph_is_the_radius_graph_of_its_atoms():
    rng = np.random.default_rng(5)
    coords = rng.uniform(-2.0, 2.0, size=(8, 3))
    coords[1] = coords[0]  # coincident atoms keep their zero-length edges
    coords[2] = (50.0, 0.0, 0.0)  # an isolated atom
    coords[3], coords[4] = (0.0, 0.0, 10.0), (0.0, 0.0, 12.5)  # along +-z
    types = rng.integers(0, 5, size=8)
    g = geometry.MolecularGraph(types, coords, 3.0)
    src, dst, vec = geometry.build_radius_graph(coords, 3.0)
    assert np.array_equal(g.edge_src, src)
    assert np.array_equal(g.edge_dst, dst)
    assert np.array_equal(g.edge_vec, vec)
    pairs = list(zip(src.tolist(), dst.tolist()))
    assert pairs == sorted(pairs) and not np.any(src == dst)
    assert (0, 1) in pairs and 2 not in src and 2 not in dst
    edge = {pair: e for e, pair in enumerate(pairs)}
    assert np.array_equal(g.edge_vec[edge[(3, 4)]], [0.0, 0.0, 2.5])
    for (u, v), e in edge.items():
        assert np.array_equal(g.edge_vec[edge[(v, u)]], -g.edge_vec[e])
    assert (g.edge_vec.tobytes()
            == (coords[g.edge_dst] - coords[g.edge_src]).tobytes())
    bad = coords.copy()
    bad[5, 1] = np.nan
    with pytest.raises(DomainError, match="^atom_coord must be finite"):
        geometry.MolecularGraph(types, bad, 3.0)
    for float_types in (types.astype(float), types + 0.7):
        with pytest.raises(DomainError, match="^atom_type"):
            geometry.MolecularGraph(float_types, coords, 3.0)


@pytest.mark.parametrize("case", ["random", "rounded", "one_atom", "empty"])
def test_graph_pairs_each_edge_with_its_reverse(case):
    # rounded coordinates give tied distances and axis-aligned edges
    rng = np.random.default_rng(8)
    n = {"random": 9, "rounded": 12, "one_atom": 1, "empty": 0}[case]
    coords = rng.uniform(-2.0, 2.0, size=(n, 3))
    if case == "rounded":
        coords = np.round(coords)
        coords[1] = coords[0] + (0.0, 0.0, 1.0)  # distinct atoms, along z
    g = geometry.MolecularGraph(np.zeros(n, dtype=int), coords, 3.0)
    rev, E = g.edge_rev, g.n_edges
    assert rev.dtype.kind == "i" and rev.shape == (E,)
    assert np.array_equal(rev[rev], np.arange(E))
    assert np.array_equal(g.edge_src[rev], g.edge_dst)
    assert np.array_equal(g.edge_dst[rev], g.edge_src)
    # equal up to the sign of a zero component (0.0 - 0.0 is +0.0 both
    # ways), so the squares, and with them the distances, are bit-identical
    assert np.array_equal(g.edge_vec[rev], -g.edge_vec)
    assert (g.edge_vec[rev] ** 2).tobytes() == (g.edge_vec ** 2).tobytes()
    assert np.count_nonzero(np.arange(E) < rev) * 2 == E
    assert (E > 0) == (case in ("random", "rounded"))


@pytest.mark.parametrize("build, field", [
    (lambda: geometry.MolecularGraph([[0, 1]], np.zeros((2, 3)), 3.0),
     "atom_type"),
    (lambda: geometry.MolecularGraph([0, -1], np.zeros((2, 3)), 3.0),
     "atom_type"),
    (lambda: geometry.MolecularGraph([0, 1], np.zeros((3, 3)), 3.0),
     "atom_coord"),
    (lambda: geometry.MolecularGraph([0, 1], np.zeros((2, 2)), 3.0),
     "atom_coord"),
    (lambda: geometry.VoxelGrid((2, 2), np.eye(3), np.zeros(3), np.zeros(4)),
     "shape"),
    (lambda: geometry.VoxelGrid((2, 0, 2), np.eye(3), np.zeros(3), []),
     "shape"),
    (lambda: geometry.VoxelGrid((2, 2, 2), np.eye(2), np.zeros(3),
                                np.zeros(8)), "cell"),
    (lambda: geometry.VoxelGrid((2, 2, 2), np.zeros((3, 3)), np.zeros(3),
                                np.zeros(8)), "cell"),
    (lambda: geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(3),
                                np.zeros(7)), "values"),
    (lambda: geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(2),
                                np.zeros(8)), "origin"),
    (lambda: geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros((3, 1)),
                                np.zeros(8)), "origin"),
    (lambda: geometry.QuerySample(np.zeros((4, 3)), np.zeros(3), 1.0),
     "targets"),
    (lambda: geometry.QuerySample(np.zeros((4, 2)), np.zeros(4), 1.0),
     "points"),
    # 2**64 values wrap to 0 in an int64 count
    (lambda: geometry.VoxelGrid((2**32, 2**32, 1), np.eye(3), np.zeros(3),
                                np.zeros(0)), "values"),
    (lambda: geometry.MolecularGraph([[0], [1, 2]], np.zeros((2, 3)), 3.0),
     "atom_type"),
    (lambda: geometry.MolecularGraph([0, 1], [[1, 2, 3], [1, 2]], 3.0),
     "atom_coord"),
    (lambda: geometry.MolecularGraph([0, 1], [[1, 2, 3], [1, 2, "x"]], 3.0),
     "atom_coord"),
    (lambda: geometry.VoxelGrid((2, 2, 2), {"a": 1}, np.zeros(3),
                                np.zeros(8)), "cell"),
    (lambda: geometry.VoxelGrid((2, 2, 2), np.eye(3), ["0", "0", "zero"],
                                np.zeros(8)), "origin"),
    # numpy would parse these strings, read None as NaN, drop the
    # imaginary part
    (lambda: geometry.VoxelGrid((2, 2, 2), [["1", 0, 0], [0, "1", 0],
                                            [0, 0, "1"]], np.zeros(3),
                                np.zeros(8)), "cell"),
    (lambda: geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(3),
                                [None] * 8), "values"),
    (lambda: geometry.VoxelGrid((2, 2, 2), np.eye(3),
                                np.zeros(3, dtype=complex), np.zeros(8)),
     "origin"),
], ids=["type_2d", "type_negative", "coord_rows", "coord_2d", "shape_2",
        "shape_zero", "cell_2x2", "cell_singular", "values_short",
        "origin_2", "origin_column", "targets_short", "points_2d",
        "values_overflow", "type_ragged", "coord_ragged", "coord_text",
        "cell_dict", "origin_text", "cell_numeric_text", "values_none",
        "origin_complex"])
def test_constructors_reject_bad_fields_naming_them(build, field):
    with pytest.raises(DomainError, match=f"^{field}"):
        build()


def _misshapen_calls():
    """Per public array boundary, the argument name its error must give and
    a call passing that argument with the wrong shape."""
    spec = basis.RadialBasisSpec.default(l_max=1, n=2)
    pts = np.zeros((4, 3))
    coeffs = np.zeros((4, spec.n_radial, spec.n_sh))
    cfg = model.ModelConfig(l_max=1, channels=2, n_layers=1, cutoff=3.0,
                            vocab=3, r_max=3.0)
    params = model.init_params(cfg)
    reg = model.ParamRegistry(params)
    state = grad.init_optimizer(reg)
    qgrid = graphon.uniform_grid(4)
    flat_kernel = graphon.GraphonKernel(d=1, fn=lambda A, B: np.zeros(4),
                                        name="flat")
    vgrid = geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(3), np.zeros(8))
    decomp = graphon.nystrom_eigs(graphon.min_kernel(),
                                  graphon.uniform_grid(8), 3)
    return {
        "expand_density": ("coeffs", lambda: basis.expand_density(
            spec, coeffs[1:], pts, pts)),
        "expand_density_backward": ("grad_out", lambda:
            basis.expand_density_backward(spec, np.zeros(3), pts, pts, {})),
        "MolecularGraph_coord": ("atom_coord", lambda: geometry.MolecularGraph(
            [0, 1], np.zeros((2, 2)), 3.0)),
        "VoxelGrid": ("cell", lambda: geometry.VoxelGrid(
            (2, 2, 2), np.eye(3)[:2], np.zeros(3), np.zeros(8))),
        "QuerySample_points": ("points", lambda: geometry.QuerySample(
            np.zeros(4), np.zeros(4), 1.0)),
        "QuerySample_targets": ("targets", lambda: geometry.QuerySample(
            pts, np.zeros((4, 1)), 1.0)),
        "unflatten": ("flat", lambda: reg.unflatten(
            params, np.zeros(reg.n_params + 1))),
        "loss_l2": ("target", lambda: model.loss_l2(np.zeros(4),
                                                    np.zeros(3))),
        "nmae": ("target", lambda: model.nmae(np.zeros(4), np.ones((4, 1)))),
        "optimize_step": ("gradient", lambda: grad.optimize_step(
            state, params, np.zeros(reg.n_params - 1), reg)),
        "kernel_matrix": ("kernel 'flat'", lambda: graphon.kernel_matrix(
            flat_kernel, qgrid)),
        "apply_operator": ("f", lambda: graphon.apply_operator(
            graphon.min_kernel(), np.zeros(3), qgrid)),
        "trilinear_sample": ("points", lambda: geometry.trilinear_sample(
            vgrid, np.zeros((5, 2)))),
        "fractional_coords": ("points", lambda: geometry.fractional_coords(
            vgrid, np.zeros((5, 2)))),
        "rotate_instance": ("atom_coord", lambda: geometry.rotate_instance(
            np.zeros((5, 2)), vgrid, np.eye(3))),
        "spectral_filter": ("f", lambda: graphon.spectral_filter(
            decomp, lambda lam: lam, np.zeros(5))),
        # ragged or non-numeric: numpy's own conversion error, named
        "expand_density_ragged": ("queries", lambda: basis.expand_density(
            spec, coeffs, pts, [[0, 0, 0], [0, 0]])),
        "nmae_text": ("target", lambda: model.nmae(np.zeros(2),
                                                   ["one", "two"])),
        "apply_operator_dict": ("f", lambda: graphon.apply_operator(
            graphon.min_kernel(), {"f": 1}, qgrid)),
        "trilinear_sample_ragged": ("points", lambda:
            geometry.trilinear_sample(vgrid, [[0, 0, 0], [0, 0]])),
        "trilinear_sample_none": ("points", lambda:
            geometry.trilinear_sample(vgrid, [[0, 0, None]])),
        "expand_density_text": ("queries", lambda: basis.expand_density(
            spec, coeffs, pts, [["0", "0", "0"]])),
        "loss_l2_complex": ("target", lambda: model.loss_l2(
            np.zeros(2), np.zeros(2, dtype=complex))),
    }


@pytest.mark.parametrize("boundary", list(_misshapen_calls()))
def test_array_boundaries_name_a_misshapen_argument(boundary):
    name, call = _misshapen_calls()[boundary]
    with pytest.raises(DomainError,
                       match=rf"^{re.escape(name)} must have shape \("):
        call()


def test_grid_coordinates_trivial():
    g = geometry.VoxelGrid((2, 1, 1), 2.0 * np.eye(3), np.zeros(3), np.zeros(2))
    got = geometry.grid_coordinates(g)
    assert np.allclose(got, [[0, 0, 0], [1, 0, 0]])


def test_grid_coordinates_x_fastest():
    g = geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(3), np.zeros(8))
    got = geometry.grid_coordinates(g)
    assert np.allclose(got[1], [0.5, 0.0, 0.0])
    assert np.allclose(got[2], [0.0, 0.5, 0.0])
    assert np.allclose(got[4], [0.0, 0.0, 0.5])


def test_grid_coordinates_roundtrip_nonorthogonal():
    cell = np.array([[4.0, 0.5, 0.0], [0.3, 3.5, 0.2], [0.0, 0.4, 5.0]])
    g = geometry.VoxelGrid((3, 4, 5), cell, np.array([1.0, -2.0, 0.5]),
                           np.zeros(60))
    pts = geometry.grid_coordinates(g)
    frac = geometry.fractional_coords(g, pts)
    nx, ny, nz = g.shape
    idx = np.arange(60)
    want = np.stack([(idx % nx) / nx, ((idx // nx) % ny) / ny,
                     (idx // (nx * ny)) / nz], axis=-1)
    assert np.abs(frac - want).max() < 1e-12
    assert frac.min() >= -1e-12 and frac.max() < 1.0


def test_singular_cell_rejected():
    bad = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(DomainError):
        geometry.VoxelGrid((2, 2, 2), bad, np.zeros(3), np.zeros(8))
    # a volume past the float range overflowed with a RuntimeWarning and
    # was accepted as infinite
    for bad in (np.diag([1e300] * 3), np.full((3, 3), np.nan)):
        with pytest.raises(DomainError, match="cell"):
            geometry.VoxelGrid((2, 2, 2), bad, np.zeros(3), np.zeros(8))


def _random_grid(rng, shape=(6, 5, 4), pbc=False):
    n = shape[0] * shape[1] * shape[2]
    cell = np.diag([3.0, 2.5, 2.0]) + rng.uniform(-0.2, 0.2, size=(3, 3))
    return geometry.VoxelGrid(shape, cell, rng.uniform(-1, 1, size=3),
                              rng.standard_normal(n), pbc)


def test_sample_queries_reproducible_and_complete():
    g = _random_grid(np.random.default_rng(7))
    a = geometry.sample_queries(g, 20, rng_seed=123)
    b = geometry.sample_queries(g, 20, rng_seed=123)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.targets, b.targets)
    full = geometry.sample_queries(g, g.n_voxels, rng_seed=5)
    assert np.array_equal(np.sort(full.indices), np.arange(g.n_voxels))
    assert a.weight == g.voxel_volume
    with pytest.raises(DomainError):
        geometry.sample_queries(g, 0, rng_seed=1)
    with pytest.raises(DomainError):
        geometry.sample_queries(g, g.n_voxels + 1, rng_seed=1)


def test_sample_queries_mean_matches_grid_mean():
    # standard-error oracle: without-replacement sampling of k of N values
    # has Var(mean) = (pop_var / k) * (N - k) / (N - 1)
    g = _random_grid(np.random.default_rng(8))
    k, draws = 24, 200
    n = g.n_voxels
    means = [geometry.sample_queries(g, k, rng_seed=s).targets.mean()
             for s in range(draws)]
    pop_mean = g.values.mean()
    pop_var = g.values.var()
    sigma = math.sqrt(pop_var / k * (n - k) / (n - 1) / draws)
    assert abs(np.mean(means) - pop_mean) < 3.0 * sigma


def test_partition_sizes_and_order():
    g = geometry.VoxelGrid((10, 1, 1), np.eye(3), np.zeros(3),
                           np.arange(10.0))
    batches = geometry.partition_grid(g, 4)
    assert [len(b.targets) for b in batches] == [4, 4, 2]
    assert np.array_equal(np.concatenate([b.indices for b in batches]),
                          np.arange(10))
    assert len(geometry.partition_grid(g, 100)) == 1
    with pytest.raises(DomainError):
        geometry.partition_grid(g, 0)


@pytest.mark.parametrize("bs,sizes", [
    (315, [315]), (100, [70] * 4 + [35]), (35, [35] * 9),  # whole planes
    (34, [34] * 9 + [9]), (7, [7] * 45)])                  # flat runs
def test_partition_rounds_down_to_whole_planes(bs, sizes):
    g = geometry.VoxelGrid((7, 5, 9), np.diag([4.2, -3.1, 5.3]),
                           np.array([-2.0, 0.0, 1.5]), np.arange(315.0))
    batches = geometry.partition_grid(g, bs)
    assert [b.indices.size for b in batches] == sizes
    assert np.array_equal(np.concatenate([b.indices for b in batches]),
                          np.arange(315))
    if bs < 35:
        return
    for b in batches:
        # a batch of whole planes on a diagonal cell is exactly the box of
        # its own first row, column and z-line
        p = b.points
        box = np.stack(np.broadcast_arrays(
            p[:7, 0], p[:35:7, 1][:, None], p[::35, 2][:, None, None]),
            axis=-1).reshape(-1, 3)
        assert box.tobytes() == p.tobytes()


def test_partition_sum_matches_single_pass():
    g = _random_grid(np.random.default_rng(9))
    batches = geometry.partition_grid(g, 17)
    total = sum(float(np.sum(np.abs(b.targets))) for b in batches)
    whole = float(np.sum(np.abs(g.values)))
    assert abs(total - whole) <= 1e-12 * whole


def test_trilinear_exact_at_nodes():
    for pbc in (False, True):
        g = _random_grid(np.random.default_rng(10), pbc=pbc)
        nodes = geometry.grid_coordinates(g)
        got = geometry.trilinear_sample(g, nodes)
        assert np.abs(got - g.values).max() < 1e-12


def test_trilinear_reproduces_affine():
    rng = np.random.default_rng(11)
    cell = np.array([[3.0, 0.4, 0.0], [0.2, 2.8, 0.3], [0.0, 0.1, 2.5]])
    shape = (7, 6, 5)
    origin = np.array([0.5, -0.3, 1.0])
    alpha, beta = rng.standard_normal(3), 0.7
    nodes_vals = np.zeros(shape[0] * shape[1] * shape[2])
    g = geometry.VoxelGrid(shape, cell, origin, nodes_vals)
    nodes = geometry.grid_coordinates(g)
    g = geometry.VoxelGrid(shape, cell, origin, nodes @ alpha + beta)
    # stay inside the node hull, where interpolation is genuine
    frac = rng.uniform(0.05, 0.75, size=(40, 3))
    pts = origin + frac @ cell
    got = geometry.trilinear_sample(g, pts)
    assert np.abs(got - (pts @ alpha + beta)).max() < 1e-12


def test_trilinear_edge_midpoint():
    vals = np.arange(8.0)
    g = geometry.VoxelGrid((2, 2, 2), 2.0 * np.eye(3), np.zeros(3), vals)
    # halfway between nodes (0,0,0) and (1,0,0): fractional (0.25, 0, 0)
    got = geometry.trilinear_sample(g, np.array([[0.5, 0.0, 0.0]]))
    assert abs(got[0] - 0.5 * (vals[0] + vals[1])) < 1e-14


def test_trilinear_clamp_and_wrap():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    cell = 4.0 * np.eye(3)
    clamp = geometry.VoxelGrid((4, 1, 1), cell, np.zeros(3), vals, pbc=False)
    wrap = geometry.VoxelGrid((4, 1, 1), cell, np.zeros(3), vals, pbc=True)
    left = np.array([[-1.0, 0.0, 0.0]])
    assert geometry.trilinear_sample(clamp, left)[0] == 1.0
    # -1 Bohr wraps to fractional 0.75, exactly node 3
    assert geometry.trilinear_sample(wrap, left)[0] == 4.0
    # past the last node: clamp holds the edge value, wrap blends with node 0
    far = np.array([[3.5, 0.0, 0.0]])
    assert geometry.trilinear_sample(clamp, far)[0] == 4.0
    assert abs(geometry.trilinear_sample(wrap, far)[0]
               - 0.5 * (vals[3] + vals[0])) < 1e-14


def test_rotate_instance_matches_analytic_pullback():
    rng = np.random.default_rng(12)
    cell = 6.0 * np.eye(3)
    origin = np.zeros(3)
    u = np.array([0.6, -0.3, 0.74])
    R = so3.random_rotation(rng)
    atoms = None
    errs = {}
    for n in (16, 32):
        shape = (n, n, n)
        g0 = geometry.VoxelGrid(shape, cell, origin, np.zeros(n ** 3))
        c = geometry.cell_center(g0)

        def field(x):
            d = x - c
            r2 = np.einsum("...x,...x->...", d, d)
            return np.exp(-0.5 * r2) * (1.0 + 0.3 * d @ u)

        nodes = geometry.grid_coordinates(g0)
        g = geometry.VoxelGrid(shape, cell, origin, field(nodes))
        atoms = c + rng.uniform(-1.0, 1.0, size=(3, 3))
        rot_atoms, rot_grid = geometry.rotate_instance(atoms, g, R)
        assert np.abs(rot_atoms - (c + (atoms - c) @ R.T)).max() < 1e-12
        want = field(c + (nodes - c) @ R)
        # compare away from the boundary band, where the clamp rule turns
        # interpolation into constant extrapolation
        inner = np.einsum("nx,nx->n", nodes - c, nodes - c) <= 4.0
        errs[n] = np.abs(rot_grid.values - want)[inner].max()
    # second-order interpolation: halving h cuts the error ~4x (allow 2.5x)
    assert errs[16] < 0.2
    assert errs[32] < errs[16] / 2.5


def test_resampling_rejects_non_finite_points():
    # a NaN point was cast to a garbage voxel index with only a
    # RuntimeWarning
    g = geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(3), np.arange(8.0))
    bad = np.array([[0.1, np.nan, 0.2]])
    with pytest.raises(DomainError, match="^points must be finite"):
        geometry.trilinear_sample(g, bad)
    with pytest.raises(DomainError, match="^atom_coord must be finite"):
        geometry.rotate_instance(bad, g, np.eye(3))


@pytest.mark.parametrize("rotation", [2.0 * np.eye(3), np.eye(2),
                                      np.full((3, 3), np.nan)],
                         ids=["scaled", "2x2", "nan"])
def test_rotate_instance_rejects_a_non_rotation(rotation):
    g = geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(3), np.arange(8.0))
    with pytest.raises(DomainError):
        geometry.rotate_instance(np.zeros((1, 3)), g, rotation)


def test_rotate_instance_back_and_forth():
    rng = np.random.default_rng(13)
    shape = (20, 20, 20)
    g0 = geometry.VoxelGrid(shape, 5.0 * np.eye(3), np.zeros(3),
                            np.zeros(20 ** 3))
    c = geometry.cell_center(g0)
    nodes = geometry.grid_coordinates(g0)
    d2 = np.einsum("nx,nx->n", nodes - c, nodes - c)
    g = geometry.VoxelGrid(shape, 5.0 * np.eye(3), np.zeros(3),
                           np.exp(-d2))
    atoms = c[None, :] + np.array([[0.4, 0.0, -0.2]])
    R = so3.random_rotation(rng)
    a1, g1 = geometry.rotate_instance(atoms, g, R)
    a2, g2 = geometry.rotate_instance(a1, g1, R.T)
    assert np.abs(a2 - atoms).max() < 1e-12
    assert np.abs(g2.values - g.values).max() < 0.15  # two resampling passes