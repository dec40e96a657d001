import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from coeff_rotation import rotate_coeffs
from infgcn import basis, geometry, so3
from infgcn.errors import AccuracyError, DomainError
from oracles import overlap_integral_numeric


def test_make_exponents_two_point():
    a = basis.make_exponents(0.5, 5.0, 2)
    assert np.allclose(a, [2.0, 0.02], atol=1e-15)


def test_make_exponents_default_grid():
    a = basis.make_exponents()
    assert a.shape == (16,)
    assert abs(a[0] - 2.0) < 1e-15 and abs(a[-1] - 0.02) < 1e-15
    assert np.all(np.diff(a) < 0.0)


def test_make_exponents_geometric():
    a = basis.make_exponents(0.5, 5.0, 8, spacing="geometric")
    assert np.all(np.diff(a) < 0.0)
    assert abs(a[0] - 2.0) < 1e-15 and abs(a[-1] - 0.02) < 1e-15
    with pytest.raises(DomainError):
        basis.make_exponents(0.5, 5.0, 8, spacing="cubic")


def test_overlap_decays_exponentially():
    # the slowest-decaying pairs combine the widest exponent with high l;
    # for the default table those drop below 1e-6 past 11 * r_max, and the
    # decay is monotone in separation
    spec = basis.RadialBasisSpec.default()
    wide = spec.n_radial - 1
    far = np.array([0.0, 0.0, 11.0 * 5.0])
    for l1 in (0, 4, 7):
        for l2 in (0, 4, 7):
            val = overlap_integral_numeric(
                spec, (wide, l1, 0), (wide, l2, 0), far,
                n_points=48, tol=1e-4)
            assert abs(val) < 1e-6
    tail = [abs(overlap_integral_numeric(
        spec, (wide, 7, 0), (wide, 7, 0), np.array([0.0, 0.0, d]),
        n_points=48, tol=1e-4)) for d in (40.0, 45.0, 50.0, 55.0)]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_normalization_constant_reference_value():
    # closed form at a = 0.5, l = 0 equals 2 / pi^(1/4); oracle value frozen
    c = float(basis.normalization_constant(0.5, 0))
    assert abs(c - 1.502251088929885) < 1e-12
    assert abs(c - 2.0 / math.pi ** 0.25) < 1e-14


def test_normalization_scaling_law():
    rng = np.random.default_rng(0)
    for l in range(8):
        a = float(rng.uniform(0.05, 3.0))
        ratio = float(basis.normalization_constant(4.0 * a, l)
                      / basis.normalization_constant(a, l))
        assert abs(ratio - 4.0 ** ((l + 1.5) / 2.0)) < 1e-12


def test_normalization_by_radial_quadrature():
    # independent oracle: int_0^inf (c r^l e^{-a r^2})^2 r^2 dr == 1
    from scipy.integrate import quad

    spec = basis.RadialBasisSpec.default()
    norms = spec.norm_table()
    for n in range(spec.n_radial):
        a = spec.exponents[n]
        for l in range(spec.l_max + 1):
            c = norms[n, l]
            val, err = quad(
                lambda r: (c * r ** l * math.exp(-a * r * r)) ** 2 * r * r,
                0.0, np.inf)
            assert err < 1e-7
            assert abs(val - 1.0) < 1e-6


def _eval_basis_block(spec, center, points):
    """All (n, l, m) basis functions of one center at points (Q, 3), as
    (Q, n_radial, (l_max+1)**2), from the expansion's two factors, which
    come in row layout: (n_radial, Q) and ((l_max+1)**2, Q)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    E, Y = basis._factors(spec, points - np.asarray(center, dtype=float))
    return (E.T[:, :, None] * basis._norm_columns(spec)) * Y.T[:, None, :]


def test_eval_at_center():
    spec = basis.RadialBasisSpec.default(l_max=3, n=4)
    center = np.array([0.3, -0.2, 1.0])
    B = _eval_basis_block(spec, center, center[None, :])[0]
    norms = spec.norm_table()
    y00 = 1.0 / (2.0 * math.sqrt(math.pi))
    assert np.allclose(B[:, 0], norms[:, 0] * y00, atol=1e-14)
    assert np.all(B[:, 1:] == 0.0)


def test_eval_parity():
    spec = basis.RadialBasisSpec.default(l_max=4, n=3)
    rng = np.random.default_rng(1)
    d = rng.standard_normal(3)
    plus = _eval_basis_block(spec, np.zeros(3), d[None, :])[0]
    minus = _eval_basis_block(spec, np.zeros(3), -d[None, :])[0]
    for l in range(5):
        sl = so3.block_slice(l)
        assert np.allclose(minus[:, sl], (-1.0) ** l * plus[:, sl], atol=1e-12)


def test_eval_rotates_with_wigner():
    spec = basis.RadialBasisSpec.default(l_max=5, n=3)
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((20, 3)) * 1.5
    for _ in range(5):
        R = so3.random_rotation(rng)
        B = _eval_basis_block(spec, np.zeros(3), pts)
        BR = _eval_basis_block(spec, np.zeros(3), pts @ R.T)
        blocks = so3.wigner_blocks(5, R)
        for l in range(6):
            sl = so3.block_slice(l)
            assert np.abs(BR[..., sl] - B[..., sl] @ blocks[l].T).max() < 1e-9


def test_expand_single_function():
    spec = basis.RadialBasisSpec.default(l_max=2, n=3)
    coeffs = np.zeros((1, 3, 9))
    coeffs[0, 1, so3.sh_index(2, -1)] = 1.0
    q = np.array([[0.4, 0.1, -0.3]])
    got = basis.expand_density(spec, coeffs, np.zeros((1, 3)), q)
    want = _eval_basis_block(spec, np.zeros(3), q)[0, 1, so3.sh_index(2, -1)]
    assert abs(got[0] - want) < 1e-14


def test_expand_linear():
    spec = basis.RadialBasisSpec.default(l_max=2, n=4)
    rng = np.random.default_rng(3)
    centers = rng.standard_normal((3, 3))
    q = rng.standard_normal((11, 3)) * 2.0
    c1 = rng.standard_normal((3, 4, 9))
    c2 = rng.standard_normal((3, 4, 9))
    lhs = basis.expand_density(spec, 2.0 * c1 - 0.5 * c2, centers, q)
    rhs = (2.0 * basis.expand_density(spec, c1, centers, q)
           - 0.5 * basis.expand_density(spec, c2, centers, q))
    assert np.abs(lhs - rhs).max() < 1e-12
    assert np.abs(basis.expand_density(spec, np.zeros((3, 4, 9)), centers, q)).max() == 0.0


def test_expand_equivariance():
    # rotating centers, queries and coefficient blocks leaves values unchanged
    spec = basis.RadialBasisSpec.default(l_max=4, n=3)
    rng = np.random.default_rng(4)
    centers = rng.standard_normal((4, 3))
    coeffs = rng.standard_normal((4, 3, 25))
    q = rng.standard_normal((40, 3)) * 1.5
    ref = basis.expand_density(spec, coeffs, centers, q)
    for _ in range(5):
        R = so3.random_rotation(rng)
        got = basis.expand_density(spec, rotate_coeffs(coeffs, R),
                                   centers @ R.T, q @ R.T)
        assert np.abs(got - ref).max() < 1e-8


def test_expand_backward_is_adjoint():
    spec = basis.RadialBasisSpec.default(l_max=2, n=3)
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((2, 3))
    q = rng.standard_normal((17, 3))
    coeffs = rng.standard_normal((2, 3, 9))
    g = rng.standard_normal(17)
    cache = {}
    lhs = float(np.dot(g, basis.expand_density(spec, coeffs, centers, q,
                                               cache=cache)))
    grad = basis.expand_density_backward(spec, g, centers, q, cache)
    rhs = float((grad * coeffs).sum())
    assert abs(lhs - rhs) < 1e-10


def _reference_eval_displacements(spec, d):
    """The broadcast (..., n, S) evaluation the factored expansion replaced."""
    r2 = np.einsum("...i,...i->...", d, d)
    r = np.sqrt(r2)
    safe = np.where(r > 0.0, r, 1.0)
    dirs = d / safe[..., None]
    dirs[r == 0.0] = (0.0, 0.0, 1.0)
    Y = so3.eval_real_sh(spec.l_max, dirs)
    expo = np.exp(-np.multiply.outer(r2, spec.exponents))
    out = np.empty(d.shape[:-1] + (spec.n_radial, spec.n_sh))
    norms = spec.norm_table()
    rl = np.ones_like(r)
    for l in range(spec.l_max + 1):
        if l > 0:
            rl = rl * r
        sl = so3.block_slice(l)
        out[..., sl] = (expo * norms[:, l])[..., None] \
            * np.moveaxis(rl * Y[sl], 0, -1)[..., None, :]
    return out


def _reference_expand(spec, coeffs, centers, queries):
    B = _reference_eval_displacements(
        spec, queries[:, None, :] - centers[None, :, :])
    return np.einsum("quns,uns->q", B, coeffs)


def _reference_expand_backward(spec, grad_out, centers, queries):
    B = _reference_eval_displacements(
        spec, queries[:, None, :] - centers[None, :, :])
    return np.einsum("quns,q->uns", B, grad_out)


@pytest.mark.parametrize("l_max,n_queries,chunk", [
    (0, 37, 512), (2, 37, 512), (7, 37, 512),
    (2, 37, 16), (7, 1030, 512), (2, 9, 1), (7, 0, 512)])
def test_expand_matches_broadcast_reference(l_max, n_queries, chunk,
                                            monkeypatch):
    monkeypatch.setattr(basis, "_CHUNK", chunk)
    spec = basis.RadialBasisSpec.default(l_max=l_max, n=5)
    rng = np.random.default_rng(7)
    centers = rng.standard_normal((4, 3))
    queries = rng.standard_normal((n_queries, 3)) * 2.0
    if n_queries:
        queries[0] = centers[2]
    coeffs = rng.standard_normal((4, 5, spec.n_sh))
    g = rng.standard_normal(n_queries)

    cache = {}
    got = basis.expand_density(spec, coeffs, centers, queries, cache=cache)
    assert np.array_equal(got, basis.expand_density(
        spec, coeffs, centers, queries))
    assert len(cache["chunks"]) == -(-n_queries // chunk)
    want = _reference_expand(spec, coeffs, centers, queries)
    assert got.shape == (n_queries,)
    assert np.abs(got - want).max(initial=0.0) \
        <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))

    # the backward reading the forward's cache, twice: it must not write
    # into it
    want = _reference_expand_backward(spec, g, centers, queries)
    tol = 1e-12 * max(1.0, np.abs(want).max())
    for _ in range(2):
        got = basis.expand_density_backward(spec, g, centers, queries,
                                            cache=cache)
        assert got.shape == coeffs.shape
        assert np.abs(got - want).max() <= tol

    block = _eval_basis_block(spec, centers[2], queries)
    want = _reference_eval_displacements(spec, queries - centers[2])
    assert np.abs(block - want).max(initial=0.0) \
        <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("n_centers", [1, 18])
def test_expand_from_chunks_filled_on_another_thread_is_bit_identical(
        n_centers):
    # as in a training step: the calling thread allocates the chunks, a
    # worker fills them, and the expansion and its backward read them; 1030
    # queries end in a chunk of 6
    spec = basis.RadialBasisSpec.default()
    rng = np.random.default_rng(12)
    centers = rng.standard_normal((n_centers, 3)) * 2.0
    queries = rng.standard_normal((1030, 3)) * 3.0
    coeffs = rng.standard_normal((n_centers, spec.n_radial, spec.n_sh))
    g = rng.standard_normal(1030)
    want_cache, cache = {}, {}
    want = basis.expand_density(spec, coeffs, centers, queries,
                                cache=want_cache)
    chunks = list(basis._factor_chunks(spec, centers, queries))
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(list, basis._fill_chunks(spec, centers, queries,
                                             chunks)).result()
    got = basis.expand_density(spec, coeffs, centers, queries, cache=cache,
                               chunks=chunks)
    assert np.array_equal(got, want)
    assert [sl for sl, _ in cache["chunks"]] == [
        slice(0, 512), slice(512, 1024), slice(1024, 1030)]
    for (_, (E, Y)), (_, (E0, Y0)) in zip(cache["chunks"],
                                          want_cache["chunks"]):
        assert E.shape == (spec.n_radial, n_centers, Y.shape[2])
        assert np.array_equal(E, E0) and np.array_equal(Y, Y0)
    assert np.array_equal(
        basis.expand_density_backward(spec, g, centers, queries, cache),
        basis.expand_density_backward(spec, g, centers, queries, want_cache))


def test_expand_query_on_center_drops_l_above_zero():
    # at its own center only the l = 0 functions are nonzero, exactly
    spec = basis.RadialBasisSpec.default(l_max=7, n=4)
    rng = np.random.default_rng(8)
    center = rng.standard_normal((1, 3))
    coeffs = rng.standard_normal((1, 4, spec.n_sh))
    coeffs[:, :, 0] = 0.0
    cache = {}
    assert basis.expand_density(spec, coeffs, center, center,
                                cache=cache)[0] == 0.0
    grad = basis.expand_density_backward(spec, np.array([1.5]), center,
                                         center, cache)
    assert np.all(grad[:, :, 1:] == 0.0)
    assert np.all(grad[:, :, 0] != 0.0)


@pytest.mark.parametrize("call,field", [
    ("forward_queries", "queries"),
    ("forward_centers", "centers"),
    ("backward_queries", "queries"),
    ("backward_centers", "centers"),
    ("backward_long_grad", "grad_out"),
    ("backward_column_grad", "grad_out"),
])
def test_expand_rejects_bad_shapes_naming_field(call, field):
    spec = basis.RadialBasisSpec.default(l_max=1, n=2)
    rng = np.random.default_rng(9)
    centers = rng.standard_normal((3, 3))
    queries = rng.standard_normal((6, 3))
    coeffs = rng.standard_normal((3, 2, 4))
    g = rng.standard_normal(6)
    cache = {}  # the backward checks shapes before it reads its cache
    calls = {
        "forward_queries": lambda: basis.expand_density(
            spec, coeffs, centers, queries[:, :2]),
        "forward_centers": lambda: basis.expand_density(
            spec, coeffs, centers[:, :2], queries),
        "backward_queries": lambda: basis.expand_density_backward(
            spec, g, centers, np.hstack([queries, queries[:, :1]]), cache),
        "backward_centers": lambda: basis.expand_density_backward(
            spec, g, centers[None], queries, cache),
        "backward_long_grad": lambda: basis.expand_density_backward(
            spec, np.append(g, 1.0), centers, queries, cache),
        "backward_column_grad": lambda: basis.expand_density_backward(
            spec, g[:, None], centers, queries, cache),
    }
    with pytest.raises(DomainError, match=field):
        calls[call]()


def _box(xs, ys, zs):
    return np.stack(np.broadcast_arrays(xs, ys[:, None], zs[:, None, None]),
                    axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("l_max", [7, 2])
@pytest.mark.parametrize("far", [False, True])
def test_expand_on_boxes_matches_dense_path(l_max, far):
    # whole-plane batches of a non-cubic grid (1, 2 and 5 planes of 13 x 21
    # voxels) and a box inside it decode from 1-D tables; a cache forces the
    # dense path. Centers in the grid, or up to ~20 bohr outside it
    spec = basis.RadialBasisSpec.default(l_max=l_max, n=6)
    rng = np.random.default_rng(11)
    grid = geometry.VoxelGrid((13, 21, 5), np.diag([4.2, 6.1, 2.3]),
                              np.array([-2.0, -3.0, -1.2]), np.zeros(1365))
    centers = rng.uniform(-1.5, 1.5, (4, 3))
    if far:
        centers[:2] += [[15.0, -9.0, 4.0], [-3.0, 2.0, -12.0]]
    coeffs = rng.standard_normal((4, 6, spec.n_sh))
    nodes = geometry.grid_coordinates(grid)
    want = basis.expand_density(spec, coeffs, centers, nodes, cache={})
    tol = 1e-12 * np.abs(want).max()
    batches = [b for bs in (273, 600, 1365)
               for b in geometry.partition_grid(grid, bs)]
    inner = np.arange(1365).reshape(5, 21, 13)[1:4, 2:14, 3:11].ravel()
    for idx in [b.indices for b in batches] + [inner]:
        assert basis._box_axes(nodes[idx]) is not None
        got = basis.expand_density(spec, coeffs, centers, nodes[idx])
        assert np.abs(got - want[idx]).max() <= tol


def test_box_detection_is_exact():
    xs, ys, zs = np.arange(13.0) - 6, np.arange(7.0) / 3, np.arange(4.0)
    box = _box(xs, ys, zs)
    assert all(np.array_equal(a, b)
               for a, b in zip(basis._box_axes(box), (xs, ys, zs)))
    moved = box.copy()
    moved[200, 2] += 1e-15
    y_fastest = _box(ys, xs, zs)[:, [1, 0, 2]]
    sheared = box + box[:, 1:2] * [0.1, 0.0, 0.0]
    for q in (moved, y_fastest, sheared, box[:-1], _box(xs, ys, zs[:2]),
              np.random.default_rng(3).standard_normal((400, 3))):
        assert basis._box_axes(q) is None
    assert _box(xs, ys, zs[:2]).shape[0] < basis._BOX_MIN <= box.shape[0]


def test_expand_takes_the_box_path_only_without_a_cache(monkeypatch):
    spec = basis.RadialBasisSpec.default(l_max=2, n=3)
    rng = np.random.default_rng(12)
    centers = rng.standard_normal((2, 3))
    coeffs = rng.standard_normal((2, 3, spec.n_sh))
    box = _box(np.arange(13.0), np.arange(7.0), np.arange(4.0))
    calls = []
    expand_box = basis._expand_box
    monkeypatch.setattr(basis, "_expand_box",
                        lambda *a: calls.append(1) or expand_box(*a))
    basis.expand_density(spec, coeffs, centers, box, cache={})
    assert not calls
    basis.expand_density(spec, coeffs, centers, box)
    assert calls == [1]


def test_expand_peak_memory_stays_small():
    # the factored path keeps the (n, U, q) and (S, U, q) factors of each
    # 512-query chunk, ~6 MB a chunk here, not the 170 MB (q, U, n, S)
    # basis tensor of the broadcast evaluation
    import tracemalloc

    spec = basis.RadialBasisSpec.default(l_max=7, n=16)
    rng = np.random.default_rng(10)
    centers = rng.standard_normal((18, 3)) * 2.0
    queries = rng.standard_normal((1024, 3)) * 3.0
    coeffs = rng.standard_normal((18, 16, spec.n_sh))
    g = rng.standard_normal(1024)
    tracemalloc.start()
    try:
        cache = {}
        basis.expand_density(spec, coeffs, centers, queries, cache=cache)
        basis.expand_density_backward(spec, g, centers, queries, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_overlap_self_is_one():
    spec = basis.RadialBasisSpec.default(l_max=3, n=4)
    for n in range(4):
        for l in range(4):
            m = min(l, 1)
            val = overlap_integral_numeric(
                spec, (n, l, m), (n, l, m), np.zeros(3))
            assert abs(val - 1.0) < 1e-5


def test_overlap_cross_n_analytic():
    # l = 0 pair at zero displacement: (2 sqrt(a1 a2) / (a1 + a2))^(3/2)
    spec = basis.RadialBasisSpec.default(l_max=2, n=6)
    for n1 in range(0, 6, 2):
        for n2 in range(1, 6, 2):
            a1, a2 = spec.exponents[n1], spec.exponents[n2]
            want = (2.0 * math.sqrt(a1 * a2) / (a1 + a2)) ** 1.5
            got = overlap_integral_numeric(
                spec, (n1, 0, 0), (n2, 0, 0), np.zeros(3))
            assert abs(got - want) < 1e-5


def test_overlap_m_orthogonality():
    spec = basis.RadialBasisSpec.default(l_max=3, n=3)
    for l in (1, 2, 3):
        for m1 in range(-l, l + 1):
            for m2 in range(-l, l + 1):
                if m1 == m2:
                    continue
                val = overlap_integral_numeric(
                    spec, (0, l, m1), (0, l, m2), np.zeros(3))
                assert abs(val) < 1e-6


def test_overlap_symmetry_and_decay():
    spec = basis.RadialBasisSpec.default(l_max=2, n=4)
    r = np.array([0.7, -0.4, 1.1])
    s_ij = overlap_integral_numeric(spec, (1, 2, 1), (3, 1, -1), r)
    s_ji = overlap_integral_numeric(spec, (3, 1, -1), (1, 2, 1), -r)
    assert abs(s_ij - s_ji) < 1e-12
    # s-pair with equal exponents has the closed form exp(-a d^2 / 2)
    a = spec.exponents[3]
    far = overlap_integral_numeric(
        spec, (3, 0, 0), (3, 0, 0), np.array([0.0, 0.0, 40.0]))
    assert abs(far - math.exp(-a * 1600.0 / 2.0)) < 1e-12


def test_overlap_coarse_resolution_raises():
    spec = basis.RadialBasisSpec.default(l_max=7, n=16)
    with pytest.raises(AccuracyError):
        overlap_integral_numeric(
            spec, (15, 7, 0), (15, 7, 0), np.array([2.0, 1.0, 0.5]),
            n_points=2, tol=1e-10)


def test_overlap_index_validation():
    spec = basis.RadialBasisSpec.default(l_max=2, n=3)
    with pytest.raises(DomainError):
        overlap_integral_numeric(spec, (3, 0, 0), (0, 0, 0), np.zeros(3))
    with pytest.raises(DomainError):
        overlap_integral_numeric(spec, (0, 2, 3), (0, 0, 0), np.zeros(3))
