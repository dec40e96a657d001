import math

import numpy as np
import pytest

from coeff_rotation import rotate_coeffs
from infgcn import basis, so3
from infgcn.errors import AccuracyError, DomainError


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
            val = basis.overlap_integral_numeric(
                spec, (wide, l1, 0), (wide, l2, 0), far,
                n_points=48, tol=1e-4)
            assert abs(val) < 1e-6
    tail = [abs(basis.overlap_integral_numeric(
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


def test_eval_at_center():
    spec = basis.RadialBasisSpec.default(l_max=3, n=4)
    center = np.array([0.3, -0.2, 1.0])
    B = basis.eval_basis_block(spec, center, center[None, :])[0]
    norms = spec.norm_table()
    y00 = 1.0 / (2.0 * math.sqrt(math.pi))
    assert np.allclose(B[:, 0], norms[:, 0] * y00, atol=1e-14)
    assert np.all(B[:, 1:] == 0.0)


def test_eval_parity():
    spec = basis.RadialBasisSpec.default(l_max=4, n=3)
    rng = np.random.default_rng(1)
    d = rng.standard_normal(3)
    plus = basis.eval_basis_block(spec, np.zeros(3), d[None, :])[0]
    minus = basis.eval_basis_block(spec, np.zeros(3), -d[None, :])[0]
    for l in range(5):
        sl = so3.block_slice(l)
        assert np.allclose(minus[:, sl], (-1.0) ** l * plus[:, sl], atol=1e-12)


def test_eval_rotates_with_wigner():
    spec = basis.RadialBasisSpec.default(l_max=5, n=3)
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((20, 3)) * 1.5
    for _ in range(5):
        R = so3.random_rotation(rng)
        B = basis.eval_basis_block(spec, np.zeros(3), pts)
        BR = basis.eval_basis_block(spec, np.zeros(3), pts @ R.T)
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
    want = basis.eval_basis_block(spec, np.zeros(3), q)[0, 1, so3.sh_index(2, -1)]
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
    lhs = float(np.dot(g, basis.expand_density(spec, coeffs, centers, q)))
    grad = basis.expand_density_backward(spec, g, centers, q)
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
            * (rl[..., None] * Y[..., sl])[..., None, :]
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

    # the backward reading the forward's cache (twice: it must not write
    # into it) and the one evaluating its own factors
    want = _reference_expand_backward(spec, g, centers, queries)
    tol = 1e-12 * max(1.0, np.abs(want).max())
    uncached = basis.expand_density_backward(spec, g, centers, queries)
    for _ in range(2):
        got = basis.expand_density_backward(spec, g, centers, queries,
                                            cache=cache)
        assert got.shape == coeffs.shape
        assert np.abs(got - want).max() <= tol
        assert np.abs(got - uncached).max() <= tol
    assert np.abs(uncached - want).max() <= tol

    block = basis.eval_basis_block(spec, centers[2], queries)
    want = _reference_eval_displacements(spec, queries - centers[2])
    assert np.abs(block - want).max(initial=0.0) \
        <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))


def test_expand_query_on_center_drops_l_above_zero():
    # at its own center only the l = 0 functions are nonzero, exactly
    spec = basis.RadialBasisSpec.default(l_max=7, n=4)
    rng = np.random.default_rng(8)
    center = rng.standard_normal((1, 3))
    coeffs = rng.standard_normal((1, 4, spec.n_sh))
    coeffs[:, :, 0] = 0.0
    assert basis.expand_density(spec, coeffs, center, center)[0] == 0.0
    grad = basis.expand_density_backward(spec, np.array([1.5]), center, center)
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
    calls = {
        "forward_queries": lambda: basis.expand_density(
            spec, coeffs, centers, queries[:, :2]),
        "forward_centers": lambda: basis.expand_density(
            spec, coeffs, centers[:, :2], queries),
        "backward_queries": lambda: basis.expand_density_backward(
            spec, g, centers, np.hstack([queries, queries[:, :1]])),
        "backward_centers": lambda: basis.expand_density_backward(
            spec, g, centers[None], queries),
        "backward_long_grad": lambda: basis.expand_density_backward(
            spec, np.append(g, 1.0), centers, queries),
        "backward_column_grad": lambda: basis.expand_density_backward(
            spec, g[:, None], centers, queries),
    }
    with pytest.raises(DomainError, match=field):
        calls[call]()


def test_expand_peak_memory_stays_small():
    # the factored path holds (U, q, S) factors per chunk, not the 170 MB
    # (q, U, n, S) basis tensor of the broadcast evaluation
    import tracemalloc

    spec = basis.RadialBasisSpec.default(l_max=7, n=16)
    rng = np.random.default_rng(10)
    centers = rng.standard_normal((18, 3)) * 2.0
    queries = rng.standard_normal((1024, 3)) * 3.0
    coeffs = rng.standard_normal((18, 16, spec.n_sh))
    g = rng.standard_normal(1024)
    tracemalloc.start()
    try:
        basis.expand_density(spec, coeffs, centers, queries)
        basis.expand_density_backward(spec, g, centers, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_overlap_self_is_one():
    spec = basis.RadialBasisSpec.default(l_max=3, n=4)
    for n in range(4):
        for l in range(4):
            m = min(l, 1)
            val = basis.overlap_integral_numeric(
                spec, (n, l, m), (n, l, m), np.zeros(3))
            assert abs(val - 1.0) < 1e-5


def test_overlap_cross_n_analytic():
    # l = 0 pair at zero displacement: (2 sqrt(a1 a2) / (a1 + a2))^(3/2)
    spec = basis.RadialBasisSpec.default(l_max=2, n=6)
    for n1 in range(0, 6, 2):
        for n2 in range(1, 6, 2):
            a1, a2 = spec.exponents[n1], spec.exponents[n2]
            want = (2.0 * math.sqrt(a1 * a2) / (a1 + a2)) ** 1.5
            got = basis.overlap_integral_numeric(
                spec, (n1, 0, 0), (n2, 0, 0), np.zeros(3))
            assert abs(got - want) < 1e-5


def test_overlap_m_orthogonality():
    spec = basis.RadialBasisSpec.default(l_max=3, n=3)
    for l in (1, 2, 3):
        for m1 in range(-l, l + 1):
            for m2 in range(-l, l + 1):
                if m1 == m2:
                    continue
                val = basis.overlap_integral_numeric(
                    spec, (0, l, m1), (0, l, m2), np.zeros(3))
                assert abs(val) < 1e-6


def test_overlap_symmetry_and_decay():
    spec = basis.RadialBasisSpec.default(l_max=2, n=4)
    r = np.array([0.7, -0.4, 1.1])
    s_ij = basis.overlap_integral_numeric(spec, (1, 2, 1), (3, 1, -1), r)
    s_ji = basis.overlap_integral_numeric(spec, (3, 1, -1), (1, 2, 1), -r)
    assert abs(s_ij - s_ji) < 1e-12
    # s-pair with equal exponents has the closed form exp(-a d^2 / 2)
    a = spec.exponents[3]
    far = basis.overlap_integral_numeric(
        spec, (3, 0, 0), (3, 0, 0), np.array([0.0, 0.0, 40.0]))
    assert abs(far - math.exp(-a * 1600.0 / 2.0)) < 1e-12


def test_overlap_coarse_resolution_raises():
    spec = basis.RadialBasisSpec.default(l_max=7, n=16)
    with pytest.raises(AccuracyError):
        basis.overlap_integral_numeric(
            spec, (15, 7, 0), (15, 7, 0), np.array([2.0, 1.0, 0.5]),
            n_points=2, tol=1e-10)


def test_overlap_index_validation():
    spec = basis.RadialBasisSpec.default(l_max=2, n=3)
    with pytest.raises(DomainError):
        basis.overlap_integral_numeric(spec, (3, 0, 0), (0, 0, 0), np.zeros(3))
    with pytest.raises(DomainError):
        basis.overlap_integral_numeric(spec, (0, 2, 3), (0, 0, 0), np.zeros(3))
