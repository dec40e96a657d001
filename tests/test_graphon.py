import json
import math

import numpy as np
import pytest
from scipy import integrate

from infgcn import graphon
from infgcn.errors import DomainError
from oracles import gaussian_kernel, zero_kernel


def test_uniform_grid_weights_sum_to_domain():
    for n, d in ((64, 1), (200, 1), (24, 2)):
        g = graphon.uniform_grid(n, d)
        assert abs(g.weights.sum() - 1.0) < 1e-10
        assert g.nodes.min() > 0.0 and g.nodes.max() < 1.0
    with pytest.raises(DomainError):
        graphon.uniform_grid(8, 3)


def test_kernels_symmetric_on_random_pairs():
    rng = np.random.default_rng(0)
    for kern in (graphon.fourier_kernel([1.0, 0.3]), graphon.min_kernel(),
                 gaussian_kernel()):
        a = rng.uniform(0, 1, size=(40, 1))
        b = rng.uniform(0, 1, size=(40, 1))
        K = kern.fn(a, b)
        Kt = kern.fn(b, a)
        assert np.abs(K - Kt.T).max() < 1e-12


def test_asymmetric_kernel_rejected():
    bad = graphon.GraphonKernel(
        d=1, fn=lambda A, B: A[:, 0][:, None] + 2.0 * B[:, 0][None, :],
        name="skew")
    g = graphon.uniform_grid(16)
    with pytest.raises(DomainError):
        graphon.apply_operator(bad, np.ones(16), g)


def test_zero_kernel_annihilates():
    g = graphon.uniform_grid(32)
    out = graphon.apply_operator(zero_kernel(), np.ones(32), g)
    assert np.all(out == 0.0)


def test_rank_one_projection():
    g = graphon.uniform_grid(128)
    kern = graphon.fourier_kernel([0.7])
    phi = kern.eigenfunctions[0](g.nodes)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.n)
    got = graphon.apply_operator(kern, f, g)
    want = 0.7 * graphon.quad_inner(g, phi, f) * phi
    assert np.abs(got - want).max() < 1e-10


def test_min_kernel_eigenfunction():
    g = graphon.uniform_grid(256)
    kern = graphon.min_kernel()
    phi1 = kern.eigenfunctions[0](g.nodes)
    got = graphon.apply_operator(kern, phi1, g)
    assert np.abs(got - kern.eigenvalues[0] * phi1).max() < 5e-4


def test_power_apply_base_and_composition():
    g = graphon.uniform_grid(96)
    kern = graphon.fourier_kernel([0.6, -0.2])
    rng = np.random.default_rng(2)
    f = rng.standard_normal(g.n)
    same = graphon.power_apply(kern, f, 0, g)
    assert np.array_equal(same, f) and same is not f
    phi = kern.eigenfunctions[0](g.nodes)
    got = graphon.power_apply(kern, f, 2, g)
    proj = (0.36 * graphon.quad_inner(g, phi, f) * phi
            + 0.04 * graphon.quad_inner(g, kern.eigenfunctions[1](g.nodes), f)
            * kern.eigenfunctions[1](g.nodes))
    assert np.abs(got - proj).max() < 1e-10
    lhs = graphon.power_apply(kern, f, 5, g)
    rhs = graphon.power_apply(kern, graphon.power_apply(kern, f, 2, g), 3, g)
    assert np.abs(lhs - rhs).max() < 1e-9
    with pytest.raises(DomainError):
        graphon.power_apply(kern, f, -1, g)


def test_nystrom_recovers_rank3_spectrum():
    g = graphon.uniform_grid(256)
    kern = graphon.fourier_kernel([1.0, 0.5, 0.25])
    dec = graphon.nystrom_eigs(kern, g, 5)
    assert np.abs(dec.eigenvalues[:3] - np.array([1.0, 0.5, 0.25])).max() \
        < 1e-10
    assert np.abs(dec.eigenvalues[3:]).max() < 1e-8
    gram = dec.functions.T @ (g.weights[:, None] * dec.functions)
    assert np.abs(gram - np.eye(5)).max() < 1e-8


def test_nystrom_min_kernel_refinement():
    kern = graphon.min_kernel()
    errs = {}
    for n in (64, 256):
        g = graphon.uniform_grid(n)
        dec = graphon.nystrom_eigs(kern, g, 4)
        errs[n] = np.abs(dec.eigenvalues - kern.eigenvalues[:4]).max()
    assert errs[256] < 1e-4
    assert errs[256] < errs[64] / 2.0


def test_nystrom_rejects_bad_k():
    g = graphon.uniform_grid(16)
    kern = graphon.min_kernel()
    for k in (0, 17):
        with pytest.raises(DomainError):
            graphon.nystrom_eigs(kern, g, k)


def test_spectral_filter_identity_matches_operator():
    g = graphon.uniform_grid(200)
    kern = graphon.fourier_kernel([0.9, 0.4, -0.3])
    dec = graphon.nystrom_eigs(kern, g, 3)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.n)
    spec = graphon.spectral_filter(dec, lambda l: l, f)
    spat = graphon.apply_operator(kern, f, g)
    assert np.abs(spec - spat).max() < 1e-8


def test_spectral_filter_complete_basis_is_identity():
    g = graphon.uniform_grid(64)
    kern = graphon.min_kernel()
    dec = graphon.nystrom_eigs(kern, g, g.n)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(g.n)
    back = graphon.spectral_filter(dec, lambda l: 1.0, f)
    assert np.abs(back - f).max() < 1e-8


def test_spectral_filter_square_matches_power_two():
    g = graphon.uniform_grid(160)
    kern = graphon.fourier_kernel([0.8, 0.5, 0.2])
    dec = graphon.nystrom_eigs(kern, g, 3)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(g.n)
    spec = graphon.spectral_filter(dec, lambda l: l * l, f)
    spat = graphon.power_apply(kern, f, 2, g)
    assert np.abs(spec - spat).max() < 1e-8


def test_chebyshev_filter_trivial_thetas():
    g = graphon.uniform_grid(80)
    kern = graphon.min_kernel()
    rng = np.random.default_rng(6)
    f = rng.standard_normal(g.n)
    assert np.array_equal(graphon.chebyshev_filter(kern, f, 1.0, 0.0, g), f)
    assert np.array_equal(graphon.chebyshev_filter(kern, f, 0.0, 1.0, g),
                          graphon.apply_operator(kern, f, g))


def test_chebyshev_matches_spectral_two_path():
    g = graphon.uniform_grid(128)
    kern = graphon.fourier_kernel([1.0, -0.6, 0.3])
    dec = graphon.nystrom_eigs(kern, g, g.n)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.n)
    t1, t2 = rng.uniform(-1, 1, size=2)
    cheb = graphon.chebyshev_filter(kern, f, t1, t2, g)
    spec = graphon.spectral_filter(dec, lambda l: t1 + t2 * l, f)
    assert np.abs(cheb - spec).max() < 1e-8


def test_coefficient_convolution_diagonal_at_zero_shift():
    kern = graphon.fourier_kernel([1.0, 0.5, 0.25])
    W = graphon.coefficient_convolution_check(kern.eigenvalues,
                                              kern.eigenfunctions, 0.0)
    assert np.abs(W - np.diag(kern.eigenvalues)).max() < 1e-8


def test_coefficient_convolution_disjoint_supports():
    kern = graphon.fourier_kernel([1.0, 0.5])
    for r in (1.0, 1.5, -2.0):
        W = graphon.coefficient_convolution_check(kern.eigenvalues,
                                                  kern.eigenfunctions, r)
        assert np.abs(W).max() < 1e-10


def test_coefficient_convolution_generic_shift_oracle():
    lambdas = np.array([0.9, 0.4])
    phis = graphon._cosine_family(2)
    r = 0.3
    got = graphon.coefficient_convolution_check(lambdas, phis, r)
    for i in range(2):
        for j in range(2):
            def integrand(x):
                return (2.0 * math.cos((i + 1) * math.pi * x)
                        * math.cos((j + 1) * math.pi * (x - r)))
            val, _ = integrate.quad(integrand, r, 1.0, epsabs=1e-12)
            assert abs(got[i, j] - lambdas[j] * val) < 1e-6


def test_eigenvalue_decay_properties():
    g = graphon.uniform_grid(256)
    dec = graphon.nystrom_eigs(gaussian_kernel(0.2), g, 12)
    mags = np.abs(dec.eigenvalues)
    assert np.all(np.diff(mags) <= 1e-12)
    rank3 = graphon.nystrom_eigs(graphon.fourier_kernel([1.0, 0.5, 0.25]),
                                 g, 10)
    assert np.abs(rank3.eigenvalues[3:]).max() < 1e-6


def test_operator_is_self_adjoint_2d():
    g = graphon.uniform_grid(20, d=2)
    kern = gaussian_kernel(0.3, d=2)
    rng = np.random.default_rng(8)
    f = rng.standard_normal(g.n)
    h = rng.standard_normal(g.n)
    lhs = graphon.quad_inner(g, graphon.apply_operator(kern, f, g), h)
    rhs = graphon.quad_inner(g, f, graphon.apply_operator(kern, h, g))
    assert abs(lhs - rhs) < 1e-10


def test_demo_report(tmp_path):
    jp = tmp_path / "report.json"
    cp = tmp_path / "decay.csv"
    rep = graphon.graphon_demo_report(n_nodes=128, json_path=jp, csv_path=cp)
    assert rep["pass"]
    assert all(c["pass"] for c in rep["checks"].values())
    on_disk = json.loads(jp.read_text())
    assert on_disk == rep
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "k,min_kernel,rank3_fourier"
    assert len(lines) == 9
    grid = graphon.uniform_grid(128)
    want = [graphon.nystrom_eigs(k, grid, 8).eigenvalues
            for k in (graphon.min_kernel(),
                      graphon.fourier_kernel([1.0, 0.5, 0.25]))]
    for i, line in enumerate(lines[1:]):
        k, *cells = line.split(",")
        assert int(k) == i + 1
        assert [float(c) for c in cells] == [w[i] for w in want]
