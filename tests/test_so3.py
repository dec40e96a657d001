import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coeff_rotation import rotate_coeffs
from infgcn import so3
from infgcn.errors import DomainError


def unit_vectors(rng, n):
    d = rng.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# real spherical harmonics
# ---------------------------------------------------------------------------

def test_y00_is_constant():
    rng = np.random.default_rng(0)
    vals = so3.eval_real_sh(0, unit_vectors(rng, 64))
    assert np.allclose(vals, 1.0 / (2.0 * math.sqrt(math.pi)), atol=1e-15)


def test_degree_one_at_z_pole():
    y = so3.eval_real_sh(1, np.array([0.0, 0.0, 1.0]))
    block = y[1:4]
    assert abs(block[1] - math.sqrt(3.0 / (4.0 * math.pi))) < 1e-14
    assert abs(block[0]) < 1e-15 and abs(block[2]) < 1e-15


def test_degree_one_is_yzx():
    rng = np.random.default_rng(1)
    d = unit_vectors(rng, 32)
    y = so3.eval_real_sh(1, d)
    c = math.sqrt(3.0 / (4.0 * math.pi))
    assert np.allclose(y[:, 1], c * d[:, 1], atol=1e-14)
    assert np.allclose(y[:, 2], c * d[:, 2], atol=1e-14)
    assert np.allclose(y[:, 3], c * d[:, 0], atol=1e-14)


def test_gram_monte_carlo():
    # low-discrepancy uniform sphere sampling; plain pseudorandom sampling at
    # 1e6 points leaves ~2e-3 noise which would mask a genuine defect
    from scipy.stats import qmc

    s = qmc.Sobol(2, scramble=True, seed=11).random(2 ** 20)
    z = 1.0 - 2.0 * s[:, 0]
    phi = 2.0 * math.pi * s[:, 1]
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    d = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    Y = so3.eval_real_sh(4, d)
    G = (Y.T @ Y) * (4.0 * math.pi / len(d))
    assert np.abs(G - np.eye(G.shape[0])).max() < 1e-3


def gauss_sphere_grid(n_theta=64, n_phi=64):
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    ct = np.repeat(x, n_phi)
    st_ = np.sqrt(1.0 - np.repeat(x, n_phi) ** 2)
    ph = np.tile(phi, n_theta)
    dirs = np.stack([st_ * np.cos(ph), st_ * np.sin(ph), ct], axis=1)
    weights = np.repeat(w, n_phi) * (2.0 * math.pi / n_phi)
    return dirs, weights


def test_gram_deterministic_quadrature():
    # product Gauss-Legendre x trapezoid grid integrates degree<=7 products
    # exactly, so the Gram matrix is the identity to machine precision
    dirs, w = gauss_sphere_grid()
    Y = so3.eval_real_sh(7, dirs)
    G = np.einsum("qi,qj,q->ij", Y, Y, w)
    assert np.abs(G - np.eye(64)).max() < 1e-10


def test_solid_harmonics_scale_with_length():
    # eval_real_sh(s u) = |s u|^l Y_lm(u): each degree-l block of a scaled
    # unit vector is s^l times the spherical harmonics, down to the origin,
    # where only degree zero survives
    rng = np.random.default_rng(12)
    u = unit_vectors(rng, 50)
    u[0] = (0.0, 0.0, 1.0)
    unit = so3.eval_real_sh(7, u)
    for scale in (1e-4, 0.3, 1.0, 2.5, 40.0):
        got = so3.eval_real_sh(7, scale * u)
        for l in range(8):
            sl = so3.block_slice(l)
            assert np.abs(got[:, sl] - scale ** l * unit[:, sl]).max() \
                <= 1e-12 * scale ** l
    Y = so3.eval_real_sh(7, np.zeros((2, 3)))
    assert np.all(Y[:, 0] == 1.0 / (2.0 * math.sqrt(math.pi)))
    assert np.all(Y[:, 1:] == 0.0)


# ---------------------------------------------------------------------------
# Wigner blocks
# ---------------------------------------------------------------------------

def test_rotation_identity_all_degrees():
    rng = np.random.default_rng(2)
    for _ in range(20):
        R = so3.random_rotation(rng)
        d = unit_vectors(rng, 32)
        Y = so3.eval_real_sh(7, d)
        YR = so3.eval_real_sh(7, d @ R.T)  # rows rotated by R
        blocks = so3.wigner_blocks(7, R)
        for l in range(8):
            sl = so3.block_slice(l)
            assert np.abs(YR[:, sl] - Y[:, sl] @ blocks[l].T).max() < 1e-9


def test_wigner_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(10):
        R1, R2 = so3.random_rotation(rng), so3.random_rotation(rng)
        B12 = so3.wigner_blocks(7, R1 @ R2)
        B1 = so3.wigner_blocks(7, R1)
        B2 = so3.wigner_blocks(7, R2)
        for l in range(8):
            assert np.abs(B12[l] - B1[l] @ B2[l]).max() < 1e-9


def test_wigner_orthogonal():
    rng = np.random.default_rng(4)
    R = so3.random_rotation(rng)
    for l in range(8):
        D = so3.wigner_blocks(l, R)[l]
        assert np.abs(D @ D.T - np.eye(2 * l + 1)).max() < 1e-10


def test_wigner_identity_rotation():
    for l in range(5):
        D = so3.wigner_blocks(l, np.eye(3))[l]
        assert np.abs(D - np.eye(2 * l + 1)).max() < 1e-14


def test_wigner_l1_z_quarter_turn():
    # quarter turn about z maps x->y, y->-x; in (y, z, x) component order the
    # block is a signed permutation
    R = so3.axis_angle_rotation([0, 0, 1], math.pi / 2.0)
    D = so3.wigner_blocks(1, R)[1]
    expect = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    assert np.abs(D - expect).max() < 1e-14


def test_bad_rotation_rejected():
    with pytest.raises(DomainError):
        so3.wigner_blocks(2, np.eye(3) * 1.001)
    with pytest.raises(DomainError):
        so3.wigner_blocks(2, -np.eye(3))  # det -1


# ---------------------------------------------------------------------------
# Clebsch-Gordan tables
# ---------------------------------------------------------------------------

def test_cg_scalar_case():
    t = so3.cg_table(0, 0, 0)
    assert t.dense.shape == (1, 1, 1)
    assert abs(t.dense[0, 0, 0] - 1.0) < 1e-15


def _couple(l, k, J, a, b):
    """Degree-J coupling of a degree-l and a degree-k vector, per channel."""
    return np.einsum("Mab,...a,...b->...M", so3.cg_table(l, k, J).dense, a, b)


def test_cg_110_is_scaled_dot():
    t = so3.cg_table(1, 1, 0).dense[0]
    assert np.abs(np.abs(t) - np.eye(3) / math.sqrt(3.0)).max() < 1e-12
    # and the J=0 output is rotation invariant
    rng = np.random.default_rng(5)
    a = rng.standard_normal(3)
    b = rng.standard_normal(3)
    ref = _couple(1, 1, 0, a, b)
    for _ in range(50):
        D = so3.wigner_blocks(1, so3.random_rotation(rng))[1]
        got = _couple(1, 1, 0, a @ D.T, b @ D.T)
        assert np.abs(got - ref).max() < 1e-10


def test_cg_111_is_scaled_cross():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a3 = rng.standard_normal(3)
        b3 = rng.standard_normal(3)
        c = _couple(1, 1, 1, a3[[1, 2, 0]], b3[[1, 2, 0]])
        cross = np.cross(a3, b3)[[1, 2, 0]]
        # proportional with a fixed unit-scale constant (-1/sqrt2 here)
        assert np.abs(c + cross / math.sqrt(2.0)).max() < 1e-12


def test_cg_unitarity_full_range():
    for l in range(8):
        for k in range(8):
            for J in range(abs(l - k), l + k + 1):
                Q = so3.cg_table(l, k, J).matrix()
                assert np.abs(Q @ Q.T - np.eye(2 * J + 1)).max() < 1e-10


def test_cg_triangle_violation():
    with pytest.raises(DomainError):
        so3.cg_table(1, 1, 3)
    with pytest.raises(DomainError):
        so3.cg_table(2, 0, 1)


def test_cg_matches_exact_coupling_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.physics.quantum.cg import CG

    rng = np.random.default_rng(7)
    for _ in range(25):
        j1, j2 = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        J = int(rng.integers(abs(j1 - j2), j1 + j2 + 1))
        m1 = int(rng.integers(-j1, j1 + 1))
        m2 = int(rng.integers(-j2, j2 + 1))
        M = m1 + m2
        if abs(M) > J:
            continue
        want = float(CG(j1, m1, j2, m2, J, M).doit().evalf())
        got = so3._cg_complex_scalar(j1, m1, j2, m2, J, M)
        assert abs(want - got) < 1e-12


def _fraction_cg_scalar(j1, m1, j2, m2, J, M):
    """Reference Racah sum in exact Fractions (the earlier implementation)."""
    if m1 + m2 != M:
        return 0.0
    if not abs(j1 - j2) <= J <= j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(M) > J:
        return 0.0
    f = math.factorial
    pref = Fraction(
        (2 * J + 1) * f(j1 + j2 - J) * f(j1 - j2 + J) * f(-j1 + j2 + J),
        f(j1 + j2 + J + 1),
    ) * Fraction(f(J + M) * f(J - M) * f(j1 - m1) * f(j1 + m1)
                 * f(j2 - m2) * f(j2 + m2))
    total = Fraction(0)
    t_lo = max(0, j2 - J - m1, j1 - J + m2)
    t_hi = min(j1 + j2 - J, j1 - m1, j2 + m2)
    for t in range(t_lo, t_hi + 1):
        den = (f(t) * f(j1 + j2 - J - t) * f(j1 - m1 - t) * f(j2 + m2 - t)
               * f(J - j2 + m1 + t) * f(J - j1 - m2 + t))
        total += Fraction((-1) ** t, den)
    return float(total) * math.sqrt(float(pref))


def test_cg_integer_racah_sum_is_bit_identical(monkeypatch):
    # both sums are exact rationals rounded once, so every L=7 table must
    # come out bit for bit the same
    paths = [(l, k, J) for l in range(8) for k in range(8)
             for J in range(abs(l - k), l + k + 1)]
    assert len(paths) == 344
    tables = [so3._real_cg(*p) for p in paths]
    monkeypatch.setattr(so3, "_cg_complex_scalar", _fraction_cg_scalar)
    for p, got in zip(paths, tables):
        assert np.array_equal(got, so3._real_cg(*p)), p


def test_cg_tables_write_no_cache(tmp_path):
    # every cache location the package could derive points into tmp_path
    env = dict(os.environ, HOME=str(tmp_path / "home"),
               XDG_CACHE_HOME=str(tmp_path / "xdg"),
               INFGCN_CACHE_DIR=str(tmp_path / "infgcn"))
    src = str(Path(so3.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("from infgcn import layers, so3\n"
            "for p in layers.make_paths(7):\n"
            "    so3.cg_table(*p)\n")
    subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                   check=True, timeout=120)
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


# ---------------------------------------------------------------------------
# coupling and rotating coefficient blocks
# ---------------------------------------------------------------------------

def test_tensor_product_equivariance():
    rng = np.random.default_rng(8)
    triples = [(1, 1, 0), (1, 1, 1), (1, 1, 2), (2, 3, 4), (4, 4, 2),
               (5, 7, 3), (7, 7, 14)]
    for (l, k, J) in triples:
        a = rng.standard_normal((2, 2 * l + 1))
        b = rng.standard_normal((2, 2 * k + 1))
        D = so3.wigner_blocks(max(l, k, J), so3.random_rotation(rng))
        lhs = _couple(l, k, J, a, b) @ D[J].T
        rhs = _couple(l, k, J, a @ D[l].T, b @ D[k].T)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_tensor_product_bilinear():
    rng = np.random.default_rng(9)
    a1 = rng.standard_normal(5)
    a2 = rng.standard_normal(5)
    b = rng.standard_normal(3)
    lhs = _couple(2, 1, 2, 2.0 * a1 + a2, b)
    rhs = 2.0 * _couple(2, 1, 2, a1, b) + _couple(2, 1, 2, a2, b)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_rotate_tensor_norm_and_reconstruction():
    rng = np.random.default_rng(10)
    degrees = (0, 1, 3)
    f = {l: rng.standard_normal((2, 2 * l + 1)) for l in degrees}
    norm = lambda t: math.sqrt(sum(float((b * b).sum()) for b in t.values()))
    for _ in range(5):
        R = so3.random_rotation(rng)
        D = so3.wigner_blocks(3, R)
        g = {l: f[l] @ D[l].T for l in degrees}
        assert abs(norm(f) - norm(g)) < 1e-10
        d = unit_vectors(rng, 100)
        Y_at = so3.eval_real_sh(3, d)
        Y_pre = so3.eval_real_sh(3, d @ R)  # rows are R^-1 applied to d
        lhs = sum(np.einsum("cm,qm->cq", g[l], Y_at[:, so3.block_slice(l)])
                  for l in degrees)
        rhs = sum(np.einsum("cm,qm->cq", f[l], Y_pre[:, so3.block_slice(l)])
                  for l in degrees)
        assert np.abs(lhs - rhs).max() < 1e-8


def test_rotation_commutes_with_truncation():
    # rotating an L=3 coefficient array and dropping degrees above 1 gives
    # the same floats as rotating the truncated array: blocks rotate
    # independently, and the higher degrees ignore the lower ones
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 5, 16))
    R = so3.random_rotation(rng)
    full = rotate_coeffs(x, R)
    assert np.array_equal(full[..., :4], rotate_coeffs(x[..., :4], R))
    high = x.copy()
    high[..., :4] = 0.0
    assert np.array_equal(full[..., 4:], rotate_coeffs(high, R)[..., 4:])