"""Reference functions the tests check the package against: a
Gauss-Hermite overlap of two basis functions, a rotation from an axis and
an angle, and two graphon kernels."""
import math

import numpy as np

from infgcn import basis, so3
from infgcn.errors import AccuracyError, DomainError
from infgcn.graphon import GraphonKernel


def overlap_integral_numeric(spec, i, j, displacement, n_points=20, tol=1e-6):
    """Overlap  S = int psi_i(x) psi_j(x - r) d^3x  by tensor Gauss-Hermite.

    ``i``/``j`` are (n, l, m) index triples into ``spec``; ``displacement`` is
    the second center relative to the first.  The two Gaussians combine into a
    single one; the polynomial factor has degree l_i + l_j, so the rule is
    exact once n_points exceeds half that.  The error is estimated against a
    larger rule; if the estimate exceeds ``tol`` an AccuracyError is raised.
    """
    val_lo = _overlap_gh(spec, i, j, displacement, n_points)
    val_hi = _overlap_gh(spec, i, j, displacement, n_points + 6)
    est = abs(val_hi - val_lo)
    if est > tol:
        raise AccuracyError(
            f"overlap quadrature at {n_points} points is too coarse: "
            f"estimated error {est:.3e} > tol {tol:.1e}")
    return val_hi


def _overlap_gh(spec, i, j, displacement, n_points):
    n1, l1, m1 = i
    n2, l2, m2 = j
    for (n, l, m) in (i, j):
        if not 0 <= n < spec.n_radial:
            raise DomainError(f"radial index {n} out of range")
        if not 0 <= l <= spec.l_max or abs(m) > l:
            raise DomainError(f"angular index ({l},{m}) out of range")
    r = np.asarray(displacement, dtype=float)
    a1 = spec.exponents[n1]
    a2 = spec.exponents[n2]
    beta = a1 + a2
    c = a2 * r / beta
    mu = a1 * a2 / beta
    t, w = np.polynomial.hermite.hermgauss(n_points)
    scale = 1.0 / math.sqrt(beta)
    g = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    x = c + g * scale
    wt = (w[:, None, None] * w[None, :, None] * w[None, None, :]).reshape(-1)
    s1 = so3.eval_real_sh(l1, x)[:, so3.sh_index(l1, m1)]
    s2 = so3.eval_real_sh(l2, x - r)[:, so3.sh_index(l2, m2)]
    c1 = float(basis.normalization_constant(a1, l1))
    c2 = float(basis.normalization_constant(a2, l2))
    total = float(np.dot(wt, s1 * s2))
    return c1 * c2 * math.exp(-mu * float(r @ r)) * scale ** 3 * total


def axis_angle_rotation(axis, angle):
    """Rotation matrix about a (not necessarily unit) axis by angle in radians."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise DomainError("rotation axis must be nonzero")
    u = axis / n
    K = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def gaussian_kernel(lengthscale=0.25, d=1):
    def fn(A, B):
        diff = A[:, None, :] - B[None, :, :]
        d2 = np.einsum("nmx,nmx->nm", diff, diff)
        return np.exp(-0.5 * d2 / lengthscale ** 2)

    return GraphonKernel(d=d, fn=fn, name="gaussian")


def zero_kernel(d=1):
    return GraphonKernel(d=d, fn=lambda A, B: np.zeros((A.shape[0],
                                                        B.shape[0])),
                         name="zero")
