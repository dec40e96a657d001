"""Real-spherical-harmonic SO(3) machinery: solid harmonics, Wigner blocks
and Clebsch-Gordan tables.

Conventions
-----------
Real (tesseral) spherical harmonics, orthonormal on the unit sphere, with the
Condon-Shortley phase absorbed (no ``(-1)^m`` in the real basis).
``eval_real_sh`` returns the solid harmonics ``|d|^l Y_lm(dhat)``: Y_lm on
unit vectors, and zero at ``d = 0`` for every ``l > 0``.  Within
degree ``l`` orders are stored ascending, ``m = -l..l``; negative orders carry
``sin(|m| phi)``, positive orders ``cos(m phi)``.  The flat index of ``(l, m)``
is ``l*l + l + m``, so degrees ``0..L`` pack into ``(L+1)**2`` slots.  For
``l = 1`` the components are ``(y, z, x) * sqrt(3/(4 pi))``.

``wigner_blocks(L, R)[l]`` is the orthogonal matrix ``D`` with

    Y_l(R rhat) = D Y_l(rhat)      equivalently   Y_l(R^-1 rhat) = D^T Y_l(rhat)

which is exactly the matrix that rotates coefficient vectors: expanding
``D @ f`` on the harmonics at ``x`` equals expanding ``f`` at ``R^-1 x``.
With this choice ``D(R1 @ R2) = D(R1) @ D(R2)``.

``cg_table(l, k, J)`` couples two real blocks to a real block with
orthonormal rows (``Q Q^T = I``).  Tables are built from the exact rational
coupling coefficients of the complex basis and the unitary real<->complex
change of basis; for ``l+k+J`` odd the raw transform is purely imaginary and
the table keeps the imaginary part, a unit-modulus rescaling that preserves
both orthonormality and the intertwining property.  Tables are built on
first use and memoized in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_ROT_TOL = 1e-12


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def check_rotation(R, tol=_ROT_TOL):
    """Validate that R is a proper rotation (orthogonal within tol, det +1)."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise DomainError(f"rotation must be 3x3, got shape {R.shape}")
    err = np.abs(R.T @ R - np.eye(3)).max()
    if err > tol:
        raise DomainError(f"matrix is not orthogonal: max |R^T R - I| = {err:.3e}")
    det = np.linalg.det(R)
    if abs(det - 1.0) > 1e-10:
        raise DomainError(f"matrix is not a proper rotation: det = {det!r}")
    return R


def random_rotation(rng):
    """Haar-ish random rotation from the QR decomposition of a Gaussian matrix."""
    A = rng.standard_normal((3, 3))
    Q, r = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(r))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def axis_angle_rotation(axis, angle):
    """Rotation matrix about a (not necessarily unit) axis by angle in radians."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise DomainError("rotation axis must be nonzero")
    u = axis / n
    K = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


# ---------------------------------------------------------------------------
# real spherical harmonics
# ---------------------------------------------------------------------------

def num_sh(l_max):
    return (l_max + 1) ** 2


def sh_index(l, m):
    return l * l + l + m


def block_slice(l):
    return slice(l * l, (l + 1) * (l + 1))


def eval_real_sh(l_max, d):
    """Real solid harmonics |d|^l Y_lm(dhat) for all l <= l_max.

    ``d`` is a (..., 3) array of displacements of any length; on unit vectors
    this is Y_lm itself, and at d = 0 every l > 0 entry is exactly zero.
    Returns (..., (l_max+1)**2), flat index l*l + l + m.
    """
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    d = np.asarray(d, dtype=float)
    if d.shape[-1] != 3:
        raise DomainError("displacements must have a trailing dimension of 3")
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    r2 = x * x + y * y + z * z
    out = np.empty(d.shape[:-1] + (num_sh(l_max),), dtype=float)

    # q holds r^(l-m) Q_lm(z/r) with Q_lm(t) = P_lm(t) / (1-t^2)^(m/2) and no
    # Condon-Shortley factor; the r^2 in the three-term step keeps it a
    # polynomial. c_m + i s_m = (x + i y)^m supplies r^m (1-t^2)^(m/2), so
    # neither the poles nor the origin need special casing.
    c = np.ones_like(z)
    s = np.zeros_like(z)
    q_mm = np.ones_like(z)  # Q_mm = (2m-1)!!
    for m in range(0, l_max + 1):
        if m > 0:
            c, s = x * c - y * s, x * s + y * c
            q_mm = q_mm * (2 * m - 1)
        q_prev = q_mm
        q_curr = None
        for l in range(m, l_max + 1):
            if l == m:
                q = q_mm
            elif l == m + 1:
                q = (2 * m + 1) * z * q_mm
            else:
                q = ((2 * l - 1) * z * q_curr
                     - (l + m - 1) * r2 * q_prev) / (l - m)
            if l > m:
                q_prev, q_curr = q_curr, q
            else:
                q_curr = q
            nlm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                            * math.factorial(l - m) / math.factorial(l + m))
            if m == 0:
                out[..., sh_index(l, 0)] = nlm * q
            else:
                f = math.sqrt(2.0) * nlm
                out[..., sh_index(l, m)] = f * q * c
                out[..., sh_index(l, -m)] = f * q * s
    return out


# ---------------------------------------------------------------------------
# Clebsch-Gordan tables
# ---------------------------------------------------------------------------

def _cg_complex_scalar(j1, m1, j2, m2, J, M):
    """Exact coupling coefficient <j1 m1 j2 m2 | J M> in the complex basis."""
    if m1 + m2 != M:
        return 0.0
    if not abs(j1 - j2) <= J <= j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(M) > J:
        return 0.0
    f = math.factorial
    # exact rationals as integer numerator / denominator; int true division
    # rounds correctly, so each ratio is converted to float exactly once
    pref_num = ((2 * J + 1) * f(j1 + j2 - J) * f(j1 - j2 + J)
                * f(-j1 + j2 + J) * f(J + M) * f(J - M) * f(j1 - m1)
                * f(j1 + m1) * f(j2 - m2) * f(j2 + m2))
    pref_den = f(j1 + j2 + J + 1)
    t_lo = max(0, j2 - J - m1, j1 - J + m2)
    t_hi = min(j1 + j2 - J, j1 - m1, j2 + m2)
    dens = [f(t) * f(j1 + j2 - J - t) * f(j1 - m1 - t) * f(j2 + m2 - t)
            * f(J - j2 + m1 + t) * f(J - j1 - m2 + t)
            for t in range(t_lo, t_hi + 1)]
    common = math.lcm(*dens)
    total = sum((-1) ** t * (common // d)
                for t, d in zip(range(t_lo, t_hi + 1), dens))
    return (total / common) * math.sqrt(pref_num / pref_den)


def _complex_cg(l, k, J):
    """Dense complex-basis table, shape (2J+1, 2l+1, 2k+1), index (M, m1, m2)."""
    out = np.zeros((2 * J + 1, 2 * l + 1, 2 * k + 1))
    for m1 in range(-l, l + 1):
        for m2 in range(-k, k + 1):
            M = m1 + m2
            if abs(M) <= J:
                out[J + M, l + m1, k + m2] = _cg_complex_scalar(l, m1, k, m2, J, M)
    return out


def _real_from_complex_basis(l):
    """Unitary A with  Y^real_mu = sum_m A[mu, m] Y^complex_m  (rows mu=-l..l)."""
    A = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
    A[l, l] = 1.0
    rt = 1.0 / math.sqrt(2.0)
    for m in range(1, l + 1):
        sgn = (-1.0) ** m
        A[l + m, l + m] = sgn * rt
        A[l + m, l - m] = rt
        A[l - m, l + m] = -1j * sgn * rt
        A[l - m, l - m] = 1j * rt
    return A


def _real_cg(l, k, J):
    C = _complex_cg(l, k, J)
    AJ = _real_from_complex_basis(J)
    Al = _real_from_complex_basis(l)
    Ak = _real_from_complex_basis(k)
    # conj(AJ)[P,M] Al[a,m] Ak[b,n] C[M,m,n], one operand at a time
    Ct = np.tensordot(AJ.conj(), C, axes=(1, 0))   # (P, m, n)
    Ct = np.tensordot(Ct, Al, axes=(1, 1))         # (P, n, a)
    Ct = np.tensordot(Ct, Ak, axes=(1, 1))         # (P, a, b)
    re, im = np.abs(Ct.real).max(), np.abs(Ct.imag).max()
    table = Ct.real if re >= im else Ct.imag
    resid = min(re, im)
    if resid > 1e-12:
        raise AssertionError(
            f"real CG table ({l},{k},{J}) is not purely real or imaginary "
            f"(residual {resid:.3e})")
    return np.ascontiguousarray(table)


@dataclass(frozen=True)
class CGTable:
    """Real coupling table for degrees (l, k) -> J.

    ``dense[M, m1, m2]`` couples a degree-l and a degree-k vector to degree J;
    rows (flattened over m1, m2) are orthonormal.
    """
    l: int
    k: int
    J: int
    dense: np.ndarray = field(repr=False)

    def matrix(self):
        """(2J+1, (2l+1)(2k+1)) matricization, m1-major."""
        return self.dense.reshape(2 * self.J + 1, -1)


_MEMO: dict = {}


def cg_table(l, k, J):
    """Real Clebsch-Gordan table coupling degrees (l, k) to J.

    Raises DomainError when (l, k, J) violates the triangle inequality.
    """
    hit = _MEMO.get((l, k, J))
    if hit is not None:
        return hit
    if l < 0 or k < 0 or J < 0:
        raise DomainError("degrees must be non-negative")
    if not abs(l - k) <= J <= l + k:
        raise DomainError(
            f"degree triple ({l},{k},{J}) violates |l-k| <= J <= l+k")
    dense = _real_cg(l, k, J)
    dense.setflags(write=False)
    table = CGTable(l=l, k=k, J=J, dense=dense)
    _MEMO[(l, k, J)] = table
    return table


# ---------------------------------------------------------------------------
# Wigner blocks
# ---------------------------------------------------------------------------

_PI_XYZ_TO_YZX = np.array([[0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0],
                           [1.0, 0.0, 0.0]])


def wigner_blocks(l_max, R, validate=True):
    """Orthogonal blocks D_l, l = 0..l_max, with Y_l(R rhat) = D_l Y_l(rhat).

    D_1 is the similarity-transformed rotation matrix itself (the real
    harmonics of degree one are (y, z, x) up to a common scale); higher
    degrees follow by coupling the (l-1, 1) product back to degree l.
    """
    if validate:
        R = check_rotation(R)
    out = [np.ones((1, 1))]
    if l_max == 0:
        return out
    D1 = _PI_XYZ_TO_YZX @ R @ _PI_XYZ_TO_YZX.T
    out.append(D1)
    D = D1
    for j in range(2, l_max + 1):
        Q = cg_table(j - 1, 1, j).matrix()
        D = Q @ np.kron(D, D1) @ Q.T
        out.append(D)
    return out
