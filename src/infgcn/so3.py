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
is ``l*l + l + m``, so degrees ``0..L`` pack into ``(L+1)**2`` slots, and the
harmonics at points ``d`` of shape ``(..., 3)`` are rows: a C-contiguous
``((L+1)**2,) + d.shape[:-1]`` array, one row per slot.  For ``l = 1`` the
components are ``(y, z, x) * sqrt(3/(4 pi))``.

``wigner_blocks(L, R)[l]`` is the orthogonal matrix ``D`` with

    Y_l(R rhat) = D Y_l(rhat)      equivalently   Y_l(R^-1 rhat) = D^T Y_l(rhat)

which is exactly the matrix that rotates coefficient vectors: expanding
``D @ f`` on the harmonics at ``x`` equals expanding ``f`` at ``R^-1 x``.
With this choice ``D(R1 @ R2) = D(R1) @ D(R2)``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def check_rotation(R):
    """Validate that R is a proper rotation (orthogonal within 1e-12,
    det +1)."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise DomainError(f"rotation must be 3x3, got shape {R.shape}")
    err = np.abs(R.T @ R - np.eye(3)).max()
    if not err <= 1e-12:  # NaN fails too
        raise DomainError(f"matrix is not orthogonal: max |R^T R - I| = {err:.3e}")
    det = np.linalg.det(R)
    if not abs(det - 1.0) <= 1e-10:
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


# ---------------------------------------------------------------------------
# real spherical harmonics
# ---------------------------------------------------------------------------

def num_sh(l_max):
    return (l_max + 1) ** 2


def sh_index(l, m):
    return l * l + l + m


def block_slice(l):
    return slice(l * l, (l + 1) * (l + 1))


# points per block of eval_real_sh: one pass over 23,040 points (a basis
# chunk at 45 centers) took 5-6% longer than blocks of this size
_SH_BLOCK = 8192


def eval_real_sh(l_max, d, out=None):
    """Real solid harmonics |d|^l Y_lm(dhat) for all l <= l_max, in rows,
    at a (..., 3) array ``d`` of displacements of any length, written into
    ``out`` if given: a writeable C-contiguous float array of the rows'
    shape. Points are taken in blocks of ``_SH_BLOCK``, so the recursion's
    temporaries stay cache-sized."""
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    d = np.asarray(d, dtype=float)
    if d.shape[-1] != 3:
        raise DomainError("displacements must have a trailing dimension of 3")
    pts = d.reshape(-1, 3)
    n, S = pts.shape[0], num_sh(l_max)
    shape = (S,) + d.shape[:-1]
    if out is not None and not (isinstance(out, np.ndarray) and
            out.flags.carray and (out.shape, out.dtype) == (shape, float)):
        raise DomainError(f"out must be a writeable C-contiguous float array "
                          f"of shape {shape}")
    rows = np.empty((S, n)) if out is None else out.reshape(S, n)
    for lo in range(0, n, _SH_BLOCK):
        x, y, z = pts[lo:lo + _SH_BLOCK].T.copy()
        _sh_recursion(l_max, x, y, z, np.ones_like(z), np.multiply,
                      rows[:, lo:lo + x.size])
    return rows.reshape(shape)


def _sh_recursion(l_max, x, y, z, one, mul, out):
    """Write |d|^l Y_lm into ``out[l*l + l + m]`` for every l <= l_max.

    ``x``, ``y``, ``z`` and ``one`` are the coordinates and the constant 1
    as elements of an algebra whose product is ``mul(a, b, out=None)``:
    float arrays of points with ``np.multiply``, or monomial coefficient
    arrays with ``_poly_mul``. Sums and scalar multiples are numpy's own.
    Each product puts its sparser factor first, the one ``_poly_mul`` loops
    over.
    """
    r2 = mul(x, x) + mul(y, y) + mul(z, z)
    # q holds r^(l-m) Q_lm(z/r) with Q_lm(t) = P_lm(t) / (1-t^2)^(m/2) and no
    # Condon-Shortley factor; the r^2 in the three-term step keeps it a
    # polynomial. c_m + i s_m = (x + i y)^m supplies r^m (1-t^2)^(m/2), so
    # neither the poles nor the origin need special casing.
    c, s, q_mm = one, np.zeros_like(one), one  # Q_mm = (2m-1)!!
    for m in range(0, l_max + 1):
        if m > 0:
            c, s = mul(x, c) - mul(y, s), mul(x, s) + mul(y, c)
            q_mm = q_mm * (2 * m - 1)
        q_prev = q_curr = None
        for l in range(m, l_max + 1):
            if l == m:
                q = q_mm
            elif l == m + 1:
                q = mul((2 * m + 1) * z, q_mm)
            else:
                q = (mul((2 * l - 1) * z, q_curr)
                     - mul((l + m - 1) * r2, q_prev)) / (l - m)
            q_prev, q_curr = q_curr, q
            nlm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                            * math.factorial(l - m) / math.factorial(l + m))
            if m == 0:
                np.multiply(nlm, q, out=out[sh_index(l, 0)])
            else:
                fq = math.sqrt(2.0) * nlm * q
                mul(c, fq, out=out[sh_index(l, m)])
                mul(s, fq, out=out[sh_index(l, -m)])


def _poly_mul(f, p, out=None):
    """Product of two (n, n, n) monomial coefficient arrays (index [i, j, k]
    for x^i y^j z^k), truncated to degree n - 1 per variable; one shifted
    add of ``p`` per non-zero term of ``f``."""
    out = np.empty_like(p) if out is None else out
    out[...] = 0.0
    n = p.shape[0]
    for i, j, k in zip(*np.nonzero(f)):
        out[i:, j:, k:] += f[i, j, k] * p[:n - i, :n - j, :n - k]
    return out


@functools.cache
def sh_monomials(l_max):
    """The solid harmonics as polynomials: a read-only array T of shape
    ((l_max+1)**2, n, n, n), n = l_max + 1, with

        |d|^l Y_lm(dhat) = sum_{ijk} T[l*l + l + m, i, j, k] x^i y^j z^k.

    Row (l, m) is non-zero only where i + j + k = l (120 monomials against 64
    harmonics at l_max = 7). ``eval_real_sh``'s recursion builds it on
    coefficient arrays of side n + 1, so that x, y and z exist at l_max = 0,
    and ``functools.cache`` memoizes it without a lock: racing builds give
    equal tables, and a duplicate cold build costs ~5 ms at l_max = 7.
    """
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    n = l_max + 1
    x, y, z, one = np.zeros((4, n + 1, n + 1, n + 1))
    x[1, 0, 0] = y[0, 1, 0] = z[0, 0, 1] = one[0, 0, 0] = 1.0
    full = np.empty((num_sh(l_max),) + one.shape)
    _sh_recursion(l_max, x, y, z, one, _poly_mul, full)
    table = np.ascontiguousarray(full[:, :n, :n, :n])
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# Clebsch-Gordan tables
# ---------------------------------------------------------------------------

def _cg_complex_scalar(j1, m1, j2, m2, J, M):
    """Exact coupling coefficient <j1 m1 j2 m2 | J M> in the complex basis.
    The caller ensures M = m1 + m2, |j1 - j2| <= J <= j1 + j2, |m1| <= j1,
    |m2| <= j2 and |M| <= J; outside that range the result is undefined."""
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
    """The complex table in the real basis. For l + k + J odd that
    transform is purely imaginary and the imaginary part is kept: a
    unit-modulus rescaling, which preserves orthonormality and the
    intertwining property."""
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


def _check_triple(l, k, J):
    if l < 0 or k < 0 or J < 0:
        raise DomainError("degrees must be non-negative")
    if not abs(l - k) <= J <= l + k:
        raise DomainError(
            f"degree triple ({l},{k},{J}) violates |l-k| <= J <= l+k")


def cg_table(l, k, J):
    """Real Clebsch-Gordan table coupling degrees (l, k) to J: a new
    (2J+1, 2l+1, 2k+1) array, index (M, m1, m2), whose rows flattened over
    (m1, m2) are orthonormal; ``.reshape(2*J + 1, -1)`` is its m1-major
    matricization. Raises DomainError when (l, k, J) violates the triangle
    inequality. Nothing is memoized: callers that reuse tables keep what
    they read. ``cg_m0`` gives the M = 0 row alone without the table.
    """
    _check_triple(l, k, J)
    return _real_cg(l, k, J)


def cg_m0(l, k, J, ma, mb):
    """Entries ``cg_table(l, k, J)[J, l + ma, k + mb]`` of the M = 0 row,
    built without the table, for integer order arrays with
    ``|ma| == |mb| <= min(l, k)``, where the row's non-zero entries lie.

    The real M = 0 harmonic is the complex one, so an entry is
    sum_m A_l[ma, m] A_k[mb, -m] <l m k -m | J 0>, and row ``ma`` of A_l is
    non-zero only at m = +-|ma|: two terms, one exact scalar per |m|, with
    <l -m k m | J 0> = (-1)^(l+k-J) <l m k -m | J 0>, and the real or the
    imaginary part is kept as in ``_real_cg``.
    """
    _check_triple(l, k, J)
    ma, mb = np.asarray(ma), np.asarray(mb)
    mu = np.abs(ma)
    if ma.shape != mb.shape or np.any(mu != np.abs(mb)) \
            or np.any(mu > min(l, k)):
        raise DomainError("orders must satisfy |ma| == |mb| <= min(l, k)")
    scalar = np.zeros(min(l, k) + 1)
    for m in set(mu.tolist()):
        scalar[m] = _cg_complex_scalar(l, m, k, -m, J, 0)
    Al, Ak = _real_from_complex_basis(l), _real_from_complex_basis(k)
    row = Al[l + ma, l + mu] * Ak[k + mb, k - mu]
    flipped = (-1) ** (l + k - J) * Al[l + ma, l - mu] * Ak[k + mb, k + mu]
    row = (row + np.where(mu > 0, flipped, 0.0)) * scalar[mu]
    return row.real if (l + k + J) % 2 == 0 else row.imag


# ---------------------------------------------------------------------------
# Wigner blocks
# ---------------------------------------------------------------------------

_PI_XYZ_TO_YZX = np.array([[0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0],
                           [1.0, 0.0, 0.0]])


def wigner_blocks(l_max, R):
    """Orthogonal blocks D_l, l = 0..l_max, with Y_l(R rhat) = D_l Y_l(rhat).

    D_1 is the similarity-transformed rotation matrix itself (the real
    harmonics of degree one are (y, z, x) up to a common scale); higher
    degrees follow by coupling the (l-1, 1) product back to degree l.
    """
    R = check_rotation(R)
    out = [np.ones((1, 1))]
    if l_max == 0:
        return out
    D1 = _PI_XYZ_TO_YZX @ R @ _PI_XYZ_TO_YZX.T
    out.append(D1)
    D = D1
    for j in range(2, l_max + 1):
        Q = cg_table(j - 1, 1, j).reshape(2 * j + 1, -1)
        D = Q @ np.kron(D, D1) @ Q.T
        out.append(D)
    return out
