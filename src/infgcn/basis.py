"""Gaussian-type orbital basis for multicentric density expansion.

A basis function with radial index n and angular indices (l, m) centered at
``r_u`` is

    psi_{n l m}(x) = c_{n l} * exp(-a_n |d|^2) * |d|^l * Y_lm(dhat),  d = x - r_u

with the real solid harmonic |d|^l Y_lm(dhat) of ``so3.eval_real_sh`` and
``c_{n l} = sqrt(2 (2 a_n)^(l+3/2) / Gamma(l+3/2))`` that makes every
(n, l, m) unit-norm in L2(R^3).  Exponents derive from characteristic radii
r_k via a_k = 1/(2 r_k^2); radii are spaced linearly (default) or
geometrically between r_min and r_max, so the first exponent is the tightest.

The basis factors into a radial part E_n = exp(-a_n |d|^2) that does not
depend on l and an angular part |d|^l Y_lm(dhat) that does not depend on n.
`expand_density` folds c_{n l} into the coefficients, contracts E with them
in one batched GEMM per chunk of queries and only then multiplies by the
angular factor, so a chunk of q queries holds (U, q, n) and (U, q, S) arrays
for U centers and S = (l_max+1)^2, never a (U, q, n, S) table of basis values.
The adjoint needs the same two factors; given the forward's cache it reads
them instead of evaluating the harmonics again, at the price of holding every
chunk's factors (~6 MB per 512 queries at 18 centers) until it runs.

All lengths are Bohr; densities are e/Bohr^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import so3
from .errors import AccuracyError, DomainError

_CHUNK = 512  # queries per block of basis factors


def make_exponents(r_min=0.5, r_max=5.0, n=16, spacing="linear"):
    """Gaussian exponents a_k = 1/(2 r_k^2) for radii spanning [r_min, r_max]."""
    if not (0.0 < r_min < r_max):
        raise DomainError("need 0 < r_min < r_max")
    if n < 1:
        raise DomainError("need at least one radial function")
    if spacing == "linear":
        radii = np.linspace(r_min, r_max, n)
    elif spacing == "geometric":
        radii = np.geomspace(r_min, r_max, n)
    else:
        raise DomainError(f"unknown spacing {spacing!r}")
    return 1.0 / (2.0 * radii ** 2)


def normalization_constant(a, l):
    """Unit-L2-norm constant c = sqrt(2 (2a)^(l+3/2) / Gamma(l+3/2))."""
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0.0):
        raise DomainError("exponents must be positive")
    if l < 0:
        raise DomainError("degree must be >= 0")
    return np.sqrt(2.0 * (2.0 * a) ** (l + 1.5) / math.gamma(l + 1.5))


@dataclass(frozen=True)
class RadialBasisSpec:
    """Exponent list plus the angular degree cap shared by all centers."""
    exponents: np.ndarray
    l_max: int

    def __post_init__(self):
        ex = np.asarray(self.exponents, dtype=float)
        if ex.ndim != 1 or ex.size == 0:
            raise DomainError("exponents must be a non-empty 1-D array")
        if np.any(ex <= 0.0):
            raise DomainError("exponents must be positive")
        if self.l_max < 0:
            raise DomainError("l_max must be >= 0")
        object.__setattr__(self, "exponents", ex)

    @staticmethod
    def default(l_max=7, n=16, r_min=0.5, r_max=5.0, spacing="linear"):
        return RadialBasisSpec(make_exponents(r_min, r_max, n, spacing), l_max)

    @property
    def n_radial(self):
        return int(self.exponents.size)

    @property
    def n_sh(self):
        return (self.l_max + 1) ** 2

    def norm_table(self):
        """(n_radial, l_max+1) table of c_{n l}."""
        return np.stack([normalization_constant(self.exponents, l)
                         for l in range(self.l_max + 1)], axis=1)


def eval_basis_block(spec, center, points):
    """Evaluate all (n, l, m) basis functions of one center.

    Returns (Q, n_radial, (l_max+1)**2); points of shape (Q, 3).
    At the center itself every l > 0 entry is exactly zero.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    E, Y = _factors(spec, points - np.asarray(center, dtype=float))
    return (E[..., :, None] * _norm_columns(spec)) * Y[..., None, :]


def _factors(spec, d):
    """The two factors of the basis at displacements d of shape (..., 3).

    Returns E (..., n_radial) with E[..., n] = exp(-a_n |d|^2) and
    Y (..., (l_max+1)**2) with Y[..., lm] = |d|^l Y_lm(dhat); a basis value
    is c_{n l} E[..., n] Y[..., lm].
    """
    r2 = np.einsum("...i,...i->...", d, d)
    Y = so3.eval_real_sh(spec.l_max, d)
    E = np.exp(-np.multiply.outer(r2, spec.exponents))
    return E, Y


def _norm_columns(spec):
    """(n_radial, (l_max+1)**2) table of c_{n l}, repeated over m."""
    return np.repeat(spec.norm_table(),
                     2 * np.arange(spec.l_max + 1) + 1, axis=1)


def _points(name, a):
    """``a`` as an (N, 3) float array; DomainError naming ``name`` otherwise."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2 or a.shape[1] != 3:
        raise DomainError(f"{name} must have shape (N, 3), got {a.shape}")
    return a


def _factor_chunks(spec, centers, queries):
    """(slice, (E, Y)) for each chunk of queries: the two basis factors at
    the displacements from every center, (U, q, n) and (U, q, S)."""
    for lo in range(0, queries.shape[0], _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        yield sl, _factors(spec, queries[None, sl] - centers[:, None])


def expand_density(spec, coeffs, centers, queries, cache=None):
    """Multicentric expansion  rho(x) = sum_u sum_{n l m} f[u,n,lm] psi(x - r_u).

    coeffs: (U, n_radial, (l_max+1)**2); centers: (U, 3); queries: (Q, 3).
    Returns (Q,).  Linear in the coefficients.  Per chunk of queries the
    radial factor E (U, q, n) meets the coefficients, with c_{n l} folded in,
    in one batched GEMM, and the result is contracted with the angular factor
    Y (U, q, S); the chunks bound the size of Y. A ``cache`` dict receives
    every chunk's factors under ``chunks`` for ``expand_density_backward``,
    which holds all of them at once.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    centers = _points("centers", centers)
    queries = _points("queries", queries)
    if coeffs.shape != (centers.shape[0], spec.n_radial, spec.n_sh):
        raise DomainError(
            f"coeffs shape {coeffs.shape} does not match spec/centers "
            f"({centers.shape[0]}, {spec.n_radial}, {spec.n_sh})")
    cf = coeffs * _norm_columns(spec)
    out = np.empty(queries.shape[0])
    chunks = _factor_chunks(spec, centers, queries)
    if cache is not None:
        chunks = cache["chunks"] = list(chunks)
    for sl, (E, Y) in chunks:
        out[sl] = np.einsum("uqs,uqs->q", E @ cf, Y)
    return out


def expand_density_backward(spec, grad_out, centers, queries, cache=None):
    """Adjoint of expand_density with respect to the coefficients.

    ``cache`` is the dict ``expand_density`` filled for the same centers
    and queries; without one the factors are computed chunk by chunk.
    """
    centers = _points("centers", centers)
    queries = _points("queries", queries)
    grad_out = np.asarray(grad_out, dtype=float)
    if grad_out.shape != (queries.shape[0],):
        raise DomainError(
            f"grad_out shape {grad_out.shape} does not match queries "
            f"({queries.shape[0]},)")
    grad = np.zeros((centers.shape[0], spec.n_radial, spec.n_sh))
    chunks = (_factor_chunks(spec, centers, queries) if cache is None
              else cache["chunks"])
    for sl, (E, Y) in chunks:
        grad += E.transpose(0, 2, 1) @ (Y * grad_out[sl, None])
    return grad * _norm_columns(spec)


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
    c1 = float(normalization_constant(a1, l1))
    c2 = float(normalization_constant(a2, l2))
    total = float(np.dot(wt, s1 * s2))
    return c1 * c2 * math.exp(-mu * float(r @ r)) * scale ** 3 * total

