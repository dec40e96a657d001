"""Gaussian-type orbital basis for multicentric density expansion.

A basis function with radial index n and angular indices (l, m) centered at
``r_u`` is

    psi_{n l m}(x) = c_{n l} * exp(-a_n |d|^2) * |d|^l * Y_lm(dhat),  d = x - r_u

with the real solid harmonic |d|^l Y_lm(dhat) of ``so3.eval_real_sh`` and
``c_{n l} = sqrt(2 (2 a_n)^(l+3/2) / Gamma(l+3/2))`` that makes every
(n, l, m) unit-norm in L2(R^3).  Exponents derive from characteristic radii
r_k via a_k = 1/(2 r_k^2); radii are spaced linearly (default) or
geometrically between r_min and r_max, so the first exponent is the tightest.

Its two factors are rows with the points last: E[n] = exp(-a_n |d|^2) and
``so3.eval_real_sh``'s Y, so psi_{n l m} = c_{n l} E[n] Y[lm].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, so3
from .errors import DomainError

_CHUNK = 512  # queries per block of basis factors
_TINY = np.finfo(float).tiny
# smallest box of queries decoded from 1-D tables: their fixed cost (the
# coefficients mapped onto monomials, the tables built) beats the dense path
# only above ~100 points at l_max 2 and ~150 at l_max 7 (18 centers, BLAS on
# one thread)
_BOX_MIN = 256

SPACINGS = ("linear", "geometric")  # of the radii make_exponents spans


def make_exponents(r_min=0.5, r_max=5.0, n=16, spacing="linear"):
    """Gaussian exponents a_k = 1/(2 r_k^2) for radii spanning [r_min, r_max]."""
    if not (0.0 < r_min < r_max):
        raise DomainError("need 0 < r_min < r_max")
    if n < 1:
        raise DomainError("need at least one radial function")
    if spacing not in SPACINGS:
        raise DomainError(f"unknown spacing {spacing!r}")
    space = np.linspace if spacing == "linear" else np.geomspace
    return 1.0 / (2.0 * space(r_min, r_max, n) ** 2)


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


def _factors(spec, d, out=None):
    """The basis factors (E, Y) at displacements d of shape (..., 3),
    written into ``out``'s (E, Y) when given."""
    E, Y = out or (np.empty((spec.n_radial,) + d.shape[:-1]), None)
    r2 = np.einsum("...i,...i->...", d, d)
    Y = so3.eval_real_sh(spec.l_max, d, out=Y)
    np.multiply.outer(-spec.exponents, r2, out=E)
    return np.exp(E, out=E), Y


def _norm_columns(spec):
    """(n_radial, (l_max+1)**2) table of c_{n l}, repeated over m."""
    return np.repeat(spec.norm_table(),
                     2 * np.arange(spec.l_max + 1) + 1, axis=1)


def _fill_chunks(spec, centers, queries, chunks):
    """Yield `_factor_chunks`' ``chunks``, each filled in place."""
    for sl, factors in chunks:
        _factors(spec, queries[None, sl] - centers[:, None], out=factors)
        yield sl, factors


def _factor_chunks(spec, centers, queries):
    """(slice, (E, Y)) per chunk of q queries, allocated as it is reached:
    buffers for the basis factors at the (U, q) displacements from every
    center."""
    for lo in range(0, len(queries), _CHUNK):
        q = min(_CHUNK, len(queries) - lo)
        yield slice(lo, lo + q), (np.empty((spec.n_radial, len(centers), q)),
                                  np.empty((spec.n_sh, len(centers), q)))


def expand_density(spec, coeffs, centers, queries, cache=None, chunks=None):
    """Multicentric expansion  rho(x) = sum_u sum_{n l m} f[u,n,lm] psi(x - r_u).

    coeffs: (U, n_radial, (l_max+1)**2); centers: (U, 3); queries: (Q, 3).
    Returns (Q,).  Linear in the coefficients.  Per chunk of queries the
    coefficients, with c_{n l} folded in, meet the angular factor Y
    (S, U, q) in one batched GEMM, and the (U, n, q) result the radial
    factor E (n, U, q), the fastest order measured; no (U, q, n, S) table
    of basis values is formed. A ``cache`` dict receives every chunk's
    factors under ``chunks`` for ``expand_density_backward``, which holds
    all of them at once (~6 MB per 512 queries at 18 centers). Filled
    ``chunks`` (`_fill_chunks`) are read instead of evaluated.

    Without a ``cache``, queries that are exactly a box (`_box_axes`) are
    decoded from per-axis factor tables instead (`_expand_box`), a path
    with no adjoint.
    """
    centers = geometry.check_array("centers", centers, (None, 3), finite=True)
    queries = geometry.check_array("queries", queries, (None, 3), finite=True)
    coeffs = geometry.check_array("coeffs", coeffs,
                                  (len(centers), spec.n_radial, spec.n_sh))
    cf = coeffs * _norm_columns(spec)
    axes = _box_axes(queries) if cache is None and chunks is None else None
    if axes is not None:
        return _expand_box(spec, cf, centers, axes)
    out = np.empty(queries.shape[0])
    chunks = chunks or _fill_chunks(spec, centers, queries,
                                    _factor_chunks(spec, centers, queries))
    if cache is not None:
        chunks = cache["chunks"] = list(chunks)
    for sl, (E, Y) in chunks:
        out[sl] = np.einsum("unq,nuq->q", cf @ Y.transpose(1, 0, 2), E)
    return out


def _leading_run(a):
    """Number of leading rows of ``a`` equal to its first row."""
    moved = (a != a[0]).reshape(a.shape[0], -1).any(axis=1)
    return int(moved.argmax()) if moved.any() else a.shape[0]


def _box_axes(queries):
    """(xs, ys, zs) when ``queries`` is exactly the box of points
    (xs[i], ys[j], zs[k]), X fastest, of at least ``_BOX_MIN`` points; else
    None."""
    if queries.shape[0] < _BOX_MIN:
        return None
    nx = _leading_run(queries[:, 1:])
    ny = _leading_run(queries[::nx, 2])
    if queries.shape[0] % (nx * ny):
        return None
    axes = queries[:nx, 0], queries[:nx * ny:nx, 1], queries[::nx * ny, 2]
    box = np.stack(np.broadcast_arrays(axes[0], axes[1][:, None],
                                       axes[2][:, None, None]), axis=-1)
    return axes if np.array_equal(box.reshape(-1, 3), queries) else None


def _axis_table(spec, t, c):
    """(U * n_radial, l_max+1, T) table of (t - c_u)^i exp(-a_n (t - c_u)^2)
    along one axis, for the center coordinates ``c`` (U,) and the axis
    coordinates ``t`` (T,). Entries below the smallest normal float are set
    to zero, as in ``layers._embed``: GEMMs over subnormal operands run
    several times slower."""
    d = t - c[:, None]                                          # (U, T)
    gauss = np.exp(-np.multiply.outer(d * d, spec.exponents))   # (U, T, n)
    powers = d[:, None, :] ** np.arange(spec.l_max + 1)[:, None]  # (U, i, T)
    tab = gauss.transpose(0, 2, 1)[:, :, None, :] * powers[:, None]
    np.copyto(tab, 0.0, where=np.abs(tab) < _TINY)
    return tab.reshape(-1, spec.l_max + 1, t.size)


def _expand_box(spec, cf, centers, axes):
    """rho on the box ``axes`` from 1-D factor tables. A GTO is
    c_{nl} exp(-a_n |d|^2) times a polynomial in d of degree l, and the
    Gaussian factors per axis, so

        rho = sum_{u,n} sum_{ijk} g[u,n,i,j,k] X[u,n,i](x) Y[u,n,j](y) Z[u,n,k](z)

    with the monomial coefficients g = cf @ so3.sh_monomials and the tables
    of `_axis_table`; three GEMMs contract z, then y, then x with the sum
    over centers and radial functions."""
    n = spec.l_max + 1
    g = cf.reshape(-1, spec.n_sh) @ so3.sh_monomials(spec.l_max).reshape(
        spec.n_sh, -1)                                      # (UN, i*j*k)
    X, Y, Z = (_axis_table(spec, t, centers[:, a]) for a, t in enumerate(axes))
    a = g.reshape(-1, n * n, n) @ Z                         # (UN, i*j, z)
    b = a.reshape(-1, n, n, Z.shape[2]).transpose(0, 1, 3, 2) @ Y[:, None]
    b = b.reshape(X.shape[0] * n, Z.shape[2] * Y.shape[2])  # (UN*i, z*y)
    return (b.T @ X.reshape(-1, X.shape[2])).reshape(-1)    # (z, y, x)


def expand_density_backward(spec, grad_out, centers, queries, cache):
    """Adjoint of expand_density with respect to the coefficients, from the
    factors in the ``cache`` that ``expand_density`` filled for the same
    centers and queries."""
    centers = geometry.check_array("centers", centers, (None, 3), finite=True)
    queries = geometry.check_array("queries", queries, (None, 3), finite=True)
    grad_out = geometry.check_array("grad_out", grad_out, (len(queries),))
    grad = np.zeros((centers.shape[0], spec.n_radial, spec.n_sh))
    for sl, (E, Y) in cache["chunks"]:  # grad_out folded into E, the smaller
        grad += (E * grad_out[sl]).transpose(1, 0, 2) @ Y.transpose(1, 2, 0)
    return grad * _norm_columns(spec)

