"""Graphon-convolution laboratory on [0,1] and [0,1]^2.

Dense uniform quadrature makes every spectral claim checkable here: applying
the integral operator T_W, its powers, Nystrom eigendecomposition, exact
spectral filters, and the degree-1 Chebyshev filter. Kernels with known
spectra (truncated Fourier series, min(x,y)) serve as oracles.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import dataio, geometry
from .errors import DomainError

_SYM_TOL = 1e-10


@dataclass
class GraphonKernel:
    """Symmetric kernel W on D x D with optional closed-form eigenpairs.

    `fn(A, B)` evaluates W pairwise for points A (n,d) and B (m,d), giving
    an (n, m) matrix. `eigenvalues`/`eigenfunctions` are set for kernels
    whose spectrum is known analytically; eigenfunctions are callables on
    (n, d) arrays.
    """
    d: int
    fn: callable
    eigenvalues: np.ndarray = None
    eigenfunctions: tuple = None
    name: str = "kernel"


@dataclass(frozen=True)
class QuadratureGrid:
    nodes: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,)

    @property
    def n(self):
        return self.nodes.shape[0]

    @property
    def d(self):
        return self.nodes.shape[1]


def uniform_grid(n, d=1):
    """Midpoint rule on [0,1]^d with n nodes per axis."""
    if n < 1 or d not in (1, 2):
        raise DomainError("uniform_grid wants n >= 1 and d in {1, 2}")
    axis = (np.arange(n) + 0.5) / n
    if d == 1:
        nodes = axis[:, None]
        weights = np.full(n, 1.0 / n)
    else:
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        weights = np.full(n * n, 1.0 / (n * n))
    return QuadratureGrid(nodes, weights)


def quad_inner(grid, f, g):
    return float(np.sum(grid.weights * f * g))


def kernel_matrix(kernel, grid):
    K = geometry.check_array(f"kernel {kernel.name!r}",
                             kernel.fn(grid.nodes, grid.nodes),
                             (grid.n, grid.n))
    if np.abs(K - K.T).max() > _SYM_TOL:
        raise DomainError(f"kernel {kernel.name!r} is not symmetric")
    return K


# ---------------------------------------------------------------------------
# kernel zoo


def _cosine_family(k):
    """First k members of the orthonormal cosine family on [0,1]."""
    return tuple(
        (lambda j: lambda x: math.sqrt(2.0) * np.cos(j * math.pi * x[:, 0]))(j)
        for j in range(1, k + 1))


def fourier_kernel(lambdas):
    """Rank-k kernel sum(lambda_j phi_j(x) phi_j(y)) with cosine modes."""
    lambdas = np.asarray(lambdas, dtype=float)
    phis = _cosine_family(lambdas.size)

    def fn(A, B):
        PA = np.column_stack([p(A) for p in phis])
        PB = np.column_stack([p(B) for p in phis])
        return (PA * lambdas) @ PB.T

    return GraphonKernel(d=1, fn=fn, eigenvalues=lambdas,
                         eigenfunctions=phis, name="fourier")


def min_kernel(n_eigs=8):
    """W(x,y) = min(x,y); lambda_k = ((k-1/2)pi)^-2, phi_k = sqrt2 sin((k-1/2)pi x)."""
    ks = np.arange(1, n_eigs + 1)
    lambdas = 1.0 / (((ks - 0.5) * math.pi) ** 2)
    phis = tuple(
        (lambda k: lambda x: math.sqrt(2.0)
            * np.sin((k - 0.5) * math.pi * x[:, 0]))(k)
        for k in ks)

    def fn(A, B):
        return np.minimum(A[:, None, 0], B[None, :, 0])

    return GraphonKernel(d=1, fn=fn, eigenvalues=lambdas,
                         eigenfunctions=phis, name="min")


# ---------------------------------------------------------------------------
# operator application and spectra


def apply_operator(kernel, f, grid):
    """(T_W f)(x_i) = sum_j w_j W(x_i, x_j) f(x_j)."""
    f = geometry.check_array("f", f, (grid.n,))
    K = kernel_matrix(kernel, grid)
    return K @ (grid.weights * f)


def power_apply(kernel, f, n, grid):
    if n < 0:
        raise DomainError("power_apply wants n >= 0")
    out = np.array(f, dtype=float)
    for _ in range(n):
        out = apply_operator(kernel, out, grid)
    return out


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray  # (k,), descending |lambda|
    functions: np.ndarray    # (n, k), orthonormal under the grid inner product
    grid: QuadratureGrid


def nystrom_eigs(kernel, grid, k):
    """Top-k eigenpairs of T_W via the symmetrized weighted kernel matrix."""
    if not 1 <= k <= grid.n:
        raise DomainError(f"k={k} outside [1, {grid.n}]")
    K = kernel_matrix(kernel, grid)
    sw = np.sqrt(grid.weights)
    A = sw[:, None] * K * sw[None, :]
    vals, vecs = np.linalg.eigh(A)
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    lam = vals[order]
    funcs = vecs[:, order] / sw[:, None]
    return SpectralDecomposition(lam, funcs, grid)


def spectral_filter(decomp, transform, f):
    """sum_k F(lambda_k) <phi_k, f> phi_k under the quadrature inner product."""
    f = geometry.check_array("f", f, (decomp.grid.n,))
    w = decomp.grid.weights
    coeffs = decomp.functions.T @ (w * f)
    mu = np.array([float(transform(l)) for l in decomp.eigenvalues])
    return decomp.functions @ (mu * coeffs)


def chebyshev_filter(kernel, f, theta1, theta2, grid):
    """Degree-1 filter theta1 f + theta2 T_W f."""
    return theta1 * np.asarray(f, dtype=float) + theta2 * apply_operator(
        kernel, f, grid)


def coefficient_convolution_check(lambdas, phis, r, n_points=8192):
    """W_ij = lambda_j * int phi_i(x) phi_j(x - r) dx on [0,1].

    Eigenfunctions live on [0,1] and are extended by zero, so the integral
    runs over the overlap of [0,1] and [r, 1+r] with its own midpoint rule
    (keeps the cut edges off the quadrature cells).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    k = lambdas.size
    lo, hi = max(0.0, r), min(1.0, 1.0 + r)
    if hi <= lo:
        return np.zeros((k, k))
    x = (lo + (np.arange(n_points) + 0.5) * (hi - lo) / n_points)[:, None]
    h = (hi - lo) / n_points
    P = np.column_stack([p(x) for p in phis])
    Ps = np.column_stack([p(x - r) for p in phis])
    return h * (P.T @ Ps) * lambdas[None, :]


# ---------------------------------------------------------------------------
# demo report


def _max_diff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def graphon_demo_report(n_nodes=256, seed=0, json_path=None, csv_path=None):
    """All equivalence checks in one serializable report, also written as
    JSON, with an eigenvalue-decay CSV, to the paths given."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(n_nodes)
    f = rng.standard_normal(n_nodes)
    rank3 = fourier_kernel([1.0, 0.5, 0.25])
    decomp3 = nystrom_eigs(rank3, grid, 3)
    complete = nystrom_eigs(rank3, grid, n_nodes)

    t1, t2 = 0.7, -0.4
    cheb = chebyshev_filter(rank3, f, t1, t2, grid)
    spec = spectral_filter(complete, lambda l: t1 + t2 * l, f)
    power2 = _max_diff(power_apply(rank3, f, 2, grid),
                       spectral_filter(decomp3, lambda l: l * l, f))

    mink = min_kernel()
    dm = nystrom_eigs(mink, grid, 8)
    eig_err = float(np.abs(dm.eigenvalues - mink.eigenvalues).max())

    full = nystrom_eigs(rank3, grid, 8)
    tail = float(np.abs(full.eigenvalues[3:]).max())

    diag = coefficient_convolution_check(rank3.eigenvalues,
                                         rank3.eigenfunctions, 0.0)
    diag_err = _max_diff(diag, np.diag(rank3.eigenvalues))

    g = rng.standard_normal(n_nodes)
    sa = abs(quad_inner(grid, apply_operator(mink, f, grid), g)
             - quad_inner(grid, f, apply_operator(mink, g, grid)))

    report = {
        "n_nodes": n_nodes,
        "checks": {
            "chebyshev_vs_spectral": {"max_diff": _max_diff(cheb, spec),
                                      "tol": 1e-8},
            "power2_vs_spectral": {"max_diff": power2, "tol": 1e-8},
            "nystrom_min_kernel": {"max_eig_error": eig_err, "tol": 1e-4},
            "rank3_tail": {"max_abs": tail, "tol": 1e-6},
            "coefficient_diag": {"max_diff": diag_err, "tol": 1e-8},
            "self_adjoint": {"residual": sa, "tol": 1e-10},
        },
    }
    for c in report["checks"].values():
        key = next(k for k in c if k != "tol")
        c["pass"] = bool(c[key] < c["tol"])
    report["pass"] = all(c["pass"] for c in report["checks"].values())

    if json_path is not None:
        with dataio.replace_file(json_path, "report") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if csv_path is not None:
        with dataio.replace_file(csv_path, "CSV", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "min_kernel", "rank3_fourier"])
            for i in range(8):
                writer.writerow([i + 1, float(dm.eigenvalues[i]),
                                 float(full.eigenvalues[i])])
    return report
