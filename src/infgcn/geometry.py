"""Discrete geometry: array checks, radius pairs and graphs, voxel grids,
query sampling, resampling.

Conventions fixed here and relied on everywhere downstream:

* Grid values are stored flat in X-fastest order: the value at integer
  coordinates (i, j, k) lives at flat index ``i + Nx*j + Nx*Ny*k``.
* Grid node (i, j, k) sits at ``origin + (i/Nx) c0 + (j/Ny) c1 + (k/Nz) c2``
  where c0..c2 are the rows of ``cell`` (endpoint-exclusive, so a periodic
  cell tiles without a duplicated seam).
* Edge displacements point from source to destination, r_uv = x_v - x_u.

Coordinates are in Bohr, densities in electrons per Bohr^3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .errors import DomainError


def check_array(name, a, shape, finite=False):
    """``a``, of bools, ints or floats, as a float array of ``shape``,
    where ``None`` matches any length, and with ``finite`` every entry
    finite; DomainError naming ``name`` otherwise. A NaN point would fail
    every cutoff test and silently drop out of the pairs, so point sets
    ask for ``finite``."""
    dims = ", ".join("*" if want is None else str(want) for want in shape)
    dims += "," if len(shape) == 1 else ""
    try:
        arr = np.asarray(a)
        # numpy would parse "1", take None as NaN and drop an imaginary part
        if arr.dtype.kind not in "biuf":
            raise TypeError
        a = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must have shape ({dims}), got a ragged or "
                          f"non-real {type(a).__name__}") from None
    if a.ndim != len(shape) or any(want is not None and want != got
                                   for want, got in zip(shape, a.shape)):
        raise DomainError(f"{name} must have shape ({dims}), got {a.shape}")
    if finite and not np.all(np.isfinite(a)):
        raise DomainError(f"{name} must be finite")
    return a


def check_atom_types(atom_type):
    """``atom_type`` as a 1-D array of non-negative ints, or DomainError."""
    try:
        types = np.asarray(atom_type)
    except ValueError:  # ragged
        types = np.asarray(None)  # 0-d, so rejected below
    if (types.ndim != 1 or types.size and types.dtype.kind not in "iu"
            or np.any(types < 0)):
        raise DomainError("atom_type must be 1-D non-negative integers")
    return types.astype(int)


def radius_pairs(centers, points, cutoff):
    """Every (center, point) pair within ``cutoff``, sorted by (i, j).

    ``centers`` and ``points`` are finite (N, 3) arrays, as ``check_array``
    returns them. Returns (i, j, vec, dist) with vec[e] = points[j[e]] -
    centers[i[e]] and dist[e] = |vec[e]| <= cutoff. The one cutoff search
    of the package: the radius graph and the residual layer's query-atom
    pairs both come from it. Dense over all pairs; fine at desk scale.
    """
    if not 0.0 < cutoff < np.inf:  # NaN too: it would match no pair
        raise DomainError(f"cutoff must be positive and finite, got {cutoff}")
    diff = points[None, :, :] - centers[:, None, :]
    dist = np.sqrt(np.einsum("ijx,ijx->ij", diff, diff))
    i, j = np.nonzero(dist <= cutoff)  # row-major, already sorted by (i, j)
    return i, j, diff[i, j], dist[i, j]


def build_radius_graph(coords, cutoff):
    """All ordered pairs within ``cutoff``, sorted by (u, v), no self edges.

    Returns (src, dst, vec) where vec[e] = coords[dst[e]] - coords[src[e]].
    Self edges are dropped by index, so two coincident atoms keep their
    zero-length edges and fail conv's check instead of vanishing.
    """
    coords = check_array("coords", coords, (None, 3), finite=True)
    src, dst, vec, _ = radius_pairs(coords, coords, cutoff)
    keep = src != dst
    return src[keep], dst[keep], vec[keep]


@dataclass(frozen=True)
class MolecularGraph:
    """Atoms and their radius graph: the edges are ``build_radius_graph``'s
    (src, dst, vec) at ``cutoff``, built on construction, never passed.
    Edge ``edge_rev[e]`` is edge e reversed, -vec up to the sign of a zero,
    so of one length bit for bit: the edges' order by (dst, src)."""

    atom_type: np.ndarray
    atom_coord: np.ndarray
    cutoff: float
    edge_src: np.ndarray = field(init=False)
    edge_dst: np.ndarray = field(init=False)
    edge_vec: np.ndarray = field(init=False)
    edge_rev: np.ndarray = field(init=False)

    def __post_init__(self):
        types = check_atom_types(self.atom_type)
        coords = check_array("atom_coord", self.atom_coord, (types.size, 3),
                             finite=True)
        src, dst, vec = build_radius_graph(coords, self.cutoff)
        object.__setattr__(self, "atom_type", types)
        object.__setattr__(self, "atom_coord", coords)
        object.__setattr__(self, "cutoff", float(self.cutoff))
        object.__setattr__(self, "edge_src", src)
        object.__setattr__(self, "edge_dst", dst)
        object.__setattr__(self, "edge_vec", vec)
        object.__setattr__(self, "edge_rev", np.lexsort((src, dst)))

    @classmethod
    def from_coords(cls, atom_type, atom_coord, cutoff):
        return cls(atom_type, atom_coord, cutoff)

    @property
    def n_atoms(self):
        return self.atom_type.size

    @property
    def n_edges(self):
        return self.edge_src.size


@dataclass(frozen=True)
class VoxelGrid:
    """Density values on a uniform grid inside an arbitrary parallelepiped."""

    shape: tuple
    cell: np.ndarray
    origin: np.ndarray
    values: np.ndarray
    pbc: bool = False

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if len(shape) != 3 or any(s < 1 for s in shape):
            raise DomainError("shape must be three positive integers")
        cell = check_array("cell", self.cell, (3, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            volume = abs(np.linalg.det(cell))
        if not 1e-300 <= volume < np.inf:  # NaN fails too
            raise DomainError("cell is singular or its volume overflows")
        origin = check_array("origin", self.origin, (3,), finite=True)
        values = check_array("values", self.values, (math.prod(shape),))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "values", values)

    @property
    def n_voxels(self):
        return math.prod(self.shape)

    @property
    def voxel_volume(self):
        return abs(np.linalg.det(self.cell)) / self.n_voxels


@dataclass(frozen=True)
class QuerySample:
    """Query points with target densities and a shared volume element."""

    points: np.ndarray
    targets: np.ndarray
    weight: float
    indices: np.ndarray | None = None

    def __post_init__(self):
        pts = check_array("points", self.points, (None, 3))
        tg = check_array("targets", self.targets, (len(pts),))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "targets", tg)


def _coords_at(grid, flat_idx):
    nx, ny, nz = grid.shape
    i = flat_idx % nx
    j = (flat_idx // nx) % ny
    k = flat_idx // (nx * ny)
    frac = np.stack([i / nx, j / ny, k / nz], axis=-1)
    return grid.origin + frac @ grid.cell


def _sample_at(grid, idx):
    return QuerySample(points=_coords_at(grid, idx), targets=grid.values[idx],
                       weight=grid.voxel_volume, indices=idx)


def grid_coordinates(grid):
    """Node coordinates for every voxel, in flat (X-fastest) order."""
    return _coords_at(grid, np.arange(grid.n_voxels))


def fractional_coords(grid, points):
    """Solve cell^T f = x - origin for each of the (N, 3) ``points``."""
    points = check_array("points", points, (None, 3), finite=True)
    return np.linalg.solve(grid.cell.T, (points - grid.origin).T).T


def cell_center(grid):
    return grid.origin + 0.5 * grid.cell.sum(axis=0)


def sample_queries(grid, k, rng_seed):
    """k distinct voxels drawn uniformly; reproducible for a given seed."""
    if not 1 <= k <= grid.n_voxels:
        raise DomainError("sample size out of range")
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(grid.n_voxels, size=k, replace=False)
    return _sample_at(grid, idx)


def partition_grid(grid, batch_size):
    """Deterministic batches covering every voxel exactly once, flat order.

    When a z-plane fits in ``batch_size``, batches are whole planes (the
    size rounded down to a multiple of nx * ny), so on an axis-aligned cell
    each is a box that ``basis.expand_density`` decodes from 1-D tables.
    """
    if batch_size < 1:
        raise DomainError("batch_size must be >= 1")
    plane = grid.shape[0] * grid.shape[1]
    if batch_size >= plane:
        batch_size -= batch_size % plane
    n = grid.n_voxels
    return [_sample_at(grid, np.arange(lo, min(lo + batch_size, n)))
            for lo in range(0, n, batch_size)]


def trilinear_sample(grid, points):
    """Trilinear interpolation at arbitrary points.

    Out-of-hull behaviour follows the grid's boundary flag: periodic grids
    wrap fractional coordinates, otherwise coordinates are clamped to the
    node hull (constant extrapolation past the last node).
    """
    frac = fractional_coords(grid, points)
    shape = np.array(grid.shape, dtype=float)
    if grid.pbc:
        s = (frac % 1.0) * shape
        i0 = np.floor(s).astype(int)
        t = s - i0
        i1 = (i0 + 1) % np.array(grid.shape)
        i0 = i0 % np.array(grid.shape)
    else:
        s = np.clip(frac * shape, 0.0, shape - 1.0)
        i0 = np.minimum(np.floor(s).astype(int),
                        np.array(grid.shape) - 2).clip(min=0)
        t = s - i0
        i1 = np.minimum(i0 + 1, np.array(grid.shape) - 1)
    nx, ny = grid.shape[0], grid.shape[1]

    def gather(ii, jj, kk):
        return grid.values[ii + nx * jj + nx * ny * kk]

    tx, ty, tz = t[..., 0], t[..., 1], t[..., 2]
    out = np.zeros(tx.shape)
    for ci, wi in ((0, 1.0 - tx), (1, tx)):
        for cj, wj in ((0, 1.0 - ty), (1, ty)):
            for ck, wk in ((0, 1.0 - tz), (1, tz)):
                ii = i1[..., 0] if ci else i0[..., 0]
                jj = i1[..., 1] if cj else i0[..., 1]
                kk = i1[..., 2] if ck else i0[..., 2]
                out += wi * wj * wk * gather(ii, jj, kk)
    return out


def rotate_instance(atom_coord, grid, rotation):
    """Rotate a molecule-plus-grid instance about the cell center.

    Atom coordinates are rotated directly; grid values are resampled so the
    stored field is the rotated field, f'(x) = f(R^T (x - c) + c). The cell
    and origin are unchanged, which keeps the instance on the same voxel
    lattice (the evaluation protocol for rotated inference).
    """
    R = so3.check_rotation(rotation)
    coords = check_array("atom_coord", atom_coord, (None, 3), finite=True)
    c = cell_center(grid)
    coords = c + (coords - c) @ R.T
    nodes = grid_coordinates(grid)
    # pull-back: row-vector form of R^T (x - c) is (x - c) @ R
    pulled = c + (nodes - c) @ R
    values = trilinear_sample(grid, pulled)
    new_grid = VoxelGrid(grid.shape, grid.cell, grid.origin, values, grid.pbc)
    return coords, new_grid
