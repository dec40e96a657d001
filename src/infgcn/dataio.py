"""Dataset directory format, Gaussian CUBE export, synthetic data.

A record is a pair of files sharing a stem: `<stem>.json` holds the
metadata (atom_type, atom_coord, shape, cell, origin, pbc,
endpoint_inclusive, optional units and blob_crc32) and `<stem>.bin` holds
the density as flat little-endian float32 in the package's x-fastest grid
order. All lengths are Bohr and densities e-/Bohr^3 internally; Angstrom
input is converted at the loader boundary.

`save_record` writes the blob first and the metadata last, with the blob's
zlib CRC-32 as blob_crc32, so a failed write leaves the previous record or
a pair whose blob `load_record` rejects; records without the key load
unchecked.

Every named file the package reads or writes goes through `open_file`,
`read_json` or `replace_file`, which turn an ``OSError`` into the
package's typed errors.
"""

import contextlib
import json
import os
import secrets
import zlib

import numpy as np

from . import basis, geometry, so3
from .errors import DomainError, SchemaError

BOHR_PER_ANGSTROM = 1.8897259886

_LENGTH_UNITS = ("bohr", "angstrom")
_DENSITY_UNITS = ("e/bohr^3", "e/angstrom^3")


def _field(meta, name, path):
    if name not in meta:
        raise SchemaError(f"{path}: missing field {name!r}")
    return meta[name]


def _as_floats(value, shape, name, path):
    stack = [value]
    while stack:  # numpy would parse "1" and take true as 1.0
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif type(item) not in (int, float):
            raise SchemaError(f"{path}: field {name!r} holds a "
                              f"{type(item).__name__}, not a number")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{path}: field {name!r} is not numeric") from None
    if arr.shape != shape:
        raise SchemaError(
            f"{path}: field {name!r} has shape {arr.shape}, want {shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}: field {name!r} contains non-finite values")
    return arr


def load_record(stem):
    """Read `<stem>.json` + `<stem>.bin` into (types, coords, VoxelGrid)."""
    stem = os.fspath(stem)
    meta_path = stem + ".json"
    blob_path = stem + ".bin"
    meta = read_json(meta_path, "record metadata")

    types = _field(meta, "atom_type", meta_path)
    if not (isinstance(types, list) and types
            and all(type(t) is int and abs(t) < 2**63 for t in types)):
        raise SchemaError(f"{meta_path}: field 'atom_type' must be a "
                          "non-empty list of integers")
    n_atoms = len(types)
    coords = _as_floats(_field(meta, "atom_coord", meta_path),
                        (n_atoms, 3), "atom_coord", meta_path)

    shape_raw = _field(meta, "shape", meta_path)
    if (not isinstance(shape_raw, list) or len(shape_raw) != 3
            or any(type(s) is not int or s < 1 for s in shape_raw)):
        raise SchemaError(f"{meta_path}: field 'shape' must be 3 positive "
                          "integers")
    shape = tuple(shape_raw)
    cell = _as_floats(_field(meta, "cell", meta_path), (3, 3), "cell",
                      meta_path)
    origin = _as_floats(_field(meta, "origin", meta_path), (3,), "origin",
                        meta_path)
    for name in ("pbc", "endpoint_inclusive"):
        if not isinstance(_field(meta, name, meta_path), bool):
            raise SchemaError(f"{meta_path}: field {name!r} must be a bool")
    pbc = meta["pbc"]
    inclusive = meta["endpoint_inclusive"]
    if pbc and inclusive:
        raise SchemaError(f"{meta_path}: endpoint_inclusive grids duplicate "
                          "the boundary plane and cannot be periodic")

    units = meta.get("units", {})
    if not isinstance(units, dict):
        raise SchemaError(f"{meta_path}: field 'units' must be an object")
    length_unit = units.get("length", "bohr")
    density_unit = units.get("density", "e/bohr^3")
    if length_unit not in _LENGTH_UNITS:
        raise SchemaError(f"{meta_path}: unknown length unit {length_unit!r}")
    if density_unit not in _DENSITY_UNITS:
        raise SchemaError(
            f"{meta_path}: unknown density unit {density_unit!r}")

    n_values = shape[0] * shape[1] * shape[2]
    with open_file(blob_path, "density blob", "rb") as fh:
        raw = fh.read()
    if len(raw) != 4 * n_values:
        raise SchemaError(f"{blob_path}: blob holds {len(raw)} bytes, "
                          f"want {4 * n_values} for shape {shape}")
    if "blob_crc32" in meta and zlib.crc32(raw) != meta["blob_crc32"]:
        raise SchemaError(f"{blob_path}: blob does not match the blob_crc32 "
                          f"of {meta_path}")
    values = np.frombuffer(raw, dtype="<f4").astype(float)

    if length_unit == "angstrom":
        coords = coords * BOHR_PER_ANGSTROM
        cell = cell * BOHR_PER_ANGSTROM
        origin = origin * BOHR_PER_ANGSTROM
    if density_unit == "e/angstrom^3":
        values = values / BOHR_PER_ANGSTROM ** 3
    if inclusive:
        # re-express nodes over [0, cell] as the endpoint-exclusive
        # convention over a stretched cell: i/(N-1)*cell == i/N * (N/(N-1))*cell
        if min(shape) < 2:
            raise SchemaError(f"{meta_path}: endpoint_inclusive grids need "
                              "at least 2 nodes per axis")
        scale = np.array([n / (n - 1.0) for n in shape])
        cell = cell * scale[:, None]

    grid = geometry.VoxelGrid(shape, cell, origin, values, pbc=pbc)
    return np.array(types), coords, grid


def save_record(stem, types, coords, grid):
    """Write the two record files, in Bohr and e-/Bohr^3, in the order the
    module docstring gives. The grid must be endpoint-exclusive."""
    stem = os.fspath(stem)
    types = np.asarray(types, dtype=int)
    coords = np.asarray(coords, dtype=float)
    blob = np.ascontiguousarray(grid.values, dtype="<f4")
    with replace_file(stem + ".bin", "density blob", "wb") as fh:
        fh.write(blob)
    meta = {
        "atom_type": types.tolist(),
        "atom_coord": coords.tolist(),
        "shape": list(grid.shape),
        "cell": np.asarray(grid.cell).tolist(),
        "origin": np.asarray(grid.origin).tolist(),
        "pbc": bool(grid.pbc),
        "endpoint_inclusive": False,
        "units": {"length": "bohr", "density": "e/bohr^3"},
        "blob_crc32": zlib.crc32(blob),
    }
    with replace_file(stem + ".json", "record metadata") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def list_records(dirpath):
    """Sorted record stems (absolute) with both files present."""
    dirpath = os.fspath(dirpath)
    stems = []
    for name in sorted(os.listdir(dirpath)):
        if not name.endswith(".json") or name.endswith(".truth.json"):
            continue
        stem = os.path.join(dirpath, name[:-5])
        if os.path.exists(stem + ".bin"):
            stems.append(stem)
    return stems


@contextlib.contextmanager
def _typed_os_errors(path, what, verb, error):
    """Turn an ``OSError`` raised in the block into ``error``: "cannot
    <verb> <what> '<path>': <reason>"."""
    try:
        yield
    except OSError as exc:
        raise error(f"cannot {verb} {what} {os.fspath(path)!r}: "
                    f"{exc.strerror or exc}") from None


@contextlib.contextmanager
def open_file(path, what, mode="r", error=SchemaError):
    """``open(path, mode)``; an ``OSError`` raised while the file is opened
    or used in the block becomes ``error`` naming ``what`` and ``path``."""
    verb = "read" if mode.startswith("r") else "write"
    with _typed_os_errors(path, what, verb, error), open(path, mode) as fh:
        yield fh


def read_json(path, what):
    """The JSON object in ``path``; a SchemaError naming ``path`` when it
    cannot be read, is not JSON or is not an object."""
    with open_file(path, what) as fh:
        try:
            value = json.load(fh)
        except ValueError as exc:  # bad JSON, non-text bytes, huge ints
            raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: {what} must be a JSON object")
    return value


@contextlib.contextmanager
def replace_file(path, what, mode="w", **kw):
    """A sibling temp file, opened with ``mode`` ("w" or "wb") and ``kw``,
    that is synced and renamed over ``path`` when the block ends, so a crash
    leaves the old file whole. On failure it is removed, and an ``OSError``
    becomes a DomainError naming ``what`` and ``path``."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{secrets.token_hex(6)}.tmp")
    try:
        with _typed_os_errors(path, what, "write", DomainError):
            with open(tmp, "x" + mode[1:], **kw) as fh:
                yield fh
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Gaussian CUBE


def export_cube(path, grid, atom_numbers, atom_coords, comment="density"):
    """Write a standard CUBE file: Bohr axes, z-fastest value order."""
    atom_numbers = np.asarray(atom_numbers, dtype=int)
    atom_coords = np.asarray(atom_coords, dtype=float)
    nx, ny, nz = grid.shape
    steps = np.asarray(grid.cell) / np.array([nx, ny, nz])[:, None]
    lines = [comment, "generated by infgcn"]
    lines.append("%5d %11.6f %11.6f %11.6f"
                 % (atom_numbers.size, *grid.origin))
    for n, step in zip((nx, ny, nz), steps):
        lines.append("%5d %11.6f %11.6f %11.6f" % (n, *step))
    for z, xyz in zip(atom_numbers, atom_coords):
        lines.append("%5d %11.6f %11.6f %11.6f %11.6f" % (z, float(z), *xyz))
    vals = np.asarray(grid.values).reshape((nz, ny, nx)).transpose(2, 1, 0)
    flat = vals.ravel()  # x outer, z fastest
    for row_start in range(0, flat.size, 6):
        chunk = flat[row_start:row_start + 6]
        lines.append(" ".join("%13.5E" % v for v in chunk))
    with replace_file(path, "cube") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# synthetic data


def make_synthetic_dataset(dirpath, n_records=1, seed=0, n_atoms=5,
                           shape=(24, 24, 24), l_max=2, radial_indices=(2, 5, 8, 11),
                           vocab=5, extent=8.0):
    """Gaussian-mixture densities with known coefficients.

    Coefficients live on a subset of the default radial ladder and degrees
    up to `l_max`, so the default model can represent every record exactly.
    Ground truth is stored next to each record as `<stem>.truth.json`.
    """
    os.makedirs(dirpath, exist_ok=True)
    ladder = basis.make_exponents()
    exponents = [ladder[i] for i in radial_indices]
    spec = basis.RadialBasisSpec(tuple(exponents), l_max)
    rng = np.random.default_rng(seed)
    half = extent / 2.0
    grid_shape = tuple(int(s) for s in shape)
    if max(grid_shape) > 32:
        raise SchemaError("synthetic grids are capped at 32 nodes per axis")
    cell = np.diag([extent] * 3)
    origin = np.full(3, -half)
    stems = []
    for rec in range(n_records):
        coords = rng.uniform(-1.5, 1.5, size=(n_atoms, 3))
        types = rng.integers(0, vocab, size=n_atoms)
        scale = 1.0 / (1.0 + np.arange(l_max + 1)) ** 2
        coeffs = rng.standard_normal((n_atoms, spec.n_radial, spec.n_sh))
        for l in range(l_max + 1):
            coeffs[:, :, so3.block_slice(l)] *= scale[l]
        nodes = geometry.grid_coordinates(
            geometry.VoxelGrid(grid_shape, cell, origin,
                               np.zeros(np.prod(grid_shape))))
        values = basis.expand_density(spec, coeffs, coords, nodes)
        grid = geometry.VoxelGrid(grid_shape, cell, origin, values)
        stem = os.path.join(os.fspath(dirpath), f"rec{rec:03d}")
        save_record(stem, types, coords, grid)
        with replace_file(stem + ".truth.json", "truth") as fh:
            json.dump({"exponents": list(map(float, exponents)),
                       "l_max": l_max,
                       "radial_indices": list(radial_indices),
                       "coeffs": coeffs.tolist()}, fh, sort_keys=True)
            fh.write("\n")
        stems.append(stem)
    return stems
