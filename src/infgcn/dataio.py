"""Dataset directory format, Gaussian CUBE export, synthetic data.

A record is a pair of files sharing a stem: `<stem>.json` holds the
metadata that `RecordMeta` declares, which `schema` checks on read and on
write, and `<stem>.bin` holds the density as flat little-endian float32 in
the package's x-fastest grid order. All lengths are Bohr and densities
e-/Bohr^3 internally; Angstrom input is converted at the loader boundary.

`save_record` writes the blob first and the metadata last, with the blob's
zlib CRC-32 as blob_crc32, so a failed write leaves the previous record or
a pair whose blob `load_record` rejects; records without the key load
unchecked.

Every named file the package reads or writes goes through `open_file`,
`read_json` or `replace_file`, which turn an ``OSError`` into the
package's typed errors.
"""

import contextlib
import dataclasses
import json
import math
import os
import secrets
import zlib

import numpy as np

from . import basis, geometry, schema, so3
from .errors import DomainError, SchemaError

BOHR_PER_ANGSTROM = 1.8897259886


@dataclasses.dataclass(frozen=True)
class Units:
    """The units of a record's lengths and densities."""
    length: str = schema.spec("bohr", choices=("bohr", "angstrom"))
    density: str = schema.spec("e/bohr^3",
                               choices=("e/bohr^3", "e/angstrom^3"))


@dataclasses.dataclass(frozen=True)
class RecordMeta:
    """A record's `.json`: the atoms, then the grid as `VoxelGrid` takes it."""
    noun = "record"  # what `schema` calls it in an unknown-key error
    atom_type: int = schema.spec(schema.REQUIRED, shape=(None,), low=0)
    atom_coord: float = schema.spec(schema.REQUIRED, shape=(None, 3))
    shape: int = schema.spec(schema.REQUIRED, shape=(3,), low=1)
    cell: float = schema.spec(schema.REQUIRED, shape=(3, 3))
    origin: float = schema.spec(schema.REQUIRED, shape=(3,))
    pbc: bool = schema.spec(schema.REQUIRED)
    endpoint_inclusive: bool = schema.spec(schema.REQUIRED)
    units: Units = schema.spec(Units())
    blob_crc32: int = schema.spec(None, low=0)


def _check_meta(meta, error):
    """The JSON object ``meta`` as a checked `RecordMeta`, with the rules
    that span its fields; ``error`` names the field that breaks one."""
    rec = schema.from_dict(RecordMeta, meta, error)
    if len(rec.atom_coord) != len(rec.atom_type):
        raise error(f"atom_coord has {len(rec.atom_coord)} rows for "
                    f"{len(rec.atom_type)} atom_type entries")
    if rec.endpoint_inclusive and (rec.pbc or min(rec.shape) < 2):
        raise error("endpoint_inclusive grids cannot be periodic (they "
                    "duplicate the boundary plane) and need at least 2 "
                    "nodes per axis")
    return rec


def load_record(stem):
    """Read `<stem>.json` + `<stem>.bin` into (types, coords, VoxelGrid)."""
    stem = os.fspath(stem)
    meta_path, blob_path = stem + ".json", stem + ".bin"
    meta = _check_meta(read_json(meta_path, "record metadata"),
                       lambda msg: SchemaError(f"{meta_path}: {msg}"))
    shape = tuple(meta.shape.tolist())
    n_values = math.prod(shape)
    with open_file(blob_path, "density blob", "rb") as fh:
        raw = fh.read()
    if len(raw) != 4 * n_values:
        raise SchemaError(f"{blob_path}: blob holds {len(raw)} bytes, "
                          f"want {4 * n_values} for shape {shape}")
    if meta.blob_crc32 is not None and zlib.crc32(raw) != meta.blob_crc32:
        raise SchemaError(f"{blob_path}: blob does not match the blob_crc32 "
                          f"of {meta_path}")
    values = np.frombuffer(raw, dtype="<f4").astype(float)

    to_bohr = BOHR_PER_ANGSTROM if meta.units.length == "angstrom" else 1.0
    coords, cell, origin = (a * to_bohr for a in (meta.atom_coord, meta.cell,
                                                  meta.origin))
    if meta.units.density == "e/angstrom^3":
        values = values / BOHR_PER_ANGSTROM ** 3
    if meta.endpoint_inclusive:
        # re-express nodes over [0, cell] as the endpoint-exclusive
        # convention over a stretched cell: i/(N-1)*cell == i/N * (N/(N-1))*cell
        scale = np.array([n / (n - 1.0) for n in shape])
        cell = cell * scale[:, None]

    grid = geometry.VoxelGrid(shape, cell, origin, values, pbc=meta.pbc)
    return meta.atom_type, coords, grid


def save_record(stem, types, coords, grid):
    """Write the two record files, in Bohr and e-/Bohr^3, in the order the
    module docstring gives, once the metadata passes `load_record`'s checks
    (else a DomainError naming the field). The grid is endpoint-exclusive."""
    stem = os.fspath(stem)
    blob = np.ascontiguousarray(grid.values, dtype="<f4")
    meta = {
        "atom_type": types,
        "atom_coord": coords,
        "shape": list(grid.shape),
        "cell": np.asarray(grid.cell).tolist(),
        "origin": np.asarray(grid.origin).tolist(),
        "pbc": bool(grid.pbc),
        "endpoint_inclusive": False,
        "units": {"length": "bohr", "density": "e/bohr^3"},
        "blob_crc32": zlib.crc32(blob),
    }
    for key in ("atom_type", "atom_coord"):
        with contextlib.suppress(ValueError):  # ragged: `_check_meta` names it
            meta[key] = np.asarray(meta[key]).tolist()
    _check_meta(meta, DomainError)
    with replace_file(stem + ".bin", "density blob", "wb") as fh:
        fh.write(blob)
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
    atom_numbers = geometry.check_atom_types(atom_numbers)
    atom_coords = geometry.check_array("atom_coords", atom_coords,
                                       (atom_numbers.size, 3), finite=True)
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
