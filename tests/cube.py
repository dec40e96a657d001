"""The tests' reader of CUBE files that `dataio.export_cube` writes."""
import numpy as np

from infgcn import dataio, geometry
from infgcn.errors import SchemaError


def read_cube(path):
    """Parse a CUBE written by export_cube back into arrays and a grid."""
    with dataio.open_file(path, "cube", "rb") as fh:
        raw = fh.read()
    try:
        tokens_by_line = [line.split() for line in raw.decode().splitlines()]
        natoms_line = tokens_by_line[2]
        natoms = int(natoms_line[0])
        origin = np.array([float(v) for v in natoms_line[1:4]])
        counts, rows = [], []
        for line in tokens_by_line[3:6]:
            counts.append(int(line[0]))
            rows.append([float(v) for v in line[1:4]])
        numbers, coords = [], []
        for line in tokens_by_line[6:6 + natoms]:
            numbers.append(int(line[0]))
            coords.append([float(v) for v in line[2:5]])
        flat = [float(v) for line in tokens_by_line[6 + natoms:]
                for v in line]
    except (IndexError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed CUBE ({exc})") from None
    if min(counts) < 0:
        raise SchemaError(f"{path}: Angstrom-unit CUBE not supported")
    nx, ny, nz = counts
    if len(flat) != nx * ny * nz:
        raise SchemaError(f"{path}: {len(flat)} values for shape {counts}")
    cell = np.array(rows) * np.array(counts)[:, None]
    values = np.array(flat).reshape((nx, ny, nz)).transpose(2, 1, 0).ravel()
    grid = geometry.VoxelGrid((nx, ny, nz), cell, origin, values)
    return np.array(numbers), np.array(coords), grid
