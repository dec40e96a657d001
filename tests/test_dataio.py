import gc
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from infgcn import basis, dataio, geometry
from infgcn.errors import SchemaError


def toy_record(tmp_path, name="rec", pbc=False, cell=None, shape=(4, 3, 2)):
    rng = np.random.default_rng(0)
    if cell is None:
        cell = np.diag([4.0, 3.0, 2.0])
    n = shape[0] * shape[1] * shape[2]
    grid = geometry.VoxelGrid(shape, cell, np.array([-1.0, 0.0, 0.5]),
                              rng.standard_normal(n), pbc=pbc)
    types = np.array([1, 6, 8])
    coords = rng.uniform(-1, 1, size=(3, 3))
    stem = tmp_path / name
    dataio.save_record(stem, types, coords, grid)
    return stem, types, coords, grid


def test_minimal_record(tmp_path):
    grid = geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(3),
                              np.arange(8.0))
    stem = tmp_path / "one"
    dataio.save_record(stem, [6], [[0.1, 0.2, 0.3]], grid)
    types, coords, loaded = dataio.load_record(stem)
    assert types.shape == (1,) and types[0] == 6
    assert loaded.n_voxels == 8
    assert np.array_equal(loaded.values, np.arange(8.0))


def test_load_record_closes_the_blob(tmp_path):
    stem = dataio.make_synthetic_dataset(tmp_path, seed=2,
                                         shape=(4, 4, 4))[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dataio.load_record(stem)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] \
        == []


def test_round_trip_general_cell(tmp_path):
    cell = np.array([[2.0, 0.3, 0.0], [0.1, 1.8, 0.2], [0.0, 0.4, 2.2]])
    stem, types, coords, grid = toy_record(tmp_path, cell=cell, pbc=True)
    t2, c2, g2 = dataio.load_record(stem)
    assert np.array_equal(t2, types)
    assert np.abs(c2 - coords).max() < 1e-12
    assert g2.shape == grid.shape and g2.pbc
    assert np.abs(np.asarray(g2.cell) - cell).max() < 1e-12
    # float32 storage: the blob bytes round-trip exactly
    want = np.asarray(grid.values, dtype="<f4").astype(float)
    assert np.array_equal(g2.values, want)
    frac = geometry.fractional_coords(g2, geometry.grid_coordinates(g2))
    assert frac.min() >= -1e-12 and frac.max() < 1.0


def test_angstrom_units_converted(tmp_path):
    stem, types, coords, grid = toy_record(tmp_path)
    meta = json.loads((tmp_path / "rec.json").read_text())
    meta["units"] = {"length": "angstrom", "density": "e/angstrom^3"}
    (tmp_path / "rec.json").write_text(json.dumps(meta))
    _, c2, g2 = dataio.load_record(stem)
    b = dataio.BOHR_PER_ANGSTROM
    assert np.abs(c2 - coords * b).max() < 1e-12
    assert np.abs(np.asarray(g2.cell) - np.asarray(grid.cell) * b).max() \
        < 1e-12
    f32 = np.asarray(grid.values, dtype="<f4").astype(float)
    assert np.abs(g2.values - f32 / b ** 3).max() < 1e-12


def test_endpoint_inclusive_rescaled(tmp_path):
    # 3 nodes spanning [0, 2] inclusively sit at 0, 1, 2 on each axis
    meta = {"atom_type": [1], "atom_coord": [[0.0, 0.0, 0.0]],
            "shape": [3, 3, 3], "cell": np.diag([2.0, 2.0, 2.0]).tolist(),
            "origin": [0.0, 0.0, 0.0], "pbc": False,
            "endpoint_inclusive": True}
    (tmp_path / "inc.json").write_text(json.dumps(meta))
    np.zeros(27, dtype="<f4").tofile(tmp_path / "inc.bin")
    _, _, grid = dataio.load_record(tmp_path / "inc")
    nodes = geometry.grid_coordinates(grid)
    assert np.abs(nodes[1] - np.array([1.0, 0.0, 0.0])).max() < 1e-12
    assert np.abs(nodes[-1] - np.array([2.0, 2.0, 2.0])).max() < 1e-12


def test_schema_errors_name_the_field(tmp_path):
    stem, *_ = toy_record(tmp_path)
    base = json.loads((tmp_path / "rec.json").read_text())
    cases = [
        ("drop", "atom_coord", "atom_coord"),
        ("drop", "pbc", "pbc"),
        ("set", ("shape", [4, 3]), "shape"),
        ("set", ("cell", [[1, 2], [3, 4]]), "cell"),
        ("set", ("atom_type", [1.5]), "atom_type"),
        ("set", ("units", {"length": "furlong"}), "furlong"),
    ]
    for kind, what, needle in cases:
        meta = dict(base)
        if kind == "drop":
            del meta[what]
        else:
            meta[what[0]] = what[1]
        (tmp_path / "rec.json").write_text(json.dumps(meta))
        with pytest.raises(SchemaError, match=needle):
            dataio.load_record(stem)
    (tmp_path / "rec.json").write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        dataio.load_record(stem)


def test_pbc_with_inclusive_endpoint_rejected(tmp_path):
    stem, *_ = toy_record(tmp_path)
    meta = json.loads((tmp_path / "rec.json").read_text())
    meta["pbc"] = True
    meta["endpoint_inclusive"] = True
    (tmp_path / "rec.json").write_text(json.dumps(meta))
    with pytest.raises(SchemaError, match="periodic"):
        dataio.load_record(stem)


def test_truncated_blob_fuzz(tmp_path):
    stem, *_ = toy_record(tmp_path)
    blob = (tmp_path / "rec.bin").read_bytes()
    for cut in (0, 1, 4, len(blob) - 4, len(blob) - 1):
        (tmp_path / "rec.bin").write_bytes(blob[:cut])
        with pytest.raises(SchemaError, match="bytes"):
            dataio.load_record(stem)
    (tmp_path / "rec.bin").write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(SchemaError, match="bytes"):
        dataio.load_record(stem)


def test_list_records_skips_partials_and_truth(tmp_path):
    toy_record(tmp_path, name="b")
    toy_record(tmp_path, name="a")
    (tmp_path / "orphan.json").write_text("{}")
    (tmp_path / "a.truth.json").write_text("{}")
    stems = dataio.list_records(tmp_path)
    assert [s.rsplit("/", 1)[-1] for s in stems] == ["a", "b"]


def test_cube_value_order_and_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.uniform(-1, 1, size=8)
    grid = geometry.VoxelGrid((2, 2, 2), np.diag([2.0, 2.0, 2.0]),
                              np.array([-1.0, -1.0, -1.0]), values)
    path = tmp_path / "d.cube"
    dataio.export_cube(path, grid, [8], np.array([[0.0, 0.1, -0.2]]))
    lines = path.read_text().splitlines()
    assert lines[2].split()[0] == "1"
    file_vals = [float(v) for line in lines[7:] for v in line.split()]
    # file order is x outer, z fastest; internal is x fastest
    for i in range(2):
        for j in range(2):
            for k in range(2):
                want = values[i + 2 * j + 4 * k]
                got = file_vals[4 * i + 2 * j + k]
                assert abs(got - want) < 1e-5 * max(1.0, abs(want))
    numbers, coords, g2 = dataio.read_cube(path)
    assert numbers.tolist() == [8]
    assert np.abs(coords[0] - np.array([0.0, 0.1, -0.2])).max() < 1e-6
    assert g2.shape == grid.shape
    assert np.abs(np.asarray(g2.cell) - np.asarray(grid.cell)).max() < 1e-5
    assert np.abs(g2.values - values).max() < 1e-5


def test_cube_rejects_malformed(tmp_path):
    path = tmp_path / "bad.cube"
    path.write_text("only\ntwo lines\n")
    with pytest.raises(SchemaError, match="malformed"):
        dataio.read_cube(path)


def test_synthetic_dataset_matches_truth(tmp_path):
    stems = dataio.make_synthetic_dataset(tmp_path / "data", n_records=2,
                                          seed=3, shape=(10, 10, 10))
    assert len(stems) == 2
    types, coords, grid = dataio.load_record(stems[0])
    assert types.size == 5 and grid.n_voxels == 1000
    truth = json.loads(Path(stems[0] + ".truth.json").read_text())
    spec = basis.RadialBasisSpec(np.array(truth["exponents"]),
                                 truth["l_max"])
    want = basis.expand_density(spec, np.array(truth["coeffs"]), coords,
                                geometry.grid_coordinates(grid))
    assert np.abs(grid.values - want).max() < 1e-5
    ladder = basis.make_exponents()
    for idx, a in zip(truth["radial_indices"], truth["exponents"]):
        assert abs(ladder[idx] - a) < 1e-12
    with pytest.raises(SchemaError, match="32"):
        dataio.make_synthetic_dataset(tmp_path / "big", shape=(33, 8, 8))