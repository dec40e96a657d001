import ast
import builtins
import dataclasses
import gc
import json
import os
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from cube import read_cube
from disk_full import DiskFullAt
from hypothesis import example, given, settings
from hypothesis import strategies as st
from json_values import EDGES, NUMBERS, VALUES

from infgcn import basis, dataio, geometry
from infgcn.errors import DomainError, SchemaError


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
        ("set", ("shape", [True, 3, 8]), "shape"),
        ("set", ("atom_type", [[1], 6, 8]), "atom_type"),
        ("set", ("atom_coord", [[10**400, 0, 0]] * 3), "atom_coord"),
        ("set", ("atom_type", [-1, 6, 8]), "atom_type"),
        # unknown keys: each would otherwise load Angstrom as Bohr
        ("set", ("units", {"lenght": "angstrom"}), "units key 'lenght'"),
        ("set", ("unit", {"length": "angstrom"}),
         "unknown record key 'unit'"),
    ]
    for kind, what, needle in cases:
        meta = dict(base)
        if kind == "drop":
            del meta[what]
        else:
            meta[what[0]] = what[1]
        (tmp_path / "rec.json").write_text(json.dumps(meta))
        with pytest.raises(SchemaError, match=needle) as info:
            dataio.load_record(stem)
        assert str(info.value).startswith(f"{tmp_path / 'rec.json'}: ")
    for raw in (b"{not json", b"\xff{}"):
        (tmp_path / "rec.json").write_bytes(raw)
        with pytest.raises(SchemaError, match="invalid JSON"):
            dataio.load_record(stem)


_META_FIELDS = ["atom_type", "atom_coord", "shape", "cell", "origin", "pbc",
                "endpoint_inclusive", "units", "blob_crc32"]
# besides any JSON value, rows of numbers shaped like the numeric fields
_ROW = st.lists(EDGES | NUMBERS, min_size=3, max_size=3)
_META_VALUES = VALUES | _ROW | st.lists(_ROW, min_size=3, max_size=3)


def _leaves(value):
    """The non-list items of a nested JSON list, or the value itself."""
    if not isinstance(value, list):
        return [value]
    return [leaf for item in value for leaf in _leaves(item)]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(value=_META_VALUES)
@example(value=["1", 2, 3])  # numpy parses the string
@example(value=[[True, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
def test_fuzzed_record_loads_typed_or_names_the_field(tmp_path_factory,
                                                      value):
    # the value goes into every metadata field in turn
    base = tmp_path_factory.getbasetemp()
    if not (base / "rec.bin").exists():
        toy_record(base)
    (base / "fuzz.bin").write_bytes((base / "rec.bin").read_bytes())
    for name in _META_FIELDS:
        meta = json.loads((base / "rec.json").read_text())
        meta[name] = value
        (base / "fuzz.json").write_text(json.dumps(meta))
        try:
            types, coords, grid = dataio.load_record(base / "fuzz")
        except (SchemaError, DomainError) as exc:
            # a new atom count fails atom_coord's shape; a bad unit is named
            needles = {"atom_type": ("atom_type", "atom_coord"),
                       "units": ("unit",)}.get(name, (name,))
            assert any(n in str(exc) for n in needles)
        else:
            assert types.dtype == int and types.ndim == 1
            assert coords.dtype == float and coords.shape == (types.size, 3)
            assert all(type(n) is int and n >= 1 for n in grid.shape)
            for a in (coords, grid.cell, grid.origin):
                assert a.dtype == float and np.all(np.isfinite(a))
            assert type(grid.pbc) is bool
            if name in ("atom_coord", "cell", "origin"):
                # a string or a bool is not a coordinate, though numpy
                # converts both
                assert all(type(x) in (int, float) for x in _leaves(value))


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


@pytest.mark.parametrize("suffix", [".json", ".bin"])
def test_record_write_failure_keeps_previous(tmp_path, monkeypatch, suffix):
    stem, types, coords, grid = toy_record(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # the first write into the temp file of rec<suffix> stores half its
    # bytes and fails; fail_at 0 never fails
    monkeypatch.setattr(
        dataio, "open", lambda f, *a, **kw: DiskFullAt(
            open(f, *a, **kw), int(f".rec{suffix}." in os.fspath(f))),
        raising=False)
    with pytest.raises(DomainError, match=rf"rec\{suffix}'.*No space left"):
        dataio.save_record(stem, types, coords + 0.5, dataclasses.replace(
            grid, values=grid.values + 1.0))
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == sorted(before)  # no temp file left
    assert after["rec" + suffix] == before["rec" + suffix]
    if suffix == ".bin":  # the metadata is written second, so never reached
        assert after == before
        t2, c2, g2 = dataio.load_record(stem)
        assert np.array_equal(t2, types) and np.array_equal(c2, coords)
        assert np.array_equal(g2.values, grid.values.astype("<f4"))
    else:  # the new blob beside the old metadata is never loaded
        with pytest.raises(SchemaError, match=r"^\S*rec\.bin: blob does "
                           "not match the blob_crc32 of "):
            dataio.load_record(stem)


def test_save_record_checks_before_writing(tmp_path):
    stem, types, coords, grid = toy_record(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    inf_coords = coords.copy()
    inf_coords[1, 2] = np.inf
    cases = [
        ([0.5, 1.7, 2.0], coords, "atom_type holds a float"),
        ([1, -6, 8], coords, "atom_type must hold integers >= 0"),
        (types, inf_coords, "atom_coord must be finite"),
        (types, coords[:, :2], r"atom_coord must have shape \(\*, 3\)"),
        (types, coords[:2], "atom_coord has 2 rows for 3 atom_type"),
        # ragged: numpy cannot make an array of them
        ([[1], [6, 8], 8], coords, "atom_type is ragged"),
        (types, [[0.0, 0.0, 0.0], [1.0, 0.0], [0.0, 1.0, 0.0]],
         "atom_coord is ragged"),
        # a numpy scalar is a number: the row is what is wrong
        (types, [[np.float64(0.0), 0.0, 0.0], [1.0, 0.0], [0.0, 1.0, 0.0]],
         "atom_coord is ragged"),
    ]
    for bad_types, bad_coords, needle in cases:
        # neither an existing record nor a new stem gets a file
        for target in (stem, tmp_path / "new"):
            with pytest.raises(DomainError, match=f"^{needle}"):
                dataio.save_record(target, bad_types, bad_coords, grid)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert after == before


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_density_is_refused_at_save_and_at_load(tmp_path, bad):
    stem, types, coords, grid = toy_record(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    values = grid.values.copy()
    values[5] = bad
    with pytest.raises(DomainError, match="^values must be finite"):
        dataio.save_record(stem, types, coords,
                           dataclasses.replace(grid, values=values))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # the value in a blob whose blob_crc32 matches
    blob = np.ascontiguousarray(values, dtype="<f4").tobytes()
    meta = json.loads((tmp_path / "rec.json").read_text())
    meta["blob_crc32"] = zlib.crc32(blob)
    (tmp_path / "rec.bin").write_bytes(blob)
    (tmp_path / "rec.json").write_text(json.dumps(meta))
    with pytest.raises(SchemaError, match=r"^\S*/rec\.bin: density holds "
                       "non-finite values$"):
        dataio.load_record(stem)


@pytest.mark.parametrize("big", [1e39, -1e39])
def test_density_beyond_float32_is_refused_at_save(tmp_path, big):
    # the blob is float32: a finite float64 beyond its range would be
    # stored as inf under a matching blob_crc32
    grid = geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(3),
                              np.full(8, big))
    with pytest.raises(DomainError, match="^values must lie within "
                       "float32's range$"):
        dataio.save_record(tmp_path / "rec", [6], [[0.0, 0.0, 0.0]], grid)
    assert list(tmp_path.iterdir()) == []


def test_float32_max_density_round_trips(tmp_path):
    top = float(np.finfo("<f4").max)
    grid = geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(3),
                              np.array([top, -top, 0.0, 1.0] * 2))
    dataio.save_record(tmp_path / "rec", [6], [[0.0, 0.0, 0.0]], grid)
    _, _, loaded = dataio.load_record(tmp_path / "rec")
    assert np.array_equal(loaded.values, grid.values)


def test_blob_crc32_is_checked_when_present(tmp_path):
    stem, _, _, grid = toy_record(tmp_path)
    meta = json.loads((tmp_path / "rec.json").read_text())
    assert meta["blob_crc32"] == zlib.crc32((tmp_path / "rec.bin").read_bytes())
    (tmp_path / "rec.bin").write_bytes(
        np.ascontiguousarray(grid.values[::-1], dtype="<f4").tobytes())
    with pytest.raises(SchemaError, match=r"/rec\.bin: blob does not match"):
        dataio.load_record(stem)
    del meta["blob_crc32"]  # as records written before the key load
    (tmp_path / "rec.json").write_text(json.dumps(meta))
    _, _, loaded = dataio.load_record(stem)
    assert np.array_equal(loaded.values, grid.values[::-1].astype("<f4"))


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
    numbers, coords, g2 = read_cube(path)
    assert numbers.tolist() == [8]
    assert np.abs(coords[0] - np.array([0.0, 0.1, -0.2])).max() < 1e-6
    assert g2.shape == grid.shape
    assert np.abs(np.asarray(g2.cell) - np.asarray(grid.cell)).max() < 1e-5
    assert np.abs(g2.values - values).max() < 1e-5


def test_export_cube_checks_atoms(tmp_path):
    grid = geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(3), np.zeros(8))
    path = tmp_path / "a.cube"
    cases = [
        ([6.7], np.zeros((1, 3)), "atom_type must be 1-D non-negative"),
        ([-1], np.zeros((1, 3)), "atom_type must be 1-D non-negative"),
        ([6, 1], np.zeros((1, 3)), r"atom_coords must have shape \(2, 3\)"),
        ([6], np.full((1, 3), np.nan), "atom_coords must be finite"),
    ]
    for numbers, coords, needle in cases:
        with pytest.raises(DomainError, match=f"^{needle}"):
            dataio.export_cube(path, grid, numbers, coords)
    assert list(tmp_path.iterdir()) == []


def test_cube_rejects_malformed(tmp_path):
    path = tmp_path / "bad.cube"
    for raw in (b"only\ntwo lines\n", b"\xff not text\n"):
        path.write_bytes(raw)
        with pytest.raises(SchemaError, match="malformed"):
            read_cube(path)


def test_cube_rejects_angstrom_units_by_name(tmp_path):
    grid = geometry.VoxelGrid((2, 2, 2), np.eye(3), np.zeros(3), np.zeros(8))
    path = tmp_path / "a.cube"
    dataio.export_cube(path, grid, [1], np.zeros((1, 3)))
    lines = path.read_text().splitlines()
    lines[3] = "   -2" + lines[3][5:]  # a negative count means Angstrom
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as info:
        read_cube(path)
    assert str(info.value) == f"{path}: Angstrom-unit CUBE not supported"


def test_read_cube_types_a_missing_file(tmp_path):
    path = tmp_path / "missing.cube"
    with pytest.raises(SchemaError, match=f"^cannot read cube {str(path)!r}: "
                       "No such file"):
        read_cube(path)


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


def test_synthetic_dataset_takes_a_72_node_axis(tmp_path):
    # the generator's nodes form a box, so expand_density decodes them from
    # per-axis tables; the truth is expanded here on the chunked route
    # (``cache``) instead
    stem = dataio.make_synthetic_dataset(tmp_path, seed=4,
                                         shape=(72, 72, 8))[0]
    _, coords, grid = dataio.load_record(stem)
    assert grid.shape == (72, 72, 8)
    truth = json.loads(Path(stem + ".truth.json").read_text())
    spec = basis.RadialBasisSpec(np.array(truth["exponents"]),
                                 truth["l_max"])
    want = basis.expand_density(spec, np.array(truth["coeffs"]), coords,
                                geometry.grid_coordinates(grid), cache={})
    assert np.abs(grid.values - want).max() < 1e-5


def _catches_os_error(handler):
    """Whether an ``except`` clause names OSError or a builtin subclass."""
    kind = handler.type
    names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    caught = [getattr(builtins, n.id, None) for n in names
              if isinstance(n, ast.Name)]
    return any(isinstance(c, type) and issubclass(c, OSError)
               for c in caught)


def test_only_dataio_opens_files_or_catches_os_errors():
    # every named file goes through dataio's open_file, read_json or
    # replace_file; cli._make_out_dir names the setting, not a file
    found = set()
    for path in sorted(Path(dataio.__file__).parent.glob("*.py")):
        if path.stem == "dataio":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "open"):
                    found.add((path.stem, getattr(top, "name", None), "open"))
                if (isinstance(node, ast.ExceptHandler) and node.type
                        and _catches_os_error(node)):
                    found.add((path.stem, getattr(top, "name", None),
                               "except OSError"))
    assert found == {("cli", "_make_out_dir", "except OSError")}
