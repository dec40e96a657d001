"""tools/bench_pairs.py's summary and JSON writer, on canned result
objects: no perfbench run and no subprocess."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_ENV = {"nproc": 2, "blas": "scipy-openblas 0.3.31", "blas_pin": 1}


def _result(step, rss, minflt=1000, sys_s=0.5, failed=0, nvcsw=50):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "environment": _ENV,
            "rusage": {"minflt": minflt, "nvcsw": nvcsw, "sys_s": sys_s},
            "metrics": {"step_nominal_s.p50": {"value": step, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MiB"}}}


# (order, base, head): order 0 ran BASE first; HEAD's step is lower in
# pairs 0, 1 and 3, its RSS in none (pair 2 is a tie); HEAD's run of pair
# 2 failed 3 of its 100 ops
_PAIRS = [(0, _result(0.10, 80.0, 9000, 1.0, nvcsw=2000),
           _result(0.09, 81.0, 300, nvcsw=10)),
          (1, _result(0.12, 80.0, 8000, 2.0, nvcsw=1800),
           _result(0.11, 82.0, 200, nvcsw=30)),
          (0, _result(0.11, 80.0, 7000, 3.0, nvcsw=2200),
           _result(0.13, 80.0, 100, failed=3, nvcsw=20)),
          (1, _result(0.13, 79.0, 6000, 4.0, nvcsw=1900),
           _result(0.10, 80.0, 400, nvcsw=0))]


def test_metrics_give_medians_quartiles_and_lower_counts():
    m = bench_pairs.metrics(_PAIRS)
    step = m["step_nominal_s.p50"]
    assert step["unit"] == "s"
    assert step["base_median"] == pytest.approx(0.115)
    assert step["head_median"] == pytest.approx(0.105)
    assert step["change"] == pytest.approx(0.105 / 0.115 - 1)
    q1, q3 = step["base_quartiles"]
    assert q1 < step["base_median"] < q3
    assert (step["lower"], step["pairs"]) == (3, 4)
    assert step["lower_by_order"] == {"base_first": [1, 2],
                                      "head_first": [2, 2]}
    rss = m["peak_rss_mb"]
    assert (rss["lower"], rss["lower_by_order"]["base_first"]) == (0, [0, 2])


def test_summary_prints_one_line_per_metric():
    lines = bench_pairs.summary(_PAIRS)
    assert len(lines) == 2
    assert lines[1].startswith("step_nominal_s.p50: base 0.115")
    assert "lower in 3/4 (base first 1/2, head first 2/2)" in lines[1]
    zero = [(0, _result(0.1, 0.0), _result(0.1, 0.0))]
    assert "n/a" in bench_pairs.summary(zero)[0]


def test_json_writer_merges_workloads_of_one_comparison(tmp_path):
    path = tmp_path / "BENCH.json"
    control = {"before": {"serial_s": 2.0, "parallel_s": 1.1,
                          "ratio": 2.0 / 1.1}}
    for workload in ("train-a1", "eval-grid"):
        bench_pairs.write_json(path, "abc", "def", workload,
                               [7001, 7002, 7003, 7004], _PAIRS, control)
    doc = json.loads(path.read_text())
    assert (doc["base"], doc["head"]) == ("abc", "def")
    assert set(doc["workloads"]) == set(doc["control"]) == {"train-a1",
                                                             "eval-grid"}
    got = doc["workloads"]["eval-grid"]
    assert got["seeds"] == [7001, 7002, 7003, 7004]
    assert got["environment"] == _ENV
    assert got["metrics"] == json.loads(json.dumps(
        bench_pairs.metrics(_PAIRS)))
    assert [r["seed"] for r in got["runs"]["head"]] == got["seeds"]
    assert got["runs"]["base"][1] == {
        "seed": 7002, "correct": True, "attempted": 100, "failed": 0,
        "minflt": 8000, "nvcsw": 1800, "sys_s": 2.0}
    assert [(r["correct"], r["failed"]) for r in got["runs"]["head"]] == [
        (True, 0), (True, 0), (False, 3), (True, 0)]
    assert got["rusage"] == {
        "base": {"minflt": 7500, "nvcsw": 1950, "sys_s": 2.5},
        "head": {"minflt": 250, "nvcsw": 15, "sys_s": 0.5}}
    with pytest.raises(SystemExit, match="compares abc with def"):
        bench_pairs.write_json(path, "abc", "xyz", "train-qm9", [1],
                               _PAIRS, control)
