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
# the two-core control read before each pair: pairs 0 and 2 had two cores
_CONTROLS = [1.8, 1.2, 1.6, 0.9]


def test_metrics_give_medians_quartiles_and_lower_counts():
    m = bench_pairs.metrics(_PAIRS, _CONTROLS)
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


def test_metrics_split_the_pairs_by_their_control():
    m = bench_pairs.metrics(_PAIRS, _CONTROLS)
    two, one = (m["step_nominal_s.p50"]["by_control"][k]
                for k in ("two_core", "one_core"))
    assert (two["lower"], two["pairs"]) == (1, 2)
    assert two["median_change"] == pytest.approx(
        (0.09 / 0.10 + 0.13 / 0.11) / 2 - 1)
    assert (one["lower"], one["pairs"]) == (2, 2)
    assert one["median_change"] == pytest.approx(
        (0.11 / 0.12 + 0.10 / 0.13) / 2 - 1)
    rss = m["peak_rss_mb"]["by_control"]["one_core"]
    assert (rss["lower"], rss["pairs"]) == (0, 2)
    assert rss["median_change"] == pytest.approx((82 / 80 + 80 / 79) / 2 - 1)
    # no pair had two cores: the split is empty, its change null
    empty = bench_pairs.metrics(_PAIRS, [1.0] * 4)["peak_rss_mb"]
    assert empty["by_control"]["two_core"] == {
        "lower": 0, "pairs": 0, "median_change": None}
    assert empty["by_control"]["one_core"]["pairs"] == 4


def test_summary_prints_one_line_per_metric():
    lines = bench_pairs.summary(_PAIRS, _CONTROLS)
    assert len(lines) == 2
    assert lines[1].startswith("step_nominal_s.p50: base 0.115")
    assert "lower in 3/4 (base first 1/2, head first 2/2)" in lines[1]
    assert ("control >=1.6: lower in 1/2, median paired +4.1%; "
            "control <1.6: lower in 2/2, median paired -15.7%") in lines[1]
    zero = [(0, _result(0.1, 0.0), _result(0.1, 0.0))]
    line = bench_pairs.summary(zero, [2.0])[0]
    assert line.count("n/a") == 3
    assert "control <1.6: lower in 0/0" in line


def test_json_writer_merges_workloads_of_one_comparison(tmp_path):
    path = tmp_path / "BENCH.json"
    control = {"before": {"serial_s": 2.0, "parallel_s": 1.1,
                          "ratio": 2.0 / 1.1}}
    for workload in ("train-a1", "eval-grid"):
        bench_pairs.write_json(path, "abc", "def", workload,
                               [7001, 7002, 7003, 7004], _PAIRS, control,
                               _CONTROLS)
    doc = json.loads(path.read_text())
    assert (doc["base"], doc["head"]) == ("abc", "def")
    assert set(doc["workloads"]) == set(doc["control"]) == {"train-a1",
                                                             "eval-grid"}
    got = doc["workloads"]["eval-grid"]
    assert got["seeds"] == [7001, 7002, 7003, 7004]
    assert got["environment"] == _ENV
    assert got["pair_controls"] == _CONTROLS
    assert doc["control"]["eval-grid"] == control
    assert got["metrics"] == json.loads(json.dumps(
        bench_pairs.metrics(_PAIRS, _CONTROLS)))
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
                               _PAIRS, control, _CONTROLS)
