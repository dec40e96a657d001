"""Tracer checks: nested calls on two pool threads under one root call.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import time
import types
from concurrent.futures import ThreadPoolExecutor

from tracer import Tracer


def _fake_module():
    mod = types.ModuleType("fake")

    def inner(dt):
        time.sleep(dt)
        return dt

    def outer(dt):
        time.sleep(dt)
        return mod.inner(dt) + mod.inner(dt)

    def root(dt):
        # like cli.cmd_eval(jobs=2): the main thread waits on two workers
        with ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(mod.outer, [dt, dt]))

    mod.inner, mod.outer, mod.root = inner, outer, root
    return mod


def _trace(mod):
    tracer = Tracer([(f"fake.{n}", mod, n) for n in ("root", "outer",
                                                       "inner")])
    tracer.op = 0
    tracer.install()
    try:
        mod.root(0.02)
    finally:
        tracer.uninstall()
    return tracer


def test_self_time_is_per_thread():
    mod = _fake_module()
    tracer = _trace(mod)
    spans = tracer.spans_of(0)
    by_id = {s[0]: s for s in spans}
    assert sorted(s[1] for s in spans) == (["fake.inner"] * 4
                                           + ["fake.outer"] * 2
                                           + ["fake.root"])
    assert all(s[7] >= 0.0 for s in spans)
    root, = [s for s in spans if s[1] == "fake.root"]
    # workers' spans are roots on their own threads, not children of root
    outers = [s for s in spans if s[1] == "fake.outer"]
    assert all(s[4] is None for s in outers)
    assert len({s[6] for s in outers}) == 2
    assert all(s[6] != root[6] for s in outers)
    # the main thread only waited, so root's self time is its whole span
    assert root[7] == root[3] - root[2]
    for s in spans:
        if s[1] == "fake.inner":
            parent = by_id[s[4]]
            assert parent[1] == "fake.outer" and parent[6] == s[6]
    for o in outers:
        kids = [s for s in spans if s[4] == o[0]]
        assert len(kids) == 2
        assert abs(o[7] - (o[3] - o[2] - sum(k[3] - k[2] for k in kids))) \
            < 1e-9
        assert 0.015 < o[7] < 0.5
    self_time = tracer.self_time(0)
    wall = root[3] - root[2]
    assert self_time["fake.outer"] + self_time["fake.inner"] > 1.5 * wall
    assert tracer.root_time(0, root[6]) == wall


def test_counts_merge_over_threads():
    tracer = _trace(_fake_module())
    assert tracer.counts(0) == {"fake.root.calls": 1,
                                "fake.outer.calls": 2,
                                "fake.inner.calls": 4}


def test_uninstall_restores_functions():
    mod = _fake_module()
    originals = (mod.root, mod.outer, mod.inner)
    _trace(mod)
    assert (mod.root, mod.outer, mod.inner) == originals
