"""Fixed-input fingerprint of the whole model, against ``fingerprint.json``.

For channel mode at L = 7 and fc mode at L = 3, on one fixed molecule and
query set, with every radial head at full Glorot scale (a 0.01 head leaves
the conv coupling barely visible in the outputs): the predictions, the
loss, a summary of the gradient and of one Adam update, the loss after that
update, and every ``OpCounters`` total of a prediction and of a training
pass. Counts match exactly; floats match to 1e-12 of their scale, not
bitwise, since BLAS builds round differently.

A change that moves these numbers on purpose re-records the file in a
commit of its own, with a CHANGES line naming what moved:

    PYTHONPATH=src python tests/test_fingerprint.py
"""
import json
import pathlib

import numpy as np
import pytest

from infgcn import geometry, grad, layers, model

REFERENCE = pathlib.Path(__file__).with_name("fingerprint.json")
CONFIGS = {"channel": {"l_max": 7}, "fc": {"l_max": 3, "mode": "fc"}}
TOL = 1e-12
_TYPES = [0, 1, 2, 3, 4, 0]
_COORDS = [[0.0, 0.0, 0.0], [1.4, 0.2, -0.3], [-0.9, 1.1, 0.4],
           [0.3, -1.2, 1.0], [-0.6, -0.5, -1.3], [2.1, 1.3, 0.8]]
_PER_ARRAY = 4  # gradient and update entries sampled from each array


def _inputs(config):
    """The model at ``config`` with full-scale heads, and the fixed graph,
    queries and targets."""
    params = model.init_params(model.ModelConfig(**config), seed=0,
                               zero_heads=False)
    for layer in params.convs + [params.residual]:
        layer.radial.head_w *= 100.0  # init draws 0.01 of Glorot scale
    graph = geometry.MolecularGraph.from_coords(_TYPES, _COORDS, 3.0)
    rng = np.random.default_rng(2027)
    queries = rng.uniform(-2.5, 3.0, size=(40, 3))
    return params, graph, queries, rng.uniform(0.0, 0.5, size=40)


def _sample_index(registry):
    """``_PER_ARRAY`` fixed flat indices in each trainable array."""
    rng = np.random.default_rng(5)
    ends = registry.offsets[1:] + [registry.n_params]
    return np.concatenate([np.sort(rng.choice(np.arange(lo, hi), _PER_ARRAY,
                                              replace=False))
                           for lo, hi in zip(registry.offsets, ends)])


def _summary(x, index):
    return {"sum": float(x.sum()), "abs_sum": float(np.abs(x).sum()),
            "sumsq": float(x @ x), "max_abs": float(np.abs(x).max()),
            "sample": x[index].tolist()}


def fingerprint(config):
    params, graph, queries, target = _inputs(config)
    predict = layers.OpCounters()
    pred = model.predict_density(params, graph, queries, predict)
    train = layers.OpCounters()
    loss, g = grad.loss_and_grad(params, graph, queries, target,
                                 counters=train)
    registry = model.ParamRegistry(params)
    index = _sample_index(registry)
    before = params.flat.copy()
    state = grad.init_optimizer(registry, lr=1e-3)
    grad.optimize_step(state, params, g, registry)
    after = model.loss_l2(model.predict_density(params, graph, queries),
                          target)
    return {"pred": pred.tolist(), "loss": loss, "grad": _summary(g, index),
            "update": _summary(params.flat - before, index),
            "loss_after_step": after, "index": index.tolist(),
            "counts": {"predict": predict.counts, "train": train.counts}}


def _assert_close(got, want, scale, what):
    err = np.abs(np.asarray(got) - np.asarray(want)).max(initial=0.0)
    assert err <= TOL * scale, (what, err, scale)


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_outputs_match_the_recorded_fingerprint(mode):
    want = json.loads(REFERENCE.read_text())[mode]
    got = fingerprint(CONFIGS[mode])
    assert got["index"] == want["index"]
    assert got["counts"] == want["counts"]
    _assert_close(got["pred"], want["pred"],
                  np.abs(want["pred"]).max(), "pred")
    for key in ("loss", "loss_after_step"):
        _assert_close(got[key], want[key], abs(want[key]), key)
    for name in ("grad", "update"):
        g, w = got[name], want[name]
        for key in ("sum", "abs_sum"):
            _assert_close(g[key], w[key], w["abs_sum"], f"{name} {key}")
        for key in ("max_abs", "sample"):
            _assert_close(g[key], w[key], w["max_abs"], f"{name} {key}")
        _assert_close(g["sumsq"], w["sumsq"], w["sumsq"], f"{name} sumsq")


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(
        {mode: fingerprint(cfg) for mode, cfg in sorted(CONFIGS.items())},
        indent=1) + "\n")
