"""The package's public functions the benchmark wraps, and the counts it
takes at their boundaries.

Multiply counts come from the package's own ``layers.OpCounters`` through
the public ``counters=`` argument: every call of a function that takes one
gets a fresh counter, which is merged into the caller's counter when the
caller passed one and into the per-op totals otherwise. Fresh counters per
call keep the totals exact when ``cli.cmd_eval`` runs records on two
threads.
"""

import inspect
import math

import numpy as np

from infgcn import basis, cli, dataio, geometry, grad, layers, model, so3

FUNCTIONS = (
    (so3, ("cg_table", "eval_real_sh")),
    (layers, ("conv_forward", "conv_backward", "gate_forward",
              "gate_backward", "radial_forward", "radial_backward",
              "residual_forward", "residual_backward")),
    (basis, ("expand_density", "expand_density_backward")),
    (geometry, ("build_radius_graph", "sample_queries", "partition_grid")),
    (grad, ("loss_and_grad", "optimize_step")),
    (model, ("forward_trace", "predict_density", "save_checkpoint",
             "load_checkpoint")),
    (dataio, ("load_record",)),
    (cli, ("cmd_eval",)),
)

MULT_STAGES = ("radial", "assembly", "mixing", "matvec", "residual")
CONV_STAGES = ("assembly", "mixing", "matvec")


def label(module, attr):
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


TARGETS = tuple((label(m, a), m, a) for m, attrs in FUNCTIONS for a in attrs)
LABELS = tuple(t[0] for t in TARGETS)


class _Bound:
    """Hook base that reads the call's arguments by name."""

    def __init__(self, tracer, fn):
        self.tracer = tracer
        self.sig = inspect.signature(fn)

    def arguments(self, args, kwargs):
        return self.sig.bind(*args, **kwargs).arguments


class _Counted(_Bound):
    """Run the call with a fresh OpCounters and pass its counts on."""

    def before(self, args, kwargs):
        bound = self.sig.bind(*args, **kwargs)
        caller = bound.arguments.get("counters")
        local = layers.OpCounters()
        bound.arguments["counters"] = local
        return bound.args, bound.kwargs, (caller, local)

    def after(self, args, kwargs, result, state):
        caller, local = state
        if caller is not None:
            for key, n in local.counts.items():
                caller.add(key, n)
        else:
            for key, n in local.counts.items():
                self.tracer.add("layers.mults." + key, n)


class _ConvLaw(_Counted):
    """A8's multiply law, checked exactly on every call: the matvec stage
    costs |E| * C * (L+1)^4 multiplies in channel mode."""

    def after(self, args, kwargs, result, state):
        a = self.arguments(args, kwargs)
        graph, params = a["graph"], a["params"]
        cc = params.channels if params.mode == "channel" else \
            params.channels ** 2
        want = graph.n_edges * cc * (params.l_max + 1) ** 4
        self.tracer.add("layers.conv_forward.law_checks", 1)
        if state[1].counts.get("matvec", 0) != want:
            self.tracer.add("layers.conv_forward.law_failures", 1)
        super().after(args, kwargs, result, state)


class _BasisEvals(_Bound):
    """Q * U * n * S basis values evaluated, from the argument shapes."""

    def __init__(self, tracer, fn, key):
        super().__init__(tracer, fn)
        self.key = key

    def after(self, args, kwargs, result, state):
        a = self.arguments(args, kwargs)
        q = np.atleast_2d(a["queries"]).shape[0]
        u = np.atleast_2d(a["centers"]).shape[0]
        spec = a["spec"]
        self.tracer.add(self.key, q * u * spec.n_radial * spec.n_sh)


class _Edges:
    def __init__(self, tracer):
        self.tracer = tracer

    def after(self, args, kwargs, result, state):
        self.tracer.add("geometry.build_radius_graph.edges", len(result[0]))


class _CGKeys:
    """Distinct argument lists per op; the package passes (l, k, J)
    positionally, so these are the distinct tables asked for."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.keys = {}

    def after(self, args, kwargs, result, state):
        key = args + tuple(sorted(kwargs.items()))
        op = self.tracer.op
        with self.tracer._lock:
            self.keys.setdefault(op, set()).add(key)


class Checksum(_Bound):
    """Order-free checksum of every predicted density: the exactly rounded
    sums of the predictions and of the predictions weighted by a fixed
    function of the query point."""

    def __init__(self, tracer, fn):
        super().__init__(tracer, fn)
        self.parts = {}

    def after(self, args, kwargs, result, state):
        pts = np.asarray(self.arguments(args, kwargs)["queries"], dtype=float)
        pred = np.asarray(result, dtype=float)
        w = np.sin(pts @ np.array([0.7, 1.3, 2.1]))
        with self.tracer._lock:
            plain, weighted = self.parts.setdefault(self.tracer.op, ([], []))
            plain.extend(pred.tolist())
            weighted.extend((pred * w).tolist())

    def value(self, op):
        plain, weighted = self.parts.get(op, ([], []))
        return [math.fsum(plain), math.fsum(weighted)]


def make_hooks(tracer):
    """Install the counting hooks on ``tracer``; returns the CG-key and
    checksum hooks, which hold per-op results."""
    cg = _CGKeys(tracer)
    checksum = Checksum(tracer, model.predict_density)
    tracer.hooks = {
        "layers.conv_forward": _ConvLaw(tracer, layers.conv_forward),
        "layers.radial_forward": _Counted(tracer, layers.radial_forward),
        "layers.residual_forward": _Counted(tracer, layers.residual_forward),
        "basis.expand_density": _BasisEvals(
            tracer, basis.expand_density, "basis.expand_density.evals"),
        "basis.expand_density_backward": _BasisEvals(
            tracer, basis.expand_density_backward,
            "basis.expand_density_backward.evals"),
        "geometry.build_radius_graph": _Edges(tracer),
        "so3.cg_table": cg,
        "model.predict_density": checksum,
    }
    return cg, checksum
