"""Reverse-mode gradients and desk-scale optimizers.

Every differentiable operation in the package carries a hand-written adjoint
(`layers.conv_backward`, `layers.gate_backward`, `layers.residual_backward`,
`basis.expand_density_backward`); this module chains them along the forward
trace into one gradient vector laid out like ``params.flat`` (the layout is
`model.ParamRegistry`, re-exported here): each backward writes its
parameter gradients straight into that vector, through a copy of the
parameters bound to it (`model.bind`). `optimize_step` updates
``params.flat`` in place through slice-sized scratch buffers and screens
the gradient with one ``g.sum()`` in place of a mask, so a step allocates
nothing parameter-sized. Adam's moments are kept unnormalized, m / (1 -
beta1) and v / (1 - beta2), the bias corrections folded into step size and
epsilon (arXiv 1412.6980, section 2): v overflows at a steady |g| of ~4e152,
not ~1.3e154. The gradient vector is not zero-filled (`loss_and_grad`).

There is no tape: the operation set is small and closed, so the chain is
written out explicitly in `loss_and_grad`. What the trace carries instead is
one cache per layer, filled by its forward (`model.forward_trace`) and read
by its backward, which requires it: no adjoint recomputes harmonics,
residual pairs, basis factors or a radial net's hidden layers (fc mode's
conv backward redoes only the radial head's GEMM, from the cached last
hidden layer). Each cache is dropped once its backward has run.

Each `loss_and_grad` call starts one worker thread and hands its
executor's ``submit`` to the layers; without it every job runs inline.
`model.forward_trace` submits the basis factors (`basis._fill_chunks`)
and the residual layer's query side (`layers._residual_pairs`) before
encoding the graph, and joins each where the inline pass runs it. Each
backward submits its radial net's backward (the residual layer's from
its last hidden layer on), which writes only that net's gradients.
`loss_and_grad` joins every job before returning and raises the first
job's error; a main-thread error is raised once they have all finished.
Jobs count straight into the caller's `OpCounters`, whose ``add`` is
atomic. `optimize_step` splits its slices with one worker. Each array is
written by one thread in a fixed order, so results do not depend on timing.
The first `loss_and_grad` in a process keeps glibc's heap mapped between
steps (`_keep_heap`), so a step does not fault in again what the last freed.
"""

import ctypes
import functools
import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import basis, geometry, layers, model, schema
from .errors import DomainError, NonFiniteError
from .model import ParamRegistry


@functools.cache
def _keep_heap():
    """Raise glibc's mmap and trim thresholds to 32 and 64 MiB, the ceilings
    of its dynamic ones, so the ~45 MB a QM9-sized step frees stays mapped;
    a no-op when the user tuned malloc or the C library has no mallopt."""
    if (any(k.startswith("MALLOC_") for k in os.environ)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def loss_and_grad(params, graph, queries, target, volume_weight=1.0,
                  counters=None):
    """Loss and exact gradients of loss_l2(predict_density) in one pass,
    the gradients as one vector laid out like ``params.flat``."""
    _keep_heap()
    cfg = params.config
    target = np.asarray(target, dtype=float)
    # allocated before the forward trace: allocated after it, train-a1 and
    # train-qm9 peak RSS read ~12 MB higher, from heap layout alone
    flat_grad = np.empty(params.flat.size)
    grads = model.bind(params, flat_grad)
    grads.embed[...] = 0.0  # np.add.at's target; backwards write the rest
    jobs = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        def submit(fn, *args):
            jobs.append(pool.submit(fn, *args))
            return jobs[-1]

        dens, trace = model.forward_trace(params, graph, queries, counters,
                                          submit=submit)
        loss = model.loss_l2(dens, target, volume_weight)

        w = np.asarray(volume_weight, dtype=float)
        grad_dens = 2.0 * w * (dens - target)

        g = basis.expand_density_backward(
            trace["spec"], grad_dens, graph.atom_coord, trace["queries"],
            cache=trace.pop("basis_cache"))
        if params.residual is not None:
            g += layers.residual_backward(
                trace["queries"], graph.atom_coord, trace["coeffs"],
                params.residual, grad_dens, grads.residual,
                cache=trace.pop("residual_cache"), submit=submit)

        conv_caches = trace.pop("conv_caches")
        for i in reversed(range(cfg.n_layers)):
            g = layers.gate_backward(trace["pre_gate"][i], g, cfg.act0,
                                     cfg.act_l)
            g = layers.conv_backward(
                graph, trace["pre_conv"][i], params.convs[i], g,
                grads.convs[i], cache=conv_caches.pop(), submit=submit)

        np.add.at(grads.embed, graph.atom_type, g[:, :, 0])
    for job in jobs:  # all have finished; the first error is raised
        job.result()
    return loss, flat_grad


def check_gradient(params, graph, queries, target, n_sampled=200, h=1e-5,
                   seed=0, volume_weight=1.0, names=None):
    """Compare analytic gradients against central finite differences.

    Samples flat parameter indices without replacement (restricted to the
    arrays listed in `names` when given), perturbs each by
    ``h * max(1, |theta|)``, and reports the max and median relative error.
    Entries where both slopes sit below the loss-scaled noise floor are
    counted as agreeing; central differences cannot resolve them.
    """
    registry = ParamRegistry(params)
    loss0, flat_g = loss_and_grad(params, graph, queries, target,
                                  volume_weight)

    index = registry.views(np.arange(registry.n_params))
    keep = [index[name].ravel() for name in registry.names
            if names is None or name in names]
    if not keep:
        raise DomainError("no registry arrays match the given names")
    pool = np.concatenate(keep)
    rng = np.random.default_rng(seed)
    k = min(int(n_sampled), pool.size)
    idx = rng.choice(pool, size=k, replace=False)

    floor = 1e-6 * max(1.0, abs(loss0))
    errs = np.zeros(k)
    worst = None

    def loss_at(i, value):
        params.flat[i] = value
        d = model.predict_density(params, graph, queries)
        return model.loss_l2(d, target, volume_weight)

    for j, i in enumerate(idx):
        theta = params.flat[i]
        step = h * max(1.0, abs(theta))
        try:
            lp = loss_at(i, theta + step)
            lm = loss_at(i, theta - step)
        finally:
            params.flat[i] = theta
        fd = (lp - lm) / (2.0 * step)
        an = flat_g[i]
        scale = max(abs(fd), abs(an))
        errs[j] = abs(fd - an) / scale if scale > floor else 0.0
        if worst is None or errs[j] > worst[0]:
            worst = (errs[j], *registry.slot_of(int(i)), fd, an)

    report = {
        "n_sampled": k,
        "max_rel_error": float(errs.max()) if k else 0.0,
        "median_rel_error": float(np.median(errs)) if k else 0.0,
        "loss": loss0,
        "h": h,
    }
    if worst is not None:
        report["worst"] = {"error": worst[0], "name": worst[1],
                           "offset": int(worst[2]), "fd": worst[3],
                           "analytic": worst[4]}
    report["pass"] = report["max_rel_error"] < 1e-4
    return report


# ---------------------------------------------------------------------------
# optimizers

_METHODS = ("gradient-descent", "adaptive-moments")
_SLICE = 65536  # entries per slice of an optimizer update


@dataclass
class OptimizerConfig:
    """The optimizer block of a run config: `init_optimizer`'s keywords."""
    method: str = schema.spec("adaptive-moments", choices=_METHODS)
    lr: float = schema.spec(1e-3, low=0)
    patience: int = schema.spec(10, low=0)
    decay_factor: float = schema.spec(0.5, low=0, high=1)


@dataclass
class OptimizerState(OptimizerConfig):
    m: np.ndarray = None  # unnormalized moments (above), like params.flat
    v: np.ndarray = None
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    best_val: float = field(default=math.inf)
    stale: int = 0


def _mapped_zeros(n):
    """``n`` float zeros in a private anonymous mapping of their own, which
    is unmapped when the array goes. Kept in malloc's heap, parameter-sized
    state (17 MB at the default size) leaves a hole when freed that small
    allocations split, and train-a1's peak RSS read 146 or 161 MiB by heap
    layout alone. It asks for huge pages as numpy does for its own large
    arrays: a shared mapping, on 4 KiB pages, made the first optimizer
    step on it ~25 ms slower."""
    buf = mmap.mmap(-1, max(n, 1) * 8,
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, count=n)


def init_optimizer(registry, **options):
    """Fresh state for ``registry``; ``options`` are `OptimizerConfig`'s."""
    cfg = schema.from_dict(OptimizerConfig, options, DomainError, "optimizer")
    n = registry.n_params
    return OptimizerState(**asdict(cfg), m=_mapped_zeros(n),
                          v=_mapped_zeros(n))


def optimize_step(state, params, grads, registry):
    """One optimizer update of ``params.flat``, in place, from the gradient
    vector ``loss_and_grad`` returns.

    The whole gradient is checked before any entry is written, so a
    non-finite gradient raises, naming the first array it reaches, with
    parameters and state untouched."""
    g = geometry.check_array("gradient", grads, (registry.n_params,))
    # a state made for another registry fits no gradient
    geometry.check_array("gradient", g, state.m.shape)
    # a finite sum proves every entry finite; the scan, which names the
    # first bad array, runs only when it is not (finite entries can overflow)
    with np.errstate(over="ignore", invalid="ignore"):
        total = g.sum()
    if not math.isfinite(total) and not np.all(np.isfinite(g)):
        name, _ = registry.slot_of(int(np.isfinite(g).argmin()))
        raise NonFiniteError(f"non-finite gradient for {name}")
    state.step += 1
    # slices [0, mid) here and [mid, n) on a worker: the update is
    # elementwise, so the split changes no bit. A gradient of one slice
    # has no upper half and starts no worker
    n_slices = -(-g.size // _SLICE)
    mid = min(g.size, (n_slices + 1) // 2 * _SLICE)
    if mid == g.size:
        _update(state, params, g, 0, mid)
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        upper = pool.submit(_update, state, params, g, mid, g.size)
        _update(state, params, g, 0, mid)
    upper.result()


def _update(state, params, g, start, stop):
    """`optimize_step`'s update of entries [start, stop), one ``_SLICE``
    at a time through a scratch buffer of its own."""
    s = math.sqrt((1.0 - state.beta2) / (1.0 - state.beta2 ** state.step))
    A = state.lr * (1.0 - state.beta1) / (1.0 - state.beta1 ** state.step) / s
    E = state.eps / s
    scratch = np.empty(min(_SLICE, stop - start))
    for lo in range(start, stop, _SLICE):
        sl = slice(lo, min(lo + _SLICE, stop))
        gs, tmp = g[sl], scratch[:sl.stop - lo]
        if state.method == "gradient-descent":
            np.multiply(state.lr, gs, out=tmp)
        else:
            # m = b1 m + g;  v = b2 v + g g;  A m / (sqrt(v) + E), in order
            m, v = state.m[sl], state.v[sl]
            m *= state.beta1
            m += gs
            np.multiply(gs, gs, out=tmp)
            v *= state.beta2
            v += tmp
            np.sqrt(v, out=tmp)
            tmp += E
            np.divide(m, tmp, out=tmp)
            tmp *= A
        params.flat[sl] -= tmp


def plateau_update(state, val_loss):
    """Record one validation result; halve the step size on a plateau.

    Returns True when the step size was just reduced.
    """
    val_loss = float(val_loss)
    if not math.isfinite(val_loss):
        raise NonFiniteError("non-finite validation loss")
    if val_loss < state.best_val:
        state.best_val = val_loss
        state.stale = 0
        return False
    state.stale += 1
    if state.stale >= state.patience:
        state.lr *= state.decay_factor
        state.stale = 0
        return True
    return False
