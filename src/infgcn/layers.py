"""Equivariant network layers: radial nets, tensor-product convolution,
norm-gated nonlinearity, and the scalar residual layer.

Features live on graph nodes as one array of shape (n_nodes, channels,
(l_max+1)^2), the layout of ``basis.expand_density``'s coefficients: degree l
occupies ``[..., so3.block_slice(l)]``, orders m = -l..l. The convolution
couples degree k features into degree l messages through every admissible
filter degree J with |l - k| <= J <= l + k; the kernel for one edge is

    W^{lk}(r) = sum_J phi_J^{lk}(|r|) sum_M Y_J^M(rhat) Q_{JM}^{lk}

with Q the real Clebsch-Gordan blocks from so3. Radial nets see only |r|,
so the angular structure is carried entirely by the harmonics and the
coupling coefficients; that is what makes the layer equivariant.

The convolution runs from a ``ConvPlan``, built once per l_max from the CG
tables and memoized: it groups the paths by (l, k), the J of one pair being
contiguous in the radial output. For each pair it runs three stages, metered
by multiply count: ``assembly`` builds the channel-free
G_J = sum_M Y_J^M Q_JM of every path of the pair, one GEMM per path written
in place; ``mixing`` combines them with the pair's radial scalars in one
batched matmul; ``matvec`` applies the kernel to the gathered neighbor
features in one einsum. The matvec stage costs exactly
|E| * C * (L+1)^4 multiplies, the compressed-vector budget.

Every forward with an adjoint takes an optional ``cache`` dict and fills it
with what its backward needs; the backward reads the same dict, and fills
it itself when called without one. The radial net keeps its activations,
the convolution its distances, harmonics up to 2L, per-path radial scalars
and the edges' order by destination, and the residual layer its query-atom
pairs, their harmonics, radial scalars and the features'
projection ``s`` on the harmonics. The convolution still rebuilds G in the
backward pass: kept, it would hold ~21 MB per layer at 76 edges, while
rebuilding costs ~4 ms. Scatters onto nodes are sums over sorted runs of
one index, not unbuffered scatter-adds: conv edges are sorted by source,
and their gradients permuted into destination order, each run summed by
one ``np.add.reduceat``; residual pairs are sorted by atom, and ``s`` and
an atom's feature gradient are one GEMM per degree over its run. The
residual output sums pairs per query with ``np.bincount``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .errors import DomainError

__all__ = [
    "OpCounters",
    "RadialNetParams",
    "ConvLayerParams",
    "ConvPlan",
    "ResidualParams",
    "make_paths",
    "init_radial_net",
    "init_conv_layer",
    "init_residual_layer",
    "conv_plan",
    "radial_forward",
    "radial_backward",
    "conv_forward",
    "conv_backward",
    "gate_forward",
    "gate_backward",
    "residual_forward",
    "residual_backward",
    "silu",
]

CONV_MODES = ("channel", "fc")
ACTIVATIONS = ("silu", "identity")

_EPS_NORM = 1e-12  # inside the gate's sqrt, keeps the derivative finite at 0
_EPS_EDGE = 1e-12  # shorter displacements have no usable direction


def make_paths(l_max):
    """All coupling paths (l, k, J), lexicographically ordered."""
    out = []
    for l in range(l_max + 1):
        for k in range(l_max + 1):
            for J in range(abs(l - k), l + k + 1):
                out.append((l, k, J))
    return tuple(out)


@dataclass
class OpCounters:
    """Multiply counters keyed by stage name."""

    counts: dict = field(default_factory=dict)

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + int(n)


def _sigmoid(x):
    # exp(-|x|) never overflows; the numerator picks 1 or exp(x) by sign
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def silu(x):
    x = np.asarray(x, dtype=float)
    return x * _sigmoid(x)


def _act(name):
    if name == "silu":
        return silu
    if name == "identity":
        return lambda x: x
    raise DomainError(f"unknown activation {name!r}")


def _act_grad(name):
    if name == "silu":
        def g(x):
            s = _sigmoid(x)
            return s * (1.0 + x * (1.0 - s))
        return g
    if name == "identity":
        return lambda x: np.ones_like(x)
    raise DomainError(f"unknown activation {name!r}")


# ---------------------------------------------------------------------------
# radial nets


@dataclass
class RadialNetParams:
    centers: np.ndarray  # (64,), fixed
    width: float         # fixed
    cutoff: float
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray

    @property
    def out_dim(self):
        return self.head_b.size

    def slots(self, prefix):
        """(name, owner, attribute) of each array but the fixed embedding."""
        return [(f"{prefix}.{a}", self, a)
                for a in ("w1", "b1", "w2", "b2", "head_w", "head_b")]


def _glorot(rng, shape):
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


def init_radial_net(rng, cutoff, out_dim, n_embed=64, hidden=128,
                    zero_head=True):
    centers = np.linspace(0.0, cutoff, n_embed)
    width = centers[1] - centers[0]
    head_w = (np.zeros((hidden, out_dim)) if zero_head
              else 0.01 * _glorot(rng, (hidden, out_dim)))
    return RadialNetParams(
        centers=centers, width=float(width), cutoff=float(cutoff),
        w1=_glorot(rng, (n_embed, hidden)), b1=np.zeros(hidden),
        w2=_glorot(rng, (hidden, hidden)), b2=np.zeros(hidden),
        head_w=head_w, head_b=np.zeros(out_dim))


def _embed(params, r):
    return np.exp(-0.5 * ((r[:, None] - params.centers) / params.width) ** 2)


def radial_forward(params, r, counters=None, cache=None):
    """Per-path scalars phi(r) for a batch of distances, shape (E, out_dim).

    A ``cache`` dict receives the activations ``e``, ``a1``, ``h1``, ``a2``
    and ``h2`` that ``radial_backward`` reads.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r > params.cutoff + 1e-9):
        raise DomainError("distance outside [0, cutoff]")
    # rebinding a and h frees each layer's arrays once the next exists, so
    # an uncached call holds no more memory than the layers need
    h = _embed(params, r)
    if cache is not None:
        cache["e"] = h
    for i, (w, b) in enumerate([(params.w1, params.b1),
                                (params.w2, params.b2)], 1):
        a = h @ w + b
        h = silu(a)
        if cache is not None:
            cache[f"a{i}"], cache[f"h{i}"] = a, h
    out = h @ params.head_w + params.head_b
    if counters is not None:
        counters.add("radial", r.size * (params.w1.size + params.w2.size
                                         + params.head_w.size))
    return out


def radial_backward(params, r, grad_out, cache=None):
    """Gradients of sum(grad_out * phi) with respect to trainable arrays,
    from the activations ``radial_forward`` left in ``cache`` (recomputed
    when none is given)."""
    if cache is None:
        cache = {}
        radial_forward(params, r, cache=cache)
    e, a1, h1, a2, h2 = (cache[k] for k in ("e", "a1", "h1", "a2", "h2"))
    g_head_w = h2.T @ grad_out
    g_head_b = grad_out.sum(axis=0)
    g_h2 = grad_out @ params.head_w.T
    g_a2 = g_h2 * _act_grad("silu")(a2)
    g_w2 = h1.T @ g_a2
    g_b2 = g_a2.sum(axis=0)
    g_h1 = g_a2 @ params.w2.T
    g_a1 = g_h1 * _act_grad("silu")(a1)
    g_w1 = e.T @ g_a1
    g_b1 = g_a1.sum(axis=0)
    return {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2,
            "head_w": g_head_w, "head_b": g_head_b}


# ---------------------------------------------------------------------------
# tensor-product convolution


@dataclass
class ConvLayerParams:
    l_max: int
    channels: int
    cutoff: float
    mode: str  # "channel" or "fc"
    paths: tuple
    radial: RadialNetParams
    self_w: np.ndarray  # (l_max+1, channels)

    def slots(self, prefix):
        return (self.radial.slots(prefix + ".radial")
                + [(prefix + ".self_w", self, "self_w")])


def init_conv_layer(rng, l_max, channels, cutoff, mode="channel",
                    zero_head=True):
    if mode not in CONV_MODES:
        raise DomainError(f"unknown conv mode {mode!r}")
    paths = make_paths(l_max)
    per_path = channels if mode == "channel" else channels * channels
    radial = init_radial_net(rng, cutoff, len(paths) * per_path,
                             zero_head=zero_head)
    return ConvLayerParams(
        l_max=l_max, channels=channels, cutoff=float(cutoff), mode=mode,
        paths=paths, radial=radial,
        self_w=np.ones((l_max + 1, channels)))


def _check_shape(name, a, shape):
    """``a`` as a float array of ``shape``; DomainError naming ``name``
    otherwise. A ``None`` entry matches any length, and the last axis of a
    3-D feature array must hold whole degrees, (l_max+1)^2 entries."""
    a = np.asarray(a, dtype=float)
    ok = a.ndim == len(shape) and all(
        want is None or want == got for want, got in zip(shape, a.shape))
    if ok and a.ndim == 3:
        ok = a.shape[2] > 0 and math.isqrt(a.shape[2]) ** 2 == a.shape[2]
    if not ok:
        dims = ["*" if w is None else str(w) for w in shape]
        if len(shape) == 3 and shape[2] is None:
            dims[2] = "(l_max+1)^2"
        raise DomainError(f"{name} must have shape ({', '.join(dims)}), "
                          f"got {a.shape}")
    return a


def _feature_shape(n, params):
    return (n, params.channels, so3.num_sh(params.l_max))


def _degree_sums(x):
    """Sums over the orders of each degree: (..., (L+1)^2) -> (..., L+1)."""
    starts = [l * l for l in range(math.isqrt(x.shape[-1]))]
    return np.add.reduceat(x, starts, axis=-1)


def _per_order(x):
    """Per-degree values repeated over their orders: (..., L+1) ->
    (..., (L+1)^2)."""
    return np.repeat(x, 2 * np.arange(x.shape[-1]) + 1, axis=-1)


def _gather_degrees(x, idx):
    """Rows ``idx`` of a feature array, one contiguous copy per degree
    (``np.take`` gathers a strided degree view about twice as fast as
    ``x[idx, :, sl]``)."""
    return [np.take(x[:, :, so3.block_slice(l)], idx, axis=0)
            for l in range(math.isqrt(x.shape[-1]))]


def _segments(idx):
    """Runs of equal values in a sorted index array: (values, run starts)."""
    starts = np.flatnonzero(np.diff(idx, prepend=-1))
    return idx[starts], starts


def _segment_add(out, segments, x):
    """``out[idx[i]] += x[i]`` for a sorted ``idx`` given by its
    ``_segments``; each run is summed with one ``np.add.reduceat``."""
    rows, starts = segments
    out[rows] += np.add.reduceat(x, starts, axis=0)


def _edge_geometry(graph):
    vec = graph.edge_vec
    r = np.sqrt(np.einsum("ex,ex->e", vec, vec))
    if np.any(r < _EPS_EDGE):
        raise DomainError("coincident atoms produce directionless edges")
    return r, vec / r[:, None]


def _phi_per_path(params, r, counters=None, cache=None):
    phi = radial_forward(params.radial, r, counters, cache)
    n_edge = r.shape[0]
    if params.mode == "channel":
        return phi.reshape(n_edge, len(params.paths), params.channels)
    return phi.reshape(n_edge, len(params.paths),
                       params.channels, params.channels)


@dataclass(frozen=True)
class ConvPlan:
    """Coupling tables of every path up to one ``l_max``, grouped by (l, k).

    ``pairs`` lists ``(l, k, p0, p1, tables)`` in path order: the paths of
    one (l, k) pair are ``phi[:, p0:p1]``, in ascending J, and ``tables``
    holds each one's ``(2J+1, (2l+1)(2k+1))`` matricized CG table. Tables
    are read-only, so one plan is shared by every caller and thread.
    ``assembly`` and ``mixing`` are the per-edge sizes of those stages.
    """
    l_max: int
    pairs: tuple = field(repr=False)
    assembly: int
    mixing: int


_PLANS: dict = {}


def conv_plan(l_max):
    """The coupling plan for ``l_max``, built on first use and memoized.

    Threads that build the same plan at once get equal plans and the memo
    keeps the last, so the hot path takes no lock.
    """
    plan = _PLANS.get(l_max)
    if plan is None:
        plan = _PLANS[l_max] = _build_plan(l_max)
    return plan


def _build_plan(l_max):
    pairs, p0 = [], 0
    for (l, k), paths in itertools.groupby(make_paths(l_max),
                                           key=lambda p: p[:2]):
        tables = tuple(so3.cg_table(l, k, J).matrix() for _, _, J in paths)
        pairs.append((l, k, p0, p0 + len(tables), tables))
        p0 += len(tables)
    return ConvPlan(
        l_max=l_max, pairs=tuple(pairs),
        assembly=sum(q.size for *_, ts in pairs for q in ts),
        mixing=sum(q.shape[1] for *_, ts in pairs for q in ts))


def _coupling_blocks(Y, pair):
    """Channel-free G_J^{lk}[e] = sum_M Y_J^M(rhat_e) Q_{JM}^{lk} for the
    paths of one pair, shape (E, n_J, (2l+1)(2k+1))."""
    l, k, p0, p1, tables = pair
    G = np.empty((Y.shape[0], p1 - p0, (2 * l + 1) * (2 * k + 1)))
    for j, q in enumerate(tables):
        J = abs(l - k) + j
        np.matmul(Y[:, so3.block_slice(J)], q, out=G[:, j])
    return G


def _mix(phi, G, pair):
    """Kernel W^{lk}[e] = sum_J phi_J^{lk}(r_e) G_J^{lk}[e], shaped
    (E, C, 2l+1, 2k+1) or, in fc mode, (E, C, C, 2l+1, 2k+1)."""
    l, k, p0, p1, _ = pair
    ph = phi[:, p0:p1].reshape(G.shape[0], p1 - p0, -1)
    W = np.matmul(ph.transpose(0, 2, 1), G)
    return W.reshape(phi.shape[:1] + phi.shape[2:] + (2 * l + 1, 2 * k + 1))


def _edge_terms(graph, params, counters=None, cache=None):
    """The edge terms both conv passes need, in ``cache`` when given:
    distances ``r``, harmonics ``Y`` up to 2L, per-path radial scalars
    ``phi`` and the edges' destination runs, ``dst_order`` and its
    ``dst_segments``. Only a given cache also receives the radial net's
    activations, under ``radial``."""
    terms = {} if cache is None else cache
    r, rhat = _edge_geometry(graph)
    radial = None if cache is None else {}
    order = np.argsort(graph.edge_dst, kind="stable")
    terms.update(
        r=r, Y=so3.eval_real_sh(2 * params.l_max, rhat),
        phi=_phi_per_path(params, r, counters, radial), radial=radial,
        dst_order=order, dst_segments=_segments(graph.edge_dst[order]))
    return terms


def conv_forward(graph, feats, params, counters=None, cache=None):
    """One message-passing step: self-interaction plus neighbor messages.

    A ``cache`` dict receives the edge terms ``conv_backward`` reads; it
    stays empty on an edge-free graph.
    """
    feats = _check_shape("feats", feats, _feature_shape(graph.n_atoms, params))
    L, C = params.l_max, params.channels
    out = _per_order(params.self_w.T) * feats
    if graph.n_edges == 0:
        return out
    terms = _edge_terms(graph, params, counters, cache)
    Y, phi, plan = terms["Y"], terms["phi"], conv_plan(L)
    E = graph.n_edges
    spec = "ecab,ecb->eca" if params.mode == "channel" else "ecdab,edb->eca"
    fk = _gather_degrees(feats, graph.edge_dst)
    msg = [np.zeros((E, C, 2 * l + 1)) for l in range(L + 1)]
    for pair in plan.pairs:
        l, k = pair[:2]
        W = _mix(phi, _coupling_blocks(Y, pair), pair)
        msg[l] += np.einsum(spec, W, fk[k])
    if counters is not None:
        cc = C if params.mode == "channel" else C * C
        counters.add("assembly", E * plan.assembly)
        counters.add("mixing", E * cc * plan.mixing)
        counters.add("matvec", E * cc * (L + 1) ** 4)
    # edges are sorted by source (MolecularGraph checks it)
    _segment_add(out, _segments(graph.edge_src), np.concatenate(msg, axis=2))
    return out


def conv_backward(graph, feats, params, grad_out, cache=None):
    """Adjoint of conv_forward: gradients for features and parameters.

    ``cache`` is the dict ``conv_forward`` filled for the same graph and
    parameters; without one the edge terms are computed here.
    """
    shape = _feature_shape(graph.n_atoms, params)
    feats = _check_shape("feats", feats, shape)
    grad_out = _check_shape("grad_out", grad_out, shape)
    grad_f = _per_order(params.self_w.T) * grad_out
    grad_self = _degree_sums((grad_out * feats).sum(axis=0)).T
    if graph.n_edges == 0:
        # empty sums in radial_backward already yield zero gradients
        return grad_f, {"self_w": grad_self, "radial": radial_backward(
            params.radial, np.zeros(0),
            np.zeros((0, params.radial.out_dim)))}
    terms = _edge_terms(graph, params, cache={}) if cache is None else cache
    Y, phi, plan = terms["Y"], terms["phi"], conv_plan(params.l_max)
    E = graph.n_edges
    channel = params.mode == "channel"
    spec = "ecab,eca->ecb" if channel else "ecdab,eca->edb"
    gmsg = _gather_degrees(grad_out, graph.edge_src)
    fk = _gather_degrees(feats, graph.edge_dst)
    acc = [np.zeros_like(f) for f in fk]
    grad_phi = np.empty_like(phi)
    for pair in plan.pairs:
        l, k, p0, p1, _ = pair
        G = _coupling_blocks(Y, pair)
        # d loss / d W^{lk} is the outer product of the message gradient
        # and the neighbor feature, per channel or per channel pair
        if channel:
            outer = gmsg[l][:, :, :, None] * fk[k][:, :, None, :]
        else:
            outer = gmsg[l][:, :, None, :, None] * fk[k][:, None, :, None, :]
        outer = outer.reshape(E, -1, G.shape[2])
        grad_phi[:, p0:p1] = np.matmul(G, outer.transpose(0, 2, 1)).reshape(
            (E, p1 - p0) + phi.shape[2:])
        acc[k] += np.einsum(spec, _mix(phi, G, pair), gmsg[l])
    _segment_add(grad_f, terms["dst_segments"],
                 np.concatenate(acc, axis=2)[terms["dst_order"]])
    grad_radial = radial_backward(params.radial, terms["r"],
                                  grad_phi.reshape(E, -1), terms["radial"])
    return grad_f, {"self_w": grad_self, "radial": grad_radial}


# ---------------------------------------------------------------------------
# gate nonlinearity


def _gate_norms(feats):
    """Per-degree norms, (n, C, L+1), kept off zero by the epsilon."""
    return np.sqrt(_degree_sums(feats * feats) + _EPS_NORM)


def gate_forward(feats, act0="silu", act_l="silu"):
    """Scalar activation on degree 0, norm gating on higher degrees.

    ``act_l="identity"`` bypasses the gate entirely (multiplier one), so the
    layer reduces to the identity operator on every degree.
    """
    feats = _check_shape("feats", feats, (None, None, None))
    out = feats.copy()
    if act_l != "identity":
        out *= _per_order(_act(act_l)(_gate_norms(feats)))
    out[:, :, 0] = _act(act0)(feats[:, :, 0])
    return out


def gate_backward(feats, grad_out, act0="silu", act_l="silu"):
    feats = _check_shape("feats", feats, (None, None, None))
    grad_out = _check_shape("grad_out", grad_out, feats.shape)
    out = grad_out.copy()
    if act_l != "identity":
        nrm = _gate_norms(feats)
        dot = _degree_sums(grad_out * feats)
        out = (_per_order(_act(act_l)(nrm)) * grad_out
               + _per_order(_act_grad(act_l)(nrm) * dot / nrm) * feats)
    out[:, :, 0] = _act_grad(act0)(feats[:, :, 0]) * grad_out[:, :, 0]
    return out


# ---------------------------------------------------------------------------
# residual operator layer


@dataclass
class ResidualParams:
    l_max: int
    channels: int
    cutoff: float
    radial: RadialNetParams

    def slots(self, prefix):
        return self.radial.slots(prefix + ".radial")


def init_residual_layer(rng, l_max, channels, cutoff, zero_head=True):
    radial = init_radial_net(rng, cutoff, (l_max + 1) * channels,
                             zero_head=zero_head)
    return ResidualParams(l_max=l_max, channels=channels,
                          cutoff=float(cutoff), radial=radial)


def _residual_terms(queries, coords, params, counters=None, cache=None):
    """The pair terms both residual passes need, in ``cache`` when given:
    the query-atom pairs within the cutoff, sorted by atom, as ``qi``,
    ``vi`` and ``r`` with the atoms' runs in ``atom_segments``; and, when
    there are pairs, the harmonics ``Y`` (E, (L+1)^2) of their directions
    and the radial scalars ``phi`` (E, L+1, C). Only a given cache also
    receives the radial net's activations, under ``radial``.

    A query sitting exactly on an atom has no direction; it gets the zero
    vector, whose solid harmonics vanish for k >= 1, so the pair keeps its
    isotropic k = 0 term and contributes nothing through higher degrees.
    """
    terms = {} if cache is None else cache
    diff = coords[None, :, :] - queries[:, None, :]
    dist = np.sqrt(np.einsum("qvx,qvx->qv", diff, diff))
    vi, qi = np.nonzero((dist <= params.cutoff).T)
    r = dist[qi, vi]
    terms.update(qi=qi, vi=vi, r=r, atom_segments=_segments(vi))
    if qi.size == 0:
        return terms
    radial = terms["radial"] = None if cache is None else {}
    phi = radial_forward(params.radial, r, counters, radial)
    terms["phi"] = phi.reshape(r.size, params.l_max + 1, params.channels)
    rhat = diff[qi, vi] / np.where(r < _EPS_EDGE, np.inf, r)[:, None]
    terms["Y"] = so3.eval_real_sh(params.l_max, rhat)
    return terms


def residual_forward(queries, coords, feats, params, counters=None,
                     cache=None):
    """Invariant scalar z per query from neighborhood feature contraction.

    A ``cache`` dict receives the pair terms ``residual_backward`` reads
    and the projection ``s`` of these features.
    """
    queries = _check_shape("queries", queries, (None, 3))
    coords = _check_shape("coords", coords, (None, 3))
    feats = _check_shape("feats", feats, _feature_shape(len(coords), params))
    terms = _residual_terms(queries, coords, params, counters, cache)
    qi, Y = terms["qi"], terms.get("Y")
    if qi.size == 0:
        return np.zeros(queries.shape[0])
    # s[e, k] = Y[e, block k] @ feats[vi[e], :, block k].T, (E, L+1, C):
    # each pair's degree-k atom features projected on its harmonics, one
    # GEMM per atom run and degree
    s = terms["s"] = np.empty((qi.size, params.l_max + 1, params.channels))
    rows, starts = terms["atom_segments"]
    for u, lo, hi in zip(rows, starts, np.append(starts[1:], qi.size)):
        for k in range(params.l_max + 1):
            sl = so3.block_slice(k)
            s[lo:hi, k] = Y[lo:hi, sl] @ feats[u, :, sl].T
    if counters is not None:
        counters.add("residual", Y.size * (params.channels + 1))
    contrib = np.einsum("ekc,ekc->e", terms["phi"], s)
    return np.bincount(qi, weights=contrib, minlength=queries.shape[0])


def residual_backward(queries, coords, feats, params, grad_z, cache=None):
    """Adjoint of residual_forward for features and radial parameters.

    ``cache`` is the dict ``residual_forward`` filled for the same queries,
    coordinates, features and parameters; without one the forward is run
    here to fill it.
    """
    queries = _check_shape("queries", queries, (None, 3))
    coords = _check_shape("coords", coords, (None, 3))
    feats = _check_shape("feats", feats, _feature_shape(len(coords), params))
    grad_z = _check_shape("grad_z", grad_z, (len(queries),))
    grad_f = np.zeros_like(feats)
    if cache is None:
        cache = {}
        residual_forward(queries, coords, feats, params, cache=cache)
    qi = cache["qi"]
    if qi.size == 0:
        # empty sums in radial_backward already yield zero gradients
        return grad_f, {"radial": radial_backward(
            params.radial, np.zeros(0), np.zeros((0, params.radial.out_dim)))}
    phi, Y = cache["phi"], cache["Y"]
    ge = grad_z[qi]
    # the feature gradient of atom u, degree k, sums (ge phi_k) outer Y_k
    # over u's run of pairs: one GEMM per run and degree, with no
    # (pairs, C, 2k+1) array of outer products
    gphi = ge[:, None, None] * phi
    rows, starts = cache["atom_segments"]
    for u, lo, hi in zip(rows, starts, np.append(starts[1:], qi.size)):
        for k in range(params.l_max + 1):
            sl = so3.block_slice(k)
            grad_f[u, :, sl] = gphi[lo:hi, k].T @ Y[lo:hi, sl]
    grad_phi = ge[:, None, None] * cache["s"]
    grad_radial = radial_backward(params.radial, cache["r"],
                                  grad_phi.reshape(qi.size, -1),
                                  cache["radial"])
    return grad_f, {"radial": grad_radial}
