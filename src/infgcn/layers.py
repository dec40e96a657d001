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

The convolution runs in each edge's frame (eSCN, arXiv 2302.03655): with
R_e taking rhat onto z-hat, W^{lk}(r) = D_l(R_e)^T W^{lk}(z-hat) D_k(R_e),
and only Y_J^0 survives at z-hat, so W^{lk}(z-hat) is one sparse matrix for
every edge, non-zero where |m| = |m'| (624 of 4,096 entries at L = 7).
D_l(R_e) is never formed (`_rotate`), and a ``ConvPlan``'s M = 0 CG rows
are the only coupling data kept. Edge arrays are slot-major, ((L+1)^2, E,
C). Three stages are metered by multiply count: ``rotation`` turns
neighbor features into the edge frame and messages back; ``mixing``
combines each pair's radial scalars into its non-zero entries (one GEMM);
``matvec`` applies the kernel, written into a dense (2l+1) x (2k+1) block,
at exactly |E| * C * (L+1)^4 multiplies, the compressed-vector budget.

What only a backward reads is built only when its forward is given a
``cache``. A backward overwrites every entry of its ``grads``
(`model.bind`), so they need no zeroing.

The residual layer sums z_e = rows_e . (B_u[cell] Y_e) over the pairs e
of a query and atoms u (`_contract`). A row holds D values: [h2, 1], the
radial net's last hidden layer and a ones column, or on a large uncached
batch T_j(t) of a Chebyshev table of the net. B_u[cell, j, km] = sum_c
tab[cell * D + j, k, c] f_u[c, km] folds in the atom's features, ``tab``
being the head [head_w; head_b] or the table: no pair gets radial outputs.
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import geometry, so3
from .errors import DomainError

CONV_MODES = ("channel", "fc")

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


_COUNT_LOCK = threading.Lock()


@dataclass
class OpCounters:
    """Multiply counters keyed by stage name; any thread may add."""

    counts: dict = field(default_factory=dict)

    def add(self, key, n):
        n = int(n)
        with _COUNT_LOCK:
            self.counts[key] = self.counts.get(key, 0) + n


def _run_now(fn, *args):
    """A ``submit`` that runs the job at once, for callers without one."""
    fn(*args)


def _sigmoid(x):
    # exp(-|x|) never overflows; the numerator picks 1 or exp(x) by sign:
    # np.where(x >= 0, 1.0, e) / (1.0 + e), computed in place in e; as
    # e <= 1, max(e, x >= 0) makes that pick without a masked copy and
    # keeps a NaN
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = np.add(1.0, e)
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, d, out=e)


def silu(x, out=None):
    """x * sigmoid(x); ``out`` may be ``x`` itself."""
    x = np.asarray(x, dtype=float)
    return np.multiply(x, _sigmoid(x), out=out)


def _silu_grad(x):
    """silu'(x) = s (1 + x (1 - s)) with s = sigmoid(x), in that order."""
    s = _sigmoid(x)
    g = np.subtract(1.0, s)
    g *= x
    g += 1.0
    g *= s
    return g


_ACTS = {"silu": (silu, _silu_grad), "identity": (lambda x: x, np.ones_like)}
ACTIVATIONS = tuple(_ACTS)


def _act(name):
    """The activation ``name`` and its derivative, (f, f')."""
    try:
        return _ACTS[name]
    except KeyError:
        raise DomainError(f"unknown activation {name!r}") from None


# ---------------------------------------------------------------------------
# radial nets


@dataclass
class RadialNetParams:
    N_EMBED = 64   # Gaussians embedding a distance
    HIDDEN = 128   # width of both hidden layers

    centers: np.ndarray  # (N_EMBED,), fixed
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


def init_radial_net(rng, cutoff, out_dim, zero_head=True):
    n_embed, hidden = RadialNetParams.N_EMBED, RadialNetParams.HIDDEN
    centers = np.linspace(0.0, cutoff, n_embed)
    width = centers[1] - centers[0]
    # a generator for shapes alone (model._NoDraws) has its own zeros
    head_w = (getattr(rng, "zeros", np.zeros)((hidden, out_dim)) if zero_head
              else 0.01 * _glorot(rng, (hidden, out_dim)))
    return RadialNetParams(
        centers=centers, width=float(width), cutoff=float(cutoff),
        w1=_glorot(rng, (n_embed, hidden)), b1=np.zeros(hidden),
        w2=_glorot(rng, (hidden, hidden)), b2=np.zeros(hidden),
        head_w=head_w, head_b=np.zeros(out_dim))


_ROWS = 1024  # pairs per block of the residual layer's uncached exact route
# decode tables: K intervals of [0, cutoff] at degree P from values at
# first-kind Chebyshev nodes, checked at interval ends and quarter points
_K, _P = 64, 16
_NODES = np.cos(np.pi * (np.arange(_P + 1) + 0.5) / (_P + 1))
_CHEB = np.cos(np.outer(np.arange(_P + 1), np.arccos(_NODES))) * (2 / (_P + 1))
_CHEB[0] /= 2
_CHECKS = np.delete(np.arange(4 * _K + 1), np.s_[2::4]) / (4 * _K)
_KEEP = 1 << 21  # bytes of the largest decode table (the residual's: 1.1 MB)
_DECODE = None  # (bit-compared copies of the kept net's fields, its _table)


def _embed(params, r):
    """Gaussian embedding of distances, (E, N_EMBED), its entries below
    1e-300 set to zero: their products with the first layer's weights are
    subnormal, GEMMs over those run several times slower, and beside the
    nearest center's Gaussian (>= exp(-1/8)) they vanish in rounding."""
    e = np.exp(-0.5 * ((r[:, None] - params.centers) / params.width) ** 2)
    np.copyto(e, 0.0, where=e < 1e-300)
    return e


def _row_mults(params):
    """Multiplies of one exact row of the net."""
    return params.w1.size + params.w2.size + params.head_w.size


def _hidden(params, r, cache=None):
    """The net's last hidden layer h2, (E, HIDDEN); ``cache`` gets e, each h_i
    and, in place of a_i, silu'(a_i) = s + h_i (1 - s), s = sigmoid(a_i)."""
    h = _embed(params, r)
    if cache is not None:
        cache["e"] = h
    for i, (w, b) in enumerate(((params.w1, params.b1),
                                (params.w2, params.b2)), 1):
        h = h @ w  # frees the layer's input before the SiLU's temporary
        h += b
        if cache is None:
            silu(h, out=h)
        else:
            s = _sigmoid(h)
            d, h = cache[f"d{i}"], cache[f"h{i}"] = h, np.multiply(h, s)
            np.subtract(1.0, s, out=d)  # s + h (1 - s), written over a
            d *= h
            d += s
    return h


def _net(params, r, cache=None):
    """The exact net; ``cache`` gets activations."""
    out = _hidden(params, r, cache) @ params.head_w
    out += params.head_b
    return out


def _table_eval(h, r, atom=0):
    """What evaluating a table on intervals of width ``h`` at ``r`` needs:
    the stable order that groups the rows by key atom * K + interval; T_j(t)
    of the rows in that order, (E, P+1); and per run of one key, (key,
    start, end) in that order. Each run is one GEMM."""
    cell = np.minimum((r / h).astype(np.intp), _K - 1)
    key = atom * _K + cell
    order = np.argsort(key, kind="stable")
    t = (r[order] - cell[order] * h) * (2 / h) - 1
    T = np.polynomial.chebyshev.chebvander(t, _P)  # T_j(t), (E, P+1)
    return order, T, zip(*_segments(key[order]))


def _table(params):
    """The net's table, (K, P+1, out_dim), or None where a check point
    misses the exact net by over 1e-13 of max|phi| or is not finite."""
    h = params.cutoff / _K
    nodes = ((np.arange(_K)[:, None] + (_NODES + 1) / 2) * h).ravel()
    checks = _CHECKS * params.cutoff
    exact = _net(params, np.concatenate([nodes, checks]))
    coef = np.matmul(_CHEB, exact[:nodes.size].reshape(_K, _P + 1, -1))
    order, T, runs = _table_eval(h, checks)
    got = np.empty((checks.size, coef.shape[2]))
    for i, lo, hi in runs:
        got[order[lo:hi]] = T[lo:hi] @ coef[i]
    err = np.abs(got - exact[nodes.size:]).max()
    return coef if err <= 1e-13 * np.abs(exact).max() else None


def _decode_table(params):
    """``_table(params)``, kept, and whether this call built it."""
    global _DECODE
    key = [np.asarray(v, dtype=float) for v in vars(params).values()]
    memo = _DECODE  # read once: a racing thread stores an equal entry
    if memo is not None and all(np.array_equal(
            a.view(np.int64), b.view(np.int64)) for a, b in zip(memo[0], key)):
        return memo[1], False
    coef = _table(params)
    _DECODE = tuple(a.copy() for a in key), coef  # key views params.flat
    return coef, True


def radial_forward(params, r, counters=None, cache=None):
    """Per-path scalars phi(r) for a batch of distances, shape (E, out_dim).

    A ``cache`` dict receives what ``radial_backward`` reads (`_hidden`).
    ``radial`` counts the multiplies done.
    """
    r = np.asarray(r, dtype=float)
    # written so that NaN fails it too
    if not np.all((r >= 0.0) & (r <= params.cutoff + 1e-9)):
        raise DomainError("distance outside [0, cutoff]")
    out = _net(params, r, cache)
    if counters is not None:
        counters.add("radial", r.size * _row_mults(params))
    return out


def radial_backward(params, grad_out, grads, cache):
    """Gradients of sum(grad_out * phi), from the ``cache`` radial_forward
    filled, written into the six trainable arrays of ``grads``; they
    overwrite its ``h2`` and ``h1``, so a cache serves one backward."""
    h2 = cache["h2"]
    np.matmul(h2.T, grad_out, out=grads.head_w)
    grad_out.sum(axis=0, out=grads.head_b)
    _hidden_backward(params, np.matmul(grad_out, params.head_w.T, out=h2),
                     grads, cache)


def _hidden_backward(params, g, grads, cache):
    """``radial_backward`` below the head, from ``g``, the gradient at h2;
    ``g`` and the cache's ``h1`` are overwritten."""
    # from the top down: g times the SiLU derivative d of a layer's output,
    # then the layer's weight and bias gradients from its input x and g,
    # then g through the weight, into x, which nothing reads again
    g *= cache["d2"]
    for x, w, b, d in ((cache["h1"], "w2", "b2", "d1"),
                       (cache["e"], "w1", "b1", None)):
        np.matmul(x.T, g, out=getattr(grads, w))
        g.sum(axis=0, out=getattr(grads, b))
        if d is not None:
            g = np.matmul(g, getattr(params, w).T, out=x)
            g *= cache[d]


# ---------------------------------------------------------------------------
# tensor-product convolution


@dataclass
class ConvLayerParams:
    l_max: int
    channels: int
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
        l_max=l_max, channels=channels, mode=mode, paths=paths, radial=radial,
        self_w=np.ones((l_max + 1, channels)))


def _check_gate_feats(feats):
    """``feats`` as an (n, C, (L+1)^2) float array. The gate does not know
    L, so it checks only that the last axis holds whole degrees."""
    feats = geometry.check_array("feats", feats, (None, None, None))
    S = feats.shape[2]
    if S == 0 or math.isqrt(S) ** 2 != S:
        raise DomainError("feats must have shape (*, *, (l_max+1)^2), got "
                          f"{feats.shape}")
    return feats


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


def _segments(idx):
    """Runs of equal values in a sorted index array: their values, starts
    and ends, as lists."""
    starts = np.flatnonzero(np.diff(idx, prepend=-1))
    return (idx[starts].tolist(), starts.tolist(),
            starts[1:].tolist() + [idx.size])


@dataclass(frozen=True)
class ConvPlan:
    """The edge-frame coupling of every path up to one ``l_max``.

    ``pairs`` lists ``(l, k, p0, p1, qz, a, b, nz)`` in path order: the
    paths of one pair are ``phi[..., p0:p1]``, in ascending J, and row J
    of ``qz`` holds Y_J^0(z-hat) Q_{J0} at the pair's non-zero entries,
    from ``so3.cg_m0``; no full table is built. Entry
    i lies in slot ``a[i]`` (degree l) and slot ``b[i]`` (degree k) of the
    (L+1)^2-slot layout, at flat index ``nz[i]`` of the (2l+1, 2k+1)
    block; the first 2 min(l, k) + 1 entries have m = m', in ascending m,
    the rest m = -m' != 0. ``wigner`` holds
    J_l = D_l(R_x(-pi/2)), ``orders`` each slot's m and ``flip`` the slot of
    (l, -m). ``mixing`` counts that stage's multiplies per edge and
    channel entry (C of them, C * C in fc mode), ``rotation`` those of one
    frame rotation per edge and channel. Arrays are read-only, so one plan
    is shared by every caller and thread.
    """
    l_max: int
    pairs: tuple = field(repr=False)
    wigner: tuple = field(repr=False)
    orders: np.ndarray = field(repr=False)
    flip: np.ndarray = field(repr=False)
    mixing: int
    rotation: int


_PLANS: dict = {}
_PLAN_LOCK = threading.Lock()
# R_x(-pi/2), taking z-hat to y-hat: J_l Z_l(a) J_l^T is D_l of R_y(a)
_TURN_X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def conv_plan(l_max):
    """The coupling plan for ``l_max``, built once per process: the first
    build runs under a lock and checks the memo again inside it, so threads
    asking at once (``eval --jobs N``) share one build. A built plan is read
    without the lock.
    """
    plan = _PLANS.get(l_max)
    if plan is None:
        with _PLAN_LOCK:
            plan = _PLANS.get(l_max)
            if plan is None:
                plan = _PLANS[l_max] = _build_plan(l_max)
    return plan


def _build_plan(l_max):
    pairs, p0 = [], 0
    for (l, k), paths in itertools.groupby(make_paths(l_max),
                                           key=lambda p: p[:2]):
        m = np.arange(-min(l, k), min(l, k) + 1)
        ma = np.concatenate([m, -m[m != 0]])  # m = m', then m = -m' != 0
        mb = np.concatenate([m, m[m != 0]])
        qz = np.array([math.sqrt((2 * J + 1) / (4 * math.pi))
                       * so3.cg_m0(l, k, J, ma, mb)
                       for _, _, J in paths])
        pairs.append((l, k, p0, p0 + len(qz), qz, l * l + l + ma,
                      k * k + k + mb, (l + ma) * (2 * k + 1) + k + mb))
        p0 += len(qz)
    orders = np.concatenate([np.arange(-l, l + 1) for l in range(l_max + 1)])
    plan = ConvPlan(
        l_max=l_max, pairs=tuple(pairs),
        wigner=tuple(so3.wigner_blocks(l_max, _TURN_X)), orders=orders,
        flip=np.arange(orders.size) - 2 * orders,
        mixing=sum(p[4].size for p in pairs),
        rotation=2 * sum((2 * l + 1) ** 2 for l in range(l_max + 1))
        + 4 * orders.size)
    for a in (orders, plan.flip, *plan.wigner,
              *(a for p in pairs for a in p[4:])):
        a.setflags(write=False)
    return plan


def _frame(vec, plan):
    """cos(m phi), sin(m phi), cos(m theta) and sin(m theta) at each (l, m)
    slot, ((L+1)^2, E, 1) each, for each edge vector's azimuth phi and
    polar angle theta, which do not depend on its length. Along +-z,
    phi = atan2(0, 0) = 0; any phi turns such an edge onto z-hat."""
    x, y, z = vec.T
    return tuple(f(np.multiply.outer(plan.orders, angle))[:, :, None]
                 for angle in (np.arctan2(y, x), np.arctan2(np.hypot(x, y), z))
                 for f in (np.cos, np.sin))


def _wigner(x, blocks, transpose=False):
    """J_l^T, or J_l, applied to each degree's rows of a C-contiguous
    slot-major ``x``, ((L+1)^2, ...)."""
    rows = x.reshape(x.shape[0], -1)
    out = np.empty_like(rows)
    for l, J in enumerate(blocks):
        sl = so3.block_slice(l)
        np.matmul(J if transpose else J.T, rows[sl], out=out[sl])
    return out.reshape(x.shape)


def _rotate(x, frame, plan, inverse=False):
    """Each edge's features ``x`` ((L+1)^2, E, C) turned into its frame,
    D(R_e) x with R_e taking the edge onto z-hat, or with ``inverse`` back,
    D(R_e)^T x. D_l(R_e) = J_l Z_l(-theta) J_l^T Z_l(-phi), where Z_l(a)
    turns each (m, -m) pair: (Z x)_m = cos(m a) x_m - sin(m a) x_{-m}."""
    cos_phi, sin_phi, cos_theta, sin_theta = frame

    def turn(y, c, s):  # Z(-angle), or Z(angle) with inverse
        t = y[plan.flip]
        t *= s
        y = y * c
        return np.subtract(y, t, out=y) if inverse else np.add(y, t, out=y)

    if not inverse:
        x = turn(x, cos_phi, sin_phi)
    x = _wigner(turn(_wigner(x, plan.wigner), cos_theta, sin_theta),
                plan.wigner, transpose=True)
    return turn(x, cos_phi, sin_phi) if inverse else x


def _undirected(graph):
    """Each undirected pair's first edge, and every edge's pair."""
    e, rev = np.arange(graph.n_edges), graph.edge_rev
    half = np.flatnonzero(e < rev)
    return half, np.searchsorted(half, np.minimum(e, rev))


def _path_rows(phi, params, pair):
    """The radial net's (pairs, paths * X) output, X = C or in fc mode
    C * C, as a C-contiguous (paths, E * X) array in which edge e reads
    row ``pair[e]``. ``np.take`` writes C order; an index expression would
    keep the transpose's strides, and the reshape would copy again."""
    shape = (len(phi), len(params.paths), math.prod(_channel_dims(params)))
    rows = np.take(phi.reshape(shape).transpose(1, 0, 2), pair, axis=1)
    return rows.reshape(shape[1], pair.size * shape[2])


def _to_edges(x, idx):
    """Rows ``idx`` of node features (n, C, (L+1)^2), slot-major:
    ((L+1)^2, len(idx), C)."""
    return np.take(np.ascontiguousarray(x.transpose(2, 0, 1)), idx, axis=1)


def _to_nodes(out, segments, x):
    """``out[idx[i]] += x[:, i].T`` for slot-major edge rows ``x`` and a
    sorted ``idx`` given by its ``_segments``; each run is summed with one
    ``np.add.reduceat``, in place of an unbuffered ``np.add.at``."""
    rows, starts, _ = segments
    out[rows] += np.add.reduceat(x, starts, axis=1).transpose(1, 2, 0)


# per mode, over slot-major operands: the matvec's einsum, and per non-zero
# kernel entry the (g, f) products behind grad phi and the kernel's
# transpose applied to g
_MODES = {"channel": ("abec,bec->aec", np.multiply, np.multiply),
          "fc": ("abecd,bed->aec",
                 lambda g, f: np.einsum("nec,ned->necd", g, f),
                 lambda w, g: np.matmul(g[..., None, :], w)[..., 0, :])}


def _channel_dims(params):
    return (params.channels,) * (1 if params.mode == "channel" else 2)


def _kernel(zero, phi, pair, tail):
    """The pair's dense edge-frame kernel W, (2l+1, 2k+1) + ``tail`` (edges
    and channel entries), as a view of the zero buffer ``zero``: only its
    non-zero rows are written, and the caller clears them."""
    l, k, p0, p1, qz, _, _, nz = pair
    W = zero[:(2 * l + 1) * (2 * k + 1)]
    W[nz] = qz.T @ phi[p0:p1]
    return W.reshape((2 * l + 1, 2 * k + 1) + tail)


def conv_forward(graph, feats, params, counters=None, cache=None):
    """One message-passing step: self-interaction plus neighbor messages.

    The radial net runs once per undirected edge: an edge and its reverse
    (``graph.edge_rev``) read one row of phi. A ``cache`` dict receives
    what ``conv_backward`` reads.
    """
    feats = geometry.check_array("feats", feats,
                                 _feature_shape(graph.n_atoms, params))
    if graph.cutoff > params.radial.cutoff:
        raise DomainError(f"graph cutoff {graph.cutoff} exceeds the conv "
                          f"layer's cutoff {params.radial.cutoff}")
    L, C, E = params.l_max, params.channels, graph.n_edges
    out = _per_order(params.self_w.T) * feats
    plan, vec = conv_plan(L), graph.edge_vec
    r = np.sqrt(np.einsum("ex,ex->e", vec, vec))
    if np.any(r < _EPS_EDGE):
        raise DomainError("coincident atoms produce directionless edges")
    radial = None if cache is None else {}
    half, pair = _undirected(graph)
    phi = _path_rows(radial_forward(params.radial, r[half], counters, radial),
                     params, pair)
    frame = _frame(vec, plan)
    f = _rotate(_to_edges(feats, graph.edge_dst), frame, plan)
    if cache is not None:
        cache.update(frame=frame, f=f, radial=radial)
        if params.mode == "channel":
            # fc's phi is C times larger (~53 MB per layer at L=7, C=16,
            # 76 edges); its backward redoes the head GEMM from the radial
            # cache's h2 instead
            cache["phi"] = phi
    dims, spec = _channel_dims(params), _MODES[params.mode][0]
    msg = np.zeros_like(f)
    zero, tail = np.zeros(((2 * L + 1) ** 2, phi.shape[1])), (E,) + dims
    for pair in plan.pairs:
        l, k, *_, nz = pair
        W = _kernel(zero, phi, pair, tail)
        msg[so3.block_slice(l)] += np.einsum(spec, W, f[so3.block_slice(k)])
        zero[nz] = 0.0
    if counters is not None:
        counters.add("rotation", 2 * E * C * plan.rotation)
        counters.add("mixing", phi.shape[1] * plan.mixing)
        counters.add("matvec", phi.shape[1] * (L + 1) ** 4)
    # edges are sorted by source (build_radius_graph sorts them)
    _to_nodes(out, _segments(graph.edge_src),
              _rotate(msg, frame, plan, inverse=True))
    return out


def conv_backward(graph, feats, params, grad_out, grads, cache,
                  submit=None):
    """Adjoint of conv_forward: returns the feature gradient and writes the
    parameter gradients into ``grads``, from the ``cache`` that
    ``conv_forward`` filled for the same graph and parameters. The radial
    net's backward goes to ``submit``, else runs at once (`grad`).
    """
    shape = _feature_shape(graph.n_atoms, params)
    feats = geometry.check_array("feats", feats, shape)
    grad_out = geometry.check_array("grad_out", grad_out, shape)
    grad_f = _per_order(params.self_w.T) * grad_out
    grads.self_w[...] = _degree_sums((grad_out * feats).sum(axis=0)).T
    plan, frame, E = conv_plan(params.l_max), cache["frame"], graph.n_edges
    phi, f = cache.get("phi"), cache["f"]
    half, pair = _undirected(graph)
    if phi is None:  # fc mode's forward kept no phi
        rp = params.radial
        phi = _path_rows(cache["radial"]["h2"] @ rp.head_w + rp.head_b,
                         params, pair)
    dims, (_, outer, adjoint) = _channel_dims(params), _MODES[params.mode]
    # in the edge frame the kernel is sparse: both gradients read it at its
    # non-zero entries only
    g = _rotate(_to_edges(grad_out, graph.edge_src), frame, plan)
    grad_fe = np.zeros_like(f)
    grad_phi = np.empty_like(phi)
    for l, k, p0, p1, qz, a, b, _ in plan.pairs:
        ga = g[a]
        np.matmul(qz, outer(ga, f[b]).reshape(len(a), phi.shape[1]),
                  out=grad_phi[p0:p1])
        t = adjoint((qz.T @ phi[p0:p1]).reshape((len(a), E) + dims), ga)
        # the first d entries (m = m') hit distinct slots in order, and so
        # do the rest (m = -m')
        d = 2 * min(l, k) + 1
        grad_fe[b[0]:b[0] + d] += t[:d]
        grad_fe[b[d:]] += t[d:]
    grad_fe = _rotate(grad_fe, frame, plan, inverse=True)
    _to_nodes(grad_f, _segments(graph.edge_src), grad_fe[:, graph.edge_rev])
    # both directions of a pair read one radial row: their grad phi sums
    rows = grad_phi.reshape((len(phi), E) + dims).swapaxes(0, 1)
    grad_phi = rows[half]
    grad_phi += rows[graph.edge_rev[half]]
    (submit or _run_now)(radial_backward, params.radial,
                         grad_phi.reshape(half.size, params.radial.out_dim),
                         grads.radial, cache["radial"])
    return grad_f


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
    feats = _check_gate_feats(feats)
    out = feats.copy()
    if act_l != "identity":
        out *= _per_order(_act(act_l)[0](_gate_norms(feats)))
    out[:, :, 0] = _act(act0)[0](feats[:, :, 0])
    return out


def gate_backward(feats, grad_out, act0="silu", act_l="silu"):
    feats = _check_gate_feats(feats)
    grad_out = geometry.check_array("grad_out", grad_out, feats.shape)
    out = grad_out.copy()
    if act_l != "identity":
        nrm = _gate_norms(feats)
        dot = _degree_sums(grad_out * feats)
        f, df = _act(act_l)
        out = (_per_order(f(nrm)) * grad_out
               + _per_order(df(nrm) * dot / nrm) * feats)
    out[:, :, 0] = _act(act0)[1](feats[:, :, 0]) * grad_out[:, :, 0]
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


def _residual_pairs(queries, coords, params, counters=None, keep=False,
                    found=None):
    """The residual layer's coefficient-free half, from checked arrays: its
    query-atom pairs ``qi``, ``vi`` (sorted by atom), their rows [h2, 1]
    and harmonics ``Y``, ((L+1)^2, E), the head as `_contract`'s one-cell
    table and, with ``keep``, radial cache. ``found`` is the pairs'
    ``radius_pairs`` result, if already searched."""
    if found is None:
        found = geometry.radius_pairs(coords, queries, params.cutoff)
    vi, qi, vec, r = found
    net, radial = params.radial, {} if keep else None
    rows = np.ones((r.size, net.HIDDEN + 1))
    # without a cache, blocks of _ROWS rows, none of one row (GEMV rounds
    # differently): the cached pass's bits, with no whole-batch activation
    starts = [0] if keep else list(range(0, max(r.size - 1, 1), _ROWS))
    for lo, hi in zip(starts, starts[1:] + [r.size]):
        rows[lo:hi, :-1] = _hidden(net, r[lo:hi], radial)
    if counters is not None:
        counters.add("radial", r.size * (net.w1.size + net.w2.size))
    tab = np.vstack([net.head_w, net.head_b])
    return (qi, vi, rows, _harmonics(params.l_max, vec, r),
            tab.reshape(-1, params.l_max + 1, params.channels), radial)


def _harmonics(L, vec, r):
    """Each pair's harmonics at the direction from query to atom,
    ((L+1)^2, E); a pair closer than ``_EPS_EDGE`` gets the zero vector's."""
    # vec runs from atom to query; negated it is exactly atom minus query
    rhat = -vec / np.where(r < _EPS_EDGE, np.inf, r)[:, None]
    return so3.eval_real_sh(L, rhat, rows=True)


def _contract(tab, feats, Y, rows, runs, counters, YB=None):
    """Each pair's z_e = rows_e . (B_u[cell] Y_e), in run order, with the
    rows B_u[cell] Y_e written into ``YB``, (E, D), if given; ``tab`` is
    (cells * D, L+1, C) and ``runs`` (u * cells + cell, start, end), sorted
    by atom u. The run GEMMs count as ``radial``, the fold and the dot as
    ``residual``."""
    (E, D), S = rows.shape, len(Y)
    B = np.empty((len(tab) // D, D, S))
    z, atom, folds = np.empty(E), -1, 0
    for i, lo, hi in runs:
        u, cell = divmod(i, len(B))
        if u != atom:
            atom, folds = u, folds + 1
            for k in range(math.isqrt(S)):
                sl = so3.block_slice(k)
                np.matmul(tab[:, k], feats[u, :, sl],
                          out=B.reshape(-1, S)[:, sl])
        yb = np.matmul(Y[:, lo:hi].T, B[cell].T,
                       out=None if YB is None else YB[lo:hi])
        if YB is None:  # one run's rows at a time, and the same bits
            np.einsum("ej,ej->e", yb, rows[lo:hi], out=z[lo:hi])
    if YB is not None:  # one dot call, not one per run
        np.einsum("ej,ej->e", YB, rows, out=z)
    if counters is not None:
        counters.add("radial", E * D * S)
        counters.add("residual", folds * B.size * feats.shape[1] + rows.size)
    return z


def _residual_table(params, n, counters):
    """The residual net's decode table as `_contract`'s, or None where it
    does not apply to ``n`` pairs: it must fit in ``_KEEP`` bytes, and
    building, checking and evaluating it must cost no more multiplies than
    ``n`` full rows of the net (``_row_mults``, 1,425 pairs at 128 outputs:
    the head GEMM the exact route folds away still counts, so no batch
    changes route). The table, or its failed check, is kept until the
    net's arrays change; a build is counted under ``radial``."""
    p = params.radial
    row, per_row = _row_mults(p), (_P + 1) * p.out_dim
    # the nodes' and checks' exact rows, the transform and the checks' rows
    table = (_K * (_P + 1) + _CHECKS.size) * (row + per_row)
    if _K * per_row * 8 > _KEEP or table + n * per_row > n * row:
        return None
    coef, built = _decode_table(p)
    if built and counters is not None:
        counters.add("radial", table)
    return coef if coef is None else coef.reshape(
        _K * (_P + 1), params.l_max + 1, params.channels)


def residual_forward(queries, coords, feats, params, counters=None,
                     cache=None, pairs=None):
    """Invariant scalar z per query from neighborhood feature contraction.

    A ``cache`` dict receives what ``residual_backward`` reads. A query
    sitting exactly on an atom has no direction; it gets the zero vector,
    whose solid harmonics vanish for k >= 1, so the pair keeps its isotropic
    k = 0 term and contributes nothing through higher degrees.

    ``pairs`` is ``_residual_pairs``' result for these arguments, computed
    ahead (`grad`). Given neither, a batch ``_residual_table`` admits is
    decoded from the table.
    """
    queries = geometry.check_array("queries", queries, (None, 3), finite=True)
    coords = geometry.check_array("coords", coords, (None, 3), finite=True)
    feats = geometry.check_array("feats", feats,
                                 _feature_shape(len(coords), params))
    if pairs is None:
        found = vi, qi, vec, r = geometry.radius_pairs(coords, queries,
                                                       params.cutoff)
        tab = (None if cache is not None
               else _residual_table(params, r.size, counters))
        if tab is not None:
            order, T, runs = _table_eval(params.cutoff / _K, r, vi)
            # in run order; a query meets each atom once, so its pairs keep
            # their atom order and the bincount sums them as the exact
            # route does
            Y = _harmonics(params.l_max, vec[order], r[order])
            z = _contract(tab, feats, Y, T, runs, counters,
                          np.empty(T.shape))
            return np.bincount(qi[order], weights=z, minlength=len(queries))
        pairs = _residual_pairs(queries, coords, params, counters,
                                keep=cache is not None, found=found)
    qi, vi, rows, Y, tab, radial = pairs
    YB = None if cache is None else np.empty(rows.shape)
    z = _contract(tab, feats, Y, rows, zip(*_segments(vi)), counters, YB)
    if cache is not None:
        cache.update(qi=qi, vi=vi, rows=rows, Y=Y, tab=tab, YB=YB,
                     radial=radial)
    return np.bincount(qi, weights=z, minlength=len(queries))


def residual_backward(queries, coords, feats, params, grad_z, grads, cache,
                      submit=None):
    """Adjoint of residual_forward: returns the feature gradient and writes
    the radial gradients into ``grads``, from the ``cache`` that
    ``residual_forward`` filled for the same queries, coordinates, features
    and parameters. ``submit`` takes the radial net's hidden-layer
    backward as ``conv_backward``'s takes its radial backward.
    """
    queries = geometry.check_array("queries", queries, (None, 3), finite=True)
    coords = geometry.check_array("coords", coords, (None, 3), finite=True)
    feats = geometry.check_array("feats", feats,
                                 _feature_shape(len(coords), params))
    grad_z = geometry.check_array("grad_z", grad_z, (len(queries),))
    qi, vi, rows, Y, tab, YB = (cache[k] for k in
                                ("qi", "vi", "rows", "Y", "tab", "YB"))
    ge = grad_z[qi]
    # z is linear in each atom's fold B_u (`_contract`): dB_u sums ge
    # rows_e outer Y_e over u's pairs, one GEMM per atom, and the head's
    # and the features' gradients follow from dB per degree
    gY = Y * ge
    dB = np.zeros((len(coords), rows.shape[1], len(Y)))
    for u, lo, hi in zip(*_segments(vi)):
        np.matmul(rows[lo:hi].T, gY[:, lo:hi].T, out=dB[u])
    grad_f, grad_tab = np.empty_like(feats), np.empty_like(tab)
    for k in range(params.l_max + 1):
        sl = so3.block_slice(k)
        grad_tab[:, k] = np.tensordot(dB[:, :, sl], feats[:, :, sl],
                                      ([0, 2], [0, 2]))
        grad_f[:, :, sl] = tab[:, k].T @ dB[:, :, sl]
    p = grads.radial
    p.head_w[...] = grad_tab[:-1].reshape(p.head_w.shape)
    p.head_b[...] = grad_tab[-1].reshape(-1)
    # the gradient at h2 is ge times the first HIDDEN columns of YB,
    # written into the cache's h2, which nothing reads again
    g = np.multiply(YB[:, :-1], ge[:, None], out=cache["radial"]["h2"])
    (submit or _run_now)(_hidden_backward, params.radial, g, p,
                         cache["radial"])
    return grad_f
