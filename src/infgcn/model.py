"""Full predictor: atom embeddings, stacked conv+gate layers, basis
expansion at query points, and the optional scalar residual correction.

The degree-l, channel-n feature of an atom doubles as the coefficient of
basis function psi_{nlm} centered on that atom, so the network output is
read off directly as a coefficient field and expanded with the shared
radial table. Densities are in electrons per Bohr^3 throughout.
"""
import json
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import basis, dataio, geometry, layers, schema, so3
from .errors import DomainError, NonFiniteError

_MAGIC = b"INFGCN1\n"
# the most parameters a config may ask for: one flat vector is then 800 MB,
# and training holds four (parameters, gradient, Adam's two moments)
_MAX_PARAMS = 10**8
# the highest degree cap: a cold `layers.conv_plan` grows about as L^4 and
# took 1.4-1.7 s at L = 20 (one process, BLAS on 1 thread, 2-vCPU VM)
_MAX_L = 20


@dataclass(frozen=True)
class ModelConfig:
    """The model's hyperparameters, each checked on construction."""
    l_max: int = schema.spec(7, low=0, what="an integer >= 0")
    channels: int = schema.spec(16, low=1)
    n_layers: int = schema.spec(3, low=1)
    cutoff: float = schema.spec(3.0, low=0)
    vocab: int = schema.spec(5, low=1)
    residual: bool = schema.spec(True)
    mode: str = schema.spec("channel", choices=layers.CONV_MODES)
    act0: str = schema.spec("silu", choices=layers.ACTIVATIONS)
    act_l: str = schema.spec("silu", choices=layers.ACTIVATIONS)
    r_min: float = schema.spec(0.5, low=0)
    r_max: float = schema.spec(5.0, low=0)
    spacing: str = schema.spec("linear", choices=basis.SPACINGS)

    def __post_init__(self):
        schema.check(self, DomainError)
        basis.make_exponents(self.r_min, self.r_max, 2)  # r_min < r_max
        if self.l_max > _MAX_L:
            raise DomainError(f"l_max must be at most {_MAX_L}, got "
                              f"{self.l_max}")
        if self.n_params() > _MAX_PARAMS:
            raise DomainError("l_max, channels, n_layers, vocab and mode ask "
                              f"for over {_MAX_PARAMS:,} parameters")

    def n_params(self):
        """The flat parameter count `init_params` lays out, from the sizes
        alone: no array or path list is built."""
        L, C = self.l_max, self.channels
        paths = (L + 1) ** 2 + L * (L + 1) * (2 * L + 1) // 3  # make_paths

        e, h = layers.RadialNetParams.N_EMBED, layers.RadialNetParams.HIDDEN

        def radial(out):  # init_radial_net: e -> h -> h -> out
            return e * h + h * h + 2 * h + (h + 1) * out

        per_path = C if self.mode == "channel" else C * C
        return (self.vocab * C
                + self.n_layers * (radial(paths * per_path) + (L + 1) * C)
                + self.residual * radial((L + 1) * C))

    def basis_spec(self):
        return basis.RadialBasisSpec(
            basis.make_exponents(self.r_min, self.r_max, self.channels,
                                 self.spacing),
            self.l_max)


@dataclass
class ModelParams:
    config: ModelConfig
    embed: np.ndarray  # (vocab, channels), degree-0 initial features
    convs: list
    residual: object  # ResidualParams or None
    flat: np.ndarray = field(default=None, repr=False)  # arrays view it

    def slots(self):
        """``(name, owner, attribute)`` of each trainable array, in order."""
        out = [("embed", self, "embed")]
        for i, cp in enumerate(self.convs):
            out.extend(cp.slots(f"conv{i}"))
        if self.residual is not None:
            out.extend(self.residual.slots("residual"))
        return out

    def named_arrays(self):
        return [(name, getattr(owner, attr))
                for name, owner, attr in self.slots()]


class ParamRegistry:
    """The layout of the flat parameter vector: each trainable array's name,
    shape and offset, in ``named_arrays`` order. Parameters, gradients,
    optimizer moments and the checkpoint blob all share it.
    """

    def __init__(self, params):
        named = params.named_arrays()
        self.names = [name for name, _ in named]
        self.shapes = [a.shape for _, a in named]
        self.offsets = np.cumsum([0] + [a.size for _, a in named]).tolist()
        self.n_params = self.offsets.pop()

    def views(self, vec):
        """Per-name views of a vector in this layout."""
        ends = self.offsets[1:] + [self.n_params]
        return {name: vec[lo:hi].reshape(shape) for name, shape, lo, hi
                in zip(self.names, self.shapes, self.offsets, ends)}

    def flatten(self, params):
        """A copy of the parameter vector."""
        return params.flat.copy()

    def unflatten(self, params, flat):
        """Write ``flat`` into the parameter vector, which every array
        views; nothing is rebound."""
        params.flat[...] = geometry.check_array("flat", flat, (self.n_params,))
        return params

    def slot_of(self, index):
        """Name and within-array offset for a flat index."""
        if not 0 <= index < self.n_params:
            raise DomainError("flat index out of range")
        pos = np.searchsorted(self.offsets, index, side="right") - 1
        return self.names[pos], index - self.offsets[pos]


def init_params(config, seed=0, zero_heads=True):
    params = _build(config, np.random.default_rng(seed), zero_heads)
    return bind(params, np.concatenate([a.ravel()
                                        for _, a in params.named_arrays()]))


class _NoDraws:
    """A random generator for shapes alone: its draws and its zeros (for
    ``layers.init_radial_net``'s zero heads) are broadcast 0s, so building
    parameters from it allocates nothing large."""

    def zeros(self, shape):
        return np.broadcast_to(0.0, shape)

    def uniform(self, low, high, size):
        return self.zeros(size)

    standard_normal = zeros


def _build(config, rng, zero_heads):
    """The parameters, their random arrays drawn from ``rng``."""
    embed = rng.standard_normal((config.vocab, config.channels))
    convs = [layers.init_conv_layer(rng, config.l_max, config.channels,
                                    config.cutoff, mode=config.mode,
                                    zero_head=zero_heads)
             for _ in range(config.n_layers)]
    res = (layers.init_residual_layer(rng, config.l_max, config.channels,
                                      config.cutoff, zero_head=zero_heads)
           if config.residual else None)
    return ModelParams(config=config, embed=embed, convs=convs, residual=res)


def bind(params, flat):
    """A copy of ``params`` whose trainable arrays view ``flat``, a vector
    in its `ParamRegistry` layout. Only ``params`` and its layer and radial
    net objects are copied; fixed arrays, such as the radial embedding's
    centers, are shared."""
    def twin(layer):
        return replace(layer, radial=replace(layer.radial))

    out = replace(
        params, convs=[twin(cp) for cp in params.convs], flat=flat,
        residual=None if params.residual is None else twin(params.residual))
    views = ParamRegistry(out).views(flat)
    for name, owner, attr in out.slots():
        setattr(owner, attr, views[name])
    return out


def init_features(params, atom_types):
    """Isotropic initial features, (U, channels, (l_max+1)**2): embeddings
    on degree 0, zeros above."""
    types = geometry.check_atom_types(atom_types)
    cfg = params.config
    if np.any(types >= cfg.vocab):
        raise DomainError("atom type outside the embedding vocabulary")
    f = np.zeros((types.size, cfg.channels, so3.num_sh(cfg.l_max)))
    f[:, :, 0] = params.embed[types]
    return f


def _check_finite(a, op_name):
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"non-finite values produced by {op_name}")


def _encode(params, graph, counters, keep):
    """Embeddings, then conv + gate per layer: the coefficient field, and
    each layer's input, pre-gate output and (with ``keep``) conv cache."""
    cfg = params.config
    f = init_features(params, graph.atom_type)
    pre_conv, pre_gate, conv_caches = [], [], []
    for i, cp in enumerate(params.convs):
        pre_conv.append(f)
        conv_caches.append({} if keep else None)
        h = layers.conv_forward(graph, f, cp, counters, cache=conv_caches[i])
        _check_finite(h, f"conv_forward[{i}]")
        pre_gate.append(h)
        f = layers.gate_forward(h, cfg.act0, cfg.act_l)
    return f, {"pre_conv": pre_conv, "pre_gate": pre_gate,
               "conv_caches": conv_caches}


def _forward(params, graph, queries, counters, keep, coeffs=None,
             submit=None):
    """Encode unless ``coeffs`` is given, then decode at ``queries``. With
    ``keep`` each layer that has an adjoint fills a cache for it; ``submit``
    is `forward_trace`'s."""
    cfg = params.config
    queries = geometry.check_array("queries", queries, (None, 3), finite=True)
    spec, centers = cfg.basis_spec(), graph.atom_coord
    filled = ahead = None
    if submit is not None:  # the worker fills buffers allocated here
        filled = submit(basis._fill_chunks, spec, centers, queries, list(
            basis._factor_chunks(spec, centers, queries, fill=False)))
        if params.residual is not None:
            ahead = submit(layers._residual_pairs, queries, centers,
                           params.residual, counters, keep)
    if coeffs is None:
        coeffs, trace = _encode(params, graph, counters, keep)
    else:  # expand_density rejects a misshapen coeffs, naming it
        coeffs, trace = np.asarray(coeffs, dtype=float), {}
        if not np.all(np.isfinite(coeffs)):
            raise NonFiniteError("coeffs holds non-finite values")
    basis_cache, residual_cache = ({}, {}) if keep else (None, None)
    dens = basis.expand_density(
        spec, coeffs, centers, queries, cache=basis_cache,
        chunks=None if filled is None else filled.result())
    _check_finite(dens, "expand_density")
    if params.residual is not None:
        pairs = None if ahead is None else ahead.result()
        z = layers.residual_forward(queries, centers, coeffs, params.residual,
                                    counters, cache=residual_cache,
                                    pairs=pairs)
        _check_finite(z, "residual_forward")
        dens = dens + z
    trace.update(coeffs=coeffs, queries=queries, spec=spec,
                 basis_cache=basis_cache, residual_cache=residual_cache)
    return dens, trace


def encode(params, graph, counters=None):
    """The network's coefficient field, (U, channels, (l_max+1)**2): the
    graph layers alone, which never see a query. Pass it as ``coeffs`` to
    `predict_density` to decode any number of query batches."""
    return _encode(params, graph, counters, keep=False)[0]


def forward_trace(params, graph, queries, counters=None, submit=None):
    """Encode and decode, keeping in the trace each layer's input,
    pre-gate output and cache for `grad.loss_and_grad`, whose ``submit``
    this takes."""
    return _forward(params, graph, queries, counters, keep=True,
                    submit=submit)


def predict_density(params, graph, queries, counters=None, coeffs=None):
    """Densities at ``queries``, keeping no caches. With ``coeffs`` from
    `encode` only the decode runs; without, the graph is encoded first."""
    dens, _ = _forward(params, graph, queries, counters, keep=False,
                       coeffs=coeffs)
    return dens


def loss_l2(pred, target, volume_weight=1.0):
    """Weighted squared-error loss, a Monte-Carlo estimate of the L2 norm."""
    pred = np.asarray(pred, dtype=float)
    target = geometry.check_array("target", target, pred.shape)
    w = np.asarray(volume_weight, dtype=float)
    return float(np.sum(w * (pred - target) ** 2))


def nmae(pred, target):
    """Sum |pred - target| / sum |target|, reported as a percentage."""
    pred = np.asarray(pred, dtype=float)
    target = geometry.check_array("target", target, pred.shape)
    abs_target = float(np.sum(np.abs(target)))
    if abs_target == 0.0:
        raise DomainError("NMAE undefined for an all-zero target")
    return 100.0 * float(np.sum(np.abs(pred - target))) / abs_target


def save_checkpoint(params, path):
    """Magic line, JSON header, then a little-endian float64 blob, written
    through `dataio.replace_file`: a crash leaves the previous checkpoint
    intact, and an ``OSError`` becomes a DomainError naming ``path``."""
    header = {
        "config": asdict(params.config),
        "arrays": [[name, list(a.shape)] for name, a in params.named_arrays()],
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    with dataio.replace_file(path, "checkpoint", "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(hbytes)))
        fh.write(hbytes)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8"))


def load_checkpoint(path):
    with dataio.open_file(path, "checkpoint", "rb", DomainError) as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise DomainError("not a model checkpoint (bad magic)")
        raw = fh.read(4)
        if len(raw) != 4:
            raise DomainError("checkpoint truncated in the header length")
        try:
            header = json.loads(fh.read(struct.unpack("<I", raw)[0]).decode())
        except ValueError:  # undecodable bytes or malformed JSON
            header = None
        if not isinstance(header, dict):
            raise DomainError("checkpoint header JSON is not a valid object")
        try:
            config, layout = header["config"], header["arrays"]
        except KeyError as exc:
            raise DomainError(f"checkpoint header has no {exc}") from None
        cfg = schema.from_dict(ModelConfig, config,
                               lambda msg: DomainError(f"checkpoint: {msg}"))
        skeleton = _build(cfg, _NoDraws(), zero_heads=True)
        want = [[name, list(a.shape)] for name, a in skeleton.named_arrays()]
        if layout != want:
            raise DomainError("checkpoint layout does not match its config")
        params = bind(skeleton, np.empty(ParamRegistry(skeleton).n_params))
        blob = params.flat.view(np.uint8)  # read in place, no bytes copy
        if fh.readinto(blob) != blob.size:
            raise DomainError("checkpoint truncated")
        if params.flat.dtype != np.dtype("<f8"):  # a big-endian host
            params.flat.byteswap(inplace=True)
        if fh.read(1):
            raise DomainError("trailing bytes after checkpoint blob")
    return params


def equivariance_report(params, graph, queries, seed=0):
    """The worst pointwise deviation, relative to the prediction's scale,
    over 20 rotations from ``seed`` of atoms and queries about the queries'
    centroid."""
    rng = np.random.default_rng(seed)
    rotations = [so3.random_rotation(rng) for _ in range(20)]
    queries = np.asarray(queries, dtype=float)
    c = queries.mean(axis=0)
    base = predict_density(params, graph, queries)
    scale = max(float(np.abs(base).max()), 1e-12)
    worst = 0.0
    for R in rotations:
        coords_r = c + (graph.atom_coord - c) @ R.T
        graph_r = type(graph).from_coords(graph.atom_type, coords_r,
                                          graph.cutoff)
        queries_r = c + (queries - c) @ R.T
        rot = predict_density(params, graph_r, queries_r)
        worst = max(worst, float(np.abs(rot - base).max()) / scale)
    return {"n_rotations": len(rotations), "max_rel_deviation": worst}
