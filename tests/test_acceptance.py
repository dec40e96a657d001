"""End-to-end acceptance run: nine checks, one visible verdict line each.

Each test prints a single ``A<n> PASS/FAIL`` line with the measured numbers
so the whole gate can be audited from the pytest log.  Run with ``-v`` (or
``-s`` to see the lines on success); everything here sticks to one CPU core.

The heavier items reuse the artifacts of the first one (a trained checkpoint
on the bundled synthetic dataset).  If that training test ever breaks, the
dependents fall back to a freshly initialized checkpoint so the failures
stay localized.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from infgcn import basis, cli, dataio, geometry, grad, graphon, layers, model, so3
from oracles import overlap_integral_numeric

_ART = {}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance"))


def _report(tag, ok, detail):
    line = "%s %s  %s" % (tag, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def _opt(lr=5e-3):
    return {"method": "adaptive-moments", "lr": lr,
            "patience": 10, "decay_factor": 0.5}


def _eval_artifacts(workdir):
    """A1's trained checkpoint, or a random-init stand-in if A1 broke."""
    if "checkpoint" not in _ART:
        data_dir = os.path.join(workdir, "fallback_data")
        out_dir = os.path.join(workdir, "fallback_out")
        dataio.make_synthetic_dataset(data_dir, n_records=1, seed=101,
                                      n_atoms=3, shape=(12, 12, 12))
        os.makedirs(out_dir, exist_ok=True)
        mcfg = model.ModelConfig()
        ckpt = os.path.join(out_dir, "fallback.ckpt")
        model.save_checkpoint(model.init_params(mcfg, seed=2,
                                                zero_heads=False), ckpt)
        _ART["cfg"] = cli.RunConfig(dataset=data_dir, out_dir=out_dir,
                                    model=mcfg, optimizer=_opt())
        _ART["checkpoint"] = ckpt
    return _ART["cfg"], _ART["checkpoint"]


def test_a1_training_surrogate(workdir):
    # Default model on the bundled 5-atom 24^3 synthetic record; the bar is
    # NMAE < 5% of the generator's ground truth within 500 steps / 10 min.
    data_dir = os.path.join(workdir, "a1_data")
    out_dir = os.path.join(workdir, "a1_out")
    dataio.make_synthetic_dataset(data_dir, n_records=1, seed=101)
    cfg = cli.RunConfig(dataset=data_dir, out_dir=out_dir,
                        model=model.ModelConfig(), optimizer=_opt(),
                        train_sample=1024, inf_sample=4096, batch_size=1,
                        n_iter=200, val_every=50, seed=7)
    t0 = time.monotonic()
    rep = cli.cmd_train(cfg, deterministic=True)
    ev = cli.cmd_eval(cfg, rep["checkpoint"], deterministic=True)
    wall = time.monotonic() - t0
    _ART["cfg"] = cfg
    _ART["checkpoint"] = rep["checkpoint"]
    nm = ev["aggregate_nmae"]
    _report("A1", nm < 5.0 and rep["steps"] <= 500 and wall < 600.0,
            "nmae=%.3f%% (<5%%) steps=%d (<=500) wall=%.0fs (<600)"
            % (nm, rep["steps"], wall))


def test_a1_checkpoint_decodes_from_its_checked_table(workdir):
    # a trained residual radial net, not only an initial one, passes its
    # decode table's check, so eval's large batches take the table
    _, ckpt = _eval_artifacts(workdir)
    radial = model.load_checkpoint(ckpt).residual.radial
    r = np.linspace(0.0, radial.cutoff, 4 * 4096 + 1)  # every interval edge
    coef, _ = layers._decode_table(radial)
    assert coef is not None  # no fallback
    order, T, runs = layers._table_eval(radial.cutoff / layers._K, r)
    got = np.empty((r.size, radial.out_dim))
    for i, lo, hi in runs:
        got[order[lo:hi]] = T[lo:hi] @ coef[i]
    exact = layers.radial_forward(radial, r, cache={})
    assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()


def test_a2_equivariance(workdir):
    # Two branches: rotate inputs vs. predict-then-compare, 20 random
    # rotations on a randomly initialized default model; plus NMAE under an
    # analytic rotation of a whole record, which must match the unrotated
    # evaluation to within reporting precision.
    rep = cli.cmd_equivariance_check(model.ModelConfig(), seed=0)
    dev = rep["max_rel_deviation"]
    cfg, ckpt = _eval_artifacts(workdir)
    base = cli.cmd_eval(cfg, ckpt, deterministic=True)["aggregate_nmae"]
    rot = cli.cmd_eval(cfg, ckpt, rotated=True, resample=False, seed=5,
                       deterministic=True)["aggregate_nmae"]
    diff = abs(rot - base)
    _report("A2", dev < 1e-7 and diff < 1e-6,
            "max_rel_dev=%.2e (<1e-7, %d rotations)  nmae_drift=%.2e (<1e-6)"
            % (dev, rep["n_rotations"], diff))


def test_a3_gradient_check():
    # Central differences against the hand-written adjoints over 200 sampled
    # parameters of the full default model.
    t0 = time.monotonic()
    rep = cli.cmd_gradcheck(model.ModelConfig(), seed=0, n_sampled=200)
    wall = time.monotonic() - t0
    err = rep["max_rel_error"]
    _report("A3", rep["n_sampled"] >= 200 and err < 1e-4 and wall < 300.0,
            "n=%d max_rel_err=%.2e (<1e-4) wall=%.0fs (<300)"
            % (rep["n_sampled"], err, wall))


def test_a4_so3_algebra():
    rng = np.random.default_rng(41)
    hom = 0.0
    for _ in range(8):
        r1, r2 = so3.random_rotation(rng), so3.random_rotation(rng)
        b12 = so3.wigner_blocks(7, r1 @ r2)
        b1 = so3.wigner_blocks(7, r1)
        b2 = so3.wigner_blocks(7, r2)
        hom = max(hom, max(np.abs(b12[l] - b1[l] @ b2[l]).max()
                           for l in range(8)))

    rot_id = 0.0
    for _ in range(5):
        rr = so3.random_rotation(rng)
        v = rng.standard_normal((32, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        y = so3.eval_real_sh(7, v)
        yr = so3.eval_real_sh(7, v @ rr.T)
        blocks = so3.wigner_blocks(7, rr)
        for l in range(8):
            sl = so3.block_slice(l)
            rot_id = max(rot_id,
                         np.abs(yr[:, sl] - y[:, sl] @ blocks[l].T).max())

    unit = 0.0
    for l in range(8):
        for k in range(8):
            for j in range(abs(l - k), l + k + 1):
                q = so3.cg_table(l, k, j).reshape(2 * j + 1, -1)
                unit = max(unit,
                           np.abs(q @ q.T - np.eye(2 * j + 1)).max())

    tp = 0.0
    for (l, k, j) in [(1, 1, 2), (2, 3, 4), (5, 7, 3), (7, 7, 14)]:
        a = rng.standard_normal((2, 2 * l + 1))
        b = rng.standard_normal((2, 2 * k + 1))
        rr = so3.random_rotation(rng)
        d = so3.wigner_blocks(max(l, k, j), rr)
        q = so3.cg_table(l, k, j)
        lhs = np.einsum("Mab,ca,cb->cM", q, a, b) @ d[j].T
        rhs = np.einsum("Mab,ca,cb->cM", q, a @ d[l].T, b @ d[k].T)
        tp = max(tp, np.abs(lhs - rhs).max())

    _report("A4", hom < 1e-9 and rot_id < 1e-9 and unit < 1e-10 and tp < 1e-9,
            "homomorphism=%.1e (<1e-9) rotation_id=%.1e (<1e-9) "
            "cg_unitarity=%.1e (<1e-10) tensor_prod=%.1e (<1e-9)"
            % (hom, rot_id, unit, tp))


def test_a5_basis_correctness():
    spec = basis.RadialBasisSpec.default()
    norms = spec.norm_table()
    norm_err = 0.0
    for n in range(spec.n_radial):
        a = spec.exponents[n]
        for l in range(spec.l_max + 1):
            c = norms[n, l]
            val, _ = quad(
                lambda r: (c * r ** l * math.exp(-a * r * r)) ** 2 * r * r,
                0.0, np.inf)
            norm_err = max(norm_err, abs(val - 1.0))

    # zero-displacement l=0 pair has a closed form in the two exponents
    spec6 = basis.RadialBasisSpec.default(l_max=2, n=6)
    overlap_err = 0.0
    for n1 in range(0, 6, 2):
        for n2 in range(1, 6, 2):
            a1, a2 = spec6.exponents[n1], spec6.exponents[n2]
            want = (2.0 * math.sqrt(a1 * a2) / (a1 + a2)) ** 1.5
            got = overlap_integral_numeric(
                spec6, (n1, 0, 0), (n2, 0, 0), np.zeros(3))
            overlap_err = max(overlap_err, abs(got - want))

    spec3 = basis.RadialBasisSpec.default(l_max=3, n=3)
    ortho_err = 0.0
    for l in (1, 2, 3):
        for m1 in range(-l, l + 1):
            for m2 in range(-l, l + 1):
                if m1 != m2:
                    ortho_err = max(ortho_err, abs(
                        overlap_integral_numeric(
                            spec3, (0, l, m1), (0, l, m2), np.zeros(3))))

    _report("A5",
            norm_err < 1e-6 and overlap_err < 1e-5 and ortho_err < 1e-6,
            "normalization=%.1e (<1e-6) overlap_vs_analytic=%.1e (<1e-5) "
            "m_orthogonality=%.1e (<1e-6)" % (norm_err, overlap_err,
                                              ortho_err))


def test_a6_graphon_lab():
    rep = graphon.graphon_demo_report(n_nodes=256, seed=0)
    c = rep["checks"]
    cheb = c["chebyshev_vs_spectral"]["max_diff"]
    pow2 = c["power2_vs_spectral"]["max_diff"]
    nys = c["nystrom_min_kernel"]["max_eig_error"]
    diag = c["coefficient_diag"]["max_diff"]
    ok = (rep["pass"] and cheb < 1e-8 and pow2 < 1e-8
          and nys < 1e-4 and diag < 1e-8)
    _report("A6", ok,
            "chebyshev=%.1e (<1e-8) power2=%.1e (<1e-8) "
            "nystrom@256=%.1e (<1e-4) coeff_diag=%.1e (<1e-8)"
            % (cheb, pow2, nys, diag))


def _train_small(mcfg, types, coords, grid, pts, vals, n_steps=250, k=512):
    params = model.init_params(mcfg, seed=0)
    graph = geometry.MolecularGraph.from_coords(types, coords, mcfg.cutoff)
    reg = grad.ParamRegistry(params)
    opt = grad.init_optimizer(reg, lr=5e-3)
    for step in range(1, n_steps + 1):
        qs = geometry.sample_queries(grid, k, (909, step))
        _, grads = grad.loss_and_grad(params, graph, qs.points, qs.targets)
        grad.optimize_step(opt, params, grads, reg)
    pred = np.zeros(len(pts))
    for lo in range(0, len(pts), 4096):
        sl = slice(lo, lo + 4096)
        pred[sl] = model.predict_density(params, graph, pts[sl])
    return float(np.mean((pred - vals) ** 2)), model.nmae(pred, vals)


def test_a7_ablation_directions(workdir):
    # Shared data, shared query stream, shared step budget; only the degree
    # cap (then the residual switch) moves.  Converged full-grid loss must
    # not increase with L, and the residual layer must not hurt NMAE.
    data_dir = os.path.join(workdir, "a7_data")
    stems = dataio.make_synthetic_dataset(data_dir, n_records=1, seed=55,
                                          n_atoms=3, shape=(16, 16, 16),
                                          l_max=3)
    types, coords, grid = dataio.load_record(os.path.join(data_dir, stems[0]))
    pts = geometry.grid_coordinates(grid).reshape(-1, 3)
    vals = grid.values.reshape(-1)

    losses = []
    for l_cap in (0, 1, 2, 3):
        mcfg = model.ModelConfig(l_max=l_cap, channels=16, n_layers=2)
        mse, _ = _train_small(mcfg, types, coords, grid, pts, vals)
        losses.append(mse)
    monotone = all(losses[i + 1] <= losses[i] for i in range(3))

    nm = {}
    for residual in (False, True):
        mcfg = model.ModelConfig(l_max=2, channels=16, n_layers=2,
                                 residual=residual)
        _, nm[residual] = _train_small(mcfg, types, coords, grid, pts, vals)
    no_harm = nm[True] <= nm[False]

    _report("A7", monotone and no_harm,
            "loss(L=0..3)=%s non-increasing=%s  nmae res/no-res="
            "%.2f%%/%.2f%% no-harm=%s"
            % (["%.3g" % v for v in losses], monotone,
               nm[True], nm[False], no_harm))


def test_a8_complexity_law():
    # Multiply counters on one fixed graph while only the degree cap moves;
    # totals must follow a + b*(L+1)^4 and the kernel matvec stage must hit
    # edges*channels*(L+1)^4 on the nose.
    rng = np.random.default_rng(3)
    coords = rng.uniform(-2.0, 2.0, size=(6, 3))
    types = np.array([0, 1, 2, 0, 1, 2])
    queries = rng.uniform(-2.0, 2.0, size=(8, 3))

    totals, matvec_exact = [], True
    n_edges = None
    for l_cap in range(1, 8):
        mcfg = model.ModelConfig(l_max=l_cap, channels=16, n_layers=1)
        params = model.init_params(mcfg, seed=0, zero_heads=False)
        graph = geometry.MolecularGraph.from_coords(types, coords,
                                                    mcfg.cutoff)
        n_edges = graph.n_edges
        ctr = layers.OpCounters()
        model.predict_density(params, graph, queries, counters=ctr)
        totals.append(float(sum(ctr.counts.values())))
        want = n_edges * mcfg.channels * (l_cap + 1) ** 4
        matvec_exact = matvec_exact and ctr.counts["matvec"] == want

    x = np.array([(l + 1) ** 4 for l in range(1, 8)], dtype=float)
    y = np.array(totals)
    design = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    r2 = 1.0 - (y - design @ coef).var() / y.var()
    _report("A8", r2 > 0.99 and matvec_exact,
            "R2=%.5f (>0.99, L=1..7, %d edges)  matvec==E*C*(L+1)^4: %s"
            % (r2, n_edges, matvec_exact))


def test_a9_evaluation_protocol(workdir):
    cfg, ckpt = _eval_artifacts(workdir)
    vals = []
    for k in (1000, 2048, 4096):
        c2 = dataclasses.replace(cfg, inf_sample=k)
        vals.append(cli.cmd_eval(c2, ckpt,
                                 deterministic=True)["aggregate_nmae"])
    spread = max(vals) - min(vals)
    rot = cli.cmd_eval(cfg, ckpt, rotated=True, resample=True, seed=9,
                       deterministic=True)
    pipeline_ok = (rot["rotated"] and rot["resampled"]
                   and rot["n_records"] == 1
                   and np.isfinite(rot["aggregate_nmae"]))
    _report("A9", spread < 1e-12 and pipeline_ok,
            "partition_spread=%.1e (<1e-12 over batch 1000/2048/4096)  "
            "rotated+resampled nmae=%.2f%% ran=%s"
            % (spread, rot["aggregate_nmae"], pipeline_ok))
