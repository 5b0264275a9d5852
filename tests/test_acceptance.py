"""Acceptance suite: nine numbered end-to-end criteria, one pass/fail line each.

Each test exercises a full slice of the package — analytic gradients, solver
exactness, generative quality on a toy density, reflow straightening, latent
round-trips, metric implementations against independent oracles, multichain
coupling, and command-line determinism — and reports a single CRITERION line
with its pinned tolerances via the shared `criterion` fixture.
"""

import contextlib
import functools
import io
import itertools
import math
import time

import numpy as np
import pytest

from protflow import cli, kernels, latent
from protflow.checkpoint import file_sha256, load_checkpoint, save_checkpoint
from protflow.config import solver_config
from protflow.flow import (
    VectorFieldConfig,
    VectorFieldModel,
    cfm_loss,
    flow_forward,
    init_flow_model,
    reflow_pairs,
    rf_interpolate,
    straightness,
    train_reflow,
    train_rf,
)
from protflow.latent import (
    compressor_loss_and_grad,
    decoder_loss_and_grad,
    init_compressor,
    init_decoder,
)
from protflow.metrics import (
    frechet_distance,
    mmd_rbf,
    ot_levenshtein,
    pseudoperplexity,
    w_property,
)
from protflow.multichain import ChainLayout, ChainSpec, split_latents
from protflow.numeric import RngStream, grad_check, mean_cov, psd_sqrt
from protflow.ode import solve
from protflow.seqio import AMINO_ACIDS, read_fasta, tokenize


def _solver(**settings):
    """The SolverConfig of settings, and config.SCHEMA's default for each other one."""
    return solver_config({"solver." + name: value for name, value in settings.items()})


def _own_rows(data):
    """A raw (N, L, W) dataset as train_rf's keys and table: its own rows."""
    n, length, width = data.shape
    return np.arange(n * length).reshape(n, length), data.reshape(-1, width)


# --- criterion 1: analytic gradients vs central finite differences ------------------

def _perturb(params, rng, scale=0.05):
    return {k: v + scale * rng.substream(k).normal(v.shape) for k, v in params.items()}


def test_criterion_1_gradients(criterion):
    t_start = time.time()
    tol = 1e-4

    # Rectified-flow training loss, batch 2, channel width 8.
    cfg = VectorFieldConfig(2, 8, 16, attention=False, seq_len=None)
    flow_params = _perturb(init_flow_model(cfg, RngStream(11)).params,
                           RngStream(11).substream("perturb"))
    gen = np.random.default_rng(12)
    x0 = gen.normal(size=(2, 3, 8))
    x1 = gen.normal(size=(2, 3, 8))
    t = gen.uniform(size=2)
    err_flow = grad_check(lambda p: cfm_loss(VectorFieldModel(cfg, p), x0, x1, t),
                          flow_params)

    # Decoder cross-entropy, 2 latent rows of width 8.
    dec_params = _perturb(init_decoder(8, 16, RngStream(13)),
                          RngStream(13).substream("perturb"))
    h = gen.normal(size=(2, 8))
    targets = gen.integers(0, 20, size=2)
    err_dec = grad_check(lambda p: decoder_loss_and_grad(p, h, targets), dec_params)

    # Compressor reconstruction MSE, 2 rows of width 8 at channel ratio 2.
    comp_params = _perturb(init_compressor(8, 2, RngStream(14)),
                           RngStream(14).substream("perturb"))
    batch = gen.normal(size=(2, 8))
    err_comp = grad_check(lambda p: compressor_loss_and_grad(p, batch), comp_params)

    seconds = time.time() - t_start
    passed = err_flow < tol and err_dec < tol and err_comp < tol and seconds < 60.0
    criterion(
        1,
        passed,
        f"max rel grad err: flow {err_flow:.2e}, decoder {err_dec:.2e}, "
        f"compressor {err_comp:.2e} (tol 1e-4); {seconds:.1f}s < 60s",
    )


# --- criterion 2: interpolation endpoints and planted-field recovery ----------------


def test_criterion_2_interpolation_and_planted_field(criterion):
    stream = RngStream(2)
    x0 = stream.substream("x0").normal((4, 5, 3))
    x1 = stream.substream("x1").normal((4, 5, 3))
    endpoints_exact = np.array_equal(rf_interpolate(x0, x1, 0.0), x0) and np.array_equal(
        rf_interpolate(x0, x1, 1.0), x1
    )

    # eps and target both lie in [1, 2), so eps - target is exact (same binade)
    # and eps - (eps - target) == target bitwise: one unit-step Euler update of
    # the constant field v = eps - target must land on the target exactly.
    eps = 1.0 + stream.substream("eps").uniform((6, 3, 2))
    target = 1.0 + stream.substream("target").uniform((6, 3, 2))

    def planted(x, t):
        return np.broadcast_to(eps - target, x.shape)

    res = solve(planted, eps, _solver(method="euler", steps=1))
    recovered_exact = np.array_equal(res.x0, target) and res.nfe == 1

    criterion(
        2,
        endpoints_exact and recovered_exact,
        f"endpoints bitwise {endpoints_exact}; one Euler step recovers planted target "
        f"bitwise {recovered_exact} (nfe {res.nfe})",
    )


# --- criterion 3: solver accuracy and evaluation accounting -------------------------


def test_criterion_3_solver_accuracy_and_nfe(criterion):
    gen = np.random.default_rng(33)

    # dx/dt = x from t=1 to t=0 has the closed form x(0) = x(1) * e^{-1}.
    x1 = gen.normal(size=(4, 3))
    res_ad = solve(
        lambda x, t: x, x1, _solver(method="dopri5-adaptive", atol=1e-8, rtol=1e-8)
    )
    exp_err = float(np.max(np.abs(res_ad.x0 - x1 * math.exp(-1.0))))

    # A fifth-order step integrates any quartic-in-t field exactly.
    def quartic(x, t):
        return np.full_like(x, 3.0 * t**4 - 2.0 * t**3 + t**2 - t + 0.5)

    integral = 3.0 / 5.0 - 2.0 / 4.0 + 1.0 / 3.0 - 1.0 / 2.0 + 0.5
    x1p = gen.normal(size=(2, 3))
    res_poly = solve(quartic, x1p, _solver(method="dopri5-fixed", steps=1))
    poly_err = float(np.max(np.abs(res_poly.x0 - (x1p - integral))))

    res_euler = solve(lambda x, t: x, x1, _solver(method="euler", steps=7))
    res_fixed = solve(lambda x, t: x, x1, _solver(method="dopri5-fixed", steps=4))
    nfe_ok = res_poly.nfe == 6 and res_euler.nfe == 7 and res_fixed.nfe == 24

    passed = exp_err < 1e-7 and poly_err < 1e-12 and nfe_ok
    criterion(
        3,
        passed,
        f"adaptive e^-1 err {exp_err:.2e} < 1e-7; one-step quartic err {poly_err:.2e} "
        f"< 1e-12; nfe euler {res_euler.nfe}==7, one-step {res_poly.nfe}==6, "
        f"fixed {res_fixed.nfe}==24",
    )


# --- criteria 4 and 5: toy two-mode density, then reflow straightening --------------


@pytest.fixture(scope="module")
def toy2d():
    """Train one rectified-flow model on a planar two-Gaussian mixture.

    Shared by the density criterion (25-step samples) and the reflow criterion
    (couplings, straightness, one-step samples), so the base model trains once.
    """
    t_start = time.time()
    rng = RngStream(42)
    sigma, mu, k_rounds = 0.3, 2.0, 5

    def draw_mixture(stream, n):
        comp = stream.substream("comp").integers(0, 2, size=n)
        noise = stream.substream("noise").normal((n, 2)) * sigma
        means = np.where(comp[:, None] == 0, -mu, mu) * np.array([1.0, 0.0])
        return means + noise

    held = draw_mixture(rng.substream("held"), 512)
    base = float(
        np.mean(
            [mmd_rbf(draw_mixture(rng.substream(f"base-{j}"), 512), held) for j in range(k_rounds)]
        )
    )

    train = draw_mixture(rng.substream("train"), 4096)[:, None, :]
    cfg = VectorFieldConfig(depth=4, width=2, hidden=64, attention=False, seq_len=None)
    model = init_flow_model(cfg, rng.substream("model-42"))
    model, _ = train_rf(
        model, *_own_rows(train), RngStream(42), steps=20000, batch=64, lr=1e-3, lr_min=5e-5,
        warmup=500, weight_decay=0.01, clip=1.0,
    )

    def mean_mmd(m, tag, method, steps):
        vals = []
        for j in range(k_rounds):
            z1 = rng.substream(f"gen-{tag}-{j}").normal((512, 1, 2))

            def field(x, t):
                return flow_forward(m, x, np.full(x.shape[0], t))

            pts = solve(field, z1, _solver(method=method, steps=steps)).x0[:, 0, :]
            vals.append(float(mmd_rbf(pts, held)))
        return float(np.mean(vals))

    pre25 = mean_mmd(model, "pre25", "dopri5", 25)
    return {
        "rng": rng,
        "base": base,
        "model": model,
        "mean_mmd": mean_mmd,
        "pre25": pre25,
        "seconds": time.time() - t_start,
    }


def test_criterion_4_two_mode_density(toy2d, criterion):
    base, pre25, seconds = toy2d["base"], toy2d["pre25"], toy2d["seconds"]
    passed = pre25 < 3.0 * base and seconds < 600.0
    criterion(
        4,
        passed,
        f"25-step sample mmd {pre25:.6f} < 3x held-out baseline {3.0 * base:.6f} "
        f"(ratio {pre25 / base:.2f}); {seconds:.0f}s < 600s",
    )


def test_criterion_5_reflow_straightens(toy2d, criterion):
    t_start = time.time()
    model, rng, pre25 = toy2d["model"], toy2d["rng"], toy2d["pre25"]

    solver = _solver(method="dopri5", steps=25)
    z0, z1 = reflow_pairs(model, solver, 2048, rng.substream("pairs"))
    s_before = straightness(model, z0, z1)
    model2, _ = train_reflow(
        model, z0, z1, RngStream(43), steps=4000, batch=64, lr=5e-4, lr_min=1e-4, warmup=100,
        weight_decay=0.01, clip=1.0,
    )
    s_after = straightness(model2, z0, z1)
    post1 = toy2d["mean_mmd"](model2, "post1", "euler", 1)

    seconds = time.time() - t_start
    passed = s_after < s_before and post1 <= 2.0 * pre25 and seconds < 600.0
    criterion(
        5,
        passed,
        f"straightness {s_before:.4f} -> {s_after:.4f} (strict decrease {s_after < s_before}); "
        f"1-step mmd {post1:.6f} <= 2x 25-step {2.0 * pre25:.6f}; {seconds:.0f}s < 600s",
    )


# --- criterion 6: token round-trips through the full latent stack -------------------


def test_criterion_6_round_trip(criterion):
    t_start = time.time()
    rng = RngStream(6)
    n, l_max, dim = 5000, 50, 64
    lengths = rng.substream("lengths").integers(2, 51, size=n)
    residues = rng.substream("residues").integers(0, 20, size=(n, l_max))
    texts = ["".join(AMINO_ACIDS[j] for j in residues[i, : lengths[i]]) for i in range(n)]
    toks = tokenize(texts, l_max)

    enc = latent.init_encoder(dim, rng.substream("encoder"), embed_scale=10.0, embed_rank=4)
    dec = latent.init_decoder(dim, 64, rng.substream("decoder-init"))
    dec, _ = latent.train_decoder(
        dec, enc, toks, rng.substream("decoder"), steps=600, batch=48, lr=2e-3, lr_min=1e-5,
        warmup=30, weight_decay=0.001, clip=1.0,
    )

    rows = latent.encode_corpus(toks, enc).reshape(-1, dim)
    sm = latent.fit_smoothing(rows)
    smoothed = latent.smooth(rows, sm)

    # Inverse check away from the clamp and off constant dimensions.
    std = np.where(sm["std"] == 0.0, 1.0, sm["std"])
    z = np.abs((rows - sm["mean"]) / std)
    off_clamp = (z < latent.CLAMP_K) & (sm["constant"] == 0.0)[None, :]
    inv_err = float(np.max(np.abs(latent.unsmooth(smoothed, sm) - rows)[off_clamp]))

    accs = {}
    for c in (1, 4, 16):
        comp = latent.init_compressor(dim, c, rng.substream(f"comp-init-{c}"))
        comp, _ = latent.train_compressor(
            comp,
            np.arange(len(smoothed)),
            smoothed,
            rng.substream(f"comp-{c}"),
            steps=1500,
            batch=256,
            lr=3e-3,
            lr_min=1e-4,
            warmup=100,
            weight_decay=0.0,
            clip=1.0,
        )
        pipe = latent.LatentPipeline(enc, dec, sm, comp)
        hits = total = 0
        for row, h_c, n in zip(toks, pipe.latent_table(l_max)[latent.table_keys(toks)], lengths):
            out = pipe.latent_to_sequence(h_c, n)
            hits += int((out == row[:n]).sum())
            total += int(n)
        accs[c] = hits / total

    seconds = time.time() - t_start
    passed = all(a >= 0.99 for a in accs.values()) and inv_err < 1e-6 and seconds < 900.0
    criterion(
        6,
        passed,
        f"round-trip accuracy c1={accs[1]:.4f} c4={accs[4]:.4f} c16={accs[16]:.4f} "
        f"(floor 0.99); smoothing inverse err {inv_err:.2e} < 1e-6; {seconds:.0f}s < 900s",
    )


# --- criterion 7: metric implementations vs independent oracles ---------------------


@functools.lru_cache(maxsize=None)
def _lev_recursive(a, b):
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        _lev_recursive(a[1:], b) + 1,
        _lev_recursive(a, b[1:]) + 1,
        _lev_recursive(a[1:], b[1:]) + (a[0] != b[0]),
    )


def _naive_mmd(x, y, sigma):
    n = x.shape[0]
    gamma = 1.0 / (2.0 * sigma * sigma)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += math.exp(-gamma * float(((x[i] - x[j]) ** 2).sum()))
            total += math.exp(-gamma * float(((y[i] - y[j]) ** 2).sum()))
            total -= 2.0 * math.exp(-gamma * float(((x[i] - y[j]) ** 2).sum()))
    return total / (n * n)


def test_criterion_7_metric_oracles(criterion):
    # Edit distance: dynamic program vs memoized recursive definition over every
    # ordered pair of strings of length <= 5 on a 3-letter alphabet.
    strings = [""]
    for length in range(1, 6):
        strings.extend("".join(p) for p in itertools.product("ACD", repeat=length))
    edit_ok = all(
        kernels.levenshtein(a, b) == _lev_recursive(a, b) for a in strings for b in strings
    )
    n_pairs = len(strings) ** 2

    # Assignment distance: exact solver vs brute-force permutation minimum.
    gen = np.random.default_rng(77)

    def rand_seq():
        length = int(gen.integers(1, 9))
        return "".join(AMINO_ACIDS[k] for k in gen.integers(0, 20, size=length))

    ot_err = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 7))
        batch_a = [rand_seq() for _ in range(n)]
        batch_b = [rand_seq() for _ in range(n)]
        cost = [[kernels.levenshtein(a, b) for b in batch_b] for a in batch_a]
        best = min(
            sum(cost[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n))
        )
        ot_err = max(ot_err, abs(ot_levenshtein(batch_a, batch_b) - best / n))
    ot_ok = ot_err == 0.0

    # Frechet distance: moment-planted batches vs closed forms. Standardizing by
    # the fitted moments plants the sample mean and covariance exactly.
    raw1 = np.random.default_rng(701).normal(size=(256, 1))
    mu1, cov1 = mean_cov(raw1)
    z1 = (raw1 - mu1) / np.sqrt(cov1[0, 0])
    fd1_err = abs(frechet_distance(z1, 0.8 + 1.5 * z1) - (0.8**2 + 0.5**2))

    raw3 = np.random.default_rng(702).normal(size=(512, 3))
    mu3, cov3 = mean_cov(raw3)
    white = (raw3 - mu3) @ np.linalg.inv(psd_sqrt(cov3))
    mean_a, var_a = np.array([0.0, 1.0, -0.5]), np.array([1.0, 0.25, 4.0])
    mean_b, var_b = np.array([0.5, 1.0, 0.5]), np.array([2.25, 1.0, 1.0])
    closed = float(((mean_a - mean_b) ** 2).sum() + ((np.sqrt(var_a) - np.sqrt(var_b)) ** 2).sum())
    fd3_err = abs(
        frechet_distance(white * np.sqrt(var_a) + mean_a, white * np.sqrt(var_b) + mean_b) - closed
    )
    fd_ok = fd1_err < 1e-8 and fd3_err < 1e-6

    # Kernel discrepancy: vectorized grams vs a literal double loop at the
    # median bandwidth.
    x = np.random.default_rng(703).normal(size=(24, 4))
    y = np.random.default_rng(704).normal(size=(24, 4)) * 1.3 + 0.2
    pool = np.vstack([x, y])
    dists = [
        math.sqrt(float(((pool[i] - pool[j]) ** 2).sum()))
        for i in range(pool.shape[0])
        for j in range(i + 1, pool.shape[0])
    ]
    mmd_err = abs(mmd_rbf(x, y) - _naive_mmd(x, y, float(np.median(dists))))
    mmd_ok = mmd_err < 1e-12

    # A uniform scorer assigns every residue probability 1/20.
    pppl_err = abs(pseudoperplexity(AMINO_ACIDS, np.full(20, 1.0 / 20.0)) - 20.0)
    pppl_ok = pppl_err <= 1e-12

    # Identical batches are at zero transport distance in every property.
    batch = ["ACDKLMW", "WYRSTV", "GHIKNPE", "MMQEF"]
    wp = w_property(batch, list(batch))
    wp_ok = wp == 0.0

    passed = edit_ok and ot_ok and fd_ok and mmd_ok and pppl_ok and wp_ok
    criterion(
        7,
        passed,
        f"edit exact on {n_pairs} pairs {edit_ok}; assignment err {ot_err:.1e} (exact); "
        f"frechet 1-d {fd1_err:.1e} < 1e-8, 3-d {fd3_err:.1e} < 1e-6; "
        f"mmd vs loop {mmd_err:.1e} < 1e-12; "
        f"uniform pseudoperplexity err {pppl_err:.1e} <= 1e-12; self transport {wp}",
    )


# --- criterion 8: multichain exactness and cross-chain coupling ---------------------


def test_criterion_8_multichain_coupling(criterion):
    t_start = time.time()

    # Concatenation and splitting must be exact inverses.
    layout = ChainLayout([ChainSpec("A", 7, None), ChainSpec("B", 4, None)])
    gen = np.random.default_rng(88)
    blocks = [gen.normal(size=(7, 3)), gen.normal(size=(4, 3))]
    joint = np.concatenate(blocks, axis=0)
    back = split_latents(joint, layout)
    exact = (
        np.array_equal(back[0], blocks[0])
        and np.array_equal(back[1], blocks[1])
        and np.array_equal(np.concatenate(back, axis=0), joint)
    )

    # Correlated scalar pair: one latent position per chain. A model trained on
    # the concatenated layout must reproduce the cross-chain correlation; models
    # trained per chain must show none.
    rho, n_train, n_gen = 0.8, 4096, 1024
    rng = RngStream(8)
    z1 = rng.substream("z1").normal((n_train,))
    z2 = rng.substream("z2").normal((n_train,))
    u = z1
    v = rho * z1 + np.sqrt(1.0 - rho * rho) * z2
    train_corr = float(np.corrcoef(u, v)[0, 1])
    pair_layout = ChainLayout([ChainSpec("u", 1, None), ChainSpec("v", 1, None)])
    joint_train = np.stack(
        [np.concatenate([[[u[i]]], [[v[i]]]], axis=0) for i in range(n_train)]
    )

    cfg = VectorFieldConfig(depth=4, width=1, hidden=64, attention=True, seq_len=2)
    model = init_flow_model(cfg, rng.substream("joint-init"))
    model, _ = train_rf(
        model, *_own_rows(joint_train), RngStream(80), steps=20000, batch=64, lr=1e-3, lr_min=5e-5,
        warmup=500, weight_decay=0.01, clip=1.0,
    )

    solver = _solver(method="dopri5", steps=25)

    def sample_latents(m, tag, positions):
        eps = rng.substream(tag).normal((n_gen, positions, 1))

        def field(x, t):
            return flow_forward(m, x, np.full(x.shape[0], t))

        return solve(field, eps, solver).x0

    x0 = sample_latents(model, "joint-noise", 2)
    u_gen = np.array([split_latents(row, pair_layout)[0][0, 0] for row in x0])
    v_gen = np.array([split_latents(row, pair_layout)[1][0, 0] for row in x0])
    joint_corr = float(np.corrcoef(u_gen, v_gen)[0, 1])

    ind_cfg = VectorFieldConfig(depth=2, width=1, hidden=64, attention=True, seq_len=1)
    opt = dict(steps=2000, batch=64, lr=1e-3, lr_min=1e-4, warmup=100, weight_decay=0.01, clip=1.0)
    model_a, _ = train_rf(
        init_flow_model(ind_cfg, rng.substream("a-init")), *_own_rows(joint_train[:, :1, :]),
        RngStream(81), **opt,
    )
    model_b, _ = train_rf(
        init_flow_model(ind_cfg, rng.substream("b-init")), *_own_rows(joint_train[:, 1:, :]),
        RngStream(82), **opt,
    )
    a_ind = sample_latents(model_a, "a-noise", 1)[:, 0, 0]
    b_ind = sample_latents(model_b, "b-noise", 1)[:, 0, 0]
    ind_corr = float(np.corrcoef(a_ind, b_ind)[0, 1])

    seconds = time.time() - t_start
    passed = exact and abs(joint_corr - train_corr) < 0.1 and abs(ind_corr) < 0.1
    criterion(
        8,
        passed,
        f"split/concat bitwise {exact}; joint corr {joint_corr:.4f} vs training "
        f"{train_corr:.4f} (|diff| {abs(joint_corr - train_corr):.4f} < 0.1); "
        f"independent corr {ind_corr:.4f} (|corr| < 0.1); {seconds:.0f}s",
    )


# --- criterion 9: command-line determinism and checkpoint round-trips ----------------

_ACCEPT_CORPUS = [
    "ACDEFG",
    "KLMNPQ",
    "RSTVWY",
    "ACKLRS",
    "DEMNTV",
    "FGPQWY",
    "AC",
    "DEF",
    "KLMN",
    "PQRST",
    "VWYACD",
    "GHIKLM",
]

_ACCEPT_CFG = """\
model.depth = 1
model.width = 16
model.ratio_c = 2
model.L_max = 6
model.D = 8
model.embed_rank = 4
model.decoder_hidden = 16
train.steps = 40
train.batch = 8
train.lr = 2e-3
train.warmup = 10
train.val_every = 20
train.seed = 5
solver.method = dopri5
solver.steps = 10
"""


def test_criterion_9_cli_determinism(tmp_path, criterion):
    corpus = tmp_path / "corpus.fasta"
    corpus.write_text("".join(f">seq{i}\n{s}\n" for i, s in enumerate(_ACCEPT_CORPUS)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_ACCEPT_CFG + f"data.train_path = {corpus}\n")

    def run(args):
        assert cli.main(args) == 0

    def twice(args_fn, out_a, out_b):
        run(args_fn(out_a))
        run(args_fn(out_b))
        return file_sha256(out_a) == file_sha256(out_b)

    p = {
        k: str(tmp_path / f"{k}.ckpt")
        for k in ("dec_a", "dec_b", "pipe_a", "pipe_b", "flow_a", "flow_b", "rf_a", "rf_b")
    }
    same = {}
    same["train-decoder"] = twice(
        lambda out: ["train-decoder", "--config", str(cfg), "--out", out],
        p["dec_a"],
        p["dec_b"],
    )
    same["train-compressor"] = twice(
        lambda out: ["train-compressor", "--config", str(cfg), "--init", p["dec_a"], "--out", out],
        p["pipe_a"],
        p["pipe_b"],
    )
    same["train-flow"] = twice(
        lambda out: ["train-flow", "--config", str(cfg), "--init", p["pipe_a"], "--out", out],
        p["flow_a"],
        p["flow_b"],
    )
    same["reflow"] = twice(
        lambda out: [
            "reflow", "--config", str(cfg), "--init", p["flow_a"], "--out", out,
            "--set", "reflow.pairs=16", "--set", "train.steps=20",
        ],
        p["rf_a"],
        p["rf_b"],
    )

    fasta_a, fasta_b = tmp_path / "gen_a.fasta", tmp_path / "gen_b.fasta"
    for out in (fasta_a, fasta_b):
        run(["sample", "--checkpoint", p["flow_a"], "--out", str(out), "--n", "6", "--seed", "3"])
    same["sample"] = fasta_a.read_bytes() == fasta_b.read_bytes()
    same["sample-sidecar"] = (
        (tmp_path / "gen_a.fasta.json").read_bytes() == (tmp_path / "gen_b.fasta.json").read_bytes()
    )

    rep_a, rep_b = tmp_path / "rep_a", tmp_path / "rep_b"
    for out in (rep_a, rep_b):
        run(["eval", "--gen", str(fasta_a), "--ref", str(corpus), "--out", str(out)])
    same["eval"] = all(
        rep_a.with_name(rep_a.name + ext).read_bytes() == rep_b.with_name(rep_b.name + ext).read_bytes()
        for ext in (".json", ".csv")
    )

    summaries = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            run(["inspect-checkpoint", "--checkpoint", p["flow_a"]])
        summaries.append(buf.getvalue())
    same["inspect-checkpoint"] = summaries[0] == summaries[1]

    tensors, meta = load_checkpoint(p["flow_a"])
    resaved = str(tmp_path / "resaved.ckpt")
    save_checkpoint(resaved, tensors, meta)
    with open(p["flow_a"], "rb") as fa, open(resaved, "rb") as fb:
        same["save-load-save"] = fa.read() == fb.read()

    # The sampler must also emit parseable records of in-range lengths.
    records = read_fasta(str(fasta_a))
    sane = len(records) == 6 and all(2 <= len(s) <= 6 for _, s in records)

    passed = all(same.values()) and sane
    failing = sorted(k for k, v in same.items() if not v)
    criterion(
        9,
        passed,
        "rerun bitwise-identical for "
        + ", ".join(sorted(same))
        + (f"; mismatches: {failing}" if failing else "")
        + f"; {len(records)} samples with lengths in [2, 6]",
    )
