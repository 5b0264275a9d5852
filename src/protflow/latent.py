"""The continuous latent stack: encode, smooth, compress, and decode back.

A deterministic toy encoder stands in for a large pretrained embedder: each
position's latent is a learned-free token vector plus a fixed sinusoidal
positional vector. The token table can be built low-rank and scaled so that
sequence identity concentrates in a small subspace, which is what makes
aggressive channel compression survivable for decoding.

A corpus is one (n, l_max) token id matrix from seqio.tokenize. Every
position is encoded, PAD included; the decoder trains on residue positions.

Pipeline, data side:    h = encode_corpus(ids);  h_s = smooth(h);  h_c = compress(h_s)
Pipeline, sample side:  h_s' = decompress(h_c'); h' = unsmooth(h_s'); x' = decode(h'[:length])

smooth/unsmooth are exact inverses away from the clamp boundary; compression
is lossy and trained to minimize reconstruction MSE in the smoothed space.

The encoder is not contextual, smooth is elementwise and compress works row
by row, so the data side maps a position by its (token, position) pair
alone, and no stage builds a corpus's latents: token_table encodes the
(VOCAB_SIZE, l_max) grid of every pair once, smooth and compress map that
table, and a position reads its row at table_keys(ids), token * l_max + pos.
Every stage reads a corpus as these (keys, table) pairs, and a raw array of
rows passes the identity keys np.arange(len(rows)). A contextual encoder
would void this.

Every part of the stack (encoder, decoder, smoothing, compressor) is a dict
of named float64 arrays, as the flow's parameters are. nn.fit packs a part
it trains into one buffer, so a trained part's parameters are named views
of that buffer. pipeline_shapes is the one table of the stack's stored
tensor names and shapes. The positional table is not a parameter:
encode_corpus adds the cached rows of nn.sinusoidal_table for the id
matrix's width.
"""

import numpy as np

from . import nn
from .errors import EmptyCorpus, IncompatibleRatio
from .numeric import RngStream
from .seqio import PAD_ID, VOCAB_SIZE, tokenize

# Rows per block that fit_smoothing gathers: 64 sequences at l_max 20.
BLOCK_ROWS = 1280


# --- encoder ------------------------------------------------------------------


def init_encoder(dim, rng, embed_scale, embed_rank):
    """Encoder parameters {"embed": (vocab, dim) token table}, drawn from an
    RngStream. The positional table is fixed, so it is not a parameter.

    Args:
        dim: latent width D (even).
        rng: RngStream for the token table.
        embed_scale: multiplier on the token table; large values make token
            identity dominate the positional signal.
        embed_rank: if > 0, the table is rank-limited — factor scores of
            shape (vocab, rank) mixed through an orthonormal (rank, dim)
            basis — mimicking the anisotropy of learned embedders.
    """
    sub = rng.substream("encoder")
    if embed_rank > 0:
        scores = sub.substream("scores").normal((VOCAB_SIZE, embed_rank))
        raw = sub.substream("basis").normal((dim, embed_rank))
        q, _ = np.linalg.qr(raw)
        embed = embed_scale * (scores @ q.T)
    else:
        embed = embed_scale * sub.substream("full").normal((VOCAB_SIZE, dim))
    return {"embed": embed}


def encode_corpus(ids, enc):
    """(n, l_max) token ids -> (n, l_max, dim) latents embed[ids] plus the
    positional table of l_max rows, in one gather."""
    out = enc["embed"][ids]
    out += nn.sinusoidal_table(ids.shape[1], out.shape[2])
    return out


def table_keys(ids):
    """(n, l_max) token ids -> (n, l_max) keys token * l_max + pos: the row
    of a table over the id grid of width l_max (token_table, and the tables
    smooth and compress make of it) that each position's latent is."""
    return np.ravel_multi_index((ids, np.arange(ids.shape[1])), (VOCAB_SIZE, ids.shape[1]))


def token_table(enc, l_max):
    """encode_corpus of the (VOCAB_SIZE, l_max) id grid whose row v is token
    v at every position, as (VOCAB_SIZE * l_max, dim) rows, which table_keys
    index."""
    grid = np.repeat(np.arange(VOCAB_SIZE)[:, None], l_max, axis=1)
    return encode_corpus(grid, enc).reshape(VOCAB_SIZE * l_max, -1)


def embed_sequences(seqs, dim, seed):
    """Deterministic mean-pooled sequence embeddings for distribution metrics.

    The vector for a sequence depends only on (sequence, dim, seed), never on
    the rest of the batch. The token table is full rank at scale 1.0.
    """
    if not seqs:
        raise EmptyCorpus("no sequences to embed")
    l_max = max(max(map(len, seqs)), 1)
    ids = tokenize(seqs, l_max)
    embed = init_encoder(dim, RngStream(seed).substream("embedder"), 1.0, 0)["embed"]
    pos = nn.sinusoidal_table(l_max, dim)
    out = np.zeros((len(seqs), dim), dtype=np.float64)
    for i, n in enumerate(map(len, seqs)):
        if n:
            out[i] = (embed[ids[i, :n]] + pos[:n]).mean(axis=0)
    return out


# --- smoothing ----------------------------------------------------------------

# z-scores are clamped to [-CLAMP_K, CLAMP_K] before the min-max fit
CLAMP_K = 3.0


def fit_smoothing(keys, table):
    """Per-dimension affine normalization fitted on the pooled latent rows
    table[keys] of a (K, dim) table, for int keys of any shape:
    {mean, std, post_min, post_max, constant}, each (dim,).

    Value map per non-constant dimension: z-score, clamp to [-CLAMP_K,
    CLAMP_K], then min-max (over the post-clamp data range) to [-1, 1].
    constant is 1.0 on constant dimensions (std below tolerance, or a
    degenerate post-clamp range), which pass through unchanged in both
    directions, and 0.0 elsewhere.

    Each pass gathers BLOCK_ROWS rows at a time, and for dim >= 2 every
    statistic is bitwise the expression's over rows = table[keys] as one
    (n, dim) array: rows.mean(axis=0), rows.std(axis=0), and the min and
    max of the clamped z-scores. numpy adds the rows of a C-contiguous array
    with dim >= 2 along axis 0 one after another, so a block's sum taken
    with the running sum as its first row chains into the whole array's
    sum. mean and std are then numpy's sum / n and sqrt(sum((x - mean)^2) /
    n); min and max are exact in any order.
    """
    keys = np.ravel(keys)
    n = keys.size
    if n < 2 or table.ndim != 2:
        raise EmptyCorpus(f"need (n>=2, dim) rows, got {n} keys into {table.shape}")

    def blocks():
        for start in range(0, n, BLOCK_ROWS):
            yield table[keys[start:start + BLOCK_ROWS]]

    def chained_sum(term):
        total = None
        for rows in blocks():
            x = term(rows)
            total = (x if total is None else np.concatenate([total[None], x])).sum(axis=0)
        return total

    def square_deviation(rows):
        d = rows - mean
        return np.multiply(d, d, out=d)

    mean = chained_sum(lambda rows: rows) / n
    std = np.sqrt(chained_sum(square_deviation) / n)
    constant = std <= 1e-12
    safe_std = np.where(constant, 1.0, std)
    post_min = post_max = None
    for rows in blocks():
        # clip((rows - mean) / safe_std, -CLAMP_K, CLAMP_K) in one buffer
        z = rows - mean
        z /= safe_std
        np.clip(z, -CLAMP_K, CLAMP_K, out=z)
        lo, hi = z.min(axis=0), z.max(axis=0)
        post_min = lo if post_min is None else np.minimum(post_min, lo)
        post_max = hi if post_max is None else np.maximum(post_max, hi)
    degenerate = (post_max - post_min) <= 1e-12
    constant = constant | degenerate
    return {
        "mean": mean,
        "std": safe_std,
        "post_min": post_min,
        "post_max": post_max,
        "constant": constant.astype(np.float64),
    }


def smooth(h, stats):
    """Normalize latents into [-1, 1] per dimension; shape-preserving."""
    # out = clip(2 * (((h - mean) / std - post_min) / span) - 1, -1, 1), computed
    # in one buffer. The z-score needs no clamp: post_min and post_max lie
    # inside [-CLAMP_K, CLAMP_K], so the final clip saturates every value the
    # clamp would move.
    h = np.asarray(h, dtype=np.float64)
    constant = stats["constant"] != 0.0
    span = np.where(constant, 1.0, stats["post_max"] - stats["post_min"])
    out = h - stats["mean"]
    out /= stats["std"]
    out -= stats["post_min"]
    out /= span
    out *= 2.0
    out -= 1.0
    np.clip(out, -1.0, 1.0, out=out)
    np.copyto(out, h, where=constant)
    return out


def unsmooth(h_s, stats):
    """Invert smooth() on the non-saturated interior."""
    h_s = np.asarray(h_s, dtype=np.float64)
    span = stats["post_max"] - stats["post_min"]
    z = 0.5 * (h_s + 1.0) * span + stats["post_min"]
    out = z * stats["std"] + stats["mean"]
    return np.where(stats["constant"] != 0.0, h_s, out)


# --- compressor ---------------------------------------------------------------


def init_compressor(dim, ratio, rng):
    """Compressor parameters (a gated down-projection with tanh squash, a
    linear up-projection back) at the given channel ratio."""
    if dim % ratio != 0:
        raise IncompatibleRatio(f"dim {dim} not divisible by ratio {ratio}")
    width = dim // ratio
    sub = rng.substream("compressor")
    w_down = sub.substream("down").normal((dim, width)) / np.sqrt(dim)
    w_up = sub.substream("up").normal((width, dim)) / np.sqrt(width)
    return {
        "w_down": w_down,
        "b_down": np.zeros(width),
        "g": np.ones(width),
        "s": np.zeros(width),
        "w_up": w_up,
        "b_up": np.zeros(dim),
    }


def compress(h_s, comp):
    """(..., dim) smoothed latents -> (..., width) compressed latents."""
    lin = h_s @ comp["w_down"] + comp["b_down"]
    return np.tanh(comp["g"] * lin + comp["s"])


def decompress(h_c, comp):
    """(..., width) compressed latents -> (..., dim) smoothed-space latents,
    h_c @ w_up + b_up with the bias added into the fresh product."""
    out = h_c @ comp["w_up"]
    out += comp["b_up"]
    return out


def compressor_loss_and_grad(comp, batch):
    """Reconstruction MSE in smoothed space plus parameter gradients.

    Args:
        comp: compressor parameter dict, as init_compressor returns.
        batch: (n, dim) smoothed rows.

    Returns:
        (loss, grads dict keyed like comp).
    """
    lin = batch @ comp["w_down"] + comp["b_down"]
    pre = comp["g"] * lin + comp["s"]
    h_c = np.tanh(pre)
    rec = h_c @ comp["w_up"] + comp["b_up"]
    diff = rec - batch
    loss = float((diff**2).mean())

    d_rec = 2.0 * diff / diff.size
    d_w_up = h_c.T @ d_rec
    d_b_up = d_rec.sum(axis=0)
    d_hc = d_rec @ comp["w_up"].T
    d_pre = d_hc * (1.0 - h_c**2)
    d_g = (d_pre * lin).sum(axis=0)
    d_s = d_pre.sum(axis=0)
    d_lin = d_pre * comp["g"]
    d_w_down = batch.T @ d_lin
    d_b_down = d_lin.sum(axis=0)
    grads = {
        "w_down": d_w_down,
        "b_down": d_b_down,
        "g": d_g,
        "s": d_s,
        "w_up": d_w_up,
        "b_up": d_b_up,
    }
    return loss, grads


def compressor_mse(comp, keys, table):
    """Mean of (decompress(compress(rows)) - rows)^2 over every scalar of the
    rows table[keys] of a (K, dim) float64 table, for int keys of any shape
    (a raw array of rows passes keys np.arange(len(rows))). It is the mean of
    each table row's squared error weighted by its count in keys,
    np.bincount(keys) @ err.mean(axis=1) / keys.size, so the rows are never
    gathered."""
    err = decompress(compress(table, comp), comp)
    err -= table
    np.square(err, out=err)
    return float(np.bincount(keys.ravel(), minlength=len(table)) @ err.mean(axis=1) / keys.size)


def train_compressor(
    comp,
    keys,
    table,
    rng,
    steps,
    batch,
    lr,
    lr_min,
    warmup,
    weight_decay,
    clip,
):
    """Minimize reconstruction MSE on the smoothed rows table[keys], each
    step's batch gathered from a (K, dim) table by int keys of any shape;
    returns (comp, trace). The optimizer settings are nn.fit's, with no
    defaults."""
    stream = rng.substream("compressor-train")
    keys = keys.ravel()

    def loss_and_grad(step):
        idx = stream.integers(0, len(keys), size=min(batch, len(keys)))
        return compressor_loss_and_grad(comp, table[keys[idx]])

    trace = nn.fit(
        comp, loss_and_grad, steps, lr, lr_min, warmup, clip, weight_decay,
        betas=(0.9, 0.999), eps=1e-8, cycles=2,
    )
    return comp, trace


# --- decoder ------------------------------------------------------------------


def init_decoder(dim, hidden, rng):
    """Per-position classifier parameters: logits = LayerNorm(gelu(h w1 + b1))
    w2 + b2, with LayerNorm's scale gamma and shift beta."""
    sub = rng.substream("decoder")
    return {
        "w1": sub.substream("w1").normal((dim, hidden)) / np.sqrt(dim),
        "b1": np.zeros(hidden),
        "gamma": np.ones(hidden),
        "beta": np.zeros(hidden),
        "w2": sub.substream("w2").normal((hidden, VOCAB_SIZE)) / np.sqrt(hidden),
        "b2": np.zeros(VOCAB_SIZE),
    }


def decoder_logits(dec, h):
    """(n, dim) latent rows -> (n, vocab) logits."""
    a = h @ dec["w1"] + dec["b1"]
    z = nn.gelu(a)
    y, _ = nn.layernorm_forward(z, dec["gamma"], dec["beta"])
    return y @ dec["w2"] + dec["b2"]


def decoder_loss_and_grad(dec, h, targets):
    """Mean cross-entropy over rows plus gradients w.r.t. decoder params."""
    a = h @ dec["w1"] + dec["b1"]
    tanh_a = nn.gelu_tanh(a)
    z = nn.gelu_from_tanh(a, tanh_a)
    y, ln_cache = nn.layernorm_forward(z, dec["gamma"], dec["beta"])
    logits = y @ dec["w2"] + dec["b2"]
    loss, dlogits = nn.softmax_cross_entropy(logits, targets)
    d_w2 = y.T @ dlogits
    d_b2 = dlogits.sum(axis=0)
    dy = dlogits @ dec["w2"].T
    dz, d_gamma, d_beta = nn.layernorm_backward(dy, ln_cache)
    da = dz * nn.gelu_grad(a, tanh_a)
    d_w1 = h.T @ da
    d_b1 = da.sum(axis=0)
    grads = {
        "w1": d_w1,
        "b1": d_b1,
        "gamma": d_gamma,
        "beta": d_beta,
        "w2": d_w2,
        "b2": d_b2,
    }
    return float(loss), grads


def decode(h, dec):
    """(n, dim) latent rows -> (n,) residue ids, the argmax over the residue
    logits; ties resolve to the lowest id, and PAD is never emitted."""
    return np.argmax(decoder_logits(dec, h)[:, :PAD_ID], axis=1)


def decoder_accuracy(dec, keys, table):
    """Fraction of the residue keys (table_keys of an id matrix) into a
    token_table whose row decode maps to the key's token; 0.0 if there are
    none. decode runs once over the table."""
    tokens = keys // (len(table) // VOCAB_SIZE)
    residue = tokens != PAD_ID
    total = int(np.count_nonzero(residue))
    correct = int(np.count_nonzero(decode(table, dec)[keys[residue]] == tokens[residue]))
    return correct / total if total else 0.0


def train_decoder(
    dec,
    keys,
    table,
    rng,
    steps,
    batch,
    lr,
    lr_min,
    warmup,
    weight_decay,
    clip,
):
    """Train the per-position classifier on the raw encoder latents of the
    residue positions of a corpus: each step draws batch rows of its
    (n, l_max) table_keys and gathers their residue rows from the
    token_table, sequence after sequence. Returns (dec, trace)."""
    n = len(keys)
    if n == 0:
        raise EmptyCorpus("empty decoder training corpus")
    l_max = len(table) // VOCAB_SIZE
    stream = rng.substream("decoder-train")

    def loss_and_grad(step):
        k = keys[stream.integers(0, n, size=min(batch, n))]
        tokens = k // l_max
        residue = tokens != PAD_ID
        return decoder_loss_and_grad(dec, table[k[residue]], tokens[residue])

    trace = nn.fit(
        dec, loss_and_grad, steps, lr, lr_min, warmup, clip, weight_decay,
        betas=(0.9, 0.98), eps=1e-8,
    )
    return dec, trace


# --- bundled pipeline ---------------------------------------------------------


def pipeline_shapes(dim, hidden, width):
    """Name -> shape of every stored tensor of a latent stack, in checkpoint
    order. The positional table is recomputed from the width of the id
    matrix, not stored, and the smoothing's constant mask is stored as 0/1."""
    return {
        "encoder.embed": (VOCAB_SIZE, dim),
        "decoder.w1": (dim, hidden),
        "decoder.b1": (hidden,),
        "decoder.gamma": (hidden,),
        "decoder.beta": (hidden,),
        "decoder.w2": (hidden, VOCAB_SIZE),
        "decoder.b2": (VOCAB_SIZE,),
        **{f"smoothing.{k}": (dim,) for k in ("mean", "std", "post_min", "post_max", "constant")},
        "compressor.w_down": (dim, width),
        "compressor.b_down": (width,),
        "compressor.g": (width,),
        "compressor.s": (width,),
        "compressor.w_up": (width, dim),
        "compressor.b_up": (dim,),
    }


class LatentPipeline:
    """Everything needed to move between sequences and compressed latents."""

    __slots__ = ("encoder", "decoder", "smoothing", "compressor")

    def __init__(self, encoder, decoder, smoothing, compressor):
        self.encoder = encoder
        self.decoder = decoder
        self.smoothing = smoothing
        self.compressor = compressor

    @property
    def width(self):
        return self.compressor["w_down"].shape[1]

    def latent_table(self, l_max):
        """compress(smooth(token_table(...))) as (VOCAB_SIZE * l_max, width)
        rows, which table_keys index; each grid sequence is compressed as one
        (l_max, dim) product, as a corpus sequence is."""
        h_s = smooth(token_table(self.encoder, l_max), self.smoothing)
        return compress(h_s.reshape(VOCAB_SIZE, l_max, -1), self.compressor).reshape(-1, self.width)

    def latent_to_sequence(self, h_c, length):
        """(l_max, width) compressed latent -> residue ids of its first length
        positions."""
        h = unsmooth(decompress(h_c, self.compressor), self.smoothing)
        return decode(h[:length], self.decoder)
