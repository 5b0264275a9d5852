"""The continuous latent stack: encode, smooth, compress, and decode back.

A deterministic toy encoder stands in for a large pretrained embedder: each
position's latent is a learned-free token vector plus a fixed sinusoidal
positional vector. The token table can be built low-rank and scaled so that
sequence identity concentrates in a small subspace, which is what makes
aggressive channel compression survivable for decoding.

Pipeline, data side:    h = encode(x);  h_s = smooth(h);  h_c = compress(h_s)
Pipeline, sample side:  h_s' = decompress(h_c'); h' = unsmooth(h_s'); x' = decode(h')

smooth/unsmooth are exact inverses away from the clamp boundary; compression
is lossy and trained to minimize reconstruction MSE in the smoothed space.
"""

import numpy as np

from . import nn
from .errors import Diverged, EmptyCorpus, IncompatibleRatio, SequenceTooLong, ShapeMismatch
from .numeric import RngStream
from .seqio import PAD_ID, VOCAB_SIZE, TokenizedSequence, pad_to, tokenize


# --- encoder ------------------------------------------------------------------


class EncoderParams:
    """Token embedding table plus a fixed sinusoidal positional table."""

    __slots__ = ("embed", "pos")

    def __init__(self, embed, pos):
        self.embed = np.asarray(embed, dtype=np.float64)
        self.pos = np.asarray(pos, dtype=np.float64)
        if self.embed.shape[0] != VOCAB_SIZE or self.embed.shape[1] != self.pos.shape[1]:
            raise ShapeMismatch(
                f"embed {self.embed.shape} incompatible with pos {self.pos.shape}"
            )

    @property
    def l_max(self):
        return self.pos.shape[0]

    @property
    def dim(self):
        return self.embed.shape[1]


def init_encoder(l_max, dim, rng, embed_scale=1.0, embed_rank=0):
    """Build a deterministic encoder from an RngStream.

    Args:
        l_max: positional table length.
        dim: latent width D (even).
        rng: RngStream for the token table.
        embed_scale: multiplier on the token table; large values make token
            identity dominate the positional signal.
        embed_rank: if > 0, the table is rank-limited — factor scores of
            shape (vocab, rank) mixed through an orthonormal (rank, dim)
            basis — mimicking the anisotropy of learned embedders.
    """
    sub = rng.substream("encoder")
    if embed_rank and embed_rank > 0:
        scores = sub.substream("scores").normal((VOCAB_SIZE, embed_rank))
        raw = sub.substream("basis").normal((dim, embed_rank))
        q, _ = np.linalg.qr(raw)
        embed = embed_scale * (scores @ q.T)
    else:
        embed = embed_scale * sub.substream("full").normal((VOCAB_SIZE, dim))
    return EncoderParams(embed, nn.sinusoidal_table(l_max, dim))


def encode(ts, enc):
    """Map a TokenizedSequence to its (len, dim) latent rows."""
    n = len(ts)
    if n > enc.l_max:
        raise SequenceTooLong(n, enc.l_max)
    return enc.embed[ts.tokens] + enc.pos[:n]


def _token_rows(seqs, l_max):
    """(n, l_max) token ids and masks of a corpus, each sequence padded to l_max."""
    padded = [ts if len(ts) == l_max else pad_to(ts, l_max) for ts in seqs]
    tokens = np.array([ts.tokens for ts in padded], dtype=np.int64).reshape(len(seqs), l_max)
    mask = np.array([ts.mask for ts in padded], dtype=bool).reshape(len(seqs), l_max)
    return tokens, mask


def _gather_rows(enc, tokens, mask, idx):
    """Latent rows and token targets of the true positions of corpus rows idx
    (from _token_rows), sequence after sequence: the masked rows of encode
    for each sequence, in one gather."""
    rows, pos = np.nonzero(mask[idx])
    y = tokens[idx[rows], pos]
    h = enc.embed[y]
    h += enc.pos[pos]
    return h, y


def encode_corpus(seqs, enc):
    """Stack padded-corpus latents into (n, l_max, dim) with one gather; row i
    is bitwise encode of seqs[i] padded to l_max."""
    tokens, _ = _token_rows(seqs, enc.l_max)
    out = enc.embed[tokens]
    out += enc.pos
    return out


def embed_sequences(seqs, dim=32, seed=0):
    """Deterministic mean-pooled sequence embeddings for distribution metrics.

    The vector for a sequence depends only on (sequence, dim, seed), never on
    the rest of the batch.
    """
    if not seqs:
        raise EmptyCorpus("no sequences to embed")
    l_max = max(len(s) for s in seqs)
    enc = init_encoder(max(l_max, 1), dim, RngStream(seed).substream("embedder"))
    out = np.empty((len(seqs), dim), dtype=np.float64)
    for i, s in enumerate(seqs):
        ts = tokenize(s)
        if len(ts) == 0:
            out[i] = 0.0
        else:
            out[i] = encode(ts, enc).mean(axis=0)
    return out


# --- smoothing ----------------------------------------------------------------


class SmoothingStats:
    """Per-dimension affine normalization fitted on corpus latents.

    Value map per non-constant dimension: z-score, clamp to [-k, k], then
    min-max (over the post-clamp data range) to [-1, 1]. Constant dimensions
    (std below tolerance, or degenerate post-clamp range) pass through
    unchanged in both directions.
    """

    __slots__ = ("mean", "std", "clamp_k", "post_min", "post_max", "constant")

    def __init__(self, mean, std, clamp_k, post_min, post_max, constant):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        self.clamp_k = float(clamp_k)
        self.post_min = np.asarray(post_min, dtype=np.float64)
        self.post_max = np.asarray(post_max, dtype=np.float64)
        self.constant = np.asarray(constant, dtype=bool)

    @property
    def dim(self):
        return self.mean.shape[0]


def fit_smoothing(rows, clamp_k=3.0):
    """Fit SmoothingStats on pooled latent rows of shape (n, dim)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise EmptyCorpus(f"need (n>=2, dim) rows, got {rows.shape}")
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    constant = std <= 1e-12
    safe_std = np.where(constant, 1.0, std)
    z = np.clip((rows - mean) / safe_std, -clamp_k, clamp_k)
    post_min = z.min(axis=0)
    post_max = z.max(axis=0)
    degenerate = (post_max - post_min) <= 1e-12
    constant = constant | degenerate
    return SmoothingStats(mean, safe_std, clamp_k, post_min, post_max, constant)


def smooth(h, stats):
    """Normalize latents into [-1, 1] per dimension; shape-preserving."""
    # z = clip((h - mean) / std, -k, k); out = clip(2 * ((z - post_min) / span) - 1, -1, 1),
    # computed in one buffer, as a whole corpus goes through here at once
    h = np.asarray(h, dtype=np.float64)
    span = np.where(stats.constant, 1.0, stats.post_max - stats.post_min)
    out = h - stats.mean
    out /= stats.std
    np.clip(out, -stats.clamp_k, stats.clamp_k, out=out)
    out -= stats.post_min
    out /= span
    out *= 2.0
    out -= 1.0
    np.clip(out, -1.0, 1.0, out=out)
    np.copyto(out, h, where=stats.constant)
    return out


def unsmooth(h_s, stats):
    """Invert smooth() on the non-saturated interior."""
    h_s = np.asarray(h_s, dtype=np.float64)
    span = stats.post_max - stats.post_min
    z = 0.5 * (h_s + 1.0) * span + stats.post_min
    out = z * stats.std + stats.mean
    return np.where(stats.constant, h_s, out)


# --- compressor ---------------------------------------------------------------


class CompressorParams:
    """Gated down-projection with tanh squash, linear up-projection back."""

    __slots__ = ("w_down", "b_down", "g", "s", "w_up", "b_up")

    def __init__(self, w_down, b_down, g, s, w_up, b_up):
        self.w_down = np.asarray(w_down, dtype=np.float64)
        self.b_down = np.asarray(b_down, dtype=np.float64)
        self.g = np.asarray(g, dtype=np.float64)
        self.s = np.asarray(s, dtype=np.float64)
        self.w_up = np.asarray(w_up, dtype=np.float64)
        self.b_up = np.asarray(b_up, dtype=np.float64)

    @property
    def dim(self):
        return self.w_down.shape[0]

    @property
    def width(self):
        return self.w_down.shape[1]

    @property
    def ratio(self):
        return self.dim // self.width

    def params(self):
        return {
            "w_down": self.w_down,
            "b_down": self.b_down,
            "g": self.g,
            "s": self.s,
            "w_up": self.w_up,
            "b_up": self.b_up,
        }


def init_compressor(dim, ratio, rng, identity=False):
    """Random init at the given channel ratio; identity init only at ratio 1.

    With identity=True (ratio 1) the maps reduce to compress = tanh and
    decompress = identity, so decompress(arctanh(compress(x))) ... reduces to
    h_c = tanh(h_s) exactly.
    """
    if dim % ratio != 0:
        raise IncompatibleRatio(f"dim {dim} not divisible by ratio {ratio}")
    width = dim // ratio
    if identity:
        if ratio != 1:
            raise IncompatibleRatio("identity init requires ratio 1")
        return CompressorParams(
            np.eye(dim), np.zeros(dim), np.ones(dim), np.zeros(dim), np.eye(dim), np.zeros(dim)
        )
    sub = rng.substream("compressor")
    w_down = sub.substream("down").normal((dim, width)) / np.sqrt(dim)
    w_up = sub.substream("up").normal((width, dim)) / np.sqrt(width)
    return CompressorParams(
        w_down, np.zeros(width), np.ones(width), np.zeros(width), w_up, np.zeros(dim)
    )


def compress(h_s, comp):
    """(..., dim) smoothed latents -> (..., width) compressed latents."""
    lin = h_s @ comp.w_down + comp.b_down
    return np.tanh(comp.g * lin + comp.s)


def decompress(h_c, comp):
    """(..., width) compressed latents -> (..., dim) smoothed-space latents."""
    return h_c @ comp.w_up + comp.b_up


def compressor_loss_and_grad(comp, batch):
    """Reconstruction MSE in smoothed space plus parameter gradients.

    Args:
        comp: CompressorParams.
        batch: (n, dim) smoothed rows.

    Returns:
        (loss, grads dict keyed like comp.params()).
    """
    lin = batch @ comp.w_down + comp.b_down
    pre = comp.g * lin + comp.s
    h_c = np.tanh(pre)
    rec = h_c @ comp.w_up + comp.b_up
    diff = rec - batch
    loss = float((diff**2).mean())

    d_rec = 2.0 * diff / diff.size
    d_w_up = h_c.T @ d_rec
    d_b_up = d_rec.sum(axis=0)
    d_hc = d_rec @ comp.w_up.T
    d_pre = d_hc * (1.0 - h_c**2)
    d_g = (d_pre * lin).sum(axis=0)
    d_s = d_pre.sum(axis=0)
    d_lin = d_pre * comp.g
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


def compressor_mse(comp, rows):
    rec = decompress(compress(rows, comp), comp)
    return float(((rec - rows) ** 2).mean())


def train_compressor(
    comp,
    train_rows,
    val_rows,
    rng,
    steps=2000,
    batch=64,
    lr=3e-3,
    lr_min=1e-4,
    warmup=100,
    betas=(0.9, 0.999),
    weight_decay=0.0,
    clip=1.0,
    val_every=100,
    cycles=2,
):
    """Minimize reconstruction MSE on smoothed rows; returns (comp, history)."""
    params = comp.params()
    opt = nn.AdamW(params, betas=betas, eps=1e-8, weight_decay=weight_decay)
    stream = rng.substream("compressor-train")
    history = {"loss": [], "lr": [], "grad_norm": [], "val_mse": [], "val_steps": []}
    n = train_rows.shape[0]
    for step in range(steps):
        idx = stream.integers(0, n, size=min(batch, n))
        loss, grads = compressor_loss_and_grad(comp, train_rows[idx])
        if not np.isfinite(loss):
            raise Diverged(f"compressor loss non-finite at step {step}")
        grad_norm = nn.clip_grads_(grads, clip)
        lr_t = nn.cosine_lr(step, steps, lr, lr_min, warmup, cycles)
        opt.step(params, grads, lr_t)
        history["loss"].append(loss)
        history["lr"].append(lr_t)
        history["grad_norm"].append(grad_norm)
        if val_every and (step % val_every == 0 or step == steps - 1):
            history["val_mse"].append(compressor_mse(comp, val_rows))
            history["val_steps"].append(step)
    return comp, history


# --- decoder ------------------------------------------------------------------


class DecoderParams:
    """Per-position classifier: logits = LayerNorm(gelu(h W1 + b1)) W2 + b2."""

    __slots__ = ("w1", "b1", "gamma", "beta", "w2", "b2")

    def __init__(self, w1, b1, gamma, beta, w2, b2):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.gamma = np.asarray(gamma, dtype=np.float64)
        self.beta = np.asarray(beta, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)

    def params(self):
        return {
            "w1": self.w1,
            "b1": self.b1,
            "gamma": self.gamma,
            "beta": self.beta,
            "w2": self.w2,
            "b2": self.b2,
        }


def init_decoder(dim, hidden, rng):
    sub = rng.substream("decoder")
    w1 = sub.substream("w1").normal((dim, hidden)) / np.sqrt(dim)
    w2 = sub.substream("w2").normal((hidden, VOCAB_SIZE)) / np.sqrt(hidden)
    return DecoderParams(
        w1, np.zeros(hidden), np.ones(hidden), np.zeros(hidden), w2, np.zeros(VOCAB_SIZE)
    )


def decoder_logits(dec, h):
    """(n, dim) latent rows -> (n, vocab) logits."""
    a = h @ dec.w1 + dec.b1
    z = nn.gelu(a)
    y, _ = nn.layernorm_forward(z, dec.gamma, dec.beta)
    return y @ dec.w2 + dec.b2


def decoder_loss_and_grad(dec, h, targets):
    """Mean cross-entropy over rows plus gradients w.r.t. decoder params."""
    a = h @ dec.w1 + dec.b1
    z, tanh_a = nn.gelu(a, return_tanh=True)
    y, ln_cache = nn.layernorm_forward(z, dec.gamma, dec.beta)
    logits = y @ dec.w2 + dec.b2
    loss, dlogits = nn.softmax_cross_entropy(logits, targets)
    d_w2 = y.T @ dlogits
    d_b2 = dlogits.sum(axis=0)
    dy = dlogits @ dec.w2.T
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


def decode(h, mask, dec):
    """Classify each masked latent row to a residue; PAD outside the mask.

    Argmax ties resolve to the lowest token id. Returns a TokenizedSequence.
    """
    h = np.asarray(h, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if h.shape[0] != mask.shape[0]:
        raise ShapeMismatch(f"h rows {h.shape[0]} != mask length {mask.shape[0]}")
    tokens = np.full(mask.shape[0], PAD_ID, dtype=np.int64)
    if mask.any():
        logits = decoder_logits(dec, h[mask])
        tokens[mask] = np.argmax(logits[:, :PAD_ID], axis=1)
    return TokenizedSequence(tokens, mask, int(mask.sum()))


def decoder_accuracy(dec, enc, seqs):
    """Fraction of true positions recovered by decode(encode(x)) over a corpus,
    with every true position of every sequence decoded in one batch."""
    tokens, mask = _token_rows(seqs, enc.l_max)
    h, y = _gather_rows(enc, tokens, mask, np.arange(len(seqs)))
    if y.size == 0:
        return 0.0
    pred = np.argmax(decoder_logits(dec, h)[:, :PAD_ID], axis=1)
    return int((pred == y).sum()) / y.size


def train_decoder(
    dec,
    enc,
    train_seqs,
    val_seqs,
    rng,
    steps=1000,
    batch=64,
    lr=1e-3,
    lr_min=1e-5,
    warmup=50,
    betas=(0.9, 0.98),
    weight_decay=0.001,
    clip=1.0,
):
    """Train the per-position classifier on raw encoder latents.

    Returns (dec, history) with the per-step loss trace and final held-out
    accuracy on val_seqs.
    """
    params = dec.params()
    opt = nn.AdamW(params, betas=betas, eps=1e-8, weight_decay=weight_decay)
    stream = rng.substream("decoder-train")
    history = {"loss": [], "lr": [], "grad_norm": []}
    n = len(train_seqs)
    if n == 0:
        raise EmptyCorpus("empty decoder training corpus")
    tokens, mask = _token_rows(train_seqs, enc.l_max)
    for step in range(steps):
        idx = stream.integers(0, n, size=min(batch, n))
        h, y = _gather_rows(enc, tokens, mask, idx)
        loss, grads = decoder_loss_and_grad(dec, h, y)
        if not np.isfinite(loss):
            raise Diverged(f"decoder loss non-finite at step {step}")
        grad_norm = nn.clip_grads_(grads, clip)
        lr_t = nn.cosine_lr(step, steps, lr, lr_min, warmup)
        opt.step(params, grads, lr_t)
        history["loss"].append(loss)
        history["lr"].append(lr_t)
        history["grad_norm"].append(grad_norm)
    history["val_accuracy"] = decoder_accuracy(dec, enc, val_seqs) if val_seqs else None
    return dec, history


# --- bundled pipeline ---------------------------------------------------------


class LatentPipeline:
    """Everything needed to move between sequences and compressed latents."""

    __slots__ = ("encoder", "decoder", "smoothing", "compressor")

    def __init__(self, encoder, decoder, smoothing, compressor):
        self.encoder = encoder
        self.decoder = decoder
        self.smoothing = smoothing
        self.compressor = compressor

    @property
    def l_max(self):
        return self.encoder.l_max

    @property
    def dim(self):
        return self.encoder.dim

    @property
    def width(self):
        return self.compressor.width

    def data_to_latent(self, ts):
        """Padded TokenizedSequence -> (l_max, width) compressed latent."""
        h = encode(pad_to(ts, self.l_max) if len(ts) != self.l_max else ts, self.encoder)
        return compress(smooth(h, self.smoothing), self.compressor)

    def corpus_to_latent(self, seqs):
        """Padded corpus -> (n, l_max, width) compressed latents in one batch;
        row i is bitwise data_to_latent(seqs[i])."""
        return compress(smooth(encode_corpus(seqs, self.encoder), self.smoothing), self.compressor)

    def latent_to_sequence(self, h_c, mask):
        """Compressed latent plus a length mask -> decoded TokenizedSequence."""
        h_s = decompress(h_c, self.compressor)
        h = unsmooth(h_s, self.smoothing)
        return decode(h, mask, self.decoder)
