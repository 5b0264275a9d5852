"""Sequence vocabulary, tokenization, FASTA I/O, and length statistics.

The vocabulary is the 20 canonical amino acids in alphabetical order
(ids 0..19) plus a PAD token (id 20). Tokenization is reversible:
detokenize(tokenize(s)) == s for any sequence over the canonical alphabet.
"""

import numpy as np

from .errors import (
    DataError,
    EmptyCorpus,
    InvalidTokenId,
    MalformedFasta,
    SequenceTooLong,
    UnknownResidue,
)

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
PAD_ID = 20
VOCAB_SIZE = 21

TOKEN_TO_ID = {aa: i for i, aa in enumerate(AMINO_ACIDS)}
ID_TO_TOKEN = {i: aa for i, aa in enumerate(AMINO_ACIDS)}

# Byte -> token id for the canonical residues, -1 for every other byte.
_BYTE_TO_ID = np.full(256, -1, dtype=np.int64)
_BYTE_TO_ID[np.frombuffer(AMINO_ACIDS.encode("ascii"), dtype=np.uint8)] = np.arange(PAD_ID)


class TokenizedSequence:
    """Integer token row plus a validity mask.

    tokens is an int64 array of shape (L,), mask a bool array of the same
    shape. mask is True on the first true_length entries and False after;
    tokens is PAD_ID wherever mask is False and a residue id (< 20) wherever
    mask is True.
    """

    __slots__ = ("tokens", "mask", "true_length")

    def __init__(self, tokens, mask, true_length):
        tokens = np.asarray(tokens, dtype=np.int64)
        mask = np.asarray(mask, dtype=bool)
        if tokens.shape != mask.shape or tokens.ndim != 1:
            raise MalformedFasta("tokens and mask must be 1-D arrays of equal length")
        n = true_length  # mask is a True-prefix: check slices, not mask gathers
        count = np.count_nonzero
        if not 0 <= n <= mask.shape[0] or count(mask[:n]) != n or count(mask) != n:
            raise MalformedFasta("mask must be a True-prefix matching true_length")
        pad, residues = tokens[n:], tokens[:n]
        bad = pad != PAD_ID
        if count(bad):
            raise InvalidTokenId(int(pad[bad][0]))
        bad = (residues < 0) | (residues >= PAD_ID)
        if count(bad):
            raise InvalidTokenId(int(residues[bad][0]))
        self.tokens = tokens
        self.mask = mask
        self.true_length = int(true_length)

    def __len__(self):
        return self.tokens.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, TokenizedSequence)
            and self.true_length == other.true_length
            and np.array_equal(self.tokens, other.tokens)
            and np.array_equal(self.mask, other.mask)
        )


def tokenize(seq):
    """Map a residue string to a TokenizedSequence of the same length.

    Args:
        seq: string over the canonical 20-letter alphabet (case-sensitive,
            upper case). May be empty.

    Raises:
        UnknownResidue: on any character outside the alphabet.
    """
    tokens = np.empty(len(seq), dtype=np.int64)
    for i, ch in enumerate(seq):
        if ch not in TOKEN_TO_ID:
            raise UnknownResidue(ch, i)
        tokens[i] = TOKEN_TO_ID[ch]
    mask = np.ones(len(seq), dtype=bool)
    return TokenizedSequence(tokens, mask, len(seq))


def detokenize(ts):
    """Map a TokenizedSequence back to its residue string (masked prefix only)."""
    out = []
    for t in ts.tokens[ts.mask]:
        t = int(t)
        if t not in ID_TO_TOKEN:
            raise InvalidTokenId(t)
        out.append(ID_TO_TOKEN[t])
    return "".join(out)


def pad_to(ts, l_max):
    """Right-pad a TokenizedSequence with PAD to length l_max.

    Raises:
        SequenceTooLong: if the sequence is longer than l_max.
    """
    if ts.true_length > l_max:
        raise SequenceTooLong(ts.true_length, l_max)
    tokens = np.full(l_max, PAD_ID, dtype=np.int64)
    mask = np.zeros(l_max, dtype=bool)
    tokens[: ts.true_length] = ts.tokens[: ts.true_length]
    mask[: ts.true_length] = True
    return TokenizedSequence(tokens, mask, ts.true_length)


def tokenize_padded(seq, l_max):
    """pad_to(tokenize(seq), l_max), built in one pass through a byte lookup table.

    Raises what that expression raises, in the same order: UnknownResidue
    (from tokenize, which any string outside the alphabet falls back to),
    then SequenceTooLong.
    """
    ids = None
    if seq.isascii():
        ids = _BYTE_TO_ID[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]
    if ids is None or np.any(ids < 0):
        return pad_to(tokenize(seq), l_max)
    n = len(seq)
    if n > l_max:
        raise SequenceTooLong(n, l_max)
    tokens = np.full(l_max, PAD_ID, dtype=np.int64)
    tokens[:n] = ids
    mask = np.zeros(l_max, dtype=bool)
    mask[:n] = True
    return TokenizedSequence(tokens, mask, n)


def parse_fasta(text):
    """Parse FASTA text into a list of (header, sequence) pairs.

    Headers keep everything after '>'. Sequence lines are concatenated and
    validated against the canonical alphabet. Blank lines are allowed between
    records.

    Raises:
        MalformedFasta: sequence data before the first header, or a record
            with an empty sequence.
        UnknownResidue: residue characters outside the alphabet.
    """
    records = []
    header = None
    chunks = []

    def flush():
        if header is None:
            return
        seq = "".join(chunks)
        if not seq:
            raise MalformedFasta(f"record {header!r} has no sequence")
        for i, ch in enumerate(seq):
            if ch not in TOKEN_TO_ID:
                raise UnknownResidue(ch, i)
        records.append((header, seq))

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            chunks = []
        else:
            if header is None:
                raise MalformedFasta("sequence data before first header")
            chunks.append(line)
    flush()
    return records


def read_fasta(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise DataError(f"{path}: cannot read FASTA file: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: FASTA file is not UTF-8 text: {e}") from None
    return parse_fasta(text)


class LengthDistribution:
    """Empirical distribution over observed sequence lengths.

    lengths is a sorted int64 array of distinct observed lengths, counts the
    matching occurrence counts. Sampling only ever returns observed lengths.
    """

    __slots__ = ("lengths", "counts", "_cdf")

    def __init__(self, lengths, counts):
        lengths = np.asarray(lengths, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if lengths.ndim != 1 or lengths.shape != counts.shape or lengths.size == 0:
            raise EmptyCorpus("length distribution needs at least one observed length")
        if np.any(counts <= 0) or np.any(lengths <= 0):
            raise EmptyCorpus("lengths and counts must be positive")
        order = np.argsort(lengths)
        self.lengths = lengths[order]
        self.counts = counts[order]
        if np.any(np.diff(self.lengths) == 0):
            raise EmptyCorpus("duplicate lengths in distribution")
        self._cdf = np.cumsum(self.counts) / float(self.counts.sum())

    @property
    def total(self):
        return int(self.counts.sum())

    def sample(self, rng):
        """Draw one length by inverse-CDF over the empirical counts."""
        u = rng.uniform(())
        idx = int(np.searchsorted(self._cdf, u, side="right"))
        idx = min(idx, len(self.lengths) - 1)
        return int(self.lengths[idx])

    def to_dict(self):
        return {
            "lengths": [int(x) for x in self.lengths],
            "counts": [int(x) for x in self.counts],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(np.asarray(d["lengths"]), np.asarray(d["counts"]))


def fit_length_distribution(seqs, l_max=None):
    """Fit a LengthDistribution to a corpus of residue strings.

    Args:
        seqs: iterable of sequences (strings or TokenizedSequence).
        l_max: optional cap; longer sequences raise SequenceTooLong.
    """
    counts = {}
    for s in seqs:
        n = s.true_length if isinstance(s, TokenizedSequence) else len(s)
        if l_max is not None and n > l_max:
            raise SequenceTooLong(n, l_max)
        counts[n] = counts.get(n, 0) + 1
    if not counts:
        raise EmptyCorpus("empty corpus")
    lengths = np.array(sorted(counts), dtype=np.int64)
    return LengthDistribution(lengths, np.array([counts[k] for k in lengths], dtype=np.int64))
