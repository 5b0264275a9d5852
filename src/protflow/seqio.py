"""Sequence vocabulary, tokenization, FASTA I/O, and length statistics.

The vocabulary is the 20 canonical amino acids in alphabetical order
(ids 0..19) plus a PAD token (id 20). A tokenized corpus is one (n, l_max)
int64 id matrix: row i holds the residue ids of sequence i, then PAD_ID to
the end of the row, so a sequence's length is its count of non-PAD ids.
check_residues is the one check of a string against the alphabet.
Tokenization is reversible: detokenize(tokenize([s], len(s))[0]) == s for
any sequence over the canonical alphabet.
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
from .numeric import is_int

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
PAD_ID = 20
VOCAB_SIZE = 21

TOKEN_TO_ID = {aa: i for i, aa in enumerate(AMINO_ACIDS)}

# Byte -> token id for the canonical residues, -1 for every other byte, and
# token id -> byte for the residue ids.
_ID_TO_BYTE = np.frombuffer(AMINO_ACIDS.encode("ascii"), dtype=np.uint8)
_BYTE_TO_ID = np.full(256, -1, dtype=np.int64)
_BYTE_TO_ID[_ID_TO_BYTE] = np.arange(PAD_ID)


def check_residues(seq):
    """Raise UnknownResidue at the first character of seq outside the
    alphabet (case-sensitive, upper case)."""
    for i, ch in enumerate(seq):
        if ch not in TOKEN_TO_ID:
            raise UnknownResidue(ch, i)


def tokenize(seqs, l_max):
    """(n, l_max) int64 id matrix of a list of n residue strings, each row
    padded with PAD_ID after its sequence, built in one table lookup over the
    joined text.

    Raises what checking the records one by one raises: for the first bad
    record, UnknownResidue if it has a character outside the alphabet, else
    SequenceTooLong if it is longer than l_max.
    """
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    text = "".join(seqs)
    ids = None
    if text.isascii():
        ids = _BYTE_TO_ID[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    if ids is None or ids.min(initial=0) < 0 or lengths.max(initial=0) > l_max:
        for seq in seqs:  # some record is bad: find the first
            check_residues(seq)
            if len(seq) > l_max:
                raise SequenceTooLong(len(seq), l_max)
    out = np.full((len(seqs), l_max), PAD_ID, dtype=np.int64)
    out[np.arange(l_max) < lengths[:, None]] = ids
    return out


def detokenize(ids):
    """Map a 1-D array of residue ids back to its residue string; PAD or any
    id outside 0..19 raises InvalidTokenId."""
    ids = np.asarray(ids, dtype=np.int64)
    bad = (ids < 0) | (ids >= PAD_ID)
    if bad.any():
        raise InvalidTokenId(int(ids[bad][0]))
    return _ID_TO_BYTE[ids].tobytes().decode("ascii")


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
        check_residues(seq)
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
        # the int64 cumsum below would wrap
        if sum(map(int, counts)) >= 2**63:
            raise EmptyCorpus("length counts total 2**63 or more")
        order = np.argsort(lengths)
        self.lengths = lengths[order]
        self.counts = counts[order]
        if np.any(np.diff(self.lengths) == 0):
            raise EmptyCorpus("duplicate lengths in distribution")
        self._cdf = np.cumsum(self.counts) / float(self.counts.sum())

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
        """The distribution of a to_dict object; raises DataError unless its
        lengths and counts are lists of int64 integers."""
        lists = [d.get(key) if isinstance(d, dict) else None for key in ("lengths", "counts")]
        if not all(isinstance(v, list) and all(is_int(x, 1 - 2**63, 2**63 - 1) for x in v)
                   for v in lists):
            raise DataError("length distribution needs 'lengths' and 'counts' lists of integers")
        return cls(*lists)


def fit_length_distribution(ids):
    """Fit a LengthDistribution to the sequence lengths of an (n, l_max) id
    matrix, as tokenize returns it."""
    if len(ids) == 0:
        raise EmptyCorpus("empty corpus")
    counts = np.bincount(np.count_nonzero(ids != PAD_ID, axis=1))
    lengths = np.flatnonzero(counts)
    return LengthDistribution(lengths, counts[lengths])
