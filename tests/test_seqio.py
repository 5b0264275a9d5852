"""Tokenizer, FASTA IO, and length-distribution tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protflow.errors import (
    EmptyCorpus,
    InvalidTokenId,
    MalformedFasta,
    SequenceTooLong,
    UnknownResidue,
)
from protflow.seqio import (
    AMINO_ACIDS,
    PAD_ID,
    VOCAB_SIZE,
    LengthDistribution,
    TokenizedSequence,
    detokenize,
    fit_length_distribution,
    pad_to,
    parse_fasta,
    tokenize,
    tokenize_padded,
)


def test_alphabet_constants():
    assert AMINO_ACIDS == "ACDEFGHIKLMNPQRSTVWY"
    assert len(AMINO_ACIDS) == 20
    assert PAD_ID == 20
    assert VOCAB_SIZE == 21


def test_tokenize_known_values():
    ts = tokenize("ACD")
    assert ts.tokens.tolist() == [0, 1, 2]
    assert ts.mask.tolist() == [True, True, True]
    assert ts.true_length == 3


def test_tokenize_detokenize_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        seq = "".join(AMINO_ACIDS[i] for i in rng.integers(0, 20, size=n))
        assert detokenize(tokenize(seq)) == seq


def test_tokenize_rejects_unknown_residue():
    with pytest.raises(UnknownResidue):
        tokenize("ACX")
    with pytest.raises(UnknownResidue):
        tokenize("acd")  # case-sensitive


def test_pad_to_appends_pad_ids():
    ts = pad_to(tokenize("MK"), 5)
    assert ts.tokens.tolist() == [10, 8, PAD_ID, PAD_ID, PAD_ID]
    assert ts.mask.tolist() == [True, True, False, False, False]
    assert ts.true_length == 2
    assert detokenize(ts) == "MK"


def test_pad_to_rejects_too_long():
    with pytest.raises(SequenceTooLong):
        pad_to(tokenize("ACDEF"), 3)


def test_tokenized_sequence_validation():
    # mask must be a True-prefix
    with pytest.raises(MalformedFasta):
        TokenizedSequence(np.array([0, PAD_ID, 1]), np.array([True, False, True]), 2)
    # PAD required outside the mask
    with pytest.raises(InvalidTokenId):
        TokenizedSequence(np.array([0, 1, 3]), np.array([True, True, False]), 2)
    # residue ids inside the mask must be < PAD_ID
    with pytest.raises(InvalidTokenId):
        TokenizedSequence(np.array([0, PAD_ID]), np.array([True, True]), 2)


def test_parse_fasta_multiline_and_blank_lines():
    records = parse_fasta(">a desc\nAC\nDE\n\n>b\nMK\n")
    assert records == [("a desc", "ACDE"), ("b", "MK")]


def test_parse_fasta_errors():
    with pytest.raises(MalformedFasta):
        parse_fasta("ACDE\n>late\nMK\n")
    with pytest.raises(MalformedFasta):
        parse_fasta(">empty\n>b\nMK\n")
    with pytest.raises(UnknownResidue):
        parse_fasta(">a\nACZ\n")


def test_length_distribution_inverse_cdf():
    ld = LengthDistribution([3, 5, 9], [1, 1, 2])
    assert ld.total == 4

    class FakeRng:
        def __init__(self, u):
            self.u = u

        def uniform(self, shape):
            return np.float64(self.u)

    # CDF breakpoints at 0.25, 0.5, 1.0
    assert ld.sample(FakeRng(0.1)) == 3
    assert ld.sample(FakeRng(0.3)) == 5
    assert ld.sample(FakeRng(0.7)) == 9
    assert ld.sample(FakeRng(1.0)) == 9


def test_length_distribution_dict_round_trip():
    ld = LengthDistribution([2, 7], [3, 4])
    ld2 = LengthDistribution.from_dict(ld.to_dict())
    assert np.array_equal(ld.lengths, ld2.lengths)
    assert np.array_equal(ld.counts, ld2.counts)


def test_length_distribution_validation():
    with pytest.raises(EmptyCorpus):
        LengthDistribution([], [])
    with pytest.raises(EmptyCorpus):
        LengthDistribution([3, 3], [1, 1])
    with pytest.raises(EmptyCorpus):
        LengthDistribution([0], [1])


def test_fit_length_distribution_counts_true_lengths():
    seqs = ["AC", "ACD", "AC", pad_to(tokenize("M"), 10)]
    ld = fit_length_distribution(seqs)
    assert ld.lengths.tolist() == [1, 2, 3]
    assert ld.counts.tolist() == [1, 2, 1]
    with pytest.raises(SequenceTooLong):
        fit_length_distribution(["ACDEF"], l_max=4)
    with pytest.raises(EmptyCorpus):
        fit_length_distribution([])


def test_fit_length_distribution_sampling_is_empirical():
    rng = np.random.default_rng(3)
    lens = rng.integers(2, 30, size=400)
    seqs = ["".join(AMINO_ACIDS[j] for j in rng.integers(0, 20, n)) for n in lens]
    ld = fit_length_distribution(seqs)
    from protflow.numeric import RngStream

    stream = RngStream(9).substream("len")
    draws = [ld.sample(stream.substream(f"d{i}")) for i in range(2000)]
    assert set(draws) <= set(int(x) for x in lens)
    # empirical frequency of the most common length is roughly preserved
    top = int(ld.lengths[np.argmax(ld.counts)])
    expected = ld.counts.max() / ld.total
    observed = draws.count(top) / len(draws)
    assert abs(observed - expected) < 0.05


def _outcome(fn, *args):
    """("ok", tokens, mask, true_length, dtype) or ("raised", exception type, args)."""
    try:
        ts = fn(*args)
    except Exception as e:  # compare whatever either side raises
        return ("raised", type(e), e.args)
    return ("ok", ts.tokens.tolist(), ts.mask.tolist(), ts.true_length, ts.tokens.dtype)


# canonical residues; lowercase and other ASCII; code points up to U+02FF
# (Latin-1 and beyond); astral-plane characters
_ANY_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(AMINO_ACIDS),
        st.sampled_from(AMINO_ACIDS.lower() + "BJOUXZ*-. \n\x00\x7f"),
        st.characters(max_codepoint=0x2FF),
        st.characters(min_codepoint=0x10000, max_codepoint=0x1F9FF),
    ),
    max_size=24,
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(_ANY_TEXT, st.text(alphabet=AMINO_ACIDS, max_size=24)),
    st.integers(min_value=-2, max_value=3),
)
def test_tokenize_padded_matches_tokenize_then_pad(seq, slack):
    l_max = len(seq) + slack  # too short, exact, or padded
    assert _outcome(tokenize_padded, seq, l_max) == _outcome(
        lambda s, n: pad_to(tokenize(s), n), seq, l_max
    )


def test_tokenize_padded_reports_the_residue_before_the_length():
    with pytest.raises(UnknownResidue) as info:
        tokenize_padded("ACDEFx", 3)
    assert (info.value.char, info.value.position) == ("x", 5)
    with pytest.raises(SequenceTooLong):
        tokenize_padded("ACDEF", 4)
