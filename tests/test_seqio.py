"""Tokenizer, FASTA IO, config-text and length-distribution tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protflow.config import SCHEMA, _validate, parse_config_text
from protflow.errors import (
    ConfigError,
    DataError,
    EmptyCorpus,
    InvalidTokenId,
    MalformedFasta,
    SequenceTooLong,
    UnknownResidue,
)
from protflow.numeric import RngStream
from protflow.seqio import (
    AMINO_ACIDS,
    PAD_ID,
    TOKEN_TO_ID,
    VOCAB_SIZE,
    LengthDistribution,
    check_residues,
    detokenize,
    fit_length_distribution,
    parse_fasta,
    tokenize,
)


def test_alphabet_constants():
    assert AMINO_ACIDS == "ACDEFGHIKLMNPQRSTVWY"
    assert len(AMINO_ACIDS) == 20
    assert PAD_ID == 20
    assert VOCAB_SIZE == 21


def test_tokenize_known_values():
    ids = tokenize(["ACD"], 3)
    assert ids.tolist() == [[0, 1, 2]]
    assert ids.dtype == np.int64


def test_tokenize_detokenize_round_trip_random():
    rng = np.random.default_rng(11)
    seqs = []
    for _ in range(200):
        n = int(rng.integers(1, 60))
        seqs.append("".join(AMINO_ACIDS[i] for i in rng.integers(0, 20, size=n)))
    ids = tokenize(seqs, 60)
    for row, seq in zip(ids, seqs):
        assert detokenize(row[: len(seq)]) == seq


def test_tokenize_rejects_unknown_residue():
    with pytest.raises(UnknownResidue):
        tokenize(["ACX"], 3)
    with pytest.raises(UnknownResidue):
        tokenize(["acd"], 3)  # case-sensitive
    with pytest.raises(UnknownResidue):
        check_residues("acd")


def test_tokenize_appends_pad_ids():
    ids = tokenize(["MK", "", "ACDEF"], 5)
    assert ids.tolist() == [[10, 8, PAD_ID, PAD_ID, PAD_ID], [PAD_ID] * 5, [0, 1, 2, 3, 4]]
    assert detokenize(ids[0, :2]) == "MK"
    assert tokenize([], 5).shape == (0, 5)


def test_tokenize_rejects_too_long():
    with pytest.raises(SequenceTooLong):
        tokenize(["AC", "ACDEF"], 3)


def test_detokenize_rejects_pad_and_out_of_range_ids():
    for bad in ([0, PAD_ID], [0, -1], [VOCAB_SIZE]):
        with pytest.raises(InvalidTokenId):
            detokenize(np.array(bad))
    assert detokenize(np.array([], dtype=np.int64)) == ""


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
    assert ld.counts.sum() == 4

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


def test_length_distribution_rejects_counts_past_int64():
    # the int64 running total of the CDF would wrap past 2**63 - 1
    with pytest.raises(EmptyCorpus, match="2\\*\\*63"):
        LengthDistribution([2, 5], [2**62, 2**62])
    with pytest.raises(EmptyCorpus):
        LengthDistribution([2, 5, 7], [2**62, 2**61, 2**61])
    ld = LengthDistribution([2, 5], [2**62, 2**62 - 1])
    draws = {ld.sample(RngStream(seed)) for seed in range(40)}
    assert draws == {2, 5}


def test_fit_length_distribution_counts_true_lengths():
    ld = fit_length_distribution(tokenize(["AC", "ACD", "AC", "M"], 10))
    assert ld.lengths.tolist() == [1, 2, 3]
    assert ld.counts.tolist() == [1, 2, 1]
    with pytest.raises(EmptyCorpus):
        fit_length_distribution(tokenize([], 4))
    with pytest.raises(EmptyCorpus):  # an empty sequence has no length to sample
        fit_length_distribution(tokenize(["AC", ""], 4))


def test_fit_length_distribution_sampling_is_empirical():
    rng = np.random.default_rng(3)
    lens = rng.integers(2, 30, size=400)
    seqs = ["".join(AMINO_ACIDS[j] for j in rng.integers(0, 20, n)) for n in lens]
    ld = fit_length_distribution(tokenize(seqs, 30))
    stream = RngStream(9).substream("len")
    draws = [ld.sample(stream.substream(f"d{i}")) for i in range(2000)]
    assert set(draws) <= set(int(x) for x in lens)
    # empirical frequency of the most common length is roughly preserved
    top = int(ld.lengths[np.argmax(ld.counts)])
    expected = ld.counts.max() / ld.counts.sum()
    observed = draws.count(top) / len(draws)
    assert abs(observed - expected) < 0.05


def _outcome(fn, *args):
    """("ok", ids, dtype) or ("raised", exception type, attributes)."""
    try:
        ids = fn(*args)
    except Exception as e:  # compare whatever either side raises
        return ("raised", type(e), e.args, vars(e))
    return ("ok", ids.tolist(), ids.dtype)


def _tokenize_reference(seqs, l_max):
    """tokenize as a per-character loop, each record checked in turn."""
    out = np.full((len(seqs), l_max), PAD_ID, dtype=np.int64)
    for i, seq in enumerate(seqs):
        for j, ch in enumerate(seq):
            if ch not in TOKEN_TO_ID:
                raise UnknownResidue(ch, j)
        if len(seq) > l_max:
            raise SequenceTooLong(len(seq), l_max)
        for j, ch in enumerate(seq):
            out[i, j] = TOKEN_TO_ID[ch]
    return out


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


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(_ANY_TEXT, st.text(alphabet=AMINO_ACIDS, max_size=24)), max_size=6),
    st.integers(min_value=0, max_value=26),
)
def test_tokenize_matches_per_record_reference(seqs, l_max):
    # too short, exact or padded widths, valid and invalid records in any order
    assert _outcome(tokenize, seqs, l_max) == _outcome(_tokenize_reference, seqs, l_max)


def test_tokenize_reports_the_residue_before_the_length():
    with pytest.raises(UnknownResidue) as info:
        tokenize(["ACDEFx"], 3)
    assert (info.value.char, info.value.position) == ("x", 5)
    with pytest.raises(SequenceTooLong):
        tokenize(["ACDEF"], 4)
    # records are checked in order: a long record before a bad one reports the length
    with pytest.raises(SequenceTooLong):
        tokenize(["ACDEF", "ACx"], 4)


# FASTA-shaped text: headers, residue lines (valid or not), blank lines and noise
_FASTA_LINES = st.one_of(
    st.text(max_size=8).map(lambda h: ">" + h),
    st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=12),
    _ANY_TEXT,
    st.sampled_from(["", " ", ">", "\t"]),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(_FASTA_LINES, max_size=8).map("\n".join), st.text(max_size=40)))
def test_fuzzed_fasta_parses_or_raises_a_data_error(text):
    try:
        records = parse_fasta(text)
    except DataError as e:
        assert e.exit_code == 2
        return
    for header, seq in records:
        assert isinstance(header, str)
        assert detokenize(tokenize([seq], len(seq))[0]) == seq


_CONFIG_VALUES = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0", "1", "true", "False", "0x10",
                     "1_000", "A:3,B:2", "A:0", ":"]),
    st.integers(-5, 200).map(str),
    st.floats().map(repr),
)
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(SCHEMA)), _CONFIG_VALUES).map(" = ".join),
    st.text(max_size=20),
    st.sampled_from(["", "# comment", "=", "model.D", "model.D = 8 # c"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CONFIG_LINES, max_size=6).map("\n".join))
def test_fuzzed_config_text_parses_or_raises_a_config_error(text):
    try:
        values = parse_config_text(text)
        _validate(values)
    except ConfigError as e:
        assert e.exit_code == 1
        return
    assert set(values) == set(SCHEMA)
