from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from duplexsim import tokens
from duplexsim import (
    DedupChunk,
    DedupDialogue,
    Vocab,
    chunk_streams,
    deduplicate,
    encode,
    encode_dialogue,
    flatten,
    interpolate,
    parse,
)
from duplexsim.errors import (
    BadChunkSize,
    EmptyCarryOverWarning,
    LengthMismatch,
    MalformedSequence,
)


# three 160 ms chunks; channel 1 holds one token throughout
FIGURE = ((75, 75, 75, 75, 17, 17, 338, 338, 338, 338, 338, 338), (89,) * 12)


def figure_dialogue(vocab):
    return deduplicate(*FIGURE, 160, vocab)


def chunk_wires(wire, vocab):
    """A wire form cut before each tag_s0: the wire form of each chunk."""
    starts = [i for i, t in enumerate(wire) if t == vocab.tag_s0]
    return [wire[a:b] for a, b in zip(starts, starts[1:] + [len(wire)])]


class TestChunkStreams:
    def test_frames_per_chunk_arithmetic(self, vocab):
        assert vocab.frames_per_chunk(240) == 6
        assert vocab.frames_per_chunk(160) == 4
        assert vocab.frames_per_chunk(200) == 5

    def test_single_chunk(self, vocab):
        frames = chunk_streams((1, 2, 3, 4), (5, 6, 7, 8), 160, vocab)
        assert frames.dtype == np.int64
        assert frames.tolist() == [[[1, 2, 3, 4]], [[5, 6, 7, 8]]]

    def test_concatenation_reproduces_inputs(self, vocab):
        frames = chunk_streams(*FIGURE, 160, vocab)
        assert frames.shape == (2, 3, 4)
        assert tuple(map(tuple, frames.reshape(2, -1).tolist())) == FIGURE

    def test_length_mismatch(self, vocab):
        with pytest.raises(LengthMismatch):
            chunk_streams((1, 2), (1,), 160, vocab)

    def test_bad_chunk_size(self, vocab):
        with pytest.raises(BadChunkSize):
            chunk_streams((1,) * 4, (2,) * 4, 170, vocab)

    def test_padding_with_silence(self, vocab):
        frames = chunk_streams((7, 7, 7), (8, 8, 8), 160, vocab)
        assert frames.tolist() == [[[7, 7, 7, 0]], [[8, 8, 8, 0]]]

    def test_empty_streams(self, vocab):
        assert chunk_streams((), (), 160, vocab).shape == (2, 0, 4)

    def test_rejects_out_of_range_tokens(self, vocab):
        with pytest.raises(ValueError):
            chunk_streams((501,) * 4, (0,) * 4, 160, vocab)


class TestEncode:
    def test_length_mismatch(self, vocab):
        with pytest.raises(LengthMismatch):
            encode([((1, 2), (1,))], 160, vocab)

    @pytest.mark.parametrize("chunk_ms", [170, 0, -160])
    def test_bad_chunk_size(self, vocab, chunk_ms):
        with pytest.raises(BadChunkSize):
            encode([((1,) * 4, (2,) * 4)], chunk_ms, vocab)

    # an id past int64 makes numpy raise OverflowError, which the CLI would
    # not map to an exit code
    @pytest.mark.parametrize("bad", [-1, 501, 2**70, -(2**70)])
    @pytest.mark.parametrize("channel", [0, 1])
    def test_rejects_out_of_range_tokens(self, vocab, bad, channel):
        s = [(1, 2, 3, 4), (5, 6, 7, 8)]
        s[channel] = (1, bad, 3, 4)
        with pytest.raises(ValueError, match=f"token {bad} outside unit range"):
            encode([s], 160, vocab)

    # tags are int64 up to 2**63 - 2 units; past that an int64 wire cannot
    # hold them (a float64 one would round both to the same value)
    def test_tags_past_int64(self):
        big = Vocab(size=2**63 - 2)
        ((wire, _),) = encode([((1, 2), (3, 3))], 80, big)
        assert wire.dtype == np.int64
        assert wire.tolist() == [big.tag_s0, 1, 2, big.tag_s1, 3]
        for size in (2**63 - 1, 2**63):
            with pytest.raises(ValueError, match="speaker tags past int64"):
                encode([((1, 2), (3, 3))], 80, Vocab(size=size))


@given(size=st.integers(1, 30), chunk_ms=st.sampled_from([40, 160, 200, 240]),
       data=st.data())
@settings(max_examples=400)
def test_encode_matches_the_frame_by_frame_oracle(size, chunk_ms, data):
    # any length, not only whole chunks, so padding with the first silence
    # unit is covered too
    silence = data.draw(st.sets(st.integers(0, size - 1), min_size=1))
    vocab = Vocab(size=size, frame_ms=40, silence_tokens=frozenset(silence))
    n = data.draw(st.integers(0, 40))
    toks = st.lists(st.integers(0, size - 1), min_size=n, max_size=n).map(tuple)
    s0, s1 = data.draw(toks), data.draw(toks)
    expected = oracles.deduplicate(s0, s1, chunk_ms, vocab)
    ((wire, starts),) = encode([(s0, s1)], chunk_ms, vocab)
    assert wire.dtype == np.int64
    assert wire.tolist() == flatten(expected)
    got_wire, got_starts = encode_dialogue(expected)
    assert (got_wire.dtype, got_starts.dtype) == (wire.dtype, starts.dtype) == (np.int64,) * 2
    assert (got_wire.tolist(), got_starts.tolist()) == (wire.tolist(), starts.tolist())
    assert starts.tolist() == [i for i, t in enumerate(wire.tolist()) if t == vocab.tag_s0]
    assert parse(wire.tolist(), vocab, chunk_ms) == expected
    assert deduplicate(s0, s1, chunk_ms, vocab) == expected


def assert_encodes_as_one_dialogue_each(corpus, chunk_ms, vocab):
    got = encode(corpus, chunk_ms, vocab)
    assert len(got) == len(corpus)
    for (wire, starts), (s0, s1) in zip(got, corpus):
        one_wire, one_starts = oracles.encode(s0, s1, chunk_ms, vocab)
        assert (wire.dtype, starts.dtype) == (one_wire.dtype, one_starts.dtype)
        assert wire.dtype == starts.dtype == np.int64
        assert wire.tolist() == one_wire.tolist()
        assert starts.tolist() == one_starts.tolist()


# unequal lengths, 0 and 1 frames among them, mostly not whole chunks; batches
# of one frame up to the default, so a batch bound falls anywhere
@given(chunk_ms=st.sampled_from([40, 160, 200, 240]),
       batch_frames=st.sampled_from([1, 5, 23, tokens._BATCH_FRAMES]), data=st.data())
@settings(max_examples=300)
def test_batched_encode_matches_the_one_dialogue_encoder(chunk_ms, batch_frames, data):
    size = data.draw(st.integers(1, 8))
    silence = data.draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=2))
    vocab = Vocab(size=size, frame_ms=40, silence_tokens=frozenset(silence))
    corpus = []
    for n in data.draw(st.lists(st.sampled_from([0, 1, 2, 5, 7, 13, 24]), max_size=8)):
        ids = st.lists(st.integers(0, size - 1), min_size=n, max_size=n).map(tuple)
        corpus.append((data.draw(ids), data.draw(ids)))
    with mock.patch.object(tokens, "_BATCH_FRAMES", batch_frames):
        assert_encodes_as_one_dialogue_each(corpus, chunk_ms, vocab)


@pytest.mark.parametrize("chunk_ms", [40, 160, 200, 240])
def test_batched_encode_past_one_batch(chunk_ms):
    rng = np.random.default_rng(5)
    vocab = Vocab(size=9, frame_ms=40, silence_tokens=frozenset({0, 3}))
    lengths = [0, 1, *rng.integers(0, 2000, 40).tolist(), 1, 0]
    assert sum(lengths) > 2 * tokens._BATCH_FRAMES
    corpus = [tuple(rng.choice(5, (2, n), p=[0.5, 0.2, 0.1, 0.1, 0.1])) for n in lengths]
    assert_encodes_as_one_dialogue_each(corpus, chunk_ms, vocab)
    assert_encodes_as_one_dialogue_each([tuple(map(tuple, d)) for d in corpus], chunk_ms, vocab)


# a batch names its first faulty dialogue, as one call per dialogue would
@pytest.mark.parametrize("faults,error", [
    ([((1, 99), (1, 1)), ((1, 2), (1,))], "token 99 outside"),
    ([((1, 2), (1,)), ((1, 99), (1, 1))], "channel lengths differ"),
    ([((1, 1), (2**70, 1)), ((1, 2), (1,))], f"token {2**70} outside"),
])
def test_batched_encode_names_the_first_fault(faults, error, tiny_vocab):
    corpus = [((1, 2), (3, 4)), *faults, ((5,), (6,))]
    with pytest.raises((ValueError, LengthMismatch), match=error):
        encode(corpus, 80, tiny_vocab)


class TestDeduplicate:
    def test_figure_wire_forms(self, vocab):
        assert chunk_wires(flatten(figure_dialogue(vocab)), vocab) == [
            [vocab.tag_s0, 75, vocab.tag_s1, 89], [vocab.tag_s0, 17, 338], [vocab.tag_s0]]

    def test_tag_presence_tracks_novelty(self, vocab):
        d = figure_dialogue(vocab)
        assert [bool(c.s1_novel) for c in d.chunks] == [True, False, False]
        assert [vocab.tag_s1 in w for w in chunk_wires(flatten(d), vocab)] == [True, False, False]

    def test_carry_across_chunks(self, vocab):
        # channel repeats its last token into the next chunk: nothing novel
        s0 = (5, 5, 5, 5, 5, 5, 5, 5)
        s1 = (9, 9, 9, 9, 9, 3, 3, 3)
        d = deduplicate(s0, s1, 160, vocab)
        assert d.chunks[0].s0_novel == (5,)
        assert d.chunks[1].s0_novel == ()
        assert d.chunks[1].s1_novel == (3,)


class TestDedupDialogue:
    # every grammar case: more novels than frames, an id that is not a
    # unit, and a novel equal to its channel's previous novel (in the same
    # chunk or an earlier one), which no encoding emits
    @pytest.mark.parametrize("chunks,match", [
        ([((1, 2, 3, 4, 5), (9,))], "chunk 0 channel 0: 5 novel tokens exceed 4"),
        ([((1,), (9,)), ((2,), (1, 2, 3, 4, 5))], "chunk 1 channel 1: 5 novel tokens exceed 4"),
        ([((1,), (501,))], "chunk 0 channel 1: an id outside"),
        ([((1,), ()), ((503,), ())], "chunk 1 channel 0: an id outside"),
        ([((-1,), ())], "chunk 0 channel 0: an id outside"),
        ([((1, 1), ())], "chunk 0 channel 0 repeats its previous novel"),
        ([((1,), (2,)), ((1,), ())], "chunk 1 channel 0 repeats its previous novel"),
        ([((1,), (2,)), ((3,), (2,))], "chunk 1 channel 1 repeats its previous novel")],
        ids=["s0_overflow", "s1_overflow", "tag_as_unit", "unknown_id", "negative_id",
             "repeat_in_chunk", "repeat_across_chunks", "repeat_across_chunks_s1"])
    def test_rejects_malformed(self, vocab, chunks, match):
        with pytest.raises(MalformedSequence, match=match):
            DedupDialogue(vocab, 160, tuple(DedupChunk(a, b) for a, b in chunks))

    # ids from -1 to the first tag and up to 5 novels per 4-frame chunk, so
    # each kind of fault, several at once, and clean dialogues all occur
    @settings(max_examples=400)
    @given(st.lists(st.tuples(*[st.lists(st.integers(-1, 6), max_size=5).map(tuple)] * 2),
                    max_size=6))
    def test_names_the_first_fault_of_a_chunk_walk(self, chunks):
        vocab = Vocab(size=6, frame_ms=40)
        fault = oracles.grammar_fault(chunks, 4, vocab.size)
        if fault is None:
            assert DedupDialogue(vocab, 160, chunks).chunks == tuple(chunks)
        else:
            with pytest.raises(MalformedSequence) as err:
                DedupDialogue(vocab, 160, chunks)
            assert str(err.value) == fault


class TestInterpolate:
    def test_single_token_repeated(self, vocab):
        d = DedupDialogue(vocab, 160, (DedupChunk(s0_novel=(75,), s1_novel=(89,)),))
        assert interpolate(d) == ((75, 75, 75, 75), (89, 89, 89, 89))

    def test_equal_repetition(self, vocab):
        d = DedupDialogue(vocab, 160, (DedupChunk(s0_novel=(17, 338), s1_novel=(89,)),))
        assert interpolate(d)[0] == (17, 17, 338, 338)

    def test_remainder_goes_to_earliest(self, vocab):
        d = DedupDialogue(vocab, 160, (DedupChunk(s0_novel=(1, 2, 3), s1_novel=(9,)),))
        assert interpolate(d)[0] == (1, 1, 2, 3)

    def test_full_chunk_unchanged(self, vocab):
        d = DedupDialogue(vocab, 160, (DedupChunk(s0_novel=(1, 2, 3, 4), s1_novel=(9,)),))
        assert interpolate(d)[0] == (1, 2, 3, 4)

    def test_empty_first_chunk_warns_and_fills_silence(self, vocab):
        d = DedupDialogue(
            vocab, 160, (DedupChunk(s0_novel=(), s1_novel=(9,)),)
        )
        with pytest.warns(EmptyCarryOverWarning):
            rec = interpolate(d)
        assert rec[0] == (0, 0, 0, 0)

    def test_figure_bottom_row(self, vocab):
        assert interpolate(figure_dialogue(vocab)) == FIGURE


class TestFlattenParse:
    def test_flatten_figure(self, vocab):
        d = figure_dialogue(vocab)
        assert flatten(d) == [vocab.tag_s0, 75, vocab.tag_s1, 89,
                              vocab.tag_s0, 17, 338, vocab.tag_s0]

    def test_flatten_empty(self, vocab):
        assert flatten(DedupDialogue(vocab, 160, ())) == []

    def test_all_silent_two_chunks(self, vocab):
        # derived by hand-applying dedup + flatten: silence is novel once
        s = 0
        s0 = (s,) * 8
        s1 = (s,) * 8
        d = deduplicate(s0, s1, 160, vocab)
        assert flatten(d) == [vocab.tag_s0, s, vocab.tag_s1, s, vocab.tag_s0]

    def test_parse_figure_chunk(self, vocab):
        d = parse([vocab.tag_s0, 75, vocab.tag_s1, 89], vocab, 160)
        assert len(d.chunks) == 1
        assert d.chunks[0].s0_novel == (75,)
        assert d.chunks[0].s1_novel == (89,)

    def test_parse_empty(self, vocab):
        assert parse([], vocab, 160).chunks == ()

    def test_parse_rejects_leading_s1(self, vocab):
        with pytest.raises(MalformedSequence):
            parse([vocab.tag_s1, 89], vocab, 160)

    def test_parse_rejects_leading_unit(self, vocab):
        with pytest.raises(MalformedSequence):
            parse([42, vocab.tag_s0], vocab, 160)

    def test_parse_rejects_double_s1(self, vocab):
        with pytest.raises(MalformedSequence):
            parse([vocab.tag_s0, 1, vocab.tag_s1, 2, vocab.tag_s1, 3], vocab, 160)

    def test_parse_rejects_empty_s1_block(self, vocab):
        with pytest.raises(MalformedSequence):
            parse([vocab.tag_s0, 1, vocab.tag_s1, vocab.tag_s0, 2], vocab, 160)

    def test_parse_rejects_overflow(self, vocab):
        with pytest.raises(MalformedSequence):
            parse([vocab.tag_s0, 1, 2, 3, 4, 5], vocab, 160)

    def test_parse_rejects_unknown_id(self, vocab):
        with pytest.raises(MalformedSequence):
            parse([vocab.tag_s0, 503], vocab, 160)

    # a novel equal to its channel's previous novel, in the same chunk or an
    # earlier one: no encoding emits it
    @pytest.mark.parametrize("wire", [["S0", 1, 1], ["S0", 1, "S1", 2, "S0", 1],
                                      ["S0", 1, "S1", 2, "S0", 3, "S1", 2]])
    def test_parse_rejects_repeated_novel(self, vocab, wire):
        tags = {"S0": vocab.tag_s0, "S1": vocab.tag_s1}
        with pytest.raises(MalformedSequence, match="repeats its previous novel"):
            parse([tags.get(t, t) for t in wire], vocab, 160)


# ---------------------------------------------------------------------------
# randomized properties


@st.composite
def dialogues(draw):
    """``(s0, s1, chunk_ms, vocab)``: whole chunks of random units."""
    vocab_size = draw(st.integers(min_value=3, max_value=24))
    chunk_ms = draw(st.sampled_from([160, 200, 240]))
    vocab = Vocab(size=vocab_size, frame_ms=40, silence_tokens=frozenset({0}))
    n_chunks = draw(st.integers(min_value=0, max_value=5))
    n = n_chunks * vocab.frames_per_chunk(chunk_ms)
    toks = st.integers(min_value=0, max_value=vocab_size - 1)
    t0 = draw(st.lists(toks, min_size=n, max_size=n))
    t1 = draw(st.lists(toks, min_size=n, max_size=n))
    return tuple(t0), tuple(t1), chunk_ms, vocab


@given(dialogues())
@settings(max_examples=200)
def test_wire_round_trip(d):
    _, _, chunk_ms, vocab = d
    dd = deduplicate(*d)
    assert parse(flatten(dd), vocab, chunk_ms) == dd


@given(size=st.integers(3, 6), chunk_ms=st.sampled_from([160, 200]),
       head=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       tail=st.lists(st.integers(0, 7), max_size=30))
@settings(max_examples=300)
def test_parse_accepts_only_encodings(size, chunk_ms, head, tail):
    # every sequence parse accepts, both channels opening with a novel, is
    # the encoding of the dialogue it parses to
    vocab = Vocab(size=size, frame_ms=40, silence_tokens=frozenset({0}))
    wire = [vocab.tag_s0, head[0], vocab.tag_s1, head[1],
            *(t if t < vocab.extended_size else vocab.tag_s0 for t in tail)]
    try:
        d = parse(wire, vocab, chunk_ms)
    except MalformedSequence:
        return
    assert flatten(deduplicate(*interpolate(d), chunk_ms, vocab)) == wire


@given(dialogues())
@settings(max_examples=200)
def test_interpolate_preserves_frame_counts_and_novel_sequences(d):
    s0, s1, chunk_ms, vocab = d
    dd = deduplicate(*d)
    rec = interpolate(dd)
    assert len(rec[0]) == len(s0)
    assert len(rec[1]) == len(s1)
    assert deduplicate(*rec, chunk_ms, vocab).chunks == dd.chunks  # round-trip identity


@given(dialogues())
@settings(max_examples=200)
def test_onset_error_below_chunk_size(d):
    _, _, chunk_ms, vocab = d
    rec = interpolate(deduplicate(*d))
    for c in (0, 1):
        orig = d[c]
        recon = rec[c]
        onsets_orig = [i for i, t in enumerate(orig) if i == 0 or t != orig[i - 1]]
        onsets_rec = [i for i, t in enumerate(recon) if i == 0 or t != recon[i - 1]]
        assert len(onsets_orig) == len(onsets_rec)
        for a, b in zip(onsets_orig, onsets_rec):
            assert abs(a - b) * vocab.frame_ms < chunk_ms


@given(dialogues())
@settings(max_examples=200)
def test_tag_rule(d):
    vocab = d[3]
    dd = deduplicate(*d)
    flat = flatten(dd)
    assert flat.count(vocab.tag_s0) == len(dd.chunks)
    s1_tags = flat.count(vocab.tag_s1)
    assert s1_tags == sum(1 for c in dd.chunks if c.s1_novel)


@given(dialogues())
@settings(max_examples=200)
def test_compression_monotonicity(d):
    s0, s1, chunk_ms, vocab = d
    if not s0:
        return
    fpc = vocab.frames_per_chunk(chunk_ms)
    raw_len = len(s0) // fpc * 2 * (1 + fpc)
    flat_len = len(flatten(deduplicate(*d)))
    any_repeat = any(ch[i] == ch[i - 1] for ch in (s0, s1) for i in range(1, len(ch)))
    if any_repeat:
        assert flat_len < raw_len
    else:
        assert flat_len == raw_len


def test_constant_stream_compresses_to_one_token(vocab):
    n_chunks = 7
    s0 = (42,) * (4 * n_chunks)
    s1 = (0,) * (4 * n_chunks)
    dd = deduplicate(s0, s1, 160, vocab)
    novel0 = [t for c in dd.chunks for t in c.s0_novel]
    assert novel0 == [42]
    assert flatten(dd).count(vocab.tag_s0) == n_chunks
