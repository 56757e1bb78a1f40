import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexsim import (
    DedupChunk,
    DedupDialogue,
    Vocab,
    chunk_streams,
    chunk_wire,
    deduplicate,
    flatten,
    interpolate,
    parse,
)
from duplexsim.errors import (
    BadChunkSize,
    ChunkOverflow,
    EmptyCarryOverWarning,
    LengthMismatch,
    MalformedSequence,
)


def figure_dialogue(vocab):
    # three 160 ms chunks; channel 1 holds one token throughout
    s0 = (75, 75, 75, 75, 17, 17, 338, 338, 338, 338, 338, 338)
    s1 = (89,) * 12
    return chunk_streams(s0, s1, 160, vocab)


class TestChunkStreams:
    def test_frames_per_chunk_arithmetic(self, vocab):
        assert vocab.frames_per_chunk(240) == 6
        assert vocab.frames_per_chunk(160) == 4
        assert vocab.frames_per_chunk(200) == 5

    def test_single_chunk(self, vocab):
        d = chunk_streams((1, 2, 3, 4), (5, 6, 7, 8), 160, vocab)
        assert len(d.chunks) == 1
        assert d.chunks[0] == ((1, 2, 3, 4), (5, 6, 7, 8))

    def test_concatenation_reproduces_inputs(self, vocab):
        d = figure_dialogue(vocab)
        assert d.channel(0) == (75, 75, 75, 75, 17, 17, 338, 338, 338, 338, 338, 338)
        assert d.channel(1) == (89,) * 12

    def test_length_mismatch(self, vocab):
        with pytest.raises(LengthMismatch):
            chunk_streams((1, 2), (1,), 160, vocab)

    def test_bad_chunk_size(self, vocab):
        with pytest.raises(BadChunkSize):
            chunk_streams((1,) * 4, (2,) * 4, 170, vocab)

    def test_padding_with_silence(self, vocab):
        d = chunk_streams((7, 7, 7), (8, 8, 8), 160, vocab)
        assert len(d.chunks) == 1
        assert d.chunks[0][0] == (7, 7, 7, 0)
        assert d.chunks[0][1] == (8, 8, 8, 0)

    def test_empty_streams(self, vocab):
        d = chunk_streams((), (), 160, vocab)
        assert len(d.chunks) == 0

    def test_rejects_out_of_range_tokens(self, vocab):
        with pytest.raises(ValueError):
            chunk_streams((501,) * 4, (0,) * 4, 160, vocab)


class TestDeduplicate:
    def test_figure_wire_forms(self, vocab):
        d = deduplicate(figure_dialogue(vocab))
        assert chunk_wire(vocab, d.chunks[0]) == [vocab.tag_s0, 75, vocab.tag_s1, 89]
        assert chunk_wire(vocab, d.chunks[1]) == [vocab.tag_s0, 17, 338]
        assert chunk_wire(vocab, d.chunks[2]) == [vocab.tag_s0]

    def test_tag_presence_tracks_novelty(self, vocab):
        d = deduplicate(figure_dialogue(vocab))
        assert d.chunks[0].s1_tag_present
        assert not d.chunks[1].s1_tag_present
        assert not d.chunks[2].s1_tag_present

    def test_carry_across_chunks(self, vocab):
        # channel repeats its last token into the next chunk: nothing novel
        s0 = (5, 5, 5, 5, 5, 5, 5, 5)
        s1 = (9, 9, 9, 9, 9, 3, 3, 3)
        d = deduplicate(chunk_streams(s0, s1, 160, vocab))
        assert d.chunks[0].s0_novel == (5,)
        assert d.chunks[1].s0_novel == ()
        assert d.chunks[1].s1_novel == (3,)


class TestInterpolate:
    def test_single_token_repeated(self, vocab):
        d = DedupDialogue(vocab, 160, (DedupChunk(s0_novel=(75,), s1_novel=(89,)),))
        rec = interpolate(d)
        assert rec.chunks[0][0] == (75, 75, 75, 75)
        assert rec.chunks[0][1] == (89, 89, 89, 89)

    def test_equal_repetition(self, vocab):
        d = DedupDialogue(vocab, 160, (DedupChunk(s0_novel=(17, 338), s1_novel=(89,)),))
        assert interpolate(d).chunks[0][0] == (17, 17, 338, 338)

    def test_remainder_goes_to_earliest(self, vocab):
        d = DedupDialogue(vocab, 160, (DedupChunk(s0_novel=(1, 2, 3), s1_novel=(9,)),))
        assert interpolate(d).chunks[0][0] == (1, 1, 2, 3)

    def test_full_chunk_unchanged(self, vocab):
        d = DedupDialogue(vocab, 160, (DedupChunk(s0_novel=(1, 2, 3, 4), s1_novel=(9,)),))
        assert interpolate(d).chunks[0][0] == (1, 2, 3, 4)

    def test_overflow(self, vocab):
        d = DedupDialogue(vocab, 160, (DedupChunk(s0_novel=(1, 2, 3, 4, 5), s1_novel=(9,)),))
        with pytest.raises(ChunkOverflow):
            interpolate(d)

    def test_empty_first_chunk_warns_and_fills_silence(self, vocab):
        d = DedupDialogue(
            vocab, 160, (DedupChunk(s0_novel=(), s1_novel=(9,)),)
        )
        with pytest.warns(EmptyCarryOverWarning):
            rec = interpolate(d)
        assert rec.chunks[0][0] == (0, 0, 0, 0)

    def test_figure_bottom_row(self, vocab):
        d = deduplicate(figure_dialogue(vocab))
        rec = interpolate(d)
        assert rec.chunks == figure_dialogue(vocab).chunks


class TestFlattenParse:
    def test_flatten_figure(self, vocab):
        d = deduplicate(figure_dialogue(vocab))
        assert flatten(d) == [vocab.tag_s0, 75, vocab.tag_s1, 89,
                              vocab.tag_s0, 17, 338, vocab.tag_s0]

    def test_flatten_empty(self, vocab):
        assert flatten(DedupDialogue(vocab, 160, ())) == []

    def test_all_silent_two_chunks(self, vocab):
        # derived by hand-applying dedup + flatten: silence is novel once
        s = 0
        s0 = (s,) * 8
        s1 = (s,) * 8
        d = deduplicate(chunk_streams(s0, s1, 160, vocab))
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
    vocab_size = draw(st.integers(min_value=3, max_value=24))
    chunk_ms = draw(st.sampled_from([160, 200, 240]))
    vocab = Vocab(size=vocab_size, frame_ms=40, silence_tokens=frozenset({0}))
    n_chunks = draw(st.integers(min_value=0, max_value=5))
    n = n_chunks * vocab.frames_per_chunk(chunk_ms)
    toks = st.integers(min_value=0, max_value=vocab_size - 1)
    t0 = draw(st.lists(toks, min_size=n, max_size=n))
    t1 = draw(st.lists(toks, min_size=n, max_size=n))
    return chunk_streams(tuple(t0), tuple(t1), chunk_ms, vocab)


@given(dialogues())
@settings(max_examples=200)
def test_wire_round_trip(d):
    dd = deduplicate(d)
    assert parse(flatten(dd), d.vocab, d.chunk_ms) == dd


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
    assert flatten(deduplicate(interpolate(d))) == wire


@given(dialogues())
@settings(max_examples=200)
def test_interpolate_preserves_frame_counts_and_novel_sequences(d):
    dd = deduplicate(d)
    rec = interpolate(dd)
    assert len(rec.channel(0)) == len(d.channel(0))
    assert len(rec.channel(1)) == len(d.channel(1))
    assert deduplicate(rec).chunks == dd.chunks  # round-trip identity


@given(dialogues())
@settings(max_examples=200)
def test_onset_error_below_chunk_size(d):
    rec = interpolate(deduplicate(d))
    for c in (0, 1):
        orig = d.channel(c)
        recon = rec.channel(c)
        onsets_orig = [i for i, t in enumerate(orig) if i == 0 or t != orig[i - 1]]
        onsets_rec = [i for i, t in enumerate(recon) if i == 0 or t != recon[i - 1]]
        assert len(onsets_orig) == len(onsets_rec)
        for a, b in zip(onsets_orig, onsets_rec):
            assert abs(a - b) * d.vocab.frame_ms < d.chunk_ms


@given(dialogues())
@settings(max_examples=200)
def test_tag_rule(d):
    dd = deduplicate(d)
    flat = flatten(dd)
    assert flat.count(d.vocab.tag_s0) == len(dd.chunks)
    s1_tags = flat.count(d.vocab.tag_s1)
    assert s1_tags == sum(1 for c in dd.chunks if c.s1_novel)


@given(dialogues())
@settings(max_examples=200)
def test_compression_monotonicity(d):
    if len(d.chunks) == 0:
        return
    raw_len = len(d.chunks) * 2 * (1 + d.frames_per_chunk)
    flat_len = len(flatten(deduplicate(d)))
    any_repeat = any(
        ch[i] == ch[i - 1] for c in (0, 1) for ch in [d.channel(c)] for i in range(1, len(ch))
    )
    if any_repeat:
        assert flat_len < raw_len
    else:
        assert flat_len == raw_len


def test_constant_stream_compresses_to_one_token(vocab):
    n_chunks = 7
    s0 = (42,) * (4 * n_chunks)
    s1 = (0,) * (4 * n_chunks)
    dd = deduplicate(chunk_streams(s0, s1, 160, vocab))
    novel0 = [t for c in dd.chunks for t in c.s0_novel]
    assert novel0 == [42]
    assert flatten(dd).count(vocab.tag_s0) == n_chunks
