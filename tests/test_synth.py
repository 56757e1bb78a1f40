from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duplexsim import (
    DialogueStyle,
    Vocab,
    build_stage2_corpus,
    corpus_stats,
    deduplicate,
    flatten,
    generate_corpus,
    generate_dialogue,
    generate_stage2_dialogue,
    interpolate,
    parse,
)
from duplexsim.errors import BadDuration, EmptyCorpus
from duplexsim.metrics import dialogue_events
from duplexsim.synth import _integers, _markov_content

import oracles


def voiced_mask(channel, silence):
    return [t not in silence for t in channel]


class TestGenerateDialogue:
    def test_duration_exact(self, tiny_style):
        s0, s1 = generate_dialogue(tiny_style, 8000, seed=1)
        assert len(s0) * tiny_style.vocab.frame_ms == 8000
        assert len(s1) * tiny_style.vocab.frame_ms == 8000

    def test_zero_duration(self, tiny_style):
        s0, s1 = generate_dialogue(tiny_style, 0, seed=1)
        assert len(s0) == 0 and len(s1) == 0

    def test_bad_duration(self, tiny_style):
        with pytest.raises(BadDuration):
            generate_dialogue(tiny_style, 8010, seed=1)

    def test_determinism(self, tiny_style):
        a = generate_dialogue(tiny_style, 12000, seed=42)
        b = generate_dialogue(tiny_style, 12000, seed=42)
        assert a == b
        c = generate_dialogue(tiny_style, 12000, seed=43)
        assert a != c

    def test_no_overlap_style(self, tiny_vocab):
        style = DialogueStyle(
            vocab=tiny_vocab,
            fto_ms=(600.0, 50.0),
            backchannel_prob=0.0,
        )
        for seed in range(5):
            s0, s1 = generate_dialogue(style, 30000, seed=seed)
            both = [
                a and b
                for a, b in zip(voiced_mask(s0, {0}), voiced_mask(s1, {0}))
            ]
            assert not any(both)

    def test_voiced_content_avoids_silence_token(self, tiny_style):
        s0, s1 = generate_dialogue(tiny_style, 20000, seed=9)
        n, unit_at = tiny_style.content()
        units = {unit_at(i) for i in range(n)}
        for s in (s0, s1):
            for t in s:
                assert t == 0 or t in units

    def test_survives_codec_round_trip(self, tiny_style):
        for seed in range(5):
            s0, s1 = generate_dialogue(tiny_style, 16000, seed=seed)
            for chunk_ms in (160, 200, 240):
                dd = deduplicate(s0, s1, chunk_ms, tiny_style.vocab)
                assert parse(flatten(dd), tiny_style.vocab, chunk_ms) == dd
                rec = interpolate(dd)
                fpc = tiny_style.vocab.frames_per_chunk(chunk_ms)
                assert len(rec[0]) == -(-len(s0) // fpc) * fpc  # padded to whole chunks
                assert deduplicate(*rec, chunk_ms, tiny_style.vocab).chunks == dd.chunks

    def test_backchannels_contained_in_partner_ipus(self, tiny_vocab):
        style = DialogueStyle(
            vocab=tiny_vocab,
            ipu_ms=(2000.0, 400.0),
            turn_continue_prob=0.6,
            backchannel_prob=0.9,
            backchannel_ms=(240.0, 60.0),
        )
        found = 0
        for seed in range(10):
            # the oracle planner's log describes the dialogue synth makes
            s0, s1, events = oracles.planned_dialogue(style, 30000, seed)
            assert (s0, s1) == generate_dialogue(style, 30000, seed=seed)
            ipus = {
                c: [(a, b) for kind, channel, a, b in events
                    if kind == "ipu" and channel == c]
                for c in (0, 1)
            }
            for kind, channel, start, end in events:
                if kind != "backchannel":
                    continue
                found += 1
                assert any(a < start and end < b for a, b in ipus[1 - channel])
        assert found > 10

    def test_fto_mean_recovery(self, tiny_vocab):
        # law of large numbers: empirical mean within 15 ms of the mean
        style = DialogueStyle(
            vocab=tiny_vocab,
            fto_ms=(200.0, 50.0),
            backchannel_prob=0.0,
        )
        ftos = []
        for i in range(60):
            s0, s1 = generate_dialogue(style, 30000, seed=[5, i])
            for ev in dialogue_events(s0, s1, tiny_vocab):
                if ev.kind == "fto":
                    ftos.append(ev.duration_ms)
        assert len(ftos) > 200
        assert abs(float(np.mean(ftos)) - 200.0) < 15.0


def _vocab(size, *silence):
    return Vocab(size=size, frame_ms=40, silence_tokens=frozenset(silence or {0}))


# content styles of the raw-draw painter, each with the case it covers
PAINTER_STYLES = [
    DialogueStyle(vocab=_vocab(2)),  # one content unit: no draw at all
    DialogueStyle(vocab=_vocab(3)),  # uniform jumps over m - 1 = 1: no jump draw
    DialogueStyle(vocab=_vocab(30), successor_count=1),
    DialogueStyle(vocab=_vocab(30), successor_count=3),
    DialogueStyle(vocab=_vocab(20, 0, 3, 4, 9, 15), unit_range=(2, 16)),
    DialogueStyle(vocab=_vocab(3_000_000_000)),  # 32-bit halves, about 30% rejected
    DialogueStyle(vocab=_vocab(5_000_000_000)),  # whole 64-bit outputs
    # successor jumps on 32-bit halves with about half rejected, the largest
    # 32-bit jump (never rejected) and the first jump on whole outputs
    DialogueStyle(vocab=_vocab(30), successor_count=2**31 + 1),
    DialogueStyle(vocab=_vocab(30), successor_count=2**32),
    DialogueStyle(vocab=_vocab(30), successor_count=2**32 + 1),
    # a quarter of the 64-bit draws rejected: can outrun the first raw block
    DialogueStyle(vocab=_vocab(30), successor_count=3 * 2**61),
]


class TestRawDraws:
    """synth reads numpy's draws from raw PCG64 outputs; ``oracles`` makes
    them with one live numpy call each, so a numpy whose arithmetic differs
    fails here."""

    @settings(max_examples=200, deadline=None)
    # every frame jumps, with a quarter of the draws rejected: refills the block
    @example(style=PAINTER_STYLES[-1], p_self=0.0, seed=0, full=False, calls=[(40, False)] * 3)
    @given(style=st.sampled_from(PAINTER_STYLES), p_self=st.sampled_from([0.0, 0.35, 0.99]),
           seed=st.integers(0, 2**32), full=st.booleans(),
           calls=st.lists(st.tuples(st.integers(0, 40), st.booleans()), min_size=1,
                          max_size=6))
    def test_painter_matches_per_call_draws(self, style, p_self, seed, full, calls):
        style = replace(style, p_self=p_self)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (ours, ref):
            if full:  # leaves the upper half of an output in the buffer
                rng.integers(7)
        bg, (m, unit_at) = ours.bit_generator, style.content()
        half = bg.state["has_uint32"], bg.state["uinteger"]
        for length, between in calls:
            got, half = _markov_content(bg, style, m, length, half)
            assert unit_at(np.array(got, np.int64)).tolist() == \
                oracles.markov_content(ref, style, length)
            # the carried buffer, written back, is the per-call twin's
            bg.state = {**bg.state, "has_uint32": half[0], "uinteger": half[1]}
            assert bg.state == ref.bit_generator.state
            if between:  # another draw on the buffered halves between segments
                assert ours.integers(5) == ref.integers(5)
                half = bg.state["has_uint32"], bg.state["uinteger"]

    @pytest.mark.parametrize("k", [1, 2, 3, 2**31, 2**32 - 1, 2**32, 2**32 + 1,
                                   3 * 10**9, 5 * 10**9, 2**62])
    @pytest.mark.parametrize("full", [False, True])
    def test_integers_match_numpy(self, k, full):
        rng = np.random.default_rng(k)
        if full:
            rng.integers(7)
        bg = rng.bit_generator
        start = bg.state
        assert start["has_uint32"] == full
        raws = bg.random_raw(400).tolist()
        bg.state = start
        pos, has, buf = 0, start["has_uint32"], start["uinteger"]
        for _ in range(200):
            x, pos, has, buf = _integers(k, raws, pos, has, buf)
            assert x == rng.integers(k)
        moved = np.random.PCG64()
        moved.state = start
        moved.advance(pos)
        assert bg.state == {**moved.state, "has_uint32": has, "uinteger": buf}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("full", [False, True])
    def test_dialogue_keeps_the_callers_half_buffer(self, tiny_style, full, seed):
        """A caller's Generator, its half buffer empty or full, draws in
        ``generate_dialogue`` (a backchannel in every non-final IPU, so their
        ``integers`` starts too) and ``generate_stage2_dialogue`` what the
        per-call painters draw on a twin, and is left in the twin's state."""
        style = replace(tiny_style, backchannel_prob=1.0, turn_continue_prob=0.8, p_self=0.0)
        *planned, events = oracles.planned_dialogue(style, 20000, seed)
        assert any(kind == "backchannel" for kind, *_ in events)
        for draw, oracle, size in (
                (generate_dialogue, lambda *a: oracles.planned_dialogue(*a)[:2], 20000),
                (generate_stage2_dialogue, oracles.stage2_dialogue, 8)):
            ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for rng in (ours, twin):
                if full:  # leaves the upper half of an output in the buffer
                    rng.integers(7)
            assert ours.bit_generator.state["has_uint32"] == full
            assert draw(style, size, ours) == oracle(style, size, twin)
            assert ours.bit_generator.state == twin.bit_generator.state

    def test_generator_seed_must_be_pcg64(self, tiny_style):
        same = generate_dialogue(tiny_style, 4000, np.random.default_rng(3))
        assert same == generate_dialogue(tiny_style, 4000, 3)
        for draw in (generate_dialogue, generate_stage2_dialogue):
            with pytest.raises(TypeError):
                draw(tiny_style, 4000, np.random.Generator(np.random.MT19937(3)))


class TestStage2:
    def test_single_utterance_mirrors_silence(self, tiny_style):
        s0, s1 = build_stage2_corpus([(0, [3] * 10)], tiny_style)
        assert s0 == (3,) * 10
        assert s1 == (0,) * 10

    def test_empty_turn_list(self, tiny_style):
        s0, s1 = build_stage2_corpus([], tiny_style)
        assert len(s0) == 0 and len(s1) == 0

    def test_three_alternating_turns(self, tiny_style):
        turns = [(0, [2] * 5), (1, [3] * 5), (0, [4] * 5)]
        s0, s1 = build_stage2_corpus(turns, tiny_style)
        assert len(s0) == 15 and len(s1) == 15
        overlap = sum(
            1 for a, b in zip(s0, s1) if a != 0 and b != 0
        )
        assert overlap == 0

    def test_empty_utterance_rejected(self, tiny_style):
        with pytest.raises(ValueError):
            build_stage2_corpus([(0, [])], tiny_style)

    def test_generated_stage2_has_zero_overlap(self, tiny_style):
        for seed in range(5):
            s0, s1 = generate_stage2_dialogue(tiny_style, 8, seed=seed)
            overlap = sum(
                1 for a, b in zip(s0, s1) if a != 0 and b != 0
            )
            assert overlap == 0


class TestCorpus:
    def test_corpus_determinism(self, tiny_style):
        a = generate_corpus(tiny_style, 4, 8000, seed=3)
        b = generate_corpus(tiny_style, 4, 8000, seed=3)
        assert list(a.items()) == list(b.items())

    def test_per_dialogue_streams_independent_of_count(self, tiny_style):
        # dialogue i depends only on (seed, i), not on corpus size
        a = generate_corpus(tiny_style, 2, 8000, seed=3)
        b = generate_corpus(tiny_style, 5, 8000, seed=3)
        assert list(a.items()) == list(b.items())[:2]

    def test_stats_on_stage2_corpus_have_zero_overlap(self, tiny_style):
        dialogues = [generate_stage2_dialogue(tiny_style, 6, seed=i) for i in range(4)]
        stats = corpus_stats(dialogues, tiny_style.vocab, 160)
        assert stats.overlap_frames == 0

    def test_empty_corpus_raises(self, tiny_style):
        with pytest.raises(EmptyCorpus):
            corpus_stats([], tiny_style.vocab, 160)

    def test_stats_recover_style_means(self, tiny_vocab):
        style = DialogueStyle(
            vocab=tiny_vocab,
            ipu_ms=(1600.0, 400.0),
            pause_ms=(700.0, 150.0),
            fto_ms=(300.0, 100.0),
            turn_continue_prob=0.4,
            backchannel_prob=0.0,
            p_self=0.4,
        )
        corpus = generate_corpus(style, 40, 30000, seed=11)
        stats = corpus_stats(list(corpus.values()), tiny_vocab, 160)
        for kind, target in (("ipu", 1600.0), ("pause", 700.0), ("fto", 300.0)):
            n = stats.event_counts[kind]
            se = stats.event_stds_ms[kind] / np.sqrt(n)
            assert abs(stats.event_means_ms[kind] - target) < 4 * se + 25, kind

    def test_compression_ratio_band(self, tiny_vocab):
        style = DialogueStyle(vocab=tiny_vocab)
        corpus = generate_corpus(style, 10, 30000, seed=2)
        stats = corpus_stats(list(corpus.values()), tiny_vocab, 160)
        assert 0.3 <= stats.compression_ratio <= 0.7


class TestStyleConfig:
    def test_round_trip_file(self, tmp_path, tiny_style):
        path = tmp_path / "style.json"
        tiny_style.to_file(path)
        loaded = DialogueStyle.from_file(path)
        assert loaded == tiny_style

    def test_from_dict_accepts_tuples(self, tiny_style):
        data = tiny_style.to_dict()
        data.update(ipu_ms=(1500.0, 300.0), fto_ms=(-100, 50), unit_range=(1, 6))
        style = DialogueStyle.from_dict(data)
        assert (style.ipu_ms, style.fto_ms, style.unit_range) == (
            (1500.0, 300.0), (-100.0, 50.0), (1, 6))
        assert DialogueStyle.from_dict(style.to_dict()) == style

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            DialogueStyle.from_dict({"bogus": 1})

    def test_invalid_probability(self, tiny_vocab):
        with pytest.raises(ValueError):
            DialogueStyle(vocab=tiny_vocab, backchannel_prob=1.5)

    def test_draw_bounds_past_int64_rejected(self):
        # numpy draws integers(k) for k up to 2**63; train packs an order-1
        # context into an int64 code, which takes vocab size + 3 values
        DialogueStyle(vocab=_vocab(2**63 - 3), successor_count=2**63)
        for size, successor_count in ((2**63 - 2, None), (2**63 - 1, None), (2**63, None),
                                      (12, 2**63 + 1)):
            with pytest.raises(ValueError):
                DialogueStyle(vocab=_vocab(size), successor_count=successor_count)

    def test_content_skips_the_silence_ids_in_range(self):
        # silence below the range, twice in a row inside it, and at its top
        vocab = Vocab(size=20, frame_ms=40, silence_tokens=frozenset({0, 3, 4, 9, 15}))
        style = DialogueStyle(vocab=vocab, unit_range=(2, 16))
        n, unit_at = style.content()
        assert [unit_at(i) for i in range(n)] == [
            u for u in range(2, 16) if u not in vocab.silence_tokens]

    def test_unit_range(self, tiny_vocab):
        style = DialogueStyle(vocab=tiny_vocab, unit_range=(1, 6))
        n, unit_at = style.content()
        assert [unit_at(i) for i in range(n)] == [1, 2, 3, 4, 5]
        s0, s1 = generate_dialogue(style, 12000, seed=0)
        for t in s0 + s1:
            assert t == 0 or 1 <= t < 6
