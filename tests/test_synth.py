import numpy as np
import pytest

from duplexsim import (
    DialogueStyle,
    build_stage2_corpus,
    chunk_streams,
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
from duplexsim.synth import Corpus, generate_dialogue_with_log


def voiced_mask(stream, silence):
    return [t not in silence for t in stream.tokens]


class TestGenerateDialogue:
    def test_duration_exact(self, tiny_style):
        s0, s1 = generate_dialogue(tiny_style, 8000, seed=1)
        assert s0.duration_ms == 8000
        assert s1.duration_ms == 8000

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
        units = set(tiny_style.units)
        for s in (s0, s1):
            for t in s.tokens:
                assert t == 0 or t in units

    def test_survives_codec_round_trip(self, tiny_style):
        for seed in range(5):
            s0, s1 = generate_dialogue(tiny_style, 16000, seed=seed)
            for chunk_ms in (160, 200, 240):
                d = chunk_streams(s0, s1, chunk_ms, tiny_style.vocab)
                dd = deduplicate(d)
                assert parse(flatten(dd), tiny_style.vocab, chunk_ms) == dd
                rec = interpolate(dd)
                assert len(rec.channel(0)) == len(d.channel(0))
                assert deduplicate(rec).chunks == dd.chunks

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
            _, _, events = generate_dialogue_with_log(style, 30000, seed=seed)
            ipus = {
                c: [
                    (e.start_frame, e.end_frame)
                    for e in events
                    if e.kind == "ipu" and e.channel == c
                ]
                for c in (0, 1)
            }
            for e in events:
                if e.kind != "backchannel":
                    continue
                found += 1
                partner = ipus[1 - e.channel]
                assert any(
                    a < e.start_frame and e.end_frame < b for a, b in partner
                )
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
            for ev in dialogue_events(s0, s1, {0}):
                if ev.kind == "fto":
                    ftos.append(ev.duration_ms)
        assert len(ftos) > 200
        assert abs(float(np.mean(ftos)) - 200.0) < 15.0


class TestStage2:
    def test_single_utterance_mirrors_silence(self, tiny_style):
        s0, s1 = build_stage2_corpus([(0, [3] * 10)], tiny_style)
        assert s0.tokens == (3,) * 10
        assert s1.tokens == (0,) * 10

    def test_empty_turn_list(self, tiny_style):
        s0, s1 = build_stage2_corpus([], tiny_style)
        assert len(s0) == 0 and len(s1) == 0

    def test_three_alternating_turns(self, tiny_style):
        turns = [(0, [2] * 5), (1, [3] * 5), (0, [4] * 5)]
        s0, s1 = build_stage2_corpus(turns, tiny_style)
        assert len(s0) == 15 and len(s1) == 15
        overlap = sum(
            1 for a, b in zip(s0.tokens, s1.tokens) if a != 0 and b != 0
        )
        assert overlap == 0

    def test_empty_utterance_rejected(self, tiny_style):
        with pytest.raises(ValueError):
            build_stage2_corpus([(0, [])], tiny_style)

    def test_generated_stage2_has_zero_overlap(self, tiny_style):
        for seed in range(5):
            s0, s1 = generate_stage2_dialogue(tiny_style, 8, seed=seed)
            overlap = sum(
                1 for a, b in zip(s0.tokens, s1.tokens) if a != 0 and b != 0
            )
            assert overlap == 0


class TestCorpus:
    def test_corpus_determinism(self, tiny_style):
        a = generate_corpus(tiny_style, 4, 8000, seed=3)
        b = generate_corpus(tiny_style, 4, 8000, seed=3)
        assert a.dialogues == b.dialogues

    def test_per_dialogue_streams_independent_of_count(self, tiny_style):
        # dialogue i depends only on (seed, i), not on corpus size
        a = generate_corpus(tiny_style, 2, 8000, seed=3)
        b = generate_corpus(tiny_style, 5, 8000, seed=3)
        assert a.dialogues == b.dialogues[:2]

    def test_stats_on_stage2_corpus_have_zero_overlap(self, tiny_style):
        recs = []
        from duplexsim import DialogueRecord

        for i in range(4):
            s0, s1 = generate_stage2_dialogue(tiny_style, 6, seed=i)
            recs.append(DialogueRecord(id=f"s{i}", s0=s0, s1=s1))
        stats = corpus_stats(Corpus(tuple(recs), style=tiny_style), chunk_ms=160)
        assert stats.overlap_frames == 0

    def test_empty_corpus_raises(self, tiny_style):
        with pytest.raises(EmptyCorpus):
            corpus_stats(Corpus((), style=tiny_style))

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
        stats = corpus_stats(corpus, chunk_ms=160)
        for kind, target in (("ipu", 1600.0), ("pause", 700.0), ("fto", 300.0)):
            n = stats.event_counts[kind]
            se = stats.event_stds_ms[kind] / np.sqrt(n)
            assert abs(stats.event_means_ms[kind] - target) < 4 * se + 25, kind

    def test_compression_ratio_band(self, tiny_vocab):
        style = DialogueStyle(vocab=tiny_vocab)
        corpus = generate_corpus(style, 10, 30000, seed=2)
        stats = corpus_stats(corpus, chunk_ms=160)
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

    def test_unit_range(self, tiny_vocab):
        style = DialogueStyle(vocab=tiny_vocab, unit_range=(1, 6))
        assert style.units == (1, 2, 3, 4, 5)
        s0, s1 = generate_dialogue(style, 12000, seed=0)
        for t in s0.tokens + s1.tokens:
            assert t == 0 or 1 <= t < 6
