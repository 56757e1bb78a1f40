import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexsim import (
    DedupChunk,
    DedupDialogue,
    DialogueStyle,
    NgramModel,
    VadSegment,
    Vocab,
    corpus_stats,
    correlation_report,
    encode_dialogue,
    generate_corpus,
    generate_stage2_dialogue,
    pearson,
    per_dialogue_perplexities,
    perplexity,
    train,
    turn_events,
    vad,
)
from duplexsim.errors import DegenerateInput, EmptySequence, EmptySet, NoPairs

import oracles


VOCAB = Vocab(size=12, frame_ms=40, silence_tokens=frozenset({0}))


def seg(channel, start_ms, end_ms):
    return VadSegment(channel=channel, start_ms=start_ms, end_ms=end_ms)


class TestVad:
    def test_all_silence(self):
        assert vad([0] * 20, 0, VOCAB) == []

    def test_single_run(self):
        out = vad([3] * 10, 0, VOCAB)
        assert out == [seg(0, 0, 400)]

    def test_runs_split_by_silence(self):
        out = vad([3, 3, 0, 0, 4, 4], 0, VOCAB)
        assert out == [seg(0, 0, 80), seg(0, 160, 240)]

    def test_bridging(self):
        # voiced(5) silence(2) voiced(5), bridge 120 ms (3 frames) -> one
        # segment of 12 frames
        out = vad([2] * 5 + [0] * 2 + [2] * 5, 0, VOCAB, bridge_ms=120)
        assert out == [seg(0, 0, 480)]

    def test_bridge_is_strict(self):
        out = vad([2] * 5 + [0] * 3 + [2] * 5, 0, VOCAB, bridge_ms=120)
        assert len(out) == 2

    def test_min_voiced_drops_short_runs(self):
        out = vad([2, 0, 0, 0, 3, 3, 3, 3], 0, VOCAB, min_voiced_ms=120)
        assert out == [seg(0, 160, 320)]

    def test_leading_trailing_silence_not_bridged(self):
        out = vad([0, 2, 2, 0], 0, VOCAB, bridge_ms=200)
        assert out == [seg(0, 40, 120)]

    # several silence ids; int64 arrays, as read_corpus gives channels, and tuples
    @given(size=st.integers(1, 6), data=st.data())
    @settings(max_examples=300)
    def test_matches_the_frame_by_frame_oracle(self, size, data):
        silence = data.draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=3))
        vocab = Vocab(size=size, frame_ms=40, silence_tokens=frozenset(silence))
        tokens = data.draw(st.lists(st.integers(0, size - 1), max_size=50))
        min_voiced_ms = data.draw(st.sampled_from([0, 40, 120]))
        bridge_ms = data.draw(st.sampled_from([0, 40, 80, 200]))
        expected = oracles.vad(tokens, 1, vocab, min_voiced_ms, bridge_ms)
        for channel in (tuple(tokens), np.array(tokens, np.int64)):
            got = vad(channel, 1, vocab, min_voiced_ms, bridge_ms)
            assert got == expected
            assert all(type(t) is int for s in got for t in (s.start_ms, s.end_ms))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            vad([1] * 4, 0, VOCAB, min_voiced_ms=50)


class TestTurnEvents:
    def test_gap_fto(self):
        events = turn_events([seg(0, 0, 1000)], [seg(1, 1200, 2000)])
        ftos = [e for e in events if e.kind == "fto"]
        assert len(ftos) == 1
        assert ftos[0].duration_ms == 200
        assert ftos[0].transition == (0, 1)

    def test_overlap_fto_is_negative(self):
        events = turn_events([seg(0, 0, 1000)], [seg(1, 800, 2000)])
        ftos = [e for e in events if e.kind == "fto"]
        assert len(ftos) == 1
        assert ftos[0].duration_ms == -200

    def test_zero_offset_fto(self):
        events = turn_events([seg(0, 0, 1000)], [seg(1, 1000, 1400)])
        ftos = [e for e in events if e.kind == "fto"]
        assert ftos[0].duration_ms == 0

    def test_pause_and_two_ipus(self):
        events = turn_events([seg(0, 0, 400), seg(0, 1000, 1400)], [], ipu_gap_ms=200)
        pauses = [e for e in events if e.kind == "pause"]
        ipus = [e for e in events if e.kind == "ipu"]
        assert len(ipus) == 2
        assert len(pauses) == 1
        assert pauses[0].duration_ms == 600

    def test_gap_below_threshold_merges_ipus(self):
        events = turn_events([seg(0, 0, 400), seg(0, 520, 800)], [], ipu_gap_ms=200)
        ipus = [e for e in events if e.kind == "ipu"]
        assert len(ipus) == 1
        assert ipus[0].duration_ms == 800

    def test_other_speech_disqualifies_pause(self):
        events = turn_events(
            [seg(0, 0, 400), seg(0, 1000, 1400)], [seg(1, 500, 700)], ipu_gap_ms=200
        )
        assert [e for e in events if e.kind == "pause"] == []

    def test_contained_backchannel_not_a_transfer(self):
        events = turn_events(
            [seg(0, 0, 2000), seg(0, 2400, 3000)], [seg(1, 500, 800)], ipu_gap_ms=200
        )
        assert [e for e in events if e.kind == "fto"] == []

    def test_voiced_time_is_conserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            toks = [int(t) for t in rng.integers(0, 2, size=80)]
            segs = vad([t * 3 for t in toks], 0, VOCAB)
            raw_voiced = sum(e.end_ms - e.start_ms for e in segs)
            events = turn_events(segs, [], ipu_gap_ms=200)
            ipu_total = sum(e.duration_ms for e in events if e.kind == "ipu")
            assert ipu_total >= raw_voiced


def _random_instance(rng):
    n = int(rng.integers(20, 120))
    segs = []
    for c in (0, 1):
        arr = rng.random(n) < 0.45
        segs.append(vad([3 if v else 0 for v in arr], c, VOCAB))
    return segs


def _event_set(events):
    out = set()
    for e in events:
        key = e.transition if e.kind == "fto" else e.channel
        out.add((e.kind, key, e.start_ms, e.end_ms))
    return out


class TestOracleEquivalence:
    def test_matches_frame_state_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            seg0, seg1 = _random_instance(rng)
            if sum(len(s) for s in (seg0, seg1)) > 50:
                continue
            got = _event_set(turn_events(seg0, seg1, 200))
            want = oracles.frame_state_events(seg0, seg1, 40, 200)
            assert got == want


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        # closed-form sum: cov=4, var=5 each -> r = 0.8
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(
            oracles.pearson_sums([1, 2, 3, 4], [1, 3, 2, 4])
        )

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = list(rng.normal(size=10))
            assert pearson(x, [3.5 * v + 2 for v in x]) == pytest.approx(1.0)
            assert pearson(x, [-0.7 * v + 9 for v in x]) == pytest.approx(-1.0)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            pearson([1], [2])
        with pytest.raises(DegenerateInput):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInput):
            pearson([1, 2], [1, 2, 3])

    def test_random_matches_sum_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = list(rng.normal(size=12))
            y = list(rng.normal(size=12))
            assert pearson(x, y) == pytest.approx(oracles.pearson_sums(x, y), abs=1e-12)


def _corpus_of(rng, n, vocab, scale=1.0):
    from duplexsim import DialogueStyle, generate_dialogue

    style = DialogueStyle(
        vocab=vocab,
        ipu_ms=(1200 * scale, 300 * scale),
        pause_ms=(500 * scale, 120 * scale),
        fto_ms=(250, 100),
        turn_continue_prob=0.4,
        backchannel_prob=0.0,
        p_self=0.4,
    )
    out = {}
    for i in range(n):
        s0, s1 = generate_dialogue(style, 20000, [int(rng.integers(2**31)), i])
        out[f"d{i:03d}"] = (s0, s1)
    return out


class TestCorrelationReport:
    def test_self_correlation_is_one(self, tiny_vocab):
        rng = np.random.default_rng(5)
        corpus = _corpus_of(rng, 12, tiny_vocab)
        report = correlation_report(corpus, corpus, tiny_vocab)
        for kind, kc in report.kinds.items():
            assert kc.r == pytest.approx(1.0), kind
        assert report.average_r == pytest.approx(1.0)

    def test_no_shared_ids(self, tiny_vocab):
        rng = np.random.default_rng(5)
        corpus = _corpus_of(rng, 3, tiny_vocab)
        other = {f"x{k}": v for k, v in corpus.items()}
        with pytest.raises(NoPairs):
            correlation_report(corpus, other, tiny_vocab)

    def test_missing_kind_excluded_pairwise(self, tiny_vocab):
        # single short IPU per dialogue: no pauses, no ftos
        silent = {
            "a": ((3,) * 10, (0,) * 10),
            "b": ((4,) * 20, (0,) * 20),
            "c": ((5,) * 30, (0,) * 30),
        }
        report = correlation_report(silent, silent, tiny_vocab)
        assert report.kinds["ipu"].r == pytest.approx(1.0)
        assert report.kinds["pause"].r is None
        assert report.kinds["pause"].n_pairs == 0
        assert report.kinds["pause"].n_excluded == 3


class TestMedianPerplexity:
    def _encoded(self, vocab, chunks):
        """``encode_dialogue``'s (wire, chunk offsets) pair of the chunks."""
        return encode_dialogue(DedupDialogue(
            vocab, 160, tuple(DedupChunk(tuple(a), tuple(b)) for a, b in chunks)))

    def test_single_dialogue(self, tiny_vocab):
        model = NgramModel(order=1, vocab_ext=tiny_vocab.extended_size, alpha=1.0)
        encoded = self._encoded(tiny_vocab, [((1,), (2,)), ((3,), ())])
        assert per_dialogue_perplexities(model, [encoded]) == [perplexity(model, encoded[0])]

    def test_median_is_outlier_robust(self):
        # medians of per-dialogue values [10, 20, 400] -> 20
        import statistics

        assert statistics.median([10, 20, 400]) == 20

    def test_prompt_excluded_from_scoring(self, tiny_vocab):
        corpus = [[1, 2, 3, 1, 2, 3] * 4]
        model = train(corpus, order=1, alpha=0.1, vocab_ext=tiny_vocab.extended_size)
        encoded = self._encoded(tiny_vocab, [((1, 2), (3,)), ((1, 2), ())])
        (full,) = per_dialogue_perplexities(model, [encoded], prompt_chunks=0)
        (tail,) = per_dialogue_perplexities(model, [encoded], prompt_chunks=1)
        assert full != tail
        # the first chunk's wire is tag_s0 1 2 tag_s1 3
        assert tail == perplexity(model, encoded[0], skip=5)

    @pytest.mark.parametrize("prompt_chunks", [2, 3])
    def test_prompt_covering_the_dialogue_raises(self, tiny_vocab, prompt_chunks):
        model = NgramModel(order=1, vocab_ext=tiny_vocab.extended_size)
        encoded = self._encoded(tiny_vocab, [((1, 2), (3,)), ((1, 2), ())])
        with pytest.raises(EmptySequence):
            per_dialogue_perplexities(model, [encoded], prompt_chunks=prompt_chunks)

    def test_empty_set(self, tiny_vocab):
        model = NgramModel(order=1, vocab_ext=tiny_vocab.extended_size)
        with pytest.raises(EmptySet):
            per_dialogue_perplexities(model, [])
        with pytest.raises(EmptySet):
            per_dialogue_perplexities(model, iter([]))

    def test_negative_prompt_raises(self, tiny_vocab):
        # starts[-1] would skip all but the last chunk
        model = NgramModel(order=1, vocab_ext=tiny_vocab.extended_size)
        encoded = self._encoded(tiny_vocab, [((1, 2), (3,)), ((1, 2), ())])
        with pytest.raises(ValueError, match="prompt_chunks"):
            per_dialogue_perplexities(model, [encoded], prompt_chunks=-1)

    def test_shuffled_continuations_score_worse(self, tiny_vocab):
        import random

        from duplexsim import encode, generate_corpus, DialogueStyle

        style = DialogueStyle(vocab=tiny_vocab, backchannel_prob=0.0, p_self=0.5)
        corpus = generate_corpus(style, 24, 16000, seed=77)
        encoded = encode(corpus.values(), 160, tiny_vocab)
        model = train([w for w, _ in encoded[:16]], order=3, alpha=0.1,
                      vocab_ext=tiny_vocab.extended_size)
        heldout = encoded[16:]
        shuffled = []
        for wire, _ in heldout:
            s2 = wire.tolist()
            random.Random(1).shuffle(s2)
            shuffled.append(perplexity(model, s2))
        ppls = per_dialogue_perplexities(model, heldout)
        assert all(h < s for h, s in zip(ppls, shuffled))


def _stats_corpus(kind):
    """(dialogues, vocab) of one ``TestCorpusStats`` case."""
    tiny = DialogueStyle(vocab=VOCAB, ipu_ms=(800.0, 200.0), pause_ms=(400.0, 100.0),
                         fto_ms=(200.0, 80.0), turn_continue_prob=0.3,
                         backchannel_prob=0.4, backchannel_ms=(160.0, 40.0), p_self=0.4)
    if kind == "default":
        style = DialogueStyle(vocab=Vocab(size=501, frame_ms=40,
                                          silence_tokens=frozenset({0})))
        return list(generate_corpus(style, 4, 20000, seed=3).values()), style.vocab
    if kind == "tiny":
        return list(generate_corpus(tiny, 6, 12000, seed=8).values()), VOCAB
    if kind == "sparse":  # 9 x 31 chunks of 200 ms: 6.2 s summed 9 times is not 55.8
        # the latency sweep's shape: successor jumps over 24 units
        style = DialogueStyle(vocab=Vocab(size=24, frame_ms=40, silence_tokens=frozenset({0})),
                              ipu_ms=(1600.0, 400.0), pause_ms=(520.0, 120.0),
                              fto_ms=(240.0, 120.0), backchannel_ms=(280.0, 80.0),
                              p_self=0.45, successor_count=3)
        return list(generate_corpus(style, 9, 6040, seed=4).values()), style.vocab
    if kind == "stage2":
        return [generate_stage2_dialogue(tiny, 6, [5, i]) for i in range(4)], VOCAB
    if kind == "with_empty":  # a dialogue of no chunks adds no seconds
        empty = ((), ())
        return [empty, *generate_corpus(tiny, 3, 4040, seed=2).values(), empty], VOCAB
    assert kind == "all_empty"  # no event and no chunk: every mean and rate is NaN
    return [((), ()), ((), ())], VOCAB


class TestCorpusStats:
    @pytest.mark.parametrize("kind,chunk_ms", [
        ("default", 160), ("default", 240), ("tiny", 160), ("tiny", 240),
        ("sparse", 160), ("sparse", 200), ("sparse", 240), ("stage2", 200),
        ("with_empty", 200), ("all_empty", 160)])
    def test_matches_oracle(self, kind, chunk_ms):
        dialogues, vocab = _stats_corpus(kind)
        got = corpus_stats(dialogues, vocab, chunk_ms)
        want = oracles.corpus_stats(dialogues, vocab, chunk_ms)
        for name in ("event_counts", "overlap_frames", "raw_tokens_per_s",
                     "dedup_tokens_per_s"):  # exactly, NaN for NaN
            assert repr(getattr(got, name)) == repr(want[name]), name
        for name in ("event_means_ms", "event_stds_ms"):
            for k, v in want[name].items():
                assert getattr(got, name)[k] == pytest.approx(v, rel=1e-9, nan_ok=True), (name, k)
