import json

import numpy as np
import pytest

from duplexsim import (
    DedupChunk,
    DedupDialogue,
    InteractionConfig,
    SamplerConfig,
    Vocab,
    chunk_streams,
    continue_dialogue,
    deduplicate,
    estimate_user_chunk,
    flatten,
    generate_corpus,
    interpolate,
    parse,
    simulate_interaction,
    train,
)
from duplexsim.errors import MalformedSequence, SourceExhausted
from duplexsim.synth import DialogueStyle


CHUNK_MS = 160


@pytest.fixture(scope="module")
def setup():
    vocab = Vocab(size=10, frame_ms=40, silence_tokens=frozenset({0}))
    style = DialogueStyle(
        vocab=vocab,
        ipu_ms=(800.0, 200.0),
        pause_ms=(400.0, 100.0),
        fto_ms=(240.0, 80.0),
        turn_continue_prob=0.3,
        backchannel_prob=0.1,
        backchannel_ms=(160.0, 40.0),
        p_self=0.45,
    )
    corpus = generate_corpus(style, 16, 16000, seed=100)
    seqs = [
        flatten(deduplicate(chunk_streams(s0, s1, CHUNK_MS, vocab)))
        for s0, s1 in corpus.values()
    ]
    model = train(seqs, order=3, alpha=0.1, vocab_ext=vocab.extended_size)
    s0, s1 = list(corpus.values())[-1]
    script = deduplicate(chunk_streams(s0, s1, CHUNK_MS, vocab))
    return vocab, style, model, script


def prompt_of(script, n):
    return DedupDialogue(script.vocab, script.chunk_ms, script.chunks[:n])


class TestContinueDialogue:
    def test_chunk_count_contract(self, setup):
        vocab, _, model, script = setup
        prompt = prompt_of(script, 4)
        out = continue_dialogue(model, prompt, 7, SamplerConfig(seed=1))
        assert len(out.chunks) == 11
        assert out.chunks[:4] == prompt.chunks

    def test_seeded_determinism(self, setup):
        _, _, model, script = setup
        prompt = prompt_of(script, 3)
        a = continue_dialogue(model, prompt, 6, SamplerConfig(seed=5))
        b = continue_dialogue(model, prompt, 6, SamplerConfig(seed=5))
        c = continue_dialogue(model, prompt, 6, SamplerConfig(seed=6))
        assert a == b
        assert a != c

    def test_output_parses_and_interpolates(self, setup):
        vocab, _, model, script = setup
        prompt = prompt_of(script, 3)
        for seed in range(8):
            out = continue_dialogue(model, prompt, 10, SamplerConfig(seed=seed))
            assert parse(flatten(out), vocab, CHUNK_MS) == out
            rec = interpolate(out)
            assert len(rec.channel(0)) == len(out.chunks) * 4

    def test_greedy_on_silence_corpus_emits_silence_chunk(self):
        vocab = Vocab(size=6, frame_ms=40, silence_tokens=frozenset({0}))
        silent = [
            flatten(
                deduplicate(
                    chunk_streams((0,) * 20, (0,) * 20, CHUNK_MS, vocab)
                )
            )
            for _ in range(4)
        ]
        model = train(silent, order=2, alpha=0.01, vocab_ext=vocab.extended_size)
        prompt = parse(silent[0], vocab, CHUNK_MS)
        out = continue_dialogue(model, prompt, 1, SamplerConfig(top_k=1, seed=0))
        new = out.chunks[-1]
        # training data has all-carry chunks after the first: [S0] alone
        assert new.s0_novel == ()
        assert new.s1_novel == ()

    def test_empty_prompt(self, setup):
        vocab, _, model, _ = setup
        empty = DedupDialogue(vocab, CHUNK_MS, ())
        out = continue_dialogue(model, empty, 3, SamplerConfig(seed=2))
        assert len(out.chunks) == 3


class TestEstimateUserChunk:
    def test_silence_echo_user_estimated_empty(self):
        vocab = Vocab(size=6, frame_ms=40, silence_tokens=frozenset({0}))
        # user channel voices once then stays silent forever
        seqs = []
        for _ in range(4):
            s0 = (1, 1, 2, 2) * 5
            s1 = (0,) * 20
            seqs.append(flatten(deduplicate(chunk_streams(s0, s1, CHUNK_MS, vocab))))
        model = train(seqs, order=2, alpha=0.01, vocab_ext=vocab.extended_size)
        # context ends right after a chunk's channel-0 content
        est = estimate_user_chunk(model, seqs[0][:6], vocab, CHUNK_MS,
                                  SamplerConfig(top_k=1, seed=0))
        assert est == []

    def test_length_bounded_by_capacity(self, setup):
        vocab, _, model, script = setup
        ctx = flatten(prompt_of(script, 3)) + [vocab.tag_s0, 1, 2]
        for seed in range(30):
            est = estimate_user_chunk(model, ctx, vocab, CHUNK_MS,
                                      SamplerConfig(seed=seed))
            assert len(est) <= 4

    def test_rejects_context_not_in_wire_format(self, setup):
        vocab, _, model, script = setup
        ctx = [1, 2] + flatten(prompt_of(script, 3)) + [vocab.tag_s0, 1]
        with pytest.raises(MalformedSequence, match="tag_s0"):
            estimate_user_chunk(model, ctx, vocab, CHUNK_MS, SamplerConfig(seed=0))

    def test_deterministic_given_seed(self, setup):
        vocab, _, model, script = setup
        ctx = flatten(prompt_of(script, 3)) + [vocab.tag_s0, 1]
        a = estimate_user_chunk(model, ctx, vocab, CHUNK_MS, SamplerConfig(seed=3))
        b = estimate_user_chunk(model, ctx, vocab, CHUNK_MS, SamplerConfig(seed=3))
        assert a == b

    def test_matches_continuation_channel1_marginal(self):
        # distribution over channel-1 chunk contents, conditioned on the
        # same channel-0 prefix, must match free-running generation
        vocab = Vocab(size=3, frame_ms=40, silence_tokens=frozenset({0}))
        chunk_ms = 80  # 2 frames per chunk
        rng = np.random.default_rng(0)
        seqs = []
        for _ in range(20):
            toks0 = [int(t) for t in rng.integers(0, 3, size=10)]
            toks1 = [int(t) for t in rng.integers(0, 3, size=10)]
            seqs.append(
                flatten(
                    deduplicate(
                        chunk_streams(toks0, toks1, chunk_ms, vocab)
                    )
                )
            )
        model = train(seqs, order=2, alpha=0.3, vocab_ext=vocab.extended_size)
        prompt = parse(seqs[0], vocab, chunk_ms)

        n = 2000
        buckets: dict[tuple, list[tuple]] = {}
        for i in range(n):
            out = continue_dialogue(model, prompt, 1, SamplerConfig(seed=i))
            new = out.chunks[-1]
            buckets.setdefault(new.s0_novel, []).append(new.s1_novel)
        top_prefix = max(buckets, key=lambda k: len(buckets[k]))
        cont_samples = buckets[top_prefix]

        ctx = flatten(prompt) + [vocab.tag_s0, *top_prefix]
        est_samples = [
            tuple(estimate_user_chunk(model, ctx, vocab, chunk_ms,
                                      SamplerConfig(seed=100_000 + i)))
            for i in range(n)
        ]
        outcomes = set(cont_samples) | set(est_samples)
        tv = 0.5 * sum(
            abs(
                cont_samples.count(o) / len(cont_samples)
                - est_samples.count(o) / len(est_samples)
            )
            for o in outcomes
        )
        assert tv < 0.1, f"total variation {tv:.3f}"


class TestSimulateScripted:
    def test_zero_latency_equals_teacher_forcing_greedy(self, setup):
        vocab, _, model, script = setup
        self._check_equivalence(setup, SamplerConfig(top_k=1, seed=0))

    def test_zero_latency_equals_teacher_forcing_stochastic(self, setup):
        # the estimate path shares the decoding rng, so equality is
        # bit-exact even at temperature 1
        self._check_equivalence(setup, SamplerConfig(seed=123))

    @staticmethod
    def _check_equivalence(setup, sampler):
        vocab, _, model, script = setup
        p = 3
        n = 12
        prompt = prompt_of(script, p)
        cfg = InteractionConfig(
            latency_chunks=0, max_chunks=p + n, sampler=sampler
        )
        transcript = simulate_interaction(model, script, cfg, prompt=prompt)
        forced = [list(c.s1_novel) for c in script.chunks[p : p + n]]
        teacher = continue_dialogue(model, prompt, n, sampler, forced_user=forced)
        sim_llm = [c.s0_novel for c in transcript.dialogue.chunks]
        ref_llm = [c.s0_novel for c in teacher.chunks]
        assert sim_llm == ref_llm

    def test_scripted_user_actual_matches_script(self, setup):
        vocab, _, model, script = setup
        cfg = InteractionConfig(latency_chunks=1, max_chunks=10,
                                sampler=SamplerConfig(seed=4))
        transcript = simulate_interaction(model, script, cfg, prompt_of(script, 0))
        for step in transcript.steps:
            assert step.user_actual == list(script.chunks[step.index].s1_novel)

    def test_source_exhausted(self, setup):
        vocab, _, model, script = setup
        short = DedupDialogue(vocab, CHUNK_MS, script.chunks[:5])
        cfg = InteractionConfig(latency_chunks=1, max_chunks=10)
        with pytest.raises(SourceExhausted):
            simulate_interaction(model, short, cfg, prompt_of(script, 0))

    @pytest.mark.parametrize("field,value", [("frame_ms", 80),
                                             ("silence_tokens", frozenset({0, 1})),
                                             ("chunk_ms", 2 * CHUNK_MS)])
    def test_script_vocabulary_must_match_the_prompt(self, setup, field, value):
        vocab, _, model, script = setup
        fields = dict(size=vocab.size, frame_ms=vocab.frame_ms,
                      silence_tokens=vocab.silence_tokens, chunk_ms=CHUNK_MS)
        fields[field] = value
        chunk_ms = fields.pop("chunk_ms")
        prompt = DedupDialogue(Vocab(**fields), chunk_ms, ())
        cfg = InteractionConfig(latency_chunks=1, max_chunks=10)
        with pytest.raises(ValueError, match="scripted user"):
            simulate_interaction(model, script, cfg, prompt=prompt)

    def test_latency_one_estimate_structure(self, setup):
        vocab, _, model, script = setup
        p = 2
        cfg = InteractionConfig(latency_chunks=1, max_chunks=14,
                                sampler=SamplerConfig(seed=9))
        transcript = simulate_interaction(model, script, cfg,
                                          prompt=prompt_of(script, p))
        steps = {s.index: s for s in transcript.steps}
        for t, step in steps.items():
            ctx_chunks = parse(step.context_snapshot, vocab, CHUNK_MS).chunks
            assert len(ctx_chunks) == t
            for j, chunk in enumerate(ctx_chunks):
                s1 = list(chunk.s1_novel)
                if j < p:
                    continue  # prompt chunk, actual by definition
                if j == t - 1:
                    # newest user chunk: must be the estimate made this step
                    assert s1 == steps[j].estimate_history[-1]
                else:
                    # anything older: the estimate was replaced by the actual
                    assert s1 == steps[j].user_actual

    def test_latency_one_estimates_exist_and_get_replaced(self, setup):
        vocab, _, model, script = setup
        cfg = InteractionConfig(latency_chunks=1, max_chunks=14,
                                sampler=SamplerConfig(seed=9))
        transcript = simulate_interaction(model, script, cfg, prompt_of(script, 0))
        estimated = [s for s in transcript.steps[:-1] if s.user_estimated is not None]
        assert len(estimated) == len(transcript.steps) - 1
        differs = sum(
            1 for s in estimated if s.user_estimated != s.user_actual
        )
        assert differs > 0  # the check above is vacuous if estimates were trivially equal

    def test_synchrony_deficit(self, setup):
        vocab, _, model, script = setup
        for latency in (0, 1):
            cfg = InteractionConfig(latency_chunks=latency,
                                    max_chunks=12, sampler=SamplerConfig(seed=2))
            transcript = simulate_interaction(model, script, cfg, prompt_of(script, 0))
            p = transcript.prompt_chunks
            for step in transcript.steps:
                t = step.index
                llm_count = t + 1
                arrived = max(p, t + 1 - latency)
                assert llm_count - arrived == latency
        # larger latencies reach the exact deficit after a warmup
        cfg = InteractionConfig(latency_chunks=3, max_chunks=12,
                                sampler=SamplerConfig(seed=2))
        transcript = simulate_interaction(model, script, cfg, prompt_of(script, 0))
        for step in transcript.steps:
            t = step.index
            if t + 1 - 3 >= transcript.prompt_chunks:
                assert (t + 1) - max(transcript.prompt_chunks, t + 1 - 3) == 3


class TestSimulateTwoModels:
    def test_deterministic_and_structured(self, setup):
        vocab, _, model, script = setup
        cfg = InteractionConfig(latency_chunks=1, max_chunks=12,
                                sampler=SamplerConfig(seed=21))
        a = simulate_interaction(model, model, cfg, prompt_of(script, 0))
        b = simulate_interaction(model, model, cfg, prompt_of(script, 0))
        assert a.dialogue == b.dialogue
        assert [s.to_dict() for s in a.steps] == [s.to_dict() for s in b.steps]
        assert len(a.dialogue.chunks) == 12

    def test_final_dialogue_parses_and_interpolates(self, setup):
        vocab, _, model, script = setup
        for latency in (0, 1, 2):
            cfg = InteractionConfig(latency_chunks=latency,
                                    max_chunks=10, sampler=SamplerConfig(seed=31))
            tr = simulate_interaction(model, model, cfg, prompt_of(script, 3))
            assert parse(flatten(tr.dialogue), vocab, CHUNK_MS) == tr.dialogue
            interpolate(tr.dialogue)

    def test_agents_differ_from_continuation(self, setup):
        # under latency, interaction-mode output diverges from plain
        # continuation with the same seed
        vocab, _, model, script = setup
        prompt = prompt_of(script, 3)
        cfg = InteractionConfig(latency_chunks=1, max_chunks=15,
                                sampler=SamplerConfig(seed=8))
        tr = simulate_interaction(model, model, cfg, prompt)
        cont = continue_dialogue(model, prompt, 12, SamplerConfig(seed=8))
        assert tr.dialogue.chunks != cont.chunks


class TestTranscriptSerialisation:
    def test_transcript_size_linear_in_length(self, setup):
        vocab, _, model, script = setup

        def size(n):
            cfg = InteractionConfig(latency_chunks=1, max_chunks=n,
                                    sampler=SamplerConfig(seed=5))
            tr = simulate_interaction(model, model, cfg, prompt_of(script, 0))
            return len(json.dumps(tr.to_json_dict()))

        assert size(80) < 2.3 * size(40)

    @pytest.mark.parametrize("latency", [0, 1, 3])
    @pytest.mark.parametrize("user", ["scripted", "model"])
    def test_snapshot_rebuilds_from_serialised_transcript(self, setup, user, latency):
        vocab, _, model, script = setup
        cfg = InteractionConfig(latency_chunks=latency, max_chunks=16,
                                sampler=SamplerConfig(seed=6))
        source = script if user == "scripted" else model
        tr = simulate_interaction(model, source, cfg,
                                  prompt=prompt_of(script, 2))
        doc = json.loads(json.dumps(tr.to_json_dict()))
        # each value once: the seed is config.sampler.seed, the chunk size
        # dialogue.chunk_ms, a step's user_estimated its last estimate
        assert "seed" not in doc
        assert set(doc["config"]) == {"latency_chunks", "max_chunks", "sampler"}
        chunks = doc["dialogue"]["chunks"]
        steps = {s["index"]: s for s in doc["steps"]}
        for rec in tr.steps:
            t = rec.index
            assert "context_snapshot" not in steps[t]
            assert "user_estimated" not in steps[t]
            wire = []
            for j in range(t):
                s1 = chunks[j]["s1"]
                if j >= max(doc["prompt_chunks"], t - latency):
                    s1 = steps[j]["estimate_history"][t - j - 1]
                wire += [vocab.tag_s0, *chunks[j]["s0"]]
                wire += [vocab.tag_s1, *s1] if s1 else []
            assert wire == rec.context_snapshot
            assert steps[t]["context_snapshot_len"] == len(wire)
            history = steps[t]["estimate_history"]
            assert (history[-1] if history else None) == rec.user_estimated


class TestOverflowPolicy:
    @staticmethod
    def _chatty_model(vocab):
        # a model that all but refuses to emit tags: long alternating runs
        seq = [1, 2] * 200
        return train([seq], order=1, alpha=1e-6, vocab_ext=vocab.extended_size)

    def test_truncate_policy_counts(self):
        vocab = Vocab(size=6, frame_ms=40, silence_tokens=frozenset({0}))
        model = self._chatty_model(vocab)
        cfg = InteractionConfig(latency_chunks=0, max_chunks=4,
                                sampler=SamplerConfig(top_k=1, seed=0))
        script = DedupDialogue(
            vocab, CHUNK_MS,
            tuple(DedupChunk(s0_novel=(), s1_novel=(3,)) for _ in range(4)),
        )
        tr = simulate_interaction(model, script, cfg, prompt_of(script, 0))
        assert sum(s.truncations for s in tr.steps) > 0
        for c in tr.dialogue.chunks:
            assert len(c.s0_novel) <= 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InteractionConfig(latency_chunks=-1)
        with pytest.raises(ValueError, match="must not exceed"):
            InteractionConfig(latency_chunks=5, max_chunks=4)
