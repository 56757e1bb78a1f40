import json

import numpy as np
import pytest

from duplexsim import (
    DedupChunk,
    DedupDialogue,
    InteractionConfig,
    NgramModel,
    SamplerConfig,
    Vocab,
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
from duplexsim import interaction, ngram
from duplexsim.errors import MalformedSequence, SourceExhausted
from duplexsim.synth import DialogueStyle

import oracles
from test_golden import SAMPLERS


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
        flatten(deduplicate(s0, s1, CHUNK_MS, vocab))
        for s0, s1 in corpus.values()
    ]
    model = train(seqs, order=3, alpha=0.1, vocab_ext=vocab.extended_size)
    s0, s1 = list(corpus.values())[-1]
    script = deduplicate(s0, s1, CHUNK_MS, vocab)
    return vocab, style, model, script


def prompt_of(script, n):
    return DedupDialogue(script.vocab, script.chunk_ms, script.chunks[:n])


@pytest.fixture
def no_draws(monkeypatch):
    """Any draw fails the test."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a token was drawn")

    monkeypatch.setattr("duplexsim.interaction.sample_constrained", no_draw)


def test_block_reader_returns_the_generators_doubles_in_order():
    """The agents' reader of ``random(256)`` blocks returns, across the
    blocks' bounds, the doubles of one ``Generator.random()`` call each."""
    for seed in (0, [7, 1]):
        reader, twin = interaction._Uniforms(seed), np.random.default_rng(seed)
        assert [reader.random() for _ in range(700)] == [twin.random() for _ in range(700)]


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
            assert len(rec[0]) == len(out.chunks) * 4

    def test_greedy_on_silence_corpus_emits_silence_chunk(self):
        vocab = Vocab(size=6, frame_ms=40, silence_tokens=frozenset({0}))
        silent = [flatten(deduplicate((0,) * 20, (0,) * 20, CHUNK_MS, vocab))
                  for _ in range(4)]
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

    # forced parts are checked before any draw: a repeated novel, an id past
    # the extended vocabulary (12 here), more novels than frames
    @pytest.mark.parametrize("forced", [[(3, 3, 9), (1,)], [(3, 12), (1,)],
                                        [(1,), (1, 2, 3, 4, 5)]],
                             ids=["repeated_novel", "past_vocabulary", "overfull"])
    def test_forced_user_breaking_the_grammar_raises(self, setup, no_draws, forced):
        _, _, model, script = setup
        with pytest.raises(MalformedSequence, match="channel 1"):
            continue_dialogue(model, prompt_of(script, 3), 2, SamplerConfig(seed=0),
                              forced_user=forced)


# the prompt's last channel-1 novel is 5 and the user's first part after it
# opens with 5: a fault only at the junction, found before any draw
@pytest.mark.parametrize("user", ["scripted", "forced"])
def test_user_repeating_the_prompts_last_novel_raises_before_any_draw(setup, no_draws, user):
    vocab, _, model, _ = setup
    prompt = DedupDialogue(vocab, CHUNK_MS, (DedupChunk((1,), (5,)),))
    with pytest.raises(MalformedSequence, match="chunk 1 channel 1 repeats"):
        if user == "forced":
            continue_dialogue(model, prompt, 2, forced_user=[(5, 6), ()])
        else:
            script = DedupDialogue(vocab, CHUNK_MS, (DedupChunk((1,), (2,)),
                                                     DedupChunk((), (5, 6)),
                                                     *[DedupChunk()] * 398))
            simulate_interaction(model, script, InteractionConfig(max_chunks=400), prompt)


class TestEstimateUserChunk:
    def test_silence_echo_user_estimated_empty(self):
        vocab = Vocab(size=6, frame_ms=40, silence_tokens=frozenset({0}))
        # user channel voices once then stays silent forever
        seqs = []
        for _ in range(4):
            s0 = (1, 1, 2, 2) * 5
            s1 = (0,) * 20
            seqs.append(flatten(deduplicate(s0, s1, CHUNK_MS, vocab)))
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

    # an estimate appended to either would break the grammar: a wire that
    # opens with tag_s1, or a second tag_s1 in the chunk
    @pytest.mark.parametrize("ctx", [[], ["S0", 1, "S1", 3]], ids=["empty", "after_channel_1"])
    def test_rejects_context_not_after_channel_0(self, setup, no_draws, ctx):
        vocab, _, model, _ = setup
        ctx = [{"S0": vocab.tag_s0, "S1": vocab.tag_s1}.get(t, t) for t in ctx]
        with pytest.raises(MalformedSequence, match="right after a chunk's channel-0"):
            estimate_user_chunk(model, ctx, vocab, CHUNK_MS, SamplerConfig(seed=0))

    @pytest.mark.parametrize("full", [False, True])
    def test_callers_rng_read_one_double_per_draw(self, setup, full):
        """A caller's Generator is read as the reference draws read it, one
        ``random()`` per draw that takes one, so it is left in their state,
        its buffered half of a 32-bit draw too."""
        vocab, _, model, script = setup
        prompt = prompt_of(script, 3)
        ctx = flatten(prompt) + [vocab.tag_s0, 1]
        pairs = [*((list(c.s0_novel), list(c.s1_novel)) for c in prompt.chunks), ([1], ())]
        for seed in range(10):
            ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for rng in (ours, twin):
                if full:  # leaves the upper half of an output in the buffer
                    rng.integers(7)
            want = oracles.draw_part(model, pairs, 1, vocab, prompt.frames_per_chunk,
                                     SamplerConfig(), twin)[0]
            assert estimate_user_chunk(model, ctx, vocab, CHUNK_MS, rng=ours) == want
            assert ours.bit_generator.state == twin.bit_generator.state

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
            seqs.append(flatten(deduplicate(toks0, toks1, chunk_ms, vocab)))
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
        for step in transcript.to_json_dict()["steps"]:
            assert step["user_actual"] == list(script.chunks[step["index"]].s1_novel)

    # a script is a DedupDialogue, so one that breaks the grammar (9 novels
    # in 4 frames, or a repeated novel) raises before any step draws a token
    @pytest.mark.parametrize("s1", [tuple(range(1, 10)), (3, 3)],
                             ids=["overfull", "repeated_novel"])
    def test_malformed_script_raises_before_any_step(self, setup, monkeypatch, s1):
        vocab, _, model, script = setup

        def no_draw(*args, **kwargs):
            raise AssertionError("a step drew a token")

        monkeypatch.setattr("duplexsim.interaction.sample_constrained", no_draw)
        cfg = InteractionConfig(latency_chunks=1, max_chunks=10)
        chunks = (*script.chunks[:4], DedupChunk((), s1), *script.chunks[5:])
        with pytest.raises(MalformedSequence, match="chunk 4 channel 1"):
            simulate_interaction(model, DedupDialogue(vocab, CHUNK_MS, chunks), cfg,
                                 prompt_of(script, 0))

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
        actual = transcript.dialogue.chunks
        for t in steps:
            ctx_chunks = parse(transcript.context_snapshot(t), vocab, CHUNK_MS).chunks
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
                    assert s1 == list(actual[j].s1_novel)

    def test_latency_one_estimates_exist_and_get_replaced(self, setup):
        vocab, _, model, script = setup
        cfg = InteractionConfig(latency_chunks=1, max_chunks=14,
                                sampler=SamplerConfig(seed=9))
        transcript = simulate_interaction(model, script, cfg, prompt_of(script, 0))
        estimated = [s for s in transcript.steps[:-1] if s.user_estimated is not None]
        assert len(estimated) == len(transcript.steps) - 1
        actual = transcript.dialogue.chunks
        differs = sum(
            1 for s in estimated if s.user_estimated != list(actual[s.index].s1_novel)
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


class TestAgentCode:
    """An agent that holds its context as a code draws what draws on the
    whole context list draw (``oracles.draw_part``), under every golden
    sampler; the engine's runs are checked in TestReferenceSimulator."""

    @staticmethod
    def _chunks(d):
        return [(list(c.s0_novel), list(c.s1_novel)) for c in d.chunks]

    def test_continue_dialogue(self, setup):
        _, _, model, script = setup
        prompt = prompt_of(script, 4)
        forced = [c.s1_novel for c in script.chunks[4:10]]
        # a prompt of numpy ints gives the same int codes, and so the same draws
        as_numpy = DedupDialogue(prompt.vocab, CHUNK_MS, tuple(
            DedupChunk(*(tuple(np.int64(t) for t in part) for part in c)) for c in prompt.chunks))
        for name in SAMPLERS:
            cfg = SamplerConfig(seed=3, **SAMPLERS[name])
            free = continue_dialogue(model, prompt, 6, cfg)
            teacher = continue_dialogue(model, prompt, 6, cfg, forced_user=forced)
            assert self._chunks(free) == oracles.continue_dialogue(model, prompt, 6, cfg)
            assert self._chunks(teacher) == oracles.continue_dialogue(model, prompt, 6, cfg,
                                                                      forced)
            assert teacher.chunks[4:] != free.chunks[4:]
            assert continue_dialogue(model, as_numpy, 6, cfg) == free

    def test_estimate_user_chunk(self, setup):
        vocab, _, model, script = setup
        prompt = prompt_of(script, 3)
        ctx = flatten(prompt) + [vocab.tag_s0, 1]
        pairs = [*self._chunks(prompt), ([1], ())]
        for name in SAMPLERS:
            for seed in range(10):
                cfg = SamplerConfig(seed=seed, **SAMPLERS[name])
                want = oracles.draw_part(model, pairs, 1, vocab, prompt.frames_per_chunk, cfg,
                                         np.random.default_rng(seed))[0]
                assert estimate_user_chunk(model, ctx, vocab, CHUNK_MS, cfg) == want


class TestSimulateTwoModels:
    def test_deterministic_and_structured(self, setup):
        vocab, _, model, script = setup
        cfg = InteractionConfig(latency_chunks=1, max_chunks=12,
                                sampler=SamplerConfig(seed=21))
        a = simulate_interaction(model, model, cfg, prompt_of(script, 0))
        b = simulate_interaction(model, model, cfg, prompt_of(script, 0))
        assert a.dialogue == b.dialogue
        assert a.steps == b.steps
        assert len(a.dialogue.chunks) == 12

    @staticmethod
    def two_models(vocab):
        """Two order-3 models, on 6 dialogues of 16 s each at 501 units."""
        style = DialogueStyle(vocab=vocab, ipu_ms=(800.0, 200.0), pause_ms=(400.0, 100.0),
                              fto_ms=(240.0, 80.0), turn_continue_prob=0.3,
                              backchannel_prob=0.1, backchannel_ms=(160.0, 40.0), p_self=0.45)
        return [train([flatten(deduplicate(s0, s1, CHUNK_MS, vocab))
                       for s0, s1 in generate_corpus(style, 6, 16000, seed=seed).values()],
                      order=3, alpha=0.1, vocab_ext=vocab.extended_size) for seed in (1, 2)]

    def test_one_cached_cdf_per_drawn_key(self, vocab, monkeypatch):
        """After two runs of two models, under two samplers, each model
        caches one cdf per distinct (row, lo, hi, skip, temperature, top_k)
        of its seen draws and one per (width, temperature, top_k) of its
        unseen ones."""
        models = self.two_models(vocab)
        keys = {model: set() for model in models}
        draw = interaction.sample_constrained

        def recorded(model, code, lo, hi, skip, rng, cfg):
            width, sampler = hi - lo - (skip is not None), (cfg.temperature, cfg.top_k)
            if width > 1:  # one allowed id draws on no cdf
                row = model._row(code)
                keys[model].add((width, *sampler) if row is None
                                else (row, lo, hi, skip, *sampler))
            return draw(model, code, lo, hi, skip, rng, cfg)

        monkeypatch.setattr(interaction, "sample_constrained", recorded)
        for sampler in (SamplerConfig(seed=5), SamplerConfig(seed=6, top_k=5, temperature=0.7)):
            cfg = InteractionConfig(latency_chunks=1, max_chunks=40, sampler=sampler)
            simulate_interaction(*models, cfg, DedupDialogue(vocab, CHUNK_MS, ()))
        for model in models:
            seen = [key for key in keys[model] if len(key) == 6]
            assert seen and len(seen) < len(keys[model])
            assert sum(len(key) == 6 for key in model._cdfs) == len(seen)
            assert len(model._cdfs) == len(keys[model]) < ngram._CDF_FLOATS // model.vocab_ext

    def test_one_cached_cdf_per_span_width(self, vocab):
        """An unseen draw caches its span width's cdf in its model, a seen
        one its (code, lo, hi, skip), each key ending in the sampler's
        temperature and top_k. At 501 units the widths are 2 (the
        tags), 500 and 501 (the units less the last novel or not) and 502
        and 503 (with the tags); a run caches at most four per model, as its
        first channel-0 draw comes after a seen context, the start. An empty
        prompt leaves both last novels unset."""
        models = self.two_models(vocab)
        cfg = InteractionConfig(latency_chunks=1, max_chunks=40, sampler=SamplerConfig(seed=5))
        simulate_interaction(*models, cfg, DedupDialogue(vocab, CHUNK_MS, ()))
        for model in models:
            assert all(key[-2:] == (1.0, None) for key in model._cdfs)
            widths = [key[0] for key in model._cdfs if len(key) == 3]
            assert 1 <= len(widths) <= 4 and set(widths) <= {2, 500, 501, 502, 503}
            seen = [key[:4] for key in model._cdfs if len(key) == 6]
            assert seen and len(widths) + len(seen) == len(model._cdfs)
            for code, lo, hi, skip in seen:
                assert model._row(code) is not None
                assert (lo, hi) in {(501, 503), (0, 501), (0, 503)}
                assert skip is None or lo <= skip < hi

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


class TestReferenceSimulator:
    """``simulate_interaction`` equals ``oracles.simulate_interaction``, which
    rebuilds every context from chunk 0 and draws each token from the whole
    list, in every chunk, estimate, truncation count and snapshot."""

    @pytest.fixture(scope="class")
    def user_model(self, setup):
        # the user's own model, so a draw from the wrong one shows
        vocab, style, _, _ = setup
        corpus = generate_corpus(style, 8, 16000, seed=101)
        return train([flatten(deduplicate(s0, s1, CHUNK_MS, vocab))
                      for s0, s1 in corpus.values()],
                     order=2, alpha=0.2, vocab_ext=vocab.extended_size)

    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    @pytest.mark.parametrize("user", ["scripted", "model"])
    @pytest.mark.parametrize("latency", [0, 1, 2, 3])
    def test_equals_oracle(self, setup, user_model, latency, user, sampler):
        _, _, model, script = setup
        source = script if user == "scripted" else user_model
        for p in (0, 3):
            cfg = InteractionConfig(latency_chunks=latency, max_chunks=p + 12,
                                    sampler=SamplerConfig(seed=17 + p, **SAMPLERS[sampler]))
            prompt = prompt_of(script, p)
            tr = simulate_interaction(model, source, cfg, prompt)
            want = oracles.simulate_interaction(model, source, cfg, prompt)
            assert [(list(c.s0_novel), list(c.s1_novel)) for c in tr.dialogue.chunks] == \
                want["chunks"]
            assert [s.estimate_history for s in tr.steps] == want["histories"]
            assert [s.truncations for s in tr.steps] == want["truncations"]
            assert [tr.context_snapshot(s.index) for s in tr.steps] == want["snapshots"]
            assert [s.context_snapshot_len for s in tr.steps] == \
                [len(w) for w in want["snapshots"]]
            assert tr.user_truncations == want["user_truncations"]

    @pytest.mark.parametrize("user", ["scripted", "model"])
    @pytest.mark.parametrize("latency", [0, 1, 3])
    def test_one_wrapped_call_per_draw(self, setup, user_model, monkeypatch, latency, user):
        """A wrapper bound as ``interaction.sample_constrained`` sees every
        draw of a run, as many as the reference run makes, and changes no
        bit of the transcript."""
        _, _, model, script = setup
        source = script if user == "scripted" else user_model
        cfg = InteractionConfig(latency_chunks=latency, max_chunks=15,
                                sampler=SamplerConfig(seed=4))
        prompt = prompt_of(script, 3)
        plain = simulate_interaction(model, source, cfg, prompt)
        calls = {interaction: 0, oracles: 0}

        def count(module):
            draw = module.sample_constrained

            def counted(*args, **kwargs):
                calls[module] += 1
                return draw(*args, **kwargs)

            monkeypatch.setattr(module, "sample_constrained", counted)

        count(interaction)
        count(oracles)
        wrapped = simulate_interaction(model, source, cfg, prompt)
        oracles.simulate_interaction(model, source, cfg, prompt)
        assert calls[interaction] == calls[oracles] > 0
        assert wrapped.to_json_dict() == plain.to_json_dict()


class TestSimulateInteractions:
    """Runs made one after another on shared models equal the runs made
    alone, in either order: a model's caches never change a draw."""

    # 14 runs once made more than 12 draws of one model at a time, where the
    # engine switched to a batch kernel
    @pytest.mark.parametrize("user", ["scripted", "model"])
    @pytest.mark.parametrize("latency", [0, 1, 3])
    @pytest.mark.parametrize("runs", [2, 14], ids=["below_crossover", "above_crossover"])
    def test_equal_to_one_run_at_a_time(self, setup, tmp_path, user, latency, runs):
        vocab, _, model, script = setup
        model.save(tmp_path / "model.npy")

        def fresh():  # a copy of the model whose caches start empty
            return NgramModel.load(tmp_path / "model.npy")

        # runs of unequal length; one sampler whose cdfs the draw does not cache
        prompts = [prompt_of(script, k % 5) for k in range(runs)]
        cfgs = [InteractionConfig(latency_chunks=latency, max_chunks=6 + 3 * (k % 4) + k % 5,
                                  sampler=SamplerConfig(seed=k, top_k=3 if k == 1 else None))
                for k in range(runs)]

        def run(k, m):
            tr = simulate_interaction(m, script if user == "scripted" else m, cfgs[k],
                                      prompts[k])
            return tr.to_json_dict()

        alone = [run(k, fresh()) for k in range(runs)]
        shared = fresh()
        assert [run(k, shared) for k in range(runs)] == alone
        assert [run(k, shared) for k in reversed(range(runs))] == alone[::-1]


class TestTranscriptSerialisation:
    def test_transcript_size_linear_in_length(self, setup):
        vocab, _, model, script = setup

        def size(n):
            cfg = InteractionConfig(latency_chunks=1, max_chunks=n,
                                    sampler=SamplerConfig(seed=5))
            tr = simulate_interaction(model, model, cfg, prompt_of(script, 0))
            return len(json.dumps(tr.to_json_dict()))

        assert size(80) < 2.3 * size(40)

    def test_snapshot_is_of_a_step(self, setup):
        """``context_snapshot`` takes the index of a step, and names the range
        of them otherwise: a prompt chunk, or one past the run, has none."""
        _, _, model, script = setup
        cfg = InteractionConfig(latency_chunks=2, max_chunks=10)
        tr = simulate_interaction(model, script, cfg, prompt_of(script, 3))
        for t in (-1, 0, 1, 2, 10, 11):
            with pytest.raises(ValueError, match=rf"step index in \[3, 10\), got {t}$"):
                tr.context_snapshot(t)
        assert [len(tr.context_snapshot(t)) for t in range(3, 10)] == \
            [s.context_snapshot_len for s in tr.steps]

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
            assert wire == tr.context_snapshot(t)
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
            tuple(DedupChunk(s0_novel=(), s1_novel=(3 + i % 2,)) for i in range(4)),
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
