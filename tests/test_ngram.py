import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexsim import (
    NgramModel,
    SamplerConfig,
    perplexity,
    sample_constrained,
    train,
)
from duplexsim import ngram
from duplexsim.errors import EmptyCorpus, EmptySequence, ModelFormatError

import oracles


def parse_corpus(lines):
    return [[int(t) for t in line.split()] for line in lines]


class TestTrain:
    def test_single_symbol_corpus_concentrates(self):
        model = train(parse_corpus(["0 0 0 0"]), order=1, alpha=1e-9, vocab_ext=4)
        dist = oracles.next_dist(model, [0])
        assert dist[0] == pytest.approx(1.0, abs=1e-8)

    def test_unseen_context_is_uniform(self):
        model = train(parse_corpus(["0 0 0 0"]), order=2, alpha=0.5, vocab_ext=4)
        dist = oracles.next_dist(model, [3, 2])
        assert np.allclose(dist, 0.25)

    def test_alternating_corpus_matches_oracle(self):
        # brute-force count: context (1,) occurs 3 times, always followed
        # by 2, so P(2|1) = (3+1)/(3+4) = 4/7
        corpus = parse_corpus(["1 2 1 2 1 2"])
        model = train(corpus, order=1, alpha=1.0, vocab_ext=4)
        expected = oracles.ngram_prob(corpus, 1, 1.0, 4, [1], 2)
        assert expected == pytest.approx(4 / 7)
        assert oracles.next_dist(model, [1])[2] == pytest.approx(expected, abs=1e-12)

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            train([], order=1, alpha=0.1, vocab_ext=4)

    def test_rejects_out_of_range_token(self):
        with pytest.raises(ValueError):
            train([[0, 5]], order=1, alpha=0.1, vocab_ext=4)

    # a context must fit one int64 code: order <= 63 and
    # (vocab_ext + 1) ** order <= 2**63; an order of 10**9 is rejected at once
    @pytest.mark.parametrize("order,vocab_ext,ok", [
        (17, 12, True), (18, 12, False), (63, 1, True), (64, 1, False),
        (7, 503, True), (8, 503, False), (10**9, 503, False)])
    def test_order_fits_an_int64_code(self, order, vocab_ext, ok):
        if ok:
            assert NgramModel(order=order, vocab_ext=vocab_ext).order == order
        else:
            with pytest.raises(ValueError, match="too large"):
                NgramModel(order=order, vocab_ext=vocab_ext)

    # every norm, total + alpha * vocab_ext, must be finite, and every
    # probability a normal float: each of these was trained and saved; eval
    # then failed on 1e308 and 5e-324 with a math domain error, and on 1e-315
    # with an OverflowError from math.exp. The last is the largest alpha rejected.
    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 1e308, 5e-324, 1e-315,
                                       2.0041683600089723e-292])
    def test_alpha_keeps_norms_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            train([[0, 1, 2]], order=1, alpha=alpha, vocab_ext=4)
        assert NgramModel(order=1, vocab_ext=4, alpha=1e307).alpha == 1e307

    def test_smallest_alpha_keeps_perplexity_finite(self):
        model = NgramModel(order=1, vocab_ext=4, alpha=2.0041683600089726e-292)
        # a row total of 2**53, the most load accepts, gives the smallest probability
        model._set_rows(np.array([0]), np.array([0, 1]), np.array([1]), np.array([2**53]))
        assert 1e300 < perplexity(model, [0] * 601) < math.inf


def _rows(model):
    """The model's arrays as ``{context: {token: count}}``, after checking
    that codes and each row's tokens increase and that totals are row sums."""
    base, codes, offsets = model.vocab_ext + 1, model.codes.tolist(), model.offsets.tolist()
    assert codes == sorted(set(codes)) and offsets[0] == 0 and offsets[-1] == len(model.tokens)
    rows = {}
    for r, code in enumerate(codes):
        context = []
        for _ in range(model.order):
            code, digit = divmod(code, base)
            context.insert(0, digit)
        tokens = model.tokens[offsets[r] : offsets[r + 1]].tolist()
        freqs = model.freqs[offsets[r] : offsets[r + 1]].tolist()
        assert tokens == sorted(set(tokens)) and model.row_totals[r] == sum(freqs)
        rows[tuple(context)] = dict(zip(tokens, freqs))
    return rows


class TestCompiledTrain:
    @given(
        st.integers(1, 8).flatmap(lambda v: st.tuples(
            st.just(v),
            st.lists(st.lists(st.integers(0, v - 1), max_size=30), min_size=1, max_size=6))),
        st.integers(1, 6),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_counter_oracle(self, vocab_corpus, order, data):
        vocab_ext, corpus = vocab_corpus
        model = train(corpus, order=order, alpha=0.1, vocab_ext=vocab_ext)
        counts = oracles.ngram_counts(corpus, order, vocab_ext)
        assert _rows(model) == counts
        # scoring finds the same counts, and sums the same floats in the same order
        seq = data.draw(st.one_of(st.sampled_from(corpus),
                                  st.lists(st.integers(0, vocab_ext), max_size=30)))
        skip = data.draw(st.integers(0, len(seq) + 1))
        assert model.sequence_nll(seq, skip) == (
            oracles.ngram_nll(counts, order, 0.1, vocab_ext, seq, skip), max(0, len(seq) - skip))

    def test_batches_merge_to_the_oracle(self):
        # more than two batches of 2**15 tokens, with empty sequences among them
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 5000, 40)
        sizes[::9] = 0
        corpus = [rng.integers(0, 6, size=n).tolist() for n in sizes]
        assert sum(map(len, corpus)) > 2 * 2**15
        model = train(corpus, order=3, alpha=0.1, vocab_ext=6)
        assert _rows(model) == oracles.ngram_counts(corpus, 3, 6)

    def test_corpus_of_whole_batches(self):
        # each sequence fills a batch of 2**15 tokens exactly, so none is left over
        corpus = [[0, 1, 2, 3] * 2**13, [3, 2, 1] * 10922 + [0, 1]]
        model = train(corpus, order=2, alpha=0.1, vocab_ext=4)
        assert _rows(model) == oracles.ngram_counts(corpus, 2, 4)

    # the largest orders the constructor accepts: here a whole window's code,
    # context code * (vocab_ext + 1) + token, would pass 2**63
    @pytest.mark.parametrize("vocab_ext,order", [(1, 63), (3, 31)])
    def test_largest_order_matches_oracle(self, vocab_ext, order):
        rng = np.random.default_rng(order)
        corpus = [rng.integers(0, vocab_ext, size=n).tolist() for n in (0, 5, 70, 140)]
        model = train(corpus, order=order, alpha=0.1, vocab_ext=vocab_ext)
        assert _rows(model) == oracles.ngram_counts(corpus, order, vocab_ext)
        assert int(model.codes.max()) == (vocab_ext + 1) ** order - 1  # all begin markers
        for context in ([], corpus[3][:order], corpus[3][:90]):
            for tok in range(vocab_ext):
                assert oracles.next_dist(model, context)[tok] == pytest.approx(
                    oracles.ngram_prob(corpus, order, 0.1, vocab_ext, context, tok), abs=1e-12)
        assert perplexity(model, corpus[2]) == pytest.approx(
            oracles.sequence_perplexity(corpus, order, 0.1, vocab_ext, corpus[2]), rel=1e-12)


class TestNextDist:
    """The reference distribution, ``oracles.next_dist``, against brute-force
    counting; the draw builds the same floats at any span."""

    def test_untrained_uniform(self):
        model = NgramModel(order=2, vocab_ext=7, alpha=0.3)
        assert np.allclose(oracles.next_dist(model, [1, 2]), 1 / 7)

    def test_count_dominance(self):
        model = train(parse_corpus(["1 2 1 2"]), order=1, alpha=0.1, vocab_ext=5)
        dist = oracles.next_dist(model, [1])
        assert dist[2] > dist[3]

    @given(
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=12),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.integers(0, 5), max_size=4),
        st.integers(1, 3),
    )
    @settings(max_examples=100)
    def test_matches_bruteforce_and_normalises(self, corpus, context, order):
        alpha = 0.25
        model = train(corpus, order=order, alpha=alpha, vocab_ext=6)
        dist = oracles.next_dist(model, context)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert (dist > 0).all()
        for tok in range(6):
            expected = oracles.ngram_prob(corpus, order, alpha, 6, context, tok)
            assert dist[tok] == pytest.approx(expected, abs=1e-12)
        row = model._row(model.code(context))
        assert model._dist(row, 0, 6, None).tolist() == dist.tolist()
        assert model._dist(row, 1, 5, 3).tolist() == dist[[1, 2, 4]].tolist()


def draw(model, context, span, cfg):
    """``sample_constrained`` after ``context`` from ``span``, on
    ``default_rng(cfg.seed)``."""
    return sample_constrained(model, model.code(context), *span,
                              np.random.default_rng(cfg.seed), cfg)


class TestSampling:
    def test_near_zero_temperature_is_argmax(self):
        model = train(parse_corpus(["1 2 1 2 1 2"]), order=1, alpha=0.1, vocab_ext=4)
        cfg = SamplerConfig(temperature=1e-9, seed=5)
        assert draw(model, [1], (0, 4, None), cfg) == \
            int(np.argmax(oracles.next_dist(model, [1])))

    def test_overflowing_temperature_raises(self):
        # log(p) / 1e-310 is -inf for every p < 1, so the distribution is NaN
        model = train(parse_corpus(["1 2 1 2 1 2"]), order=1, alpha=0.1, vocab_ext=4)
        cfg = SamplerConfig(temperature=1e-310, seed=5)
        for sample in (lambda: draw(model, [1], (0, 4, None), cfg),
                       lambda: oracles.sample_constrained(model, [1], range(4), cfg)):
            with pytest.raises(ValueError, match="not finite"):
                sample()

    def test_greedy_top_k_one(self):
        model = train(parse_corpus(["1 2 1 2 1 2"]), order=1, alpha=0.1, vocab_ext=4)
        cfg = SamplerConfig(top_k=1, seed=0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert sample_constrained(model, model.code([1]), 0, 4, None, rng, cfg) == 2
        assert rng.bit_generator.state == state  # greedy consumes no randomness

    def test_same_seed_same_samples(self):
        model = train(parse_corpus(["0 1 2 3 0 1 2 3"]), order=2, alpha=0.5, vocab_ext=4)
        code = model.code([0, 1])
        def run(seed):
            rng = np.random.default_rng(seed)
            return [sample_constrained(model, code, 0, 4, None, rng) for _ in range(50)]
        assert run(9) == run(9)
        assert run(9) != run(10)

    def test_monte_carlo_frequencies(self):
        model = train(parse_corpus(["0 1 1 2 2 2 3"]), order=1, alpha=0.5, vocab_ext=4)
        ctx = [2]
        dist = oracles.next_dist(model, ctx)
        rng = np.random.default_rng(123)
        draws = np.array([sample_constrained(model, model.code(ctx), 0, 4, None, rng)
                          for _ in range(100_000)])
        for tok in range(4):
            freq = float(np.mean(draws == tok))
            assert abs(freq - dist[tok]) < 0.01

    @pytest.mark.parametrize("sampler", [dict(), dict(top_k=3), dict(temperature=0.7)])
    def test_allowed_form_does_not_change_draws(self, sampler):
        """The reference draw of any form of the allowed ids is the span
        draw's."""
        model = train(parse_corpus(["0 1 2 3 4 5 6 0 2 4 6 1 3 5"]), order=1, alpha=0.3,
                      vocab_ext=8)
        cfg = SamplerConfig(seed=17, **sampler)
        forms = [
            [5, 1, 6, 3, 0, 4, 2],
            (0, 1, 2, 3, 4, 5, 6),
            range(7),
            np.array([6, 0, 5, 2, 4, 1, 3]),
            np.arange(7, dtype=np.int64),
            np.array([3, 5, 0, 6, 4, 2, 1], dtype=np.int32),
        ]
        rng = np.random.default_rng(cfg.seed)
        want = [sample_constrained(model, model.code([t % 7]), 0, 7, None, rng, cfg)
                for t in range(60)]
        for allowed in forms:
            rng = np.random.default_rng(cfg.seed)
            assert [oracles.sample_constrained(model, [t % 7], allowed, cfg, rng)
                    for t in range(60)] == want

    @pytest.mark.parametrize("empty", [[], (), range(0), np.array([], dtype=np.int64)])
    def test_empty_allowed_set_raises(self, empty):
        model = train(parse_corpus(["0 1 2"]), order=1, alpha=0.1, vocab_ext=3)
        with pytest.raises(ValueError, match="empty"):
            oracles.sample_constrained(model, [0], empty, SamplerConfig())
        for span in [(1, 1, None), (2, 3, 2)]:
            with pytest.raises(ValueError, match="empty"):
                draw(model, [0], span, SamplerConfig())

    @pytest.mark.parametrize("sampler", [dict(), dict(top_k=3), dict(temperature=0.7)])
    def test_reference_draw_is_numpy_choice(self, sampler):
        """Past top_k and temperature, the reference draw is numpy's
        ``choice`` with the same probabilities, and takes as much of the RNG."""
        model = train(parse_corpus(["0 1 2 3 4 5 6 0 2 4 6 1 3 5"]), order=1, alpha=0.3,
                      vocab_ext=8)
        cfg = SamplerConfig(**sampler)
        for t in range(40):
            dist = oracles.next_dist(model, [t % 7])[:7]
            ids = np.sort(np.argsort(-dist, kind="stable")[: cfg.top_k or 7])
            probs = dist[ids]
            if cfg.temperature != 1.0:
                probs = (probs / probs.max()) ** (1 / cfg.temperature)
            ours, numpys = np.random.default_rng(t), np.random.default_rng(t)
            assert oracles.sample_constrained(model, [t % 7], range(7), cfg, ours) == \
                ids[numpys.choice(len(ids), p=probs / probs.sum())]
            assert ours.bit_generator.state == numpys.bit_generator.state

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SamplerConfig(temperature=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(top_k=0)

    # an infinite temperature was written to transcripts as the non-JSON
    # Infinity, and a NaN one failed only at the first draw
    @pytest.mark.parametrize("temperature", [math.inf, math.nan, -math.inf])
    def test_temperature_must_be_finite(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            SamplerConfig(temperature=temperature)


def span_ids(lo, hi, skip):
    """The ids of ``[lo, hi)`` other than ``skip``, built one by one."""
    return np.array([t for t in range(lo, hi) if t != skip], dtype=np.int64)


def agent_spans(units):
    """The spans the agent draws from: the two tags, or the units with or
    without the tags, with or without the channel's last novel unit."""
    last = st.one_of(st.none(), st.just(0), st.just(units - 1), st.integers(0, units - 1))
    return st.one_of(st.just((units, units + 2, None)),
                     st.tuples(st.just(0), st.sampled_from([units, units + 2]), last))


def any_spans(vocab_ext):
    """Any span within the vocabulary, empty and one-id ones included."""
    bounds = st.tuples(st.integers(0, vocab_ext), st.integers(0, vocab_ext)).map(sorted)
    return bounds.flatmap(lambda b: st.tuples(
        st.just(b[0]), st.just(b[1]),
        st.one_of(st.none(), st.integers(b[0], b[1] - 1)) if b[1] > b[0] else st.none()))


def span_models(data, units, order, alpha):
    """A model trained on a drawn corpus over ``units`` units and two tags,
    or an untrained one, and the corpus."""
    vocab_ext = units + 2
    corpus = data.draw(st.lists(st.lists(st.integers(0, vocab_ext - 1), max_size=40),
                                min_size=1, max_size=4))
    if data.draw(st.integers(0, 9)) == 0:
        return NgramModel(order=order, vocab_ext=vocab_ext, alpha=alpha), corpus
    return train(corpus, order=order, alpha=alpha, vocab_ext=vocab_ext), corpus


def contexts(model, corpus):
    """Seen contexts, unseen ones (one ending in the begin marker is never
    seen past order 1) and ones shorter than the order."""
    return st.one_of(st.lists(st.integers(0, model.vocab_ext - 1), max_size=model.order + 3),
                     st.sampled_from(corpus).map(lambda seq: seq[: len(seq) // 2]),
                     st.lists(st.integers(0, model.vocab_ext - 1), min_size=1)
                     .map(lambda seq: seq + [model.bos]))


class TestSeenFilter:
    """``NgramModel._row`` against a dict from each seen context's code to its row."""

    # from 8 to 503 symbols, on corpora that leave contexts unseen; at order 7
    # and 503 symbols codes reach 2**62.9, where one more digit would overflow
    # an int64. (On a few hundred codes of a small dense range the hash sets
    # no slot that an unseen code there finds, so the collisions need these.)
    @pytest.mark.parametrize("units,order,length", [(6, 4, 60), (24, 4, 600), (501, 4, 600),
                                                    (501, 7, 600)])
    def test_row_equals_dict(self, units, order, length):
        gen = np.random.default_rng(units * 10 + order)
        vocab_ext = units + 2
        corpus = [gen.integers(0, vocab_ext, length).tolist() for _ in range(6)]
        model = train(corpus, order=order, alpha=0.1, vocab_ext=vocab_ext)
        oracle = dict(zip(model.codes.tolist(), range(len(model.codes))))
        table, shift = model._filter
        assert len(table) == 1 << (8 * len(oracle) - 1).bit_length()  # 8 slots a row, or more
        # a code's slot in Python's arithmetic, not numpy's
        slot = lambda code: (code * ngram._HASH) % 2**64 >> shift
        assert all(table[slot(code)] for code in oracle) and sum(table) <= len(oracle)
        assert all(model._row(code) == row for code, row in oracle.items())
        top = (vocab_ext + 1) ** order
        probes = range(top) if top <= 10**5 else gen.integers(0, top, 20000).tolist()
        unseen = [code for code in [*probes, 0, top - 1] if code not in oracle]
        assert all(model._row(code) is None for code in unseen)
        # unseen codes whose slot a seen code set, so the search must reject them
        collide = [code for code in unseen if table[slot(code)]]
        assert collide and all(model._row(code) is None for code in collide)
        # contexts of numpy integers give the exact int codes of their lists
        for seq in corpus[:2]:
            ids = np.array([model.bos] * order + seq)
            for i in range(len(seq) + 1):
                ctx = ids[i : i + order]
                code = model.code(ctx)
                assert type(code) is int and code == model.code(ctx.tolist())
                assert model._row(code) == oracle.get(code)

    def test_untrained_model_sees_nothing(self):
        model = NgramModel(order=4, vocab_ext=503)
        assert model._filter == (bytes(8), 61)
        assert model._row(model.code([])) is None and model._row(0) is None


class TestSampleSpan:
    """The span draw, ``sample_constrained``, against the reference draw
    ``oracles.sample_constrained`` on the span's ids, on twin RNGs, under
    any sampler."""

    @staticmethod
    def assert_twins(model, context, span, seed, cfg=SamplerConfig()):
        fused, plain = np.random.default_rng(seed), np.random.default_rng(seed)
        ids = span_ids(*span)
        # the smallest temperature sends every logit of two or more kept ids to
        # -inf, and so the distribution to NaN
        kept = min(len(ids), cfg.top_k or len(ids))
        fault = "empty" if not kept else "not finite" if cfg.temperature == 5e-324 and kept > 1 \
            else None
        if fault is None:
            tok = sample_constrained(model, model.code(context), *span, fused, cfg)
            assert type(tok) is int
            assert tok == oracles.sample_constrained(model, context, ids, cfg, plain)
        else:
            with pytest.raises(ValueError, match=fault):
                sample_constrained(model, model.code(context), *span, fused, cfg)
            with pytest.raises(ValueError, match=fault):
                oracles.sample_constrained(model, context, ids, cfg, plain)
        assert fused.bit_generator.state == plain.bit_generator.state

    @given(
        st.integers(1, 6),
        st.integers(1, 4),
        st.sampled_from([0.001, 0.1, 1.0]),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_sample_constrained(self, units, order, alpha, data):
        model, corpus = span_models(data, units, order, alpha)
        samplers = st.builds(SamplerConfig, temperature=st.sampled_from([1.0, 0.7, 5e-324]),
                             top_k=st.one_of(st.none(), st.integers(1, 4)))
        for _ in range(8):
            span = data.draw(st.one_of(agent_spans(units), any_spans(model.vocab_ext)))
            self.assert_twins(model, data.draw(contexts(model, corpus)), span,
                              data.draw(st.integers(0, 2**32)), data.draw(samplers))

    # 6 units and 2 tags: every named span, after a seen and an unseen context
    @pytest.mark.parametrize("span", [
        (0, 8, 0), (0, 8, 5), (0, 8, None), (0, 6, 0), (0, 6, 5), (0, 6, None), (6, 8, None),
        (3, 4, None), (3, 5, 3), (3, 5, 4), (8, 8, None), (2, 3, 2)],
        ids=["tags_skip_0", "tags_skip_last_unit", "tags_no_skip", "units_skip_0",
             "units_skip_last_unit", "units_no_skip", "tags_only", "one_id", "one_id_skip_lo",
             "one_id_skip_hi", "empty", "empty_by_skip"])
    @pytest.mark.parametrize("context", [[0, 1], [7, 7]], ids=["seen", "unseen"])
    def test_named_spans(self, span, context):
        model = train([[0, 1, 2, 0, 1, 3, 6, 4, 0, 1, 5, 7]], order=2, alpha=0.1, vocab_ext=8)
        assert (context[0] * 9 + context[1] in model.codes) == (context == [0, 1])
        for seed in range(40):
            self.assert_twins(model, context, span, seed)

    @pytest.mark.parametrize("cfg", [SamplerConfig(top_k=5), SamplerConfig(temperature=0.7),
                                     SamplerConfig(top_k=1)],
                             ids=["top_k_5", "temperature_0.7", "greedy"])
    @pytest.mark.parametrize("context", [[0, 1], [7, 7]], ids=["seen", "unseen"])
    def test_every_sampler_builds_a_row_once(self, cfg, context, monkeypatch):
        """Repeated draws at one context and span build its row once under
        any sampler, and draw what the reference draw draws; a plain draw
        there keeps an entry of its own."""
        model = train([[0, 1, 2, 0, 1, 3, 6, 4, 0, 1, 5, 7]], order=2, alpha=0.1, vocab_ext=8)
        built = []
        dist = NgramModel._dist
        monkeypatch.setattr(NgramModel, "_dist",
                            lambda self, *args: built.append(args) or dist(self, *args))
        for seed in range(20):
            self.assert_twins(model, context, (0, 8, 5), seed, cfg)
        assert len(built) == 1
        self.assert_twins(model, context, (0, 8, 5), 20)
        assert len(built) == 2 and len(model._cdfs) == 2

    @pytest.mark.parametrize("cfg", [SamplerConfig(), SamplerConfig(top_k=5, temperature=0.7)],
                             ids=["plain", "top_k_5_temperature_0.7"])
    def test_cached_seen_draw_searches_no_row(self, cfg, monkeypatch):
        """A seen context's cdf is keyed by its code, so a second draw at one
        code and span finds its cdf without a row search; both draws draw
        what the reference draw draws."""
        model = train([[0, 1, 2, 0, 1, 3, 6, 4, 0, 1, 5, 7]], order=2, alpha=0.1, vocab_ext=8)
        assert model._row(model.code([0, 1])) is not None
        searched = []
        row = NgramModel._row
        monkeypatch.setattr(NgramModel, "_row",
                            lambda self, code: searched.append(code) or row(self, code))
        self.assert_twins(model, [0, 1], (0, 8, 5), 1, cfg)
        assert searched == [model.code([0, 1])]
        self.assert_twins(model, [0, 1], (0, 8, 5), 2, cfg)
        assert searched == [model.code([0, 1])]

    def test_filter_false_positive_keeps_the_width_key(self):
        """An unseen context whose filter byte a seen code set has the width
        key of every unseen context, and draws what the reference draws."""
        gen = np.random.default_rng(24)
        corpus = [gen.integers(0, 26, 600).tolist() for _ in range(6)]
        model = train(corpus, order=4, alpha=0.1, vocab_ext=26)
        table, shift = model._filter
        seen = set(model.codes.tolist())
        # a code's four tokens, its base-27 digits; 26 is the begin marker
        digits = lambda code: [code // 27**k % 27 for k in (3, 2, 1, 0)]
        code = next(code for code in range(27**4) if max(digits(code)) < 26
                    and code not in seen and table[(code * ngram._HASH) % 2**64 >> shift])
        ctx = digits(code)
        assert model.code(ctx) == code and model._row(code) is None
        for seed in range(5):
            self.assert_twins(model, ctx, (0, 26, 3), seed)
            assert list(model._cdfs) == [(25, 1.0, None)]

    def test_draws_on_cdf_entries(self):
        """Each u is an entry of the draw's own cdf, as the reference draw
        builds it, or the float below one, so an entry a bit off moves a draw:
        at every width from 2 to vocab_ext, after an unseen and a seen
        context, with the model's cached cdfs cold (cleared before each draw)
        and warm (filled by an unseen span of the same width, and for a seen
        context by the span's own first draw)."""
        gen = np.random.default_rng(7)
        units = 40
        corpus = [gen.integers(0, units + 2, 400).tolist() for _ in range(4)]
        model = train(corpus, order=2, alpha=0.01, vocab_ext=units + 2)
        unseen, seen = [0, model.bos], corpus[0][:50]
        assert model._row(model.code(unseen)) is None and model._row(model.code(seen)) is not None
        def spans(width):
            while True:
                skip = width < model.vocab_ext and gen.integers(2) == 1
                lo = int(gen.integers(0, model.vocab_ext - width - skip + 1))
                yield (lo, lo + width + skip,
                       int(gen.integers(lo, lo + width + 1)) if skip else None)

        for width in range(2, model.vocab_ext + 1):
            some = spans(width)
            for ctx in (unseen, seen):
                for cold in (True, False):
                    model._cdfs.clear()
                    if not cold:
                        sample_constrained(model, model.code(unseen), *next(some),
                                           FixedDraws([0.5]))
                    span = next(some)
                    ids = span_ids(*span)
                    cdf = oracles.next_dist(model, ctx)[ids]
                    cdf = (cdf / cdf.sum()).cumsum()
                    cdf /= cdf[-1]
                    for u in np.concatenate((cdf[:-1], np.nextafter(cdf[:-1], 0))).tolist():
                        if cold:
                            model._cdfs.clear()
                        assert sample_constrained(model, model.code(ctx), *span,
                                                  FixedDraws([u])) == \
                            oracles.sample_constrained(model, ctx, ids, SamplerConfig(),
                                                       FixedDraws([u]))
                    # an unseen context's key is the width, a seen one's (code, lo, hi, skip),
                    # each followed by the sampler's temperature and top_k
                    wide = (width, 1.0, None)
                    key = wide if ctx is unseen else (model.code(ctx), *span, 1.0, None)
                    assert list(model._cdfs) == ([key] if cold or key == wide else [wide, key])

    # two untrained models whose unseen rows differ by a few ulps at this width
    @pytest.mark.parametrize("first, second, width", [((503, 0.1), (503, 0.7), 6),
                                                      ((42, 0.1), (43, 0.1), 10)],
                             ids=["alpha", "vocab_ext"])
    def test_models_share_no_cached_cdf(self, first, second, width):
        models = [NgramModel(order=1, vocab_ext=v, alpha=a) for v, a in (first, second)]
        cdfs = []
        for m in models:
            row = oracles.next_dist(m, [])[:width]
            cdf = (row / row.sum()).cumsum()
            cdfs.append(cdf / cdf[-1])
        for drawn, other in ((0, 1), (1, 0)):
            for m in models:
                m._cdfs.clear()
            sample_constrained(models[drawn], models[drawn].code([]), 0, width, None,
                               FixedDraws([0.5]))
            us = np.concatenate((cdfs[other][:-1], np.nextafter(cdfs[other][:-1], 0)))
            # a draw that the other model's cdf would move
            assert (cdfs[0].searchsorted(us, "right") != cdfs[1].searchsorted(us, "right")).any()
            for u in us.tolist():
                assert sample_constrained(models[other], models[other].code([]), 0, width,
                                          None, FixedDraws([u])) == \
                    oracles.sample_constrained(models[other], [], range(width), SamplerConfig(),
                                               FixedDraws([u]))
            key = (width, 1.0, None)
            assert models[0]._cdfs[key][0] is not models[1]._cdfs[key][0]

    # a span of numpy ints draws an int, as a prompt of numpy ints gives the agent one
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("context", [[0, 1], [7, 7]], ids=["seen", "unseen"])
    def test_numpy_int_spans(self, dtype, context):
        model = train([[0, 1, 2, 0, 1, 3, 6, 4, 0, 1, 5, 7]], order=2, alpha=0.1, vocab_ext=8)
        for span in [(0, 8, 5), (0, 8, None), (0, 6, 0), (6, 8, None), (3, 5, 3)]:
            for seed in range(10):
                self.assert_twins(model, context, tuple(None if v is None else dtype(v)
                                                        for v in span), seed)

    def test_cache_stops_at_its_budget(self):
        """At 2**18 symbols the budget of 2**20 floats holds four cdfs: later
        draws, of new widths and new seen spans, keep none and still draw
        what the reference draw draws."""
        model = train([[0, 1, 2, 3] * 3], order=1, alpha=0.1, vocab_ext=2**18)
        assert model._row(model.code([1])) is not None and model._row(model.code([9])) is None
        full = ngram._CDF_FLOATS // model.vocab_ext
        assert full == 4
        for width in range(2, 14):
            for ctx in ([1], [9]):
                self.assert_twins(model, ctx, (0, width, None), width)
            # the seen draws (code, 0, width, None, 1.0, None), code 1 being
            # context [1]'s, and the unseen ones (width, 1.0, None)
            assert len(model._cdfs) == min(2 * (width - 1), full)
        assert list(model._cdfs) == [(1, 0, 2, None, 1.0, None), (2, 1.0, None),
                                     (1, 0, 3, None, 1.0, None), (3, 1.0, None)]
        assert sum(len(cdf) for cdf, _ in model._cdfs.values()) == 10

    # 4 units and 2 tags; seen and unseen after order-1 training on [0, 5)
    @pytest.mark.parametrize("span", [(0, 5, 7), (0, 9, None), (0, 7, 3), (-1, 3, None),
                                      (2, 5, 1), (0, 5, 5)],
                             ids=["skip_past_hi", "hi_past_vocab", "hi_past_vocab_skip",
                                  "lo_below_0", "skip_below_lo", "skip_at_hi"])
    @pytest.mark.parametrize("context", [[3], [5]], ids=["seen", "unseen"])
    def test_rejects_span_outside_model(self, span, context):
        model = train([[0, 1, 2, 3, 4] * 2], order=1, alpha=0.1, vocab_ext=6)
        assert (context[0] in model.codes) == (context == [3])
        with pytest.raises(ValueError, match="is not"):
            sample_constrained(model, model.code(context), *span, np.random.default_rng(0))


class FixedDraws:
    """Stands in for a Generator whose ``random()`` returns ``values`` in turn."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self):
        model = NgramModel(order=1, vocab_ext=11, alpha=1.0)
        assert perplexity(model, [0, 1, 2, 3]) == pytest.approx(11.0, abs=1e-9)

    def test_probability_one_gives_one(self):
        model = train(parse_corpus(["2 2 2 2 2 2"]), order=1, alpha=1e-12, vocab_ext=4)
        assert perplexity(model, [2, 2, 2, 2]) == pytest.approx(1.0, abs=1e-8)

    def test_twenty_token_sequence_matches_bruteforce(self):
        corpus = [[0, 1, 2, 0, 1, 2, 3, 3, 0, 1], [1, 1, 2, 2, 0, 3]]
        model = train(corpus, order=2, alpha=0.2, vocab_ext=4)
        seq = [0, 1, 2, 3, 0, 1, 1, 2, 2, 0, 3, 3, 2, 1, 0, 0, 1, 2, 3, 0]
        expected = oracles.sequence_perplexity(corpus, 2, 0.2, 4, seq)
        assert perplexity(model, seq) == pytest.approx(expected, abs=1e-9)

    def test_negative_skip_raises(self):
        model = train(parse_corpus(["0 1 2"]), order=2, alpha=0.1, vocab_ext=3)
        with pytest.raises(ValueError):
            model.sequence_nll([0, 1, 2], skip=-1)

    # in base vocab_ext + 1 the window (0, 5) would pack to the code of (1, 0)
    @pytest.mark.parametrize("bad", [-1, 5])
    def test_id_outside_range_raises(self, bad):
        model = train([[1, 0, 1, 0]], order=2, alpha=0.1, vocab_ext=4)
        with pytest.raises(ValueError, match="outside"):
            model.sequence_nll([0, bad, 2])

    def test_empty_sequence_raises(self):
        model = NgramModel(order=1, vocab_ext=4)
        with pytest.raises(EmptySequence):
            perplexity(model, [])

    def test_heldout_lower_than_disjoint_alphabet(self):
        rng = np.random.default_rng(0)
        def chain(units, n):
            seq = [int(rng.choice(units))]
            for _ in range(n - 1):
                seq.append(int(rng.choice(units)) if rng.random() < 0.4 else seq[-1])
            return seq
        train_seqs = [chain([0, 1, 2, 3], 80) for _ in range(30)]
        heldout = [chain([0, 1, 2, 3], 80) for _ in range(10)]
        disjoint = [chain([4, 5, 6, 7], 80) for _ in range(10)]
        model = train(train_seqs, order=2, alpha=0.1, vocab_ext=8)
        assert (max(perplexity(model, s) for s in heldout)
                < min(perplexity(model, s) for s in disjoint))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        corpus = [list(rng.integers(0, 6, size=40)) for _ in range(8)]
        model = train(corpus, order=3, alpha=0.15, vocab_ext=6)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = NgramModel.load(path)
        for _ in range(100):
            ctx = list(rng.integers(0, 6, size=int(rng.integers(0, 5))))
            assert np.max(np.abs(oracles.next_dist(model, ctx)
                                 - oracles.next_dist(loaded, ctx))) < 1e-12

    def test_save_is_deterministic(self, tmp_path):
        corpus = [[0, 1, 2, 0, 1], [2, 2, 1]]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        train(corpus, order=2, alpha=0.1, vocab_ext=3).save(a)
        train(corpus, order=2, alpha=0.1, vocab_ext=3).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_untrained_model_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        NgramModel(order=3, vocab_ext=5, alpha=0.5).save(path)
        loaded = NgramModel.load(path)
        assert (loaded.order, loaded.vocab_ext, loaded.alpha) == (3, 5, 0.5)
        for name in ("codes", "tokens", "freqs", "row_totals"):
            assert getattr(loaded, name).shape == (0,), name
        assert loaded.offsets.tolist() == [0]
        assert loaded.totals == {}

    def test_non_object_file_fails_loudly(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(ModelFormatError):
            NgramModel.load(path)

    def test_version_mismatch_fails_loudly(self, tmp_path):
        path = tmp_path / "model.json"
        payload = {"version": 99, "order": 1, "alpha": 0.1, "vocab_ext": 4, "counts": {}}
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError):
            NgramModel.load(path)
