"""Acceptance checklist.

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
from contextlib import contextmanager

import numpy as np
import pytest

from duplexsim import (
    DedupDialogue,
    DialogueStyle,
    InteractionConfig,
    SamplerConfig,
    Vocab,
    chunk_streams,
    chunk_wire,
    continue_dialogue,
    correlation_report,
    corpus_stats,
    deduplicate,
    encode,
    flatten,
    generate_corpus,
    interpolate,
    parse,
    simulate_interaction,
    train,
)
from duplexsim.metrics import dialogue_events, vad, turn_events
from duplexsim.cli import main as cli_main

import oracles
from latency_sweep import run_sweep


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL  {desc}", flush=True)
        raise
    print(f"ACCEPTANCE {num:>2} PASS  {desc}", flush=True)


VOCAB = Vocab(size=501, frame_ms=40, silence_tokens=frozenset({0}))


def test_criterion_01_chunk_arithmetic():
    with criterion(1, "chunk arithmetic: 240 ms -> 6 frames, 160 ms -> 4"):
        assert VOCAB.frames_per_chunk(240) == 6
        assert VOCAB.frames_per_chunk(160) == 4


def test_criterion_02_worked_example_reproduction():
    with criterion(2, "worked example: dedup wire forms and interpolation"):
        s0 = (75, 75, 75, 75, 17, 17, 338, 338, 338, 338, 338, 338)
        s1 = (89,) * 12
        chunked = chunk_streams(s0, s1, 160, VOCAB)
        wire, starts = encode(s0, s1, 160, VOCAB)
        dd = parse(wire.tolist(), VOCAB, 160)
        assert dd == oracles.deduplicate(chunked)
        assert starts.tolist() == [0, 4, 7]
        assert chunk_wire(VOCAB, dd.chunks[0]) == [VOCAB.tag_s0, 75, VOCAB.tag_s1, 89]
        assert chunk_wire(VOCAB, dd.chunks[1]) == [VOCAB.tag_s0, 17, 338]
        assert chunk_wire(VOCAB, dd.chunks[2]) == [VOCAB.tag_s0]
        rec = interpolate(dd)
        assert rec.chunks[0][0] == (75, 75, 75, 75)  # one token repeated thrice
        assert rec.chunks[1][0] == (17, 17, 338, 338)
        assert rec.chunks[2][0] == (338, 338, 338, 338)
        assert rec.channel(1) == (89,) * 12


def test_criterion_03_codec_round_trip_10k():
    with criterion(3, "codec round trip on 10,000 random dialogues"):
        rng = np.random.default_rng(33)
        for _ in range(10_000):
            size = int(rng.integers(3, 40))
            chunk_ms = int(rng.choice([160, 200, 240]))
            v = Vocab(size=size, frame_ms=40, silence_tokens=frozenset({0}))
            n = int(rng.integers(0, 5)) * (chunk_ms // 40)
            t0 = tuple(int(x) for x in rng.integers(0, size, n))
            t1 = tuple(int(x) for x in rng.integers(0, size, n))
            d = chunk_streams(t0, t1, chunk_ms, v)
            dd = oracles.deduplicate(d)
            wire, _ = encode(t0, t1, chunk_ms, v)
            assert wire.tolist() == flatten(dd)
            assert parse(wire.tolist(), v, chunk_ms) == dd
            rec = interpolate(dd)
            for c in (0, 1):
                orig, recon = d.channel(c), rec.channel(c)
                assert len(orig) == len(recon)
                on_a = [i for i, t in enumerate(orig) if i == 0 or t != orig[i - 1]]
                on_b = [i for i, t in enumerate(recon) if i == 0 or t != recon[i - 1]]
                assert len(on_a) == len(on_b)
                assert all(abs(a - b) * 40 < chunk_ms for a, b in zip(on_a, on_b))
            assert deduplicate(rec).chunks == dd.chunks


def test_criterion_04_compression_band():
    with criterion(4, "dedup rate in [0.3, 0.7] x raw rate on realistic synth corpus"):
        style = DialogueStyle(vocab=VOCAB)  # default silence/self-loop rates
        corpus = generate_corpus(style, 20, 30000, seed=5)
        for chunk_ms in (160, 240):
            stats = corpus_stats([(s0, s1, deduplicate(chunk_streams(
                s0, s1, chunk_ms, VOCAB))) for s0, s1 in corpus.values()])
            assert 0.3 <= stats.compression_ratio <= 0.7, (chunk_ms, stats.compression_ratio)


def _small_setup(seed=100, n_units=10):
    vocab = Vocab(size=n_units, frame_ms=40, silence_tokens=frozenset({0}))
    style = DialogueStyle(
        vocab=vocab, ipu_ms=(800, 200), pause_ms=(400, 100), fto_ms=(240, 80),
        turn_continue_prob=0.3, backchannel_prob=0.1, backchannel_ms=(160, 40),
        p_self=0.45,
    )
    corpus = generate_corpus(style, 16, 16000, seed=seed)
    seqs = [flatten(deduplicate(chunk_streams(s0, s1, 160, vocab)))
            for s0, s1 in corpus.values()]
    model = train(seqs, order=3, alpha=0.1, vocab_ext=vocab.extended_size)
    return vocab, style, model


def test_criterion_05_zero_latency_equivalence():
    with criterion(5, "latency 0 + scripted user == teacher-forced continuation (100 cases)"):
        vocab, style, model = _small_setup()
        p, n = 2, 10
        for case in range(100):
            s0, s1 = __import__("duplexsim").generate_dialogue(style, 16000, [9, case])
            script = deduplicate(chunk_streams(s0, s1, 160, vocab))
            prompt = DedupDialogue(vocab, 160, script.chunks[:p])
            sampler = SamplerConfig(top_k=1, seed=case)
            cfg = InteractionConfig(latency_chunks=0,
                                    max_chunks=p + n, sampler=sampler)
            transcript = simulate_interaction(model, script, cfg, prompt=prompt)
            forced = [list(c.s1_novel) for c in script.chunks[p : p + n]]
            teacher = continue_dialogue(model, prompt, n, sampler, forced_user=forced)
            assert [c.s0_novel for c in transcript.dialogue.chunks] == \
                   [c.s0_novel for c in teacher.chunks]


def test_criterion_06_estimate_replace_protocol():
    with criterion(6, "latency 1: step N+2 context holds actual user chunk N, not estimate"):
        vocab, style, model = _small_setup()
        nontrivial = 0
        for seed in range(10):
            s0, s1 = __import__("duplexsim").generate_dialogue(style, 16000, [21, seed])
            script = deduplicate(chunk_streams(s0, s1, 160, vocab))
            prompt = DedupDialogue(vocab, 160, script.chunks[:2])
            cfg = InteractionConfig(latency_chunks=1, max_chunks=16,
                                    sampler=SamplerConfig(seed=seed))
            for source in (script, model):
                tr = simulate_interaction(model, source, cfg, prompt)
                steps = {s.index: s for s in tr.steps}
                for t, step in steps.items():
                    ctx_chunks = parse(step.context_snapshot, vocab, 160).chunks
                    assert len(ctx_chunks) == t
                    assert step.context_snapshot_len == len(step.context_snapshot)
                    for j, chunk in enumerate(ctx_chunks):
                        if j < tr.prompt_chunks:
                            continue
                        s1_ctx = list(chunk.s1_novel)
                        if j == t - 1:
                            assert s1_ctx == steps[j].estimate_history[-1]
                        else:
                            # N = j is used at steps t >= j+2: actual, not estimate
                            assert s1_ctx == steps[j].user_actual
                            est = steps[j].user_estimated
                            if est is not None and est != steps[j].user_actual:
                                nontrivial += 1
        assert nontrivial > 0


# sha256 of criterion 7's 40 medians as comma-joined ``float.hex()``, in
# (replication, chunk size) order. A faster engine must keep them bit for bit.
LATENCY_TREND_DIGEST = "7fdf02ba03e0234a2f57537db3c3488c74f054bd0680de68a24babcdf1a4dfeb"


def test_criterion_07_latency_degradation_trend():
    with criterion(7, "median ppl non-decreasing 160 -> 240 ms in >= 70% of 20 replications"):
        reps = 20
        rows = run_sweep(n_units=24, train_dialogues=120, heldout_dialogues=32,
                         dialogue_ms=24000, prompt_ms=4800, total_ms=19200, order=4,
                         gen_alpha=0.001, ref_alpha=0.1, replications=reps, seed=0,
                         chunk_sizes=(160, 240), latency_chunks=1)
        medians = [r["median_ppl"] for r in rows]
        wins = sum(m240 >= m160 for m160, m240 in zip(medians[::2], medians[1::2]))
        print(f"  (latency trend: non-decreasing in {wins}/{reps} replications)")
        assert wins >= 0.7 * reps
        blob = ",".join(m.hex() for m in medians).encode()
        assert hashlib.sha256(blob).hexdigest() == LATENCY_TREND_DIGEST


def test_criterion_08_event_oracle_equivalence():
    with criterion(8, "turn_events matches frame-state oracle on 1,000 instances"):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(20, 120))
            segs = []
            for c in (0, 1):
                arr = rng.random(n) < 0.45
                segs.append(vad(tuple(3 if x else 0 for x in arr), c, VOCAB))
            if sum(len(s) for s in segs) > 50:
                continue
            checked += 1
            got = set()
            for e in turn_events(segs[0], segs[1], 200, True):
                key = e.transition if e.kind == "fto" else e.channel
                got.add((e.kind, key, e.start_ms, e.end_ms))
            assert got == oracles.frame_state_events(segs[0], segs[1], 40, 200, True)


def test_criterion_09_correlation_pipeline():
    with criterion(9, "correlations: self r=1, scale-invariance r=1, null |r|<0.2"):
        tiny = Vocab(size=24, frame_ms=40, silence_tokens=frozenset({0}))
        # self-correlation
        style = DialogueStyle(vocab=tiny, backchannel_prob=0.0)
        corpus = generate_corpus(style, 30, 30000, seed=50)
        rep = correlation_report(corpus, corpus, tiny)
        for kind, kc in rep.kinds.items():
            assert kc.r == pytest.approx(1.0), kind

        # scale invariance: frame-doubled streams double every duration
        safe = DialogueStyle(vocab=tiny, ipu_ms=(1800, 400), pause_ms=(800, 100),
                             fto_ms=(400, 80), backchannel_prob=0.0)
        base = generate_corpus(safe, 25, 24000, seed=51)
        doubled = {}
        for did, (s0, s1) in base.items():
            doubled[did] = (
                tuple(t for t in s0 for _ in range(2)),
                tuple(t for t in s1 for _ in range(2)),
            )
        rep = correlation_report(doubled, base, tiny)
        for kind, kc in rep.kinds.items():
            assert kc.r == pytest.approx(1.0), kind
        assert rep.average_r == pytest.approx(1.0)

        # independent corpora: null correlation over 200 dialogues
        null_style = DialogueStyle(vocab=tiny, backchannel_prob=0.0)
        ca = generate_corpus(null_style, 200, 30000, seed=111)
        cb = generate_corpus(null_style, 200, 30000, seed=222)
        rep = correlation_report(ca, cb, tiny)
        for kind, kc in rep.kinds.items():
            assert kc.r is not None and abs(kc.r) < 0.2, (kind, kc.r)


def test_criterion_10_style_recovery():
    with criterion(10, "measured IPU/pause/FTO means within 3 SE of style means"):
        style = DialogueStyle(vocab=VOCAB, ipu_ms=(2000, 500), pause_ms=(600, 150),
                              fto_ms=(250, 120), turn_continue_prob=0.35,
                              backchannel_prob=0.0, p_self=0.35)
        corpus = generate_corpus(style, 200, 60000, seed=2026)
        durs = {"ipu": [], "pause": [], "fto": []}
        for s0, s1 in corpus.values():
            total = len(s0) * VOCAB.frame_ms
            for ev in dialogue_events(s0, s1, VOCAB):
                if ev.kind == "ipu" and ev.end_ms >= total:
                    continue  # truncated by the dialogue boundary
                durs[ev.kind].append(float(ev.duration_ms))
        for kind, target in (("ipu", 2000.0), ("pause", 600.0), ("fto", 250.0)):
            v = np.asarray(durs[kind])
            se = v.std() / np.sqrt(len(v))
            assert abs(v.mean() - target) < 3 * se, (kind, v.mean(), 3 * se)


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "every CLI subcommand byte-reproducible under fixed seeds"):
        style = DialogueStyle(
            vocab=Vocab(size=10, frame_ms=40, silence_tokens=frozenset({0})),
            ipu_ms=(800, 200), pause_ms=(400, 100), fto_ms=(240, 80),
            turn_continue_prob=0.3, backchannel_prob=0.1, backchannel_ms=(160, 40),
            p_self=0.45,
        )
        style_path = tmp_path / "style.json"
        style.to_file(style_path)

        def run_all(tag: str) -> dict[str, bytes]:
            d = tmp_path / tag
            d.mkdir()
            corpus = d / "corpus.jsonl"
            model = d / "model.json"
            gen = d / "gen.jsonl"
            gen_tr = d / "gen_tr.json"
            inter = d / "interact.json"
            ev_t = d / "ev_turns"
            ev_p = d / "ev_ppl"
            report = d / "report.csv"
            assert cli_main(["synth", "--style", str(style_path), "--count", "5",
                             "--duration-ms", "8000", "--seed", "3",
                             "--out", str(corpus)]) == 0
            assert cli_main(["train", "--corpus", str(corpus), "--order", "3",
                             "--alpha", "0.1", "--chunk-ms", "160",
                             "--out", str(model)]) == 0
            assert cli_main(["continue", "--model", str(model), "--prompts", str(corpus),
                             "--prompt-ms", "1600", "--continue-ms", "3200",
                             "--seed", "4", "--out", str(gen),
                             "--transcript", str(gen_tr)]) == 0
            assert cli_main(["interact", "--model-a", str(model), "--scripted",
                             str(corpus), "--latency", "1", "--max-chunks", "20",
                             "--seed", "5", "--out", str(inter)]) == 0
            assert cli_main(["eval", "--mode", "turns", "--generated", str(gen),
                             "--reference", str(corpus), "--skip-ms", "1600",
                             "--out", str(ev_t)]) == 0
            assert cli_main(["eval", "--mode", "ppl", "--generated", str(gen),
                             "--model", str(model), "--prompt-ms", "1600",
                             "--out", str(ev_p)]) == 0
            assert cli_main(["report", "--inputs", str(ev_t.with_suffix(".json")),
                             str(ev_p.with_suffix(".json")), "--out", str(report)]) == 0
            return {
                p.name: p.read_bytes()
                for p in sorted(d.iterdir())
                if p.suffix in (".jsonl", ".json", ".csv")
            }

        first = run_all("run1")
        second = run_all("run2")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name
