#!/usr/bin/env python3
"""Latency sweep experiment: interaction quality vs chunk size.

Trains one model per chunk size on the same synthetic corpus, runs
two-model interactions at one-chunk latency over a fixed prompt batch,
and scores the generated dialogues with one reference model trained on
held-out data flattened at every chunk size under test. Each replication
reruns the whole batch with fresh sampler seeds. Writes a CSV with one
row per (chunk size, replication) and prints a summary.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from duplexsim import (
    DedupDialogue,
    DialogueStyle,
    InteractionConfig,
    SamplerConfig,
    Vocab,
    corpus_io,
    encode,
    generate_corpus,
    parse,
    simulate_interaction,
    train,
)
from duplexsim.metrics import per_dialogue_perplexities

CHUNK_SIZES = (160, 200, 240)


def sweep_style(vocab: Vocab) -> DialogueStyle:
    return DialogueStyle(
        vocab=vocab,
        ipu_ms=(1600.0, 400.0),
        pause_ms=(520.0, 120.0),
        fto_ms=(240.0, 120.0),
        turn_continue_prob=0.35,
        backchannel_prob=0.15,
        backchannel_ms=(280.0, 80.0),
        p_self=0.45,
        successor_count=3,
    )


def encode_corpus(corpus, chunk_ms, vocab) -> list:
    """Every dialogue of a corpus in wire format at one chunk size, as the
    int64 arrays of ``encode``."""
    return [encode(s0, s1, chunk_ms, vocab)[0] for s0, s1 in corpus.values()]


def run_sweep(
    n_units: int = 24,
    train_dialogues: int = 120,
    heldout_dialogues: int = 32,
    dialogue_ms: int = 24000,
    prompt_ms: int = 4800,
    total_ms: int = 19200,
    order: int = 4,
    gen_alpha: float = 0.001,
    ref_alpha: float = 0.1,
    replications: int = 20,
    seed: int = 0,
    chunk_sizes=CHUNK_SIZES,
    latency_chunks: int = 1,
):
    vocab = Vocab(size=n_units, frame_ms=40, silence_tokens=frozenset({0}))
    style = sweep_style(vocab)
    train_corpus = generate_corpus(style, train_dialogues, dialogue_ms, seed=seed + 1)
    heldout = generate_corpus(style, heldout_dialogues, dialogue_ms, seed=seed + 2)

    models = {
        c: train(encode_corpus(train_corpus, c, vocab),
                 order=order, alpha=gen_alpha, vocab_ext=vocab.extended_size)
        for c in chunk_sizes
    }
    heldout_encoded = {c: encode_corpus(heldout, c, vocab) for c in chunk_sizes}
    reference = train([w for c in chunk_sizes for w in heldout_encoded[c]],
                      order=order, alpha=ref_alpha, vocab_ext=vocab.extended_size)
    prompts = {c: [DedupDialogue(vocab, c, parse(w.tolist(), vocab, c).chunks[: prompt_ms // c])
                   for w in heldout_encoded[c]] for c in chunk_sizes}

    rows = []
    for rep in range(replications):
        for c in chunk_sizes:
            prompt_chunks = prompt_ms // c
            generated = []
            for k, prompt in enumerate(prompts[c]):
                cfg = InteractionConfig(
                    latency_chunks=latency_chunks,
                    max_chunks=total_ms // c,
                    sampler=SamplerConfig(seed=seed + 1000 * rep + k),
                )
                transcript = simulate_interaction(models[c], models[c], cfg, prompt)
                generated.append(transcript.dialogue)
            ppls = per_dialogue_perplexities(reference, generated,
                                             prompt_chunks=prompt_chunks)
            rows.append({
                "replication": rep,
                "chunk_ms": c,
                "latency_chunks": latency_chunks,
                "median_ppl": statistics.median(ppls),
            })
    return rows


def _ppl(rows, rep, chunk):
    return next(
        r["median_ppl"] for r in rows
        if r["replication"] == rep and r["chunk_ms"] == chunk
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--replications", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("latency_sweep.csv"))
    args = ap.parse_args(argv)

    rows = run_sweep(replications=args.replications, seed=args.seed)
    corpus_io.write_csv(args.out, ["replication", "chunk_ms", "latency_chunks", "median_ppl"],
                        rows)

    by_chunk = {}
    for row in rows:
        by_chunk.setdefault(row["chunk_ms"], []).append(row["median_ppl"])
    print("median ppl by chunk size (mean over replications):")
    for c, vals in sorted(by_chunk.items()):
        print(f"  {c:>4} ms: {statistics.mean(vals):8.3f}")
    reps = max(r["replication"] for r in rows) + 1
    nondecr = sum(1 for rep in range(reps) if _ppl(rows, rep, 240) >= _ppl(rows, rep, 160))
    print(f"non-decreasing 160 -> 240 in {nondecr}/{reps} replications")
    return 0


if __name__ == "__main__":
    sys.exit(main())
