#!/usr/bin/env python3
"""Tokens-per-second with and without deduplication on a synthetic corpus.

Prints a small text histogram of per-dialogue deduplicated token rates and
the corpus-level compression ratio against the raw interleaved form, for
each chunk size.
"""

from __future__ import annotations

import argparse
import sys

from duplexsim import (
    DialogueStyle,
    Vocab,
    corpus_stats,
    encode,
    generate_corpus,
    parse,
)

BAR = "#"


def histogram(values, bins=10, width=40):
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    counts = [0] * bins
    for v in values:
        idx = min(int((v - lo) / (hi - lo) * bins), bins - 1)
        counts[idx] += 1
    peak = max(counts)
    lines = []
    for i, c in enumerate(counts):
        a = lo + (hi - lo) * i / bins
        b = lo + (hi - lo) * (i + 1) / bins
        lines.append(f"  {a:6.1f}-{b:6.1f} tok/s |{BAR * int(width * c / peak):<{width}} {c}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--duration-ms", type=int, default=30000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--units", type=int, default=501)
    args = ap.parse_args(argv)

    vocab = Vocab(size=args.units, frame_ms=40, silence_tokens=frozenset({0}))
    style = DialogueStyle(vocab=vocab)
    corpus = generate_corpus(style, args.count, args.duration_ms, seed=args.seed)

    for chunk_ms in (160, 200, 240):
        encoded = [(s0, s1, parse(encode(s0, s1, chunk_ms, vocab)[0].tolist(), vocab, chunk_ms))
                   for s0, s1 in corpus.values()]
        stats = corpus_stats(encoded)
        print(f"chunk {chunk_ms} ms:")
        print(f"  raw interleaved rate : {stats.raw_tokens_per_s:7.1f} tok/s")
        print(f"  deduplicated rate    : {stats.dedup_tokens_per_s:7.1f} tok/s")
        print(f"  compression ratio    : {stats.compression_ratio:7.3f}")
        print("  per-dialogue deduplicated rates:")
        print(histogram(stats.dedup_rates_per_dialogue))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
