#!/usr/bin/env python3
"""Tokens-per-second with and without deduplication on a synthetic corpus.

Prints a small text histogram of per-dialogue deduplicated token rates and
the corpus-level compression ratio against the raw interleaved form, for
each chunk size.
"""

from __future__ import annotations

import argparse
import sys

from duplexsim import DialogueStyle, Vocab, corpus_stats, generate_corpus

BAR = "#"
FRAME_MS = 40


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
    if args.count < 1:
        ap.error(f"--count must be >= 1, got {args.count}")
    if args.duration_ms <= 0 or args.duration_ms % FRAME_MS:
        ap.error(f"--duration-ms must be a positive multiple of {FRAME_MS}, "
                 f"got {args.duration_ms}")
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")
    try:  # a style needs a unit besides silence, and numpy's int64 draws
        style = DialogueStyle(vocab=Vocab(size=args.units, frame_ms=FRAME_MS,
                                          silence_tokens=frozenset({0})))
    except ValueError as exc:
        ap.error(f"--units {args.units}: {exc}")

    vocab = style.vocab
    corpus = generate_corpus(style, args.count, args.duration_ms, seed=args.seed)

    for chunk_ms in (160, 200, 240):
        stats = corpus_stats(list(corpus.values()), vocab, chunk_ms)
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
