"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's code paths: deduplication frame by
frame, counting by scanning, event extraction by frame-state enumeration,
correlation by the raw-sum formula.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from duplexsim.tokens import ChunkedDialogue, DedupChunk, DedupDialogue


def deduplicate(d: ChunkedDialogue) -> DedupDialogue:
    """Run-length reduction of both channels, one frame at a time.

    A frame is novel iff it differs from the preceding frame of its channel;
    frame 0 always is. Each novel lands in the chunk of its frame, so the
    run-length state carries across chunk boundaries.
    """
    prev: list[int | None] = [None, None]
    out: list[DedupChunk] = []
    for f0, f1 in d.chunks:
        novels: list[list[int]] = [[], []]
        for c, frames in ((0, f0), (1, f1)):
            for tok in frames:
                if tok != prev[c]:
                    novels[c].append(tok)
                    prev[c] = tok
        out.append(DedupChunk(s0_novel=tuple(novels[0]), s1_novel=tuple(novels[1])))
    return DedupDialogue(vocab=d.vocab, chunk_ms=d.chunk_ms, chunks=tuple(out))


def ngram_counts(corpus, order, vocab_ext) -> dict[tuple[int, ...], dict[int, int]]:
    """``{context: {token: count}}`` by counting every ``order + 1``-token
    window as a tuple, left-padded with the begin marker ``vocab_ext``."""
    windows: Counter[tuple[int, ...]] = Counter()
    for seq in corpus:
        padded = [vocab_ext] * order + list(seq)
        windows.update(zip(*[padded[i:] for i in range(order + 1)]))
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for window, c in windows.items():
        counts.setdefault(window[:-1], {})[window[-1]] = c
    return counts


def ngram_nll(counts, order, alpha, vocab_ext, sequence, skip=0) -> float:
    """Summed -log P of ``sequence[skip:]`` under ``ngram_counts`` output,
    one window at a time in sequence order."""
    padded = [vocab_ext] * order + list(sequence)
    nll = 0.0
    for i in range(skip, len(sequence)):
        row = counts.get(tuple(padded[i : i + order]), {})
        c, total = row.get(padded[i + order], 0), sum(row.values())
        nll -= math.log((c + alpha) / (total + alpha * vocab_ext))
    return nll


def ngram_prob(corpus, order, alpha, vocab_ext, context, token) -> float:
    """(count + alpha) / (total + alpha * V) by scanning every window."""
    bos = vocab_ext
    ctx = tuple(([bos] * order + list(context))[-order:])
    num = 0
    den = 0
    for seq in corpus:
        padded = [bos] * order + list(seq)
        for i in range(order, len(padded)):
            if tuple(padded[i - order : i]) == ctx:
                den += 1
                if padded[i] == token:
                    num += 1
    return (num + alpha) / (den + alpha * vocab_ext)


def sequence_perplexity(corpus, order, alpha, vocab_ext, sequence, skip=0) -> float:
    nll = 0.0
    for i in range(skip, len(sequence)):
        p = ngram_prob(corpus, order, alpha, vocab_ext, sequence[:i], sequence[i])
        nll -= math.log(p)
    return math.exp(nll / (len(sequence) - skip))


def pearson_sums(xs, ys) -> float:
    """Raw-sum product-moment formula."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    return (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))


def _fill_gaps(voiced: np.ndarray, gap_frames: int) -> np.ndarray:
    out = voiced.copy()
    n = len(out)
    i = 0
    while i < n:
        if not out[i]:
            j = i
            while j < n and not out[j]:
                j += 1
            interior = i > 0 and j < n
            if interior and (j - i) < gap_frames:
                out[i:j] = True
            i = j
        else:
            i += 1
    return out


def _runs(arr: np.ndarray) -> list[tuple[int, int]]:
    runs = []
    start = None
    for i, v in enumerate(arr):
        if v and start is None:
            start = i
        elif not v and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(arr)))
    return runs


def frame_state_events(
    seg0, seg1, frame_ms: int, ipu_gap_ms: int, backchannel_containment: bool = True
) -> set[tuple]:
    """Event set computed by enumerating frame state.

    Returns tuples: ("ipu", channel, start_ms, end_ms),
    ("pause", channel, start_ms, end_ms),
    ("fto", (from, to), start_ms, end_ms).
    """
    all_segs = list(seg0) + list(seg1)
    n = max((s.end_ms // frame_ms for s in all_segs), default=0) + 2
    voiced = np.zeros((2, n), dtype=bool)
    for s in all_segs:
        voiced[s.channel, s.start_ms // frame_ms : s.end_ms // frame_ms] = True

    gap_frames = ipu_gap_ms // frame_ms
    merged = [_fill_gaps(voiced[c], gap_frames) for c in (0, 1)]
    ipus = {c: _runs(merged[c]) for c in (0, 1)}

    events: set[tuple] = set()
    for c in (0, 1):
        for a, b in ipus[c]:
            events.add(("ipu", c, a * frame_ms, b * frame_ms))
        for (a1, b1), (a2, b2) in zip(ipus[c], ipus[c][1:]):
            if a2 > b1 and not merged[1 - c][b1:a2].any():
                events.add(("pause", c, b1 * frame_ms, a2 * frame_ms))

    def is_bc(c: int, a: int, b: int) -> bool:
        other = merged[1 - c]
        if not other[a:b].all():
            return False
        starts_before = a > 0 and other[a - 1]
        ends_after = b < n and other[b]
        return starts_before or ends_after

    starts: dict[tuple[int, int], tuple[int, int]] = {}
    for c in (0, 1):
        for a, b in ipus[c]:
            if backchannel_containment and is_bc(c, a, b):
                continue
            starts[(a, c)] = (b, c)

    last: tuple[int, int] | None = None  # (end_frame, channel)
    for f in range(n):
        for c in (0, 1):
            if (f, c) in starts:
                end, _ = starts[(f, c)]
                if last is not None and last[1] != c:
                    events.add(
                        ("fto", (last[1], c), last[0] * frame_ms, f * frame_ms)
                    )
                last = (end, c)
    return events
