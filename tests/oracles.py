"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's code paths: deduplication frame by
frame, counting by scanning, event extraction by frame-state enumeration,
correlation by the raw-sum formula, corpus reading line by line, and each
draw from the whole next-token distribution, built from a model's public
arrays and searched as numpy's ``Generator.choice`` searches it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from itertools import chain

import numpy as np

from duplexsim.errors import ConfigError, DuplexError
from duplexsim.metrics import VadSegment
from duplexsim.tokens import DedupChunk, DedupDialogue, Vocab


def deduplicate(s0, s1, chunk_ms, vocab) -> DedupDialogue:
    """Run-length reduction of both channels, one frame at a time.

    Both channels are right-padded with the first silence unit to whole
    chunks of ``chunk_ms``. A frame is novel iff it differs from the
    preceding frame of its channel; frame 0 always is. Each novel lands in
    the chunk of its frame, so the run-length state carries across chunk
    boundaries.
    """
    fpc = chunk_ms // vocab.frame_ms
    padded = -(-len(s0) // fpc) * fpc
    channels = [list(s) + [min(vocab.silence_tokens)] * (padded - len(s)) for s in (s0, s1)]
    prev: list[int | None] = [None, None]
    out: list[DedupChunk] = []
    for start in range(0, padded, fpc):
        novels: list[list[int]] = [[], []]
        for c in (0, 1):
            for tok in channels[c][start : start + fpc]:
                if tok != prev[c]:
                    novels[c].append(tok)
                    prev[c] = tok
        out.append(DedupChunk(s0_novel=tuple(novels[0]), s1_novel=tuple(novels[1])))
    return DedupDialogue(vocab=vocab, chunk_ms=chunk_ms, chunks=tuple(out))


def encode(s0, s1, chunk_ms, vocab) -> tuple[np.ndarray, np.ndarray]:
    """The one-dialogue wire encoder that the batched ``tokens.encode``
    replaced: the wire form of two equal-length channels as an int64 array,
    and the offset in it of each chunk's tag_s0, from one dialogue's
    (chunk, channel, tag and frames) table and keep mask."""
    fpc = vocab.frames_per_chunk(chunk_ms)
    n_chunks = -(-len(s0) // fpc)
    pad = (vocab.first_silence,) * (n_chunks * fpc - len(s0))
    frames = np.fromiter(chain(s0, pad, s1, pad), np.int64, 2 * n_chunks * fpc)
    frames = frames.reshape(2, n_chunks, fpc)
    novel = np.ones(frames.shape, dtype=bool)
    flat = frames.reshape(2, -1)
    np.not_equal(flat[:, 1:], flat[:, :-1], out=novel.reshape(2, -1)[:, 1:])
    table = np.empty((n_chunks, 2, fpc + 1), np.int64)
    keep = np.empty(table.shape, bool)
    table[:, :, 0] = vocab.tag_s0, vocab.tag_s1
    table[:, :, 1:] = frames.transpose(1, 0, 2)
    keep[:, :, 1:] = novel.transpose(1, 0, 2)
    keep[:, 0, 0] = True
    novel[1].any(axis=1, out=keep[:, 1, 0])
    counts = keep.sum(axis=(1, 2))
    return table[keep], np.cumsum(counts) - counts


def vad(tokens, channel, vocab, min_voiced_ms=0, bridge_ms=0) -> list[VadSegment]:
    """Voiced runs of one channel found frame by frame; runs less than
    ``bridge_ms`` apart are joined, then runs shorter than
    ``min_voiced_ms`` dropped."""
    frame = vocab.frame_ms
    runs: list[list[int]] = []
    for i, tok in enumerate(tokens):
        if tok in vocab.silence_tokens:
            continue
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    bridged: list[list[int]] = []
    for a, b in runs:
        if bridged and (a - bridged[-1][1]) * frame < bridge_ms:
            bridged[-1][1] = b
        else:
            bridged.append([a, b])
    return [VadSegment(channel=channel, start_ms=a * frame, end_ms=b * frame)
            for a, b in bridged if (b - a) * frame >= min_voiced_ms]


def grammar_fault(chunks, fpc, size) -> str | None:
    """The message of the first grammar fault of ``DedupDialogue`` chunks,
    walking them chunk by chunk and channel by channel, or None."""
    last = [None, None]
    for i, chunk in enumerate(chunks):
        for c, novels in enumerate(chunk):
            if not novels:
                continue
            if len(novels) > fpc:
                return (f"chunk {i} channel {c}: {len(novels)} novel tokens exceed {fpc} "
                        f"frames per chunk")
            if any(not 0 <= t < size for t in novels):
                return f"chunk {i} channel {c}: an id outside the unit range [0, {size})"
            if any(t == prev for t, prev in zip(novels, [last[c], *novels])):
                return f"chunk {i} channel {c} repeats its previous novel"
            last[c] = novels[-1]
    return None


def markov_content(rng, style, length) -> list[int]:
    """One painted segment of ``synth``'s content chain, one numpy call per
    draw: ``integers(m)`` for the first content index, then per frame
    ``random() >= p_self`` for a jump and ``integers`` for its target. An
    index maps to its unit by bisecting the silence ids of the unit range."""
    if length <= 0:
        return []
    lo, hi = style.unit_range if style.unit_range else (0, style.vocab.size)
    silent = sorted(t for t in style.vocab.silence_tokens if lo <= t < hi)
    gaps = [t - lo - k for k, t in enumerate(silent)]
    m = hi - lo - len(silent)
    idx = int(rng.integers(m))
    out = []
    for _ in range(length):
        out.append(lo + idx + bisect_right(gaps, idx))
        if m > 1 and rng.random() >= style.p_self:
            if style.successor_count is None:
                j = int(rng.integers(m - 1))
                idx = (m - 1) if j == idx else j
            else:
                j = int(rng.integers(style.successor_count))
                idx = (idx + 1 + ((idx * 7 + j * 11) % (m - 1))) % m
    return out


def planned_dialogue(style, duration_ms, seed):
    """``synth.generate_dialogue``'s planner, one numpy call per draw and
    painted by :func:`markov_content`, with its construction log: the two
    channels as tuples, and the planned events as ``(kind, channel,
    start_frame, end_frame)`` for each IPU and backchannel."""
    frame_ms = style.vocab.frame_ms
    n = duration_ms // frame_ms
    rng = np.random.default_rng(seed)
    ch = [[style.vocab.first_silence] * n for _ in (0, 1)]
    events = []

    def frames(pair, signed=False):
        f = int(round(rng.normal(pair[0], pair[1]) / frame_ms))
        return f if signed else max(1, f)

    def paint(c, a, b):
        seg = markov_content(rng, style, b - a)[: max(0, n - a)]
        ch[c][a : a + len(seg)] = seg

    speaker, t = 0, 0
    while t < n:
        ipus = []
        cursor = t
        while True:
            dur = frames(style.ipu_ms)
            ipus.append((cursor, cursor + dur))
            if rng.random() >= style.turn_continue_prob:
                break
            cursor += dur + frames(style.pause_ms)
            if cursor >= n:
                break
        for a, b in ipus:
            paint(speaker, a, b)
            events.append(("ipu", speaker, a, b))
        other = 1 - speaker
        for a, b in ipus[:-1]:
            if rng.random() < style.backchannel_prob:
                dur = frames(style.backchannel_ms)
                lo, hi = a + 1, b - 1 - dur
                if hi >= lo:
                    start = lo + int(rng.integers(hi - lo + 1))
                    paint(other, start, start + dur)
                    events.append(("backchannel", other, start, start + dur))
        last_a, last_b = ipus[-1]
        t = max(last_b + frames(style.fto_ms, signed=True), last_a + 1)
        speaker = other
    return tuple(ch[0]), tuple(ch[1]), events


def stage2_dialogue(style, n_turns, seed):
    """``synth.generate_stage2_dialogue``, one numpy call per draw: per turn
    an IPU painted by :func:`markov_content` and a pause, silent on the
    speaking channel, while the other channel is silent for both."""
    frame_ms, sil = style.vocab.frame_ms, style.vocab.first_silence
    rng = np.random.default_rng(seed)
    ch = [[], []]
    for i in range(n_turns):
        dur = max(1, int(round(rng.normal(*style.ipu_ms) / frame_ms)))
        units = markov_content(rng, style, dur)
        gap = max(1, int(round(rng.normal(*style.pause_ms) / frame_ms)))
        ch[i % 2] += units + [sil] * gap
        ch[1 - i % 2] += [sil] * (dur + gap)
    return tuple(ch[0]), tuple(ch[1])


def next_dist(model, context) -> np.ndarray:
    """The smoothed next-token distribution after ``context`` (ids in
    ``[0, vocab_ext]``) at every id, from the model's public arrays: the
    context's last ``order`` ids, after begin markers, are the digits of a
    base ``vocab_ext + 1`` code, whose row in ``codes`` gives ``(count +
    alpha) / (total + alpha * vocab_ext)`` at each id; an unseen code has
    counts and a total of 0."""
    v, alpha = model.vocab_ext, model.alpha
    code = 0
    for tok in ([v] * model.order + [int(t) for t in context])[-model.order :]:
        code = code * (v + 1) + tok
    row = int(np.searchsorted(model.codes, code))
    seen = row < len(model.codes) and model.codes[row] == code
    norm = (int(model.row_totals[row]) if seen else 0) + alpha * v
    dist = np.full(v, alpha / norm)
    if seen:
        start, end = model.offsets[row], model.offsets[row + 1]
        dist[model.tokens[start:end]] = (model.freqs[start:end] + alpha) / norm
    return dist


def sample_constrained(model, context, allowed, cfg, rng=None) -> int:
    """The reference draw: the next token after ``context`` among the ids
    of ``allowed``, any sequence in any order, at their :func:`next_dist`
    probabilities. One allowed id is returned without touching the RNG
    (``rng`` defaults to ``default_rng(cfg.seed)``). Otherwise the
    ``top_k`` most likely ids are kept, ties to the lower id, and one kept
    id is returned as it is; a temperature T other than 1 raises each
    kept probability, over the largest, to the power 1 / T, and refuses
    ("not finite") a T so small that log of the largest over T is -inf;
    then the draw is ``rng.choice(len(ids), p=probs / probs.sum())``, its
    cdf searched step by step so that a stand-in with only ``random()``
    can drive it."""
    ids = sorted(int(t) for t in allowed)
    if not ids:
        raise ValueError("allowed token set is empty")
    if len(ids) == 1:
        return ids[0]
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    dist = next_dist(model, context)
    probs = [float(dist[t]) for t in ids]
    if cfg.top_k is not None:
        kept = sorted(sorted(range(len(ids)), key=lambda k: (-probs[k], ids[k]))[: cfg.top_k])
        ids, probs = [ids[k] for k in kept], [probs[k] for k in kept]
        if len(ids) == 1:
            return ids[0]
    if cfg.temperature != 1.0:
        top = max(probs)
        if math.log(top) / cfg.temperature == -math.inf:
            raise ValueError("sampling distribution is not finite")
        probs = [(p / top) ** (1 / cfg.temperature) for p in probs]
    p = np.array(probs)
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return ids[int(cdf.searchsorted(rng.random(), "right"))]


def _wire(pairs, vocab) -> list[int]:
    """The wire form of ``(s0, s1)`` chunk parts, rebuilt token by token."""
    wire = []
    for s0, s1 in pairs:
        wire += [vocab.tag_s0, *s0]
        if s1:
            wire += [vocab.tag_s1, *s1]
    return wire


def draw_part(model, pairs, channel, vocab, fpc, cfg, rng) -> tuple[list[int], int]:
    """One channel part drawn after the chunk parts ``pairs`` (the last one
    ``(s0, ())`` for a channel-1 draw), each token by ``sample_constrained``
    on the whole rebuilt wire: channel 1 first draws between the two tags,
    the channel's last novel in ``pairs`` is never allowed, and a list that
    fills ``fpc`` slots is cut. Returns the novels and 1 if cut, else 0."""
    wire = _wire(pairs, vocab)
    if channel == 1 and sample_constrained(
            model, wire, [vocab.tag_s0, vocab.tag_s1], cfg, rng) != vocab.tag_s1:
        return [], 0
    wire.append(vocab.tag_s1 if channel else vocab.tag_s0)
    last = next((part[channel][-1] for part in reversed(pairs) if part[channel]), None)
    novels: list[int] = []
    while len(novels) < fpc:
        hi = vocab.extended_size if channel == 0 or novels else vocab.size
        tok = sample_constrained(model, wire, [u for u in range(hi) if u != last], cfg, rng)
        if tok >= vocab.size:
            return novels, 0
        novels.append(tok)
        wire.append(tok)
        last = tok
    return novels, 1


def continue_dialogue(model, prompt, n_chunks, cfg, forced_user=None) -> list[tuple]:
    """``interaction.continue_dialogue``'s chunks as ``(s0, s1)`` lists, each
    part drawn by :func:`draw_part` from one ``default_rng(cfg.seed)``."""
    vocab, fpc = prompt.vocab, prompt.frames_per_chunk
    rng = np.random.default_rng(cfg.seed)
    pairs = [(list(c.s0_novel), list(c.s1_novel)) for c in prompt.chunks]
    for i in range(n_chunks):
        s0 = draw_part(model, pairs, 0, vocab, fpc, cfg, rng)[0]
        if forced_user is None:
            s1 = draw_part(model, [*pairs, (s0, ())], 1, vocab, fpc, cfg, rng)[0]
        else:
            s1 = list(forced_user[i])
        pairs.append((s0, s1))
    return pairs


def simulate_interaction(model_a, user, cfg, prompt) -> dict:
    """The reference run of ``interaction.simulate_interaction``: at every
    step each side's wire context is rebuilt from chunk 0, the other side's
    parts actual below its latency cut and freshly estimated past it, in
    context order, and every token is drawn by :func:`draw_part`. Model A
    speaks channel 0 from ``default_rng(seed)``; a model user channel 1 from
    ``default_rng([seed, 1])``, seeing the model's chunks up to ``t - L``;
    a script's channel 1 is replayed. Returns the chunks, and per step the
    model's estimates of that chunk's user part (oldest first), its
    truncations and its context, with the user's truncations."""
    vocab, fpc = prompt.vocab, prompt.frames_per_chunk
    L, p, sampler = cfg.latency_chunks, len(prompt.chunks), cfg.sampler
    rng_a = np.random.default_rng(sampler.seed)
    rng_b = np.random.default_rng([sampler.seed, 1])
    chunks = [(list(c.s0_novel), list(c.s1_novel)) for c in prompt.chunks]
    histories: list[list[list[int]]] = []
    truncations, snapshots, user_truncations = [], [], 0
    for t in range(p, cfg.max_chunks):
        cut, pairs, cuts = max(p, t - L), [], 0
        for j, (s0, s1) in enumerate(chunks):
            if j >= cut:
                s1, cut_here = draw_part(model_a, [*pairs, (s0, ())], 1, vocab, fpc, sampler,
                                         rng_a)
                histories[j - p].append(s1)
                cuts += cut_here
            pairs.append((s0, s1))
        snapshots.append(_wire(pairs, vocab))
        s0_t, cut_here = draw_part(model_a, pairs, 0, vocab, fpc, sampler, rng_a)
        truncations.append(cuts + cut_here)
        chunks.append((s0_t, []))
        if isinstance(user, DedupDialogue):
            s1_t = list(user.chunks[t].s1_novel)
        else:
            pairs = []
            for j, (s0, s1) in enumerate(chunks):
                if j >= p and j > t - L:
                    s0, cut_here = draw_part(user, pairs, 0, vocab, fpc, sampler, rng_b)
                    user_truncations += cut_here
                pairs.append((s0, s1))
            s1_t, cut_here = draw_part(user, pairs, 1, vocab, fpc, sampler, rng_b)
            user_truncations += cut_here
        chunks[t] = (s0_t, s1_t)
        histories.append([])
    return {"chunks": chunks, "histories": histories, "truncations": truncations,
            "snapshots": snapshots, "user_truncations": user_truncations}


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


def frame_state_events(seg0, seg1, frame_ms: int, ipu_gap_ms: int) -> set[tuple]:
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
            if is_bc(c, a, b):
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


def _walk_record(rec) -> tuple:
    """One corpus record checked id by id, as ``(id, s0, s1, vocab)``."""
    keys = {"id", "frame_ms", "vocab", "silence", "channels"}
    if type(rec) is not dict or not keys <= rec.keys():
        raise ConfigError(f"a corpus record is an object with keys {sorted(keys)}")
    did, size, frame_ms, ch = rec["id"], rec["vocab"], rec["frame_ms"], rec["channels"]

    def int_list(x):
        return type(x) is list and all(type(v) is int for v in x)

    if not (type(did) is str and type(size) is int and type(frame_ms) is int
            and int_list(rec["silence"]) and type(ch) is list and len(ch) == 2
            and int_list(ch[0]) and int_list(ch[1]) and len(ch[0]) == len(ch[1])):
        raise ConfigError(
            f"dialogue {did!r}: needs a string id, integer vocab and frame_ms, an "
            f"integer list for silence and two equal-length ones for channels"
        )
    vocab = Vocab(size=size, frame_ms=frame_ms, silence_tokens=frozenset(rec["silence"]))
    for channel in ch:
        for tok in channel:
            if not 0 <= tok < size:
                raise ConfigError(f"dialogue {did}: a token lies outside [0, {size})")
    for channel in ch:
        for tok in channel:
            if tok >= 2**63:
                raise ConfigError(f"dialogue {did}: a token lies past int64")
    s0, s1 = (np.array(channel, dtype=np.int64) for channel in ch)
    return did, s0, s1, vocab


def read_corpus_lines(path) -> list[tuple]:
    """The per-line corpus reader that the batched ``corpus_io.read_corpus``
    replaced: each non-blank line by ``json.loads``, its channels walked id
    by id, then its vocabulary and id checked against the lines before it,
    with the same messages."""
    out, ids = [], set()
    try:
        with open(path, encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    did, s0, s1, vocab = _walk_record(json.loads(line))
                except (DuplexError, ValueError, RecursionError) as exc:
                    raise ConfigError(f"corpus {path} line {n}: {exc}") from None
                if out and vocab != out[0][3]:
                    raise ConfigError(f"corpus {path}: dialogue {did} has {vocab}, "
                                      f"the first dialogue {out[0][3]}")
                if did in ids:
                    raise ConfigError(f"corpus {path}: dialogue id {did!r} is repeated")
                ids.add(did)
                out.append((did, s0, s1, vocab))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return out
