"""Voice-activity segmentation, turn-taking events, and evaluation stats.

Event conventions:

* IPU: maximal voiced stretch of one channel after merging segments
  separated by less than ``ipu_gap_ms``.
* pause: the silence between two consecutive IPUs of the same channel
  with no other-channel IPU overlapping it.
* FTO: at each floor transfer (adjacent IPUs of different channels in
  onset order, backchannels excluded), the signed offset from the end of
  the outgoing IPU to the start of the incoming one. Negative values are
  overlaps, positive values gaps.

A backchannel is an IPU strictly contained in some IPU of the other
channel; with containment filtering enabled (the default) it never counts
as a floor transfer.

A channel is a tuple of unit ids, one per frame, and a corpus a mapping
``{id: (s0, s1)}``; the ``Vocab`` gives the frame size and the silence set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateInput, EmptySet, NoPairs
from .ngram import NgramModel, perplexity
# perfbench/layers.py rebinds flatten and turn_events here: keep them bound
from .tokens import DedupDialogue, Vocab, chunk_wire, flatten

EVENT_KINDS = ("ipu", "pause", "fto")


@dataclass(frozen=True)
class VadSegment:
    channel: int
    start_ms: int
    end_ms: int

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ValueError(f"empty segment [{self.start_ms}, {self.end_ms})")


@dataclass(frozen=True)
class EventRecord:
    kind: str
    duration_ms: int  # signed for fto
    start_ms: int
    end_ms: int
    channel: int | None = None
    transition: tuple[int, int] | None = None


@dataclass(frozen=True)
class EventParams:
    min_voiced_ms: int = 0
    bridge_ms: int = 0
    ipu_gap_ms: int = 200
    backchannel_containment: bool = True


def vad(
    tokens: Sequence[int],
    channel: int,
    vocab: Vocab,
    min_voiced_ms: int = 0,
    bridge_ms: int = 0,
) -> list[VadSegment]:
    """Maximal non-silence runs of channel ``channel``, with short internal
    silences bridged and short voiced runs dropped."""
    frame = vocab.frame_ms
    if min_voiced_ms % frame or bridge_ms % frame:
        raise ValueError("vad thresholds must be multiples of frame_ms")
    silence = vocab.silence_tokens
    runs: list[list[int]] = []
    for i, tok in enumerate(tokens):
        if tok in silence:
            continue
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    voiced = [VadSegment(channel=channel, start_ms=a * frame, end_ms=b * frame)
              for a, b in runs]
    return [s for s in _merge_segments(voiced, bridge_ms)
            if s.end_ms - s.start_ms >= min_voiced_ms]


def _merge_segments(segments: Sequence[VadSegment], gap_ms: int) -> list[VadSegment]:
    merged: list[list[int]] = []
    for seg in sorted(segments, key=lambda s: s.start_ms):
        if merged and seg.start_ms - merged[-1][1] < gap_ms:
            merged[-1][1] = max(merged[-1][1], seg.end_ms)
        else:
            merged.append([seg.start_ms, seg.end_ms])
    channel = segments[0].channel if segments else 0
    return [VadSegment(channel=channel, start_ms=a, end_ms=b) for a, b in merged]


def _is_backchannel(ipu: VadSegment, others: Sequence[VadSegment]) -> bool:
    for y in others:
        if (
            y.start_ms <= ipu.start_ms
            and ipu.end_ms <= y.end_ms
            and (y.start_ms < ipu.start_ms or ipu.end_ms < y.end_ms)
        ):
            return True
    return False


def turn_events(
    seg0: Sequence[VadSegment],
    seg1: Sequence[VadSegment],
    ipu_gap_ms: int = 200,
    backchannel_containment: bool = True,
) -> list[EventRecord]:
    """Extract IPU, pause, and FTO events from two channels' segments."""
    ipus = {0: _merge_segments(seg0, ipu_gap_ms), 1: _merge_segments(seg1, ipu_gap_ms)}
    events: list[EventRecord] = []

    for c in (0, 1):
        for ipu in ipus[c]:
            events.append(
                EventRecord(
                    kind="ipu",
                    duration_ms=ipu.end_ms - ipu.start_ms,
                    start_ms=ipu.start_ms,
                    end_ms=ipu.end_ms,
                    channel=c,
                )
            )
        for prev, nxt in zip(ipus[c], ipus[c][1:]):
            gap_a, gap_b = prev.end_ms, nxt.start_ms
            if gap_b <= gap_a:
                continue
            other_speech = any(
                z.start_ms < gap_b and z.end_ms > gap_a for z in ipus[1 - c]
            )
            if not other_speech:
                events.append(
                    EventRecord(
                        kind="pause",
                        duration_ms=gap_b - gap_a,
                        start_ms=gap_a,
                        end_ms=gap_b,
                        channel=c,
                    )
                )

    turn_ipus = []
    for c in (0, 1):
        for ipu in ipus[c]:
            if backchannel_containment and _is_backchannel(ipu, ipus[1 - c]):
                continue
            turn_ipus.append(ipu)
    turn_ipus.sort(key=lambda s: (s.start_ms, s.channel))
    for prev, nxt in zip(turn_ipus, turn_ipus[1:]):
        if prev.channel != nxt.channel:
            events.append(
                EventRecord(
                    kind="fto",
                    duration_ms=nxt.start_ms - prev.end_ms,
                    start_ms=prev.end_ms,
                    end_ms=nxt.start_ms,
                    transition=(prev.channel, nxt.channel),
                )
            )

    def event_time(e: EventRecord) -> int:
        # a floor transfer happens when the incoming speaker starts
        return e.end_ms if e.kind == "fto" else e.start_ms

    events.sort(key=lambda e: (event_time(e), e.kind, -1 if e.channel is None else e.channel))
    return events


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation; raises DegenerateInput on short or
    zero-variance input."""
    if len(xs) != len(ys):
        raise DegenerateInput(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise DegenerateInput(f"need at least 2 points, got {len(xs)}")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(np.dot(dx, dx))
    vy = float(np.dot(dy, dy))
    if vx == 0.0 or vy == 0.0:
        raise DegenerateInput("zero variance input")
    r = float(np.dot(dx, dy)) / (vx * vy) ** 0.5
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class KindCorrelation:
    r: float | None
    n_pairs: int
    n_excluded: int
    generated_mean_ms: float | None = None
    reference_mean_ms: float | None = None


@dataclass(frozen=True)
class CorrelationReport:
    kinds: dict[str, KindCorrelation]
    average_r: float | None

    def to_dict(self) -> dict:
        return {
            "kinds": {
                k: {
                    "r": v.r,
                    "n_pairs": v.n_pairs,
                    "n_excluded": v.n_excluded,
                    "generated_mean_ms": v.generated_mean_ms,
                    "reference_mean_ms": v.reference_mean_ms,
                }
                for k, v in sorted(self.kinds.items())
            },
            "average_r": self.average_r,
        }


def dialogue_events(
    s0: Sequence[int],
    s1: Sequence[int],
    vocab: Vocab,
    params: EventParams = EventParams(),
) -> list[EventRecord]:
    seg0 = vad(s0, 0, vocab, params.min_voiced_ms, params.bridge_ms)
    seg1 = vad(s1, 1, vocab, params.min_voiced_ms, params.bridge_ms)
    return turn_events(seg0, seg1, params.ipu_gap_ms, params.backchannel_containment)


def _mean_durations(
    corpus: Mapping[str, tuple[Sequence[int], Sequence[int]]],
    vocab: Vocab,
    params: EventParams,
) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {k: {} for k in EVENT_KINDS}
    for did, (s0, s1) in corpus.items():
        per_kind: dict[str, list[float]] = {k: [] for k in EVENT_KINDS}
        for ev in dialogue_events(s0, s1, vocab, params):
            per_kind[ev.kind].append(float(ev.duration_ms))
        for kind, vals in per_kind.items():
            if vals:
                out[kind][did] = float(np.mean(vals))
    return out


def correlation_report(
    generated: Mapping[str, tuple[Sequence[int], Sequence[int]]],
    reference: Mapping[str, tuple[Sequence[int], Sequence[int]]],
    vocab: Vocab,
    params: EventParams = EventParams(),
) -> CorrelationReport:
    """Pearson r per event kind between per-dialogue average durations of
    two corpora, paired by dialogue id. Dialogues lacking an event kind on
    either side are excluded pairwise and counted."""
    shared = sorted(set(generated) & set(reference))
    if not shared:
        raise NoPairs("no shared dialogue ids between corpora")
    gen_means = _mean_durations(generated, vocab, params)
    ref_means = _mean_durations(reference, vocab, params)

    kinds: dict[str, KindCorrelation] = {}
    rs = []
    for kind in EVENT_KINDS:
        xs, ys = [], []
        excluded = 0
        for did in shared:
            gx = gen_means[kind].get(did)
            ry = ref_means[kind].get(did)
            if gx is None or ry is None:
                excluded += 1
            else:
                xs.append(gx)
                ys.append(ry)
        r: float | None
        try:
            r = pearson(xs, ys)
        except DegenerateInput:
            r = None
        if r is not None:
            rs.append(r)
        kinds[kind] = KindCorrelation(
            r=r,
            n_pairs=len(xs),
            n_excluded=excluded,
            generated_mean_ms=float(np.mean(xs)) if xs else None,
            reference_mean_ms=float(np.mean(ys)) if ys else None,
        )
    average = float(np.mean(rs)) if rs else None
    return CorrelationReport(kinds=kinds, average_r=average)


def per_dialogue_perplexities(
    reference_model: NgramModel,
    dialogues: Sequence[DedupDialogue],
    prompt_chunks: int = 0,
) -> list[float]:
    """Perplexity of each flattened dialogue; its first ``prompt_chunks``
    chunks condition the model but are not scored."""
    if not dialogues:
        raise EmptySet("no dialogues to score")
    out = []
    for d in dialogues:
        skip = sum(len(chunk_wire(d.vocab, c)) for c in d.chunks[:prompt_chunks])
        out.append(perplexity(reference_model, flatten(d), skip=skip))
    return out
