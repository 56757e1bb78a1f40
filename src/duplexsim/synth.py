"""Synthetic dual-channel dialogues with controllable turn-taking.

A dialogue alternates turns between the two speakers. A turn is one or
more voiced segments (IPUs) separated by same-speaker pauses; the floor
transfers with a signed offset (negative = overlap) from the end of the
turn's final IPU to the start of the other speaker's first IPU. Short
backchannel bursts can be injected on the listening channel, fully inside
the floor-holder's non-final IPUs. Voiced frames follow a self-looping
Markov chain over the non-silence units; silent frames are the vocabulary's
first silence unit, so the style's ``Vocab`` is the one source of silence.
A dialogue is two tuples of unit ids, and a corpus ``{id: (s0, s1)}``.

Durations are Gaussian, rounded to whole frames and truncated at one
frame. Every dialogue derives its RNG stream from (seed, index), so
parallel and serial generation agree bit-exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import corpus_io
from .errors import BadDuration, ConfigError, EmptyCorpus
from .tokens import DedupDialogue, Vocab, flatten


# Field groups of DialogueStyle: (mean_ms, std_ms) pairs, of which all but
# the signed fto_ms are durations with mean > 0, and probabilities.
_DURATION_KEYS = ("ipu_ms", "pause_ms", "backchannel_ms")
_PAIR_KEYS = _DURATION_KEYS + ("fto_ms",)
_PROB_KEYS = ("turn_continue_prob", "backchannel_prob", "p_self")


@dataclass(frozen=True)
class DialogueStyle:
    """Generation knobs; all duration pairs are (mean_ms, std_ms)."""

    vocab: Vocab = field(default_factory=Vocab)
    ipu_ms: tuple[float, float] = (2000.0, 500.0)
    pause_ms: tuple[float, float] = (600.0, 150.0)
    fto_ms: tuple[float, float] = (250.0, 150.0)
    turn_continue_prob: float = 0.35
    backchannel_prob: float = 0.15
    backchannel_ms: tuple[float, float] = (320.0, 80.0)
    p_self: float = 0.35
    unit_range: tuple[int, int] | None = None
    successor_count: int | None = None

    def __post_init__(self) -> None:
        for name in _PAIR_KEYS:
            mean, std = getattr(self, name)
            duration = name in _DURATION_KEYS
            if std < 0 or (duration and mean <= 0):
                need = "mean > 0 and std >= 0" if duration else "std >= 0"
                raise ValueError(f"{name} needs {need}, got {(mean, std)}")
        for name in _PROB_KEYS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0 or (name == "p_self" and p == 1.0):
                top = "1)" if name == "p_self" else "1]"
                raise ValueError(f"{name} must be in [0, {top}, got {p}")
        if self.unit_range is not None:
            lo, hi = self.unit_range
            if not (0 <= lo < hi <= self.vocab.size):
                raise ValueError(f"unit_range {self.unit_range} outside [0, {self.vocab.size})")
        if self.successor_count is not None and self.successor_count < 1:
            raise ValueError(f"successor_count must be >= 1, got {self.successor_count}")
        if self.content()[0] == 0:
            raise ValueError("no non-silence units available for content")

    def content(self) -> tuple[int, Callable[[int], int]]:
        """The content alphabet, the non-silence ids of ``unit_range`` in id
        order, as its size and the map from an index to its unit. The map
        bisects the silence ids inside the range, so no table of ids is built
        and the cost does not grow with the vocabulary."""
        lo, hi = self.unit_range if self.unit_range else (0, self.vocab.size)
        silent = sorted(t for t in self.vocab.silence_tokens if lo <= t < hi)
        # gaps[k] counts the content ids below the k-th silence id
        gaps = [t - lo - k for k, t in enumerate(silent)]
        return hi - lo - len(silent), lambda i: lo + i + bisect_right(gaps, i)

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab.size,
            "frame_ms": self.vocab.frame_ms,
            "silence_token": self.vocab.first_silence,
            **{k: list(getattr(self, k)) for k in _PAIR_KEYS},
            **{k: getattr(self, k) for k in _PROB_KEYS},
            "unit_range": list(self.unit_range) if self.unit_range else None,
            "successor_count": self.successor_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DialogueStyle":
        """Read ``to_dict``'s form; a key left out keeps its default. Raises
        ``ValueError`` for an unknown key or a value of the wrong type:
        sizes and ids are integers, probabilities finite numbers, each
        duration pair a list or tuple of two finite numbers, and
        ``unit_range`` one of two integers or None."""
        if not isinstance(data, dict):
            raise ValueError("a style is a JSON object")
        merged = cls().to_dict()
        unknown = set(data) - merged.keys()
        if unknown:
            raise ValueError(f"unknown style keys: {sorted(unknown)}")
        merged.update(data)
        for key, value in merged.items():
            if not _STYLE_TYPES[key](value):
                raise ValueError(f"style {key} has the wrong type: {value!r}")
        unit_range = merged["unit_range"]
        return cls(
            vocab=Vocab(
                size=merged["vocab_size"],
                frame_ms=merged["frame_ms"],
                silence_tokens=frozenset({merged["silence_token"]}),
            ),
            unit_range=tuple(unit_range) if unit_range else None,
            successor_count=merged["successor_count"],
            **{k: (float(merged[k][0]), float(merged[k][1])) for k in _PAIR_KEYS},
            **{k: float(merged[k]) for k in _PROB_KEYS},
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "DialogueStyle":
        try:
            return cls.from_dict(corpus_io.read_json(path))
        except ValueError as exc:
            raise ConfigError(f"style {path}: {exc}") from None

    def to_file(self, path: str | Path) -> None:
        corpus_io.write_json(path, self.to_dict(), indent=2)


_STYLE_TYPES = {
    **dict.fromkeys(("vocab_size", "frame_ms", "silence_token"), corpus_io.is_int),
    **dict.fromkeys(_PAIR_KEYS, lambda x: type(x) in (list, tuple) and len(x) == 2
                    and all(map(corpus_io.is_number, x))),
    **dict.fromkeys(_PROB_KEYS, corpus_io.is_number),
    "unit_range": lambda x: x is None or (type(x) in (list, tuple) and len(x) == 2
                                          and all(map(corpus_io.is_int, x))),
    "successor_count": lambda x: x is None or corpus_io.is_int(x),
}


@dataclass(frozen=True)
class PlannedEvent:
    """An event as constructed by the generator (frame units).

    For ftos, start_frame is the outgoing turn's final IPU end and
    end_frame the incoming turn's first IPU start; duration is signed.
    ``realized`` marks events that lie fully inside the dialogue and are
    therefore recoverable by measurement.
    """

    kind: str  # ipu | pause | fto | backchannel
    channel: int | None
    start_frame: int
    end_frame: int
    realized: bool


def _gauss_frames(rng: np.random.Generator, pair: tuple[float, float], frame_ms: int) -> int:
    """Gaussian duration in frames, minimum one frame."""
    ms = rng.normal(pair[0], pair[1])
    return max(1, int(round(ms / frame_ms)))


def _gauss_frames_signed(rng: np.random.Generator, pair: tuple[float, float], frame_ms: int) -> int:
    return int(round(rng.normal(pair[0], pair[1]) / frame_ms))


def _markov_content(rng: np.random.Generator, style: DialogueStyle, length: int) -> list[int]:
    """Self-looping Markov chain over the style's content units.

    With ``successor_count`` set, each unit jumps only within a fixed
    per-unit successor set (sparse transition matrix, learnable by a
    low-order model); otherwise jumps are uniform over the other units.
    """
    if length <= 0:
        return []
    m, unit_at = style.content()
    p_self, successor_count = style.p_self, style.successor_count
    idx = int(rng.integers(m))
    unit = unit_at(idx)
    out = []
    for _ in range(length):
        out.append(unit)
        if m > 1 and rng.random() >= p_self:
            if successor_count is None:
                j = int(rng.integers(m - 1))
                idx = (m - 1) if j == idx else j
            else:
                j = int(rng.integers(successor_count))
                idx = (idx + 1 + ((idx * 7 + j * 11) % (m - 1))) % m
            unit = unit_at(idx)
    return out


def generate_dialogue_with_log(
    style: DialogueStyle, duration_ms: int, seed
) -> tuple[tuple[int, ...], tuple[int, ...], list[PlannedEvent]]:
    """Like :func:`generate_dialogue` but also returns the construction log."""
    frame_ms = style.vocab.frame_ms
    if duration_ms < 0 or duration_ms % frame_ms != 0:
        raise BadDuration(
            f"duration_ms={duration_ms} must be a non-negative multiple of frame_ms={frame_ms}"
        )
    n = duration_ms // frame_ms
    rng = np.random.default_rng(seed)
    sil = style.vocab.first_silence
    ch: list[list[int]] = [[sil] * n, [sil] * n]
    events: list[PlannedEvent] = []

    def paint(c: int, a: int, b: int) -> None:
        content = _markov_content(rng, style, b - a)
        for off, tok in enumerate(content):
            f = a + off
            if 0 <= f < n:
                ch[c][f] = tok

    speaker = 0
    t = 0
    while t < n:
        ipus: list[tuple[int, int]] = []
        cursor = t
        while True:
            dur = _gauss_frames(rng, style.ipu_ms, frame_ms)
            ipus.append((cursor, cursor + dur))
            if rng.random() < style.turn_continue_prob:
                gap = _gauss_frames(rng, style.pause_ms, frame_ms)
                cursor = cursor + dur + gap
                if cursor >= n:
                    break
            else:
                break
        for a, b in ipus:
            paint(speaker, a, b)
            events.append(PlannedEvent("ipu", speaker, a, b, realized=b <= n))
        for (a1, b1), (a2, b2) in zip(ipus, ipus[1:]):
            events.append(
                PlannedEvent("pause", speaker, b1, a2, realized=b1 <= n and a2 < n)
            )
        # Backchannels live strictly inside the floor-holder's non-final
        # IPUs so they never blur floor transfers.
        other = 1 - speaker
        for a, b in ipus[:-1]:
            if rng.random() < style.backchannel_prob:
                bc_dur = _gauss_frames(rng, style.backchannel_ms, frame_ms)
                lo, hi = a + 1, b - 1 - bc_dur
                if hi >= lo:
                    bc_a = lo + int(rng.integers(hi - lo + 1))
                    paint(other, bc_a, bc_a + bc_dur)
                    events.append(
                        PlannedEvent("backchannel", other, bc_a, bc_a + bc_dur,
                                     realized=bc_a + bc_dur <= n)
                    )
        last_a, last_b = ipus[-1]
        fto = _gauss_frames_signed(rng, style.fto_ms, frame_ms)
        nxt = max(last_b + fto, last_a + 1)
        events.append(
            PlannedEvent("fto", None, last_b, nxt, realized=last_b <= n and nxt < n)
        )
        t = nxt
        speaker = other

    return tuple(ch[0]), tuple(ch[1]), events


def generate_dialogue(
    style: DialogueStyle, duration_ms: int, seed
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generate one dialogue; both channels are exactly duration_ms long."""
    s0, s1, _ = generate_dialogue_with_log(style, duration_ms, seed)
    return s0, s1


def generate_corpus(
    style: DialogueStyle, count: int, duration_ms: int, seed: int
) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """``{id: (s0, s1)}`` in index order; dialogue ``i`` has the id
    ``d{i:05d}`` and the seed ``[seed, i]``."""
    return {f"d{i:05d}": generate_dialogue(style, duration_ms, [seed, i])
            for i in range(count)}


def build_stage2_corpus(
    turns: Sequence[tuple[int, Sequence[int]]], style: DialogueStyle
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Turn-based dialogue as strictly exclusive channels.

    During each turn, the speaking channel carries the utterance and the
    other channel carries silence of identical duration, so the two
    channels never voice simultaneously.
    """
    ch: list[list[int]] = [[], []]
    sil = style.vocab.first_silence
    for speaker, utterance in turns:
        if speaker not in (0, 1):
            raise ValueError(f"speaker must be 0 or 1, got {speaker}")
        utt = list(utterance)
        if not utt:
            raise ValueError("stage-2 utterances must be non-empty")
        ch[speaker].extend(utt)
        ch[1 - speaker].extend([sil] * len(utt))
    return tuple(ch[0]), tuple(ch[1])


def generate_stage2_dialogue(
    style: DialogueStyle, n_turns: int, seed
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Alternating-turn dialogue in the exclusive stage-2 shape."""
    rng = np.random.default_rng(seed)
    turns = []
    for i in range(n_turns):
        dur = _gauss_frames(rng, style.ipu_ms, style.vocab.frame_ms)
        content = _markov_content(rng, style, dur)
        # trailing silence marks the turn's end on the speaking channel
        gap = _gauss_frames(rng, style.pause_ms, style.vocab.frame_ms)
        turns.append((i % 2, content + [style.vocab.first_silence] * gap))
    return build_stage2_corpus(turns, style)


@dataclass(frozen=True)
class CorpusStats:
    """Aggregate event and token-rate statistics for a corpus."""

    event_means_ms: dict[str, float]
    event_stds_ms: dict[str, float]
    event_counts: dict[str, int]
    overlap_frames: int
    raw_tokens_per_s: float
    dedup_tokens_per_s: float
    dedup_rates_per_dialogue: tuple[float, ...]

    @property
    def compression_ratio(self) -> float:
        return self.dedup_tokens_per_s / self.raw_tokens_per_s


def corpus_stats(
    dialogues: Sequence[tuple[Sequence[int], Sequence[int], DedupDialogue]],
) -> CorpusStats:
    """Empirical per-event duration statistics plus codec token rates of
    ``(s0, s1, encoding)`` dialogues, where ``encoding`` is the dialogue's
    wire form. The vocabulary and the chunk size are the encodings'.

    Raw rate counts the fully interleaved chunk form (both tags plus every
    frame of both channels); dedup rate counts the wire form.
    """
    from . import metrics  # local import; metrics stays synth-agnostic

    if len(dialogues) == 0:
        raise EmptyCorpus("corpus has no dialogues")

    durations: dict[str, list[float]] = {"ipu": [], "pause": [], "fto": []}
    overlap = 0
    raw_tokens = 0
    dedup_tokens = 0
    total_seconds = 0.0
    rates = []
    for s0, s1, encoding in dialogues:
        silence = encoding.vocab.silence_tokens
        for ev in metrics.dialogue_events(s0, s1, encoding.vocab):
            durations[ev.kind].append(float(ev.duration_ms))
        overlap += sum(
            1
            for a, b in zip(s0, s1)
            if a not in silence and b not in silence
        )
        n_chunks = len(encoding.chunks)
        if n_chunks:
            wire = len(flatten(encoding))
            seconds = n_chunks * encoding.chunk_ms / 1000.0
            raw_tokens += n_chunks * (2 + 2 * encoding.frames_per_chunk)
            dedup_tokens += wire
            total_seconds += seconds
            rates.append(wire / seconds)

    means = {k: float(np.mean(v)) if v else float("nan") for k, v in durations.items()}
    stds = {k: float(np.std(v)) if v else float("nan") for k, v in durations.items()}
    counts = {k: len(v) for k, v in durations.items()}
    return CorpusStats(
        event_means_ms=means,
        event_stds_ms=stds,
        event_counts=counts,
        overlap_frames=overlap,
        raw_tokens_per_s=raw_tokens / total_seconds if total_seconds else float("nan"),
        dedup_tokens_per_s=dedup_tokens / total_seconds if total_seconds else float("nan"),
        dedup_rates_per_dialogue=tuple(rates),
    )
