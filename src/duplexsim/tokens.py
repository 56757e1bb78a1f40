"""Chunk-synchronous two-channel token format and its codec.

A dialogue has two forms. Its *channels* are two equal-length sequences
of unit ids, one id per frame, under one ``Vocab``: a channel's position
(0 or 1) is its speaker, and the ``Vocab`` alone holds the frame size and
the silence set. In memory a channel is an int64 array (any int sequence
is accepted). Its ``DedupDialogue`` partitions wall-clock time into
chunks of a fixed duration and keeps, per chunk, only the *novel* tokens
of each channel (those that differ from the immediately preceding frame
of the same channel). The wire form of a ``DedupDialogue`` delimits each chunk's
novels by speaker tags: the channel-0 tag opens every chunk; the channel-1
tag appears only when channel 1 contributed novel tokens.

The grammar lives in ``DedupDialogue``, which checks it when it is built:
per chunk and channel at most ``frames_per_chunk`` novels, unit ids only,
and no novel equal to its channel's previous one. ``parse`` checks only
where the tags stand.

``encode`` is the one encoder of channels, for many dialogues at once.
It lays every chunk of a batch out as one row of a table, ``tag_s0 |
channel-0 frames | tag_s1 | channel-1 frames``, and a keep mask of the
same shape marks tag_s0, each novel frame, and tag_s1 where channel 1 has
a novel; the wire is the kept entries in row order, cut per dialogue.
``encode_dialogue`` is the one serialisation of a ``DedupDialogue``, and
gives what ``encode`` gives a dialogue: the wire as an int64 array and the
offset of each chunk's tag_s0; ``flatten`` is its wire as a list.
``deduplicate`` is ``encode`` read back by ``parse``; the inverse
direction, ``interpolate``, redistributes each chunk's novel tokens over
the chunk's frame slots by equal repetition.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import warnings
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain
from operator import eq
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadChunkSize,
    EmptyCarryOverWarning,
    LengthMismatch,
    MalformedSequence,
)

DEFAULT_UNIT_COUNT = 501
DEFAULT_FRAME_MS = 40
# frames per encode batch: batches of 2**16 and 2**13 left the heap larger
# after train, raising the benchmark's peak RSS by 7% and 2%
_BATCH_FRAMES = 2**12


@dataclass(frozen=True)
class Vocab:
    """Speech-unit alphabet plus the two speaker tags.

    Unit ids live in ``[0, size)``; the tags extend the table at ``size``
    and ``size + 1`` so a predictor sees one contiguous id range of
    ``extended_size`` symbols.
    """

    size: int = DEFAULT_UNIT_COUNT
    frame_ms: int = DEFAULT_FRAME_MS
    silence_tokens: frozenset[int] = field(default_factory=lambda: frozenset({0}))

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"vocab size must be positive, got {self.size}")
        if self.frame_ms <= 0:
            raise ValueError(f"frame_ms must be positive, got {self.frame_ms}")
        silence = frozenset(self.silence_tokens)
        object.__setattr__(self, "silence_tokens", silence)
        if not silence:
            raise ValueError("silence_tokens must be non-empty")
        if not all(0 <= t < self.size for t in silence):
            raise ValueError("silence tokens must lie in [0, size)")

    @property
    def tag_s0(self) -> int:
        return self.size

    @property
    def tag_s1(self) -> int:
        return self.size + 1

    @property
    def extended_size(self) -> int:
        return self.size + 2

    @property
    def first_silence(self) -> int:
        return min(self.silence_tokens)

    def frames_per_chunk(self, chunk_ms: int) -> int:
        if chunk_ms <= 0 or chunk_ms % self.frame_ms != 0:
            raise BadChunkSize(
                f"chunk_ms={chunk_ms} is not a positive multiple of frame_ms={self.frame_ms}"
            )
        return chunk_ms // self.frame_ms


class DedupChunk(NamedTuple):
    """Novel tokens of one chunk, per channel."""

    s0_novel: tuple[int, ...] = ()
    s1_novel: tuple[int, ...] = ()


@dataclass(frozen=True)
class DedupDialogue:
    """The model-facing deduplicated form of a dialogue. Building one
    checks the grammar and raises MalformedSequence, naming the chunk and
    the channel, on more novels than frames, an id outside the units, or a
    novel equal to its channel's previous novel (in this chunk or an
    earlier one), which no encoding emits."""

    vocab: Vocab
    chunk_ms: int
    chunks: tuple[DedupChunk, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunks", tuple(self.chunks))
        fpc, size = self.frames_per_chunk, self.vocab.size
        # a screen of each channel's novels by C-level calls; only a dialogue
        # that fails it is walked chunk by chunk, to name its first fault
        with suppress(TypeError):  # an id that does not compare: the walk decides
            if all(_grammatical(novels, fpc, size) for novels in zip(*self.chunks)):
                return
        last: list[int | None] = [None, None]  # each channel's latest novel
        for i, chunk in enumerate(self.chunks):
            for c, novels in enumerate(chunk):
                if not novels:
                    continue
                if len(novels) > fpc:
                    raise MalformedSequence(f"chunk {i} channel {c}: {len(novels)} novel "
                                            f"tokens exceed {fpc} frames per chunk")
                if not (0 <= min(novels) and max(novels) < size):
                    raise MalformedSequence(f"chunk {i} channel {c}: an id outside the "
                                            f"unit range [0, {size})")
                if novels[0] == last[c] or any(map(eq, novels, novels[1:])):
                    raise MalformedSequence(f"chunk {i} channel {c} repeats its "
                                            f"previous novel")
                last[c] = novels[-1]

    @property
    def frames_per_chunk(self) -> int:
        return self.vocab.frames_per_chunk(self.chunk_ms)


def _grammatical(novels: tuple[tuple[int, ...], ...], fpc: int, size: int) -> bool:
    """Whether one channel's novels, per chunk, pass every check of
    ``DedupDialogue``: at most ``fpc`` per chunk, ids in ``[0, size)`` and
    no novel equal to the one before it across the whole channel."""
    flat = list(chain.from_iterable(novels))
    return not flat or (max(map(len, novels)) <= fpc and min(flat) >= 0
                        and max(flat) < size and not any(map(eq, flat, flat[1:])))


def chunk_streams(
    s0: Sequence[int], s1: Sequence[int], chunk_ms: int, vocab: Vocab
) -> np.ndarray:
    """Two equal-length channels as an int64 array of shape ``(2, chunks,
    frames_per_chunk)``, both right-padded with the vocabulary's first
    silence unit to a whole number of chunks."""
    if len(s0) != len(s1):
        raise LengthMismatch(f"channel lengths differ: {len(s0)} vs {len(s1)}")
    fpc = vocab.frames_per_chunk(chunk_ms)
    frames = np.full((2, -(-len(s0) // fpc) * fpc), vocab.first_silence, np.int64)
    try:
        frames[:, : len(s0)] = s0, s1
        in_range = frames.min(initial=0) >= 0 and frames.max(initial=0) < vocab.size
    except OverflowError:  # an id past int64, so past the range too
        in_range = False
    if not in_range:
        bad = next(t for t in (*s0, *s1) if not 0 <= t < vocab.size)
        raise ValueError(f"token {bad} outside unit range [0, {vocab.size})")
    return frames.reshape(2, -1, fpc)


def encode(
    dialogues: Iterable[tuple[Sequence[int], Sequence[int]]], chunk_ms: int, vocab: Vocab
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per ``(s0, s1)`` pair of equal-length channels, padded to whole chunks
    by ``chunk_streams``, its wire form as an int64 array and the offset in
    it of each chunk's tag_s0. A dialogue's frame 0 is novel, and a novel
    lands in the chunk of its frame, so run-length state carries across
    chunk bounds. Each batch of about ``_BATCH_FRAMES`` frames is one pass."""
    if vocab.tag_s1 >= 2**63:
        raise ValueError(f"vocab size {vocab.size} puts the speaker tags past int64")
    out, batch, frames = [], [], 0
    for s0, s1 in dialogues:
        batch.append(chunk_streams(s0, s1, chunk_ms, vocab))
        frames += batch[-1][0].size
        if frames >= _BATCH_FRAMES:
            out += _encode_batch(batch, vocab)
            batch, frames = [], 0
    return out + _encode_batch(batch, vocab) if batch else out


def _encode_batch(parts: list[np.ndarray], vocab: Vocab) -> list[tuple[np.ndarray, np.ndarray]]:
    """``encode`` of the dialogues whose ``chunk_streams`` are ``parts``: the
    wire is the entries of one (chunk, channel, tag and frames) table of all
    their chunks that a keep mask of the same shape marks, in row order."""
    chunk_at = np.cumsum([0, *(part.shape[1] for part in parts)]).tolist()
    frames = np.concatenate(parts, axis=1)
    _, n_chunks, fpc = frames.shape
    novel = np.ones(frames.shape, dtype=bool)
    flat = frames.reshape(2, -1)
    np.not_equal(flat[:, 1:], flat[:, :-1], out=novel.reshape(2, -1)[:, 1:])
    novel[:, [at for at in chunk_at[:-1] if at < n_chunks], 0] = True  # each frame 0
    table = np.empty((n_chunks, 2, fpc + 1), np.int64)
    keep = np.empty(table.shape, bool)
    table[:, :, 0] = vocab.tag_s0, vocab.tag_s1
    table[:, :, 1:] = frames.transpose(1, 0, 2)
    keep[:, :, 1:] = novel.transpose(1, 0, 2)
    keep[:, 0, 0] = True
    novel[1].any(axis=1, out=keep[:, 1, 0])
    wire = table[keep]
    offsets = np.zeros(n_chunks + 1, np.int64)  # of each chunk's tag_s0, and the wire's end
    np.cumsum(keep.sum(axis=(1, 2)), out=offsets[1:])
    bounds = offsets.tolist()
    # a copy, so that no dialogue's wire keeps the batch's alive
    return [(wire[bounds[a] : bounds[b]].copy(), offsets[a:b] - bounds[a])
            for a, b in zip(chunk_at, chunk_at[1:])]


def deduplicate(
    s0: Sequence[int], s1: Sequence[int], chunk_ms: int, vocab: Vocab
) -> DedupDialogue:
    """Run-length reduction of both channels: ``encode`` read back by ``parse``."""
    ((wire, _),) = encode([(s0, s1)], chunk_ms, vocab)
    return parse(wire.tolist(), vocab, chunk_ms)


def interpolate(d: DedupDialogue) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reconstruct both full-rate channels from deduplicated chunks.

    A chunk's k novel tokens fill its m frame slots floor(m/k) each, the
    earliest tokens taking the m mod k leftover slots. A chunk with no
    novel tokens repeats the channel's last reconstructed token; if that
    happens in a channel's very first chunk the first silence token is
    used and an EmptyCarryOverWarning is issued.
    """
    m = d.frames_per_chunk
    channels: tuple[list[int], list[int]] = ([], [])
    carry: list[int | None] = [None, None]
    for chunk in d.chunks:
        for c, novels in enumerate(chunk):
            frames = channels[c]
            if novels:
                base, extra = divmod(m, len(novels))
                for i, tok in enumerate(novels):
                    frames.extend([tok] * (base + (i < extra)))
                carry[c] = novels[-1]
            else:
                if carry[c] is None:
                    carry[c] = d.vocab.first_silence
                    warnings.warn(
                        f"channel {c} starts with an empty chunk; filling with "
                        f"silence token {carry[c]}",
                        EmptyCarryOverWarning,
                        stacklevel=2,
                    )
                frames.extend([carry[c]] * m)
    return tuple(channels[0]), tuple(channels[1])


def encode_dialogue(d: DedupDialogue) -> tuple[np.ndarray, np.ndarray]:
    """The wire form of ``d`` as an int64 array, and the offset in it of
    each chunk's tag_s0, as ``encode`` gives them: per chunk tag_s0 and
    the channel-0 novels, then, if channel 1 has novels, tag_s1 and those."""
    tag_s0, tag_s1 = d.vocab.tag_s0, d.vocab.tag_s1
    wire: list[int] = []
    starts: list[int] = []
    for s0, s1 in d.chunks:
        starts.append(len(wire))
        wire.append(tag_s0)
        wire.extend(s0)
        if s1:
            wire.append(tag_s1)
            wire.extend(s1)
    return np.array(wire, dtype=np.int64), np.array(starts, dtype=np.int64)


def flatten(d: DedupDialogue) -> list[int]:
    """The wire form of ``d`` as a list of extended-vocabulary ids."""
    return encode_dialogue(d)[0].tolist()


def parse(tokens: list[int], vocab: Vocab, chunk_ms: int) -> DedupDialogue:
    """Inverse of :func:`flatten`.

    It checks only where the tags stand, raising MalformedSequence on a
    leading token other than tag_s0, a second tag_s1 in one chunk, or a
    tag_s1 with no novel token after it; ``DedupDialogue`` checks the rest.
    """
    tag_s0, tag_s1 = vocab.tag_s0, vocab.tag_s1
    if tokens and tokens[0] != tag_s0:
        raise MalformedSequence(f"sequence must start with tag_s0, got {tokens[0]}")
    wire = [*tokens, tag_s0]  # so the last chunk ends at a tag_s0 too
    chunks: list[DedupChunk] = []
    start = 0
    while start < len(tokens):
        end = wire.index(tag_s0, start + 1)
        body = wire[start + 1 : end]
        s0, s1 = body, []
        if tag_s1 in body:
            k = body.index(tag_s1)
            s0, s1 = body[:k], body[k + 1 :]
            if tag_s1 in s1:
                raise MalformedSequence(f"chunk {len(chunks)}: double tag_s1")
            if not s1:
                raise MalformedSequence(f"chunk {len(chunks)}: tag_s1 present but channel 1 "
                                        f"has no novel tokens")
        chunks.append(DedupChunk(tuple(s0), tuple(s1)))
        start = end
    return DedupDialogue(vocab=vocab, chunk_ms=chunk_ms, chunks=tuple(chunks))
