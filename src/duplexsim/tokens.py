"""Chunk-synchronous two-channel token format and its codec.

A dialogue is two equal-length tuples of unit ids, one id per frame, under
one ``Vocab``: a channel's position (0 or 1) is its speaker, and the
``Vocab`` alone holds the frame size and the silence set. The wire format
partitions wall-clock time into chunks of a fixed duration and, per chunk,
keeps only the *novel* tokens of each channel (those that differ from the
immediately preceding frame of the same channel), delimited by speaker tags.
The channel-0 tag opens every chunk; the channel-1 tag appears only when
channel 1 contributed novel tokens. The inverse direction
(``interpolate``) redistributes each chunk's novel tokens over the chunk's
frame slots by equal repetition.

``encode`` is the one encoder: it places every wire token with one
``np.lexsort`` keyed by (chunk, slot, frame), where the slots of a chunk
are 0 tag_s0, 1 the channel-0 novels, 2 tag_s1 and 3 the channel-1
novels. ``deduplicate`` is ``encode`` read back by ``parse``.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (
    BadChunkSize,
    ChunkOverflow,
    EmptyCarryOverWarning,
    LengthMismatch,
    MalformedSequence,
)

DEFAULT_UNIT_COUNT = 501
DEFAULT_FRAME_MS = 40


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


@dataclass(frozen=True)
class ChunkedDialogue:
    """Two synchronised channels partitioned into fixed-duration chunks.

    ``chunks[i]`` is a pair ``(s0_frames, s1_frames)``, each holding exactly
    ``frames_per_chunk`` unit ids.
    """

    vocab: Vocab
    chunk_ms: int
    chunks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def frames_per_chunk(self) -> int:
        return self.vocab.frames_per_chunk(self.chunk_ms)

    def channel(self, c: int) -> tuple[int, ...]:
        """Concatenated full-rate frames for channel ``c``."""
        out: list[int] = []
        for pair in self.chunks:
            out.extend(pair[c])
        return tuple(out)

    def __len__(self) -> int:
        return len(self.chunks)


@dataclass(frozen=True)
class DedupChunk:
    """Novel tokens of one chunk, per channel."""

    s0_novel: tuple[int, ...] = ()
    s1_novel: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "s0_novel", tuple(self.s0_novel))
        object.__setattr__(self, "s1_novel", tuple(self.s1_novel))

    @property
    def s1_tag_present(self) -> bool:
        # The channel-1 tag is emitted iff channel 1 has novel tokens.
        return len(self.s1_novel) > 0


@dataclass(frozen=True)
class DedupDialogue:
    """The model-facing deduplicated form of a chunked dialogue."""

    vocab: Vocab
    chunk_ms: int
    chunks: tuple[DedupChunk, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunks", tuple(self.chunks))

    @property
    def frames_per_chunk(self) -> int:
        return self.vocab.frames_per_chunk(self.chunk_ms)

    def __len__(self) -> int:
        return len(self.chunks)


def chunk_streams(
    s0: Sequence[int], s1: Sequence[int], chunk_ms: int, vocab: Vocab
) -> ChunkedDialogue:
    """Partition two equal-length channels into synchronous chunks,
    right-padding both with the vocabulary's first silence unit to a whole
    number of chunks."""
    if len(s0) != len(s1):
        raise LengthMismatch(f"channel lengths differ: {len(s0)} vs {len(s1)}")
    fpc = vocab.frames_per_chunk(chunk_ms)
    for channel in (s0, s1):
        for t in channel:
            if not 0 <= t < vocab.size:
                raise ValueError(f"token {t} outside unit range [0, {vocab.size})")

    f0, f1 = list(s0), list(s1)
    remainder = len(f0) % fpc
    if remainder:
        fill = [vocab.first_silence] * (fpc - remainder)
        f0 += fill
        f1 += fill

    chunks = tuple(
        (tuple(f0[i : i + fpc]), tuple(f1[i : i + fpc]))
        for i in range(0, len(f0), fpc)
    )
    return ChunkedDialogue(vocab=vocab, chunk_ms=chunk_ms, chunks=chunks)


def encode(
    s0: Sequence[int], s1: Sequence[int], chunk_ms: int, vocab: Vocab
) -> tuple[np.ndarray, np.ndarray]:
    """The wire form of two equal-length channels as an int64 array, and
    the offset in it of each chunk's tag_s0. Both channels are right-padded
    with the first silence unit to whole chunks, as in ``chunk_streams``.
    Frame 0 is novel, and a novel lands in the chunk of its frame, so
    run-length state carries across chunk bounds."""
    if len(s0) != len(s1):
        raise LengthMismatch(f"channel lengths differ: {len(s0)} vs {len(s1)}")
    fpc = vocab.frames_per_chunk(chunk_ms)
    n_chunks = -(-len(s0) // fpc)
    pad = (vocab.first_silence,) * (n_chunks * fpc - len(s0))
    try:
        frames = np.fromiter(chain(s0, pad, s1, pad), np.int64, 2 * n_chunks * fpc).reshape(2, -1)
        in_range = frames.min(initial=0) >= 0 and frames.max(initial=0) < vocab.size
    except OverflowError:  # an id past int64, so past the range too
        in_range = False
    if not in_range:
        bad = next(t for t in (*s0, *s1) if not 0 <= t < vocab.size)
        raise ValueError(f"token {bad} outside unit range [0, {vocab.size})")
    novel = np.ones(frames.shape, dtype=bool)
    np.not_equal(frames[:, 1:], frames[:, :-1], out=novel[:, 1:])
    channel, frame = np.nonzero(novel)
    chunk = frame // fpc
    # (chunk, slot, frame) keys: tag_s0 in every chunk, tag_s1 where channel 1 has novels
    tagged = np.flatnonzero(np.bincount(chunk[channel == 1], minlength=n_chunks))
    chunks = np.concatenate((np.arange(n_chunks), tagged, chunk))
    slots = np.concatenate((np.zeros(n_chunks, int), np.full(len(tagged), 2), 2 * channel + 1))
    frames_key = np.concatenate((np.zeros(n_chunks + len(tagged), int), frame))
    order = np.lexsort((frames_key, slots, chunks))
    wire = np.concatenate((np.full(n_chunks, vocab.tag_s0), np.full(len(tagged), vocab.tag_s1),
                           frames[channel, frame]))[order]
    return wire, np.flatnonzero(slots[order] == 0)


def deduplicate(d: ChunkedDialogue) -> DedupDialogue:
    """Run-length reduction of both channels: ``encode`` read back by ``parse``."""
    wire, _ = encode(d.channel(0), d.channel(1), d.chunk_ms, d.vocab)
    return parse(wire.tolist(), d.vocab, d.chunk_ms)


def _spread(novel: tuple[int, ...], m: int) -> list[int]:
    # k novel tokens over m slots: floor(m/k) each, earliest tokens get the
    # m mod k leftover slots.
    k = len(novel)
    base, extra = divmod(m, k)
    frames: list[int] = []
    for i, tok in enumerate(novel):
        frames.extend([tok] * (base + (1 if i < extra else 0)))
    return frames


def interpolate(d: DedupDialogue) -> ChunkedDialogue:
    """Reconstruct full-rate chunks from deduplicated ones.

    A chunk with no novel tokens repeats the channel's last reconstructed
    token; if that happens in a channel's very first chunk the first
    silence token is used and an EmptyCarryOverWarning is issued.
    """
    m = d.frames_per_chunk
    carry: list[int | None] = [None, None]
    chunks: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for idx, chunk in enumerate(d.chunks):
        pair: list[tuple[int, ...]] = []
        for c, novel in ((0, chunk.s0_novel), (1, chunk.s1_novel)):
            k = len(novel)
            if k > m:
                raise ChunkOverflow(
                    f"chunk {idx} channel {c}: {k} novel tokens > {m} slots"
                )
            if k == 0:
                fill = carry[c]
                if fill is None:
                    fill = d.vocab.first_silence
                    warnings.warn(
                        f"channel {c} starts with an empty chunk; filling with "
                        f"silence token {fill}",
                        EmptyCarryOverWarning,
                        stacklevel=2,
                    )
                    carry[c] = fill
                frames = [fill] * m
            else:
                frames = _spread(novel, m)
                carry[c] = novel[-1]
            pair.append(tuple(frames))
        chunks.append((pair[0], pair[1]))
    return ChunkedDialogue(vocab=d.vocab, chunk_ms=d.chunk_ms, chunks=tuple(chunks))


def chunk_wire(vocab: Vocab, chunk: DedupChunk) -> list[int]:
    """Wire form of a single chunk: tag_s0, s0 novels, then the optional
    tag_s1 block."""
    wire = [vocab.tag_s0, *chunk.s0_novel]
    if chunk.s1_tag_present:
        wire.append(vocab.tag_s1)
        wire.extend(chunk.s1_novel)
    return wire


def flatten(d: DedupDialogue) -> list[int]:
    """Concatenated wire form of all chunks (extended-vocabulary ids)."""
    out: list[int] = []
    for chunk in d.chunks:
        out.extend(chunk_wire(d.vocab, chunk))
    return out


def parse(tokens: list[int], vocab: Vocab, chunk_ms: int) -> DedupDialogue:
    """Inverse of :func:`flatten`.

    Raises MalformedSequence on a leading non-tag token, a repeated or
    empty tag_s1 block, per-chunk novel counts above the chunk capacity,
    ids outside the extended vocabulary, or a novel equal to its channel's
    previous novel (in this chunk or an earlier one), which no encoding
    emits.
    """
    fpc, tag_s0, tag_s1 = vocab.frames_per_chunk(chunk_ms), vocab.tag_s0, vocab.tag_s1
    if not tokens:
        return DedupDialogue(vocab=vocab, chunk_ms=chunk_ms, chunks=())
    if tokens[0] != tag_s0:
        raise MalformedSequence(f"sequence must start with tag_s0, got {tokens[0]}")

    chunks: list[DedupChunk] = []
    s0: list[int] = []
    s1: list[int] = []
    in_s1 = False
    last: list[int | None] = [None, None]  # each channel's latest novel

    def close_chunk() -> None:
        if in_s1 and not s1:
            raise MalformedSequence("tag_s1 present but channel 1 has no novel tokens")
        chunks.append(DedupChunk(s0_novel=tuple(s0), s1_novel=tuple(s1)))

    for pos, tok in enumerate(tokens):
        if tok == tag_s0:
            if pos > 0:
                close_chunk()
            s0, s1, in_s1 = [], [], False
        elif tok == tag_s1:
            if in_s1:
                raise MalformedSequence(f"double tag_s1 in one chunk at position {pos}")
            in_s1 = True
        elif 0 <= tok < vocab.size:
            if tok == last[in_s1]:
                raise MalformedSequence(f"channel {int(in_s1)} repeats its previous "
                                        f"novel {tok} at position {pos}")
            last[in_s1] = tok
            target = s1 if in_s1 else s0
            target.append(tok)
            if len(target) > fpc:
                raise MalformedSequence(
                    f"channel {int(in_s1)} novel count exceeds {fpc} frames per chunk"
                )
        else:
            raise MalformedSequence(f"id {tok} outside extended vocabulary")
    close_chunk()
    return DedupDialogue(vocab=vocab, chunk_ms=chunk_ms, chunks=tuple(chunks))
