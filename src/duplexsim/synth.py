"""Synthetic dual-channel dialogues with controllable turn-taking. This
module only generates; ``metrics`` describes a corpus once it exists.

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

The content chain's draws, numpy's ``integers`` and ``random() >= p_self``,
are read as Python ints from one ``random_raw`` block of PCG64 outputs per
segment with numpy 2's arithmetic, so a seed makes the corpus that one numpy
call per draw makes: ``random() >= p`` is ``raw >= ceil(p * 2**53) << 11``;
``integers(k)`` draws nothing at k = 1 and uses Lemire's method with
rejection, on whole outputs above k = 2**32 and on 32-bit halves up to it,
low half first and the high one buffered. A jump's first 32-bit step is
inline; ``_integers`` draws the rest: the first index, jumps above 2**32,
what follows a rejected half and a backchannel's start. No other draw reads
the half buffer, so a dialogue reads it from the state once, carries it as
two ints, and writes it back once; a segment only ``advance``s back to the
outputs it used. The painter writes content indices, mapped to units once per
dialogue. ``tests/test_synth.py`` pins this to numpy live, against the
per-call painter in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import corpus_io
from .errors import BadDuration, ConfigError
from .tokens import Vocab


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
        if self.vocab.size > 2**63 - 3:  # train's int64 code of an order-1 context
            raise ValueError(f"vocab size must be at most 2**63 - 3, got {self.vocab.size}")
        if (self.successor_count or 1) > 2**63:  # numpy's int64 draws
            raise ValueError("successor_count must be at most 2**63")
        if self.content()[0] == 0:
            raise ValueError("no non-silence units available for content")

    def content(self) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
        """The content alphabet, the non-silence ids of ``unit_range`` in id
        order, as its size and the map from indices to their units. The map
        searches the silence ids inside the range, so no table of ids is built
        and the cost does not grow with the vocabulary."""
        lo, hi = self.unit_range if self.unit_range else (0, self.vocab.size)
        silent = sorted(t for t in self.vocab.silence_tokens if lo <= t < hi)
        # gaps[k] counts the content ids below the k-th silence id
        gaps = np.array([t - lo - k for k, t in enumerate(silent)], dtype=np.int64)
        return hi - lo - len(silent), lambda i: lo + i + np.searchsorted(gaps, i, "right")

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


def _gauss_frames(rng: np.random.Generator, pair: tuple[float, float], frame_ms: int) -> int:
    """Gaussian duration in frames, minimum one frame."""
    ms = rng.normal(pair[0], pair[1])
    return max(1, int(round(ms / frame_ms)))


def _gauss_frames_signed(rng: np.random.Generator, pair: tuple[float, float], frame_ms: int) -> int:
    return int(round(rng.normal(pair[0], pair[1]) / frame_ms))


def _integers(k: int, raws: list[int], pos: int, has: int, buf: int) -> tuple[int, int, int, int]:
    """``Generator.integers(k)`` read from ``raws[pos:]`` and the half buffer
    ``has, buf``: the draw and the new ``pos, has, buf``."""
    bits = 64 if k > 1 << 32 else 32
    while k > 1:
        if bits == 32 and has:
            x, has = buf, 0
        else:
            x = raws[pos]
            pos += 1
            if bits == 32:
                x, buf, has = x & 0xFFFFFFFF, x >> 32, 1
        x *= k
        if x & ((1 << bits) - 1) >= (1 << bits) % k:
            return x >> bits, pos, has, buf
    return 0, pos, has, buf


def _raw_integers(bg: np.random.PCG64, k: int, half: tuple[int, int]) -> tuple[int, tuple]:
    """``Generator.integers(k)`` read from ``bg``'s outputs and the half
    buffer ``half``: the draw and the new buffer."""
    raws = []
    while True:
        raws += bg.random_raw(2).tolist()
        try:
            x, pos, has, buf = _integers(k, raws, 0, *half)
        except IndexError:  # rejected past the block: draw more and read again
            continue
        bg.advance((pos - len(raws)) % 2**128)  # back to pos
        return x, (has, buf)


def _markov_content(bg: np.random.PCG64, style: DialogueStyle, m: int, length: int,
                    half: tuple[int, int]) -> tuple[list[int], tuple[int, int]]:
    """``length`` indices of a self-looping Markov chain over ``m`` content
    units, read from ``bg`` and the half buffer ``half``, and the new buffer.

    With ``successor_count`` set, each unit jumps only within a fixed
    per-unit successor set (sparse transition matrix, learnable by a
    low-order model); otherwise jumps are uniform over the other units.
    """
    if length <= 0 or m == 1:  # integers(1) draws nothing
        return [0] * max(length, 0), half
    successors = style.successor_count
    jump = successors or m - 1
    inline = 1 < jump <= 1 << 32  # integers(jump) on 32-bit halves, inlined below
    floor = (1 << 32) % jump  # Lemire's rejection bound
    moves = math.ceil(style.p_self * 2**53) << 11  # raw >= moves: random() >= p_self
    raws = []
    while True:
        raws += bg.random_raw(2 * length + 2).tolist()  # enough unless draws are rejected
        try:
            idx, pos, has, buf = _integers(m, raws, 0, *half)
            out = []
            for _ in range(length):
                out.append(idx)
                pos += 1
                if raws[pos - 1] >= moves:
                    if inline and has:
                        x, has = buf * jump, 0
                    elif inline:
                        x, buf, has = (raws[pos] & 0xFFFFFFFF) * jump, raws[pos] >> 32, 1
                        pos += 1
                    if inline and x & 0xFFFFFFFF >= floor:
                        j = x >> 32
                    else:  # a jump of 1 or past 2**32, or the halves after a rejected one
                        j, pos, has, buf = _integers(jump, raws, pos, has, buf)
                    if successors is None:
                        idx = (m - 1) if j == idx else j
                    else:
                        idx = (idx + 1 + ((idx * 7 + j * 11) % (m - 1))) % m
            break
        except IndexError:  # draw more and read again
            pass
    bg.advance((pos - len(raws)) % 2**128)  # back to pos; this empties bg's half buffer
    return out, (has, buf)


def _half(bg: np.random.BitGenerator) -> tuple[int, int]:
    """PCG64 ``bg``'s half buffer; ``TypeError`` for another bit generator."""
    if type(bg) is not np.random.PCG64:
        raise TypeError(f"synthesis reads PCG64 outputs, got {type(bg).__name__}")
    state = bg.state
    return state["has_uint32"], state["uinteger"]


def _units(style: DialogueStyle, bg: np.random.PCG64, half: tuple[int, int],
           ch: list[list[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The channels of content indices ``ch``, -1 for silence, as unit ids,
    once the half buffer ``half`` is written back to ``bg``."""
    bg.state = dict(bg.state, has_uint32=half[0], uinteger=half[1])
    units = np.array(ch, dtype=np.int64)
    units = np.where(units < 0, style.vocab.first_silence, style.content()[1](units)).tolist()
    return tuple(units[0]), tuple(units[1])


def generate_dialogue(
    style: DialogueStyle, duration_ms: int, seed
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generate one dialogue; both channels are exactly duration_ms long."""
    frame_ms = style.vocab.frame_ms
    if duration_ms < 0 or duration_ms % frame_ms != 0:
        raise BadDuration(
            f"duration_ms={duration_ms} must be a non-negative multiple of frame_ms={frame_ms}"
        )
    n = duration_ms // frame_ms
    rng = np.random.default_rng(seed)
    bg, m = rng.bit_generator, style.content()[0]
    half, ch = _half(bg), [[-1] * n, [-1] * n]  # content indices, -1 for silence

    def paint(c: int, a: int, b: int) -> None:
        nonlocal half
        out, half = _markov_content(bg, style, m, b - a, half)
        ch[c][a:b] = out[: max(0, n - a)]

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
        # Backchannels live strictly inside the floor-holder's non-final
        # IPUs so they never blur floor transfers.
        other = 1 - speaker
        for a, b in ipus[:-1]:
            if rng.random() < style.backchannel_prob:
                bc_dur = _gauss_frames(rng, style.backchannel_ms, frame_ms)
                lo, hi = a + 1, b - 1 - bc_dur
                if hi >= lo:
                    bc_a, half = _raw_integers(bg, hi - lo + 1, half)
                    paint(other, lo + bc_a, lo + bc_a + bc_dur)
        last_a, last_b = ipus[-1]
        fto = _gauss_frames_signed(rng, style.fto_ms, frame_ms)
        t = max(last_b + fto, last_a + 1)
        speaker = other

    return _units(style, bg, half, ch)


def generate_corpus(
    style: DialogueStyle, count: int, duration_ms: int, seed: int
) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """``{id: (s0, s1)}`` in index order; dialogue ``i`` has the id
    ``d{i:05d}`` and the seed ``[seed, i]``."""
    return {f"d{i:05d}": generate_dialogue(style, duration_ms, [seed, i])
            for i in range(count)}


def generate_stage2_dialogue(
    style: DialogueStyle, n_turns: int, seed
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Alternating-turn dialogue in the exclusive stage-2 shape."""
    rng = np.random.default_rng(seed)
    bg, m = rng.bit_generator, style.content()[0]
    half, ch = _half(bg), [[], []]  # content indices, -1 for silence
    for i in range(n_turns):
        dur = _gauss_frames(rng, style.ipu_ms, style.vocab.frame_ms)
        out, half = _markov_content(bg, style, m, dur, half)
        # trailing silence marks the turn's end on the speaking channel
        gap = _gauss_frames(rng, style.pause_ms, style.vocab.frame_ms)
        ch[i % 2] += out + [-1] * gap
        ch[1 - i % 2] += [-1] * (dur + gap)
    return _units(style, bg, half, ch)

