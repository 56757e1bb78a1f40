"""Continuation-mode generation and the latency-tolerant interaction loop.

Decoding is grammar-constrained over the wire format: the channel-0 tag
opens every chunk, a channel's novel token may never equal its previous
novel token, the channel-1 tag implies at least one novel token, and
per-chunk novel counts are capped at the chunk's frame slots. Stopping a
channel's novel list is the act of sampling either tag; whether channel 1
speaks in a chunk is always decided by a dedicated two-way draw so that
estimation and free-running generation share one sampling discipline. A
list that fills every slot is cut there, with no further draw, and counted
as a truncation.

The interaction loop runs both sides chunk-by-chunk. To emit its chunk at
step t, an agent holds the other side's actual chunks only up to
t - latency and fills the missing window with freshly sampled estimates;
arrived actual chunks replace estimates in every later context.

Each side is one incremental agent. It starts from a parsed prompt, a
``DedupDialogue``, whose chunks it appends one by one; the wire format is
never read back. Every run needs a prompt, which may have no chunks; it
carries the run's vocabulary and chunk size, so an ``InteractionConfig``
holds only the latency, the run's length and the sampler. Its three
operations:
*receive* an arrived chunk, which appends to its base context; *estimate*
the missing window, which appends past a mark at the base's end; and
*emit* its own part of the chunk, after which the context is cut back to
the mark. The base is append-only and the window holds at most
``latency`` chunks, so a step costs the same however long the session has
run. ``continue_dialogue`` and ``estimate_user_chunk`` are one agent each;
``simulate_interaction`` is two agents (or one and a script) plus the
delay line between them. Each estimate is recorded once, on the step of
the chunk it estimates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import SourceExhausted
# perfbench/layers.py rebinds sample_constrained, flatten and parse here: keep them bound
from .ngram import NgramModel, SamplerConfig, sample_constrained
from .tokens import DedupChunk, DedupDialogue, Vocab, flatten, parse


@dataclass(frozen=True)
class InteractionConfig:
    """The settings of a run that its prompt does not carry; the prompt
    gives the vocabulary and the chunk size."""

    latency_chunks: int = 1
    max_chunks: int = 50
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self) -> None:
        if self.latency_chunks < 0:
            raise ValueError(f"latency_chunks must be >= 0, got {self.latency_chunks}")
        if self.max_chunks < 1:
            raise ValueError(f"max_chunks must be >= 1, got {self.max_chunks}")
        if self.latency_chunks > self.max_chunks:
            raise ValueError(f"latency_chunks ({self.latency_chunks}) must not exceed "
                             f"max_chunks ({self.max_chunks})")


@dataclass
class StepRecord:
    """One generated chunk: what the model emitted, what the user actually
    said, and the context the model saw when emitting.

    ``context_snapshot`` is that context: the agent's base context up to
    ``mark`` (the chunks that had fully arrived, shared with every other
    record of the run and never rewritten) followed by this step's
    ``window`` of estimated chunks. It is built on access, so a run's
    records take memory linear in its length. ``to_dict`` leaves it out;
    it can be rebuilt from a serialised transcript (see
    ``InteractionTranscript``).

    ``estimate_history`` holds the model's estimates of this chunk's user
    part, oldest first; ``user_estimated`` is the last of them, or None.
    """

    index: int
    llm_chunk: list[int]
    user_actual: list[int]
    estimate_history: list[list[int]]
    truncations: int
    base: list[int] = field(repr=False)
    mark: int
    window: list[int]

    @property
    def user_estimated(self) -> list[int] | None:
        return self.estimate_history[-1] if self.estimate_history else None

    @property
    def context_snapshot(self) -> list[int]:
        return self.base[: self.mark] + self.window

    @property
    def context_snapshot_len(self) -> int:
        return self.mark + len(self.window)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "llm_chunk": self.llm_chunk,
            "user_actual": self.user_actual,
            "estimate_history": self.estimate_history,
            "context_snapshot_len": self.context_snapshot_len,
            "truncations": self.truncations,
        }


@dataclass
class InteractionTranscript:
    """A run of ``simulate_interaction``.

    ``to_json_dict`` records each value once: ``config`` (latency,
    ``max_chunks`` and sampler), ``prompt_chunks``, ``dialogue`` (with the
    vocabulary and chunk size), ``user_truncations`` and, per step,
    ``index``, ``llm_chunk``, ``user_actual``, ``estimate_history``,
    ``context_snapshot_len`` and ``truncations``. What it leaves out is
    derived from the rest: the run's seed is ``config.sampler.seed``, its
    chunk size ``dialogue.chunk_ms``, and a step's ``user_estimated`` the
    last entry of its ``estimate_history`` (None if empty); overflow
    always truncates.

    The context snapshot is left out too, since it would make a transcript
    quadratic in length. The snapshot of step t is rebuilt from
    ``dialogue``, ``steps`` and ``latency_chunks`` (L): it is the wire
    form of chunks 0..t-1 in which chunks below ``max(prompt_chunks,
    t - L)`` are actual and, for every later chunk j, channel 0 is actual
    and channel 1 is ``estimate_history[t - j - 1]`` of step j.
    """

    config: InteractionConfig
    prompt_chunks: int
    steps: list[StepRecord]
    dialogue: DedupDialogue
    user_truncations: int = 0

    def to_json_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "prompt_chunks": self.prompt_chunks,
            "steps": [s.to_dict() for s in self.steps],
            "dialogue": dialogue_to_json_dict(self.dialogue),
            "user_truncations": self.user_truncations,
        }


def dialogue_to_json_dict(d: DedupDialogue) -> dict:
    return {
        "vocab_size": d.vocab.size,
        "frame_ms": d.vocab.frame_ms,
        "silence": sorted(d.vocab.silence_tokens),
        "chunk_ms": d.chunk_ms,
        "chunks": [
            {"s0": list(c.s0_novel), "s1": list(c.s1_novel)} for c in d.chunks
        ],
    }


class _Agent:
    """One side of a dialogue, decoding incrementally; it speaks channel
    ``side``.

    The agent owns its model, sampler config, RNG and allowed sets; one
    context list, whose prefix is an append-only base of the chunks that
    have fully arrived; and the last novel unit of each channel in that
    base. The base starts as the ``prompt`` dialogue, appended chunk by
    chunk, so the last novels are tracked from the first token on; the
    prompt also gives the vocabulary and the chunk size. Its three
    operations:

    * ``receive`` an arrived chunk of the other side. Every chunk whose
      two parts are now both known is appended to the base.
    * estimate the missing window (the first half of ``emit``): past a
      mark at the base's end, append chunk by chunk its own known parts
      and freshly sampled estimates of the other side's parts that are
      still in flight.
    * ``emit`` its own part of the next chunk, sampled after the window;
      the context is then cut back to the mark with ``del ctx[mark:]``.

    The draws come from the one RNG in context order, so a step's window
    estimates are drawn before its emission. ``sample`` and ``append``
    extend the base by one channel part, drawn or given; continuation and
    single-chunk estimation need nothing else.
    """

    def __init__(
        self,
        model: NgramModel,
        cfg: SamplerConfig,
        rng: np.random.Generator,
        prompt: DedupDialogue,
        side: int = 0,
    ):
        vocab = prompt.vocab
        if model.vocab_ext != vocab.extended_size:
            raise ValueError(
                f"model vocab_ext={model.vocab_ext} does not match vocab extended size "
                f"{vocab.extended_size}"
            )
        self.model = model
        self.vocab = vocab
        self.fpc = prompt.frames_per_chunk
        self.cfg = cfg
        self.rng = rng
        self.truncations = 0
        # sorted allowed sets: units, and units followed by both tags
        self._units = np.arange(vocab.size, dtype=np.int64)
        self._units_tags = np.arange(vocab.extended_size, dtype=np.int64)
        self._tags = self._units_tags[vocab.size :]
        self.side = side
        self.ctx: list[int] = []
        self.last: list[int | None] = [None, None]
        for chunk in prompt.chunks:
            self.append(0, chunk.s0_novel)
            self.append(1, chunk.s1_novel)
        self.mine: deque[list[int]] = deque()  # own parts not yet in the base
        self.theirs: deque[list[int]] = deque()  # arrived parts not yet in the base

    def _allowed(self, last_tok: int | None, tags: bool) -> np.ndarray:
        """Every unit except ``last_tok``, plus both tags if ``tags``."""
        ids = self._units_tags if tags else self._units
        if last_tok is None:
            return ids
        return np.concatenate((ids[:last_tok], ids[last_tok + 1 :]))

    def _draw(self, allowed: np.ndarray) -> int:
        return sample_constrained(self.model, self.ctx, allowed, self.cfg, self.rng)

    def append(self, channel: int, novels: Sequence[int]) -> None:
        vocab = self.vocab
        if channel == 0:
            self.ctx.append(vocab.tag_s0)
        elif novels:
            self.ctx.append(vocab.tag_s1)
        self.ctx.extend(novels)
        if novels:
            self.last[channel] = novels[-1]

    def sample(self, channel: int) -> list[int]:
        """Draw one channel's novel tokens for the current chunk and append
        their wire form.

        Channel 1 first takes a two-way draw between the tags: does it
        speak this chunk at all? If so, at least one unit follows.
        Sampling either tag stops the list (the tag itself is not
        appended; chunk structure is the caller's job).
        """
        vocab = self.vocab
        if channel == 0:
            self.ctx.append(vocab.tag_s0)
        elif self._draw(self._tags) == vocab.tag_s1:
            self.ctx.append(vocab.tag_s1)
        else:
            return []
        last_tok = self.last[channel]
        novels: list[int] = []
        while True:
            if len(novels) >= self.fpc:
                self.truncations += 1
                break
            tok = self._draw(self._allowed(last_tok, channel == 0 or bool(novels)))
            if tok >= vocab.size:
                break
            novels.append(tok)
            self.ctx.append(tok)
            last_tok = tok
        if novels:
            self.last[channel] = last_tok
        return novels

    def receive(self, novels: list[int]) -> None:
        self.theirs.append(novels)
        self._settle()

    def _settle(self) -> None:
        while self.mine and self.theirs:
            own, other = self.mine.popleft(), self.theirs.popleft()
            self.append(0, own if self.side == 0 else other)
            self.append(1, other if self.side == 0 else own)

    def _estimate_window(self) -> list[list[int]]:
        """Append the chunks between the base and the own part to emit;
        returns the other side's estimated parts in chunk order."""
        estimates = []
        for k in range(len(self.mine) + 1):
            for channel in (0, 1):
                if channel == self.side:
                    if k == len(self.mine):
                        break
                    self.append(channel, self.mine[k])
                elif k < len(self.theirs):
                    self.append(channel, self.theirs[k])
                else:
                    estimates.append(self.sample(channel))
        return estimates

    def emit(self) -> tuple[list[int], list[list[int]], int, list[int]]:
        """Own part of the next chunk, with this step's window estimates,
        mark and window tokens (the context it was sampled from is
        ``ctx[:mark] + window``)."""
        mark, last = len(self.ctx), list(self.last)
        estimates = self._estimate_window()
        window = self.ctx[mark:]
        novels = self.sample(self.side)
        del self.ctx[mark:]
        self.last = last
        self.mine.append(novels)
        self._settle()
        return novels, estimates, mark, window


def continue_dialogue(
    model: NgramModel,
    prompt: DedupDialogue,
    n_chunks: int,
    cfg: SamplerConfig | None = None,
    forced_user: Sequence[Sequence[int]] | None = None,
) -> DedupDialogue:
    """Autoregressively extend a dialogue by ``n_chunks`` chunks.

    With ``forced_user`` the channel-1 side of each new chunk is spliced
    in verbatim (teacher forcing) instead of being sampled.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if forced_user is not None and len(forced_user) != n_chunks:
        raise ValueError("forced_user must provide one chunk per generated chunk")
    checked = parse(flatten(prompt), prompt.vocab, prompt.chunk_ms)
    cfg = cfg if cfg is not None else SamplerConfig()
    agent = _Agent(model, cfg, np.random.default_rng(cfg.seed), checked)
    chunks = list(prompt.chunks)
    for i in range(n_chunks):
        s0 = agent.sample(0)
        if forced_user is None:
            s1 = agent.sample(1)
        else:
            s1 = list(forced_user[i])
            agent.append(1, s1)
        chunks.append(DedupChunk(s0_novel=tuple(s0), s1_novel=tuple(s1)))
    return DedupDialogue(vocab=prompt.vocab, chunk_ms=prompt.chunk_ms, chunks=tuple(chunks))


def estimate_user_chunk(
    model: NgramModel,
    context: Sequence[int],
    vocab: Vocab,
    chunk_ms: int,
    cfg: SamplerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """One chunk of the channel-1 side given a wire-format context that
    ends at a channel-1 boundary (right after the chunk's channel-0
    content). A context that does not parse raises ``MalformedSequence``."""
    cfg = cfg if cfg is not None else SamplerConfig()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    agent = _Agent(model, cfg, rng, parse(list(context), vocab, chunk_ms))
    return agent.sample(1)


def simulate_interaction(
    model_llm: NgramModel,
    user_source: NgramModel | DedupDialogue,
    cfg: InteractionConfig,
    prompt: DedupDialogue,
) -> InteractionTranscript:
    """Run the lockstep protocol between the model and a user source.

    The user source is either a second model (an agent on channel 1 that
    runs the same estimate-ahead protocol from its side) or a scripted
    dialogue whose channel-1 chunks are revealed with the configured
    latency. At step t the model's agent has the user's chunks below
    t - latency; a model user has the model's chunks below t - latency + 1,
    since the model speaks first within a chunk. The prompt, required but
    possibly empty, carries the run's vocabulary and chunk size, which a
    scripted user must match.
    """
    scripted = isinstance(user_source, DedupDialogue)
    vocab = prompt.vocab
    checked = parse(flatten(prompt), prompt.vocab, prompt.chunk_ms)
    L = cfg.latency_chunks
    p_chunks = len(prompt.chunks)
    if cfg.max_chunks <= p_chunks:
        raise ValueError(
            f"max_chunks ({cfg.max_chunks}) must exceed prompt length ({p_chunks})"
        )
    if scripted:
        if user_source.chunk_ms != prompt.chunk_ms:
            raise ValueError(f"scripted user has chunk_ms {user_source.chunk_ms}, "
                             f"the prompt {prompt.chunk_ms}")
        if user_source.vocab != vocab:
            raise ValueError(f"scripted user has {user_source.vocab}, the prompt {vocab}")
        if len(user_source.chunks) < cfg.max_chunks:
            raise SourceExhausted(
                f"scripted user has {len(user_source.chunks)} chunks, "
                f"run needs {cfg.max_chunks}"
            )

    llm_novel = [list(c.s0_novel) for c in prompt.chunks]
    usr_novel = [list(c.s1_novel) for c in prompt.chunks]

    agent_a = _Agent(model_llm, cfg.sampler, np.random.default_rng(cfg.sampler.seed),
                     checked, side=0)
    agent_b = None
    if not scripted:
        agent_b = _Agent(user_source, cfg.sampler,
                         np.random.default_rng([cfg.sampler.seed, 1]), checked, side=1)

    records: list[StepRecord] = []
    trunc_before = 0

    for t in range(p_chunks, cfg.max_chunks):
        # the delay line: the user's chunk t-L-1 reaches the model now
        if t - L - 1 >= p_chunks:
            agent_a.receive(usr_novel[t - L - 1])
        s0, estimates, mark, window = agent_a.emit()
        llm_novel.append(s0)
        # the window's estimates are of chunks t - len(estimates) .. t - 1
        for rec, est in zip(records[len(records) - len(estimates):], estimates):
            rec.estimate_history.append(est)

        if scripted:
            usr_t = list(user_source.chunks[t].s1_novel)
        else:
            # ... and the model's chunk t-L reaches the user
            if t - L >= p_chunks:
                agent_b.receive(llm_novel[t - L])
            usr_t = agent_b.emit()[0]
        usr_novel.append(usr_t)

        records.append(
            StepRecord(
                index=t,
                llm_chunk=list(s0),
                user_actual=list(usr_t),
                estimate_history=[],
                truncations=agent_a.truncations - trunc_before,
                base=agent_a.ctx,
                mark=mark,
                window=window,
            )
        )
        trunc_before = agent_a.truncations

    chunks = tuple(
        DedupChunk(s0_novel=tuple(a), s1_novel=tuple(b))
        for a, b in zip(llm_novel, usr_novel)
    )
    dialogue = DedupDialogue(vocab=vocab, chunk_ms=prompt.chunk_ms, chunks=chunks)
    return InteractionTranscript(
        config=cfg,
        prompt_chunks=p_chunks,
        steps=records,
        dialogue=dialogue,
        user_truncations=agent_b.truncations if agent_b is not None else 0,
    )
