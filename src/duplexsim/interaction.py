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
a call of ``simulate_interaction`` is one run: two agents (or one and a
script) plus the delay line between them. Each estimate is recorded once,
on the step of the chunk it estimates.

The agent's ``sample`` and ``emit`` are the one implementation of the
grammar. An agent holds no token of its context, only ``code``, the
model's code of it (``NgramModel.code``), and its length: each token the
agent appends updates both, and ``emit`` restores both when it cuts the
context back to the mark. Each draw is one call of
``ngram.sample_constrained``, the library's one draw, looked up as this
module's ``sample_constrained``, so a wrapper bound there sees every draw.
It draws at ``code``, with the allowed ids as a span ``(lo, hi, skip)``:
``[lo, hi)`` but the last novel ``skip``, or None. ``simulate_interaction``
checks its run before the first draw. Within a run the two agents take
turns; their RNGs are separate, so the order of their draws does not
change the bits. Runs share only their models' lazy caches, which change
no draw, so a run's bits do not depend on the runs before it. Only
``tokens`` writes the wire format: ``context_snapshot`` builds the
snapshot's chunks and serialises them with ``flatten``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import MalformedSequence, SourceExhausted
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
    """What generating one chunk added: ``estimate_history`` holds the
    model's estimates of this chunk's user part, oldest first
    (``user_estimated`` is the last of them, or None); ``truncations`` the
    lists the model's agent cut at the chunk's frame slots during the step;
    ``context_snapshot_len`` the length of the context it emitted the chunk
    after, which ``InteractionTranscript.context_snapshot`` rebuilds. The
    chunk itself is ``dialogue.chunks[index]`` of the transcript."""

    index: int
    estimate_history: list[list[int]]
    truncations: int
    context_snapshot_len: int

    @property
    def user_estimated(self) -> list[int] | None:
        return self.estimate_history[-1] if self.estimate_history else None


@dataclass
class InteractionTranscript:
    """A run of ``simulate_interaction``.

    ``to_json_dict`` records ``config`` (latency, ``max_chunks`` and
    sampler), ``prompt_chunks``, ``dialogue`` (with the vocabulary and
    chunk size), ``user_truncations`` and, per step, ``index``,
    ``llm_chunk``, ``user_actual``, ``estimate_history``,
    ``context_snapshot_len`` and ``truncations``. A step's ``llm_chunk``
    and ``user_actual`` repeat the two parts of ``dialogue.chunks[index]``;
    they stay because readers of a transcript take them per step. What it
    leaves out is derived from the rest: the run's seed is
    ``config.sampler.seed``, its chunk size ``dialogue.chunk_ms``, and a
    step's ``user_estimated`` the last entry of its ``estimate_history``
    (None if empty); overflow always truncates. The context snapshots are
    left out too, since they would make a transcript quadratic in length;
    ``context_snapshot`` rebuilds them.
    """

    config: InteractionConfig
    prompt_chunks: int
    steps: list[StepRecord]
    dialogue: DedupDialogue
    user_truncations: int = 0

    def context_snapshot(self, t: int) -> list[int]:
        """The wire-format context the model's agent emitted chunk ``t``
        after: chunks 0..t-1, in which chunks below ``max(prompt_chunks, t -
        latency_chunks)`` are actual and, for every later chunk j, channel 0
        is actual and channel 1 is ``estimate_history[t - j - 1]`` of step
        j. ``ValueError`` unless ``t`` is the index of a step."""
        p, chunks = self.prompt_chunks, self.dialogue.chunks
        if not p <= t < p + len(self.steps):
            raise ValueError(f"t must be a step index in [{p}, {p + len(self.steps)}), "
                             f"got {t}")
        cut = max(p, t - self.config.latency_chunks)
        window = (DedupChunk(c.s0_novel, tuple(self.steps[j - p].estimate_history[t - j - 1]))
                  for j, c in enumerate(chunks[cut:t], cut))
        return flatten(DedupDialogue(self.dialogue.vocab, self.dialogue.chunk_ms,
                                     (*chunks[:cut], *window)))

    def to_json_dict(self) -> dict:
        chunks = self.dialogue.chunks
        return {
            "config": asdict(self.config),
            "prompt_chunks": self.prompt_chunks,
            "steps": [{
                "index": s.index,
                "llm_chunk": list(chunks[s.index].s0_novel),
                "user_actual": list(chunks[s.index].s1_novel),
                "estimate_history": s.estimate_history,
                "context_snapshot_len": s.context_snapshot_len,
                "truncations": s.truncations,
            } for s in self.steps],
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

    The agent owns its model, sampler config and ``rng``, anything with
    ``random()``, such as ``_Uniforms``. Its context, whose
    prefix is an append-only base of the chunks that have fully arrived, it
    holds as ``code``, the model's code of it, and ``length``, its number of
    tokens, with the last novel unit of each channel in it. The base starts
    as the ``prompt`` dialogue, appended chunk by chunk, so the last novels
    are tracked from the first token on; the prompt also gives the
    vocabulary and the chunk size. Its three operations:

    * ``receive`` an arrived chunk of the other side. Every chunk whose
      two parts are now both known is appended to the base.
    * estimate the missing window (the first half of ``emit``): past a
      mark at the base's end, append chunk by chunk its own known parts
      and freshly sampled estimates of the other side's parts that are
      still in flight.
    * ``emit`` its own part of the next chunk, sampled after the window;
      the context is then cut back to the mark, restoring the code, the
      length and the last novels of the mark.

    The draws come from the one RNG in context order, so a step's window
    estimates are drawn before its emission. ``sample`` and ``append``
    extend the base by one channel part, drawn or given; continuation and
    single-chunk estimation need nothing else.
    """

    def __init__(
        self,
        model: NgramModel,
        cfg: SamplerConfig,
        rng,
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
        self.side = side
        self.length = 0
        # the model's code of the context (see ngram.NgramModel.code), carried
        # along token by token: each is the last one's times radix plus the
        # token, modulo top, which drops the digit that left the window
        self.radix = model.vocab_ext + 1
        self.top = self.radix ** model.order
        self.code = self.top - 1  # begin markers only
        self.last: list[int | None] = [None, None]
        for chunk in prompt.chunks:
            self.append(0, chunk.s0_novel)
            self.append(1, chunk.s1_novel)
        self.mine: deque[list[int]] = deque()  # own parts not yet in the base
        self.theirs: deque[list[int]] = deque()  # arrived parts not yet in the base

    def append(self, channel: int, novels: Sequence[int]) -> None:
        if channel == 1 and not novels:  # a silent channel 1 has no tag
            return
        # a given part may hold numpy ints; the code and the last novels hold ints
        tokens = (self.vocab.tag_s1 if channel else self.vocab.tag_s0, *map(int, novels))
        if novels:
            self.last[channel] = tokens[-1]
        code, radix, top = self.code, self.radix, self.top
        for tok in tokens:
            code = (code * radix + tok) % top
        self.code = code
        self.length += len(tokens)

    def sample(self, channel: int) -> list[int]:
        """Draw one channel's novel tokens for the current chunk and append
        their wire form.

        Channel 1 first takes a two-way draw between the tags: does it
        speak this chunk at all? If so, at least one unit follows.
        Sampling either tag stops the list (the tag itself is not
        appended; chunk structure is the caller's job).
        """
        vocab, model, rng, cfg, fpc = self.vocab, self.model, self.rng, self.cfg, self.fpc
        units, ext = vocab.size, vocab.extended_size
        if channel == 1 and sample_constrained(model, self.code, units, ext, None, rng,
                                               cfg) != vocab.tag_s1:
            return []
        tok = vocab.tag_s1 if channel else vocab.tag_s0
        code, radix, top = self.code, self.radix, self.top
        last_tok = self.last[channel]
        # the tags end a list, but channel 1 speaks at least one unit
        hi = units if channel else ext
        novels: list[int] = []
        while True:
            code = (code * radix + tok) % top  # the tag, then each novel
            if len(novels) >= fpc:
                self.truncations += 1
                break
            tok = sample_constrained(model, code, 0, hi, last_tok, rng, cfg)
            if tok >= units:
                break
            novels.append(tok)
            last_tok, hi = tok, ext
        if novels:
            self.last[channel] = last_tok
        self.code = code
        self.length += 1 + len(novels)
        return novels

    def receive(self, novels: list[int]) -> None:
        self.theirs.append(novels)
        self._settle()

    def _settle(self) -> None:
        while self.mine and self.theirs:
            own, other = self.mine.popleft(), self.theirs.popleft()
            self.append(0, own if self.side == 0 else other)
            self.append(1, other if self.side == 0 else own)

    def emit(self) -> tuple[list[int], list[list[int]], int]:
        """Own part of the next chunk, with this step's window estimates and
        the length of the context it was sampled from. The window holds own
        parts not yet in the base and the other side's arrived or estimated
        parts."""
        mark, last, code = self.length, list(self.last), self.code
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
        length = self.length
        novels = self.sample(self.side)
        self.last, self.code, self.length = last, code, mark
        self.mine.append(novels)
        self._settle()
        return novels, estimates, length


class _Uniforms:
    """``default_rng(seed)`` read in blocks: ``random()`` pops the next double
    of a ``random(256)`` block, the one a ``random()`` call per draw returns."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        blocks = iter(lambda: rng.random(256).tolist(), None)  # never ends
        self.random = partial(next, chain.from_iterable(blocks))


def _check_user(prompt: DedupDialogue, parts: Sequence[Sequence[int]]) -> None:
    """``MalformedSequence`` unless channel-1 ``parts`` can follow ``prompt``."""
    DedupDialogue(prompt.vocab, prompt.chunk_ms,
                  (*prompt.chunks, *(DedupChunk((), s1) for s1 in parts)))


def continue_dialogue(
    model: NgramModel,
    prompt: DedupDialogue,
    n_chunks: int,
    cfg: SamplerConfig | None = None,
    forced_user: Sequence[Sequence[int]] | None = None,
) -> DedupDialogue:
    """Autoregressively extend a dialogue by ``n_chunks`` chunks.

    With ``forced_user`` the channel-1 side of each new chunk is spliced
    in verbatim (teacher forcing) instead of being sampled; a forced part
    that breaks the grammar raises ``MalformedSequence`` before any draw.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if forced_user is not None:
        if len(forced_user) != n_chunks:
            raise ValueError("forced_user must provide one chunk per generated chunk")
        _check_user(prompt, forced_user)
    cfg = cfg if cfg is not None else SamplerConfig()
    agent = _Agent(model, cfg, _Uniforms(cfg.seed), prompt)
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
    content). A caller's ``rng`` is read one ``random()`` per draw that takes
    one. A context that does not parse, is empty, or whose last chunk
    already holds channel-1 novels raises ``MalformedSequence``."""
    prompt = parse(list(context), vocab, chunk_ms)
    if not prompt.chunks or prompt.chunks[-1].s1_novel:
        raise MalformedSequence("the context must end right after a chunk's channel-0 "
                                "content")
    cfg = cfg if cfg is not None else SamplerConfig()
    return _Agent(model, cfg, rng if rng is not None else _Uniforms(cfg.seed), prompt).sample(1)


def simulate_interaction(
    model_llm: NgramModel,
    user_source: NgramModel | DedupDialogue,
    cfg: InteractionConfig,
    prompt: DedupDialogue,
) -> InteractionTranscript:
    """Run the lockstep protocol between the model and a user source: a
    script, whose channel 1 is replayed, or a model, as an agent on channel
    1 running the same estimate-ahead protocol from its side. At step t the
    model's agent has the user's chunks below t - latency; the user has the
    model's chunks below t - latency + 1, since the model speaks first
    within a chunk. The prompt, possibly empty, carries the run's
    vocabulary and chunk size, which a script must match. The run is
    checked before any draw: a script whose channel 1 cannot follow the
    prompt raises ``MalformedSequence``."""
    L = cfg.latency_chunks
    p_chunks = len(prompt.chunks)
    if cfg.max_chunks <= p_chunks:
        raise ValueError(f"max_chunks ({cfg.max_chunks}) must exceed prompt length ({p_chunks})")
    scripted = isinstance(user_source, DedupDialogue)
    if scripted:
        if user_source.chunk_ms != prompt.chunk_ms:
            raise ValueError(f"scripted user has chunk_ms {user_source.chunk_ms}, "
                             f"the prompt {prompt.chunk_ms}")
        if user_source.vocab != prompt.vocab:
            raise ValueError(f"scripted user has {user_source.vocab}, the prompt {prompt.vocab}")
        if len(user_source.chunks) < cfg.max_chunks:
            raise SourceExhausted(f"scripted user has {len(user_source.chunks)} chunks, "
                                  f"run needs {cfg.max_chunks}")
        _check_user(prompt, [c.s1_novel for c in user_source.chunks[p_chunks:cfg.max_chunks]])
    agent_a = _Agent(model_llm, cfg.sampler, _Uniforms(cfg.sampler.seed), prompt)
    agent_b = None if scripted else _Agent(
        user_source, cfg.sampler, _Uniforms([cfg.sampler.seed, 1]), prompt, side=1)
    llm_novel = [list(c.s0_novel) for c in prompt.chunks]
    usr_novel = [list(c.s1_novel) for c in prompt.chunks]
    records: list[StepRecord] = []
    trunc_before = 0

    for t in range(p_chunks, cfg.max_chunks):
        # the delay line: the user's chunk t-L-1 reaches the model now
        if t - L - 1 >= p_chunks:
            agent_a.receive(usr_novel[t - L - 1])
        s0, estimates, length = agent_a.emit()
        llm_novel.append(s0)
        if agent_b is None:
            usr_t = list(user_source.chunks[t].s1_novel)
        else:
            # ... and the model's chunk t-L reaches the user, who at latency 0
            # waits for the chunk just emitted
            if t - L >= p_chunks:
                agent_b.receive(llm_novel[t - L])
            usr_t = agent_b.emit()[0]
        # the window's estimates are of chunks t - len(estimates) .. t - 1
        for rec, est in zip(records[len(records) - len(estimates):], estimates):
            rec.estimate_history.append(est)
        usr_novel.append(usr_t)

        records.append(StepRecord(index=t, estimate_history=[],
                                  truncations=agent_a.truncations - trunc_before,
                                  context_snapshot_len=length))
        trunc_before = agent_a.truncations

    chunks = tuple(DedupChunk(tuple(a), tuple(b)) for a, b in zip(llm_novel, usr_novel))
    return InteractionTranscript(
        config=cfg, prompt_chunks=p_chunks, steps=records,
        dialogue=DedupDialogue(vocab=prompt.vocab, chunk_ms=prompt.chunk_ms, chunks=chunks),
        user_truncations=agent_b.truncations if agent_b is not None else 0)
