"""Trainable next-token model over the extended vocabulary.

An add-alpha smoothed n-gram: exact, deterministic, and cheap enough that
every probability can be cross-checked by brute-force counting. ``order``
is the context length in tokens; contexts shorter than ``order`` are
left-padded with an internal begin marker (id ``vocab_ext``, never
predicted).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpus, EmptySequence, ModelFormatError

MODEL_FILE_VERSION = 1


@dataclass(frozen=True)
class SamplerConfig:
    """Decoding knobs. Greedy decoding is ``top_k=1``; temperature must
    stay positive."""

    temperature: float = 1.0
    top_k: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


class NgramModel:
    """Add-alpha smoothed n-gram over ``vocab_ext`` symbols.

    Training mutates the model; a trained model is immutable in use and
    safe to share across threads.
    """

    def __init__(self, order: int, vocab_ext: int, alpha: float = 0.1):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if vocab_ext < 1:
            raise ValueError(f"vocab_ext must be >= 1, got {vocab_ext}")
        if alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        self.order = order
        self.vocab_ext = vocab_ext
        self.alpha = alpha
        self.counts: dict[tuple[int, ...], dict[int, int]] = {}
        self.totals: dict[tuple[int, ...], int] = {}

    @property
    def bos(self) -> int:
        return self.vocab_ext

    def _key(self, context: Sequence[int]) -> tuple[int, ...]:
        key = tuple(context[-self.order :])
        if len(key) < self.order:
            key = (self.bos,) * (self.order - len(key)) + key
        return key

    def observe(self, sequence: Sequence[int]) -> None:
        seq = [int(t) for t in sequence]
        for tok in seq:
            if not 0 <= tok < self.vocab_ext:
                raise ValueError(f"token {tok} outside vocab_ext={self.vocab_ext}")
        padded = [self.bos] * self.order + seq
        for i in range(self.order, len(padded)):
            key = tuple(padded[i - self.order : i])
            tok = padded[i]
            slot = self.counts.setdefault(key, {})
            slot[tok] = slot.get(tok, 0) + 1
            self.totals[key] = self.totals.get(key, 0) + 1

    def next_dist(self, context: Sequence[int]) -> np.ndarray:
        """Smoothed next-token distribution; sums to 1, all entries > 0."""
        key = self._key(context)
        dist = np.full(self.vocab_ext, self.alpha, dtype=np.float64)
        for tok, c in self.counts.get(key, {}).items():
            dist[tok] += c
        dist /= self.totals.get(key, 0) + self.alpha * self.vocab_ext
        return dist

    def log_prob(self, context: Sequence[int], token: int) -> float:
        key = self._key(context)
        c = self.counts.get(key, {}).get(token, 0)
        total = self.totals.get(key, 0)
        return math.log((c + self.alpha) / (total + self.alpha * self.vocab_ext))

    def sequence_nll(self, sequence: Sequence[int], skip: int = 0) -> tuple[float, int]:
        """Total negative log-likelihood and token count, scoring positions
        ``skip`` onward (earlier tokens still condition the context)."""
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        # position i of the sequence is predicted from padded[i : i + order]
        order = self.order
        padded = [self.bos] * order + list(sequence)
        n = len(padded) - order
        counts, totals = self.counts, self.totals
        alpha, norm = self.alpha, self.alpha * self.vocab_ext
        nll = 0.0
        for i in range(skip, n):
            key = tuple(padded[i : i + order])
            slot = counts.get(key)
            c = slot.get(padded[i + order], 0) if slot else 0
            nll -= math.log((c + alpha) / (totals.get(key, 0) + norm))
        return nll, max(0, n - skip)

    def save(self, path: str | Path) -> None:
        payload = {
            "version": MODEL_FILE_VERSION,
            "order": self.order,
            "alpha": self.alpha,
            "vocab_ext": self.vocab_ext,
            "counts": {
                ",".join(map(str, key)): dict(sorted(slot.items()))
                for key, slot in sorted(self.counts.items())
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "NgramModel":
        """Read a model file, validating it in the pass that converts it.

        Raises ``ModelFormatError`` unless ``order``, ``vocab_ext``,
        ``alpha`` and ``counts`` have their types, every context key is
        ``order`` ids in ``[0, vocab_ext]`` (the begin marker included),
        and every context predicts at least one id in ``[0, vocab_ext)``
        with an integer count >= 1. Ids are read in canonical decimal, as
        ``save`` writes them.
        """
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ModelFormatError("model file does not hold a JSON object")
        version = payload.get("version")
        if version != MODEL_FILE_VERSION:
            raise ModelFormatError(
                f"model file version {version!r} not supported (expected {MODEL_FILE_VERSION})"
            )
        order, vocab_ext, alpha, counts = (
            payload.get(k) for k in ("order", "vocab_ext", "alpha", "counts")
        )
        if not (_is_int(order) and _is_int(vocab_ext)
                and (_is_int(alpha) or isinstance(alpha, float))
                and isinstance(counts, dict)):
            raise ModelFormatError(
                "model file needs integer 'order' and 'vocab_ext', numeric 'alpha' "
                "and a 'counts' object"
            )
        try:
            model = cls(order=order, vocab_ext=vocab_ext, alpha=float(alpha))
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
        ctx_ids, tok_ids = _IdTable(vocab_ext + 1), _IdTable(vocab_ext)
        for key_str, slot in counts.items():
            try:
                key = tuple(map(ctx_ids.__getitem__, key_str.split(",")))
                row = dict(zip(map(tok_ids.__getitem__, slot), slot.values()))
                total = sum(row.values())
                valid = (len(key) == order and type(total) is int
                         and len(row) > 0 and min(row.values()) >= 1)
            except (AttributeError, KeyError, TypeError, ValueError):
                valid = False
            if not valid:
                raise ModelFormatError(
                    f"bad counts entry {key_str!r}: needs {order} context ids in "
                    f"[0, {vocab_ext}] and integer counts >= 1 for ids in [0, {vocab_ext})"
                )
            model.counts[key] = row
            model.totals[key] = total
        return model


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class _IdTable(dict):
    """Canonical decimal string -> id for ids in ``[0, limit)``, filled on
    first use: one dict lookup both converts and range-checks an id."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def __missing__(self, text: str) -> int:
        i = int(text)
        if str(i) != text or not 0 <= i < self.limit:
            raise KeyError(text)
        self[text] = i
        return i


def train(
    corpus: Iterable[Sequence[int]],
    order: int = 4,
    alpha: float = 0.1,
    vocab_ext: int = 503,
) -> NgramModel:
    """Count all order-length context windows over the corpus sequences."""
    model = NgramModel(order=order, vocab_ext=vocab_ext, alpha=alpha)
    n = 0
    for seq in corpus:
        model.observe(seq)
        n += 1
    if n == 0:
        raise EmptyCorpus("training corpus is empty")
    return model


def next_dist(model: NgramModel, context: Sequence[int]) -> np.ndarray:
    return model.next_dist(context)


def _apply_sampler(
    probs: np.ndarray, indices: np.ndarray, cfg: SamplerConfig
) -> tuple[np.ndarray, np.ndarray]:
    # Rank with stable index tie-breaking so top_k (and the greedy k=1
    # case) is deterministic.
    if cfg.top_k is not None and cfg.top_k < len(indices):
        keep = np.sort(np.lexsort((indices, -probs))[: cfg.top_k])
        probs = probs[keep]
        indices = indices[keep]
    if cfg.temperature != 1.0:
        logits = np.log(probs) / cfg.temperature
        logits -= logits.max()
        probs = np.exp(logits)
    return probs / probs.sum(), indices


def sample_constrained(
    model: NgramModel,
    context: Sequence[int],
    allowed: Sequence[int],
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
) -> int:
    """Sample the next token restricted to ``allowed`` ids.

    ``allowed`` is any sequence of ids (list, tuple, range, array) in any
    order; the draw depends only on its sorted contents, so an already
    sorted ``np.int64`` array is the cheapest form. A single legal token
    is returned without touching the RNG; greedy (top_k=1) likewise
    consumes no randomness.
    """
    indices = np.array(allowed, dtype=np.int64)
    indices.sort(kind="stable")  # in place on the copy; linear on sorted input
    if len(indices) == 0:
        raise ValueError("allowed token set is empty")
    if len(indices) == 1:
        return int(indices[0])
    dist = model.next_dist(context)[indices]
    probs, indices = _apply_sampler(dist, indices, cfg)
    if len(indices) == 1:
        return int(indices[0])
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    # Inverse-CDF draw, the same arithmetic and RNG use as
    # ``rng.choice(len(indices), p=probs)`` without its per-call checks.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    if not cdf[-1] > 0:  # NaN from a temperature so small the logits overflow
        raise ValueError("sampling distribution is not finite")
    return int(indices[cdf.searchsorted(rng.random(), "right")])


def sample_next(
    model: NgramModel,
    context: Sequence[int],
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
) -> int:
    """Sample from the full extended vocabulary."""
    return sample_constrained(model, context, range(model.vocab_ext), cfg, rng)


def perplexity(model: NgramModel, sequence: Sequence[int], skip: int = 0) -> float:
    """exp(mean negative log-likelihood per scored token)."""
    nll, scored = model.sequence_nll(sequence, skip=skip)
    if scored == 0:
        raise EmptySequence("no tokens to score")
    return math.exp(nll / scored)


def corpus_perplexity(
    model: NgramModel, sequences: Iterable[Sequence[int]], skip: int = 0
) -> float:
    """Token-weighted perplexity over whole sequences; invariant to how the
    sequences are grouped into batches."""
    nll = 0.0
    scored = 0
    for seq in sequences:
        s_nll, s_scored = model.sequence_nll(seq, skip=skip)
        nll += s_nll
        scored += s_scored
    if scored == 0:
        raise EmptySequence("no tokens to score")
    return math.exp(nll / scored)
