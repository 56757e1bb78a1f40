"""Trainable next-token model over the extended vocabulary.

An add-alpha smoothed n-gram: exact, deterministic, and cheap enough that
every probability can be cross-checked by brute-force counting. ``order``
is the context length in tokens; contexts shorter than ``order`` are
left-padded with an internal begin marker (id ``vocab_ext``, never
predicted).

Model file v2 is one JSON object: ``version`` (2), ``order``, ``alpha``,
``vocab_ext`` and four flat integer columns,

    contexts  order ids per context, the contexts one after another
    sizes     the number of distinct tokens each context predicts
    tokens    each context's predicted tokens, row after row
    counts    the count of each entry of ``tokens``

Contexts keep the order in which training first saw them, and a row's
tokens the order in which that context first predicted them. ``load``
keeps file order, so saving a loaded model writes the same bytes. Its
checks are listed in ``NgramModel.load``. A version-1 file (a ``counts``
object keyed by comma-joined ids) is rejected: retrain its model.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import corpus_io
from .errors import EmptyCorpus, EmptySequence, ModelFormatError

MODEL_FILE_VERSION = 2


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
        # a context must fit one int64 code; testing order first keeps a huge one cheap
        if not (order <= 63 and (vocab_ext + 1) ** order <= 2**63):
            raise ValueError(f"order {order} is too large for vocab_ext {vocab_ext}: "
                             f"(vocab_ext + 1) ** order must not exceed 2**63")
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

    def next_dist(self, context: Sequence[int]) -> np.ndarray:
        """Smoothed next-token distribution; sums to 1, all entries > 0."""
        key = self._key(context)
        dist = np.full(self.vocab_ext, self.alpha, dtype=np.float64)
        for tok, c in self.counts.get(key, {}).items():
            dist[tok] += c
        dist /= self.totals.get(key, 0) + self.alpha * self.vocab_ext
        return dist

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
        """Write model file v2 (see the module docstring): each column is
        built by one C-level pass over the count dicts, in their order."""
        rows = self.counts.values()
        corpus_io.write_json(path, {
            "version": MODEL_FILE_VERSION,
            "order": self.order,
            "alpha": self.alpha,
            "vocab_ext": self.vocab_ext,
            "contexts": list(chain.from_iterable(self.counts)),
            "sizes": list(map(len, rows)),
            "tokens": list(chain.from_iterable(rows)),
            "counts": list(chain.from_iterable(map(dict.values, rows))),
        })

    @classmethod
    def load(cls, path: str | Path) -> "NgramModel":
        """Read a v2 model file (see the module docstring), keeping its
        order of contexts and of tokens within a row.

        Raises ``ModelFormatError`` unless ``version`` is 2, ``order`` and
        ``vocab_ext`` are JSON integers and ``alpha`` a finite number, the
        four columns are lists of JSON integers, ``contexts`` holds
        ``order`` ids per entry of ``sizes``, every size is >= 1 and the
        sizes sum to the length of ``tokens`` and of ``counts``, context
        ids lie in ``[0, vocab_ext]`` (the begin marker included), tokens
        in ``[0, vocab_ext)`` and counts are >= 1, and no context, nor any
        token within a row, is repeated. An unreadable file raises
        ``ConfigError``.
        """
        payload = corpus_io.read_json(path)
        if not isinstance(payload, dict):
            raise ModelFormatError("model file does not hold a JSON object")
        version = payload.get("version")
        if not (corpus_io.is_int(version) and version == MODEL_FILE_VERSION):
            raise ModelFormatError(
                f"model file version {version!r} not supported (expected "
                f"{MODEL_FILE_VERSION}); retrain the model with 'duplexsim train'"
            )
        order, vocab_ext, alpha = (payload.get(k) for k in ("order", "vocab_ext", "alpha"))
        if not (corpus_io.is_int(order) and corpus_io.is_int(vocab_ext)
                and corpus_io.is_number(alpha)):
            raise ModelFormatError(
                "model file needs integer 'order' and 'vocab_ext' and a finite 'alpha'")
        try:
            model = cls(order=order, vocab_ext=vocab_ext, alpha=float(alpha))
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
        columns = [payload.get(k) for k in ("contexts", "sizes", "tokens", "counts")]
        if not all(map(corpus_io.is_int_list, columns)):
            raise ModelFormatError("model file needs 'contexts', 'sizes', 'tokens' and "
                                   "'counts' as lists of integers")
        contexts, sizes, tokens, counts = columns
        n = len(tokens)
        if len(contexts) != order * len(sizes):
            raise ModelFormatError(f"'contexts' needs {order} ids per entry of 'sizes'")
        if sizes and min(sizes) < 1:
            raise ModelFormatError("a row size is below 1")
        if not sum(sizes) == n == len(counts):
            raise ModelFormatError("the sizes do not sum to the lengths of 'tokens' "
                                   "and 'counts'")
        if contexts and not (min(contexts) >= 0 and max(contexts) <= vocab_ext):
            raise ModelFormatError(f"a context id lies outside [0, {vocab_ext}]")
        if tokens and not (min(tokens) >= 0 and max(tokens) < vocab_ext):
            raise ModelFormatError(f"a token lies outside [0, {vocab_ext})")
        if counts and min(counts) < 1:
            raise ModelFormatError("a count is below 1")
        # context i is the next ``order`` ids and its row the next sizes[i]
        # (token, count) pairs; each islice is drained before the next
        # starts. The ``order``-long argument list of ``zip`` is only built
        # when ``contexts`` holds at least that many ids.
        keys = zip(*[iter(contexts)] * order) if sizes else ()
        rows = map(dict, map(islice, repeat(zip(tokens, counts)), sizes))
        model.counts = dict(zip(keys, rows))
        if len(model.counts) != len(sizes):
            raise ModelFormatError("a context is repeated")
        if sum(map(len, model.counts.values())) != n:
            raise ModelFormatError("a token is repeated within a row")
        model.totals = dict(zip(model.counts,
                                map(sum, map(dict.values, model.counts.values()))))
        return model


def train(
    corpus: Iterable[Sequence[int]],
    order: int = 4,
    alpha: float = 0.1,
    vocab_ext: int = 503,
) -> NgramModel:
    """Count all order-length context windows over the corpus sequences,
    one pass over each sequence's ``order + 1``-token windows."""
    model = NgramModel(order=order, vocab_ext=vocab_ext, alpha=alpha)
    windows: Counter[tuple[int, ...]] = Counter()
    n = 0
    for seq in corpus:
        seq = list(map(int, seq))
        lo, hi = (min(seq), max(seq)) if seq else (0, 0)
        if lo < 0 or hi >= vocab_ext:
            raise ValueError(f"token {lo if lo < 0 else hi} outside vocab_ext={vocab_ext}")
        padded = [model.bos] * order + seq
        windows.update(zip(*[padded[i:] for i in range(order + 1)]))
        n += 1
    if n == 0:
        raise EmptyCorpus("training corpus is empty")
    counts = model.counts
    for window, c in windows.items():
        counts.setdefault(window[:-1], {})[window[-1]] = c
    model.totals = dict(zip(counts, map(sum, map(dict.values, counts.values()))))
    return model


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
        # a temperature so small that the logits overflow gives NaN, which
        # the caller rejects; numpy need not warn about it on the way
        with np.errstate(over="ignore", invalid="ignore"):
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
    return corpus_perplexity(model, [sequence], skip)


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
