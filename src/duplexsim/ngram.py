"""Trainable next-token model over the extended vocabulary.

An add-alpha smoothed n-gram: exact, deterministic, and cheap enough that
every probability can be cross-checked by brute-force counting. ``order``
is the context length in tokens; contexts shorter than ``order`` are
left-padded with an internal begin marker (id ``vocab_ext``, never
predicted).

The counts are numpy arrays. A context packs into one int64 code, its
ids the digits of a base ``vocab_ext + 1`` number. ``codes`` holds the
seen contexts in increasing order; row ``r`` predicts the increasing
``tokens[offsets[r]:offsets[r + 1]]``, with matching ``freqs``,
``row_totals[r]`` times in all. ``totals``, a ``{code: total}`` dict built
on each read, remains for readers outside the library.

Model file v2 is one JSON object: ``version`` (2), ``order``, ``alpha``,
``vocab_ext`` and four flat integer columns,

    contexts  order ids per context, the contexts one after another
    sizes     the number of distinct tokens each context predicts
    tokens    each context's predicted tokens, row after row
    counts    the count of each entry of ``tokens``

``save`` writes rows in code order; ``load`` takes them, and a row's
tokens, in any order, so a loaded model saves the same bytes whatever its
file's order. The counts sum to at most 2**53, which keeps every total and
probability exact in float64; ``NgramModel.load`` lists the other checks.
A version-1 file (a ``counts`` object keyed by comma-joined ids) is
rejected: retrain its model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    """Add-alpha smoothed n-gram over ``vocab_ext`` symbols, held as the
    arrays of the module docstring; immutable in use, so safe to share."""

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
        # the weight of each of a context's ids in its code; below 2**63
        self._place = np.array([(vocab_ext + 1) ** k for k in reversed(range(order))],
                               dtype=np.int64)
        self._set_rows(*[np.zeros(0, dtype=np.int64)] * 3)

    @property
    def bos(self) -> int:
        return self.vocab_ext

    @property
    def totals(self) -> dict[int, int]:
        """``{context code: total}``, built from the arrays on each read."""
        return dict(zip(self.codes.tolist(), self.row_totals.tolist()))

    @cached_property
    def _table(self) -> tuple[dict[int, int], list[int], list[int], list[int], list[int]]:
        """For single draws: a dict from code to row, and the columns as lists."""
        return (dict(zip(self.codes.tolist(), range(len(self.codes)))), self.offsets.tolist(),
                self.row_totals.tolist(), self.tokens.tolist(), self.freqs.tolist())

    def _set_rows(self, codes: np.ndarray, tokens: np.ndarray, freqs: np.ndarray) -> None:
        """Hold (context code, token, count) entries, sorted by code and
        token with no pair repeated, as rows."""
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        self.codes, self.offsets = codes[starts], np.append(starts, len(codes))
        self.tokens, self.freqs = tokens, freqs
        self.row_totals = np.diff(np.append(0, np.cumsum(freqs))[self.offsets])

    def _windows(self, tokens: list[int], starts: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The context code and the token of every window of sequences that
        lie one after another in ``tokens``, each from its ``starts``."""
        tokens = _int64s(tokens, 0, self.vocab_ext - 1,
                         f"a token lies outside [0, {self.vocab_ext})", ValueError)
        # each sequence after ``order`` begin markers; window i is ids[i : i + order + 1]
        at = np.repeat(starts, self.order)
        ids = np.insert(tokens, at, self.bos)
        predicted = np.insert(np.ones(len(tokens), dtype=bool), at, False)[self.order :]
        return (sliding_window_view(ids, self.order)[:-1] @ self._place)[predicted], tokens

    def next_dist(self, context: Sequence[int]) -> np.ndarray:
        """Smoothed next-token distribution; sums to 1, all entries > 0.
        The context holds ids in [0, vocab_ext]."""
        base = self.vocab_ext + 1
        tail = context[-self.order :]
        code = base ** (self.order - len(tail)) - 1  # begin markers: every digit base - 1
        for tok in tail:
            code = code * base + tok
        rows, offsets, totals, tokens, freqs = self._table
        row, alpha = rows.get(code), self.alpha
        # (count + alpha) / (total + alpha * vocab_ext) for each token
        norm = (0 if row is None else totals[row]) + alpha * self.vocab_ext
        dist = np.full(self.vocab_ext, alpha / norm)
        if row is not None:
            for j in range(offsets[row], offsets[row + 1]):
                dist[tokens[j]] = (freqs[j] + alpha) / norm
        return dist

    def sequence_nll(self, sequence: Sequence[int], skip: int = 0) -> tuple[float, int]:
        """Total negative log-likelihood and token count, scoring positions
        ``skip`` onward (earlier tokens still condition the context). The
        sequence holds ids in [0, vocab_ext]."""
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        # position i of the sequence is predicted from padded[i : i + order]
        padded = np.array([self.bos] * self.order + list(sequence), dtype=np.int64)
        n = len(padded) - self.order
        if skip >= n:
            return 0.0, 0
        if padded.min() < 0 or padded.max() > self.bos:
            raise ValueError(f"a sequence id lies outside [0, {self.bos}]")
        codes = sliding_window_view(padded, self.order)[skip:-1] @ self._place
        tokens = padded[self.order + skip :]
        counts = totals = np.zeros(n - skip, dtype=np.int64)
        if len(self.codes):
            row = self.codes.searchsorted(codes)
            seen = self.codes.take(row, mode="clip") == codes
            lo, end = self.offsets[row], self.offsets[row + seen]  # an unseen row is empty
            hi = end
            # bisect each row: lo ends at its first entry >= the token
            for _ in range(int((end - lo).max()).bit_length()):
                mid = (lo + hi) >> 1
                less = self.tokens.take(mid, mode="clip") < tokens
                lo, hi = np.where(less & (mid < hi), mid + 1, lo), np.where(less, hi, mid)
            hit = (lo < end) & (self.tokens.take(lo, mode="clip") == tokens)
            counts = np.where(hit, self.freqs.take(lo, mode="clip"), 0)
            totals = np.where(seen, self.row_totals.take(row, mode="clip"), 0)
        nll = 0.0
        for r in ((counts + self.alpha) / (totals + self.alpha * self.vocab_ext)).tolist():
            nll -= math.log(r)
        return nll, n - skip

    def save(self, path: str | Path) -> None:
        """Write model file v2 (see the module docstring), rows in code order."""
        contexts = self.codes[:, None] // self._place  # column 0 holds the first id
        contexts[:, 1:] = self.codes[:, None] % self._place[:-1] // self._place[1:]
        corpus_io.write_json(path, {
            "version": MODEL_FILE_VERSION,
            "order": self.order,
            "alpha": self.alpha,
            "vocab_ext": self.vocab_ext,
            "contexts": contexts.ravel().tolist(),
            "sizes": np.diff(self.offsets).tolist(),
            "tokens": self.tokens.tolist(),
            "counts": self.freqs.tolist(),
        })

    @classmethod
    def load(cls, path: str | Path) -> "NgramModel":
        """Read a v2 model file (see the module docstring), its rows and
        their tokens in any order.

        Raises ``ModelFormatError`` unless ``version`` is 2, ``order`` and
        ``vocab_ext`` are JSON integers and ``alpha`` a finite number, the
        four columns are lists of JSON integers, ``contexts`` holds
        ``order`` ids per entry of ``sizes``, every size is >= 1 and the
        sizes sum to the length of ``tokens`` and of ``counts``, context
        ids lie in ``[0, vocab_ext]`` (the begin marker included), tokens
        in ``[0, vocab_ext)``, counts are >= 1 and sum to at most 2**53,
        and no context, nor any token within a row, is repeated. An
        unreadable file raises ``ConfigError``.
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
        # exact Python sums, so that no size or count can wrap an int64 below
        if sizes and min(sizes) < 1:
            raise ModelFormatError("a row size is below 1")
        if not sum(sizes) == n == len(counts):
            raise ModelFormatError("the sizes do not sum to the lengths of 'tokens' "
                                   "and 'counts'")
        contexts = _int64s(contexts, 0, vocab_ext,
                           f"a context id lies outside [0, {vocab_ext}]").reshape(-1, order)
        tokens = _int64s(tokens, 0, vocab_ext - 1, f"a token lies outside [0, {vocab_ext})")
        if counts and min(counts) < 1:
            raise ModelFormatError("a count is below 1")
        if sum(counts) > 2**53:
            raise ModelFormatError("the counts sum past 2**53")
        codes = contexts @ model._place
        if np.any(np.diff(np.sort(codes)) == 0):
            raise ModelFormatError("a context is repeated")
        codes = np.repeat(codes, np.fromiter(sizes, np.int64, len(sizes)))
        counts = np.fromiter(counts, np.int64, len(counts))
        step, tie = np.diff(codes), np.diff(tokens)
        if not np.all((step > 0) | ((step == 0) & (tie > 0))):  # not in (code, token) order
            codes, tokens, counts = _count(codes, tokens, counts)
            if len(tokens) != n:
                raise ModelFormatError("a token is repeated within a row")
        model._set_rows(codes, tokens, counts)
        model._table  # a loaded model is ready to draw
        return model


def _int64s(values: list[int], lo: int, hi: int, message: str,
            error: type[Exception] = ModelFormatError) -> np.ndarray:
    """Integers as int64, each in [lo, hi], or ``error(message)``."""
    try:
        ints = np.fromiter(values, np.int64, len(values))
    except OverflowError:  # past int64, so past [lo, hi] too
        raise error(message) from None
    if ints.size and not (ints.min() >= lo and ints.max() <= hi):
        raise error(message)
    return ints


def _count(codes: np.ndarray, tokens: np.ndarray, freqs: np.ndarray | None = None,
           kind: str = "quicksort") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (context code, token) pairs in increasing order, each
    with the sum of its ``freqs`` (or with how often it occurs). ``kind``
    sorts the codes; "stable" is the fast one when they lie in a few
    sorted runs."""
    distinct, ranks = np.unique(tokens, return_inverse=True)
    ranked = np.argsort(codes, kind=kind)
    codes, ranks = codes[ranked], ranks[ranked]
    # order each run of one code by token; the key is below len(codes) ** 2,
    # and nearly sorted, which a stable sort finishes in about one pass
    rows = np.cumsum(np.diff(codes, prepend=-1) != 0)
    order = np.argsort(rows * len(distinct) + ranks, kind="stable")
    codes, ranks = codes[order], ranks[order]
    bounds = np.append(np.flatnonzero((np.diff(codes, prepend=-1) != 0)
                                      | (np.diff(ranks, prepend=-1) != 0)), len(codes))
    # each pair's count: its entries, or the sum of their freqs
    before = bounds if freqs is None else np.append(0, np.cumsum(freqs[ranked[order]]))[bounds]
    return codes[bounds[:-1]], distinct[ranks[bounds[:-1]]], np.diff(before)


def _batches(corpus: Iterable[Sequence[int]], size: int) -> Iterator[tuple[list[int], list[int]]]:
    """Runs of whole sequences of about ``size`` tokens: their tokens, one
    after another, and where each sequence starts among them."""
    tokens: list[int] = []
    starts: list[int] = []
    for seq in corpus:
        starts.append(len(tokens))
        tokens += seq
        if len(tokens) >= size:
            yield tokens, starts
            tokens, starts = [], []
    if starts:
        yield tokens, starts


def train(
    corpus: Iterable[Sequence[int]],
    order: int = 4,
    alpha: float = 0.1,
    vocab_ext: int = 503,
) -> NgramModel:
    """Count every (context, token) window of the corpus sequences, a batch
    of about 2**15 tokens at a time, then the batches' counts together: the
    working memory follows a batch and the distinct windows, not the corpus."""
    model = NgramModel(order=order, vocab_ext=vocab_ext, alpha=alpha)
    parts = [_count(*model._windows(tokens, starts)) for tokens, starts in _batches(corpus, 2**15)]
    if not parts:
        raise EmptyCorpus("training corpus is empty")
    entries = [np.concatenate(column) for column in zip(*parts)]
    model._set_rows(*(_count(*entries, kind="stable") if len(parts) > 1 else entries))
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
