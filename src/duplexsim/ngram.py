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

Model file v3 is a stream of six ``.npy`` records, written and read by
``corpus_io`` without pickle:

    header  int64 (3, order, vocab_ext)
    alpha   float64, one value
    codes   int64, the rows' context codes in increasing order
    sizes   the number of tokens each row predicts
    tokens  each row's tokens in increasing order, row after row
    counts  the count of each entry of ``tokens``

The last three are each in the smallest unsigned type that holds them.
``load`` checks each column with array operations: each record is 1-D, of
an integer dtype (``alpha`` a float one); the header is version 3 with an
``order`` and ``vocab_ext`` that the constructor takes, ``alpha`` finite;
codes lie in ``[0, (vocab_ext + 1) ** order)``, one per row size; sizes
are >= 1 and sum to the length of ``tokens`` and of ``counts``; tokens lie
in ``[0, vocab_ext)``; counts are >= 1 and sum to at most 2**53, which
keeps every total and probability exact in float64. Only ``save`` writes
the format, so the codes, and a row's tokens, must increase strictly: rows
out of order are rejected, not sorted. A file of an older version (JSON)
is rejected: retrain its model.
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

MODEL_FILE_VERSION = 3
# the dtype kinds each record may have: header, alpha, codes, sizes, tokens, counts
_RECORD_KINDS = ("iu", "f", "iu", "iu", "iu", "iu")


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
        empty = np.zeros(0, dtype=np.int64)
        self._set_rows(empty, np.zeros(1, dtype=np.int64), empty, empty)

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

    def _set_rows(self, codes: np.ndarray, offsets: np.ndarray, tokens: np.ndarray,
                  freqs: np.ndarray) -> None:
        """Hold the rows of the module docstring, and their totals."""
        self.codes, self.offsets, self.tokens, self.freqs = codes, offsets, tokens, freqs
        self.row_totals = np.diff(np.append(0, np.cumsum(freqs))[offsets])

    def _windows(self, sequences: list[Sequence[int]]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The context code, the token and the count (1) of every window of
        ``sequences``."""
        message = f"a token lies outside [0, {self.vocab_ext})"
        try:
            parts = [np.asarray(seq, dtype=np.int64) for seq in sequences]
        except OverflowError:  # past int64, so past the range too
            raise ValueError(message) from None
        tokens = np.concatenate(parts)
        starts = np.cumsum([0] + [len(p) for p in parts[:-1]])  # where each one lies in tokens
        if tokens.size and not (tokens.min() >= 0 and tokens.max() < self.vocab_ext):
            raise ValueError(message)
        # each sequence after ``order`` begin markers; window i is ids[i : i + order + 1]
        at = np.repeat(starts, self.order)
        ids = np.insert(tokens, at, self.bos)
        predicted = np.insert(np.ones(len(tokens), dtype=bool), at, False)[self.order :]
        codes = (sliding_window_view(ids, self.order)[:-1] @ self._place)[predicted]
        return codes, tokens, np.ones(len(tokens), dtype=np.int64)

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
        """Write model file v3 (see the module docstring)."""
        corpus_io.write_arrays(path, [
            np.array([MODEL_FILE_VERSION, self.order, self.vocab_ext], dtype=np.int64),
            np.array([self.alpha], dtype=np.float64),
            self.codes,
            *(c.astype(np.min_scalar_type(int(c.max(initial=0))))
              for c in (np.diff(self.offsets), self.tokens, self.freqs)),
        ])

    @classmethod
    def load(cls, path: str | Path) -> "NgramModel":
        """Read model file v3; ``ModelFormatError`` unless it passes every
        check of the module docstring, ``ConfigError`` if it is unreadable."""
        header, alpha, codes, sizes, tokens, counts = corpus_io.read_arrays(path, _RECORD_KINDS)
        _require(len(header) == 3, "the model file header needs 3 values: version, "
                                   "order and vocab_ext")
        _require(header[0] == MODEL_FILE_VERSION,
                 f"model file version {header[0]} not supported (expected "
                 f"{MODEL_FILE_VERSION}); retrain the model with 'duplexsim train'")
        _require(len(alpha) == 1 and math.isfinite(alpha[0]),
                 "the model file needs one finite 'alpha'")
        try:
            model = cls(order=int(header[1]), vocab_ext=int(header[2]), alpha=float(alpha[0]))
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
        # every range check comes before a cast to int64, which would wrap a
        # uint64 past the int64 range
        n, vocab_ext, top = len(tokens), model.vocab_ext, (model.vocab_ext + 1) ** model.order
        _require(len(codes) == len(sizes), "the model file needs one context code per row size")
        _require(sizes.min(initial=1) >= 1, "a row size is below 1")
        offsets = _running_sums(sizes, n)
        _require(offsets is not None and offsets[-1] == n == len(counts),
                 "the sizes do not sum to the lengths of 'tokens' and 'counts'")
        _require(codes.min(initial=0) >= 0 and codes.max(initial=0) < top,
                 f"a context code lies outside [0, {vocab_ext + 1}**{model.order})")
        codes = codes.astype(np.int64)
        _require(np.all(np.diff(codes) > 0), "the context codes are not strictly increasing "
                                             "(a context repeated, or rows out of order)")
        _require(tokens.min(initial=0) >= 0 and tokens.max(initial=0) < vocab_ext,
                 f"a token lies outside [0, {vocab_ext})")
        tokens = tokens.astype(np.int64)
        step = np.diff(tokens)
        step[offsets[1:-1] - 1] = 1  # a row's first token follows the previous row's last
        _require(np.all(step > 0), "the tokens of a row are not strictly increasing")
        _require(counts.min(initial=1) >= 1, "a count is below 1")
        _require(_running_sums(counts, 2**53) is not None, "the counts sum past 2**53")
        model._set_rows(codes, offsets, tokens, counts.astype(np.int64))
        return model


def _require(ok, message: str) -> None:
    if not ok:
        raise ModelFormatError(message)


def _running_sums(values: np.ndarray, top: int) -> np.ndarray | None:
    """0 and the running sums of ``values``, each >= 1, as int64; None if
    a sum passes ``top`` (below 2**62)."""
    if values.max(initial=0) > top:
        return None
    # each value is at most top, so the first sum past top is exact in int64
    sums = np.cumsum(values, dtype=np.int64)
    return None if sums.max(initial=0) > top else np.append(0, sums)


def _count(codes: np.ndarray, tokens: np.ndarray, freqs: np.ndarray,
           kind: str = "quicksort") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (context code, token) pairs in increasing order, each
    with the sum of its ``freqs``. ``kind`` sorts the codes; "stable" is
    the fast one when they lie in a few sorted runs."""
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
    before = np.append(0, np.cumsum(freqs[ranked[order]]))[bounds]
    return codes[bounds[:-1]], distinct[ranks[bounds[:-1]]], np.diff(before)


def _batches(corpus: Iterable[Sequence[int]], size: int) -> Iterator[list[Sequence[int]]]:
    """Runs of whole sequences of about ``size`` tokens."""
    batch: list[Sequence[int]] = []
    n = 0
    for seq in corpus:
        batch.append(seq)
        n += len(seq)
        if n >= size:
            yield batch
            batch, n = [], 0
    if batch:
        yield batch


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
    parts = [_count(*model._windows(batch)) for batch in _batches(corpus, 2**15)]
    if not parts:
        raise EmptyCorpus("training corpus is empty")
    entries = [np.concatenate(column) for column in zip(*parts)]
    codes, tokens, freqs = _count(*entries, kind="stable") if len(parts) > 1 else entries
    starts = np.flatnonzero(np.diff(codes, prepend=-1))  # each row's first entry
    model._set_rows(codes[starts], np.append(starts, len(codes)), tokens, freqs)
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
