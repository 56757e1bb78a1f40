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

``perplexity`` scores one sequence from a given position on, such as a wire
of ``tokens.encode`` or ``tokens.encode_dialogue``;
``metrics.per_dialogue_perplexities`` scores each of many past its prompt.

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
``order`` and ``vocab_ext`` that the constructor takes with ``alpha``;
codes lie in ``[0, (vocab_ext + 1) ** order)``, one per row size; sizes
are >= 1 and sum to the length of ``tokens`` and of ``counts``; tokens lie
in ``[0, vocab_ext)``; counts are >= 1 and sum to at most 2**53, which
keeps every total and probability exact in float64. Only ``save`` writes
the format, so the codes, and a row's tokens, must increase strictly: rows
out of order are rejected, not sorted. A file of an older version (JSON)
is rejected: retrain its model.

``sample_constrained`` is the library's one draw. It draws from the ids
of ``[lo, hi)`` but one id or none, with any sampler, building only the
allowed part of a row. It takes a context as its code, ``NgramModel.code``,
which the interaction engine's agents carry along as they append. Under any
sampler a draw bisects the cdf of its key in its model's ``_cdfs``, an
``array('d')``, with the bits of ``searchsorted``. A seen-context filter, a
table of one byte per slot set where a seen code hashes, picks the key: a
zero byte means unseen, and an unseen context's row is ``alpha / (alpha *
vocab_ext)`` at every id, so its key is ``(width, temperature, top_k)``; a
set byte gives ``(code, lo, hi, skip, temperature, top_k)``, so a cached
draw searches no row. Only a miss finds the code's row by a search of
``codes`` (``NgramModel._row``), where a code it does not hold, a filter
false positive, takes the width key, and builds the cdf once: the allowed
part of the row cut to top_k places and raised to 1 / temperature, with the
places it kept. The cache holds at most
``_CDF_FLOATS // vocab_ext`` cdfs (8 MiB of floats per model): past that, a
new one is used but not kept. Its reference, a draw from any allowed ids
after a context list, is ``sample_constrained`` in ``tests/oracles.py``,
which builds the whole distribution from the public arrays.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import corpus_io
from .errors import EmptyCorpus, EmptySequence, ModelFormatError

MODEL_FILE_VERSION = 3
# the dtype kinds each record may have: header, alpha, codes, sizes, tokens, counts
_RECORD_KINDS = ("iu", "f", "iu", "iu", "iu", "iu")
# the cdf cache's budget per model: at most this many floats, counting each
# cdf as vocab_ext of them
_CDF_FLOATS = 2**20
# the seen-context filter's multiplicative hash: a code times this odd
# constant, masked to 64 bits, picks a slot by its top bits
_HASH = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SamplerConfig:
    """Decoding knobs. Greedy decoding is ``top_k=1``; temperature must
    be finite and positive."""

    temperature: float = 1.0
    top_k: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


class NgramModel:
    """Add-alpha smoothed n-gram over ``vocab_ext`` symbols, held as the
    arrays of the module docstring; immutable in use, so safe to share. Its
    caches for ``sample_constrained``, the seen-context filter ``_filter`` and
    the cdfs ``_cdfs`` (a seen context's under its code), fill lazily with
    values that the arrays, ``alpha`` and ``vocab_ext`` fix: sharing is safe."""

    def __init__(self, order: int, vocab_ext: int, alpha: float = 0.1):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if vocab_ext < 1:
            raise ValueError(f"vocab_ext must be >= 1, got {vocab_ext}")
        # a context must fit one int64 code; testing order first keeps a huge one cheap
        if not (order <= 63 and (vocab_ext + 1) ** order <= 2**63):
            raise ValueError(f"order {order} is too large for vocab_ext {vocab_ext}: "
                             f"(vocab_ext + 1) ** order must not exceed 2**63")
        # every probability is at least alpha / (2**53 + alpha * vocab_ext), 2**53
        # being load's cap on a row total; a normal one keeps each log, and so a
        # mean negative log-likelihood (<= 708.4), and its exp finite
        if not (alpha > 0 and math.isfinite(alpha * vocab_ext)
                and alpha / (2**53 + alpha * vocab_ext) >= sys.float_info.min):
            raise ValueError(f"alpha must be > 0 with alpha * vocab_ext finite and "
                             f"alpha / (2**53 + alpha * vocab_ext) >= {sys.float_info.min}, "
                             f"got {alpha}")
        self.order = order
        self.vocab_ext = vocab_ext
        self.alpha = alpha
        # the weight of each of a context's ids in its code; below 2**63
        self._place = np.array([(vocab_ext + 1) ** k for k in reversed(range(order))],
                               dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        self._set_rows(empty, np.zeros(1, dtype=np.int64), empty, empty)
        # (width, temperature, top_k), or (code, lo, hi, skip, temperature, top_k)
        # for a seen context: its cdf and kept places
        self._cdfs: dict[tuple, tuple[array, list[int] | None]] = {}

    @property
    def bos(self) -> int:
        return self.vocab_ext

    @property
    def totals(self) -> dict[int, int]:
        """``{context code: total}``, built from the arrays on each read."""
        return dict(zip(self.codes.tolist(), self.row_totals.tolist()))

    def code(self, context: Sequence[int]) -> int:
        """The code of ``context``'s last ``order`` ids (in [0, vocab_ext]), after
        begin markers if it is shorter; a Python int for ids of any integer type."""
        base = self.vocab_ext + 1
        tail = context[-self.order :]
        code = base ** (self.order - len(tail)) - 1  # begin markers: every digit base - 1
        for tok in tail:
            code = code * base + int(tok)
        return code

    @cached_property
    def _filter(self) -> tuple[bytes, int]:
        """For ``sample_constrained``: a table of one byte per slot, set at
        each seen code's slot, and the shift that picks a code's slot from
        the top bits of the code times ``_HASH``, masked to 64 bits. The
        table has the power of two at or above 8 slots per row, so at most an
        eighth of it is set, and about as many unseen codes (12% or less)
        find a set byte."""
        shift = 64 - (8 * max(len(self.codes), 1) - 1).bit_length()
        table = np.zeros(1 << (64 - shift), dtype=np.uint8)
        table[(self.codes.astype(np.uint64) * np.uint64(_HASH)) >> np.uint64(shift)] = 1
        return table.tobytes(), shift

    def _row(self, code: int) -> int | None:
        """The row of context ``code``, or None if it is unseen: a zero byte in
        the filter, or a set one whose code ``codes`` does not hold."""
        table, shift = self._filter
        if table[(code * _HASH & _MASK) >> shift]:
            row = int(self.codes.searchsorted(code))
            if row < len(self.codes) and self.codes[row] == code:
                return row
        return None

    def _set_rows(self, codes: np.ndarray, offsets: np.ndarray, tokens: np.ndarray,
                  freqs: np.ndarray) -> None:
        """Hold the rows of the module docstring, and their totals."""
        self.codes, self.offsets, self.tokens, self.freqs = codes, offsets, tokens, freqs
        self.row_totals = np.add.reduceat(freqs, offsets[:-1])

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

    def _dist(self, row: int | None, lo: int, hi: int, skip: int | None) -> np.ndarray:
        """The smoothed next-token probabilities after the context of ``row``
        (None: unseen) at only the ids of ``[lo, hi)`` but ``skip`` (None, or
        one of them), built alone."""
        alpha = self.alpha
        # (count + alpha) / (total + alpha * vocab_ext) for each token
        norm = (0 if row is None else int(self.row_totals[row])) + alpha * self.vocab_ext
        dist = np.empty(hi - lo - (skip is not None))
        dist.fill(alpha / norm)
        if row is not None:
            start, end = self.offsets[row : row + 2].tolist()
            for tok, freq in zip(self.tokens[start:end].tolist(), self.freqs[start:end].tolist()):
                if lo <= tok < hi and tok != skip:  # ids past skip sit one place left
                    dist[tok - lo - (skip is not None and tok > skip)] = (freq + alpha) / norm
        return dist

    def sequence_nll(self, sequence: Sequence[int], skip: int = 0) -> tuple[float, int]:
        """Total negative log-likelihood and token count, scoring positions
        ``skip`` onward (earlier tokens still condition the context). The
        sequence holds ids in [0, vocab_ext]."""
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        # position i of the sequence is predicted from padded[i : i + order]
        padded = np.concatenate((np.full(self.order, self.bos), np.asarray(sequence, np.int64)))
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
        codes = codes.astype(np.int64, copy=False)
        _require(np.all(np.diff(codes) > 0), "the context codes are not strictly increasing "
                                             "(a context repeated, or rows out of order)")
        _require(tokens.min(initial=0) >= 0 and tokens.max(initial=0) < vocab_ext,
                 f"a token lies outside [0, {vocab_ext})")
        rising = tokens[1:] > tokens[:-1]
        rising[offsets[1:-1] - 1] = True  # a row's first token follows the previous row's last
        _require(np.all(rising), "the tokens of a row are not strictly increasing")
        tokens = tokens.astype(np.int64)
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
    sums = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, dtype=np.int64, out=sums[1:])
    return None if sums.max() > top else sums


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
    parts = [_count(*model._windows(batch)) for batch in corpus_io.batches(corpus, 2**15)]
    if not parts:
        raise EmptyCorpus("training corpus is empty")
    entries = [np.concatenate(column) for column in zip(*parts)]
    codes, tokens, freqs = _count(*entries, kind="stable") if len(parts) > 1 else entries
    starts = np.flatnonzero(np.diff(codes, prepend=-1))  # each row's first entry
    model._set_rows(codes[starts], np.append(starts, len(codes)), tokens, freqs)
    return model


def _cdf_entry(model: NgramModel, row: int | None, lo: int, hi: int, skip: int | None,
               cfg: SamplerConfig) -> tuple[array, list[int] | None]:
    """``sample_constrained``'s cache entry: the cdf that ``rng.choice`` would
    search after top_k, then temperature, and the allowed places kept (None: all)."""
    probs, kept = model._dist(row, lo, hi, skip), None
    if cfg.top_k is not None and cfg.top_k < len(probs):
        # rank with stable index tie-breaking, so top_k (and greedy k=1) is deterministic
        kept = np.sort(np.lexsort((np.arange(len(probs)), -probs))[: cfg.top_k]).tolist()
        probs = probs[kept]
    if cfg.temperature != 1.0 and len(probs) > 1:
        # logits that overflow give NaN, which the check below rejects unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            logits = np.log(probs) / cfg.temperature
            logits -= logits.max()
            probs = np.exp(logits)
    probs /= np.add.reduce(probs)
    cdf = np.add.accumulate(probs)
    cdf /= cdf[-1]
    if not cdf[-1] > 0:
        raise ValueError("sampling distribution is not finite")
    return array("d", cdf.tobytes()), kept


def sample_constrained(model: NgramModel, code: int, lo: int, hi: int, skip: int | None,
                       rng, cfg: SamplerConfig = SamplerConfig()) -> int:
    """The next token after the context whose code is ``code`` (see
    ``NgramModel.code``), drawn from the ids of ``[lo, hi)`` other than
    ``skip`` (None, or an id in the range): one ``rng.random()`` (``rng`` is
    anything with ``random()``, such as a Generator) bisected in the cdf
    that the model caches for the context, span and sampler (see the
    module docstring); a seen context's key is its code, so ``_row`` searches
    ``codes`` only on a miss. One allowed id, or one kept by top_k (greedy is
    ``top_k=1``), is returned without touching the RNG. ``ValueError`` if no
    id is allowed, the span is not that within the model's ids, or the
    temperature is so small that the logits overflow."""
    n = hi - lo - (skip is not None)
    if n < 1:
        raise ValueError("allowed token set is empty")
    if not (0 <= lo and hi <= model.vocab_ext and (skip is None or lo <= skip < hi)):
        raise ValueError(f"span {(lo, hi, skip)} is not [lo, hi) less one id or none, "
                         f"within [0, {model.vocab_ext})")
    i = 0  # the drawn id's place among the allowed ones
    if n > 1:
        table, shift = model._filter
        seen = table[(code * _HASH & _MASK) >> shift]  # or a filter false positive
        key = ((code, lo, hi, skip, cfg.temperature, cfg.top_k) if seen
               else (n, cfg.temperature, cfg.top_k))
        if (entry := model._cdfs.get(key)) is None:
            row = model._row(code) if seen else None
            if row is None:  # an unseen context, a false positive too, has the width key
                key = (n, cfg.temperature, cfg.top_k)
            if (entry := model._cdfs.get(key)) is None:
                entry = _cdf_entry(model, row, lo, hi, skip, cfg)
                if (len(model._cdfs) + 1) * model.vocab_ext <= _CDF_FLOATS:
                    model._cdfs[key] = entry
        cdf, kept = entry
        if kept is None:
            i = bisect_right(cdf, rng.random())
        else:
            i = kept[bisect_right(cdf, rng.random()) if len(kept) > 1 else 0]
    return int(lo + i + (skip is not None and lo + i >= skip))


def perplexity(model: NgramModel, sequence: Sequence[int], skip: int = 0) -> float:
    """exp(mean negative log-likelihood per scored token)."""
    nll, scored = model.sequence_nll(sequence, skip=skip)
    if scored == 0:
        raise EmptySequence("no tokens to score")
    return math.exp(nll / scored)
