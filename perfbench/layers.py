"""Spans around each layer's public functions, for the traced run only.

`Tracer.install()` replaces each function in `TARGETS` at the module or
class attribute its caller looks it up through, and `restore()` puts the
originals back. `duplexsim` itself is not changed. A span is
[name, start, end, parent, run]: `parent` is the index of the enclosing
span (-1 for none) and `run` the traced round it belongs to. Spans stay in
memory until the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

import duplexsim.cli
import duplexsim.corpus_io
import duplexsim.interaction
import duplexsim.metrics
from duplexsim.interaction import InteractionTranscript
from duplexsim.ngram import NgramModel

# (owner, attribute, span name, counter). A counter maps the call's result
# to (name, amount) to add to the round's counts, or None.
TARGETS = [
    (duplexsim.cli, "main", "cli.main", None),
    (duplexsim.cli, "generate_dialogue", "synth.generate_dialogue", None),
    (duplexsim.cli, "chunk_streams", "tokens.chunk_streams", None),
    (duplexsim.cli, "deduplicate", "tokens.deduplicate", None),
    (duplexsim.cli, "flatten", "tokens.flatten", None),
    (duplexsim.cli, "interpolate", "tokens.interpolate", None),
    (duplexsim.interaction, "flatten", "tokens.flatten", None),
    (duplexsim.interaction, "parse", "tokens.parse", None),
    (duplexsim.metrics, "flatten", "tokens.flatten", None),
    (duplexsim.cli, "train", "ngram.train",
     lambda model: ("ngram.train.tokens", sum(model.totals.values()))),
    (NgramModel, "save", "ngram.save", None),
    (NgramModel, "load", "ngram.load", None),
    (NgramModel, "sequence_nll", "ngram.sequence_nll",
     lambda result: ("ngram.sequence_nll.tokens", result[1])),
    (duplexsim.interaction, "sample_constrained", "ngram.sample", None),
    (duplexsim.cli, "simulate_interaction", "interaction.simulate_interaction",
     lambda transcript: ("interaction.chunks", len(transcript.steps))),
    (duplexsim.cli, "continue_dialogue", "interaction.continue_dialogue", None),
    (InteractionTranscript, "to_json_dict", "interaction.to_json_dict", None),
    (duplexsim.cli, "correlation_report", "metrics.correlation_report", None),
    (duplexsim.cli, "per_dialogue_perplexities", "metrics.per_dialogue_perplexities",
     None),
    (duplexsim.metrics, "turn_events", "metrics.turn_events", None),
    (duplexsim.corpus_io, "read_corpus", "corpus_io.read_corpus", None),
    (duplexsim.corpus_io, "write_corpus", "corpus_io.write_corpus", None),
]

# Per-layer metrics: name -> unit. Each comes from the spans of one traced
# round, or from the transcripts that round wrote; the run reports the
# median over its traced rounds.
PER_LAYER = {
    "synth.generate_dialogue.calls": "count",
    "synth.generate_dialogue.s": "s",
    **{f"tokens.{f}.{m}": u
       for f in ("chunk_streams", "deduplicate", "flatten", "parse", "interpolate")
       for m, u in (("calls", "count"), ("s", "s"))},
    "ngram.train.s": "s",
    "ngram.train.tokens": "count",
    "ngram.save.s": "s",
    "ngram.load.calls": "count",
    "ngram.load.s": "s",
    "ngram.sample.calls": "count",
    "ngram.sample.s": "s",
    "ngram.sample.us_per_call": "us",
    "ngram.sequence_nll.tokens": "count",
    "ngram.sequence_nll.s": "s",
    "ngram.sequence_nll.us_per_token": "us",
    "interaction.simulate_interaction.calls": "count",
    "interaction.simulate_interaction.self_s": "s",
    "interaction.self_us_per_chunk": "us",
    "interaction.continue_dialogue.calls": "count",
    "interaction.continue_dialogue.self_s": "s",
    "interaction.to_json_dict.s": "s",
    "interaction.estimate_exact_rate": "ratio",
    "interaction.truncations": "count",
    "cli.main.self_s": "s",
    "metrics.correlation_report.s": "s",
    "metrics.per_dialogue_perplexities.s": "s",
    "metrics.turn_events.calls": "count",
    "corpus_io.read_corpus.calls": "count",
    "corpus_io.read_corpus.s": "s",
    "corpus_io.write_corpus.calls": "count",
    "corpus_io.write_corpus.s": "s",
    "trace.overhead_share": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                key, amount = counter(result)
                self.counts[self.run][key] += amount
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, counter))
            else:
                wrapped = self._wrap(original, name, counter)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus the time its direct
    children cover."""
    children = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            children[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - children[i] for i, s in enumerate(spans)]


def round_metrics(tracer: Tracer, run: int, estimates: tuple[int, int, int]
                  ) -> dict[str, float]:
    """Per-layer metrics of one traced round, except trace.overhead_share.
    `estimates` is the round's (made, useful, truncations) from
    `estimate_counts`."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
        if s[4] == run:
            calls[s[0]] += 1
            total[s[0]] += s[2] - s[1]
            own[s[0]] += self_s
    counts = tracer.counts[run]

    def per(num: float, den: float) -> float:
        return num / den * 1e6 if den else 0.0

    out = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[layer]
        elif kind == "s":
            out[metric] = total[layer]
        elif kind == "self_s":
            out[metric] = own[layer]
        elif kind == "tokens":
            out[metric] = counts[metric]
    out["ngram.sample.us_per_call"] = per(total["ngram.sample"], calls["ngram.sample"])
    out["ngram.sequence_nll.us_per_token"] = per(
        total["ngram.sequence_nll"], counts["ngram.sequence_nll.tokens"])
    out["interaction.self_us_per_chunk"] = per(
        own["interaction.simulate_interaction"], counts["interaction.chunks"])
    made, useful, truncations = estimates
    # 0 where the interaction engine does not run (corpus_continue), like
    # the other metrics of a layer that makes no calls: not a worst case.
    out["interaction.estimate_exact_rate"] = useful / made if made else 0.0
    out["interaction.truncations"] = truncations
    return out


def estimate_counts(transcript: dict) -> tuple[int, int, int]:
    """From an `interact` transcript: model A's estimates of user chunks, how
    many equal the chunk that then arrived, and both agents' truncations."""
    made = useful = truncations = 0
    for t in transcript["transcripts"]:
        truncations += t["user_truncations"]
        for step in t["steps"]:
            truncations += step["truncations"]
            for est in step["estimate_history"]:
                made += 1
                useful += est == step["user_actual"]
    return made, useful, truncations
