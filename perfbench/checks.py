"""Checks on the outputs of each benchmark stage.

Imported before the traced run installs its wrappers, so the checks call
the original functions and add no spans.
"""

from __future__ import annotations

import hashlib
import json
import math

from duplexsim.corpus_io import read_corpus
from duplexsim.tokens import DedupChunk, DedupDialogue, Vocab, flatten, parse
from layers import estimate_counts


def finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_stage(stage, estimates: list[int]) -> str | None:
    """Why the stage's outputs are wrong, or None. Adds the estimate counts
    of an interaction transcript to `estimates`."""
    vocab = None
    for path, (count, frames) in stage.corpora.items():
        entries = read_corpus(path)
        if len(entries) != count:
            return f"{path}: {len(entries)} dialogues, expected {count}"
        for did, s0, s1, vocab in entries:
            if len(s0) != frames or len(s1) != frames:
                return f"{path}: dialogue {did} has {len(s0)} frames, expected {frames}"
    if stage.transcript is not None:
        path, mode, count, chunks = stage.transcript
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("mode") != mode:
            return f"{path}: mode {doc.get('mode')!r}, expected {mode!r}"
        if mode == "interaction":
            dialogues = []
            for t in doc["transcripts"]:
                d = t["dialogue"]
                v = Vocab(size=d["vocab_size"], frame_ms=d["frame_ms"],
                          silence_tokens=frozenset(d["silence"]))
                dialogues.append(DedupDialogue(v, d["chunk_ms"], tuple(
                    DedupChunk(tuple(c["s0"]), tuple(c["s1"])) for c in d["chunks"])))
            for i, n in enumerate(estimate_counts(doc)):
                estimates[i] += n
        else:
            dialogues = [parse(e["flat"], vocab, doc["chunk_ms"]) for e in doc["dialogues"]]
        if len(dialogues) != count:
            return f"{path}: {len(dialogues)} dialogues, expected {count}"
        for d in dialogues:
            if len(d.chunks) != chunks:
                return f"{path}: {len(d.chunks)} chunks, expected {chunks}"
            if parse(flatten(d), d.vocab, d.chunk_ms) != d:
                return f"{path}: dialogue does not round-trip through parse(flatten())"
    if stage.eval_json is not None:
        with open(stage.eval_json, encoding="utf-8") as fh:
            m = json.load(fh)["metrics"]
        if "median_ppl" in m:
            values = [m["median_ppl"], *m["per_dialogue"].values()]
        else:
            values = [m["average_r"]] + [m[k] for k in ("ipu_r", "pause_r", "fto_r")
                                         if m[k] is not None]
        if not all(finite(v) for v in values):
            return f"{stage.eval_json}: non-finite metric in {values}"
    return None


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


