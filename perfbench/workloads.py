"""The benchmark's three workloads, as lists of `duplexsim` CLI stages.

Each workload is the user-facing pipeline `synth -> train -> interact|continue
-> eval`. A stage is one `duplexsim.cli.main(argv)` call plus the checks its
outputs must pass. Every `--seed` given to the CLI is derived from the
benchmark seed, so the same seed gives the same inputs and outputs.

Why these three (see README.md for the layer map):

* interact_long: few, long two-model sessions at latency 3. The per-step
  context rebuild, the context copy in `NgramModel._key` and transcript
  serialisation all grow with session length, and scoring runs on long
  sequences.
* sweep_short: the paper's latency-sweep shape. Many short sessions over a
  24-unit alphabet at 160/200/240 ms chunks and latency 1, so per-token and
  per-session fixed costs dominate and contexts stay short.
* corpus_continue: a large training corpus, so the n-gram write side
  (`train`, `save`) and read side (`load`, twice) dominate, plus synthesis,
  the codec, continuation mode and the turn metrics. It never runs the
  interaction engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# Sizes at which the workloads run. "tiny" keeps every stage and check but
# finishes in about a second; the benchmark's own test uses it.
SIZES = {
    "full": {
        "interact_long": {"train": 60, "prompts": 2, "chunks": 320},
        "sweep_short": {"train": 360, "prompts": 16},
        "corpus_continue": {"train": 60, "prompts": 8},
    },
    "tiny": {
        "interact_long": {"train": 3, "prompts": 1, "chunks": 20},
        "sweep_short": {"train": 4, "prompts": 2},
        "corpus_continue": {"train": 3, "prompts": 3},
    },
}

FRAME_MS = 40

# The dialogue style of the paper's latency-sweep experiment, over 24 units.
SWEEP_STYLE = {
    "vocab_size": 24,
    "frame_ms": FRAME_MS,
    "silence_token": 0,
    "ipu_ms": [1600.0, 400.0],
    "pause_ms": [520.0, 120.0],
    "fto_ms": [240.0, 120.0],
    "turn_continue_prob": 0.35,
    "backchannel_prob": 0.15,
    "backchannel_ms": [280.0, 80.0],
    "p_self": 0.45,
    "unit_range": None,
    "successor_count": 3,
}


@dataclass
class Stage:
    """One CLI call. `kind` is setup, generate or eval. `corpora` maps each
    corpus the stage writes to its (dialogue count, frames per channel);
    `transcript` is (path, mode, dialogue count, chunks per dialogue);
    `digests` names the outputs whose bytes are pinned by digests.json."""

    kind: str
    argv: list[str]
    corpora: dict[str, tuple[int, int]] = field(default_factory=dict)
    transcript: tuple[str, str, int, int] | None = None
    eval_json: str | None = None
    models: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)


@dataclass
class Plan:
    stages: list[Stage]
    generated_s: float  # seconds of dialogue the generate stages produce


def _cli_seed(seed: int, k: int) -> str:
    return str(seed * 16 + k)


def _frames(ms: int) -> int:
    return ms // FRAME_MS


def _synth(path: str, count: int, duration_ms: int, seed: str, *extra: str) -> Stage:
    return Stage(
        "setup",
        ["synth", *extra, "--count", str(count), "--duration-ms", str(duration_ms),
         "--seed", seed, "--out", path],
        corpora={path: (count, _frames(duration_ms))},
        digests=[path],
    )


def _train(corpus: str, out: str, *extra: str) -> Stage:
    return Stage("setup", ["train", "--corpus", corpus, "--order", "4", *extra,
                           "--out", out], models=[out])


def _eval_ppl(generated: str, model: str, prompt_ms: int, out: str, *extra: str) -> Stage:
    return Stage(
        "eval",
        ["eval", "--mode", "ppl", *extra, "--generated", generated, "--model", model,
         "--prompt-ms", str(prompt_ms), "--out", out],
        eval_json=out + ".json",
        digests=[out + ".json"],
    )


def _interact(model: str, prompts: str, n: int, prompt_ms: int, chunk_ms: int,
              chunks: int, latency: int, seed: str, out: str, corpus_out: str) -> Stage:
    total = prompt_ms // chunk_ms + chunks
    return Stage(
        "generate",
        ["interact", "--chunk-ms", str(chunk_ms), "--model-a", model, "--model-b", model,
         "--prompts", prompts, "--prompt-ms", str(prompt_ms), "--latency", str(latency),
         "--max-chunks", str(chunks), "--seed", seed, "--out", out,
         "--corpus-out", corpus_out],
        corpora={corpus_out: (n, _frames(total * chunk_ms))},
        transcript=(out, "interaction", n, total),
        outputs=[out, corpus_out],
        digests=[corpus_out],
    )


def interact_long(seed: int, size: dict) -> Plan:
    n, chunks, prompt_ms = size["prompts"], size["chunks"], 9600
    return Plan(
        [
            _synth("train.jsonl", size["train"], 60000, _cli_seed(seed, 0)),
            _synth("prompts.jsonl", n, prompt_ms, _cli_seed(seed, 1)),
            _train("train.jsonl", "model.json"),
            _interact("model.json", "prompts.jsonl", n, prompt_ms, 160, chunks, 3,
                      _cli_seed(seed, 2), "transcript.json", "generated.jsonl"),
            _eval_ppl("generated.jsonl", "model.json", prompt_ms, "eval_ppl"),
        ],
        generated_s=n * chunks * 0.160,
    )


def sweep_short(seed: int, size: dict) -> Plan:
    n, prompt_ms, run_ms = size["prompts"], 4800, 14400
    style = ("--style", "style.json")
    stages = [
        _synth("train.jsonl", size["train"], 24000, _cli_seed(seed, 0), *style),
        _synth("prompts.jsonl", n, prompt_ms, _cli_seed(seed, 1), *style),
    ]
    for chunk_ms in (160, 200, 240):
        stages.append(_train("train.jsonl", f"model_{chunk_ms}.json", "--chunk-ms",
                             str(chunk_ms), "--alpha", "0.001"))
    for k, chunk_ms in enumerate((160, 200, 240)):
        stages.append(_interact(f"model_{chunk_ms}.json", "prompts.jsonl", n, prompt_ms,
                                chunk_ms, run_ms // chunk_ms, 1, _cli_seed(seed, 2 + k),
                                f"transcript_{chunk_ms}.json", f"generated_{chunk_ms}.jsonl"))
        stages.append(_eval_ppl(f"generated_{chunk_ms}.jsonl", f"model_{chunk_ms}.json",
                                prompt_ms, f"eval_ppl_{chunk_ms}", "--chunk-ms", str(chunk_ms)))
    return Plan(stages, generated_s=3 * n * run_ms / 1000)


def corpus_continue(seed: int, size: dict) -> Plan:
    n, prompt_ms, continue_ms = size["prompts"], 9600, 30400
    total_chunks = (prompt_ms + continue_ms) // 160
    return Plan(
        [
            _synth("train.jsonl", size["train"], 60000, _cli_seed(seed, 0)),
            _synth("reference.jsonl", n, prompt_ms + continue_ms, _cli_seed(seed, 1)),
            _train("train.jsonl", "model.json"),
            Stage(
                "generate",
                ["continue", "--model", "model.json", "--prompts", "reference.jsonl",
                 "--prompt-ms", str(prompt_ms), "--continue-ms", str(continue_ms),
                 "--seed", _cli_seed(seed, 2), "--out", "generated.jsonl",
                 "--transcript", "transcript.json"],
                corpora={"generated.jsonl": (n, _frames(prompt_ms + continue_ms))},
                transcript=("transcript.json", "continuation", n, total_chunks),
                outputs=["generated.jsonl", "transcript.json"],
                digests=["generated.jsonl"],
            ),
            Stage(
                "eval",
                ["eval", "--mode", "turns", "--generated", "generated.jsonl",
                 "--reference", "reference.jsonl", "--out", "eval_turns"],
                eval_json="eval_turns.json",
                digests=["eval_turns.json"],
            ),
            _eval_ppl("reference.jsonl", "model.json", prompt_ms, "eval_ppl"),
        ],
        generated_s=n * continue_ms / 1000,
    )


WORKLOADS = {
    "interact_long": interact_long,
    "sweep_short": sweep_short,
    "corpus_continue": corpus_continue,
}


def prepare(name: str, seed: int, size: str) -> Plan:
    """Write the workload's fixed inputs into the working directory and
    return its stages, whose paths are relative to that directory."""
    if name == "sweep_short":
        Path("style.json").write_text(json.dumps(SWEEP_STYLE, sort_keys=True))
    return WORKLOADS[name](seed, SIZES[size][name])
