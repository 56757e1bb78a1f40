"""Command-line pipeline: synth | train | continue | interact | eval | report.

Every subcommand validates its inputs before creating any output file and
is byte-reproducible under fixed seeds. Failures print a JSON object to
stderr; exit codes are 0 (ok), 2 (invalid configuration or inputs),
3 (runtime error).
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from . import corpus_io
from .errors import ConfigError, DuplexError, EmptyCorpus
from .interaction import (
    InteractionConfig,
    continue_dialogue,
    simulate_interaction,
)
from .metrics import EventParams, correlation_report, per_dialogue_perplexities
from .ngram import NgramModel, SamplerConfig, train
from .synth import (
    Corpus,
    DialogueRecord,
    DialogueStyle,
    corpus_stats,
    generate_dialogue,
    generate_stage2_dialogue,
)
from .tokens import TokenStream, Vocab, chunk_streams, deduplicate, flatten, interpolate


def _derive_seed(seed: int, index: int) -> int:
    """Stable per-item seed from a run seed and an item index."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _vocab_from_args(args) -> Vocab:
    return Vocab(
        size=args.vocab,
        frame_ms=args.frame_ms,
        silence_tokens=frozenset({args.silence_token}),
    )


def _style_from_args(args) -> DialogueStyle:
    if args.style is not None:
        return DialogueStyle.from_file(args.style)
    return DialogueStyle(vocab=_vocab_from_args(args), silence_token=args.silence_token)


def _check_outputs(*paths: Path | None) -> None:
    for p in paths:
        if p is None:
            continue
        parent = Path(p).parent
        if not parent.exists():
            raise ConfigError(f"output directory does not exist: {parent}")


def _require_files(*paths) -> None:
    for p in paths:
        if p is None:
            continue
        if not Path(p).is_file():
            raise ConfigError(f"input file not found: {p}")


def _load_corpus(path) -> tuple[list[tuple[str, TokenStream, TokenStream]], Vocab]:
    entries = corpus_io.read_corpus(path)
    if not entries:
        raise EmptyCorpus(f"corpus {path} has no dialogues")
    vocab = entries[0][3]
    return [(did, s0, s1) for did, s0, s1, _ in entries], vocab


def _flat_sequences(
    dialogues: list[tuple[str, TokenStream, TokenStream]], vocab: Vocab, chunk_ms: int
) -> list[list[int]]:
    out = []
    for _, s0, s1 in dialogues:
        if len(s0) == 0:
            continue
        out.append(flatten(deduplicate(chunk_streams(s0, s1, chunk_ms, vocab))))
    return out


def _prompt_dedup(s0: TokenStream, s1: TokenStream, vocab: Vocab, chunk_ms: int,
                  prompt_ms: int):
    frames = prompt_ms // vocab.frame_ms
    p0 = TokenStream(0, s0.tokens[:frames], vocab.frame_ms)
    p1 = TokenStream(1, s1.tokens[:frames], vocab.frame_ms)
    return deduplicate(chunk_streams(p0, p1, chunk_ms, vocab))


def _dialogue_record(did: str, dlg, vocab: Vocab) -> dict:
    full = interpolate(dlg)
    s0 = TokenStream(0, full.channel(0), vocab.frame_ms)
    s1 = TokenStream(1, full.channel(1), vocab.frame_ms)
    return corpus_io.dialogue_to_record(did, s0, s1, vocab)


def cmd_synth(args) -> int:
    style = _style_from_args(args)
    _check_outputs(args.out, args.flat_out, args.stats_out)
    if args.mode == "duplex" and (args.duration_ms < 0 or args.duration_ms % style.vocab.frame_ms):
        raise ConfigError("--duration-ms must be a non-negative multiple of frame_ms")

    records = []
    dialogues = []
    for i in range(args.count):
        did = f"d{i:05d}"
        seed_i = [args.seed, i]
        if args.mode == "stage2":
            s0, s1 = generate_stage2_dialogue(style, args.turns, seed_i)
        else:
            s0, s1 = generate_dialogue(style, args.duration_ms, seed_i)
        records.append(corpus_io.dialogue_to_record(did, s0, s1, style.vocab))
        dialogues.append(DialogueRecord(id=did, s0=s0, s1=s1))
    corpus_io.write_corpus(args.out, records)
    if args.flat_out is not None:
        seqs = _flat_sequences([(d.id, d.s0, d.s1) for d in dialogues],
                               style.vocab, args.chunk_ms)
        corpus_io.write_flat(args.flat_out, seqs)
    if args.stats_out is not None:
        stats = corpus_stats(Corpus(tuple(dialogues), style=style, seed=args.seed),
                             chunk_ms=args.chunk_ms)
        payload = {
            "event_means_ms": stats.event_means_ms,
            "event_stds_ms": stats.event_stds_ms,
            "event_counts": stats.event_counts,
            "overlap_frames": stats.overlap_frames,
            "raw_tokens_per_s": stats.raw_tokens_per_s,
            "dedup_tokens_per_s": stats.dedup_tokens_per_s,
            "compression_ratio": stats.compression_ratio,
        }
        _write_json(args.stats_out, payload)
    return 0


def cmd_train(args) -> int:
    _require_files(args.corpus)
    _check_outputs(args.out, args.flat_dump)
    path = Path(args.corpus)
    if path.suffix == ".jsonl":
        dialogues, vocab = _load_corpus(path)
        sequences = _flat_sequences(dialogues, vocab, args.chunk_ms)
        vocab_ext = vocab.extended_size
    else:
        sequences = corpus_io.read_flat(path)
        vocab_ext = args.vocab + 2
    model = train(sequences, order=args.order, alpha=args.alpha, vocab_ext=vocab_ext)
    model.save(args.out)
    if args.flat_dump is not None:
        corpus_io.write_flat(args.flat_dump, sequences)
    return 0


def _sampler_from_args(args, seed: int) -> SamplerConfig:
    top_k = 1 if args.greedy else args.top_k
    return SamplerConfig(temperature=args.temperature, top_k=top_k, seed=seed)


def cmd_continue(args) -> int:
    _require_files(args.model, args.prompts)
    _check_outputs(args.out, args.transcript)
    model = NgramModel.load(args.model)
    dialogues, vocab = _load_corpus(args.prompts)
    if model.vocab_ext != vocab.extended_size:
        raise ConfigError(
            f"model vocab_ext {model.vocab_ext} does not match corpus vocab "
            f"{vocab.extended_size}"
        )
    n_chunks = args.continue_ms // args.chunk_ms
    if n_chunks < 1:
        raise ConfigError("--continue-ms must cover at least one chunk")

    out_records = []
    transcript_entries = []
    for i, (did, s0, s1) in enumerate(dialogues):
        prompt = _prompt_dedup(s0, s1, vocab, args.chunk_ms, args.prompt_ms)
        cfg = _sampler_from_args(args, _derive_seed(args.seed, i))
        result = continue_dialogue(model, prompt, n_chunks, cfg)
        out_records.append(_dialogue_record(did, result, vocab))
        transcript_entries.append(
            {
                "id": did,
                "seed": cfg.seed,
                "prompt_chunks": len(prompt.chunks),
                "n_chunks": n_chunks,
                "flat": flatten(result),
            }
        )
    corpus_io.write_corpus(args.out, out_records)
    if args.transcript is not None:
        _write_json(
            args.transcript,
            {
                "mode": "continuation",
                "chunk_ms": args.chunk_ms,
                "prompt_ms": args.prompt_ms,
                "continue_ms": args.continue_ms,
                "seed": args.seed,
                "dialogues": transcript_entries,
            },
        )
    return 0


def cmd_interact(args) -> int:
    if (args.model_b is None) == (args.scripted is None):
        raise ConfigError("provide exactly one of --model-b or --scripted")
    _require_files(args.model_a, args.model_b, args.scripted, args.prompts)
    _check_outputs(args.out, args.corpus_out)
    model_a = NgramModel.load(args.model_a)
    model_b = NgramModel.load(args.model_b) if args.model_b else None

    max_chunks = args.max_chunks
    if max_chunks is None:
        max_chunks = args.duration_ms // args.chunk_ms
    if max_chunks < 1:
        raise ConfigError("run needs at least one chunk (--max-chunks/--duration-ms)")

    prompt_chunks = args.prompt_ms // args.chunk_ms if args.prompt_ms else 0

    runs = []  # (id, prompt or None, scripted DedupDialogue or None)
    if args.scripted is not None:
        dialogues, vocab = _load_corpus(args.scripted)
        for did, s0, s1 in dialogues:
            script = deduplicate(chunk_streams(s0, s1, args.chunk_ms, vocab))
            prompt = None
            if prompt_chunks:
                prompt = _prompt_dedup(s0, s1, vocab, args.chunk_ms, args.prompt_ms)
            runs.append((did, prompt, script))
    elif args.prompts is not None:
        dialogues, vocab = _load_corpus(args.prompts)
        for did, s0, s1 in dialogues:
            prompt = _prompt_dedup(s0, s1, vocab, args.chunk_ms, args.prompt_ms) \
                if prompt_chunks else None
            runs.append((did, prompt, None))
    else:
        vocab = _vocab_from_args(args)
        runs.append(("run00000", None, None))

    for model, name in ((model_a, "model-a"), (model_b, "model-b")):
        if model is not None and model.vocab_ext != vocab.extended_size:
            raise ConfigError(
                f"{name} vocab_ext {model.vocab_ext} does not match vocab "
                f"{vocab.extended_size}"
            )

    transcripts = []
    corpus_records = []
    for i, (did, prompt, script) in enumerate(runs):
        cfg = InteractionConfig(
            chunk_ms=args.chunk_ms,
            latency_chunks=args.latency,
            max_chunks=(len(prompt.chunks) if prompt else 0) + max_chunks,
            sampler=_sampler_from_args(args, _derive_seed(args.seed, i)),
            overflow_policy=args.overflow_policy,
        )
        source = script if script is not None else model_b
        transcript = simulate_interaction(model_a, source, cfg, vocab=vocab, prompt=prompt)
        entry = transcript.to_json_dict()
        entry["id"] = did
        transcripts.append(entry)
        corpus_records.append(_dialogue_record(did, transcript.dialogue, vocab))
    _write_json(args.out, {"mode": "interaction", "seed": args.seed,
                           "transcripts": transcripts})
    if args.corpus_out is not None:
        corpus_io.write_corpus(args.corpus_out, corpus_records)
    return 0


def cmd_eval(args) -> int:
    if args.mode == "turns":
        _require_files(args.generated, args.reference)
    else:
        _require_files(args.generated, args.model)
    base = Path(args.out)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    _check_outputs(csv_path, json_path)

    if args.mode == "turns":
        gen, vocab = _load_corpus(args.generated)
        ref, _ = _load_corpus(args.reference)
        skip = args.skip_ms // vocab.frame_ms

        def trim(entries):
            out = {}
            for did, s0, s1 in entries:
                out[did] = (
                    TokenStream(0, s0.tokens[skip:], vocab.frame_ms),
                    TokenStream(1, s1.tokens[skip:], vocab.frame_ms),
                )
            return out

        params = EventParams(
            min_voiced_ms=args.min_voiced_ms,
            bridge_ms=args.bridge_ms,
            ipu_gap_ms=args.ipu_gap_ms,
        )
        report = correlation_report(trim(gen), trim(ref), vocab.silence_tokens, params)
        kinds = report.to_dict()["kinds"]
        metrics_payload = {
            "ipu_r": kinds["ipu"]["r"],
            "pause_r": kinds["pause"]["r"],
            "fto_r": kinds["fto"]["r"],
            "average_r": report.average_r,
            "detail": report.to_dict(),
        }
    else:
        model = NgramModel.load(args.model)
        gen, vocab = _load_corpus(args.generated)
        if model.vocab_ext != vocab.extended_size:
            raise ConfigError("model vocabulary does not match corpus")
        prompt_chunks = args.prompt_ms // args.chunk_ms
        dialogues = [
            deduplicate(chunk_streams(s0, s1, args.chunk_ms, vocab))
            for _, s0, s1 in gen
        ]
        ppls = per_dialogue_perplexities(model, dialogues, prompt_chunks=prompt_chunks)
        metrics_payload = {
            "median_ppl": float(statistics.median(ppls)),
            "n_dialogues": len(ppls),
            "per_dialogue": {did: p for (did, _, _), p in zip(gen, ppls)},
        }

    payload = {
        "model": args.model_name,
        "dataset": args.dataset_name,
        "mode": args.mode,
        "params": {
            "chunk_ms": args.chunk_ms,
            "latency_chunks": args.latency,
            "prompt_ms": args.prompt_ms if args.mode == "ppl" else None,
            "skip_ms": args.skip_ms if args.mode == "turns" else None,
        },
        "metrics": metrics_payload,
    }
    _write_json(json_path, payload)
    _write_report_csv(csv_path, [payload])
    return 0


REPORT_COLUMNS = [
    "model", "dataset", "mode", "chunk_ms", "latency_chunks",
    "ipu_r", "pause_r", "fto_r", "average_r", "median_ppl", "n_dialogues",
]


def _report_row(payload: dict) -> dict:
    metrics_payload = payload.get("metrics", {})
    params = payload.get("params", {})
    row = {c: "" for c in REPORT_COLUMNS}
    row["model"] = payload.get("model", "")
    row["dataset"] = payload.get("dataset", "")
    row["mode"] = payload.get("mode", "")
    for key in ("chunk_ms", "latency_chunks"):
        if params.get(key) is not None:
            row[key] = params[key]
    for key in ("ipu_r", "pause_r", "fto_r", "average_r", "median_ppl", "n_dialogues"):
        if metrics_payload.get(key) is not None:
            row[key] = metrics_payload[key]
    return row


def _write_report_csv(path, payloads: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for payload in payloads:
            writer.writerow(_report_row(payload))


def cmd_report(args) -> int:
    _require_files(*args.inputs)
    _check_outputs(args.out)
    payloads = []
    for p in args.inputs:
        with open(p, "r", encoding="utf-8") as fh:
            payloads.append(json.load(fh))
    _write_report_csv(args.out, payloads)
    return 0


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duplexsim",
        description="Synchronous two-channel dialogue pipeline: synthesis, "
        "training, generation, interaction, evaluation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--frame-ms", type=int, default=40)
    common.add_argument("--chunk-ms", type=int, default=160)
    common.add_argument("--vocab", type=int, default=501,
                        help="number of speech units")
    common.add_argument("--silence-token", type=int, default=0)

    sampler = argparse.ArgumentParser(add_help=False)
    sampler.add_argument("--temperature", type=float, default=1.0)
    sampler.add_argument("--top-k", type=int, default=None)
    sampler.add_argument("--greedy", action="store_true",
                         help="shortcut for --top-k 1")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--style", type=Path, default=None, help="style config JSON")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--duration-ms", type=int, default=60000)
    p.add_argument("--mode", choices=["duplex", "stage2"], default="duplex")
    p.add_argument("--turns", type=int, default=10, help="turns per stage2 dialogue")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--flat-out", type=Path, default=None,
                   help="also dump flattened wire sequences")
    p.add_argument("--stats-out", type=Path, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="train the n-gram model")
    p.add_argument("--corpus", type=Path, required=True,
                   help=".jsonl corpus or flat .txt dump")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--flat-dump", type=Path, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("continue", parents=[common, sampler],
                       help="prompted continuation of both channels")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--prompts", type=Path, required=True)
    p.add_argument("--prompt-ms", type=int, default=10000)
    p.add_argument("--continue-ms", type=int, default=30000)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--transcript", type=Path, default=None)
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("interact", parents=[common, sampler],
                       help="latency-tolerant two-agent interaction")
    p.add_argument("--model-a", type=Path, required=True)
    p.add_argument("--model-b", type=Path, default=None)
    p.add_argument("--scripted", type=Path, default=None,
                   help="corpus whose channel 1 scripts the user")
    p.add_argument("--latency", type=int, default=1)
    p.add_argument("--max-chunks", type=int, default=None)
    p.add_argument("--duration-ms", type=int, default=30000)
    p.add_argument("--prompts", type=Path, default=None)
    p.add_argument("--prompt-ms", type=int, default=0)
    p.add_argument("--overflow-policy", choices=["truncate", "error"],
                   default="truncate")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--corpus-out", type=Path, default=None)
    p.set_defaults(func=cmd_interact)

    p = sub.add_parser("eval", parents=[common],
                       help="turn-taking correlations or median perplexity")
    p.add_argument("--mode", choices=["turns", "ppl"], required=True)
    p.add_argument("--generated", type=Path, required=True)
    p.add_argument("--reference", type=Path, default=None)
    p.add_argument("--model", type=Path, default=None)
    p.add_argument("--prompt-ms", type=int, default=0)
    p.add_argument("--skip-ms", type=int, default=0)
    p.add_argument("--ipu-gap-ms", type=int, default=200)
    p.add_argument("--min-voiced-ms", type=int, default=0)
    p.add_argument("--bridge-ms", type=int, default=0)
    p.add_argument("--latency", type=int, default=None)
    p.add_argument("--model-name", default="model")
    p.add_argument("--dataset-name", default="dataset")
    p.add_argument("--out", type=Path, required=True,
                   help="base path; writes .csv and .json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="merge eval JSON outputs into one CSV")
    p.add_argument("--inputs", type=Path, nargs="+", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            if args.mode == "turns" and args.reference is None:
                raise ConfigError("eval --mode turns requires --reference")
            if args.mode == "ppl" and args.model is None:
                raise ConfigError("eval --mode ppl requires --model")
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        _fail(exc)
        return 2
    except DuplexError as exc:
        _fail(exc)
        return 3


def _fail(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
