"""Command-line pipeline: synth | train | continue | interact | eval | report.

Every subcommand is byte-reproducible under fixed seeds. It reads and
writes files only through ``corpus_io`` (each format checked once, every
output atomic, none the file of an input or another output) and writes its
first output only when all its work is done.
Each input file is read once, into ``{id: (s0, s1)}`` of int64 channels
and the one ``Vocab`` its dialogues share, and each dialogue is encoded to
the wire format once, through ``tokens.encode`` (``train`` and ``eval
--mode ppl`` make one call per corpus); a prompt is the first
``--prompt-ms // --chunk-ms`` chunks of that encoding. A model file named
twice is parsed once and checked against the vocabulary once. A command
accepts only the flags it reads, and one flag per setting: a run's
vocabulary comes from its style file or corpus, or, when it reads none,
from ``--vocab --frame-ms --silence-token``, never from both, and a flag
that a given combination would not read is an error.

``eval --mode turns`` needs ``--reference`` and reads ``--skip-ms`` and
the event flags, whose defaults are ``EventParams``'s; ``--mode ppl`` needs
``--model`` and reads ``--prompt-ms``. Both record ``--chunk-ms``, which
must be a chunk size of the corpus, and ``--latency``.

Failures print a JSON object to stderr; exit codes are 0 (ok), 2 (invalid
configuration or inputs), 3 (runtime error).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import warnings
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from . import corpus_io
# perfbench/layers.py times the layers by rebinding, through
# inspect.getattr_static, main, generate_dialogue, chunk_streams, deduplicate,
# flatten, interpolate, train, simulate_interaction, continue_dialogue,
# correlation_report and per_dialogue_perplexities here, so each stays bound.
# Only chunk_streams is bound for it alone: no command calls it.
from .errors import ConfigError, DuplexError, EmptyCarryOverWarning, EmptyCorpus
from .interaction import InteractionConfig, continue_dialogue, simulate_interaction
from .metrics import EventParams, correlation_report, per_dialogue_perplexities
from .ngram import NgramModel, SamplerConfig, train
from .synth import (
    DialogueStyle,
    corpus_stats,
    generate_dialogue,
    generate_stage2_dialogue,
)
from .tokens import (  # noqa: F401 (chunk_streams: see above)
    DedupDialogue,
    Vocab,
    chunk_streams,
    deduplicate,
    encode,
    flatten,
    interpolate,
)

DEFAULT_CHUNK_MS = 160


def _derive_seed(seed: int, index: int) -> int:
    """Stable per-item seed from a run seed and an item index."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _no_vocab_flags(args, source) -> None:
    """The file ``source`` supplies the vocabulary, so no flag may."""
    if any(getattr(args, f, None) is not None for f in ("vocab", "frame_ms", "silence_token")):
        raise ConfigError(f"--vocab, --frame-ms and --silence-token do not apply with "
                          f"{source}, which supplies the vocabulary")


def _vocab_from_args(args) -> Vocab:
    """The flags' vocabulary; a flag left out keeps ``Vocab``'s default."""
    fields = {"size": args.vocab, "frame_ms": args.frame_ms,
              "silence_tokens": None if args.silence_token is None
              else frozenset({args.silence_token})}
    return Vocab(**{k: v for k, v in fields.items() if v is not None})


def _style_from_args(args) -> DialogueStyle:
    if args.style is not None:
        _no_vocab_flags(args, args.style)
        return DialogueStyle.from_file(args.style)
    return DialogueStyle(vocab=_vocab_from_args(args))


def _check_outputs(inputs, *outputs: Path | None) -> None:
    """Fail before a command reads or writes anything unless each output
    can be written and names no file that an input or another output does."""
    taken = {corpus_io.file_identity(p): p for p in inputs if p is not None}
    for p in outputs:
        if p is None:
            continue
        parent = Path(p).parent
        if not parent.is_dir():
            raise ConfigError(f"output directory does not exist: {parent}")
        if Path(p).is_dir():
            raise ConfigError(f"output path is a directory: {p}")
        key = corpus_io.file_identity(p)
        if key is not None and key in taken:
            raise ConfigError(f"output {p} would overwrite {taken[key]}, which the command "
                              f"also names")
        taken[key] = p


def _load_corpus(path) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], Vocab]:
    """A corpus as ``{id: (s0, s1)}`` in file order, and the one vocabulary
    every record declares."""
    entries = corpus_io.read_corpus(path)
    if not entries:
        raise EmptyCorpus(f"corpus {path} has no dialogues")
    return {did: (s0, s1) for did, s0, s1, _ in entries}, entries[0][3]


def _load_models(vocab: Vocab, *paths) -> list[NgramModel | None]:
    """One model per path (None for None). Each distinct file is parsed and
    checked against ``vocab`` once; a file named twice gives one shared
    model, which decoding never mutates."""
    loaded: dict[Path, NgramModel] = {}
    models = []
    for path in paths:
        if path is None:
            models.append(None)
            continue
        key = Path(path).resolve()
        if key not in loaded:
            model = NgramModel.load(path)
            if model.vocab_ext != vocab.extended_size:
                raise ConfigError(
                    f"model {path}: vocab_ext {model.vocab_ext} does not match vocab "
                    f"{vocab.extended_size}"
                )
            loaded[key] = model
        models.append(loaded[key])
    return models


def _chunks(flag: str, ms: int, chunk_ms: int, positive: bool = False) -> int:
    """``ms`` as a whole number of chunks of ``chunk_ms``, at least one if ``positive``."""
    if chunk_ms <= 0 or ms < (chunk_ms if positive else 0) or ms % chunk_ms:
        raise ConfigError(
            f"{flag} must be a {'positive' if positive else 'non-negative'} multiple of "
            f"a positive --chunk-ms, got {ms} and {chunk_ms}"
        )
    return ms // chunk_ms


def _head(d: DedupDialogue, n_chunks: int) -> DedupDialogue:
    return DedupDialogue(d.vocab, d.chunk_ms, d.chunks[:n_chunks])


def _dialogue_record(did: str, dlg, vocab: Vocab) -> dict:
    # A channel that opens with an empty chunk is rebuilt as silence; that
    # is the intended reading of a generated dialogue, not a fault to report.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCarryOverWarning)
        s0, s1 = interpolate(dlg)
    return corpus_io.dialogue_to_record(did, s0, s1, vocab)


# the length flag that each synth mode reads, and its default
SYNTH_LENGTH = {"duplex": ("duration_ms", 60000), "stage2": ("turns", 10)}


def cmd_synth(args) -> int:
    _check_outputs([args.style], args.out, args.stats_out)
    if args.stats_out is None and args.chunk_ms is not None:
        raise ConfigError("--chunk-ms is read only with --stats-out, whose token rates it sets")
    chunk_ms = DEFAULT_CHUNK_MS if args.chunk_ms is None else args.chunk_ms
    for mode, (flag, _) in SYNTH_LENGTH.items():
        if mode != args.mode and getattr(args, flag) is not None:
            raise ConfigError(f"synth --mode {args.mode} does not read "
                              f"--{flag.replace('_', '-')}")
    flag, default = SYNTH_LENGTH[args.mode]
    length = default if getattr(args, flag) is None else getattr(args, flag)
    if args.count < 0 or length < 0:
        raise ConfigError(f"--count and --{flag.replace('_', '-')} must be non-negative")
    style = _style_from_args(args)
    if args.mode == "duplex" and length % style.vocab.frame_ms:
        raise ConfigError("--duration-ms must be a non-negative multiple of frame_ms")
    generate = generate_dialogue if args.mode == "duplex" else generate_stage2_dialogue

    records = []
    dialogues = []  # (s0, s1), for --stats-out
    for i in range(args.count):
        s0, s1 = generate(style, length, [args.seed, i])
        records.append(corpus_io.dialogue_to_record(f"d{i:05d}", s0, s1, style.vocab))
        if args.stats_out is not None:
            dialogues.append((s0, s1))
    if args.stats_out is not None:
        stats = corpus_stats(dialogues, style.vocab, chunk_ms)
        payload = {**asdict(stats), "compression_ratio": stats.compression_ratio}
        del payload["dedup_rates_per_dialogue"]
        # a mean over no events, or a rate over no chunks, is NaN: written as null
        payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    corpus_io.write_corpus(args.out, records)
    if args.stats_out is not None:
        corpus_io.write_json(args.stats_out, payload)
    return 0


def cmd_train(args) -> int:
    _check_outputs([args.corpus], args.out)
    dialogues, vocab = _load_corpus(args.corpus)
    wires = encode(dialogues.values(), args.chunk_ms, vocab)
    model = train([w for w, _ in wires if len(w)],  # an empty dialogue has no sequence
                  order=args.order, alpha=args.alpha, vocab_ext=vocab.extended_size)
    model.save(args.out)
    return 0


def _sampler_from_args(args, seed: int) -> SamplerConfig:
    return SamplerConfig(temperature=args.temperature, top_k=args.top_k, seed=seed)


def cmd_continue(args) -> int:
    _check_outputs([args.model, args.prompts], args.out, args.transcript)
    prompt_chunks = _chunks("--prompt-ms", args.prompt_ms, args.chunk_ms)
    if args.continue_ms is None:  # 30 s cut to whole chunks; --chunk-ms is positive here
        args.continue_ms = 30000 - 30000 % args.chunk_ms
    n_chunks = _chunks("--continue-ms", args.continue_ms, args.chunk_ms, positive=True)
    dialogues, vocab = _load_corpus(args.prompts)
    (model,) = _load_models(vocab, args.model)

    out_records = []
    transcript_entries = []
    for i, (did, (s0, s1)) in enumerate(dialogues.items()):
        prompt = _head(deduplicate(s0, s1, args.chunk_ms, vocab), prompt_chunks)
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
        corpus_io.write_json(
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
    if args.prompts is not None and args.scripted is not None:
        raise ConfigError("--scripted supplies the prompts: give --prompts only with --model-b")
    corpus = args.scripted or args.prompts
    if corpus is None and args.prompt_ms:
        raise ConfigError("--prompt-ms cuts prompts from --prompts or --scripted; give one")
    _check_outputs([args.model_a, args.model_b, corpus], args.out, args.corpus_out)
    prompt_chunks = _chunks("--prompt-ms", args.prompt_ms, args.chunk_ms)
    if args.max_chunks < 1:
        raise ConfigError("run needs at least one chunk (--max-chunks)")

    if corpus is not None:
        _no_vocab_flags(args, corpus)
        dialogues, vocab = _load_corpus(corpus)
        runs = {did: deduplicate(s0, s1, args.chunk_ms, vocab)
                for did, (s0, s1) in dialogues.items()}
    else:
        vocab = _vocab_from_args(args)
        runs = {"run00000": DedupDialogue(vocab, args.chunk_ms, ())}
    model_a, model_b = _load_models(vocab, args.model_a, args.model_b)

    transcripts = []
    corpus_records = []
    for i, (did, full) in enumerate(runs.items()):
        prompt = _head(full, prompt_chunks)
        cfg = InteractionConfig(latency_chunks=args.latency,
                                max_chunks=len(prompt.chunks) + args.max_chunks,
                                sampler=_sampler_from_args(args, _derive_seed(args.seed, i)))
        user = full if args.scripted is not None else model_b
        transcript = simulate_interaction(model_a, user, cfg, prompt)
        entry = transcript.to_json_dict()
        entry["id"] = did
        transcripts.append(entry)
        corpus_records.append(_dialogue_record(did, transcript.dialogue, vocab))
    corpus_io.write_json(args.out, {"mode": "interaction", "seed": args.seed,
                                    "transcripts": transcripts})
    if args.corpus_out is not None:
        corpus_io.write_corpus(args.corpus_out, corpus_records)
    return 0


# the flags that only one eval mode reads; it requires the first
EVAL_MODE_FLAGS = {"turns": ("reference", "skip_ms", "ipu_gap_ms", "min_voiced_ms", "bridge_ms"),
                   "ppl": ("model", "prompt_ms")}


def cmd_eval(args) -> int:
    base = Path(args.out)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    _check_outputs([args.generated, args.reference, args.model], csv_path, json_path)
    required = EVAL_MODE_FLAGS[args.mode][0]
    if getattr(args, required) is None:
        raise ConfigError(f"eval --mode {args.mode} requires --{required}")
    other = EVAL_MODE_FLAGS["ppl" if args.mode == "turns" else "turns"]
    unread = ["--" + f.replace("_", "-") for f in other if getattr(args, f) is not None]
    if unread:
        raise ConfigError(f"eval --mode {args.mode} does not read {', '.join(unread)}")
    if args.latency is not None and args.latency < 0:
        raise ConfigError(f"--latency must be >= 0, got {args.latency}")

    if args.mode == "turns":
        gen, vocab = _load_corpus(args.generated)
        same = Path(args.reference).resolve() == Path(args.generated).resolve()
        ref, ref_vocab = (gen, vocab) if same else _load_corpus(args.reference)
        if ref_vocab != vocab:
            raise ConfigError(f"reference {args.reference} has {ref_vocab}, "
                              f"the generated corpus {vocab}")
        vocab.frames_per_chunk(args.chunk_ms)  # recorded, so it must fit the corpus
        skip_ms = args.skip_ms or 0
        if skip_ms < 0 or skip_ms % vocab.frame_ms:
            raise ConfigError(f"--skip-ms must be a non-negative multiple of "
                              f"frame_ms {vocab.frame_ms}, got {skip_ms}")
        skip = skip_ms // vocab.frame_ms
        mode_params = {"prompt_ms": None, "skip_ms": skip_ms}

        def trim(corpus):
            return {did: (s0[skip:], s1[skip:]) for did, (s0, s1) in corpus.items()}

        events = {"min_voiced_ms": args.min_voiced_ms, "bridge_ms": args.bridge_ms,
                  "ipu_gap_ms": args.ipu_gap_ms}
        params = EventParams(**{k: v for k, v in events.items() if v is not None})
        report = correlation_report(trim(gen), trim(ref), vocab, params)
        kinds = report.to_dict()["kinds"]
        metrics_payload = {
            "ipu_r": kinds["ipu"]["r"],
            "pause_r": kinds["pause"]["r"],
            "fto_r": kinds["fto"]["r"],
            "average_r": report.average_r,
            "detail": report.to_dict(),
        }
    else:
        prompt_ms = args.prompt_ms or 0
        prompt_chunks = _chunks("--prompt-ms", prompt_ms, args.chunk_ms)
        mode_params = {"prompt_ms": prompt_ms, "skip_ms": None}
        gen, vocab = _load_corpus(args.generated)
        (model,) = _load_models(vocab, args.model)
        ppls = per_dialogue_perplexities(model, encode(gen.values(), args.chunk_ms, vocab),
                                         prompt_chunks)
        metrics_payload = {
            "median_ppl": float(statistics.median(ppls)),
            "n_dialogues": len(ppls),
            "per_dialogue": dict(zip(gen, ppls)),
        }

    payload = {
        "model": args.model_name,
        "dataset": args.dataset_name,
        "mode": args.mode,
        "params": {
            "chunk_ms": args.chunk_ms,
            "latency_chunks": args.latency,
            **mode_params,
        },
        "metrics": metrics_payload,
    }
    corpus_io.write_json(json_path, payload)
    corpus_io.write_csv(csv_path, list(REPORT_COLUMNS), [_report_row(payload, json_path)])
    return 0


# each report column: the part of an eval result that holds it (None for the
# top level) and the type eval writes there; a value may also be absent or null
REPORT_COLUMNS = {
    **dict.fromkeys(("model", "dataset", "mode"), (None, lambda x: type(x) is str)),
    **dict.fromkeys(("chunk_ms", "latency_chunks"), ("params", corpus_io.is_int)),
    **dict.fromkeys(("ipu_r", "pause_r", "fto_r", "average_r", "median_ppl"),
                    ("metrics", corpus_io.is_number)),
    "n_dialogues": ("metrics", corpus_io.is_int),
}


def _report_row(payload, source) -> dict:
    """The report row of the eval result ``payload``, read from ``source``."""
    if not (isinstance(payload, dict) and all(
            isinstance(payload.get(k, {}), dict) for k in ("metrics", "params"))):
        raise ConfigError(f"{source}: an eval result is an object whose metrics and "
                          f"params are objects")
    row = {}
    for column, (part, valid) in REPORT_COLUMNS.items():
        value = (payload.get(part, {}) if part else payload).get(column)
        if value is not None and not valid(value):
            raise ConfigError(f"{source}: {column} has the wrong type: {value!r}")
        row[column] = "" if value is None else value
    return row


def cmd_report(args) -> int:
    _check_outputs(args.inputs, args.out)
    rows = [_report_row(corpus_io.read_json(p), p) for p in args.inputs]
    corpus_io.write_csv(args.out, list(REPORT_COLUMNS), rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error raises ``ConfigError``, so it ends as every other input
    error does: exit 2 and one JSON line on stderr."""

    def error(self, message):
        raise ConfigError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call of a process
    and returned by every later one; parsing leaves it as it is."""
    parser = _Parser(
        prog="duplexsim",
        description="Synchronous two-channel dialogue pipeline: synthesis, "
        "training, generation, interaction, evaluation.",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    chunk = argparse.ArgumentParser(add_help=False)
    chunk.add_argument("--chunk-ms", type=int, default=DEFAULT_CHUNK_MS)

    def vocab_flags(p, source):
        where = f"; not with {source}, which supplies the vocabulary"
        p.add_argument("--vocab", type=int, help="number of speech units" + where)
        p.add_argument("--frame-ms", type=int, help="frame duration in ms" + where)
        p.add_argument("--silence-token", type=int, help="the silence unit" + where)

    sampler = argparse.ArgumentParser(add_help=False)
    sampler.add_argument("--temperature", type=float, default=1.0)
    sampler.add_argument("--top-k", type=int, default=None, help="1 samples greedily")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[seed], help="generate a synthetic corpus")
    vocab_flags(p, "--style")
    p.add_argument("--style", type=Path, default=None, help="style config JSON")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--mode", choices=list(SYNTH_LENGTH), default="duplex")
    p.add_argument("--duration-ms", type=int,
                   help=f"duplex mode only; default {SYNTH_LENGTH['duplex'][1]}")
    p.add_argument("--turns", type=int, help="turns per dialogue, stage2 mode only; "
                                              f"default {SYNTH_LENGTH['stage2'][1]}")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--stats-out", type=Path, default=None)
    p.add_argument("--chunk-ms", type=int, default=None,
                   help="chunk size of the --stats-out token rates, only with it; "
                        f"default {DEFAULT_CHUNK_MS}")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[chunk], help="train the n-gram model")
    p.add_argument("--corpus", type=Path, required=True, help="a .jsonl corpus")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--out", type=Path, required=True,
                   help="the model file, a binary stream of .npy records whatever its name")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("continue", parents=[seed, chunk, sampler],
                       help="prompted continuation of both channels")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--prompts", type=Path, required=True)
    p.add_argument("--prompt-ms", type=int, default=9600,
                   help="a multiple of --chunk-ms")
    p.add_argument("--continue-ms", type=int, default=None,
                   help="a positive multiple of --chunk-ms; default 30 s cut to whole chunks")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--transcript", type=Path, default=None)
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("interact", parents=[seed, chunk, sampler],
                       help="latency-tolerant two-agent interaction")
    vocab_flags(p, "--prompts or --scripted")
    p.add_argument("--model-a", type=Path, required=True)
    p.add_argument("--model-b", type=Path, default=None)
    p.add_argument("--scripted", type=Path, default=None,
                   help="corpus whose channel 1 scripts the user")
    p.add_argument("--latency", type=int, default=1,
                   help="chunks in flight; at most the run's length in chunks, "
                        "prompt included")
    p.add_argument("--max-chunks", type=int, required=True,
                   help="chunks to generate after the prompt; the run lasts "
                        "--max-chunks x --chunk-ms ms beyond it")
    p.add_argument("--prompts", type=Path, default=None,
                   help="corpus of prompts for a --model-b run")
    p.add_argument("--prompt-ms", type=int, default=0,
                   help="a multiple of --chunk-ms; only with --prompts or --scripted")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--corpus-out", type=Path, default=None)
    p.set_defaults(func=cmd_interact)

    p = sub.add_parser("eval", parents=[chunk],
                       help="turn-taking correlations or median perplexity")
    p.add_argument("--mode", choices=["turns", "ppl"], required=True)
    p.add_argument("--generated", type=Path, required=True)
    p.add_argument("--reference", type=Path, help="turns mode only, required")
    p.add_argument("--skip-ms", type=int, help="turns mode only; a multiple of frame_ms, default 0")
    for flag in ("--ipu-gap-ms", "--min-voiced-ms", "--bridge-ms"):
        p.add_argument(flag, type=int, help="turns mode only; default from EventParams")
    p.add_argument("--model", type=Path, help="ppl mode only, required")
    p.add_argument("--prompt-ms", type=int, help="ppl mode only; a multiple of --chunk-ms, default 0")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
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
