import json
import subprocess
import sys
import tracemalloc

import pytest

from duplexsim import DialogueStyle, NgramModel, Vocab
from duplexsim.cli import main

VOCAB_ARGS = ["--vocab", "10", "--silence-token", "0"]


def style_file(tmp_path, vocab_size=10, **overrides):
    style = DialogueStyle(
        vocab=Vocab(size=vocab_size, frame_ms=40, silence_tokens=frozenset({0})),
        ipu_ms=(800.0, 200.0),
        pause_ms=(400.0, 100.0),
        fto_ms=(240.0, 80.0),
        turn_continue_prob=0.3,
        backchannel_prob=0.1,
        backchannel_ms=(160.0, 40.0),
        p_self=0.45,
        **overrides,
    )
    path = tmp_path / "style.json"
    style.to_file(path)
    return path


def synth(tmp_path, out="corpus.jsonl", count=6, duration=8000, seed=1, extra=()):
    path = tmp_path / out
    rc = main(
        [
            "synth", "--style", str(style_file(tmp_path)), "--count", str(count),
            "--duration-ms", str(duration), "--seed", str(seed),
            "--out", str(path), *extra,
        ]
    )
    assert rc == 0
    return path


def trained(tmp_path, corpus, out="model.json", order=3):
    path = tmp_path / out
    rc = main(
        ["train", "--corpus", str(corpus), "--order", str(order),
         "--alpha", "0.1", "--chunk-ms", "160", "--out", str(path)]
    )
    assert rc == 0
    return path


class TestSynth:
    def test_writes_jsonl(self, tmp_path):
        path = synth(tmp_path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 6
        rec = json.loads(lines[0])
        assert set(rec) == {"id", "frame_ms", "vocab", "silence", "channels"}
        assert len(rec["channels"][0]) == len(rec["channels"][1]) == 200

    def test_count_zero_gives_empty_file(self, tmp_path):
        path = synth(tmp_path, count=0)
        assert path.read_text() == ""

    def test_byte_determinism(self, tmp_path):
        a = synth(tmp_path, out="a.jsonl", seed=7)
        b = synth(tmp_path, out="b.jsonl", seed=7)
        c = synth(tmp_path, out="c.jsonl", seed=8)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_stage2_mode(self, tmp_path):
        path = tmp_path / "s2.jsonl"
        rc = main(
            ["synth", "--style", str(style_file(tmp_path)), "--count", "3",
             "--mode", "stage2", "--turns", "4", "--seed", "2", "--out", str(path)]
        )
        assert rc == 0
        for line in path.read_text().strip().split("\n"):
            rec = json.loads(line)
            ch0, ch1 = rec["channels"]
            assert not any(a != 0 and b != 0 for a, b in zip(ch0, ch1))

    def test_invalid_style_schema_fails_before_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": True}))
        out = tmp_path / "corpus.jsonl"
        rc = main(["synth", "--style", str(bad), "--count", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_cost_does_not_grow_with_the_vocabulary(self, tmp_path):
        # content units are counted and indexed, not listed, so a 2,000,000-unit
        # vocabulary peaks where a 501-unit one does
        def peak(vocab):
            tracemalloc.start()
            try:
                assert main(["synth", "--vocab", str(vocab), "--count", "1",
                             "--duration-ms", "400", "--out", str(tmp_path / "c.jsonl")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(501)  # the first run's one-off allocations are not the run's cost
        assert peak(2_000_000) - peak(501) < 2**20

    def test_flat_dump(self, tmp_path):
        flat = tmp_path / "flat.txt"
        synth(tmp_path, extra=["--flat-out", str(flat)])
        lines = flat.read_text().strip().split("\n")
        assert len(lines) == 6
        first = [int(t) for t in lines[0].split()]
        assert first[0] == 10  # tag_s0 for a 10-unit vocabulary


class TestTrain:
    def test_model_bytes_deterministic(self, tmp_path):
        corpus = synth(tmp_path)
        a = trained(tmp_path, corpus, out="a.json")
        b = trained(tmp_path, corpus, out="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_version_mismatch_clean_error(self, tmp_path, capsys):
        corpus = synth(tmp_path)
        bad_model = tmp_path / "bad_model.json"
        bad_model.write_text(json.dumps({"version": 7, "order": 1, "alpha": 0.1,
                                         "vocab_ext": 12, "counts": {}}))
        out = tmp_path / "gen.jsonl"
        rc = main(["continue", "--model", str(bad_model), "--prompts", str(corpus),
                   "--prompt-ms", "1600", "--continue-ms", "1600",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "ModelFormatError"

    def test_trains_from_flat_dump(self, tmp_path):
        flat = tmp_path / "flat.txt"
        synth(tmp_path, extra=["--flat-out", str(flat)])
        out = tmp_path / "m.json"
        rc = main(["train", "--corpus", str(flat), "--order", "2", "--vocab", "10",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["vocab_ext"] == 12

    def test_stage2_model_greedy_continuation_never_overlaps(self, tmp_path):
        s2 = tmp_path / "s2.jsonl"
        main(["synth", "--style", str(style_file(tmp_path)), "--count", "20",
              "--mode", "stage2", "--turns", "6", "--seed", "3", "--out", str(s2)])
        model = trained(tmp_path, s2, out="s2model.json", order=4)
        gen = tmp_path / "gen.jsonl"
        rc = main(["continue", "--model", str(model), "--prompts", str(s2),
                   "--prompt-ms", "3200", "--continue-ms", "4800", "--top-k", "1",
                   "--seed", "5", "--out", str(gen)])
        assert rc == 0
        for line in gen.read_text().strip().split("\n")[:20]:
            rec = json.loads(line)
            ch0, ch1 = rec["channels"]
            overlap = sum(1 for a, b in zip(ch0, ch1) if a != 0 and b != 0)
            assert overlap == 0


class TestContinue:
    def test_output_schema_and_determinism(self, tmp_path):
        corpus = synth(tmp_path)
        model = trained(tmp_path, corpus)
        out1, out2 = tmp_path / "g1.jsonl", tmp_path / "g2.jsonl"
        t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
        for out, tr in ((out1, t1), (out2, t2)):
            rc = main(["continue", "--model", str(model), "--prompts", str(corpus),
                       "--prompt-ms", "3200", "--continue-ms", "3200",
                       "--seed", "9", "--out", str(out), "--transcript", str(tr)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert t1.read_bytes() == t2.read_bytes()
        rec = json.loads(out1.read_text().strip().split("\n")[0])
        # 3200 ms prompt + 3200 ms continuation at 160 ms chunks
        assert len(rec["channels"][0]) == (3200 + 3200) // 40
        tr_data = json.loads(t1.read_text())
        assert tr_data["dialogues"][0]["prompt_chunks"] == 20


class TestInteract:
    # a generated channel that opens silent is not reported as a warning
    @pytest.mark.filterwarnings("error")
    def test_scripted_and_model_modes(self, tmp_path, capsys):
        corpus = synth(tmp_path, duration=8000)
        model = trained(tmp_path, corpus)
        out = tmp_path / "tr.json"
        rc = main(["interact", "--model-a", str(model), "--scripted", str(corpus),
                   "--latency", "1", "--max-chunks", "30", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["transcripts"]) == 6
        assert data["transcripts"][0]["config"]["latency_chunks"] == 1

        out2 = tmp_path / "tr2.json"
        rc = main(["interact", "--model-a", str(model), "--model-b", str(model),
                   "--latency", "1", "--max-chunks", "20", "--seed", "4",
                   *VOCAB_ARGS, "--out", str(out2),
                   "--corpus-out", str(tmp_path / "gen.jsonl")])
        assert rc == 0
        data2 = json.loads(out2.read_text())
        assert len(data2["transcripts"]) == 1
        assert (tmp_path / "gen.jsonl").exists()
        assert capsys.readouterr().err == ""

    def test_cross_style_models_complete(self, tmp_path):
        # two models trained on different content alphabets can interact
        s_a = style_file(tmp_path, unit_range=(1, 5))
        corpus_a = tmp_path / "a.jsonl"
        main(["synth", "--style", str(s_a), "--count", "5", "--duration-ms", "8000",
              "--seed", "1", "--out", str(corpus_a)])
        model_a = trained(tmp_path, corpus_a, out="ma.json")

        (tmp_path / "style.json").unlink()
        s_b = style_file(tmp_path, unit_range=(5, 10))
        corpus_b = tmp_path / "b.jsonl"
        main(["synth", "--style", str(s_b), "--count", "5", "--duration-ms", "8000",
              "--seed", "2", "--out", str(corpus_b)])
        model_b = trained(tmp_path, corpus_b, out="mb.json")

        out = tmp_path / "cross.json"
        rc = main(["interact", "--model-a", str(model_a), "--model-b", str(model_b),
                   "--latency", "1", "--max-chunks", "20", "--seed", "0",
                   *VOCAB_ARGS, "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["transcripts"]

    def test_determinism(self, tmp_path):
        corpus = synth(tmp_path)
        model = trained(tmp_path, corpus)
        outs = []
        for name in ("x.json", "y.json"):
            out = tmp_path / name
            main(["interact", "--model-a", str(model), "--scripted", str(corpus),
                  "--latency", "1", "--max-chunks", "20", "--seed", "11",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        corpus = synth(tmp_path)
        model = trained(tmp_path, corpus)
        rc = main(["interact", "--model-a", str(model), "--out",
                   str(tmp_path / "o.json")])
        assert rc == 2
        capsys.readouterr()


def _drop(key):
    def mutate(m):
        del m[key]
    return mutate


def _set(key, value):
    def mutate(m):
        m[key] = value
    return mutate


def _edit(column, index, value):
    def mutate(m):
        m[column][index] = value
    return mutate


def _shift_size(value):
    """The first row's size becomes ``value``; the second row takes up the
    difference, so every column keeps its length."""
    def mutate(m):
        sizes = m["sizes"]
        sizes[1] += sizes[0] - value
        sizes[0] = value
    return mutate


def _repeat_context(m):
    order = m["order"]
    m["contexts"][order:2 * order] = m["contexts"][:order]


def _repeat_token(m):
    m["sizes"][0] += 1
    m["tokens"].insert(0, m["tokens"][0])
    m["counts"].insert(0, 1)


def _v1_file(m):
    order, vocab_ext = m["order"], m["vocab_ext"]
    m.clear()
    m.update(version=1, order=order, alpha=0.1, vocab_ext=vocab_ext,
             counts={",".join([str(vocab_ext)] * order): {"1": 1}})


# Ways to break a valid model file, each with a part of the message it must
# give; each edits the parsed JSON in place. The model is over 12 symbols,
# so the begin marker is id 12.
TYPES = "lists of integers"
MODEL_MUTATIONS = {
    "no_counts": (_drop("counts"), TYPES),
    "no_contexts": (_drop("contexts"), TYPES),
    "no_order": (_drop("order"), "integer 'order'"),
    "order_huge": (_set("order", 20000), "too large for vocab_ext 12"),
    "order_str": (_set("order", "3"), "integer 'order'"),
    "alpha_str": (_set("alpha", "0.1"), "finite 'alpha'"),
    "alpha_inf": (_set("alpha", float("inf")), "finite 'alpha'"),
    "vocab_ext_float": (_set("vocab_ext", 12.0), "integer 'order' and 'vocab_ext'"),
    "version_1": (_v1_file, "retrain"),
    "version_str": (_set("version", "2"), "version '2' not supported"),
    "counts_object": (_set("counts", {}), TYPES),
    "counts_list": (_set("counts", []), "do not sum"),
    "predicts_99": (_edit("tokens", 0, 99), "token lies outside [0, 12)"),
    "predicts_past_tags": (_edit("tokens", 0, 12), "token lies outside [0, 12)"),
    "token_negative": (_edit("tokens", 0, -1), "token lies outside [0, 12)"),
    "key_too_short": (lambda m: m["contexts"].pop(), "3 ids per entry"),
    "key_id_past_bos": (_edit("contexts", 0, 13), "context id lies outside [0, 12]"),
    "key_not_ids": (_edit("contexts", 0, "a"), TYPES),
    "count_zero": (_edit("counts", 0, 0), "count is below 1"),
    "count_float": (_edit("counts", 0, 1.5), TYPES),
    "count_str": (_edit("counts", 0, "2"), TYPES),
    "count_bool": (_edit("counts", 0, True), TYPES),
    "token_bool": (_edit("tokens", 0, True), TYPES),
    "slot_list": (_edit("tokens", 0, [1]), TYPES),
    "slot_empty": (_shift_size(0), "size is below 1"),
    "size_negative": (_shift_size(-1), "size is below 1"),
    "tokens_longer": (lambda m: m["tokens"].append(1), "do not sum"),
    "counts_shorter": (lambda m: m["counts"].pop(), "do not sum"),
    "context_repeated": (_repeat_context, "context is repeated"),
    "token_repeated_in_row": (_repeat_token, "token is repeated within a row"),
}


def _bad_model(payload, name, path):
    payload = json.loads(json.dumps(payload))
    MODEL_MUTATIONS[name][0](payload)
    path.write_text(json.dumps(payload))
    return path


class TestModelFileValidation:
    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("good")
        corpus = synth(tmp)
        return corpus, json.loads(trained(tmp, corpus).read_text())

    @pytest.mark.parametrize("name", sorted(MODEL_MUTATIONS))
    def test_eval_ppl_rejects_with_exit_2(self, good, name, tmp_path, capsys):
        corpus, payload = good
        model = _bad_model(payload, name, tmp_path / "bad.json")
        base = tmp_path / "ppl"
        rc = main(["eval", "--mode", "ppl", "--generated", str(corpus),
                   "--model", str(model), "--out", str(base)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ModelFormatError"
        assert MODEL_MUTATIONS[name][1] in json.loads(err)["message"]
        assert not base.with_suffix(".json").exists()
        assert not base.with_suffix(".csv").exists()

    def test_interact_rejects_bad_model_b(self, good, tmp_path, capsys):
        corpus, payload = good
        model_a = tmp_path / "a.json"
        model_a.write_text(json.dumps(payload))
        model_b = _bad_model(payload, "predicts_99", tmp_path / "b.json")
        out = tmp_path / "t.json"
        rc = main(["interact", *VOCAB_ARGS, "--model-a", str(model_a),
                   "--model-b", str(model_b), "--max-chunks", "4", "--out", str(out)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ModelFormatError"
        assert not out.exists()


def assert_rejected(rc, capsys, outputs):
    """Exit 2, one JSON line on stderr naming a ConfigError, no output file."""
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ConfigError"
    for path in outputs:
        assert not path.exists()


def _edit_record(src, dst, index, **fields):
    lines = src.read_text().splitlines()
    rec = json.loads(lines[index])
    rec.update(fields)
    lines[index] = json.dumps(rec)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def _rewrite(src, dst, fn):
    """``dst`` holds ``fn(record)`` for every record of the corpus ``src``."""
    lines = [json.dumps(fn(json.loads(line))) for line in src.read_text().splitlines()]
    dst.write_text("\n".join(lines) + "\n")
    return dst


# Corpus records that used to be misread silently or end in a traceback,
# applied to every record of a 10-unit corpus.
MALFORMED_RECORDS = {
    "record_not_object": lambda rec: [1],
    "frame_ms_float": lambda rec: {**rec, "frame_ms": 40.9},
    "channels_float": lambda rec: {**rec, "channels": [[t + 0.7 for t in ch]
                                                       for ch in rec["channels"]]},
    "vocab_bool": lambda rec: {**rec, "vocab": True},
    "token_past_vocab": lambda rec: {**rec, "channels": [[10, *ch[1:]]
                                                         for ch in rec["channels"]]},
}

# (which input, file text) for style files and eval results
MALFORMED_FILES = {
    "style_ipu_ms_int": ("style", '{"ipu_ms": 5}'),
    "style_not_object": ("style", "[]"),
    "report_not_object": ("report", "[]"),
    "report_metrics_list": ("report", '{"metrics": [], "params": {}}'),
    "report_params_str": ("report", '{"metrics": {}, "params": "x"}'),
}


# values that would each change the run, were the flag read
FLAG_VALUES = {"--seed": "9", "--vocab": "24", "--frame-ms": "80", "--silence-token": "5",
               "--overflow-policy": "error"}


class TestInputBoundaries:
    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("world")
        corpus = synth(tmp)
        return corpus, trained(tmp, corpus)

    # (subcommand argv, outputs) over the corpus under test
    @staticmethod
    def _commands(corpus, clean, model, out):
        return {
            "train": (["train", "--corpus", str(corpus), "--out", str(out)], [out]),
            "continue": (["continue", "--model", str(model), "--prompts", str(corpus),
                          "--prompt-ms", "1600", "--continue-ms", "1600",
                          "--out", str(out)], [out]),
            "interact": (["interact", "--model-a", str(model), "--scripted", str(corpus),
                          "--max-chunks", "4", "--out", str(out)], [out]),
            "eval-ppl": (["eval", "--mode", "ppl", "--generated", str(corpus),
                          "--model", str(model), "--out", str(out)],
                         [out.with_suffix(".json"), out.with_suffix(".csv")]),
            "eval-turns": (["eval", "--mode", "turns", "--generated", str(clean),
                            "--reference", str(corpus), "--out", str(out)],
                           [out.with_suffix(".json"), out.with_suffix(".csv")]),
        }

    @pytest.mark.parametrize("command", ["train", "continue", "interact", "eval-ppl",
                                         "eval-turns"])
    @pytest.mark.parametrize("field,value", [("vocab", 11), ("frame_ms", 80),
                                             ("silence", [0, 1])])
    def test_mixed_vocabulary_corpus(self, world, command, field, value, tmp_path,
                                     capsys):
        clean, model = world
        mixed = _edit_record(clean, tmp_path / "mixed.jsonl", -1, **{field: value})
        argv, outputs = self._commands(mixed, clean, model, tmp_path / "out")[command]
        assert_rejected(main(argv), capsys, outputs)

    # (command, flag) pairs that the command does not read, so it does not accept them
    @pytest.mark.parametrize("command,flag", [
        ("train", "--seed"), ("train", "--frame-ms"), ("train", "--silence-token"),
        ("continue", "--vocab"), ("continue", "--frame-ms"), ("continue", "--silence-token"),
        ("eval-ppl", "--seed"), ("eval-turns", "--vocab"), ("eval-ppl", "--frame-ms"),
        ("eval-turns", "--silence-token"), ("interact", "--overflow-policy")])
    def test_flag_the_command_does_not_read(self, world, command, flag, tmp_path, capsys):
        clean, model = world
        argv, outputs = self._commands(clean, clean, model, tmp_path / "out")[command]
        assert_rejected(main(argv + [flag, FLAG_VALUES[flag]]), capsys, outputs)

    # a vocabulary flag where a style file or corpus supplies the vocabulary
    @pytest.mark.parametrize("command,flag", [
        ("synth", "--vocab"), ("synth", "--frame-ms"), ("synth", "--silence-token"),
        ("interact", "--vocab"), ("interact-prompts", "--frame-ms"),
        ("interact", "--silence-token"), ("train", "--vocab")])
    def test_vocabulary_flag_beside_its_file(self, world, command, flag, tmp_path, capsys):
        clean, model = world
        out = tmp_path / "out"
        argv, outputs = {
            **self._commands(clean, clean, model, out),
            "synth": (["synth", "--style", str(clean.parent / "style.json"),
                       "--count", "1", "--duration-ms", "800", "--out", str(out)], [out]),
            "interact-prompts": (["interact", "--model-a", str(model), "--model-b",
                                  str(model), "--prompts", str(clean), "--max-chunks", "4",
                                  "--out", str(out)], [out]),
        }[command]
        assert_rejected(main(argv + [flag, FLAG_VALUES[flag]]), capsys, outputs)

    def test_flat_corpus_needs_vocab(self, tmp_path, capsys):
        flat = tmp_path / "flat.txt"
        flat.write_text("10 1 2 11 3\n")
        out = tmp_path / "model.json"
        assert_rejected(main(["train", "--corpus", str(flat), "--out", str(out)]),
                        capsys, [out])

    # a flag that the rest of the command line would leave unread (a prompt
    # length with no corpus to cut it from, prompts beside a script that
    # supplies them, a flag of the other eval mode), one that only repeated
    # another flag (--greedy was --top-k 1, interact's --duration-ms was
    # --max-chunks x --chunk-ms), or a skip that would score the wrong frames
    @pytest.mark.parametrize("command,extra", [
        ("interact-no-corpus", ["--prompt-ms", "960"]),
        ("interact", ["--prompts", "CORPUS"]),
        ("continue", ["--greedy"]),
        ("interact", ["--greedy"]),
        ("interact", ["--duration-ms", "99999"]),
        ("eval-turns", ["--model", "MODEL"]),
        ("eval-turns", ["--prompt-ms", "960"]),
        ("eval-ppl", ["--reference", "CORPUS"]),
        ("eval-ppl", ["--skip-ms", "400"]),
        ("eval-ppl", ["--ipu-gap-ms", "5"]),
        ("eval-ppl", ["--min-voiced-ms", "80"]),
        ("eval-ppl", ["--bridge-ms", "80"]),
        ("eval-turns", ["--skip-ms", "-400"]),
        ("eval-turns", ["--skip-ms", "30"])],
        ids=["prompt_ms_no_corpus", "prompts_with_scripted", "continue_greedy",
             "interact_greedy", "interact_duration_ms", "turns_model", "turns_prompt_ms",
             "ppl_reference", "ppl_skip_ms", "ppl_ipu_gap_ms", "ppl_min_voiced_ms",
             "ppl_bridge_ms", "turns_negative_skip_ms", "turns_skip_ms_not_a_frame"])
    def test_flag_that_would_go_unread(self, world, command, extra, tmp_path, capsys):
        clean, model = world
        out = tmp_path / "out"
        argv, outputs = {
            **self._commands(clean, clean, model, out),
            "interact-no-corpus": (["interact", "--model-a", str(model), "--model-b",
                                    str(model), *VOCAB_ARGS, "--max-chunks", "4",
                                    "--out", str(out)], [out]),
        }[command]
        extra = [{"CORPUS": str(clean), "MODEL": str(model)}.get(a, a) for a in extra]
        assert_rejected(main(argv + extra), capsys, outputs)

    # turns mode only records --chunk-ms, but it must still fit the corpus
    @pytest.mark.parametrize("command", ["eval-ppl", "eval-turns"])
    def test_eval_chunk_ms_not_a_frame_multiple(self, world, command, tmp_path, capsys):
        clean, model = world
        argv, outputs = self._commands(clean, clean, model, tmp_path / "out")[command]
        assert main(argv + ["--chunk-ms", "7"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "BadChunkSize"
        for path in outputs:
            assert not path.exists()

    # (--prompt-ms, --max-chunks, --latency, exit code); a 960 ms prompt is
    # 6 chunks, so its session is 6 + --max-chunks chunks long
    @pytest.mark.parametrize("prompt_ms,max_chunks,latency,code", [
        (0, 200, 99999999, 2), (0, 4, 5, 2), (960, 2, 9, 2), (960, 2, 8, 0)])
    def test_latency_at_most_the_session(self, world, prompt_ms, max_chunks, latency,
                                         code, tmp_path, capsys):
        corpus, model = world
        out = tmp_path / "t.json"
        rc = main(["interact", "--model-a", str(model), "--model-b", str(model),
                   "--prompts", str(corpus), "--prompt-ms", str(prompt_ms),
                   "--max-chunks", str(max_chunks), "--latency", str(latency),
                   "--out", str(out)])
        assert rc == code
        if code == 0:
            return
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-ppl", "eval-turns"])
    def test_eval_negative_latency(self, world, command, tmp_path, capsys):
        clean, model = world
        argv, outputs = self._commands(clean, clean, model, tmp_path / "out")[command]
        assert_rejected(main(argv + ["--latency", "-7"]), capsys, outputs)

    # at 10 units, vocab_ext 12: 13 ** 18 > 2 ** 63, and 64 > 63
    @pytest.mark.parametrize("order", [18, 64])
    def test_train_order_fits_an_int64_code(self, world, order, tmp_path, capsys):
        corpus, _ = world
        out = tmp_path / "model.json"
        assert main(["train", "--corpus", str(corpus), "--order", str(order),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["--generated", "--reference", "train", "continue",
                                       "interact", "eval-ppl"])
    def test_eval_turns_repeated_id(self, world, where, tmp_path, capsys):
        clean, model = world
        repeated = _edit_record(clean, tmp_path / "rep.jsonl", 2, id="d00000")
        base = tmp_path / "turns"
        if where.startswith("--"):
            other = "--reference" if where == "--generated" else "--generated"
            argv = ["eval", "--mode", "turns", where, str(repeated),
                    other, str(clean), "--out", str(base)]
            outputs = [base.with_suffix(".json"), base.with_suffix(".csv")]
        else:
            argv, outputs = self._commands(repeated, clean, model, base)[where]
        assert_rejected(main(argv), capsys, outputs)

    @pytest.mark.parametrize("field,value", [("vocab", 11), ("frame_ms", 80),
                                             ("silence", [0, 1])])
    def test_eval_turns_reference_vocabulary(self, world, field, value, tmp_path,
                                             capsys):
        clean, model = world
        other = _rewrite(clean, tmp_path / "other.jsonl", lambda rec: {**rec, field: value})
        argv, outputs = self._commands(other, clean, model, tmp_path / "out")["eval-turns"]
        assert_rejected(main(argv), capsys, outputs)

    @pytest.mark.parametrize("name", sorted(MALFORMED_RECORDS))
    def test_malformed_corpus_record(self, world, name, tmp_path, capsys):
        clean, model = world
        bad = _rewrite(clean, tmp_path / "bad.jsonl", MALFORMED_RECORDS[name])
        argv, outputs = self._commands(bad, clean, model, tmp_path / "out")["eval-turns"]
        assert_rejected(main(argv), capsys, outputs)

    @pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
    def test_malformed_style_or_eval_result(self, name, tmp_path, capsys):
        kind, text = MALFORMED_FILES[name]
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        argv = {
            "style": ["synth", "--style", str(bad), "--count", "1", "--out", str(out)],
            "report": ["report", "--inputs", str(bad), "--out", str(out)],
        }[kind]
        assert_rejected(main(argv), capsys, [out])

    @pytest.mark.parametrize("argv", [[], ["synth"], ["train", "--corpus"],
                                      ["eval", "--mode", "x", "--generated", "g"],
                                      ["continue", "--temperature", "-1e-3"]],
                             ids=["no_command", "no_flags", "no_value", "bad_choice",
                                  "exponent_value"])
    def test_usage_error(self, argv, capsys):
        assert_rejected(main(argv), capsys, [])

    @pytest.mark.parametrize("command", ["continue", "interact", "eval-ppl"])
    @pytest.mark.parametrize("flags", [["--prompt-ms", "200"], ["--prompt-ms", "-160"],
                                       ["--prompt-ms", "0", "--chunk-ms", "0"]])
    def test_prompt_ms_not_a_chunk_multiple(self, world, command, flags, tmp_path,
                                            capsys):
        corpus, model = world
        out = tmp_path / "out"
        argv = {
            "continue": ["continue", "--model", str(model), "--prompts", str(corpus),
                         "--continue-ms", "1600", "--out", str(out)],
            "interact": ["interact", "--model-a", str(model), "--model-b", str(model),
                         "--prompts", str(corpus), "--max-chunks", "4",
                         "--out", str(out)],
            "eval-ppl": ["eval", "--mode", "ppl", "--generated", str(corpus),
                         "--model", str(model), "--out", str(out)],
        }[command]
        outputs = [out, out.with_suffix(".json"), out.with_suffix(".csv")]
        assert_rejected(main(argv + flags), capsys, outputs)

    def test_interact_parses_each_model_file_once(self, world, tmp_path, monkeypatch):
        corpus, model = world
        copy = tmp_path / "copy.json"
        copy.write_bytes(model.read_bytes())
        loads = []
        load = NgramModel.load
        monkeypatch.setattr(NgramModel, "load",
                            staticmethod(lambda path: loads.append(path) or load(path)))
        monkeypatch.chdir(model.parent)
        outs = {}
        for name, model_b, n_loads in (("same", model, 1), ("relative", model.name, 1),
                                       ("copy", copy, 2)):
            loads.clear()
            outs[name] = tmp_path / f"{name}.json"
            rc = main(["interact", "--model-a", str(model), "--model-b", str(model_b),
                       "--prompts", str(corpus), "--prompt-ms", "320",
                       "--max-chunks", "6", "--latency", "2", "--seed", "3",
                       "--out", str(outs[name])])
            assert rc == 0
            assert len(loads) == n_loads, name
        # one shared model decodes exactly as two loaded copies do
        assert outs["same"].read_bytes() == outs["copy"].read_bytes()


class TestEvalAndReport:
    def test_turns_self_correlation(self, tmp_path):
        corpus = synth(tmp_path, count=8, duration=16000)
        base = tmp_path / "selfcorr"
        rc = main(["eval", "--mode", "turns", "--generated", str(corpus),
                   "--reference", str(corpus), "--model-name", "self",
                   "--dataset-name", "synth", "--out", str(base)])
        assert rc == 0
        data = json.loads(base.with_suffix(".json").read_text())
        assert data["metrics"]["ipu_r"] == pytest.approx(1.0)
        assert data["metrics"]["average_r"] == pytest.approx(1.0)
        csv_text = base.with_suffix(".csv").read_text()
        assert csv_text.splitlines()[0].startswith("model,dataset,mode")

    def test_ppl_mode_and_report(self, tmp_path):
        corpus = synth(tmp_path, count=6, duration=8000)
        model = trained(tmp_path, corpus)
        base = tmp_path / "ppl"
        rc = main(["eval", "--mode", "ppl", "--generated", str(corpus),
                   "--model", str(model), "--prompt-ms", "1600",
                   "--chunk-ms", "160", "--latency", "1", "--out", str(base)])
        assert rc == 0
        data = json.loads(base.with_suffix(".json").read_text())
        assert data["metrics"]["median_ppl"] > 1.0
        assert data["metrics"]["n_dialogues"] == 6

        report = tmp_path / "report.csv"
        rc = main(["report", "--inputs", str(base.with_suffix(".json")),
                   str(base.with_suffix(".json")), "--out", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 3  # header + one row per input

    def test_eval_requires_reference_for_turns(self, tmp_path, capsys):
        corpus = synth(tmp_path)
        rc = main(["eval", "--mode", "turns", "--generated", str(corpus),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        capsys.readouterr()

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        rc = main(["train", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert not (tmp_path / "m.json").exists()
        capsys.readouterr()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "duplexsim.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "interact" in proc.stdout
