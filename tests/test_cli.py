import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.lib.format as npy
import pytest

from duplexsim import DialogueStyle, NgramModel, Vocab, corpus_io
from duplexsim import cli
from duplexsim.cli import build_parser, main

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

    def test_stats_of_no_events_are_null(self, tmp_path):
        # an 800 ms dialogue is one IPU, with no pause and no floor transfer
        stats = tmp_path / "stats.json"
        assert main(["synth", "--count", "1", "--duration-ms", "800", "--out",
                     str(tmp_path / "c.jsonl"), "--stats-out", str(stats)]) == 0

        def non_json(name):
            raise AssertionError(f"{name} is not JSON")

        payload = json.loads(stats.read_text(), parse_constant=non_json)
        assert payload["event_counts"] == {"fto": 0, "ipu": 1, "pause": 0}
        assert payload["event_means_ms"] == {"fto": None, "ipu": 800.0, "pause": None}
        assert payload["event_stds_ms"] == {"fto": None, "ipu": 0.0, "pause": None}

    def test_count_zero_gives_empty_file(self, tmp_path):
        path = synth(tmp_path, count=0)
        assert path.read_text() == ""

    @pytest.mark.parametrize("flags", [["--count", "-3"],
                                       ["--count", "2", "--mode", "stage2", "--turns", "-2"]])
    def test_negative_count_or_turns(self, tmp_path, capsys, flags):
        out = tmp_path / "corpus.jsonl"
        assert_rejected(main(["synth", *VOCAB_ARGS, *flags, "--out", str(out)]), capsys, [out])

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

    def test_vocab_train_can_code(self, tmp_path, capsys):
        # train packs an order-1 context into an int64 code, which takes
        # vocab size + 3 values: synth refuses a vocabulary one past that
        out = tmp_path / "past.jsonl"
        assert main(["synth", "--vocab", str(2**63 - 2), "--count", "2",
                     "--duration-ms", "800", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "2**63 - 3" in json.loads(err)["message"]
        assert not out.exists()
        corpus = tmp_path / "top.jsonl"
        assert main(["synth", "--vocab", str(2**63 - 3), "--count", "2",
                     "--duration-ms", "800", "--out", str(corpus)]) == 0
        assert main(["train", "--corpus", str(corpus), "--order", "1",
                     "--out", str(tmp_path / "model.json")]) == 0


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

    def test_default_continue_ms_is_whole_chunks(self, tmp_path):
        # the 30 s default is not a multiple of 160 ms; it runs the 187 chunks
        # that fit, and the transcript records the 29920 ms they cover
        corpus = synth(tmp_path, count=1)
        model = trained(tmp_path, corpus)
        out, tr = tmp_path / "g.jsonl", tmp_path / "t.json"
        rc = main(["continue", "--model", str(model), "--prompts", str(corpus),
                   "--prompt-ms", "1600", "--out", str(out), "--transcript", str(tr)])
        assert rc == 0
        rec = json.loads(out.read_text())
        assert len(rec["channels"][0]) == (1600 + 29920) // 40
        tr_data = json.loads(tr.read_text())
        assert tr_data["continue_ms"] == 29920
        assert tr_data["dialogues"][0]["n_chunks"] == 187


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

    @pytest.mark.parametrize("user", ["--model-b", "--scripted"])
    def test_one_simulate_interaction_call_per_run(self, tmp_path, monkeypatch, user):
        # perfbench times the engine by wrapping this attribute of the cli
        corpus = synth(tmp_path, count=3)
        model = trained(tmp_path, corpus)
        source = ["--model-b", str(model), "--prompts", str(corpus)] if user == "--model-b" \
            else ["--scripted", str(corpus)]

        def interact(out):
            assert main(["interact", "--model-a", str(model), *source, "--prompt-ms", "960",
                         "--max-chunks", "12", "--latency", "1", "--out", str(out)]) == 0
            return out.read_bytes()

        plain = interact(tmp_path / "plain.json")
        calls = []
        run = cli.simulate_interaction

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_interaction", counted)
        assert interact(tmp_path / "counted.json") == plain
        assert len(calls) == 3

    def test_empty_script_is_refused(self, tmp_path, capsys):
        # a script of no chunks is still a script, which runs out at once
        corpus = synth(tmp_path, count=2, duration=0)
        model = trained(tmp_path, synth(tmp_path, out="train.jsonl"))
        out, gen = tmp_path / "tr.json", tmp_path / "gen.jsonl"
        assert main(["interact", "--model-a", str(model), "--scripted", str(corpus),
                     "--max-chunks", "4", "--out", str(out), "--corpus-out", str(gen)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SourceExhausted"
        assert not out.exists() and not gen.exists()

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        corpus = synth(tmp_path)
        model = trained(tmp_path, corpus)
        rc = main(["interact", "--model-a", str(model), "--out",
                   str(tmp_path / "o.json")])
        assert rc == 2
        capsys.readouterr()


RECORDS = ("header", "alpha", "codes", "sizes", "tokens", "counts")


def read_records(path):
    """A model file's records by name, as arrays that a mutation may edit."""
    with open(path, "rb") as fh:
        return {name: np.load(fh) for name in RECORDS}


def write_records(path, records):
    """Each record as a .npy record (an object array pickled), or as raw bytes."""
    with open(path, "wb") as fh:
        for value in records.values():
            if isinstance(value, bytes):
                fh.write(value)
            else:
                np.save(fh, value, allow_pickle=True)


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _drop(key):
    def mutate(m):
        del m[key]
    return mutate


def _set(key, value):
    def mutate(m):
        m[key] = np.asarray(value)
    return mutate


def _as(key, dtype, shape=None):
    """The record holds its values as ``dtype``, reshaped to ``shape``."""
    def mutate(m):
        m[key] = m[key].astype(dtype).reshape(shape or m[key].shape)
    return mutate


def _edit(column, index, value, dtype=np.int64):
    def mutate(m):
        m[column] = m[column].astype(dtype)
        m[column][index] = value
    return mutate


def _shift_size(value):
    """The first row's size becomes ``value``; the second row takes up the
    difference, so every column keeps its length."""
    def mutate(m):
        sizes = m["sizes"] = m["sizes"].astype(np.int64)
        sizes[1] += sizes[0] - value
        sizes[0] = value
    return mutate


def _repeat_context(m):
    m["codes"][1] = m["codes"][0]


def _repeat_token(m):
    m["sizes"] = m["sizes"].astype(np.int64)
    m["sizes"][0] += 1
    m["tokens"] = np.insert(m["tokens"], 0, m["tokens"][0])
    m["counts"] = np.insert(m["counts"], 0, 1)


def _counts_past_2_53(m):
    """Two counts, each exact as a float64, whose sum is not."""
    m["counts"] = m["counts"].astype(np.uint64)
    m["counts"][:2] = [2**52 + 1, 2**52 + 1]


def _json_file(version):
    """An older, JSON, model file of the same model."""
    def mutate(m):
        order, vocab_ext = int(m["header"][1]), int(m["header"][2])
        payload = {"version": version, "order": order, "alpha": 0.1, "vocab_ext": vocab_ext}
        if version == 1:
            payload["counts"] = {",".join([str(vocab_ext)] * order): {"1": 1}}
        else:
            base = vocab_ext + 1
            payload.update(contexts=[int(c) // base**k % base for c in m["codes"]
                                     for k in reversed(range(order))],
                           **{k: m[k].tolist() for k in ("sizes", "tokens", "counts")})
        m.clear()
        m["json"] = json.dumps(payload).encode()
    return mutate


def _huge_record(m):
    """The counts record declares 10**10 values and holds none."""
    head = io.BytesIO()
    npy.write_array_header_1_0(head, {"descr": "<u8", "fortran_order": False,
                                      "shape": (10**10,)})
    m["counts"] = head.getvalue()


def _with_header(key, text):
    """The record's .npy header replaced by ``text``, its data kept."""
    def mutate(m):
        record = io.BytesIO(npy_bytes(m[key]))
        npy.read_magic(record)
        npy.read_array_header_1_0(record)
        head = text.encode() + b"\n"
        m[key] = b"\x93NUMPY\x01\x00" + len(head).to_bytes(2, "little") + head + record.read()
    return mutate


def _reverse_rows(m):
    ends = np.cumsum(m["sizes"])
    rows = [slice(end - size, end) for size, end in zip(m["sizes"], ends)][::-1]
    m["codes"], m["sizes"] = m["codes"][::-1], m["sizes"][::-1]
    for key in ("tokens", "counts"):
        m[key] = np.concatenate([m[key][r] for r in rows])


# Ways to break a valid model file, each with a part of the message it must
# give; each edits the records in place. The model is over 12 symbols, so
# the begin marker is id 12 and codes lie below 13**3. The cases before the
# "model file v3" line are the faults a JSON (v2) model file could hold, each
# carried to the nearest fault a stream of .npy records can hold.
KIND_IU = "not a 1-D array of kind iu"
MODEL_MUTATIONS = {
    "no_counts": (_drop("counts"), "record 5 is missing"),
    "no_contexts": (_drop("codes"), "record 5 is missing"),
    "no_order": (_set("header", [3, 12]), "header needs 3 values"),
    "order_huge": (_edit("header", 1, 20000), "too large for vocab_ext 12"),
    "order_str": (_as("header", "U5"), KIND_IU),
    "alpha_str": (_as("alpha", "U5"), "not a 1-D array of kind f"),
    "alpha_inf": (_set("alpha", [np.inf]), "one finite 'alpha'"),
    "alpha_past_norm": (_set("alpha", [1e308]), "alpha * vocab_ext finite"),
    "alpha_underflow": (_set("alpha", [1e-300]), "alpha / (2**53 + alpha * vocab_ext)"),
    "vocab_ext_float": (_as("header", np.float64), KIND_IU),
    "version_1": (_json_file(1), "retrain"),
    "version_str": (_as("header", object), "has dtype object"),
    "counts_object": (_as("counts", np.uint8, (-1, 1)), "not a 1-D array"),
    "counts_list": (_set("counts", np.zeros(0, np.uint8)), "do not sum"),
    "predicts_99": (_edit("tokens", 0, 99), "token lies outside [0, 12)"),
    "predicts_past_tags": (_edit("tokens", 0, 12), "token lies outside [0, 12)"),
    "token_negative": (_edit("tokens", 0, -1), "token lies outside [0, 12)"),
    "key_too_short": (lambda m: m.update(codes=m["codes"][:-1]), "one context code per row"),
    "key_id_past_bos": (_edit("codes", -1, 13**3), "context code lies outside [0, 13**3)"),
    "key_not_ids": (_as("codes", "S4"), KIND_IU),
    "count_zero": (_edit("counts", 0, 0), "count is below 1"),
    "count_float": (_as("counts", np.float64), KIND_IU),
    "count_str": (_as("counts", "U3"), KIND_IU),
    "count_bool": (_as("counts", bool), KIND_IU),
    "token_bool": (_as("tokens", bool), KIND_IU),
    "slot_list": (_as("tokens", object), "has dtype object"),
    "slot_empty": (_shift_size(0), "size is below 1"),
    "size_negative": (_shift_size(-1), "size is below 1"),
    "tokens_longer": (lambda m: m.update(tokens=np.append(m["tokens"], 1)), "do not sum"),
    "counts_shorter": (lambda m: m.update(counts=m["counts"][:-1]), "do not sum"),
    "count_past_int64": (_edit("counts", 0, 2**64 - 1, np.uint64), "counts sum past 2**53"),
    "counts_sum_past_2_53": (_counts_past_2_53, "counts sum past 2**53"),
    "key_id_past_int64": (_edit("codes", -1, 2**64 - 1, np.uint64),
                          "context code lies outside [0, 13**3)"),
    "token_past_int64": (_edit("tokens", 0, 2**64 - 1, np.uint64),
                         "token lies outside [0, 12)"),
    "context_repeated": (_repeat_context, "codes are not strictly increasing"),
    "token_repeated_in_row": (_repeat_token, "tokens of a row are not strictly increasing"),
    # model file v3 only
    "version_2": (_json_file(2), "retrain"),
    "version_4": (_edit("header", 0, 4), "version 4 not supported"),
    "rows_out_of_order": (_reverse_rows, "codes are not strictly increasing"),
    "declares_10e10_values": (_huge_record, "declares 10000000000 values"),
    "last_record_truncated": (lambda m: m.update(counts=npy_bytes(m["counts"])[:-1]),
                              "more than the file holds"),
    "trailing_bytes": (lambda m: m.update(extra=b"\0"), "bytes after its last record"),
    # numpy's header parser raises SyntaxError in np.dtype for this descr, and
    # tokenize.TokenError for a header that it retries as Python 2's
    "descr_comma_string": (_with_header("alpha", "{'descr': ',f8', 'fortran_order': False, "
                                                 "'shape': (1,), }"), "record 1: "),
    "header_unclosed": (_with_header("header", "{'descr': '<i8', 'fortran_order': False, "
                                               "'shape': (3,"), "record 0: "),
    "not_npy_version_1": (lambda m: m.update(codes=b"\x93NUMPY\x02" + npy_bytes(m["codes"])[7:]),
                          "not a .npy record of version 1.0"),
}


def _bad_model(records, name, path):
    records = {k: v.copy() for k, v in records.items()}
    MODEL_MUTATIONS[name][0](records)
    write_records(path, records)
    return path


class TestModelFileValidation:
    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("good")
        corpus = synth(tmp)
        return corpus, read_records(trained(tmp, corpus))

    @pytest.mark.parametrize("name", sorted(MODEL_MUTATIONS))
    def test_eval_ppl_rejects_with_exit_2(self, good, name, tmp_path, capsys):
        corpus, records = good
        model = _bad_model(records, name, tmp_path / "bad.json")
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

    def test_declared_length_is_checked_before_reading(self, good, tmp_path, capsys):
        corpus, records = good
        model = _bad_model(records, "declares_10e10_values", tmp_path / "bad.json")
        tracemalloc.start()
        try:
            rc = main(["eval", "--mode", "ppl", "--generated", str(corpus),
                       "--model", str(model), "--out", str(tmp_path / "ppl")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ModelFormatError"
        assert peak < 2**20

    def test_the_records_are_the_format(self, good, tmp_path):
        _, records = good
        assert [r.dtype.kind for r in records.values()] == list("ifiuuu")
        assert records["header"].tolist() == [3, 3, 12]
        assert records["codes"].dtype == np.int64
        # each unsigned column in the smallest type that holds it
        for key in ("sizes", "tokens", "counts"):
            assert records[key].dtype == np.min_scalar_type(int(records[key].max())), key

    def test_interact_rejects_bad_model_b(self, good, tmp_path, capsys):
        corpus, records = good
        model_a = tmp_path / "a.json"
        write_records(model_a, records)
        model_b = _bad_model(records, "predicts_99", tmp_path / "b.json")
        out = tmp_path / "t.json"
        rc = main(["interact", *VOCAB_ARGS, "--model-a", str(model_a),
                   "--model-b", str(model_b), "--max-chunks", "4", "--out", str(out)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ModelFormatError"
        assert not out.exists()

    def test_eval_ppl_builds_no_draw_table(self, good, tmp_path, monkeypatch):
        corpus, _ = good
        model = trained(tmp_path, corpus)
        loaded = []
        load = NgramModel.load
        monkeypatch.setattr(NgramModel, "load",
                            staticmethod(lambda path: loaded.append(load(path)) or loaded[-1]))
        assert main(["eval", "--mode", "ppl", "--generated", str(corpus),
                     "--model", str(model), "--out", str(tmp_path / "ppl")]) == 0
        # the seen-context filter and the cdf cache serve draws only
        assert len(loaded) == 1 and "_filter" not in vars(loaded[0]) and not loaded[0]._cdfs


def assert_rejected(rc, capsys, outputs):
    """Exit 2, one JSON line on stderr naming a ConfigError, no output file;
    returns the error's message."""
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ConfigError"
    for path in outputs:
        assert not path.exists()
    return json.loads(err)["message"]


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
    # channel values a check over the distinct ids alone would let through
    "channel_true_after_one": lambda rec: {**rec, "channels": [[1, True, *ch[2:]]
                                                               for ch in rec["channels"]]},
    "channel_null": lambda rec: {**rec, "channels": [[None, *ch[1:]]
                                                     for ch in rec["channels"]]},
    "channel_string": lambda rec: {**rec, "channels": [["1", *ch[1:]]
                                                       for ch in rec["channels"]]},
    "channel_nested_list": lambda rec: {**rec, "channels": [[[1], *ch[1:]]
                                                            for ch in rec["channels"]]},
    "channel_negative_id": lambda rec: {**rec, "channels": [[-1, *ch[1:]]
                                                            for ch in rec["channels"]]},
    "channel_past_int64": lambda rec: {**rec, "channels": [[2**70, *ch[1:]]
                                                           for ch in rec["channels"]]},
    "channels_unequal_length": lambda rec: {**rec, "channels": [rec["channels"][0],
                                                                rec["channels"][1][:-1]]},
}

# the message of each MALFORMED_RECORDS entry, as the first record of the
# corpus gets it, whether or not the record's text spells a JSON bool
FIELDS_MESSAGE = ("dialogue 'd00000': needs a string id, integer vocab and frame_ms, an "
                  "integer list for silence and two equal-length ones for channels")
RANGE_MESSAGE = "dialogue d00000: a token lies outside [0, 10)"
MALFORMED_MESSAGES = {
    **dict.fromkeys(MALFORMED_RECORDS, FIELDS_MESSAGE),
    **dict.fromkeys(("token_past_vocab", "channel_negative_id", "channel_past_int64"),
                    RANGE_MESSAGE),
    "record_not_object": "a corpus record is an object with keys ['channels', 'frame_ms', "
                         "'id', 'silence', 'vocab']",
}

# (which input, file text, a word the error names) for style files and eval
# results; an eval result's column is absent, null, or of the type eval writes
MALFORMED_FILES = {
    "style_ipu_ms_int": ("style", '{"ipu_ms": 5}', "ipu_ms"),
    "style_not_object": ("style", "[]", "object"),
    "style_nan": ("style", '{"p_self": NaN}', "NaN"),
    "report_not_object": ("report", "[]", "object"),
    "report_metrics_list": ("report", '{"metrics": [], "params": {}}', "metrics"),
    "report_params_str": ("report", '{"metrics": {}, "params": "x"}', "params"),
    "report_model_list": ("report", '{"model": ["x"]}', "model"),
    "report_mode_int": ("report", '{"mode": 3}', "mode"),
    "report_chunk_ms_object": ("report", '{"params": {"chunk_ms": {"a": 1}}}', "chunk_ms"),
    "report_latency_bool": ("report", '{"params": {"latency_chunks": true}}',
                            "latency_chunks"),
    "report_n_dialogues_str": ("report", '{"metrics": {"n_dialogues": "many"}}',
                               "n_dialogues"),
    "report_n_dialogues_float": ("report", '{"metrics": {"n_dialogues": 6.0}}',
                                 "n_dialogues"),
    "report_average_r_bool": ("report", '{"metrics": {"average_r": true}}', "average_r"),
    "report_ppl_str": ("report", '{"metrics": {"median_ppl": "3.5"}}', "median_ppl"),
    "report_ppl_nan": ("report", '{"metrics": {"median_ppl": NaN}}', "NaN"),
    "report_ppl_infinity": ("report", '{"metrics": {"median_ppl": -Infinity}}', "Infinity"),
    "report_ppl_past_float": ("report", '{"metrics": {"median_ppl": 1e400}}', "median_ppl"),
    "report_all_at_once": ("report", '{"model": ["x"], "metrics": {"median_ppl": NaN, '
                           '"n_dialogues": "many", "average_r": true}, '
                           '"params": {"chunk_ms": {"a": 1}}}', "NaN"),
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
        # a flat dump of ints per line is not a corpus, with or without the
        # --vocab (and the unread --chunk-ms) that train once took for it
        flat = tmp_path / "bad.txt"
        flat.write_text("1 1 1 2 2\n5 5 5\n")
        out = tmp_path / "model.json"
        for extra in ([], ["--vocab", "4"], ["--vocab", "4", "--chunk-ms", "7"]):
            assert_rejected(main(["train", "--corpus", str(flat), "--out", str(out), *extra]),
                            capsys, [out])

    # a flag that the rest of the command line would leave unread (a prompt
    # length with no corpus to cut it from, prompts beside a script that
    # supplies them, a flag of the other eval or synth mode, a chunk size for
    # stats that synth does not write), one that only repeated another flag
    # (--greedy was --top-k 1, interact's --duration-ms was --max-chunks x
    # --chunk-ms), one of the flat format that went (every command encodes
    # a .jsonl corpus itself), or a skip that would score the wrong frames
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
        ("eval-turns", ["--skip-ms", "30"]),
        ("synth", ["--chunk-ms", "7"]),
        ("synth", ["--chunk-ms", "200"]),
        ("synth", ["--flat-out", "FLAT"]),
        ("synth", ["--turns", "5"]),
        ("synth", ["--mode", "stage2", "--duration-ms", "123"]),
        ("train", ["--flat-dump", "FLAT"])],
        ids=["prompt_ms_no_corpus", "prompts_with_scripted", "continue_greedy",
             "interact_greedy", "interact_duration_ms", "turns_model", "turns_prompt_ms",
             "ppl_reference", "ppl_skip_ms", "ppl_ipu_gap_ms", "ppl_min_voiced_ms",
             "ppl_bridge_ms", "turns_negative_skip_ms", "turns_skip_ms_not_a_frame",
             "synth_chunk_ms_no_stats", "synth_chunk_ms_200_no_stats", "synth_flat_out",
             "synth_duplex_turns", "synth_stage2_duration_ms", "train_flat_dump"])
    def test_flag_that_would_go_unread(self, world, command, extra, tmp_path, capsys):
        clean, model = world
        out = tmp_path / "out"
        argv, outputs = {
            **self._commands(clean, clean, model, out),
            "interact-no-corpus": (["interact", "--model-a", str(model), "--model-b",
                                    str(model), *VOCAB_ARGS, "--max-chunks", "4",
                                    "--out", str(out)], [out]),
            "synth": (["synth", "--style", str(clean.parent / "style.json"), "--count", "1",
                       "--duration-ms", "800", "--out", str(out)], [out]),
        }[command]
        flat = tmp_path / "flat.txt"
        extra = [{"CORPUS": str(clean), "MODEL": str(model), "FLAT": str(flat)}.get(a, a)
                 for a in extra]
        assert_rejected(main(argv + extra), capsys, outputs + [flat])

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

    # inf and 1e308 * vocab_ext overflow every norm, NaN fails every comparison,
    # and 5e-324 and 1e-315 give probabilities that are not normal floats (eval
    # failed with a math domain error, and with an OverflowError and a
    # traceback); each used to write a model
    @pytest.mark.parametrize("alpha", ["inf", "nan", "1e308", "5e-324", "1e-315"])
    def test_train_alpha_keeps_norms_finite(self, world, alpha, tmp_path, capsys):
        corpus, _ = world
        out = tmp_path / "model.json"
        assert main(["train", "--corpus", str(corpus), "--alpha", alpha,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ValueError"
        assert not out.exists()

    # an infinite temperature used to be written as the non-JSON Infinity, and
    # a NaN one to fail only at the first draw
    @pytest.mark.parametrize("command", ["continue", "interact"])
    @pytest.mark.parametrize("temperature", ["inf", "nan"])
    def test_temperature_is_finite(self, world, command, temperature, tmp_path, capsys):
        clean, model = world
        argv, outputs = self._commands(clean, clean, model, tmp_path / "out")[command]
        assert main(argv + ["--temperature", temperature]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ValueError"
        assert not any(path.exists() for path in outputs)

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
        message = assert_rejected(main(argv), capsys, outputs)
        assert message == f"corpus {bad} line 1: {MALFORMED_MESSAGES[name]}"

    @pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
    def test_malformed_style_or_eval_result(self, name, tmp_path, capsys):
        kind, text, word = MALFORMED_FILES[name]
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        argv = {
            "style": ["synth", "--style", str(bad), "--count", "1", "--out", str(out)],
            "report": ["report", "--inputs", str(bad), "--out", str(out)],
        }[kind]
        message = assert_rejected(main(argv), capsys, [out])
        assert str(bad) in message and word in message

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

    @pytest.mark.parametrize("continue_ms", ["1000", "0", "-160"])
    def test_continue_ms_not_a_chunk_multiple(self, world, continue_ms, tmp_path, capsys):
        # 1000 ms would be cut to 6 chunks of 160 ms while the transcript said 1000
        corpus, model = world
        out, transcript = tmp_path / "out.jsonl", tmp_path / "transcript.json"
        argv = ["continue", "--model", str(model), "--prompts", str(corpus),
                "--prompt-ms", "1600", "--continue-ms", continue_ms, "--chunk-ms", "160",
                "--out", str(out), "--transcript", str(transcript)]
        assert_rejected(main(argv), capsys, [out, transcript])

    def test_interact_parses_each_model_file_once(self, world, tmp_path, monkeypatch):
        corpus, model = world
        copy = tmp_path / "model_copy.json"
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


class TestNoOutputOverwritesAnInput:
    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("world")
        corpus = synth(tmp)
        return corpus, trained(tmp, corpus)

    # each command line names one file twice, at least once as an output; in
    # a directory that holds only the corpus c.jsonl, a symlink and a hard
    # link to it, the model model.json and the eval result e.json
    @pytest.mark.parametrize("argv", [
        ["train", "--corpus", "c.jsonl", "--out", "c.jsonl"],
        ["train", "--corpus", "c.jsonl", "--out", "symlink.jsonl"],
        ["train", "--corpus", "hardlink.jsonl", "--out", "c.jsonl"],
        ["synth", "--count", "1", "--out", "s", "--stats-out", "s"],
        ["continue", "--model", "model.json", "--prompts", "c.jsonl", "--prompt-ms", "1600",
         "--continue-ms", "1600", "--out", "x", "--transcript", "model.json"],
        ["interact", "--model-a", "model.json", "--scripted", "c.jsonl", "--max-chunks", "4",
         "--out", "x", "--corpus-out", "x"],
        ["eval", "--mode", "ppl", "--generated", "c.jsonl", "--model", "model.json",
         "--out", "model"],
        ["report", "--inputs", "e.json", "--out", "e.json"]],
        ids=["train_same", "train_symlink", "train_hardlink", "synth_outputs", "continue",
             "interact_outputs", "eval_derived_json", "report"])
    def test_rejected_before_anything_is_read(self, world, argv, tmp_path, monkeypatch,
                                              capsys):
        corpus, model = world
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.jsonl").write_bytes(corpus.read_bytes())
        (tmp_path / "model.json").write_bytes(model.read_bytes())
        (tmp_path / "symlink.jsonl").symlink_to("c.jsonl")
        os.link(tmp_path / "c.jsonl", tmp_path / "hardlink.jsonl")
        (tmp_path / "e.json").write_text('{"metrics": {}, "params": {}}')
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert_rejected(main(argv), capsys, [])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_devices_stay_exempt(self, world):
        corpus, model = world
        assert main(["interact", "--model-a", str(model), "--scripted", str(corpus),
                     "--max-chunks", "4", "--out", os.devnull,
                     "--corpus-out", os.devnull]) == 0


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

    # a file named by both flags is read once, so a FIFO may be named twice
    def test_turns_reads_a_file_named_twice_once(self, tmp_path, monkeypatch):
        corpus = synth(tmp_path, count=4, duration=8000)
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(corpus.read_bytes())
        reads = []
        read_corpus = corpus_io.read_corpus
        monkeypatch.setattr(corpus_io, "read_corpus", lambda p: reads.append(p) or read_corpus(p))
        for name, ref in (("twice", corpus), ("copy", copy)):
            assert main(["eval", "--mode", "turns", "--generated", str(corpus),
                         "--reference", str(ref), "--out", str(tmp_path / name)]) == 0
        assert list(map(str, reads)) == [str(corpus), str(corpus), str(copy)]
        assert (tmp_path / "twice.json").read_bytes() == (tmp_path / "copy.json").read_bytes()

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
        assert lines[1:] == base.with_suffix(".csv").read_text().splitlines()[1:] * 2

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


def test_calls_of_one_process_parse_alone(tmp_path, capsys):
    """main builds its parser once per process, and each call still parses
    only its own command line: a flag of one call never reaches a later
    one, and a usage error between them still exits 2 with one JSON line."""
    assert build_parser() is build_parser()
    seeded = synth(tmp_path, out="seeded.jsonl", count=2, duration=1600, seed=3)
    model = trained(tmp_path, seeded)
    assert_rejected(main(["train", "--corpus"]), capsys, [])
    default = tmp_path / "default.jsonl"
    assert main(["synth", "--style", str(style_file(tmp_path)), "--count", "2",
                 "--duration-ms", "1600", "--out", str(default)]) == 0
    # --seed is 0 by default, not the first call's 3
    assert default.read_bytes() == synth(tmp_path, out="zero.jsonl", count=2, duration=1600,
                                         seed=0).read_bytes() != seeded.read_bytes()
    assert_rejected(main(["eval", "--mode", "ppl", "--generated", str(seeded), "--model",
                          str(model), "--out", str(tmp_path / "x"), "--seed", "1"]),
                    capsys, [tmp_path / "x.json"])


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "duplexsim.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "interact" in proc.stdout


@pytest.mark.parametrize("flags", [["--replications", "0"], ["--replications", "-3"],
                                   ["--seed", "-5"], ["--out", "{tmp}/missing/sweep.csv"],
                                   ["--out", "{tmp}"]],
                         ids=["no_replications", "negative_replications", "negative_seed",
                              "missing_directory", "directory"])
def test_latency_sweep_checks_flags_before_any_work(flags, tmp_path, monkeypatch, capsys):
    import latency_sweep

    monkeypatch.setattr(latency_sweep, "run_sweep", lambda **_: pytest.fail("the sweep ran"))
    argv = ["--out", str(tmp_path / "sweep.csv")] + [f.format(tmp=tmp_path) for f in flags]
    with pytest.raises(SystemExit) as exc:
        latency_sweep.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--count", "0"], ["--duration-ms", "30"],
                                   ["--duration-ms", "-40"], ["--seed", "-1"], ["--units", "1"]],
                         ids=["no_dialogues", "not_whole_frames", "negative_duration",
                              "negative_seed", "silence_only"])
def test_token_rate_report_checks_flags_before_any_work(flags, monkeypatch, capsys):
    import token_rate_report

    for name in ("generate_corpus", "corpus_stats"):
        monkeypatch.setattr(token_rate_report, name,
                            lambda *args, **kwargs: pytest.fail("the report ran"))
    with pytest.raises(SystemExit) as exc:
        token_rate_report.main(flags)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
