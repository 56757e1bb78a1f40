"""Fuzz the CLI's input boundary with mutated input files and flag values.

Every run ends in exit 0, or in exit 2 or 3 with exactly one JSON line on
stderr and the output directory exactly as it was: no new, changed or
temp file. The model file, a stream of .npy records, is broken by binary
edits of one record's header or data; the other inputs by JSON edits. Inputs are tiny and every size flag is drawn from a small
range, so no run allocates more than a few MB.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import numpy.lib.format as npy
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from duplexsim import DialogueStyle, Vocab
from duplexsim.cli import main

INPUTS = {"style": "style.json", "corpus": "corpus.jsonl", "model": "model.json",
          "eval": "eval.json"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    f = {k: str(d / name) for k, name in INPUTS.items()}
    DialogueStyle(vocab=Vocab(size=10, frame_ms=40, silence_tokens=frozenset({0})),
                  ipu_ms=(600.0, 200.0), pause_ms=(300.0, 100.0)).to_file(f["style"])
    for argv in (
        ["synth", "--style", f["style"], "--count", "3", "--duration-ms", "3200",
         "--out", f["corpus"]],
        ["train", "--corpus", f["corpus"], "--order", "2", "--out", f["model"]],
        ["eval", "--mode", "turns", "--generated", f["corpus"], "--reference",
         f["corpus"], "--out", str(d / "eval")],
    ):
        assert main(argv) == 0
    return d


def _command(name, f, o, flags):
    """argv of one subcommand reading the inputs ``f`` and writing into ``o``."""
    chunk, prompt, latency, sampler = flags
    c = ["--chunk-ms", str(chunk)]
    p = ["--prompt-ms", str(prompt)]
    return {
        "synth": ["synth", "--style", f["style"], "--count", "2", "--duration-ms", "1600",
                  *c, "--out", o / "c.jsonl", "--stats-out", o / "stats.json"],
        "train": ["train", "--corpus", f["corpus"], "--order", "2", *c,
                  "--out", o / "m.json"],
        "continue": ["continue", "--model", f["model"], "--prompts", f["corpus"], *p, *c,
                     "--continue-ms", "640", *sampler, "--out", o / "g.jsonl",
                     "--transcript", o / "t.json"],
        "interact": ["interact", "--model-a", f["model"], "--scripted", f["corpus"], *p,
                     *c, "--latency", str(latency), "--max-chunks", "4", *sampler,
                     "--out", o / "i.json", "--corpus-out", o / "i.jsonl"],
        "interact-models": ["interact", "--model-a", f["model"], "--model-b", f["model"],
                            "--prompts", f["corpus"], *p, *c, "--latency", str(latency),
                            "--max-chunks", "4", *sampler, "--out", o / "i.json"],
        "eval-turns": ["eval", "--mode", "turns", "--generated", f["corpus"],
                       "--reference", f["corpus"], "--out", o / "e"],
        "eval-ppl": ["eval", "--mode", "ppl", "--generated", f["corpus"],
                     "--model", f["model"], *p, *c, "--out", o / "e"],
        "report": ["report", "--inputs", f["eval"], "--out", o / "r.csv"],
    }[name]


def _paths(doc, prefix=()):
    """Every key/index path into a JSON document."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield from _paths(v, prefix + (k,))


json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 600), st.text(max_size=3),
    st.floats(-1e3, 1e3), st.sampled_from([float("nan"), float("inf")]),
    st.lists(st.integers(-2, 12), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def _mutate(path: Path, data) -> None:
    """Break one input file in one drawn way."""
    how = data.draw(st.sampled_from(["value", "delete", "truncate", "bytes", "missing",
                                     "directory"]))
    raw = path.read_bytes()
    if how == "missing":
        path.unlink()
    elif how == "directory":
        path.unlink()
        path.mkdir()
    elif how == "truncate":
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    elif how == "bytes":
        i = data.draw(st.integers(0, len(raw) - 1))
        path.write_bytes(raw[:i] + data.draw(st.sampled_from([b"\xff", b"\n", b"{", b"0"]))
                         + raw[i:])
    elif path.name == INPUTS["model"]:
        _mutate_model(path, how, data)
    else:
        lines = path.read_text().splitlines() if path.suffix == ".jsonl" else [raw]
        i = data.draw(st.integers(0, len(lines) - 1))
        doc = json.loads(lines[i])
        where = data.draw(st.sampled_from(list(_paths(doc))[1:] or [()]))
        if not where:
            doc = data.draw(json_values)
        else:
            parent = doc
            for k in where[:-1]:
                parent = parent[k]
            if how == "delete":
                del parent[where[-1]]
            else:
                parent[where[-1]] = data.draw(json_values)
        lines[i] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")


npy_descrs = st.sampled_from(["<i8", "<u8", "|u1", "<u2", ">i4", "<f8", "<f2", "|b1", "|O",
                              "<U2", "|S3", "<c16", "|V8", "<M8[s]", ",f8", "(2,)i8"])
npy_shapes = st.one_of(st.integers(-3, 300).map(lambda n: (n,)),
                       st.integers(10**9, 10**15).map(lambda n: (n,)),
                       st.sampled_from([(), (2, 3), (0, 1)]))


def _mutate_model(path: Path, how: str, data) -> None:
    """Delete one record of a model file, or rewrite its header with a drawn
    dtype and shape (the data unchanged), or one byte of its data."""
    raw = path.read_bytes()
    records, fh = [], io.BytesIO(raw)  # each record as [header, data]
    while fh.tell() < len(raw):
        start = fh.tell()
        npy.read_magic(fh)
        shape, _, dtype = npy.read_array_header_1_0(fh)
        head = fh.tell()
        fh.seek(head + int(np.prod(shape)) * dtype.itemsize)
        records.append([raw[start:head], raw[head:fh.tell()]])
    i = data.draw(st.integers(0, len(records) - 1))
    if how == "delete":
        del records[i]
    elif data.draw(st.booleans()) or not records[i][1]:
        header = io.BytesIO()
        npy.write_array_header_1_0(header, {"descr": data.draw(npy_descrs),
                                            "fortran_order": False, "shape": data.draw(npy_shapes)})
        records[i][0] = header.getvalue()
    else:
        body = bytearray(records[i][1])
        body[data.draw(st.integers(0, len(body) - 1))] = data.draw(st.integers(0, 255))
        records[i][1] = bytes(body)
    path.write_bytes(b"".join(b"".join(r) for r in records))


def _snapshot(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in d.iterdir()}


@st.composite
def flag_values(draw):
    """--chunk-ms, --prompt-ms, --latency, --temperature and --top-k from
    small valid ranges, except at most one drawn from a wider range."""
    wide = draw(st.sampled_from([None, "chunk", "prompt", "latency", "temperature",
                                 "top_k"]))
    chunk = draw(st.integers(-50, 400) if wide == "chunk"
                 else st.sampled_from([80, 160, 320]))
    prompt = draw(st.integers(-200, 1000) if wide == "prompt"
                  else st.integers(0, 3).map(lambda k: k * chunk))
    latency = draw(st.integers(-2, 8) if wide == "latency" else st.integers(0, 3))
    temperature = draw(st.floats(-1.0, 0.05) if wide == "temperature"
                       else st.floats(0.05, 4.0))
    top_k = draw(st.integers(-2, 8) if wide == "top_k" else st.none() | st.integers(1, 6))
    sampler = ["--temperature", repr(temperature)]
    if top_k is not None:
        sampler += ["--top-k", str(top_k)]
    return chunk, prompt, latency, sampler


# no explain phase: its line tracing costs minutes and hundreds of MB on a failure
@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(command=st.sampled_from(["synth", "train", "continue", "interact",
                                "interact-models", "eval-turns", "eval-ppl", "report"]),
       flags=flag_values(), data=st.data())
def test_every_run_succeeds_or_fails_cleanly(inputs, command, flags, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(inputs, tmp / "in")
        out = tmp / "out"
        out.mkdir()
        f = {k: str(tmp / "in" / name) for k, name in INPUTS.items()}
        argv = [str(a) for a in _command(command, f, out, flags)]
        read = [k for k, v in f.items() if v in argv]
        victim = data.draw(st.none() | st.sampled_from(read))
        if victim is not None:
            _mutate(Path(f[victim]), data)
        # an output that already exists must survive a failed run
        first_out = Path(argv[argv.index("--out") + 1])
        if command.startswith("eval"):
            first_out = first_out.with_suffix(".json")
        first_out.write_bytes(b"old output\n")
        before = _snapshot(out)

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        if rc == 0:
            return
        assert rc in (2, 3)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert set(json.loads(lines[0])) == {"error", "message"}
        assert _snapshot(out) == before
