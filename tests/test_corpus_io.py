import ast
import json
import os
import re
import stat
import threading
from contextlib import suppress
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duplexsim
from duplexsim import DialogueStyle, NgramModel, corpus_io
from duplexsim.errors import ConfigError

import oracles

WRITERS = {
    "json": lambda p: corpus_io.write_json(p, {"b": 1, "a": [1, 2]}),
    "json_indent": lambda p: corpus_io.write_json(p, {"b": 1}, indent=2),
    "csv": lambda p: corpus_io.write_csv(p, ["x", "y"], [{"x": 1, "y": "a,b"}]),
    "corpus": lambda p: corpus_io.write_corpus(p, [{"id": "d0"}, {"id": "d1"}]),
    "model": lambda p: NgramModel(order=1, vocab_ext=3).save(p),
    "style": lambda p: DialogueStyle().to_file(p),
}


@pytest.mark.parametrize("umask", [0o022, 0o077])
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_output_mode_is_what_open_gives(name, umask, tmp_path):
    old = os.umask(umask)
    try:
        WRITERS[name](tmp_path / "out")
        (tmp_path / "plain").open("w").close()
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "out").st_mode & 0o777 == 0o666 & ~umask
    assert os.stat(tmp_path / "plain").st_mode & 0o777 == 0o666 & ~umask


def test_exact_bytes(tmp_path):
    path = tmp_path / "out"
    corpus_io.write_json(path, {"b": 1, "a": [1, 2]})
    assert path.read_text() == '{"a":[1,2],"b":1}\n'
    corpus_io.write_json(path, {"b": 1, "a": 2}, indent=2)
    assert path.read_text() == '{\n  "a": 2,\n  "b": 1\n}\n'
    corpus_io.write_csv(path, ["x", "y"], [{"x": 1, "y": "a,b"}])
    assert path.read_bytes() == b'x,y\n1,"a,b"\n'


# NaN and Infinity are not JSON: writing one raises before any file is opened
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("indent", [None, 2])
def test_non_finite_float_is_not_written(value, indent, tmp_path):
    with pytest.raises(ValueError):
        corpus_io.write_json(tmp_path / "out", {"a": [1.0, value]}, indent=indent)
    assert os.listdir(tmp_path) == []


def test_failed_write_leaves_directory_unchanged(tmp_path):
    target = tmp_path / "corpus.jsonl"
    target.write_text("old\n")

    def records():
        yield {"id": "d0"}
        raise RuntimeError("generation failed")

    with pytest.raises(RuntimeError):
        corpus_io.write_corpus(target, records())
    assert os.listdir(tmp_path) == ["corpus.jsonl"]
    assert target.read_text() == "old\n"


def test_write_into_missing_directory_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="nope"):
        corpus_io.write_json(tmp_path / "nope" / "out.json", {})
    assert os.listdir(tmp_path) == []


def test_replacing_a_directory_leaves_no_temp_file(tmp_path):
    (tmp_path / "out").mkdir()
    with pytest.raises(ConfigError, match="out"):
        corpus_io.write_json(tmp_path / "out", {})
    assert os.listdir(tmp_path) == ["out"]


def test_replacing_keeps_the_old_mode(tmp_path):
    target = tmp_path / "out"
    target.write_text("old\n")
    target.chmod(0o600)
    corpus_io.write_json(target, {})
    assert os.stat(target).st_mode & 0o777 == 0o600


def test_symlink_to_a_file_stays_a_symlink(tmp_path):
    (tmp_path / "real").write_text("old\n")
    (tmp_path / "link").symlink_to("real")
    corpus_io.write_json(tmp_path / "link", {"a": 1})
    assert os.readlink(tmp_path / "link") == "real"
    assert (tmp_path / "real").read_text() == '{"a":1}\n'
    assert sorted(os.listdir(tmp_path)) == ["link", "real"]


def test_symlink_to_a_device_is_written_through(tmp_path):
    (tmp_path / "null").symlink_to(os.devnull)
    corpus_io.write_json(tmp_path / "null", {"a": 1})
    assert os.readlink(tmp_path / "null") == os.devnull
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert os.listdir(tmp_path) == ["null"]


def test_fifo_is_written_through(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    corpus_io.write_json(fifo, {"a": 1})
    reader.join(timeout=10)
    assert got == ['{"a":1}\n']
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


READERS = {
    "json": corpus_io.read_json,
    "corpus": corpus_io.read_corpus,
    "model": NgramModel.load,
}
UNREADABLE = {
    "missing": lambda p: None,
    "directory": lambda p: p.mkdir(),
    "bad_utf8": lambda p: p.write_bytes(b'{"id": "\xff"}\n'),
}


@pytest.mark.parametrize("fault", sorted(UNREADABLE))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_unreadable_file_is_config_error_naming_it(reader, fault, tmp_path):
    path = tmp_path / "input_file"
    UNREADABLE[fault](path)
    with pytest.raises(ConfigError, match="input_file"):
        READERS[reader](path)


@pytest.mark.parametrize("text", ["{", "[" * 100000, "NaN x"])
@pytest.mark.parametrize("reader", ["json", "corpus"])
def test_undecodable_json_is_config_error_naming_it(reader, text, tmp_path):
    path = tmp_path / "input_file"
    path.write_text(text)
    with pytest.raises(ConfigError, match="input_file"):
        READERS[reader](path)


FILE_CALLS = {"open", "json.load", "json.dump", "np.load", "np.save", "np.fromfile"}
FILE_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def test_only_corpus_io_touches_files():
    src = Path(duplexsim.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "corpus_io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and (
                    ast.unparse(node.func) in FILE_CALLS
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr in FILE_METHODS):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_read_corpus_round_trip(tmp_path):
    vocab = duplexsim.Vocab(size=5, frame_ms=40, silence_tokens=frozenset({0, 1}))
    s0, s1 = (0, 2, 4), (1, 1, 3)
    path = tmp_path / "c.jsonl"
    corpus_io.write_corpus(path, [corpus_io.dialogue_to_record("a", s0, s1, vocab)])
    assert json.loads(path.read_text())["silence"] == [0, 1]
    ((did, r0, r1, got_vocab),) = corpus_io.read_corpus(path)
    assert (did, got_vocab) == ("a", vocab)
    assert r0.dtype == r1.dtype == np.int64
    assert (r0.tolist(), r1.tolist()) == (list(s0), list(s1))


def _record(did, s0, s1, size=5):
    return {"id": did, "frame_ms": 40, "vocab": size, "silence": [0],
            "channels": [list(s0), list(s1)]}


# numpy cannot hold such an id: it was read as a Python int, and is now refused
def test_id_past_int64_in_range_is_config_error(tmp_path):
    rec = _record("d", [2**63], [0], size=2**64)
    with pytest.raises(ConfigError, match="dialogue d: a token lies past int64"):
        corpus_io.record_to_dialogue(rec)
    path = tmp_path / "c.jsonl"
    corpus_io.write_corpus(path, [rec])
    with pytest.raises(ConfigError, match="line 1: dialogue d: a token lies past int64"):
        corpus_io.read_corpus(path)


def _outcome(read, path):
    """A reader's entries as lists, or the text of its ``ConfigError``."""
    try:
        entries = read(path)
    except ConfigError as exc:
        return str(exc)
    assert all(s0.dtype == s1.dtype == np.int64 for _, s0, s1, _ in entries)
    return [(did, s0.tolist(), s1.tolist(), vocab) for did, s0, s1, vocab in entries]


# an id that spells a JSON bool once sent a record to the id-by-id walk; now
# every record write_corpus spells has its channels parsed from the text,
# whatever its id, and reads as the walk reads it: the rows of one int64 array
@pytest.mark.parametrize("did", ["d0", "true", "is false"])
@pytest.mark.parametrize("channels", [((), ()), ((3,), (0,)), ((0, 2, 4), (1, 1, 3))])
def test_screened_and_walked_records_read_alike(did, channels, tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    corpus_io.write_corpus(path, [_record(did, *channels)])
    walked, parsed = [], []
    is_int_list, canonical = corpus_io.is_int_list, corpus_io._canonical
    monkeypatch.setattr(corpus_io, "is_int_list", lambda x: walked.append(x) or is_int_list(x))
    monkeypatch.setattr(corpus_io, "_canonical", lambda lines: parsed.append(canonical(lines))
                        or parsed[-1])
    ((got_id, s0, s1, _),) = corpus_io.read_corpus(path)
    # the silence list is walked; the channels are not, but parsed in one array
    assert walked == [[0], [], []]
    assert len(parsed) == 1 and parsed[0] is not None
    assert got_id == did
    for row, expected in zip((s0, s1), channels):
        assert row.tolist() == list(expected)
    assert s0.base is s1.base and s0.base.dtype == np.int64
    assert s0.base.size == 2 * len(channels[0])
    assert _outcome(corpus_io.read_corpus, path) == _outcome(oracles.read_corpus_lines, path)


JSON_VALUES = st.one_of(st.integers(-2, 12), st.integers(-(2**70), 2**70), st.booleans(),
                        st.floats(allow_nan=False, allow_infinity=False), st.none(),
                        st.text(max_size=2), st.lists(st.integers(0, 9), max_size=2))


# the array path passes only records that the walk passes, and reads them
# alike; whatever write_corpus spells, bools and floats too, it tries first
@given(s0=st.lists(st.one_of(st.integers(0, 12), JSON_VALUES), max_size=6),
       s1=st.lists(st.integers(0, 12), max_size=6),
       size=st.sampled_from([1, 10, 2**64]), swap=st.booleans())
@settings(max_examples=500, deadline=None)
def test_screen_agrees_with_the_walk(s0, s1, size, swap, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "screen.jsonl"
    corpus_io.write_corpus(path, [_record("d", *((s1, s0) if swap else (s0, s1)), size=size)])
    assert _outcome(corpus_io.read_corpus, path) == _outcome(oracles.read_corpus_lines, path)


# each rewrites one id field of the channels (or of silence), found by FIELD
FIELD = re.compile(r"(?<=[\[,])[0-9]+(?=[\],])")
FIELD_EDITS = [
    lambda f: "0" + f, lambda f: "", lambda f: "-" + f, lambda f: "-0",
    lambda f: f + ".0", lambda f: "1e2", lambda f: "true", lambda f: " " + f,
    lambda f: f + " ", lambda f: str(2**63), lambda f: str(2**63 - 1),
    lambda f: str(2**64 + int(f)), lambda f: "9" * 30, lambda f: "1", lambda f: "24",
    lambda f: "23", lambda f: "503",
]
LINE_EDITS = [
    lambda line: line.replace("[[", "[[,", 1),
    lambda line: line.replace("],[", ",],[", 1),
    lambda line: line.replace("],[", "],[,", 1),
    lambda line: line[:-1] + ',"channels":[[1],[2]]}',
    lambda line: line[:-1] + ',"x":1}',
    lambda line: line.replace('"frame_ms"', '"x":[1,2],"frame_ms"', 1),
    lambda line: json.dumps(dict(reversed(json.loads(line).items()))),
    lambda line: json.dumps(json.loads(line)),
    lambda line: "\ufeff" + line,
    lambda line: line + "\n",
    lambda line: line + "\n  \t",
    lambda line: line.replace(']],"frame_ms"', ']],"frame_ms":1,"frame_ms"', 1),
]


@st.composite
def corpus_texts(draw):
    """``write_corpus`` lines, some edited, with vocabularies near int64's
    limit, now and then a record of another vocabulary or a repeated id, and
    a batch size of a few characters to a whole corpus."""
    lines = []
    size = draw(st.sampled_from([1, 24, 503, 2**63 - 1, 2**63, 2**64]))
    odd = draw(st.integers(0, 9))  # the record of vocabulary 24, if there are so many
    for i in range(draw(st.integers(0, 5))):
        rec_size = 24 if i == odd else size
        width = draw(st.integers(0, 6))
        ids = st.lists(st.integers(0, min(rec_size, 600) - 1), min_size=width, max_size=width)
        rec = {"id": draw(st.sampled_from([f"d{i}"] * 6 + ["d0", "true"])),
               "frame_ms": 40, "vocab": rec_size, "silence": [0],
               "channels": [draw(ids), draw(ids)]}
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        fields = list(FIELD.finditer(lines[i]))
        if fields and draw(st.booleans()):
            m = fields[draw(st.integers(0, len(fields) - 1))]
            edit = draw(st.sampled_from(FIELD_EDITS))
            lines[i] = lines[i][:m.start()] + edit(m[0]) + lines[i][m.end():]
        else:
            with suppress(ValueError):  # an edit that parses the line needs JSON
                lines[i] = draw(st.sampled_from(LINE_EDITS))(lines[i])
    return "".join(line + "\n" for line in lines), draw(st.sampled_from([1, 64, 4096, 2**18]))


# the batched reader gives the entries, or the error, of the per-line reader
# it replaced, whichever batches a canonical or edited corpus falls into
@given(corpus=corpus_texts())
@settings(max_examples=400, deadline=None)
def test_read_corpus_equals_per_line_reader(corpus, tmp_path_factory):
    text, batch = corpus
    path = tmp_path_factory.getbasetemp() / "property.jsonl"
    path.write_text(text, encoding="utf-8")
    with patch.object(corpus_io, "_BATCH", batch):
        assert _outcome(corpus_io.read_corpus, path) == _outcome(oracles.read_corpus_lines, path)


# every edit, at every id field of a corpus's last line: the end of the
# batch's text is where an empty last field would go unseen
@pytest.mark.parametrize("size", [1, 24, 2**63 - 1, 2**64])
@pytest.mark.parametrize("edit", range(len(FIELD_EDITS) + len(LINE_EDITS)))
def test_each_edit_reads_as_per_line_reader(edit, size, tmp_path):
    path = tmp_path / "c.jsonl"
    ids = [0, min(size, 503) - 1]
    lines = [json.dumps(_record(f"d{i}", ids, ids[::-1], size), sort_keys=True,
                        separators=(",", ":")) for i in range(3)]
    if edit >= len(FIELD_EDITS):
        texts = [LINE_EDITS[edit - len(FIELD_EDITS)](lines[-1])]
    else:
        texts = [lines[-1][:m.start()] + FIELD_EDITS[edit](m[0]) + lines[-1][m.end():]
                 for m in FIELD.finditer(lines[-1])]
    for text in texts:
        path.write_text("".join(line + "\n" for line in lines[:-1] + [text]))
        assert _outcome(corpus_io.read_corpus, path) == _outcome(oracles.read_corpus_lines, path)


# records a batch-wide count or bound passes that a record-wide one does not:
# channel widths 2, 1 and 1, 2, and an id within a later record's vocabulary
@pytest.mark.parametrize("pair", [
    ([[1, 2], [3]], 24, [[4], [5, 6]], 24),
    ([[30], [0]], 24, [[0], [0]], 503),
])
def test_batch_checks_hold_record_by_record(pair, tmp_path):
    path = tmp_path / "c.jsonl"
    ch0, size0, ch1, size1 = pair
    corpus_io.write_corpus(path, [_record("a", *ch0, size=size0), _record("b", *ch1, size=size1)])
    got = _outcome(corpus_io.read_corpus, path)
    assert got.startswith(f"corpus {path} line 1: dialogue ")
    assert got == _outcome(oracles.read_corpus_lines, path)


# a record whose id is a string and whose frame_ms, vocab and silence equal the
# first record's of its batch in type and value takes the first record's Vocab;
# one alike in value only (true is not 1, 1.0 is not 1) reads, or fails, as the
# per-line reader reads it
@pytest.mark.parametrize("field, value", [
    (None, None), ("frame_ms", True), ("frame_ms", 1.0), ("vocab", True), ("vocab", 1.0),
    ("silence", [False]), ("silence", [0.0]), ("silence", [0, 0]), ("id", 2), ("id", None)])
def test_first_vocab_serves_records_alike_in_type(field, value, tmp_path):
    path = tmp_path / "c.jsonl"
    records = [{**_record(f"d{i}", [0], [0], size=1), "frame_ms": 1} for i in range(3)]
    if field is not None:
        records[2][field] = value
    corpus_io.write_corpus(path, records)
    got = _outcome(corpus_io.read_corpus, path)
    assert got == _outcome(oracles.read_corpus_lines, path)
    if field is None or value == [0, 0]:
        entries = corpus_io.read_corpus(path)
        assert entries[1][3] is entries[0][3]
        assert (entries[2][3] is entries[0][3]) == (field is None)
    else:
        assert got.startswith(f"corpus {path} line 3: ")


def _long_corpus(path, n=200, width=300):
    """``n`` dialogues of ``width`` frames, about 2 KB a line, so that line
    180 lies past the first batch."""
    vocab = duplexsim.Vocab(size=503, frame_ms=40, silence_tokens=frozenset({0}))
    rng = np.random.default_rng(0)
    records = [corpus_io.dialogue_to_record(f"d{i}", *rng.integers(0, 503, (2, width)).tolist(),
                                            vocab) for i in range(n)]
    corpus_io.write_corpus(path, records)
    lines = path.read_text().splitlines(keepends=True)
    assert sum(map(len, lines[:179])) >= corpus_io._BATCH
    return lines


def test_malformed_line_in_second_batch_names_its_line(tmp_path):
    path = tmp_path / "c.jsonl"
    lines = _long_corpus(path)
    lines[179] = lines[179].replace("[[", "[[0", 1)
    path.write_text("".join(lines))
    with pytest.raises(ConfigError) as exc:
        corpus_io.read_corpus(path)
    assert str(exc.value).startswith(f"corpus {path} line 180: ")
    assert _outcome(corpus_io.read_corpus, path) == _outcome(oracles.read_corpus_lines, path)


def test_id_repeated_across_batches(tmp_path):
    path = tmp_path / "c.jsonl"
    lines = _long_corpus(path)
    lines[179] = lines[179].replace('"id":"d179"', '"id":"d3"')
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=r"dialogue id 'd3' is repeated$"):
        corpus_io.read_corpus(path)
    assert _outcome(corpus_io.read_corpus, path) == _outcome(oracles.read_corpus_lines, path)


# the lines read before a decoding error are checked first, as one at a time
def test_bad_line_before_undecodable_bytes_is_reported_first(tmp_path):
    path = tmp_path / "c.jsonl"
    lines = _long_corpus(path)
    path.write_bytes(b"{\n" + "".join(lines[:50]).encode() + b"\xff\n")
    with pytest.raises(ConfigError, match="line 1: "):
        corpus_io.read_corpus(path)
    path.write_bytes("".join(lines[:50]).encode() + b"\xff\n")
    assert _outcome(corpus_io.read_corpus, path).startswith(f"cannot read {path}: ")
    assert _outcome(corpus_io.read_corpus, path) == _outcome(oracles.read_corpus_lines, path)


def test_batches_are_whole_and_never_empty():
    """The batcher of corpus lines and of training sequences: runs of whole
    items whose lengths sum to about ``size``, none empty, and the items
    read before a decoding error come out before it is raised."""
    items = [[1] * 3, [2] * 5, [], [3] * 8, [4]]
    assert list(corpus_io.batches(items, 8)) == [items[:2], items[2:4], items[4:]]
    assert list(corpus_io.batches(items[:2], 8)) == [items[:2]]
    assert list(corpus_io.batches([], 8)) == []

    def undecodable():
        yield from ("ab", "cd")
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    for size in (100, 4):  # the error inside a batch, and right after a full one
        got = corpus_io.batches(undecodable(), size)
        assert next(got) == ["ab", "cd"]
        with pytest.raises(UnicodeDecodeError):
            next(got)


# a FIFO can be read once only
def test_fifo_corpus_reads_as_a_file(tmp_path):
    path, fifo = tmp_path / "c.jsonl", tmp_path / "fifo"
    _long_corpus(path)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    got = _outcome(corpus_io.read_corpus, fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == _outcome(corpus_io.read_corpus, path)
    assert len(got) == 200
