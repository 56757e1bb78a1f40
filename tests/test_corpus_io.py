import ast
import json
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duplexsim
from duplexsim import DialogueStyle, NgramModel, corpus_io
from duplexsim.errors import ConfigError, DuplexError

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


# an id that spells a JSON bool sends a record to the id-by-id walk, which
# must read it as the screen does: the rows of one (2, n) int64 array
@pytest.mark.parametrize("did", ["d0", "true", "is false"])
@pytest.mark.parametrize("channels", [((), ()), ((3,), (0,)), ((0, 2, 4), (1, 1, 3))])
def test_screened_and_walked_records_read_alike(did, channels, tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    corpus_io.write_corpus(path, [_record(did, *channels)])
    walked = []
    is_int_list = corpus_io.is_int_list
    monkeypatch.setattr(corpus_io, "is_int_list", lambda x: walked.append(x) or is_int_list(x))
    ((got_id, s0, s1, _),) = corpus_io.read_corpus(path)
    # the silence list is checked either way; the channels only by the walk
    screened = did == "d0" and len(channels[0]) > 0
    assert len(walked) == (1 if screened else 3)
    assert got_id == did
    for row, expected in zip((s0, s1), channels):
        assert row.tolist() == list(expected)
    assert s0.base is s1.base and s0.base.dtype == np.int64
    assert s0.base.shape == (2, len(channels[0]))


JSON_VALUES = st.one_of(st.integers(-2, 12), st.integers(-(2**70), 2**70), st.booleans(),
                        st.floats(allow_nan=False, allow_infinity=False), st.none(),
                        st.text(max_size=2), st.lists(st.integers(0, 9), max_size=2))


def _outcome(rec, screen):
    try:
        did, s0, s1, vocab = corpus_io.record_to_dialogue(rec, screen)
    except (DuplexError, ValueError) as exc:
        return type(exc), str(exc)
    assert s0.base is s1.base and s0.base.dtype == np.int64 and s0.base.ndim == 2
    return did, s0.tolist(), s1.tolist(), vocab


# numpy cannot hold such an id: it was read as a Python int, and is now refused
def test_id_past_int64_in_range_is_config_error():
    rec = _record("d", [2**63], [0], size=2**64)
    for screen in (True, False):
        with pytest.raises(ConfigError, match="dialogue d: a token lies past int64"):
            corpus_io.record_to_dialogue(rec, screen)


# the screen passes only records that the walk passes, and reads them alike;
# read_corpus screens a record whose text spells no JSON bool
@given(s0=st.lists(st.one_of(st.integers(0, 12), JSON_VALUES), max_size=6),
       s1=st.lists(st.integers(0, 12), max_size=6),
       size=st.sampled_from([1, 10, 2**64]), swap=st.booleans())
@settings(max_examples=500)
def test_screen_agrees_with_the_walk(s0, s1, size, swap):
    text = json.dumps(_record("d", *((s1, s0) if swap else (s0, s1)), size=size))
    rec = json.loads(text)
    if "true" not in text and "false" not in text:
        assert _outcome(rec, True) == _outcome(rec, False)
