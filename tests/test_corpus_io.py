import ast
import json
import os
import stat
import threading
from pathlib import Path

import pytest

import duplexsim
from duplexsim import DialogueStyle, NgramModel, corpus_io
from duplexsim.errors import ConfigError

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
    assert corpus_io.read_corpus(path) == [("a", s0, s1, vocab)]
