"""The file boundary: the only module of the package that opens a file.

One reader maps a missing, unreadable or undecodable file to a
``ConfigError`` naming it; one writer replaces every file output
atomically, so a failed process leaves the target as it was and no temp
file (outputs are not fsynced, so a crash of the machine may not).

Corpus files hold one dialogue per line, all with one vocabulary and
distinct ids:

    {"id": str, "frame_ms": int, "vocab": int, "silence": [int],
     "channels": [[int, ...], [int, ...]]}

In memory a record is ``(id, s0, s1, vocab)``: the channels are the rows
of one int64 array (``tokens`` and ``metrics`` accept any int sequence),
and the ``Vocab`` the record's frame size and silence set. Lines spelled
as ``write_corpus`` spells them (sorted keys, no spaces, so ``channels``
first) have their channels parsed from the text into int64 a batch at a
time; any other spelling is read line by line by ``json.loads``, with the
same checks and the same errors.

Model files are a stream of ``.npy`` records (see ``ngram``), written and
read without pickle. The reader checks each record's header, and that its
data fits the bytes left in the file, before it reads the data.
"""

from __future__ import annotations

import csv
import json
import os
import re
import stat
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence, Sized

import numpy as np
import numpy.lib.format as npy

from .errors import ConfigError, DuplexError, LengthMismatch, ModelFormatError
from .tokens import Vocab

_REQUIRED_KEYS = {"id", "frame_ms", "vocab", "silence", "channels"}
_BATCH = 2**18  # characters of corpus lines per np.fromstring call
_CANONICAL = re.compile(r'\{"channels":\[\[([0-9,]*)\],\[([0-9,]*)\]\],')


@contextmanager
def _reading(path: str | Path, binary: bool = False) -> Iterator[IO]:
    try:
        with open(path, "rb") if binary else open(path, "r", encoding="utf-8") as fh:
            yield fh
    # ValueError: bad UTF-8 or JSON; RecursionError: JSON nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


@contextmanager
def _writing(path: str | Path, newline: str | None = None,
             binary: bool = False) -> Iterator[IO]:
    """A new or regular file (or the one a symlink names) is written to a
    temp file beside it, with its old mode or ``open()``'s, then moved over
    it by ``os.replace``; a device or FIFO is written through as by ``open()``."""
    mode, text = ("wb", {}) if binary else ("w", {"encoding": "utf-8", "newline": newline})
    try:
        st = os.stat(path) if os.path.exists(path) else None
        if st is not None and not stat.S_ISREG(st.st_mode):
            with open(path, mode, **text) as fh:
                yield fh
            return
        target = Path(os.path.realpath(path))
        tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
        # os.open applies the umask to 0o666 exactly as open() does
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, mode, **text) as fh:
                if st is not None:
                    os.fchmod(fd, stat.S_IMODE(st.st_mode))
                yield fh
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def file_identity(path: str | Path) -> object:
    """Equal for two paths of one regular file, as ``os.path.samefile``
    finds them (symlinks and hard links count), or of one path not yet
    made; None for a device, FIFO or directory."""
    try:
        st = os.stat(path)
    except OSError:  # not there (yet)
        return os.path.realpath(path)
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _not_a_number(token: str):
    raise ValueError(f"{token} is not a JSON number")


def read_json(path: str | Path):
    """Standard JSON only: ``NaN``, ``Infinity`` and ``-Infinity`` are errors."""
    with _reading(path) as fh:
        return json.load(fh, parse_constant=_not_a_number)


def write_json(path: str | Path, payload, indent: int | None = None) -> None:
    """Canonical JSON: sorted keys, compact unless ``indent`` is given, and
    a final newline; a NaN or infinity raises ``ValueError``. The text is
    built by one ``json.dumps`` call, which uses the C encoder when compact
    (``json.dump`` to a file never does), before the file is opened. A
    payload is a tree that its caller builds, with no cycle, so the encoder
    keeps no map of the containers it has entered."""
    text = json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False,
                      check_circular=False, separators=None if indent else (",", ":"))
    with _writing(path) as fh:
        fh.write(text)
        fh.write("\n")


def write_csv(path: str | Path, columns: list[str], rows: Iterable[dict]) -> None:
    with _writing(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def write_arrays(path: str | Path, arrays: Iterable[np.ndarray]) -> None:
    """A model file: each array as one ``.npy`` record, one after another."""
    with _writing(path, binary=True) as fh:
        for array in arrays:
            np.save(fh, array, allow_pickle=False)


def read_arrays(path: str | Path, kinds: Sequence[str]) -> list[np.ndarray]:
    """The records of a file that ``write_arrays`` wrote: one 1-D array per
    entry of ``kinds``, of a dtype kind (``"i"``, ``"u"``, ``"f"``) that the
    entry lists, and nothing after them; else ``ModelFormatError``."""
    arrays: list[np.ndarray] = []
    with _reading(path, binary=True) as fh:
        if fh.peek(6)[:6] != npy.MAGIC_PREFIX:
            raise ModelFormatError(f"model file {path} is not a stream of .npy records (an "
                                   f"older format?); retrain the model with 'duplexsim train'")
        size = os.fstat(fh.fileno()).st_size
        for i, allowed in enumerate(kinds):
            where = f"model file {path}, record {i}"
            if fh.tell() == size:
                raise ModelFormatError(f"{where} is missing")
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # numpy warns of a header only Python 2 wrote
                    if npy.read_magic(fh) != (1, 0):
                        raise ValueError("not a .npy record of version 1.0")
                    shape, _, dtype = npy.read_array_header_1_0(fh)
            # numpy parses the header with ast.literal_eval and np.dtype, which
            # raise ValueError, SyntaxError, TypeError and more on a malformed one
            except Exception as exc:
                raise ModelFormatError(f"{where}: {exc}") from None
            if len(shape) != 1 or shape[0] < 0 or dtype.kind not in allowed:
                raise ModelFormatError(f"{where} has dtype {dtype} and shape {shape}, "
                                       f"not a 1-D array of kind {allowed}")
            if shape[0] * dtype.itemsize > size - fh.tell():
                raise ModelFormatError(f"{where} declares {shape[0]} values, more than "
                                       f"the file holds")
            try:
                arrays.append(np.frombuffer(fh.read(shape[0] * dtype.itemsize), dtype, shape[0]))
            except (ValueError, MemoryError) as exc:  # the file shrank, or memory ran out
                raise ModelFormatError(f"{where}: {exc}") from None
        if fh.read(1):
            raise ModelFormatError(f"model file {path} has bytes after its last record")
    return arrays


def is_int(x) -> bool:
    """A JSON integer: ``true`` and ``1.0`` are not."""
    return type(x) is int


def is_int_list(x) -> bool:
    """A JSON list of JSON integers."""
    return type(x) is list and set(map(type, x)) <= {int}


def is_number(x) -> bool:
    """A finite JSON number; the comparison is false for NaN and infinity,
    and exact for an integer too large for a float."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def dialogue_to_record(
    did: str, s0: Sequence[int], s1: Sequence[int], vocab: Vocab
) -> dict:
    if len(s0) != len(s1):
        raise LengthMismatch(f"dialogue {did}: channel lengths differ")
    return {
        "id": did,
        "frame_ms": vocab.frame_ms,
        "vocab": vocab.size,
        "silence": sorted(vocab.silence_tokens),
        "channels": [list(s0), list(s1)],
    }


def record_to_dialogue(rec: dict) -> tuple[str, np.ndarray, np.ndarray, Vocab]:
    """One corpus record, checked: integer fields are JSON integers, both
    channels hold the same number of ids in ``[0, vocab)``, returned as the
    rows of one int64 array."""
    if type(rec) is not dict or not _REQUIRED_KEYS <= rec.keys():
        raise ConfigError(f"a corpus record is an object with keys {sorted(_REQUIRED_KEYS)}")
    did, size, frame_ms, ch = rec["id"], rec["vocab"], rec["frame_ms"], rec["channels"]
    if not (type(did) is str and is_int(size) and is_int(frame_ms)
            and is_int_list(rec["silence"]) and type(ch) is list and len(ch) == 2
            and is_int_list(ch[0]) and is_int_list(ch[1]) and len(ch[0]) == len(ch[1])):
        raise ConfigError(
            f"dialogue {did!r}: needs a string id, integer vocab and frame_ms, an "
            f"integer list for silence and two equal-length ones for channels"
        )
    vocab = Vocab(size=size, frame_ms=frame_ms, silence_tokens=frozenset(rec["silence"]))
    for ids in map(set, ch):  # the distinct ids; is_int_list has checked their types
        if ids and not (min(ids) >= 0 and max(ids) < size):
            raise ConfigError(f"dialogue {did}: a token lies outside [0, {size})")
    try:
        frames = np.array(ch, np.int64)
    except OverflowError:  # in range of a vocabulary past int64
        raise ConfigError(f"dialogue {did}: a token lies past int64") from None
    return did, frames[0], frames[1], vocab


def write_corpus(path: str | Path, records: Iterable[dict]) -> None:
    with _writing(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_corpus(path: str | Path) -> list[tuple[str, np.ndarray, np.ndarray, Vocab]]:
    """Every dialogue of a corpus as ``(id, s0, s1, vocab)``, each channel an
    int64 array; raises ``ConfigError`` naming the file and line unless
    every record passes ``record_to_dialogue``, declares the first record's
    vocabulary and has an id no earlier record has. The file is read once,
    in batches of lines: a batch that ``write_corpus`` spelled has its
    channels parsed by one ``np.fromstring`` call (see ``_canonical``), and
    any other is read line by line by ``json.loads``, so every error, and
    the line it names, is that of a line-by-line read."""
    out, ids, n = [], set(), 0
    with _reading(path) as fh:
        for batch in batches(fh, _BATCH):
            lines = [(i, line) for i, line in enumerate(batch, n + 1) if line.strip()]
            n += len(batch)
            entries = _canonical([line for _, line in lines]) or [None] * len(lines)
            for (i, line), entry in zip(lines, entries):
                try:
                    entry = entry or record_to_dialogue(json.loads(line))
                except (DuplexError, ValueError, RecursionError) as exc:
                    raise ConfigError(f"corpus {path} line {i}: {exc}") from None
                did, vocab = entry[0], entry[3]
                if out and vocab != out[0][3]:
                    raise ConfigError(f"corpus {path}: dialogue {did} has {vocab}, "
                                      f"the first dialogue {out[0][3]}")
                if did in ids:
                    raise ConfigError(f"corpus {path}: dialogue id {did!r} is repeated")
                ids.add(did)
                out.append(entry)
    return out


def batches(items: Iterable[Sized], size: int) -> Iterator[list]:
    """``items`` in runs of whole items whose lengths sum to about ``size``,
    none of them empty. The items read before a ``ValueError``, such as a
    line that does not decode, come out before it is raised, as they would
    be read one at a time."""
    batch, n = [], 0
    try:
        for item in items:
            batch.append(item)
            n += len(item)
            if n >= size:
                yield batch
                batch, n = [], 0
    except ValueError:
        if batch:
            yield batch
        raise
    if batch:
        yield batch


def _canonical(lines: list[str]) -> list[tuple] | None:
    """The entries of lines that each begin ``{"channels":[[`` with two
    channels of as many fields of digits, their rows views of one array
    that ``np.fromstring`` parses; None unless the ids are JSON integers in
    ``[0, vocab)`` and every record's other keys pass ``record_to_dialogue``."""
    texts, shapes, first = [], [], None
    for line in lines:
        m = _CANONICAL.match(line)
        if m is None or (width := m[1].count(",") + bool(m[1])) != m[2].count(",") + bool(m[2]):
            return None
        try:
            rec = json.loads("{" + line[m.end():])
            if "channels" in rec:  # a second key, which json.loads reads instead
                return None
            did, fields = rec.get("id"), tuple(map(rec.get, ("frame_ms", "vocab", "silence")))
            # a record whose fields equal the first's in type and value has its Vocab
            if (first and type(did) is str and is_int(fields[0]) and is_int(fields[1])
                    and is_int_list(fields[2]) and fields == first[0]):
                vocab = first[1]
            else:
                rec["channels"] = [[], []]
                did, _, _, vocab = record_to_dialogue(rec)
                first = first or (fields, vocab)
        except (DuplexError, ValueError, RecursionError):
            return None
        texts += (m[1], m[2]) if width else ()
        shapes.append((did, width, vocab))
    text = ",".join(texts)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = np.fromstring(text, np.int64, sep=",")
    except (ValueError, Warning):  # an empty field
        return None
    sizes = [vocab.size for _, _, vocab in shapes]
    top = int(flat.max(initial=-1))
    # an id past int64 reads as its largest value, which no vocabulary here passes
    if len(flat) != 2 * sum(w for _, w, _ in shapes) or not (
            max(sizes, default=0) < 2**63 and top < min(sizes, default=0)):
        return None
    # each id is spelled with as many digits as its value has: no leading zero
    digits, k = len(flat), 10
    while k <= top:
        digits += np.count_nonzero(flat >= k)
        k *= 10
    if digits != len(text) - text.count(","):
        return None
    out, at = [], 0
    for did, width, vocab in shapes:
        out.append((did, *flat[at:at + 2 * width].reshape(2, width), vocab))
        at += 2 * width
    return out
