"""The file boundary: the only module of the package that opens a file.

One reader maps a missing, unreadable or undecodable file to a
``ConfigError`` naming it; one writer replaces every file output
atomically, so a failed process leaves the target as it was and no temp
file (outputs are not fsynced, so a crash of the machine may not).

Corpus files hold one dialogue per line, all with one vocabulary and
distinct ids:

    {"id": str, "frame_ms": int, "vocab": int, "silence": [int],
     "channels": [[int, ...], [int, ...]]}

Flattened dumps hold one wire sequence per line, as space-separated ints.
"""

from __future__ import annotations

import csv
import json
import os
import stat
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import ConfigError, DuplexError, LengthMismatch
from .tokens import TokenStream, Vocab

_REQUIRED_KEYS = {"id", "frame_ms", "vocab", "silence", "channels"}


@contextmanager
def _reading(path: str | Path) -> Iterator[TextIO]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    # ValueError: bad UTF-8 or JSON; RecursionError: JSON nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


@contextmanager
def _writing(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """A new or regular file (or the one a symlink names) is written to a
    temp file beside it, with its old mode or ``open()``'s, then moved over
    it by ``os.replace``; a device or FIFO is written through as by ``open()``."""
    try:
        st = os.stat(path) if os.path.exists(path) else None
        if st is not None and not stat.S_ISREG(st.st_mode):
            with open(path, "w", encoding="utf-8", newline=newline) as fh:
                yield fh
            return
        target = Path(os.path.realpath(path))
        tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
        # os.open applies the umask to 0o666 exactly as open() does
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline=newline) as fh:
                if st is not None:
                    os.fchmod(fd, stat.S_IMODE(st.st_mode))
                yield fh
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def read_json(path: str | Path):
    with _reading(path) as fh:
        return json.load(fh)


def write_json(path: str | Path, payload, indent: int | None = None) -> None:
    """Canonical JSON: sorted keys, compact unless ``indent`` is given."""
    with _writing(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=indent,
                  separators=None if indent else (",", ":"))
        fh.write("\n")


def write_csv(path: str | Path, columns: list[str], rows: Iterable[dict]) -> None:
    with _writing(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def is_int(x) -> bool:
    """A JSON integer: ``true`` and ``1.0`` are not."""
    return type(x) is int


def is_number(x) -> bool:
    """A finite JSON number; the comparison is false for NaN and infinity,
    and exact for an integer too large for a float."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def dialogue_to_record(
    did: str, s0: TokenStream, s1: TokenStream, vocab: Vocab
) -> dict:
    if len(s0) != len(s1):
        raise LengthMismatch(f"dialogue {did}: channel lengths differ")
    return {
        "id": did,
        "frame_ms": vocab.frame_ms,
        "vocab": vocab.size,
        "silence": sorted(vocab.silence_tokens),
        "channels": [list(s0.tokens), list(s1.tokens)],
    }


def _int_list(x) -> bool:
    return type(x) is list and set(map(type, x)) <= {int}


def record_to_dialogue(rec: dict) -> tuple[str, TokenStream, TokenStream, Vocab]:
    """One corpus record, checked: integer fields are JSON integers, both
    channels hold the same number of ids in ``[0, vocab)``."""
    if type(rec) is not dict or not _REQUIRED_KEYS <= rec.keys():
        raise ConfigError(f"a corpus record is an object with keys {sorted(_REQUIRED_KEYS)}")
    did, size, frame_ms, ch = rec["id"], rec["vocab"], rec["frame_ms"], rec["channels"]
    if not (type(did) is str and is_int(size) and is_int(frame_ms)
            and _int_list(rec["silence"]) and type(ch) is list and len(ch) == 2
            and _int_list(ch[0]) and _int_list(ch[1]) and len(ch[0]) == len(ch[1])):
        raise ConfigError(
            f"dialogue {did!r}: needs a string id, integer vocab and frame_ms, an "
            f"integer list for silence and two equal-length ones for channels"
        )
    vocab = Vocab(size=size, frame_ms=frame_ms, silence_tokens=frozenset(rec["silence"]))
    for tokens in ch:
        if tokens and not (min(tokens) >= 0 and max(tokens) < size):
            raise ConfigError(f"dialogue {did}: a token lies outside [0, {size})")
    s0 = TokenStream(speaker=0, tokens=tuple(ch[0]), frame_ms=frame_ms)
    s1 = TokenStream(speaker=1, tokens=tuple(ch[1]), frame_ms=frame_ms)
    return did, s0, s1, vocab


def write_corpus(path: str | Path, records: Iterable[dict]) -> None:
    with _writing(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_corpus(path: str | Path) -> list[tuple[str, TokenStream, TokenStream, Vocab]]:
    """Every dialogue of a corpus as ``(id, s0, s1, vocab)``; raises
    ``ConfigError`` naming the file and line unless every record passes
    ``record_to_dialogue``, declares the first record's vocabulary and has
    an id no earlier record has."""
    out = []
    ids = set()
    with _reading(path) as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                entry = record_to_dialogue(json.loads(line))
            except (DuplexError, ValueError, RecursionError) as exc:
                raise ConfigError(f"corpus {path} line {n}: {exc}") from None
            did, vocab = entry[0], entry[3]
            if out and vocab != out[0][3]:
                raise ConfigError(f"corpus {path}: dialogue {did} has {vocab}, "
                                  f"the first dialogue {out[0][3]}")
            if did in ids:
                raise ConfigError(f"corpus {path}: dialogue id {did!r} is repeated")
            ids.add(did)
            out.append(entry)
    return out


def write_flat(path: str | Path, sequences: Iterable[Iterable[int]]) -> None:
    with _writing(path) as fh:
        for seq in sequences:
            fh.write(" ".join(str(t) for t in seq))
            fh.write("\n")


def read_flat(path: str | Path) -> list[list[int]]:
    out = []
    with _reading(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append([int(t) for t in line.split()])
    return out
