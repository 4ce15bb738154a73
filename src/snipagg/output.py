"""Atomic file output and a streaming compact JSON writer.

Every file the package writes goes through atomic_open: the content is
written to a temporary file in the target directory and moved over the
target with os.replace only once it is complete, so a failed or
interrupted write leaves any earlier file intact and no partial file
behind.

write_json emits exactly json.dumps(obj, sort_keys=True,
separators=(",", ":")) plus a newline, with a memoryview of bytes, or an
iterator of memoryviews, standing for the JSON string of the base64 of
their bytes (joined), but builds the text piece by piece: each piece
comes from the C encoder or the base64 encoder, bytes are encoded
B64_CHUNK at a time, and the pieces go straight to the file, so the
whole base64 text of a large array (state.json, true_params.json) never
exists at once, nor, given an iterator, its bytes. Any other value the
encoder cannot write, a numpy array among them, raises TypeError.
"""

from __future__ import annotations

import base64
import json
import os
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterable, Iterator, TextIO

# Bytes per base64 piece of a memoryview: a multiple of 3, so no piece
# but the last is padded and the pieces join to the whole one's base64.
B64_CHUNK = 3 << 16

_dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))


@contextmanager
def atomic_open(path: str) -> Iterator[TextIO]:
    """A UTF-8 text file that replaces path only when the block succeeds."""
    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the target, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_json(obj, path: str) -> None:
    """Write obj as compact sort_keys JSON and a newline, atomically."""
    with atomic_open(path) as fh:
        _emit(obj, fh.write)
        fh.write("\n")


def _streamed(obj) -> bool:
    """Whether a dict or list is written member by member: only when a
    member is itself a memoryview or a container, so flat lists of
    scalars go to the encoder in one call."""
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            return False
        obj = obj.values()
    return any(isinstance(v, (memoryview, Iterator, dict, list, tuple)) for v in obj)


def _emit_base64(pieces: Iterable[memoryview], write: Callable[[str], object]) -> None:
    """The JSON string of the base64 of the pieces' bytes, joined. Each
    piece is encoded B64_CHUNK bytes at a time; the 1 or 2 bytes at the
    end of a piece that fill no 3-byte group go on to the next one."""
    write('"')
    carry = b""
    for piece in pieces:
        if carry:
            piece = memoryview(carry + piece)
        end = piece.nbytes - piece.nbytes % 3
        for start in range(0, end, B64_CHUNK):
            write(base64.b64encode(piece[start:min(start + B64_CHUNK, end)]).decode("ascii"))
        carry = bytes(piece[end:])
    write(base64.b64encode(carry).decode("ascii") + '"')


def _emit(obj, write: Callable[[str], object]) -> None:
    if isinstance(obj, (memoryview, Iterator)):
        _emit_base64([obj] if isinstance(obj, memoryview) else obj, write)
    elif isinstance(obj, dict) and _streamed(obj):
        write("{")
        for n, key in enumerate(sorted(obj)):
            write(("," if n else "") + _dumps(key) + ":")
            _emit(obj[key], write)
        write("}")
    elif isinstance(obj, (list, tuple)) and _streamed(obj):
        write("[")
        for n, item in enumerate(obj):
            if n:
                write(",")
            _emit(item, write)
        write("]")
    else:
        write(_dumps(obj))

