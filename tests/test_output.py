"""The streaming JSON writer and atomic file output."""

import base64
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snipagg import output
from snipagg.output import atomic_open, write_json


def plain(obj):
    """obj with every memoryview replaced by the base64 of its bytes."""
    if isinstance(obj, memoryview):
        return base64.b64encode(obj).decode("ascii")
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def reference(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True, separators=(",", ":")) + "\n"


def written(obj, path) -> str:
    write_json(obj, str(path))
    return path.read_text(encoding="utf-8")


scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
           | st.binary(max_size=20).map(memoryview))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(obj=values, b64_chunk=st.sampled_from([3, 6, output.B64_CHUNK]))
def test_writer_matches_one_shot_dumps(tmp_path_factory, obj, b64_chunk):
    # Small chunk sizes put the generated byte strings both above and
    # below the chunk, so every way of splitting one is exercised.
    path = tmp_path_factory.mktemp("w") / "out.json"
    saved = output.B64_CHUNK
    output.B64_CHUNK = b64_chunk
    try:
        assert written(obj, path) == reference(obj)
    finally:
        output.B64_CHUNK = saved


def test_writer_matches_one_shot_dumps_on_large_bytes(tmp_path):
    rng = np.random.default_rng(0)
    obj = {
        "bytes": memoryview(rng.bytes(2 * output.B64_CHUNK + 1)),
        "at_chunk": [memoryview(rng.bytes(output.B64_CHUNK)), {"x": memoryview(b"\0")}],
        "no_bytes": memoryview(b""),
        "meta": {"n": 3, "none": None, "names": ["a", "ü"]},
    }
    assert written(obj, tmp_path / "big.json") == reference(obj)


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(st.binary(max_size=20), max_size=6),
       b64_chunk=st.sampled_from([3, 6, output.B64_CHUNK]))
def test_writer_joins_an_iterator_of_byte_pieces(tmp_path_factory, pieces, b64_chunk):
    # Pieces of any length, the empty one included, write the base64 of
    # their bytes joined, whatever 3-byte groups they split.
    path = tmp_path_factory.mktemp("w") / "out.json"
    saved = output.B64_CHUNK
    output.B64_CHUNK = b64_chunk
    try:
        got = written({"a": iter(map(memoryview, pieces)), "b": [1]}, path)
    finally:
        output.B64_CHUNK = saved
    assert got == reference({"a": memoryview(b"".join(pieces)), "b": [1]})


def test_failed_write_keeps_earlier_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "state.json"
    write_json({"q": memoryview(b"\1" * 96)}, str(path))
    before = path.read_bytes()
    # The unencodable member comes after about 800 kB already written.
    bad = {"a": memoryview(np.random.default_rng(1).bytes(3 * output.B64_CHUNK)),
           "b": [1, object()]}
    with pytest.raises(TypeError):
        write_json(bad, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["state.json"]


def test_array_is_not_encodable(tmp_path):
    # Arrays are written as memoryview blobs; a bare array is an error.
    with pytest.raises(TypeError):
        write_json({"q": [np.ones(3)]}, str(tmp_path / "out.json"))
    assert os.listdir(tmp_path) == []


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_open(str(path)) as fh:
        fh.write("first\n")
        assert not path.exists()  # nothing visible until the block ends
    with pytest.raises(RuntimeError):
        with atomic_open(str(path)) as fh:
            fh.write("second\n")
            raise RuntimeError("interrupted")
    assert path.read_text() == "first\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_open_error_names_the_target(tmp_path):
    path = str(tmp_path / "missing" / "out.json")
    with pytest.raises(FileNotFoundError) as info:
        with atomic_open(path):
            pass
    assert info.value.filename == path
