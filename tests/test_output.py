"""The streaming JSON writer and atomic file output."""

import base64
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from snipagg import output
from snipagg.output import atomic_open, write_json


def plain(obj):
    """obj with every array replaced by its nested lists and every
    memoryview by the base64 of its bytes."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
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
arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64]),
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
    elements={"allow_nan": True, "allow_infinity": True},
)
values = st.recursive(
    scalars | arrays,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(
    obj=values,
    chunk=st.sampled_from([1, 2, 3, 7, output.CHUNK]),
    b64_chunk=st.sampled_from([3, 6, output.B64_CHUNK]),
)
def test_writer_matches_one_shot_dumps(tmp_path_factory, obj, chunk, b64_chunk):
    # Small chunk sizes put the generated arrays and byte strings both
    # above and below the chunk, so every way of splitting one is exercised.
    path = tmp_path_factory.mktemp("w") / "out.json"
    saved = output.CHUNK, output.B64_CHUNK
    output.CHUNK, output.B64_CHUNK = chunk, b64_chunk
    try:
        assert written(obj, path) == reference(obj)
    finally:
        output.CHUNK, output.B64_CHUNK = saved


def test_writer_matches_one_shot_dumps_on_large_arrays(tmp_path):
    rng = np.random.default_rng(0)
    big = rng.standard_normal((3, output.CHUNK + 5)) * 10.0 ** rng.integers(-300, 300, (3, 1))
    big[0, :4] = [5e-324, -0.0, 1.7976931348623157e308, float("nan")]
    obj = {
        "rows": big,
        "flat": rng.random(2 * output.CHUNK + 1),
        "stack": [rng.random((2, 7, output.CHUNK // 3)), np.empty((0, 4))],
        "wide": np.zeros((1, output.CHUNK * 2, 1)),
        "at_chunk": rng.random(output.CHUNK),
        "empty_rows": np.empty((output.CHUNK + 3, 0)),
        "bytes": memoryview(rng.bytes(2 * output.B64_CHUNK + 1)),
        "no_bytes": memoryview(b""),
        "meta": {"n": 3, "none": None, "names": ["a", "ü"]},
    }
    assert written(obj, tmp_path / "big.json") == reference(obj)


def test_failed_write_keeps_earlier_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "state.json"
    write_json({"q": np.ones((4, 3))}, str(path))
    before = path.read_bytes()
    # The unencodable member comes after megabytes already written.
    bad = {"a": np.random.default_rng(1).random(5 * output.CHUNK), "b": [1, object()]}
    with pytest.raises(TypeError):
        write_json(bad, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["state.json"]


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
