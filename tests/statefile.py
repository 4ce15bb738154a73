"""State file payloads for tests that edit them.

save_state writes version 3, where every numeric array is an encoded
blob. Tests that edit single numbers rewrite the payload as version 2,
which holds the same arrays as JSON lists and which load_state still
reads through the same checks.
"""

import base64

import numpy as np

BLOB_KEYS = {"data", "dtype", "shape"}


def decode(blob: dict) -> np.ndarray:
    """The writable array a version 3 blob holds."""
    raw = bytearray(base64.b64decode(blob["data"]))
    return np.frombuffer(raw, dtype=blob["dtype"]).reshape(blob["shape"])


def encode(a, dtype: str) -> dict:
    """An array as a version 3 blob of the given dtype."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return {"dtype": dtype, "shape": list(a.shape), "data": base64.b64encode(a).decode("ascii")}


def _lists(node):
    if isinstance(node, dict) and node.keys() == BLOB_KEYS:
        return decode(node).tolist()
    if isinstance(node, dict):
        return {k: _lists(v) for k, v in node.items()}
    return node


def as_version_2(payload: dict) -> dict:
    """A version 3 payload as version 2: every blob under factors and q
    replaced by its nested JSON lists."""
    payload["version"] = 2
    payload["factors"] = _lists(payload["factors"])
    payload["q"] = _lists(payload["q"])
    return payload
