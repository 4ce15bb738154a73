"""State file payloads for tests that edit them.

save_state writes version 3, where every numeric array is an encoded
blob. Tests that edit single numbers rewrite the payload as version 2,
which holds the same arrays as JSON lists and which load_state still
reads through the same checks.
"""

import base64
import json

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


def write_one_snippet_state(payload: dict, path, **sizes) -> None:
    """Write a version 3 payload to path cut to its first snippet, with
    sizes setting K, N, vocab_size or tag_count: qa and qv become
    uniform rows of the new widths and seed_sets holds N lists. Trailing
    spaces pad the file to vocab_size and tag_count bytes, so each
    declared size fits the file on its own and only their products can
    be refused."""
    hp = payload["hyperparameters"]
    hp.update({key: sizes[key] for key in ("K", "N") if key in sizes})
    K, N = hp["K"], hp["N"]
    n_tokens = payload["token_counts"][0][0]
    payload.update(snippet_counts=[1], token_counts=[[n_tokens]])
    payload["seed_sets"] = (payload["seed_sets"] + [[]] * N)[:N]
    q = payload["q"]
    q["qa"] = encode(np.full((1, K), 1.0 / K), "<f8")
    q["qv"] = encode(np.full((1, N), 1.0 / N), "<f8") if N else None
    q["qw"] = encode(decode(q["qw"])[:n_tokens], "<f8")
    payload.update({key: sizes[key] for key in ("vocab_size", "tag_count") if key in sizes})
    text = json.dumps(payload)
    path.write_text(text + " " * (max(payload["vocab_size"], payload["tag_count"]) - len(text)))
