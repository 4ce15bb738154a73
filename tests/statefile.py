"""State file payloads for tests that edit them.

save_state writes version 3, where every numeric array is an encoded
blob, and load_state reads no other version. Tests edit a payload in
place: _set changes one field of a blob, and _recode decodes a blob,
changes the array and encodes it again.
"""

import base64
import json

import numpy as np


def decode(blob: dict) -> np.ndarray:
    """The writable array a version 3 blob holds."""
    raw = bytearray(base64.b64decode(blob["data"]))
    return np.frombuffer(raw, dtype=blob["dtype"]).reshape(blob["shape"])


def encode(a, dtype: str) -> dict:
    """An array as a version 3 blob of the given dtype."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return {"dtype": dtype, "shape": list(a.shape), "data": base64.b64encode(a).decode("ascii")}


def _node(payload, keys):
    for key in keys:
        payload = payload[key]
    return payload


def _set(keys, field, value):
    """An edit that sets one field of the blob at keys."""
    return lambda p: _node(p, keys).__setitem__(field, value)


def _recode(keys, fn, dtype=None):
    """An edit that decodes the blob at keys, applies fn to the array and
    encodes the result as dtype (the blob's own by default)."""
    def edit(p):
        parent = _node(p, keys[:-1])
        blob = parent[keys[-1]]
        parent[keys[-1]] = encode(fn(decode(blob)), dtype or blob["dtype"])
    return edit


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
