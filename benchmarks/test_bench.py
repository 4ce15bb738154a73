"""Tests of the benchmark itself, at smoke (toy) shape.

    python3 -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
from tracing import SpanIndex, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_emits_every_metric(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke"])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name in names:
        assert f"  {name} = " in out


def test_corrupted_state_counts_as_failed_stages(capsys):
    def corrupt(state_path):
        with open(state_path, "r+b") as fh:
            fh.truncate(os.path.getsize(state_path) // 2)

    code = run.main(["--workload", "cli-pipeline-ref", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--smoke"], after_fit=corrupt)
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 0
    assert not result["correct"]
    # eval (twice) and report exit 3 on the bad state, and the fit manifest's
    # sha256 no longer matches; generate and baseline still pass.
    assert (result["failed"], result["attempted"]) == (4, 6)
    assert "error_rate = 0.666667 ratio" in out


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "fit-batch-ref",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = Tracer("t")
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    index = SpanIndex(tracer.records())
    outer = index.named("outer")[0]
    inner = index.named("inner")[0]
    assert index.has_ancestor(inner, "outer")
    assert index.self_time(outer) == pytest.approx(
        (outer[6] - outer[5]) - (inner[6] - inner[5]))
    assert 0.015 < index.self_time(outer) < 0.03


def _write_result(directory, machine_python):
    res = {
        "end_to_end": {"fit_s": 1.0},
        "fingerprint": {
            "machine": {"nproc": 2, "python": machine_python},
            "workload": {"spec": {"name": "fit-batch-ref"}, "corpus_seed": 1,
                         "fit_rng_seed": 0, "gen_priors": {}, "run_seconds": 20},
        },
    }
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "fit-batch-ref-seed1-trace0.json"), "w") as fh:
        json.dump(res, fh)


def test_compare_refuses_unlike_fingerprints(tmp_path, capsys):
    _write_result(tmp_path / "a", "3.11.7")
    _write_result(tmp_path / "b", "3.12.0")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert "refused, fingerprints differ" in capsys.readouterr().out
