"""End-to-end command line workflows against temporary directories."""

import functools
import json
import os

import numpy as np
import pytest

from snipagg import cli, inference
from snipagg.cli import RunManifest, main


def run(capsys, *argv):
    code = main(["-q", *argv])
    out = capsys.readouterr().out
    return code, out


def generate_args(out, seed=1):
    return [
        "generate", "--out", out,
        "--entities", "4", "--snippets", "6",
        "--vocab-size", "80", "--mean-words", "5",
        "--seed-words-per-value", "2",
        "--separation", "1.0", "--seed", str(seed),
        "--set", "K=2", "--set", "N=2", "--set", "rng_seed=0",
    ]


def fit_args(data, out):
    return [
        "fit", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--seeds", os.path.join(data, "seeds.txt"),
        "--out", out,
        "--set", "K=2", "--set", "N=2",
        "--set", "max_iters=8", "--set", "rng_seed=0",
    ]


@pytest.fixture
def workspace(tmp_path, capsys):
    data = str(tmp_path / "data")
    fit = str(tmp_path / "fit")
    assert run(capsys, *generate_args(data))[0] == 0
    assert run(capsys, *fit_args(data, fit))[0] == 0
    return data, fit


def test_generate_writes_expected_files(tmp_path, capsys):
    out = str(tmp_path / "gen")
    code, _ = run(capsys, *generate_args(out))
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == [
        "corpus.jsonl", "gold_clusters.tsv", "gold_polarity.tsv",
        "gold_word_labels.jsonl", "manifest.json", "seeds.txt",
        "true_params.json",
    ]
    manifest = json.loads((tmp_path / "gen" / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    for entry in manifest["outputs"].values():
        assert len(entry["sha256"]) == 64
        assert os.path.basename(entry["path"]) in names


def test_generate_is_reproducible(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert run(capsys, *generate_args(a))[0] == 0
    assert run(capsys, *generate_args(b))[0] == 0
    for name in ("corpus.jsonl", "gold_clusters.tsv", "true_params.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fit_outputs_and_reproducibility(workspace, tmp_path, capsys):
    data, fit = workspace
    assert sorted(os.listdir(fit)) == ["free_energy.tsv", "manifest.json", "state.json"]
    lines = (tmp_path / "fit" / "free_energy.tsv").read_text().splitlines()
    values = [float(line.split("\t")[1]) for line in lines]
    assert all(b <= a + 1e-6 * abs(a) for a, b in zip(values, values[1:]))
    fit2 = str(tmp_path / "fit2")
    assert run(capsys, *fit_args(data, fit2))[0] == 0
    assert (tmp_path / "fit" / "state.json").read_bytes() == \
        (tmp_path / "fit2" / "state.json").read_bytes()


def test_eval_muc_round_trip(workspace, capsys):
    data, fit = workspace
    code, out = run(
        capsys, "eval", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--metric", "muc", "--state", os.path.join(fit, "state.json"),
        "--gold-clusters", os.path.join(data, "gold_clusters.tsv"),
    )
    assert code == 0
    results = json.loads(out)
    assert results["metric"] == "muc"
    assert 0.0 <= results["f1"] <= 1.0
    assert set(results) >= {"precision", "recall", "f1"}


def test_eval_sentiment_and_word_prf(workspace, tmp_path, capsys):
    data, fit = workspace
    report_path = str(tmp_path / "sentiment.json")
    code, out = run(
        capsys, "eval", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--metric", "sentiment", "--state", os.path.join(fit, "state.json"),
        "--gold-polarity", os.path.join(data, "gold_polarity.tsv"),
        "--out", report_path,
    )
    assert code == 0
    assert json.loads(out) == json.loads((tmp_path / "sentiment.json").read_text())
    code, out = run(
        capsys, "eval", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--metric", "word-prf", "--state", os.path.join(fit, "state.json"),
        "--gold-word-labels", os.path.join(data, "gold_word_labels.jsonl"),
    )
    assert code == 0
    results = json.loads(out)
    assert {"aspect", "value"} <= set(results)
    assert {"precision", "recall", "f1"} <= set(results["aspect"])


def test_baseline_cluster_all_feeds_eval(workspace, tmp_path, capsys):
    data, _ = workspace
    base = str(tmp_path / "base")
    code, _ = run(
        capsys, "baseline", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--variant", "cluster-all", "--clusters", "2", "--out", base,
    )
    assert code == 0
    assert os.path.exists(os.path.join(base, "clusters.tsv"))
    code, out = run(
        capsys, "eval", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--metric", "muc",
        "--pred-clusters", os.path.join(base, "clusters.tsv"),
        "--gold-clusters", os.path.join(data, "gold_clusters.tsv"),
    )
    assert code == 0
    assert 0.0 <= json.loads(out)["f1"] <= 1.0


def test_baseline_seed_variant(workspace, tmp_path, capsys):
    data, _ = workspace
    base = str(tmp_path / "seedbase")
    code, _ = run(
        capsys, "baseline", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--variant", "seed", "--seeds", os.path.join(data, "seeds.txt"),
        "--out", base,
    )
    assert code == 0
    polarity = (tmp_path / "seedbase" / "polarity.tsv").read_text()
    assert polarity.count("\n") == 24   # one line per snippet


def test_report_summarizes_state(workspace, tmp_path, capsys):
    data, fit = workspace
    report_path = str(tmp_path / "report.txt")
    code, out = run(
        capsys, "report", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--state", os.path.join(fit, "state.json"),
        "--top-k", "3", "--out", report_path,
    )
    assert code == 0
    assert out == (tmp_path / "report.txt").read_text()
    assert "e000" in out


@pytest.mark.parametrize("top_k", ["0", "-2"])
def test_report_rejects_top_k_below_one(workspace, capsys, top_k):
    data, fit = workspace
    code = main(["-q", "report", "--corpus", os.path.join(data, "corpus.jsonl"),
                 "--state", os.path.join(fit, "state.json"), "--top-k", top_k])
    captured = capsys.readouterr()
    assert code == 2
    assert "--top-k" in captured.err and captured.out == ""


def test_usage_errors_exit_2(workspace, capsys):
    data, fit = workspace
    code, _ = run(
        capsys, "eval", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--metric", "muc", "--state", os.path.join(fit, "state.json"),
    )
    assert code == 2
    code, _ = run(
        capsys, "baseline", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--variant", "seed", "--out", data,
    )
    assert code == 2
    code, _ = run(
        capsys, "fit", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--out", data, "--set", "K",
    )
    assert code == 2
    code, _ = run(
        capsys, "fit", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--out", data, "--set", "bogus_key=1",
    )
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["--set", "K=0"], ["--set", "schedule=fast"], ["--threads", "0"],
])
def test_fit_flag_errors_exit_2(workspace, tmp_path, capsys, flags):
    data, _ = workspace
    code = main(["-q", "fit", "--corpus", os.path.join(data, "corpus.jsonl"),
                 "--out", str(tmp_path / "out"), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert flags[0] in captured.err and "Traceback" not in captured.err


def test_generate_rejects_non_numeric_topic_mix(tmp_path, capsys):
    code = main(["-q", *generate_args(str(tmp_path / "gen")), "--topic-mix", "a,b"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--topic-mix" in captured.err
    assert not (tmp_path / "gen").exists()


def test_eval_reads_polarity_predictions(workspace, tmp_path, capsys):
    data, _ = workspace
    gold = os.path.join(data, "gold_polarity.tsv")
    with open(gold, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    pred = tmp_path / "pred.tsv"
    pred.write_text("# predictions copied from gold\n" + "\n".join(lines) + "\n")
    argv = ["eval", "--corpus", os.path.join(data, "corpus.jsonl"), "--metric", "sentiment",
            "--gold-polarity", gold, "--pred-polarity", str(pred)]
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["accuracy"] == 1.0
    # A line naming the wrong entity for its snippet is a data error.
    entity, sid, label = lines[0].split("\t")
    other = next(l.split("\t")[0] for l in lines if l.split("\t")[0] != entity)
    pred.write_text(f"{other}\t{sid}\t{label}\n")
    code = main(["-q", *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert f"belongs to {entity!r}" in captured.err


def test_argparse_rejects_unknown_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_data_errors_exit_3(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    code, _ = run(capsys, "fit", "--corpus", missing, "--out", str(tmp_path / "o"))
    assert code == 3
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "s1", "entity": "e0"}\n')
    code, _ = run(capsys, "fit", "--corpus", str(bad), "--out", str(tmp_path / "o2"))
    assert code == 3


def test_fit_manifest_records_inputs(workspace):
    data, fit = workspace
    with open(os.path.join(fit, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "fit"
    assert "corpus" in manifest["inputs"]
    assert len(manifest["inputs"]["corpus"]["sha256"]) == 64
    assert manifest["config"]["K"] == 2
    assert "state" in manifest["outputs"]


def _report(capsys, data, state_path):
    code = main(["-q", "report", "--corpus", os.path.join(data, "corpus.jsonl"),
                 "--state", state_path])
    return code, capsys.readouterr().err


def _edited_state(fit, tmp_path, edit):
    with open(os.path.join(fit, "state.json")) as fh:
        payload = json.load(fh)
    edit(payload)
    path = tmp_path / "edited_state.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_report_rejects_truncated_posterior_row(workspace, tmp_path, capsys):
    data, fit = workspace
    path = _edited_state(fit, tmp_path, lambda p: p["q"]["qa"][1][2].pop())
    code, err = _report(capsys, data, path)
    assert code == 3
    assert path in err and "qa[1]" in err


def test_report_rejects_missing_factor(workspace, tmp_path, capsys):
    data, fit = workspace
    path = _edited_state(fit, tmp_path, lambda p: p["factors"].pop("theta_B"))
    code, err = _report(capsys, data, path)
    assert code == 3
    assert path in err and "theta_B" in err


def test_report_rejects_non_finite_posterior(workspace, tmp_path, capsys):
    data, fit = workspace

    def poison(payload):
        payload["q"]["qa"][0][0][0] = float("nan")

    path = _edited_state(fit, tmp_path, poison)
    code, err = _report(capsys, data, path)
    assert code == 3
    assert path in err and "not finite" in err


def test_fit_manifest_counts_free_energy_rises(workspace):
    _, fit = workspace
    with open(os.path.join(fit, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(fit, "free_energy.tsv")) as fh:
        values = [float(line.split("\t")[1]) for line in fh]
    rises = sum(b > a for a, b in zip(values, values[1:]))
    assert manifest["free_energy_rises"] == rises


def test_eval_rejects_value_names_that_disagree_with_state(workspace, capsys):
    data, fit = workspace
    code = main([
        "-q", "eval", "--corpus", os.path.join(data, "corpus.jsonl"),
        "--metric", "sentiment", "--state", os.path.join(fit, "state.json"),
        "--gold-polarity", os.path.join(data, "gold_polarity.tsv"),
        "--value-names", "positive,negative,neutral",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "gives 3 names" in captured.err and "N=2" in captured.err


def test_fit_exit_4_names_first_non_finite_iteration(workspace, tmp_path, capsys, monkeypatch):
    data, _ = workspace
    states = []
    init_state = inference.init_state

    def capture(*args, **kwargs):
        states.append(init_state(*args, **kwargs))
        return states[-1]

    def poison(it, fe, seconds):
        if it == 2:
            states[0].theta_B.set_counts(np.full(states[0].vocab_size, np.nan))

    monkeypatch.setattr(inference, "init_state", capture)
    monkeypatch.setattr(
        cli, "run_inference", functools.partial(inference.run_inference, progress=poison)
    )
    out = tmp_path / "fit_nan"
    code = main(["-q", *fit_args(data, str(out))])
    err = capsys.readouterr().err
    assert code == 4
    assert "not finite at iteration 3: nan" in err
    assert not out.exists() or "state.json" not in os.listdir(out)


def test_manifest_write_failure_keeps_earlier_manifest(tmp_path):
    path = str(tmp_path / "manifest.json")
    manifest = RunManifest("fit", ["fit"])
    manifest.write(path)
    with open(path, "rb") as fh:
        before = fh.read()
    manifest.payload["outputs"]["bad"] = object()
    with pytest.raises(TypeError):
        manifest.write(path)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["manifest.json"]
