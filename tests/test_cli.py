"""End-to-end command line workflows against temporary directories."""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from snipagg import cli, inference, model
from snipagg.cli import RunManifest, main
from snipagg.corpus import Snippet, load_corpus
from snipagg.model import load_state
from statefile import _recode, write_one_snippet_state


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


# The README Quick start corpus fit at its fixed seed: each pass's free
# energy and the sha256 of the little-endian int64 argmax aspect, value
# and role arrays, concatenated over entities.
PINNED_FITS = {
    "batch": (20, [
        111710.85312530771, 107782.74509594848, 106459.14111020585, 104617.54819208782,
        102917.75788376047, 101670.57384249274, 100840.47336208355, 100339.03607074471,
        100016.52595514996, 99803.15003035397, 99655.84153750661, 99546.03274694302,
        99464.15321755462, 99403.35113140955, 99360.32886590647, 99326.35598406462,
        99295.2339166821, 99266.29058057626, 99241.48885824066, 99221.08210634504,
    ], (
        "1d95fc935046022de22edea813fc9c216b41d3a0cd8ca2493a6dbd34be522b43",
        "a52ced11f0f18c245a52fd44ce7fe1eba374486662038480db359c6b09007f88",
        "37364b92ba6102b98b3765f3e1b4ff6fce55ade2def0c2933a332e8d02426e71",
    )),
    "sequential": (8, [
        111740.69660526502, 107763.13675620651, 106346.1519818942, 104263.1328517227,
        102373.80983063887, 101134.66765832086, 100406.09919963342, 100011.84917328073,
    ], (
        "97b2d7fe22a4d7cce0ce513069cc9a7c33c334df39d738e2cf9479a7cf578a35",
        "f6d570475409b0b895421576ec9b33b1aee93989b56e4b5629803274db263c85",
        "030e984deaa0f64c1ab4543672ee63cc4665d4933d33bc7548ad4fb61dade971",
    )),
}


def test_quick_start_fits_are_pinned(tmp_path, capsys):
    # Pins the fit's output through refactors. Free energies allow last-bit
    # noise from BLAS; the hard assignments must not move at all.
    data = str(tmp_path / "data")
    code, _ = run(
        capsys, "generate", "--out", data, "--entities", "50", "--snippets", "40",
        "--vocab-size", "600", "--seed-words-per-value", "10", "--separation", "1.0",
        "--seed", "1", "--set", "K=5", "--set", "N=2",
    )
    assert code == 0
    for schedule, (iters, free_energy, digests) in PINNED_FITS.items():
        out = str(tmp_path / schedule)
        code, _ = run(
            capsys, "fit", "--corpus", os.path.join(data, "corpus.jsonl"),
            "--seeds", os.path.join(data, "seeds.txt"), "--out", out, "--set", "K=5",
            "--set", "N=2", "--set", f"max_iters={iters}", "--set", f"schedule={schedule}",
        )
        assert code == 0
        with open(os.path.join(out, "free_energy.tsv")) as fh:
            got = [float(line.split()[1]) for line in fh]
        assert got == pytest.approx(free_energy, rel=1e-10, abs=0)
        post = inference.extract_posteriors(load_state(os.path.join(out, "state.json")))
        assert tuple(
            hashlib.sha256(np.concatenate(arrays).astype("<i8").tobytes()).hexdigest()
            for arrays in (post.aspect, post.value, post.word_role)
        ) == digests, schedule


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


def test_baseline_scope_above_the_cell_ceiling_exits_3(tmp_path, capsys):
    n = math.isqrt(cli.MAX_CELLS) + 1
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"s{i}", "entity": "e0", "tokens": [["x", "NN"]]}) + "\n"
        for i in range(n)
    ))
    code = main(["-q", "baseline", "--corpus", str(corpus), "--variant", "cluster-all",
                 "--clusters", "2", "--scope", "corpus", "--out", str(tmp_path / "base")])
    err = capsys.readouterr().err
    assert code == 3
    assert f"scope 'corpus' has {n} snippets" in err and "Traceback" not in err
    assert f"exceeds the size ceiling ({cli.MAX_CELLS})" in err
    assert not os.path.exists(tmp_path / "base" / "clusters.tsv")


@pytest.mark.parametrize("argv, flag", [
    (["--variant", "cluster-all", "--clusters", "0"], "--clusters"),
    (["--variant", "cluster-noun", "--clusters", "-1"], "--clusters"),
    (["--variant", "cluster-all"], "--clusters"),
    (["--variant", "seed"], "--seeds"),
    (["--variant", "majority"], "--gold-polarity"),
], ids=["clusters-0", "clusters-negative", "no-clusters", "no-seeds", "no-gold-polarity"])
def test_baseline_usage_errors_exit_2_before_any_output(tmp_path, capsys, argv, flag):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "s0", "entity": "e0", "tokens": [["x", "NN"]]}) + "\n")
    out = tmp_path / "base"
    code = main(["-q", "baseline", "--corpus", str(corpus), *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("variant, flag, text, message", [
    ("seed", "--seeds", "x\n", "seed word before any [value:...] header"),
    ("seed", "--seeds", "[value:a]\nx\n[value:b]\n[value:c]\n", "exactly two value types"),
    ("majority", "--gold-polarity", "e0\ts0\t\n", "unknown value label ''"),
    ("majority", "--gold-polarity", "# no labels\n", "no labels"),
], ids=["seed-malformed", "seed-three-values", "majority-malformed", "majority-no-labels"])
def test_baseline_data_errors_exit_3_before_any_output(tmp_path, capsys, variant, flag, text,
                                                       message):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "s0", "entity": "e0", "tokens": [["x", "NN"]]}) + "\n")
    second = tmp_path / "input.txt"
    second.write_text(text)
    out = tmp_path / "base"
    code = main(["-q", "baseline", "--corpus", str(corpus), "--variant", variant,
                 flag, str(second), "--value-names", "a,b,c", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert message in err and "Traceback" not in err
    assert not out.exists()


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


def test_baseline_seed_variant_reads_value_names(workspace, tmp_path, capsys):
    data, _ = workspace
    corpus = os.path.join(data, "corpus.jsonl")
    lexicon = (tmp_path / "data" / "seeds.txt").read_text()
    renamed = tmp_path / "seeds_good_bad.txt"
    renamed.write_text(lexicon.replace(":positive]", ":good]").replace(":negative]", ":bad]"))
    assert renamed.read_text() != lexicon
    for name, seeds, flags in (
        ("default", os.path.join(data, "seeds.txt"), []),
        ("renamed", str(renamed), ["--value-names", "good,bad"]),
    ):
        code, _ = run(capsys, "baseline", "--corpus", corpus, "--variant", "seed",
                      "--seeds", seeds, "--out", str(tmp_path / name), *flags)
        assert code == 0
    default = (tmp_path / "default" / "polarity.tsv").read_text()
    relabelled = default.replace("\tpositive\n", "\tgood\n").replace("\tnegative\n", "\tbad\n")
    assert relabelled != default
    assert (tmp_path / "renamed" / "polarity.tsv").read_text() == relabelled


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


@pytest.mark.parametrize("command", ["generate", "fit"])
@pytest.mark.parametrize("setting", [
    "lambda_B=nan", "lambda_A=inf", "gamma_self=-inf", "topic_prior=0,nan,0,0",
])
def test_non_finite_set_exits_2_and_writes_nothing(workspace, tmp_path, capsys, command, setting):
    data, _ = workspace
    out = str(tmp_path / "out")
    args = generate_args(out) if command == "generate" else fit_args(data, out)
    code = main(["-q", *args, "--set", setting])
    captured = capsys.readouterr()
    assert code == 2
    key = setting.partition("=")[0]
    assert f"--set: {key} must be finite" in captured.err and "Traceback" not in captured.err
    assert not os.path.exists(out)


@pytest.mark.parametrize("line, message", [
    ("lambda_B = nan", "lambda_B must be finite"),
    ("lambda_B = -1", "lambda_B must be positive"),
])
def test_config_file_errors_exit_3_naming_the_file(workspace, tmp_path, capsys, line, message):
    data, _ = workspace
    config = tmp_path / "model.cfg"
    config.write_text(f"K = 2\n{line}\n")
    out = str(tmp_path / "out")
    code = main(["-q", "fit", "--corpus", os.path.join(data, "corpus.jsonl"),
                 "--config", str(config), "--out", out])
    captured = capsys.readouterr()
    assert code == 3
    assert f"error: {config}: {message}" in captured.err
    assert not os.path.exists(out)


def test_generate_rejects_non_numeric_topic_mix(tmp_path, capsys):
    code = main(["-q", *generate_args(str(tmp_path / "gen")), "--topic-mix", "a,b"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--topic-mix" in captured.err
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_generate_rejects_non_finite_topic_mix(tmp_path, capsys, weight):
    code = main(["-q", *generate_args(str(tmp_path / "gen")), "--topic-mix", f"{weight},1,1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "topic_mix" in captured.err and "Traceback" not in captured.err
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


# Runs each argv through the CLI in one fresh interpreter and exits 1 if
# scipy.special or scipy.sparse was imported at start-up or by any of them.
_SCIPY_FREE = """
import json, sys
from snipagg.cli import main
assert "scipy.special" not in sys.modules, "imported by snipagg.cli"
assert "scipy.sparse" not in sys.modules, "imported by snipagg.cli"
for argv in json.loads(sys.argv[1]):
    assert main(["-q", *argv]) == 0, argv
    assert "scipy.special" not in sys.modules, argv
    assert "scipy.sparse" not in sys.modules, argv
"""


def test_cli_stages_that_read_a_state_never_import_scipy_special(workspace, tmp_path):
    data, fit = workspace
    corpus, state = os.path.join(data, "corpus.jsonl"), os.path.join(fit, "state.json")
    stages = [
        generate_args(str(tmp_path / "gen")),
        ["eval", "--corpus", corpus, "--metric", "muc", "--state", state,
         "--gold-clusters", os.path.join(data, "gold_clusters.tsv")],
        ["eval", "--corpus", corpus, "--metric", "sentiment", "--state", state,
         "--gold-polarity", os.path.join(data, "gold_polarity.tsv")],
        ["report", "--corpus", corpus, "--state", state],
        ["baseline", "--corpus", corpus, "--variant", "cluster-all", "--clusters", "2",
         "--out", str(tmp_path / "base")],
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE, json.dumps(stages)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
    # qa is one packed (S, K) blob, so a row can only be cut with all the others.
    path = _edited_state(fit, tmp_path, _recode(("q", "qa"), lambda a: a[:, :-1]))
    code, err = _report(capsys, data, path)
    assert code == 3
    assert f"{path}: qa[0] has a row that is not 2 numbers (K)" in err


def test_report_rejects_missing_factor(workspace, tmp_path, capsys):
    data, fit = workspace
    path = _edited_state(fit, tmp_path, lambda p: p["factors"].pop("theta_B"))
    code, err = _report(capsys, data, path)
    assert code == 3
    assert path in err and "theta_B" in err


def test_report_rejects_non_finite_posterior(workspace, tmp_path, capsys):
    data, fit = workspace

    def poison(qa):
        qa[0, 0] = float("nan")
        return qa

    path = _edited_state(fit, tmp_path, _recode(("q", "qa"), poison))
    code, err = _report(capsys, data, path)
    assert code == 3
    assert path in err and "not finite" in err


def test_state_with_a_corrupted_blob_exits_3(workspace, tmp_path, capsys):
    data, fit = workspace
    corpus = os.path.join(data, "corpus.jsonl")

    def corrupt(payload):  # a character outside the base64 alphabet
        payload["q"]["qa"]["data"] = "*" + payload["q"]["qa"]["data"][1:]

    path = _edited_state(fit, tmp_path, corrupt)
    for argv in (
        ["eval", "--metric", "muc", "--gold-clusters", os.path.join(data, "gold_clusters.tsv")],
        ["eval", "--metric", "sentiment",
         "--gold-polarity", os.path.join(data, "gold_polarity.tsv")],
        ["report"],
    ):
        code = main(["-q", *argv, "--corpus", corpus, "--state", path])
        captured = capsys.readouterr()
        assert code == 3, argv
        assert f"error: {path}: qa data is not base64" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("version", [1, 2])
def test_state_of_an_old_version_exits_3_and_writes_nothing(workspace, tmp_path, capsys, version):
    data, _ = workspace
    corpus = os.path.join(data, "corpus.jsonl")
    path = os.path.join(os.path.dirname(__file__), "data", f"state_v{version}.json")
    out = tmp_path / "out.txt"
    message = f"error: {path}: state version {version} is no longer read; re-run fit"
    for argv in (
        ["report"],
        ["eval", "--metric", "muc", "--gold-clusters", os.path.join(data, "gold_clusters.tsv")],
    ):
        code = main(["-q", *argv, "--corpus", corpus, "--state", path, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3, argv
        assert message in captured.err
        assert captured.out == "" and not out.exists()


def test_state_with_prior_tables_above_the_ceiling_exits_3(workspace, tmp_path, capsys):
    data, fit = workspace
    corpus = os.path.join(data, "corpus.jsonl")
    with open(os.path.join(fit, "state.json")) as fh:
        payload = json.load(fh)
    path = tmp_path / "huge_priors.json"
    write_one_snippet_state(payload, path, K=10**5, vocab_size=5_334_210)
    for argv in (
        ["eval", "--metric", "muc", "--gold-clusters", os.path.join(data, "gold_clusters.tsv")],
        ["report"],
    ):
        code = main(["-q", *argv, "--corpus", corpus, "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 3, argv
        assert f"error: {path}: K x vocab_size = 100000 x 5334210 = 533421000000" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, source, line", [
    (["report", "--corpus", "CORPUS", "--state", "BAD"], "fit/state.json", None),
    (["baseline", "--corpus", "BAD", "--variant", "cluster-all", "--clusters", "2",
      "--out", "OUT"], "data/corpus.jsonl", 3),
    (["fit", "--corpus", "CORPUS", "--config", "BAD", "--out", "OUT"], None, 2),
    (["fit", "--corpus", "CORPUS", "--seeds", "BAD", "--out", "OUT", "--set", "N=2"],
     "data/seeds.txt", 2),
    (["eval", "--corpus", "CORPUS", "--metric", "muc", "--state", "STATE",
      "--gold-clusters", "BAD"], "data/gold_clusters.tsv", 3),
    (["eval", "--corpus", "CORPUS", "--metric", "sentiment", "--pred-polarity", "BAD",
      "--gold-polarity", "data/gold_polarity.tsv"], "data/gold_polarity.tsv", 3),
    (["eval", "--corpus", "CORPUS", "--metric", "word-prf", "--state", "STATE",
      "--gold-word-labels", "BAD"], "data/gold_word_labels.jsonl", 3),
], ids=["state", "corpus", "config", "seeds", "gold-tsv", "prediction-tsv", "word-labels"])
def test_non_utf8_input_exits_3_naming_the_file(workspace, tmp_path, capsys, argv, source, line):
    data, fit = workspace
    root = os.path.dirname(data)
    if source is None:  # a configuration file
        lines = [b"K = 2\n", b"N = 2\n"]
    else:
        with open(os.path.join(root, source), "rb") as fh:
            lines = fh.readlines()
    lines[(line or 1) - 1] = b"\xff" + lines[(line or 1) - 1]  # never valid in UTF-8
    bad = tmp_path / ("bad" + os.path.splitext(source or "x.cfg")[1])
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    names = {"BAD": str(bad), "OUT": str(out), "CORPUS": os.path.join(data, "corpus.jsonl"),
             "STATE": os.path.join(fit, "state.json")}
    argv = [names.get(a) or (os.path.join(root, a) if a.startswith("data/") else a)
            for a in argv]
    code = main(["-q", *argv])
    captured = capsys.readouterr()
    assert code == 3
    where = f"{bad}: not valid UTF-8 at byte 0" if line is None else f"{bad}:{line}: not valid"
    assert f"error: {where}" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err
    assert not out.exists()


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


def test_baseline_majority_variant(workspace, tmp_path, capsys):
    data, _ = workspace
    corpus, gold = os.path.join(data, "corpus.jsonl"), os.path.join(data, "gold_polarity.tsv")
    base = tmp_path / "majority"
    argv = ["baseline", "--corpus", corpus, "--variant", "majority", "--out", str(base)]
    code, _ = run(capsys, *argv, "--gold-polarity", gold)
    assert code == 0
    with open(gold, encoding="utf-8") as fh:
        labels = [line.split("\t")[2] for line in fh.read().splitlines()]
    majority = max(["positive", "negative"], key=labels.count)
    predicted = [line.split("\t")[2] for line in (base / "polarity.tsv").read_text().splitlines()]
    assert predicted == [majority] * 24
    assert "gold_polarity" in json.loads((base / "manifest.json").read_text())["inputs"]

    code = main(["-q", *argv])
    assert code == 2
    assert "--gold-polarity" in capsys.readouterr().err
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no labels\n")
    code = main(["-q", *argv, "--gold-polarity", str(empty)])
    assert code == 3
    assert "no labels" in capsys.readouterr().err


def _word_prf(capsys, data, *flags):
    code, out = run(
        capsys, "eval", "--corpus", os.path.join(data, "corpus.jsonl"), "--metric", "word-prf",
        "--gold-word-labels", os.path.join(data, "gold_word_labels.jsonl"), *flags,
    )
    assert code == 0
    return json.loads(out)


def test_eval_word_prf_reads_predicted_labels_and_expands_them(workspace, tmp_path, capsys):
    data, _ = workspace
    gold = os.path.join(data, "gold_word_labels.jsonl")
    results = _word_prf(capsys, data, "--pred-word-labels", gold)
    assert results["aspect"]["f1"] == results["value"]["f1"] == 1.0
    # One noun phrase over every snippet: each aspect word of a snippet
    # without value words claims the snippet's background nouns.
    spans = tmp_path / "spans.tsv"
    with open(gold, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    spans.write_text("".join(f"{r['id']}\t0\t{len(r['labels'])}\tNP\n" for r in records))
    expanded = _word_prf(
        capsys, data, "--pred-word-labels", gold, "--tree-expand", "--parse-spans", str(spans)
    )
    assert expanded["aspect"]["recall"] == 1.0
    assert expanded["aspect"]["precision"] < 1.0


def test_cli_stages_build_no_snippet(tmp_path, capsys, monkeypatch):
    def built(*args):
        raise AssertionError("a Snippet was built")

    monkeypatch.setattr(Snippet, "_set", built)
    data, fit = str(tmp_path / "data"), str(tmp_path / "fit")
    assert run(capsys, *generate_args(data))[0] == 0
    assert run(capsys, *fit_args(data, fit))[0] == 0
    corpus, state = os.path.join(data, "corpus.jsonl"), os.path.join(fit, "state.json")
    gold = os.path.join(data, "gold_word_labels.jsonl")
    spans = tmp_path / "spans.tsv"
    with open(gold, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    spans.write_text("".join(f"{r['id']}\t0\t{len(r['labels'])}\tNP\n" for r in records))
    for argv in (
        ["--metric", "muc", "--gold-clusters", os.path.join(data, "gold_clusters.tsv")],
        ["--metric", "sentiment", "--gold-polarity", os.path.join(data, "gold_polarity.tsv")],
        ["--metric", "word-prf", "--gold-word-labels", gold, "--tree-expand",
         "--parse-spans", str(spans)],
    ):
        assert run(capsys, "eval", "--corpus", corpus, "--state", state, *argv)[0] == 0
    assert run(capsys, "report", "--corpus", corpus, "--state", state)[0] == 0
    assert run(capsys, "baseline", "--corpus", corpus, "--variant", "cluster-all",
               "--clusters", "2", "--out", str(tmp_path / "base"))[0] == 0


@pytest.mark.parametrize("flags, message", [
    (["--metric", "muc", "--gold-clusters", "gold_clusters.tsv"],
     "muc needs --state or --pred-clusters"),
    (["--metric", "sentiment"], "sentiment needs --gold-polarity"),
    (["--metric", "sentiment", "--gold-polarity", "gold_polarity.tsv"],
     "sentiment needs --state or --pred-polarity"),
    (["--metric", "word-prf"], "word-prf needs --gold-word-labels"),
    (["--metric", "word-prf", "--gold-word-labels", "gold_word_labels.jsonl"],
     "word-prf needs --state or --pred-word-labels"),
])
def test_eval_without_its_inputs_exits_2(workspace, capsys, flags, message):
    data, _ = workspace
    flags = [os.path.join(data, f) if f.startswith("gold_") else f for f in flags]
    code = main(["-q", "eval", "--corpus", os.path.join(data, "corpus.jsonl"), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {message}\n" == captured.err and captured.out == ""


def test_state_that_is_not_json_exits_3(workspace, tmp_path, capsys):
    data, _ = workspace
    path = tmp_path / "state.json"
    path.write_text('{"format": ')
    code, err = _report(capsys, data, str(path))
    assert code == 3
    assert f"error: {path}: not valid JSON: " in err


def test_eval_tree_expand_needs_parse_spans(workspace, capsys):
    data, _ = workspace
    gold = os.path.join(data, "gold_word_labels.jsonl")
    code = main(["-q", "eval", "--corpus", os.path.join(data, "corpus.jsonl"),
                 "--metric", "word-prf", "--gold-word-labels", gold,
                 "--pred-word-labels", gold, "--tree-expand"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--tree-expand needs --parse-spans" in captured.err and captured.out == ""


@pytest.mark.parametrize("flags, message", [
    (["--metric", "muc"], "muc needs --gold-clusters"),
    (["--metric", "sentiment", "--gold-polarity", "gold.tsv"], None),
    (["--metric", "word-prf", "--gold-word-labels", "gold.jsonl", "--tree-expand"],
     "--tree-expand needs --parse-spans"),
])
def test_eval_checks_its_usage_before_reading_a_file(tmp_path, capsys, flags, message):
    # The corpus does not exist and the state is not JSON: a usage fault
    # exits 2 all the same, and without one reading them fails with 3.
    state = tmp_path / "bad.json"
    state.write_text('{"format": ')
    code = main(["-q", "eval", "--corpus", str(tmp_path / "corpus.jsonl"),
                 "--state", str(state), *flags])
    captured = capsys.readouterr()
    assert (code, captured.out) == ((3, "") if message is None else (2, ""))
    if message is not None:
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("stage", [
    ["eval", "--metric", "muc", "--gold-clusters", "GOLD"],
    ["report"],
])
def test_state_on_a_different_corpus_exits_3(workspace, tmp_path, capsys, stage):
    data, fit = workspace
    # The same corpus without its last snippet.
    with open(os.path.join(data, "corpus.jsonl"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    other = tmp_path / "other.jsonl"
    other.write_text("\n".join(lines[:-1]) + "\n")
    argv = [os.path.join(data, "gold_clusters.tsv") if a == "GOLD" else a for a in stage]
    code = main(["-q", *argv, "--corpus", str(other), "--state", os.path.join(fit, "state.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert "state was fit on a different corpus" in captured.err and captured.out == ""


@pytest.mark.parametrize("edit, message", [
    (lambda hp: hp.update(topic_prior=[math.nan, 0, 0, 0]), "topic_prior must be finite"),
    (lambda hp: hp.pop("lambda_A"), "hyperparameters: missing ['lambda_A'], unknown []"),
    (lambda hp: hp.update(lambda_Q=1.0), "hyperparameters: missing [], unknown ['lambda_Q']"),
], ids=["non-finite", "missing", "unknown"])
def test_state_file_hyperparameter_errors_exit_3(workspace, tmp_path, capsys, edit, message):
    data, fit = workspace
    path = _edited_state(fit, tmp_path, lambda p: edit(p["hyperparameters"]))
    code, err = _report(capsys, data, path)
    assert code == 3
    assert f"error: {path}: {message}" in err


def test_state_file_with_a_non_integer_count_exits_3(workspace, tmp_path, capsys):
    data, fit = workspace
    path = _edited_state(fit, tmp_path, lambda p: p.update(vocab_size=p["vocab_size"] + 0.5))
    code, err = _report(capsys, data, path)
    assert code == 3
    assert path in err and "vocab_size" in err


HUGE = str(10**40)


@pytest.mark.parametrize("command", ["generate", "fit"])
@pytest.mark.parametrize("key", ["K", "N"])
def test_oversized_set_exits_2_before_allocating(workspace, tmp_path, capsys, command, key):
    data, _ = workspace
    out = str(tmp_path / "out")
    args = generate_args(out) if command == "generate" else fit_args(data, out)
    code = main(["-q", *args, "--set", f"{key}={HUGE}"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"--set: {key} = {HUGE} exceeds" in captured.err and "Traceback" not in captured.err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["generate", "fit"])
@pytest.mark.parametrize("key", ["K", "N"])
def test_oversized_config_value_exits_3_naming_the_file(
    workspace, tmp_path, capsys, command, key
):
    data, _ = workspace
    config = tmp_path / "model.cfg"
    config.write_text(f"{key} = {HUGE}\n")
    out = str(tmp_path / "out")
    if command == "generate":
        args = ["generate", "--entities", "3", "--snippets", "4"]
    else:
        args = ["fit", "--corpus", os.path.join(data, "corpus.jsonl")]
    code = main(["-q", *args, "--out", out, "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 3
    assert f"error: {config}: {key} = {HUGE} exceeds" in captured.err
    assert not os.path.exists(out)


def test_fit_takes_as_many_aspects_as_the_corpus_has_snippets(workspace, tmp_path, capsys):
    data, _ = workspace  # 4 entities x 6 snippets
    for k, want in ((24, 0), (25, 2)):
        out = str(tmp_path / f"k{k}")
        code = main(["-q", *fit_args(data, out), "--set", f"K={k}", "--set", "max_iters=1"])
        captured = capsys.readouterr()
        assert code == want, captured.err
    assert "K = 25 exceeds the corpus's snippets (24)" in captured.err


def test_fit_refuses_a_posterior_above_the_cell_ceiling_at_once(tmp_path, capsys):
    # K = 10,001 on 10,001 one-token snippets: q(Z_A) alone would be
    # 10,001 x 10,001 cells. The check runs right after the corpus is read.
    n = 10_001
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"s{i}", "entity": "e0", "tokens": [["x", "NN"]]}) + "\n"
        for i in range(n)
    ))
    out = tmp_path / "fit"
    t0 = time.perf_counter()
    code = main(["-q", "fit", "--corpus", str(corpus), "--out", str(out),
                 "--set", f"K={n}", "--set", "max_iters=1"])
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: --set: snippets x K = {n} x {n} = {n * n} exceeds the size "
                   f"ceiling ({cli.MAX_CELLS})\n")
    assert not out.exists()


@pytest.mark.parametrize("source", ["--set", "--config", "corpus"])
def test_fit_refuses_a_state_that_load_state_would_refuse(
    workspace, tmp_path, capsys, monkeypatch, source
):
    # A lower ceiling stands in for a vocabulary of millions of words: with
    # K = 10 on 24 snippets, K x vocab_size is the one table above it. The
    # error names where K came from: --set exits 2, a file exits 3.
    data, _ = workspace
    corpus = os.path.join(data, "corpus.jsonl")
    V = len(load_corpus(corpus).vocabulary)
    monkeypatch.setattr(model, "MAX_CELLS", 10 * V - 1)
    config = tmp_path / "model.cfg"
    config.write_text("K = 10\n")
    args = {"--set": ["--set", "K=10"], "--config": ["--config", str(config)], "corpus": []}
    out = tmp_path / "refit"
    code = main(["-q", "fit", "--corpus", corpus, "--out", str(out), *args[source]])
    err = capsys.readouterr().err
    blamed = {"--set": "--set", "--config": str(config), "corpus": corpus}[source]
    assert code == (2 if source == "--set" else 3)
    assert err == (f"error: {blamed}: K x vocab_size = 10 x {V} = {10 * V} exceeds the size "
                   f"ceiling ({10 * V - 1})\n")
    assert not out.exists()


def test_generate_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "gen"
    code = main(["-q", *generate_args(str(out), seed=-1)])
    captured = capsys.readouterr()
    assert code == 2
    assert "--seed must be non-negative" in captured.err and "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "fit"])
def test_negative_rng_seed_set_exits_2(workspace, tmp_path, capsys, command):
    data, _ = workspace
    out = str(tmp_path / "out")
    args = generate_args(out) if command == "generate" else fit_args(data, out)
    code = main(["-q", *args, "--set", "rng_seed=-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--set: rng_seed must be non-negative" in captured.err
    assert not os.path.exists(out)


def test_negative_rng_seed_in_config_or_state_exits_3(workspace, tmp_path, capsys):
    data, fit = workspace
    config = tmp_path / "model.cfg"
    config.write_text("K = 2\nrng_seed = -1\n")
    out = str(tmp_path / "out")
    code = main(["-q", "fit", "--corpus", os.path.join(data, "corpus.jsonl"),
                 "--config", str(config), "--out", out])
    captured = capsys.readouterr()
    assert code == 3
    assert f"error: {config}: rng_seed must be non-negative" in captured.err
    assert not os.path.exists(out)
    path = _edited_state(fit, tmp_path, lambda p: p["hyperparameters"].update(rng_seed=-1))
    code, err = _report(capsys, data, path)
    assert code == 3
    assert f"error: {path}: rng_seed must be non-negative" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_generate_rejects_non_finite_mean_words(tmp_path, capsys, value):
    out = tmp_path / "gen"
    code = main(["-q", *generate_args(str(out)), "--mean-words", value])
    captured = capsys.readouterr()
    assert code == 3
    assert "mean_words must be finite and positive" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1000", "1e-9"])
def test_generate_rejects_poisson_mean_words_out_of_range(tmp_path, capsys, value):
    out = tmp_path / "gen"
    t0 = time.perf_counter()
    code = main(["-q", *generate_args(str(out)), "--mean-words", value])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 3
    assert "mean_words must lie in [0.1, 38] for Poisson lengths" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("prior, what", [
    ("lambda_B", "theta_B (lambda_B)"), ("lambda_M", "psi (lambda_M)"),
])
def test_generate_rejects_an_unsampleable_prior(tmp_path, capsys, prior, what):
    # Every gamma variate of a 1e-300 concentration underflows to 0, so no
    # redraw can give the Dirichlet draw positive mass.
    out = tmp_path / "gen"
    t0 = time.perf_counter()
    code = main(["-q", "generate", "--out", str(out), "--entities", "2", "--snippets", "3",
                 "--vocab-size", "40", "--seed", "1", "--set", "K=2", "--set", "N=2",
                 "--set", f"{prior}=1e-300"])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 3
    assert f"cannot draw {what}" in captured.err
    assert "concentration 1e-300" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag, what", [
    ("--vocab-size", "--vocab-size"),
    ("--entities", "--entities"),
    ("--snippets", "--entities x --snippets"),
])
def test_generate_rejects_sizes_above_the_ceiling(tmp_path, capsys, flag, what):
    out = tmp_path / "gen"
    t0 = time.perf_counter()
    code = main(["-q", *generate_args(str(out)), flag, str(10**40)])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {what} = " in captured.err
    assert f"exceeds the size ceiling ({cli.MAX_CELLS})" in captured.err
    assert not out.exists()
    # The tables count too: 4 entities x K=2 x vocab_size cells.
    code = main(["-q", *generate_args(str(out)), "--vocab-size", str(cli.MAX_CELLS // 4)])
    assert code == 2
    assert "--entities x K x --vocab-size = " in capsys.readouterr().err
    assert not out.exists()
