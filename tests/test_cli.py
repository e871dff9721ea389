"""End-to-end command-line behaviour: exit codes, files, determinism."""

import contextlib
import hashlib
import inspect
import io
import json
import logging
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import uttrank
from uttrank import cli
from uttrank.cli import (
    EVAL_DEFAULTS,
    EXTRACT_DEFAULTS,
    GRADCHECK_DEFAULTS,
    SYNTH_DEFAULTS,
    TRAIN_DEFAULTS,
    build_parser,
    dispatch,
)
from uttrank.corpus import QueryInstance, Utterance, load_corpus, save_corpus
from uttrank.errors import ValidationError
from uttrank.evaluation import corpus_digest, run_comparison
from uttrank.pipeline import PipelineConfig
from uttrank.scorer import load_model
from uttrank.synthesis import synth_corpus
from uttrank.trainer import TrainConfig, grad_check


def _synth(tmp_path, name="corpus", **over):
    out = tmp_path / name
    argv = [
        "synth",
        "--out-dir", str(out),
        "--instances", str(over.pop("instances", 6)),
        "--validation-instances", str(over.pop("validation_instances", 2)),
        "--test-instances", str(over.pop("test_instances", 3)),
        "--utterances", str(over.pop("utterances", 20)),
        "--seed", str(over.pop("seed", 9)),
    ]
    for key, value in over.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert dispatch(argv) == 0
    return out


# ----------------------------------------------------------------- exit codes

def test_no_arguments_is_usage_error(capsys):
    assert dispatch([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert dispatch(["shred"]) == 2


def test_malformed_hidden_dims_flag_is_usage_error(tmp_path, capsys):
    argv = ["train", "--corpus", "c.jsonl", "--out-dir", str(tmp_path / "o"), "--hidden-dims", "3,x"]
    assert dispatch(argv) == 2
    assert "--hidden-dims" in capsys.readouterr().err


def test_validation_failure_exits_one(tmp_path, capsys):
    code = dispatch(
        ["train", "--corpus", str(tmp_path / "missing.jsonl"), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_listwise_training_requires_stage1(tmp_path, capsys):
    corpus = _synth(tmp_path)
    code = dispatch(
        [
            "train",
            "--corpus", str(corpus / "train.jsonl"),
            "--out-dir", str(tmp_path / "o"),
            "--objective", "listwise",
        ]
    )
    assert code == 1
    assert "stage1" in capsys.readouterr().err


def test_stage1_model_rejected_without_listwise(tmp_path, capsys):
    # The default objective is pairwise: a forgotten --objective listwise must
    # not save a stage-1 model where a re-ranker was meant.
    corpus = _synth(tmp_path)
    out = tmp_path / "o"
    code = dispatch(
        [
            "train",
            "--corpus", str(corpus / "train.jsonl"),
            "--out-dir", str(out),
            "--stage1-model", str(tmp_path / "missing.json"),
        ]
    )
    assert code == 1
    assert "--stage1-model" in capsys.readouterr().err
    assert not (out / "model.json").exists()


# ---------------------------------------------------------------------- rouge

def test_rouge_identical_pair_scores_one(tmp_path, capsys):
    cand = tmp_path / "c.txt"
    ref = tmp_path / "r.txt"
    cand.write_text("the same words\n", encoding="utf-8")
    ref.write_text("the same words\n", encoding="utf-8")
    assert dispatch(["rouge", "--candidate", str(cand), "--reference", str(ref)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean"]["rouge1"]["f1"] == 1.0
    assert payload["mean"]["rougeL"]["f1"] == 1.0


def test_rouge_pairs_tsv_and_errors(tmp_path, capsys):
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("a b c\ta b d\n\nx y\tx y\n", encoding="utf-8")  # a blank row is skipped
    out = tmp_path / "scores"
    assert dispatch(["rouge", "--pairs", str(tsv), "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    payload = json.loads(printed)
    assert len(payload["pairs"]) == 2
    assert payload["pairs"][1]["rouge1"]["f1"] == 1.0
    assert (out / "rouge.json").read_text() == printed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "rouge"
    assert list(manifest["input_digests"]) == [str(tsv)]

    bad = tmp_path / "bad.tsv"
    bad.write_text("only one column\n", encoding="utf-8")
    assert dispatch(["rouge", "--pairs", str(bad)]) == 1
    assert dispatch(["rouge"]) == 1
    blank = tmp_path / "blank.tsv"
    blank.write_text("\n\n\n", encoding="utf-8")
    assert dispatch(["rouge", "--pairs", str(blank)]) == 1
    assert "no candidate/reference pairs" in capsys.readouterr().err

    # A file that is missing or not UTF-8 is named, with no traceback.
    latin = tmp_path / "latin.tsv"
    latin.write_bytes(b"caf\xe9\tcafe\n")
    missing = str(tmp_path / "nope.txt")
    for argv, path in [
        (["--pairs", missing], missing),
        (["--pairs", str(latin)], str(latin)),
        (["--candidate", missing, "--reference", str(tsv)], missing),
        (["--candidate", str(tsv), "--reference", str(latin)], str(latin)),
    ]:
        assert dispatch(["rouge", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}")


def test_rouge_rejects_pairs_beside_candidate_or_reference(tmp_path, capsys):
    # --pairs alone is scored, so a --candidate or --reference beside it would
    # be digested into the manifest without being read.
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("a b\ta c\n", encoding="utf-8")
    text = tmp_path / "t.txt"
    text.write_text("a b\n", encoding="utf-8")
    out = tmp_path / "scores"
    for extra in (["--candidate"], ["--reference"], ["--candidate", str(text), "--reference"]):
        argv = ["rouge", "--pairs", str(tsv), *extra, str(text), "--out-dir", str(out)]
        assert dispatch(argv) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == (
            "error: rouge takes either --pairs or --candidate and --reference, not both\n"
        )
        assert not out.exists()


# ---------------------------------------------------------------------- synth

def test_synth_same_seed_is_byte_identical(tmp_path):
    a = _synth(tmp_path, "a", seed=7)
    b = _synth(tmp_path, "b", seed=7)
    for split in ("train", "validation", "test"):
        assert (a / f"{split}.jsonl").read_bytes() == (b / f"{split}.jsonl").read_bytes()
    man_a = json.loads((a / "manifest.json").read_text())
    man_b = json.loads((b / "manifest.json").read_text())
    man_a["timestamp"] = man_b["timestamp"] = None
    assert man_a == man_b


@pytest.mark.parametrize(
    "manifest", [None, "{not json", "[" * 200_000], ids=["synth", "not-json", "nested-too-deeply"]
)
def test_out_dir_holding_another_commands_manifest_exits_one(tmp_path, capsys, manifest):
    data = _synth(tmp_path, "d")
    if manifest is not None:  # one that no uttrank command wrote
        (data / "manifest.json").write_text(manifest, encoding="utf-8")
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    argv = ["train", "--corpus", str(data / "train.jsonl"), "--epochs", "1", "--sample-size", "6"]
    assert dispatch([*argv, "--out-dir", str(data)]) == 1
    err = capsys.readouterr().err
    owner = "'synth'" if manifest is None else "None"
    assert err.startswith(f"error: --out-dir {data} holds the manifest.json of {owner}")
    assert {p.name: p.read_bytes() for p in data.iterdir()} == before
    # The same command may write into its own directory again.
    assert dispatch([*argv, "--out-dir", str(tmp_path / "t")]) == 0
    assert dispatch([*argv, "--out-dir", str(tmp_path / "t")]) == 0
    if manifest is None:
        assert _synth(tmp_path, "d") == data


def test_synth_manifest_and_resolved_counts(tmp_path):
    out = _synth(tmp_path, "m", instances=8, validation_instances=0, test_instances=0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["validation_instances"] == 1  # auto 10%
    assert manifest["config"]["test_instances"] == 2  # auto 25%
    assert (out / "validation.jsonl").exists()


# ------------------------------------------------------------ train / extract

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flow")
    corpus = _synth(tmp, "corpus", instances=8, validation_instances=2, test_instances=3)
    model_dir = tmp / "model"
    code = dispatch(
        [
            "train",
            "--corpus", str(corpus / "train.jsonl"),
            "--out-dir", str(model_dir),
            "--epochs", "2",
            "--sample-size", "10",
            "--per-sample-top", "3",
        ]
    )
    assert code == 0
    return tmp, corpus, model_dir


def test_train_outputs(trained):
    _, corpus, model_dir = trained
    assert (model_dir / "model.json").exists()
    history = (model_dir / "loss_history.csv").read_text().splitlines()
    assert history[0] == "epoch,mean_loss"
    assert len(history) == 3
    manifest = json.loads((model_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert str(corpus / "train.jsonl") in manifest["input_digests"]


def test_extract_outputs_and_determinism(trained):
    tmp, corpus, model_dir = trained
    outs = []
    for name in ("e1", "e2"):
        out = tmp / name
        code = dispatch(
            [
                "extract",
                "--corpus", str(corpus / "test.jsonl"),
                "--model", str(model_dir / "model.json"),
                "--out-dir", str(out),
                "--sample-size", "10",
                "--per-sample-top", "3",
            ]
        )
        assert code == 0
        outs.append((out / "extractions.jsonl").read_bytes())
    assert outs[0] == outs[1]
    records = [json.loads(line) for line in outs[0].decode().splitlines()]
    assert len(records) == 3
    assert all(r["generator_input"] for r in records)


def test_extract_rejects_non_finite_checkpoint(trained, capsys):
    tmp, corpus, model_dir = trained
    payload = json.loads((model_dir / "model.json").read_text())
    payload["weights"][0][0] = float("nan")
    bad = tmp / "nan-model.json"
    bad.write_text(json.dumps(payload))
    out = tmp / "nan-extract"
    code = dispatch(
        [
            "extract",
            "--corpus", str(corpus / "test.jsonl"),
            "--model", str(bad),
            "--out-dir", str(out),
            "--sample-size", "10",
            "--per-sample-top", "3",
        ]
    )
    assert code == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "extractions.jsonl").exists()


@pytest.mark.parametrize("with_reranker", [False, True])
def test_extract_selects_the_only_utterance(trained, tmp_path, with_reranker):
    _, _, model_dir = trained
    utterance = Utterance(meeting_id="m", index=0, speaker="host", text="the only utterance")
    instance = QueryInstance(
        instance_id="one", meeting_id="m", query="what was said",
        utterances=(utterance,), gold_summary="the utterance",
    )
    save_corpus([instance], tmp_path / "one.jsonl")
    model = str(model_dir / "model.json")
    argv = ["extract", "--corpus", str(tmp_path / "one.jsonl"), "--model", model]
    argv += ["--reranker", model] if with_reranker else []
    assert dispatch([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    record = json.loads((tmp_path / "out" / "extractions.jsonl").read_text())
    assert record["selected_indices"] == [0]


def test_reranker_training_flow(trained):
    tmp, corpus, model_dir = trained
    out = tmp / "reranker"
    code = dispatch(
        [
            "train",
            "--corpus", str(corpus / "train.jsonl"),
            "--out-dir", str(out),
            "--objective", "listwise",
            "--stage1-model", str(model_dir / "model.json"),
            "--epochs", "2",
            "--sample-size", "10",
            "--per-sample-top", "3",
        ]
    )
    assert code == 0
    assert (out / "model.json").exists()


def test_config_file_with_flag_override(trained):
    tmp, corpus, _ = trained
    cfg = tmp / "train.json"
    cfg.write_text(json.dumps({"epochs": 3, "seed": 4}), encoding="utf-8")
    out = tmp / "cfgrun"
    code = dispatch(
        [
            "train",
            "--corpus", str(corpus / "train.jsonl"),
            "--out-dir", str(out),
            "--config", str(cfg),
            "--epochs", "1",
            "--sample-size", "10",
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 1  # flag beats file
    assert manifest["config"]["seed"] == 4  # file beats default
    assert manifest["config"]["hidden_dims"] == [16]  # the typed value that ran
    assert len((out / "loss_history.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize(
    "text",
    [None, "{bad", "[1, 2]", b'{"epochs": "\xff"}', "[" * 200_000],
    ids=["missing", "not-json", "a-list", "not-utf8", "nested-too-deeply"],
)
def test_config_file_must_be_a_readable_json_object(trained, tmp_path, capsys, text):
    _, corpus, _ = trained
    cfg = tmp_path / "config.json"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    elif text is not None:
        cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "cfgrun"
    code = dispatch(
        ["train", "--corpus", str(corpus / "train.jsonl"), "--out-dir", str(out), "--config", str(cfg)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err
    assert not out.exists()


def test_config_file_rejects_unknown_keys(trained):
    tmp, corpus, _ = trained
    cfg = tmp / "bad.json"
    cfg.write_text(json.dumps({"epoch": 3}), encoding="utf-8")
    code = dispatch(
        [
            "train",
            "--corpus", str(corpus / "train.jsonl"),
            "--out-dir", str(tmp / "badrun"),
            "--config", str(cfg),
        ]
    )
    assert code == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("epochs", "x"),
        ("hidden_dims", "a,b"),
        ("epochs", None),
        ("sample_size", 1.5),
        ("locator_use_spans", "false"),
        ("base_margin", float("nan")),  # Python's json reads and writes NaN
        ("learning_rate", float("inf")),
        pytest.param("base_margin", 10**400, id="base_margin-int-past-float-range"),
    ],
)
def test_config_file_rejects_wrong_type(trained, tmp_path, capsys, key, value):
    _, corpus, _ = trained
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "typedrun"
    code = dispatch(
        ["train", "--corpus", str(corpus / "train.jsonl"), "--out-dir", str(out), "--config", str(cfg)]
    )
    assert code == 1
    assert repr(key) in capsys.readouterr().err
    assert not (out / "model.json").exists()


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--objective", "bce", "--locator-positives", "-1"], "locator_positives"),
        (["--objective", "bce", "--locator-positives", "0"], "locator_positives"),
        (["--listwise-k", "0"], "listwise_k"),
        (["--seed", "-1"], "seed"),
        (["--objective", "ranknet"], "objective"),
        (["--base-margin", "-5"], "base_margin"),
        (["--base-margin", "nan"], "base_margin"),
        (["--learning-rate", "nan"], "learning_rate"),
        (["--learning-rate", "inf"], "learning_rate"),
    ],
)
def test_train_rejects_bad_config_values(trained, tmp_path, capsys, flags, key):
    _, corpus, _ = trained
    out = tmp_path / "bad-value"
    code = dispatch(["train", "--corpus", str(corpus / "train.jsonl"), "--out-dir", str(out), *flags])
    assert code == 1
    assert key in capsys.readouterr().err
    assert not (out / "model.json").exists()


_DEFAULTS_TABLES = [
    ("train", TRAIN_DEFAULTS),
    ("extract", EXTRACT_DEFAULTS),
    ("eval", EVAL_DEFAULTS),
    ("gradcheck", GRADCHECK_DEFAULTS),
    ("synth", SYNTH_DEFAULTS),
]


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize(
    "command, flags, key",
    [
        ("synth", ["--instances", "0"], "instances"),
        ("synth", ["--seed", "-1"], "seed"),
        ("train", ["--seed", "-1"], "seed"),
        ("eval", ["--seed", "-1"], "seed"),
        ("gradcheck", ["--seed", "-1"], "seed"),
        ("gradcheck", ["--objectives", ","], "objectives"),
        ("synth", ["--validation-instances", "-1"], "validation_instances"),
        ("synth", ["--test-instances", "-1"], "test_instances"),
        ("eval", ["--objectives", ","], "objectives"),
        ("eval", ["--base-margin", "-5"], "base_margin"),
        ("synth", ["--noise", "-1"], "noise"),
        # Every float key of every subcommand rejects nan and infinity.
        *[
            (command, [_flag(key), value], key)
            for command, defaults in _DEFAULTS_TABLES
            for key, default in defaults.items()
            if type(default) is float
            for value in ("nan", "inf")
        ],
        ("synth", ["--query-words", "0"], "query_words"),
        ("extract", ["--token-budget", "0"], "token_budget"),
        # Checked with the other TrainConfig fields, before any input is read.
        ("train", ["--hidden-dims", "0"], "hidden_dims"),
        ("train", ["--hidden-dims=-3"], "hidden_dims"),
        ("eval", ["--hidden-dims", "8,0"], "hidden_dims"),
        ("gradcheck", ["--hidden-dims", "0"], "hidden_dims"),
    ],
)
def test_bad_values_exit_one_without_traceback(trained, tmp_path, capsys, command, flags, key):
    _, corpus, model_dir = trained
    splits = {split: str(corpus / f"{split}.jsonl") for split in ("train", "validation", "test")}
    inputs = {
        "train": ["--corpus", splits["train"]],
        "extract": ["--corpus", splits["test"], "--model", str(model_dir / "model.json")],
        "eval": [arg for split in splits for arg in (f"--{split}-corpus", splits[split])],
    }.get(command, [])
    out = tmp_path / "o"
    assert dispatch([command, *inputs, "--out-dir", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not [path for path in out.rglob("*") if path.is_file()]


@pytest.mark.parametrize("command", ["synth", "train", "extract", "eval"])
def test_rejected_run_leaves_no_out_dir(trained, tmp_path, capsys, command):
    # Each input is rejected only once it is loaded or used, past the point
    # where the output directory used to be created.
    tmp, corpus, model_dir = trained
    payload = json.loads((model_dir / "model.json").read_text())
    payload["biases"][0][0] = float("inf")
    bad_model = tmp_path / "inf-model.json"
    bad_model.write_text(json.dumps(payload))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    splits = {split: str(corpus / f"{split}.jsonl") for split in ("train", "validation", "test")}
    out = tmp_path / "o"
    argv = {
        "synth": ["synth", "--noise", "-1"],
        "train": [
            "train", "--corpus", splits["train"], "--objective", "listwise",
            "--stage1-model", str(bad_model), "--epochs", "1",
        ],
        "extract": ["extract", "--corpus", splits["test"], "--model", str(bad_model)],
        "eval": [
            "eval", "--train-corpus", splits["train"], "--validation-corpus",
            splits["validation"], "--test-corpus", str(empty), "--epochs", "1",
        ],
    }[command]
    assert dispatch([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def _assert_cannot_write(capsys, tmp_path, path) -> None:
    """The run printed one error naming path, with no traceback and no temporary file left."""
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(path) in err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob(".*.tmp"))


@pytest.mark.parametrize("command", ["synth", "train", "extract", "eval", "rouge", "gradcheck"])
def test_out_dir_naming_a_file_exits_one(trained, tmp_path, capsys, command):
    _, corpus, model_dir = trained
    splits = {split: str(corpus / f"{split}.jsonl") for split in ("train", "validation", "test")}
    text = tmp_path / "text.txt"
    text.write_text("some words\n", encoding="utf-8")
    small = ["--epochs", "1", "--sample-size", "10"]
    argv = {
        "synth": ["synth", "--instances", "2", "--utterances", "4"],
        "train": ["train", "--corpus", splits["train"], *small],
        "extract": ["extract", "--corpus", splits["test"], "--model", str(model_dir / "model.json")],
        "eval": [
            "eval", *[arg for split in splits for arg in (f"--{split}-corpus", splits[split])],
            "--objectives", "pairwise", *small,
        ],
        "rouge": ["rouge", "--candidate", str(text), "--reference", str(text)],
        "gradcheck": ["gradcheck", "--objectives", "mse", "--points", "1"],
    }[command]
    out = tmp_path / "a-file"
    out.write_text("not a directory\n", encoding="utf-8")
    assert dispatch([*argv, "--out-dir", str(out)]) == 1
    _assert_cannot_write(capsys, tmp_path, out)
    assert out.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("case", ["under-a-file", "output-is-a-directory"])
@pytest.mark.parametrize("command, first_output", [("synth", "train.jsonl"), ("train", "model.json")])
def test_unusable_output_path_exits_one(trained, tmp_path, capsys, case, command, first_output):
    _, corpus, _ = trained
    argv = {
        "synth": ["synth", "--instances", "2", "--utterances", "4"],
        "train": ["train", "--corpus", str(corpus / "train.jsonl"), "--epochs", "1"],
    }[command]
    if case == "under-a-file":
        (tmp_path / "a-file").write_text("not a directory\n", encoding="utf-8")
        out = named = tmp_path / "a-file" / "sub"
    else:
        out = tmp_path / "o"
        named = out / first_output
        named.mkdir(parents=True)
    assert dispatch([*argv, "--out-dir", str(out)]) == 1
    _assert_cannot_write(capsys, tmp_path, named)
    if case == "output-is-a-directory":
        assert [p.name for p in out.iterdir()] == [first_output] and named.is_dir()


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_listwise_train_keeps_its_stage1_checkpoint(trained, tmp_path, capsys, spelling):
    # A re-ranker saved over its own stage 1 would leave a manifest naming the
    # wrong digest for the stage-1 input.
    _, corpus, model_dir = trained
    run = tmp_path / "r"
    shutil.copytree(model_dir, run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    out = run if spelling == "same" else tmp_path / "r" / ".." / "r"
    code = dispatch(
        [
            "train",
            "--corpus", str(corpus / "train.jsonl"),
            "--out-dir", str(out),
            "--objective", "listwise",
            "--stage1-model", str(run / "model.json"),
            "--epochs", "1",
            "--sample-size", "10",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(run / "model.json") in err and str(out) in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_unknown_log_level_exits_one(monkeypatch, capsys):
    monkeypatch.setenv("UTTRANK_LOG_LEVEL", "bogus")
    assert dispatch(["gradcheck", "--objectives", "mse", "--points", "1"]) == 1
    names = list(logging.getLevelNamesMapping())
    captured = capsys.readouterr()
    assert captured.err == f"error: UTTRANK_LOG_LEVEL must be one of {names}, got 'bogus'\n"
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_aborts_on_divergence(trained, tmp_path, capsys):
    _, corpus, _ = trained
    out = tmp_path / "diverged"
    code = dispatch(
        [
            "train",
            "--corpus", str(corpus / "train.jsonl"),
            "--out-dir", str(out),
            "--objective", "mse",
            "--learning-rate", "1e6",
            "--epochs", "3",
        ]
    )
    assert code == 1
    assert re.search(r"diverged: .* at epoch \d+, unit \d+", capsys.readouterr().err)
    assert not (out / "model.json").exists()


# Each subcommand's flags, less paths, model inputs and --config, are exactly
# the keys it resolves; a flag without a key would be ignored.
_REQUIRED = {
    "train": ["--corpus", "c", "--out-dir", "o"],
    "extract": ["--corpus", "c", "--model", "m", "--out-dir", "o"],
    "eval": ["--train-corpus", "a", "--validation-corpus", "b", "--test-corpus", "c", "--out-dir", "o"],
    "gradcheck": [],
    "synth": ["--out-dir", "o"],
}
_NOT_RESOLVED = {
    "command", "func", "config", "out_dir", "corpus", "model", "reranker", "stage1_model",
    "train_corpus", "validation_corpus", "test_corpus",
}


@pytest.mark.parametrize("command, defaults", _DEFAULTS_TABLES)
def test_flags_match_resolved_keys(command, defaults):
    args = build_parser().parse_args([command, *_REQUIRED[command]])
    assert set(vars(args)) - _NOT_RESOLVED == set(defaults)


def _flag_args(key, default) -> list[str]:
    """The argv that sets key to default: --key VALUE, or --key/--no-key for a bool."""
    flag = _flag(key)
    if type(default) is bool:
        return [flag if default else "--no-" + flag[2:]]
    if type(default) is tuple:
        return [flag, ",".join(map(str, default))]
    return [flag, str(default)]


@pytest.mark.parametrize(
    "command, key, default",
    [
        (command, key, default)
        for command, defaults in _DEFAULTS_TABLES
        for key, default in defaults.items()
    ],
)
def test_every_flag_parses_to_its_default(command, key, default):
    args = build_parser().parse_args([command, *_REQUIRED[command], *_flag_args(key, default)])
    value = getattr(args, key)
    assert value == default
    assert type(value) is type(default)


def _owned(owner) -> dict:
    if inspect.isfunction(owner):
        params = inspect.signature(owner).parameters.values()
        return {p.name: p.default for p in params if p.default is not p.empty}
    return asdict(owner)


@pytest.mark.parametrize(
    "defaults, owners, cli_only",
    [
        (TRAIN_DEFAULTS, (TrainConfig(), PipelineConfig()), set()),
        (EXTRACT_DEFAULTS, (PipelineConfig(),), set()),
        (EVAL_DEFAULTS, (TrainConfig(), PipelineConfig()), {"objectives"}),
        (GRADCHECK_DEFAULTS, (grad_check, TrainConfig()), {"objectives", "points", "seed"}),
        (SYNTH_DEFAULTS, (synth_corpus,), {"instances", "validation_instances", "test_instances"}),
    ],
    ids=["train", "extract", "eval", "gradcheck", "synth"],
)
def test_defaults_equal_their_owners(defaults, owners, cli_only):
    owned = {}
    for owner in owners:
        owned.update(_owned(owner))
    aliases = {"utterances": "n_utterances"}
    for key, value in defaults.items():
        if key not in cli_only:
            assert value == owned[aliases.get(key, key)], key


# ----------------------------------------------------------------------- eval

def test_eval_writes_report(tmp_path, capsys):
    corpus = _synth(tmp_path, "c", instances=6, validation_instances=2, test_instances=2)
    out = tmp_path / "report"
    code = dispatch(
        [
            "eval",
            "--train-corpus", str(corpus / "train.jsonl"),
            "--validation-corpus", str(corpus / "validation.jsonl"),
            "--test-corpus", str(corpus / "test.jsonl"),
            "--out-dir", str(out),
            "--epochs", "1",
            "--sample-size", "10",
            "--per-sample-top", "3",
            "--objectives", "pairwise,mse,lead,gold",
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "objective" in table and "gold" in table
    payload = json.loads((out / "report.json").read_text())
    assert [r["objective"] for r in payload["rows"]] == ["pairwise", "mse", "lead", "gold"]
    assert (out / "report.txt").exists()


EVAL_FLAGS = ["--epochs", "3", "--sample-size", "10", "--per-sample-top", "3"]


@contextlib.contextmanager
def _process_starts():
    """The processes started inside the block, in the order they started."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def spy(process):
        started.append(process)
        start(process)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multiprocessing.process.BaseProcess, "start", spy)
        yield started


@pytest.fixture(scope="module")
def seeded_eval(tmp_path_factory):
    """A seeded synth corpus, the eval report over it with every comparison row,
    and the processes that eval started."""
    tmp = tmp_path_factory.mktemp("seeded-eval")
    corpus = _synth(tmp, "c", instances=40, validation_instances=0, test_instances=10,
                    utterances=40, seed=101)
    out = tmp / "eval"
    with _process_starts() as started:
        assert dispatch(
            [
                "eval",
                "--train-corpus", str(corpus / "train.jsonl"),
                "--validation-corpus", str(corpus / "validation.jsonl"),
                "--test-corpus", str(corpus / "test.jsonl"),
                "--out-dir", str(out),
                *EVAL_FLAGS,
            ]
        ) == 0
    return tmp, corpus, json.loads((out / "report.json").read_text()), started


def test_eval_report_rows_digest(seeded_eval):
    # Taken when evaluation.py still trained the models: moving training out moved no row.
    # Stage 1 and the re-ranker trained in the one forked child, so the digest holds for that path.
    assert [p.name for p in seeded_eval[3]] == ["stage-1 training"]
    assert seeded_eval[3][0].exitcode == 0
    rows = seeded_eval[2]["rows"]
    assert [r["objective"] for r in rows] == [
        "pairwise+listwise", "pairwise", "bce", "mse", "lead", "gold"
    ]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == "f4721b271b88f20fbd8d00d0c029b7db8d53f3509c98f61ce99c30da1b79907a"


def test_eval_rates_the_models_train_ships(seeded_eval):
    # Models trained by `train` with eval's flags give eval's rows in the library harness,
    # stage 1 and the re-ranker among them trained in eval's one forked child.
    tmp, corpus, report, started = seeded_eval
    assert [p.name for p in started] == ["stage-1 training"]
    train = ["train", "--corpus", str(corpus / "train.jsonl"), *EVAL_FLAGS]
    for objective in ("pairwise", "bce", "mse"):
        argv = [*train, "--objective", objective, "--out-dir", str(tmp / objective)]
        assert dispatch(argv) == 0
    stage1 = str(tmp / "pairwise" / "model.json")
    argv = [*train, "--objective", "listwise", "--stage1-model", stage1,
            "--out-dir", str(tmp / "listwise")]
    assert dispatch(argv) == 0
    models = {
        row: load_model(tmp / objective / "model.json")
        for row, objective in (
            ("pairwise+listwise", "listwise"), ("pairwise", "pairwise"), ("bce", "bce"), ("mse", "mse")
        )
    }
    test = load_corpus(corpus / "test.jsonl", split="test")
    pcfg = PipelineConfig(sample_size=10, per_sample_top=3)
    rated = run_comparison(test, models, pcfg)
    assert json.loads(rated.to_json())["rows"] == report["rows"]
    assert report["corpus_id"] == rated.corpus_id == corpus_digest(test)
    assert report["config"] == {"pipeline": asdict(pcfg)}


@pytest.mark.parametrize("objectives", ["pairwise+listwise", "bce,mse", "mse,pairwise", "lead"])
def test_eval_objective_subset_trains_stage1_in_the_one_child(seeded_eval, objectives):
    # The child trains the requested stage-1 rows, or nothing; the re-ranker
    # row brings its pairwise stage 1, and lead and gold always appear.
    tmp, corpus, report, _ = seeded_eval
    out = tmp / f"subset-{objectives}"
    with _process_starts() as started:
        code = dispatch(
            [
                "eval",
                "--train-corpus", str(corpus / "train.jsonl"),
                "--validation-corpus", str(corpus / "validation.jsonl"),
                "--test-corpus", str(corpus / "test.jsonl"),
                "--out-dir", str(out),
                "--objectives", objectives,
                *EVAL_FLAGS,
            ]
        )
    assert code == 0
    assert [(p.name, p.exitcode) for p in started] == [("stage-1 training", 0)]
    wanted = {*objectives.split(","), "lead", "gold"}
    if "pairwise+listwise" in wanted:
        wanted.add("pairwise")
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert rows == [r for r in report["rows"] if r["objective"] in wanted]


def _failing_eval(tmp_path):
    """eval's argv on a small corpus, every row requested, and the --out-dir it names."""
    corpus = _synth(tmp_path, "c", instances=6, validation_instances=2, test_instances=2)
    out = tmp_path / "report"
    argv = [
        "eval",
        "--train-corpus", str(corpus / "train.jsonl"),
        "--validation-corpus", str(corpus / "validation.jsonl"),
        "--test-corpus", str(corpus / "test.jsonl"),
        "--out-dir", str(out),
        "--epochs", "1",
    ]
    return argv, out


def _assert_nothing_left(out) -> None:
    assert multiprocessing.active_children() == []
    assert not out.exists()


def test_eval_stage1_failure_in_the_child_exits_one(tmp_path, capsys, monkeypatch):
    argv, out = _failing_eval(tmp_path)

    def diverge(*args, **kwargs):
        raise ValidationError(f"training diverged: planted in process {os.getpid()}")

    # The child inherits the patch through fork.
    monkeypatch.setattr(cli, "train_ranker", diverge)
    with _process_starts() as started:
        assert dispatch(argv) == 1
    [child] = started
    assert child.pid != os.getpid() and child.exitcode == 0  # the child sent the exception
    err = capsys.readouterr().err
    assert err == f"error: training diverged: planted in process {child.pid}\n"
    _assert_nothing_left(out)


@pytest.mark.parametrize("failure", [ValidationError, KeyboardInterrupt])
def test_eval_baseline_failure_terminates_the_child(tmp_path, capsys, monkeypatch, failure):
    argv, out = _failing_eval(tmp_path)

    def stall(*args, **kwargs):
        time.sleep(60)  # the child's chain; the parent terminates it long before

    def fail(*args, **kwargs):
        raise failure("planted baseline failure")

    monkeypatch.setattr(cli, "train_ranker", stall)
    monkeypatch.setattr(cli, "train_baseline", fail)
    begin = time.monotonic()
    with _process_starts() as started:
        if failure is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                dispatch(argv)
        else:
            assert dispatch(argv) == 1
            assert capsys.readouterr().err == "error: planted baseline failure\n"
    assert time.monotonic() - begin < 30
    [child] = started
    assert child.exitcode == -signal.SIGTERM
    _assert_nothing_left(out)


def test_eval_child_that_dies_without_sending_exits_one(tmp_path, capsys, monkeypatch):
    argv, out = _failing_eval(tmp_path)
    parent = os.getpid()

    def die(*args, **kwargs):
        assert os.getpid() != parent, "stage 1 trained in the parent process"
        os._exit(3)

    monkeypatch.setattr(cli, "train_ranker", die)
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: the stage-1 training process exited with code 3 before sending its result\n"
    _assert_nothing_left(out)


def test_eval_rejects_empty_test_split(tmp_path, capsys):
    corpus = _synth(tmp_path, "c", instances=6, validation_instances=2, test_instances=2)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "report"
    code = dispatch(
        [
            "eval",
            "--train-corpus", str(corpus / "train.jsonl"),
            "--validation-corpus", str(corpus / "validation.jsonl"),
            "--test-corpus", str(empty),
            "--out-dir", str(out),
            "--epochs", "1",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'test'" in err
    assert not (out / "report.json").exists()


# ------------------------------------------------------------------ gradcheck

def test_gradcheck_passes_and_writes_json(tmp_path, capsys):
    out = tmp_path / "gc"
    code = dispatch(
        [
            "gradcheck",
            "--objectives", "mse,pairwise,bce",  # bce draws binary targets
            "--points", "3",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "gradcheck.json").read_text())
    assert payload["mse"]["passed"] and payload["pairwise"]["passed"] and payload["bce"]["passed"]
    assert dispatch(["gradcheck", "--objectives", "nonsense"]) == 1


def test_gradcheck_runs_a_repeated_objective_once(capsys):
    assert dispatch(["gradcheck", "--objectives", "pairwise", "--points", "2"]) == 0
    once = capsys.readouterr().out
    assert dispatch(["gradcheck", "--objectives", " pairwise,pairwise", "--points", "2"]) == 0
    assert capsys.readouterr().out == once


@pytest.mark.parametrize("points", ["0", "-3"])
def test_gradcheck_rejects_too_few_points(tmp_path, capsys, points):
    out = tmp_path / "gc"
    assert dispatch(["gradcheck", "--points", points, "--out-dir", str(out)]) == 1
    assert "points" in capsys.readouterr().err
    assert not (out / "gradcheck.json").exists()


# -------------------------------------------------------------- closed stdout

class _ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone, with no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _printing_argv(tmp_path, command: str) -> list[str]:
    """A small run of a command that writes files and then prints, less its --out-dir."""
    if command == "rouge":
        tsv = tmp_path / "pairs.tsv"
        tsv.write_text("a b c\ta b d\nx y\tx y\n", encoding="utf-8")
        return ["rouge", "--pairs", str(tsv)]
    if command == "gradcheck":
        return ["gradcheck", "--objectives", "mse,pairwise", "--points", "2"]
    corpus = _synth(tmp_path, "c", instances=6, validation_instances=2, test_instances=2)
    return [
        "eval",
        "--train-corpus", str(corpus / "train.jsonl"),
        "--validation-corpus", str(corpus / "validation.jsonl"),
        "--test-corpus", str(corpus / "test.jsonl"),
        "--epochs", "1", "--sample-size", "10", "--per-sample-top", "3",
    ]


def _outputs(out: Path) -> tuple[dict, dict]:
    """The bytes of each file under out but the manifest, and the manifest less its timestamp."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["timestamp"]
    return files, manifest


@pytest.mark.parametrize("command", ["rouge", "gradcheck", "eval"])
def test_closed_stdout_exits_one_after_writing_every_output(tmp_path, capsys, monkeypatch, command):
    argv = _printing_argv(tmp_path, command)
    assert dispatch([*argv, "--out-dir", str(tmp_path / "open")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert dispatch([*argv, "--out-dir", str(tmp_path / "closed")]) == 1
    assert capsys.readouterr().err == "error: cannot write to stdout: [Errno 32] Broken pipe\n"
    assert _outputs(tmp_path / "closed") == _outputs(tmp_path / "open")


def test_closed_stdout_pipe_ends_in_one_error_line(tmp_path):
    # The pipe's reader is gone before the process starts, so its first flush
    # fails, and the flush at exit must find somewhere to write.
    src = str(Path(uttrank.__file__).resolve().parents[1])
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "uttrank", *_printing_argv(tmp_path, "rouge")],
            stdout=writer,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=False,
        )
    finally:
        os.close(writer)
    assert (proc.returncode, proc.stderr) == (1, "error: cannot write to stdout: [Errno 32] Broken pipe\n")


# ------------------------------------------------------------- python -m

def test_python_m_uttrank_runs_the_cli():
    src = str(Path(uttrank.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "uttrank", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"uttrank {uttrank.__version__}"
