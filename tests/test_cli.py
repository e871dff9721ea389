"""End-to-end command-line behaviour: exit codes, files, determinism."""

import json
from pathlib import Path

import pytest

from uttrank.cli import dispatch


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
    tsv.write_text("a b c\ta b d\nx y\tx y\n", encoding="utf-8")
    assert dispatch(["rouge", "--pairs", str(tsv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["pairs"]) == 2
    assert payload["pairs"][1]["rouge1"]["f1"] == 1.0

    bad = tmp_path / "bad.tsv"
    bad.write_text("only one column\n", encoding="utf-8")
    assert dispatch(["rouge", "--pairs", str(bad)]) == 1
    assert dispatch(["rouge"]) == 1


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
    assert len((out / "loss_history.csv").read_text().splitlines()) == 2


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


# ------------------------------------------------------------------ gradcheck

def test_gradcheck_passes_and_writes_json(tmp_path, capsys):
    out = tmp_path / "gc"
    code = dispatch(
        [
            "gradcheck",
            "--objectives", "mse,pairwise",
            "--points", "3",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "gradcheck.json").read_text())
    assert payload["mse"]["passed"] and payload["pairwise"]["passed"]
    assert dispatch(["gradcheck", "--objectives", "nonsense"]) == 1
