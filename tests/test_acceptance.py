"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Every check exercises the public API end to end at the tolerances stated in
its docstring; the printed line survives output capture so a full-suite run
always shows the verdict table.
"""

import itertools
import json
import time

import numpy as np
import pytest

from uttrank.cli import dispatch
from uttrank.evaluation import ndcg_at_k, run_comparison, topk_rouge_overlap
from uttrank.pipeline import PipelineConfig, run_pipeline
from uttrank.ranklosses import (
    kl_listwise_loss,
    pairwise_margin_loss,
    perm_prob,
    topk_perm_prob,
)
from uttrank.rouge import lcs_length, rouge_n, tokenize
from uttrank.scorer import FEATURE_DIM, forward, init_model, instance_features, score_utterances
from uttrank.synthesis import synth_corpus, synth_splits
from uttrank.trainer import (
    TrainConfig,
    grad_check,
    make_objective_assembly,
    prepare_corpus,
    train_ranker,
    train_reranker,
)


def _verdict(capsys, number: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def planted_seed7():
    splits = synth_splits(200, 0, 50, n_utterances=40, noise=0.05, seed=7)
    return (
        splits["train"],
        splits["test"],
        prepare_corpus(splits["train"]),
        prepare_corpus(splits["test"]),
    )


def test_criterion_01_permutation_normalization(capsys):
    """Sum of perm_prob over all of S_5 is 1 within 1e-9, 20 vectors, < 1 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    perms = list(itertools.permutations(range(5)))
    worst = 0.0
    for _ in range(20):
        scores = rng.uniform(-2.0, 2.0, size=5)
        total = sum(perm_prob(scores, pi) for pi in perms)
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict(capsys, 1, ok, f"normalization gap {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_topk_marginalization(capsys):
    """topk_perm_prob equals brute-force prefix marginal, n=6, k in {1,2,3}."""
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    perms = list(itertools.permutations(range(6)))
    worst = 0.0
    for _ in range(20):
        scores = rng.uniform(-2.0, 2.0, size=6)
        pi = rng.permutation(6).tolist()
        for k in (1, 2, 3):
            marginal = sum(
                perm_prob(scores, full)
                for full in perms
                if list(full[:k]) == pi[:k]
            )
            worst = max(worst, abs(topk_perm_prob(scores, pi, k) - marginal))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _verdict(capsys, 2, ok, f"marginalization gap {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def _smooth_pairwise_point(rng):
    """Draw (assembly, model) whose hinge arguments all sit off the kink."""
    while True:
        n = int(rng.integers(4, 9))
        features = rng.uniform(size=(n, FEATURE_DIM))
        targets = rng.uniform(size=n)
        model = init_model((FEATURE_DIM, 16, 1), seed=int(rng.integers(2**31)))
        assembly = make_objective_assembly("pairwise", features, targets, base_margin=0.01)
        scores = forward(model, assembly.feature_rows)[0]
        gaps = [
            scores[j] - scores[i] + (j - i) * 0.01
            for i in range(n)
            for j in range(i + 1, n)
        ]
        if min(abs(g) for g in gaps) >= 1e-3:
            return assembly, model


def test_criterion_03_gradient_oracles(capsys):
    """All four losses through the 2-layer scorer match FD at 50 points each."""
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = {}
    for objective in ("pairwise", "listwise", "bce", "mse"):
        worst[objective] = 0.0
        for _ in range(50):
            if objective == "pairwise":
                assembly, model = _smooth_pairwise_point(rng)
            else:
                n = int(rng.integers(4, 9))
                features = rng.uniform(size=(n, FEATURE_DIM))
                if objective == "bce":
                    targets = rng.integers(0, 2, size=n).astype(float)
                else:
                    targets = rng.uniform(size=n)
                assembly = make_objective_assembly(
                    objective, features, targets, listwise_k=min(3, n)
                )
                model = init_model((FEATURE_DIM, 16, 1), seed=int(rng.integers(2**31)))
            report = grad_check(assembly, model)
            worst[objective] = max(worst[objective], report.max_relative_error)
    elapsed = time.perf_counter() - start
    overall = max(worst.values())
    ok = overall <= 1e-4 and elapsed < 30.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _verdict(capsys, 3, ok, f"max rel err {detail}, {elapsed:.1f}s")
    assert overall <= 1e-4
    assert elapsed < 30.0


def test_criterion_04_shift_invariance(capsys):
    """kl_listwise_loss(s*+c, s*) vanishes within 1e-9 for 20 random pairs."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 10))
        gold = rng.uniform(-3.0, 3.0, size=n)
        c = float(rng.uniform(-5.0, 5.0))
        k = int(rng.integers(1, n + 1))
        worst = max(worst, abs(kl_listwise_loss(gold + c, gold, k).value))
    ok = worst <= 1e-9
    _verdict(capsys, 4, ok, f"largest |loss| at shifted gold {worst:.2e}")
    assert worst <= 1e-9


def _lcs_brute(a, b):
    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(tok in it for tok in sub):
                best = r
                break
        if best:
            break
    return best


def test_criterion_05_rouge_fixtures_and_lcs(capsys):
    """Hand fixtures exact; LCS vs subsequence enumeration on a 3-symbol alphabet.

    Enumeration is exhaustive through length 4 and seeded-sampled for lengths
    5..8 (the full ≤8 cross product is ~1e8 pairs, beyond a test budget; the
    sample is fixed by seed so the check is reproducible).
    """
    fixture = rouge_n("the cat", "the cat sat", 1)
    fixtures_ok = (
        fixture.precision == 1.0
        and fixture.recall == pytest.approx(2.0 / 3.0, abs=1e-12)
        and fixture.f1 == pytest.approx(0.8, abs=1e-12)
        and rouge_n("a b", "a b", 2).f1 == 1.0
        and rouge_n("a b c", "x y z", 1).f1 == 0.0
    )

    alphabet = "abc"
    short = [
        list(w)
        for r in range(1, 5)
        for w in itertools.product(alphabet, repeat=r)
    ]
    lcs_ok = all(lcs_length(a, b) == _lcs_brute(a, b) for a in short for b in short)

    rng = np.random.default_rng(105)
    for _ in range(300):
        a = [alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(5, 9)))]
        b = [alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(5, 9)))]
        lcs_ok = lcs_ok and lcs_length(a, b) == _lcs_brute(a, b)

    ok = fixtures_ok and lcs_ok
    _verdict(capsys, 5, ok, f"fixtures {'exact' if fixtures_ok else 'WRONG'}, "
             f"lcs enumeration {'agrees' if lcs_ok else 'DISAGREES'}")
    assert fixtures_ok
    assert lcs_ok


def test_criterion_06_planted_order_recovery(capsys, planted_seed7):
    """Mean held-out NDCG@10 ≥ 0.90 after default pairwise training, < 2 min."""
    _, _, prep_train, prep_test = planted_seed7
    start = time.perf_counter()
    model = train_ranker(prep_train, TrainConfig()).model
    gains = []
    for prep in prep_test:
        scores = score_utterances(model, prep.features)
        order = np.argsort(-scores, kind="stable").tolist()
        gains.append(ndcg_at_k(order, prep.relevance, 10))
    mean_ndcg = float(np.mean(gains))
    elapsed = time.perf_counter() - start
    ok = mean_ndcg >= 0.90 and elapsed < 120.0
    _verdict(capsys, 6, ok, f"held-out NDCG@10 {mean_ndcg:.4f} (≥ 0.90), {elapsed:.1f}s")
    assert mean_ndcg >= 0.90
    assert elapsed < 120.0


def test_criterion_07_reranking_ablation_direction(capsys, planted_seed7):
    """Re-ranked pipeline ≥ rerank-off on NDCG@10 and top-10 summary overlap."""
    _, _, prep_train, prep_test = planted_seed7
    pcfg = PipelineConfig(sample_size=10, per_sample_top=3)
    stage1 = train_ranker(prep_train, TrainConfig(seed=0), pipeline_config=pcfg).model
    reranker = train_reranker(
        prep_train, stage1, TrainConfig(objective="listwise", seed=0), pipeline_config=pcfg
    ).model

    ndcg = {"on": [], "off": []}
    overlap = {"on": [], "off": []}
    for prep in prep_test:
        inst = prep.instance
        full = run_pipeline(inst, prep.features, stage1, reranker, pcfg)
        bare = run_pipeline(inst, prep.features, stage1, None, pcfg)
        for key, ext in (("on", full), ("off", bare)):
            ndcg[key].append(ndcg_at_k(list(ext.selected_indices), prep.relevance, 10))
            overlap[key].append(topk_rouge_overlap(ext, inst.gold_summary)[10][0].f1)

    d_ndcg = float(np.mean(ndcg["on"])) - float(np.mean(ndcg["off"]))
    d_overlap = float(np.mean(overlap["on"])) - float(np.mean(overlap["off"]))
    ok = d_ndcg >= 0.0 and d_overlap >= 0.0
    _verdict(
        capsys, 7, ok,
        f"rerank NDCG@10 {np.mean(ndcg['on']):.4f} vs {np.mean(ndcg['off']):.4f}, "
        f"top-10 R1 {np.mean(overlap['on']):.4f} vs {np.mean(overlap['off']):.4f}",
    )
    assert d_ndcg >= 0.0
    assert d_overlap >= 0.0


def test_criterion_08_objective_comparison_direction(capsys, tmp_path):
    """Pairwise mean tau ≥ MSE and ≥ BCE, averaged over training seeds 0..4."""
    corpora = synth_splits(200, 20, 50, n_utterances=40, noise=0.1, seed=7)
    taus = {"pairwise": [], "mse": [], "bce": []}
    for seed in range(5):
        report = run_comparison(
            corpora,
            objectives=("pairwise", "bce", "mse"),
            train_config=TrainConfig(seed=seed),
        )
        (tmp_path / f"comparison_seed{seed}.json").write_text(
            report.to_json() + "\n", encoding="utf-8"
        )
        for objective in taus:
            taus[objective].append(report.row(objective).mean_tau)
    means = {k: float(np.mean(v)) for k, v in taus.items()}
    ok = means["pairwise"] >= means["mse"] and means["pairwise"] >= means["bce"]
    _verdict(
        capsys, 8, ok,
        f"mean tau pairwise {means['pairwise']:.3f}, mse {means['mse']:.3f}, "
        f"bce {means['bce']:.3f} (5 seeds, reports archived)",
    )
    assert means["pairwise"] >= means["mse"]
    assert means["pairwise"] >= means["bce"]


def _null_timestamp(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["timestamp"] = None
    return json.dumps(payload, sort_keys=True)


def test_criterion_09_cli_determinism(capsys, tmp_path):
    """train/extract/eval repeated with the same seeds are byte-identical."""
    corpus = tmp_path / "corpus"
    assert dispatch(
        [
            "synth", "--out-dir", str(corpus),
            "--instances", "8", "--validation-instances", "2",
            "--test-instances", "3", "--utterances", "20", "--seed", "3",
        ]
    ) == 0

    def run_all(tag, model_path=None):
        # the extract step reads one shared model file so that repeated runs
        # differ in nothing but their output directory
        base = tmp_path / tag
        train_dir, extract_dir, eval_dir = base / "train", base / "extract", base / "eval"
        assert dispatch(
            [
                "train", "--corpus", str(corpus / "train.jsonl"),
                "--out-dir", str(train_dir), "--epochs", "2",
                "--sample-size", "10", "--per-sample-top", "3", "--seed", "0",
            ]
        ) == 0
        assert dispatch(
            [
                "extract", "--corpus", str(corpus / "test.jsonl"),
                "--model", str(model_path or train_dir / "model.json"),
                "--out-dir", str(extract_dir),
                "--sample-size", "10", "--per-sample-top", "3",
            ]
        ) == 0
        assert dispatch(
            [
                "eval",
                "--train-corpus", str(corpus / "train.jsonl"),
                "--validation-corpus", str(corpus / "validation.jsonl"),
                "--test-corpus", str(corpus / "test.jsonl"),
                "--out-dir", str(eval_dir), "--epochs", "1", "--seed", "0",
                "--sample-size", "10", "--per-sample-top", "3",
                "--objectives", "pairwise,mse,lead,gold",
            ]
        ) == 0
        return base

    a = run_all("runA")
    b = run_all("runB", model_path=a / "train" / "model.json")
    primary = [
        ("train", "model.json"),
        ("train", "loss_history.csv"),
        ("extract", "extractions.jsonl"),
        ("eval", "report.json"),
        ("eval", "report.txt"),
    ]
    identical = all(
        (a / sub / name).read_bytes() == (b / sub / name).read_bytes()
        for sub, name in primary
    )
    manifests_match = all(
        _null_timestamp(a / sub / "manifest.json") == _null_timestamp(b / sub / "manifest.json")
        for sub in ("train", "extract", "eval")
    )
    ok = identical and manifests_match
    _verdict(
        capsys, 9, ok,
        f"{len(primary)} primary outputs byte-identical: {identical}; "
        f"manifests timestamp-only: {manifests_match}",
    )
    assert identical
    assert manifests_match


def test_criterion_10_budget_contract(capsys):
    """generator_input stays within 1024 tokens on 500 long-utterance instances."""
    corpus = synth_corpus(
        500, n_utterances=40, min_tokens=80, max_tokens=140, seed=13, split="test"
    )
    ranker = init_model((FEATURE_DIM, 16, 1), seed=1)
    reranker = init_model((FEATURE_DIM, 16, 1), seed=2)
    config = PipelineConfig(sample_size=10, per_sample_top=3)
    worst = 0
    truncated = 0
    for i, instance in enumerate(corpus):
        features = instance_features(instance)
        result = run_pipeline(
            instance, features, ranker, reranker if i % 2 == 0 else None, config
        )
        worst = max(worst, len(tokenize(result.generator_input)))
        truncated += result.truncated
    ok = worst <= 1024
    _verdict(
        capsys, 10, ok,
        f"max generator_input {worst} tokens over 500 instances "
        f"({truncated} truncated selections)",
    )
    assert worst <= 1024
