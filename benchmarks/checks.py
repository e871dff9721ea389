"""Correctness checks for one benchmark round, computed apart from the program.

Each check recomputes a result with the benchmark's own code — a NumPy
tanh-MLP forward over the checkpoint weights, its own window/pool/greedy
selection, its own tokenizer, clipped n-gram counts and LCS table — and
compares it with what the CLI wrote. Failures are keyed by the operation
they fail: a CLI step name, or ("instance", instance_id) for one extracted
instance.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from uttrank.corpus import load_corpus
from uttrank.rouge import gold_relevance
from uttrank.scorer import ScoringModel, instance_features, load_model
from uttrank.trainer import make_objective_assembly

SCORE_TOL = 1e-9
LABEL_TOL = 1e-12
REPORT_TOL = 1e-9
GRAD_REL_TOL = 1e-4
FD_STEP = 1e-6
FD_PER_TENSOR = 2
FD_NOISE_FLOOR = 1e-8
LABEL_SAMPLE = 200
REPORT_F1_FIELDS = tuple(f"top{k}_rouge{m}" for k in (5, 10) for m in ("1", "2", "L"))


# --- independent reference implementations -------------------------------


def tokens(text: str) -> list[str]:
    """Lowercase alphanumeric runs; every other character separates tokens."""
    return "".join(c if c.isalnum() else " " for c in text.lower()).split()


def _ngrams(toks: list[str], n: int) -> Counter:
    return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))


def _lcs(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        row, above = table[i], table[i - 1]
        for j in range(1, len(b) + 1):
            row[j] = above[j - 1] + 1 if a[i - 1] == b[j - 1] else max(above[j], row[j - 1])
    return table[-1][-1]


def _f1(hits: int, n_candidate: int, n_reference: int) -> float:
    if hits == 0 or n_candidate == 0 or n_reference == 0:
        return 0.0
    return 2.0 * hits / (n_candidate + n_reference)


def rouge_f1s(candidate: str, reference: str) -> tuple[float, float, float]:
    """ROUGE-1, ROUGE-2 and ROUGE-L F1 of candidate against reference."""
    cand, ref = tokens(candidate), tokens(reference)
    out = []
    for n in (1, 2):
        c, r = _ngrams(cand, n), _ngrams(ref, n)
        hits = sum(min(count, r[gram]) for gram, count in c.items())
        out.append(_f1(hits, sum(c.values()), sum(r.values())))
    out.append(_f1(_lcs(cand, ref), len(cand), len(ref)))
    return tuple(out)


def mlp_scores(payload: dict, features: np.ndarray) -> np.ndarray:
    """Batched tanh-MLP forward over a model.json payload; linear output layer."""
    dims = payload["layer_dims"]
    a = features
    n_layers = len(dims) - 1
    for l in range(n_layers):
        w = np.asarray(payload["weights"][l], dtype=np.float64).reshape(dims[l + 1], dims[l])
        z = a @ w.T + np.asarray(payload["biases"][l], dtype=np.float64)
        a = np.tanh(z) if l < n_layers - 1 else z
    return a[:, 0]


def windows(n: int, size: int) -> list[range]:
    """Contiguous windows of size items; a trailing singleton joins the one before."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [range(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def _by_score(indices, scores) -> list[int]:
    return sorted(indices, key=lambda i: (-scores[i], i))


def pool(stage1: np.ndarray, size: int, per_window: int) -> list[int]:
    out = []
    for window in windows(len(stage1), size):
        out += _by_score(window, stage1)[:per_window]
    return out


def _line(utterance) -> str:
    return f"{utterance.speaker}: {utterance.text}"


def greedy_prefix(order, instance, top_k: int, budget: int) -> list[int]:
    """Longest prefix of order within top_k items and budget whitespace tokens."""
    used = len(instance.query.split())
    picked = []
    for i in order[:top_k]:
        cost = len(_line(instance.utterances[i]).split())
        if used + cost > budget:
            break
        picked.append(i)
        used += cost
    return picked


# --- checks ---------------------------------------------------------------


class Failures:
    """Problems found, keyed by the operation they fail."""

    def __init__(self):
        self.by_op: dict = defaultdict(list)

    def add(self, op, message: str) -> None:
        self.by_op[op].append(message)

    def sample(self, limit: int = 5) -> list[str]:
        return [f"{op}: {msgs[0]}" for op, msgs in list(self.by_op.items())[:limit]]


def _payload(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_synth(failures: Failures, op: str, data: Path, counts: dict, n_utterances: int) -> None:
    for split, expected in counts.items():
        lines = (data / f"{split}.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != expected:
            failures.add(op, f"{split}: {len(lines)} instances, expected {expected}")
            continue
        if any(len(json.loads(line)["utterances"]) != n_utterances for line in lines):
            failures.add(op, f"{split}: an instance lacks {n_utterances} utterances")


def check_checkpoint(failures: Failures, op: str, run_dir: Path) -> None:
    payload = _payload(run_dir / "model.json")
    params = [v for layer in payload["weights"] + payload["biases"] for v in layer]
    if not all(math.isfinite(v) for v in params):
        failures.add(op, "checkpoint holds a non-finite parameter")
    with open(run_dir / "loss_history.csv", encoding="utf-8", newline="") as fh:
        losses = [float(row["mean_loss"]) for row in csv.DictReader(fh)]
    # Not >= 0: the top-k KL sums unnormalised prefix terms and can dip below 0.
    if len(losses) < 2 or not losses[-1] < losses[0]:
        failures.add(op, f"loss did not fall over training: {losses}")


def check_gold_labels(failures: Failures, op: str, train, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(LABEL_SAMPLE):
        instance = rng.choice(train.instances)
        utterance = rng.choice(instance.utterances)
        expected = sum(rouge_f1s(utterance.text, instance.gold_summary)) / 3.0
        got = gold_relevance(utterance.text, instance.gold_summary)
        if abs(got - expected) > LABEL_TOL:
            failures.add(op, f"{instance.instance_id}/{utterance.index}: label {got} != {expected}")
            return


def check_gradient(failures: Failures, op: str, instance, ranker: Path, reranker: Path, cfg) -> None:
    """Central differences on one listwise unit against LossAssembly.value_and_grad."""
    features = instance_features(instance)
    relevance = np.array([gold_relevance(u.text, instance.gold_summary) for u in instance.utterances])
    stage1 = mlp_scores(_payload(ranker / "model.json"), features)
    members = pool(stage1, cfg.sample_size, cfg.per_sample_top)
    unit = make_objective_assembly(
        "listwise",
        features[members],
        relevance[members],
        listwise_k=min(cfg.listwise_k, len(members)),
    )
    model = load_model(reranker / "model.json")
    _, grad = unit.value_and_grad(model)
    for kind in ("weights", "biases"):
        for l, analytic in enumerate(getattr(grad, kind)):
            # The largest entries of every parameter tensor: tiny ones carry only rounding noise.
            for flat in np.argsort(-np.abs(analytic), axis=None, kind="stable")[:FD_PER_TENSOR]:
                idx = tuple(int(i) for i in np.unravel_index(flat, analytic.shape))
                _central_difference(failures, op, unit, model, kind, l, idx, float(analytic[idx]))


def _central_difference(failures, op, unit, model, kind, l, idx, analytic) -> None:
    sides = []
    for step in (FD_STEP, -FD_STEP):
        weights = [w.copy() for w in model.weights]
        biases = [b.copy() for b in model.biases]
        (weights if kind == "weights" else biases)[l][idx] += step
        sides.append(unit.value(ScoringModel(model.layer_dims, weights, biases, model.seed)))
    numeric = (sides[0] - sides[1]) / (2.0 * FD_STEP)
    scale = abs(analytic) + abs(numeric)
    # Shift-invariant losses give the output bias a zero gradient; below the
    # floor the difference quotient is rounding noise of order ulp(loss)/step.
    if scale > FD_NOISE_FLOOR and abs(analytic - numeric) / scale > GRAD_REL_TOL:
        failures.add(op, f"{kind}[{l}]{idx}: analytic {analytic} vs central difference {numeric}")


def check_extractions(failures: Failures, op: str, path: Path, test, ranker: Path, reranker: Path, cfg) -> None:
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    ids = [r["instance_id"] for r in records]
    if ids != [inst.instance_id for inst in test]:
        failures.add(op, "extraction records do not follow the test corpus")
    ranker, reranker = _payload(ranker / "model.json"), _payload(reranker / "model.json")
    by_id = dict(zip(ids, records))
    for instance in test:
        op = ("instance", instance.instance_id)
        record = by_id.get(instance.instance_id)
        if record is None:
            failures.add(op, "no extraction record")
            continue
        features = instance_features(instance)
        stage1 = mlp_scores(ranker, features)
        stage2 = mlp_scores(reranker, features)
        candidates = pool(stage1, cfg.sample_size, cfg.per_sample_top)
        selected = record["selected_indices"]
        if not set(selected) <= set(candidates):
            failures.add(op, f"selection {selected} leaves the pool {sorted(candidates)}")
        expected = sorted(greedy_prefix(_by_score(candidates, stage2), instance, cfg.top_k, cfg.token_budget))
        if selected != expected:
            failures.add(op, f"selection {selected} != greedy prefix {expected}")
            continue
        diff = np.abs(np.asarray(record["selection_scores"]) - stage2[selected])
        if diff.size and diff.max() > SCORE_TOL:
            failures.add(op, f"selection scores differ by {diff.max():.3g}")
        text = record["generator_input"]
        lines = [instance.query, ""] + [_line(instance.utterances[i]) for i in selected]
        if text != "\n".join(lines):
            failures.add(op, "generator input is not the query and selected lines in order")
        if len(text.split()) > cfg.token_budget:
            failures.add(op, "generator input exceeds the token budget")


def _lead_rouge(test, cfg) -> dict[str, float]:
    """Mean top-5/top-10 ROUGE F1 of the lead baseline: the first utterances."""
    sums = dict.fromkeys(REPORT_F1_FIELDS, 0.0)
    for instance in test:
        picked = greedy_prefix(list(range(len(instance.utterances))), instance, cfg.top_k, cfg.token_budget)
        for k in (5, 10):
            text = "\n".join(instance.utterances[i].text for i in picked[:k])
            for metric, value in zip(("1", "2", "L"), rouge_f1s(text, instance.gold_summary)):
                sums[f"top{k}_rouge{metric}"] += value
    return {key: value / len(test) for key, value in sums.items()}


def check_report(failures: Failures, op: str, path: Path, test, cfg) -> None:
    rows = {row["objective"]: row for row in _payload(path)["rows"]}
    missing = [o for o in (*cfg.objectives, "lead", "gold") if o not in rows]
    if missing:
        failures.add(op, f"report lacks rows {missing}")
        return
    for name, row in rows.items():
        if not all(0.0 <= row[f] <= 1.0 for f in REPORT_F1_FIELDS):
            failures.add(op, f"row {name}: an F1 lies outside [0, 1]")
    if rows["gold"]["mean_ndcg"] != 1.0 or rows["gold"]["mean_tau"] != 1.0:
        failures.add(op, "gold row: NDCG and tau are not exactly 1")
    for field, expected in _lead_rouge(test, cfg).items():
        if abs(rows["lead"][field] - expected) > REPORT_TOL:
            failures.add(op, f"lead {field}: {rows['lead'][field]} != {expected}")
    if not rows["pairwise"]["top5_rouge1"] > rows["lead"]["top5_rouge1"]:
        failures.add(op, "pairwise top-5 ROUGE-1 does not beat lead")


def _guarded(failures: Failures, op: str, check, *args) -> None:
    """Run one check; an exception it raises fails the operation it checks."""
    try:
        check(failures, op, *args)
    except Exception as exc:  # a broken output must fail its operation, not the run
        failures.add(op, f"{check.__name__} raised {exc!r}")


def check_round(failures: Failures, data: Path, out: Path, cfg, seed: int, splits: dict, n_utterances: int) -> None:
    """Every check of the set-up corpus and of one round's outputs."""
    _guarded(failures, "synth", check_synth, data, splits, n_utterances)
    try:
        train = load_corpus(data / "train.jsonl", split="train")
        test = load_corpus(data / "test.jsonl", split="test")
    except Exception as exc:
        failures.add("synth", f"corpus does not load: {exc!r}")
        return
    ranker = out / "ranker"
    reranker = out / "reranker"
    _guarded(failures, "train_ranker", check_checkpoint, ranker)
    _guarded(failures, "train_reranker", check_checkpoint, reranker)
    _guarded(failures, "train_ranker", check_gold_labels, train, seed)
    _guarded(failures, "train_reranker", check_gradient, train.instances[0], ranker, reranker, cfg)
    _guarded(failures, "extract", check_extractions, out / "extract" / "extractions.jsonl", test, ranker, reranker, cfg)
    _guarded(failures, "eval", check_report, out / "eval" / "report.json", test, cfg)
