"""Training objectives for utterance ranking.

Four families, each returning the loss value together with its gradient with
respect to the input score vector:

- pairwise margin loss over a sample whose scores are indexed in gold order,
  with a rank-gap margin (j - i) * base_margin;
- permutation probabilities and the top-k listwise KL loss for global
  re-ranking;
- binary cross-entropy (locator baseline) and mean squared error (simulator
  baseline).

phi in the permutation probabilities is exp with max-subtraction: the listwise
construction only requires an increasing, strictly positive function, and exp
gives shift invariance and clean gradients. The top-k KL value is the literal
sum over prefix components even though those components do not form a
normalized distribution; only the zero-at-equality property is relied on.

All functions are pure and safe for concurrent evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rouge import rank_descending

__all__ = [
    "LossResult",
    "pairwise_margin_loss",
    "perm_prob",
    "topk_perm_prob",
    "topk_distribution",
    "kl_listwise_loss",
    "bce_locator_loss",
    "mse_simulator_loss",
]


@dataclass(frozen=True)
class LossResult:
    """Scalar loss plus gradient with respect to the input scores."""

    value: float
    grad: np.ndarray


def pairwise_margin_loss(scores, base_margin: float) -> LossResult:
    """Hinge loss over all pairs of a gold-ordered sample.

    scores[i] is the predicted score of the item holding gold rank i (best
    first). Every worse-ranked item must trail a better-ranked one by at
    least (rank gap) * base_margin; violations contribute linearly. The
    subgradient at a hinge kink is 0, so loss-free states stay stationary.
    """
    s = np.asarray(scores, dtype=np.float64)
    n = s.shape[0]
    if n < 2:
        raise ValidationError(f"pairwise loss needs >= 2 scores, got {n}")
    ranks = np.arange(n)
    # hinge[i, j] = s[j] - s[i] + (j - i) * margin, meaningful for j > i
    gaps = ranks[None, :] - ranks[:, None]
    hinge = s[None, :] - s[:, None] + gaps * float(base_margin)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    active = upper & (hinge > 0.0)
    value = float(hinge[active].sum())
    grad = active.sum(axis=0).astype(np.float64) - active.sum(axis=1).astype(np.float64)
    return LossResult(value=value, grad=grad)


def _check_permutation(pi, n: int) -> np.ndarray:
    pi = np.asarray(pi, dtype=np.int64)
    if pi.shape != (n,) or sorted(pi.tolist()) != list(range(n)):
        raise ValidationError(f"invalid permutation {pi.tolist()} for {n} items")
    return pi


def _log_prefix_terms(scores: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """log of each positional factor exp(s_pi(j)) / sum_{t>=j} exp(s_pi(t))."""
    shifted = scores - scores.max()
    e = np.exp(shifted)[pi]
    tails = np.cumsum(e[::-1])[::-1]
    return shifted[pi] - np.log(tails)


def perm_prob(scores, pi) -> float:
    """Probability of the full ordering pi under the score vector."""
    s = np.asarray(scores, dtype=np.float64)
    pi = _check_permutation(pi, s.shape[0])
    return float(np.exp(_log_prefix_terms(s, pi).sum()))


def topk_perm_prob(scores, pi, k: int) -> float:
    """Probability mass of all full orderings sharing pi's k-prefix."""
    s = np.asarray(scores, dtype=np.float64)
    n = s.shape[0]
    pi = _check_permutation(pi, n)
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    return float(np.exp(_log_prefix_terms(s, pi)[:k].sum()))


def topk_distribution(scores, reference_pi, k: int) -> np.ndarray:
    """Vector of top-1 .. top-k prefix probabilities along reference_pi."""
    s = np.asarray(scores, dtype=np.float64)
    n = s.shape[0]
    pi = _check_permutation(reference_pi, n)
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    return np.exp(np.cumsum(_log_prefix_terms(s, pi)[:k]))


def kl_listwise_loss(pred_scores, gold_scores, k: int) -> LossResult:
    """KL-style gap between gold and predicted top-1..top-k distributions.

    The reference permutation is the gold order (gold scores descending,
    ties by position) -- the only ordering both distributions can share.
    Gradient is taken with respect to pred_scores; the gold side is constant.
    """
    pred = np.asarray(pred_scores, dtype=np.float64)
    gold = np.asarray(gold_scores, dtype=np.float64)
    n = pred.shape[0]
    if gold.shape[0] != n:
        raise ValidationError(f"score lengths differ: {n} vs {gold.shape[0]}")
    if n < 2:
        raise ValidationError(f"listwise loss needs >= 2 scores, got {n}")
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")

    pi = np.asarray(rank_descending(gold.tolist()), dtype=np.int64)
    log_p_gold = np.cumsum(_log_prefix_terms(gold, pi)[:k])
    log_p_pred = np.cumsum(_log_prefix_terms(pred, pi)[:k])
    p_gold = np.exp(log_p_gold)
    value = float(np.sum(p_gold * (log_p_gold - log_p_pred)))

    # d log P^j / d s_i = 1{pos(i) < j} - e_i * sum_{m <= min(j-1, pos(i))} 1/T_m
    # with positions along pi, e stabilized by max-subtraction (the shift
    # cancels exactly in each factor, so treating it as constant is exact).
    shifted = pred - pred.max()
    e_by_item = np.exp(shifted)
    tails = np.cumsum(e_by_item[pi][::-1])[::-1]
    inv_tail_cum = np.cumsum(1.0 / tails)  # inv_tail_cum[p] = sum_{m=0..p} 1/T_m

    pos = np.empty(n, dtype=np.int64)
    pos[pi] = np.arange(n)
    # grad_i = -sum_{j=1..k} p_gold[j-1] * (indicator - coupling), summed over
    # j in closed form. For the item at position p the indicator terms give
    # suffix[p] = sum_{p<=m<k} p_gold[m]; the coupling terms give
    # e_i * (sum_{m<min(p,k)} p_gold[m] * C[m] + C[p] * suffix[p]), C = inv_tail_cum.
    suffix = np.zeros(n)
    suffix[:k] = np.cumsum(p_gold[::-1])[::-1]
    weighted_prefix = np.concatenate(([0.0], np.cumsum(p_gold * inv_tail_cum[:k])))
    coupling = weighted_prefix[np.minimum(pos, k)] + inv_tail_cum[pos] * suffix[pos]
    grad = e_by_item * coupling - suffix[pos]
    return LossResult(value=value, grad=grad)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_locator_loss(scores, labels) -> LossResult:
    """Mean binary cross-entropy of logistic(scores) against binary labels."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape:
        raise ValidationError(f"scores shape {s.shape} != labels shape {y.shape}")
    n = s.shape[0]
    # stable: max(s, 0) - s*y + log(1 + exp(-|s|))
    per_item = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    grad = (_sigmoid(s) - y) / n
    return LossResult(value=float(per_item.mean()), grad=grad)


def mse_simulator_loss(scores, gold_relevance) -> LossResult:
    """Mean squared error against gold relevance values."""
    s = np.asarray(scores, dtype=np.float64)
    g = np.asarray(gold_relevance, dtype=np.float64)
    if s.shape != g.shape:
        raise ValidationError(f"scores shape {s.shape} != targets shape {g.shape}")
    n = s.shape[0]
    diff = s - g
    return LossResult(value=float((diff**2).mean()), grad=2.0 * diff / n)
