"""Permutation probabilities of a score vector (Plackett-Luce, as in ListNet).

The reference the listwise tests compare kl_listwise_loss against: the
probability of a full ordering, of all orderings sharing a k-prefix, and the
vector of top-1..top-k prefix probabilities, with phi = exp after
max-subtraction.
"""

import numpy as np

from uttrank.errors import ValidationError


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
