"""Training objectives: fixtures, brute-force oracles, and gradient checks.

The permutation-probability oracles enumerate all n! orders directly, so
normalization and top-k marginalization are checked against an independent
route rather than the implementation's own algebra.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttrank.errors import ValidationError
from uttrank.pipeline import rank_descending
from uttrank.ranklosses import (
    _margin_grid,
    bce_locator_loss,
    kl_listwise_loss,
    mse_simulator_loss,
    pairwise_margin_loss,
)
from tests.listwise_oracles import perm_prob, topk_distribution, topk_perm_prob


def _perm_prob_oracle(scores, pi):
    """Direct product-of-softmax evaluation, no stabilization tricks."""
    s = [scores[i] for i in pi]
    prob = 1.0
    for j in range(len(s)):
        prob *= math.exp(s[j]) / sum(math.exp(t) for t in s[j:])
    return prob


def _fd_grad(fn, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(len(x)):
        up, dn = x.copy(), x.copy()
        up[i] += eps
        dn[i] -= eps
        out[i] = (fn(up) - fn(dn)) / (2 * eps)
    return out


def _rel_err(a, b):
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------- pairwise_margin_loss

def test_pairwise_satisfied_margins_zero_loss():
    res = pairwise_margin_loss([1.0, 0.5, 0.0], 0.01)
    assert res.value == 0.0
    assert np.all(np.asarray(res.grad) == 0.0)


def test_pairwise_two_item_fixture():
    res = pairwise_margin_loss([0.0, 0.5], 0.01)
    assert res.value == pytest.approx(0.51)


def test_pairwise_matches_double_loop():
    rng = np.random.default_rng(3)
    lam = 0.01
    for _ in range(50):
        s = rng.normal(size=6)
        got = pairwise_margin_loss(s, lam).value
        want = 0.0
        for i in range(6):
            for j in range(i + 1, 6):
                want += max(0.0, s[j] - s[i] + (j - i) * lam)
        assert got == pytest.approx(want, abs=1e-12)


def test_pairwise_gradient_away_from_kinks():
    rng = np.random.default_rng(19)
    lam = 0.01
    checked = 0
    while checked < 40:
        s = rng.normal(size=6)
        margins = [s[j] - s[i] + (j - i) * lam for i in range(6) for j in range(i + 1, 6)]
        if min(abs(m) for m in margins) < 1e-3:
            continue  # too close to a hinge kink for finite differences
        res = pairwise_margin_loss(s, lam)
        fd = _fd_grad(lambda x: pairwise_margin_loss(x, lam).value, s)
        assert np.allclose(np.asarray(res.grad), fd, atol=1e-6)
        checked += 1


def test_pairwise_zero_iff_margins_met():
    rng = np.random.default_rng(8)
    lam = 0.05
    for _ in range(200):
        s = rng.normal(size=4)
        value = pairwise_margin_loss(s, lam).value
        satisfied = all(
            s[i] - s[j] >= (j - i) * lam - 1e-15
            for i in range(4)
            for j in range(i + 1, 4)
        )
        assert (value == 0.0) == satisfied


def _pairwise_per_call_oracle(scores, base_margin):
    """The loss with its rank-gap grid and upper mask built afresh on every call."""
    s = np.asarray(scores, dtype=np.float64)
    n = s.shape[0]
    ranks = np.arange(n)
    gaps = ranks[None, :] - ranks[:, None]
    hinge = s[None, :] - s[:, None] + gaps * float(base_margin)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    active = upper & (hinge > 0.0)
    value = float(hinge[active].sum())
    grad = active.sum(axis=0).astype(np.float64) - active.sum(axis=1).astype(np.float64)
    return value, grad


def test_pairwise_equals_per_call_oracle_bitwise():
    # Alternating margins at each size would catch a grid cached under the
    # wrong key; scores near the margin scale leave some pairs active.
    rng = np.random.default_rng(29)
    for n in (2, 10, 11, 48):
        for base_margin in (0.01, 0.02, 0.01):
            for _ in range(5):
                s = rng.normal(scale=0.05 * n, size=n)
                got = pairwise_margin_loss(s, base_margin)
                value, grad = _pairwise_per_call_oracle(s, base_margin)
                assert got.value == value
                assert got.grad.dtype == grad.dtype
                assert got.grad.tobytes() == grad.tobytes()


def test_pairwise_cached_grid_is_read_only():
    margins, upper = _margin_grid(10, 0.01)
    for grid in (margins, upper):
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 1] = 1


def test_pairwise_rejects_single_item():
    with pytest.raises(ValidationError):
        pairwise_margin_loss([1.0], 0.01)


# ----------------------------------------------------------- perm_prob

def test_perm_prob_uniform_three_items():
    for pi in itertools.permutations(range(3)):
        assert perm_prob([0.7, 0.7, 0.7], list(pi)) == pytest.approx(1 / 6)


def test_perm_prob_two_item_fixture():
    assert perm_prob([math.log(2), 0.0], [0, 1]) == pytest.approx(2 / 3)


def test_perm_prob_normalizes_over_all_permutations():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5, 6):
        s = rng.normal(scale=2.0, size=n)
        total = sum(perm_prob(s, list(pi)) for pi in itertools.permutations(range(n)))
        assert abs(total - 1.0) <= 1e-9


def test_perm_prob_matches_enumeration_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        s = rng.normal(size=n)
        pi = list(rng.permutation(n))
        assert perm_prob(s, pi) == pytest.approx(_perm_prob_oracle(s, pi), rel=1e-10)


def test_perm_prob_rejects_bad_permutation():
    with pytest.raises(ValidationError):
        perm_prob([0.0, 1.0, 2.0], [0, 0, 2])


def test_perm_prob_extreme_scores_stable():
    # max-subtraction keeps huge scores from overflowing
    p = perm_prob([1000.0, 999.0, 998.0], [0, 1, 2])
    assert 0.0 < p <= 1.0 and math.isfinite(p)


# ------------------------------------------------------- topk_perm_prob

def test_topk_uniform_fixture():
    assert topk_perm_prob([1.0] * 5, list(range(5)), 3) == pytest.approx(1 / 60)


def test_topk_k_equals_n_reduces_to_perm_prob():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        s = rng.normal(size=n)
        pi = list(rng.permutation(n))
        assert topk_perm_prob(s, pi, n) == pytest.approx(perm_prob(s, pi), rel=1e-12)


def test_topk_equals_prefix_marginal():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = 6
        s = rng.normal(size=n)
        pi = list(rng.permutation(n))
        for k in range(1, n + 1):
            marginal = sum(
                _perm_prob_oracle(s, list(pi[:k]) + list(rest))
                for rest in itertools.permutations([i for i in pi if i not in pi[:k]])
            )
            assert abs(topk_perm_prob(s, pi, k) - marginal) <= 1e-9


def test_topk_rejects_out_of_range_k():
    with pytest.raises(ValidationError):
        topk_perm_prob([0.0, 1.0], [0, 1], 3)
    with pytest.raises(ValidationError):
        topk_perm_prob([0.0, 1.0], [0, 1], 0)


# ----------------------------------------------------- topk_distribution

def test_topk_distribution_uniform_fixture():
    dist = topk_distribution([2.0] * 5, list(range(5)), 3)
    assert np.allclose(dist, [1 / 5, 1 / 20, 1 / 60])


def test_topk_distribution_k1_is_softmax_weight():
    s = np.array([0.3, -0.1, 1.2, 0.0])
    pi = [2, 0, 3, 1]
    dist = topk_distribution(s, pi, 1)
    soft = np.exp(s - s.max())
    assert dist[0] == pytest.approx(float(soft[2] / soft.sum()))


def test_topk_distribution_components_match_topk_perm_prob():
    rng = np.random.default_rng(45)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        s = rng.normal(size=n)
        pi = list(rng.permutation(n))
        k = int(rng.integers(1, n + 1))
        dist = topk_distribution(s, pi, k)
        assert len(dist) == k
        for j in range(1, k + 1):
            assert dist[j - 1] == pytest.approx(topk_perm_prob(s, pi, j), rel=1e-12)


# ------------------------------------------------------ kl_listwise_loss

def test_kl_zero_at_equality():
    s = [0.9, 0.1, 0.4, 0.7]
    assert kl_listwise_loss(s, s, 3).value == pytest.approx(0.0, abs=1e-15)


def test_kl_shift_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        gold = rng.uniform(size=n)
        c = float(rng.normal(scale=5.0))
        res = kl_listwise_loss(gold + c, gold, min(3, n))
        assert abs(res.value) <= 1e-9


def test_kl_two_item_fixture():
    res = kl_listwise_loss([0.0, 0.0], [math.log(2), 0.0], 1)
    assert res.value == pytest.approx((2 / 3) * math.log((2 / 3) / 0.5), abs=1e-9)
    assert res.value == pytest.approx(0.19179, abs=5e-6)


def test_kl_gradient_matches_finite_differences():
    rng = np.random.default_rng(27)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n + 1))
        gold = rng.uniform(size=n)
        pred = rng.normal(size=n)
        res = kl_listwise_loss(pred, gold, k)
        fd = _fd_grad(lambda x: kl_listwise_loss(x, gold, k).value, pred)
        worst = max(worst, _rel_err(np.asarray(res.grad), fd))
    assert worst <= 1e-4


def _kl_grad_loop_oracle(pred, gold, k):
    """The listwise gradient as one pass per prefix length j = 1..k."""
    pred = np.asarray(pred, dtype=float)
    n = len(pred)
    pi = np.asarray(rank_descending(list(gold)))
    p_gold = topk_distribution(gold, pi, k)
    e = np.exp(pred - pred.max())
    tails = np.cumsum(e[pi][::-1])[::-1]
    inv_tail_cum = np.cumsum(1.0 / tails)
    pos = np.empty(n, dtype=int)
    pos[pi] = np.arange(n)
    grad = np.zeros(n)
    for j in range(1, k + 1):
        indicator = (pos <= j - 1).astype(float)
        coupling = e * inv_tail_cum[np.minimum(j - 1, pos)]
        grad += -p_gold[j - 1] * (indicator - coupling)
    return grad


def test_kl_gradient_matches_loop_oracle():
    # Closed-form sums reorder the float additions, so equality is up to a
    # few ulps of the largest gradient entry.
    rng = np.random.default_rng(53)
    for _ in range(500):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(1, n + 1))
        gold = rng.integers(0, 4, size=n) / 4.0 if rng.random() < 0.3 else rng.uniform(size=n)
        pred = rng.normal(scale=float(rng.choice([0.1, 1.0, 10.0])), size=n)
        got = kl_listwise_loss(pred, gold, k).grad
        want = _kl_grad_loop_oracle(pred, gold, k)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_kl_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        kl_listwise_loss([0.0, 1.0], [0.0, 1.0, 2.0], 1)


def test_kl_reference_is_gold_order():
    # gold scores with a clear order; reference permutation must sort them
    gold = [0.1, 0.9, 0.5]
    pred = [0.9, 0.1, 0.5]  # reversed quality
    res = kl_listwise_loss(pred, gold, 3)
    assert res.value > 0.0  # mismatched order costs something
    pi = rank_descending(gold)
    assert pi == [1, 2, 0]


# ------------------------------------------------------ bce_locator_loss

def test_bce_midpoint_score():
    res = bce_locator_loss([0.0, 0.0], [1.0, 0.0])
    assert res.value == pytest.approx(math.log(2))


def test_bce_saturated_correct():
    res = bce_locator_loss([20.0, -20.0], [1.0, 0.0])
    assert res.value <= 1e-8


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 10))
        s = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n).astype(float)
        res = bce_locator_loss(s, labels)
        fd = _fd_grad(lambda x: bce_locator_loss(x, labels).value, s)
        worst = max(worst, _rel_err(np.asarray(res.grad), fd))
    assert worst <= 1e-4


def test_bce_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        bce_locator_loss([0.0], [1.0, 0.0])


# ---------------------------------------------------- mse_simulator_loss

def test_mse_zero_at_match():
    res = mse_simulator_loss([0.2, 0.8], [0.2, 0.8])
    assert res.value == 0.0
    assert np.all(np.asarray(res.grad) == 0.0)


def test_mse_fixture():
    assert mse_simulator_loss([1.0, 0.0], [0.0, 0.0]).value == pytest.approx(0.5)


def test_mse_gradient_closed_form_and_fd():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        s = rng.normal(size=n)
        gold = rng.uniform(size=n)
        res = mse_simulator_loss(s, gold)
        assert np.allclose(np.asarray(res.grad), 2 * (s - gold) / n)
        fd = _fd_grad(lambda x: mse_simulator_loss(x, gold).value, s)
        assert _rel_err(np.asarray(res.grad), fd) <= 1e-4


# ------------------------------------------------------------- properties

def test_shift_invariance_of_probabilities():
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        s = rng.normal(size=n)
        c = float(rng.normal(scale=10.0))
        pi = list(rng.permutation(n))
        k = int(rng.integers(1, n + 1))
        assert abs(perm_prob(s, pi) - perm_prob(s + c, pi)) <= 1e-9
        assert abs(topk_perm_prob(s, pi, k) - topk_perm_prob(s + c, pi, k)) <= 1e-9
        assert np.max(np.abs(
            np.asarray(topk_distribution(s, pi, k)) - np.asarray(topk_distribution(s + c, pi, k))
        )) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 12),
    data=st.data(),
    pred_shift=st.floats(-50.0, 50.0),
    gold_shift=st.integers(-200, 200),
)
def test_kl_invariant_under_shifting_either_side(n, data, pred_shift, gold_shift):
    pred = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n), label="pred"))
    # Gold in quarters, shifted by quarters: every sum is exact, so the shift
    # can neither create nor break a tie in the gold order.
    quarters = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n), label="gold")
    gold = np.array(quarters) / 4
    k = data.draw(st.integers(1, n), label="k")
    base = kl_listwise_loss(pred, gold, k)
    for moved_pred, moved_gold in ((pred + pred_shift, gold), (pred, gold + gold_shift / 4)):
        moved = kl_listwise_loss(moved_pred, moved_gold, k)
        assert abs(moved.value - base.value) <= 1e-9
        assert np.max(np.abs(moved.grad - base.grad)) <= 1e-9


def test_rank_descending_invariant_under_increasing_transform():
    rng = np.random.default_rng(61)
    for _ in range(50):
        s = rng.normal(size=8)
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.normal())
        assert rank_descending(list(s)) == rank_descending(list(a * s + b))
