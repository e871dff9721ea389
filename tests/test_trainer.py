"""Training loops, objective assemblies, and the gradient-check utility."""

import hashlib
import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uttrank import scorer
from uttrank.corpus import Corpus, QueryInstance, Utterance
from uttrank.errors import ValidationError
from uttrank.pipeline import PipelineConfig
from uttrank.ranklosses import LossResult
from uttrank.rouge import gold_relevance
from uttrank.scorer import (
    FEATURE_DIM,
    apply_gradient,
    flat_params,
    init_model,
    instance_features,
    num_params,
    save_model,
)
from uttrank.synthesis import synth_corpus, synth_splits
from uttrank.trainer import (
    LossAssembly,
    TrainConfig,
    grad_check,
    locator_labels,
    make_objective_assembly,
    prepare_corpus,
    train_baseline,
    train_ranker,
    train_reranker,
)
from tests import counter_oracles
from tests.conftest import make_instance


@pytest.fixture(scope="module")
def planted():
    return prepare_corpus(synth_corpus(40, n_utterances=20, seed=11))


# -------------------------------------------------------------- TrainConfig

def test_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        TrainConfig(objective="hinge")
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="learning_rate"):
            TrainConfig(learning_rate=bad)
    for bad in (math.nan, math.inf, -5.0):
        with pytest.raises(ValidationError, match="base_margin"):
            TrainConfig(base_margin=bad)


def test_zero_learning_rate_update_is_identity():
    # the config invariant keeps lr positive; the optimizer step itself is
    # linear in lr, so a zero step moves nothing
    model = init_model((FEATURE_DIM, 4, 1), seed=0)
    before = flat_params(model).copy()
    grad = type(
        "G", (), {"weights": [np.ones_like(w) for w in model.weights], "biases": [np.ones_like(b) for b in model.biases]}
    )()
    apply_gradient(model, grad, 0.0)
    assert np.array_equal(flat_params(model), before)


# ------------------------------------------------------------ prepare_corpus

_WORDS = ["the", "tabby", "Cat", "cat's", "sat", "on", "mat.", "alice", "Bob", "budget", "42"]
_texts = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=20).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(
    meetings=st.lists(
        st.tuples(_texts, st.lists(_texts, min_size=1, max_size=6), _texts), min_size=1, max_size=3
    )
)
def test_prepared_instances_equal_string_oracles(meetings):
    corpus = Corpus(
        instances=tuple(
            replace(
                make_instance(f"inst-{i}", f"meet-{i}", query=query, texts=texts),
                gold_summary=summary,
            )
            for i, (query, texts, summary) in enumerate(meetings)
        ),
        split="train",
    )
    prepared = prepare_corpus(corpus)
    assert [prep.instance for prep in prepared] == list(corpus)
    for prep in prepared:
        inst = prep.instance
        assert prep.features.tolist() == instance_features(inst).tolist()
        assert prep.relevance.tolist() == [
            gold_relevance(u.text, inst.gold_summary) for u in inst.utterances
        ]


def _prepared_digests(**shape) -> tuple[str, str]:
    """SHA-256 of the prepared features and of the labels of a small seeded corpus."""
    features, relevance = hashlib.sha256(), hashlib.sha256()
    for corpus in synth_splits(5, 0, 3, seed=12, **shape).values():
        for prep in prepare_corpus(corpus):
            features.update(prep.features.tobytes())
            relevance.update(prep.relevance.tobytes())
    return features.hexdigest(), relevance.hexdigest()


def test_prepared_data_digest():
    # Literals taken from the Counter-based featurization and labelling this
    # array code replaced: any low-bit drift in a feature or label moves them.
    assert _prepared_digests(n_utterances=30) == (
        "b90a09240f0d6f18f99696516f9910e7f33a156a2d054bba3cdc9e9b0a648d34",
        "ba9bd4855b61364bd9dc16293bbbab929da14a738e2d8639f6987332ab975970",
    )


def test_prepared_data_digest_long_utterances():
    # Longtext-shaped rows hold many distinct terms, so their tf-idf sums are
    # long; literals taken from the feature code with Python-power squares and
    # zero-padded cumulative sums.
    assert _prepared_digests(n_utterances=30, min_tokens=30, max_tokens=40, summary_words=80) == (
        "02410930d8b08d419fefd3a1ff0ff5e1ab65f86a6b4f58ec0a941fdb096c2b0b",
        "f6877f37747b6e76b79bfd02c429a804e720fb68f9f29c6680f149066d5953fe",
    )


# One train split shaped like each benchmark workload: (instances, synth_corpus keywords).
_WORKLOAD_SHAPES = {
    "qf40": (20, dict(n_utterances=40)),
    "long160": (5, dict(n_utterances=160)),
    "longtext": (10, dict(n_utterances=40, min_tokens=30, max_tokens=40, summary_words=80)),
}


@pytest.mark.parametrize(
    "workload, digests",
    [
        (
            "qf40",
            (
                "ad6f07f556524a1f3735065d55d342aaf74767f5160b8ddbd2932539e600d2f3",
                "74eae1164c33436a05af20c6f9a6aa92822a2f745dc1052ee7b81249e0f1d883",
            ),
        ),
        (
            "long160",
            (
                "d1776963067b2d5f6a3e1a61f0da92feb238addc0442e5c8e4496a8ce0567ea5",
                "560e880944be79a39c7be762b68ad647bd61462950bca06f777414b6f46bc15d",
            ),
        ),
        (
            "longtext",
            (
                "a940ccf0d02e7d3e4e292882de9a1b0881928571badffc72d2766ae68e999498",
                "c734cb5d150b8f261da1232580e7547415d4779371b57977a83188b6baab8a27",
            ),
        ),
    ],
)
def test_prepared_bytes_of_workload_shapes(workload, digests):
    # Literals taken from the one-instance-at-a-time preparation that chunked
    # preparation replaced; several chunks per split, so a bit that drifts
    # with chunking fails here.
    n_instances, shape = _WORKLOAD_SHAPES[workload]
    corpus = synth_splits(n_instances, 0, 0, seed=28, **shape)["train"]
    features, relevance = hashlib.sha256(), hashlib.sha256()
    for prep in prepare_corpus(corpus):
        features.update(prep.features.tobytes())
        relevance.update(prep.relevance.tobytes())
    assert (features.hexdigest(), relevance.hexdigest()) == digests


# Instances draw from one small pool, so tokens recur across instances and an
# idf or vocabulary leaking between instances of a chunk shows.
_SHARED = ["tabby", "cat", "sat", "mat", "alice", "bob", "budget", "42"]
_STOP = ["the", "what", "did", "and", "about"]
_chunk_instances = st.lists(
    st.tuples(
        st.one_of(
            st.lists(st.sampled_from(_STOP), min_size=1, max_size=4),  # stopwords only
            # "zebra" is a query token that no utterance holds
            st.lists(st.sampled_from(_SHARED + _STOP + ["zebra"]), min_size=1, max_size=6),
        ).map(" ".join),
        # one-utterance instances and repeated tokens in a row
        st.lists(
            st.lists(st.sampled_from(_SHARED + _STOP), min_size=1, max_size=12).map(" ".join),
            min_size=1,
            max_size=5,
        ),
        # summaries up to 90 tokens: LCS masks wider than 64 bits
        st.lists(st.sampled_from(_SHARED + _STOP), min_size=1, max_size=90).map(" ".join),
    ),
    min_size=1,
    max_size=6,
)


def _chunked(corpus: Corpus, chunk_tokens: int) -> list:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scorer, "CHUNK_TOKENS", chunk_tokens)
        return prepare_corpus(corpus)


@settings(max_examples=150, deadline=None)
@given(meetings=_chunk_instances)
@example(
    meetings=[
        ("what did the", ["cat sat"], " ".join(["the tabby cat sat on the mat"] * 12)),
        ("zebra cat cat", ["cat cat cat sat", "the mat", "tabby cat"], "tabby cat sat"),
        ("alice budget", ["alice 42 budget budget", "bob"], "budget 42 alice"),
    ]
)
def test_chunking_leaves_every_bit(meetings):
    corpus = Corpus(
        instances=tuple(
            replace(
                make_instance(f"inst-{i}", f"meet-{i}", query=query, texts=texts),
                gold_summary=summary,
            )
            for i, (query, texts, summary) in enumerate(meetings)
        ),
        split="train",
    )
    apart = _chunked(corpus, 1)  # every instance its own chunk
    together = _chunked(corpus, 10**9)  # one chunk
    for inst, one, all_ in zip(corpus, apart, together):
        assert one.instance is inst and all_.instance is inst
        assert np.array_equal(one.features, all_.features)
        assert np.array_equal(one.relevance, all_.relevance)
        stats = scorer.InstanceStats.from_instance(inst)
        oracle = counter_oracles.feature_rows(inst.query, inst.utterances, stats)
        assert np.array_equal(all_.features, np.array(oracle))
        labels = [gold_relevance(u.text, inst.gold_summary) for u in inst.utterances]
        assert np.array_equal(all_.relevance, np.array(labels))


def _preparation_peak(corpus: Corpus) -> int:
    """tracemalloc's peak during prepare_corpus, less the bytes of the arrays it returns."""
    tracemalloc.start()
    try:
        prepared = prepare_corpus(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(p.features.nbytes + p.relevance.nbytes for p in prepared)


def test_preparation_memory_stays_per_chunk():
    # 24 instances hold about 11,500 utterance tokens, more than one chunk;
    # a split four times larger must not need more working memory.
    base = synth_corpus(24, n_utterances=40, seed=3)
    larger = synth_corpus(96, n_utterances=40, seed=3)
    assert _preparation_peak(larger) < 2 * _preparation_peak(base)


# ----------------------------------------------------------- locator labels

def test_locator_top_n_labels(planted):
    prep = planted[0]
    labels = locator_labels(prep, 5, use_spans=False)
    assert labels.sum() == 5
    ranked = np.argsort(-prep.relevance, kind="stable")
    assert set(np.flatnonzero(labels)) == set(ranked[:5])


def test_locator_span_labels():
    utts = tuple(
        Utterance(meeting_id="m", index=i, speaker="s", text=f"word{i} extra") for i in range(8)
    )
    inst = QueryInstance(
        instance_id="sp",
        meeting_id="m",
        query="word1 word2",
        utterances=utts,
        gold_summary="word1 word2 word3",
        relevant_spans=((2, 4), (7, 7)),
    )
    prepared = prepare_corpus(Corpus(instances=(inst,), split="train"))
    labels = locator_labels(prepared[0], 3, use_spans=True)
    assert list(np.flatnonzero(labels)) == [2, 3, 4, 7]


# ------------------------------------------------------------- determinism

def test_train_ranker_bit_identical(planted):
    prepared = planted
    cfg = TrainConfig(objective="pairwise", epochs=3, seed=5)
    a = train_ranker(prepared, cfg)
    b = train_ranker(prepared, cfg)
    assert np.array_equal(flat_params(a.model), flat_params(b.model))
    assert a.epoch_losses == b.epoch_losses


def test_train_baseline_bit_identical(planted):
    prepared = planted
    for objective in ("bce", "mse"):
        cfg = TrainConfig(objective=objective, epochs=2, seed=9)
        a = train_baseline(prepared, cfg)
        b = train_baseline(prepared, cfg)
        assert np.array_equal(flat_params(a.model), flat_params(b.model))


def test_train_reranker_bit_identical(planted):
    prepared = planted
    pcfg = PipelineConfig(sample_size=10, per_sample_top=3)
    stage1 = train_ranker(prepared, TrainConfig(epochs=2, seed=1), pipeline_config=pcfg).model
    cfg = TrainConfig(objective="listwise", epochs=2, seed=4)
    a = train_reranker(prepared, stage1, cfg, pipeline_config=pcfg)
    b = train_reranker(prepared, stage1, cfg, pipeline_config=pcfg)
    assert np.array_equal(flat_params(a.model), flat_params(b.model))


def test_checkpoint_digests(tmp_path):
    # Literals taken while the margin grid was still built on every call: a
    # low-bit drift in any parameter of any objective moves them.
    prepared = prepare_corpus(synth_splits(12, 0, 0, seed=3, n_utterances=20)["train"])
    pcfg = PipelineConfig(sample_size=10, per_sample_top=3)

    def digest(result):
        path = tmp_path / "model.json"
        save_model(result.model, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    stage1 = train_ranker(prepared, TrainConfig(epochs=2, seed=1), pcfg)
    listwise = TrainConfig(objective="listwise", epochs=2, seed=4)
    digests = {
        "pairwise": digest(stage1),
        "listwise": digest(train_reranker(prepared, stage1.model, listwise, pcfg)),
        **{
            objective: digest(
                train_baseline(prepared, TrainConfig(objective=objective, epochs=2, seed=9), pcfg)
            )
            for objective in ("bce", "mse")
        },
    }
    assert digests == {
        "pairwise": "758c2c712f872037ed02224c50ec4b6366eb0a8a005c3582a78b6bc5a8711031",
        "listwise": "a2359bf695bc2b89a038d98d760430457278c90562bed0605ed008fc7c2a6b92",
        "bce": "dda50e87e0d6feabb19889c3fdb407556e47e189bae8197c31ef6c9b39544a77",
        "mse": "4d7827d8fe7a5e93cf3c0dce05fe9acf9fbfecb0992325ca325fe96b52edcdda",
    }


def test_train_reranker_leaves_stage1_unchanged(planted):
    # Stage 1 is frozen: training the re-ranker reads it and never steps it.
    pcfg = PipelineConfig(sample_size=10, per_sample_top=3)
    stage1 = train_ranker(planted, TrainConfig(epochs=1, seed=1), pipeline_config=pcfg).model
    before = flat_params(stage1).tobytes()
    cfg = TrainConfig(objective="listwise", epochs=2, seed=4)
    reranker = train_reranker(planted, stage1, cfg, pipeline_config=pcfg).model
    assert flat_params(stage1).tobytes() == before
    assert flat_params(reranker).tobytes() != before


def test_different_seed_changes_model(planted):
    prepared = planted
    a = train_ranker(prepared, TrainConfig(epochs=1, seed=0))
    b = train_ranker(prepared, TrainConfig(epochs=1, seed=1))
    assert not np.array_equal(flat_params(a.model), flat_params(b.model))


# ------------------------------------------------------------ loss descent

def test_losses_drop_for_every_objective(planted):
    prepared = planted
    for objective in ("pairwise", "bce", "mse"):
        cfg = TrainConfig(objective=objective, epochs=10, seed=2)
        fn = train_ranker if objective == "pairwise" else train_baseline
        res = fn(prepared, cfg)
        assert len(res.epoch_losses) == 10
        assert res.epoch_losses[9] < res.epoch_losses[0], objective

    pcfg = PipelineConfig(sample_size=10, per_sample_top=3)
    stage1 = train_ranker(prepared, TrainConfig(epochs=10, seed=2), pipeline_config=pcfg).model
    res = train_reranker(
        prepared, stage1, TrainConfig(objective="listwise", epochs=10, seed=2), pipeline_config=pcfg
    )
    assert res.epoch_losses[9] < res.epoch_losses[0]


def test_mse_constant_targets_nonincreasing_loss():
    texts = [f"filler{i} padding{i} common words here" for i in range(6)]
    utts = tuple(
        Utterance(meeting_id="m", index=i, speaker="s", text=t) for i, t in enumerate(texts)
    )
    inst = QueryInstance(
        instance_id="const",
        meeting_id="m",
        query="common words",
        utterances=utts,
        gold_summary="irrelevant summary entirely elsewhere",
    )
    corpus = Corpus(instances=(inst,), split="train")
    cfg = TrainConfig(objective="mse", epochs=8, learning_rate=1e-3, seed=0)
    res = train_baseline(prepare_corpus(corpus), cfg)
    assert all(b <= a + 1e-12 for a, b in zip(res.epoch_losses, res.epoch_losses[1:]))


def test_bce_separable_fixture_converges():
    # positives repeat the query verbatim; negatives share nothing with it —
    # overlap features separate the classes with a wide margin
    query = "route the alpha cable through the main duct"
    pos = query
    neg = "unrelated banter regarding snacks and weather"
    instances = []
    for m in range(12):
        texts = [pos if i < 4 else neg for i in range(12)]
        utts = tuple(
            Utterance(meeting_id=f"m{m}", index=i, speaker="s", text=t)
            for i, t in enumerate(texts)
        )
        instances.append(
            QueryInstance(
                instance_id=f"sep-{m}",
                meeting_id=f"m{m}",
                query=query,
                utterances=utts,
                gold_summary=query,
            )
        )
    corpus = Corpus(instances=tuple(instances), split="train")
    cfg = TrainConfig(
        objective="bce", epochs=10, learning_rate=0.5, seed=0, locator_positives=4
    )
    res = train_baseline(prepare_corpus(corpus), cfg)
    assert res.epoch_losses[-1] < 0.1


def test_trainer_rejects_wrong_objective(planted):
    prepared = planted
    with pytest.raises(ValidationError):
        train_ranker(prepared, TrainConfig(objective="bce"))
    with pytest.raises(ValidationError):
        train_baseline(prepared, TrainConfig(objective="pairwise"))
    stage1 = init_model((FEATURE_DIM, 4, 1), seed=0)
    with pytest.raises(ValidationError, match="expects objective 'listwise'"):
        train_reranker(prepared, stage1, TrainConfig(objective="pairwise"))
    with pytest.raises(ValidationError, match="unknown objective 'nope'"):
        make_objective_assembly("nope", prepared[0].features, prepared[0].relevance)


def test_trainer_errors_on_corpus_without_pairs():
    utts = (Utterance(meeting_id="m", index=0, speaker="s", text="lonely utterance"),)
    inst = QueryInstance(
        instance_id="one", meeting_id="m", query="q", utterances=utts, gold_summary="g"
    )
    corpus = Corpus(instances=(inst,), split="train")
    with pytest.raises(ValidationError):
        train_ranker(prepare_corpus(corpus), TrainConfig())


# ------------------------------------------------------------ train_reranker

def test_listwise_zero_gap_means_zero_loss():
    # scores that already match gold up to a shift: every prefix probability
    # coincides with the gold one, so the loss value vanishes.  The truncated
    # prefix form is not pointwise stationary there (only the shift direction
    # is flat), so only the value and the net shift-component are pinned.
    rng = np.random.default_rng(21)
    targets = rng.uniform(size=6)
    features = rng.uniform(size=(6, FEATURE_DIM))
    features[:, 0] = targets + 0.3
    assembly = make_objective_assembly("listwise", features, targets, listwise_k=6)

    model = init_model((FEATURE_DIM, 1), seed=0)
    from uttrank.ranklosses import kl_listwise_loss
    from uttrank.scorer import set_flat_params

    params = np.zeros(FEATURE_DIM + 1)
    params[0] = 1.0  # score = feature[0] + 0 = target + 0.3
    set_flat_params(model, params)

    value, _ = assembly.value_and_grad(model)
    assert abs(value) <= 1e-12

    direct = kl_listwise_loss(targets + 0.3, targets, k=6)
    assert abs(direct.value) <= 1e-12
    assert abs(float(np.sum(direct.grad))) <= 1e-12


def test_reranker_skips_tiny_pools_and_errors_when_none_remain(caplog):
    utts = tuple(
        Utterance(meeting_id="m", index=i, speaker="s", text=f"text number {i}")
        for i in range(4)
    )
    inst = QueryInstance(
        instance_id="tiny", meeting_id="m", query="q", utterances=utts, gold_summary="g x"
    )
    corpus = Corpus(instances=(inst,), split="train")
    # one sample of 4, per_sample_top 1 → pool of a single candidate
    pcfg = PipelineConfig(sample_size=8, per_sample_top=1)
    stage1 = init_model((FEATURE_DIM, 1), seed=0)
    with caplog.at_level(logging.WARNING, logger="uttrank.trainer"):
        with pytest.raises(ValidationError):
            train_reranker(
                prepare_corpus(corpus), stage1, TrainConfig(objective="listwise"), pipeline_config=pcfg
            )
    assert any("pool" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("objective", ["pairwise", "bce", "listwise"])
def test_one_utterance_instance_is_skipped_and_changes_nothing(tiny_corpus, caplog, objective):
    # Its only window, and its pool, hold one utterance: no unit, and no change to the units.
    solo = make_instance("solo", "meet-solo", texts=["the tabby cat sat"])
    with_solo = Corpus(instances=(tiny_corpus.instances[0], solo, tiny_corpus.instances[1]))
    pcfg = PipelineConfig(sample_size=3, per_sample_top=2)
    config = TrainConfig(objective=objective, epochs=3, seed=5)

    def train(corpus):
        prepared = prepare_corpus(corpus)
        if objective == "listwise":
            stage1 = init_model((FEATURE_DIM, 4, 1), seed=1)
            return train_reranker(prepared, stage1, config, pipeline_config=pcfg)
        trainer = train_ranker if objective == "pairwise" else train_baseline
        return trainer(prepared, config, pipeline_config=pcfg)

    without = train(tiny_corpus)
    with caplog.at_level(logging.WARNING, logger="uttrank.trainer"):
        result = train(with_solo)
    assert np.array_equal(flat_params(result.model), flat_params(without.model))
    assert result.epoch_losses == without.epoch_losses
    assert [rec.getMessage() for rec in caplog.records] == [
        "skipping instance solo: its window or pool has 1 utterance(s)"
    ]


def test_reranker_beats_stage1_scores_on_pools(planted):
    # held-out pool ordering: the re-ranker's refined sort should not lose to
    # raw stage-1 scores on the same candidate pools
    from uttrank.evaluation import ndcg_at_k
    from uttrank.pipeline import stage1_pool, stage2_rerank
    from uttrank.scorer import score_utterances
    from uttrank.synthesis import synth_splits

    splits = synth_splits(120, 0, 30, n_utterances=40, seed=7)
    prep_train = prepare_corpus(splits["train"])
    prep_test = prepare_corpus(splits["test"])
    pcfg = PipelineConfig(sample_size=10, per_sample_top=3)
    stage1 = train_ranker(prep_train, TrainConfig(seed=0), pipeline_config=pcfg).model
    reranker = train_reranker(
        prep_train, stage1, TrainConfig(objective="listwise", seed=0), pipeline_config=pcfg
    ).model

    gains_rerank, gains_stage1 = [], []
    for prep in prep_test:
        s1 = score_utterances(stage1, prep.features)
        _, pool = stage1_pool(prep.instance, s1, pcfg)
        s2 = score_utterances(reranker, prep.features)
        order_rerank = stage2_rerank(pool, s2)
        order_stage1 = stage2_rerank(pool, s1)
        gains_rerank.append(ndcg_at_k(list(order_rerank), prep.relevance, 10))
        gains_stage1.append(ndcg_at_k(list(order_stage1), prep.relevance, 10))
    assert np.mean(gains_rerank) >= np.mean(gains_stage1)


# ---------------------------------------------------------------- grad_check

def _random_assembly(rng, objective):
    n = int(rng.integers(4, 9))
    features = rng.uniform(size=(n, FEATURE_DIM))
    if objective == "bce":
        targets = rng.integers(0, 2, size=n).astype(float)
    else:
        targets = rng.uniform(size=n)
    return make_objective_assembly(
        objective, features, targets, base_margin=0.01, listwise_k=min(3, n)
    )


def test_grad_check_passes_all_objectives():
    rng = np.random.default_rng(15)
    for objective in ("pairwise", "listwise", "bce", "mse"):
        for _ in range(5):
            assembly = _random_assembly(rng, objective)
            model = init_model((FEATURE_DIM, 8, 1), seed=int(rng.integers(10_000)))
            report = grad_check(assembly, model)
            assert report.passed, (objective, report.max_relative_error)


def test_grad_check_detects_corrupted_gradient():
    rng = np.random.default_rng(16)
    base = _random_assembly(rng, "mse")

    def corrupted(scores):
        res = base.loss_fn(scores)
        grad = np.asarray(res.grad, dtype=float).copy()
        grad[0] *= 2.0
        return LossResult(value=res.value, grad=grad)

    assembly = LossAssembly(feature_rows=base.feature_rows, loss_fn=corrupted)
    model = init_model((FEATURE_DIM, 6, 1), seed=1)
    report = grad_check(assembly, model)
    assert not report.passed


def test_grad_check_zero_parameter_model_vacuous_pass():
    model = init_model((1,), seed=0)
    assert num_params(model) == 0
    rng = np.random.default_rng(17)
    assembly = make_objective_assembly(
        "mse", rng.uniform(size=(3, 1)), rng.uniform(size=3)
    )
    report = grad_check(assembly, model)
    assert report.passed
    assert report.max_relative_error == 0.0


def test_grad_check_rejects_bad_epsilon():
    rng = np.random.default_rng(18)
    assembly = _random_assembly(rng, "mse")
    model = init_model((FEATURE_DIM, 4, 1), seed=0)
    with pytest.raises(ValidationError):
        grad_check(assembly, model, epsilon=0.0)
    with pytest.raises(ValidationError):
        grad_check(assembly, model, epsilon=1e-2)
