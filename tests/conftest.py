"""Shared fixtures: small hand-built corpora used across test modules."""

import numpy as np
import pytest

from uttrank.corpus import Corpus, QueryInstance, Utterance


def make_instance(instance_id="inst-0", meeting_id="meet-0", query="find the tabby cat", texts=None, speakers=None):
    texts = texts if texts is not None else [
        "the tabby cat sat on the mat",
        "budget spreadsheets were reviewed line by line",
        "a tabby cat chased the laser dot",
        "lunch orders arrived late again",
        "the cat meowed at the tabby door",
        "someone fixed the projector cable",
    ]
    speakers = speakers or ["alice", "bob"] * 3
    utts = tuple(
        Utterance(meeting_id=meeting_id, index=i, speaker=speakers[i % len(speakers)], text=t)
        for i, t in enumerate(texts)
    )
    return QueryInstance(
        instance_id=instance_id,
        meeting_id=meeting_id,
        query=query,
        utterances=utts,
        gold_summary="the tabby cat sat on the mat and chased the laser dot",
    )


def flat(model_or_gradient):
    """Every weight array, then every bias array, as one vector: compares two models or gradients."""
    parts = [p.ravel() for p in (*model_or_gradient.weights, *model_or_gradient.biases)]
    return np.concatenate(parts) if parts else np.zeros(0)


@pytest.fixture
def tiny_instance():
    return make_instance()


@pytest.fixture
def tiny_corpus():
    return Corpus(
        instances=(
            make_instance("inst-0", "meet-0"),
            make_instance(
                "inst-1",
                "meet-1",
                query="what broke in the demo",
                texts=[
                    "the demo crashed when the cable slipped",
                    "we rebooted the projector twice",
                    "coffee was excellent today",
                    "the crash traced back to a loose cable",
                    "next sprint starts monday",
                ],
            ),
        ),
        split="train",
    )
