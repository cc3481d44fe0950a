import math

import numpy as np
import pytest

from switchlab.grid import argmax_channels, softmax_channels


def test_softmax_symmetry():
    logits = np.zeros((2, 2, 3, 3))
    probs = softmax_channels(logits)
    assert np.allclose(probs, 0.5)


def test_softmax_closed_form():
    logits = np.zeros((1, 2, 1, 1))
    logits[0, 0] = math.log(3.0)
    probs = softmax_channels(logits)
    assert probs[0, 0, 0, 0] == pytest.approx(0.75, abs=1e-12)
    assert probs[0, 1, 0, 0] == pytest.approx(0.25, abs=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 2, 4, 5))
    shifted = logits + 17.3
    assert np.allclose(softmax_channels(logits), softmax_channels(shifted), atol=1e-12)


def test_softmax_rejects_nonfinite():
    logits = np.zeros((1, 2, 2, 2))
    logits[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        softmax_channels(logits)
    logits[0, 0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        softmax_channels(logits)


def test_softmax_and_argmax_take_batches_only():
    with pytest.raises(ValueError, match="expected \\(N, C, H, W\\)"):
        softmax_channels(np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="expected \\(N, C, H, W\\)"):
        argmax_channels(np.zeros((2, 3, 3)))


def test_softmax_normalization_random_logits():
    rng = np.random.default_rng(1)
    for _ in range(20):
        logits = rng.uniform(-50, 50, size=(2, 2, 8, 8))
        probs = softmax_channels(logits)
        assert probs.min() >= 0.0 and probs.max() <= 1.0
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-6


def test_argmax_basic_and_tiebreak():
    probs = np.zeros((1, 2, 1, 3))
    probs[0, :, 0, 0] = (0.9, 0.1)
    probs[0, :, 0, 1] = (0.1, 0.9)
    probs[0, :, 0, 2] = (0.5, 0.5)
    labels = argmax_channels(probs)
    assert labels.tolist() == [[[0, 1, 0]]]


def test_argmax_commutes_with_softmax():
    rng = np.random.default_rng(2)
    for _ in range(50):
        logits = rng.normal(scale=10, size=(2, 2, 6, 6))
        assert np.array_equal(
            argmax_channels(softmax_channels(logits)), argmax_channels(logits)
        )
