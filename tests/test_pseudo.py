import numpy as np
import pytest

from oracles import flood_fill_components, union_find_lcc
from switchlab.mss import switch_pair
from switchlab.pseudo import largest_connected_component, pseudo_labels


def test_empty_and_single_component_pass_through():
    empty = np.zeros((5, 5), dtype=np.uint8)
    assert np.array_equal(largest_connected_component(empty), empty)
    single = np.zeros((5, 5), dtype=np.uint8)
    single[1:3, 1:4] = 1
    assert np.array_equal(largest_connected_component(single), single)


def test_keeps_largest_of_two_blobs():
    mask = np.zeros((12, 12), dtype=np.uint8)
    mask[0:3, 0:3] = 1     # 9 pixels
    mask[8:10, 8:10] = 1   # 4 pixels
    out = largest_connected_component(mask)
    expected = np.zeros_like(mask)
    expected[0:3, 0:3] = 1
    assert np.array_equal(out, expected)


def test_tie_breaks_to_first_row_major_pixel():
    mask = np.zeros((16, 16), dtype=np.uint8)
    mask[0:2, 0:2] = 1
    mask[10:12, 10:12] = 1
    out = largest_connected_component(mask)
    expected = np.zeros_like(mask)
    expected[0:2, 0:2] = 1
    assert np.array_equal(out, expected)


def test_diagonal_blobs_are_separate_components():
    # 4-connectivity: diagonal adjacency does not connect
    mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    out = largest_connected_component(mask)
    assert out.sum() == 1
    assert out[0, 0] == 1  # tie broken to the earlier pixel


def test_output_subset_and_single_component_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        mask = (rng.uniform(size=(12, 12)) > 0.6).astype(np.uint8)
        out = largest_connected_component(mask)
        assert np.all(mask[out == 1] == 1)  # output subset of input
        comps = flood_fill_components(out)
        assert len(comps) <= 1
        # idempotent
        assert np.array_equal(largest_connected_component(out), out)


def test_matches_union_find_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(300):
        mask = (rng.uniform(size=(9, 9)) > rng.uniform(0.3, 0.8)).astype(np.uint8)
        assert np.array_equal(largest_connected_component(mask), union_find_lcc(mask))


def test_predict_pseudo_label_uniform_logits_all_background():
    labels = pseudo_labels(np.zeros((1, 2, 8, 8)))
    assert labels.shape == (1, 8, 8)
    assert labels.sum() == 0


def test_predict_pseudo_label_all_foreground():
    logits = np.zeros((1, 2, 8, 8))
    logits[:, 1] = 10.0
    assert pseudo_labels(logits).all()


def test_predict_pseudo_label_filters_minor_blob():
    blob_big = np.zeros((16, 16), dtype=bool)
    blob_big[2:5, 2:5] = True   # 9 pixels
    blob_small = np.zeros((16, 16), dtype=bool)
    blob_small[10:12, 10:12] = True  # 4 pixels
    logits = np.zeros((2, 2, 16, 16))
    logits[0, 1][blob_big | blob_small] = 5.0
    logits[1, 1][blob_small] = 5.0
    labels = pseudo_labels(logits)
    # each image of the batch is filtered on its own
    assert np.array_equal(labels[0] == 1, blob_big)
    assert np.array_equal(labels[1] == 1, blob_small)


def test_predict_pseudo_label_rejects_bad_teacher():
    with pytest.raises(ValueError):
        pseudo_labels(np.zeros((2, 8, 8)))  # one image's logits, no batch axis
    with pytest.raises(ValueError):
        pseudo_labels(np.zeros((1, 3, 8, 8)))  # three classes


def test_lcc_applies_after_composition_shapes():
    # sanity: composing masks then filtering leaves a single component
    rng = np.random.default_rng(2)
    a = (rng.uniform(size=(10, 10)) > 0.5).astype(np.uint8)
    b = (rng.uniform(size=(10, 10)) > 0.5).astype(np.uint8)
    m = rng.uniform(size=(10, 10)) > 0.5
    mixed, _ = switch_pair(b, b, a, a, m)
    out = largest_connected_component(mixed)
    assert len(flood_fill_components(out)) <= 1
