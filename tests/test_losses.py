import math
import tracemalloc

import numpy as np
import pytest

from oracles import infonce_loops
from switchlab import losses
from switchlab.grid import softmax_channels
from switchlab.losses import (
    LossWeights,
    consistency_mse_grad,
    cross_entropy_loss,
    cross_entropy_loss_grad,
    dice_loss,
    dice_loss_grad,
    infonce_contrastive,
    infonce_grad,
    l2_normalize_backward,
    l2_normalize_positions,
    mixed_region_terms_grad,
    mss_loss,
    pretrain_loss,
    pretrain_loss_grad,
    total_loss,
)


# ---------------------------------------------------------------------------
# dice


def test_dice_perfect_and_empty():
    g = (np.arange(16).reshape(4, 4) % 3 == 0).astype(np.uint8)
    assert dice_loss(g.astype(float), g) == pytest.approx(0.0, abs=1e-9)
    zero = np.zeros((4, 4))
    assert dice_loss(zero, np.zeros((4, 4), dtype=np.uint8)) == pytest.approx(0.0)


def test_dice_disjoint_closed_form():
    p = np.zeros((5, 5))
    g = np.zeros((5, 5), dtype=np.uint8)
    p[0, 0:5] = 1.0
    p[1, 0:5] = 1.0  # 10 predicted pixels
    g[3, 0:5] = 1
    g[4, 0:5] = 1    # 10 true pixels, disjoint
    expected = 1.0 - 1e-5 / (20.0 + 1e-5)
    assert dice_loss(p, g) == pytest.approx(expected, abs=1e-12)


def test_dice_zero_weights_give_zero():
    rng = np.random.default_rng(0)
    p = rng.uniform(size=(4, 4))
    g = (rng.uniform(size=(4, 4)) > 0.5).astype(np.uint8)
    loss, grad = dice_loss_grad(p, g, np.zeros((4, 4)))
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_dice_in_unit_interval():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.uniform(size=(6, 6))
        g = (rng.uniform(size=(6, 6)) > 0.5).astype(np.uint8)
        assert 0.0 <= dice_loss(p, g) <= 1.0


def test_dice_grad_matches_fd():
    rng = np.random.default_rng(2)
    p = rng.uniform(0.05, 0.95, size=(5, 5))
    g = (rng.uniform(size=(5, 5)) > 0.5).astype(np.uint8)
    w = rng.uniform(size=(5, 5))
    _, grad = dice_loss_grad(p, g, w)
    eps = 1e-6
    for idx in [(0, 0), (2, 3), (4, 4)]:
        pp, pm = p.copy(), p.copy()
        pp[idx] += eps
        pm[idx] -= eps
        fd = (dice_loss(pp, g, w) - dice_loss(pm, g, w)) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-10)


# ---------------------------------------------------------------------------
# cross-entropy


def test_ce_uniform_logits_ln2():
    logits = np.zeros((2, 3, 3))
    gt = np.ones((3, 3), dtype=np.uint8)
    assert cross_entropy_loss(logits, gt) == pytest.approx(math.log(2.0), abs=1e-12)


def test_ce_confident_correct_goes_to_zero():
    logits = np.zeros((2, 3, 3))
    logits[1] = 50.0
    gt = np.ones((3, 3), dtype=np.uint8)
    assert cross_entropy_loss(logits, gt) < 1e-20


def test_ce_hand_computed_2x2():
    logits = np.zeros((2, 2, 2))
    logits[0] = [[1.0, -1.0], [0.5, 2.0]]
    logits[1] = [[0.0, 1.0], [0.5, -2.0]]
    gt = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    probs = softmax_channels(logits[None])[0]
    expected = np.mean(
        [
            -math.log(probs[0, 0, 0]),
            -math.log(probs[1, 0, 1]),
            -math.log(probs[1, 1, 0]),
            -math.log(probs[0, 1, 1]),
        ]
    )
    assert cross_entropy_loss(logits, gt) == pytest.approx(expected, abs=1e-12)


def test_ce_zero_weights_and_grad_fd():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(2, 4, 4))
    gt = (rng.uniform(size=(4, 4)) > 0.5).astype(np.uint8)
    assert cross_entropy_loss(logits, gt, np.zeros((4, 4))) == 0.0
    w = rng.uniform(size=(4, 4))
    _, grad = cross_entropy_loss_grad(logits, gt, w)
    eps = 1e-6
    for idx in [(0, 1, 1), (1, 3, 2)]:
        lp, lm = logits.copy(), logits.copy()
        lp[idx] += eps
        lm[idx] -= eps
        fd = (cross_entropy_loss(lp, gt, w) - cross_entropy_loss(lm, gt, w)) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-12)


# ---------------------------------------------------------------------------
# region-weighted mixed loss


def test_mixed_region_all_true_mask_reduces_to_base():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(2, 2, 6, 6))
    base = (rng.uniform(size=(2, 6, 6)) > 0.5).astype(np.uint8)
    patch = (rng.uniform(size=(2, 6, 6)) > 0.5).astype(np.uint8)
    w = LossWeights(base_weight=1.0, patch_weight=0.5)
    m = np.ones((6, 6), dtype=bool)
    dice_t, ce_t, _ = mixed_region_terms_grad(logits, base, patch, m, w)
    got = 0.5 * (dice_t + ce_t)
    d = dice_loss(softmax_channels(logits)[:, 1], base, m.astype(float))
    c = cross_entropy_loss(logits, base, m.astype(float))
    assert got == pytest.approx(0.5 * (d + c), abs=1e-12)


def test_mixed_region_ce_additivity_on_half_masks():
    # with equal half-area regions and both weights 1/2, the CE part must
    # reassemble the whole-image CE exactly
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(2, 2, 4, 6))
    label = (rng.uniform(size=(2, 4, 6)) > 0.5).astype(np.uint8)
    m = np.zeros((4, 6), dtype=bool)
    m[:, :3] = True
    w = LossWeights(base_weight=0.5, patch_weight=0.5)
    _, ce_term, _ = mixed_region_terms_grad(logits, label, label, m, w)
    assert ce_term == pytest.approx(cross_entropy_loss(logits, label), abs=1e-12)


def test_mixed_region_perfect_prediction_zero_dice():
    base = np.zeros((4, 4), dtype=np.uint8)
    base[1:3, 1:3] = 1
    m = np.zeros((4, 4), dtype=bool)
    m[:2] = True
    composed = base[None]  # same label both sides for simplicity
    logits = np.zeros((1, 2, 4, 4))
    logits[:, 1][composed == 1] = 60.0
    logits[:, 0][composed == 0] = 60.0
    dice_term, _, _ = mixed_region_terms_grad(logits, composed, composed, m, LossWeights())
    assert dice_term == pytest.approx(0.0, abs=1e-6)


def test_mss_loss_arithmetic():
    assert mss_loss(0, 0, 0, 0) == 0.0
    assert mss_loss(1, 1, 1, 1) == 1.0
    assert mss_loss(0.2, 0.4, 0.6, 0.8) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        mss_loss(np.nan, 0, 0, 0)


# ---------------------------------------------------------------------------
# pretrain loss


def test_pretrain_loss_perfect_and_uniform():
    gt = np.zeros((1, 4, 4), dtype=np.uint8)
    gt[0, 1:3, 1:3] = 1
    logits = np.zeros((1, 2, 4, 4))
    logits[:, 1][gt == 1] = 60.0
    logits[:, 0][gt == 0] = 60.0
    assert pretrain_loss(logits, gt) == pytest.approx(0.0, abs=1e-6)

    uniform = np.zeros((1, 2, 4, 4))
    d = dice_loss(np.full((4, 4), 0.5), gt[0])
    expected = 0.5 * (d + math.log(2.0))
    assert pretrain_loss(uniform, gt) == pytest.approx(expected, abs=1e-12)


def test_pretrain_equals_mixed_region_with_trivial_mask():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(2, 2, 6, 6))
    gt = (rng.uniform(size=(2, 6, 6)) > 0.5).astype(np.uint8)
    w = LossWeights(base_weight=1.0, patch_weight=0.0)
    m = np.ones((6, 6), dtype=bool)
    dice_t, ce_t, _ = mixed_region_terms_grad(logits, gt, gt, m, w)
    assert pretrain_loss(logits, gt) == pytest.approx(0.5 * (dice_t + ce_t), abs=1e-12)


def test_pretrain_grad_matches_fd():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(2, 2, 4, 4))
    gt = (rng.uniform(size=(2, 4, 4)) > 0.5).astype(np.uint8)
    _, grad = pretrain_loss_grad(logits, gt)
    eps = 1e-6
    for idx in [(0, 0, 0, 0), (1, 1, 2, 3), (1, 0, 3, 1)]:
        lp, lm = logits.copy(), logits.copy()
        lp[idx] += eps
        lm[idx] -= eps
        fd = (pretrain_loss(lp, gt) - pretrain_loss(lm, gt)) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def _composed_region_terms(logits, labels, weights):
    # dice on the foreground softmax, chained to the logits, plus CE
    p_fg = softmax_channels(logits)[:, 1]
    dice, dp = dice_loss_grad(p_fg, labels, weights)
    ce, dce = cross_entropy_loss_grad(logits, labels, weights)
    jac = p_fg * (1.0 - p_fg)
    return dice, ce, np.stack([-dp * jac, dp * jac], axis=1) + dce


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_losses_equal_the_public_dice_and_ce_bit_for_bit(dtype):
    rng = np.random.default_rng(14)
    for _ in range(10):
        logits = (rng.normal(size=(3, 2, 9, 7)) * rng.choice([0.1, 3.0, 30.0])).astype(dtype)
        base = (rng.uniform(size=(3, 9, 7)) > 0.6).astype(np.uint8)
        patch = (rng.uniform(size=(3, 9, 7)) > 0.8).astype(np.uint8)
        m = rng.uniform(size=(9, 7)) > 0.5
        w = LossWeights(base_weight=float(rng.uniform()), patch_weight=float(rng.uniform()))
        d_b, c_b, g_b = _composed_region_terms(logits, base, m.astype(float))
        d_p, c_p, g_p = _composed_region_terms(logits, patch, (~m).astype(float))
        dice_t, ce_t, grad = mixed_region_terms_grad(logits, base, patch, m, w)
        assert dice_t == w.base_weight * d_b + w.patch_weight * d_p
        assert ce_t == w.base_weight * c_b + w.patch_weight * c_p
        assert _bitwise_equal(grad, w.base_weight * g_b + w.patch_weight * g_p)

        d, c, g = _composed_region_terms(logits, base, None)
        loss, grad = pretrain_loss_grad(logits, base)
        assert loss == 0.5 * (d + c)
        assert _bitwise_equal(grad, 0.5 * g)


def test_training_losses_take_batches_only():
    logits = np.zeros((2, 4, 4))
    labels = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        pretrain_loss_grad(logits, labels)
    with pytest.raises(ValueError):
        mixed_region_terms_grad(logits, labels, labels, labels.astype(bool), LossWeights())
    with pytest.raises(ValueError, match="shape mismatch"):
        pretrain_loss_grad(logits[None], np.zeros((2, 4, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# InfoNCE


def test_infonce_identical_vectors_zero():
    h = np.zeros((1, 3, 2))
    h[0, :, 0] = [1.0, 2.0, 3.0]
    h[0, :, 1] = [1.0, 2.0, 3.0]
    assert infonce_contrastive(h, h.copy(), 0.07) == pytest.approx(0.0, abs=1e-12)


def test_infonce_orthonormal_closed_form():
    tau = 0.07
    h = np.zeros((1, 2, 2))
    h[0, 0, 0] = 1.0
    h[0, 1, 1] = 1.0
    assert infonce_contrastive(h, h.copy(), tau) == pytest.approx(-1.0 / tau, abs=1e-9)


def test_infonce_requires_negatives_and_positive_tau():
    h = np.zeros((1, 3, 1))
    with pytest.raises(ValueError):
        infonce_contrastive(h, h, 0.07)
    h2 = np.zeros((1, 3, 2))
    with pytest.raises(ValueError):
        infonce_contrastive(h2, h2, 0.0)


def test_infonce_matches_loop_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        b = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 4))
        h = rng.normal(size=(b, dim, k))
        h_r = rng.normal(size=(b, dim, k))
        got = infonce_contrastive(h, h_r, 0.07)
        ref = infonce_loops(h, h_r, 0.07)
        assert got == pytest.approx(ref, abs=1e-10)
        got_inc = infonce_contrastive(h, h_r, 0.07, include_positive=True)
        ref_inc = infonce_loops(h, h_r, 0.07, include_positive=True)
        assert got_inc == pytest.approx(ref_inc, abs=1e-10)


def test_infonce_temperature_scaling_consistency():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(2, 3, 4))
    h_r = rng.normal(size=(2, 3, 4))
    assert infonce_contrastive(h, h_r, 0.14) == pytest.approx(
        infonce_loops(0.5 * h, h_r, 0.07), abs=1e-10
    )


def test_infonce_grad_matches_fd():
    rng = np.random.default_rng(10)
    h = rng.normal(size=(2, 3, 4))
    h_r = rng.normal(size=(2, 3, 4))
    _, grad = infonce_grad(h, h_r, 0.07)
    eps = 1e-6
    for idx in [(0, 0, 0), (1, 2, 3), (0, 1, 2)]:
        hp, hm = h.copy(), h.copy()
        hp[idx] += eps
        hm[idx] -= eps
        fd = (infonce_contrastive(hp, h_r, 0.07) - infonce_contrastive(hm, h_r, 0.07)) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def _dense_infonce_grad(h, h_r, tau, include_positive):
    """The whole (B, K, K) similarity matrix at once, in float64."""
    h = np.asarray(h, dtype=np.float64)
    h_r = np.asarray(h_r, dtype=np.float64)
    b, _, k = h.shape
    sims = np.einsum("bei,bej->bij", h, h_r) / tau
    pos = np.einsum("bii->bi", sims).copy()
    den = sims if include_positive else np.where(np.eye(k, dtype=bool), -np.inf, sims)
    m = den.max(axis=2, keepdims=True)
    expd = np.exp(den - m)
    lse = m[:, :, 0] + np.log(expd.sum(axis=2))
    p = expd / expd.sum(axis=2, keepdims=True)
    mix = np.einsum("bij,bej->bei", p, h_r)
    return float(-(pos - lse).sum() / (b * k)), (mix - h_r) / (b * k * tau)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("include_positive", [False, True])
@pytest.mark.parametrize("k_of_rows", [lambda r: r - 1, lambda r: r, lambda r: 2 * r + 37],
                         ids=["below_block", "one_block", "ragged_blocks"])
def test_infonce_blocks_match_the_dense_formula(dtype, include_positive, k_of_rows):
    rng = np.random.default_rng(12)
    k = k_of_rows(losses._INFONCE_ROWS)
    h, _ = l2_normalize_positions(rng.normal(size=(3, 8, k)))
    h_r, _ = l2_normalize_positions(h + 0.5 * rng.normal(size=h.shape))
    want_loss, want_grad = _dense_infonce_grad(h, h_r, 0.07, include_positive)
    loss, grad = infonce_grad(h.astype(dtype), h_r.astype(dtype), 0.07, include_positive)
    assert grad.dtype == dtype and grad.shape == h.shape
    rtol = 1e-10 if dtype == np.float64 else 1e-4
    assert loss == pytest.approx(want_loss, rel=rtol)
    assert np.abs(grad - want_grad).max() <= rtol * np.abs(want_grad).max()


def test_infonce_memory_stays_below_the_dense_similarity_matrix():
    rng = np.random.default_rng(13)
    b, k = 2, 2048
    h, _ = l2_normalize_positions(rng.normal(size=(b, 16, k)))
    h_r, _ = l2_normalize_positions(rng.normal(size=(b, 16, k)))
    tracemalloc.start()
    try:
        infonce_grad(h, h_r, 0.07)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense_bytes = b * k * k * 8
    assert peak < dense_bytes / 4, f"peak {peak / 2**20:.1f} MiB, one dense array {dense_bytes / 2**20:.0f} MiB"


def test_l2_normalize_and_backward_fd():
    rng = np.random.default_rng(11)
    h = rng.normal(size=(2, 3, 4))
    normed, norms = l2_normalize_positions(h)
    assert np.all(np.linalg.norm(normed, axis=1) <= 1.0 + 1e-12)
    upstream = rng.normal(size=normed.shape)
    grad = l2_normalize_backward(normed, norms, upstream)
    eps = 1e-7
    for idx in [(0, 0, 0), (1, 2, 1)]:
        hp, hm = h.copy(), h.copy()
        hp[idx] += eps
        hm[idx] -= eps
        fd = (
            (l2_normalize_positions(hp)[0] * upstream).sum()
            - (l2_normalize_positions(hm)[0] * upstream).sum()
        ) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------------------
# consistency and total


def test_consistency_mse_cases():
    a = np.zeros((2, 3, 3))
    assert consistency_mse_grad(a, a.copy())[0] == 0.0
    b = a + 2.0
    assert consistency_mse_grad(a, b)[0] == pytest.approx(4.0)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 4, 4))
    y = rng.normal(size=(2, 4, 4))
    ref = float(np.mean([(xi - yi) ** 2 for xi, yi in zip(x.ravel(), y.ravel())]))
    assert consistency_mse_grad(x, y)[0] == pytest.approx(ref, abs=1e-12)


def test_consistency_mse_grad_fd():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(2, 3, 3))
    b = rng.normal(size=(2, 3, 3))
    _, da, db = consistency_mse_grad(a, b)
    eps = 1e-6
    idx = (1, 2, 0)
    ap, am = a.copy(), a.copy()
    ap[idx] += eps
    am[idx] -= eps
    fd = (consistency_mse_grad(ap, b)[0] - consistency_mse_grad(am, b)[0]) / (2 * eps)
    assert da[idx] == pytest.approx(fd, rel=1e-6)
    assert np.allclose(db, -da)


def test_total_loss_linearity():
    w = LossWeights(lambda_contrastive=0.1, lambda_consistency=0.1)
    assert total_loss(1.0, 2.0, 3.0, w) == pytest.approx(1.5)
    assert total_loss(0.0, 0.0, 0.0, w) == 0.0
    w0 = LossWeights(lambda_contrastive=0.0, lambda_consistency=0.0)
    assert total_loss(0.7, 9.0, 9.0, w0) == pytest.approx(0.7)
    # exact linearity in each component
    base = total_loss(1.0, 2.0, 3.0, w)
    assert total_loss(1.0, 4.0, 3.0, w) - base == pytest.approx(0.2)
    assert total_loss(1.0, 2.0, 6.0, w) - base == pytest.approx(0.3)
    with pytest.raises(ValueError):
        total_loss(float("inf"), 0.0, 0.0, w)
