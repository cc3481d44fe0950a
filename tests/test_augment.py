import numpy as np
import pytest

from switchlab.augment import (
    STRONG_KINDS,
    WEAK_KINDS,
    AugmentationOp,
    AugmentPolicy,
    apply_augmentations,
    sample_augmentations,
)


def _sample_pair(rng, shape=(16, 16)):
    img = rng.uniform(size=shape)
    mask = (rng.uniform(size=shape) > 0.7).astype(np.uint8)
    return img, mask


def test_disabled_policy_yields_identity():
    policy = AugmentPolicy(max_ops=0)
    ops = sample_augmentations(policy, np.random.default_rng(0))
    assert ops == []
    rng = np.random.default_rng(1)
    img, mask = _sample_pair(rng)
    out_i, out_m = apply_augmentations(img, mask, ops)
    assert np.array_equal(out_i, img) and np.array_equal(out_m, mask)


def test_sampling_is_deterministic():
    policy = AugmentPolicy()
    a = sample_augmentations(policy, np.random.default_rng(42))
    b = sample_augmentations(policy, np.random.default_rng(42))
    assert a == b


def test_sampled_parameters_in_catalog_ranges():
    policy = AugmentPolicy(max_ops=10)
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(300):
        for op in sample_augmentations(policy, rng):
            seen.add(op.kind)
            if op.kind == "resize_crop":
                assert 0.8 <= op.params["scale"] <= 1.2
            elif op.kind == "gaussian_blur":
                assert 0.1 <= op.params["sigma"] <= 1.0
            elif op.kind in ("contrast", "brightness", "sharpness"):
                assert 0.75 <= op.params["factor"] <= 1.25
            elif op.kind == "posterize":
                assert op.params["bits"] in (4, 5, 6, 7, 8)
            elif op.kind == "solarize":
                assert 1 / 256 <= op.params["threshold"] < 1.0
    assert seen == set(WEAK_KINDS) | set(STRONG_KINDS)


def test_hflip_vflip_involutions():
    rng = np.random.default_rng(4)
    img, mask = _sample_pair(rng)
    for kind in ("hflip", "vflip"):
        op = [AugmentationOp(kind)]
        i1, m1 = apply_augmentations(img, mask, op)
        i2, m2 = apply_augmentations(i1, m1, op)
        assert np.array_equal(i2, img) and np.array_equal(m2, mask)
        assert m1.sum() == mask.sum()  # flips preserve foreground count


def test_solarize_max_threshold_is_identity():
    rng = np.random.default_rng(5)
    img, mask = _sample_pair(rng)
    out, _ = apply_augmentations(img, mask, [AugmentationOp("solarize", {"threshold": 1.0})])
    assert np.array_equal(out, img)


def test_solarize_inverts_strictly_above():
    img = np.array([[0.2, 0.5, 0.8]])
    mask = np.zeros_like(img, dtype=np.uint8)
    out, _ = apply_augmentations(img, mask, [AugmentationOp("solarize", {"threshold": 0.5})])
    assert out[0].tolist() == [0.2, 0.5, pytest.approx(0.2)]


def test_posterize_quantizes_to_levels():
    rng = np.random.default_rng(6)
    img, mask = _sample_pair(rng)
    out, _ = apply_augmentations(img, mask, [AugmentationOp("posterize", {"bits": 4})])
    scaled = out * 16
    assert np.allclose(scaled, np.round(scaled), atol=1e-9)


def test_autocontrast_stretches_and_fixes_constant():
    img = np.linspace(0.3, 0.6, 25).reshape(5, 5)
    mask = np.zeros_like(img, dtype=np.uint8)
    out, _ = apply_augmentations(img, mask, [AugmentationOp("autocontrast")])
    assert out.min() == pytest.approx(0.0) and out.max() == pytest.approx(1.0)
    const = np.full((5, 5), 0.42)
    out, _ = apply_augmentations(const, mask, [AugmentationOp("autocontrast")])
    assert np.array_equal(out, const)


def test_intensity_ops_leave_mask_untouched_and_stay_in_range():
    rng = np.random.default_rng(7)
    img, mask = _sample_pair(rng)
    for kind, params in [
        ("autocontrast", {}),
        ("gaussian_blur", {"sigma": 0.7}),
        ("contrast", {"factor": 1.25}),
        ("brightness", {"factor": 1.25}),
        ("sharpness", {"factor": 1.25}),
        ("posterize", {"bits": 5}),
        ("solarize", {"threshold": 0.4}),
    ]:
        out_i, out_m = apply_augmentations(img, mask, [AugmentationOp(kind, params)])
        assert np.array_equal(out_m, mask), kind
        assert out_i.min() >= 0.0 and out_i.max() <= 1.0, kind


def test_resize_crop_preserves_shape_and_mask_bounds():
    rng = np.random.default_rng(8)
    img, mask = _sample_pair(rng, shape=(20, 24))
    for scale in (0.8, 0.93, 1.0, 1.07, 1.2):
        out_i, out_m = apply_augmentations(
            img, mask, [AugmentationOp("resize_crop", {"scale": scale})]
        )
        assert out_i.shape == img.shape and out_m.shape == mask.shape
        assert set(np.unique(out_m)) <= {0, 1}
        assert 0 <= out_m.sum() <= mask.size
        assert out_i.min() >= 0.0 and out_i.max() <= 1.0


def test_resize_crop_scale_one_is_identity():
    rng = np.random.default_rng(9)
    img, mask = _sample_pair(rng)
    out_i, out_m = apply_augmentations(img, mask, [AugmentationOp("resize_crop", {"scale": 1.0})])
    assert np.allclose(out_i, img, atol=1e-12)
    assert np.array_equal(out_m, mask)


def test_flip_applies_identically_to_image_and_mask():
    rng = np.random.default_rng(10)
    img, mask = _sample_pair(rng)
    out_i, out_m = apply_augmentations(img, mask, [AugmentationOp("hflip")])
    assert np.array_equal(out_i, img[:, ::-1])
    assert np.array_equal(out_m, mask[:, ::-1])


def test_shape_mismatch_and_empty_rejected():
    with pytest.raises(ValueError):
        apply_augmentations(np.zeros((4, 4)), np.zeros((4, 5), dtype=np.uint8), [])
    with pytest.raises(ValueError):
        apply_augmentations(np.zeros((0, 4)), np.zeros((0, 4), dtype=np.uint8), [])
