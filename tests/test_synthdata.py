import numpy as np
import pytest

from oracles import flood_fill_components
from switchlab.errors import ConfigError, DataError
from switchlab.synthdata import (
    SynthConfig,
    generate_sample,
    load_dataset,
    make_dataset,
    save_dataset,
)

SMALL = SynthConfig(height=48, width=48, count=30, roi_fraction=(0.05, 0.18), seed=3)


def test_sample_shapes_and_ranges():
    rng = np.random.default_rng(0)
    img, mask = generate_sample(SMALL, rng)
    assert img.shape == (48, 48) and mask.shape == (48, 48)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert set(np.unique(mask)) <= {0, 1}


def test_sample_no_speckle_no_shadow_is_two_level():
    cfg = SynthConfig(
        height=48, width=48, count=1, roi_fraction=(0.05, 0.18),
        speckle=0.0, shadow_prob=0.0, seed=1,
    )
    rng = np.random.default_rng(5)
    img, mask = generate_sample(cfg, rng)
    assert img[mask == 1].mean() < img[mask == 0].mean()


def test_sample_foreground_fraction_in_range():
    cfg = SynthConfig(height=64, width=64, count=1, roi_fraction=(0.05, 0.2), seed=2)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        _, mask = generate_sample(cfg, rng)
        frac = mask.mean()
        # boundary rasterization tolerance on top of the configured range
        assert 0.03 <= frac <= 0.24


def test_sample_single_connected_component():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        _, mask = generate_sample(SMALL, rng)
        assert len(flood_fill_components(mask)) == 1


def test_sample_deterministic():
    a = generate_sample(SMALL, np.random.default_rng(9))
    b = generate_sample(SMALL, np.random.default_rng(9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_roi_background_separation_meets_contrast():
    cfg = SynthConfig(height=64, width=64, count=1, contrast=0.3, seed=4)
    seps = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        img, mask = generate_sample(cfg, rng)
        seps.append(img[mask == 0].mean() - img[mask == 1].mean())
    assert min(seps) >= cfg.contrast


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(count=0).validate()
    with pytest.raises(ConfigError):
        SynthConfig(roi_fraction=(0.0, 0.2)).validate()
    with pytest.raises(ConfigError):
        SynthConfig(roi_fraction=(0.2, 0.95)).validate()
    with pytest.raises(ConfigError):
        SynthConfig(height=64, width=64, roi_fraction=(0.1, 0.4)).validate()  # cannot fit


def test_make_dataset_counts_and_disjointness():
    split = make_dataset(SMALL, labeled_ratio=0.2, split_ratios=(0.8, 0.1, 0.1), seed=3)
    # floor(30*0.1) = 3 for val and test, remainder 24 trains
    assert len(split.val) == 3 and len(split.test) == 3
    assert len(split.labeled) == 4  # floor(0.2 * 24)
    assert len(split.unlabeled) == 20
    ids = split.id_sets()
    assert not (ids["labeled"] & ids["unlabeled"])
    assert not ((ids["labeled"] | ids["unlabeled"]) & (ids["val"] | ids["test"]))
    assert not (ids["val"] & ids["test"])


def test_make_dataset_full_ratio_and_too_low_ratio():
    split = make_dataset(SMALL, labeled_ratio=1.0, seed=3)
    assert not split.unlabeled
    with pytest.raises(DataError) as err:
        make_dataset(SMALL, labeled_ratio=0.01, seed=3)
    assert "minimum is 1" in str(err.value)


def test_make_dataset_is_pure_function_of_seed():
    a = make_dataset(SMALL, labeled_ratio=0.25, seed=11)
    b = make_dataset(SMALL, labeled_ratio=0.25, seed=11)
    assert [it.id for it in a.labeled] == [it.id for it in b.labeled]
    assert np.array_equal(a.labeled[0].image, b.labeled[0].image)
    assert np.array_equal(a.val[0].mask, b.val[0].mask)
    c = make_dataset(SMALL, labeled_ratio=0.25, seed=12)
    assert not np.array_equal(a.labeled[0].image, c.labeled[0].image)


def test_sealed_masks_guarded_and_counted():
    split = make_dataset(SMALL, labeled_ratio=0.2, seed=3)
    assert split.sealed_access_count == 0
    some_id = split.unlabeled[0].id
    mask = split.sealed_mask(some_id)
    assert mask.shape == (48, 48)
    assert split.sealed_access_count == 1
    assert all(it.mask is None for it in split.unlabeled)


def test_round_trip_on_disk(tmp_path):
    split = make_dataset(SMALL, labeled_ratio=0.2, seed=3)
    save_dataset(split, tmp_path)
    back = load_dataset(tmp_path)
    assert back.id_sets() == split.id_sets()
    # 8-bit quantization bound on images, masks exact
    for a, b in zip(split.labeled, back.labeled):
        assert a.id == b.id
        assert np.abs(a.image - b.image).max() <= 0.5 / 255 + 1e-12
        assert np.array_equal(a.mask, b.mask)
    for item in back.unlabeled:
        assert item.mask is None
    assert np.array_equal(
        back.sealed_mask(split.unlabeled[0].id), split.sealed_mask(split.unlabeled[0].id)
    )


def test_load_missing_manifest(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path / "nope")


@pytest.mark.parametrize(
    "manifest", ["{not json", "[]", '{"train": [{"labeled": true}]}', '{"test": ["t0"]}', '{"val": 3}']
)
def test_load_corrupt_manifest(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(DataError, match="manifest"):
        load_dataset(tmp_path)
