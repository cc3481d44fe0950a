from fractions import Fraction

import numpy as np
import pytest

from switchlab.mss import (
    MssConfig,
    generate_bcp_mask,
    generate_multiscale_mask,
    mask_gradient_variance,
    max_coverage_fraction,
    switch_pair,
    switch_probability_map,
)


def test_full_size_single_patch_covers_everything():
    cfg = MssConfig(coarse_patches=1, fine_patches=0, coarse_size=48, fine_size=8)
    mask = generate_multiscale_mask(48, 48, cfg, np.random.default_rng(0))
    assert mask.all()


def test_mask_area_bound_and_paper_max():
    # 17/32 of a 256x256 raster = 34816 pixels, attained only without overlap
    cfg = MssConfig(2, 2, 128, 32)
    rng = np.random.default_rng(1)
    limit = 2 * 128**2 + 2 * 32**2
    assert limit == 34816
    for _ in range(50):
        mask = generate_multiscale_mask(256, 256, cfg, rng)
        assert mask.sum() <= limit


def test_every_pixel_reachable():
    # smaller raster/iterations keep the Monte Carlo cheap; same property
    cfg = MssConfig(2, 2, 32, 8)
    rng = np.random.default_rng(2)
    pmap = switch_probability_map(
        lambda r: generate_multiscale_mask(64, 64, cfg, r), 4000, rng
    )
    assert pmap.min() > 0.0


def test_mask_config_validation():
    with pytest.raises(ValueError):
        MssConfig(0, 0)
    with pytest.raises(ValueError):
        MssConfig(1, 1, coarse_size=300).validate(256, 256)
    with pytest.raises(ValueError):
        generate_multiscale_mask(100, 100, MssConfig(1, 1, 128, 32), np.random.default_rng(0))


def test_bcp_mask_geometry_and_determinism():
    rng = np.random.default_rng(3)
    full = generate_bcp_mask(64, 64, 1.0, rng)
    assert full.all()
    m = generate_bcp_mask(256, 256, 2.0 / 3.0, np.random.default_rng(5))
    assert m.sum() == 170**2 == 28900
    a = generate_bcp_mask(128, 128, 0.5, np.random.default_rng(7))
    b = generate_bcp_mask(128, 128, 0.5, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_switch_pair_extremes_and_recovery():
    rng = np.random.default_rng(4)
    shape = (16, 16)
    x1, x2, u1, u2 = (rng.uniform(size=shape) for _ in range(4))
    all_true = np.ones(shape, dtype=bool)
    mix_ub, mix_lb = switch_pair(x1, x2, u1, u2, all_true)
    assert np.array_equal(mix_ub, u1)
    assert np.array_equal(mix_lb, x2)
    mix_ub, mix_lb = switch_pair(x1, x2, u1, u2, ~all_true)
    assert np.array_equal(mix_ub, x1)
    assert np.array_equal(mix_lb, u2)

    m = rng.uniform(size=shape) > 0.5
    mix_ub, mix_lb = switch_pair(x1, x2, u1, u2, m)
    # each original is recoverable from itself plus the mixture: the mixture
    # already carries the original on one side of the mask
    assert np.array_equal(np.where(~m, u1, mix_ub), u1)
    assert np.array_equal(np.where(m, x1, mix_ub), x1)
    assert np.array_equal(np.where(~m, x2, mix_lb), x2)
    assert np.array_equal(np.where(m, u2, mix_lb), u2)


def test_switch_pair_constant_inputs():
    shape = (8, 8)
    c = np.full(shape, 0.25)
    m = np.random.default_rng(0).uniform(size=shape) > 0.5
    mix_ub, _ = switch_pair(c, c.copy(), c.copy(), c.copy(), m)
    assert np.allclose(mix_ub, 0.25)


def test_switch_pair_composition_identities():
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(5, 7))
    b = rng.uniform(size=(5, 7))
    m = rng.uniform(size=(5, 7)) > 0.5
    assert np.array_equal(switch_pair(a, a, a, a, m)[0], a)
    assert np.array_equal(switch_pair(b, b, a, a, np.ones_like(m))[0], a)
    # partition identity: the two mixtures of the pair (a, b) hold every pixel once
    ab, ba = switch_pair(b, b, a, a, m)
    assert np.allclose(ab + ba, a + b)
    # complement equivalence
    assert np.array_equal(ab, switch_pair(a, a, b, b, ~m)[0])


def test_switch_pair_shape_mismatch():
    with pytest.raises(ValueError):
        x, u = np.zeros((2, 2)), np.zeros((2, 3))
        switch_pair(x, x, u, u, np.zeros((2, 2), dtype=bool))


def test_switch_pair_broadcasts_one_mask_over_a_batch():
    rng = np.random.default_rng(9)
    x1, x2, u1, u2 = (rng.uniform(size=(3, 6, 6)) for _ in range(4))
    m = rng.uniform(size=(6, 6)) > 0.5
    mix_ub, mix_lb = switch_pair(x1, x2, u1, u2, m)
    for k in range(3):
        one_ub, one_lb = switch_pair(x1[k], x2[k], u1[k], u2[k], m)
        assert np.array_equal(mix_ub[k], one_ub) and np.array_equal(mix_lb[k], one_lb)


@pytest.mark.parametrize(
    "p,q,expected",
    [
        (1, 2, Fraction(9, 32)),
        (1, 4, Fraction(10, 32)),
        (2, 2, Fraction(17, 32)),
        (2, 4, Fraction(18, 32)),
        (3, 2, Fraction(25, 32)),
        (3, 4, Fraction(26, 32)),
    ],
)
def test_max_coverage_fraction_table(p, q, expected):
    cfg = MssConfig(p, q, 128, 32)
    assert max_coverage_fraction(cfg, 256, 256) == float(expected)


def test_max_coverage_is_capped():
    cfg = MssConfig(8, 0, 128, 32)
    assert max_coverage_fraction(cfg, 256, 256) == 1.0


def test_probability_map_trivial_cases():
    rng = np.random.default_rng(6)
    cfg = MssConfig(1, 1, 8, 4)
    single = switch_probability_map(lambda r: generate_multiscale_mask(16, 16, cfg, r), 1, rng)
    assert set(np.unique(single)) <= {0.0, 1.0}
    ones = switch_probability_map(lambda r: np.ones((4, 4), dtype=bool), 10, rng)
    assert np.array_equal(ones, np.ones((4, 4)))
    with pytest.raises(ValueError):
        switch_probability_map(lambda r: np.ones((2, 2), dtype=bool), 0, rng)


def test_gradient_variance_trivial_cases():
    assert mask_gradient_variance(np.full((10, 10), 0.4)) == 0.0
    ramp = np.tile(np.linspace(0, 1, 12), (9, 1))
    assert mask_gradient_variance(ramp) == pytest.approx(0.0, abs=1e-18)


def test_mss_beats_bcp_on_uniformity_small_scale():
    # direction of the published comparison, at a reduced raster for speed
    rng = np.random.default_rng(7)
    cfg = MssConfig(2, 2, 32, 8)
    pm_mss = switch_probability_map(
        lambda r: generate_multiscale_mask(64, 64, cfg, r), 3000, rng
    )
    pm_bcp = switch_probability_map(
        lambda r: generate_bcp_mask(64, 64, 2.0 / 3.0, r), 3000, np.random.default_rng(8)
    )
    assert pm_mss.std() < pm_bcp.std()
    assert mask_gradient_variance(pm_mss) < mask_gradient_variance(pm_bcp)


def test_determinism_same_seed():
    cfg = MssConfig(2, 2, 32, 8)
    a = generate_multiscale_mask(64, 64, cfg, np.random.default_rng(123))
    b = generate_multiscale_mask(64, 64, cfg, np.random.default_rng(123))
    assert np.array_equal(a, b)
