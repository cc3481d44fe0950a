import numpy as np
import pytest

from oracles import centered_shift, direct_dft2, direct_idft2
from switchlab.fds import (
    AmplitudePhase,
    FdsConfig,
    amplitude_phase,
    amplitude_switch,
    fds_batch,
    fds_pair,
    fft2_shifted,
    low_freq_region_mask,
    reconstruct,
)


def test_constant_image_is_dc_only():
    img = np.full((8, 8), 0.3)
    spec = fft2_shifted(img)
    expected = np.zeros((8, 8), dtype=complex)
    expected[4, 4] = 0.3 * 64
    assert np.allclose(spec, expected, atol=1e-12)


def test_zero_image_zero_spectrum():
    assert np.allclose(fft2_shifted(np.zeros((6, 6))), 0.0)


def test_matches_direct_dft_oracle():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(8, 8))
    spec = fft2_shifted(img)
    ref = centered_shift(direct_dft2(img))
    assert np.abs(spec - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())


def test_round_trip_through_amplitude_phase():
    rng = np.random.default_rng(1)
    img = rng.uniform(size=(8, 8))
    back = reconstruct(amplitude_phase(fft2_shifted(img)))
    assert np.abs(back - img).max() < 1e-9


def test_amplitude_phase_conventions():
    spec = np.array([[3.0 + 4.0j, 0.0]], dtype=complex)
    ap = amplitude_phase(spec)
    assert ap.amplitude[0, 0] == pytest.approx(5.0)
    assert ap.phase[0, 0] == pytest.approx(np.arctan2(4.0, 3.0))
    assert ap.amplitude[0, 1] == 0.0
    assert ap.phase[0, 1] == 0.0  # declared convention for the zero bin


def test_amplitude_phase_reassembly_bit_tight():
    rng = np.random.default_rng(2)
    spec = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    ap = amplitude_phase(spec)
    again = ap.amplitude * np.exp(1j * ap.phase)
    assert np.abs(again - spec).max() < 1e-12 * np.abs(spec).max()


def test_low_freq_region_paper_size():
    region = low_freq_region_mask(256, 256, 0.0175)
    assert region.sum() == 25  # floor(256*0.0175)/2 = 2 -> 5x5 block
    idx = np.argwhere(region)
    assert idx.min() == 126 and idx.max() == 130


def test_low_freq_region_degenerate_and_symmetry():
    region = low_freq_region_mask(64, 64, 0.01)  # floor(0.64) = 0 -> single bin
    assert region.sum() == 1
    assert region[32, 32]
    # symmetric under 180-degree rotation about the DC bin
    big = low_freq_region_mask(32, 48, 0.2)
    ci, cj = 16, 24
    for i, j in np.argwhere(big):
        ri, rj = 2 * ci - i, 2 * cj - j
        if 0 <= ri < 32 and 0 <= rj < 48:
            assert big[ri, rj]
    with pytest.raises(ValueError):
        low_freq_region_mask(32, 32, 0.0)
    with pytest.raises(ValueError):
        low_freq_region_mask(32, 32, 1.0)


def test_amplitude_switch_identities():
    rng = np.random.default_rng(3)
    a = np.abs(rng.normal(size=(8, 8)))
    b = np.abs(rng.normal(size=(8, 8)))
    region = low_freq_region_mask(8, 8, 0.3)
    same_x, same_u = amplitude_switch(a, a.copy(), region)
    assert np.array_equal(same_x, a) and np.array_equal(same_u, a)
    keep_x, keep_u = amplitude_switch(a, b, np.zeros((8, 8), dtype=bool))
    assert np.array_equal(keep_x, a) and np.array_equal(keep_u, b)
    swap_x, swap_u = amplitude_switch(a, b, np.ones((8, 8), dtype=bool))
    assert np.array_equal(swap_x, b) and np.array_equal(swap_u, a)
    with pytest.raises(ValueError):
        amplitude_switch(a, b[:4], region)


def test_reconstruct_matches_direct_idft():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(16, 16))
    u = rng.uniform(size=(16, 16))
    cfg = FdsConfig(area_ratio=0.2)
    x_r, u_r = fds_pair(x, u, cfg)

    region = low_freq_region_mask(16, 16, 0.2)
    spec_x = centered_shift(direct_dft2(x))
    spec_u = centered_shift(direct_dft2(u))
    amp_x, amp_u = np.abs(spec_x), np.abs(spec_u)
    ph_x = np.angle(spec_x)
    new_spec = np.where(region, amp_u, amp_x) * np.exp(1j * ph_x)
    h, w = x.shape
    unshifted = np.roll(np.roll(new_spec, -(h // 2), axis=0), -(w // 2), axis=1)
    ref = direct_idft2(unshifted).real
    assert np.abs(x_r - ref).max() < 1e-8


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size,rho", [(32, 0.0175), (32, 0.3), (64, 0.1), (48, 0.2)])
def test_fds_batch_equals_pairwise_fds_pair(size, rho, dtype):
    rng = np.random.default_rng(size)
    x = rng.uniform(size=(3, size, size)).astype(dtype)
    u = rng.uniform(size=(3, size, size)).astype(dtype)
    cfg = FdsConfig(area_ratio=rho)
    x_r, u_r = fds_batch(x, u, cfg)
    assert x_r.shape == u_r.shape == x.shape
    for k in range(3):
        x_k, u_k = fds_pair(x[k], u[k], cfg)
        assert np.array_equal(x_r[k], x_k) and np.array_equal(u_r[k], u_k)
    with pytest.raises(ValueError):
        fds_batch(x, u[:2], cfg)
    with pytest.raises(ValueError):
        fds_batch(x, u[:, :-1], cfg)
    with pytest.raises(ValueError):
        fds_pair(x[0], u, cfg)


def test_fds_pair_self_switch_identity():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(32, 32))
    x_r, u_r = fds_pair(x, x.copy(), FdsConfig())
    assert np.abs(x_r - x).max() < 1e-9
    assert np.abs(u_r - x).max() < 1e-9


def test_fds_pair_involution():
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(32, 32))
    u = rng.uniform(size=(32, 32))
    cfg = FdsConfig(area_ratio=0.1)
    x_r, u_r = fds_pair(x, u, cfg)
    x_rr, u_rr = fds_pair(x_r, u_r, cfg)
    assert np.abs(x_rr - x).max() < 1e-8
    assert np.abs(u_rr - u).max() < 1e-8


def test_fds_pair_phase_preserved():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(32, 32))
    u = rng.uniform(size=(32, 32))
    x_r, _ = fds_pair(x, u, FdsConfig(area_ratio=0.1))
    amp, phase = amplitude_phase(fft2_shifted(x))
    amp_r, phase_r = amplitude_phase(fft2_shifted(x_r))
    significant = amp_r > 1e-9
    # compare angles modulo 2*pi
    diff = np.angle(np.exp(1j * (phase_r - phase)))
    assert np.abs(diff[significant]).max() < 1e-6


def test_fds_pair_energy_bookkeeping():
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(16, 16))
    u = rng.uniform(size=(16, 16))
    x_r, u_r = fds_pair(x, u, FdsConfig(area_ratio=0.2))
    def energy(img):
        return float((np.abs(fft2_shifted(img)) ** 2).sum())
    before = energy(x) + energy(u)
    after = energy(x_r) + energy(u_r)
    assert after == pytest.approx(before, rel=1e-9)


def test_fds_pair_dc_exchange_mean():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.2, 0.8, size=(16, 16))
    u = rng.uniform(0.2, 0.8, size=(16, 16))
    # tiny rho -> only the DC bin swaps, so the outputs differ by a constant
    x_r, u_r = fds_pair(x, u, FdsConfig(area_ratio=1.0 / 16.0 - 1e-9))
    assert np.abs(u_r.mean() - x.mean()) < 1e-9
    assert np.abs(x_r.mean() - u.mean()) < 1e-9
    assert np.abs((x_r - x) - (x_r - x).mean()).max() < 1e-9


def test_reconstruct_warns_on_asymmetric_spectrum(caplog):
    amp = np.zeros((8, 8))
    amp[4, 5] = 1.0  # single off-center bin: not conjugate-symmetric
    phase = np.zeros((8, 8))
    with caplog.at_level("WARNING", logger="switchlab.fds"):
        reconstruct(AmplitudePhase(amp, phase))
    assert any("imaginary residue" in rec.message for rec in caplog.records)
