"""Each output check of the benchmark accepts the program's real output and
rejects a deliberately wrong one.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import os
import sys
import types

import numpy as np
import pytest
from scipy import ndimage

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from switchlab import fds, losses, metrics, pseudo, trainer  # noqa: E402
from switchlab.mss import MssConfig  # noqa: E402
from switchlab.network import NetConfig, SegNetParams, init_params  # noqa: E402
from switchlab.synthdata import SynthConfig, make_dataset  # noqa: E402
from switchlab.trainer import DataConfig, TrainConfig  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def test_infonce_check_rejects_wrong_loss_and_gradient(rng):
    h = rng.normal(size=(2, 4, 40))
    k = h + 0.3 * rng.normal(size=h.shape)
    rows = np.array([0, 7, 39])
    loss, grad = losses.infonce_grad(h, k, 0.07, False)
    assert checks.check_infonce(h, k, 0.07, False, loss, grad, rows, 1e-9, chunk=16) == []
    assert checks.check_infonce(h, k, 0.07, False, loss * (1 + 1e-6), grad, rows, 1e-9)
    bad = grad.copy()
    bad[1, 2, 7] *= 1.001
    assert checks.check_infonce(h, k, 0.07, False, loss, bad, rows, 1e-9)
    # positive left in the denominator: both loss and gradient differ
    loss_p, grad_p = losses.infonce_grad(h, k, 0.07, True)
    assert len(checks.check_infonce(h, k, 0.07, False, loss_p, grad_p, rows, 1e-9)) == 2


def test_fds_check_rejects_clamped_widened_and_non_involutive_outputs(rng):
    x = rng.uniform(size=(2, 64, 64))
    u = rng.uniform(size=(2, 64, 64))
    cfg = fds.FdsConfig(area_ratio=0.1)
    xo, uo = fds.fds_batch(x, u, cfg)
    xb, ub = fds.fds_batch(xo, uo, cfg)
    assert checks.check_fds(x, u, xo, uo, xb, ub, 0.1) == []
    # clamping the switched images breaks phase and energy
    assert checks.check_fds(x, u, np.clip(xo, 0.3, 0.7), uo, xb, ub, 0.1)
    # a wider square than the configured one changes amplitudes outside it
    wide = fds.FdsConfig(area_ratio=0.3)
    xw, uw = fds.fds_batch(x, u, wide)
    xwb, uwb = fds.fds_batch(xw, uw, wide)
    assert any("outside" in f for f in checks.check_fds(x, u, xw, uw, xwb, uwb, 0.1))
    # switching the same way twice without swapping back is not an involution
    assert any("twice" in f for f in checks.check_fds(x, u, xo, uo, xo, uo, 0.1))


def test_fds_square_matches_program_region():
    for h, w, rho in ((64, 64, 0.1), (256, 256, 0.0175), (65, 48, 0.2)):
        want = np.fft.ifftshift(fds.low_freq_region_mask(h, w, rho))
        assert np.array_equal(checks.low_freq_square(h, w, rho), want)


def test_pseudo_label_check_rejects_extra_components_and_wrong_component(rng):
    raw = checks.blob_masks(48, 6, rng)
    good = np.stack([pseudo.largest_connected_component(m) for m in raw])
    assert checks.check_pseudo_labels(raw, good) == []
    uneven = [i for i, m in enumerate(raw) if len(set(checks.components4(m))) > 1]
    assert uneven, "some blob mask must have components of different sizes"
    i = uneven[0]
    # the raw argmax itself has several components
    assert checks.check_pseudo_labels(raw[i : i + 1], raw[i : i + 1])
    # a smaller component instead of the largest
    lab, _ = ndimage.label(raw[i], structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    smallest = (lab == 1 + int(np.argmin(np.bincount(lab.ravel())[1:]))).astype(np.uint8)
    assert checks.check_pseudo_labels(raw[i : i + 1], smallest[None])
    # a pixel outside the raw argmax
    outside = good[i].copy()
    outside[np.argwhere(raw[i] == 0)[0][0], np.argwhere(raw[i] == 0)[0][1]] = 1
    assert checks.check_pseudo_labels(raw[i : i + 1], outside[None])


def test_metric_checks_reject_wrong_iou_and_surface_distances(rng):
    pairs = checks.mask_pairs(48, 4, rng)
    report = metrics.MetricReport()
    for idx, (p, g) in enumerate(pairs):
        report.add(idx, p, g)
    assert checks.check_iou_dice(report.dice, report.iou, 1e-9) == []
    assert checks.check_surface(pairs, report.hd95, report.asd) == []
    assert checks.check_iou_dice(report.dice, [v + 1e-6 for v in report.iou], 1e-9)
    assert checks.check_surface(pairs, [v + 0.01 for v in report.hd95], report.asd)
    assert checks.check_surface(pairs, report.hd95, [v * 1.001 for v in report.asd])


def test_gradient_check_on_selftrain_loss_rejects_scaled_gradient():
    net = NetConfig(height=16, width=16, widths=(3, 4), embed_dim=4)
    cfg = TrainConfig(
        seed=0, net=net, mss=MssConfig(1, 1, 8, 4),
        data=DataConfig(synth=SynthConfig(height=16, width=16, count=20, roi_fraction=(0.04, 0.09), seed=0),
                        labeled_ratio=0.5),
        labeled_batch=2, unlabeled_batch=2,
    )
    data = make_dataset(cfg.data.synth, cfg.data.labeled_ratio, cfg.data.split_ratios, seed=0)
    rng = np.random.default_rng(0)
    student = init_params(net, rng)
    batch = trainer.build_selftrain_batch(cfg, data, student.copy(), rng)
    frozen = (rng.normal(size=(1, 4, 16)), rng.normal(size=(1, 4, 16)))

    def loss_at(vector):
        return trainer.selftrain_loss_and_grad(SegNetParams(net, vector), batch, cfg, frozen_keys=frozen)[0]["total"]

    _, g = trainer.selftrain_loss_and_grad(student, batch, cfg, frozen_keys=frozen)
    fails, rel = checks.check_gradient(loss_at, student.vector, g.vector, 1e-5, 1e-3)
    assert fails == [] and rel < 1e-3
    assert checks.check_gradient(loss_at, student.vector, 1.01 * g.vector, 1e-5, 1e-3)[0]


def test_finite_and_sealed_checks_reject_bad_values():
    assert checks.check_finite({"a": 1.0, "b": -2.5}) == []
    assert checks.check_finite({"a": 1.0, "b": float("nan")})
    assert checks.check_finite({"inf": float("inf")})
    assert checks.check_sealed(0) == []
    assert checks.check_sealed(1)


def test_tracer_reports_a_missing_public_name_as_absent():
    tr = tracing.Tracer("test")
    mod = types.ModuleType("switchlab.fake")
    mod.present = lambda x: x + 1
    assert tr.call(mod, "present", 1) == 2
    with pytest.raises(tracing.Stale):
        tr.call(mod, "gone", 1)
    with pytest.raises(tracing.Stale):
        tr.call(mod, "present", "not a number")
    assert set(tr.absent) == {"fake.gone", "fake.present"}
    assert len(tr.seconds("fake.present")) == 1

    def layer_replay(tr):
        tr.call(mod, "renamed")

    assert tracing._layer_replay(tr, layer_replay) is False
    assert "fake.renamed" in tr.absent and "layer_replay" in tr.absent


def test_conv_flops_counts_every_trunk_convolution():
    cfg = NetConfig(height=8, width=8, widths=(2, 4), embed_dim=2)
    fwd, bwd = tracing.conv_flops(cfg, 1)
    # enc0: 1->2, 2->2 at 8x8; enc1: 2->4, 4->4 at 4x4; dec0: 6->2, 2->2 at 8x8; head 2->2
    macs = 64 * 9 * (2 + 4 + 12 + 4) + 16 * 9 * (8 + 16) + 64 * 4
    assert fwd == 2 * macs and bwd == 2 * fwd
