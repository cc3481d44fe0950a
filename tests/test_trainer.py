import builtins
import dataclasses
import errno
import json
import os
import warnings

import numpy as np
import pytest

from switchlab import losses, network, trainer
from switchlab.errors import ConfigError, DataError
from switchlab.losses import LossWeights
from switchlab.metrics import MetricReport
from switchlab.mss import MssConfig
from switchlab.network import NetConfig, SegNetParams
from switchlab.pseudo import pseudo_labels
from switchlab.synthdata import SynthConfig, make_dataset
from switchlab.trainer import (
    DataConfig,
    StepBatch,
    TrainConfig,
    TrainLog,
    build_pretrain_batch,
    build_selftrain_batch,
    config_from_dict,
    config_to_dict,
    evaluate,
    load_config,
    pretrain,
    pretrain_loss_and_grad,
    save_config,
    self_train,
    selftrain_loss_and_grad,
    strategy_analysis,
)


def tiny_config(**over):
    synth = SynthConfig(height=32, width=32, count=30, roi_fraction=(0.05, 0.16), seed=5)
    defaults = dict(
        seed=5,
        pretrain_iters=3,
        selftrain_iters=3,
        labeled_batch=4,
        unlabeled_batch=4,
        eval_every=2,
        net=NetConfig(height=32, width=32, widths=(3, 4), embed_dim=4),
        mss=MssConfig(1, 1, 16, 4),
        data=DataConfig(synth=synth, labeled_ratio=0.3),
    )
    defaults.update(over)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_data():
    cfg = tiny_config()
    return make_dataset(cfg.data.synth, cfg.data.labeled_ratio, cfg.data.split_ratios, seed=5)


# ---------------------------------------------------------------------------
# config


def test_config_defaults_match_published_values():
    cfg = TrainConfig()
    assert cfg.lr0 == 0.05
    assert cfg.pretrain_iters == 10000 and cfg.selftrain_iters == 30000
    assert cfg.labeled_batch == 8 and cfg.unlabeled_batch == 8
    assert cfg.ema_alpha == 0.99
    assert cfg.mss.coarse_patches == 2 and cfg.mss.fine_patches == 2
    assert cfg.mss.coarse_size == 128 and cfg.mss.fine_size == 32
    assert cfg.fds.area_ratio == 0.0175
    assert cfg.loss.base_weight == 1.0 and cfg.loss.patch_weight == 0.5
    assert cfg.loss.temperature == 0.07
    assert cfg.loss.lambda_contrastive == 0.1 and cfg.loss.lambda_consistency == 0.1


def test_config_json_round_trip(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "c.json"
    save_config(path, cfg)
    back = load_config(path)
    assert back == cfg


def test_config_rejects_unknown_and_invalid(tmp_path):
    with pytest.raises(ConfigError):
        config_from_dict({"not_a_key": 1})
    d = config_to_dict(tiny_config())
    d["labeled_batch"] = 3  # odd: cannot split into halves
    with pytest.raises(ConfigError):
        config_from_dict(d)
    d = config_to_dict(tiny_config())
    d["unlabeled_batch"] = 8  # each mixture pairs one labeled with one unlabeled image
    with pytest.raises(ConfigError, match="must be equal"):
        config_from_dict(d)
    d = config_to_dict(tiny_config())
    d["seed"] = -1
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        config_from_dict(d)
    d = config_to_dict(tiny_config())
    d["net"]["height"] = 64  # no longer matches the dataset size
    with pytest.raises(ConfigError):
        config_from_dict(d)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(bad)


@pytest.mark.parametrize(
    "section,key,value",
    [
        (("net",), "num_classes", 2),
        (("net",), "project_logits", False),
        (("loss",), "normalize_embeddings", True),
        (("data", "synth"), "decoy_prob", 0.0),
        (("loss",), "dice_epsilon", 1e-5),
    ],
)
def test_config_keys_of_earlier_versions_are_unknown(section, key, value):
    d = config_to_dict(tiny_config())
    part = d
    for name in section:
        part = part[name]
    part[key] = value
    with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
        config_from_dict(d)


# ---------------------------------------------------------------------------
# batch construction


def test_pretrain_batch_shapes_and_label_composition(tiny_data):
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    images, labels = build_pretrain_batch(cfg, tiny_data, rng)
    assert images.shape == (4, 32, 32)
    assert labels.shape == (4, 32, 32)
    assert set(np.unique(labels)) <= {0, 1}


def test_selftrain_batch_uses_one_mask_both_directions(tiny_data):
    cfg = tiny_config(augment=dataclasses.replace(tiny_config().augment, max_ops=0))
    teacher = network.init_params(cfg.net, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    batch = build_selftrain_batch(cfg, tiny_data, teacher, rng)
    assert batch.mix_ub.shape == (2, 32, 32)
    assert batch.mask.shape == (32, 32)
    assert batch.mix_ub_freq is not None
    # pseudo labels land on the mask side of the unlabeled-base mixture and
    # ground truth on the complement
    assert set(np.unique(batch.base_ub)) <= {0, 1}
    assert set(np.unique(batch.patch_ub)) <= {0, 1}


def test_selftrain_batch_requires_unlabeled(tiny_data):
    cfg = tiny_config()
    data = make_dataset(cfg.data.synth, 1.0, cfg.data.split_ratios, seed=5)
    teacher = network.init_params(cfg.net, np.random.default_rng(1))
    with pytest.raises(DataError):
        build_selftrain_batch(cfg, data, teacher, np.random.default_rng(0))


def test_mss_off_uses_all_true_mask(tiny_data):
    cfg = tiny_config(use_mss=False)
    teacher = network.init_params(cfg.net, np.random.default_rng(1))
    batch = build_selftrain_batch(cfg, tiny_data, teacher, np.random.default_rng(2))
    assert batch.mask.all()


def test_fds_off_skips_frequency_branch(tiny_data):
    cfg = tiny_config(use_fds=False)
    teacher = network.init_params(cfg.net, np.random.default_rng(1))
    batch = build_selftrain_batch(cfg, tiny_data, teacher, np.random.default_rng(2))
    assert batch.mix_ub_freq is None and batch.mix_lb_freq is None


# ---------------------------------------------------------------------------
# loss assembly and ablation structure


def _fixed_batch(cfg, rng):
    n = cfg.labeled_batch // 2
    h, w = cfg.net.height, cfg.net.width
    return StepBatch(
        mix_ub=rng.uniform(0, 1, (n, h, w)),
        mix_lb=rng.uniform(0, 1, (n, h, w)),
        base_ub=(rng.uniform(0, 1, (n, h, w)) > 0.7).astype(np.uint8),
        patch_ub=(rng.uniform(0, 1, (n, h, w)) > 0.7).astype(np.uint8),
        base_lb=(rng.uniform(0, 1, (n, h, w)) > 0.7).astype(np.uint8),
        patch_lb=(rng.uniform(0, 1, (n, h, w)) > 0.7).astype(np.uint8),
        mask=rng.uniform(0, 1, (h, w)) > 0.5,
        mix_ub_freq=rng.uniform(0, 1, (n, h, w)),
        mix_lb_freq=rng.uniform(0, 1, (n, h, w)),
    )


@pytest.mark.parametrize(
    "row,use_mss,use_fds,augs,l_cont,l_consist,active",
    [
        ("a", False, False, False, 0.0, 0.0, {"mss"}),
        ("b", True, False, False, 0.0, 0.0, {"mss"}),
        ("c", True, True, False, 0.1, 0.0, {"mss", "contrastive"}),
        ("d", True, True, False, 0.0, 0.1, {"mss", "consistency"}),
        ("e", True, False, True, 0.0, 0.0, {"mss"}),
        ("f", True, True, True, 0.1, 0.0, {"mss", "contrastive"}),
        ("g", True, True, True, 0.0, 0.1, {"mss", "consistency"}),
        ("h", True, True, True, 0.1, 0.1, {"mss", "contrastive", "consistency"}),
    ],
)
def test_ablation_rows_activate_expected_components(
    tiny_data, row, use_mss, use_fds, augs, l_cont, l_consist, active
):
    from switchlab.augment import AugmentPolicy

    cfg = tiny_config(
        use_mss=use_mss,
        use_fds=use_fds,
        augment=AugmentPolicy(use_weak=augs, use_strong=augs, max_ops=3 if augs else 0),
        loss=LossWeights(lambda_contrastive=l_cont, lambda_consistency=l_consist),
    )
    teacher = network.init_params(cfg.net, np.random.default_rng(3))
    student = network.init_params(cfg.net, np.random.default_rng(4))
    batch = build_selftrain_batch(cfg, tiny_data, teacher, np.random.default_rng(5))
    comp, _ = selftrain_loss_and_grad(student, batch, cfg)
    for name in ("mss", "contrastive", "consistency"):
        if name in active:
            assert comp[name] != 0.0, f"row {row}: {name} should be active"
        else:
            assert comp[name] == 0.0, f"row {row}: {name} should be inactive"


def test_selftrain_gradients_match_fd(tiny_data):
    cfg = tiny_config(net=NetConfig(height=16, width=16, widths=(3, 4), embed_dim=4),
                      mss=MssConfig(1, 1, 8, 4),
                      data=DataConfig(synth=SynthConfig(height=16, width=16, count=10, roi_fraction=(0.04, 0.09), seed=5),
                                      labeled_ratio=0.3))
    rng = np.random.default_rng(6)
    params = network.init_params(cfg.net, rng)
    batch = _fixed_batch(cfg, rng)
    out = network.forward(params, np.concatenate([batch.mix_ub_freq, batch.mix_lb_freq]))
    keys_all = network.project(params, out.features)
    keys = (keys_all[: cfg.labeled_batch // 2], keys_all[cfg.labeled_batch // 2 :])
    comp, grads = selftrain_loss_and_grad(params, batch, cfg, frozen_keys=keys)

    def total(vec):
        c, _ = selftrain_loss_and_grad(SegNetParams(cfg.net, vec), batch, cfg, frozen_keys=keys)
        return c["total"]

    rv = np.random.default_rng(7)
    for _ in range(3):
        v = rv.normal(size=params.size)
        v /= np.linalg.norm(v)
        fd = (total(params.vector + 1e-5 * v) - total(params.vector - 1e-5 * v)) / 2e-5
        an = float(grads.vector @ v)
        assert abs(fd - an) / max(abs(fd), abs(an)) < 1e-4


@pytest.mark.parametrize("use_fds,images", [(True, 8), (False, 4)])
def test_selftrain_step_runs_the_student_once(tiny_data, monkeypatch, use_fds, images):
    # mixtures and frequency twins share one forward and one backward
    cfg = tiny_config(use_fds=use_fds)
    teacher = network.init_params(cfg.net, np.random.default_rng(1))
    student = network.init_params(cfg.net, np.random.default_rng(2))
    batch = build_selftrain_batch(cfg, tiny_data, teacher, np.random.default_rng(3))
    forwards, backwards = [], []
    forward, backward = network.forward, network.backward

    def counting_forward(params, imgs, cache=None):
        forwards.append((imgs.shape[0], cache is not None))
        return forward(params, imgs, cache)

    def counting_backward(*args, **kwargs):
        backwards.append(1)
        return backward(*args, **kwargs)

    monkeypatch.setattr(network, "forward", counting_forward)
    monkeypatch.setattr(network, "backward", counting_backward)
    selftrain_loss_and_grad(student, batch, cfg)
    assert forwards == [(images, True)]
    assert len(backwards) == 1


@pytest.mark.parametrize("use_fds", [True, False])
def test_each_loss_step_takes_one_softmax_per_logits_batch(tiny_data, monkeypatch, use_fds):
    # one softmax per mixing direction feeds both region terms of Dice and CE
    cfg = tiny_config(use_fds=use_fds)
    teacher = network.init_params(cfg.net, np.random.default_rng(1))
    student = network.init_params(cfg.net, np.random.default_rng(2))
    batch = build_selftrain_batch(cfg, tiny_data, teacher, np.random.default_rng(3))
    images, labels = build_pretrain_batch(cfg, tiny_data, np.random.default_rng(4))
    shapes = []
    softmax = losses.softmax_channels

    def counting_softmax(logits):
        shapes.append(np.shape(logits))
        return softmax(logits)

    for module in (losses, trainer):
        monkeypatch.setattr(module, "softmax_channels", counting_softmax)
    selftrain_loss_and_grad(student, batch, cfg)
    n = cfg.labeled_batch // 2
    assert shapes == [(n, 2, 32, 32)] * 2
    shapes.clear()
    pretrain_loss_and_grad(student, images, labels)
    assert shapes == [(cfg.labeled_batch, 2, 32, 32)]


def test_frozen_keys_equal_live_keys_at_same_point(tiny_data):
    # detachment: recomputing keys from the same parameters must not change
    # anything, bit for bit
    cfg = tiny_config()
    rng = np.random.default_rng(8)
    params = network.init_params(cfg.net, rng)
    teacher = network.init_params(cfg.net, np.random.default_rng(9))
    batch = build_selftrain_batch(cfg, tiny_data, teacher, np.random.default_rng(10))
    out = network.forward(params, np.concatenate([batch.mix_ub_freq, batch.mix_lb_freq]))
    keys_all = network.project(params, out.features)
    n = cfg.labeled_batch // 2
    comp_live, grads_live = selftrain_loss_and_grad(params, batch, cfg)
    comp_frozen, grads_frozen = selftrain_loss_and_grad(
        params, batch, cfg, frozen_keys=(keys_all[:n], keys_all[n:])
    )
    assert comp_live == comp_frozen
    assert np.array_equal(grads_live.vector, grads_frozen.vector)


# ---------------------------------------------------------------------------
# phases


def test_pretrain_lr_zero_is_identity(tiny_data):
    cfg = tiny_config(lr0=1e-300, pretrain_iters=1)
    result = pretrain(cfg, tiny_data)
    fresh = network.init_params(
        cfg.net, np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(10,)))
    )
    assert np.allclose(result.student.vector, fresh.vector, atol=1e-295)


def test_pretrain_loss_decreases_on_smoke_run(tiny_data):
    cfg = tiny_config(pretrain_iters=60, eval_every=60)
    result = pretrain(cfg, tiny_data)
    losses = [r["loss"] for r in result.log.records if "loss" in r]
    assert np.mean(losses[-10:]) < losses[0]


def test_pretrain_determinism(tiny_data):
    cfg = tiny_config(pretrain_iters=5)
    a = pretrain(cfg, tiny_data)
    b = pretrain(cfg, tiny_data)
    assert np.array_equal(a.student.vector, b.student.vector)
    assert a.log.lines() == b.log.lines()


def test_self_train_teacher_frozen_when_alpha_one(tiny_data):
    cfg = tiny_config(ema_alpha=1.0, selftrain_iters=3)
    init = network.init_params(cfg.net, np.random.default_rng(11))
    result = self_train(cfg, tiny_data, init)
    assert np.array_equal(result.teacher.vector, init.vector)
    assert not np.array_equal(result.student.vector, init.vector)


def test_self_train_ema_contraction_with_tiny_lr(tiny_data):
    cfg = tiny_config(lr0=1e-300, selftrain_iters=4, ema_alpha=0.9)
    init = network.init_params(cfg.net, np.random.default_rng(12))
    result = self_train(cfg, tiny_data, init)
    # student barely moves, teacher contracts toward it geometrically: after
    # k steps the gap is alpha^k of the initial (zero) gap, i.e. stays ~0
    assert np.allclose(result.teacher.vector, result.student.vector, atol=1e-290)


def test_self_train_determinism_and_log_structure(tiny_data):
    cfg = tiny_config()
    init = network.init_params(cfg.net, np.random.default_rng(13))
    a = self_train(cfg, tiny_data, init)
    b = self_train(cfg, tiny_data, init)
    assert np.array_equal(a.teacher.vector, b.teacher.vector)
    assert np.array_equal(a.student.vector, b.student.vector)
    assert a.log.lines() == b.log.lines()
    step_records = [r for r in a.log.records if "total" in r]
    assert len(step_records) == cfg.selftrain_iters
    for r in step_records:
        assert {"phase", "step", "lr", "mss", "cont", "consist", "total"} <= set(r)
        json.dumps(r)


def test_diverging_self_training_stops_with_a_data_error_and_keeps_its_log():
    synth = SynthConfig(height=32, width=32, count=60, roi_fraction=(0.04, 0.1), seed=1)
    cfg = tiny_config(
        seed=1,
        pretrain_iters=30,
        selftrain_iters=30,
        eval_every=1000,
        net=NetConfig(height=32, width=32, widths=(4, 8), embed_dim=4, compute_dtype="float32"),
        data=DataConfig(synth=synth, labeled_ratio=0.2),
    )
    data = make_dataset(cfg.data.synth, cfg.data.labeled_ratio, cfg.data.split_ratios, seed=cfg.seed)
    init = pretrain(cfg, data).student
    log = TrainLog()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError, match="^self-training diverged at step 2: logits contain non-finite values$"):
            self_train(dataclasses.replace(cfg, lr0=1e3), data, init, log)
    assert [r["step"] for r in log.records] == [0, 1]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_training_never_reads_sealed_truth(tiny_data):
    cfg = tiny_config()
    before = tiny_data.sealed_access_count
    result = pretrain(cfg, tiny_data)
    self_train(cfg, tiny_data, result.student)
    assert tiny_data.sealed_access_count == before


def test_evaluate_perfect_stub_and_csv_rows(tiny_data, tmp_path):
    class Oracle:
        cfg = tiny_config().net

        def __init__(self, items):
            self.items = {id(it.image): it.mask for it in items}

    # instead of a stub network, check evaluate on predictions == ground truth
    # by driving the metric report directly through a perfect parameter-free path
    from switchlab.metrics import MetricReport

    report = MetricReport()
    for it in tiny_data.val:
        report.add(it.id, it.mask, it.mask)
    agg = report.aggregate()
    assert agg["dice_mean"] == 100.0 and agg["iou_mean"] == 100.0

    # evaluate() proper: deterministic output and one row per item
    params = network.init_params(tiny_config().net, np.random.default_rng(14))
    r1 = evaluate(params, tiny_data.val)
    r2 = evaluate(params, tiny_data.val)
    assert r1.aggregate() == r2.aggregate()
    assert len(r1.image_ids) == len(tiny_data.val)
    r1.write_csv(tmp_path / "rows.csv")
    assert (tmp_path / "rows.csv").read_text().count("\n") == len(tiny_data.val) + 1


def test_evaluate_lcc_scores_pseudo_labels_of_the_same_logits(tiny_data):
    # an untrained net whose raw predictions have many components per image
    params = network.init_params(tiny_config().net, np.random.default_rng(0))
    items = tiny_data.val + tiny_data.test
    got = evaluate(params, items, use_lcc=True)
    logits = network.forward(params, np.stack([it.image for it in items])).logits
    want = MetricReport()
    for item, label in zip(items, pseudo_labels(logits)):
        want.add(item.id, label, item.mask)
    assert got.image_ids == want.image_ids
    for name in ("dice", "iou", "hd95", "asd"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    assert got.dice != evaluate(params, items).dice  # the filter changed the scored masks


def test_evaluate_requires_ground_truth(tiny_data):
    params = network.init_params(tiny_config().net, np.random.default_rng(15))
    with pytest.raises(DataError):
        evaluate(params, tiny_data.unlabeled[:2])


class _FailsOnSecondWrite:
    """A file whose first write goes through and whose second fails, like a full disk."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _write_log(path):
    log = TrainLog()
    for step in range(3):
        log.add(phase="pretrain", step=step, loss=0.5)
    log.write(path)


def _write_checkpoint(path):
    network.save_params(path, network.init_params(tiny_config().net, np.random.default_rng(7)))


@pytest.mark.parametrize("write", [_write_log, _write_checkpoint], ids=["log", "checkpoint"])
def test_interrupted_write_keeps_the_previous_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous contents")
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda *a, **k: _FailsOnSecondWrite(real_open(*a, **k)))
    with pytest.raises(OSError, match="No space left"):
        write(path)
    monkeypatch.undo()
    assert path.read_bytes() == b"previous contents"
    assert os.listdir(tmp_path) == ["out.bin"]
    write(path)
    assert path.read_bytes() != b"previous contents"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_strategy_analysis_structure_and_direction():
    report = strategy_analysis(n_iter=1500, height=64, width=64, seed=0)
    maps = report.pop("probability_maps")
    assert set(maps) == {"mss_p2_q2", "mss_p2_q10", "bcp_2_3"}
    for s in report["strategies"].values():
        assert 0.0 <= s["mean"] <= 1.0
        assert s["std"] >= 0.0
    red = report["reductions_vs_bcp"]
    assert red["mss_p2_q2"]["std_reduction_pct"] > 0
    assert red["mss_p2_q2"]["gradient_variance_reduction_pct"] > 0
    json.dumps(report)  # serializable once maps are removed
