import dataclasses
import json
import os
import subprocess
import sys
import typing

import numpy as np
import pytest

from switchlab import losses, network, pgm, synthdata
from switchlab.cli import main
from switchlab.mss import MssConfig
from switchlab.network import NetConfig
from switchlab.synthdata import SynthConfig
from switchlab.trainer import DataConfig, TrainConfig, config_to_dict, save_config


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    synth = SynthConfig(height=32, width=32, count=20, roi_fraction=(0.05, 0.16), seed=9)
    cfg = TrainConfig(
        seed=9,
        pretrain_iters=2,
        selftrain_iters=2,
        labeled_batch=4,
        unlabeled_batch=4,
        eval_every=2,
        net=NetConfig(height=32, width=32, widths=(3, 4), embed_dim=4),
        mss=MssConfig(1, 1, 16, 4),
        data=DataConfig(synth=synth, labeled_ratio=0.3, dir=str(tmp_path / "data")),
    )
    save_config(tmp_path / "config.json", cfg)
    return tmp_path


def test_full_pipeline(workdir):
    cfg_path = str(workdir / "config.json")
    assert main(["gen-data", "--config", cfg_path, "--fds-demo"]) == 0
    assert (workdir / "data" / "manifest.json").exists()
    assert (workdir / "data" / "fds_demo" / "pair_a_after.pgm").exists()

    assert main(["pretrain", "--config", cfg_path, "--out", str(workdir / "ckpt")]) == 0
    pre = workdir / "ckpt" / "pretrain_student.bin"
    assert pre.exists()
    assert (workdir / "ckpt" / "pretrain_log.jsonl").exists()

    assert main(["train", "--config", cfg_path, "--init", str(pre), "--out", str(workdir / "ckpt")]) == 0
    assert (workdir / "ckpt" / "teacher.bin").exists()
    assert (workdir / "ckpt" / "student.bin").exists()
    log_lines = (workdir / "ckpt" / "train_log.jsonl").read_text().strip().split("\n")
    for line in log_lines:
        json.loads(line)

    assert main([
        "eval", "--config", cfg_path, "--ckpt", str(workdir / "ckpt" / "teacher.bin"),
        "--split", "test", "--out", str(workdir / "report"),
    ]) == 0
    agg = json.loads((workdir / "report" / "metrics_test.json").read_text())
    assert "dice_mean" in agg and agg["count"] == 2
    csv = (workdir / "report" / "metrics_test.csv").read_text()
    assert csv.startswith("image_id,dice,iou,hd95,asd")


def test_analyze_strategy_outputs(workdir):
    out = workdir / "strategy"
    assert main(["analyze-strategy", "--iters", "300", "--size", "64", "--out", str(out)]) == 0
    report = json.loads((out / "strategy_analysis.json").read_text())
    assert report["n_iter"] == 300
    assert set(report["strategies"]) == {"mss_p2_q2", "mss_p2_q10", "bcp_2_3"}
    pmap = pgm.read_pgm(out / "prob_map_bcp_2_3.pgm")
    assert pmap.shape == (64, 64)


def test_config_error_exit_code(workdir):
    bad = workdir / "bad.json"
    bad.write_text("{")
    assert main(["gen-data", "--config", str(bad)]) == 2
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["lr0"] = -1
    bad2 = workdir / "bad2.json"
    bad2.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(bad2), "--out", str(workdir / "x")]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--iters", "0"],
        ["--iters", "-3"],
        ["--size", "0"],
        ["--size", "-8"],
        ["--size", "1"],
        ["--seed", "-1"],
    ],
)
def test_analyze_strategy_out_of_range_arguments_exit_2(workdir, capsys, args):
    out = workdir / "strategy"
    assert main(["analyze-strategy", "--iters", "10", "--size", "16", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not out.exists()


def test_negative_seed_is_a_config_error(workdir, capsys):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["seed"] = -1
    bad = workdir / "bad_seed.json"
    bad.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(bad)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize(
    "key,value,shown",
    [("pretrain_iters", 2.5, "int"), ("pretrain_iters", True, "int"), ("pretrain_iters", 1.0, "int"), ("use_mss", "no", "bool")],
)
def test_config_value_of_the_wrong_type_is_a_config_error(workdir, capsys, key, value, shown):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg[key] = value
    bad = workdir / "bad_type.json"
    bad.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(bad), "--out", str(workdir / "ckpt")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: config.{key}: expected {shown}, got {json.dumps(value)}"]
    assert not (workdir / "ckpt").exists()


def _float_fields(cls, path=()):
    """Key paths of the float fields of a config class, nested ones included."""
    for name, tp in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(tp):
            yield from _float_fields(tp, (*path, name))
        elif tp is float:
            yield (*path, name)


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "int_past_float"]
)
def test_non_finite_float_in_a_config_is_a_config_error(tmp_path, capsys, value):
    fields = list(_float_fields(TrainConfig))
    assert len(fields) == 13
    for keys in fields:
        cfg = config_to_dict(TrainConfig())
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        bad = tmp_path / "bad_float.json"
        bad.write_text(json.dumps(cfg))
        assert main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "ckpt")]) == 2, keys
        err = capsys.readouterr().err.strip().splitlines()
        shown = ".".join(("config", *keys))
        assert err == [f"config error: {shown}: expected finite float, got {json.dumps(value)}"]
        assert not (tmp_path / "ckpt").exists()


def test_data_error_exit_code(workdir):
    # training without generated data (and a labeled_ratio that collapses)
    cfg_path = str(workdir / "config.json")
    assert main(["pretrain", "--config", cfg_path, "--out", str(workdir / "ckpt")]) == 3

    cfg = json.loads((workdir / "config.json").read_text())
    cfg["data"]["labeled_ratio"] = 0.001
    low = workdir / "low.json"
    low.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(low)]) == 3


def test_eval_rejects_unknown_split(workdir):
    cfg_path = str(workdir / "config.json")
    main(["gen-data", "--config", cfg_path])
    main(["pretrain", "--config", cfg_path, "--out", str(workdir / "ckpt")])
    code = main([
        "eval", "--config", cfg_path, "--ckpt", str(workdir / "ckpt" / "pretrain_student.bin"),
        "--split", "nope", "--out", str(workdir / "report"),
    ])
    assert code == 2


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err.strip().splitlines()
    return len(err) == 1 and err[0].startswith(prefix)


def test_unreadable_checkpoint_is_a_data_error(workdir, capsys):
    cfg_path = str(workdir / "config.json")
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["pretrain", "--config", cfg_path, "--out", str(workdir / "ckpt")]) == 0
    cut = workdir / "cut.bin"
    cut.write_bytes((workdir / "ckpt" / "pretrain_student.bin").read_bytes()[:101])
    capsys.readouterr()
    for ckpt, message in [(workdir / "missing.bin", "cannot read checkpoint"), (cut, "truncated checkpoint")]:
        args = ["eval", "--config", cfg_path, "--ckpt", str(ckpt), "--out", str(workdir / "report")]
        assert main(args) == 3
        assert _one_error_line(capsys, "data error:")
        assert main(["train", "--config", cfg_path, "--init", str(ckpt), "--out", str(workdir / "st")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err


def test_non_finite_checkpoint_is_a_data_error(workdir, capsys):
    cfg_path = str(workdir / "config.json")
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["pretrain", "--config", cfg_path, "--out", str(workdir / "ckpt")]) == 0
    raw = bytearray((workdir / "ckpt" / "pretrain_student.bin").read_bytes())
    raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    nan = workdir / "nan.bin"
    nan.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path, "--ckpt", str(nan), "--out", str(workdir / "report")]) == 3
    assert _one_error_line(capsys, "data error:")
    assert main(["train", "--config", cfg_path, "--init", str(nan), "--out", str(workdir / "st")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0] == f"data error: {nan}: checkpoint holds non-finite parameters"


def test_diverged_pretraining_is_a_data_error(workdir, capsys, monkeypatch):
    cfg_path = str(workdir / "config.json")
    assert main(["gen-data", "--config", cfg_path]) == 0
    real = losses.pretrain_loss_grad
    monkeypatch.setattr(losses, "pretrain_loss_grad", lambda *a: (float("nan"), real(*a)[1]))
    capsys.readouterr()
    assert main(["pretrain", "--config", cfg_path, "--out", str(workdir / "ckpt")]) == 3
    err = capsys.readouterr().err.strip()
    assert err == "data error: pretraining diverged at step 0: loss nan"


@pytest.mark.parametrize(
    "fn, key",
    [("mixed_region_terms_grad", "mss"), ("infonce_grad", "cont"), ("consistency_mse_grad", "consist")],
)
def test_diverged_self_training_is_a_data_error(workdir, capsys, monkeypatch, fn, key):
    # the named loss function returns a NaN value; the message names its log key and the total
    cfg_path = str(workdir / "config.json")
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["pretrain", "--config", cfg_path, "--out", str(workdir / "ckpt")]) == 0
    real = getattr(losses, fn)
    monkeypatch.setattr(losses, fn, lambda *a: (float("nan"), *real(*a)[1:]))
    capsys.readouterr()
    init = str(workdir / "ckpt" / "pretrain_student.bin")
    assert main(["train", "--config", cfg_path, "--init", init, "--out", str(workdir / "st")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"data error: self-training diverged at step 0: {key} nan, total nan"]


@pytest.mark.parametrize(
    "manifest",
    [
        "{not json",
        '{"train": [{"labeled": true}]}',
        '{"val": 3}',
        '{"train": [{"id": "00000", "labeled": "no"}]}',
    ],
)
def test_corrupt_manifest_is_a_data_error(workdir, capsys, manifest):
    cfg_path = str(workdir / "config.json")
    assert main(["gen-data", "--config", cfg_path]) == 0
    (workdir / "data" / "manifest.json").write_text(manifest)
    capsys.readouterr()
    assert main(["pretrain", "--config", cfg_path, "--out", str(workdir / "ckpt")]) == 3
    assert _one_error_line(capsys, "data error:")


@pytest.mark.parametrize("command", [["pretrain"], ["train", "--init", "none.bin"], ["eval", "--ckpt", "none.bin"]])
def test_uncreatable_out_dir_is_a_config_error_before_any_work(workdir, capsys, command):
    # no dataset exists, so any work before creating --out would end in a data error
    (workdir / "file").write_text("")
    out = workdir / "file" / "out"
    assert main([command[0], "--config", str(workdir / "config.json"), *command[1:], "--out", str(out)]) == 2
    assert _one_error_line(capsys, "config error:")


def test_stopped_pretraining_keeps_the_log_of_the_steps_before(workdir, capsys, monkeypatch):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["pretrain_iters"] = 6
    (workdir / "six.json").write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(workdir / "six.json")]) == 0
    real = losses.pretrain_loss_grad
    calls = []

    def nan_on_fourth_call(*args):
        calls.append(1)
        loss, grad = real(*args)
        return (float("nan") if len(calls) == 4 else loss), grad

    monkeypatch.setattr(losses, "pretrain_loss_grad", nan_on_fourth_call)
    capsys.readouterr()
    assert main(["pretrain", "--config", str(workdir / "six.json"), "--out", str(workdir / "ckpt")]) == 3
    assert capsys.readouterr().err.strip() == "data error: pretraining diverged at step 3: loss nan"
    records = [json.loads(line) for line in (workdir / "ckpt" / "pretrain_log.jsonl").read_text().splitlines()]
    assert [r["step"] for r in records if "loss" in r] == [0, 1, 2]
    assert [r["step"] for r in records if r.get("event") == "eval"] == [1]
    assert not (workdir / "ckpt" / "pretrain_student.bin").exists()


def test_diverging_pretraining_prints_one_line_and_keeps_its_log(tmp_path):
    # lr0 1e4 sends the logits to inf at step 3. numpy's overflow warnings reach
    # the real stderr only outside pytest's warning capture, so the command runs
    # in its own process.
    synth = SynthConfig(height=32, width=32, count=60, roi_fraction=(0.04, 0.1), seed=1)
    cfg = TrainConfig(
        seed=1,
        lr0=1e4,
        pretrain_iters=30,
        labeled_batch=4,
        unlabeled_batch=4,
        net=NetConfig(height=32, width=32, widths=(4, 8), embed_dim=4, compute_dtype="float32"),
        mss=MssConfig(1, 1, 16, 4),
        data=DataConfig(synth=synth, labeled_ratio=0.2, dir=str(tmp_path / "data")),
    )
    cfg_path = str(tmp_path / "config.json")
    save_config(cfg_path, cfg)
    assert main(["gen-data", "--config", cfg_path]) == 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "ckpt"
    proc = subprocess.run(
        [sys.executable, "-m", "switchlab.cli", "pretrain", "--config", cfg_path, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["data error: pretraining diverged at step 3: logits contain non-finite values"]
    steps = [json.loads(line)["step"] for line in (out / "pretrain_log.jsonl").read_text().splitlines()]
    assert steps == [0, 1, 2]


def _variant(workdir, name, **changes):
    """Write a copy of the workdir config with ``changes`` (dotted keys) applied."""
    cfg = json.loads((workdir / "config.json").read_text())
    for dotted, value in changes.items():
        *parents, key = dotted.split(".")
        part = cfg
        for parent in parents:
            part = part[parent]
        part[key] = value
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gen_data_seeds_the_data_with_the_synth_seed(workdir):
    # data.synth.seed seeds the data; the top-level seed (9 here) seeds training
    written = []
    for synth_seed in (7, 0):
        out = workdir / f"data{synth_seed}"
        cfg = _variant(workdir, f"seed{synth_seed}", **{"data.synth.seed": synth_seed})
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        written.append((out / "test" / "img_00019.pgm").read_bytes())
    assert written[0] != written[1]
    synth = SynthConfig(height=32, width=32, count=20, roi_fraction=(0.05, 0.16), seed=7)
    pgm.write_pgm(workdir / "want.pgm", synthdata.make_dataset(synth, 0.3).test[-1].image)
    assert written[0] == (workdir / "want.pgm").read_bytes()


@pytest.mark.parametrize("command", [["pretrain"], ["train", "--init", "none.bin"], ["eval", "--ckpt", "none.bin"]])
def test_dataset_of_another_raster_is_a_data_error(workdir, capsys, command):
    assert main(["gen-data", "--config", str(workdir / "config.json")]) == 0
    big = _variant(workdir, "big", **{"net.height": 48, "net.width": 48, "data.synth.height": 48, "data.synth.width": 48})
    capsys.readouterr()
    assert main([command[0], "--config", big, *command[1:], "--out", str(workdir / "out")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: dataset {workdir / 'data'}: item ")
    assert err[0].endswith(" is 32x32, the network takes 48x48")


def test_eval_of_an_empty_split_is_a_data_error(workdir, capsys):
    cfg = _variant(workdir, "no_val", **{"data.split_ratios": [0.9, 0.0, 0.1]})
    assert main(["gen-data", "--config", cfg]) == 0
    ckpt = workdir / "init.bin"
    net = NetConfig(height=32, width=32, widths=(3, 4), embed_dim=4)
    network.save_params(ckpt, network.init_params(net, np.random.default_rng(0)))
    capsys.readouterr()
    args = ["eval", "--config", cfg, "--ckpt", str(ckpt), "--split", "val", "--out", str(workdir / "report")]
    assert main(args) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"data error: dataset {workdir / 'data'} has no val items to evaluate"]
    assert not (workdir / "report" / "metrics_val.json").exists()


@pytest.mark.parametrize("kind", ["img", "msk"])
def test_unreadable_dataset_image_is_a_data_error(workdir, capsys, kind):
    # the path exists but cannot be read as a file
    cfg = str(workdir / "config.json")
    assert main(["gen-data", "--config", cfg]) == 0
    val_id = json.loads((workdir / "data" / "manifest.json").read_text())["val"][0]["id"]
    path = workdir / "data" / "val" / f"{kind}_{val_id}.pgm"
    path.unlink()
    path.mkdir()
    ckpt = workdir / "init.bin"
    net = NetConfig(height=32, width=32, widths=(3, 4), embed_dim=4)
    network.save_params(ckpt, network.init_params(net, np.random.default_rng(0)))
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--ckpt", str(ckpt), "--split", "val", "--out", str(workdir / "report")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"data error: cannot read PGM {path}: Is a directory"]


def test_pgm_with_a_negative_size_is_a_data_error(workdir, capsys):
    cfg = str(workdir / "config.json")
    assert main(["gen-data", "--config", cfg]) == 0
    val_id = json.loads((workdir / "data" / "manifest.json").read_text())["val"][0]["id"]
    path = workdir / "data" / "val" / f"img_{val_id}.pgm"
    path.write_bytes(b"P5\n-32 -32\n255\n" + bytes(1024))
    capsys.readouterr()
    assert main(["pretrain", "--config", cfg, "--out", str(workdir / "ckpt")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"data error: {path}: PGM width and height must be positive, got -32x-32"]


def test_fds_demo_takes_its_pair_from_the_images_that_exist(workdir, capsys):
    # the pair is the first labeled image and the first val image, or without val items the first test image
    for name, ratios, part_b in [("with_val", [0.8, 0.1, 0.1], "val"), ("no_val", [0.9, 0.0, 0.1], "test")]:
        root = workdir / name
        cfg = _variant(workdir, name, **{"data.split_ratios": ratios})
        assert main(["gen-data", "--config", cfg, "--out", str(root), "--fds-demo"]) == 0
        manifest = json.loads((root / "manifest.json").read_text())
        a = next(e["id"] for e in manifest["train"] if e["labeled"])
        b = manifest[part_b][0]["id"]
        demo = root / "fds_demo"
        assert (demo / "pair_a_before.pgm").read_bytes() == (root / "train" / f"img_{a}.pgm").read_bytes()
        assert (demo / "pair_b_before.pgm").read_bytes() == (root / part_b / f"img_{b}.pgm").read_bytes()
    one = _variant(
        workdir, "one", **{"data.synth.count": 1, "data.split_ratios": [1.0, 0.0, 0.0], "data.labeled_ratio": 1.0}
    )
    capsys.readouterr()
    assert main(["gen-data", "--config", one, "--out", str(workdir / "one"), "--fds-demo"]) == 3
    assert _one_error_line(capsys, "data error: the frequency-switch demo needs at least two images")
    assert not (workdir / "one" / "fds_demo").exists()


@pytest.mark.parametrize("name", ["strategy_analysis.json", "prob_map_mss_p2_q2.pgm"])
def test_unwritable_strategy_output_is_a_config_error(workdir, capsys, name):
    out = workdir / "strategy"
    (out / name).mkdir(parents=True)
    assert main(["analyze-strategy", "--iters", "10", "--size", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: cannot write {out / name}: Is a directory"]


@pytest.mark.parametrize("name", ["metrics_test.csv", "metrics_test.json"])
def test_unwritable_eval_report_is_a_config_error(workdir, capsys, name):
    cfg = str(workdir / "config.json")
    assert main(["gen-data", "--config", cfg]) == 0
    ckpt = workdir / "init.bin"
    net = NetConfig(height=32, width=32, widths=(3, 4), embed_dim=4)
    network.save_params(ckpt, network.init_params(net, np.random.default_rng(0)))
    out = workdir / "report"
    (out / name).mkdir(parents=True)
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--ckpt", str(ckpt), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: cannot write {out / name}: Is a directory"]


def test_unwritable_checkpoint_and_manifest_are_config_errors(workdir, capsys):
    cfg = str(workdir / "config.json")
    (workdir / "data" / "manifest.json").mkdir(parents=True)
    assert main(["gen-data", "--config", cfg]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"config error: cannot write {workdir / 'data' / 'manifest.json'}: Is a directory"
    ]
    (workdir / "data" / "manifest.json").rmdir()
    assert main(["gen-data", "--config", cfg]) == 0
    ckpt = workdir / "ckpt" / "pretrain_student.bin"
    ckpt.mkdir(parents=True)
    capsys.readouterr()
    assert main(["pretrain", "--config", cfg, "--out", str(workdir / "ckpt")]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"config error: cannot write {ckpt}: Is a directory"]
    assert (workdir / "ckpt" / "pretrain_log.jsonl").exists()  # the log was written before the checkpoint
