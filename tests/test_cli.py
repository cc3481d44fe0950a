import json

import pytest

from switchlab import losses, pgm
from switchlab.cli import main
from switchlab.mss import MssConfig
from switchlab.network import NetConfig
from switchlab.synthdata import SynthConfig
from switchlab.trainer import DataConfig, TrainConfig, save_config


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


def test_diverged_pretraining_is_a_data_error(workdir, capsys, monkeypatch):
    cfg_path = str(workdir / "config.json")
    assert main(["gen-data", "--config", cfg_path]) == 0
    real = losses.pretrain_loss_grad
    monkeypatch.setattr(losses, "pretrain_loss_grad", lambda *a: (float("nan"), real(*a)[1]))
    capsys.readouterr()
    assert main(["pretrain", "--config", cfg_path, "--out", str(workdir / "ckpt")]) == 3
    err = capsys.readouterr().err.strip()
    assert err == "data error: pretraining diverged at step 0: loss nan"


def test_diverged_self_training_is_a_data_error(workdir, capsys, monkeypatch):
    cfg_path = str(workdir / "config.json")
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["pretrain", "--config", cfg_path, "--out", str(workdir / "ckpt")]) == 0
    real = losses.mixed_region_terms_grad
    monkeypatch.setattr(losses, "mixed_region_terms_grad", lambda *a: (float("nan"), *real(*a)[1:]))
    capsys.readouterr()
    init = str(workdir / "ckpt" / "pretrain_student.bin")
    assert main(["train", "--config", cfg_path, "--init", init, "--out", str(workdir / "st")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: self-training diverged at step 0: ")
    assert "nan" in err[0]


@pytest.mark.parametrize("manifest", ["{not json", '{"train": [{"labeled": true}]}', '{"val": 3}'])
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
