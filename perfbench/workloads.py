"""The benchmark's two workloads and the timed pipeline each one runs.

Both are closed loops in one process: every training step waits for the
one before it. The phases of a pipeline are recorded as spans named
``cli.gen_data``, ``cli.pretrain``, ``cli.train`` and ``cli.eval``. On
``desk-pipeline`` each span is one in-process ``cli.main`` command. On
``paper-step``, which does not go through the CLI, each span is the library
call that the command wraps (``synthdata.make_dataset``, ``trainer.pretrain``,
``trainer.self_train``, ``trainer.evaluate``), without the command's file I/O.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from switchlab import cli, network, synthdata, trainer
from switchlab.mss import MssConfig
from switchlab.network import NetConfig
from switchlab.synthdata import SynthConfig
from switchlab.trainer import DataConfig, TrainConfig


def desk_config(seed: int, data_dir: str) -> TrainConfig:
    """The acceptance suite's desk config (64², float32, widths 4/8/16, 500
    images, 5 % labeled, MSS 2/2/32/8) with shorter phases; ``--seed 42``
    gives the acceptance data and initialisation."""
    synth = SynthConfig(
        height=64, width=64, count=500, roi_fraction=(0.04, 0.2),
        speckle=0.8, shadow_prob=0.6, contrast=0.18, seed=seed,
    )
    net = NetConfig(height=64, width=64, widths=(4, 8, 16), embed_dim=8, compute_dtype="float32")
    return TrainConfig(
        seed=seed,
        net=net,
        mss=MssConfig(2, 2, 32, 8),
        data=DataConfig(synth=synth, labeled_ratio=0.05, dir=data_dir),
        pretrain_iters=100,
        selftrain_iters=60,
        eval_every=50,
    )


def paper_config(seed: int, data_dir: str) -> TrainConfig:
    """Published ``TrainConfig`` defaults (256², float64, widths 8/16/32,
    embed 16, batch 8+8, MSS 2/2/128/32) on an 80-image synthetic set:
    68 train (3 labeled), 4 val, 8 test."""
    return TrainConfig(
        seed=seed,
        pretrain_iters=2,
        selftrain_iters=1,
        data=DataConfig(synth=SynthConfig(count=80, seed=seed), split_ratios=(0.85, 0.05, 0.1), dir=data_dir),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int, str], TrainConfig]
    via_cli: bool
    check_pairs: int      # images per mixing direction in the check batch


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("desk-pipeline", desk_config, via_cli=True, check_pairs=4),
        Workload("paper-step", paper_config, via_cli=False, check_pairs=1),
    )
}


@dataclass
class PipelineRun:
    cfg: TrainConfig
    data: synthdata.DatasetSplit          # what inference and the checks use
    student: network.SegNetParams
    teacher: network.SegNetParams
    log_records: list                     # pretrain then self-train log records
    eval_rows: dict                       # per-image "dice" and "iou" of the test eval
    test_dice: float
    setup_end: float                      # perf_counter when set-up finished
    pipeline_end: float                   # perf_counter when the eval phase finished
    sealed_reads: int                     # sealed-truth reads by the training phases
    pre: Optional[trainer.PhaseResult] = None
    st: Optional[trainer.PhaseResult] = None


def run_pipeline(wl: Workload, seed: int, work: str, tracer) -> PipelineRun:
    cfg = wl.make_config(seed, os.path.join(work, "data"))
    return (_run_cli if wl.via_cli else _run_in_process)(cfg, work, tracer)


def _init_network(cfg: TrainConfig) -> network.SegNetParams:
    # the same draw trainer.pretrain starts from; set-up includes it
    return network.init_params(cfg.net, np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(10,))))


def _warm_up(cfg: TrainConfig, data: synthdata.DatasetSplit, params: network.SegNetParams) -> None:
    """One untimed pretrain forward/backward on its own draw. The first passes
    at a new size page-fault their buffers in (at 256x256 the first step takes
    about 1.5x a later one); a real run pays that once, not per step."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(13,)))
    images, labels = trainer.build_pretrain_batch(cfg, data, rng)
    trainer.pretrain_loss_and_grad(params, images, labels)


@contextmanager
def _recording_loads(loaded: list):
    """Keep every split ``synthdata.load_dataset`` returns, so the sealed-truth
    read counters of the splits the CLI trains on can be inspected."""
    original = synthdata.load_dataset

    def recording(root):
        split = original(root)
        loaded.append(split)
        return split

    synthdata.load_dataset = recording
    try:
        yield
    finally:
        synthdata.load_dataset = original


def _cli(*argv: str) -> None:
    code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"switchlab {argv[0]} exited with code {code}")


def _run_cli(cfg: TrainConfig, work: str, tracer) -> PipelineRun:
    os.makedirs(work, exist_ok=True)
    cfg_path = os.path.join(work, "config.json")
    trainer.save_config(cfg_path, cfg)
    ckpt = os.path.join(work, "ckpt")
    report = os.path.join(work, "report")
    with tracer.span("cli.gen_data"):
        _cli("gen-data", "--config", cfg_path)
    params = _init_network(cfg)
    setup_end = time.perf_counter()
    _warm_up(cfg, synthdata.load_dataset(cfg.data.dir), params)
    loaded: list = []
    with _recording_loads(loaded):
        with tracer.span("cli.pretrain"):
            _cli("pretrain", "--config", cfg_path, "--out", ckpt)
        with tracer.span("cli.train"):
            _cli("train", "--config", cfg_path, "--init", os.path.join(ckpt, "pretrain_student.bin"), "--out", ckpt)
    if len(loaded) != 2:
        raise RuntimeError(f"saw {len(loaded)} dataset loads by the pretrain and train commands, expected 2")
    sealed_reads = sum(split.sealed_access_count for split in loaded)
    with tracer.span("cli.eval"):
        _cli("eval", "--config", cfg_path, "--ckpt", os.path.join(ckpt, "teacher.bin"), "--split", "test", "--out", report)
    pipeline_end = time.perf_counter()

    records = []
    for name in ("pretrain_log.jsonl", "train_log.jsonl"):
        with open(os.path.join(ckpt, name), encoding="ascii") as fh:
            records += [json.loads(line) for line in fh]
    rows = {"dice": [], "iou": []}
    with open(os.path.join(report, "metrics_test.csv"), encoding="ascii") as fh:
        next(fh)
        for line in fh:
            _, dice, iou, _, _ = line.strip().split(",")
            rows["dice"].append(float(dice))
            rows["iou"].append(float(iou))
    with open(os.path.join(report, "metrics_test.json"), encoding="ascii") as fh:
        test_dice = json.load(fh)["dice_mean"]
    return PipelineRun(
        cfg=cfg,
        data=synthdata.load_dataset(cfg.data.dir),
        student=network.load_params(os.path.join(ckpt, "student.bin"), cfg.net),
        teacher=network.load_params(os.path.join(ckpt, "teacher.bin"), cfg.net),
        log_records=records,
        eval_rows=rows,
        test_dice=test_dice,
        setup_end=setup_end,
        pipeline_end=pipeline_end,
        sealed_reads=sealed_reads,
    )


def _run_in_process(cfg: TrainConfig, work: str, tracer) -> PipelineRun:
    with tracer.span("cli.gen_data"):
        data = synthdata.make_dataset(cfg.data.synth, cfg.data.labeled_ratio, cfg.data.split_ratios, seed=cfg.seed)
    params = _init_network(cfg)
    setup_end = time.perf_counter()
    _warm_up(cfg, data, params)
    with tracer.span("cli.pretrain"):
        pre = trainer.pretrain(cfg, data)
    with tracer.span("cli.train"):
        st = trainer.self_train(cfg, data, pre.student)
    sealed_reads = data.sealed_access_count
    with tracer.span("cli.eval"):
        report = trainer.evaluate(st.teacher, data.test)
    pipeline_end = time.perf_counter()
    return PipelineRun(
        cfg=cfg,
        data=data,
        student=st.student,
        teacher=st.teacher,
        log_records=pre.log.records + st.log.records,
        eval_rows={"dice": list(report.dice), "iou": list(report.iou)},
        test_dice=report.aggregate()["dice_mean"],
        setup_end=setup_end,
        pipeline_end=pipeline_end,
        sealed_reads=sealed_reads,
        pre=pre,
        st=st,
    )
