"""One benchmark run: the pipeline, inference throughput, output checks and,
in traced mode, the step-loop replay with its per-layer spans."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass

import numpy as np
import scipy

from switchlab import fds, losses, metrics, network, pseudo, trainer
from switchlab.grid import argmax_channels, softmax_channels

import checks
import tracing
from workloads import WORKLOADS, PipelineRun, Workload, run_pipeline

INFER_BATCH = 8
MIN_INFER_PASSES = 5
LOSS_KEYS = ("loss", "mss", "cont", "consist", "total")


@dataclass
class Result:
    values: dict            # metric name -> value
    failures: list          # messages of failed output checks
    attempted: int
    tracer: tracing.Tracer
    stamp: dict


def param_hash(params: network.SegNetParams) -> str:
    return hashlib.sha256(params.vector.astype("<f8").tobytes()).hexdigest()


def infer_rates(teacher, items, deadline: float, min_passes: int) -> list[float]:
    """Images per second of forward + argmax over ``items`` at batch 8, one
    value per pass; passes repeat until ``deadline`` (at least ``min_passes``)."""
    images = np.stack([it.image for it in items]).astype(np.float64)
    rates = []
    while len(rates) < min_passes or time.perf_counter() < deadline:
        start = time.perf_counter()
        for s in range(0, len(images), INFER_BATCH):
            argmax_channels(softmax_channels(network.forward(teacher, images[s : s + INFER_BATCH]).logits))
        rates.append(len(images) / (time.perf_counter() - start))
    return rates


def run(wl: Workload, seed: int, seconds: float, trace: bool, work: str, t0: float, stamp: dict) -> Result:
    tracer = tracing.Tracer(f"{wl.name}-seed{seed}-{os.getpid()}")
    p = run_pipeline(wl, seed, work, tracer)
    cfg = p.cfg
    stamp = dict(stamp, workload=wl.name, seed=seed, numpy=np.__version__, scipy=scipy.__version__,
                 dtype=cfg.net.compute_dtype)
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"teacher_sha256 {param_hash(p.teacher)}")
    print(f"test dice {p.test_dice:.2f} (reported for reference, not bounded)")

    rates = infer_rates(p.teacher, p.data.test, 0.0 if trace else t0 + seconds, 1 if trace else MIN_INFER_PASSES)
    values = {
        "setup_s": p.setup_end - t0,
        "pretrain_step_ms": 1e3 * tracer.seconds("cli.pretrain")[0] / cfg.pretrain_iters,
        "selftrain_step_ms": 1e3 * tracer.seconds("cli.train")[0] / cfg.selftrain_iters,
        "infer_img_per_s": float(np.median(rates)),
        "pipeline_s": p.pipeline_end - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"inference passes {len(rates)} over {len(p.data.test)} test images")
    attempted = cfg.pretrain_iters + cfg.selftrain_iters + len(rates)

    pairs = checks.mask_pairs(cfg.net.height, 4, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,))))
    failures = []
    start = time.perf_counter()
    for name, fails in output_checks(wl, p, seed, pairs).items():
        print(f"check {name}: {'ok' if not fails else 'FAILED'}")
        for msg in fails:
            print(f"  {msg}")
        failures += fails
    print(f"checks took {time.perf_counter() - start:.1f} s")

    if trace:
        values = traced(tracer, p, pairs, work)
        attempted += cfg.pretrain_iters + cfg.selftrain_iters
    return Result(values, failures, attempted, tracer, stamp)


# ---------------------------------------------------------------------------
# output checks


def output_checks(wl: Workload, p: PipelineRun, seed: int, pairs: list) -> dict:
    cfg, data, student = p.cfg, p.data, p.student
    w = cfg.loss
    f32 = cfg.net.compute_dtype == "float32"
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(8,)))
    out = {}

    finite = {}
    steps = {"pretrain": 0, "selftrain": 0}
    for rec in p.log_records:
        if rec.get("event") == "eval":
            continue
        steps[rec["phase"]] += 1
        finite.update({f"{rec['phase']} step {rec['step']} {k}": rec[k] for k in LOSS_KEYS if k in rec})
    want = {"pretrain": cfg.pretrain_iters, "selftrain": cfg.selftrain_iters}
    out["training logs complete"] = [] if steps == want else [f"logged steps {steps}, expected {want}"]
    out["sealed truth unread during training"] = checks.check_sealed(p.sealed_reads)

    # one self-train batch from the trained teacher, cut to k images per direction
    batch = trainer.build_selftrain_batch(cfg, data, p.teacher, rng)
    k = wl.check_pairs
    batch = dataclasses.replace(
        batch, **{f.name: getattr(batch, f.name)[:k] for f in dataclasses.fields(batch) if f.name != "mask"}
    )
    main = network.forward(student, np.concatenate([batch.mix_ub, batch.mix_lb]))
    freq = network.forward(student, np.concatenate([batch.mix_ub_freq, batch.mix_lb_freq]))
    h, _ = losses.l2_normalize_positions(network.project(student, main.features))
    keys_raw = network.project(student, freq.features)
    keys, _ = losses.l2_normalize_positions(keys_raw)
    loss, grad = losses.infonce_grad(h[:k], keys[:k], w.temperature, w.include_positive_in_denominator)
    rows = np.sort(rng.choice(h.shape[2], size=min(h.shape[2], 256), replace=False))
    out["infonce vs plain log-sum-exp"] = checks.check_infonce(
        h[:k], keys[:k], w.temperature, w.include_positive_in_denominator, loss, grad, rows,
        rtol=1e-3 if f32 else 1e-9,
    )

    # in float64 arithmetic whatever the workload's dtype: float32 rounding and
    # ReLU kinks put a float32 central difference several percent off
    cfg64 = dataclasses.replace(cfg, net=dataclasses.replace(cfg.net, compute_dtype="float64"))
    frozen = (keys_raw[:k], keys_raw[k:])

    def loss_at(vector):
        params = network.SegNetParams(cfg64.net, vector)
        return trainer.selftrain_loss_and_grad(params, batch, cfg64, frozen_keys=frozen)[0]["total"]

    comp, g = trainer.selftrain_loss_and_grad(
        network.SegNetParams(cfg64.net, student.vector), batch, cfg64, frozen_keys=frozen
    )
    finite.update({f"check batch {name}": v for name, v in comp.items()})
    finite["check batch infonce"] = loss
    fails, rel = checks.check_gradient(loss_at, student.vector, g.vector, eps=1e-6, rtol=1e-3)
    out[f"selftrain_loss_and_grad central difference (rel err {rel:.1e})"] = fails
    out["every loss finite"] = checks.check_finite(finite)

    x = np.stack([it.image for it in data.labeled[:2]])
    u = np.stack([it.image for it in data.unlabeled[:2]])
    x_out, u_out = fds.fds_batch(x, u, cfg.fds)
    x_back, u_back = fds.fds_batch(x_out, u_out, cfg.fds)
    out["fds phase, amplitudes, energy, involution"] = checks.check_fds(
        x, u, x_out, u_out, x_back, u_back, cfg.fds.area_ratio
    )

    u_imgs = np.stack([it.image for it in data.unlabeled[: 2 * k]])
    raw = argmax_channels(softmax_channels(network.forward(p.teacher, u_imgs).logits))
    raw = np.concatenate([raw, checks.blob_masks(cfg.net.height, 4, rng)])
    labels = np.stack([pseudo.largest_connected_component(m) for m in raw])
    out["pseudo-labels one component inside the argmax"] = checks.check_pseudo_labels(raw, labels)

    # the CLI writes per-image rows with six decimals
    tol = 1e-5 if wl.via_cli else 1e-9
    out["test eval iou = dice/(2-dice)"] = checks.check_iou_dice(p.eval_rows["dice"], p.eval_rows["iou"], tol)
    report = metrics.MetricReport()
    for idx, (pred, gt) in enumerate(pairs):
        report.add(idx, pred, gt)
    out["metrics on benchmark-made pairs vs brute force"] = checks.check_iou_dice(
        report.dice, report.iou, 1e-9
    ) + checks.check_surface(pairs, report.hd95, report.asd)
    return out


# ---------------------------------------------------------------------------
# traced mode


def traced(tracer: tracing.Tracer, p: PipelineRun, pairs: list, work: str) -> dict:
    """Replay the step loop with spans and return the per-layer values."""
    cfg, data = p.cfg, p.data
    if p.pre is None:
        # the pipeline went through the CLI: run the library phases in-process
        # as the bit-for-bit and overhead reference
        start = time.perf_counter()
        pre = trainer.pretrain(cfg, data)
        mid = time.perf_counter()
        st = trainer.self_train(cfg, data, pre.student)
        ref_s = {"pretrain": mid - start, "selftrain": time.perf_counter() - mid}
    else:
        pre, st = p.pre, p.st
        ref_s = {"pretrain": tracer.seconds("cli.pretrain")[0], "selftrain": tracer.seconds("cli.train")[0]}

    values = {"trace.replay_matches": 0}
    try:
        with tracer.span("replay.pretrain"):
            student, pre_losses = tracing.replay_pretrain(tracer, cfg, data)
        pre_ok = np.array_equal(student.vector, pre.student.vector) and pre_losses == [
            r["loss"] for r in pre.log.records if "loss" in r
        ]
        with tracer.span("replay.selftrain"):
            student, teacher, st_losses = tracing.replay_selftrain(tracer, cfg, data, pre.student)
        st_ok = (
            np.array_equal(student.vector, st.student.vector)
            and np.array_equal(teacher.vector, st.teacher.vector)
            and st_losses == [r["total"] for r in st.log.records if "total" in r]
        )
        values["trace.replay_matches"] = int(pre_ok and st_ok)
        print(f"replay vs trainer.pretrain/self_train bit for bit: pretrain {pre_ok}, self-train {st_ok}")
        for phase, iters in (("pretrain", cfg.pretrain_iters), ("selftrain", cfg.selftrain_iters)):
            loop = tracer.seconds(f"replay.{phase}")[0] - sum(tracer.seconds(f"fine.{phase}"))
            values[f"trace.{phase}_overhead_pct"] = 100.0 * (loop / ref_s[phase] - 1.0)
            print(f"trace overhead {phase}: {loop / iters * 1e3:.1f} ms/step traced vs "
                  f"{ref_s[phase] / iters * 1e3:.1f} ms/step untraced")
    except tracing.Stale as exc:
        print(f"replay STALE: {exc} is absent or no longer accepts the replayed call")
    try:
        tracing.io_layers(tracer, cfg, work, p.teacher, pairs)
    except (tracing.Stale, AttributeError, TypeError) as exc:
        print(f"data and I/O layer replay STALE: {exc!r}")
    for name, why in tracer.absent.items():
        print(f"absent span {name}: {why}")
    values.update(tracing.layer_values(tracer))
    return values
