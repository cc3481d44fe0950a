"""Traced mode: spans around calls into switchlab, and the step-loop replay.

Spans are recorded from the benchmark's own code around calls into each
module's public functions; nothing inside switchlab is instrumented. The
replay drives the training loop through ``trainer``'s public step
functions in the order ``trainer.pretrain`` and ``trainer.self_train`` use
them, then re-runs each step's captured inputs through ``network``,
``losses``, ``fds`` and the other layers one call at a time. A public name
that has gone away (or no longer accepts the call) is recorded as absent
and stops that part of the replay; it never fails the run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from switchlab import augment, fds, losses, metrics, mss, network, pgm, pseudo, synthdata, trainer
from switchlab.grid import argmax_channels, softmax_channels

MIB = 1024.0 * 1024.0


class Stale(Exception):
    """A replayed call failed because the program's public API moved."""


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.absent: dict[str, str] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None}
        rec.update(attrs)
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, owner, attr: str, *args, span_name: str | None = None, **attrs):
        """Call ``owner.attr(*args)`` inside one span, named ``<module>.<attr>``
        unless ``span_name`` is given; ``attrs`` are stored on the span."""
        name = span_name or f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent[name] = "no such public name"
            raise Stale(name)
        with self.span(name, **attrs) as rec:
            try:
                return fn(*args)
            except Exception as exc:  # a stale call must not fail the end-to-end run
                rec["error"] = repr(exc)
                self.absent[name] = repr(exc)
                raise Stale(name) from exc

    def of(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and "end" in s and "error" not in s]

    def seconds(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.of(name)]

    def write(self, path: str, stamp: dict) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"run_id": self.run_id, "env": stamp, "absent": self.absent, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# operation counts


def conv_flops(cfg: network.NetConfig, n: int) -> tuple[float, float]:
    """Forward and backward floating-point operations of the trunk's convolutions.

    Counts 2 per multiply-accumulate of every 3x3 stage convolution and the
    1x1 head on an n-image batch. Backward computes both the weight and the
    input gradient of each convolution, so it counts twice the forward.
    """
    fwd = 0.0
    for name, shape in network.build_layout(cfg):
        if not name.endswith(".w") or name.startswith("proj."):
            continue
        if name == "head.w":
            fwd += 2.0 * n * cfg.height * cfg.width * shape[0] * shape[1]
            continue
        stage = int(name.split(".")[0][3:])
        side_h, side_w = cfg.height >> stage, cfg.width >> stage
        fwd += 2.0 * n * side_h * side_w * shape[0] * shape[1] * shape[2] * shape[3]
    return fwd, 2.0 * fwd


def cache_bytes(cache: dict) -> int:
    total = 0
    for value in cache.values():
        for arr in value if isinstance(value, tuple) else (value,):
            total += getattr(arr, "nbytes", 0)
    return total


# ---------------------------------------------------------------------------
# per-step layer replays


def fine_pretrain(tr: Tracer, student, images, labels) -> None:
    """A pretrain step's batch through forward, loss and backward, one span each."""
    n = images.shape[0]
    fwd, bwd = conv_flops(student.cfg, n)
    cache: dict = {}
    with tr.span("fine.pretrain"):
        out = tr.call(network, "forward", student, images, cache, flops=fwd)
        tr.spans[-1]["cache_bytes"] = cache_bytes(cache)  # call() records exactly one span
        _, dlogits = tr.call(losses, "pretrain_loss_grad", out.logits, labels)
        tr.call(network, "backward", student, cache, dlogits, flops=bwd)


def fine_selftrain(tr: Tracer, cfg, student, teacher, batch, rng) -> None:
    """A self-train step's batch through the layers of one step, one span per call.

    The teacher's forward on the step's mixed images stands in for the
    frequency-twin forward: it feeds the consistency target and the
    contrastive keys at the same cost, and its argmax feeds the LCC filter.
    """
    w = cfg.loss
    n = batch.mix_ub.shape[0]
    images = np.concatenate([batch.mix_ub, batch.mix_lb])
    fwd, bwd = conv_flops(cfg.net, images.shape[0])
    with tr.span("fine.selftrain"):
        out_t = tr.call(network, "forward", teacher, images, span_name="network.forward_nocache")
        for raw in argmax_channels(softmax_channels(out_t.logits)):
            tr.call(pseudo, "largest_connected_component", raw)
        cache: dict = {}
        out = tr.call(network, "forward", student, images, cache, flops=fwd)
        tr.spans[-1]["cache_bytes"] = cache_bytes(cache)
        g_ub = tr.call(losses, "mixed_region_terms_grad", out.logits[:n], batch.base_ub, batch.patch_ub, batch.mask, w)[2]
        g_lb = tr.call(losses, "mixed_region_terms_grad", out.logits[n:], batch.base_lb, batch.patch_lb, batch.mask, w)[2]
        tr.call(losses, "consistency_mse_grad", out.logits[:n], out_t.logits[:n])
        pcache: dict = {}
        h_raw = tr.call(network, "project", student, out.features, pcache)
        keys_raw = tr.call(network, "project", student, out_t.features)
        h, norms = tr.call(losses, "l2_normalize_positions", h_raw)
        keys, _ = losses.l2_normalize_positions(keys_raw)
        dh = []
        for part in (slice(0, n), slice(n, 2 * n)):
            tracemalloc.start()
            try:
                _, d = tr.call(losses, "infonce_grad", h[part], keys[part], w.temperature, w.include_positive_in_denominator)
                tr.spans[-1]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            dh.append(0.5 * w.lambda_contrastive * d)
        dh = losses.l2_normalize_backward(h, norms, np.concatenate(dh))
        grads = network.SegNetParams(cfg.net)
        dproj = tr.call(network, "project_backward", student, pcache, dh, grads)
        dlogits = 0.25 * np.concatenate([g_ub, g_lb])
        tr.call(network, "backward", student, cache, dlogits, dproj, grads, flops=bwd)
        tr.call(fds, "fds_batch", batch.mix_ub, batch.mix_lb, cfg.fds)
        for _ in range(4):
            tr.call(mss, "generate_multiscale_mask", cfg.net.height, cfg.net.width, cfg.mss, rng)
        for img, lbl in zip(batch.mix_ub, batch.base_ub):
            ops = augment.sample_augmentations(cfg.augment, rng)
            tr.call(augment, "apply_augmentations", img, lbl, ops)


# ---------------------------------------------------------------------------
# step-loop replay (same order of calls as trainer.pretrain / trainer.self_train)


def _eval_due(cfg, step: int, iters: int) -> bool:
    return (step + 1) % cfg.eval_every == 0 or step + 1 == iters


def _layer_replay(tr: Tracer, fn, *args) -> bool:
    """Run one step's layer replay; a name that has gone away ends the layer
    replays (it stays recorded as absent), not the step loop."""
    try:
        fn(tr, *args)
        return True
    except (Stale, AttributeError, TypeError) as exc:
        tr.absent.setdefault(fn.__name__, repr(exc))
        return False


def replay_pretrain(tr: Tracer, cfg, data):
    """Returns (student, per-step losses). Each step's layer replay runs
    outside that step's trainer spans."""
    rng_init = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(10,)))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(11,)))
    student = tr.call(network, "init_params", cfg.net, rng_init)
    velocity = np.zeros_like(student.vector)
    step_losses = []
    fine = True
    for step in range(cfg.pretrain_iters):
        lr = network.cosine_lr(step, cfg.pretrain_iters, cfg.lr0)
        images, labels = tr.call(trainer, "build_pretrain_batch", cfg, data, rng)
        fine = fine and _layer_replay(tr, fine_pretrain, student, images, labels)
        loss, grads = tr.call(trainer, "pretrain_loss_and_grad", student, images, labels)
        tr.call(network, "sgd_step", student, grads, lr, cfg.momentum, velocity)
        step_losses.append(loss)
        if _eval_due(cfg, step, cfg.pretrain_iters) and data.val:
            tr.call(trainer, "evaluate", student, data.val, max(cfg.labeled_batch, 2))
    return student, step_losses


def replay_selftrain(tr: Tracer, cfg, data, init):
    """Returns (student, teacher, per-step total losses)."""
    student, teacher = init.copy(), init.copy()
    velocity = np.zeros_like(student.vector)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(12,)))
    rng_fine = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(901,)))
    step_losses = []
    fine = True
    for step in range(cfg.selftrain_iters):
        lr = network.cosine_lr(step, cfg.selftrain_iters, cfg.lr0)
        batch = tr.call(trainer, "build_selftrain_batch", cfg, data, teacher, rng)
        fine = fine and _layer_replay(tr, fine_selftrain, cfg, student, teacher, batch, rng_fine)
        comp, grads = tr.call(trainer, "selftrain_loss_and_grad", student, batch, cfg)
        tr.call(network, "sgd_step", student, grads, lr, cfg.momentum, velocity)
        tr.call(network, "ema_update", teacher, student, cfg.ema_alpha)
        step_losses.append(comp["total"])
        if _eval_due(cfg, step, cfg.selftrain_iters) and data.val:
            target = teacher if cfg.eval_with == "teacher" else student
            tr.call(trainer, "evaluate", target, data.val, max(cfg.labeled_batch, 2))
    return student, teacher, step_losses


# ---------------------------------------------------------------------------
# data, I/O and metric layers (once per run)


def io_layers(tr: Tracer, cfg, work: str, teacher, pairs, images: int = 40) -> None:
    synth = dataclasses.replace(cfg.data.synth, count=images)
    for _ in range(3):
        split = tr.call(synthdata, "make_dataset", synth, 0.5, cfg.data.split_ratios, cfg.seed, images=images)
    items = split.labeled + split.val + split.test
    folder = os.path.join(work, "pgm_layer")
    os.makedirs(folder, exist_ok=True)
    for item in items:
        tr.call(pgm, "write_pgm", os.path.join(folder, f"img_{item.id}.pgm"), item.image)
        tr.call(pgm, "write_mask_pgm", os.path.join(folder, f"msk_{item.id}.pgm"), item.mask)
    for item in items:
        tr.call(pgm, "read_pgm", os.path.join(folder, f"img_{item.id}.pgm"))
        tr.call(pgm, "read_mask_pgm", os.path.join(folder, f"msk_{item.id}.pgm"))
    report = tr.call(metrics, "MetricReport")
    for idx, (pred, gt) in enumerate(pairs):
        tr.call(report, "add", idx, pred, gt, span_name="metrics.report_add")
    for k in range(5):
        tr.call(network, "save_params", os.path.join(work, f"save_layer_{k}.bin"), teacher)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _median_ms(tr: Tracer, name: str):
    durations = tr.seconds(name)
    return 1e3 * float(np.median(durations)) if durations else None


def _median_attr(tr: Tracer, name: str, fn):
    values = [fn(s) for s in tr.of(name)]
    values = [v for v in values if v is not None]
    return float(np.median(values)) if values else None


def layer_values(tr: Tracer) -> dict:
    """Every per-layer metric the spans support; absent layers are left out."""
    out = {}
    for name in (
        "trainer.build_pretrain_batch",
        "trainer.pretrain_loss_and_grad",
        "trainer.build_selftrain_batch",
        "trainer.selftrain_loss_and_grad",
        "network.forward",
        "network.backward",
        "network.forward_nocache",
        "network.project",
        "network.project_backward",
        "network.sgd_step",
        "network.ema_update",
        "network.save_params",
        "losses.infonce_grad",
        "losses.mixed_region_terms_grad",
        "losses.consistency_mse_grad",
        "losses.l2_normalize_positions",
        "losses.pretrain_loss_grad",
        "fds.fds_batch",
        "mss.generate_multiscale_mask",
        "augment.apply_augmentations",
        "pseudo.largest_connected_component",
        "metrics.report_add",
    ):
        out[name.replace("l2_normalize_positions", "l2_normalize") + "_ms"] = _median_ms(tr, name)
    def rate(s):
        return s["flops"] / (s["end"] - s["start"]) / 1e9 if "flops" in s else None

    def mib(key):
        return lambda s: s[key] / MIB if key in s else None

    out["network.forward_gflops"] = _median_attr(tr, "network.forward", rate)
    out["network.backward_gflops"] = _median_attr(tr, "network.backward", rate)
    out["network.forward_cache_mb"] = _median_attr(tr, "network.forward", mib("cache_bytes"))
    out["losses.infonce_grad_peak_mb"] = _median_attr(tr, "losses.infonce_grad", mib("peak_bytes"))
    out["synthdata.make_dataset_ms_per_img"] = _median_attr(
        tr, "synthdata.make_dataset", lambda s: 1e3 * (s["end"] - s["start"]) / s["images"]
    )
    # one image and its mask per item
    for op, names in (("write", ("pgm.write_pgm", "pgm.write_mask_pgm")), ("read", ("pgm.read_pgm", "pgm.read_mask_pgm"))):
        parts = [_median_ms(tr, name) for name in names]
        out[f"pgm.{op}_ms_per_img"] = None if None in parts else sum(parts)
    for phase in ("gen_data", "pretrain", "train", "eval"):
        durations = tr.seconds(f"cli.{phase}")
        out[f"cli.{phase}_s"] = durations[0] if durations else None
    return {k: v for k, v in out.items() if v is not None}
