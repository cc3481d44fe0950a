"""Two-phase training orchestration, evaluation, and the mask-strategy study.

Phase 1 (pretrain): the student trains on switched pairs built from labeled
data only, with the plain (dice + ce)/2 loss; the teacher does not exist yet.

Phase 2 (self-train): each step draws equal labeled and unlabeled
sub-batches, pseudo-labels the unlabeled ones with the teacher (argmax +
largest-component filtering), augments all of them as one stack, splits it
into quarters, mixes both directions through one multiscale mask, builds
the frequency-switched twins with the same mask, and optimizes the
region-weighted mixed loss plus contrastive and consistency terms. The
mixtures and their twins go through the student as one stacked batch: one
forward and one backward per step. The teacher follows the student by EMA.

Both phases run through one step loop, ``_run_phase``, which also holds the
one divergence rule (non-finite loss or logits stop the run with a DataError).

Everything is a pure function of (config, seed): identical runs produce
bitwise-identical logs and checkpoints.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fds, losses, mss, network
from .augment import AugmentPolicy, apply_augmentations, sample_augmentations
from .errors import ConfigError, DataError, NonFiniteError
from .fds import FdsConfig
from .grid import argmax_channels, softmax_channels
from .losses import LossWeights
from .metrics import MetricReport
from .mss import MssConfig, switch_pair
from .network import NetConfig, SegNetParams
from .pseudo import pseudo_labels
from .synthdata import DatasetSplit, SynthConfig


@dataclass(frozen=True)
class DataConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    labeled_ratio: float = 0.05
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    dir: str = "data"


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    lr0: float = 0.05
    momentum: float = 0.9
    pretrain_iters: int = 10000
    selftrain_iters: int = 30000
    labeled_batch: int = 8
    unlabeled_batch: int = 8
    ema_alpha: float = 0.99
    use_mss: bool = True          # off: the switch mask degenerates to all-true
    eval_every: int = 1000
    eval_with: str = "teacher"    # which network the eval/selection step scores
    net: NetConfig = field(default_factory=NetConfig)
    mss: MssConfig = field(default_factory=MssConfig)
    fds: FdsConfig = field(default_factory=FdsConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    augment: AugmentPolicy = field(default_factory=AugmentPolicy)
    data: DataConfig = field(default_factory=DataConfig)

    def __post_init__(self) -> None:
        """Cross-field checks; each nested config checked itself when it was built."""
        self.mss.validate(self.net.height, self.net.width)
        if self.lr0 <= 0:
            raise ConfigError("lr0 must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.pretrain_iters < 1 or self.selftrain_iters < 1:
            raise ConfigError("iteration counts must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.labeled_batch != self.unlabeled_batch:
            raise ConfigError("labeled_batch and unlabeled_batch must be equal (mixtures pair them 1:1)")
        if self.labeled_batch < 2 or self.labeled_batch % 2:
            raise ConfigError("the batch sizes must be even numbers >= 2 (they split into halves)")
        if not 0.0 <= self.ema_alpha <= 1.0:
            raise ConfigError("ema_alpha must be in [0, 1]")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be at least 1")
        if self.eval_with not in ("teacher", "student"):
            raise ConfigError("eval_with must be 'teacher' or 'student'")
        if (self.net.height, self.net.width) != (self.data.synth.height, self.data.synth.width):
            raise ConfigError("network input size must match the dataset image size")


# ---------------------------------------------------------------------------
# config (de)serialization: one JSON document, paper defaults as defaults


def config_to_dict(cfg: TrainConfig) -> dict:
    return dataclasses.asdict(cfg)


def _is_a(value, tp) -> bool:
    """Whether a JSON value fits a field annotation: an int is no bool, a float
    may be an int but must be finite as a float (Python's json reads NaN,
    Infinity and integers of any size), and a tuple is a list whose elements
    fit one by one."""
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_is_a, value, args))
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max  # false for NaN
    return isinstance(value, tp)


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    types = typing.get_type_hints(cls)
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        tp = types[name]
        if dataclasses.is_dataclass(tp):
            kwargs[name] = _build(tp, value, f"{path}.{name}")
        elif not _is_a(value, tp):
            shown = "finite float" if tp is float else tp.__name__ if typing.get_origin(tp) is None else tp
            raise ConfigError(f"{path}.{name}: expected {shown}, got {json.dumps(value, default=repr)}")
        else:
            kwargs[name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def config_from_dict(data: dict) -> TrainConfig:
    return _build(TrainConfig, data, "config")


def load_config(path) -> TrainConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(path, cfg: TrainConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# training log


class TrainLog:
    """Ordered step/eval records, serializable as line-delimited JSON."""

    def __init__(self):
        self.records: list[dict] = []

    def add(self, **record) -> None:
        self.records.append(record)

    def lines(self) -> list[str]:
        return [json.dumps(r, sort_keys=True) for r in self.records]

    def write(self, path) -> None:
        network._write_atomic(path, ((line + "\n").encode("ascii") for line in self.lines()))


# ---------------------------------------------------------------------------
# batch construction


@dataclass
class StepBatch:
    """All arrays one self-training step consumes (built once per step). Each image
    array holds n = batch/2 images; the student sees all four as one stack."""

    mix_ub: np.ndarray                 # unlabeled-base switched images (N, H, W)
    mix_lb: np.ndarray                 # labeled-base switched images
    base_ub: np.ndarray                # pseudo labels on the mask region of mix_ub
    patch_ub: np.ndarray               # ground truth on the complement of mix_ub
    base_lb: np.ndarray                # ground truth on the mask region of mix_lb
    patch_lb: np.ndarray               # pseudo labels on the complement of mix_lb
    mask: np.ndarray                   # shared switch mask (H, W)
    mix_ub_freq: Optional[np.ndarray]  # frequency-switched twins, same mask (None if FDS off)
    mix_lb_freq: Optional[np.ndarray]


def _draw(items, size: int, rng: np.random.Generator, what: str):
    if not items:
        raise DataError(f"the dataset has no {what} items to draw a batch from")
    idx = rng.choice(len(items), size=size, replace=len(items) < size)
    return [items[int(i)] for i in idx]


def _stack_images(items) -> np.ndarray:
    return np.stack([it.image for it in items]).astype(np.float64)


def _stack_masks(items) -> np.ndarray:
    return np.stack([it.mask for it in items]).astype(np.uint8)


def _augment_batch(images, labels, policy: AugmentPolicy, rng) -> tuple[np.ndarray, np.ndarray]:
    out_i = np.empty_like(images)
    out_l = np.empty_like(labels)
    for k in range(images.shape[0]):
        ops = sample_augmentations(policy, rng)
        out_i[k], out_l[k] = apply_augmentations(images[k], labels[k], ops)
    return out_i, out_l


def _switch_mask(cfg: TrainConfig, rng) -> np.ndarray:
    if not cfg.use_mss:
        return np.ones((cfg.net.height, cfg.net.width), dtype=bool)
    return mss.generate_multiscale_mask(cfg.net.height, cfg.net.width, cfg.mss, rng)


def _uses_fds(w: LossWeights) -> bool:
    """The frequency twins feed only the contrastive and consistency terms, so
    FDS is on exactly when one of their weights is."""
    return w.lambda_contrastive > 0 or w.lambda_consistency > 0


def build_selftrain_batch(
    cfg: TrainConfig, data: DatasetSplit, teacher: SegNetParams, rng: np.random.Generator
) -> StepBatch:
    """Draw, pseudo-label, augment, switch, and frequency-switch one step's data."""
    labeled = _draw(data.labeled, cfg.labeled_batch, rng, "labeled")
    unlabeled = _draw(data.unlabeled, cfg.unlabeled_batch, rng, "unlabeled")

    # teacher sees the raw unlabeled images; geometry applied afterwards to
    # image and pseudo label together keeps them aligned
    u = _stack_images(unlabeled)
    yu = pseudo_labels(network.forward(teacher, u).logits)
    x = np.concatenate([_stack_images(labeled), u])
    y = np.concatenate([_stack_masks(labeled), yu])
    images, labels = _augment_batch(x, y, cfg.augment, rng)
    # quarters of n images: labeled x1, x2 and unlabeled u1, u2
    x1, x2, u1, u2 = np.split(images, 4)
    y1, y2, yu1, yu2 = np.split(labels, 4)

    m = _switch_mask(cfg, rng)
    mix_ub, mix_lb = switch_pair(x1, x2, u1, u2, m)

    mix_ub_freq = mix_lb_freq = None
    if _uses_fds(cfg.loss):
        # pairs x1/u1 and x2/u2 image by image
        xf, uf = fds.fds_batch(images[: cfg.labeled_batch], images[cfg.labeled_batch :], cfg.fds)
        mix_ub_freq, mix_lb_freq = switch_pair(*np.split(xf, 2), *np.split(uf, 2), m)

    return StepBatch(
        mix_ub=mix_ub,
        mix_lb=mix_lb,
        base_ub=yu1,
        patch_ub=y1,
        base_lb=y2,
        patch_lb=yu2,
        mask=m,
        mix_ub_freq=mix_ub_freq,
        mix_lb_freq=mix_lb_freq,
    )


# ---------------------------------------------------------------------------
# loss + gradient assembly


ALL_TERMS = ("mss", "contrastive", "consistency")


def selftrain_loss_and_grad(
    student: SegNetParams,
    batch: StepBatch,
    cfg: TrainConfig,
    terms: tuple[str, ...] = ALL_TERMS,
    frozen_keys: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[dict, SegNetParams]:
    """Loss components and the full parameter gradient for one step.

    The student runs once, forward and backward, on the stacked batch
    [mix_ub; mix_lb; mix_ub_freq; mix_lb_freq] (4n images). The frequency
    twins are left out (2n images) when no term needs them: the consistency
    term is off and the contrastive keys are frozen or off.

    The contrastive keys (projections of the twins' features) are constants:
    they are either computed from the current student's twin rows or
    supplied via ``frozen_keys``, and never backpropagated. The consistency
    term does flow through the twins' logits. With live keys and no
    consistency term the twins' rows carry a zero gradient through the
    backward; that costs a larger backward but keeps a single code path.

    The MSS terms stay per direction, because ``losses.mss_loss`` is the
    mean of the four region-weighted terms. InfoNCE takes both directions
    in one call; its mean over the 2n x K query rows is the mean of the two
    directions' losses.
    """
    w = cfg.loss
    grads = SegNetParams(student.cfg)
    comp = {"mss": 0.0, "contrastive": 0.0, "consistency": 0.0}
    n = batch.mix_ub.shape[0]
    want_consist = "consistency" in terms and w.lambda_consistency > 0
    want_cont = "contrastive" in terms and w.lambda_contrastive > 0
    live_keys = want_cont and frozen_keys is None

    stack = [batch.mix_ub, batch.mix_lb]
    if want_consist or live_keys:
        stack += [batch.mix_ub_freq, batch.mix_lb_freq]
    cache: dict = {}
    out = network.forward(student, np.concatenate(stack), cache)
    dlog = np.zeros_like(out.logits)
    dfeat = None

    if "mss" in terms:
        d_ub, c_ub, g_ub = losses.mixed_region_terms_grad(
            out.logits[:n], batch.base_ub, batch.patch_ub, batch.mask, w
        )
        d_lb, c_lb, g_lb = losses.mixed_region_terms_grad(
            out.logits[n : 2 * n], batch.base_lb, batch.patch_lb, batch.mask, w
        )
        comp["mss"] = losses.mss_loss(d_ub, c_ub, d_lb, c_lb)
        dlog[:n] += 0.25 * g_ub
        dlog[n : 2 * n] += 0.25 * g_lb

    if want_consist:
        v, da, db = losses.consistency_mse_grad(out.logits[: 2 * n], out.logits[2 * n :])
        comp["consistency"] = v
        dlog[: 2 * n] += w.lambda_consistency * da
        dlog[2 * n :] = w.lambda_consistency * db

    if want_cont:
        pcache: dict = {}
        h_raw = network.project(student, out.features[: 2 * n], pcache)
        if frozen_keys is not None:
            keys = np.concatenate(frozen_keys)
        else:
            keys = network.project(student, out.features[2 * n :])
        # With raw dot products the objective is unbounded below (inflating
        # embedding norms drives it to -inf) and training diverges; unit
        # vectors make the similarities cosines, the regime a 0.07
        # temperature belongs to.
        h, h_norms = losses.l2_normalize_positions(h_raw)
        keys, _ = losses.l2_normalize_positions(keys)
        comp["contrastive"], dh = losses.infonce_grad(h, keys, w.temperature, w.include_positive_in_denominator)
        dh = losses.l2_normalize_backward(h, h_norms, w.lambda_contrastive * dh)
        dfeat = network.project_backward(student, pcache, dh, grads)  # the first 2n images' rows

    del out  # the cache alone holds the features, so the backward frees them after the head
    network.backward(student, cache, dlog, dfeat, grads)
    comp["total"] = losses.total_loss(comp["mss"], comp["contrastive"], comp["consistency"], w)
    return comp, grads


def build_pretrain_batch(
    cfg: TrainConfig, data: DatasetSplit, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Labeled-only switched pairs: both mixing directions with composed labels."""
    labeled = _draw(data.labeled, cfg.labeled_batch, rng, "labeled")
    images, labels = _augment_batch(_stack_images(labeled), _stack_masks(labeled), cfg.augment, rng)
    a, b = np.split(images, 2)
    ya, yb = np.split(labels, 2)
    m = _switch_mask(cfg, rng)
    images = np.concatenate(switch_pair(b, b, a, a, m))
    labels = np.concatenate(switch_pair(yb, yb, ya, ya, m))
    return images, labels


def pretrain_loss_and_grad(
    student: SegNetParams, images: np.ndarray, labels: np.ndarray
) -> tuple[float, SegNetParams]:
    cache: dict = {}
    out = network.forward(student, images, cache)
    loss, dlogits = losses.pretrain_loss_grad(out.logits, labels)
    grads = network.backward(student, cache, dlogits)
    return loss, grads


# ---------------------------------------------------------------------------
# phases


@dataclass
class PhaseResult:
    student: SegNetParams
    teacher: Optional[SegNetParams]
    log: TrainLog
    best: Optional[SegNetParams]       # best-validation copy of the eval target
    best_val_dice: Optional[float]


def _run_phase(cfg, data, phase, iters, student, teacher, step_fn, log) -> PhaseResult:
    """Cosine LR, ``step_fn`` (batch, loss and gradient), SGD with momentum, the
    teacher's EMA if there is a teacher, one log record, and every ``eval_every``
    steps a validation eval that keeps the best copy. Non-finite values in the record
    ``step_fn`` returns (checked before the update, each named ``<key> <value>``) or
    in the logits raise a DataError, which replaces numpy's float warnings."""
    log = TrainLog() if log is None else log
    velocity = np.zeros_like(student.vector)
    model = "student" if teacher is None else cfg.eval_with
    target = teacher if model == "teacher" else student
    best, best_dice = None, None
    try:
        with np.errstate(all="ignore"):
            for step in range(iters):
                lr = network.cosine_lr(step, iters, cfg.lr0)
                record, grads = step_fn()
                bad = [f"{key} {value}" for key, value in record.items() if not np.isfinite(value)]
                if bad:
                    raise NonFiniteError(", ".join(bad))
                network.sgd_step(student, grads, lr, cfg.momentum, velocity)
                if teacher is not None:
                    network.ema_update(teacher, student, cfg.ema_alpha)
                log.add(phase=phase, step=step, lr=lr, **record)
                if data.val and ((step + 1) % cfg.eval_every == 0 or step + 1 == iters):
                    agg = evaluate(target, data.val, batch_size=cfg.labeled_batch).aggregate()
                    log.add(phase=phase, step=step, event="eval", split="val", model=model, **agg)
                    if best_dice is None or agg["dice_mean"] > best_dice:
                        best, best_dice = target.copy(), agg["dice_mean"]
    except NonFiniteError as exc:
        label = "pretraining" if phase == "pretrain" else "self-training"
        raise DataError(f"{label} diverged at step {step}: {exc}") from exc
    return PhaseResult(student, teacher, log, best, best_dice)


def pretrain(cfg: TrainConfig, data: DatasetSplit, log: Optional[TrainLog] = None) -> PhaseResult:
    """Supervised phase on switched labeled pairs, logged to ``log`` (a new one if None)."""
    rng_init = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(10,)))
    student = network.init_params(cfg.net, rng_init)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(11,)))

    def step():
        loss, grads = pretrain_loss_and_grad(student, *build_pretrain_batch(cfg, data, rng))
        return {"loss": loss}, grads

    return _run_phase(cfg, data, "pretrain", cfg.pretrain_iters, student, None, step, log)


def self_train(
    cfg: TrainConfig, data: DatasetSplit, init: SegNetParams, log: Optional[TrainLog] = None
) -> PhaseResult:
    """Semi-supervised phase; the teacher starts as a copy of the student. ``log`` as in pretrain."""
    student = init.copy()
    teacher = init.copy()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(12,)))

    def step():
        comp, grads = selftrain_loss_and_grad(student, build_selftrain_batch(cfg, data, teacher, rng), cfg)
        record = dict(mss=comp["mss"], cont=comp["contrastive"], consist=comp["consistency"], total=comp["total"])
        return record, grads

    return _run_phase(cfg, data, "selftrain", cfg.selftrain_iters, student, teacher, step, log)


def evaluate(params: SegNetParams, items, batch_size: int = 8, use_lcc: bool = False) -> MetricReport:
    """Score a network on items with ground truth; no post-processing by default."""
    report = MetricReport()
    for start in range(0, len(items), batch_size):
        chunk = items[start : start + batch_size]
        logits = network.forward(params, _stack_images(chunk)).logits
        preds = pseudo_labels(logits) if use_lcc else argmax_channels(softmax_channels(logits))
        for item, pred in zip(chunk, preds):
            if item.mask is None:
                raise DataError(f"item {item.id} has no ground truth to evaluate against")
            report.add(item.id, pred, item.mask)
    return report


# ---------------------------------------------------------------------------
# mask-strategy study


def strategy_analysis(n_iter: int = 10000, height: int = 256, width: int = 256, seed: int = 0) -> dict:
    """Monte Carlo comparison of switch-mask strategies.

    Patch sizes scale with the raster (h/2 coarse, h/8 fine), matching the
    standard 128/32 at 256x256. Reductions are relative to the single-square
    2/3 baseline; n_iter of a few thousand or more gives stable statistics.
    """
    if n_iter < 1 or min(height, width) < 2 or seed < 0:
        raise ConfigError(
            f"need at least 1 iteration, a raster of at least 2x2 and a non-negative seed; "
            f"got {n_iter} iterations, {height}x{width}, seed {seed}"
        )
    coarse = max(1, height // 2)
    fine = max(1, height // 8)
    strategies = {
        "mss_p2_q2": lambda rng, c=MssConfig(2, 2, coarse, fine): mss.generate_multiscale_mask(
            height, width, c, rng
        ),
        "mss_p2_q10": lambda rng, c=MssConfig(2, 10, coarse, fine): mss.generate_multiscale_mask(
            height, width, c, rng
        ),
        "bcp_2_3": lambda rng: mss.generate_bcp_mask(height, width, 2.0 / 3.0, rng),
    }
    report: dict = {"n_iter": n_iter, "height": height, "width": width, "seed": seed, "strategies": {}}
    maps = {}
    for i, (name, sampler) in enumerate(strategies.items()):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(20, i)))
        pmap = mss.switch_probability_map(sampler, n_iter, rng)
        maps[name] = pmap
        report["strategies"][name] = {
            "strategy": name,
            "n_iter": n_iter,
            "mean": float(pmap.mean()),
            "std": float(pmap.std()),
            "gradient_variance": mss.mask_gradient_variance(pmap),
        }
    base = report["strategies"]["bcp_2_3"]
    report["reductions_vs_bcp"] = {}
    for name in ("mss_p2_q2", "mss_p2_q10"):
        s = report["strategies"][name]
        report["reductions_vs_bcp"][name] = {
            "std_reduction_pct": 100.0 * (base["std"] - s["std"]) / base["std"],
            "gradient_variance_reduction_pct": 100.0
            * (base["gradient_variance"] - s["gradient_variance"])
            / base["gradient_variance"],
        }
    report["probability_maps"] = maps
    return report
