"""Command-line interface.

    switchlab gen-data         --config c.json [--fds-demo]
    switchlab pretrain         --config c.json --out ckpt/
    switchlab train            --config c.json --init ckpt/pretrain_student.bin --out ckpt/
    switchlab eval             --config c.json --ckpt ckpt/teacher.bin --split test --out report/
    switchlab analyze-strategy --iters 10000 --out report/ [--size 256] [--seed 0]

The config is a single JSON document (see ``trainer.TrainConfig``); every
default matches the published hyperparameters. Logs are line-delimited
JSON. Exit codes: 0 success, 2 config error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fds, network, pgm, synthdata, trainer
from .errors import ConfigError, DataError


def _make_out_dir(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from exc


def _cmd_gen_data(args) -> int:
    cfg = trainer.load_config(args.config)
    root = args.out or cfg.data.dir
    _make_out_dir(root)
    split = synthdata.make_dataset(
        cfg.data.synth, cfg.data.labeled_ratio, cfg.data.split_ratios, seed=cfg.seed
    )
    synthdata.save_dataset(split, root)
    counts = {name: len(ids) for name, ids in split.id_sets().items()}
    print(f"wrote dataset to {root}: {counts}")
    if args.fds_demo:
        demo_dir = os.path.join(root, "fds_demo")
        _make_out_dir(demo_dir)
        a = split.labeled[0].image if split.labeled else split.val[0].image
        b = split.val[0].image
        a_r, b_r = fds.fds_pair(a, b, cfg.fds)
        pgm.write_pgm(os.path.join(demo_dir, "pair_a_before.pgm"), a)
        pgm.write_pgm(os.path.join(demo_dir, "pair_b_before.pgm"), b)
        pgm.write_pgm(os.path.join(demo_dir, "pair_a_after.pgm"), np.clip(a_r, 0, 1))
        pgm.write_pgm(os.path.join(demo_dir, "pair_b_after.pgm"), np.clip(b_r, 0, 1))
        print(f"wrote frequency-switch demo pairs to {demo_dir}")
    return 0


def _run_logged(out, log_name, run_phase) -> trainer.PhaseResult:
    """Run one training phase; its log is written to ``out`` even if the phase stops."""
    log = trainer.TrainLog()
    try:
        return run_phase(log)
    finally:
        log.write(os.path.join(out, log_name))


def _cmd_pretrain(args) -> int:
    cfg = trainer.load_config(args.config)
    _make_out_dir(args.out)
    data = synthdata.load_dataset(cfg.data.dir)
    result = _run_logged(args.out, "pretrain_log.jsonl", lambda log: trainer.pretrain(cfg, data, log))
    network.save_params(os.path.join(args.out, "pretrain_student.bin"), result.student)
    if result.best is not None:
        network.save_params(os.path.join(args.out, "pretrain_student_best.bin"), result.best)
    print(f"pretrained {cfg.pretrain_iters} iters; best val dice {result.best_val_dice}")
    return 0


def _cmd_train(args) -> int:
    cfg = trainer.load_config(args.config)
    _make_out_dir(args.out)
    data = synthdata.load_dataset(cfg.data.dir)
    init = network.load_params(args.init, cfg.net)
    result = _run_logged(args.out, "train_log.jsonl", lambda log: trainer.self_train(cfg, data, init, log))
    network.save_params(os.path.join(args.out, "student.bin"), result.student)
    network.save_params(os.path.join(args.out, "teacher.bin"), result.teacher)
    if result.best is not None:
        network.save_params(os.path.join(args.out, f"{cfg.eval_with}_best.bin"), result.best)
    print(f"self-trained {cfg.selftrain_iters} iters; best val dice {result.best_val_dice}")
    return 0


def _cmd_eval(args) -> int:
    cfg = trainer.load_config(args.config)
    if args.split not in ("val", "test"):
        raise ConfigError(f"--split must be 'val' or 'test', got {args.split!r}")
    _make_out_dir(args.out)
    data = synthdata.load_dataset(cfg.data.dir)
    params = network.load_params(args.ckpt, cfg.net)
    report = trainer.evaluate(params, getattr(data, args.split), use_lcc=args.lcc)
    report.write_csv(os.path.join(args.out, f"metrics_{args.split}.csv"))
    agg = report.aggregate()
    with open(os.path.join(args.out, f"metrics_{args.split}.json"), "w", encoding="ascii") as fh:
        json.dump(agg, fh, indent=1, sort_keys=True)
    print(json.dumps(agg, sort_keys=True))
    return 0


def _cmd_analyze_strategy(args) -> int:
    report = trainer.strategy_analysis(args.iters, args.size, args.size, args.seed)
    _make_out_dir(args.out)
    maps = report.pop("probability_maps")
    for name, pmap in maps.items():
        pgm.write_pgm(os.path.join(args.out, f"prob_map_{name}.pgm"), pmap)
    with open(os.path.join(args.out, "strategy_analysis.json"), "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(report["reductions_vs_bcp"], sort_keys=True))
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="switchlab", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate the synthetic dataset")
    g.add_argument("--config", required=True)
    g.add_argument("--out", default=None, help="output directory (default: config data.dir)")
    g.add_argument("--fds-demo", action="store_true", help="also write frequency-switch example pairs")
    g.set_defaults(func=_cmd_gen_data)

    g = sub.add_parser("pretrain", help="supervised pretraining on labeled data")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_pretrain)

    g = sub.add_parser("train", help="semi-supervised self-training")
    g.add_argument("--config", required=True)
    g.add_argument("--init", required=True, help="pretrained student checkpoint")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_train)

    g = sub.add_parser("eval", help="evaluate a checkpoint")
    g.add_argument("--config", required=True)
    g.add_argument("--ckpt", required=True)
    g.add_argument("--split", default="test")
    g.add_argument("--out", required=True)
    g.add_argument("--lcc", action="store_true", help="apply largest-component filtering to predictions")
    g.set_defaults(func=_cmd_eval)

    g = sub.add_parser("analyze-strategy", help="mask-strategy coverage/gradient study")
    g.add_argument("--iters", type=int, default=10000)
    g.add_argument("--out", required=True)
    g.add_argument("--size", type=int, default=256)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_analyze_strategy)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
