"""Experiment runner CLI.

Subcommands:
  run            train/evaluate per the config file, write metrics to disk
  schedule-info  print the replay schedule implied by (R_I, b, m, r)
  grad-check     run the finite-difference verification suite
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import save_checkpoint
from .config import build_model, build_suite, read_config
from .diagnostics import gate_stats, macro_accuracy
from .episodes import ReplaySchedule
from .learners import run as run_learner
from .model import Classifier, ModelConfig
from .numerics import InputError, LossMode, NumericalError, grad_check
from .stream import Batch

# Batches drawn per grad-check trial before its --eps is declared unmeetable.
MAX_GRAD_CHECK_DRAWS = 1000


def emit_metrics(records, path: Path) -> None:
    """Write records as JSON lines with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _check_outputs_are_free(out: Path, cfg, seeds, debug_traces) -> None:
    """Raise an InputError naming the first entry under ``out`` that is in
    the way of a directory or file the run writes."""
    names = ["metrics.jsonl"] + ["alignment.jsonl"] * cfg.learner.record_alignment
    names += ["events.jsonl"] * debug_traces
    names += ["checkpoint.npz"] * cfg.save_checkpoints
    files = [out / "config.json", out / "summary.jsonl", out / "timing.jsonl"]
    for seed in seeds:
        for oi in range(len(cfg.orders)):
            run_dir = out / f"order{oi}_seed{seed}"
            if os.path.lexists(run_dir) and not run_dir.is_dir():
                raise InputError(f"{run_dir} is in the way: the run writes a directory there")
            files += [run_dir / name for name in names]
    for path in files:  # a directory, a FIFO, a dangling symlink, ...
        if os.path.lexists(path) and not path.is_file():
            raise InputError(f"{path} is in the way: the run writes a regular file there")


def run_experiment(config_path, out_dir, seed_override=None, debug_traces=False) -> int:
    if seed_override is not None and seed_override < 0:
        raise InputError("--seed must be non-negative")
    config_bytes, cfg = read_config(config_path)
    # Every input is read and checked before anything is written.
    suite = build_suite(cfg)
    model = build_model(cfg, suite)
    out = Path(out_dir)
    seeds = [seed_override] if seed_override is not None else cfg.seeds
    _check_outputs_are_free(out, cfg, seeds, debug_traces)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "config.json", "wb") as fh:  # the bytes read, even from a pipe
            fh.write(config_bytes)
    except OSError as exc:  # e.g. a file at --out or above it
        raise InputError(f"--out {out_dir} is not a usable directory: {exc.strerror}")
    per_seed_macro = []
    timings = []

    for seed in seeds:
        order_macros = []
        for oi, order in enumerate(cfg.orders):
            t0 = time.perf_counter()
            # An overflow or NaN anywhere in training is a numerical failure.
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                accs, params, memory, trace, gates = run_learner(
                    model, suite, cfg.learner, seed,
                    stream_order=order, combined_test=cfg.combined_test)
            elapsed = time.perf_counter() - t0

            # One evaluation event; macro accuracy is the unweighted task mean.
            record = {
                "method": cfg.learner.method,
                "seed": seed,
                "per_task_accuracy": [float(a) for a in accs],
                "macro_accuracy": macro_accuracy(accs),
                "memory_size": len(memory) if memory is not None else 0,
                "memory_offers": memory.offers if memory is not None else 0,
                "replay_episodes": trace.replay_episodes,
                "replay_skips": trace.replay_skips,
                "violations_per_task": {str(k): v
                                        for k, v in trace.violations_per_task.items()},
                "flags": {
                    "no_replay": cfg.learner.no_replay,
                    "no_meta_test_finetune": cfg.learner.no_meta_test_finetune,
                    "order": list(order),
                },
            }
            record.update(zip(("gate_mean", "gate_frac_high", "gate_frac_low"),
                              gate_stats(gates) if gates else (None, None, None)))

            run_dir = out / f"order{oi}_seed{seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            emit_metrics([record], run_dir / "metrics.jsonl")
            if cfg.learner.record_alignment:
                emit_metrics([{**asdict(s), "cosine": s.cosine} for s in trace.alignment],
                             run_dir / "alignment.jsonl")
            # Wall-clock goes in a sidecar so metrics files stay byte-reproducible.
            timings.append({"order": oi, "seed": seed, "seconds": elapsed})
            if debug_traces:  # MTL has no episodes and no memory: an empty file
                stored = zip(*memory.stored()) if memory is not None else ()
                emit_metrics([{"event": "episode", "index": i, "query_source": source,
                               "support_size": m, "query_size": n}
                              for i, source, m, n in trace.episodes]
                             + [{"event": "stored", "task_id": t, "label": y}
                                for t, y in stored], run_dir / "events.jsonl")
            if cfg.save_checkpoints:
                save_checkpoint(run_dir / "checkpoint.npz", params, model.config)
            order_macros.append(record["macro_accuracy"])
        per_seed_macro.append(macro_accuracy(order_macros))

    summary = {
        "method": cfg.learner.method,
        "seeds": seeds,
        "orders": cfg.orders,
        "macro_accuracy_mean": float(np.mean(per_seed_macro)),
        "macro_accuracy_std": float(np.std(per_seed_macro)),
        "per_seed_macro_accuracy": [float(a) for a in per_seed_macro],
    }
    emit_metrics([summary], out / "summary.jsonl")
    emit_metrics(timings, out / "timing.jsonl")
    return 0


def schedule_info(replay_interval, batch_size, support_size, replay_rate, file=None):
    file = file or sys.stdout
    sched = ReplaySchedule(batch_size=batch_size, support_size=support_size,
                           replay_interval=replay_interval, replay_rate=replay_rate)
    print(f"replay frequency R_F      : {sched.frequency} episodes", file=file)
    print(f"replay batch size         : {sched.replay_batch_size} examples", file=file)
    print(f"baseline replay frequency : {sched.baseline_frequency} optimizer steps", file=file)
    if sched.frequency == 1:
        print("warning: replay would occur every episode "
              f"(rate at or above 1/m = {1.0 / support_size:.0%})", file=file)
    return sched


def run_grad_check_suite(trials: int = 100, seed: int = 0, eps: float = 1e-4,
                         file=None) -> float:
    """Finite-difference verification across layer types and architectures.

    Covers linear, ReLU, sigmoid gating, softmax-CE and sigmoid-BCE paths via
    small randomized OML and ANML models in both loss modes.
    """
    if trials < 1:
        raise InputError("grad-check needs at least one trial")
    if seed < 0:
        raise InputError("--seed must be non-negative")
    if not (np.isfinite(eps) and eps > 0):
        raise InputError(f"--eps must be finite and positive, got {eps}")
    file = file or sys.stdout
    rng = np.random.default_rng(seed)
    configs = [
        ModelConfig(input_dim=6, encoder_dims=(7,), num_classes=4, architecture="OML"),
        ModelConfig(input_dim=6, encoder_dims=(5, 4), num_classes=3, architecture="OML"),
        ModelConfig(input_dim=6, encoder_dims=(7,), num_classes=4,
                    architecture="ANML", nm_hidden_dim=5),
        ModelConfig(input_dim=8, encoder_dims=(6,), num_classes=2, architecture="OML",
                    loss_mode=LossMode.CANDIDATE_BCE),
        ModelConfig(input_dim=8, encoder_dims=(6,), num_classes=2, architecture="ANML",
                    nm_hidden_dim=4, loss_mode=LossMode.CANDIDATE_BCE),
    ]
    def min_preactivation(clf, params, batch):
        """Smallest |z| over all ReLU inputs; central differences are only
        trustworthy when no unit sits within eps of the kink."""
        _, cache = clf._scores(params, batch.features)
        records = cache["encoder"] + cache.get("nm", [])[:-1]  # the NM top feeds a sigmoid
        return min(np.abs(z).min() for _, z in records)

    worst = 0.0
    for trial in range(trials):
        config = configs[trial % len(configs)]
        clf = Classifier(config)
        params = clf.init_params(rng)
        # Perturb biases so no unit sits exactly at a ReLU kink.
        for name, t in params.tensors.items():
            if name.endswith(".b"):
                t += 0.1 * rng.standard_normal(t.shape)
        for _ in range(MAX_GRAD_CHECK_DRAWS):
            if config.loss_mode == LossMode.CANDIDATE_BCE:
                k = int(rng.integers(2, 5))
                batch = Batch(rng.standard_normal((4, k, config.input_dim)),
                              np.array([0, 1, 0, 1]))
            else:
                batch = Batch(rng.standard_normal((8, config.input_dim)),
                              rng.integers(0, config.num_classes, size=8))
            if min_preactivation(clf, params, batch) > 20 * eps:
                break
        else:
            raise InputError(f"--eps {eps}: no batch in {MAX_GRAD_CHECK_DRAWS} draws keeps "
                             f"every ReLU input more than 20*eps from its kink")
        parts = set(params.partitions.values())
        _, grads = clf.loss_and_grad(params, batch, parts)
        err = grad_check(params, lambda p: clf.loss_and_grad(p, batch, parts)[0],
                         grads, parts, eps=eps)
        worst = max(worst, err)
    print(f"grad-check: {trials} trials, max relative error {worst:.3e}", file=file)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metareplay")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config's seed list")
    p_run.add_argument("--debug-traces", action="store_true")

    p_sched = sub.add_parser("schedule-info", help="print the replay schedule")
    p_sched.add_argument("--replay-interval", type=int, required=True)
    p_sched.add_argument("--batch-size", type=int, required=True)
    p_sched.add_argument("--support-size", type=int, required=True)
    p_sched.add_argument("--replay-rate", type=float, required=True)

    p_gc = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p_gc.add_argument("--trials", type=int, default=100)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--eps", type=float, default=1e-4)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_experiment(args.config, args.out, args.seed, args.debug_traces)
        if args.command == "schedule-info":
            schedule_info(args.replay_interval, args.batch_size,
                          args.support_size, args.replay_rate)
            return 0
        if args.command == "grad-check":
            worst = run_grad_check_suite(args.trials, args.seed, args.eps)
            return 0 if worst < 1e-5 else 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc} {exc.payload}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
