"""Acceptance gate: one test per criterion, one pass/fail line each.

Criteria 5-8 compare 5-seed mean macro accuracies across methods on a fixed
synthetic suite (5 tasks, 2 classes each, 2000 train + 500 test examples per
task, unit-variance Gaussian clusters whose closest class means sit 4 sigma
apart, batch size 16, support size 5, replay interval 1920, replay rate 1%).
All runs are fully seeded, so the reported numbers are reproducible exactly.
"""

import json
import time

import numpy as np

from conftest import QuadraticModel, random_spd
from metareplay import ReplaySchedule, make_synthetic_suite
from metareplay.episodes import MEMORY, replay_frequency
from metareplay.learners import LearnerConfig, agem_project, architecture_for, inner_adapt, run
from metareplay.model import Classifier, ModelConfig
from metareplay.numerics import ParameterSet, Partition

SEEDS = (0, 1, 2, 3, 4)
DIM = 10
ENCODER = (32,)
SUITE_SEED = 7
SCHEDULE = ReplaySchedule(batch_size=16, support_size=5, replay_interval=1920,
                          replay_rate=0.01)
META_LR = dict(inner_lr=0.008, outer_lr=0.025)
BASELINE_LR = 0.01
# The replay-rate trend (criterion 7) is measured where replay drives
# learning: a larger inner step makes the memory-sourced queries decisive.
TREND_LR = dict(inner_lr=0.05, outer_lr=0.025)

_suites = {}
_results = {}


def _report(criterion, ok, detail):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _suite(kind):
    if kind not in _suites:
        _suites[kind] = make_synthetic_suite(
            kind, num_tasks=5, classes_per_task=2, examples_per_class=1000,
            input_dim=DIM, seed=SUITE_SEED, test_per_class=250, separation=4.0)
    return _suites[kind]


def _mean_macro(method, kind="BALANCED", rate=0.01, p_write=1.0, epochs=1,
                inner_lr=BASELINE_LR, outer_lr=BASELINE_LR, **flags):
    key = (method, kind, rate, p_write, epochs, inner_lr, outer_lr,
           tuple(sorted(flags.items())))
    if key not in _results:
        clf = Classifier(ModelConfig(input_dim=DIM, encoder_dims=ENCODER, num_classes=10,
                                     architecture=architecture_for(method)))
        sched = ReplaySchedule(SCHEDULE.batch_size, SCHEDULE.support_size,
                               SCHEDULE.replay_interval, rate)
        cfg = LearnerConfig(method=method, schedule=sched, inner_lr=inner_lr,
                            outer_lr=outer_lr, p_write=p_write, epochs=epochs,
                            **flags)
        macros = []
        for seed in SEEDS:
            accs, *_ = run(clf, _suite(kind), cfg, seed)
            macros.append(float(np.mean(accs)))
        _results[key] = float(np.mean(macros))
    return _results[key]


def test_criterion_1_schedule_arithmetic():
    t0 = time.perf_counter()
    ok = (replay_frequency(9600, 16, 5) == 101
          and -(-9600 // 16) == 600
          and ReplaySchedule(16, 5, 9600, 0.01).replay_batch_size == 96
          and replay_frequency(1600, 4, 5) == 67)

    # Simulated 3-task stream: memory-query episodes land exactly on
    # floor(episodes / R_F).
    from metareplay.episodes import next_episode
    from metareplay.memory import EpisodicMemory
    from metareplay.stream import split_tasks
    sched = ReplaySchedule(4, 3, 48, 0.25)
    tasks = split_tasks(range(3), np.zeros((360, 2)), np.zeros(360, dtype=int), [120] * 3)
    batches = [tasks[b % 3].take(np.arange(4 * (b // 3), 4 * (b // 3) + 4))
               for b in range(90)]
    it = iter(batches)
    mem = EpisodicMemory(1.0, tasks, np.random.default_rng(0), np.random.default_rng(1))
    total = n_memory = 0
    while True:
        ep = next_episode(it, mem, sched, total + 1)
        if ep is None:
            break
        total += 1
        if ep.query_source == MEMORY:
            n_memory += 1
    elapsed = time.perf_counter() - t0
    ok = ok and n_memory == total // sched.frequency and elapsed < 1.0
    _report(1, ok, f"R_F(9600,16,5)=101, R_F(1600,4,5)=67, baseline 600, "
                   f"replay 96, memory episodes {n_memory}=={total}//"
                   f"{sched.frequency}, {elapsed:.3f}s")


def test_criterion_2_gradient_correctness():
    from metareplay.cli import run_grad_check_suite
    t0 = time.perf_counter()
    worst = run_grad_check_suite(trials=100, seed=0, eps=1e-4)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    _report(2, ok, f"max relative error {worst:.2e} over 100 trials, {elapsed:.1f}s")


def test_criterion_3_fomaml_taylor_property():
    t0 = time.perf_counter()
    dim, m = 5, 3
    rng = np.random.default_rng(2024)
    model = QuadraticModel(dim)
    ratios = []
    for _ in range(20):
        theta0 = rng.standard_normal(dim)
        support = [(random_spd(rng, dim), rng.standard_normal(dim)) for _ in range(m)]
        A_q, c_q = random_spd(rng, dim), rng.standard_normal(dim)
        g_q = A_q @ theta0 + c_q
        g_sum = sum(A @ theta0 + c for A, c in support)

        def residual(alpha):
            params = ParameterSet({"theta": theta0.copy()}, {"theta": Partition.HEAD})
            adapted = inner_adapt(model, params, support, alpha)
            _, g = model.loss_and_grad(adapted, (A_q, c_q), {Partition.HEAD})
            return np.linalg.norm(g - (g_q - alpha * A_q @ g_sum))

        ratios.append(residual(0.05) / residual(0.025))
    elapsed = time.perf_counter() - t0
    ok = all(3.5 <= r <= 4.5 for r in ratios) and elapsed < 10.0
    _report(3, ok, f"residual shrink ratios in [{min(ratios):.2f}, {max(ratios):.2f}]"
                   f" over 20 instances, {elapsed:.2f}s")


def test_criterion_4_agem_algebra():
    rng = np.random.default_rng(77)
    ok = True
    worst_dot = 0.0
    for _ in range(1000):
        g, g_ref = rng.standard_normal(32), rng.standard_normal(32)
        before = float(g @ g_ref)
        projected, violated = agem_project(g, g_ref)
        if before >= 0:
            ok = ok and projected is g and not violated
        else:
            after = float(projected @ g_ref)
            worst_dot = max(worst_dot, abs(after))
            ok = ok and violated and -1e-9 <= after <= 1e-9
    g_ref = rng.standard_normal(10)
    zeroed, violated = agem_project(-g_ref, g_ref)
    ok = ok and violated and np.allclose(zeroed, 0.0, atol=1e-12)
    _report(4, ok, f"1000 trials, worst post-projection |dot| {worst_dot:.1e}, "
                   f"opposite gradient zeroes out")


def test_criterion_5_forgetting_ordering():
    t0 = time.perf_counter()
    seq = _mean_macro("SEQ")
    rep = _mean_macro("REPLAY")
    oml = _mean_macro("OML_ER", **META_LR)
    anml = _mean_macro("ANML_ER", **META_LR)
    maml = _mean_macro("MAML_ER", **META_LR)
    mtl = _mean_macro("MTL", epochs=2)
    elapsed = time.perf_counter() - t0
    checks = {
        "SEQ+10 <= REPLAY": seq + 0.10 <= rep,
        "REPLAY+2 <= OML": rep + 0.02 <= oml,
        "|OML-ANML| <= 2": abs(oml - anml) <= 0.02,
        "|OML-MAML| <= 2": abs(oml - maml) <= 0.02,
        "max <= MTL+1": max(seq, rep, oml, anml, maml) <= mtl + 0.01,
        "runtime < 10 min": elapsed < 600.0,
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report(5, ok, f"SEQ={seq:.3f} REPLAY={rep:.3f} OML={oml:.3f} ANML={anml:.3f} "
                   f"MAML={maml:.3f} MTL={mtl:.3f}, {elapsed:.0f}s"
                   + (f"; failed: {failed}" if failed else ""))


def test_criterion_6_ablation_direction():
    oml = _mean_macro("OML_ER", **META_LR)
    seq = _mean_macro("SEQ")
    no_replay = _mean_macro("OML_ER", no_replay=True, **META_LR)
    no_ft = _mean_macro("OML_ER", no_meta_test_finetune=True, **META_LR)
    checks = {
        "no_replay loses >= 10": no_replay <= oml - 0.10,
        "no_replay > SEQ": no_replay > seq,
        "|no_finetune - OML| <= 2": abs(oml - no_ft) <= 0.02,
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report(6, ok, f"OML={oml:.3f} no_replay={no_replay:.3f} "
                   f"no_finetune={no_ft:.3f} SEQ={seq:.3f}"
                   + (f"; failed: {failed}" if failed else ""))


def test_criterion_7_replay_rate_trend():
    bal_1 = _mean_macro("OML_ER", rate=0.01, **TREND_LR)
    bal_4 = _mean_macro("OML_ER", rate=0.04, **TREND_LR)
    imb_1 = _mean_macro("OML_ER", kind="IMBALANCED", rate=0.01, **TREND_LR)
    imb_4 = _mean_macro("OML_ER", kind="IMBALANCED", rate=0.04, **TREND_LR)
    ok = (imb_4 - imb_1 >= 0.02) and (abs(bal_4 - bal_1) <= 0.02)
    _report(7, ok, f"imbalanced 4% - 1% = {imb_4 - imb_1:+.3f} (>= +0.02), "
                   f"balanced gap {bal_4 - bal_1:+.3f} (|.| <= 0.02)")


def test_criterion_8_memory_capacity_trend():
    full = _mean_macro("OML_ER", **META_LR)
    sparse = _mean_macro("OML_ER", p_write=0.05, **META_LR)

    # Memory size check: every stream example is offered once, so the store
    # is Binomial(total, p_write).
    clf = Classifier(ModelConfig(input_dim=DIM, encoder_dims=ENCODER, num_classes=10))
    cfg = LearnerConfig("OML_ER", SCHEDULE, p_write=0.05, **META_LR)
    sizes_ok = True
    for seed in SEEDS:
        _, _, memory, _, _ = run(clf, _suite("BALANCED"), cfg, seed)
        n = memory.offers
        sigma = np.sqrt(n * 0.05 * 0.95)
        sizes_ok = sizes_ok and abs(len(memory) - 0.05 * n) <= 3 * sigma
    ok = abs(full - sparse) <= 0.02 and sizes_ok
    _report(8, ok, f"p_write=1: {full:.3f}, p_write=0.05: {sparse:.3f}, "
                   f"gap {sparse - full:+.3f}, memory sizes within 3 sigma: {sizes_ok}")


def test_criterion_9_determinism(tmp_path):
    from metareplay.cli import run_experiment
    config = {
        "method": "OML_ER",
        "suite": {"num_tasks": 3, "examples_per_class": 100, "test_per_class": 25,
                  "input_dim": 6},
        "schedule": {"batch_size": 8, "support_size": 3, "replay_interval": 160,
                     "replay_rate": 0.05},
        "seeds": [0, 1],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        run_experiment(cfg_path, out)
        blob = b"".join(sorted(p.read_bytes() for p in out.rglob("*.jsonl")
                               if p.name != "timing.jsonl"))
        outs.append(blob)
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _report(9, ok, f"two identical runs produced byte-identical metrics "
                   f"({len(outs[0])} bytes compared)")


def test_criterion_10_memory_protocol_fidelity():
    from metareplay.learners import train
    from metareplay.rngs import named_rngs
    from metareplay.stream import BatchStream

    suite = _suite("BALANCED")
    clf = Classifier(ModelConfig(input_dim=DIM, encoder_dims=ENCODER, num_classes=10))
    cfg = LearnerConfig("OML_ER", SCHEDULE, **META_LR)
    _, memory, trace = train(clf, suite.train, cfg, seed=0)

    # Independent counter: replay the stream's batch sizes and walk the
    # episode protocol without touching the learner's bookkeeping.
    sizes = [len(b) for b in BatchStream(
        suite.train, tuple(range(5)), SCHEDULE.batch_size,
        named_rngs(0)["stream"])]
    expected_offers = 0
    pos, index, written, mem_queries = 0, 0, 0, 0
    m, r_f = SCHEDULE.support_size, SCHEDULE.frequency
    while pos < len(sizes):
        index += 1
        support = sizes[pos:pos + m]
        pos += len(support)
        if index % r_f == 0 and written > 0:
            mem_queries += 1  # query from memory: nothing new offered
        elif pos < len(sizes):
            support.append(sizes[pos])  # stream query is offered too
            pos += 1
        expected_offers += sum(support)
        written += sum(support)
    ok = (len(memory) == expected_offers
          and memory.offers == expected_offers
          and trace.replay_episodes == mem_queries
          and expected_offers == sum(t.size for t in suite.train))
    _report(10, ok, f"|M| = {len(memory)} == independent count {expected_offers}, "
                    f"memory queries {trace.replay_episodes} == {mem_queries}")
