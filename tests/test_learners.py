"""Training procedures: meta-gradient properties, baselines, protocols."""

import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import QuadraticModel, random_spd
from metareplay import ReplaySchedule, blas
from metareplay.learners import (
    BASELINE_METHODS,
    META_METHODS,
    METHODS,
    LearnerConfig,
    agem_project,
    architecture_for,
    inner_adapt,
    run,
    train,
)
from metareplay.model import Classifier, ModelConfig
from metareplay.numerics import InputError, LossMode, ParameterSet, Partition
from metareplay.rngs import named_rngs
from metareplay.stream import BatchStream, Suite, TaskSpec, make_synthetic_suite, split_tasks

RNG = np.random.default_rng(23)


def _theta(vec):
    return ParameterSet({"theta": np.array(vec, dtype=float)},
                        {"theta": Partition.HEAD})


def _fomaml_grad(model, theta0, support, query, alpha):
    adapted = inner_adapt(model, _theta(theta0), support, alpha)
    _, g = model.loss_and_grad(adapted, query, model.outer_partitions())
    return g, adapted.tensors["theta"]


def test_fomaml_taylor_residual_is_second_order():
    """First-order meta-gradient = query gradient - alpha * H_q * sum of
    support gradients, up to O(alpha^2). On quadratics the Hessian is exact,
    so halving alpha must shrink the residual by about 4x."""
    dim, m = 5, 3
    rng = np.random.default_rng(99)
    ratios = []
    for _ in range(20):
        model = QuadraticModel(dim)
        theta0 = rng.standard_normal(dim)
        support = [(random_spd(rng, dim), rng.standard_normal(dim)) for _ in range(m)]
        A_q, c_q = random_spd(rng, dim), rng.standard_normal(dim)
        g_q = A_q @ theta0 + c_q
        g_sum = sum(A @ theta0 + c for A, c in support)

        def residual(alpha):
            g_fo, _ = _fomaml_grad(model, theta0, support, (A_q, c_q), alpha)
            return np.linalg.norm(g_fo - (g_q - alpha * A_q @ g_sum))

        ratios.append(residual(0.05) / residual(0.025))
    assert all(3.5 <= r <= 4.5 for r in ratios)


def test_fomaml_equals_query_gradient_at_adapted_point():
    dim = 4
    rng = np.random.default_rng(5)
    model = QuadraticModel(dim)
    theta0 = rng.standard_normal(dim)
    support = [(random_spd(rng, dim), rng.standard_normal(dim)) for _ in range(2)]
    A_q, c_q = random_spd(rng, dim), rng.standard_normal(dim)
    g_fo, theta_m = _fomaml_grad(model, theta0, support, (A_q, c_q), 0.1)
    np.testing.assert_allclose(g_fo, A_q @ theta_m + c_q, rtol=1e-12)


def test_fomaml_approaches_full_meta_gradient_linearly():
    """The gap to the exact meta-gradient (which backpropagates through the
    inner steps via the Jacobian product) must vanish linearly in alpha."""
    dim = 4
    rng = np.random.default_rng(17)
    model = QuadraticModel(dim)
    theta0 = rng.standard_normal(dim)
    support = [(random_spd(rng, dim), rng.standard_normal(dim)) for _ in range(3)]
    A_q, c_q = random_spd(rng, dim), rng.standard_normal(dim)

    def gap(alpha):
        g_fo, theta_m = _fomaml_grad(model, theta0, support, (A_q, c_q), alpha)
        jac = np.eye(dim)
        for A, _ in support:
            jac = (np.eye(dim) - alpha * A) @ jac
        g_full = jac.T @ (A_q @ theta_m + c_q)
        return np.linalg.norm(g_fo - g_full)

    ratio = gap(0.02) / gap(0.01)
    assert 1.8 <= ratio <= 2.2


def test_inner_adapt_touches_only_inner_partitions():
    clf = Classifier(ModelConfig(input_dim=4, encoder_dims=(6,), num_classes=4))
    params = clf.init_params(np.random.default_rng(0))
    from metareplay.stream import Batch
    support = [Batch(RNG.standard_normal((8, 4)), RNG.integers(0, 4, size=8))
               for _ in range(3)]
    adapted = inner_adapt(clf, params, support, alpha=0.1)
    # Encoder is frozen in the OML inner loop: bit-identical tensors.
    np.testing.assert_array_equal(adapted.tensors["enc0.W"], params.tensors["enc0.W"])
    np.testing.assert_array_equal(adapted.tensors["enc0.b"], params.tensors["enc0.b"])
    assert not np.array_equal(adapted.tensors["head.W"], params.tensors["head.W"])
    # The originals are never modified by adaptation.
    fresh = clf.init_params(np.random.default_rng(0))
    np.testing.assert_array_equal(params.tensors["head.W"], fresh.tensors["head.W"])


def test_anml_er_run_returns_the_frozen_projection_as_drawn(small_suite, small_schedule):
    """ANML's first NM projection is a constant: a whole ANML_ER run returns
    it bit-equal to the ``init_params`` draw, while the NM layers above it train."""
    clf = Classifier(ModelConfig(input_dim=6, encoder_dims=(8,), num_classes=6,
                                 architecture="ANML", nm_hidden_dim=5))
    _, params, *_ = run(clf, small_suite, LearnerConfig("ANML_ER", small_schedule), seed=0)
    drawn = clf.init_params(named_rngs(0)["init"])
    for name in ("nm_in.W", "nm_in.b"):
        assert params.tensors[name].tobytes() == drawn.tensors[name].tobytes(), name
    assert not np.array_equal(params.tensors["nm_mid.W"], drawn.tensors["nm_mid.W"])


def test_inner_adapt_requires_support():
    clf = Classifier(ModelConfig(input_dim=2, encoder_dims=(2,), num_classes=2))
    params = clf.init_params(RNG)
    with pytest.raises(InputError):
        inner_adapt(clf, params, [], 0.1)


# -- A-GEM projection ---------------------------------------------------------

def test_agem_projection_algebra_randomized():
    rng = np.random.default_rng(1234)
    fired = 0
    for _ in range(1000):
        g, g_ref = rng.standard_normal(10), rng.standard_normal(10)
        before = float(g @ g_ref)
        projected, violated = agem_project(g, g_ref)
        if before >= 0:
            assert not violated and projected is g
        else:
            fired += 1
            assert violated
            assert abs(float(projected @ g_ref)) <= 1e-9
    assert 300 < fired < 700  # random signs, so roughly half the trials


def test_agem_opposite_gradient_projects_to_zero():
    g_ref = np.array([1.0, -2.0, 0.5])
    projected, violated = agem_project(-g_ref, g_ref)
    assert violated
    np.testing.assert_allclose(projected, 0.0, atol=1e-12)


def test_agem_zero_reference_is_identity():
    g = np.array([1.0, 2.0])
    projected, violated = agem_project(g, np.zeros(2))
    assert projected is g and not violated
    with pytest.raises(InputError):  # references over another span
        agem_project(g, np.zeros(3))


# -- full training procedures -------------------------------------------------

def _clf(dim=6, classes=6, arch="OML"):
    return Classifier(ModelConfig(input_dim=dim, encoder_dims=(16,),
                                  num_classes=classes, architecture=arch))


def test_meta_training_offers_every_stream_example_once(small_suite, small_schedule):
    cfg = LearnerConfig("OML_ER", small_schedule, inner_lr=0.01, outer_lr=0.01)
    params, memory, trace = train(_clf(), small_suite.train, cfg, seed=0)
    total = sum(t.size for t in small_suite.train)
    assert memory.offers == total
    assert len(memory) == total  # p_write=1 admits everything
    assert trace.replay_episodes == len(trace.steps) // small_schedule.frequency


@pytest.mark.parametrize("method", META_METHODS)
def test_meta_run_whose_memory_admits_nothing_stops_before_training(
        method, small_suite, small_schedule, monkeypatch):
    """Meta-test fine-tuning samples memory; a p_write that admits none of
    the stream is rejected before the first gradient, not after training."""
    calls, loss_and_grad = [], Classifier.loss_and_grad

    def counted(self, *args):
        calls.append(method)
        return loss_and_grad(self, *args)

    monkeypatch.setattr(Classifier, "loss_and_grad", counted)
    model = _clf(arch=architecture_for(method))
    cfg = LearnerConfig(method, small_schedule, p_write=1e-9)
    with pytest.raises(InputError, match="admits none of the 360 training examples"):
        run(model, small_suite, cfg, seed=0)
    assert calls == []
    cfg = LearnerConfig(method, small_schedule, p_write=1e-9, no_meta_test_finetune=True)
    _, _, memory, _, _ = run(model, small_suite, cfg, seed=0)
    assert len(memory) == 0 and calls


def test_no_replay_disables_memory_queries(small_suite, small_schedule):
    cfg = LearnerConfig("OML_ER", small_schedule, no_replay=True)
    _, memory, trace = train(_clf(), small_suite.train, cfg, seed=0)
    assert trace.replay_episodes == 0
    assert len(memory) == sum(t.size for t in small_suite.train)


def test_meta_training_is_seed_deterministic(small_suite, small_schedule):
    cfg = LearnerConfig("OML_ER", small_schedule, inner_lr=0.02, outer_lr=0.02)
    p1, _, _ = train(_clf(), small_suite.train, cfg, seed=3)
    p2, _, _ = train(_clf(), small_suite.train, cfg, seed=3)
    for name in p1.tensors:
        np.testing.assert_array_equal(p1.tensors[name], p2.tensors[name])


def test_stream_order_changes_training(small_suite, small_schedule):
    cfg = LearnerConfig("OML_ER", small_schedule)
    p1, _, _ = train(_clf(), small_suite.train, cfg, 0, stream_order=(0, 1, 2))
    p2, _, _ = train(_clf(), small_suite.train, cfg, 0, stream_order=(2, 1, 0))
    assert any(not np.array_equal(p1.tensors[n], p2.tensors[n]) for n in p1.tensors)


def test_replay_baseline_cadence(small_suite, small_schedule):
    cfg = LearnerConfig("REPLAY", small_schedule, outer_lr=0.01)
    _, memory, trace = train(_clf(), small_suite.train, cfg, seed=0)
    n_batches = sum(-(-t.size // small_schedule.batch_size) for t in small_suite.train)
    cadence = small_schedule.baseline_frequency
    expected_replays = n_batches // cadence
    assert trace.replay_episodes == expected_replays
    assert trace.optimizer_steps == n_batches + expected_replays


def test_seq_takes_one_step_per_batch(small_suite, small_schedule):
    cfg = LearnerConfig("SEQ", small_schedule, outer_lr=0.01)
    _, memory, trace = train(_clf(), small_suite.train, cfg, seed=0)
    n_batches = sum(-(-t.size // small_schedule.batch_size) for t in small_suite.train)
    assert trace.optimizer_steps == n_batches
    assert trace.replay_episodes == 0
    assert len(memory) == sum(t.size for t in small_suite.train)


def test_agem_counts_violations_consistently(small_suite, small_schedule):
    cfg = LearnerConfig("AGEM", small_schedule, outer_lr=0.05)
    _, _, trace = train(_clf(), small_suite.train, cfg, seed=1)
    negatives = sum(1 for s in trace.alignment if s.dot < 0)
    assert sum(trace.violations_per_task.values()) == negatives


def test_mtl_step_count_scales_with_epochs(small_suite, small_schedule):
    cfg = LearnerConfig("MTL", small_schedule, outer_lr=0.01, epochs=2)
    _, memory, trace = train(_clf(), small_suite.train, cfg, seed=0)
    total = sum(t.size for t in small_suite.train)
    per_epoch = -(-total // small_schedule.batch_size)
    assert trace.optimizer_steps == 2 * per_epoch
    assert memory is None


@pytest.mark.parametrize("method", METHODS)
def test_optimizer_steps_count_every_adam_step(method, small_suite, small_schedule):
    epochs = 2 if method == "MTL" else 1
    cfg = LearnerConfig(method, small_schedule, inner_lr=0.01, outer_lr=0.01, epochs=epochs)
    _, _, trace = train(_clf(arch=architecture_for(method)), small_suite.train, cfg, seed=0)
    b = small_schedule.batch_size
    n_batches = sum(-(-t.size // b) for t in small_suite.train)
    if method in META_METHODS:  # one outer step per episode that has a query
        expected = sum(1 for s in trace.steps if s.examples > 0)
    elif method == "REPLAY":  # one more step per replay
        assert trace.replay_episodes > 0
        expected = n_batches + trace.replay_episodes
    elif method == "MTL":  # every epoch streams the pooled split once
        expected = epochs * -(-sum(t.size for t in small_suite.train) // b)
    else:
        expected = n_batches
    assert expected > 0
    assert trace.optimizer_steps == expected


@pytest.mark.parametrize("method", METHODS)
def test_trace_is_its_step_records_reduced(method, small_suite, monkeypatch):
    """One record per episode or baseline step, and every counter of the
    trace read from them. R_I = 2 batches makes a replay due on every
    episode (the first finds memory empty) and every second baseline step."""
    from metareplay import learners

    projected = []

    def counted(g, g_ref):
        out = agem_project(g, g_ref)
        projected.append(out[1])
        return out

    monkeypatch.setattr(learners, "agem_project", counted)
    schedule = ReplaySchedule(batch_size=8, support_size=3, replay_interval=16,
                              replay_rate=0.5)
    cfg = LearnerConfig(method, schedule, outer_lr=0.05, record_alignment=True)
    _, _, trace = train(_clf(arch=architecture_for(method)), small_suite.train, cfg, seed=1)
    steps = trace.steps
    n_batches = sum(-(-t.size // 8) for t in small_suite.train)
    assert trace.replay_episodes == sum(s.replayed for s in steps)
    assert trace.replay_skips == sum(s.skipped for s in steps)
    assert trace.alignment == [s.alignment for s in steps if s.alignment is not None]
    violated = [s.violated for s in steps if s.violated is not None]
    assert trace.violations_per_task == {t: violated.count(t) for t in violated}
    assert len(violated) == sum(projected)
    if method in META_METHODS:
        assert [s.replayed for s in steps] == [s.source == "MEMORY" for s in steps]
        assert [s.skipped for s in steps] == [True] + [False] * (len(steps) - 1)
        assert trace.optimizer_steps == sum(s.examples > 0 for s in steps)
        assert len(trace.alignment) == trace.replay_episodes > 0
        return
    assert len(steps) == n_batches and {s.source for s in steps} == {None}
    assert sum(s.examples for s in steps) == sum(t.size for t in small_suite.train)
    assert trace.optimizer_steps == n_batches + trace.replay_episodes
    assert trace.replay_episodes == (n_batches // 2 if method == "REPLAY" else 0)
    if method == "AGEM":
        assert len(trace.alignment) == len(projected) == n_batches // 2
        assert sum(projected) > 0
    else:
        assert not trace.alignment and not projected


def test_mtl_learns_separable_suite(small_suite, small_schedule):
    cfg = LearnerConfig("MTL", small_schedule, outer_lr=0.01, epochs=5)
    accs, *_ = run(_clf(), small_suite, cfg, seed=0)
    assert np.mean(accs) > 0.9


def test_sequential_training_forgets_early_tasks(small_suite, small_schedule):
    cfg = LearnerConfig("SEQ", small_schedule, outer_lr=0.05)
    accs, *_ = run(_clf(), small_suite, cfg, seed=0)
    # The freshest task is learnable; the earliest one has been overwritten.
    assert accs[-1] > 0.9
    assert accs[0] < accs[-1]


def test_meta_test_finetune_ablation_changes_only_evaluation(small_suite, small_schedule):
    base = LearnerConfig("OML_ER", small_schedule, inner_lr=0.05, outer_lr=0.02)
    ablated = LearnerConfig("OML_ER", small_schedule, inner_lr=0.05, outer_lr=0.02,
                            no_meta_test_finetune=True)
    _, p1, *_ = run(_clf(), small_suite, base, seed=0)
    _, p2, *_ = run(_clf(), small_suite, ablated, seed=0)
    for name in p1.tensors:
        np.testing.assert_array_equal(p1.tensors[name], p2.tensors[name])


def test_anml_run_reports_gate_records(small_suite, small_schedule):
    cfg = LearnerConfig("ANML_ER", small_schedule, inner_lr=0.01, outer_lr=0.01)
    accs, _, _, _, gates = run(_clf(arch="ANML"), small_suite, cfg, seed=0)
    assert len(accs) == 3
    assert gates and all(np.all((g.values >= 0) & (g.values <= 1)) for g in gates)


@pytest.mark.parametrize("method", BASELINE_METHODS)
def test_baselines_report_gate_records_of_an_anml_model(small_suite, small_schedule, method):
    """Every method is scored through one loop, so an ANML model trained by a
    baseline reports one gate record per test task, as ANML_ER does."""
    cfg = LearnerConfig(method, small_schedule, outer_lr=0.01)
    accs, _, _, _, gates = run(_clf(arch="ANML"), small_suite, cfg, seed=0)
    assert len(gates) == len(accs) == len(small_suite.test)
    for g, task in zip(gates, small_suite.test):
        assert g.values.shape == (task.size, 16)
        assert np.all((g.values >= 0) & (g.values <= 1))
    assert run(_clf(), small_suite, cfg, seed=0)[4] == []


@pytest.mark.parametrize("method", METHODS)
def test_run_returns_params_without_optimizer_state(small_suite, small_schedule, method,
                                                    monkeypatch):
    """The trainer owns its Adam state and frees it when it returns, so no
    Adam object is alive while meta-testing or scoring runs."""
    from metareplay import learners
    made, alive_at_entry = [], []

    class Recorded(learners.Adam):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    def checked(fn):
        def wrapper(*args):
            alive_at_entry.append(sum(ref() is not None for ref in made))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(learners, "Adam", Recorded)
    for name in ("run_meta_testing", "evaluate_direct"):
        monkeypatch.setattr(learners, name, checked(getattr(learners, name)))
    cfg = LearnerConfig(method, small_schedule, inner_lr=0.01, outer_lr=0.01)
    _, _, _, trace, _ = run(_clf(arch=architecture_for(method)), small_suite, cfg, seed=0)
    assert trace.optimizer_steps > 0 and len(made) == 1
    assert alive_at_entry == [0] * (2 if method in META_METHODS else 1)


def _run_result(model, suite, cfg):
    accs, params, _, trace, _ = run(model, suite, cfg, seed=0)
    return accs, params, trace


def _train_result(model, suite, cfg):
    params, _, trace = train(model, suite.train, cfg, seed=0)
    return None, params, trace


@pytest.mark.parametrize("entry, method", [
    pytest.param(entry, method, id=method if entry is _run_result else f"train-{method}")
    for entry in (_run_result, _train_result) for method in ("AGEM", "OML_ER")])
def test_run_results_do_not_depend_on_the_callers_blas_thread_count(entry, method):
    """At d=1024 a gradient spans over 10,000 entries, past the size where
    OpenBLAS sums a dot product in an order set by its thread count; the
    A-GEM projections and alignment samples use such dots. ``run`` and
    ``train``, called directly, each pin one thread."""
    api = blas.thread_api()
    if api is None:
        pytest.skip("no OpenBLAS thread API found")
    get, set_ = api
    suite = make_synthetic_suite("BALANCED", num_tasks=3, classes_per_task=2,
                                 examples_per_class=40, input_dim=1024, seed=3,
                                 test_per_class=10)
    schedule = ReplaySchedule(batch_size=8, support_size=3, replay_interval=40,
                              replay_rate=1.0)
    cfg = LearnerConfig(method, schedule, record_alignment=True)
    caller = get()
    results = []
    try:
        for threads in (1, 2):
            set_(threads)
            if get() != threads:
                pytest.skip(f"OpenBLAS cannot run {threads} threads here")
            model = Classifier(ModelConfig(input_dim=1024, encoder_dims=(16,), num_classes=6))
            accs, params, trace = entry(model, suite, cfg)
            assert get() == threads
            results.append((accs, params.flat.tobytes(),
                            [(a.step, a.dot, a.norm_a, a.norm_b) for a in trace.alignment]))
    finally:
        set_(caller)
    assert results[0][2], "no alignment samples were recorded"
    assert results[0] == results[1]


@pytest.mark.parametrize("method", ["OML_ER", "ANML_ER", "SEQ", "MTL"])
def test_training_at_d2048_holds_the_arrays_of_one_step(method):
    """The traced peak of a run is bounded by the arrays a step must hold,
    plus 0.25 MB: the parameters, Adam's moments and work vector, one
    gradient, one episode of batches (one batch for a baseline) and, for a
    meta method, one clone of the trainable span. Holding the last step's
    batches, clone or consumed gradient, or a clone's copy of the frozen NM
    layer, would exceed it."""
    dim, b, m = 2048, 16, 5
    suite = make_synthetic_suite("BALANCED", num_tasks=2, classes_per_task=2,
                                 examples_per_class=200, input_dim=dim, seed=0,
                                 test_per_class=10)
    schedule = ReplaySchedule(batch_size=b, support_size=m, replay_interval=160,
                              replay_rate=0.1)
    model = Classifier(ModelConfig(input_dim=dim, encoder_dims=(32,), num_classes=4,
                                   architecture=architecture_for(method)))
    cfg = LearnerConfig(method, schedule)
    run(model, suite, cfg, seed=0)  # warm up imports and caches
    tracemalloc.start()
    try:
        run(model, suite, cfg, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    params = model.init_params(np.random.default_rng(0))
    trainable = params.span(model.outer_partitions()).stop * 8
    batch = b * dim * 8
    held = sum(t.nbytes for t in params.tensors.values())  # every parameter
    held += 4 * trainable + batch  # Adam's 3 vectors, 1 gradient
    if method in META_METHODS:  # the clone and the episode's other m batches
        held += trainable + m * batch
    assert peak < held + 0.25 * 2**20


def test_meta_testing_densifies_each_test_task_after_fine_tuning(
        small_suite, small_schedule, monkeypatch):
    from metareplay import learners
    calls = []
    adapt, densify = learners.inner_adapt, TaskSpec.full_batch
    monkeypatch.setattr(learners, "inner_adapt",
                        lambda *args: calls.append("adapt") or adapt(*args))
    monkeypatch.setattr(TaskSpec, "full_batch",
                        lambda task: calls.append("densify") or densify(task))
    cfg = LearnerConfig("OML_ER", small_schedule, inner_lr=0.01, outer_lr=0.01,
                        no_replay=True)
    params, memory, _ = train(_clf(), small_suite.train, cfg, seed=0)
    calls.clear()
    learners.run_meta_testing(_clf(), params, memory, small_suite.test, cfg)
    assert calls == ["adapt", "densify"] * len(small_suite.test)


def test_epochs_rejected_for_continual_methods(small_schedule):
    with pytest.raises(InputError):
        LearnerConfig("SEQ", small_schedule, epochs=2)
    with pytest.raises(InputError):
        LearnerConfig("MTL", small_schedule, epochs=0)
    with pytest.raises(InputError):
        LearnerConfig("NOSUCH", small_schedule)


def test_combined_test_applies_to_baselines(small_suite, small_schedule):
    cfg = LearnerConfig("SEQ", small_schedule, outer_lr=0.05)
    per_task, *_ = run(_clf(), small_suite, cfg, seed=0)
    accs, *_ = run(_clf(), small_suite, cfg, seed=0, combined_test=True)
    assert len(accs) == 1
    # Equal-sized test sets: the pooled accuracy is the mean of the per-task ones.
    assert accs[0] == pytest.approx(np.mean(per_task))


# ---------------------------------------------------------------------------
# Candidate ranking: (n, K, d) batches
# ---------------------------------------------------------------------------

def _candidate_suite(ks=(3, 3, 3), dim=4, n=24):
    """Tasks of n examples, each K (input, candidate) pair rows of width
    dim; the true candidate's row is shifted so it is learnable."""
    rng = np.random.default_rng(5)

    def task(tid, k, size):
        features = rng.standard_normal((size, k, dim))
        labels = rng.integers(0, k, size=size)
        features[np.arange(size), labels] += 1.0
        return TaskSpec(tid, features, labels)

    def split(size):
        tasks = [task(t, k, size) for t, k in enumerate(ks)]
        if len(set(ks)) > 1:  # no one features array holds them
            return tasks
        return split_tasks(range(len(ks)), np.concatenate([t.features for t in tasks]),
                           np.concatenate([t.labels for t in tasks]), [size] * len(ks))

    return Suite(split(n), split(n // 2))


@pytest.mark.parametrize("combined", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_candidate_suite_runs_every_method(method, combined):
    # Replay is due every episode and every other baseline step.
    schedule = ReplaySchedule(batch_size=4, support_size=2, replay_interval=8,
                              replay_rate=0.5)
    model = Classifier(ModelConfig(input_dim=4, encoder_dims=(6,),
                                   architecture=architecture_for(method),
                                   nm_hidden_dim=4, loss_mode=LossMode.CANDIDATE_BCE))
    cfg = LearnerConfig(method, schedule, inner_lr=0.05, outer_lr=0.01)
    accs, params, memory, trace, _ = run(model, _candidate_suite(), cfg, seed=0,
                                         combined_test=combined)
    assert len(accs) == (1 if combined else 3)
    assert all(0.0 <= a <= 1.0 for a in accs)
    assert trace.optimizer_steps > 0
    assert params.tensors["head.W"].shape == (6, 1)
    if memory is not None:
        assert memory.sample(2).features.shape == (2, 3, 4)


def test_candidate_tasks_with_different_k_are_rejected(small_schedule):
    suite = _candidate_suite(ks=(3, 4, 3))
    with pytest.raises(InputError, match="candidate count"):
        BatchStream(suite.train, (0, 1, 2), 4, np.random.default_rng(0))
    model = Classifier(ModelConfig(input_dim=4, loss_mode=LossMode.CANDIDATE_BCE))
    with pytest.raises(InputError, match="candidate count"):
        run(model, suite, LearnerConfig("SEQ", small_schedule), seed=0)
