"""Streams, featurization, and synthetic suite generation."""

import zlib

import numpy as np
import pytest
from scipy import stats

from metareplay.numerics import InputError
from metareplay.stream import (
    BatchStream,
    FeaturizerConfig,
    StreamConfig,
    TaskSpec,
    featurize,
    load_text_task,
    make_synthetic_suite,
    pooled_batches,
)

RNG = np.random.default_rng(11)


def _tasks(sizes, dim=3):
    out = []
    for tid, n in enumerate(sizes):
        out.append(TaskSpec(tid, RNG.standard_normal((n, dim)),
                            np.full(n, tid, dtype=int)))
    return out


def test_batch_count_matches_ceil_formula():
    tasks = _tasks([2000, 2000, 2000, 2000, 2000])
    stream = BatchStream(tasks, StreamConfig(tuple(range(5)), 16), np.random.default_rng(0))
    assert stream.total_batches() == 625
    assert sum(1 for _ in stream) == 625


def test_batches_never_span_task_boundaries():
    tasks = _tasks([20, 33, 7])
    stream = BatchStream(tasks, StreamConfig((0, 1, 2), 8), np.random.default_rng(0))
    for batch, tid in stream.with_task_ids():
        assert np.all(batch.labels == tid)  # labels double as task markers here


def test_single_pass_emits_every_example_exactly_once():
    tasks = _tasks([25, 14])
    stream = BatchStream(tasks, StreamConfig((1, 0), 4), np.random.default_rng(3))
    seen = np.vstack([b.features for b in stream])
    expected = np.vstack([t.features for t in tasks])
    # Same multiset of rows, regardless of shuffling.
    assert seen.shape == expected.shape
    order_seen = np.lexsort(seen.T)
    order_exp = np.lexsort(expected.T)
    np.testing.assert_array_equal(seen[order_seen], expected[order_exp])


def test_order_controls_task_sequence():
    tasks = _tasks([8, 8])
    stream = BatchStream(tasks, StreamConfig((1, 0), 8), np.random.default_rng(0))
    tids = [tid for _, tid in stream.with_task_ids()]
    assert tids == [1, 0]


def test_invalid_order_and_empty_inputs_raise():
    tasks = _tasks([4, 4])
    with pytest.raises(InputError):
        BatchStream(tasks, StreamConfig((0, 0), 2), np.random.default_rng(0))
    with pytest.raises(InputError):
        BatchStream([], StreamConfig((), 2), np.random.default_rng(0))
    with pytest.raises(InputError):
        BatchStream([TaskSpec(0, np.zeros((0, 2)), np.zeros(0, dtype=int))],
                    StreamConfig((0,), 2), np.random.default_rng(0))


def test_batch_carries_only_features_and_labels():
    import dataclasses

    from metareplay.stream import Batch

    assert [f.name for f in dataclasses.fields(Batch)] == ["features", "labels"]


def test_pooled_batches_cover_pool_each_epoch():
    tasks = _tasks([10, 6])
    batches = list(pooled_batches(tasks, 4, np.random.default_rng(0), epochs=2))
    assert sum(len(b) for b in batches) == 32
    # A pooled batch may mix tasks; find at least one mixed batch.
    assert any(len(np.unique(b.labels)) > 1 for b in batches)


# -- featurizer --------------------------------------------------------------

def test_featurize_hand_oracle():
    cfg = FeaturizerConfig(dim=16, l2_normalize=False)
    vec = featurize("Spam spam ham", cfg)
    spam = zlib.crc32(b"spam") % 16
    ham = zlib.crc32(b"ham") % 16
    expected = np.zeros(16)
    expected[spam] += 2.0
    expected[ham] += 1.0
    np.testing.assert_array_equal(vec, expected)


def test_featurize_normalization_and_truncation():
    cfg = FeaturizerConfig(dim=32, truncate=2, l2_normalize=True)
    vec = featurize("one two three four", cfg)
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    assert vec.sum() > 0
    untr = featurize("one two three four", FeaturizerConfig(dim=32, l2_normalize=False))
    assert untr.sum() == 4.0


def test_featurize_bucket_counts_look_uniform():
    # Many random tokens should spread evenly across buckets (chi-square).
    dim = 64
    cfg = FeaturizerConfig(dim=dim, l2_normalize=False)
    rng = np.random.default_rng(0)
    counts = np.zeros(dim)
    for _ in range(4000):
        tok = "".join(rng.choice(list("abcdefghijklmnop"), size=8))
        counts += featurize(tok, cfg)
    assert stats.chisquare(counts).pvalue > 1e-3


def test_empty_text_featurizes_to_zero_vector():
    vec = featurize("...", FeaturizerConfig(dim=8))
    np.testing.assert_array_equal(vec, np.zeros(8))


def test_load_text_task(tmp_path):
    p = tmp_path / "task.tsv"
    p.write_text("0\thello world\n1\tgoodbye moon\n", encoding="utf-8")
    task = load_text_task(p, 3, FeaturizerConfig(dim=64))
    assert task.task_id == 3 and task.size == 2
    np.testing.assert_array_equal(task.labels, [0, 1])

    bad = tmp_path / "bad.tsv"
    bad.write_text("no tab here\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_text_task(bad, 0, FeaturizerConfig(dim=64))


# -- synthetic suites ---------------------------------------------------------

def test_balanced_suite_shapes_and_label_spaces():
    suite = make_synthetic_suite("BALANCED", 4, 2, 50, 6, seed=1, test_per_class=20)
    assert len(suite.train) == 4 and len(suite.test) == 4
    assert suite.num_classes == 8
    for t, task in enumerate(suite.train):
        assert task.size == 100
        assert set(np.unique(task.labels)) == {2 * t, 2 * t + 1}
    for task in suite.test:
        assert task.size == 40
        counts = np.bincount(task.labels, minlength=8)
        assert counts[task.task_id * 2] == 20 and counts[task.task_id * 2 + 1] == 20


def test_cluster_separation_matches_requested_minimum():
    sep = 4.0
    suite = make_synthetic_suite("BALANCED", 5, 2, 1000, 10, seed=7,
                                 test_per_class=0, separation=sep)
    feats = np.vstack([t.features for t in suite.train])
    labels = np.concatenate([t.labels for t in suite.train])
    means = np.array([feats[labels == c].mean(axis=0) for c in range(10)])
    d = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    # Sample means of 1000 unit-variance points are within ~0.1 of the truth.
    assert d.min() == pytest.approx(sep, abs=0.3)


def test_unit_variance_clusters():
    suite = make_synthetic_suite("BALANCED", 2, 2, 2000, 5, seed=3)
    task = suite.train[0]
    cls = task.labels == task.labels[0]
    std = task.features[cls].std(axis=0, ddof=1)
    np.testing.assert_allclose(std, 1.0, atol=0.1)


def test_imbalanced_suite_budget_and_balanced_tests():
    suite = make_synthetic_suite("IMBALANCED", 5, 2, 1000, 10, seed=7,
                                 test_per_class=250)
    sizes = sorted(suite.meta["task_sizes"], reverse=True)
    total = sum(sizes)
    assert total == 10000
    assert sizes[0] >= 0.5 * total
    assert sizes[1] >= 0.2 * total
    for task in suite.test:
        assert task.size == 500  # test splits stay balanced


def test_suite_validation():
    with pytest.raises(InputError):
        make_synthetic_suite("BALANCED", 1, 2, 10, 3, seed=0)
    with pytest.raises(InputError):
        make_synthetic_suite("WEIRD", 3, 2, 10, 3, seed=0)


def test_suite_is_reproducible():
    a = make_synthetic_suite("BALANCED", 3, 2, 20, 4, seed=9, test_per_class=5)
    b = make_synthetic_suite("BALANCED", 3, 2, 20, 4, seed=9, test_per_class=5)
    for ta, tb in zip(a.train, b.train):
        np.testing.assert_array_equal(ta.features, tb.features)
        np.testing.assert_array_equal(ta.labels, tb.labels)
