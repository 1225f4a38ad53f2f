"""Streams, the hashed-text loader, and synthetic suite generation."""

import dataclasses
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from metareplay.numerics import InputError
from metareplay.stream import (
    _PAIR_BLOCK,
    BatchStream,
    FeaturizerConfig,
    HashedRows,
    TaskSpec,
    _closest_distance,
    load_text_tasks,
    make_synthetic_suite,
    one_split,
    split_tasks,
)

RNG = np.random.default_rng(11)


def _tasks(sizes, dim=3):
    """Tasks over one split; every label is its task's id."""
    ids = range(len(sizes))
    return split_tasks(ids, RNG.standard_normal((sum(sizes), dim)),
                       np.repeat(ids, sizes), sizes)


def test_batch_count_matches_ceil_formula():
    tasks = _tasks([2000, 2000, 2000, 2000, 2000])
    stream = BatchStream(tasks, tuple(range(5)), 16, np.random.default_rng(0))
    assert sum(1 for _ in stream) == 625


def test_batches_never_span_task_boundaries():
    tasks = _tasks([20, 33, 7])
    stream = BatchStream(tasks, (0, 1, 2), 8, np.random.default_rng(0))
    for batch in stream:
        task = tasks[batch.labels[0]]  # labels double as task markers here
        assert np.all(batch.labels == task.task_id)
        assert np.all((batch.rows >= task.offset) & (batch.rows < task.offset + task.size))
        np.testing.assert_array_equal(batch.features, task.split.features[batch.rows])


def test_single_pass_emits_every_example_exactly_once():
    tasks = _tasks([25, 14])
    stream = BatchStream(tasks, (1, 0), 4, np.random.default_rng(3))
    seen = np.vstack([b.features for b in stream])
    expected = np.vstack([t.features for t in tasks])
    # Same multiset of rows, regardless of shuffling.
    assert seen.shape == expected.shape
    order_seen = np.lexsort(seen.T)
    order_exp = np.lexsort(expected.T)
    np.testing.assert_array_equal(seen[order_seen], expected[order_exp])


def test_order_controls_task_sequence():
    tasks = _tasks([8, 8])
    stream = BatchStream(tasks, (1, 0), 8, np.random.default_rng(0))
    tids = [int(b.labels[0]) for b in stream]
    assert tids == [1, 0]


def test_invalid_order_and_empty_inputs_raise():
    tasks = _tasks([4, 4])
    with pytest.raises(InputError):
        BatchStream(tasks, (0, 0), 2, np.random.default_rng(0))
    with pytest.raises(InputError):
        BatchStream([], (), 2, np.random.default_rng(0))
    with pytest.raises(InputError):
        BatchStream([TaskSpec(0, np.zeros((0, 2)), np.zeros(0, dtype=int))],
                    (0,), 2, np.random.default_rng(0))
    with pytest.raises(InputError, match="one split"):  # two hand-built tasks
        BatchStream([TaskSpec(t, np.zeros((2, 2)), np.zeros(2, dtype=int)) for t in (0, 1)],
                    (0, 1), 2, np.random.default_rng(0))


def test_batch_fields_are_features_labels_and_rows():
    import dataclasses

    from metareplay.stream import Batch

    assert [f.name for f in dataclasses.fields(Batch)] == ["features", "labels", "rows"]
    assert "rows" not in repr(Batch(np.zeros((1, 2)), np.zeros(1), np.zeros(1)))


def test_take_records_rows_and_full_batch_is_a_read_only_view():
    first, task = _tasks([3, 5])
    idx = np.array([4, 0, -1])
    batch = task.take(idx)
    np.testing.assert_array_equal(batch.rows, [7, 3, 7])  # split rows
    np.testing.assert_array_equal(batch.features, task.features[idx])
    np.testing.assert_array_equal(batch.features, task.split.features[batch.rows])
    np.testing.assert_array_equal(first.take(idx[:2] - 2).rows, [2, 1])
    # A dense gather wraps negative rows and rejects out-of-range ones, in a
    # split's task and in a TaskSpec that is its own split.
    hand = TaskSpec(0, task.features.copy(), task.labels.copy())
    np.testing.assert_array_equal(hand.take(idx).features, task.features[idx])
    for bad in ([5], [-6], [0, 9]):
        for t in (task, hand):
            with pytest.raises(IndexError):
                t.take(np.array(bad))
    full = task.full_batch()
    assert full.rows is None and len(full) == 5
    assert np.shares_memory(full.features, task.features)
    assert np.shares_memory(full.labels, task.labels)
    with pytest.raises(ValueError):
        full.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        full.labels[0] = 1
    task.features[0, 0] = 1.0  # the task's own arrays stay writable


def _pooled_epochs(tasks, batch_size, rng, epochs):
    """MTL's batches: the pooled split streamed as one task, one pass per epoch."""
    stream = BatchStream([one_split(tasks)], (0,), batch_size, rng)
    return [batch for _ in range(epochs) for batch in stream]


def test_pooled_split_stream_covers_pool_each_epoch():
    tasks = _tasks([10, 6])
    batches = _pooled_epochs(tasks, 4, np.random.default_rng(0), epochs=2)
    assert sum(len(b) for b in batches) == 32
    # A pooled batch may mix tasks; find at least one mixed batch.
    assert any(len(np.unique(b.labels)) > 1 for b in batches)


# -- hashed-text loader --------------------------------------------------------

def _featurize_loop(text, config):
    """Reference: the featurizer's definition as a dense per-token loop."""
    tokens = re.findall(r"[\w']+", text.lower())[: config.truncate]
    vec = np.zeros(config.dim)
    for tok in tokens:
        vec[zlib.crc32(tok.encode("utf-8")) % config.dim] += 1.0
    norm = np.linalg.norm(vec)
    if config.l2_normalize and norm > 0:
        vec /= norm
    return vec


def _write(path, texts, labels=None):
    labels = [0] * len(texts) if labels is None else labels
    path.write_text("".join(f"{y}\t{t}\n" for y, t in zip(labels, texts)), encoding="utf-8")
    return path


def _loaded(tmp_path, texts, config):
    """The dense rows ``load_text_tasks`` reads from one file of ``texts``."""
    return np.asarray(one_split(load_text_tasks([[_write(tmp_path / "t.tsv", texts)]],
                                                config)[0]).features)


def test_featurize_hand_oracle(tmp_path):
    cfg = FeaturizerConfig(dim=16, l2_normalize=False)
    vec = _loaded(tmp_path, ["Spam spam ham"], cfg)[0]
    spam = zlib.crc32(b"spam") % 16
    ham = zlib.crc32(b"ham") % 16
    expected = np.zeros(16)
    expected[spam] += 2.0
    expected[ham] += 1.0
    np.testing.assert_array_equal(vec, expected)


_WORDS = ["alpha", "Beta", "gamma's", "delta", "ünï", "x1", "THE", "the", "日本"]


def _texts(rng, count):
    """Empty documents, repeated tokens and unicode among random ones."""
    return ["", "...", "the " * 300 + "ünï ÜNÏ"] + [
        " ".join(rng.choice(_WORDS, size=rng.integers(1, 40))) for _ in range(count)]


_CONFIGS = (FeaturizerConfig(dim=2048), FeaturizerConfig(dim=7, truncate=5),
            FeaturizerConfig(dim=16, l2_normalize=False), FeaturizerConfig(dim=9, truncate=0))


def test_featurize_matches_per_token_loop(tmp_path):
    # Mixed-case ASCII lowercases in the translate table; a Kelvin sign
    # lowers to ASCII "k" and U+0130 to two code points, through the regex.
    texts = _texts(np.random.default_rng(4), 50) + [
        "MiXeD CaSe O'NEIL's ID_42 x1 X1", "\u212aelvin KELVIN \u212a", "\u0130stanbul \u0130 i\u0307"]
    for config in _CONFIGS:
        want = np.array([_featurize_loop(text, config) for text in texts])
        got = _loaded(tmp_path, texts, config)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


# Any code point a dataset line can hold: no line ends, no surrogates.
_ANY_CHAR = st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",))
_EVERY_ASCII = "".join(c for c in map(chr, range(128)) if c not in "\n\r")
_LINE_TEXT = st.one_of(st.text(st.characters(max_codepoint=127, blacklist_characters="\n\r")),
                       st.text(_ANY_CHAR))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_LINE_TEXT, min_size=1, max_size=6))
@example([_EVERY_ASCII, _EVERY_ASCII[::-1]])
@example(["a\x00b", "a\x0bb", "a\x1cb \x1f"])
@example(["a\tb\tc", "\t\t"])
@example(["''' it's '''", "_x_ __"])
@example(["x² 2²", "٣ ٣4"])
@example(["\u212aelvin \u212a", "\u0130stanbul"])  # Kelvin sign -> ASCII k
@example(["ΟΔΟΣ ΟΔΟΣΟ", "plain ascii"])  # a final sigma lowers by context
def test_featurize_matches_per_token_loop_on_any_text(tmp_path, texts):
    """ASCII lines go through a translate table, others through the regex:
    both give the oracle's rows, whatever a line holds."""
    for config in _CONFIGS:
        want = np.array([_featurize_loop(text, config) for text in texts])
        np.testing.assert_array_equal(_loaded(tmp_path, texts, config), want)


def test_text_read_paths_match_per_token_loop(tmp_path):
    """Every way a split's rows are read gives the oracle's dense rows. One
    text repeats a token 300 times: it is in the first file, or in the last
    one, after files whose counts all fit in a byte."""
    texts = _texts(np.random.default_rng(5), 37)
    for layout in (texts, texts[3:] + texts[:3]):
        _check_read_paths(tmp_path, layout)


def _check_read_paths(tmp_path, texts):
    """Load ``texts`` as files of 9, 1 and 30 rows under each of _CONFIGS and
    compare every read path with the oracle. Each label is the row's split
    index, so a batch without rows still names them."""
    from metareplay.memory import EpisodicMemory

    sizes = [9, 1, 30]
    paths, start = [], 0
    for i, size in enumerate(sizes):
        paths.append(_write(tmp_path / f"t{i}.tsv", texts[start:start + size],
                            range(start, start + size)))
        start += size
    n = len(texts)
    for config in _CONFIGS:
        want = np.array([_featurize_loop(text, config) for text in texts])
        tasks = load_text_tasks([paths], config)[0]
        split = one_split(tasks)
        np.testing.assert_array_equal(split.labels, np.arange(n))
        counts = np.array([_featurize_loop(text, dataclasses.replace(config, l2_normalize=False))
                           for text in texts])
        assert split.features.counts.dtype == np.min_scalar_type(int(counts.max()))
        assert split.features.cols.dtype == np.min_scalar_type(config.dim - 1)
        for task in tasks:
            rows = want[task.offset:task.offset + task.size]
            idx = np.array([0, task.size - 1, -1, -task.size, 0])
            batch = task.take(idx)
            np.testing.assert_array_equal(batch.features, rows[idx])
            np.testing.assert_array_equal(batch.features, want[batch.rows])
            full = task.full_batch()
            np.testing.assert_array_equal(full.features, rows)
            with pytest.raises(ValueError):
                full.features[0, 0] = 1.0
        np.testing.assert_array_equal(split.full_batch().features, want)

        memory = EpisodicMemory(1.0, tasks, np.random.default_rng(0), np.random.default_rng(1))
        for batch in BatchStream(tasks, (2, 0, 1), 4, np.random.default_rng(2)):
            memory.write(batch)
        for k in (5, n, n + 3):
            sample = memory.sample(k)
            np.testing.assert_array_equal(sample.features, want[sample.labels])
        for batch in _pooled_epochs(tasks, 16, np.random.default_rng(3), epochs=2):
            np.testing.assert_array_equal(batch.features, want[batch.labels])

        features = split.features
        for lo, hi in ((0, n), (2, 5), (-3, None), (4, 4), (7, 2), (n - 1, n + 9)):
            part, rows = features[lo:hi], want[lo:hi]
            assert isinstance(part, HashedRows) and part.shape == rows.shape
            # Slices of slices, and negative and out-of-range rows of each.
            subs = [(part, rows)] + [(part[a:b], rows[a:b])
                                     for a, b in ((1, None), (-2, -1), (0, 0), (2, n))]
            for sub, sub_rows in subs:
                np.testing.assert_array_equal(np.asarray(sub), sub_rows)
                np.testing.assert_array_equal(np.asarray(sub[-2:]), sub_rows[-2:])
                size = len(sub_rows)
                if size:
                    idx = np.array([-1, 0, -size, size - 1, -1])
                    np.testing.assert_array_equal(sub[idx], sub_rows[idx])
                for bad in ([size], [-size - 1], [0, size + 3]):
                    with pytest.raises(IndexError):
                        sub[np.array(bad)]
        with pytest.raises(IndexError):
            features[::2]
        rows = np.array([-1, -n, n - 1, 0, 0])
        np.testing.assert_array_equal(features[rows], want[rows])
        np.testing.assert_array_equal(features.take(rows), want.take(rows, axis=0))
        np.testing.assert_array_equal(features.take(rows, axis=0), want.take(rows, axis=0))
        for axis in (1, -1, None):
            with pytest.raises(ValueError, match="axis"):
                features.take(rows, axis=axis)
        assert features[np.array([], dtype=np.int64)].shape == (0, config.dim)
        for bad in ([n], [-n - 1], [0, n + 5]):
            with pytest.raises(IndexError):
                want[np.array(bad)]
            with pytest.raises(IndexError):
                features[np.array(bad)]
            with pytest.raises(IndexError):
                features.take(np.array(bad))
            with pytest.raises(IndexError):
                tasks[1].take(np.array(bad))


def test_hashed_rows_bytes_do_not_grow_with_dim(tmp_path):
    texts = [f"w{i} w{i + 1} w{i + 2}" for i in range(40)]
    nbytes = []
    for dim in (2**12, 2**16, 2**20, 2**32):
        path = _write(tmp_path / "t.tsv", texts)
        features = one_split(load_text_tasks([[path]], FeaturizerConfig(dim=dim))[0]).features
        assert features.shape == (40, dim)
        nbytes.append(_store_bytes(features))
    # An int64 row pointer and a float64 norm per row, then a uint8 count
    # and a bucket per distinct (row, bucket): a uint16 bucket up to 2**16
    # buckets, a uint32 one beyond, so never more than 4 bytes.
    assert nbytes == [41 * 8 + 40 * 8 + 120 * 3] * 2 + [41 * 8 + 40 * 8 + 120 * 5] * 2


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy 1 does not pass copy to __array__")
def test_hashed_rows_densify_only_as_a_copy(tmp_path):
    """numpy 2 passes ``copy`` to ``__array__``; densifying always copies, so
    copy=False is refused rather than silently answered with a new array."""
    config, texts = FeaturizerConfig(dim=8), ["spam ham", "eggs"]
    features = one_split(load_text_tasks([[_write(tmp_path / "t.tsv", texts)]],
                                         config)[0]).features
    want = np.array([_featurize_loop(text, config) for text in texts])
    np.testing.assert_array_equal(np.asarray(features), want)
    np.testing.assert_array_equal(np.array(features, copy=True), want)
    assert np.asarray(features, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError, match="copy"):
        np.array(features, copy=False)


def _store_bytes(features):
    return (features.indptr.nbytes + features.norms.nbytes + features.cols.nbytes
            + features.counts.nbytes)


def test_loading_holds_the_store_plus_one_file(tmp_path):
    # Eight files of 400 documents x 50 tokens over 500 words. The loader
    # may hold the final store plus temporaries of one file at a time: about
    # 54 bytes per token of a file, 80 allowed. A loader that featurized the
    # whole split at once would hold about 375 bytes per token of a file.
    rng = np.random.default_rng(0)
    vocabulary = [f"w{i}" for i in range(500)]
    paths = [_write(tmp_path / f"t{f}.tsv",
                    [" ".join(rng.choice(vocabulary, 50)) for _ in range(400)])
             for f in range(8)]
    config = FeaturizerConfig(dim=2**20)
    load_text_tasks([paths], config)  # warm up imports and caches
    tracemalloc.start()
    try:
        split = one_split(load_text_tasks([paths], config)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = _store_bytes(split.features) + split.labels.nbytes
    assert peak < stored + 80 * 400 * 50


def test_loading_one_large_file_holds_the_store_plus_one_block(tmp_path, monkeypatch):
    # One file of 32 blocks of 100 documents x 50 tokens over 500 words. The
    # loader may hold the final store plus temporaries of one block: 80
    # bytes per token of a block allowed. Featurizing the whole file at once
    # would hold about 54 bytes per token of the file, 8.6 MB here.
    monkeypatch.setattr("metareplay.stream._BLOCK_DOCS", 100)
    rng = np.random.default_rng(0)
    vocabulary = [f"w{i}" for i in range(500)]
    paths = [_write(tmp_path / "t.tsv",
                    [" ".join(rng.choice(vocabulary, 50)) for _ in range(3200)])]
    config = FeaturizerConfig(dim=2**20)
    load_text_tasks([paths], config)  # warm up imports and caches
    tracemalloc.start()
    try:
        split = one_split(load_text_tasks([paths], config)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = _store_bytes(split.features) + split.labels.nbytes
    assert peak < stored + 80 * 100 * 50


def test_blocks_store_the_same_bytes_and_dtypes_as_one_block(tmp_path, monkeypatch):
    # The fourth document's count of 300 needs uint16 counts: the blocks
    # before it were stored as uint8 and are promoted when it is appended.
    texts = ["a b a", "c", "", "a " * 300, "b c d"] * 2
    paths = [_write(tmp_path / "t0.tsv", texts), _write(tmp_path / "t1.tsv", texts[:4])]
    config = FeaturizerConfig(dim=300, l2_normalize=True)
    whole = one_split(load_text_tasks([paths], config)[0])
    monkeypatch.setattr("metareplay.stream._BLOCK_DOCS", 3)
    blocks = one_split(load_text_tasks([paths], config)[0])
    for name in ("indptr", "cols", "counts", "norms"):
        a, b = getattr(whole.features, name), getattr(blocks.features, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert whole.features.counts.dtype == np.uint16
    assert whole.labels.tobytes() == blocks.labels.tobytes()


def test_featurize_normalization_and_truncation(tmp_path):
    cfg = FeaturizerConfig(dim=32, truncate=2, l2_normalize=True)
    vec = _loaded(tmp_path, ["one two three four"], cfg)[0]
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    assert vec.sum() > 0
    untr = _loaded(tmp_path, ["one two three four"], FeaturizerConfig(dim=32, l2_normalize=False))
    assert untr.sum() == 4.0


def test_featurize_bucket_counts_look_uniform(tmp_path):
    # Many random tokens should spread evenly across buckets (chi-square).
    dim = 64
    cfg = FeaturizerConfig(dim=dim, l2_normalize=False)
    rng = np.random.default_rng(0)
    tokens = ["".join(rng.choice(list("abcdefghijklmnop"), size=8)) for _ in range(4000)]
    counts = _loaded(tmp_path, tokens, cfg).sum(axis=0)
    assert counts.sum() == 4000
    assert stats.chisquare(counts).pvalue > 1e-3


def test_empty_text_featurizes_to_zero_vector(tmp_path):
    vec = _loaded(tmp_path, ["..."], FeaturizerConfig(dim=8))[0]
    np.testing.assert_array_equal(vec, np.zeros(8))


def test_load_text_task(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    a.write_text("0\thello world\n1\tgoodbye moon\n", encoding="utf-8")
    b.write_text(f"\n{2**63 - 1}\tsee you\n", encoding="utf-8")
    config = FeaturizerConfig(dim=64)
    tasks = load_text_tasks([[a, b]], config)[0]
    assert [(t.task_id, t.offset, t.size) for t in tasks] == [(0, 0, 2), (1, 2, 1)]
    split = one_split(tasks)
    assert split.labels.dtype == np.int64
    np.testing.assert_array_equal(split.labels, [0, 1, 2**63 - 1])
    np.testing.assert_array_equal(
        np.asarray(split.features),
        [_featurize_loop(t, config) for t in ("hello world", "goodbye moon", "see you")])
    # A task's features are a view of the split's store.
    assert tasks[1].features.cols is split.features.cols
    assert np.shares_memory(tasks[1].features.indptr, split.features.indptr)

    for text, where in (("no tab here\n", 1), ("-1\tnegative label\n", 1), ("\n", None),
                        (f"0\tok\n{2**63}\ttoo large\n", 2),
                        ("0\tok\n100000000000000000000\tfar too large\n", 2)):
        bad = tmp_path / "bad.tsv"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match="bad.tsv" + (f":{where}:" if where else "")):
            load_text_tasks([[a, bad]], config)
    for dim in (1, 2**32 + 1):
        with pytest.raises(InputError, match="dim"):
            FeaturizerConfig(dim=dim)


def test_byte_order_mark_is_dropped(tmp_path):
    """A file that starts with a UTF-8 BOM loads to the same store and
    labels as the file without it."""
    body = "3\tfirst line\n0\tsecond line\n"
    plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_text(body, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    config = FeaturizerConfig(dim=64)
    want, got = (one_split(load_text_tasks([[p]], config)[0]) for p in (plain, bom))
    for name in ("indptr", "cols", "counts", "norms"):
        a, b = getattr(want.features, name), getattr(got.features, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert want.labels.tobytes() == got.labels.tobytes()
    np.testing.assert_array_equal(want.labels, [3, 0])


def test_split_tasks_are_views_of_one_split():
    tasks = _tasks([4, 0, 3])
    split = one_split(tasks)
    assert split.task_id == -1 and split.split is split and split.size == 7
    assert [(t.offset, t.size) for t in tasks] == [(0, 4), (4, 0), (4, 3)]
    assert all(t.split is split and np.shares_memory(t.features, split.features)
               for t in tasks if t.size)
    hand = TaskSpec(0, np.zeros((2, 2)), np.zeros(2, dtype=int))
    assert one_split([hand]) is hand and hand.offset == 0
    for bad in ([hand, hand], tasks[::-1], tasks[:2], tasks[1:], []):
        with pytest.raises(InputError):
            one_split(bad)
    with pytest.raises(InputError):
        split_tasks([0, 1], np.zeros((5, 2)), np.zeros(5), [2, 2])


def test_suite_is_freed_by_reference_counting():
    import gc
    import weakref

    suite = make_synthetic_suite("BALANCED", 3, 2, 5, 4, seed=0, test_per_class=2)
    refs = [weakref.ref(one_split(suite.train)), weakref.ref(one_split(suite.test))]
    gc.disable()
    try:
        del suite
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


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
    assert one_split(suite.train).size == 400 and one_split(suite.test).size == 160


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


def test_closest_distance_matches_one_broadcast(monkeypatch):
    """Blocks of rows give the bits of the (n, n, d) broadcast's minimum."""
    def broadcast(points):
        dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        return dists.min()

    rng = np.random.default_rng(3)
    cases = [(_PAIR_BLOCK, (10, 10)), (_PAIR_BLOCK, (40, 2048)), (_PAIR_BLOCK, (1000, 10)),
             (1, (37, 5)), (70, (257, 9)), (999, (2, 1))]
    for block, (n, d) in cases:
        monkeypatch.setattr("metareplay.stream._PAIR_BLOCK", block)
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        assert _closest_distance(points).tobytes() == broadcast(points).tobytes()
        points[n // 2] = points[0]
        assert _closest_distance(points) == 0.0


def test_synthetic_suite_memory_does_not_grow_with_class_pairs():
    # 1,000 tasks x 2 classes: one (C, C, d) broadcast of the class-mean
    # differences alone would take 320 MB at d=10.
    tracemalloc.start()
    try:
        suite = make_synthetic_suite("BALANCED", 1000, 2, 1, 10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert suite.num_classes == 2000
    assert peak < 32 * 2**20


def test_unit_variance_clusters():
    suite = make_synthetic_suite("BALANCED", 2, 2, 2000, 5, seed=3)
    task = suite.train[0]
    cls = task.labels == task.labels[0]
    std = task.features[cls].std(axis=0, ddof=1)
    np.testing.assert_allclose(std, 1.0, atol=0.1)


def test_imbalanced_suite_budget_and_balanced_tests():
    suite = make_synthetic_suite("IMBALANCED", 5, 2, 1000, 10, seed=7,
                                 test_per_class=250)
    sizes = sorted((t.size for t in suite.train), reverse=True)
    total = sum(sizes)
    assert total == 10000
    assert sizes[0] >= 0.5 * total
    assert sizes[1] >= 0.2 * total
    for task in suite.test:
        assert task.size == 500  # test splits stay balanced


@pytest.mark.parametrize("num_tasks, dominant", [(50, -16), (10, 0), (9, 1)])
def test_imbalanced_budget_too_small_for_the_dominant_task_is_rejected(num_tasks, dominant):
    """At one example per class, the other tasks each keep at least one row
    per class, and what is left of the budget leaves the dominant task fewer
    rows than its two classes: a negative size, none, or one."""
    message = (f"^an IMBALANCED budget of {2 * num_tasks} examples is too small: its dominant "
               f"task would get {dominant} for its 2 classes$")
    with pytest.raises(InputError, match=message):
        make_synthetic_suite("IMBALANCED", num_tasks, 2, 1, 3, seed=0)


def test_every_accepted_imbalanced_suite_trains_every_class():
    for num_tasks in range(2, 13):
        for classes_per_task in (1, 2, 3):
            for examples_per_class in (1, 2, 3):
                try:
                    suite = make_synthetic_suite("IMBALANCED", num_tasks, classes_per_task,
                                                 examples_per_class, 2, seed=0)
                except InputError:
                    continue
                assert suite.num_classes == num_tasks * classes_per_task
                for t, task in enumerate(suite.train):
                    assert set(task.labels.tolist()) == set(range(
                        t * classes_per_task, (t + 1) * classes_per_task))


def test_suite_validation():
    with pytest.raises(InputError):
        make_synthetic_suite("BALANCED", 1, 2, 10, 3, seed=0)
    with pytest.raises(InputError):
        make_synthetic_suite("WEIRD", 3, 2, 10, 3, seed=0)
    for classes_per_task, input_dim in ((0, 3), (2, 0)):
        with pytest.raises(InputError, match="^classes_per_task and input_dim must be >= 1$"):
            make_synthetic_suite("BALANCED", 3, classes_per_task, 10, input_dim, seed=0)


def test_suite_is_reproducible():
    a = make_synthetic_suite("BALANCED", 3, 2, 20, 4, seed=9, test_per_class=5)
    b = make_synthetic_suite("BALANCED", 3, 2, 20, 4, seed=9, test_per_class=5)
    for ta, tb in zip(a.train, b.train):
        np.testing.assert_array_equal(ta.features, tb.features)
        np.testing.assert_array_equal(ta.labels, tb.labels)
