import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moesense import classifiers
from moesense.classifiers import (
    HYPERPARAM_RANGES,
    HYPERPARAMS,
    SVM_DEFAULTS,
    ForestModel,
    KnnModel,
    LabeledDataset,
    LinearSvmModel,
    predict_forest,
    predict_knn,
    predict_linear_svm,
    predict_posterior,
    train_forest,
    train_knn,
    train_linear_svm,
)
from moesense.errors import InputError, TrainingError
from moesense.features import MAX_FEATURE, FeatureKind, FeatureVector
from moesense.pipeline import MODEL_FORMATS, Blocks, model_from_jsonable, model_to_jsonable
from reference import _forest as reference_forest
from reference import knn_oracle


def fv(values, kind=FeatureKind.AMPLITUDE_STATS):
    return FeatureVector(kind, np.asarray(values, dtype=float))


def dataset(matrix, labels, num_classes=None):
    feats = [fv(row) for row in matrix]
    if num_classes is None:
        num_classes = int(max(labels)) + 1
    return LabeledDataset.build(feats, labels, num_classes)


def random_dataset(rng, n=50, d=4, num_classes=3):
    matrix = rng.normal(size=(n, d))
    labels = rng.integers(0, num_classes, n)
    return dataset(matrix, labels.tolist(), num_classes), matrix, labels


# ---------------------------------------------------------------------------
# LabeledDataset
# ---------------------------------------------------------------------------

def test_dataset_rejects_empty():
    with pytest.raises(TrainingError):
        LabeledDataset.build([], [], 2)


def test_dataset_rejects_mixed_kinds():
    feats = [fv([1, 2]), fv([3, 4], kind=FeatureKind.DOPPLER_ENERGY)]
    with pytest.raises(TrainingError):
        LabeledDataset.build(feats, [0, 1], 2)


def test_dataset_rejects_count_mismatch():
    with pytest.raises(TrainingError):
        LabeledDataset.build([fv([1, 2])], [0, 1], 2)


def test_dataset_rejects_mixed_lengths():
    with pytest.raises(TrainingError):
        LabeledDataset.build([fv([1, 2]), fv([1, 2, 3])], [0, 1], 2)


def test_dataset_rejects_negative_label():
    with pytest.raises(TrainingError, match="labels must be non-negative"):
        LabeledDataset.build([fv([1, 2]), fv([3, 4])], [0, -1], num_classes=2)


def test_dataset_rejects_label_out_of_range():
    with pytest.raises(TrainingError):
        LabeledDataset.build([fv([1, 2])], [5], num_classes=3)


# ---------------------------------------------------------------------------
# KNN
# ---------------------------------------------------------------------------

def test_knn_k_out_of_range():
    data = dataset([[0, 0], [1, 1]], [0, 1])
    with pytest.raises(TrainingError):
        train_knn(data, k=3)
    with pytest.raises(TrainingError):
        train_knn(data, k=0)


def test_knn_k1_memorizes_training_points():
    rng = np.random.default_rng(3)
    data, matrix, labels = random_dataset(rng)
    model = train_knn(data, k=1)
    for row, label in zip(matrix, labels):
        post = predict_knn(model, fv(row))
        assert post[label] == 1.0
        assert post.sum() == pytest.approx(1.0)


def test_knn_two_point_toy():
    data = dataset([[0, 0], [1, 1]], [0, 1], num_classes=2)
    model = train_knn(data, k=1)
    post = predict_knn(model, fv([0.1, 0.1]))
    assert np.array_equal(post, [1.0, 0.0])


def test_knn_distance_tie_prefers_lower_index():
    # both training points are exactly 1.0 away from the query
    data = dataset([[1, 0], [-1, 0]], [1, 0], num_classes=2)
    model = train_knn(data, k=1)
    post = predict_knn(model, fv([0, 0]))
    assert post[1] == 1.0  # index 0 holds label 1


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        data, matrix, labels = random_dataset(rng, n=50, d=3, num_classes=4)
        model = train_knn(data, k=3)
        for _ in range(10):
            q = rng.normal(size=3)
            expected = knn_oracle(matrix, labels, q, 3, 4)
            assert np.array_equal(predict_knn(model, fv(q)), expected)


def test_knn_length_mismatch():
    data = dataset([[0, 0], [1, 1]], [0, 1])
    model = train_knn(data, k=1)
    with pytest.raises(InputError):
        predict_knn(model, fv([0, 0, 0]))


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------

def test_svm_rejects_single_class():
    data = dataset([[0.0], [1.0]], [1, 1], num_classes=2)
    with pytest.raises(TrainingError):
        train_linear_svm(data)


def test_svm_separable_1d_reaches_full_accuracy():
    matrix = [[-1.0], [-0.8], [-1.2], [1.0], [0.8], [1.2]]
    labels = [0, 0, 0, 1, 1, 1]
    data = dataset(matrix, labels, num_classes=2)
    model = train_linear_svm(data)
    preds = [int(np.argmax(predict_linear_svm(model, fv(row)))) for row in matrix]
    assert preds == labels


def test_svm_zero_epochs_uniform_posterior():
    data = dataset([[-1.0], [1.0]], [0, 1], num_classes=2)
    model = train_linear_svm(data, epochs=0)
    assert np.all(model.weights == 0.0)
    post = predict_linear_svm(model, fv([0.3]))
    assert np.allclose(post, [0.5, 0.5], atol=1e-12)


def test_svm_deterministic_retraining():
    rng = np.random.default_rng(23)
    data, _, _ = random_dataset(rng, n=30, d=4, num_classes=3)
    a = train_linear_svm(data)
    b = train_linear_svm(data)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


def svm_objective(model, data, l2):
    """Regularized mean hinge loss summed over the one-vs-rest problems."""
    z = (data.matrix - model.mean) / model.std
    y = np.where(np.arange(model.num_classes)[None, :] == data.labels[:, None], 1.0, -1.0)
    margins = (z @ model.weights.T + model.biases) * y
    hinge = np.maximum(0.0, 1.0 - margins).mean(axis=0).sum()
    reg = 0.5 * l2 * float((model.weights**2).sum())
    return hinge + reg


def test_svm_objective_non_increasing_over_epochs():
    # separable 2-class toy data; objective sampled at epoch boundaries
    matrix = [[-1.5, 0.2], [-1.0, -0.1], [-0.8, 0.05], [0.9, -0.2], [1.1, 0.1], [1.4, 0.0]]
    labels = [0, 0, 0, 1, 1, 1]
    data = dataset(matrix, labels, num_classes=2)
    losses = [
        svm_objective(train_linear_svm(data, epochs=e, step_size=0.01, l2=1e-3), data, 1e-3)
        for e in range(0, 16)
    ]
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-9)


def per_sample_svm_reference(data, epochs, step_size, l2):
    """The SVM loop as first written: boolean-index updates of the violated rows."""
    mean = data.matrix.mean(axis=0)
    std = data.matrix.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (data.matrix - mean) / std
    c = data.num_classes
    weights = np.zeros((c, z.shape[1]))
    biases = np.zeros(c)
    y = np.where(np.arange(c)[None, :] == data.labels[:, None], 1.0, -1.0)
    for epoch in range(epochs):
        eta = step_size / (epoch + 1)
        shrink = 1.0 - eta * l2
        for i in range(len(z)):
            zi = z[i]
            margins = (weights @ zi + biases) * y[i]
            weights *= shrink
            violated = margins < 1.0
            if violated.any():
                weights[violated] += eta * y[i, violated, None] * zi
                biases[violated] += eta * y[i, violated]
    return weights, biases


def _with_constant_column(rng):
    data, _, _ = random_dataset(rng, n=60, d=5, num_classes=4)
    data.matrix[:, 2] = 3.25
    return data


def _separable(rng):
    labels = np.repeat(np.arange(3), 15)
    matrix = labels[:, None] * 10.0 + rng.normal(scale=0.1, size=(45, 3))
    return dataset(matrix, labels)


def _single_feature(rng):
    labels = np.repeat(np.arange(3), 12)
    return dataset(labels[:, None] + rng.normal(scale=0.8, size=(36, 1)), labels)


def _many_classes(rng):
    # more weight rows than one BLAS gemv block
    data, _, _ = random_dataset(rng, n=110, d=6, num_classes=11)
    return data


def _margins_exactly_one(rng):
    return dataset([[0.0, 0.0], [1.0, 1.0]], [0, 1])


@pytest.mark.parametrize("make", [_with_constant_column, _separable, _single_feature,
                                  _many_classes, _margins_exactly_one])
@pytest.mark.parametrize("epochs, step_size, l2", [(40, 0.01, 1e-3), (15, 0.3, 0.05),
                                                   (25, 0.05, 0.0), (1, 1.0, 0.0)])
def test_svm_matches_per_sample_reference_bytes(make, epochs, step_size, l2):
    data = make(np.random.default_rng(41))
    model = train_linear_svm(data, epochs=epochs, step_size=step_size, l2=l2)
    weights, biases = per_sample_svm_reference(data, epochs, step_size, l2)
    assert model.weights.tobytes() == weights.tobytes()
    assert model.biases.tobytes() == biases.tobytes()


def test_svm_margin_of_exactly_one_holds():
    """Only a margin strictly below 1 takes a step. After the first step the
    weights are [[-1, -1], [1, 1]] and the biases [1, -1]; at the second
    sample, z = [1, 1], both margins are exactly 1.0, so nothing moves. A rule
    of margin <= 1 would step again to [[-2, -2], [2, 2]] and [0, 0]."""
    model = train_linear_svm(_margins_exactly_one(None), epochs=1, step_size=1.0, l2=0.0)
    assert model.weights.tolist() == [[-1.0, -1.0], [1.0, 1.0]]
    assert model.biases.tolist() == [1.0, -1.0]


def test_svm_posterior_follows_margins():
    rng = np.random.default_rng(31)
    data, _, _ = random_dataset(rng, n=40, d=5, num_classes=4)
    model = train_linear_svm(data)
    for _ in range(20):
        q = rng.normal(size=5)
        z = (q - model.mean) / model.std
        margins = model.weights @ z + model.biases
        post = predict_linear_svm(model, fv(q))
        assert post.sum() == pytest.approx(1.0, abs=1e-9)
        assert int(np.argmax(post)) == int(np.argmax(margins))


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

def test_forest_single_tree_full_sample_memorizes():
    rng = np.random.default_rng(41)
    matrix = rng.normal(size=(40, 5))  # unique rows almost surely
    labels = rng.integers(0, 3, 40).tolist()
    data = dataset(matrix, labels, num_classes=3)
    model = train_forest(data, num_trees=1, max_depth=64, seed=9, bootstrap=False)
    preds = [int(np.argmax(predict_forest(model, fv(row)))) for row in matrix]
    assert preds == labels


def test_forest_pure_class_single_leaf():
    data = dataset([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], [2, 2, 2], num_classes=4)
    model = train_forest(data, num_trees=3, max_depth=4, seed=1)
    # each tree's root is its only node, and it is a leaf
    assert model.nodes == [1, 1, 1]
    assert model.feature.tolist() == [-1, -1, -1]
    assert model.threshold.tolist() == model.right.tolist() == []  # no inner nodes
    assert model.counts.tolist() == [[0, 0, 3, 0]] * 3
    assert model.leaves.tolist() == [[0.0, 0.0, 1.0, 0.0]] * 3
    post = predict_forest(model, fv([9.0, 9.0]))
    assert post[2] == 1.0


def test_forest_never_splits_on_a_constant_column(monkeypatch):
    unsplittable = []

    def spy(block, labels, num_classes, best_splits=classifiers._best_splits):
        gini, thresholds = best_splits(block, labels, num_classes)
        unsplittable.extend(block[:, gini == np.inf].T)
        return gini, thresholds

    monkeypatch.setattr(classifiers, "_best_splits", spy)
    data = _with_constant_column(np.random.default_rng(43))
    model = train_forest(data, num_trees=5, max_depth=6, seed=2)
    assert any((values == 3.25).all() for values in unsplittable)  # the constant column's value
    assert 2 not in model.feature.tolist()


def _best_split_on_feature(
    values: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[float, float] | None:
    """Return (weighted Gini, midpoint threshold) or None if unsplittable."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    boundaries = np.nonzero(v[:-1] < v[1:])[0]
    if boundaries.size == 0:
        return None
    onehot = np.zeros((len(v), num_classes))
    onehot[np.arange(len(v)), labels[order]] = 1.0
    cum = np.cumsum(onehot, axis=0)
    total = cum[-1]

    n = len(v)
    n_left = (boundaries + 1).astype(np.float64)
    n_right = n - n_left
    left = cum[boundaries]
    right = total - left
    gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
    weighted = (n_left * gini_left + n_right * gini_right) / n

    best = int(np.argmin(weighted))  # ties resolve to the lowest threshold
    thr = (v[boundaries[best]] + v[boundaries[best] + 1]) / 2.0
    return float(weighted[best]), float(thr)


def _grow_tree(matrix: np.ndarray, labels: np.ndarray, num_classes: int,
               max_depth: int, rng: np.random.Generator,
               columns: tuple[list, list, list, list]) -> int:
    """Append one tree in preorder to the forest's `columns` (feature, threshold,
    right, counts; see `ForestModel`) and return its node count. A node's left
    subtree is finished before its right one starts, so the RNG draws follow
    the node order."""
    feature, threshold, right, counts = columns
    first = len(feature)
    m_try = math.ceil(math.sqrt(matrix.shape[1]))
    stack = [(matrix, labels, 0, -1)]  # (samples, labels, depth, parent's `right` entry)
    while stack:
        m, y, depth, parent = stack.pop()
        if parent >= 0:
            right[parent] = len(feature) - first
        best: tuple[float, float, int] | None = None
        if len(y) >= 2 and depth < max_depth and not np.all(y == y[0]):
            # Evaluate m_try candidate features; if none of them splits, keep walking
            # the permutation until one does so unique points always separate.
            for rank, f in enumerate(rng.permutation(m.shape[1])):
                res = _best_split_on_feature(m[:, f], y, num_classes)
                if res is not None and (best is None or res[0] < best[0]):
                    best = (res[0], res[1], int(f))
                if rank + 1 >= m_try and best is not None:
                    break
        if best is None:
            counts.append(np.bincount(y, minlength=num_classes))
            feature.append(-1)
            continue
        _, split, f = best
        mask = m[:, f] <= split
        stack.append((m[~mask], y[~mask], depth + 1, len(right)))
        stack.append((m[mask], y[mask], depth + 1, -1))
        feature.append(f)
        threshold.append(split)
        right.append(-1)  # set when the right child is reached
    return len(feature) - first


def per_feature_forest_reference(data, num_trees, max_depth, seed, bootstrap):
    """The forest as trained when a node searched its candidate features one
    call at a time: `_best_split_on_feature` and `_grow_tree` above are that
    search, unchanged, and this is `train_forest`'s seeding around them."""
    master = np.random.default_rng(seed)
    tree_seeds = [int(s) for s in master.integers(0, 2**63, num_trees)]
    n = len(data)
    nodes, columns = [], ([], [], [], [])
    for ts in tree_seeds:
        rng = np.random.default_rng(ts)
        idx = rng.integers(0, n, n) if bootstrap else np.arange(n)
        nodes.append(_grow_tree(data.matrix[idx], data.labels[idx], data.num_classes,
                                max_depth, rng, columns))
    return ForestModel(nodes, *columns, data.num_classes, data.matrix.shape[1])


def forest_case(seed):
    """A seeded forest training set with 1-20 classes, up to 127 features, ties
    from rounding, and constant columns that often leave the first m_try
    candidates without a split."""
    rng = np.random.default_rng(seed)
    num_classes = 1 + seed % 20
    d = int(rng.choice([1, 2, 3, 4, 5, 7, 9, 16, 30, 127]))
    n = int(rng.integers(2, 90))
    matrix = rng.normal(size=(n, d))
    matrix = np.round(matrix, int(rng.integers(0, 3)))  # ties within a column
    constant = rng.random(d) < rng.choice([0.0, 0.5, 0.9, 1.0])
    matrix[:, constant] = rng.normal(size=int(constant.sum()))
    labels = rng.integers(0, num_classes, n)
    return dataset(matrix, labels.tolist(), num_classes)


@pytest.mark.parametrize("group", range(8))
def test_forest_matches_the_per_feature_search_bit_for_bit(group):
    for seed in range(group, 240, 8):
        data = forest_case(seed)
        params = dict(num_trees=1 + seed % 3, max_depth=[1, 3, 8, 64][seed // 20 % 4],
                      seed=seed, bootstrap=seed % 7 != 0)
        model = train_forest(data, **params)
        expected = per_feature_forest_reference(data, **params)
        assert np.asarray(model.nodes).tobytes() == np.asarray(expected.nodes).tobytes()
        for column in ("feature", "threshold", "right", "counts"):
            assert getattr(model, column).tobytes() == getattr(expected, column).tobytes()


def test_forest_deterministic_retraining():
    rng = np.random.default_rng(47)
    data, matrix, _ = random_dataset(rng, n=60, d=4, num_classes=3)
    a = train_forest(data, seed=123)
    b = train_forest(data, seed=123)
    assert encoded(a) == encoded(b)
    c = train_forest(data, seed=124)
    assert encoded(c) != encoded(a)


def test_forest_posterior_valid():
    rng = np.random.default_rng(53)
    data, matrix, _ = random_dataset(rng, n=50, d=4, num_classes=5)
    model = train_forest(data, seed=3)
    for _ in range(20):
        post = predict_forest(model, fv(rng.normal(size=4)))
        assert post.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(post >= 0.0)


def full_columns(model):
    """The forest's threshold and right columns with an entry at every node,
    0.0 and -1 at a leaf, as forests kept them before they kept the inner-node
    columns a bundle stores."""
    thresholds, rights = iter(model.threshold.tolist()), iter(model.right.tolist())
    feature = model.feature.tolist()
    return ([next(thresholds) if f >= 0 else 0.0 for f in feature],
            [next(rights) if f >= 0 else -1 for f in feature])


def per_tree_walk(model, x):
    """The reference forest predict: the forest cut into per-tree lists with
    a posterior per node (None at inner nodes), walked tree by tree with a
    running sum, as forests were predicted before they were kept as node
    columns."""
    q = x.values.tolist()
    starts = np.cumsum(model.nodes) - model.nodes
    rows = iter(model.leaves)
    posterior = [next(rows) if f == -1 else None for f in model.feature.tolist()]
    columns = (model.feature.tolist(), *full_columns(model), posterior)
    trees = [[column[a:a + n] for column in columns] for a, n in zip(starts, model.nodes)]
    acc = np.zeros(model.num_classes)
    for feature, threshold, right, posterior in trees:
        i = 0
        while (f := feature[i]) >= 0:
            i = i + 1 if q[f] <= threshold[i] else right[i]
        acc += posterior[i]
    return acc / len(trees)


@pytest.mark.parametrize("seed", range(30))
def test_forest_predicts_bit_for_bit_as_the_per_tree_walk(seed):
    rng = np.random.default_rng(seed)
    num_classes, d = [1, 2, 2, 3, 5][seed % 5], int(rng.integers(1, 7))
    data, matrix, _ = random_dataset(rng, n=int(rng.integers(2, 60)), d=d,
                                     num_classes=num_classes)
    model = train_forest(data, num_trees=int(rng.integers(1, 40)),
                         max_depth=[64, 1, 3, 8][seed % 4], seed=seed, bootstrap=seed % 3 > 0)
    header, blocks = encoded(model)
    clone = loaded(header, blocks, **facts(model))
    # training rows, new points, and points on a split's threshold
    on_split = matrix[rng.integers(0, len(matrix), 10)].copy()
    threshold, _ = full_columns(model)
    for q, i in zip(on_split, rng.permutation(np.flatnonzero(model.feature >= 0))):
        q[model.feature[i]] = threshold[i]
    for q in [*matrix[:10], *rng.normal(size=(10, d)), *on_split]:
        expected = per_tree_walk(model, fv(q)).tobytes()
        assert predict_forest(model, fv(q)).tobytes() == expected
        assert predict_forest(clone, fv(q)).tobytes() == expected


def test_forest_sums_its_trees_in_tree_order():
    """Leaves whose class shares are not dyadic (1 of 6, 4 of 20, ...) make
    the sum over the trees depend on its order, so a forest that adds its
    trees in any order but the stored one fails the reference here."""
    counts = [[1, 1, 4], [8, 4, 8], [3, 3, 8], [8, 1, 1],
              [7, 4, 6], [2, 8, 5], [9, 8, 7], [3, 7, 1]]
    # four stumps, on features 0, 1, 0, 1 at 0.5: leaf rows 2t (left) and 2t + 1 (right)
    model = ForestModel([3] * 4, [0, -1, -1, 1, -1, -1] * 2, [0.5] * 4, [2] * 4, counts, 3, 2)
    for side in ([0, 2, 4, 6], [1, 3, 5, 7]):
        assert not np.array_equal(model.leaves[side].sum(axis=0),
                                  model.leaves[side[::-1]].sum(axis=0))
    for q in ([0.0, 0.0], [1.0, 1.0], [0.5, 0.9], [0.9, 0.5]):
        assert predict_forest(model, fv(q)).tobytes() == reference_forest(model, q).tobytes()


def leaf_row(model, tree, q):
    """The leaf row that tree `tree` routes query `q` to, walking the node columns."""
    first = int(np.sum(model.nodes[:tree]))
    threshold, right = full_columns(model)
    i = first
    while (f := model.feature[i]) >= 0:
        i = i + 1 if q[f] <= threshold[i] else first + right[i]
    return int(np.sum(model.feature[:i] == -1))


@pytest.mark.parametrize("seed", range(12))
def test_forest_counts_are_the_training_rows_each_leaf_holds(seed):
    """Without bootstrap every tree sees every training row, so a leaf's
    counts are the labels of the rows routed to it. The posteriors, built
    and loaded, are those rows divided as trees did before leaves were
    stored as counts: bincount(...).astype(float64) / its sum."""
    rng = np.random.default_rng(100 + seed)
    num_classes = [1, 2, 3, 6][seed % 4]
    data, matrix, labels = random_dataset(rng, n=int(rng.integers(2, 80)),
                                          d=int(rng.integers(1, 6)), num_classes=num_classes)
    model = train_forest(data, num_trees=int(rng.integers(1, 8)),
                         max_depth=[64, 1, 2, 4][seed % 4], seed=seed, bootstrap=False)
    routed = [[] for _ in model.counts]
    for q, label in zip(matrix, labels):
        for tree in range(len(model.nodes)):
            routed[leaf_row(model, tree, q)].append(label)
    expected_counts = [np.bincount(rows, minlength=num_classes) for rows in routed]
    assert model.counts.tolist() == [c.tolist() for c in expected_counts]
    v3 = np.array([(c := row.astype(np.float64)) / c.sum() for row in expected_counts])
    header, blocks = encoded(model)
    clone = loaded(header, blocks, **facts(model))
    assert model.leaves.tobytes() == clone.leaves.tobytes() == v3.tobytes()


def test_forest_format_limits_hold_at_training():
    # <i1 features: 127 features train and load, 128 do not train
    rng = np.random.default_rng(71)
    data, matrix, _ = random_dataset(rng, n=12, d=127, num_classes=2)
    model = train_forest(data, num_trees=3, seed=1)
    header, blocks = encoded(model)
    clone = loaded(header, blocks, **facts(model))
    assert predict_forest(clone, fv(matrix[0])).tobytes() == predict_forest(
        model, fv(matrix[0])).tobytes()
    wide = LabeledDataset(np.zeros((4, 128)), np.array([0, 1, 0, 1]), 2)
    with pytest.raises(TrainingError, match="at most 127 features"):
        train_forest(wide, num_trees=1)
    # <u2 counts and child indices: 32768 rows train and load, 32769 do not train
    for n, trains in ((32768, True), (32769, False)):
        tall = LabeledDataset(np.zeros((n, 1)), np.zeros(n, np.int64), 2)
        if not trains:
            with pytest.raises(TrainingError, match="at most 32768 rows"):
                train_forest(tall, num_trees=1)
            continue
        model = train_forest(tall, num_trees=1, bootstrap=False)
        header, blocks = encoded(model)
        assert loaded(header, blocks, **facts(model)).counts.tolist() == [[n, 0]]


def test_forest_tree_over_65535_nodes_does_not_load():
    # A well-formed tree of 65536 nodes: inner nodes at 0, 2, ..., 65532,
    # each with a leaf to its left and the next node of that chain to its
    # right, and the leaves 65534 and 65535. Only the node count limit, which
    # no tree trained on at most 32768 rows reaches, rejects it.
    n = 65536
    inner = np.arange(0, n - 3, 2)
    feature = np.full(n, -1)
    feature[inner] = 0
    blocks = Blocks()
    header = {"nodes": [n], "n_features": 1, "feature": blocks.put(feature, "<i1"),
              "threshold": blocks.put(np.zeros(len(inner)), "<f8"),
              "right": blocks.put(inner + 2, "<u2"),
              "counts": blocks.put(np.ones((n - len(inner), 2)), "<u2")}
    with pytest.raises(ValueError, match="65535"):
        loaded(header, blocks.data, "forest", 2)
    header["nodes"] = [n - 1]  # the same tree without its last, unreachable leaf loads
    header["feature"] = blocks.put(feature[:-1], "<i1")
    header["counts"] = blocks.put(np.ones((n - 1 - len(inner), 2)), "<u2")
    assert loaded(header, blocks.data, "forest", 2).nodes == [n - 1]


def test_forest_child_before_its_parent_does_not_construct():
    # node 0 splits into nodes 1 and 4, node 1 into nodes 2 and 3
    tree = dict(nodes=[5], feature=[0, 0, -1, -1, -1], threshold=[0.5, 0.25],
                counts=[[1, 0], [0, 1], [1, 1]], num_classes=2, n_features=1)
    assert predict_forest(ForestModel(right=[4, 3], **tree), fv([0.3])).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="after its parent"):
        ForestModel(right=[4, 0], **tree)  # node 1's right child is the root
    with pytest.raises(ValueError, match="tree features must lie"):
        ForestModel(right=[4, 3], **{**tree, "n_features": 1.0})  # a width is an integer


def test_forest_dimension_mismatch():
    data = dataset([[0, 1], [2, 3]], [0, 1])
    model = train_forest(data, num_trees=2, seed=5)
    with pytest.raises(InputError):
        predict_forest(model, fv([1, 2, 3]))


def test_forest_rejects_bad_tree_count():
    data = dataset([[0, 1], [2, 3]], [0, 1])
    with pytest.raises(TrainingError):
        train_forest(data, num_trees=0)


# ---------------------------------------------------------------------------
# serialization / dispatch
# ---------------------------------------------------------------------------

def encoded(model):
    """The model's JSON header entry and its blocks' bytes."""
    blocks = Blocks()
    return model_to_jsonable(model, blocks.put), blocks.data


def loaded(header, blocks, classifier, num_classes):
    """The model that the entry `header` over `blocks` loads as, given what a
    bundle's registry and metadata state: its expert's classifier and the
    class count."""
    return model_from_jsonable(header, Blocks(blocks).get, classifier, num_classes)


def facts(model, **changes):
    """What a bundle states for `model`: its classifier and class count, each
    overridden by `changes`."""
    classifier = next(name for name, (cls, _, _) in MODEL_FORMATS.items() if cls is type(model))
    return {"classifier": classifier, "num_classes": model.num_classes, **changes}


def test_models_round_trip_jsonable():
    rng = np.random.default_rng(61)
    data, matrix, _ = random_dataset(rng, n=30, d=4, num_classes=3)
    models = [
        train_knn(data, k=3),
        train_linear_svm(data, epochs=20),
        train_forest(data, num_trees=5, seed=77),
    ]
    q = fv(rng.normal(size=4))
    for model in models:
        header, data = encoded(model)
        clone = loaded(header, data, **facts(model))
        assert type(clone) is type(model)
        assert encoded(clone) == (header, data)
        assert np.array_equal(predict_posterior(clone, q), predict_posterior(model, q))
        # the entry states only the model's own numbers; the rest is passed in,
        # except a forest's width, which no array of it shows
        stated = header.keys() & {"type", "kind", "num_classes", "n_features"}
        assert stated == ({"n_features"} if isinstance(model, ForestModel) else set())
        if not isinstance(model, KnnModel):  # a KNN's labels only bound the class count
            with pytest.raises(ValueError):
                loaded(header, data, **facts(model, num_classes=4))
        with pytest.raises(KeyError):  # another classifier's entry
            loaded(header, data, **facts(model, classifier=next(
                name for name, (cls, _, _) in MODEL_FORMATS.items() if cls is not type(model))))


KNN_PARTS = {"k": 2, "matrix": np.zeros((3, 2)), "labels": np.array([0, 1, 1])}


@pytest.mark.parametrize("change", [
    {"k": 0}, {"k": 4}, {"k": 2.0}, {"k": True}, {"labels": np.array([0, 1, 2])},
    {"labels": np.array([-1, 1, 1])}, {"labels": np.array([0, 1])},
    {"labels": np.array([[0, 1, 1]])}, {"matrix": np.zeros(3)},
], ids=["k_zero", "k_past_the_rows", "k_a_float", "k_a_bool", "label_past_the_classes",
        "label_negative", "labels_short", "labels_2d", "matrix_1d"])
def test_knn_checks_its_numbers_trained_or_loaded(change):
    KnnModel(**KNN_PARTS, num_classes=2)
    with pytest.raises(ValueError, match="knn matrix, labels and k disagree"):
        KnnModel(**{**KNN_PARTS, **change}, num_classes=2)


@pytest.mark.parametrize("change", [
    {"biases": [0.0, 0.0, 0.0]}, {"weights": [1.0, -1.0]}, {"weights": [[1.0], [-1.0], [0.0]]},
    {"mean": [0.0, 0.0]}, {"std": [1.0, 1.0]},
    {"weights": [[[1.0]], [[-1.0]]], "mean": [[0.0]], "std": [[1.0]]},
], ids=["biases_past_the_classes", "weights_1d", "weights_past_the_classes", "mean_too_wide",
        "std_too_wide", "weights_3d"])
def test_svm_checks_its_shapes_trained_or_loaded(change):
    arrays = {key: np.array(value, np.float64) for key, value in {**SVM_PARTS, **change}.items()}
    with pytest.raises(ValueError, match="svm weights, biases and standardization disagree"):
        LinearSvmModel(**arrays, num_classes=2)


@pytest.mark.parametrize("kind,trainer", [("knn", train_knn), ("svm", train_linear_svm),
                                          ("forest", train_forest)])
def test_hyperparams_are_the_trainers_keyword_defaults(kind, trainer):
    params = inspect.signature(trainer).parameters
    assert HYPERPARAMS[kind] == {name: p.default for name, p in params.items()
                                 if name not in ("data", "seed")}


def test_default_hyperparams_lie_in_their_ranges():
    for defaults in HYPERPARAMS.values():
        for name, default in defaults.items():
            low, high = HYPERPARAM_RANGES[name]
            assert low <= default <= high
    assert SVM_DEFAULTS["step_size"] * SVM_DEFAULTS["l2"] < 1.0
    assert set(HYPERPARAM_RANGES) == {name for d in HYPERPARAMS.values() for name in d}


SVM_PARTS = {"weights": [[1.0], [-1.0]], "biases": [0.0, 0.0], "mean": [0.0], "std": [1.0]}
SVM_FACTS = {"classifier": "svm", "num_classes": 2}


def svm_with(**numbers):
    """A two-class SVM on one feature, given any of its numbers, as a bundle
    stores it: its JSON header entry and its blocks' bytes."""
    blocks = Blocks()
    return {key: blocks.put(value, "<f8") for key, value in {**SVM_PARTS, **numbers}.items()}, (
        blocks.data)


# Just below MAX_FEATURE, the largest a feature gets.
LARGEST_FEATURE = np.nextafter(MAX_FEATURE, 0.0)


@pytest.mark.parametrize("numbers", [
    {"std": [0.0]}, {"std": [-1.0]}, {"std": [1e-300]}, {"mean": [1e308]},
    {"weights": [[2e206], [-2e206]]}, {"biases": [1e307, -1e307]},
    # zero weights do not help: (feature - mean) / std overflows to inf, and 0 * inf is NaN
    {"weights": [[0.0], [0.0]], "std": [1e-300]},
], ids=["zero_std", "negative_std", "tiny_std", "huge_mean", "huge_weights", "huge_biases",
        "tiny_std_zero_weights"])
def test_svm_that_could_predict_a_non_finite_posterior_does_not_load(numbers):
    with pytest.raises(ValueError, match="svm numbers could make a prediction overflow"):
        loaded(*svm_with(**numbers), **SVM_FACTS)
    arrays = {key: np.array(value, np.float64) for key, value in {**SVM_PARTS, **numbers}.items()}
    with pytest.raises(ValueError, match="svm numbers could make a prediction overflow"):
        LinearSvmModel(**arrays, num_classes=2)


def test_svm_just_inside_the_bound_loads_and_predicts_finitely():
    # each margin's size reaches 9e306, below the 1e307 bound
    model = loaded(*svm_with(weights=[[9e306 / MAX_FEATURE], [-9e306 / MAX_FEATURE]]),
                   **SVM_FACTS)
    for q in (LARGEST_FEATURE, -LARGEST_FEATURE):
        posterior = predict_linear_svm(model, fv([q]))  # a RuntimeWarning fails the test
        assert np.isfinite(posterior).all() and posterior.sum() == pytest.approx(1.0)


def test_trained_svm_loads_and_predicts_finitely_for_the_largest_features():
    rng = np.random.default_rng(75)
    data, _, _ = random_dataset(rng, n=40, d=4, num_classes=3)
    trained = train_linear_svm(data, epochs=20)
    model = loaded(*encoded(trained), **facts(trained))
    for signs in ([1, 1, 1, 1], [-1, 1, -1, 1], [-1, -1, -1, -1]):
        posterior = predict_linear_svm(model, fv(np.array(signs) * LARGEST_FEATURE))
        assert np.isfinite(posterior).all()


def test_diverging_svm_is_training_error():
    # the weights overflow to inf and NaN; that fails the bound a load checks,
    # and no overflow RuntimeWarning comes out on the way
    rng = np.random.default_rng(75)
    data, _, _ = random_dataset(rng, n=40, d=4, num_classes=3)
    with pytest.raises(TrainingError, match="linear SVM diverged at step_size 1e\\+300"):
        train_linear_svm(data, epochs=5, step_size=1e300)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 300.0), st.integers(1, 4), st.sampled_from([0.0, 1e-3, 1.0]))
def test_a_trained_svm_loads(log_step, epochs, l2):
    # training and loading check one margin bound: what trains, loads
    rng = np.random.default_rng(76)
    data, _, _ = random_dataset(rng, n=20, d=3, num_classes=3)
    try:
        model = train_linear_svm(data, epochs=epochs, step_size=10.0**log_step, l2=l2)
    except TrainingError:
        return
    loaded(*encoded(model), **facts(model))
