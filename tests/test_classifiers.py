import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moesense.classifiers import (
    HYPERPARAM_RANGES,
    HYPERPARAMS,
    MODEL_TYPES,
    SVM_DEFAULTS,
    ForestModel,
    KnnModel,
    LabeledDataset,
    LinearSvmModel,
    predict_forest,
    predict_knn,
    predict_linear_svm,
    predict_posterior,
    svm_objective,
    train_forest,
    train_knn,
    train_linear_svm,
)
from moesense.errors import InputError, TrainingError
from moesense.features import MAX_FEATURE, FeatureKind, FeatureVector
from moesense.pipeline import Blocks


def fv(values, kind=FeatureKind.AMPLITUDE_STATS, rate=500.0):
    return FeatureVector(kind, np.asarray(values, dtype=float), rate)


def dataset(matrix, labels, num_classes=None, kind=FeatureKind.AMPLITUDE_STATS):
    feats = [fv(row, kind) for row in matrix]
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


def knn_oracle(matrix, labels, query, k, num_classes):
    d2 = ((matrix - query) ** 2).sum(axis=1)
    order = sorted(range(len(matrix)), key=lambda i: (d2[i], i))[:k]
    votes = np.zeros(num_classes)
    for i in order:
        votes[labels[i]] += 1
    return votes / k


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        data, matrix, labels = random_dataset(rng, n=50, d=3, num_classes=4)
        model = train_knn(data, k=3)
        for _ in range(10):
            q = rng.normal(size=3)
            expected = knn_oracle(matrix, labels, q, 3, 4)
            assert np.array_equal(predict_knn(model, fv(q)), expected)


def test_knn_kind_and_length_mismatch():
    data = dataset([[0, 0], [1, 1]], [0, 1])
    model = train_knn(data, k=1)
    with pytest.raises(InputError):
        predict_knn(model, fv([0, 0], kind=FeatureKind.DOPPLER_ENERGY))
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


@pytest.mark.parametrize("make", [_with_constant_column, _separable])
@pytest.mark.parametrize("epochs, step_size, l2", [(40, 0.01, 1e-3), (15, 0.3, 0.05)])
def test_svm_matches_per_sample_reference_bytes(make, epochs, step_size, l2):
    data = make(np.random.default_rng(41))
    model = train_linear_svm(data, epochs=epochs, step_size=step_size, l2=l2)
    weights, biases = per_sample_svm_reference(data, epochs, step_size, l2)
    assert model.weights.tobytes() == weights.tobytes()
    assert model.biases.tobytes() == biases.tobytes()


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
    clone = loaded(header, blocks, model)
    # training rows, new points, and points on a split's threshold
    on_split = matrix[rng.integers(0, len(matrix), 10)].copy()
    threshold, _ = full_columns(model)
    for q, i in zip(on_split, rng.permutation(np.flatnonzero(model.feature >= 0))):
        q[model.feature[i]] = threshold[i]
    for q in [*matrix[:10], *rng.normal(size=(10, d)), *on_split]:
        expected = per_tree_walk(model, fv(q)).tobytes()
        assert predict_forest(model, fv(q)).tobytes() == expected
        assert predict_forest(clone, fv(q)).tobytes() == expected


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
    clone = loaded(header, blocks, model)
    assert model.leaves.tobytes() == clone.leaves.tobytes() == v3.tobytes()


def test_forest_format_limits_hold_at_training():
    # <i1 features: 127 features train and load, 128 do not train
    rng = np.random.default_rng(71)
    data, matrix, _ = random_dataset(rng, n=12, d=127, num_classes=2)
    model = train_forest(data, num_trees=3, seed=1)
    header, blocks = encoded(model)
    clone = loaded(header, blocks, model)
    assert predict_forest(clone, fv(matrix[0])).tobytes() == predict_forest(
        model, fv(matrix[0])).tobytes()
    wide = LabeledDataset(np.zeros((4, 128)), np.array([0, 1, 0, 1]),
                          FeatureKind.AMPLITUDE_STATS, 2)
    with pytest.raises(TrainingError, match="at most 127 features"):
        train_forest(wide, num_trees=1)
    # <u2 counts and child indices: 32768 rows train and load, 32769 do not train
    for n, trains in ((32768, True), (32769, False)):
        tall = LabeledDataset(np.zeros((n, 1)), np.zeros(n, np.int64),
                              FeatureKind.AMPLITUDE_STATS, 2)
        if not trains:
            with pytest.raises(TrainingError, match="at most 32768 rows"):
                train_forest(tall, num_trees=1)
            continue
        model = train_forest(tall, num_trees=1, bootstrap=False)
        header, blocks = encoded(model)
        assert loaded(header, blocks, model).counts.tolist() == [[n, 0]]


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
        ForestModel.from_jsonable(header, blocks.get, FeatureKind.AMPLITUDE_STATS, 2, 1)
    header["nodes"] = [n - 1]  # the same tree without its last, unreachable leaf loads
    header["feature"] = blocks.put(feature[:-1], "<i1")
    header["counts"] = blocks.put(np.ones((n - 1 - len(inner), 2)), "<u2")
    assert ForestModel.from_jsonable(header, blocks.get, FeatureKind.AMPLITUDE_STATS, 2,
                                     1).nodes == [n - 1]


def test_forest_child_before_its_parent_does_not_construct():
    # node 0 splits into nodes 1 and 4, node 1 into nodes 2 and 3
    tree = dict(nodes=[5], feature=[0, 0, -1, -1, -1], threshold=[0.5, 0.25],
                counts=[[1, 0], [0, 1], [1, 1]], kind=FeatureKind.AMPLITUDE_STATS,
                num_classes=2, n_features=1)
    assert predict_forest(ForestModel(right=[4, 3], **tree), fv([0.3])).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="after its parent"):
        ForestModel(right=[4, 0], **tree)  # node 1's right child is the root


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
    return model.to_jsonable(blocks.put), blocks.data


def loaded(header, blocks, like, **changes):
    """The model that the entry `header` over `blocks` loads as, given what a
    bundle's registry and metadata state for `like`: its classifier, feature
    kind, class count and width, each overridden by `changes`."""
    facts = {"classifier": {cls: name for name, cls in MODEL_TYPES.items()}[type(like)],
             "kind": like.kind, "num_classes": like.num_classes, "n_features": like.n_features,
             **changes}
    return MODEL_TYPES[facts.pop("classifier")].from_jsonable(header, Blocks(blocks).get, **facts)


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
        clone = loaded(header, data, model)
        assert type(clone) is type(model)
        assert encoded(clone) == (header, data)
        assert np.array_equal(predict_posterior(clone, q), predict_posterior(model, q))
        # the entry states only the model's own numbers; the rest is passed in,
        # except a forest's width, which no array of it shows
        stated = header.keys() & {"type", "kind", "num_classes", "n_features"}
        assert stated == ({"n_features"} if isinstance(model, ForestModel) else set())
        assert loaded(header, data, model, kind=FeatureKind.DOPPLER_ENERGY).kind is (
            FeatureKind.DOPPLER_ENERGY)
        with pytest.raises(ValueError):  # each model reads a feature past the first
            loaded(header, data, model, n_features=1)
        if not isinstance(model, KnnModel):  # a KNN's labels only bound the class count
            with pytest.raises(ValueError):
                loaded(header, data, model, num_classes=4)
        with pytest.raises(KeyError):  # another classifier's entry
            loaded(header, data, model, classifier=next(
                name for name, cls in MODEL_TYPES.items() if cls is not type(model)))


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


def svm_with(**numbers):
    """A two-class SVM on one feature, given any of its numbers, as a bundle
    stores it: its JSON header entry and its blocks' bytes, and the model."""
    parts = {"weights": [[1.0], [-1.0]], "biases": [0.0, 0.0], "mean": [0.0], "std": [1.0],
             **numbers}
    model = LinearSvmModel(*(np.array(parts[key], np.float64)
                             for key in ("weights", "biases", "mean", "std")),
                           FeatureKind.AMPLITUDE_STATS, 2)
    return (*encoded(model), model)


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
    header, blocks, like = svm_with(**numbers)
    with pytest.raises(ValueError, match="svm numbers could make a prediction overflow"):
        loaded(header, blocks, like)


def test_svm_just_inside_the_bound_loads_and_predicts_finitely():
    # each margin's size reaches 9e306, below the 1e307 bound
    model = loaded(*svm_with(weights=[[9e306 / MAX_FEATURE], [-9e306 / MAX_FEATURE]]))
    for q in (LARGEST_FEATURE, -LARGEST_FEATURE):
        posterior = predict_linear_svm(model, fv([q]))  # a RuntimeWarning fails the test
        assert np.isfinite(posterior).all() and posterior.sum() == pytest.approx(1.0)


def test_trained_svm_loads_and_predicts_finitely_for_the_largest_features():
    rng = np.random.default_rng(75)
    data, _, _ = random_dataset(rng, n=40, d=4, num_classes=3)
    trained = train_linear_svm(data, epochs=20)
    model = loaded(*encoded(trained), trained)
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
    loaded(*encoded(model), model)
