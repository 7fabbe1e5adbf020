"""Native detection classifiers: KNN, one-vs-rest linear SVM, random forest.

All three consume fixed-length feature vectors and emit a class posterior
over target counts. Training is fully deterministic: every random draw is
seeded and every iteration order fixed, so retraining reproduces identical
models. Tie rules are pinned (KNN prefers the lower training index, forest
splits prefer the lower threshold) to keep predictions reproducible too.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import InputError, TrainingError
from .features import MAX_FEATURE, FeatureKind, FeatureVector, Get, Put, finite_array

KNN_DEFAULTS = {"k": 5}
SVM_DEFAULTS = {"epochs": 200, "step_size": 0.01, "l2": 1e-3}
FOREST_DEFAULTS = {"num_trees": 25, "max_depth": 8, "bootstrap": True}
# The hyperparameters each classifier kind takes, and their defaults.
HYPERPARAMS = {"knn": KNN_DEFAULTS, "svm": SVM_DEFAULTS, "forest": FOREST_DEFAULTS}
# The closed range a registry's value of each hyperparameter must lie in. The caps
# bound training time; step_size is positive. A registry SVM also needs
# step_size * l2 < 1, so that its shrink factor 1 - eta * l2 stays positive.
HYPERPARAM_RANGES = {"k": (1, 10_000), "epochs": (1, 10_000),
                     "step_size": (math.ulp(0.0), sys.float_info.max),
                     "l2": (0.0, sys.float_info.max), "num_trees": (1, 1000),
                     "max_depth": (1, 64), "bootstrap": (False, True)}
# What a bundle's forest columns hold: features as <i1, and leaf counts and child
# indices as <u2, since a tree on n rows has at most 2n - 1 nodes.
FOREST_LIMITS = {"features": 127, "rows": 32768}


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix + integer target counts, uniform in kind and length."""

    matrix: np.ndarray
    labels: np.ndarray
    kind: FeatureKind
    num_classes: int

    @classmethod
    def build(
        cls,
        features: Sequence[FeatureVector],
        labels: Sequence[int],
        num_classes: int,
    ) -> "LabeledDataset":
        if len(features) == 0:
            raise TrainingError("empty dataset")
        if len(features) != len(labels):
            raise TrainingError(f"{len(features)} features but {len(labels)} labels")
        kinds = {fv.kind for fv in features}
        if len(kinds) != 1:
            raise TrainingError(f"mixed feature kinds: {sorted(k.value for k in kinds)}")
        lengths = {len(fv) for fv in features}
        if len(lengths) != 1:
            raise TrainingError(f"mixed feature lengths: {sorted(lengths)}")
        label_arr = np.asarray(labels, dtype=np.int64)
        if label_arr.min() < 0:
            raise TrainingError("labels must be non-negative target counts")
        if label_arr.max() >= num_classes:
            raise TrainingError(
                f"label {label_arr.max()} out of range for num_classes={num_classes}"
            )
        matrix = np.stack([np.asarray(fv.values, dtype=np.float64) for fv in features])
        return cls(matrix=matrix, labels=label_arr, kind=kinds.pop(), num_classes=num_classes)

    def __len__(self) -> int:
        return len(self.labels)


def _check_query(x: FeatureVector, kind: FeatureKind, n_features: int) -> np.ndarray:
    if x.kind is not kind:
        raise InputError(f"expected {kind.value} features, got {x.kind.value}")
    if len(x) != n_features:
        raise InputError(f"expected {n_features} dims, got {len(x)}")
    return np.asarray(x.values, dtype=np.float64)


# ---------------------------------------------------------------------------
# K-nearest neighbours
# ---------------------------------------------------------------------------

class KnnModel:
    """Stores the training data verbatim; Euclidean metric."""

    def __init__(self, k: int, matrix: np.ndarray, labels: np.ndarray,
                 kind: FeatureKind, num_classes: int):
        self.k = k
        self.matrix = matrix
        self.n_features = matrix.shape[1]
        self.labels = labels
        self.kind = kind
        self.num_classes = num_classes

    def to_jsonable(self, put: Put) -> dict[str, Any]:
        return {
            "k": self.k,
            "matrix": put(self.matrix, "<f8"),
            "labels": put(self.labels, "<i8"),
        }

    @classmethod
    def from_jsonable(cls, d: dict[str, Any], get: Get, kind: FeatureKind, num_classes: int,
                      n_features: int) -> "KnnModel":
        matrix = finite_array(get(d["matrix"], "<f8"), "knn matrix")
        labels = get(d["labels"], "<i8")
        k = d["k"]
        if (matrix.shape[1:] != (n_features,) or labels.shape != (len(matrix),)
                or type(k) is not int or not 1 <= k <= len(labels)
                or np.any((labels < 0) | (labels >= num_classes))):
            raise ValueError("knn matrix, labels and k disagree")
        return cls(k, matrix, labels, kind, num_classes)


def train_knn(data: LabeledDataset, k: int = KNN_DEFAULTS["k"]) -> KnnModel:
    if not (1 <= k <= len(data)):
        raise TrainingError(f"k={k} out of range for {len(data)} samples")
    return KnnModel(k, data.matrix.copy(), data.labels.copy(), data.kind, data.num_classes)


def predict_knn(model: KnnModel, x: FeatureVector) -> np.ndarray:
    q = _check_query(x, model.kind, model.n_features)
    diff = model.matrix - q
    d2 = np.einsum("ij,ij->i", diff, diff)
    # Stable sort: equidistant neighbours resolve to the lower training index.
    order = np.argsort(d2, kind="stable")[: model.k]
    votes = np.bincount(model.labels[order], minlength=model.num_classes)
    return votes / model.k


# ---------------------------------------------------------------------------
# One-vs-rest linear SVM
# ---------------------------------------------------------------------------

class LinearSvmModel:
    """Per-class hyperplanes over z-scored features; softmax of margins."""

    def __init__(self, weights: np.ndarray, biases: np.ndarray, mean: np.ndarray,
                 std: np.ndarray, kind: FeatureKind, num_classes: int):
        self.weights = weights  # (num_classes, n_features)
        self.n_features = weights.shape[1]
        self.biases = biases
        self.mean = mean
        self.std = std
        self.kind = kind
        self.num_classes = num_classes

    def to_jsonable(self, put: Put) -> dict[str, Any]:
        return {
            "weights": put(self.weights, "<f8"),
            "biases": put(self.biases, "<f8"),
            "mean": put(self.mean, "<f8"),
            "std": put(self.std, "<f8"),
        }

    @classmethod
    def from_jsonable(cls, d: dict[str, Any], get: Get, kind: FeatureKind, num_classes: int,
                      n_features: int) -> "LinearSvmModel":
        weights, biases, mean, std = (finite_array(get(d[key], "<f8"), f"svm {key}")
                                      for key in ("weights", "biases", "mean", "std"))
        if (weights.shape != (num_classes, n_features) or biases.shape != (num_classes,)
                or not mean.shape == std.shape == (n_features,)):
            raise ValueError("svm weights, biases and standardization disagree")
        if not _svm_margins_bounded(weights, biases, mean, std):
            raise ValueError("svm numbers could make a prediction overflow")
        return cls(weights, biases, mean, std, kind, num_classes)


def _svm_margins_bounded(weights: np.ndarray, biases: np.ndarray, mean: np.ndarray,
                         std: np.ndarray) -> bool:
    """Whether every std is positive and features below MAX_FEATURE give margins
    below `reach`, and so below 1e307: then softmax is finite. A NaN fails."""
    with np.errstate(all="ignore"):
        reach = np.abs(weights) @ ((MAX_FEATURE + np.abs(mean)) / std) + np.abs(biases)
    return bool(np.all(std > 0) and np.all(reach < 1e307))


def train_linear_svm(
    data: LabeledDataset,
    epochs: int = SVM_DEFAULTS["epochs"],
    step_size: float = SVM_DEFAULTS["step_size"],
    l2: float = SVM_DEFAULTS["l2"],
) -> LinearSvmModel:
    """Hinge-loss subgradient descent, samples visited in index order.

    The step size decays as step_size / epoch. Feature standardization is
    fitted here and stored in the model; the bias is not regularized.
    """
    if len(np.unique(data.labels)) < 2:
        raise TrainingError("linear SVM needs at least two classes")
    mean = data.matrix.mean(axis=0)
    std = data.matrix.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (data.matrix - mean) / std

    n, d = z.shape
    c = data.num_classes
    weights = np.zeros((c, d))
    biases = np.zeros(c)
    # +1 for the sample's own class, -1 for the rest.
    y = np.where(np.arange(c)[None, :] == data.labels[:, None], 1.0, -1.0)

    margins = np.empty(c)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            eta = step_size / (epoch + 1)
            shrink = 1.0 - eta * l2
            for i in range(n):
                zi, yi = z[i], y[i]
                np.dot(weights, zi, out=margins)
                margins += biases
                margins *= yi
                weights *= shrink
                # Rows whose margin holds get a step of +-0.0, which leaves them
                # bit-identical unless a weight is -0.0. Weights start at +0.0, and
                # with a positive shrink factor only an underflow could make one -0.0.
                step = (eta * yi) * (margins < 1.0)
                weights += step[:, None] * zi
                biases += step
    if not _svm_margins_bounded(weights, biases, mean, std):
        raise TrainingError(f"linear SVM diverged at step_size {step_size:g}; lower it")
    return LinearSvmModel(weights, biases, mean, std, data.kind, data.num_classes)


def svm_objective(model: LinearSvmModel, data: LabeledDataset, l2: float) -> float:
    """Regularized mean hinge loss summed over the one-vs-rest problems."""
    z = (data.matrix - model.mean) / model.std
    y = np.where(np.arange(model.num_classes)[None, :] == data.labels[:, None], 1.0, -1.0)
    margins = (z @ model.weights.T + model.biases) * y
    hinge = np.maximum(0.0, 1.0 - margins).mean(axis=0).sum()
    reg = 0.5 * l2 * float((model.weights**2).sum())
    return hinge + reg


def predict_linear_svm(model: LinearSvmModel, x: FeatureVector) -> np.ndarray:
    q = _check_query(x, model.kind, model.n_features)
    z = (q - model.mean) / model.std
    margins = model.weights @ z + model.biases
    shifted = margins - margins.max()
    e = np.exp(shifted)
    return e / e.sum()


# ---------------------------------------------------------------------------
# Random forest (CART, Gini impurity)
# ---------------------------------------------------------------------------

class ForestModel:
    """CART trees as the columns a bundle stores, trees one after another.

    Tree t has nodes[t] nodes, in preorder, and `feature` holds each node's
    split feature, or -1 at a leaf. `threshold` and `right` hold one entry per
    inner node, in node order: inner node i splits at its threshold, its left
    child is node i + 1, and its right child is node `right`, both counted from
    the tree's first node. `counts` holds one row per leaf, in node order: its
    training samples per class, which `leaves` holds as class posteriors.
    """

    def __init__(self, nodes: list[int], feature: Sequence[int], threshold: Sequence[float],
                 right: Sequence[int], counts: Sequence[np.ndarray], kind: FeatureKind,
                 num_classes: int, n_features: int):
        """Check every tree at once, so that every walk ends at a leaf, and
        derive the leaf posteriors and what the walk reads."""
        if not (type(nodes) is list and nodes and all(type(n) is int and 0 < n <= 65535
                                                      for n in nodes)):
            raise ValueError("a forest's tree node counts must be integers in [1, 65535]")
        self.nodes = nodes
        self.feature = np.asarray(feature, np.int8)
        self.threshold = np.asarray(threshold, np.float64)
        self.right = np.asarray(right, np.uint16)
        self.counts = np.asarray(counts, np.uint16)
        total = sum(nodes)
        if self.feature.shape != (total,):
            raise ValueError(f"tree features must be 1-D and hold all {total} nodes")
        if not (self.feature.min() >= -1 and self.feature.max() < n_features):
            raise ValueError(f"tree features must lie in [-1, {n_features})")
        inner = np.flatnonzero(self.feature >= 0)
        if not self.threshold.shape == self.right.shape == inner.shape:
            raise ValueError(f"tree thresholds and right children must hold {len(inner)} inner nodes")
        # Children come strictly after their parent and inside its tree, so
        # every walk ends at a leaf.
        sizes = np.asarray(nodes)
        starts = np.cumsum(sizes) - sizes
        tree = np.searchsorted(starts, inner, side="right") - 1
        local = inner - starts[tree]
        if not np.all((self.right > local + 1) & (self.right < sizes[tree])):
            raise ValueError("tree child index not after its parent or outside the tree")
        if self.counts.shape != (total - len(inner), num_classes):
            raise ValueError(f"tree leaf rows must be {num_classes} wide, one per leaf")
        totals = self.counts @ np.ones(num_classes)  # exact sums of small integers
        if not totals.all():
            raise ValueError("a tree leaf holds no samples")
        self.leaves = self.counts / totals[:, None]
        self.leaves.flags.writeable = False  # predict reads it; like block views, it is fixed
        self.kind = kind
        self.num_classes = num_classes
        self.n_features = n_features
        # What the walk reads, as plain lists, which keep the per-node steps cheap:
        # each tree's root, and per node its feature, threshold (0.0 at a leaf) and
        # next step: the right child, counted from the forest's first node, or a
        # leaf's row of `leaves`.
        threshold, step = np.zeros(total), np.cumsum(self.feature < 0) - 1
        threshold[inner], step[inner] = self.threshold, self.right + starts[tree]
        self._walk = (starts.tolist(), self.feature.tolist(), threshold.tolist(), step.tolist())

    def to_jsonable(self, put: Put) -> dict[str, Any]:
        return {
            "nodes": list(self.nodes),
            "n_features": self.n_features,
            "feature": put(self.feature, "<i1"),
            "threshold": put(self.threshold, "<f8"),
            "right": put(self.right, "<u2"),
            "counts": put(self.counts, "<u2"),
        }

    @classmethod
    def from_jsonable(cls, d: dict[str, Any], get: Get, kind: FeatureKind, num_classes: int,
                      n_features: int) -> "ForestModel":
        if d["n_features"] != n_features:
            raise ValueError(f"a forest over {d['n_features']!r} features serves {n_features}")
        feature, right, counts = (get(d[key], dtype) for key, dtype in
                                  (("feature", "<i1"), ("right", "<u2"), ("counts", "<u2")))
        threshold = finite_array(get(d["threshold"], "<f8"), "tree threshold")
        return cls(d["nodes"], feature, threshold, right, counts, kind, num_classes, n_features)


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


def train_forest(
    data: LabeledDataset,
    num_trees: int = FOREST_DEFAULTS["num_trees"],
    max_depth: int = FOREST_DEFAULTS["max_depth"],
    seed: int = 0,
    bootstrap: bool = FOREST_DEFAULTS["bootstrap"],
) -> ForestModel:
    """CART trees on seeded bootstrap samples, ceil(sqrt(d)) features per split,
    no deeper than `max_depth`, which a registry bounds by `HYPERPARAM_RANGES`.

    `bootstrap=False` trains every tree on the full sample.
    """
    if len(data) == 0:
        raise TrainingError("empty dataset")
    if num_trees < 1:
        raise TrainingError(f"num_trees must be >= 1, got {num_trees}")
    if len(data) > FOREST_LIMITS["rows"] or data.matrix.shape[1] > FOREST_LIMITS["features"]:
        raise TrainingError(f"a forest takes at most {FOREST_LIMITS['rows']} rows of at most "
                            f"{FOREST_LIMITS['features']} features, got {data.matrix.shape}")
    master = np.random.default_rng(seed)
    tree_seeds = [int(s) for s in master.integers(0, 2**63, num_trees)]

    n = len(data)
    nodes, columns = [], ([], [], [], [])
    for ts in tree_seeds:
        rng = np.random.default_rng(ts)
        idx = rng.integers(0, n, n) if bootstrap else np.arange(n)
        nodes.append(_grow_tree(data.matrix[idx], data.labels[idx], data.num_classes,
                                max_depth, rng, columns))
    return ForestModel(nodes, *columns, data.kind, data.num_classes, data.matrix.shape[1])


def predict_forest(model: ForestModel, x: FeatureVector) -> np.ndarray:
    q = _check_query(x, model.kind, model.n_features).tolist()
    roots, feature, threshold, step = model._walk
    rows = []
    for i in roots:
        while (f := feature[i]) >= 0:
            i = i + 1 if q[f] <= threshold[i] else step[i]
        rows.append(step[i])
    return model.leaves[rows].sum(axis=0) / len(rows)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

Model = KnnModel | LinearSvmModel | ForestModel

_PREDICTORS = {
    KnnModel: predict_knn,
    LinearSvmModel: predict_linear_svm,
    ForestModel: predict_forest,
}


def predict_posterior(model: Model, x: FeatureVector) -> np.ndarray:
    return _PREDICTORS[type(model)](model, x)


MODEL_TYPES = {"knn": KnnModel, "svm": LinearSvmModel, "forest": ForestModel}
