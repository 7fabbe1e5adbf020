"""End-to-end orchestration: train experts and templates, persist bundles,
and run the four-step detection workflow (rate filter, expert scoring,
per-expert inference, weighted fusion).

A trained bundle holds the registry, one trained model per expert, the
template library used for gating, and training metadata. Bundles serialize
to a versioned binary container: a canonical JSON header, then each numeric
array as a little-endian byte block. Saving the same bundle twice produces
identical bytes.
"""
from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import json
import multiprocessing
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .classifiers import (
    ForestModel,
    KnnModel,
    LabeledDataset,
    LinearSvmModel,
    Model,
    predict_posterior,
    train_forest,
    train_knn,
    train_linear_svm,
)
from .errors import ConfigurationError, FormatError, InputError, TrainingError
from .features import (
    AMP_STATS_LENGTH,
    DEFAULT_DOPPLER_CONFIG,
    DopplerConfig,
    FeatureKind,
    FeatureVector,
    amp_stats_from_series,
    doppler_from_series,
    extract_amp_stats,
    extract_doppler,
    mean_amplitude_series,
)
from .gating import (
    ClassifierKind,
    ExpertSpec,
    GatingDecision,
    Template,
    TemplateLibrary,
    decide,
    expert_input_rate,
    fuse,
    spec_from_jsonable,
    spec_to_jsonable,
    validate_registry,
)
from .simulate import CsiStream, check_positive, check_samples, check_seed, decimate, decimation_stride

BUNDLE_MAGIC = b"MOEB"
BUNDLE_VERSION = 8
_BUNDLE_HEADER = struct.Struct("<4sIQ")  # magic, version, JSON header length
_BLOCK_ALIGN = 8  # every block starts at a multiple of this many bytes

DEFAULT_VAL_FRACTION = 0.25
# Each feature kind's vector width. A bundle's Doppler experts use `DEFAULT_DOPPLER_CONFIG`.
FEATURE_WIDTHS = {FeatureKind.DOPPLER_ENERGY: DEFAULT_DOPPLER_CONFIG.num_bins,
                  FeatureKind.AMPLITUDE_STATS: AMP_STATS_LENGTH}


@dataclass(frozen=True, eq=False)
class TrainedBundle:
    registry: tuple[ExpertSpec, ...]
    models: dict[str, Model]
    templates: TemplateLibrary
    metadata: dict[str, Any]

    def __post_init__(self) -> None:
        """Reject a bundle whose models, centroids or scalers disagree with its
        registry and metadata, a KNN's k or a forest's tree count included, so
        that a bundle fails when it is built or loaded rather than in `detect`."""
        validate_registry(self.registry)
        ids = sorted(spec.id for spec in self.registry)
        for part, part_ids in (("model", sorted(self.models)),
                               ("template", self.templates.expert_ids())):
            if part_ids != ids:
                raise ConfigurationError(f"registry/{part} mismatch: {ids} vs {part_ids}")
        num_classes = _class_count(self.metadata)
        for spec in self.registry:
            model, width = self.models[spec.id], FEATURE_WIDTHS[spec.feature_kind]
            classifier, params = spec.classifier_kind, spec.params
            if (type(model) is not MODEL_FORMATS[classifier.value][0]
                    or model.n_features != width or model.num_classes != num_classes
                    or classifier is ClassifierKind.KNN and model.k != params["k"]
                    or classifier is ClassifierKind.FOREST
                    and len(model.nodes) != params["num_trees"]):
                raise ConfigurationError(
                    f"model {spec.id} disagrees with its registry entry or the metadata")
            kind, labels, _ = self.templates.template(spec.id)
            if (kind is not spec.feature_kind
                    or not all(type(c) is int and 0 <= c < num_classes for c in labels)):
                raise ConfigurationError(f"template of {spec.id} does not fit its model")
        for kind, (mean, _) in self.templates.scalers.items():
            if mean.shape != (FEATURE_WIDTHS[kind],):
                raise ConfigurationError(f"{kind.value} scaler is not {FEATURE_WIDTHS[kind]} wide")

    def doppler_config(self) -> DopplerConfig:
        return DEFAULT_DOPPLER_CONFIG  # what `build_bundle` trains every bundle with

    def spec(self, expert_id: str) -> ExpertSpec:
        for s in self.registry:
            if s.id == expert_id:
                return s
        raise ConfigurationError(f"unknown expert id {expert_id}")


@dataclass(frozen=True, eq=False)
class DetectionReport:
    decision: GatingDecision
    expert_posteriors: dict[str, np.ndarray]
    fused: np.ndarray
    predicted_count: int
    current_rate: float

    @property
    def mode(self):
        return self.decision.mode


def extract_feature(stream: CsiStream, kind: FeatureKind, doppler_cfg: DopplerConfig) -> FeatureVector:
    if kind is FeatureKind.DOPPLER_ENERGY:
        return extract_doppler(stream, doppler_cfg)
    return extract_amp_stats(stream)


def split_train_val(
    items: Sequence,
    labels: Sequence[int],
    val_fraction: float = DEFAULT_VAL_FRACTION,
    seed: int = 0,
) -> tuple[list, list[int], list, list[int]]:
    """Stratified seeded shuffle split; every class keeps >= 1 training sample.

    Works on any indexable items (streams, scenario configs, manifest
    entries), so callers can split cheap descriptors and materialize the
    streams lazily afterwards.
    """
    if len(items) != len(labels):
        raise InputError(f"{len(items)} items but {len(labels)} labels")
    if not 0 < val_fraction < 1:
        raise ConfigurationError(f"val_fraction must lie between 0 and 1, got {val_fraction}")
    check_seed(seed, "seed")
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    val_idx: list[int] = []
    label_arr = np.asarray(labels)
    for cls in sorted(set(labels)):
        idx = np.flatnonzero(label_arr == cls)
        rng.shuffle(idx)
        n_val = min(int(round(val_fraction * len(idx))), len(idx) - 1)
        val_idx.extend(idx[:n_val])
        train_idx.extend(idx[n_val:])
    train_idx.sort()
    val_idx.sort()
    return (
        [items[i] for i in train_idx],
        [labels[i] for i in train_idx],
        [items[i] for i in val_idx],
        [labels[i] for i in val_idx],
    )


def _train_expert(spec: ExpertSpec, data: LabeledDataset, seed: int) -> Model:
    """Train with the spec's hyperparameters, whose names and types the spec
    has checked; the rest take the trainer's defaults."""
    if spec.classifier_kind is ClassifierKind.KNN:
        return train_knn(data, **spec.hyperparams)
    if spec.classifier_kind is ClassifierKind.LINEAR_SVM:
        return train_linear_svm(data, **spec.hyperparams)
    return train_forest(data, seed=seed, **spec.hyperparams)


# A training worker's (streams, labels, class count); inherited, as pickling was ~8% slower.
_train_set: tuple[list[StreamFeatures], Sequence[int], int] | None = None


def _start_training_worker(train_set: tuple) -> None:
    global _train_set
    os.nice(19)  # yield a CPU at once to any process that wakes, the caller included
    _train_set = train_set


def _train_in_worker(spec: ExpertSpec, seed: int) -> Model:
    """`_train_expert` on the `spec` features of the worker's training set."""
    caches, labels, num_classes = _train_set
    features = [cache.feature(spec.required_rate, spec.feature_kind) for cache in caches]
    return _train_expert(spec, LabeledDataset.build(features, labels, num_classes), seed)


def _train_experts(jobs: Sequence[tuple[ExpertSpec, int]], train_set: tuple,
                   meanwhile: Callable[[], Any]) -> tuple[list[Model], Any]:
    """`_train_in_worker` over the (spec, seed) `jobs` in one worker per usable
    CPU up to the job count, forked with `train_set`, while `meanwhile()` runs.
    A model depends only on its job, so its bytes not on the worker count. The
    models come back in job order with `meanwhile()`'s result. Its error comes
    first, then the first failing job's; pending jobs are then cancelled, and
    no worker outlives the call."""
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    # Forked workers start without re-importing numpy and moesense.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_training_worker, initargs=(train_set,))
    try:
        try:
            futures = [pool.submit(_train_in_worker, *job) for job in jobs]
        finally:
            done = meanwhile()  # also when the pool broke while submitting: its error comes first
        return [future.result() for future in futures], done
    except BrokenProcessPool as exc:
        raise TrainingError(f"an expert training worker died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _read_streams(streams: Iterable[CsiStream], labels: Sequence[int],
                  fingerprint: "hashlib._Hash") -> list[StreamFeatures]:
    """Each stream's `StreamFeatures`, which keeps its series, not its samples; `fingerprint`
    is updated with what training reads of each stream: its rate, series and label."""
    caches, streams = [], iter(streams)
    for label, stream in zip(labels, streams):  # labels first, so no stream is read past them
        cache = StreamFeatures(stream)
        fingerprint.update(struct.pack("<dq", cache.packet_rate, len(cache.series)))
        fingerprint.update(cache.series.astype("<f8", copy=False))
        fingerprint.update(struct.pack("<q", label))
        caches.append(cache)
    if len(caches) < len(labels):
        raise InputError(f"{len(caches)} streams but {len(labels)} labels")
    if next(streams, None) is not None:
        raise InputError(f"more than {len(labels)} streams but {len(labels)} labels")
    return caches


def build_bundle(
    train_streams: Iterable[CsiStream],
    train_labels: Sequence[int],
    val_streams: Iterable[CsiStream],
    val_labels: Sequence[int],
    registry: Sequence[ExpertSpec],
    seed: int = 0,
) -> TrainedBundle:
    """Train every expert at its required rate and build its template centroids.

    Stream arguments may be one-pass iterables; they are consumed exactly
    once and only their amplitude series are retained. Centroids are
    per-class means of the validation features the expert classified
    correctly; classes it never gets right have no centroid.
    """
    validate_registry(registry)
    check_seed(seed, "seed")
    if len(train_labels) == 0 or len(val_labels) == 0:
        raise TrainingError("train and validation sets must be non-empty")
    for split, split_labels in (("training", train_labels), ("validation", val_labels)):
        if min(split_labels) < 0:
            raise TrainingError(f"{split} label {min(split_labels)} is negative; labels are counts")
    k_max = int(max(max(train_labels), max(val_labels)))
    present = set(map(int, train_labels))
    if len(present) != k_max + 1:  # counts, so that a label of 10**22 builds no huge range
        missing = list(itertools.islice((c for c in range(k_max + 1) if c not in present), 3))
        raise TrainingError(f"training data misses classes of 0..{k_max}, first {missing}")
    num_classes = k_max + 1

    needed = {(spec.required_rate, spec.feature_kind) for spec in registry}
    digest = hashlib.sha256()
    train_set = (_read_streams(train_streams, train_labels, digest), train_labels, num_classes)

    def validation_table() -> dict[tuple[float, FeatureKind], list[FeatureVector]]:
        caches = _read_streams(val_streams, val_labels, digest)
        return {key: [cache.feature(*key) for cache in caches] for key in needed}

    ordered = sorted(registry, key=lambda s: s.id)
    master = np.random.default_rng(seed)
    expert_seeds = {spec.id: int(s) for spec, s in zip(ordered, master.integers(0, 2**63, len(ordered)))}

    trained, val_table = _train_experts(
        [(spec, expert_seeds[spec.id]) for spec in ordered], train_set, validation_table)
    models = {spec.id: model for spec, model in zip(ordered, trained)}

    val_accuracy: dict[str, float] = {}
    val_label_arr = np.asarray(val_labels, dtype=np.int64)

    # Per-kind standardization for gating correlations, fitted on the pooled
    # validation features so heterogeneous-scale dims weigh in comparably.
    ordered_keys = sorted(needed, key=lambda rk: (rk[0], rk[1].value))
    scalers = {}
    for kind in sorted({k for _, k in needed}, key=lambda k: k.value):
        pooled = np.concatenate(
            [np.stack([fv.values for fv in val_table[key]]) for key in ordered_keys if key[1] is kind]
        )
        scalers[kind] = (pooled.mean(axis=0), pooled.std(axis=0))

    templates: dict[str, Template] = {}
    for spec in ordered:
        model = models[spec.id]
        val_features = val_table[(spec.required_rate, spec.feature_kind)]
        preds = np.array([int(np.argmax(predict_posterior(model, fv))) for fv in val_features])
        correct = preds == val_label_arr
        val_accuracy[spec.id] = float(correct.mean())

        kept = [np.flatnonzero(correct & (val_label_arr == cls)) for cls in range(num_classes)]
        labels = [cls for cls in range(num_classes) if kept[cls].size]
        rows = [np.stack([val_features[i].values for i in kept[cls]]).mean(axis=0) for cls in labels]
        templates[spec.id] = Template(spec.feature_kind, labels,
                                      np.reshape(rows, (len(labels), FEATURE_WIDTHS[spec.feature_kind])))

    metadata = {
        "seed": int(seed),
        "dataset_fingerprint": digest.hexdigest(),
        "k_max": k_max,
        "validation_accuracy": val_accuracy,
    }
    return TrainedBundle(tuple(ordered), models, TemplateLibrary(templates, scalers), metadata)


def detect(stream: CsiStream, current_rate: float, bundle: TrainedBundle) -> DetectionReport:
    """Run the detection workflow on one stream observed at `current_rate`."""
    def features() -> dict[FeatureKind, FeatureVector]:
        check_samples(stream)
        observed, doppler_cfg = decimate(stream, current_rate), bundle.doppler_config()
        return {kind: extract_feature(observed, kind, doppler_cfg) for kind in FeatureKind}

    def posterior(eid: str) -> np.ndarray:  # from the base stream, never a decimated one
        spec = bundle.spec(eid)
        fv = extract_feature(decimate(stream, expert_input_rate(spec, current_rate)),
                             spec.feature_kind, bundle.doppler_config())
        return predict_posterior(bundle.models[eid], fv)
    return _detect(bundle, current_rate, features, posterior)


def _detect(bundle: TrainedBundle, current_rate: float, features: Callable[[], dict],
            posterior: Callable[[str], np.ndarray]) -> DetectionReport:
    """Check the rate, gate on `features()`, and fuse the selected experts' posteriors."""
    check_positive(current_rate, "current_rate")
    decision = decide(bundle.registry, bundle.templates, features(), current_rate)
    posteriors = {eid: posterior(eid) for eid in decision.selected}
    fused, predicted = fuse([posteriors[eid] for eid in decision.selected], decision.weights)
    return DetectionReport(decision, posteriors, fused, predicted, float(current_rate))


class StreamFeatures:
    """A stream's features and, given a `bundle`, posteriors, each computed once."""

    def __init__(self, stream: CsiStream, bundle: TrainedBundle | None = None):
        self.packet_rate, self.bundle, self._stream = stream.packet_rate, bundle, stream
        self._memo: dict[tuple, Any] = {}  # (stride, kind) features, (id, stride) posteriors

    @functools.cached_property
    def series(self) -> np.ndarray:
        """The stream's amplitude series, checked and computed when first read,
        after `detect`'s rate; the cache then drops the stream, keeping the series."""
        check_samples(self._stream)
        series = mean_amplitude_series(self._stream)
        del self._stream
        return series

    def feature(self, rate: float, kind: FeatureKind) -> FeatureVector:
        """`extract_feature(decimate(stream, rate), ...)`, from every stride-th series value."""
        return self._feature(decimation_stride(self.packet_rate, rate), kind)

    def _feature(self, stride: int, kind: FeatureKind) -> FeatureVector:
        if (feature := self._memo.get((stride, kind))) is None:
            kept = np.ascontiguousarray(self.series[::stride])
            feature = self._memo[(stride, kind)] = (
                doppler_from_series(kept, self.packet_rate / stride)
                if kind is FeatureKind.DOPPLER_ENERGY else amp_stats_from_series(kept))
        return feature

    def posterior(self, expert_id: str, current_rate: float) -> np.ndarray:
        """The expert's posterior at `current_rate`, read-only: `detect`'s, from
        the series decimated to `gating.expert_input_rate`."""
        spec = self.bundle.spec(expert_id)
        key = (expert_id, decimation_stride(self.packet_rate, expert_input_rate(spec, current_rate)))
        if (posterior := self._memo.get(key)) is None:
            posterior = self._memo[key] = predict_posterior(self.bundle.models[expert_id],
                                                            self._feature(key[1], spec.feature_kind))
            posterior.setflags(write=False)
        return posterior

    def detect(self, current_rate: float) -> DetectionReport:
        """`detect(stream, current_rate, bundle)`, from this cache."""
        return _detect(self.bundle, current_rate,
                       lambda: {kind: self.feature(current_rate, kind) for kind in FeatureKind},
                       lambda eid: self.posterior(eid, current_rate))


# ---------------------------------------------------------------------------
# Bundle container
# ---------------------------------------------------------------------------

# An encoder stores each array with `put(array, dtype)` and keeps the
# reference it returns in its JSON header entry; the decoder reads the array
# back with `get(reference, dtype)`.
Put = Callable[[Any, str], dict]
Get = Callable[[dict, str], np.ndarray]

# Each classifier's model entry: its class, its arrays with their block dtypes
# in block order, and its JSON numbers. Each of these is an attribute of the
# class's models and a keyword of its constructor, which checks them.
MODEL_FORMATS = {
    "knn": (KnnModel, {"matrix": "<f8", "labels": "<i8"}, ("k",)),
    "svm": (LinearSvmModel, {"weights": "<f8", "biases": "<f8", "mean": "<f8", "std": "<f8"}, ()),
    "forest": (ForestModel, {"feature": "<i1", "threshold": "<f8", "right": "<u2",
                             "counts": "<u2"}, ("nodes", "n_features")),
}


class Blocks:
    """A bundle's numeric arrays, one little-endian byte block each.

    `put` stores an array as the next block and returns the reference that
    the JSON header keeps in its place. `get` returns the array a reference
    names, in the dtype its caller expects, as a read-only view of its
    block, once the reference's shape fits the block and, for a float
    dtype, every value is finite; `reads` counts the gets of each block.
    """

    def __init__(self, data: Sequence[bytes | memoryview] = ()):
        self.data, self.reads = list(data), {}

    def put(self, array: Any, dtype: str) -> dict[str, Any]:
        arr = np.ascontiguousarray(array, dtype=dtype)
        self.data.append(arr.tobytes())
        return {"block": len(self.data) - 1, "shape": list(arr.shape)}

    def get(self, ref: dict[str, Any], dtype: str) -> np.ndarray:
        block, shape = ref["block"], ref["shape"]
        if not (_is_count(block) and block < len(self.data)):
            raise ValueError(f"no block {block!r}")
        if not (type(shape) is list and all(_is_count(n) for n in shape)):
            raise ValueError(f"bad block shape {shape!r}")
        # reshape raises ValueError when the shape's size is not the block's
        array = np.frombuffer(self.data[block], dtype).reshape(shape)
        self.reads[block] = self.reads.get(block, 0) + 1
        return finite_array(array, f"block {block}") if array.dtype.kind == "f" else array


def finite_array(values: Any, what: str) -> np.ndarray:
    """`values` as a float64 array; ValueError if any of them is NaN or infinite:
    a block can hold their bit patterns, and json reads an out-of-range
    literal such as 1e999 as an infinity."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} holds a non-finite number")
    return arr


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0


def _class_count(metadata: dict[str, Any]) -> int:
    """`k_max` + 1, once `k_max` is an integer >= 0, not a bool; a bundle that
    fails is a ConfigurationError when built, and a FormatError when loaded."""
    if not _is_count(k_max := metadata["k_max"]):
        raise ConfigurationError(f"k_max must be an integer >= 0, got {k_max!r}")
    return k_max + 1


def bundle_to_jsonable(bundle: TrainedBundle, put: Put) -> dict[str, Any]:
    """The bundle's JSON header; `put` stores each numeric array as a block."""
    scalers = {kind.value: {"mean": put(mean, "<f8"), "std": put(std, "<f8")}
               for kind, (mean, std) in sorted(bundle.templates.scalers.items(),
                                               key=lambda item: item[0].value)}
    return {
        "registry": [spec_to_jsonable(s) for s in bundle.registry],
        "models": {eid: model_to_jsonable(m, put) for eid, m in bundle.models.items()},
        "templates": {eid: {"labels": list(t.labels), "values": put(t.values, "<f8")}
                      for eid in bundle.templates.expert_ids()
                      for t in (bundle.templates.template(eid),)},
        "scalers": scalers,
        "metadata": copy.deepcopy(bundle.metadata),
    }


def bundle_from_jsonable(payload: dict[str, Any], get: Get) -> TrainedBundle:
    """The inverse of `bundle_to_jsonable`; `get` returns a block's array. A model
    takes its classifier, and a template its kind, from its expert's registry
    entry (a KeyError if none), and a model its class count from `k_max`."""
    registry = tuple(spec_from_jsonable(d) for d in payload["registry"])
    specs = {spec.id: spec for spec in registry}
    metadata = copy.deepcopy(payload["metadata"])
    finite_array([metadata["seed"], *metadata["validation_accuracy"].values()], "metadata")
    num_classes = _class_count(metadata)
    models = {eid: model_from_jsonable(d, get, specs[eid].classifier_kind.value, num_classes)
              for eid, d in payload["models"].items()}
    scalers = {FeatureKind(tag): (get(s["mean"], "<f8"), get(s["std"], "<f8"))
               for tag, s in payload["scalers"].items()}
    templates = {eid: Template(specs[eid].feature_kind, list(d["labels"]), get(d["values"], "<f8"))
                 for eid, d in payload["templates"].items()}
    return TrainedBundle(registry, models, TemplateLibrary(templates, scalers), metadata)


def model_to_jsonable(model: Model, put: Put) -> dict[str, Any]:
    """The model's header entry: its JSON numbers, and a reference to each
    of its arrays, which `put` stores as a block."""
    _, arrays, numbers = next(f for f in MODEL_FORMATS.values() if f[0] is type(model))
    return {**{name: copy.deepcopy(getattr(model, name)) for name in numbers},
            **{name: put(getattr(model, name), dtype) for name, dtype in arrays.items()}}


def model_from_jsonable(d: dict[str, Any], get: Get, classifier: str, num_classes: int) -> Model:
    """The `classifier` model that the entry `d` holds over `num_classes` classes;
    a KeyError if `d` lacks a field of that classifier."""
    cls, arrays, numbers = MODEL_FORMATS[classifier]
    return cls(**{name: get(d[name], dtype) for name, dtype in arrays.items()},
               **{name: d[name] for name in numbers}, num_classes=num_classes)


def serialize_bundle(bundle: TrainedBundle) -> bytes:
    blocks = Blocks()
    return _pack(bundle_to_jsonable(bundle, blocks.put), blocks.data)


def deserialize_bundle(data: bytes) -> TrainedBundle:
    try:
        # bytes(), so that no array views a buffer its caller can still change.
        header, views = _unpack(bytes(data))
        bundle = bundle_from_jsonable(header, (blocks := Blocks(views)).get)
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError, RecursionError,
            ConfigurationError) as exc:
        raise FormatError(f"bundle payload malformed: {exc}") from exc
    if misread := {i: blocks.reads.get(i, 0) for i in range(len(views)) if blocks.reads.get(i) != 1}:
        raise FormatError(f"bundle blocks read other than once (block: reads): {misread}")
    return bundle


def _pack(header: dict[str, Any], blocks: Sequence[bytes]) -> bytes:
    """The container: magic, version and JSON header length; the canonical
    JSON header with its block table of lengths; then the blocks, each
    starting at the next multiple of `_BLOCK_ALIGN` bytes of the file after
    the header or the block before it, with zeros in between."""
    body = bytearray()
    for block in blocks:
        body += bytes(-len(body) % _BLOCK_ALIGN) + block
    text = json.dumps({**header, "blocks": [len(block) for block in blocks]}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    head = _BUNDLE_HEADER.pack(BUNDLE_MAGIC, BUNDLE_VERSION, len(text)) + text
    return head + bytes(-len(head) % _BLOCK_ALIGN) + body


def _unpack(data: bytes) -> tuple[dict[str, Any], list[memoryview]]:
    """The JSON header and a view of each block, once the block lengths tile
    the rest of the file exactly: each block at the first aligned offset
    after the one before it, and the last one ending the file."""
    if len(data) < _BUNDLE_HEADER.size:
        raise FormatError("bundle shorter than its header")
    magic, version, length = _BUNDLE_HEADER.unpack_from(data)
    if magic != BUNDLE_MAGIC:
        raise FormatError(f"bad bundle magic {magic!r}")
    if version != BUNDLE_VERSION:
        raise FormatError(f"unsupported bundle version {version}; retrain to get "
                          f"version {BUNDLE_VERSION}")
    end = _BUNDLE_HEADER.size + length
    if len(data) < end:
        raise FormatError(f"bundle truncated: {len(data)} bytes, header ends at {end}")
    header = json.loads(data[_BUNDLE_HEADER.size:end].decode("utf-8"),
                        parse_constant=_refuse_constant)
    area = memoryview(data)[end + -end % _BLOCK_ALIGN:]
    views, pos = [], 0
    for i, nbytes in enumerate(header.pop("blocks")):
        if not _is_count(nbytes):
            raise ValueError(f"block {i} has length {nbytes!r}")
        pos += -pos % _BLOCK_ALIGN
        views.append(area[pos:pos + nbytes])
        pos += nbytes
    if pos != len(area):
        raise ValueError(f"the blocks end at byte {pos} of the {len(area)} after the header")
    return header, views


def _refuse_constant(name: str) -> float:
    """json reads NaN, Infinity and -Infinity as numbers; a bundle holds none."""
    raise ValueError(f"non-finite number {name}")


def save_bundle(bundle: TrainedBundle, path: str | Path) -> None:
    Path(path).write_bytes(serialize_bundle(bundle))


def load_bundle(path: str | Path) -> TrainedBundle:
    return deserialize_bundle(Path(path).read_bytes())
