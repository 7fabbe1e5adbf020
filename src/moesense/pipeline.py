"""End-to-end orchestration: train experts and templates, persist bundles,
and run the four-step detection workflow (rate filter, expert scoring,
per-expert inference, weighted fusion).

A trained bundle holds the registry, one trained model per expert, the
template library used for gating, and training metadata. Bundles serialize
to a versioned binary container whose payload is canonical JSON, so saving
the same bundle twice produces identical bytes.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .classifiers import (
    FOREST_DEFAULTS,
    KNN_DEFAULTS,
    SVM_DEFAULTS,
    LabeledDataset,
    Model,
    model_from_jsonable,
    predict_posterior,
    train_forest,
    train_knn,
    train_linear_svm,
)
from .errors import ConfigurationError, FormatError, InputError, TrainingError
from .features import (
    DopplerConfig,
    FeatureKind,
    FeatureVector,
    extract_amp_stats,
    extract_doppler,
    feature_from_jsonable,
    feature_to_jsonable,
)
from .gating import (
    DEFAULT_TOP_K,
    ClassifierKind,
    ExpertSpec,
    GatingDecision,
    TemplateLibrary,
    decide,
    fuse,
    spec_from_jsonable,
    spec_to_jsonable,
    validate_registry,
)
from .simulate import CsiStream, decimate, serialize_stream

BUNDLE_MAGIC = b"MOEB"
BUNDLE_VERSION = 1
_BUNDLE_HEADER = struct.Struct("<4sIQ")

DEFAULT_VAL_FRACTION = 0.25


@dataclass(frozen=True, eq=False)
class TrainedBundle:
    registry: tuple[ExpertSpec, ...]
    models: dict[str, Model]
    templates: TemplateLibrary
    metadata: dict[str, Any]

    def __post_init__(self) -> None:
        validate_registry(self.registry)
        ids = {spec.id for spec in self.registry}
        if set(self.models) != ids:
            raise ConfigurationError(
                f"registry/model mismatch: registry {sorted(ids)} vs models {sorted(self.models)}"
            )
        missing = [eid for eid in ids if eid not in self.templates]
        if missing:
            raise ConfigurationError(f"experts without template entries: {sorted(missing)}")

    @property
    def num_classes(self) -> int:
        return int(self.metadata["k_max"]) + 1

    def doppler_config(self) -> DopplerConfig:
        return DopplerConfig(
            num_bins=int(self.metadata["doppler_num_bins"]),
            max_freq_hz=float(self.metadata["doppler_max_freq_hz"]),
        )

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
        return extract_doppler(stream, doppler_cfg.clipped_to_rate(stream.packet_rate))
    return extract_amp_stats(stream)


def expert_input_rate(spec: ExpertSpec, current_rate: float) -> float:
    """Experts consume data decimated to their nominal rate when the link
    allows it, and to the (lower) current rate otherwise."""
    return min(current_rate, spec.nominal_rate)


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


_ALLOWED_HYPERPARAMS = {
    ClassifierKind.KNN: {"k"},
    ClassifierKind.LINEAR_SVM: {"epochs", "step_size", "l2"},
    ClassifierKind.FOREST: {"num_trees", "max_depth", "bootstrap"},
}


def _train_expert(spec: ExpertSpec, data: LabeledDataset, seed: int) -> Model:
    hp = dict(spec.hyperparams)
    unknown = set(hp) - _ALLOWED_HYPERPARAMS[spec.classifier_kind]
    if unknown:
        raise ConfigurationError(f"unknown hyperparameters for {spec.id}: {sorted(unknown)}")
    if spec.classifier_kind is ClassifierKind.KNN:
        return train_knn(data, k=int(hp.get("k", KNN_DEFAULTS["k"])))
    if spec.classifier_kind is ClassifierKind.LINEAR_SVM:
        return train_linear_svm(
            data,
            epochs=int(hp.get("epochs", SVM_DEFAULTS["epochs"])),
            step_size=float(hp.get("step_size", SVM_DEFAULTS["step_size"])),
            l2=float(hp.get("l2", SVM_DEFAULTS["l2"])),
        )
    return train_forest(
        data,
        num_trees=int(hp.get("num_trees", FOREST_DEFAULTS["num_trees"])),
        max_depth=int(hp.get("max_depth", FOREST_DEFAULTS["max_depth"])),
        seed=seed,
        bootstrap=bool(hp.get("bootstrap", True)),
    )


def _extract_feature_table(
    streams: Iterable[CsiStream],
    labels: Sequence[int],
    needed: set[tuple[float, FeatureKind]],
    doppler_cfg: DopplerConfig,
    fingerprint: "hashlib._Hash | None" = None,
) -> dict[tuple[float, FeatureKind], list[FeatureVector]]:
    """One pass over the streams, extracting every (nominal rate, kind) combo."""
    table: dict[tuple[float, FeatureKind], list[FeatureVector]] = {key: [] for key in needed}
    count = 0
    for stream, label in zip(streams, labels):
        if fingerprint is not None:
            fingerprint.update(serialize_stream(stream))
            fingerprint.update(str(int(label)).encode())
        by_rate: dict[float, CsiStream] = {}
        for rate, kind in sorted(needed, key=lambda rk: (rk[0], rk[1].value)):
            if rate not in by_rate:
                by_rate[rate] = decimate(stream, rate)
            table[(rate, kind)].append(extract_feature(by_rate[rate], kind, doppler_cfg))
        count += 1
    if count != len(labels):
        raise InputError(f"{count} streams but {len(labels)} labels")
    return table


def build_bundle(
    train_streams: Iterable[CsiStream],
    train_labels: Sequence[int],
    val_streams: Iterable[CsiStream],
    val_labels: Sequence[int],
    registry: Sequence[ExpertSpec],
    seed: int = 0,
    doppler_cfg: DopplerConfig = DopplerConfig(),
) -> TrainedBundle:
    """Train every expert at its nominal rate and build its template centroids.

    Stream arguments may be one-pass iterables; they are consumed exactly
    once and only their features are retained. Centroids are per-class means
    of the validation features the expert classified correctly; classes it
    never gets right have no centroid.
    """
    validate_registry(registry)
    if len(train_labels) == 0 or len(val_labels) == 0:
        raise TrainingError("train and validation sets must be non-empty")
    k_max = int(max(max(train_labels), max(val_labels)))
    missing = sorted(set(range(k_max + 1)) - set(int(l) for l in train_labels))
    if missing:
        raise TrainingError(f"training data missing classes {missing} of 0..{k_max}")
    num_classes = k_max + 1

    needed = {(spec.nominal_rate, spec.feature_kind) for spec in registry}
    digest = hashlib.sha256()
    train_table = _extract_feature_table(train_streams, train_labels, needed, doppler_cfg, digest)
    val_table = _extract_feature_table(val_streams, val_labels, needed, doppler_cfg, digest)

    ordered = sorted(registry, key=lambda s: s.id)
    master = np.random.default_rng(seed)
    expert_seeds = {spec.id: int(s) for spec, s in zip(ordered, master.integers(0, 2**63, len(ordered)))}

    models: dict[str, Model] = {}
    templates = TemplateLibrary()
    val_accuracy: dict[str, float] = {}
    val_label_arr = np.asarray(val_labels, dtype=np.int64)

    # Per-kind standardization for gating correlations, fitted on the pooled
    # validation features so heterogeneous-scale dims weigh in comparably.
    ordered_keys = sorted(needed, key=lambda rk: (rk[0], rk[1].value))
    for kind in sorted({k for _, k in needed}, key=lambda k: k.value):
        pooled = np.concatenate(
            [np.stack([fv.values for fv in val_table[key]]) for key in ordered_keys if key[1] is kind]
        )
        templates.set_scaler(kind, pooled.mean(axis=0), pooled.std(axis=0))

    for spec in ordered:
        key = (spec.nominal_rate, spec.feature_kind)
        data = LabeledDataset.build(train_table[key], train_labels, num_classes)
        model = _train_expert(spec, data, expert_seeds[spec.id])
        models[spec.id] = model

        val_features = val_table[key]
        preds = np.array([int(np.argmax(predict_posterior(model, fv))) for fv in val_features])
        correct = preds == val_label_arr
        val_accuracy[spec.id] = float(correct.mean())

        centroids: dict[int, FeatureVector] = {}
        for cls in range(num_classes):
            mask = correct & (val_label_arr == cls)
            if not mask.any():
                continue
            stacked = np.stack([val_features[i].values for i in np.flatnonzero(mask)])
            rate = val_features[int(np.flatnonzero(mask)[0])].source_rate
            centroids[cls] = FeatureVector(spec.feature_kind, stacked.mean(axis=0), rate)
        templates.set_centroids(spec.id, centroids)

    metadata = {
        "seed": int(seed),
        "dataset_fingerprint": digest.hexdigest(),
        "k_max": k_max,
        "doppler_num_bins": doppler_cfg.num_bins,
        "doppler_max_freq_hz": float(doppler_cfg.max_freq_hz),
        "validation_accuracy": val_accuracy,
    }
    return TrainedBundle(tuple(ordered), models, templates, metadata)


def expert_posterior(
    stream: CsiStream, current_rate: float, bundle: TrainedBundle, expert_id: str
) -> np.ndarray:
    """One expert's class posterior for `stream` observed at `current_rate`.

    The expert's input is decimated from the base stream, never from an
    already-decimated one, so at or above its nominal rate it consumes
    exactly the rate it was trained at.
    """
    spec = bundle.spec(expert_id)
    expert_input = decimate(stream, expert_input_rate(spec, current_rate))
    fv = extract_feature(expert_input, spec.feature_kind, bundle.doppler_config())
    return predict_posterior(bundle.models[expert_id], fv)


def detect(stream: CsiStream, current_rate: float, bundle: TrainedBundle) -> DetectionReport:
    """Run the detection workflow on one stream observed at `current_rate`."""
    if not np.all(np.isfinite(stream.samples.view(np.float64))):
        raise InputError("stream contains non-finite samples")
    doppler_cfg = bundle.doppler_config()
    observed = decimate(stream, current_rate)

    stream_features = {
        FeatureKind.DOPPLER_ENERGY: extract_feature(observed, FeatureKind.DOPPLER_ENERGY, doppler_cfg),
        FeatureKind.AMPLITUDE_STATS: extract_feature(observed, FeatureKind.AMPLITUDE_STATS, doppler_cfg),
    }
    decision = decide(bundle.registry, bundle.templates, stream_features, current_rate,
                      DEFAULT_TOP_K)

    posteriors = {eid: expert_posterior(stream, current_rate, bundle, eid)
                  for eid in decision.selected}
    fused, predicted = fuse([posteriors[eid] for eid in decision.selected], decision.weights)
    return DetectionReport(
        decision=decision,
        expert_posteriors=posteriors,
        fused=fused,
        predicted_count=predicted,
        current_rate=float(current_rate),
    )


# ---------------------------------------------------------------------------
# Bundle container
# ---------------------------------------------------------------------------

def bundle_to_jsonable(bundle: TrainedBundle) -> dict[str, Any]:
    scalers = {}
    for kind in bundle.templates.scaler_kinds():
        mean, std = bundle.templates.scaler(kind)
        scalers[kind.value] = {"mean": mean.tolist(), "std": std.tolist()}
    return {
        "registry": [spec_to_jsonable(s) for s in bundle.registry],
        "models": {eid: m.to_jsonable() for eid, m in bundle.models.items()},
        "templates": {
            eid: {
                str(label): feature_to_jsonable(fv)
                for label, fv in bundle.templates.centroids(eid).items()
            }
            for eid in bundle.templates.expert_ids()
        },
        "scalers": scalers,
        "metadata": bundle.metadata,
    }


def bundle_from_jsonable(payload: dict[str, Any]) -> TrainedBundle:
    registry = tuple(spec_from_jsonable(d) for d in payload["registry"])
    models = {eid: model_from_jsonable(d) for eid, d in payload["models"].items()}
    templates = TemplateLibrary(
        {
            eid: {int(label): feature_from_jsonable(d) for label, d in by_class.items()}
            for eid, by_class in payload["templates"].items()
        }
    )
    for kind_tag, scaler in payload.get("scalers", {}).items():
        templates.set_scaler(
            FeatureKind(kind_tag),
            np.asarray(scaler["mean"], dtype=np.float64),
            np.asarray(scaler["std"], dtype=np.float64),
        )
    return TrainedBundle(registry, models, templates, dict(payload["metadata"]))


def serialize_bundle(bundle: TrainedBundle) -> bytes:
    payload = json.dumps(bundle_to_jsonable(bundle), sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return _BUNDLE_HEADER.pack(BUNDLE_MAGIC, BUNDLE_VERSION, len(payload)) + payload


def deserialize_bundle(data: bytes) -> TrainedBundle:
    if len(data) < _BUNDLE_HEADER.size:
        raise FormatError("bundle shorter than its header")
    magic, version, length = _BUNDLE_HEADER.unpack_from(data)
    if magic != BUNDLE_MAGIC:
        raise FormatError(f"bad bundle magic {magic!r}")
    if version != BUNDLE_VERSION:
        raise FormatError(f"unsupported bundle version {version}")
    payload = data[_BUNDLE_HEADER.size:]
    if len(payload) != length:
        raise FormatError(f"bundle truncated: payload {len(payload)} bytes, expected {length}")
    try:
        return bundle_from_jsonable(json.loads(payload.decode("utf-8")))
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise FormatError(f"bundle payload malformed: {exc}") from exc


def save_bundle(bundle: TrainedBundle, path: str | Path) -> None:
    Path(path).write_bytes(serialize_bundle(bundle))


def load_bundle(path: str | Path) -> TrainedBundle:
    return deserialize_bundle(Path(path).read_bytes())
