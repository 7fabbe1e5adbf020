"""End-to-end orchestration: train experts and templates, persist bundles,
and run the four-step detection workflow (rate filter, expert scoring,
per-expert inference, weighted fusion).

A trained bundle holds the registry, one trained model per expert, the
template library used for gating, and training metadata. Bundles serialize
to a versioned binary container whose payload is canonical JSON, so saving
the same bundle twice produces identical bytes.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
import multiprocessing
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .classifiers import (
    MODEL_TYPES,
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
    AMP_STATS_LENGTH,
    DopplerConfig,
    FeatureKind,
    FeatureVector,
    amp_stats_from_series,
    doppler_from_series,
    extract_amp_stats,
    extract_doppler,
    feature_from_jsonable,
    feature_to_jsonable,
    finite_array,
    mean_amplitude_series,
)
from .gating import (
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
from .simulate import CsiStream, container_parts, decimate, decimation_stride

BUNDLE_MAGIC = b"MOEB"
BUNDLE_VERSION = 2
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


def _series_feature(series: np.ndarray, packet_rate: float, kind: FeatureKind,
                    doppler_cfg: DopplerConfig) -> FeatureVector:
    """`extract_feature` on a stream whose amplitude series is `series`."""
    if kind is FeatureKind.DOPPLER_ENERGY:
        return doppler_from_series(series, packet_rate, doppler_cfg.clipped_to_rate(packet_rate))
    return amp_stats_from_series(series, packet_rate)


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


def _train_expert(spec: ExpertSpec, data: LabeledDataset, seed: int) -> Model:
    """Train with the spec's hyperparameters, whose names and types the spec
    has checked; the rest take the trainer's defaults."""
    if spec.classifier_kind is ClassifierKind.KNN:
        return train_knn(data, **spec.hyperparams)
    if spec.classifier_kind is ClassifierKind.LINEAR_SVM:
        return train_linear_svm(data, **spec.hyperparams)
    return train_forest(data, seed=seed, **spec.hyperparams)


def _train_experts(jobs: Sequence[tuple[ExpertSpec, LabeledDataset, int]]) -> list[Model]:
    """`_train_expert` over `jobs`, in one forked worker process per usable
    CPU up to the job count.

    A model depends only on its own job, so its bytes do not depend on the
    worker count. Models come back in job order, and a failure is that of
    the first failing job in that order. No worker outlives the call.
    """
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    # Forked workers start without re-importing numpy and moesense.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            futures = [pool.submit(_train_expert, *job) for job in jobs]
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            raise TrainingError(f"an expert training worker died: {exc}") from exc


def _extract_feature_table(
    streams: Iterable[CsiStream],
    labels: Sequence[int],
    needed: set[tuple[float, FeatureKind]],
    doppler_cfg: DopplerConfig,
    fingerprint: "hashlib._Hash | None" = None,
) -> dict[tuple[float, FeatureKind], list[FeatureVector]]:
    """One pass over the streams, extracting every (nominal rate, kind) combo.

    Each stream's amplitude series is computed once. Taking every stride-th
    value of it is what `decimate` followed by `extract_feature` computes, so
    each (stride, kind) pair is extracted once and nominal rates that share a
    stride share its feature vector.
    """
    table: dict[tuple[float, FeatureKind], list[FeatureVector]] = {key: [] for key in needed}
    ordered = sorted(needed, key=lambda rk: (rk[0], rk[1].value))
    count = 0
    for stream, label in zip(streams, labels):
        if fingerprint is not None:
            for part in container_parts(stream):
                fingerprint.update(part)
            fingerprint.update(str(int(label)).encode())
        series = mean_amplitude_series(stream)
        by_stride: dict[tuple[int, FeatureKind], FeatureVector] = {}
        for rate, kind in ordered:
            stride = decimation_stride(stream.packet_rate, rate)
            if (stride, kind) not in by_stride:
                by_stride[(stride, kind)] = _series_feature(
                    np.ascontiguousarray(series[::stride]), stream.packet_rate / stride,
                    kind, doppler_cfg)
            table[(rate, kind)].append(by_stride[(stride, kind)])
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
    doppler_cfg = DopplerConfig()

    needed = {(spec.nominal_rate, spec.feature_kind) for spec in registry}
    digest = hashlib.sha256()
    train_table = _extract_feature_table(train_streams, train_labels, needed, doppler_cfg, digest)
    val_table = _extract_feature_table(val_streams, val_labels, needed, doppler_cfg, digest)

    ordered = sorted(registry, key=lambda s: s.id)
    master = np.random.default_rng(seed)
    expert_seeds = {spec.id: int(s) for spec, s in zip(ordered, master.integers(0, 2**63, len(ordered)))}

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

    jobs = [(spec, LabeledDataset.build(train_table[(spec.nominal_rate, spec.feature_kind)],
                                        train_labels, num_classes), expert_seeds[spec.id])
            for spec in ordered]
    models = {spec.id: model for spec, model in zip(ordered, _train_experts(jobs))}

    for spec in ordered:
        model = models[spec.id]
        val_features = val_table[(spec.nominal_rate, spec.feature_kind)]
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
    if not (math.isfinite(current_rate) and current_rate > 0):
        raise InputError(f"current_rate must be finite and positive, got {current_rate}")
    if not np.all(np.isfinite(stream.samples.view(np.float64))):
        raise InputError("stream contains non-finite samples")
    doppler_cfg = bundle.doppler_config()
    observed = decimate(stream, current_rate)

    stream_features = {
        FeatureKind.DOPPLER_ENERGY: extract_feature(observed, FeatureKind.DOPPLER_ENERGY, doppler_cfg),
        FeatureKind.AMPLITUDE_STATS: extract_feature(observed, FeatureKind.AMPLITUDE_STATS, doppler_cfg),
    }
    decision = decide(bundle.registry, bundle.templates, stream_features, current_rate)

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
        "metadata": copy.deepcopy(bundle.metadata),
    }


def bundle_from_jsonable(payload: dict[str, Any]) -> TrainedBundle:
    registry = tuple(spec_from_jsonable(d) for d in payload["registry"])
    models = {eid: model_from_jsonable(d) for eid, d in payload["models"].items()}
    templates = TemplateLibrary()
    # Scalers first, so that each centroid is scaled once, as it is set.
    for kind_tag, scaler in payload["scalers"].items():
        templates.set_scaler(FeatureKind(kind_tag),
                             finite_array(scaler["mean"], f"{kind_tag} scaler mean"),
                             finite_array(scaler["std"], f"{kind_tag} scaler std"))
    for eid, by_class in payload["templates"].items():
        templates.set_centroids(
            eid, {int(label): feature_from_jsonable(d) for label, d in by_class.items()})
    metadata = copy.deepcopy(payload["metadata"])
    finite_array([metadata["seed"], *metadata["validation_accuracy"].values()], "metadata")
    bundle = TrainedBundle(registry, models, templates, metadata)
    _check_parts_agree(bundle)
    return bundle


def _check_parts_agree(bundle: TrainedBundle) -> None:
    """Reject a bundle whose models, centroids or scalers disagree with its
    registry and metadata, so it fails when it loads rather than in `detect`."""
    widths = {FeatureKind.DOPPLER_ENERGY: bundle.doppler_config().num_bins,
              FeatureKind.AMPLITUDE_STATS: AMP_STATS_LENGTH}
    num_classes = bundle.num_classes
    for spec in bundle.registry:
        model, width = bundle.models[spec.id], widths[spec.feature_kind]
        if (type(model) is not MODEL_TYPES[spec.classifier_kind.value]
                or model.kind is not spec.feature_kind
                or model.n_features != width or model.num_classes != num_classes):
            raise FormatError(f"model {spec.id} disagrees with its registry entry or the metadata")
        for label, centroid in bundle.templates.centroids(spec.id).items():
            if (centroid.kind is not spec.feature_kind or centroid.values.shape != (width,)
                    or not 0 <= label < num_classes):
                raise FormatError(f"template centroid {label} of {spec.id} does not fit its model")
    unscaled = sorted({spec.feature_kind.value for spec in bundle.registry
                       if bundle.templates.scaler(spec.feature_kind) is None})
    if unscaled:
        raise FormatError(f"no scaler for the {', '.join(unscaled)} features")
    for kind in bundle.templates.scaler_kinds():
        if any(a.shape != (widths[kind],) for a in bundle.templates.scaler(kind)):
            raise FormatError(f"{kind.value} scaler is not {widths[kind]} wide")


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
        return bundle_from_jsonable(json.loads(payload.decode("utf-8"),
                                               parse_constant=_refuse_constant))
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError, RecursionError,
            ConfigurationError) as exc:
        raise FormatError(f"bundle payload malformed: {exc}") from exc


def _refuse_constant(name: str) -> float:
    """json reads NaN, Infinity and -Infinity as numbers; a bundle holds none."""
    raise ValueError(f"non-finite number {name}")


def save_bundle(bundle: TrainedBundle, path: str | Path) -> None:
    Path(path).write_bytes(serialize_bundle(bundle))


def load_bundle(path: str | Path) -> TrainedBundle:
    return deserialize_bundle(Path(path).read_bytes())
