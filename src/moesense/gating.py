"""Gating network: rate filtering, correlation scoring, selection, fusion.

The gate works in two stages. First it drops every expert whose required
communication rate exceeds the current one. Then it correlates the incoming
stream's features against each remaining expert's per-class template
centroids, keeps the top-k scorers, and turns their clipped scores into
fusion weights. If the rate disqualifies everyone, the gate falls back to
correlation-only selection over the full registry so a prediction is always
produced.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, InputError
from .features import FeatureKind, FeatureVector, pearson

# Score assigned to an expert whose template has no centroids at all
# (it never classified a validation sample correctly).
NO_TEMPLATE_SCORE = -1.0

TOP_K = 3  # experts the gate selects


class ClassifierKind(enum.Enum):
    KNN = "knn"
    LINEAR_SVM = "svm"
    FOREST = "forest"


# The hyperparameters each classifier takes and the JSON type of each value.
_HYPERPARAM_TYPES = {
    ClassifierKind.KNN: {"k": int},
    ClassifierKind.LINEAR_SVM: {"epochs": int, "step_size": float, "l2": float},
    ClassifierKind.FOREST: {"num_trees": int, "max_depth": int, "bootstrap": bool},
}


def _has_json_type(value: Any, expected: type) -> bool:
    """A float field takes any finite number; int and bool fields take only
    their own type (a bool is no int, and 5.0 is no int)."""
    if expected is float:
        return type(value) in (int, float) and -math.inf < value < math.inf
    return type(value) is expected


class GatingMode(enum.Enum):
    NORMAL = "normal"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class ExpertSpec:
    """One registry entry: what the expert consumes and what rate it needs."""

    id: str
    feature_kind: FeatureKind
    classifier_kind: ClassifierKind
    required_rate: float
    nominal_rate: float | None = None
    hyperparams: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigurationError("expert id must be non-empty")
        if self.nominal_rate is None:
            object.__setattr__(self, "nominal_rate", self.required_rate)
        for name in ("required_rate", "nominal_rate"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate > 0):
                raise ConfigurationError(f"{name} must be finite and positive for {self.id}, "
                                         f"got {rate}")
        types = _HYPERPARAM_TYPES[self.classifier_kind]
        for name, value in self.hyperparams.items():
            if name not in types:
                raise ConfigurationError(f"unknown hyperparameter {name!r} for {self.id}")
            if not _has_json_type(value, types[name]):
                raise ConfigurationError(f"hyperparameter {name} of {self.id} must be a JSON "
                                         f"{types[name].__name__}, got {value!r}")


def default_registry() -> list[ExpertSpec]:
    """Eight-expert configuration mixing both feature kinds, three classifier
    families, and rate requirements from 300 to 600 pkts/s.

    The three lowest-rate experts are independently trained forest instances
    over the amplitude statistics (same task, separate training randomness),
    so the fused output stays robust when only they are reachable.
    """
    d, s = FeatureKind.DOPPLER_ENERGY, FeatureKind.AMPLITUDE_STATS
    knn, svm, rf = ClassifierKind.KNN, ClassifierKind.LINEAR_SVM, ClassifierKind.FOREST
    return [
        ExpertSpec("E1", d, svm, 600.0),
        ExpertSpec("E2", s, svm, 600.0),
        ExpertSpec("E3", d, rf, 500.0),
        ExpertSpec("E4", s, rf, 500.0),
        ExpertSpec("E5", s, rf, 300.0),
        ExpertSpec("E6", d, knn, 400.0),
        ExpertSpec("E7", s, rf, 300.0),
        ExpertSpec("E8", s, rf, 300.0),
    ]


def validate_registry(registry: Sequence[ExpertSpec]) -> None:
    if not registry:
        raise ConfigurationError("registry is empty")
    ids = [spec.id for spec in registry]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ConfigurationError(f"duplicate expert ids: {dupes}")


@dataclass(frozen=True, eq=False)
class GatingDecision:
    eligible: frozenset[str]
    selected: tuple[str, ...]
    weights: tuple[float, ...]
    scores: dict[str, float]
    mode: GatingMode


class TemplateLibrary:
    """Per expert, per class: one centroid feature vector.

    A library may also carry per-kind standardization constants (fitted on
    validation features when the bundle is built). Scoring then correlates
    z-scored vectors, which keeps heterogeneous-scale features such as the
    amplitude statistics from saturating every correlation near 1. Libraries
    without scalers correlate raw vectors.
    """

    def __init__(self, centroids: Mapping[str, Mapping[int, FeatureVector]] | None = None):
        self._centroids: dict[str, dict[int, FeatureVector]] = {
            eid: dict(by_class) for eid, by_class in (centroids or {}).items()
        }
        self._scalers: dict[FeatureKind, tuple[np.ndarray, np.ndarray]] = {}

    def set_centroids(self, expert_id: str, by_class: Mapping[int, FeatureVector]) -> None:
        self._centroids[expert_id] = dict(by_class)

    def centroids(self, expert_id: str) -> dict[int, FeatureVector]:
        if expert_id not in self._centroids:
            raise ConfigurationError(f"no template entry for expert {expert_id}")
        return self._centroids[expert_id]

    def expert_ids(self) -> list[str]:
        return sorted(self._centroids)

    def __contains__(self, expert_id: str) -> bool:
        return expert_id in self._centroids

    def set_scaler(self, kind: FeatureKind, mean: np.ndarray, std: np.ndarray) -> None:
        std = np.where(np.asarray(std) > 0, std, 1.0)
        self._scalers[kind] = (np.asarray(mean, dtype=np.float64), std.astype(np.float64))

    def scaler(self, kind: FeatureKind) -> tuple[np.ndarray, np.ndarray] | None:
        return self._scalers.get(kind)

    def scaler_kinds(self) -> list[FeatureKind]:
        return sorted(self._scalers, key=lambda k: k.value)


def filter_by_rate(registry: Sequence[ExpertSpec], current_rate: float) -> set[str]:
    """Experts whose required rate is satisfied (boundary inclusive)."""
    if not current_rate > 0:
        raise InputError(f"current_rate must be positive, got {current_rate}")
    return {spec.id for spec in registry if spec.required_rate <= current_rate}


def _template_correlation(
    feature: FeatureVector, centroid: FeatureVector, templates: TemplateLibrary
) -> float:
    a = np.asarray(feature.values, dtype=np.float64)
    b = np.asarray(centroid.values, dtype=np.float64)
    # Zero-variance convention applies to the raw vectors, before any scaling.
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return 0.0
    scaler = templates.scaler(centroid.kind)
    if scaler is not None:
        mean, std = scaler
        a = (a - mean) / std
        b = (b - mean) / std
    return pearson(a, b)


def score_experts(
    stream_features: Mapping[FeatureKind, FeatureVector],
    templates: TemplateLibrary,
    candidate_ids: Iterable[str],
) -> dict[str, float]:
    """Max-over-class Pearson correlation against each candidate's centroids."""
    scores: dict[str, float] = {}
    for eid in candidate_ids:
        centroids = templates.centroids(eid)
        if not centroids:
            scores[eid] = NO_TEMPLATE_SCORE
            continue
        best = -np.inf
        for centroid in centroids.values():
            if centroid.kind not in stream_features:
                raise InputError(
                    f"no {centroid.kind.value} feature supplied for expert {eid}"
                )
            r = _template_correlation(stream_features[centroid.kind], centroid, templates)
            best = max(best, r)
        scores[eid] = float(best)
    return scores


def select_top_k(scores: Mapping[str, float], k: int) -> list[str]:
    """Top-k ids by score, descending; ties break lexicographically."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    ranked = sorted(scores, key=lambda eid: (-scores[eid], eid))
    return ranked[:k]


def decide(
    registry: Sequence[ExpertSpec],
    templates: TemplateLibrary,
    stream_features: Mapping[FeatureKind, FeatureVector],
    current_rate: float,
) -> GatingDecision:
    """Full gate: rate filter, correlation scores, top `TOP_K`, weights.

    Weights are the positive-clipped scores of the selected experts
    normalized to sum 1, or uniform when every clipped score is zero.
    """
    validate_registry(registry)
    eligible = filter_by_rate(registry, current_rate)
    if eligible:
        mode = GatingMode.NORMAL
        candidates = eligible
    else:
        mode = GatingMode.FALLBACK
        candidates = {spec.id for spec in registry}

    scores = score_experts(stream_features, templates, sorted(candidates))
    selected = tuple(select_top_k(scores, TOP_K))

    clipped = np.maximum([scores[eid] for eid in selected], 0.0)
    total = clipped.sum()
    if total > 0:
        weights = clipped / total
    else:
        weights = np.full(len(selected), 1.0 / len(selected))

    return GatingDecision(
        eligible=frozenset(eligible),
        selected=selected,
        weights=tuple(float(w) for w in weights),
        scores=scores,
        mode=mode,
    )


def fuse(
    posteriors: Sequence[np.ndarray], weights: Sequence[float]
) -> tuple[np.ndarray, int]:
    """Weighted average of posteriors; prediction is the argmax (lowest-index ties)."""
    if len(posteriors) != len(weights):
        raise InputError(f"{len(posteriors)} posteriors but {len(weights)} weights")
    if len(posteriors) == 0:
        raise InputError("need at least one posterior to fuse")
    fused = np.zeros_like(np.asarray(posteriors[0], dtype=np.float64))
    for p, w in zip(posteriors, weights):
        fused += float(w) * np.asarray(p, dtype=np.float64)
    return fused, int(np.argmax(fused))


# ---------------------------------------------------------------------------
# Registry config file (JSON)
# ---------------------------------------------------------------------------

def spec_to_jsonable(spec: ExpertSpec) -> dict[str, Any]:
    return {
        "id": spec.id,
        "feature": spec.feature_kind.value,
        "classifier": spec.classifier_kind.value,
        "required_rate": float(spec.required_rate),
        "nominal_rate": float(spec.nominal_rate),
        "hyperparams": dict(spec.hyperparams),
    }


def spec_from_jsonable(d: dict[str, Any]) -> ExpertSpec:
    try:
        return ExpertSpec(
            id=str(d["id"]),
            feature_kind=FeatureKind(d["feature"]),
            classifier_kind=ClassifierKind(d["classifier"]),
            required_rate=float(d["required_rate"]),
            nominal_rate=float(d["nominal_rate"]) if "nominal_rate" in d else None,
            hyperparams=dict(d.get("hyperparams", {})),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigurationError(f"bad registry entry {d!r}: {exc}") from exc


def load_registry(path: str | Path) -> list[ExpertSpec]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"registry file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("experts"), list):
        raise ConfigurationError("registry file must be an object with an 'experts' list")
    registry = [spec_from_jsonable(entry) for entry in raw["experts"]]
    validate_registry(registry)
    return registry


def save_registry(registry: Sequence[ExpertSpec], path: str | Path) -> None:
    payload = {"experts": [spec_to_jsonable(s) for s in registry]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
