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
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .classifiers import HYPERPARAM_RANGES, HYPERPARAMS
from .errors import ConfigurationError, InputError
from .features import MAX_FEATURE, Centred, FeatureKind, FeatureVector, centre_rows, pearson
from .simulate import check_positive

# Score assigned to an expert whose template has no centroids at all
# (it never classified a validation sample correctly).
NO_TEMPLATE_SCORE = -1.0

TOP_K = 3  # experts the gate selects


class ClassifierKind(enum.Enum):
    KNN = "knn"
    LINEAR_SVM = "svm"
    FOREST = "forest"


def _has_json_type(value: Any, expected: type) -> bool:
    """A float field takes any finite number; every other field takes only
    its own type (a bool is no int, and 5.0 is no int)."""
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
    hyperparams: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigurationError("expert id must be non-empty")
        check_positive(self.required_rate, f"required_rate of {self.id}", ConfigurationError)
        defaults = HYPERPARAMS[self.classifier_kind.value]
        for name, value in self.hyperparams.items():
            if name not in defaults:
                raise ConfigurationError(f"unknown hyperparameter {name!r} for {self.id}")
            if not _has_json_type(value, expected := type(defaults[name])):
                raise ConfigurationError(f"hyperparameter {name} of {self.id} must be a JSON "
                                         f"{expected.__name__}, got {value!r}")
            low, high = HYPERPARAM_RANGES[name]
            if not low <= value <= high:
                raise ConfigurationError(f"hyperparameter {name} of {self.id} must lie in "
                                         f"[{low!r}, {high!r}], got {value!r}")
        params = self.params
        if params.get("step_size", 0.0) * params.get("l2", 0.0) >= 1.0:
            raise ConfigurationError(f"step_size * l2 of {self.id} must be below 1, got "
                                     f"{params['step_size']!r} * {params['l2']!r}")

    @property
    def params(self) -> dict[str, Any]:
        """The hyperparameters the expert trains with: its own, else the defaults."""
        return {**HYPERPARAMS[self.classifier_kind.value], **self.hyperparams}


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


class Template(NamedTuple):
    """One expert's centroids: row i of `values` is the centroid of class `labels[i]`."""
    kind: FeatureKind
    labels: list[int]
    values: np.ndarray


class TemplateLibrary:
    """Per expert, one `Template` of centroids, and per feature kind the
    standardization constants the gate scores with.

    The scalers are fitted on validation features when the bundle is built.
    Scoring correlates z-scored vectors, which keeps heterogeneous-scale
    features such as the amplitude statistics from saturating every
    correlation near 1. A library is built once and never changes. `operands`
    holds each expert's centroids as one `prepare` pass per kind made them.
    """

    def __init__(self, templates: Mapping[str, Template],
                 scalers: Mapping[FeatureKind, tuple[np.ndarray, np.ndarray]]):
        self._scalers: dict[FeatureKind, tuple[np.ndarray, np.ndarray]] = {}
        for kind, (mean, std) in scalers.items():
            mean, std = np.asarray(mean, dtype=np.float64), np.asarray(std, dtype=np.float64)
            if mean.ndim != 1 or mean.shape != std.shape:
                raise ConfigurationError(f"{kind.value} scaler mean {mean.shape} and std "
                                         f"{std.shape} are not two vectors of one width")
            std = np.where(std > 0, std, 1.0)
            with np.errstate(over="ignore"):  # so `pearson` of scaled features stays finite
                if not np.isfinite(2 * ((MAX_FEATURE + np.abs(mean)) / std).sum()):
                    raise ConfigurationError(f"{kind.value} scaler could overflow a feature")
            self._scalers[kind] = (mean, std)
        self._templates = dict(templates)
        for eid, t in self._templates.items():
            if (t.kind not in self._scalers or t.values.shape[1:] != self._scalers[t.kind][0].shape
                    or not len(set(t.labels)) == len(t.labels) == len(t.values)):
                raise ConfigurationError(f"template of {eid} {t.values.shape} needs a {t.kind.value} "
                                         f"scaler of its width, and a distinct label per row")
            if not np.abs(t.values).max(initial=0.0) < MAX_FEATURE:  # NaN fails it too
                raise ConfigurationError(f"a centroid of {eid} is not below {MAX_FEATURE:g} in size")
        operands: dict[str, list[Centred | None]] = {}
        for kind in {t.kind for t in self._templates.values()}:
            owners = [(eid, t) for eid, t in self._templates.items() if t.kind is kind]
            ops = iter(self.prepare(kind, np.concatenate([t.values for _, t in owners])))
            operands.update((eid, [next(ops) for _ in range(len(t.values))]) for eid, t in owners)
        self.operands: Mapping[str, list[Centred | None]] = MappingProxyType(operands)

    @property
    def scalers(self) -> Mapping[FeatureKind, tuple[np.ndarray, np.ndarray]]:
        """Per kind, the mean and std the gate standardizes by; a zero std is kept as 1."""
        return MappingProxyType(self._scalers)

    def prepare(self, kind: FeatureKind, rows: np.ndarray) -> list[Centred | None]:
        """Each of `rows` as the gate correlates it: None when the raw row is
        constant, which scores 0.0 whatever it is matched with, and otherwise
        standardized by the scaler of `kind` and prepared for `pearson`."""
        mean, std = self._scalers[kind]
        if rows.shape[1:] != mean.shape:
            raise InputError(f"{kind.value} rows must be {len(mean)} wide, got {rows.shape[1:]}")
        constant = (np.ptp(rows, axis=1) == 0.0).tolist()
        return [None if c else op for c, op in zip(constant, centre_rows((rows - mean) / std))]

    def template(self, expert_id: str) -> Template:
        if expert_id not in self._templates:
            raise ConfigurationError(f"no template entry for expert {expert_id}")
        return self._templates[expert_id]

    def centroids(self, expert_id: str) -> dict[int, FeatureVector]:
        t = self.template(expert_id)
        return {label: FeatureVector(t.kind, row) for label, row in zip(t.labels, t.values)}

    def expert_ids(self) -> list[str]:
        return sorted(self._templates)


def filter_by_rate(registry: Sequence[ExpertSpec], current_rate: float) -> set[str]:
    """Experts whose required rate is satisfied (boundary inclusive)."""
    check_positive(current_rate, "current_rate")
    return {spec.id for spec in registry if spec.required_rate <= current_rate}


def candidates(registry: Sequence[ExpertSpec], rate: float) -> tuple[frozenset[str], list[str]]:
    """The experts `rate` admits, and the sorted ids the gate scores: those,
    or every expert (fallback) when the rate admits none."""
    eligible = frozenset(filter_by_rate(registry, rate))
    return eligible, sorted(eligible or (spec.id for spec in registry))


def score_experts(
    stream_features: Mapping[FeatureKind, FeatureVector],
    templates: TemplateLibrary,
    candidate_ids: Iterable[str],
) -> dict[str, float]:
    """Max-over-class Pearson correlation against each candidate's centroids.

    The library holds its centroids already prepared; each stream feature is
    prepared once, when the first expert of its kind needs it.
    """
    scores: dict[str, float] = {}
    features: dict[FeatureKind, Centred | None] = {}
    for eid in candidate_ids:
        kind = templates.template(eid).kind
        centroids = templates.operands[eid]
        if not centroids:
            scores[eid] = NO_TEMPLATE_SCORE
            continue
        if kind not in features:
            if kind not in stream_features:
                raise InputError(f"no {kind.value} feature supplied for expert {eid}")
            features[kind] = templates.prepare(kind, stream_features[kind].values[None])[0]
        feature = features[kind]
        scores[eid] = max([0.0 if feature is None or row is None else pearson(feature, row)
                           for row in centroids])
    return scores


def select_top_k(scores: Mapping[str, float]) -> list[str]:
    """Top-`TOP_K` ids by score, descending; ties break lexicographically."""
    return sorted(scores, key=lambda eid: (-scores[eid], eid))[:TOP_K]


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
    eligible, scored = candidates(registry, current_rate)
    scores = score_experts(stream_features, templates, scored)
    selected = tuple(select_top_k(scores))

    clipped = np.maximum([scores[eid] for eid in selected], 0.0)
    total = clipped.sum()
    if total > 0:
        weights = clipped / total
    else:
        weights = np.full(len(selected), 1.0 / len(selected))

    return GatingDecision(
        eligible=eligible,
        selected=selected,
        weights=tuple(float(w) for w in weights),
        scores=scores,
        mode=GatingMode.NORMAL if eligible else GatingMode.FALLBACK,
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
        "hyperparams": dict(spec.hyperparams),
    }


# The JSON type each registry entry field must have; nothing is coerced.
_ENTRY_TYPES = {"id": (str, "string"), "required_rate": (float, "number"),
                "hyperparams": (dict, "object")}
_ENTRY_FIELDS = {"feature", "classifier", *_ENTRY_TYPES}  # an entry has no other field


def spec_from_jsonable(d: dict[str, Any]) -> ExpertSpec:
    try:
        if unknown := sorted(d.keys() - _ENTRY_FIELDS):
            raise ConfigurationError(f"registry entry has unknown fields {unknown}")
        for name, (expected, json_name) in _ENTRY_TYPES.items():
            if name in d and not _has_json_type(d[name], expected):
                raise ConfigurationError(f"registry entry field {name} must be a JSON "
                                         f"{json_name}, got {d[name]!r}")
        return ExpertSpec(
            id=d["id"],
            feature_kind=FeatureKind(d["feature"]),
            classifier_kind=ClassifierKind(d["classifier"]),
            required_rate=float(d["required_rate"]),
            hyperparams=dict(d.get("hyperparams", {})),
        )
    except (AttributeError, KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigurationError(f"bad registry entry {d!r}: {exc}") from exc


def load_registry(path: str | Path) -> list[ExpertSpec]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also text that is not UTF-8, and huge ints
        raise ConfigurationError(f"registry file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("experts"), list):
        raise ConfigurationError("registry file must be an object with an 'experts' list")
    registry = [spec_from_jsonable(entry) for entry in raw["experts"]]
    validate_registry(registry)
    return registry
