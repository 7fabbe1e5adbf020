import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moesense import gating
from moesense.errors import ConfigurationError, InputError
from moesense.features import MAX_FEATURE, FeatureKind, FeatureVector, pearson
from moesense.gating import (
    NO_TEMPLATE_SCORE,
    ClassifierKind,
    ExpertSpec,
    GatingMode,
    Template,
    TemplateLibrary,
    candidates,
    decide,
    default_registry,
    filter_by_rate,
    fuse,
    load_registry,
    score_experts,
    select_top_k,
    spec_from_jsonable,
    spec_to_jsonable,
    validate_registry,
)

D = FeatureKind.DOPPLER_ENERGY
S = FeatureKind.AMPLITUDE_STATS


def fv(values, kind=D, rate=500.0):
    return FeatureVector(kind, np.asarray(values, dtype=float), rate)


# ---------------------------------------------------------------------------
# filter_by_rate
# ---------------------------------------------------------------------------

def test_filter_matches_default_registry_structure():
    reg = default_registry()
    assert filter_by_rate(reg, 500.0) == {"E3", "E4", "E5", "E6", "E7", "E8"}
    assert filter_by_rate(reg, 300.0) == {"E5", "E7", "E8"}
    assert filter_by_rate(reg, 600.0) == {f"E{i}" for i in range(1, 9)}


def test_filter_below_everything_is_empty():
    assert filter_by_rate(default_registry(), 50.0) == set()


def test_filter_boundary_inclusive():
    reg = default_registry()
    top = max(s.required_rate for s in reg)
    assert filter_by_rate(reg, top) == {s.id for s in reg}


def test_filter_rejects_nonpositive_rate():
    with pytest.raises(InputError):
        filter_by_rate(default_registry(), 0.0)
    with pytest.raises(InputError):
        filter_by_rate(default_registry(), float("nan"))


def test_filter_rejects_an_infinite_rate():
    with pytest.raises(InputError, match="current_rate must be finite and positive, got inf"):
        filter_by_rate(default_registry(), float("inf"))


def test_rate_monotonicity():
    reg = default_registry()
    previous = set()
    for rate in np.linspace(10.0, 700.0, 70):
        eligible = filter_by_rate(reg, float(rate))
        assert previous <= eligible
        previous = eligible


# ---------------------------------------------------------------------------
# score_experts
# ---------------------------------------------------------------------------

def template(kind, rows, labels=None):
    """A `Template` of `kind` whose centroids are `rows`, of classes
    0, 1, ... unless `labels` are given."""
    labels = list(range(len(rows))) if labels is None else labels
    return Template(kind, labels, np.full(len(rows), 500.0), np.array(rows, dtype=float))


def templates(entries):
    """`{eid: {label: FeatureVector}}`, each expert's centroids of one kind,
    as the library's templates."""
    return {eid: template(next(iter(by_class.values())).kind,
                          [c.values for c in by_class.values()], list(by_class))
            for eid, by_class in entries.items()}


def identity_scalers(entries):
    """Per kind, mean 0 and std 1 at its centroids' width: the gate then
    correlates the raw vectors, since (v - 0) / 1 == v bit for bit."""
    widths = {c.kind: len(c) for by_class in entries.values() for c in by_class.values()}
    return {kind: (np.zeros(width), np.ones(width)) for kind, width in widths.items()}


def library(entries, scalers=None):
    return TemplateLibrary(templates(entries),
                           identity_scalers(entries) if scalers is None else scalers)


def test_score_identical_to_centroid_is_one():
    centroid = fv([0.1, 0.3, 0.6])
    lib = library({"E1": {0: centroid}})
    scores = score_experts({D: centroid}, lib, ["E1"])
    assert scores["E1"] == pytest.approx(1.0, abs=1e-12)


def test_score_zero_variance_input_is_zero():
    lib = library({
        "E1": {0: fv([0.1, 0.3, 0.6])},
        "E2": {1: fv([0.5, 0.2, 0.3])},
    })
    scores = score_experts({D: fv([0.4, 0.4, 0.4])}, lib, ["E1", "E2"])
    assert scores == {"E1": 0.0, "E2": 0.0}


def test_score_matches_max_over_class_pearson_oracle():
    rng = np.random.default_rng(7)
    x = fv(rng.uniform(size=6))
    lib_entries = {}
    for eid in ("E1", "E2", "E3"):
        lib_entries[eid] = {c: fv(rng.uniform(size=6)) for c in range(rng.integers(1, 4))}
    lib = library(lib_entries)
    scores = score_experts({D: x}, lib, ["E1", "E2", "E3"])
    for eid, by_class in lib_entries.items():
        expected = max(pearson(x.values, c.values) for c in by_class.values())
        assert scores[eid] == expected


def test_score_missing_template_is_config_error():
    lib = library({"E1": {0: fv([0.1, 0.9])}})
    with pytest.raises(ConfigurationError):
        score_experts({D: fv([0.5, 0.5])}, lib, ["E1", "E9"])


def test_score_empty_centroids_sentinel():
    lib = TemplateLibrary({"E1": template(D, np.zeros((0, 2)))}, {D: (np.zeros(2), np.ones(2))})
    scores = score_experts({D: fv([0.2, 0.8])}, lib, ["E1"])
    assert scores["E1"] == -1.0


def test_score_missing_feature_kind_is_input_error():
    lib = library({"E1": {0: fv([1.0, 0.1, 0.2, 1.0, 0.9, 1.1], kind=S)}})
    with pytest.raises(InputError):
        score_experts({D: fv([0.5, 0.5])}, lib, ["E1"])


def test_score_with_scaler_identical_still_one_and_constant_still_zero():
    centroid = fv([1.0, 0.01, 0.02, 1.0, 0.99, 1.01], kind=S)
    lib = library({"E1": {0: centroid}}, {S: (np.array([0.9, 0.02, 0.01, 0.95, 0.9, 0.95]),
                                              np.array([0.1, 0.005, 0.004, 0.1, 0.1, 0.1]))})
    assert score_experts({S: centroid}, lib, ["E1"])["E1"] == pytest.approx(1.0, abs=1e-12)
    const = fv([2.0] * 6, kind=S)
    assert score_experts({S: const}, lib, ["E1"])["E1"] == 0.0


def test_scaler_separates_scale_dominated_vectors():
    # raw correlation saturates when one dim dominates; the scaler restores
    # discrimination between nearby stats profiles
    base = np.array([1.0, 0.02, 0.03, 1.0, 0.98, 1.02])
    near = fv(base + np.array([0, 0.001, 0.001, 0, 0, 0]), kind=S)
    far = fv(base + np.array([0, 0.3, 0.25, 0.01, 0.01, 0.01]), kind=S)
    entries = {"near": {0: near}, "far": {0: far}}
    x = fv(base + np.array([0.001, -0.001, 0.002, -0.001, 0.001, 0.002]), kind=S)
    raw = score_experts({S: x}, library(entries), ["near", "far"])
    assert raw["far"] > 0.99  # saturated without scaling
    lib = library(entries, {S: (base - 0.01, np.array([0.05, 0.05, 0.05, 0.05, 0.05, 0.05]))})
    scaled = score_experts({S: x}, lib, ["near", "far"])
    assert scaled["near"] > scaled["far"]


def reference_scores(stream_features, lib, candidate_ids):
    """The gate's scores by their definition, from the raw centroids: a
    constant raw vector scores 0.0, the rest are scaled, then correlated."""
    scores = {}
    for eid in candidate_ids:
        centroids = lib.centroids(eid)
        if not centroids:
            scores[eid] = NO_TEMPLATE_SCORE
            continue
        best = -np.inf
        for centroid in centroids.values():
            a = np.asarray(stream_features[centroid.kind].values, dtype=np.float64)
            b = np.asarray(centroid.values, dtype=np.float64)
            if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
                r = 0.0
            else:
                mean, std = lib.scalers[centroid.kind]
                r = pearson((a - mean) / std, (b - mean) / std)
            best = max(best, r)
        scores[eid] = float(best)
    return scores


def vectors(width):
    """Feature values, constant about half of the time."""
    return st.one_of(
        st.lists(st.floats(-10, 10), min_size=width, max_size=width),
        st.floats(-10, 10).map(lambda v: [v] * width),
    )


@st.composite
def scalers(draw, width):
    """A scaler of `width`, the identity about half of the time; its std may
    have zero dimensions."""
    if draw(st.booleans()):
        return np.zeros(width), np.ones(width)
    mean = draw(st.lists(st.floats(-5, 5), min_size=width, max_size=width))
    std = draw(st.lists(st.sampled_from([0.0, 0.01, 0.5, 1.0, 3.0]),
                        min_size=width, max_size=width))
    return np.array(mean), np.array(std)


@st.composite
def gates(draw):
    """A library (experts of either kind, some with no centroids, rows
    constant about half of the time, and a scaler for each kind) and the
    stream's features. Doppler rows are 5 wide or, as served, 25 wide, which
    numpy sums with its eight-accumulator pairwise loop; amp_stats rows are 6."""
    widths = {D: draw(st.sampled_from([5, 25])), S: 6}
    entries = {}
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from([D, S]))
        classes = draw(st.lists(st.integers(0, 5), max_size=4, unique=True))
        rows = np.reshape([draw(vectors(widths[kind])) for _ in classes],
                          (len(classes), widths[kind]))
        entries[f"E{i}"] = template(kind, rows, classes)
    features = {kind: fv(draw(vectors(widths[kind])), kind) for kind in (D, S)}
    lib = TemplateLibrary(entries, {kind: draw(scalers(widths[kind])) for kind in (D, S)})
    return lib, features, sorted(entries)


def prepared_alone(raw, mean, std):
    """(values, sumsq) of the operand the gate correlates for the raw vector
    `raw`, by numpy's own mean and product on that row alone, or None when
    `raw` is constant."""
    if np.ptp(raw) == 0.0:
        return None
    x = (raw - mean) / std
    xc = x - x.mean()
    with np.errstate(over="ignore", under="ignore"):
        return xc.tobytes(), repr(float(xc @ xc))


@settings(max_examples=300, deadline=None)
@given(gates())
def test_scores_equal_the_reference_exactly(gate):
    """Every operand of the library's stacked pass is what preparing
    `(v - mean) / std` of its raw row alone gives, bit for bit, or None when
    that row is constant, and the scores are their definition."""
    lib, features, ids = gate
    for eid in ids:
        mean, std = lib.scalers[lib.template(eid).kind]
        expected = [prepared_alone(c.values, mean, std) for c in lib.centroids(eid).values()]
        assert [None if op is None else (op.values.tobytes(), repr(op.sumsq))
                for op in lib.operands[eid]] == expected
    assert score_experts(features, lib, ids) == reference_scores(features, lib, ids)


def test_pearson_is_called_once_per_pair_of_non_constant_raw_vectors(monkeypatch):
    """The rule the benchmark's call-count pin relies on: the gate calls
    `pearson` once for each candidate centroid whose raw row is not constant,
    when the stream's raw feature of that kind is not constant either. A
    row that is constant only after scaling is still correlated, and scores
    0.0."""
    calls = []

    def counting(a, b):
        calls.append(r := pearson(a, b))
        return r

    monkeypatch.setattr(gating, "pearson", counting)
    mean = np.arange(6.0)
    lib = TemplateLibrary(
        {"E1": template(S, [[2.0] * 6, mean + 1.0, [1.0, 0.0, 3.0, 2.0, 5.0, 4.0]]),
         "E2": template(S, [mean + 3.0]),  # constant once scaled
         "E3": template(S, np.zeros((0, 6))),
         "E4": template(D, [[0.1, 0.2, 0.3, 0.4, 0.5], [0.5, 0.1, 0.1, 0.1, 0.2]])},
        {S: (mean, np.ones(6)), D: (np.zeros(5), np.ones(5))})
    ids = ["E1", "E2", "E3", "E4"]
    for doppler, expected_calls in (([0.2] * 5, 3), ([0.3, 0.1, 0.2, 0.2, 0.2], 5)):
        features = {S: fv([1.0, 3.0, 2.0, 5.0, 4.0, 6.0], S), D: fv(doppler)}
        calls.clear()
        scores = score_experts(features, lib, ids)
        rule = sum(1 for eid in ids for c in lib.centroids(eid).values()
                   if np.ptp(c.values) > 0 and np.ptp(features[c.kind].values) > 0)
        assert len(calls) == rule == expected_calls
        assert scores["E2"] == 0.0 and calls[2] == 0.0  # E2's call
        assert scores["E3"] == NO_TEMPLATE_SCORE


@pytest.mark.parametrize("centroids,scalers", [
    ({"E1": {0: fv([0.1, 0.3, 0.6])}}, {S: (np.zeros(3), np.ones(3))}),
    ({"E1": {0: fv([0.1, 0.3, 0.6])}}, {D: (np.zeros(4), np.ones(4))}),
    ({}, {D: (np.zeros(3), np.ones(4))}),
    ({}, {D: (np.zeros((1, 3)), np.ones((1, 3)))}),
], ids=["centroid_kind_without_scaler", "centroid_wider_than_scaler",
        "mean_and_std_differ_in_shape", "scaler_not_a_vector"])
def test_library_rejects_centroids_and_scalers_that_disagree(centroids, scalers):
    with pytest.raises(ConfigurationError, match="scaler"):
        TemplateLibrary(templates(centroids), scalers)


@pytest.mark.parametrize("centroids,scalers", [
    ({}, {D: (np.array([0.0, 1e308]), np.ones(2))}),
    ({}, {D: (np.zeros(2), np.full(2, 1e-207))}),  # each scaled feature is finite; their sum is not
    ({}, {D: (np.zeros(2), np.array([1.0, 1e-300]))}),
    ({"E1": {0: fv([0.1, MAX_FEATURE])}}, {D: (np.zeros(2), np.ones(2))}),
], ids=["huge_mean", "small_std_for_the_width", "tiny_std",
        "centroid_not_below_the_largest_feature"])
def test_library_rejects_numbers_that_could_scale_a_feature_to_infinity(centroids, scalers):
    with pytest.raises(ConfigurationError, match="could overflow a feature|not below 1e\\+101"):
        TemplateLibrary(templates(centroids), scalers)


def test_library_at_its_bounds_scores_the_largest_features():
    largest = np.nextafter(MAX_FEATURE, 0.0)
    # each feature value scales to about 4e307, and twice their sum, 1.6e308, is finite
    std = np.full(2, (MAX_FEATURE + 1.0) / 4e307)
    lib = TemplateLibrary({"E1": template(D, [[-largest, largest]])},
                          {D: (np.array([1.0, -1.0]), std)})
    scores = score_experts({D: fv([largest, -largest])}, lib, ["E1"])  # no RuntimeWarning
    assert scores == {"E1": -1.0}


def test_library_keeps_a_zero_std_as_one_and_its_scalers_read_only():
    lib = TemplateLibrary({}, {D: ([1.0, 2.0], [0.0, 0.5])})
    mean, std = lib.scalers[D]
    assert mean.tolist() == [1.0, 2.0] and std.tolist() == [1.0, 0.5]
    with pytest.raises(TypeError):
        lib.scalers[S] = (mean, std)


# ---------------------------------------------------------------------------
# select_top_k
# ---------------------------------------------------------------------------

def test_select_orders_by_score_desc():
    scores = {"E3": 0.9, "E5": 0.7, "E7": 0.8, "E8": 0.6}
    assert select_top_k(scores, 3) == ["E3", "E7", "E5"]


def test_select_fewer_candidates_than_k():
    assert select_top_k({"E4": 0.2, "E1": 0.5}, 3) == ["E1", "E4"]


def test_select_tie_breaks_lexicographically():
    assert select_top_k({"E4": 0.5, "E2": 0.5}, 1) == ["E2"]


def test_select_k_must_be_positive():
    with pytest.raises(ConfigurationError):
        select_top_k({"E1": 0.5}, 0)


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def small_registry():
    return [
        ExpertSpec("A1", D, ClassifierKind.KNN, 400.0),
        ExpertSpec("A2", D, ClassifierKind.KNN, 200.0),
        ExpertSpec("A3", D, ClassifierKind.KNN, 100.0),
    ]


def small_library(rng):
    return library({
        "A1": {0: fv(rng.uniform(size=4))},
        "A2": {0: fv(rng.uniform(size=4))},
        "A3": {0: fv(rng.uniform(size=4))},
    })


def test_decide_normal_mode_respects_rate():
    rng = np.random.default_rng(2)
    lib = small_library(rng)
    x = {D: fv(rng.uniform(size=4))}
    decision = decide(small_registry(), lib, x, 250.0)
    assert decision.mode is GatingMode.NORMAL
    assert decision.eligible == {"A2", "A3"}
    assert set(decision.selected) <= decision.eligible
    assert sum(decision.weights) == pytest.approx(1.0, abs=1e-9)


def test_decide_fallback_over_full_registry():
    rng = np.random.default_rng(3)
    lib = small_library(rng)
    x = {D: fv(rng.uniform(size=4))}
    decision = decide(small_registry(), lib, x, 50.0)
    assert decision.mode is GatingMode.FALLBACK
    assert decision.eligible == set()
    assert len(decision.selected) == 3


@pytest.mark.parametrize("registry", [default_registry(), small_registry()],
                         ids=["default", "custom"])
def test_candidates_are_what_decide_admits_and_scores(registry):
    rng = np.random.default_rng(6)
    lib = library({spec.id: {0: fv(rng.uniform(size=4))} for spec in registry})
    x = {D: fv(rng.uniform(size=4))}
    fallbacks = 0
    for rate in [50.0, 99.9, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0, 450.0, 500.0, 600.0, 1e4]:
        eligible, scored = candidates(registry, rate)
        decision = decide(registry, lib, x, rate)
        assert eligible == decision.eligible and type(eligible) is frozenset
        assert scored == sorted(decision.scores)
        fallbacks += decision.mode is GatingMode.FALLBACK
    assert fallbacks >= 2  # the grid reaches the fallback mode of both registries


def test_decide_weights_are_clipped_normalized_scores():
    rng = np.random.default_rng(4)
    lib = small_library(rng)
    x = {D: fv(rng.uniform(size=4))}
    decision = decide(small_registry(), lib, x, 500.0)
    clipped = np.maximum([decision.scores[eid] for eid in decision.selected], 0.0)
    expected = clipped / clipped.sum() if clipped.sum() > 0 else np.full(3, 1 / 3)
    assert np.allclose(decision.weights, expected, atol=1e-12)


def test_weight_rule_frozen_example():
    # clip negatives, normalize the rest: {0.9, 0.6, -0.2} -> {0.6, 0.4, 0.0}
    clipped = np.maximum([0.9, 0.6, -0.2], 0.0)
    assert np.allclose(clipped / clipped.sum(), [0.6, 0.4, 0.0])


def test_decide_uniform_when_all_scores_clip_to_zero():
    rng = np.random.default_rng(5)
    lib = small_library(rng)
    x = {D: fv([0.5, 0.5, 0.5, 0.5])}  # zero variance, all scores 0
    decision = decide(small_registry(), lib, x, 500.0)
    assert np.allclose(decision.weights, [1 / 3] * 3)


def test_decide_empty_registry_rejected():
    with pytest.raises(ConfigurationError):
        decide([], TemplateLibrary({}, {}), {}, 100.0)


def test_decide_deterministic():
    rng = np.random.default_rng(6)
    lib = small_library(rng)
    x = {D: fv(rng.uniform(size=4))}
    a = decide(small_registry(), lib, x, 250.0)
    b = decide(small_registry(), lib, x, 250.0)
    assert a.selected == b.selected and a.weights == b.weights and a.scores == b.scores


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------

def test_fuse_weighted_one_hots():
    p2 = np.zeros(6); p2[2] = 1.0
    p3 = np.zeros(6); p3[3] = 1.0
    fused, pred = fuse([p2, p3], [0.7, 0.3])
    assert pred == 2
    assert fused[2] == pytest.approx(0.7) and fused[3] == pytest.approx(0.3)


def test_fuse_single_expert_identity():
    p = np.array([0.1, 0.2, 0.7])
    fused, pred = fuse([p], [1.0])
    assert np.array_equal(fused, p) and pred == 2


def test_fuse_uniform_agreeing_experts():
    ps = [np.array([0.1, 0.6, 0.3]), np.array([0.2, 0.7, 0.1]), np.array([0.0, 0.8, 0.2])]
    fused, pred = fuse(ps, [1 / 3] * 3)
    assert pred == 1
    assert fused[1] == pytest.approx(np.mean([0.6, 0.7, 0.8]))


def test_fuse_tie_prefers_lowest_class():
    fused, pred = fuse([np.array([0.5, 0.5])], [1.0])
    assert pred == 0


def test_fuse_argmax_invariant_under_score_scaling():
    rng = np.random.default_rng(8)
    ps = [rng.dirichlet(np.ones(5)) for _ in range(3)]
    scores = np.array([0.8, 0.5, 0.1])
    for alpha in (0.5, 1.0, 7.0):
        w = np.maximum(scores * alpha, 0)
        w = w / w.sum()
        _, pred = fuse(ps, w)
        assert pred == fuse(ps, np.maximum(scores, 0) / np.maximum(scores, 0).sum())[1]


def test_fuse_length_mismatch():
    with pytest.raises(InputError):
        fuse([np.array([1.0, 0.0])], [0.5, 0.5])
    with pytest.raises(InputError):
        fuse([], [])


# ---------------------------------------------------------------------------
# registry io / template csv
# ---------------------------------------------------------------------------

def test_registry_round_trip(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"experts": [spec_to_jsonable(s) for s in default_registry()]}))
    loaded = load_registry(path)
    assert loaded == default_registry()


def test_registry_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "registry.json"
    entries = [spec_to_jsonable(s) for s in default_registry()]
    entries[1]["id"] = "E1"
    path.write_text(json.dumps({"experts": entries}))
    with pytest.raises(ConfigurationError):
        load_registry(path)


def test_registry_unknown_classifier_rejected(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"experts": [{
        "id": "E1", "feature": "doppler", "classifier": "boosting", "required_rate": 100.0,
    }]}))
    with pytest.raises(ConfigurationError):
        load_registry(path)


def test_registry_malformed_json_rejected(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_registry(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -300.0])
@pytest.mark.parametrize("field", ["required_rate"])
def test_spec_rejects_nonfinite_or_nonpositive_rates(field, bad):
    with pytest.raises(ConfigurationError, match=field):
        ExpertSpec("X", D, ClassifierKind.FOREST, **{field: bad})


def test_spec_has_one_rate():
    assert [f.name for f in dataclasses.fields(ExpertSpec)] == [
        "id", "feature_kind", "classifier_kind", "required_rate", "hyperparams"]
    assert set(spec_to_jsonable(default_registry()[0])) == {
        "id", "feature", "classifier", "required_rate", "hyperparams"}


@pytest.mark.parametrize("kind,hyperparams,ok", [
    (ClassifierKind.KNN, {"k": 5}, True),
    (ClassifierKind.LINEAR_SVM, {"epochs": 10, "step_size": 1, "l2": 0.5}, True),
    (ClassifierKind.FOREST, {"num_trees": 3, "max_depth": 2, "bootstrap": False}, True),
    (ClassifierKind.KNN, {"k": 5.0}, False),
    (ClassifierKind.KNN, {"k": True}, False),
    (ClassifierKind.KNN, {"epochs": 5}, False),
    (ClassifierKind.LINEAR_SVM, {"step_size": float("nan")}, False),
    (ClassifierKind.LINEAR_SVM, {"l2": "0.1"}, False),
    (ClassifierKind.FOREST, {"bootstrap": 0}, False),
    (ClassifierKind.FOREST, {"max_depth": None}, False),
    (ClassifierKind.KNN, {"k": 1}, True),
    (ClassifierKind.KNN, {"k": 0}, False),
    (ClassifierKind.LINEAR_SVM, {"epochs": 10_000, "l2": 0.0, "step_size": 1e300}, True),
    (ClassifierKind.LINEAR_SVM, {"epochs": 10_001}, False),
    (ClassifierKind.LINEAR_SVM, {"step_size": 0.0}, False),
    (ClassifierKind.LINEAR_SVM, {"l2": -1e-3}, False),
    (ClassifierKind.LINEAR_SVM, {"step_size": 2, "l2": 0.5}, False),  # shrink factor 0
    (ClassifierKind.LINEAR_SVM, {"step_size": 1e300, "l2": 1e300}, False),
    (ClassifierKind.FOREST, {"num_trees": 0}, False),
    (ClassifierKind.FOREST, {"num_trees": 1001}, False),
    (ClassifierKind.FOREST, {"max_depth": 64}, True),
    (ClassifierKind.FOREST, {"max_depth": 65}, False),
])
def test_spec_checks_hyperparam_names_and_types(kind, hyperparams, ok):
    spec = {"id": "X", "feature": "doppler", "classifier": kind.value, "required_rate": 300.0,
            "hyperparams": hyperparams}
    if ok:
        assert spec_from_jsonable(spec).hyperparams == hyperparams
    else:
        with pytest.raises(ConfigurationError):
            spec_from_jsonable(spec)


def test_validate_registry_duplicate():
    reg = default_registry() + [ExpertSpec("E1", D, ClassifierKind.KNN, 100.0)]
    with pytest.raises(ConfigurationError):
        validate_registry(reg)

