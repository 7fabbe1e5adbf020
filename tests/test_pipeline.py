import hashlib
import json
import math
import multiprocessing
import os
import struct
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from moesense import pipeline
from moesense.classifiers import predict_posterior
from moesense.errors import ConfigurationError, FormatError, TrainingError
from moesense.features import DopplerConfig, FeatureKind
from moesense.gating import (
    ClassifierKind,
    ExpertSpec,
    GatingMode,
    decide,
    default_registry,
    fuse,
)
from moesense.pipeline import (
    BUNDLE_MAGIC,
    BUNDLE_VERSION,
    TrainedBundle,
    _extract_feature_table,
    build_bundle,
    bundle_from_jsonable,
    bundle_to_jsonable,
    deserialize_bundle,
    detect,
    expert_input_rate,
    expert_posterior,
    extract_feature,
    load_bundle,
    save_bundle,
    serialize_bundle,
    split_train_val,
)
from moesense.simulate import (
    ScenarioConfig,
    TargetPath,
    decimate,
    serialize_stream,
    synthesize_stream,
)

D = FeatureKind.DOPPLER_ENERGY
S = FeatureKind.AMPLITUDE_STATS


def make_streams(k_max, per_class, seed, **cfg_kw):
    defaults = dict(packet_rate=1000.0, duration=1.0, num_subcarriers=8, snr_db=15.0)
    defaults.update(cfg_kw)
    rng = np.random.default_rng(seed)
    streams, labels = [], []
    for cls in range(k_max + 1):
        for _ in range(per_class):
            cfg = ScenarioConfig(num_targets=cls, rng_seed=int(rng.integers(2**63)), **defaults)
            streams.append(synthesize_stream(cfg))
            labels.append(cls)
    return streams, labels


@pytest.fixture(scope="module")
def small_bundle():
    streams, labels = make_streams(2, 12, seed=7)
    tr_s, tr_l, va_s, va_l = split_train_val(streams, labels, seed=7)
    return build_bundle(tr_s, tr_l, va_s, va_l, default_registry(), seed=7)


@pytest.fixture(scope="module")
def probe_stream():
    cfg = ScenarioConfig(num_targets=1, packet_rate=1000.0, duration=1.0,
                         num_subcarriers=8, rng_seed=99)
    return synthesize_stream(cfg)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_is_stratified_and_seeded():
    streams, labels = make_streams(2, 8, seed=1)
    tr_s, tr_l, va_s, va_l = split_train_val(streams, labels, val_fraction=0.25, seed=3)
    assert len(tr_l) + len(va_l) == len(labels)
    for cls in range(3):
        assert tr_l.count(cls) == 6 and va_l.count(cls) == 2
    again = split_train_val(streams, labels, val_fraction=0.25, seed=3)
    assert [s.seed for s in again[0]] == [s.seed for s in tr_s]


# ---------------------------------------------------------------------------
# build_bundle
# ---------------------------------------------------------------------------

def test_bundle_has_model_and_template_per_expert(small_bundle):
    ids = {spec.id for spec in small_bundle.registry}
    assert set(small_bundle.models) == ids
    for eid in ids:
        assert eid in small_bundle.templates
    assert set(small_bundle.metadata["validation_accuracy"]) == ids
    assert small_bundle.metadata["k_max"] == 2


def test_bundle_build_deterministic():
    streams, labels = make_streams(1, 8, seed=21)
    tr_s, tr_l, va_s, va_l = split_train_val(streams, labels, seed=21)
    reg = default_registry()
    a = build_bundle(tr_s, tr_l, va_s, va_l, reg, seed=5)
    b = build_bundle(iter(tr_s), tr_l, iter(va_s), va_l, reg, seed=5)
    assert serialize_bundle(a) == serialize_bundle(b)


def use_cpus(monkeypatch, n):
    """Make `build_bundle` see `n` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def small_split(seed):
    streams, labels = make_streams(1, 8, seed=seed)
    return split_train_val(streams, labels, seed=seed)


@pytest.mark.parametrize("registry", [
    default_registry(),
    [ExpertSpec("K", D, ClassifierKind.KNN, 300.0, hyperparams={"k": 3}),
     ExpertSpec("S", S, ClassifierKind.LINEAR_SVM, 500.0, hyperparams={"epochs": 20}),
     ExpertSpec("T", S, ClassifierKind.FOREST, 300.0, hyperparams={"num_trees": 4})],
], ids=["default", "knn_svm_forest"])
def test_bundle_bytes_do_not_depend_on_the_worker_count(monkeypatch, registry):
    split = small_split(23)
    built = {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        built[cpus] = serialize_bundle(build_bundle(*split, registry, seed=9))
    assert built[1] == built[2] == built[3]


def test_no_training_worker_outlives_build_bundle(monkeypatch):
    use_cpus(monkeypatch, 2)
    split = small_split(25)
    build_bundle(*split, default_registry(), seed=1)
    assert multiprocessing.active_children() == []

    def fails(data, **hyperparams):
        raise TrainingError("knn failed")

    monkeypatch.setattr(pipeline, "train_knn", fails)
    with pytest.raises(TrainingError, match="knn failed"):
        build_bundle(*split, default_registry(), seed=1)
    assert multiprocessing.active_children() == []


def test_dead_training_worker_is_training_error(monkeypatch):
    parent = os.getpid()

    def dies(data, **kwargs):
        assert os.getpid() != parent, "the expert trained in the calling process"
        os._exit(1)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "train_forest", dies)
    with pytest.raises(TrainingError, match="worker died"):
        build_bundle(*small_split(25), default_registry(), seed=1)
    assert multiprocessing.active_children() == []


def test_pool_broken_while_submitting_is_training_error(monkeypatch):
    class BreaksOnSubmit(pipeline.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            raise BrokenProcessPool("a worker died before all jobs were submitted")

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", BreaksOnSubmit)
    with pytest.raises(TrainingError, match="worker died"):
        build_bundle(*small_split(25), default_registry(), seed=1)
    assert multiprocessing.active_children() == []


def test_feature_table_equals_decimate_then_extract():
    # 1000 pkts/s base: 400 and 500 share stride 2 (400 is not integral), 300 is stride 3
    streams, labels = make_streams(2, 2, seed=17)
    cfg = DopplerConfig()
    needed = {(spec.nominal_rate, spec.feature_kind) for spec in default_registry()}
    assert (400.0, D) in needed and (300.0, S) in needed
    table = _extract_feature_table(streams, labels, needed, cfg)
    assert set(table) == needed
    for (rate, kind), features in table.items():
        assert len(features) == len(streams)
        for stream, got in zip(streams, features):
            want = extract_feature(decimate(stream, rate), kind, cfg)
            assert got.kind is want.kind
            assert got.values.tobytes() == want.values.tobytes(), (rate, kind)
            assert got.source_rate == want.source_rate


def test_feature_table_fingerprint_hashes_the_stream_containers():
    streams, labels = make_streams(1, 2, seed=19)
    digest = hashlib.sha256()
    _extract_feature_table(streams, labels, {(500.0, S)}, DopplerConfig(), digest)
    want = hashlib.sha256()
    for stream, label in zip(streams, labels):
        want.update(serialize_stream(stream))
        want.update(str(label).encode())
    assert digest.hexdigest() == want.hexdigest()


def test_build_requires_every_class():
    streams, labels = make_streams(2, 6, seed=31)
    keep = [i for i, l in enumerate(labels) if l != 1]
    with pytest.raises(TrainingError):
        build_bundle([streams[i] for i in keep], [labels[i] for i in keep],
                     streams[:3], labels[:3], default_registry(), seed=1)


def test_build_requires_nonempty_sets():
    streams, labels = make_streams(1, 4, seed=33)
    with pytest.raises(TrainingError):
        build_bundle([], [], streams, labels, default_registry(), seed=1)
    with pytest.raises(TrainingError):
        build_bundle(streams, labels, [], [], default_registry(), seed=1)


def test_all_wrong_class_omits_centroid():
    # class 2 validation streams carry a second path of zero amplitude, so
    # they look exactly like one-target scenes and the expert misses them all
    registry = [ExpertSpec("K1", D, ClassifierKind.KNN, 300.0, hyperparams={"k": 1})]
    rng = np.random.default_rng(4)

    def scene(cls, paths):
        cfg = ScenarioConfig(num_targets=cls, packet_rate=1000.0, duration=1.0,
                             num_subcarriers=8, snr_db=float("inf"),
                             rng_seed=int(rng.integers(2**63)))
        return synthesize_stream(cfg, paths)

    train_s, train_l = [], []
    for _ in range(4):
        train_s.append(scene(0, []))
        train_l.append(0)
        train_s.append(scene(1, [TargetPath(20.0, 0.9, float(rng.uniform(0, 6)), 20.0)]))
        train_l.append(1)
        train_s.append(scene(2, [TargetPath(20.0, 0.9, float(rng.uniform(0, 6)), 20.0),
                                 TargetPath(40.0, 0.9, float(rng.uniform(0, 6)), 30.0)]))
        train_l.append(2)

    val_s, val_l = [], []
    for _ in range(3):
        val_s.append(scene(0, []))
        val_l.append(0)
        val_s.append(scene(1, [TargetPath(20.0, 0.9, float(rng.uniform(0, 6)), 25.0)]))
        val_l.append(1)
        val_s.append(scene(2, [TargetPath(20.0, 0.9, float(rng.uniform(0, 6)), 25.0),
                               TargetPath(40.0, 0.0, 0.0, 30.0)]))  # invisible second path
        val_l.append(2)

    bundle = build_bundle(train_s, train_l, val_s, val_l, registry, seed=2)
    centroids = bundle.templates.centroids("K1")
    assert 2 not in centroids
    assert {0, 1} <= set(centroids)


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def test_detect_report_consistency(small_bundle, probe_stream):
    report = detect(probe_stream, 500.0, small_bundle)
    assert report.mode is GatingMode.NORMAL
    assert 0 <= report.predicted_count <= 2
    assert len(report.decision.selected) <= 3
    assert sum(report.decision.weights) == pytest.approx(1.0, abs=1e-9)
    assert report.fused.sum() == pytest.approx(1.0, abs=1e-9)
    assert report.predicted_count == int(np.argmax(report.fused))
    assert set(report.expert_posteriors) == set(report.decision.selected)


def test_detect_fallback_total(small_bundle, probe_stream):
    report = detect(probe_stream, 50.0, small_bundle)
    assert report.mode is GatingMode.FALLBACK
    assert report.decision.eligible == frozenset()
    assert 0 <= report.predicted_count <= 2


def test_detect_deterministic(small_bundle, probe_stream):
    a = detect(probe_stream, 400.0, small_bundle)
    b = detect(probe_stream, 400.0, small_bundle)
    assert a.decision.selected == b.decision.selected
    assert a.decision.weights == b.decision.weights
    assert np.array_equal(a.fused, b.fused)


def test_detect_equals_manual_composition(small_bundle, probe_stream):
    rate = 400.0
    report = detect(probe_stream, rate, small_bundle)

    observed = decimate(probe_stream, rate)
    cfg = small_bundle.doppler_config()
    features = {
        D: extract_feature(observed, D, cfg),
        S: extract_feature(observed, S, cfg),
    }
    decision = decide(small_bundle.registry, small_bundle.templates, features, rate)
    posteriors = []
    for eid in decision.selected:
        spec = small_bundle.spec(eid)
        inp = decimate(probe_stream, expert_input_rate(spec, rate))
        posteriors.append(predict_posterior(small_bundle.models[eid],
                                            extract_feature(inp, spec.feature_kind, cfg)))
    fused, predicted = fuse(posteriors, decision.weights)

    assert report.decision.selected == decision.selected
    assert report.decision.weights == decision.weights
    assert np.array_equal(report.fused, fused)
    assert report.predicted_count == predicted


def test_expert_consumes_its_training_rate(small_bundle, probe_stream):
    # Decimating an already-decimated stream compounds the integer strides:
    # 1000 -> 500 -> 300 keeps every packet of the 500 pkts/s stream, whereas
    # training fed the 300 pkts/s experts every third packet (333.3 pkts/s).
    cfg = small_bundle.doppler_config()
    rates = (300.0, 400.0, 500.0, 600.0, 1000.0)
    trained_on = {}
    for spec in small_bundle.registry:
        training_input = decimate(probe_stream, spec.nominal_rate)
        trained_on[spec.id] = predict_posterior(
            small_bundle.models[spec.id], extract_feature(training_input, spec.feature_kind, cfg))
        for rate in rates:
            if rate >= spec.nominal_rate:
                served = expert_posterior(probe_stream, rate, small_bundle, spec.id)
                assert np.array_equal(served, trained_on[spec.id]), (spec.id, rate)
    for rate in rates:
        report = detect(probe_stream, rate, small_bundle)
        for eid, served in report.expert_posteriors.items():
            if rate >= small_bundle.spec(eid).nominal_rate:
                assert np.array_equal(served, trained_on[eid]), (eid, rate)


def test_detect_rate_above_stream_rejected(small_bundle, probe_stream):
    from moesense.errors import RateError
    with pytest.raises(RateError):
        detect(probe_stream, 2000.0, small_bundle)


# ---------------------------------------------------------------------------
# bundle container
# ---------------------------------------------------------------------------

def test_bundle_round_trip(tmp_path, small_bundle, probe_stream):
    path = tmp_path / "bundle.moe"
    save_bundle(small_bundle, path)
    loaded = load_bundle(path)
    assert serialize_bundle(loaded) == serialize_bundle(small_bundle)
    assert bundle_to_jsonable(loaded) == bundle_to_jsonable(small_bundle)
    for rate in (500.0, 300.0, 50.0):
        a = detect(probe_stream, rate, small_bundle)
        b = detect(probe_stream, rate, loaded)
        assert a.predicted_count == b.predicted_count
        assert np.array_equal(a.fused, b.fused)


def test_bundle_save_twice_identical(tmp_path, small_bundle):
    p1, p2 = tmp_path / "a.moe", tmp_path / "b.moe"
    save_bundle(small_bundle, p1)
    save_bundle(small_bundle, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bundle_bad_magic(small_bundle):
    data = serialize_bundle(small_bundle)
    with pytest.raises(FormatError):
        deserialize_bundle(b"NOPE" + data[4:])


def test_bundle_truncated(small_bundle):
    data = serialize_bundle(small_bundle)
    with pytest.raises(FormatError):
        deserialize_bundle(data[:-20])
    with pytest.raises(FormatError):
        deserialize_bundle(data[:6])


def test_bundle_version_mismatch(small_bundle):
    data = serialize_bundle(small_bundle)
    header = struct.Struct("<4sIQ")
    magic, version, length = header.unpack_from(data)
    for forged_version in (1, version + 1):  # version 1 held forests as nested dicts
        forged = header.pack(magic, forged_version, length) + data[header.size:]
        with pytest.raises(FormatError):
            deserialize_bundle(forged)


def test_bundle_registry_model_mismatch(small_bundle):
    models = dict(small_bundle.models)
    models.pop("E1")
    with pytest.raises(ConfigurationError):
        TrainedBundle(small_bundle.registry, models, small_bundle.templates,
                      small_bundle.metadata)


def fresh_payload(bundle):
    """A payload that shares no list or dict with `bundle`."""
    return json.loads(json.dumps(bundle_to_jsonable(bundle)))


def forge(payload, infinity="Infinity"):
    """Bundle bytes holding `payload`, each infinity written as `infinity`."""
    body = json.dumps(payload, sort_keys=True).replace("Infinity", infinity).encode("utf-8")
    return struct.pack("<4sIQ", BUNDLE_MAGIC, BUNDLE_VERSION, len(body)) + body


def test_payload_edits_leave_the_bundle_unchanged(small_bundle):
    before = serialize_bundle(small_bundle)
    payload = bundle_to_jsonable(small_bundle)
    rebuilt = bundle_from_jsonable(payload)
    payload["metadata"]["k_max"] = 99
    payload["metadata"]["validation_accuracy"]["E1"] = -1.0
    payload["registry"][0]["hyperparams"]["epochs"] = 1
    assert serialize_bundle(small_bundle) == before
    assert serialize_bundle(rebuilt) == before


def test_forged_bundle_unchanged_loads(small_bundle):
    payload = fresh_payload(small_bundle)
    assert bundle_to_jsonable(deserialize_bundle(forge(payload))) == payload


def _last_inner_node(tree):
    return max(i for i, f in enumerate(tree["feature"]) if f >= 0)


HOSTILE_TREES = {
    "right_child_is_parent": lambda t, i: t["right"].__setitem__(i, i),
    "right_child_before_parent": lambda t, i: t["right"].__setitem__(i, i - 1),
    "right_child_past_end": lambda t, i: t["right"].__setitem__(i, len(t["feature"])),
    "feature_too_large": lambda t, i: t["feature"].__setitem__(i, 25),
    "feature_below_leaf_marker": lambda t, i: t["feature"].__setitem__(i, -2),
    "unequal_lengths": lambda t, i: t["threshold"].append(0.0),
    "leaf_rows_too_wide": lambda t, i: [row.append(0.0) for row in t["leaves"]],
    "one_leaf_row_too_wide": lambda t, i: t["leaves"][0].append(0.0),
    "leaf_row_too_narrow": lambda t, i: [row.pop() for row in t["leaves"]],
}


@pytest.mark.parametrize("case", sorted(HOSTILE_TREES))
def test_hostile_forest_is_format_error(small_bundle, case):
    payload = fresh_payload(small_bundle)
    forest = payload["models"]["E3"]  # doppler forest over 25 bins
    assert forest["type"] == "forest" and forest["n_features"] == 25
    tree = forest["trees"][0]
    inner = _last_inner_node(tree)
    assert inner > 0
    HOSTILE_TREES[case](tree, inner)
    with pytest.raises(FormatError):
        deserialize_bundle(forge(payload))


def _set(path, value):
    def mutate(payload):
        *parents, last = path
        node = payload
        for key in parents:
            node = node[key]
        node[last] = value(node[last]) if callable(value) else value
    return mutate


DISAGREEING_PARTS = {
    # the models take 25 Doppler bins; detect would fail on a broadcast
    "doppler_bins_20": _set(("metadata", "doppler_num_bins"), 20),
    "k_max_off_by_one": _set(("metadata", "k_max"), lambda k: k + 1),
    "k_max_infinite": _set(("metadata", "k_max"), float("inf")),
    "doppler_max_freq_nan": _set(("metadata", "doppler_max_freq_hz"), float("nan")),
    "forest_registered_as_knn": _set(("registry", 2, "classifier"), "knn"),
    "doppler_expert_registered_as_amp_stats": _set(("registry", 0, "feature"), "amp_stats"),
    "centroid_too_short": _set(("templates", "E1", "0", "values"), lambda v: v[:-1]),
    "scaler_too_short": _set(("scalers", "amp_stats", "mean"), lambda v: v[:-1]),
    "svm_bias_missing": _set(("models", "E1", "biases"), lambda v: v[:-1]),
    "knn_label_out_of_range": _set(("models", "E6", "labels", 0), 7),
    "forest_without_trees": _set(("models", "E3", "trees"), []),
    "model_missing": lambda payload: payload["models"].pop("E1"),
    "registry_entry_without_id": lambda payload: payload["registry"][0].pop("id"),
    # a NaN required rate would drop the expert from every eligible set
    "required_rate_nan": _set(("registry", 2, "required_rate"), float("nan")),
    "nominal_rate_nan": _set(("registry", 2, "nominal_rate"), float("nan")),
    "nominal_rate_negative": _set(("registry", 2, "nominal_rate"), -500.0),
    # without scalers the gate would correlate raw vectors, near 1 for everyone
    "scalers_missing": lambda payload: payload.pop("scalers"),
    "doppler_scaler_missing": lambda payload: payload["scalers"].pop("doppler"),
}


@pytest.mark.parametrize("case", sorted(DISAGREEING_PARTS))
def test_bundle_parts_disagree_is_format_error(small_bundle, case):
    payload = fresh_payload(small_bundle)
    assert [spec["id"] for spec in payload["registry"]][:3] == ["E1", "E2", "E3"]
    DISAGREEING_PARTS[case](payload)
    with pytest.raises(FormatError):
        deserialize_bundle(forge(payload))


# A number of each part of a bundle, by its path in the payload.
NUMBERS = {
    "scaler_mean": ("scalers", "amp_stats", "mean", 0),
    "scaler_std": ("scalers", "doppler", "std", 1),
    "svm_weight": ("models", "E1", "weights", 0, 0),
    "svm_bias": ("models", "E2", "biases", 1),
    "svm_mean": ("models", "E2", "mean", 2),
    "tree_threshold": ("models", "E3", "trees", 0, "threshold", 0),
    "leaf_value": ("models", "E4", "trees", 0, "leaves", 0, 1),
    "knn_matrix_value": ("models", "E6", "matrix", 3, 4),
    "centroid_value": ("templates", "E1", "0", "values", 2),
    "centroid_source_rate": ("templates", "E4", "0", "source_rate"),
    "doppler_max_freq_hz": ("metadata", "doppler_max_freq_hz"),
    "validation_accuracy": ("metadata", "validation_accuracy", "E5"),
    "seed": ("metadata", "seed"),
}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("part", sorted(NUMBERS))
def test_non_finite_number_is_format_error(small_bundle, part, literal):
    payload = fresh_payload(small_bundle)
    *parents, last = NUMBERS[part]
    node = payload
    for key in parents:
        node = node[key]
    assert type(node[last]) in (int, float)
    node[last] = math.inf  # json writes Infinity, which forge rewrites as `literal`
    with pytest.raises(FormatError):
        deserialize_bundle(forge(payload, literal))
