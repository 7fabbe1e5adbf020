import numpy as np
import pytest

from moesense.classifiers import predict_posterior
from moesense.errors import ConfigurationError, FormatError, TrainingError
from moesense.features import FeatureKind
from moesense.gating import (
    ClassifierKind,
    ExpertSpec,
    GatingMode,
    decide,
    default_registry,
    fuse,
)
from moesense.pipeline import (
    TrainedBundle,
    build_bundle,
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
from moesense.simulate import ScenarioConfig, TargetPath, decimate, synthesize_stream

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
    decision = decide(small_bundle.registry, small_bundle.templates, features, rate, 3)
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
    import struct
    data = serialize_bundle(small_bundle)
    header = struct.Struct("<4sIQ")
    magic, version, length = header.unpack_from(data)
    forged = header.pack(magic, version + 1, length) + data[header.size:]
    with pytest.raises(FormatError):
        deserialize_bundle(forged)


def test_bundle_registry_model_mismatch(small_bundle):
    models = dict(small_bundle.models)
    models.pop("E1")
    with pytest.raises(ConfigurationError):
        TrainedBundle(small_bundle.registry, models, small_bundle.templates,
                      small_bundle.metadata)
