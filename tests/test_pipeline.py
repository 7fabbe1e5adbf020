import gc
import hashlib
import json
import math
import multiprocessing
import os
import struct
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moesense import cli, evaluate, gating, pipeline, simulate
from moesense.classifiers import ForestModel, predict_posterior
from moesense.errors import (ConfigurationError, FormatError, InputError, MoeSenseError, RateError,
                             TrainingError)
from moesense.evaluate import evaluate_rate_sweep, evaluate_target_sweep
from moesense.features import DopplerConfig, FeatureKind, mean_amplitude_series
from moesense.gating import (
    ClassifierKind,
    ExpertSpec,
    GatingMode,
    candidates,
    decide,
    default_registry,
    expert_input_rate,
    fuse,
)
from moesense.pipeline import (
    Blocks,
    StreamFeatures,
    TrainedBundle,
    _read_streams,
    build_bundle,
    bundle_from_jsonable,
    bundle_to_jsonable,
    deserialize_bundle,
    detect,
    extract_feature,
    load_bundle,
    save_bundle,
    serialize_bundle,
    split_train_val,
)
from moesense.simulate import (
    MAX_SAMPLE,
    CsiStream,
    ScenarioConfig,
    TargetPath,
    decimate,
    decimation_stride,
    deserialize_stream,
    serialize_stream,
    synthesize_stream,
)
from reference import _feature as reference_feature
from reference import _posterior as reference_posterior
from reference import reference_detect

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


def bundle_split(seed):
    """The train/validation split the seed-`seed` module bundles are built from."""
    streams, labels = make_streams(2, 12, seed=seed)
    return split_train_val(streams, labels, seed=seed)


@pytest.fixture(scope="module")
def small_bundle():
    return build_bundle(*bundle_split(7), default_registry(), seed=7)


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
    assert [s.samples.tobytes() for s in again[0]] == [s.samples.tobytes() for s in tr_s]


def test_split_refuses_more_items_than_labels():
    with pytest.raises(InputError, match="3 items but 2 labels"):
        split_train_val(["a", "b", "c"], [0, 1])


# ---------------------------------------------------------------------------
# build_bundle
# ---------------------------------------------------------------------------

def test_every_prepared_centroid_correlates_without_a_rescale(small_bundle, probe_stream):
    """Each centroid the gate correlates, and the probe's feature of each kind,
    is a `pearson` operand that is not constant and whose sum of squares lies
    in the safe range, so each correlation is one dot product and one division."""
    def in_range(op):
        return not op.constant and 2.0**-500 < op.sumsq < 2.0**500

    operands = [op for ops in small_bundle.templates.operands.values() for op in ops]
    assert all(op is None or in_range(op) for op in operands)
    assert sum(op is not None for op in operands) > len(small_bundle.registry)
    observed = decimate(probe_stream, 300.0)
    for kind in FeatureKind:
        row = extract_feature(observed, kind, small_bundle.doppler_config()).values[None]
        assert in_range(small_bundle.templates.prepare(kind, row)[0])


def test_bundle_has_model_and_template_per_expert(small_bundle):
    ids = {spec.id for spec in small_bundle.registry}
    assert set(small_bundle.models) == ids
    assert small_bundle.templates.expert_ids() == sorted(ids)
    assert set(small_bundle.metadata["validation_accuracy"]) == ids
    assert small_bundle.metadata["k_max"] == 2


def test_bundle_spec_of_an_unknown_id_raises(small_bundle):
    with pytest.raises(ConfigurationError, match="unknown expert id nope"):
        small_bundle.spec("nope")


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


def test_training_workers_run_at_the_lowest_priority(monkeypatch):
    def reports_niceness(data, **kwargs):
        raise TrainingError(f"trained at niceness {os.nice(0)}")

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "train_forest", reports_niceness)
    with pytest.raises(TrainingError, match="trained at niceness 19"):
        build_bundle(*small_split(25), default_registry(), seed=1)


def test_pool_broken_while_submitting_is_training_error(monkeypatch):
    class BreaksOnSubmit(pipeline.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            raise BrokenProcessPool("a worker died before all jobs were submitted")

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", BreaksOnSubmit)
    with pytest.raises(TrainingError, match="worker died"):
        build_bundle(*small_split(25), default_registry(), seed=1)
    assert multiprocessing.active_children() == []
    # the validation streams are still read, and their error comes first
    train_streams, train_labels, val_streams, val_labels = small_split(25)
    with pytest.raises(InputError, match="streams but"):
        build_bundle(train_streams, train_labels, val_streams[:-1], val_labels,
                     default_registry(), seed=1)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("split", ["training", "validation"])
def test_a_stream_left_over_after_the_last_label_is_refused(split):
    streams, labels = make_streams(1, 3, seed=31)
    five, three = [streams[i] for i in (0, 3, 1, 4, 2)], [0, 1, 0]
    train_streams, train_labels, val_streams, val_labels = small_split(25)
    if split == "training":
        train_streams, train_labels = iter(five), three
    else:
        val_streams, val_labels = iter(five), three
    registry = [ExpertSpec("K", D, ClassifierKind.KNN, 300.0, hyperparams={"k": 1})]
    with pytest.raises(InputError, match="more than 3 streams but 3 labels"):
        build_bundle(train_streams, train_labels, val_streams, val_labels, registry, seed=1)
    assert multiprocessing.active_children() == []


def fails_once_released(ran_log, release):
    """A trainer that logs its expert, waits until the `release` file exists
    and fails; it runs in a forked worker, so it reports through a file."""
    def train(spec, data, seed):
        with open(ran_log, "a") as fh:
            fh.write(spec.id + "\n")
        deadline = time.monotonic() + 30
        while not release.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # the caller cancels the pending jobs as soon as its error is raised
        raise TrainingError(f"{spec.id} failed")
    return train


def releasing(streams, release):
    """`streams`, creating the `release` file once they end or fail."""
    try:
        yield from streams
    finally:
        release.touch()


@pytest.mark.parametrize("case", ["reader", "count"])
def test_validation_error_comes_before_a_training_error(monkeypatch, tmp_path, case):
    # The validation streams are read while the experts train; their error is
    # the one raised, as when validation was read before any training.
    train_streams, train_labels, val_streams, val_labels = small_split(25)
    if case == "reader":
        blobs = [serialize_stream(s) for s in val_streams]
        blobs[1] = blobs[1][:-1]
        val_iter, error, message = (deserialize_stream(b) for b in blobs), FormatError, "truncated"
    else:
        val_iter, error, message = iter(val_streams[:-1]), InputError, "streams but"
    ran_log, release = tmp_path / "ran.txt", tmp_path / "release"
    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(pipeline, "_train_expert", fails_once_released(ran_log, release))
    registry = default_registry()
    with pytest.raises(error, match=message):
        build_bundle(train_streams, train_labels, releasing(val_iter, release), val_labels,
                     registry, seed=1)
    assert multiprocessing.active_children() == []
    # until the validation pass fails, the one worker trains one job and holds
    # at most two more: the rest were cancelled
    ran = ran_log.read_text().split() if ran_log.exists() else []
    assert len(ran) <= 3 < len(registry)


def test_feature_table_equals_decimate_then_extract():
    # 1000 pkts/s base: 400 and 500 share stride 2 (400 is not integral), 300 is stride 3
    streams, labels = make_streams(2, 2, seed=17)
    cfg = DopplerConfig()
    needed = {(spec.required_rate, spec.feature_kind) for spec in default_registry()}
    assert (400.0, D) in needed and (300.0, S) in needed
    caches = _read_streams(streams, labels, hashlib.sha256())  # as the validation pass does
    table = {key: [cache.feature(*key) for cache in caches] for key in needed}
    assert set(table) == needed
    for (rate, kind), features in table.items():
        assert len(features) == len(streams)
        for stream, got in zip(streams, features):
            want = extract_feature(decimate(stream, rate), kind, cfg)
            assert got.kind is want.kind
            assert got.values.tobytes() == want.values.tobytes(), (rate, kind)


def decimate_path_posterior(stream, rate, bundle, spec):
    """The expert's posterior by the decimate path: its input decimated from
    the base stream to `min(rate, required rate)`, then extracted and predicted."""
    expert_input = decimate(stream, min(rate, spec.required_rate))
    fv = extract_feature(expert_input, spec.feature_kind, bundle.doppler_config())
    return predict_posterior(bundle.models[spec.id], fv)


def reference_pair(stream, rate, bundle):
    """What a sweep computed for one (stream, rate) pair before `StreamFeatures`:
    `detect`, then the decimate-path posterior of every expert (a superset of the pool)."""
    report = detect(stream, rate, bundle)
    return report, {spec.id: decimate_path_posterior(stream, rate, bundle, spec)
                    for spec in bundle.registry}


def test_stream_features_equal_detect_and_expert_posterior(small_bundle):
    # 1000 pkts/s base: 50 falls back, 400 and 500 share stride 2, 333.3 is not
    # integral and shares stride 3 with 300
    streams, _ = make_streams(2, 2, seed=23)
    for stream in streams:
        cache = StreamFeatures(stream, small_bundle)
        for rate in (50.0, 100.0, 300.0, 400.0, 500.0, 333.3):
            want, want_posteriors = reference_pair(stream, rate, small_bundle)
            got = cache.detect(rate)
            assert got.decision.selected == want.decision.selected, rate
            assert (np.array(got.decision.weights).tobytes()
                    == np.array(want.decision.weights).tobytes())
            assert got.decision.scores == want.decision.scores
            assert got.mode is want.mode and got.current_rate == want.current_rate
            assert got.fused.tobytes() == want.fused.tobytes()
            assert got.predicted_count == want.predicted_count
            assert list(got.expert_posteriors) == list(want.expert_posteriors)
            for eid, posterior in got.expert_posteriors.items():
                assert posterior.tobytes() == want.expert_posteriors[eid].tobytes()
            for eid, posterior in want_posteriors.items():
                cached = cache.posterior(eid, rate)
                assert cached.tobytes() == posterior.tobytes(), (eid, rate)
                assert not cached.flags.writeable


@pytest.mark.parametrize("rate", [2000.0, math.inf])
def test_a_posterior_needs_only_its_experts_input_rate(small_bundle, probe_stream, rate):
    # E5 consumes 300 pkts/s whatever the rate above it; the gate reads `rate` itself
    cache = StreamFeatures(probe_stream, small_bundle)
    want = decimate_path_posterior(probe_stream, rate, small_bundle, small_bundle.spec("E5"))
    assert cache.posterior("E5", rate).tobytes() == want.tobytes()
    assert cache.posterior("E5", rate) is cache.posterior("E5", 300.0)
    error = RateError if rate < math.inf else InputError
    with pytest.raises(error, match=f"{rate}"):
        cache.detect(rate)


def test_a_posterior_of_an_unknown_expert_is_a_configuration_error(small_bundle, probe_stream):
    with pytest.raises(ConfigurationError, match="^unknown expert id nope$"):
        StreamFeatures(probe_stream, small_bundle).posterior("nope", 300.0)


@pytest.mark.parametrize("rate", [math.nan, 0.0, -300.0])
def test_a_posterior_refuses_a_target_rate_and_detect_a_current_rate(small_bundle, probe_stream,
                                                                    rate):
    cache = StreamFeatures(probe_stream, small_bundle)
    with pytest.raises(ConfigurationError, match=f"^target_rate must be finite and positive, "
                                                 f"got {rate}$"):
        cache.posterior("E5", rate)
    for run in (lambda: cache.detect(rate), lambda: detect(probe_stream, rate, small_bundle)):
        with pytest.raises(InputError, match=f"^current_rate must be finite and positive, "
                                             f"got {rate}$"):
            run()


@pytest.mark.parametrize("packet_rate", [1000.0, 977.0, 500.0])
def test_stream_features_equal_decimate_then_extract_at_any_stream_rate(packet_rate, small_bundle):
    streams, _ = make_streams(1, 2, seed=29, packet_rate=packet_rate)
    rates = sorted({spec.required_rate for spec in default_registry()})
    for stream in streams:
        cache = StreamFeatures(stream, small_bundle)
        for rate in rates:
            for kind in FeatureKind:
                if rate > packet_rate:
                    with pytest.raises(RateError, match="exceeds stream rate"):
                        cache.feature(rate, kind)
                    continue
                want = extract_feature(decimate(stream, rate), kind, DopplerConfig())
                got = cache.feature(rate, kind)
                assert got.kind is want.kind
                assert got.values.tobytes() == want.values.tobytes(), (rate, kind)
        for rate in (50.0, min(300.0, packet_rate)):
            want, got = detect(stream, rate, small_bundle), cache.detect(rate)
            assert got.fused.tobytes() == want.fused.tobytes(), rate
            assert got.decision.selected == want.decision.selected


def test_stream_features_keep_the_series_not_the_stream(small_bundle):
    streams, _ = make_streams(0, 1, seed=31)
    want = detect(streams[0], 300.0, small_bundle)
    cache = StreamFeatures(streams[0], small_bundle)
    cache.series
    stream = weakref.ref(streams.pop())
    gc.collect()
    assert stream() is None  # the caller dropped it, and so did the cache
    got = cache.detect(300.0)
    assert got.fused.tobytes() == want.fused.tobytes()
    assert got.decision.selected == want.decision.selected


def test_stream_features_refuse_a_bad_stream_on_every_series_read():
    cache = StreamFeatures(CsiStream(np.full((64, 2), np.nan + 0j), 1000.0))
    errors = []
    for _ in range(2):
        with pytest.raises(InputError, match="stream must hold samples") as info:
            cache.series
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_target_sweep_computes_no_series_for_a_label_it_skips(small_bundle, monkeypatch):
    # the class 0 streams hold no valid sample: reading one would raise
    streams, labels = make_streams(2, 2, seed=37)
    streams = [CsiStream(np.full_like(s.samples, np.nan), s.packet_rate) if label == 0 else s
               for s, label in zip(streams, labels)]
    computed = []

    def counted(stream):
        computed.append(stream)
        return mean_amplitude_series(stream)

    monkeypatch.setattr(pipeline, "mean_amplitude_series", counted)
    table = evaluate_target_sweep(small_bundle, zip(streams, labels), [1, 2], rate=300.0)
    assert [row["n_samples"] for row in table.rows] == [2, 2]
    assert list(map(id, computed)) == list(map(id, streams[2:]))  # classes 1 and 2 only


def test_stream_features_check_the_rate_before_the_stream(small_bundle):
    bad = CsiStream(np.full((64, 2), np.nan + 0j), 1000.0)
    for rate in (0.0, -5.0, float("nan")):
        with pytest.raises(InputError, match="current_rate must be finite and positive"):
            StreamFeatures(bad, small_bundle).detect(rate)
    with pytest.raises(InputError, match="stream must hold samples"):
        StreamFeatures(bad, small_bundle).detect(300.0)


def fingerprint(streams, labels):
    digest = hashlib.sha256()
    _read_streams(streams, labels, digest)
    return digest.hexdigest()


def test_feature_table_fingerprint_hashes_what_training_reads():
    streams, labels = make_streams(1, 2, seed=19)
    want = hashlib.sha256()
    for stream, label in zip(streams, labels):
        series = np.abs(stream.samples).mean(axis=1)
        want.update(struct.pack("<dq", stream.packet_rate, len(series)))
        want.update(series.astype("<f8").tobytes())
        want.update(struct.pack("<q", label))
    assert fingerprint(streams, labels) == want.hexdigest()
    # Each of the rate, the samples and the label is part of what it identifies.
    first = streams[0]
    faster = pipeline.CsiStream(first.samples, 2000.0)
    louder = pipeline.CsiStream(first.samples * 1.5, first.packet_rate)
    digests = {fingerprint(streams, labels), fingerprint(streams, [1, *labels[1:]]),
               fingerprint([faster, *streams[1:]], labels),
               fingerprint([louder, *streams[1:]], labels)}
    assert len(digests) == 4


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


@pytest.mark.parametrize("split", ["training", "validation"])
def test_build_refuses_a_negative_label(split):
    # a validation label of -1 would count as a miss, and a training one would
    # report a class missing from an empty list
    train_streams, train_labels, val_streams, val_labels = small_split(35)
    (train_labels if split == "training" else val_labels)[0] = -1
    with pytest.raises(TrainingError, match=f"{split} label -1 is negative"):
        build_bundle(train_streams, train_labels, val_streams, val_labels,
                     default_registry(), seed=1)


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
    eligible, scored = candidates(small_bundle.registry, rate)
    decision = decide(small_bundle.templates, features, eligible, scored, {})
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


def test_every_model_refuses_the_other_kinds_feature(small_bundle, probe_stream):
    # a model holds no feature kind: the widths its bundle fixes per kind,
    # 25 Doppler bins and 6 amplitude statistics, tell the kinds apart
    cfg = small_bundle.doppler_config()
    features = {kind: extract_feature(probe_stream, kind, cfg) for kind in FeatureKind}
    assert {kind: len(fv) for kind, fv in features.items()} == {D: 25, S: 6}
    assert {type(model) for model in small_bundle.models.values()} == {
        cls for cls, _, _ in pipeline.MODEL_FORMATS.values()}
    for spec in small_bundle.registry:
        model = small_bundle.models[spec.id]
        predict_posterior(model, features[spec.feature_kind])
        with pytest.raises(InputError, match=f"expected {len(features[spec.feature_kind])} dims"):
            predict_posterior(model, features[S if spec.feature_kind is D else D])


# On 1000 pkts/s streams the required rates 200, 300 and 500 are strides 5, 3
# and 2: the 300 pkts/s expert trains on every third packet, at 333.3 pkts/s.
CUSTOM_REGISTRY = [
    ExpertSpec("A", S, ClassifierKind.FOREST, 300.0, hyperparams={"num_trees": 3, "max_depth": 4}),
    ExpertSpec("B", D, ClassifierKind.KNN, 200.0, hyperparams={"k": 3}),
    ExpertSpec("C", D, ClassifierKind.FOREST, 500.0, hyperparams={"num_trees": 3, "max_depth": 4}),
    ExpertSpec("D", S, ClassifierKind.LINEAR_SVM, 500.0, hyperparams={"epochs": 10}),
]


@pytest.fixture(scope="module")
def custom_bundle():
    return build_bundle(*bundle_split(8), CUSTOM_REGISTRY, seed=8)


def test_expert_consumes_its_training_rate(small_bundle, custom_bundle, probe_stream):
    # Decimating an already-decimated stream compounds the integer strides:
    # 1000 -> 500 -> 300 keeps every packet of the 500 pkts/s stream, whereas
    # training fed the 300 pkts/s experts every third packet (333.3 pkts/s).
    # Each expert's input is built here by slicing, without `decimate`.
    base = probe_stream.packet_rate
    assert decimation_stride(base, 300.0) == 3
    rates = (50.0, 100.0, 150.0, 199.0, 200.0, 250.0, 299.0, 300.0, 400.0, 500.0, 600.0, 1000.0)
    for bundle, seed in ((small_bundle, 7), (custom_bundle, 8)):
        cfg = bundle.doppler_config()

        def posterior_at(spec, rate):
            stride = decimation_stride(base, rate)
            kept = CsiStream(probe_stream.samples[::stride].copy(), base / stride)
            return predict_posterior(bundle.models[spec.id],
                                     extract_feature(kept, spec.feature_kind, cfg)).tobytes()

        lowest = min(spec.required_rate for spec in bundle.registry)
        assert rates[0] < lowest  # the grid reaches fallback
        # Training saw the required rate: each centroid is the mean of the validation
        # features, decimated to that rate, that the expert classified correctly.
        _, _, val_s, val_l = bundle_split(seed)
        for spec in bundle.registry:
            model, template = bundle.models[spec.id], bundle.templates.template(spec.id)
            right = {}
            for stream, label in zip(val_s, val_l):
                fv = extract_feature(decimate(stream, spec.required_rate), spec.feature_kind, cfg)
                if np.argmax(predict_posterior(model, fv)) == label:
                    right.setdefault(label, []).append(fv.values)
            assert template.kind is spec.feature_kind and template.labels == sorted(right)
            for label, row in zip(template.labels, template.values):
                assert row.tobytes() == np.stack(right[label]).mean(axis=0).tobytes(), spec.id
        for rate in rates:
            cache = StreamFeatures(probe_stream, bundle)
            for spec in bundle.registry:
                served = cache.posterior(spec.id, rate)
                assert served.tobytes() == posterior_at(spec, min(rate, spec.required_rate)), (
                    spec.id, rate)
            for report in (detect(probe_stream, rate, bundle),
                           StreamFeatures(probe_stream, bundle).detect(rate)):
                assert (report.mode is GatingMode.FALLBACK) == (rate < lowest)
                for eid, served in report.expert_posteriors.items():
                    spec = bundle.spec(eid)
                    fed = spec.required_rate if report.mode is GatingMode.NORMAL else rate
                    assert served.tobytes() == posterior_at(spec, fed), (eid, rate)


def test_detect_rate_above_stream_rejected(small_bundle, probe_stream):
    from moesense.errors import RateError
    with pytest.raises(RateError):
        detect(probe_stream, 2000.0, small_bundle)


@pytest.mark.parametrize("shape", [(1000, 0), (0, 8)], ids=["no_subcarriers", "no_packets"])
def test_detect_stream_without_samples_is_input_error(small_bundle, monkeypatch, shape):
    def extract(*args):
        raise AssertionError("extracted features from a stream without samples")

    monkeypatch.setattr(pipeline, "extract_feature", extract)
    with pytest.raises(InputError, match="samples"):
        detect(CsiStream(np.zeros(shape, complex), 1000.0), 500.0, small_bundle)


def with_sample(stream, value):
    """`stream` with one of its samples set to `value`."""
    samples = stream.samples.copy()
    samples[421, 3] = value
    return CsiStream(samples, stream.packet_rate)


UNDER_BOUND = np.nextafter(MAX_SAMPLE, 0.0)


@pytest.mark.parametrize("value", [UNDER_BOUND, -UNDER_BOUND, 1j * UNDER_BOUND,
                                   UNDER_BOUND * (1 + 1j)])
def test_detect_takes_samples_just_under_the_bound(small_bundle, probe_stream, value):
    stream = with_sample(probe_stream, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow anywhere would raise
        for rate in (50.0, 300.0, 500.0, 1000.0):
            detect(stream, rate, small_bundle)
            for spec in small_bundle.registry:
                decimate_path_posterior(stream, rate, small_bundle, spec)


@pytest.mark.parametrize("value", [MAX_SAMPLE, -MAX_SAMPLE,
                                   1j * MAX_SAMPLE, 1e200, np.inf, np.nan])
def test_detect_rejects_samples_at_or_over_the_bound(small_bundle, probe_stream, value):
    with pytest.raises(InputError, match="samples"):
        detect(with_sample(probe_stream, value), 500.0, small_bundle)


def test_detect_bounds_the_parts_of_any_sample_layout(small_bundle, probe_stream):
    # complex64 parts are checked as themselves, not as float64 bit patterns
    # made of two of them, and a strided stream is checked, not refused
    samples = probe_stream.samples.astype(np.complex64)
    samples[5, 1] = np.inf
    with pytest.raises(InputError, match="finite"):
        detect(CsiStream(samples, probe_stream.packet_rate), 500.0, small_bundle)
    wide = np.repeat(probe_stream.samples, 2, axis=1)
    strided = detect(CsiStream(wide[:, ::2], probe_stream.packet_rate), 500.0, small_bundle)
    assert strided.fused.tobytes() == detect(probe_stream, 500.0, small_bundle).fused.tobytes()


def report_fields(report):
    """Every field of a `DetectionReport`, as `reference_detect` returns them."""
    decision = report.decision
    return {"eligible": decision.eligible, "selected": decision.selected,
            "weights": decision.weights, "scores": decision.scores, "mode": decision.mode.value,
            "expert_posteriors": report.expert_posteriors, "fused": report.fused,
            "predicted_count": report.predicted_count, "current_rate": report.current_rate}


def bits(run):
    """The fields `run()` returns, each float and array as its bytes, so that
    == compares bits; or the class of the package error it raises."""
    try:
        fields = dict(run())
    except MoeSenseError as exc:
        return type(exc)
    for name in ("weights", "current_rate", "fused"):
        fields[name] = np.asarray(fields[name], dtype=np.float64).tobytes()
    for name in ("scores", "expert_posteriors"):
        fields[name] = [(eid, np.asarray(v, dtype=np.float64).tobytes())
                        for eid, v in fields[name].items()]
    return fields


@st.composite
def detect_requests(draw):
    """A stream of 8-3,000 packets over 1-30 subcarriers (a scene, noise, a
    constant, or zeros, which tie every score at 0.0) and a rate: fallback,
    a required rate exactly, 333.3 pkts/s, above the stream's own, or any."""
    level = draw(st.sampled_from(["scene", "noise", "constant", "zeros"]))
    packets = draw(st.one_of(st.integers(8, 100), st.integers(8, 3000)))
    width = draw(st.integers(1, 30))
    packet_rate = draw(st.sampled_from([1000.0, 977.0, 500.0, 2000.0]))
    rate = draw(st.one_of(st.sampled_from([50.0, 100.0, 299.0, 300.0, 333.3, 400.0, 500.0,
                                           600.0, 1000.0, 1500.0]),
                          st.floats(20.0, 1100.0)))
    return level, packets, width, packet_rate, rate, draw(st.integers(0, 2**32 - 1))


def request_stream(level, packets, width, packet_rate, seed):
    rng = np.random.default_rng(seed)
    if level == "scene":
        cfg = ScenarioConfig(num_targets=seed % 3, packet_rate=packet_rate,
                             duration=packets / packet_rate, num_subcarriers=width,
                             rng_seed=seed)
        return synthesize_stream(cfg)
    shape = (packets, width)
    samples = {"noise": lambda: 1 + rng.normal(0, 0.3, shape) + 1j * rng.normal(0, 0.3, shape),
               "constant": lambda: np.full(shape, complex(*rng.normal(size=2))),
               "zeros": lambda: np.zeros(shape, complex)}[level]()
    return CsiStream(samples, packet_rate)


@settings(max_examples=45, deadline=None)
@given(case=detect_requests())
@example(case=("noise", 1000, 8, 1000.0, 1000.0, 1))  # every expert above its required rate
@example(case=("scene", 1000, 8, 1000.0, 300.0, 2))  # a required rate exactly
@example(case=("zeros", 1000, 8, 1000.0, 500.0, 3))  # every score ties at 0.0
@example(case=("scene", 2000, 30, 1000.0, 333.3, 4))  # strides shared with 300 pkts/s
@example(case=("noise", 1000, 4, 1000.0, 50.0, 5))  # fallback
def test_both_detect_paths_equal_the_reference_detector(small_bundle, case):
    both_detect_paths_equal_the_reference_detector(small_bundle, case)


def both_detect_paths_equal_the_reference_detector(bundle, case):
    level, packets, width, packet_rate, rate, seed = case
    stream = request_stream(level, packets, width, packet_rate, seed)
    want = bits(lambda: reference_detect(stream, rate, bundle))
    assert bits(lambda: report_fields(detect(stream, rate, bundle))) == want
    cache = StreamFeatures(stream, bundle)
    assert bits(lambda: report_fields(cache.detect(rate))) == want


@pytest.fixture(scope="module")
def four_class_bundle():
    """A bundle of `CUSTOM_REGISTRY` over counts 0-3: another registry and
    another class count than `small_bundle`'s."""
    streams, labels = make_streams(3, 8, seed=9)
    return build_bundle(*split_train_val(streams, labels, seed=9), CUSTOM_REGISTRY, seed=9)


@settings(max_examples=45, deadline=None)
@given(case=detect_requests())
@example(case=("noise", 1000, 8, 1000.0, 1000.0, 1))  # every expert above its required rate
@example(case=("scene", 1000, 8, 1000.0, 200.0, 2))  # a required rate exactly
@example(case=("zeros", 1000, 8, 1000.0, 500.0, 3))  # every score ties at 0.0
@example(case=("scene", 2000, 30, 1000.0, 333.3, 4))  # strides shared with 300 pkts/s
@example(case=("noise", 1000, 4, 1000.0, 150.0, 5))  # fallback
def test_both_detect_paths_equal_the_reference_detector_on_four_classes(four_class_bundle, case):
    assert four_class_bundle.metadata["k_max"] == 3
    both_detect_paths_equal_the_reference_detector(four_class_bundle, case)


@pytest.mark.parametrize("packet_rate", [977.0, 2000.0])
def test_a_cache_serves_rates_that_share_a_stride_as_the_reference_detector(small_bundle,
                                                                            packet_rate):
    """One cache per stream serves its rates in turn, so a later rate reads the gate
    scores and posteriors an earlier rate of its stride left: at 2,000 pkts/s 300 and
    333.3 pkts/s share stride 6, and at 977 pkts/s 333.3 and 400 share stride 2."""
    streams, _ = make_streams(2, 1, seed=41, packet_rate=packet_rate)
    for stream in streams:
        cache = StreamFeatures(stream, small_bundle)
        for rate in (300.0, 333.3, 400.0, 500.0, 50.0, 333.3):
            want = bits(lambda: reference_detect(stream, rate, small_bundle))
            assert bits(lambda: report_fields(detect(stream, rate, small_bundle))) == want, rate
            assert bits(lambda: report_fields(cache.detect(rate))) == want, rate


def test_rates_that_share_a_gate_stride_score_each_expert_once(small_bundle, monkeypatch):
    # at 1,000 pkts/s 400 and 500 pkts/s both gate at stride 2: E5-E8 are candidates
    # at both, E3 and E4 only at 500
    streams, labels = make_streams(2, 1, seed=43)
    scored, original = [], gating.score_experts
    monkeypatch.setattr(gating, "score_experts", lambda features, templates, ids:
                        scored.append(list(ids)) or original(features, templates, ids))
    evaluate_rate_sweep(small_bundle, zip(streams, labels), [500.0, 400.0])
    assert scored == [["E3", "E4", "E5", "E6", "E7", "E8"]] * len(streams)
    scored.clear()
    evaluate_rate_sweep(small_bundle, zip(streams, labels), [400.0, 500.0])
    assert scored == [["E5", "E6", "E7", "E8"], ["E3", "E4"]] * len(streams)
    scored.clear()
    for rate in (400.0, 500.0):  # `detect` keeps no scores
        detect(streams[0], rate, small_bundle)
    assert scored == [["E5", "E6", "E7", "E8"], ["E3", "E4", "E5", "E6", "E7", "E8"]]


def test_a_bundle_keeps_a_bounded_number_of_plans(small_bundle, probe_stream):
    bundle = deserialize_bundle(serialize_bundle(small_bundle))
    assert bundle.plan.cache_info().currsize == 0  # loading builds none
    cache = StreamFeatures(probe_stream, bundle)
    want = cache.posterior("E5", 300.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):  # a rate per request; E5 reads 300 pkts/s at each
            assert cache.posterior("E5", 300.0 + i / 64) is want
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert bundle.plan.cache_info().currsize == 256
    assert grown < 2_000_000, grown
    freed = weakref.ref(bundle)
    del bundle, cache
    assert freed() is None  # the plans hold no reference back, so no cycle keeps the bundle


def reference_rate_rows(bundle, data, rates, seed):
    """`evaluate_rate_sweep`'s rows, counted from the reference detector: the
    framework from `reference_detect`, each pool expert from its posterior
    at `min(rate, required_rate)`, and the random triple drawn by one
    generator per rate, seeded [seed, the rate's rank], that picks a fresh
    triple from the sorted pool for each stream."""
    specs = {spec.id: spec for spec in bundle.registry}
    pools = {r: sorted(e for e in specs if specs[e].required_rate <= r) or sorted(specs)
             for r in rates}
    rngs = {r: np.random.default_rng([seed, i]) for i, r in enumerate(sorted(rates))}
    hits = {r: dict.fromkeys(["n_samples", "framework", "random3", *pools[r]], 0) for r in rates}
    for stream, label in data:
        for r in rates:
            posteriors = {eid: reference_posterior(
                bundle.models[eid], reference_feature(stream.samples, stream.packet_rate,
                                                      min(r, specs[eid].required_rate),
                                                      specs[eid].feature_kind).values)
                for eid in pools[r]}
            triple = sorted(rngs[r].choice(pools[r], size=min(3, len(pools[r])),
                                           replace=False).tolist())
            fused = np.zeros(bundle.metadata["k_max"] + 1)
            for eid in triple:
                fused += (1.0 / len(triple)) * posteriors[eid]
            counts = hits[r]
            counts["n_samples"] += 1
            counts["framework"] += int(reference_detect(stream, r, bundle)["predicted_count"] == label)
            counts["random3"] += int(np.argmax(fused) == label)
            for eid in pools[r]:
                counts[eid] += int(np.argmax(posteriors[eid]) == label)
    return [{"rate": f"{r:.4f}", **{col: h if col == "n_samples" else h / counts["n_samples"]
                                     for col, h in counts.items()}}
            for r, counts in hits.items()]


def mixed_streams(count, seed):
    """`count` streams at 977, 1,000 or 2,000 pkts/s, of 0.3-1 s over 1, 4 or
    8 subcarriers, and their labels, 0-2 in turn."""
    rng = np.random.default_rng(seed)
    streams = [synthesize_stream(ScenarioConfig(
        num_targets=i % 3, packet_rate=float(rng.choice([977.0, 1000.0, 2000.0])),
        duration=float(rng.uniform(0.3, 1.0)), num_subcarriers=int(rng.choice([1, 4, 8])),
        rng_seed=int(rng.integers(2**32)))) for i in range(count)]
    return streams, [i % 3 for i in range(count)]


def test_rate_sweep_counts_what_the_reference_detector_counts(small_bundle):
    """Every row of a rate sweep, column by column and in order, as the
    reference detector counts it: at a fallback rate (50), at 400 and 500
    pkts/s, whose gate features share a stride, at 333.3 and 300 pkts/s,
    which share another, given out of order, over a one-pass iterator of
    more streams than one chunk, of mixed packet rates, lengths and widths."""
    streams, labels = make_streams(2, 3, seed=17)
    more, more_labels = mixed_streams(evaluate.SWEEP_CHUNK, seed=17)
    streams, labels = streams + more, labels + more_labels
    rates = [500.0, 50.0, 400.0, 333.3, 300.0]
    table = evaluate_rate_sweep(small_bundle, zip(streams, labels), rates, seed=11)
    want = reference_rate_rows(small_bundle, zip(streams, labels), rates, seed=11)
    assert [list(row.items()) for row in table.rows] == [list(row.items()) for row in want]


@pytest.mark.parametrize("case,rates,error,message", [
    # stream 2 is at 400 pkts/s, and stream 3 holds a NaN
    ("slow", [300.0, 500.0], RateError, "target_rate 500.0 exceeds stream rate 400.0"),
    # stream 2 has 20 packets: 7 at 300 pkts/s, where the gate scores no Doppler
    # feature, and 2 at 100 pkts/s, where it does; stream 3 holds a NaN
    ("short", [500.0, 300.0], InputError, "need at least 8 packets, got 7"),
    ("short", [500.0, 100.0], InputError, "need at least 8 packets, got 2"),
])
def test_a_sweep_raises_the_error_a_count_stream_by_stream_meets_first(small_bundle, case,
                                                                       rates, error, message):
    streams, labels = make_streams(1, 1, seed=3)
    cfg = {"slow": {"packet_rate": 400.0}, "short": {"duration": 0.02}}[case]
    streams.append(make_streams(0, 1, seed=4, **cfg)[0][0])
    nan = streams[0].samples.copy()
    nan[3, 1] = np.nan
    streams.append(CsiStream(nan, 1000.0))
    with pytest.raises(error, match=f"^{message}$"):
        evaluate_rate_sweep(small_bundle, zip(streams, [0, 1, 0, 1]), rates, seed=11)


def test_a_sweep_extracts_each_feature_its_gate_and_pool_read_once_per_block(small_bundle,
                                                                            monkeypatch):
    """Six streams of one rate and length: one kernel call per (stride, kind)
    the sweep reads, and none for the stride-3 Doppler feature at 300 pkts/s,
    which no candidate there scores."""
    streams, labels = make_streams(2, 2, seed=5)
    calls = []
    for name in ("doppler_from_series", "amp_stats_from_series"):
        original = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda series, *args, name=name, original=original:
                            calls.append((name[0], series.shape))
                            or original(series, *args))
    evaluate_rate_sweep(small_bundle, zip(streams, labels), [100.0, 200.0, 300.0, 400.0, 500.0])
    # 1,000 packets at strides 2, 3, 5 and 10
    assert sorted(calls) == sorted([("a", (6, n)) for n in (500, 334, 200, 100)]
                                   + [("d", (6, n)) for n in (500, 200, 100)])


def test_a_sweep_gates_each_stream_and_rate_through_decide(small_bundle, monkeypatch):
    """`decide` is the one gate entry, so a sweep's gates are where a tracer of
    `pipeline.decide` counts them: one per (stream, rate), fallback at the
    rates that admit no expert of the default registry."""
    streams, labels = make_streams(2, 2, seed=5)
    plain = evaluate_rate_sweep(small_bundle, zip(streams, labels), cli.DEFAULT_RATES)
    modes = []
    original = pipeline.decide
    monkeypatch.setattr(pipeline, "decide", lambda *args: modes.append(
        (decision := original(*args)).mode) or decision)
    counted = evaluate_rate_sweep(small_bundle, zip(streams, labels), cli.DEFAULT_RATES)
    assert len(modes) == 6 * 5
    assert modes.count(GatingMode.FALLBACK) == 6 * 2  # 100 and 200 pkts/s
    assert counted.rows == plain.rows


def test_a_stream_built_in_code_is_checked_at_every_read(small_bundle, probe_stream):
    stream = CsiStream(probe_stream.samples.copy(), probe_stream.packet_rate)
    detect(stream, 300.0, small_bundle)
    stream.samples[5, 2] = np.nan
    for _ in range(2):
        for run in (lambda: detect(stream, 300.0, small_bundle),
                    lambda: StreamFeatures(stream, small_bundle).detect(300.0)):
            with pytest.raises(InputError, match="must hold samples, all finite"):
                run()


def test_a_loaded_stream_is_checked_once_when_it_loads(probe_stream):
    # its samples view immutable bytes, so no later write can make the check stale
    loaded = deserialize_stream(serialize_stream(probe_stream))
    with pytest.raises(ValueError):
        loaded.samples.setflags(write=True)
    assert loaded in simulate._CHECKED
    assert CsiStream(loaded.samples, loaded.packet_rate) not in simulate._CHECKED


def test_a_loaded_stream_serves_as_its_writable_copy_does(small_bundle):
    """A stream loaded from its bytes holds read-only samples. `detect`, the
    feature cache's `detect` and a rate sweep give on it, bit for bit, what
    they give on a writable copy and what the reference detector gives: no
    path writes to the samples it is handed."""
    streams, labels = make_streams(2, 2, seed=23)
    loaded = [deserialize_stream(serialize_stream(stream)) for stream in streams]
    copies = [CsiStream(stream.samples.copy(), stream.packet_rate) for stream in loaded]
    assert not any(stream.samples.flags.writeable for stream in loaded)
    for stream, copy in zip(loaded, copies):
        for rate in (50.0, 300.0, 333.3, 500.0):
            want = bits(lambda: reference_detect(copy, rate, small_bundle))
            for served in (stream, copy):
                cache = StreamFeatures(served, small_bundle)
                assert bits(lambda: report_fields(detect(served, rate, small_bundle))) == want
                assert bits(lambda: report_fields(cache.detect(rate))) == want
    rates = [500.0, 50.0, 333.3, 300.0]
    rows = [[list(row.items()) for row in evaluate_rate_sweep(small_bundle, zip(data, labels),
                                                               rates, seed=11).rows]
            for data in (loaded, copies)]
    want = reference_rate_rows(small_bundle, zip(copies, labels), rates, seed=11)
    assert rows[0] == rows[1] == [list(row.items()) for row in want]


@pytest.mark.parametrize("packet_rate", [math.nan, -1000.0, 0.0, math.inf])
def test_detect_refuses_a_stream_rate_that_is_not_finite_and_positive(small_bundle, probe_stream,
                                                                     packet_rate):
    stream = CsiStream(probe_stream.samples, packet_rate)
    for run in (lambda: detect(stream, 50.0, small_bundle),
                lambda: StreamFeatures(stream, small_bundle).detect(50.0)):
        with pytest.raises(InputError, match="stream packet rate must be finite and positive"):
            run()


# ---------------------------------------------------------------------------
# bundle container
# ---------------------------------------------------------------------------

def test_bundle_round_trip(tmp_path, small_bundle):
    path = tmp_path / "bundle.moe"
    save_bundle(small_bundle, path)
    loaded = load_bundle(path)
    assert serialize_bundle(loaded) == path.read_bytes() == serialize_bundle(small_bundle)
    a, b = Blocks(), Blocks()
    assert bundle_to_jsonable(loaded, a.put) == bundle_to_jsonable(small_bundle, b.put)
    assert a.data == b.data


def test_loaded_bundle_detects_bit_for_bit(small_bundle):
    loaded = deserialize_bundle(serialize_bundle(small_bundle))
    streams, _ = make_streams(2, 3, seed=41)
    for rate in (50.0, 300.0, 500.0):
        for stream in streams:
            a = detect(stream, rate, small_bundle)
            b = detect(stream, rate, loaded)
            assert a.decision.selected == b.decision.selected
            assert a.decision.weights == b.decision.weights
            assert a.decision.scores == b.decision.scores
            assert a.fused.tobytes() == b.fused.tobytes()


def test_loaded_arrays_are_read_only_views(small_bundle, probe_stream):
    data = serialize_bundle(small_bundle)
    buffer = bytearray(data)
    loaded = deserialize_bundle(buffer)
    buffer[:] = bytes(len(buffer))  # the caller's buffer is not what the arrays view
    arrays = [mean for mean, _ in loaded.templates.scalers.values()]
    for eid, model in loaded.models.items():
        arrays.append(loaded.templates.template(eid).values)
        arrays += [a for a in vars(model).values() if isinstance(a, np.ndarray)]
    # A forest keeps its four blocks as its columns; only its leaves are
    # derived, from its counts.
    forests = [m for m in loaded.models.values() if isinstance(m, ForestModel)]
    derived = {id(forest.leaves) for forest in forests}
    views = [a for a in arrays if id(a) not in derived]
    assert len(derived) == len(forests) == len(arrays) - len(views)
    # One view per block, one template block per expert among them, except
    # the scaler stds, which the library replaces.
    blocks = Blocks()
    bundle_to_jsonable(loaded, blocks.put)
    assert len(views) == len(blocks.data) - len(loaded.templates.scalers)
    # Views of the bundle's immutable bytes: a write into one would raise.
    assert not any(a.flags.writeable or a.flags.owndata for a in views)
    # The leaves view nothing: they own their memory. Predict reads them, and
    # they are read-only too.
    assert all(a.flags.owndata for a in arrays if id(a) in derived)
    assert not any(forest.leaves.flags.writeable for forest in forests)
    for rate in (50.0, 300.0, 500.0, 1000.0):
        detect(probe_stream, rate, loaded)
        for spec in loaded.registry:
            decimate_path_posterior(probe_stream, rate, loaded, spec)
    assert serialize_bundle(loaded) == data


def test_bundle_save_twice_identical(tmp_path, small_bundle):
    p1, p2 = tmp_path / "a.moe", tmp_path / "b.moe"
    save_bundle(small_bundle, p1)
    save_bundle(small_bundle, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_blocks_are_aligned_little_endian_arrays(small_bundle):
    data = serialize_bundle(small_bundle)
    length = struct.unpack_from("<Q", data, 8)[0]
    header = json.loads(data[16:16 + length])
    # the table holds each block's length; each block starts at the first
    # multiple of 8 after the header or the block before it
    starts, end = [], 16 + length
    for nbytes in header["blocks"]:
        starts.append(end + -end % 8)
        end = starts[-1] + nbytes
    assert end == len(data)

    def block(ref):
        return data[starts[ref["block"]]:starts[ref["block"]] + header["blocks"][ref["block"]]]

    labels = small_bundle.models["E6"].labels
    assert block(header["models"]["E6"]["labels"]) == labels.astype("<i8").tobytes()
    e3 = header["models"]["E3"]
    forest = small_bundle.models["E3"]
    assert e3["nodes"] == forest.nodes
    # each block holds the model's own column: threshold and right one entry
    # per inner node, counts one row per leaf
    inner = int(np.sum(forest.feature >= 0))
    assert len(forest.threshold) == len(forest.right) == inner < len(forest.feature)
    assert len(forest.counts) == len(forest.feature) - inner
    for column, dtype in (("feature", "<i1"), ("threshold", "<f8"), ("right", "<u2"),
                          ("counts", "<u2")):
        assert block(e3[column]) == getattr(forest, column).astype(dtype).tobytes()


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
    # version 1 held forests as nested dicts, version 2 every array as JSON
    # lists, version 3 forests as full-width float columns, and version 4 a
    # second rate, `nominal_rate`, in each registry entry, and version 5 block
    # offsets, array dtypes, and model, centroid and Doppler fields that repeat
    # the registry or the metadata, and version 6 one block per centroid and
    # forest entries without their width, and version 7 a source rate per centroid
    assert version == 8
    for forged_version in (1, 2, 3, 4, 5, 6, 7, version + 1):
        forged = header.pack(magic, forged_version, length) + data[header.size:]
        with pytest.raises(FormatError, match=f"version {forged_version}; retrain to get version 8"):
            deserialize_bundle(forged)


def test_bundle_registry_model_mismatch(small_bundle):
    models = dict(small_bundle.models)
    models.pop("E1")
    with pytest.raises(ConfigurationError):
        TrainedBundle(small_bundle.registry, models, small_bundle.templates,
                      small_bundle.metadata)


def test_bundle_whose_models_disagree_with_k_max_fails_when_built(small_bundle):
    metadata = {**small_bundle.metadata, "k_max": small_bundle.metadata["k_max"] + 1}
    with pytest.raises(ConfigurationError, match="disagrees with its registry entry or the metadata"):
        TrainedBundle(small_bundle.registry, small_bundle.models, small_bundle.templates, metadata)


def fresh_payload(bundle):
    """The bundle's JSON header and its blocks, sharing nothing with `bundle`."""
    header, blocks = pipeline._unpack(serialize_bundle(bundle))
    return header, [bytes(b) for b in blocks]


def with_header_text(data, edit):
    """Bundle bytes `data` with the JSON header text replaced by `edit(text)`
    (str or bytes) and the blocks kept as they are."""
    fixed = struct.Struct("<4sIQ")
    magic, version, length = fixed.unpack_from(data)
    end = fixed.size + length
    text = edit(data[fixed.size:end].decode("utf-8"))
    text = text.encode("utf-8") if isinstance(text, str) else text
    head = fixed.pack(magic, version, len(text)) + text
    return head + bytes(-len(head) % 8) + data[end + -end % 8:]


def with_header(data, edit):
    """Bundle bytes `data` after `edit(header)`, where the header still holds
    its block table."""
    def rewrite(text):
        header = json.loads(text)
        edit(header)
        return json.dumps(header, sort_keys=True, separators=(",", ":"))
    return with_header_text(data, rewrite)


def forge(payload, infinity="Infinity"):
    """Bundle bytes holding `payload`, each infinity in its header written as `infinity`."""
    header, blocks = payload
    return with_header_text(pipeline._pack(header, blocks),
                            lambda text: text.replace("Infinity", infinity))


def _node(header, path):
    for key in path:
        header = header[key]
    return header


def _edit(path, dtype, change):
    """A payload mutation: `change` edits a writable copy of the array whose
    reference sits at `path` in the header, in place or by returning a new
    array, and the reference's shape follows."""
    def mutate(payload):
        header, blocks = payload
        ref = _node(header, path)
        arr = np.frombuffer(blocks[ref["block"]], dtype).reshape(ref["shape"]).copy()
        new = change(arr)
        arr = arr if new is None else np.asarray(new, dtype)
        blocks[ref["block"]] = arr.tobytes()
        ref["shape"] = list(arr.shape)
    return mutate


def test_payload_edits_leave_the_bundle_unchanged(small_bundle):
    before = serialize_bundle(small_bundle)
    blocks = Blocks()
    payload = bundle_to_jsonable(small_bundle, blocks.put)
    rebuilt = bundle_from_jsonable(payload, blocks.get)
    payload["metadata"]["k_max"] = 99
    payload["metadata"]["validation_accuracy"]["E1"] = -1.0
    payload["registry"][0]["hyperparams"]["epochs"] = 1
    assert serialize_bundle(small_bundle) == before
    assert serialize_bundle(rebuilt) == before


def test_forged_bundle_unchanged_loads(small_bundle):
    data = serialize_bundle(small_bundle)
    assert forge(fresh_payload(small_bundle)) == data
    assert serialize_bundle(deserialize_bundle(forge(fresh_payload(small_bundle)))) == data


def test_a_block_read_twice_or_never_does_not_load(small_bundle):
    """Each block is one array: a reference aimed at another block of the
    same shape leaves its own block unread, and a block no reference names
    is never read, so neither bundle loads, and the error names the block."""
    def refused(header, blocks):
        with pytest.raises(FormatError, match=r"blocks read other than once \(block: reads\)") as e:
            deserialize_bundle(forge((header, blocks)))
        return str(e.value).split("(block: reads): ")[1]

    header, blocks = fresh_payload(small_bundle)
    scaler = header["scalers"]["amp_stats"]
    mean, std = scaler["mean"]["block"], scaler["std"]["block"]
    assert scaler["mean"]["shape"] == scaler["std"]["shape"] == [6]
    scaler["std"] = dict(scaler["mean"])
    assert refused(header, blocks) == str({mean: 2, std: 0})
    header, blocks = fresh_payload(small_bundle)
    assert refused(header, [*blocks, bytes(8)]) == str({len(blocks): 0})


def _column(name, change):
    """A forest mutation: `change(column, at, i, n)` edits a copy of one E3
    column. i is the last inner node of the first tree, and n that tree's
    node count; `at` is i's entry in the column: i in `feature`, and its
    rank among the inner nodes in `threshold` and `right`, which hold inner
    nodes only."""
    dtype = {"feature": "<i1", "threshold": "<f8", "right": "<u2", "counts": "<u2"}[name]

    def mutate(payload, i, n, rank):
        at = i if name == "feature" else rank
        _edit(("models", "E3", name), dtype, lambda a: change(a, at, i, n))(payload)
    return mutate


def _nodes(change):
    """A forest mutation: `change(nodes, n)` edits the E3 trees' node counts."""
    return lambda payload, i, n, rank: change(payload[0]["models"]["E3"]["nodes"], n)


def _leaf_block_grows(payload, i, n, rank):
    # the leaf rows keep their shape, but the block holds one count more
    header, blocks = payload
    block = header["models"]["E3"]["counts"]["block"]
    blocks[block] += bytes(2)


def _last_node_inner(payload, i, n, rank):
    # The first tree's last node, a leaf, marked as an inner node, with a
    # threshold and right child, and its leaf row gone: every column length
    # agrees, and only the child check sees that its children lie outside
    # the tree.
    leaves_before = n - 1 - (rank + 1)  # the first tree's leaves before node n - 1
    _column("feature", lambda a, at, i, n: a.__setitem__(n - 1, 0))(payload, i, n, rank)
    _column("threshold", lambda a, at, i, n: np.insert(a, at + 1, 0.0))(payload, i, n, rank)
    _column("right", lambda a, at, i, n: np.insert(a, at + 1, n - 1))(payload, i, n, rank)
    _column("counts", lambda a, at, i, n: np.delete(a, leaves_before, axis=0))(payload, i, n, rank)


# Each case edits the E3 forest, whose first tree has n nodes and whose
# later trees follow them in each column; i is that tree's last inner node.
HOSTILE_TREES = {
    "right_child_is_parent": _column("right", lambda a, at, i, n: a.__setitem__(at, i)),
    "right_child_is_left_child": _column("right", lambda a, at, i, n: a.__setitem__(at, i + 1)),
    "right_child_before_parent": _column("right", lambda a, at, i, n: a.__setitem__(at, i - 1)),
    # node n is the second tree's root: inside the forest, outside this tree
    "right_child_past_end": _column("right", lambda a, at, i, n: a.__setitem__(at, n)),
    "feature_too_large": _column("feature", lambda a, at, i, n: a.__setitem__(at, 25)),
    "feature_far_past_n_features": _column("feature", lambda a, at, i, n: a.__setitem__(at, 127)),
    "feature_below_leaf_marker": _column("feature", lambda a, at, i, n: a.__setitem__(at, -2)),
    # the inner-node columns one entry too long or too short
    "unequal_lengths": _column("threshold", lambda a, at, i, n: np.append(a, 0.0)),
    "threshold_one_short": _column("threshold", lambda a, at, i, n: a[:-1]),
    # one threshold would broadcast to every inner node
    "threshold_single_entry": _column("threshold", lambda a, at, i, n: a[:1]),
    "right_one_too_many": _column("right", lambda a, at, i, n: np.append(a, a[-1])),
    "right_one_short": _column("right", lambda a, at, i, n: a[:-1]),
    "leaf_rows_too_wide": _column("counts", lambda a, at, i, n: np.pad(a, ((0, 0), (0, 1)))),
    "one_leaf_row_too_wide": _leaf_block_grows,
    "leaf_row_too_narrow": _column("counts", lambda a, at, i, n: a[:, :-1]),
    "one_leaf_row_too_many": _column("counts", lambda a, at, i, n: np.vstack([a, a[:1]])),
    # its posterior would be 0 / 0
    "leaf_row_sums_to_zero": _column("counts", lambda a, at, i, n: a.__setitem__(0, 0)),
    "last_node_inner": _last_node_inner,
    "counts_exceed_the_nodes": _nodes(lambda nodes, n: nodes.__setitem__(0, n + 1)),
    "counts_fall_short": _nodes(lambda nodes, n: nodes.__setitem__(-1, nodes[-1] - 1)),
    "empty_tree": _nodes(lambda nodes, n: nodes.insert(1, 0)),
    "count_not_an_integer": _nodes(lambda nodes, n: nodes.__setitem__(0, float(n))),
    # <u2 right children cannot reach past node 65535
    "tree_over_65535_nodes": _nodes(lambda nodes, n: nodes.__setitem__(0, 65536)),
    # the first tree's last leaf would become the second tree's root
    "tree_boundary_moved": _nodes(lambda nodes, n: nodes.__setitem__(
        slice(0, 2), [n - 1, nodes[1] + 1])),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_TREES))
def test_hostile_forest_is_format_error(small_bundle, case):
    payload = fresh_payload(small_bundle)
    header, blocks = payload
    forest = header["models"]["E3"]  # doppler forest over 25 bins
    assert {key: header["registry"][2][key] for key in ("id", "classifier", "feature")} == {
        "id": "E3", "classifier": "forest", "feature": "doppler"}
    n = forest["nodes"][0]
    feature = np.frombuffer(blocks[forest["feature"]["block"]], "<i1")
    inner = max(i for i in range(n) if feature[i] >= 0)
    assert inner > 0 and feature[n - 1] == -1
    HOSTILE_TREES[case](payload, inner, n, int(np.sum(feature[:inner] >= 0)))
    with pytest.raises(FormatError):
        deserialize_bundle(forge(payload))


def _set(path, value):
    def mutate(payload):
        *parents, last = path
        node = _node(payload[0], parents)
        node[last] = value(node[last]) if callable(value) else value
    return mutate


def _empty_template(eid, width):
    """A payload mutation: expert `eid` keeps no centroids, its template an
    empty block of rows `width` wide."""
    def mutate(payload):
        payload[0]["templates"][eid]["labels"] = []
        _edit(("templates", eid, "values"), "<f8", lambda v: np.zeros((0, width)))(payload)
    return mutate


def _no_doppler_centroids(mutate):
    """`mutate`, on a payload whose Doppler experts (E1, E3, E6) have no
    centroids, so only their empty templates' kind and width meet the
    Doppler scaler."""
    def both(payload):
        for eid in ("E1", "E3", "E6"):
            _empty_template(eid, 25)(payload)
        mutate(payload)
    return both


def _template_labels(eid, change):
    """A payload mutation: `change(labels, k_max)` edits the labels of expert
    `eid`'s template in place."""
    def mutate(payload):
        change(payload[0]["templates"][eid]["labels"], payload[0]["metadata"]["k_max"])
    return mutate


def _doppler_forest_from_amp_stats(payload):
    # E4, an amp_stats forest, splits on features 0-5, all below the Doppler
    # width 25: only the width its entry states tells the two apart.
    _set(("registry", 3, "feature"), "doppler")(payload)
    _empty_template("E4", 25)(payload)


def _forest_without_last_tree(payload):
    # E3's first 24 trees: a well-formed forest, one tree short of its num_trees 25
    header, blocks = payload
    forest = header["models"]["E3"]
    n = forest["nodes"].pop()
    inner = int(np.sum(np.frombuffer(blocks[forest["feature"]["block"]], "<i1")[-n:] >= 0))
    for name, dtype, cut in (("feature", "<i1", n), ("threshold", "<f8", inner),
                             ("right", "<u2", inner), ("counts", "<u2", n - inner)):
        _edit(("models", "E3", name), dtype, lambda a: a[:len(a) - cut])(payload)


DISAGREEING_PARTS = {
    "k_max_off_by_one": _set(("metadata", "k_max"), lambda k: k + 1),
    "k_max_infinite": _set(("metadata", "k_max"), float("inf")),
    "forest_registered_as_knn": _set(("registry", 2, "classifier"), "knn"),
    "doppler_expert_registered_as_amp_stats": _set(("registry", 0, "feature"), "amp_stats"),
    "centroid_too_short": _edit(("templates", "E1", "values"), "<f8", lambda v: v[:, :-1]),
    "template_label_past_k_max": _template_labels("E1",
                                                  lambda labels, k: labels.__setitem__(-1, k + 1)),
    "template_label_repeated": _template_labels("E1",
                                                lambda labels, k: labels.__setitem__(1, labels[0])),
    "template_label_missing": _template_labels("E1", lambda labels, k: labels.pop()),
    "template_value_nan": _edit(("templates", "E1", "values"), "<f8",
                                lambda v: v.__setitem__((0, 2), np.nan)),
    "amp_stats_forest_registered_as_doppler": _doppler_forest_from_amp_stats,
    "scaler_too_short": _edit(("scalers", "amp_stats", "mean"), "<f8", lambda v: v[:-1]),
    # a negative std used to load as 1.0, so the bundle re-saved as other bytes
    "scaler_std_negative": _edit(("scalers", "amp_stats", "std"), "<f8",
                                 lambda v: v.__setitem__(0, -v[0])),
    "svm_bias_missing": _edit(("models", "E1", "biases"), "<f8", lambda v: v[:-1]),
    "knn_label_out_of_range": _edit(("models", "E6", "labels"), "<i8",
                                    lambda v: v.__setitem__(0, 7)),
    "forest_without_trees": _set(("models", "E3", "nodes"), []),
    # the registry's defaults, k 5 and 25 trees, are what E6 and E3 trained with
    "knn_k_not_the_registry_k": _set(("models", "E6", "k"), 1),
    "knn_k_a_float": _set(("models", "E6", "k"), float),
    "forest_tree_missing": _forest_without_last_tree,
    # no gate call can reach an expert outside the registry
    "template_outside_registry": lambda payload: payload[0]["templates"].update(
        E9=payload[0]["templates"]["E1"]),
    "model_missing": lambda payload: payload[0]["models"].pop("E1"),
    "registry_entry_without_id": lambda payload: payload[0]["registry"][0].pop("id"),
    # a NaN required rate would drop the expert from every eligible set
    "required_rate_nan": _set(("registry", 2, "required_rate"), float("nan")),
    # a version 4 entry's second rate is no registry entry field
    "nominal_rate_nan": _set(("registry", 2, "nominal_rate"), float("nan")),
    "nominal_rate_negative": _set(("registry", 2, "nominal_rate"), -500.0),
    # without scalers the gate would correlate raw vectors, near 1 for everyone
    "scalers_missing": lambda payload: payload[0].pop("scalers"),
    "doppler_scaler_missing": lambda payload: payload[0]["scalers"].pop("doppler"),
    "doppler_scaler_missing_without_centroids": _no_doppler_centroids(
        lambda payload: payload[0]["scalers"].pop("doppler")),
    "doppler_scaler_too_short_without_centroids": _no_doppler_centroids(
        lambda payload: [_edit(("scalers", "doppler", part), "<f8", lambda v: v[:-1])(payload)
                         for part in ("mean", "std")]),
}


@pytest.mark.parametrize("case", sorted(DISAGREEING_PARTS))
def test_bundle_parts_disagree_is_format_error(small_bundle, case):
    payload = fresh_payload(small_bundle)
    assert [spec["id"] for spec in payload[0]["registry"]][:3] == ["E1", "E2", "E3"]
    DISAGREEING_PARTS[case](payload)
    with pytest.raises(FormatError):
        deserialize_bundle(forge(payload))


@pytest.mark.parametrize("case,names", [("centroid_too_short", "template of E1"),
                                        ("scaler_too_short", "amp_stats scaler")])
def test_short_centroid_or_scaler_is_named(small_bundle, case, names):
    payload = fresh_payload(small_bundle)
    DISAGREEING_PARTS[case](payload)
    with pytest.raises(FormatError, match=names) as info:
        deserialize_bundle(forge(payload))
    assert "broadcast" not in str(info.value)


@pytest.mark.parametrize("k_max", [2.7, True, -1, "2"])
def test_k_max_that_is_no_count_is_refused(small_bundle, k_max):
    # 2.7 and "2" used to load as 3 classes, and re-save as they came
    assert small_bundle.metadata["k_max"] == 2
    payload = fresh_payload(small_bundle)
    payload[0]["metadata"]["k_max"] = k_max
    with pytest.raises(FormatError, match="k_max must be an integer >= 0") as info:
        deserialize_bundle(forge(payload))
    assert info.value.exit_code == 5
    metadata = {**small_bundle.metadata, "k_max": k_max}
    with pytest.raises(ConfigurationError, match="k_max must be an integer >= 0"):
        TrainedBundle(small_bundle.registry, small_bundle.models, small_bundle.templates, metadata)


# A number of each part of a bundle. Those in the JSON header are given by
# their path; those in a block by the path of the array's reference and the
# number's index in the array.
HEADER_NUMBERS = {
    "template_label": ("templates", "E4", "labels", 0),
    "k_max": ("metadata", "k_max"),
    "validation_accuracy": ("metadata", "validation_accuracy", "E5"),
    "seed": ("metadata", "seed"),
    "tree_node_count": ("models", "E4", "nodes", 0),
}
BLOCK_NUMBERS = {
    "scaler_mean": (("scalers", "amp_stats", "mean"), 0),
    "scaler_std": (("scalers", "doppler", "std"), 1),
    "svm_weight": (("models", "E1", "weights"), (0, 0)),
    "svm_bias": (("models", "E2", "biases"), 1),
    "svm_mean": (("models", "E2", "mean"), 2),
    "tree_threshold": (("models", "E3", "threshold"), 0),
    "knn_matrix_value": (("models", "E6", "matrix"), (3, 4)),
    "centroid_value": (("templates", "E1", "values"), (0, 2)),
}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("part", sorted(HEADER_NUMBERS | BLOCK_NUMBERS))
def test_non_finite_number_is_format_error(small_bundle, part, literal):
    payload = fresh_payload(small_bundle)
    if part in HEADER_NUMBERS:
        *parents, last = HEADER_NUMBERS[part]
        node = _node(payload[0], parents)
        assert type(node[last]) in (int, float)
        node[last] = math.inf  # json writes Infinity, which forge rewrites as `literal`
    else:
        path, index = BLOCK_NUMBERS[part]
        # the bit pattern the literal reads as: NaN, +inf (Infinity, 1e999) or -inf
        _edit(path, "<f8", lambda a: a.__setitem__(index, float(literal)))(payload)
    with pytest.raises(FormatError):
        deserialize_bundle(forge(payload, literal))


def test_every_float_block_is_checked_finite_where_it_is_read(small_bundle):
    """Each `<f8` block, found by walking the header rather than from a list,
    fails to load with a NaN or +inf in it, at the one check that reads it."""
    blocks, dtypes = Blocks(), []

    def put(array, dtype):
        dtypes.append(dtype)
        return blocks.put(array, dtype)
    header = bundle_to_jsonable(small_bundle, put)
    assert pipeline._pack(header, blocks.data) == serialize_bundle(small_bundle)
    floats = [ref["block"] for ref in _array_references(fresh_payload(small_bundle)[0])
              if dtypes[ref["block"]] == "<f8" and math.prod(ref["shape"])]
    # every SVM's std among them, and every non-empty float block
    assert {header["models"][eid]["std"]["block"] for eid in ("E1", "E2")} <= set(floats)
    assert len(floats) == sum(dtype == "<f8" and len(block) > 0
                              for dtype, block in zip(dtypes, blocks.data))
    for block in floats:
        for value in (math.nan, math.inf):
            header, data = fresh_payload(small_bundle)
            array = np.frombuffer(data[block], "<f8").copy()
            array[-1] = value
            data[block] = array.tobytes()
            with pytest.raises(FormatError, match=f"block {block} holds a non-finite number"):
                deserialize_bundle(forge((header, data)))


def _narrowed(eid, names):
    """A payload mutation: the arrays `names` of expert `eid` lose their last column."""
    def mutate(payload):
        for name in names:
            _edit(("models", eid, name), "<f8", lambda a: a[..., :-1])(payload)
    return mutate


# Each model is well formed, but not as wide as its expert's feature kind.
MODELS_OF_ANOTHER_WIDTH = {
    "knn_matrix_narrower": _narrowed("E6", ["matrix"]),
    "svm_narrower": _narrowed("E1", ["weights", "mean", "std"]),
    "forest_wider": _set(("models", "E3", "n_features"), lambda n: n + 1),
}


@pytest.mark.parametrize("case", sorted(MODELS_OF_ANOTHER_WIDTH))
def test_model_of_another_width_is_format_error(small_bundle, case):
    payload = fresh_payload(small_bundle)
    MODELS_OF_ANOTHER_WIDTH[case](payload)
    with pytest.raises(FormatError, match="disagrees with its registry entry or the metadata"):
        deserialize_bundle(forge(payload))


def _length(i, change):
    """A container mutation: `change` gives block i a new length in the table."""
    def mutate(data):
        return with_header(data, lambda header: header["blocks"].__setitem__(
            i, change(header["blocks"][i])))
    return mutate


def _e6_labels(change):
    return lambda data: with_header(data, lambda header: change(header["models"]["E6"]["labels"]))


HOSTILE_CONTAINERS = {
    "reference_to_missing_block": _e6_labels(lambda ref: ref.update(block=10_000)),
    "reference_to_negative_block": _e6_labels(lambda ref: ref.update(block=-1)),
    "block_past_the_end": _length(-1, lambda n: n + 8),
    # the first block, a <f8 scaler, 4 bytes longer: the next block moves on
    # to the next multiple of 8, and the blocks overrun the file
    "misaligned_offset": _length(0, lambda n: n + 4),
    # the padding after it would hide the lost byte; the <f8 reading does not
    "length_one_byte_short": _length(0, lambda n: n - 1),
    "negative_length": _length(0, lambda n: -8),
    "length_is_a_bool": _length(0, lambda n: True),
    # the same number, but not an integer
    "length_is_a_float": _length(0, float),
    "table_missing": lambda data: with_header(data, lambda header: header.pop("blocks")),
    "trailing_bytes": lambda data: data + bytes(8),
    "shape_exceeds_block": _e6_labels(lambda ref: ref.update(shape=[ref["shape"][0] + 1])),
    "shape_short_of_block": _e6_labels(lambda ref: ref.update(shape=[ref["shape"][0] - 1])),
    # numpy's reshape would infer the -1
    "shape_inferred": _e6_labels(lambda ref: ref.update(shape=[-1])),
    "header_not_utf8": lambda data: with_header_text(data, lambda text: b"\xff" + text.encode()),
    "header_not_json": lambda data: with_header_text(data, lambda text: text[:-1]),
    "header_not_an_object": lambda data: with_header_text(data, lambda text: "[]"),
    "header_length_past_the_end": lambda data: data[:8] + struct.pack("<Q", len(data)) + data[16:],
    "version_2_header": lambda data: data[:4] + struct.pack("<I", 2) + data[8:],
}


@pytest.mark.parametrize("case", sorted(HOSTILE_CONTAINERS))
def test_hostile_container_is_format_error(small_bundle, case):
    data = serialize_bundle(small_bundle)
    assert serialize_bundle(deserialize_bundle(with_header(data, lambda header: None))) == data
    with pytest.raises(FormatError):
        deserialize_bundle(HOSTILE_CONTAINERS[case](data))


@pytest.fixture(scope="module")
def tiny_bundle_bytes():
    streams, labels = make_streams(1, 4, seed=43)
    registry = [ExpertSpec("K", D, ClassifierKind.KNN, 300.0, hyperparams={"k": 2}),
                ExpertSpec("S", S, ClassifierKind.LINEAR_SVM, 500.0, hyperparams={"epochs": 5}),
                ExpertSpec("T", S, ClassifierKind.FOREST, 300.0,
                           hyperparams={"num_trees": 2, "max_depth": 3})]
    return serialize_bundle(build_bundle(*split_train_val(streams, labels, seed=43),
                                         registry, seed=43))


def _array_references(node):
    """Every array reference in a JSON header, wherever it sits."""
    if isinstance(node, dict):
        if "block" in node:
            yield node
            return
        node = list(node.values())
    for child in node if isinstance(node, list) else ():
        yield from _array_references(child)


def test_header_states_each_fact_once(tiny_bundle_bytes):
    """The registry gives each model's classifier and feature kind, the
    metadata the class count, the kind the width, and the format each
    array's dtype and each block's offset; none is repeated in the header.
    A forest states its width, which none of its arrays shows."""
    length = struct.unpack_from("<Q", tiny_bundle_bytes, 8)[0]
    header = json.loads(tiny_bundle_bytes[16:16 + length])
    classifiers = {spec["id"]: spec["classifier"] for spec in header["registry"]}
    assert set(classifiers.values()) == {"knn", "svm", "forest"}
    for eid, entry in header["models"].items():
        stated = {"n_features"} if classifiers[eid] == "forest" else set()
        repeated = sorted(entry.keys() & {"type", "kind", "num_classes", "n_features"} - stated)
        assert not repeated, f"model {eid} repeats {repeated}"
        assert stated <= entry.keys(), f"forest {eid} does not state its width"
    assert any(template["labels"] for template in header["templates"].values())
    for eid, template in header["templates"].items():
        assert set(template) == {"labels", "values"}, (
            f"template of {eid} holds more than its labels and rows")
    references = list(_array_references(header))
    assert len(references) == len(header["blocks"])
    for ref in references:
        assert set(ref) == {"block", "shape"}, (
            f"array reference {ref} holds more than its block and shape")
    assert header["blocks"] and all(type(n) is int for n in header["blocks"]), (
        f"the block table holds more than lengths: {header['blocks'][:3]}")
    doppler = [key for key in header["metadata"] if key.startswith("doppler_")]
    assert not doppler, f"metadata repeats the Doppler settings: {doppler}"


JSON_VALUES = st.one_of(st.integers(-2**70, 2**70), st.sampled_from(
    [None, True, 1.5, -0.0, "<f8", "<i4", "<i8", "<f4", "<i1", "<u2", "|O", [], [0], [1, 2],
     [-3], {}]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_bundle_loads_or_is_format_error(tiny_bundle_bytes, data):
    """Flip, truncate or extend the bytes, or rewrite one block length or
    array reference: the bundle must load or raise FormatError."""
    raw = tiny_bundle_bytes
    header_end = 16 + struct.unpack_from("<Q", raw, 8)[0]
    mutation = data.draw(st.sampled_from(["flip", "flip_header", "truncate", "extend",
                                          "table", "reference"]))
    if mutation in ("flip", "flip_header"):
        at = data.draw(st.integers(0, (header_end if mutation == "flip_header" else len(raw)) - 1))
        raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
    elif mutation == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif mutation == "extend":
        raw = raw + data.draw(st.binary(min_size=1, max_size=24))
    else:
        def rewrite(header):
            if mutation == "table":
                entry, keys = header["blocks"], range(len(header["blocks"]))
            else:
                models = header["models"]
                entries = [models["K"]["matrix"], models["K"]["labels"], models["S"]["weights"],
                           models["T"]["feature"], models["T"]["right"], models["T"]["counts"],
                           header["templates"]["T"]["values"]]
                entry = entries[data.draw(st.integers(0, len(entries) - 1))]
                keys = ["block", "shape"]
            entry[data.draw(st.sampled_from(list(keys)))] = data.draw(JSON_VALUES)
        raw = with_header(raw, rewrite)
    try:
        deserialize_bundle(raw)
    except FormatError:
        pass


DELETE = object()
# each JSON type, edge numbers, the registry's enum strings, an expert id,
# and a reference to block 0, the amp_stats scaler mean
HEADER_VALUES = [DELETE, None, True, False, 0, 1, 2, 3, -1, 2**63, 0.5, -0.0, 1e308, "", "K",
                 "knn", "svm", "forest", "doppler", "amp_stats", [], [0], [1, 2], {},
                 {"block": 0, "shape": [6]}]


def _walk_path(header, walk):
    """The path of the node `walk` reaches from the header's root: each step
    takes child `i % count` in key or list order, until a leaf or the walk ends."""
    path, node = [], header
    for i in walk:
        keys = sorted(node) if isinstance(node, dict) else range(len(node)) \
            if isinstance(node, list) else ()
        if not keys:
            break
        path.append(keys[i % len(keys)])
        node = node[path[-1]]
    return path


@settings(max_examples=300, deadline=None)
@given(walk=st.lists(st.integers(0, 63), min_size=1, max_size=8),
       value=st.sampled_from(HEADER_VALUES))
@example(walk=[3, 0, 1, 0], value=0)  # scalers/amp_stats/std/block aimed at the mean's block
def test_header_mutant_is_refused_or_loads_to_a_fixed_point(tiny_bundle_bytes, probe_stream,
                                                             walk, value):
    """Set one header node, at any depth, to a value or delete it, and repack:
    the bundle is a FormatError, or it loads, re-saves to a fixed point,
    detects as its re-save does, and reads each of its blocks once."""
    header, views = pipeline._unpack(tiny_bundle_bytes)
    *parents, last = _walk_path(header, walk)
    if value is DELETE:
        del _node(header, parents)[last]
    else:
        _node(header, parents)[last] = json.loads(json.dumps(value))
    raw = pipeline._pack(header, [bytes(view) for view in views])
    try:
        loaded = deserialize_bundle(raw)
    except FormatError:
        return
    header, views = pipeline._unpack(raw)
    blocks = Blocks(views)
    bundle_from_jsonable(header, blocks.get)
    assert [blocks.reads.get(i, 0) for i in range(len(views))] == [1] * len(views)
    resaved = serialize_bundle(loaded)
    again = deserialize_bundle(resaved)
    assert serialize_bundle(again) == resaved
    for rate in (150.0, 1000.0):  # fallback, and every expert eligible
        assert (bits(lambda: report_fields(detect(probe_stream, rate, loaded)))
                == bits(lambda: report_fields(detect(probe_stream, rate, again))))
