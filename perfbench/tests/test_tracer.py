"""Tests for the benchmark's tracer and its refusal to run without the program.

Run from the checkout root: `python3 -m pytest perfbench/tests -q`.
"""
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moesense import cli, pipeline, simulate
from moesense.features import FeatureKind
from moesense.gating import default_registry
from moesense.simulate import ScenarioConfig, synthesize_stream

from tracer import HOOKS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bundle():
    rng = np.random.default_rng(7)
    streams, labels = [], []
    for cls in range(3):
        for _ in range(12):
            streams.append(synthesize_stream(ScenarioConfig(cls, rng_seed=int(rng.integers(2**63)))))
            labels.append(cls)
    tr, tr_l, va, va_l = pipeline.split_train_val(streams, labels, seed=7)
    return pipeline.build_bundle(tr, tr_l, va, va_l, default_registry(), seed=7)


@pytest.fixture(scope="module")
def pool():
    return [synthesize_stream(ScenarioConfig(k, rng_seed=100 + k)) for k in range(3)]


@pytest.mark.parametrize("rate, n_candidates", [(50.0, 8), (300.0, 3)])
def test_detect_call_counts_follow_the_code_path(bundle, pool, rate, n_candidates):
    stream = pool[1]
    with Tracer() as tracer:
        tracer.begin_request("detect")
        report = pipeline.detect(stream, rate, bundle)
    m = {name: value for name, (value, _) in layer_metrics(tracer, ("detect",)).items()}
    selected = len(report.decision.selected)

    assert m["gating.score_experts.calls"] == 1
    assert m["gating.score_experts.candidates"] == n_candidates == len(report.decision.scores)
    assert sum(m[f"classifiers.predict_posterior.{label}.calls"]
               for label in ("knn", "svm", "forest")) == selected
    assert m["simulate.decimate.calls"] == 1 + selected
    assert m["features.extracts_per_request"] == 2 + selected
    assert m["gating.fallback_ratio"] == (1.0 if rate == 50.0 else 0.0)

    # The gate calls pearson once per candidate centroid, unless the centroid
    # or the stream's feature of that kind is constant.
    observed = simulate.decimate(stream, rate)
    features = {kind: pipeline.extract_feature(observed, kind, bundle.doppler_config())
                for kind in FeatureKind}
    expected = sum(
        1
        for eid in report.decision.scores
        for centroid in bundle.templates.centroids(eid).values()
        if np.ptp(centroid.values) > 0 and np.ptp(features[centroid.kind].values) > 0
    )
    assert expected > 0
    assert m["features.pearson.calls"] == expected


def test_traced_outputs_equal_untraced(bundle, pool):
    rates = (50.0, 300.0, 500.0)
    plain = [pipeline.detect(s, r, bundle) for s in pool for r in rates]
    plain_table = cli.evaluate_rate_sweep(bundle, ((s, k) for k, s in enumerate(pool)), rates)
    with Tracer() as tracer:
        traced = [pipeline.detect(s, r, bundle) for s in pool for r in rates]
        traced_table = cli.evaluate_rate_sweep(bundle, ((s, k) for k, s in enumerate(pool)), rates)
    assert tracer.spans
    for a, b in zip(plain, traced):
        assert a.predicted_count == b.predicted_count
        assert np.array_equal(a.fused, b.fused)
        assert a.decision.selected == b.decision.selected
        assert a.decision.weights == b.decision.weights
    assert plain_table.rows == traced_table.rows


def test_only_the_workloads_own_requests_count(bundle, pool):
    with Tracer() as tracer:
        tracer.begin_request("warmup")
        pipeline.detect(pool[0], 300.0, bundle)
        simulate.synthesize_stream(ScenarioConfig(1, rng_seed=3))
        tracer.begin_request("detect")
        pipeline.detect(pool[0], 300.0, bundle)
    m = {name: value for name, (value, _) in layer_metrics(tracer, ("detect",)).items()}
    assert m["gating.decide.calls"] == 1
    assert m["features.extracts_per_request"] == m["features.extractions"]
    assert m["simulate.synthesize_stream.calls"] == 1


def test_every_wrapped_attribute_is_restored(bundle, pool):
    originals = {(m, h.attr): getattr(m, h.attr) for h in HOOKS for m in h.modules}
    with pytest.raises(RuntimeError):
        with Tracer():
            for (module, attr), original in originals.items():
                assert getattr(module, attr) is not original
            pipeline.detect(pool[0], 300.0, bundle)
            raise RuntimeError("leave the block early")
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original


def test_self_times_partition_the_root_spans(bundle, pool):
    with Tracer() as tracer:
        tracer.begin_request("detect")
        pipeline.detect(pool[2], 500.0, bundle)
    spans = tracer.spans
    assert spans[0][0] == "pipeline.detect" and spans[0][3] == -1
    assert all(parent < i for i, (_, _, _, parent, _, _) in enumerate(spans))
    self_ms = sum(v for name, (v, unit) in layer_metrics(tracer, ("detect",)).items()
                  if name.endswith(".self_ms"))
    root_ms = (spans[0][2] - spans[0][1]) / 1e6
    assert self_ms == pytest.approx(root_ms, rel=1e-9)


def test_sweep_chunks_merge_to_one_pass_over_the_pool(bundle):
    import workloads

    configs = [ScenarioConfig(k % 4, rng_seed=200 + k) for k in range(2 * workloads.SWEEP_CHUNK)]
    blobs = [simulate.serialize_stream(synthesize_stream(c)) for c in configs]
    labels = [c.num_targets for c in configs]
    run = workloads.Run(7, None)
    sweep = workloads.Sweep(blobs, labels)
    workloads.sweep_phase(run, bundle, sweep, 2, 0.0)
    whole = cli.evaluate_rate_sweep(
        bundle, ((simulate.deserialize_stream(b), k) for b, k in zip(blobs, labels)),
        workloads.SWEEP_RATES, seed=7)

    assert len(sweep.passes) == 1 and run.ops["sweep"].failed == 0
    assert len(run.digests["sweep_table"]) == 1
    # The random-triple baseline restarts its generator with every call.
    for merged, row in zip(sweep.passes[0], whole.rows):
        assert {k: v for k, v in merged.items() if k != "random3"} == pytest.approx(
            {k: v for k, v in row.items() if k != "random3"})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
