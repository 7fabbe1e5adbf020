"""Acceptance gates for the full system.

Each test prints one `[criterion N] ... PASS/FAIL` line (run with `-s` to see
them on success). The two benchmark fixtures are deliberately the expensive
part: a 6-class rate benchmark and an 11-class target-count benchmark, both
fully seeded so every number here is reproducible bit for bit.
"""
import time

import numpy as np
import pytest

from moesense.classifiers import (
    LabeledDataset,
    predict_forest,
    predict_knn,
    predict_linear_svm,
    train_forest,
    train_knn,
    train_linear_svm,
)
from moesense.cli import main
from moesense.evaluate import (
    ExperimentConfig,
    dataset_configs,
    evaluate_rate_sweep,
    evaluate_target_sweep,
    iter_dataset,
)
from moesense.features import FeatureKind, FeatureVector, extract_doppler, pearson
from moesense.gating import GatingMode, default_registry, filter_by_rate
from moesense.pipeline import build_bundle, detect, split_train_val
from moesense.simulate import ScenarioConfig, TargetPath, synthesize_stream

TRAIN_SEED = 42          # benchmark convention: test data uses TRAIN_SEED + 1
TEST_SEED = 43
TEST_STREAMS_PER_CLASS = 200


class criterion:
    """Context manager that prints one PASS/FAIL line per acceptance gate."""

    def __init__(self, number, name):
        self.tag = f"[criterion {number}] {name}"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"{self.tag}: {'FAIL' if exc_type else 'PASS'}")
        return False


def build_benchmark_bundle(k_max, streams_per_class=100):
    configs = dataset_configs(ExperimentConfig(k_max=k_max, streams_per_class=streams_per_class,
                                               seed=TRAIN_SEED))
    labels = [c.num_targets for c in configs]
    tr_c, tr_l, va_c, va_l = split_train_val(configs, labels, seed=TRAIN_SEED)
    return build_bundle(
        (synthesize_stream(c) for c in tr_c), tr_l,
        (synthesize_stream(c) for c in va_c), va_l,
        default_registry(), seed=TRAIN_SEED,
    )


def benchmark_test_configs(k_max):
    return dataset_configs(ExperimentConfig(k_max=k_max,
                                            streams_per_class=TEST_STREAMS_PER_CLASS,
                                            seed=TEST_SEED))


@pytest.fixture(scope="module")
def bench5():
    t0 = time.monotonic()
    bundle = build_benchmark_bundle(5)
    return {"bundle": bundle, "build_seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def bench10():
    return build_benchmark_bundle(10)


def test_criterion_1_fusion_dominance(bench5):
    with criterion(1, "fusion dominance at 500 pkts/s"):
        t0 = time.monotonic()
        table = evaluate_rate_sweep(bench5["bundle"], iter_dataset(benchmark_test_configs(5)),
                                    [500.0], seed=TRAIN_SEED)
        elapsed = bench5["build_seconds"] + (time.monotonic() - t0)
        row = table.rows[0]
        assert row["n_samples"] == 6 * TEST_STREAMS_PER_CLASS
        individual = {k: v for k, v in row.items() if k.startswith("E")}
        best = max(individual.values())
        print(f"  framework {row['framework']:.4f}, best individual {best:.4f}, "
              f"random3 {row['random3']:.4f}, runtime {elapsed:.0f}s")
        assert row["framework"] >= best - 0.02
        assert row["framework"] >= row["random3"] - 0.02
        assert elapsed <= 300.0


def test_criterion_2_fallback_totality(bench5):
    with criterion(2, "fallback totality at 50 pkts/s"):
        bundle = bench5["bundle"]
        n = 0
        for stream, label in iter_dataset(benchmark_test_configs(5)):
            report = detect(stream, 50.0, bundle)
            assert report.mode is GatingMode.FALLBACK
            assert 0 <= report.predicted_count <= 5
            assert sum(report.decision.weights) == pytest.approx(1.0, abs=1e-9)
            n += 1
        assert n == 6 * TEST_STREAMS_PER_CLASS


def test_criterion_3_robustness_trend(bench10):
    with criterion(3, "smaller accuracy drop from 3 to 10 targets"):
        counts = list(range(3, 11))
        table = evaluate_target_sweep(bench10, iter_dataset(benchmark_test_configs(10)),
                                      counts, rate=300.0)
        rows = {r["target_count"]: r for r in table.rows}
        fw_drop = rows[3]["framework"] - rows[10]["framework"]
        expert_ids = [k for k in rows[3] if k.startswith("E")]
        drops = {eid: rows[3][eid] - rows[10][eid] for eid in expert_ids}
        print(f"  framework drop {fw_drop:.4f}, expert drops "
              f"{ {k: round(v, 4) for k, v in drops.items()} }")
        for eid, drop in drops.items():
            assert fw_drop <= drop + 0.05, f"framework drops more than {eid}"
        # difficulty grows with the target count for every reported expert
        for eid in expert_ids:
            assert rows[10][eid] <= rows[3][eid]


def test_criterion_4_eligibility_reconstruction():
    with criterion(4, "rate eligibility sets"):
        registry = default_registry()
        assert filter_by_rate(registry, 500.0) == {"E3", "E4", "E5", "E6", "E7", "E8"}
        assert filter_by_rate(registry, 300.0) == {"E5", "E7", "E8"}


def test_criterion_5_oracle_equivalences():
    with criterion(5, "oracle equivalences"):
        t0 = time.monotonic()
        rng = np.random.default_rng(7)

        # KNN vs brute force on 100 random 50-point datasets
        for _ in range(100):
            matrix = rng.normal(size=(50, 4))
            labels = rng.integers(0, 4, 50)
            feats = [FeatureVector(FeatureKind.AMPLITUDE_STATS, row, 500.0) for row in matrix]
            data = LabeledDataset.build(feats, labels.tolist(), 4)
            model = train_knn(data, k=5)
            for _ in range(5):
                q = rng.normal(size=4)
                d2 = ((matrix - q) ** 2).sum(axis=1)
                order = sorted(range(50), key=lambda i: (d2[i], i))[:5]
                expected = np.bincount(labels[order], minlength=4) / 5
                got = predict_knn(model, FeatureVector(FeatureKind.AMPLITUDE_STATS, q, 500.0))
                assert np.array_equal(got, expected)

        # quantiles vs sort-and-interpolate oracle
        for _ in range(200):
            series = rng.uniform(0.1, 5.0, int(rng.integers(2, 300)))
            for q in (0.25, 0.5, 0.75):
                x = np.sort(series)
                pos = q * (len(x) - 1)
                lo, hi = int(np.floor(pos)), int(np.ceil(pos))
                expected = x[lo] + (pos - lo) * (x[hi] - x[lo])
                assert np.quantile(series, q) == pytest.approx(expected, abs=1e-12)

        # every posterior sums to one
        matrix = rng.normal(size=(60, 5))
        labels = rng.integers(0, 3, 60)
        feats = [FeatureVector(FeatureKind.AMPLITUDE_STATS, row, 500.0) for row in matrix]
        data = LabeledDataset.build(feats, labels.tolist(), 3)
        predictors = [
            (train_knn(data, 5), predict_knn),
            (train_linear_svm(data, epochs=30), predict_linear_svm),
            (train_forest(data, 10, 6, seed=3), predict_forest),
        ]
        for _ in range(100):
            q = FeatureVector(FeatureKind.AMPLITUDE_STATS, rng.normal(size=5), 500.0)
            for model, predict in predictors:
                post = predict(model, q)
                assert post.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(post >= 0)

        # pearson properties on 1000 random cases
        for i in range(1000):
            n = int(rng.integers(2, 30))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            r = pearson(a, b)
            assert abs(r) <= 1.0 + 1e-12
            assert r == pytest.approx(pearson(b, a), abs=1e-12)
            if np.ptp(a) > 1e-9:
                sign = 1.0 if i % 2 else -1.0
                assert pearson(a, sign * 2.5 * a + 1.0) == pytest.approx(sign, abs=1e-9)
            assert pearson(a, np.full(n, 3.3)) == 0.0

        elapsed = time.monotonic() - t0
        print(f"  oracle suite runtime {elapsed:.1f}s")
        assert elapsed <= 30.0


def test_criterion_6_doppler_localization():
    with criterion(6, "Doppler bin localization"):
        rng = np.random.default_rng(2024)
        hits = 0
        for _ in range(50):
            freq = float(rng.uniform(5.0, 60.0))
            amp = float(rng.uniform(0.7, 1.0))
            phase = float(rng.uniform(0.0, 2 * np.pi))
            delay = float(rng.uniform(5.0, 50.0))
            cfg = ScenarioConfig(num_targets=1, packet_rate=500.0, duration=2.0,
                                 snr_db=float("inf"), rng_seed=int(rng.integers(2**63)))
            stream = synthesize_stream(cfg, [TargetPath(freq, amp, phase, delay)])
            fv = extract_doppler(stream)  # default 25 bins over [0, 62.5] at 500 pkts/s
            true_bin = int(freq / (62.5 / 25))
            hits += int(abs(int(np.argmax(fv.values)) - true_bin) <= 1)
        assert hits == 50


def test_criterion_7_byte_identical_reruns(tmp_path):
    with criterion(7, "byte-identical train + eval reruns"):
        data_dir = tmp_path / "ds"
        assert main(["generate", "--out", str(data_dir), "--k-max", "2",
                     "--streams-per-class", "12", "--subcarriers", "8",
                     "--duration", "1.0", "--seed", "17"]) == 0
        artifacts = []
        for run in ("one", "two"):
            bundle = tmp_path / f"{run}.moe"
            table = tmp_path / f"{run}.csv"
            assert main(["train", "--dataset", str(data_dir), "--out", str(bundle),
                         "--seed", "17"]) == 0
            assert main(["eval-rate", "--bundle", str(bundle), "--dataset", str(data_dir),
                         "--rates", "100,300,500", "--out", str(table), "--seed", "17"]) == 0
            artifacts.append((bundle.read_bytes(), table.read_bytes()))
        assert artifacts[0][0] == artifacts[1][0], "bundle bytes differ"
        assert artifacts[0][1] == artifacts[1][1], "CSV bytes differ"


def test_benchmark_experts_beat_chance(bench5):
    # sanity on the benchmark itself: every expert learns something
    accs = bench5["bundle"].metadata["validation_accuracy"]
    chance = 1.0 / 6.0
    print("  validation accuracies:", {k: round(v, 3) for k, v in sorted(accs.items())})
    assert all(acc > chance for acc in accs.values())
