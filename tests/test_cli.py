import csv
import dataclasses
import functools
import inspect
import json
import math
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moesense import cli, evaluate, pipeline
from moesense.classifiers import HYPERPARAM_RANGES, HYPERPARAMS
from moesense.cli import main
from moesense.evaluate import evaluate_rate_sweep, evaluate_target_sweep
from moesense.errors import (
    EXIT_CONFIG,
    EXIT_FORMAT,
    EXIT_INPUT,
    EXIT_IO,
    EXIT_OK,
    EXIT_TRAINING,
    ConfigurationError,
    FormatError,
    InputError,
    MoeSenseError,
    RateError,
    TrainingError,
)
from moesense.gating import candidates, expert_input_rate, spec_from_jsonable
from moesense.pipeline import BUNDLE_MAGIC, BUNDLE_VERSION, load_bundle
from moesense.simulate import (
    CsiStream,
    ScenarioConfig,
    decimation_stride,
    load_stream,
    read_manifest,
    save_stream,
    serialize_stream,
    synthesize_stream,
    write_manifest,
)

GEN_ARGS = ["--k-max", "2", "--streams-per-class", "6", "--subcarriers", "8",
            "--duration", "1.0", "--seed", "11"]


def generate(out_dir, extra=()):
    rc = main(["generate", "--out", str(out_dir), *GEN_ARGS, *extra])
    assert rc == EXIT_OK
    return out_dir


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return generate(tmp_path_factory.mktemp("data") / "ds")


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("bundle") / "bundle.moe"
    rc = main(["train", "--dataset", str(dataset), "--out", str(path), "--seed", "3"])
    assert rc == EXIT_OK
    return path


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_counts_and_manifest(dataset):
    entries = read_manifest(dataset / "manifest.csv")
    assert len(entries) == 18  # 3 classes x 6 streams
    assert sorted({e.label for e in entries}) == [0, 1, 2]
    assert all((dataset / e.path).exists() for e in entries)
    assert all(load_stream(dataset / e.path).packet_rate == 1000.0 for e in entries)


def test_generate_deterministic(tmp_path):
    a = generate(tmp_path / "a")
    b = generate(tmp_path / "b")
    assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
    entries = read_manifest(a / "manifest.csv")
    for e in entries[:4]:
        assert (a / e.path).read_bytes() == (b / e.path).read_bytes()


def test_generate_single_class(tmp_path):
    out = tmp_path / "k0"
    rc = main(["generate", "--out", str(out), "--k-max", "0", "--streams-per-class", "3",
               "--subcarriers", "4", "--duration", "1.0", "--seed", "5"])
    assert rc == EXIT_OK
    assert len(read_manifest(out / "manifest.csv")) == 3


def test_generate_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MOESENSE_OUT_DIR", str(tmp_path))
    rc = main(["generate", "--out", "nested/ds", "--k-max", "0", "--streams-per-class", "2",
               "--subcarriers", "4", "--duration", "1.0", "--seed", "5"])
    assert rc == EXIT_OK
    assert (tmp_path / "nested" / "ds" / "manifest.csv").exists()


def test_generate_overflowing_scenario_length_is_config_error(tmp_path, capsys):
    # a finite rate whose packet count over the default 2 s overflows to infinity
    rc = main(["generate", "--out", str(tmp_path / "x"), "--k-max", "0",
               "--streams-per-class", "1", "--packet-rate", "1e308"])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("flags", [["--k-max", "-1"], ["--streams-per-class", "0"]])
def test_generate_without_classes_or_streams_is_config_error(tmp_path, capsys, flags):
    out = tmp_path / "x"
    assert main(["generate", "--out", str(out), *GEN_ARGS, *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: k_max must be >= 0 and streams_per_class")
    assert not out.exists()


# 4000 dB overflowed 10**(snr/10) and -4000 divided by zero, each a traceback;
# -1100 wrote streams with 1e55 samples that `train` refused; nan and -inf
# wrote noise-free streams, as inf does.
@pytest.mark.parametrize("snr", ["4000", "-4000", "-1100", "nan", "-inf", "-100.5", "300.5"])
def test_generate_snr_outside_its_range_is_config_error(tmp_path, capsys, snr):
    out = tmp_path / "x"
    assert main(["generate", "--out", str(out), *GEN_ARGS, f"--snr-db={snr}"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: snr_db must be inf or lie in [-100.0, 300.0]")
    assert not out.exists()


@pytest.mark.parametrize("snr", ["inf", "-100", "300"])
def test_generate_snr_at_the_ends_of_its_range_writes_streams(tmp_path, snr):
    out = tmp_path / "x"
    assert main(["generate", "--out", str(out), "--k-max", "1", "--streams-per-class", "1",
                 "--subcarriers", "4", "--duration", "1.0", f"--snr-db={snr}"]) == EXIT_OK
    assert [load_stream(out / e.path).num_packets for e in read_manifest(out / "manifest.csv")] \
        == [1000, 1000]


def test_generate_flags_set_every_scene_field(tmp_path):
    out = tmp_path / "g"
    rc = main(["generate", "--out", str(out), "--k-max", "1", "--streams-per-class", "2",
               "--seed", "9", "--packet-rate", "400", "--duration", "0.5", "--subcarriers", "3",
               "--snr-db", "20", "--doppler-min", "10", "--doppler-max", "30"])
    assert rc == EXIT_OK
    scene = ScenarioConfig(0, 400.0, 0.5, 3, 20.0, (10.0, 30.0))
    configs = evaluate.dataset_configs(evaluate.ExperimentConfig(1, 2, 9, scene))
    entries = read_manifest(out / "manifest.csv")
    assert len(entries) == len(configs) == 4
    for entry, config in zip(entries, configs):
        assert (out / entry.path).read_bytes() == serialize_stream(synthesize_stream(config))


def test_experiment_config_keeps_one_scene():
    assert [f.name for f in dataclasses.fields(evaluate.ExperimentConfig)] == [
        "k_max", "streams_per_class", "seed", "scene"]
    assert evaluate.ExperimentConfig().scene == ScenarioConfig(0)


MOVED_OWNERS = {
    "ExperimentConfig": functools.partial(
        evaluate.ExperimentConfig, 7, 3, 8, ScenarioConfig(0, 800.0, 1.5, 12, 20.0, (7.0, 70.0))),
    "DEFAULT_VAL_FRACTION": 0.4,
    "DEFAULT_RATES": (150.0, 250.0),
    "DEFAULT_TARGET_COUNTS": (1, 2),
    "DEFAULT_SWEEP_RATE": 450.0,
}


@pytest.mark.parametrize("owners", ["as_built", "moved"])
def test_parser_defaults_read_their_owners(monkeypatch, owners):
    # with every owner moved, a default typed into the parser as a literal stays behind
    if owners == "moved":
        for name, value in MOVED_OWNERS.items():
            monkeypatch.setattr(cli, name, value)
    experiment = cli.ExperimentConfig()
    scene = experiment.scene
    parse = cli.build_parser().parse_args
    generate = parse(["generate", "--out", "x"])
    assert (generate.k_max, generate.streams_per_class, generate.seed) == (
        experiment.k_max, experiment.streams_per_class, experiment.seed)
    assert (generate.packet_rate, generate.duration, generate.subcarriers, generate.snr_db,
            (generate.doppler_min, generate.doppler_max)) == (
        scene.packet_rate, scene.duration, scene.num_subcarriers, scene.snr_db, scene.doppler_range)
    train = parse(["train", "--dataset", "d", "--out", "b"])
    assert (train.seed, train.val_fraction) == (experiment.seed, cli.DEFAULT_VAL_FRACTION)
    rate = parse(["eval-rate", "--bundle", "b", "--dataset", "d", "--out", "o"])
    assert (rate.seed, rate.rates) == (experiment.seed, list(cli.DEFAULT_RATES))
    targets = parse(["eval-targets", "--bundle", "b", "--dataset", "d", "--out", "o"])
    assert (targets.counts, targets.rate) == (list(cli.DEFAULT_TARGET_COUNTS), cli.DEFAULT_SWEEP_RATE)
    if owners == "as_built":
        assert cli.DEFAULT_VAL_FRACTION == pipeline.DEFAULT_VAL_FRACTION
        sweep_seed = inspect.signature(evaluate.evaluate_rate_sweep).parameters["seed"].default
        assert sweep_seed == evaluate.ExperimentConfig().seed


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_builds_eight_expert_bundle(bundle_path, capsys):
    bundle = load_bundle(bundle_path)
    assert len(bundle.models) == 8
    assert sorted(bundle.models) == [f"E{i}" for i in range(1, 9)]


def test_train_prints_accuracy_table(dataset, tmp_path, capsys):
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "b.moe"),
               "--seed", "3"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "val_acc" in out
    for eid in ("E1", "E8"):
        assert eid in out


@pytest.mark.parametrize("fraction", ["nan", "inf", "-0.25", "0", "1.5"])
def test_train_val_fraction_outside_zero_to_one_is_config_error(dataset, tmp_path, capsys,
                                                                 fraction):
    out = tmp_path / "b.moe"
    rc = main(["train", "--dataset", str(dataset), "--out", str(out),
               f"--val-fraction={fraction}"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: val_fraction must lie between 0 and 1")
    assert not out.exists()


# numpy refuses a negative seed, and a bundle's metadata must read its seed
# back as a float; 2**63 is the first seed past the range.
@pytest.mark.parametrize("command,seed", [("generate", -1), ("train", -1), ("eval-rate", -1),
                                          ("train", 2**63), ("train", int("9" * 400))],
                         ids=["generate-1", "train-1", "eval-rate-1", "train-2**63", "train-400-nines"])
def test_seed_outside_zero_to_2_63_is_config_error(dataset, bundle_path, tmp_path, capsys,
                                                   command, seed):
    out = tmp_path / "out"
    inputs = {"generate": GEN_ARGS,
              "train": ["--dataset", str(dataset)],
              "eval-rate": ["--bundle", str(bundle_path), "--dataset", str(dataset), "--rates", "100"]}
    capsys.readouterr()
    rc = main([command, *inputs[command], "--out", str(out), f"--seed={seed}"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: seed must be an integer in [0, 2**63)")
    assert not out.exists()


def test_largest_seed_trains_a_bundle_that_loads(dataset, tmp_path):
    out = tmp_path / "b.moe"
    assert main(["train", "--dataset", str(dataset), "--out", str(out),
                 "--seed", str(2**63 - 1)]) == EXIT_OK
    stream = dataset / read_manifest(dataset / "manifest.csv")[0].path
    assert main(["detect", "--bundle", str(out), "--stream", str(stream), "--rate", "300"]) == EXIT_OK


def test_train_duplicate_registry_id(dataset, tmp_path):
    registry = {
        "experts": [
            {"id": "E1", "feature": "doppler", "classifier": "knn", "required_rate": 100.0},
            {"id": "E1", "feature": "amp_stats", "classifier": "knn", "required_rate": 200.0},
        ]
    }
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps(registry))
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "b.moe"),
               "--registry", str(reg_path)])
    assert rc == EXIT_CONFIG


def test_train_registry_with_an_empty_id_is_config_error(dataset, tmp_path, capsys):
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps({"experts": [{"id": "", "feature": "doppler",
                                                 "classifier": "knn", "required_rate": 100.0}]}))
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "b.moe"),
               "--registry", str(reg_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: expert id must be non-empty")
    assert not (tmp_path / "b.moe").exists()


@pytest.mark.parametrize("rates", [{"required_rate": float("nan")}, {"required_rate": -300.0}])
def test_train_registry_with_bad_rate_is_config_error(dataset, tmp_path, rates):
    registry = {"experts": [{"id": "E1", "feature": "doppler", "classifier": "knn", **rates}]}
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps(registry))  # writes NaN, which json.loads reads back
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "b.moe"),
               "--registry", str(reg_path)])
    assert rc == EXIT_CONFIG


KNN_ENTRY = {"id": "E1", "feature": "doppler", "classifier": "knn", "required_rate": 100.0}
FOREST_ENTRY = {**KNN_ENTRY, "classifier": "forest"}
MALFORMED_REGISTRIES = {
    "required_rate_null": {"experts": [{**KNN_ENTRY, "required_rate": None}]},
    "hyperparams_not_an_object": {"experts": [{**KNN_ENTRY, "hyperparams": [1]}]},
    "entry_not_an_object": {"experts": [1]},
    "experts_not_a_list": {"experts": 5},
    "k_null": {"experts": [{**KNN_ENTRY, "hyperparams": {"k": None}}]},
    "k_string": {"experts": [{**KNN_ENTRY, "hyperparams": {"k": "abc"}}]},
    "max_depth_null": {"experts": [{**FOREST_ENTRY, "hyperparams": {"max_depth": None}}]},
    # bool("false") is True, so a coerced string would train with bootstrap on
    "bootstrap_string": {"experts": [{**FOREST_ENTRY, "hyperparams": {"bootstrap": "false"}}]},
    "k_zero": {"experts": [{**KNN_ENTRY, "hyperparams": {"k": 0}}]},
    "num_trees_huge": {"experts": [{**FOREST_ENTRY, "hyperparams": {"num_trees": 10**6}}]},
    # the default l2, 1e-3, makes the first step's shrink factor 1 - 1e3 * 1e-3 zero
    "svm_shrink_not_positive": {"experts": [{**KNN_ENTRY, "classifier": "svm",
                                             "hyperparams": {"step_size": 1e3}}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REGISTRIES))
def test_train_malformed_registry_is_config_error(dataset, tmp_path, case):
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps(MALFORMED_REGISTRIES[case]))
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "b.moe"),
               "--registry", str(reg_path)])
    assert rc == EXIT_CONFIG
    assert not (tmp_path / "b.moe").exists()


@pytest.mark.parametrize("field,value", [("hyperparameters", {"k": 50}), ("nominal_rate", 500.0)])
def test_train_registry_entry_with_an_unknown_field_is_config_error(dataset, tmp_path, capsys,
                                                                    field, value):
    # a misspelt field used to be dropped, so this trained with k=5; a second
    # rate is no field since an expert trains, qualifies and is served at one rate
    entry = {"id": "S", "feature": "amp_stats", "classifier": "knn", "required_rate": 300.0,
             field: value}
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps({"experts": [entry]}))
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "b.moe"),
               "--registry", str(reg_path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(field) in err
    assert not (tmp_path / "b.moe").exists()


def test_train_diverging_svm_is_training_error(dataset, tmp_path, capsys):
    # the weights overflow; such a bundle used to be written, and then no load accepted it.
    # l2 is 0, so that this step size passes the registry's step_size * l2 < 1.
    registry = {"experts": [{"id": "S", "feature": "amp_stats", "classifier": "svm",
                             "required_rate": 500.0,
                             "hyperparams": {"epochs": 5, "step_size": 1e300, "l2": 0.0}}]}
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps(registry))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # also in the forked training workers
        rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "b.moe"),
                   "--registry", str(reg_path)])
    assert rc == EXIT_TRAINING
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "linear SVM diverged" in err
    assert not (tmp_path / "b.moe").exists()


def test_train_reports_the_first_failing_expert_in_id_order(dataset, tmp_path, monkeypatch,
                                                             capsys):
    def svm_fails(data, **hyperparams):
        raise TrainingError("svm expert failed")

    def knn_fails_later(data, **hyperparams):
        time.sleep(0.5)  # the SVM, later in id order, fails first
        raise TrainingError("knn expert failed")

    monkeypatch.setattr(pipeline, "train_linear_svm", svm_fails)
    monkeypatch.setattr(pipeline, "train_knn", knn_fails_later)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a two-worker pool
    registry = {"experts": [
        {"id": "A", "feature": "doppler", "classifier": "knn", "required_rate": 300.0},
        {"id": "B", "feature": "amp_stats", "classifier": "svm", "required_rate": 300.0},
    ]}
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps(registry))
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "b.moe"),
               "--registry", str(reg_path)])
    assert rc == EXIT_TRAINING
    assert "knn expert failed" in capsys.readouterr().err
    assert not (tmp_path / "b.moe").exists()


def dies_in_its_worker(spec, data, seed):
    """A training job whose worker process exits at once; a forked worker
    unpickles a job's function by name, so it is defined at module level."""
    os._exit(1)


def test_dead_training_worker_is_exit_6_and_writes_no_bundle(dataset, tmp_path, monkeypatch,
                                                              capsys):
    monkeypatch.setattr(pipeline, "_train_expert", dies_in_its_worker)
    spec = spec_from_jsonable(KNN_ENTRY)
    stream = pipeline.StreamFeatures(CsiStream(np.zeros((1000, 1), complex), 1000.0))  # 1 s
    with pytest.raises(TrainingError, match="worker died"):
        pipeline._train_experts([(spec, 0)], ([stream], [0], 1), lambda: None)
    assert multiprocessing.active_children() == []

    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps({"experts": [KNN_ENTRY]}))
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "b.moe"),
               "--registry", str(reg_path)])  # one expert, so one worker
    assert rc == EXIT_TRAINING
    assert "an expert training worker died" in capsys.readouterr().err
    assert not (tmp_path / "b.moe").exists()
    assert multiprocessing.active_children() == []


# Entry fields whose JSON type is wrong, each of which used to be converted.
MISTYPED_ENTRY_FIELDS = {
    "id_null": {"id": None},
    "id_number": {"id": 7},
    "hyperparams_pairs": {"hyperparams": [["epochs", 3]]},
    "required_rate_string": {"required_rate": "600"},
    "nominal_rate_string": {"nominal_rate": "300"},
    "required_rate_bool": {"required_rate": True},
    "required_rate_huge_int": {"required_rate": 10**400},
}


@pytest.mark.parametrize("case", sorted(MISTYPED_ENTRY_FIELDS))
def test_train_registry_with_mistyped_field_is_config_error(dataset, tmp_path, case):
    entry = {"id": "E1", "feature": "doppler", "classifier": "svm", "required_rate": 600.0,
             **MISTYPED_ENTRY_FIELDS[case]}
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps({"experts": [entry]}))
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "b.moe"),
               "--registry", str(reg_path)])
    assert rc == EXIT_CONFIG
    assert not (tmp_path / "b.moe").exists()


def test_module_help_exits_0():
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "moesense.cli", "--help"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == EXIT_OK
    assert done.stdout.startswith("usage: moesense") and "eval-targets" in done.stdout


def test_train_missing_dataset(tmp_path):
    rc = main(["train", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "b.moe")])
    assert rc == EXIT_INPUT


# ---------------------------------------------------------------------------
# eval-rate
# ---------------------------------------------------------------------------

def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_eval_rate_schema_and_ranges(dataset, bundle_path, tmp_path):
    out = tmp_path / "rates.csv"
    rc = main(["eval-rate", "--bundle", str(bundle_path), "--dataset", str(dataset),
               "--rates", "100,300,500", "--out", str(out), "--seed", "4"])
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 3
    assert set(rows[0]) == {"rate", "n_samples", "framework", "random3",
                            *{f"E{i}" for i in range(1, 9)}}
    for row in rows:
        assert row["n_samples"] == "18"
        assert 0.0 <= float(row["framework"]) <= 1.0
        assert 0.0 <= float(row["random3"]) <= 1.0


def test_eval_rate_above_base_rejected(dataset, bundle_path, tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["eval-rate", "--bundle", str(bundle_path), "--dataset", str(dataset),
               "--rates", "2000", "--out", str(out)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: target_rate 2000.0 exceeds stream rate 1000.0")
    assert not out.exists()


@pytest.fixture(scope="module")
def mixed_rates(tmp_path_factory, dataset):
    """`dataset` plus three class-0 streams at 200 pkts/s."""
    slow, out = tmp_path_factory.mktemp("slow"), tmp_path_factory.mktemp("mixed")
    assert main(["generate", "--out", str(slow), "--k-max", "0", "--streams-per-class", "3",
                 "--subcarriers", "8", "--duration", "1.0", "--packet-rate", "200"]) == EXIT_OK
    entries = []
    for folder, prefix in ((dataset, ""), (slow, "slow_")):
        for e in read_manifest(folder / "manifest.csv"):
            shutil.copy(folder / e.path, out / (prefix + e.path))
            entries.append(e._replace(path=prefix + e.path))
    write_manifest(out / "manifest.csv", entries)
    return out


def test_eval_targets_counts_only_the_streams_of_its_counts(mixed_rates, bundle_path, tmp_path):
    # each stream states its own rate: the 200 pkts/s streams are all class 0,
    # which this sweep skips, so they bar no rate
    out = tmp_path / "t.csv"
    rc = main(["eval-targets", "--bundle", str(bundle_path), "--dataset", str(mixed_rates),
               "--counts", "1,2", "--rate", "300", "--out", str(out)])
    assert rc == EXIT_OK
    assert [(row["target_count"], row["n_samples"]) for row in read_csv(out)] == [("1", "6"),
                                                                                  ("2", "6")]


def test_eval_rate_above_a_counted_streams_rate_is_input_error(mixed_rates, bundle_path,
                                                               tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["eval-rate", "--bundle", str(bundle_path), "--dataset", str(mixed_rates),
               "--rates", "300", "--out", str(out)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: target_rate 300.0 exceeds stream rate 200.0")
    assert not out.exists()


def test_eval_rate_at_the_streams_own_rate(bundle_path, tmp_path):
    # the streams' own rate, as their headers state it
    data = tmp_path / "ds"
    assert main(["generate", "--out", str(data), "--k-max", "1", "--streams-per-class", "2",
                 "--subcarriers", "4", "--duration", "1.0", "--packet-rate", "333.33333"]) == EXIT_OK
    out = tmp_path / "r.csv"
    rc = main(["eval-rate", "--bundle", str(bundle_path), "--dataset", str(data),
               "--rates", "333.33333", "--out", str(out)])
    assert rc == EXIT_OK
    (row,) = read_csv(out)
    assert (row["rate"], row["n_samples"]) == ("333.3333", "4")


def test_eval_rate_repeated_rate_is_input_error(dataset, bundle_path, tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["eval-rate", "--bundle", str(bundle_path), "--dataset", str(dataset),
               "--rates", "100,300,100.0", "--out", str(out)])
    assert rc == EXIT_INPUT
    assert not out.exists()


# Each used to exit 0: the empty lists with a header-only CSV, and the repeated
# count with one row for the two.
@pytest.mark.parametrize("command", [["eval-rate", "--rates", ""],
                                     ["eval-targets", "--counts", ""],
                                     ["eval-targets", "--counts", "1,1"]],
                         ids=["no_rate", "no_count", "repeated_count"])
def test_empty_or_repeated_sweep_conditions_are_input_error(dataset, bundle_path, tmp_path,
                                                            capsys, command):
    out = tmp_path / "sweep.csv"
    rc = main([command[0], "--bundle", str(bundle_path), "--dataset", str(dataset),
               "--out", str(out), *command[1:]])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: a sweep needs distinct conditions")
    assert not out.exists()


# The last three are positive, but so small that 1000 pkts/s over them
# overflows to an infinite decimation stride.
@pytest.mark.parametrize("command", ["detect --rate=0", "detect --rate=-5", "detect --rate=nan",
                                     "eval-rate --rates=0", "eval-rate --rates=nan",
                                     "detect --rate=5e-324", "detect --rate=1e-310",
                                     "eval-rate --rates=5e-324"])
def test_bad_rate_is_input_error(dataset, bundle_path, tmp_path, capsys, command):
    command = command.split()
    entry = read_manifest(dataset / "manifest.csv")[0]
    where = (["--stream", str(dataset / entry.path)] if command[0] == "detect"
             else ["--dataset", str(dataset), "--out", str(tmp_path / "r.csv")])
    rc = main([command[0], "--bundle", str(bundle_path), *where, *command[1:]])
    assert rc == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_eval_rate_single_eligible_expert_identity(dataset, tmp_path):
    # only one expert can run at 100 pkts/s, so the fused result is its own
    registry = {
        "experts": [
            {"id": "LO", "feature": "amp_stats", "classifier": "knn", "required_rate": 100.0},
            {"id": "HI", "feature": "amp_stats", "classifier": "knn", "required_rate": 800.0},
        ]
    }
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps(registry))
    bundle_file = tmp_path / "two.moe"
    assert main(["train", "--dataset", str(dataset), "--out", str(bundle_file),
                 "--registry", str(reg_path), "--seed", "2"]) == EXIT_OK
    out = tmp_path / "rates.csv"
    assert main(["eval-rate", "--bundle", str(bundle_file), "--dataset", str(dataset),
                 "--rates", "100", "--out", str(out), "--seed", "2"]) == EXIT_OK
    row = read_csv(out)[0]
    assert row["framework"] == row["LO"]
    assert row["HI"] == ""


def test_eval_rate_deterministic_bytes(dataset, tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    bundle_a, bundle_b = tmp_path / "a.moe", tmp_path / "b.moe"
    for bundle, out in ((bundle_a, out_a), (bundle_b, out_b)):
        assert main(["train", "--dataset", str(dataset), "--out", str(bundle),
                     "--seed", "9"]) == EXIT_OK
        assert main(["eval-rate", "--bundle", str(bundle), "--dataset", str(dataset),
                     "--rates", "100,500", "--out", str(out), "--seed", "9"]) == EXIT_OK
    assert bundle_a.read_bytes() == bundle_b.read_bytes()
    assert out_a.read_bytes() == out_b.read_bytes()


def counted(monkeypatch, module, name):
    """The first argument of every call to `module.name` from now on."""
    calls, original = [], getattr(module, name)

    def count(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, count)
    return calls


def test_sweeps_compute_a_streams_series_once_and_never_decimate(dataset, bundle_path,
                                                                 monkeypatch):
    bundle = load_bundle(bundle_path)
    data = [(load_stream(dataset / e.path), e.label)
            for e in read_manifest(dataset / "manifest.csv")]
    series = counted(monkeypatch, pipeline, "mean_amplitude_series")
    decimated = counted(monkeypatch, pipeline, "decimate")
    predicted = counted(monkeypatch, pipeline, "predict_posterior")
    rates = [100.0, 200.0, 300.0, 400.0, 500.0]
    evaluate_rate_sweep(bundle, iter(data), rates)
    assert series == [stream for stream, _ in data]  # CsiStream compares by identity
    # each stream predicts each pool expert once per distinct input stride
    strides = [{(eid, decimation_stride(stream.packet_rate,
                                        expert_input_rate(bundle.spec(eid), rate)))
                for rate in rates for eid in candidates(bundle.registry, rate)[1]}
               for stream, _ in data]
    expert_of = {id(model): eid for eid, model in bundle.models.items()}
    assert sorted(expert_of[id(model)] for model in predicted) == sorted(
        eid for pairs in strides for eid, _ in pairs)
    series.clear()
    # the target sweep reads no stream whose label it skips
    evaluate_target_sweep(bundle, iter(data), [1], rate=300.0)
    assert series == [stream for stream, label in data if label == 1]
    assert decimated == []


# ---------------------------------------------------------------------------
# eval-targets
# ---------------------------------------------------------------------------

def test_eval_targets_rows(dataset, bundle_path, tmp_path):
    out = tmp_path / "targets.csv"
    rc = main(["eval-targets", "--bundle", str(bundle_path), "--dataset", str(dataset),
               "--counts", "0,1,2", "--rate", "300", "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert [r["target_count"] for r in rows] == ["0", "1", "2"]
    assert all(r["n_samples"] == "6" for r in rows)
    # the pool at 300 pkts/s is E5/E7/E8; there is no random-triple column
    assert out.read_text().splitlines()[0] == "target_count,n_samples,framework,E5,E7,E8"


@pytest.mark.parametrize("rate,pool", [
    (300.0, ["E5", "E7", "E8"]),             # normal gating
    (100.0, [f"E{i}" for i in range(1, 9)]),  # fallback: the whole registry
])
def test_target_rows_add_up_to_the_rate_row(dataset, bundle_path, rate, pool):
    bundle = load_bundle(bundle_path)
    entries = read_manifest(dataset / "manifest.csv")

    def data():
        return ((load_stream(dataset / e.path), e.label) for e in entries)

    (rate_row,) = evaluate_rate_sweep(bundle, data(), [rate]).rows
    target_rows = evaluate_target_sweep(bundle, data(), [0, 1, 2], rate=rate).rows
    assert [k for k in rate_row if k.startswith("E")] == pool
    assert [k for k in target_rows[0] if k.startswith("E")] == pool
    n = rate_row["n_samples"]
    assert sum(row["n_samples"] for row in target_rows) == n == len(entries)
    for column in ["framework", *pool]:
        hits = sum(round(row[column] * row["n_samples"]) for row in target_rows)
        assert hits == round(rate_row[column] * n), column


def test_eval_targets_has_no_seed_option(dataset, bundle_path, tmp_path, capsys):
    # the target sweep draws no random triple, so a seed would have no effect
    with pytest.raises(SystemExit) as exc:
        main(["eval-targets", "--bundle", str(bundle_path), "--dataset", str(dataset),
              "--counts", "0,1", "--rate", "300", "--out", str(tmp_path / "t.csv"),
              "--seed", "1"])
    assert exc.value.code == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_eval_targets_missing_count(dataset, bundle_path, tmp_path):
    rc = main(["eval-targets", "--bundle", str(bundle_path), "--dataset", str(dataset),
               "--counts", "0,7", "--rate", "300", "--out", str(tmp_path / "t.csv")])
    assert rc == EXIT_INPUT


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def test_detect_human_output(dataset, bundle_path, capsys):
    entry = read_manifest(dataset / "manifest.csv")[0]
    rc = main(["detect", "--bundle", str(bundle_path), "--stream", str(dataset / entry.path),
               "--rate", "400"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "predicted_count:" in out and "mode: normal" in out
    weights = [float(w) for w in out.splitlines()[3].split()[1:]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-3)


def test_detect_json_matches(dataset, bundle_path, capsys):
    entry = read_manifest(dataset / "manifest.csv")[2]
    args = ["detect", "--bundle", str(bundle_path), "--stream", str(dataset / entry.path),
            "--rate", "400"]
    assert main(args) == EXIT_OK
    human = capsys.readouterr().out
    assert main(args + ["--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert f"predicted_count: {payload['predicted_count']}" in human
    assert payload["mode"] == "normal"
    assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-5)
    assert len(payload["fused"]) == 3


def test_detect_fallback_mode_printed(dataset, bundle_path, capsys):
    entry = read_manifest(dataset / "manifest.csv")[0]
    rc = main(["detect", "--bundle", str(bundle_path), "--stream", str(dataset / entry.path),
               "--rate", "50"])
    assert rc == EXIT_OK
    assert "mode: fallback" in capsys.readouterr().out


def test_detect_missing_stream_is_io_error(bundle_path, tmp_path):
    rc = main(["detect", "--bundle", str(bundle_path), "--stream", str(tmp_path / "gone.csi"),
               "--rate", "100"])
    assert rc == EXIT_IO


def test_detect_corrupt_stream_is_format_error(bundle_path, tmp_path):
    bad = tmp_path / "bad.csi"
    bad.write_bytes(b"garbage data that is not a stream")
    rc = main(["detect", "--bundle", str(bundle_path), "--stream", str(bad), "--rate", "100"])
    assert rc == EXIT_FORMAT


def test_detect_stream_without_subcarriers_is_format_error(bundle_path, tmp_path, capsys):
    empty = tmp_path / "empty.csi"
    save_stream(CsiStream(np.zeros((1000, 0), complex), 1000.0), empty)
    rc = main(["detect", "--bundle", str(bundle_path), "--stream", str(empty), "--rate", "500",
               "--json"])
    assert rc == EXIT_FORMAT
    assert capsys.readouterr().out == ""


def test_detect_stream_with_a_huge_sample_is_format_error(dataset, bundle_path, tmp_path, capsys):
    # At 500 pkts/s a 1e200 would overflow the Doppler spectrum; the reader
    # bounds samples as detect does.
    stream = load_stream(dataset / read_manifest(dataset / "manifest.csv")[4].path)
    samples = stream.samples.copy()
    samples[500, 2] = 1e200
    huge = tmp_path / "huge.csi"
    save_stream(CsiStream(samples, stream.packet_rate), huge)
    rc = main(["detect", "--bundle", str(bundle_path), "--stream", str(huge), "--rate", "500",
               "--json"])
    assert rc == EXIT_FORMAT
    assert capsys.readouterr().out == ""


def test_train_stream_with_a_huge_sample_is_format_error(dataset, tmp_path, capsys):
    # A 1e200 sample would train SVM weights that are not finite; the reader
    # bounds samples as detect does, before any feature is computed.
    copy = tmp_path / "ds"
    shutil.copytree(dataset, copy)
    entry = read_manifest(copy / "manifest.csv")[4]
    stream = load_stream(copy / entry.path)
    samples = stream.samples.copy()
    samples[500, 2] = 1e200
    save_stream(CsiStream(samples, stream.packet_rate), copy / entry.path)
    out = tmp_path / "bundle.moe"
    rc = main(["train", "--dataset", str(copy), "--out", str(out), "--seed", "3"])
    assert rc == EXIT_FORMAT
    assert not out.exists()
    assert "below 1e+50" in capsys.readouterr().err


STREAM_HEADER = struct.Struct("<4sIQQd")  # magic, header length, packets, subcarriers, rate


@pytest.fixture(scope="module")
def fuzzed_stream_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "stream.csi"


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_stream_detects_or_is_input_or_format_error(dataset, bundle_path,
                                                            fuzzed_stream_path, data):
    """Flip header bytes, set edge header values, truncate, or flip payload
    bytes of a CSI3 stream: `moesense detect` must exit 0, 3 or 5."""
    raw = (dataset / read_manifest(dataset / "manifest.csv")[4].path).read_bytes()
    size = STREAM_HEADER.size
    mutation = data.draw(st.sampled_from(["flip_header", "edge_header", "truncate",
                                          "flip_payload"]))
    if mutation in ("flip_header", "flip_payload"):
        lo, hi = (0, size) if mutation == "flip_header" else (size, len(raw))
        at = data.draw(st.integers(lo, hi - 1))
        raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
    elif mutation == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        # the payload is cut to the packets and subcarriers the header names
        magic, length, n, k, rate = STREAM_HEADER.unpack_from(raw)
        edge = data.draw(st.sampled_from(["length", "packets", "subcarriers", "rate"]))
        if edge == "length":
            length = data.draw(st.sampled_from([0, 28, 31, 33, 40, 2**32 - 1]))
        elif edge == "packets":
            n = data.draw(st.sampled_from([0, 1, 7, 8]))
        elif edge == "subcarriers":
            k = 0
        else:
            rate = data.draw(st.sampled_from([5e-324, 1e-300, 1e300]))
        raw = STREAM_HEADER.pack(magic, length, n, k, rate) + raw[size:size + n * k * 16]
    fuzzed_stream_path.write_bytes(raw)
    rate = data.draw(st.sampled_from(["50", "300", "500"]))
    assert main(["detect", "--bundle", str(bundle_path), "--stream", str(fuzzed_stream_path),
                 "--rate", rate, "--json"]) in (EXIT_OK, EXIT_INPUT, EXIT_FORMAT)


# The exit codes the CLI documents: 2 configuration, 3 input, 5 format, 6 training.
@pytest.mark.parametrize("error,code", [(MoeSenseError, 3), (ConfigurationError, 2),
                                        (InputError, 3), (RateError, 3), (FormatError, 5),
                                        (TrainingError, 6)])
def test_each_error_class_exits_with_its_documented_code(monkeypatch, capsys, error, code):
    def fail(path):
        raise error("refused")

    monkeypatch.setattr(cli, "load_bundle", fail)
    assert main(["detect", "--bundle", "b.moe", "--stream", "s.csi", "--rate", "100"]) == code
    assert capsys.readouterr().err == "error: refused\n"


def test_detect_corrupt_bundle_is_format_error(dataset, tmp_path):
    entry = read_manifest(dataset / "manifest.csv")[0]
    bad = tmp_path / "bad.moe"
    bad.write_bytes(b"MOEBxxxxgarbage")
    rc = main(["detect", "--bundle", str(bad), "--stream", str(dataset / entry.path),
               "--rate", "100"])
    assert rc == EXIT_FORMAT


def forged_bundle(bundle_path, tmp_path, edit):
    """A copy of the bundle at `bundle_path` after `edit(header, blocks)`
    changed its JSON header or its blocks (writable bytearrays)."""
    header, blocks = pipeline._unpack(bundle_path.read_bytes())
    blocks = [bytearray(block) for block in blocks]
    edit(header, blocks)
    bad = tmp_path / "forged.moe"
    bad.write_bytes(pipeline._pack(header, blocks))
    return bad


def test_detect_bundle_with_null_model_is_format_error(dataset, bundle_path, tmp_path):
    entry = read_manifest(dataset / "manifest.csv")[0]
    bad = forged_bundle(bundle_path, tmp_path,
                        lambda header, blocks: header["models"].update(E1=None))
    rc = main(["detect", "--bundle", str(bad), "--stream", str(dataset / entry.path),
               "--rate", "100"])
    assert rc == EXIT_FORMAT


def test_detect_bundle_with_nan_required_rate_is_format_error(dataset, bundle_path, tmp_path):
    entry = read_manifest(dataset / "manifest.csv")[0]
    bad = forged_bundle(bundle_path, tmp_path, lambda header, blocks:
                        header["registry"][2].update(required_rate=float("nan")))
    rc = main(["detect", "--bundle", str(bad), "--stream", str(dataset / entry.path),
               "--rate", "500"])
    assert rc == EXIT_FORMAT


@pytest.mark.parametrize("literal", ["NaN", "1e999"])
def test_detect_bundle_with_non_finite_scaler_is_format_error(dataset, bundle_path, tmp_path,
                                                              literal):
    entry = read_manifest(dataset / "manifest.csv")[0]

    def edit(header, blocks):
        # the bit pattern the literal reads as: NaN, or +inf for 1e999
        block = blocks[header["scalers"]["amp_stats"]["mean"]["block"]]
        np.frombuffer(block, "<f8")[0] = float(literal)

    bad = forged_bundle(bundle_path, tmp_path, edit)
    rc = main(["detect", "--bundle", str(bad), "--stream", str(dataset / entry.path),
               "--rate", "300"])
    assert rc == EXIT_FORMAT


def test_detect_bundle_with_a_wider_amp_stats_scaler_is_format_error(dataset, bundle_path,
                                                                     tmp_path, capsys):
    # the scaler and every amp_stats centroid one column wider, so they agree with each other
    def widen(header, blocks, ref, fill):
        values = np.frombuffer(blocks[ref["block"]], "<f8").reshape(ref["shape"])
        values = np.concatenate([values, np.full((*values.shape[:-1], 1), fill)], axis=-1)
        blocks[ref["block"]][:] = values.astype("<f8").tobytes()
        ref["shape"] = list(values.shape)

    def edit(header, blocks):
        scaler = header["scalers"]["amp_stats"]
        widen(header, blocks, scaler["mean"], 0.0)
        widen(header, blocks, scaler["std"], 1.0)
        for spec in header["registry"]:
            if spec["feature"] == "amp_stats":
                widen(header, blocks, header["templates"][spec["id"]]["values"], 0.0)

    bad = forged_bundle(bundle_path, tmp_path, edit)
    entry = read_manifest(dataset / "manifest.csv")[0]
    rc = main(["detect", "--bundle", str(bad), "--stream", str(dataset / entry.path),
               "--rate", "300"])
    assert rc == EXIT_FORMAT
    assert "amp_stats scaler is not 6 wide" in capsys.readouterr().err


def test_detect_deeply_nested_bundle_is_format_error(dataset, tmp_path):
    entry = read_manifest(dataset / "manifest.csv")[0]
    body = b"[" * 200_000
    bad = tmp_path / "nested.moe"
    bad.write_bytes(struct.pack("<4sIQ", BUNDLE_MAGIC, BUNDLE_VERSION, len(body)) + body)
    rc = main(["detect", "--bundle", str(bad), "--stream", str(dataset / entry.path),
               "--rate", "100"])
    assert rc == EXIT_FORMAT


@pytest.mark.parametrize("forge", [
    # a bundle written by the previous format version
    lambda data: data[:4] + struct.pack("<I", 2) + data[8:],
    # the first block, the 48-byte amp_stats scaler mean, 4 bytes longer: the
    # next block moves on to the next multiple of 8, and the blocks overrun the file
    lambda data: data.replace(b'"blocks":[48,', b'"blocks":[52,', 1),
], ids=["version_2", "misaligned_block"])
def test_detect_hostile_bundle_container_is_format_error(dataset, bundle_path, tmp_path, forge):
    entry = read_manifest(dataset / "manifest.csv")[0]
    bad = tmp_path / "hostile.moe"
    data = bundle_path.read_bytes()
    forged = forge(data)
    assert forged != data and load_bundle(bundle_path)
    bad.write_bytes(forged)
    rc = main(["detect", "--bundle", str(bad), "--stream", str(dataset / entry.path),
               "--rate", "500"])
    assert rc == EXIT_FORMAT


def test_detect_version_3_bundle_says_retrain(dataset, bundle_path, tmp_path, capsys):
    # version 3 stored forests as full-width <i4 and <f8 columns
    data = bundle_path.read_bytes()
    old = tmp_path / "v3.moe"
    old.write_bytes(data[:4] + struct.pack("<I", 3) + data[8:])
    entry = read_manifest(dataset / "manifest.csv")[0]
    rc = main(["detect", "--bundle", str(old), "--stream", str(dataset / entry.path),
               "--rate", "500"])
    assert rc == EXIT_FORMAT
    assert "version 3; retrain" in capsys.readouterr().err


@pytest.mark.parametrize("hyperparams", [{"bootstrap": "false"}, {"max_depth": None},
                                         {"trees": 5}, {"max_depth": 0}])
def test_detect_bundle_with_bad_hyperparams_is_format_error(dataset, bundle_path, tmp_path,
                                                            hyperparams):
    entry = read_manifest(dataset / "manifest.csv")[0]

    def edit(header, blocks):
        assert header["registry"][2]["classifier"] == "forest"
        header["registry"][2]["hyperparams"] = hyperparams

    bad = forged_bundle(bundle_path, tmp_path, edit)
    rc = main(["detect", "--bundle", str(bad), "--stream", str(dataset / entry.path),
               "--rate", "500"])
    assert rc == EXIT_FORMAT


@pytest.mark.parametrize("case", sorted(MISTYPED_ENTRY_FIELDS))
def test_detect_bundle_with_mistyped_registry_field_is_format_error(dataset, bundle_path,
                                                                    tmp_path, case):
    entry = read_manifest(dataset / "manifest.csv")[0]

    def edit(header, blocks):
        assert header["registry"][0]["classifier"] == "svm"
        header["registry"][0].update(MISTYPED_ENTRY_FIELDS[case])

    bad = forged_bundle(bundle_path, tmp_path, edit)
    rc = main(["detect", "--bundle", str(bad), "--stream", str(dataset / entry.path),
               "--rate", "600"])
    assert rc == EXIT_FORMAT


@pytest.mark.parametrize("command", [
    ["eval-rate", "--rates", "100"],
    ["eval-targets", "--counts", "0", "--rate", "300"],
])
def test_eval_on_empty_manifest_is_input_error(bundle_path, tmp_path, capsys, command):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "manifest.csv").write_text("path,label\n")
    rc = main([command[0], "--bundle", str(bundle_path), "--dataset", str(empty),
               "--out", str(tmp_path / "out.csv"), *command[1:]])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: a sweep needs at least one stream")
    assert not (tmp_path / "out.csv").exists()


def test_train_on_empty_manifest_is_training_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "manifest.csv").write_text("path,label\n")
    out = tmp_path / "out" / "b.moe"
    rc = main(["train", "--dataset", str(empty), "--out", str(out)])
    assert rc == EXIT_TRAINING
    assert capsys.readouterr().err.startswith("error: train and validation sets must be non-empty")
    assert not out.parent.exists()


# The retired stream containers, each as a header before the samples: CSI1 also
# held the scene's seed and true target count after the rate; CSI2 had no header
# length, so its 28 bytes left the samples 4 bytes off 8-alignment.
RETIRED_HEADERS = {
    "CSI1": lambda stream, label: struct.pack("<4sQQdqq", b"CSI1", *stream.samples.shape,
                                              stream.packet_rate, 11, label),
    "CSI2": lambda stream, label: struct.pack("<4sQQd", b"CSI2", *stream.samples.shape,
                                              stream.packet_rate),
}


@pytest.fixture(scope="module")
def retired_datasets(dataset, tmp_path_factory):
    """`dataset` once per retired container, every stream rewritten in it."""
    out = {}
    for magic, header in RETIRED_HEADERS.items():
        out[magic] = tmp_path_factory.mktemp(magic.lower()) / "ds"
        shutil.copytree(dataset, out[magic])
        for entry in read_manifest(out[magic] / "manifest.csv"):
            stream = load_stream(out[magic] / entry.path)
            (out[magic] / entry.path).write_bytes(header(stream, entry.label)
                                                  + stream.samples.astype("<c16").tobytes())
    return out


def retired_stream_is_format_error(magic, datasets, bundle_path, tmp_path, capsys, command):
    """`command` on the dataset in the retired container `magic` exits 5 naming
    CSI3, and writes nothing."""
    dataset, out = datasets[magic], tmp_path / "out"
    args = {"detect": ["--bundle", str(bundle_path), "--stream",
                       str(dataset / "class0_0000.csi"), "--rate", "500", "--json"],
            "train": ["--dataset", str(dataset), "--out", str(out)],
            "eval-rate": ["--bundle", str(bundle_path), "--dataset", str(dataset),
                          "--out", str(out)]}[command]
    assert main([command, *args]) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad stream magic b'{magic}', expected b'CSI3'")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["detect", "train", "eval-rate"])
def test_csi1_stream_is_format_error(retired_datasets, bundle_path, tmp_path, capsys, command):
    retired_stream_is_format_error("CSI1", retired_datasets, bundle_path, tmp_path, capsys, command)


@pytest.mark.parametrize("command", ["detect", "train", "eval-rate"])
def test_csi2_stream_is_format_error(retired_datasets, bundle_path, tmp_path, capsys, command):
    retired_stream_is_format_error("CSI2", retired_datasets, bundle_path, tmp_path, capsys, command)


def test_train_with_a_huge_label_is_training_error_without_a_huge_allocation(tmp_path):
    # Under a 1 GiB address-space limit, any allocation that grows with the
    # largest label fails with MemoryError instead of exhausting the host.
    generate(tmp_path / "ds", ["--k-max", "1", "--streams-per-class", "8", "--subcarriers", "4"])
    manifest = tmp_path / "ds" / "manifest.csv"
    entries = read_manifest(manifest)
    write_manifest(manifest, [*entries[:-1], entries[-1]._replace(label=10**22)])
    out = tmp_path / "b.moe"
    script = ("import resource, sys\nfrom moesense.cli import main\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
              f"sys.exit(main(['train', '--dataset', {str(tmp_path / 'ds')!r}, "
              f"'--out', {str(out)!r}]))\n")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == EXIT_TRAINING, proc.stderr
    assert proc.stderr.startswith(f"error: training data misses classes of 0..{10**22}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval-rate", "eval-targets"])
def test_manifest_with_a_rate_column_is_format_error(bundle_path, tmp_path, capsys, command):
    # what an older `generate` wrote: each stream's rate is in its own header now
    old = tmp_path / "old"
    old.mkdir()
    (old / "manifest.csv").write_text("path,label,rate\nclass0_0000.csi,0,1000.0\n")
    out = tmp_path / "out"
    sweep = [] if command == "train" else ["--bundle", str(bundle_path)]
    rc = main([command, *sweep, "--dataset", str(old), "--out", str(out)])
    assert rc == EXIT_FORMAT
    assert capsys.readouterr().err.startswith(
        "error: manifest header is ['path', 'label', 'rate'], expected path,label")
    assert not out.exists()


def test_bundle_with_a_zero_svm_std_is_format_error(dataset, bundle_path, tmp_path, capsys):
    def edit(header, blocks):
        assert header["registry"][1]["id"] == "E2" and header["registry"][1]["classifier"] == "svm"
        np.frombuffer(blocks[header["models"]["E2"]["std"]["block"]], "<f8")[0] = 0.0

    bad = forged_bundle(bundle_path, tmp_path, edit)
    entry = read_manifest(dataset / "manifest.csv")[0]
    for command in (["eval-rate", "--dataset", str(dataset), "--rates", "100,600",
                     "--out", str(tmp_path / "rate.csv")],
                    ["detect", "--stream", str(dataset / entry.path), "--rate", "700"]):
        # before the load checked it, E2 predicted NaN: a divide-by-zero RuntimeWarning
        assert main([command[0], "--bundle", str(bad), *command[1:]]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "svm numbers could make a prediction overflow" in err


# ---------------------------------------------------------------------------
# fuzzing bundles, manifests and registry files through main()
# ---------------------------------------------------------------------------

DOCUMENTED_EXITS = (EXIT_CONFIG, EXIT_INPUT, EXIT_IO, EXIT_FORMAT, EXIT_TRAINING)


@pytest.fixture(scope="module")
def two_streams(tmp_path_factory, dataset):
    """A dataset of two of `dataset`'s streams, labelled 0 and 1."""
    out = tmp_path_factory.mktemp("two") / "ds"
    out.mkdir()
    entries = read_manifest(dataset / "manifest.csv")
    picks = [next(e for e in entries if e.label == label) for label in (0, 1)]
    for e in picks:
        shutil.copy(dataset / e.path, out / e.path)
    write_manifest(out / "manifest.csv", picks)
    return out


TINY_REGISTRY = {"experts": [
    {"id": "K", "feature": "doppler", "classifier": "knn", "required_rate": 300.0,
     "hyperparams": {"k": 2}},
    {"id": "S", "feature": "amp_stats", "classifier": "svm", "required_rate": 500.0,
     "hyperparams": {"epochs": 5}},
    {"id": "T", "feature": "amp_stats", "classifier": "forest", "required_rate": 300.0,
     "hyperparams": {"num_trees": 2, "max_depth": 3}},
]}


@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory, dataset):
    """A bundle of one small expert of each classifier kind."""
    folder = tmp_path_factory.mktemp("tiny")
    (folder / "registry.json").write_text(json.dumps(TINY_REGISTRY))
    assert main(["train", "--dataset", str(dataset), "--out", str(folder / "tiny.moe"),
                 "--registry", str(folder / "registry.json"), "--seed", "5"]) == EXIT_OK
    return (folder / "tiny.moe").read_bytes()


# Doubles that overflow, underflow or are not numbers; as a bundle's model
# numbers they could each make a prediction or the gate's scaling non-finite.
EDGE_DOUBLES = [1e308, -1e308, 1e300, 1e-300, 5e-324, 0.0, -0.0, math.inf, math.nan]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_bundle_sweeps_or_exits_with_a_documented_code(tiny_bundle, two_streams,
                                                               tmp_path_factory, data):
    """Flip a byte, overwrite an 8-byte block word with an edge double,
    truncate or extend a bundle: `moesense eval-rate` over two streams must
    exit 0 or with a documented code, and never warn (tier-1 makes a
    RuntimeWarning an error)."""
    raw = tiny_bundle
    header_end = 16 + struct.unpack_from("<Q", raw, 8)[0]
    first_block = header_end + -header_end % 8
    mutation = data.draw(st.sampled_from(["flip", "edge_word", "truncate", "extend"]))
    if mutation == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
    elif mutation == "edge_word":
        # blocks start at multiples of 8, so every <f8 is one of these words
        at = first_block + 8 * data.draw(st.integers(0, (len(raw) - first_block) // 8 - 1))
        raw = raw[:at] + struct.pack("<d", data.draw(st.sampled_from(EDGE_DOUBLES))) + raw[at + 8:]
    elif mutation == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        raw = raw + data.draw(st.binary(min_size=1, max_size=24))
    folder = tmp_path_factory.mktemp("fuzz_bundle")
    (folder / "b.moe").write_bytes(raw)
    rc = main(["eval-rate", "--bundle", str(folder / "b.moe"), "--dataset", str(two_streams),
               "--rates", "100,600", "--out", str(folder / "rate.csv")])
    assert rc in (EXIT_OK, *DOCUMENTED_EXITS)


def _read_as(convert, text):
    """`convert(text)`, or None where it raises ValueError."""
    try:
        return convert(text)
    except ValueError:
        return None


# Text that is never UTF-8: a byte no UTF-8 sequence holds, a lone continuation
# byte, a lead byte before ASCII, and an encoded surrogate.
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_malformed_manifest_exits_with_a_documented_code(bundle_path, two_streams,
                                                         tmp_path_factory, data):
    """Break the header, one cell, or the shape, size or encoding of one row:
    each is a manifest `moesense eval-rate` must refuse with a documented
    code, never exit 0 or print a traceback."""
    folder = tmp_path_factory.mktemp("fuzz_manifest")
    rows = [["path", "label"],
            *([e.path, str(e.label)] for e in read_manifest(two_streams / "manifest.csv"))]
    row = rows[data.draw(st.integers(1, 2))]
    mutation = data.draw(st.sampled_from(["header", "path", "label", "extra_cell", "short_row",
                                          "huge_cell", "not_utf8"]))
    if mutation == "header":
        rows[0] = data.draw(st.lists(TEXT, max_size=4).filter(
            lambda cells: cells != ["path", "label"]))
    elif mutation == "path":  # a path that names no stream file, or holds a NUL
        row[0] = data.draw(TEXT.filter(lambda text: not (two_streams / text).is_file()))
    elif mutation == "label":  # not a count
        row[1] = data.draw(TEXT.filter(lambda text: (n := _read_as(int, text)) is None or n < 0))
    elif mutation == "extra_cell":  # such as the rate column an older `generate` wrote
        row.append(data.draw(st.one_of(TEXT, st.floats().map(repr))))
    elif mutation == "short_row":
        del row[1:]
    elif mutation == "huge_cell":  # over the csv module's field size limit
        row[data.draw(st.integers(0, 1))] = "9" * (csv.field_size_limit() + 1)
    with open(folder / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    if mutation == "not_utf8":
        text = (folder / "manifest.csv").read_bytes()
        at = data.draw(st.integers(0, len(text)))
        (folder / "manifest.csv").write_bytes(text[:at] + data.draw(st.sampled_from(NOT_UTF8))
                                              + text[at:])
    for e in read_manifest(two_streams / "manifest.csv"):
        if not (folder / e.path).exists():
            shutil.copy(two_streams / e.path, folder / e.path)
    rc = main(["eval-rate", "--bundle", str(bundle_path), "--dataset", str(folder),
               "--rates", "100,600", "--out", str(folder / "rate.csv")])
    assert rc in DOCUMENTED_EXITS


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=6)


def _is_hyperparam_value(name, value, default):
    """The registry's rule: a float takes any finite JSON number, every other
    default only a value of its own type, and the value lies in its range."""
    if type(default) is float:
        typed = type(value) in (int, float) and -math.inf < value < math.inf
    else:
        typed = type(value) is type(default)
    low, high = HYPERPARAM_RANGES[name]
    return typed and low <= value <= high


@st.composite
def malformed_registry_texts(draw):
    """TINY_REGISTRY's JSON with one fault that makes it no registry: cut
    short, not UTF-8, not a list of entries, an entry without a field or with
    a field it does not have, or a field with a value it does not take."""
    registry = json.loads(json.dumps(TINY_REGISTRY))
    entry = registry["experts"][draw(st.integers(0, 2))]
    others = {e["id"] for e in registry["experts"]} - {entry["id"]}
    mutation = draw(st.sampled_from(["truncate", "not_utf8", "experts", "missing", "id",
                                     "feature", "classifier", "rate", "hyperparams",
                                     "unknown_field"]))
    if mutation == "experts":
        registry = draw(st.one_of(
            JSON_VALUE.filter(lambda v: not isinstance(v, dict)),
            JSON_VALUE.filter(lambda v: not isinstance(v, list) or v == []).map(
                lambda v: {"experts": v})))
    elif mutation == "missing":
        del entry[draw(st.sampled_from(["id", "feature", "classifier", "required_rate"]))]
    elif mutation == "id":  # not a new non-empty string
        entry["id"] = draw(JSON_VALUE.filter(lambda v: not isinstance(v, str) or v == "")
                           | st.sampled_from(sorted(others)))
    elif mutation in ("feature", "classifier"):
        valid = {"feature": ["doppler", "amp_stats"], "classifier": ["knn", "svm", "forest"]}
        entry[mutation] = draw(JSON_VALUE.filter(lambda v: v not in valid[mutation]))
    elif mutation == "rate":  # not a finite, positive JSON number
        entry["required_rate"] = draw(JSON_VALUE.filter(
            lambda v: type(v) not in (int, float) or not 0 < v < math.inf))
    elif mutation == "unknown_field":  # a misspelt field, or a second rate
        name = draw(st.sampled_from(["hyperparameters", "nominal_rate"]) | TEXT.filter(
            lambda k: k not in ("id", "feature", "classifier", "required_rate", "hyperparams")))
        entry[name] = draw(JSON_VALUE)
    elif mutation == "hyperparams":
        defaults = HYPERPARAMS[entry["classifier"]]
        name = draw(st.sampled_from(sorted(defaults)) | TEXT)
        if name in defaults:  # then a value of the wrong type, or out of range
            low, high = HYPERPARAM_RANGES[name]
            value = draw((JSON_VALUE | st.sampled_from([low - 1, high + 1, -high])).filter(
                lambda v: not _is_hyperparam_value(name, v, defaults[name])))
        else:
            value = draw(JSON_VALUE)
        entry["hyperparams"] = draw(st.sampled_from([{name: value}, [name, value]]))
    text = json.dumps(registry).encode()
    if mutation == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if mutation == "not_utf8":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(NOT_UTF8)) + text[at:]
    return text


@settings(max_examples=200, deadline=None)
@given(malformed_registry_texts())
def test_malformed_registry_file_exits_with_a_documented_code(dataset, tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("fuzz_registry")
    (folder / "registry.json").write_bytes(text)
    rc = main(["train", "--dataset", str(dataset), "--out", str(folder / "b.moe"),
               "--registry", str(folder / "registry.json")])
    assert rc in DOCUMENTED_EXITS
    assert not (folder / "b.moe").exists()
