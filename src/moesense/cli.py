"""Command-line surface: parses the arguments of dataset generation, training,
the rate/target sweeps (run by `moesense.evaluate`) and single-shot
detection, and formats their output.

Subcommands
-----------
generate     write a labeled stream dataset (files + manifest.csv)
train        build a trained bundle from a dataset
eval-rate    accuracy vs. communication rate, CSV output
eval-targets accuracy vs. number of targets, CSV output
detect       run the detector on one stream file

All commands are deterministic under a fixed --seed. Relative output paths
resolve under $MOESENSE_OUT_DIR when it is set. Exit codes: 0 success,
2 configuration, 3 input, 4 I/O, 5 format, 6 training.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .errors import EXIT_IO, EXIT_OK, InputError, MoeSenseError
from .evaluate import (
    DEFAULT_SWEEP_RATE,
    ExperimentConfig,
    dataset_configs,
    evaluate_rate_sweep,
    evaluate_target_sweep,
    iter_dataset,
)
from .gating import default_registry, load_registry
from .pipeline import (
    DEFAULT_VAL_FRACTION,
    build_bundle,
    detect,
    load_bundle,
    save_bundle,
    split_train_val,
)
from .simulate import (
    ManifestEntry,
    ScenarioConfig,
    load_stream,
    read_manifest,
    save_stream,
    write_manifest,
)

# Bound here only for the benchmark's tracer (perfbench/tracer.py), which wraps them here too.
from .classifiers import predict_posterior  # noqa: F401
from .gating import decide, fuse  # noqa: F401
from .simulate import decimate  # noqa: F401

DEFAULT_RATES = (100.0, 200.0, 300.0, 400.0, 500.0)
DEFAULT_TARGET_COUNTS = tuple(range(3, 11))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _resolve_out(path: str) -> Path:
    base = os.environ.get("MOESENSE_OUT_DIR")
    p = Path(path)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _load_dataset_entries(dataset_dir: Path) -> list[ManifestEntry]:
    manifest = dataset_dir / "manifest.csv"
    if not manifest.exists():
        raise InputError(f"no manifest.csv under {dataset_dir}")
    return read_manifest(manifest)


def cmd_generate(args: argparse.Namespace) -> int:
    scene = ScenarioConfig(0, args.packet_rate, args.duration, args.subcarriers, args.snr_db,
                           (args.doppler_min, args.doppler_max))
    cfg = ExperimentConfig(args.k_max, args.streams_per_class, args.seed, scene)
    out_dir = _resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    per_class_counter: dict[int, int] = {}
    for stream, label in iter_dataset(dataset_configs(cfg)):
        idx = per_class_counter.get(label, 0)
        per_class_counter[label] = idx + 1
        name = f"class{label}_{idx:04d}.csi"
        save_stream(stream, out_dir / name)
        entries.append(ManifestEntry(name, label))
    write_manifest(out_dir / "manifest.csv", entries)
    print(f"wrote {len(entries)} streams to {out_dir}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    dataset_dir = Path(args.dataset)
    entries = _load_dataset_entries(dataset_dir)
    registry = load_registry(args.registry) if args.registry else default_registry()

    labels = [e.label for e in entries]
    train_e, train_l, val_e, val_l = split_train_val(
        entries, labels, val_fraction=args.val_fraction, seed=args.seed
    )
    bundle = build_bundle(
        (load_stream(dataset_dir / e.path) for e in train_e), train_l,
        (load_stream(dataset_dir / e.path) for e in val_e), val_l,
        registry, seed=args.seed,
    )

    out = _resolve_out(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_bundle(bundle, out)

    acc = bundle.metadata["validation_accuracy"]
    print(f"{'expert':<8}{'feature':<12}{'classifier':<12}{'req_rate':>9}{'val_acc':>9}")
    for spec in bundle.registry:
        print(
            f"{spec.id:<8}{spec.feature_kind.value:<12}{spec.classifier_kind.value:<12}"
            f"{spec.required_rate:>9.1f}{acc[spec.id]:>9.4f}"
        )
    print(f"bundle written to {out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    """eval-rate and eval-targets: load, sweep, write the CSV."""
    bundle = load_bundle(args.bundle)
    dataset_dir = Path(args.dataset)
    entries = _load_dataset_entries(dataset_dir)
    by_rate = args.command == "eval-rate"
    data = ((load_stream(dataset_dir / e.path), e.label) for e in entries)
    if by_rate:
        table = evaluate_rate_sweep(bundle, data, args.rates, seed=args.seed)
    else:
        table = evaluate_target_sweep(bundle, data, args.counts, rate=args.rate)
    out = _resolve_out(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    table.write_csv(out)
    print(f"{'rate' if by_rate else 'target'} sweep written to {out}")
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    stream = load_stream(args.stream)
    report = detect(stream, args.rate, bundle)

    if args.json:
        payload = {
            "predicted_count": report.predicted_count,
            "mode": report.mode.value,
            "selected": list(report.decision.selected),
            "weights": [round(w, 6) for w in report.decision.weights],
            "eligible": sorted(report.decision.eligible),
            "current_rate": report.current_rate,
            "fused": [round(float(p), 6) for p in report.fused],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"predicted_count: {report.predicted_count}")
        print(f"mode: {report.mode.value}")
        print(f"selected: {' '.join(report.decision.selected)}")
        print("weights: " + " ".join(f"{w:.4f}" for w in report.decision.weights))
        print(f"eligible: {' '.join(sorted(report.decision.eligible)) or '(none)'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moesense", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = ExperimentConfig()
    scene = experiment.scene
    p = sub.add_parser("generate", help="synthesize a labeled stream dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k-max", type=int, default=experiment.k_max)
    p.add_argument("--streams-per-class", type=int, default=experiment.streams_per_class)
    p.add_argument("--seed", type=int, default=experiment.seed)
    p.add_argument("--packet-rate", type=float, default=scene.packet_rate)
    p.add_argument("--duration", type=float, default=scene.duration)
    p.add_argument("--subcarriers", type=int, default=scene.num_subcarriers)
    p.add_argument("--snr-db", type=float, default=scene.snr_db)
    p.add_argument("--doppler-min", type=float, default=scene.doppler_range[0])
    p.add_argument("--doppler-max", type=float, default=scene.doppler_range[1])
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train all experts and build a bundle")
    p.add_argument("--dataset", required=True, help="dataset directory (with manifest.csv)")
    p.add_argument("--out", required=True, help="bundle output path")
    p.add_argument("--registry", default=None, help="registry JSON (default: built-in 8 experts)")
    p.add_argument("--seed", type=int, default=experiment.seed)
    p.add_argument("--val-fraction", type=float, default=DEFAULT_VAL_FRACTION)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-rate", help="accuracy vs. communication rate")
    p.add_argument("--bundle", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--rates", type=_float_list, default=list(DEFAULT_RATES))
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--seed", type=int, default=experiment.seed)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("eval-targets", help="accuracy vs. number of targets")
    p.add_argument("--bundle", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--counts", type=_int_list, default=list(DEFAULT_TARGET_COUNTS))
    p.add_argument("--rate", type=float, default=DEFAULT_SWEEP_RATE)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="detect the target count in one stream")
    p.add_argument("--bundle", required=True)
    p.add_argument("--stream", required=True, help="stream container file")
    p.add_argument("--rate", type=float, required=True, help="current communication rate")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MoeSenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
