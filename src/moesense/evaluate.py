"""The case study's experiments: seeded synthetic datasets, and accuracy
against the communication rate or the number of targets, with the
random-triple baseline. Each sweep returns a `ResultTable`, which writes
the CSV that `eval-rate` and `eval-targets` print.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, InputError
from .gating import candidates, fuse
from .pipeline import StreamFeatures, TrainedBundle
from .simulate import CsiStream, ScenarioConfig, check_seed, synthesize_stream

DEFAULT_SWEEP_RATE = 300.0  # rate at which the target sweep runs
CSV_FLOAT_FMT = "{:.4f}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the synthetic benchmark; `scene` is what every stream shares
    but its target count and seed."""

    k_max: int = 5
    streams_per_class: int = 100
    seed: int = 42
    scene: ScenarioConfig = ScenarioConfig(0)

    def __post_init__(self) -> None:
        if self.k_max < 0 or self.streams_per_class < 1:
            raise ConfigurationError("k_max must be >= 0 and streams_per_class >= 1")
        check_seed(self.seed, "seed")


def dataset_configs(cfg: ExperimentConfig) -> list[ScenarioConfig]:
    """Per-stream scenario configs with seeds derived from the master seed."""
    master = np.random.default_rng(cfg.seed)
    configs = []
    for cls in range(cfg.k_max + 1):
        for _ in range(cfg.streams_per_class):
            configs.append(replace(cfg.scene, num_targets=cls,
                                   rng_seed=int(master.integers(0, 2**63))))
    return configs


def iter_dataset(configs: Sequence[ScenarioConfig]) -> Iterator[tuple[CsiStream, int]]:
    for sc in configs:
        yield synthesize_stream(sc), sc.num_targets


@dataclass
class ResultTable:
    """Accuracy rows keyed by a sweep condition (rate or target count)."""

    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)

    def fieldnames(self) -> list[str]:
        return list(self.columns)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({key: CSV_FLOAT_FMT.format(val) if isinstance(val, float) else val
                                 for key, val in row.items()})


def _count_hits(
    bundle: TrainedBundle,
    data: Iterable[tuple[CsiStream, int]],
    conditions: Sequence[tuple[object, float]],
    condition_of: Callable[[float, int], object],
    triple_seed: int | None = None,
) -> dict:
    """Hits per sweep condition over every (stream, rate) pair: "n_samples",
    "framework" (`detect`'s prediction), "random3" when `triple_seed` is given,
    then each pool expert (rate-eligible, or all at fallback rates).

    `data` must hold a stream, and `conditions` at least one condition, none
    twice, each paired with its rate, in row order. `condition_of(rate, label)`
    names the one a pair counts toward, and pairs outside them are skipped.
    """
    if not conditions or len(dict(conditions)) != len(conditions):
        raise InputError(f"a sweep needs distinct conditions, got {[c for c, _ in conditions]}")
    rates = list(dict.fromkeys(r for _, r in conditions))
    pools = {r: candidates(bundle.registry, r)[1] for r in rates}
    draws = {r: (np.array(pool), min(3, len(pool))) for r, pool in pools.items()}  # for `choice`
    # One generator per rate draws a fresh random triple per stream, so the
    # baseline shows the average random combination, not one lucky draw.
    triple_rngs = {} if triple_seed is None else {
        r: np.random.default_rng([triple_seed, i]) for i, r in enumerate(sorted(rates))}
    random3 = ["random3"] if triple_rngs else []
    hits = {c: dict.fromkeys(["n_samples", "framework", *random3, *pools[r]], 0)
            for c, r in conditions}

    streams = 0
    for streams, (stream, label) in enumerate(data, 1):
        cache = StreamFeatures(stream, bundle)  # reads the stream when a pair counts
        for r in rates:
            counts = hits.get(condition_of(r, label))
            if counts is None:
                continue
            pool = pools[r]
            counts["n_samples"] += 1
            counts["framework"] += int(cache.detect(r).predicted_count == label)
            if triple_rngs:
                triple = sorted(triple_rngs[r].choice(*draws[r], replace=False).tolist())
                _, rand_pred = fuse([cache.posterior(eid, r) for eid in triple],
                                    [1.0 / len(triple)] * len(triple))
                counts["random3"] += int(rand_pred == label)
            for eid in pool:
                counts[eid] += int(cache.posterior(eid, r).argmax() == label)
    if not streams:
        raise InputError("a sweep needs at least one stream")
    return hits


def _result_table(columns: tuple[str, ...], hits: dict, condition_text: Callable) -> ResultTable:
    """One row per condition: its n_samples and each counted column's accuracy."""
    table = ResultTable(columns)
    for condition, counts in hits.items():
        n = counts["n_samples"]
        row = {columns[0]: condition_text(condition), "n_samples": n}
        row.update((col, h / n if n else 0.0) for col, h in counts.items() if col != "n_samples")
        table.rows.append(row)
    return table


def evaluate_rate_sweep(
    bundle: TrainedBundle,
    data: Iterable[tuple[CsiStream, int]],
    rates: Sequence[float],
    seed: int = ExperimentConfig.seed,
) -> ResultTable:
    """Framework, per-expert, and random-triple accuracy at each rate.

    Every expert has a column; its cell is blank at rates where it is
    outside the pool.
    """
    check_seed(seed, "seed")
    hits = _count_hits(bundle, data, [(r, r) for r in rates], lambda r, label: r, triple_seed=seed)
    experts = sorted(s.id for s in bundle.registry)
    return _result_table(("rate", "n_samples", "framework", "random3", *experts), hits,
                         CSV_FLOAT_FMT.format)


def evaluate_target_sweep(
    bundle: TrainedBundle,
    data: Iterable[tuple[CsiStream, int]],
    target_counts: Sequence[int],
    rate: float = DEFAULT_SWEEP_RATE,
) -> ResultTable:
    """Exact-count accuracy per target count at one communication rate."""
    _, pool = candidates(bundle.registry, rate)
    hits = _count_hits(bundle, data, [(c, rate) for c in sorted(target_counts)],
                       lambda r, label: int(label))
    missing = [c for c, counts in hits.items() if not counts["n_samples"]]
    if missing:
        raise InputError(f"target counts {missing} not present in dataset")
    return _result_table(("target_count", "n_samples", "framework", *pool), hits, int)
