"""The three moesense benchmark workloads: `train`, `detect` and `sweep`.

Every run executes the same four phases, because every run reports every
end-to-end metric. The build comes first; then load, detect and sweep take
turns over `ROUNDS` rounds:

1. build  - split, decode and `build_bundle` the 600-stream training set,
            then `serialize_bundle`                      -> train_s, bundle_bytes
2. load   - `deserialize_bundle` on the kept bytes       -> bundle_load_ms
3. detect - closed loop, one client, no think time, `detect` at 50, 300
            and 500 pkts/s over the 120-stream test pool  -> detect_r*_p50/p95_ms
4. sweep  - `evaluate_rate_sweep` at 100..500 pkts/s over the pool, decoded
            from CSI1 bytes inside the timed region, one call per chunk of
            `SWEEP_CHUNK` streams                        -> sweep_streams_per_s,
                                                             sweep_acc_r500/r100

A workload decides where set-up ends (timed as setup_s) and which phase
measures for `--seconds`; the other phases run at the sizes in `SIZES`.
Under `--trace 1` every phase runs a fixed number of operations instead, so
the per-layer call counts repeat exactly for a seed.

moesense is driven only through its public calls, always looked up on the
module at call time so that a `Tracer` can wrap them.

Every time is reported at a reference host speed (see `Speed`); the raw
times are in the run's record.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from moesense import cli, gating, pipeline, simulate
from moesense.errors import MoeSenseError

from tracer import Tracer, layer_metrics

K_MAX = 5
TRAIN_PER_CLASS = 100
POOL_PER_CLASS = 20
DETECT_RATES = (50.0, 300.0, 500.0)
SWEEP_RATES = (100.0, 200.0, 300.0, 400.0, 500.0)  # the eval-rate defaults
# Acceptance criterion 4 for the default registry.
EXPECTED_ELIGIBLE = {
    50.0: frozenset(),
    300.0: frozenset({"E5", "E7", "E8"}),
    500.0: frozenset({"E3", "E4", "E5", "E6", "E7", "E8"}),
}
TRAIN_SETUP_REPEATS = 3
DETECT_WARMUP_STREAMS = 40
# After set-up the load, detect and sweep phases take turns, ROUNDS times, so
# that each metric samples the whole run rather than one block of it. A
# round lasts about a second.
ROUNDS = 12
# The pool is swept in chunks so that a pass spreads over the rounds and a
# chunk is short next to the host's speed states (see `Speed`); 120 streams
# make 24 chunks. Chunks are fixed, so each pass's table repeats.
SWEEP_CHUNK = 5
# What the calibration kernel takes on the reference host: about what it
# takes on the machine the benchmark was written on, in its fast state.
CALIBRATION_REF_MS = 1.0
# How often the kernel interrupts a long operation (see `Speed.sampling`).
LONG_SAMPLE_EVERY_S = 0.05


@dataclass(frozen=True)
class Size:
    """How much a phase runs in total, split evenly over the rounds.

    At least `min_ops`, then more while `seconds` allow (`--seconds` in the
    workload's own phase). Under --trace 1 exactly `min_ops`, or `traced_ops`
    in the workload's own phase.
    """

    min_ops: int
    seconds: float
    traced_ops: int


SIZES = {
    "train": Size(min_ops=1, seconds=0.0, traced_ops=1),  # bundles; not in rounds
    "load": Size(min_ops=24, seconds=0.0, traced_ops=24),
    # Pool cycles, one request per rate each. p95 must have at least 10
    # samples above it, hence 200 requests per rate.
    "detect": Size(min_ops=204, seconds=7.5, traced_ops=408),
    "sweep": Size(min_ops=24, seconds=0.0, traced_ops=48),  # chunks; 24 make a pass
}
# The request kinds whose spans make a workload's per-layer metrics. Set-up
# spans (synthesis, and the training inside a set-up build) always count.
TRACED_KINDS = {"train": ("build",), "detect": ("detect", "load"), "sweep": ("sweep",)}

OUT_DIR = Path(".perfbench-out")


_KERNEL_VECTOR = np.linspace(0.0, 1.0, 64)


def calibration_kernel() -> float:
    """About a millisecond of fixed work of the kind moesense spends its time
    on: small numpy operations and Python objects. It never calls moesense."""
    total = 0.0
    for i in range(200):
        x = _KERNEL_VECTOR * (i % 5)
        total += float(x.sum()) + float(np.abs(x - 0.5).max())
        total += len({"i": i, "total": total})
    return total


class Speed:
    """Scales times to a reference host speed with `calibration_kernel`.

    On a shared machine this code runs at one of two speeds about 2x apart,
    switching between them within a second at some times and holding one
    for minutes at others. Raw times then compare the host's states more
    than the program. So the kernel runs, untimed, before each short
    operation, and a time taken between two kernel runs that took `k` ms on
    average is reported as time * CALIBRATION_REF_MS / k: what the operation
    would take on a host where the kernel takes the reference time. A long
    operation spans many switches; a timer runs the kernel inside it, and
    its time, less the kernel's, is scaled by the mean kernel time inside it.
    """

    def __init__(self) -> None:
        self.kernel_ms: list[float] = []
        self._interrupts: list[tuple[float, float]] = []  # kernel (start, end)

    def _kernel(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.kernel_ms.append((t1 - t0) * 1e3)
        return t0, t1

    def mark(self) -> int:
        """Runs the kernel before a short operation; returns its sample's
        index, which `short` takes once the next sample exists."""
        self._kernel()
        return len(self.kernel_ms) - 1

    def short(self, seconds: float, mark: int) -> Timing:
        return seconds, (self.kernel_ms[mark] + self.kernel_ms[mark + 1]) / 2

    @contextmanager
    def sampling(self):
        """Interrupts the block with the kernel every LONG_SAMPLE_EVERY_S."""
        def interrupt(signum, frame):
            self._interrupts.append(self._kernel())

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, LONG_SAMPLE_EVERY_S, LONG_SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def long(self, start: float, end: float) -> Timing:
        """Timing of a long operation that ran from `start` to `end` while sampling."""
        inside = [t1 - t0 for t0, t1 in self._interrupts if start <= t0 and t1 <= end]
        return end - start - sum(inside), statistics.fmean(inside) * 1e3


# A measured time: (raw seconds, kernel ms around it).
Timing = tuple[float, float]
# A short operation's time before the kernel has run after it: (raw seconds, mark).
Marked = tuple[float, int]


def scaled(timings: list[Timing]) -> list[float]:
    return [t * CALIBRATION_REF_MS / kernel_ms for t, kernel_ms in timings]


def raw(timings: list[Timing]) -> list[float]:
    return [t for t, _ in timings]


@dataclass
class Ops:
    sent: int = 0
    succeeded: int = 0
    failed: int = 0

    def count(self, ok: bool, n: int = 1) -> None:
        self.sent += n
        if ok:
            self.succeeded += n
        else:
            self.failed += n


@dataclass
class Run:
    """Operation counts and digests of one run; each digest set should end with one value."""

    seed: int
    tracer: Tracer | None
    ops: dict[str, Ops] = field(
        default_factory=lambda: {phase: Ops() for phase in ("build", "load", "detect", "sweep")})
    detect_by_rate: dict[float, Ops] = field(
        default_factory=lambda: {rate: Ops() for rate in DETECT_RATES})
    digests: dict[str, set[str]] = field(
        default_factory=lambda: {"bundle": set(), "sweep_table": set(), "train_set": set()})
    speed: Speed = field(default_factory=Speed)

    def begin(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.begin_request(kind)


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of at least 10/(1-q) samples."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{q * 100:g} needs 10 samples above it, have {len(ordered)} samples")
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def synthesize_set(per_class: int, seed: int) -> tuple[list[bytes], list[int]]:
    """What `moesense generate` writes: one CSI1 container per stream, plus labels."""
    configs = cli.dataset_configs(cli.ExperimentConfig(k_max=K_MAX, streams_per_class=per_class,
                                                       seed=seed))
    blobs = [simulate.serialize_stream(simulate.synthesize_stream(c)) for c in configs]
    return blobs, [c.num_targets for c in configs]


def build_once(run: Run, blobs: list[bytes], labels: list[int]) -> tuple[bytes, Timing]:
    """One train op: split, decode, build with the default registry, serialize."""
    run.begin("build")
    t0 = time.perf_counter()
    tr, tr_l, va, va_l = pipeline.split_train_val(blobs, labels, seed=run.seed)
    bundle = pipeline.build_bundle(
        (simulate.deserialize_stream(b) for b in tr), tr_l,
        (simulate.deserialize_stream(b) for b in va), va_l,
        gating.default_registry(), seed=run.seed,
    )
    data = pipeline.serialize_bundle(bundle)
    timing = run.speed.long(t0, time.perf_counter())
    run.digests["bundle"].add(sha256(data))
    return data, timing


# ---------------------------------------------------------------------------
# Phases: each runs at least `min_ops`, then more while `seconds` allow.
# ---------------------------------------------------------------------------

def another_fits(start: float, seconds: float, last_op: float) -> bool:
    """Start another long op only if one more like the last ends within
    `seconds`, so a phase of 10 s bundle builds stays near `seconds` long."""
    return time.perf_counter() - start + last_op <= seconds


def build_phase(run: Run, blobs, labels, min_ops: int, seconds: float) -> tuple[bytes, list[Timing]]:
    times: list[Timing] = []
    start = time.perf_counter()
    while len(times) < min_ops or another_fits(start, seconds, times[-1][0]):
        data, timing = build_once(run, blobs, labels)
        times.append(timing)
    return data, times


def load_phase(run: Run, data: bytes, n: int):
    times: list[Marked] = []
    expected_ids = tuple(s.id for s in sorted(gating.default_registry(), key=lambda s: s.id))
    bundle = loaded = None
    for _ in range(n):
        loaded = None  # at most one bundle besides the kept one, as in a fresh process
        mark = run.speed.mark()
        run.begin("load")
        t0 = time.perf_counter()
        try:
            loaded = pipeline.deserialize_bundle(data)
        except MoeSenseError:
            run.ops["load"].count(False)
            continue
        times.append((time.perf_counter() - t0, mark))
        ok = tuple(s.id for s in loaded.registry) == expected_ids
        run.ops["load"].count(ok)
        if bundle is None:
            bundle = loaded
    return bundle, times


def detect_ok(report, rate: float) -> bool:
    return (abs(float(report.fused.sum()) - 1.0) <= 1e-9
            and 0 <= report.predicted_count <= K_MAX
            and (report.mode is gating.GatingMode.FALLBACK) == (rate == 50.0)
            and report.decision.eligible == EXPECTED_ELIGIBLE[rate])


def warm_up(run: Run, bundle, pool) -> None:
    """Untimed requests: the first ones after set-up read slower (caches,
    allocator) and would bias whichever rate came first."""
    for stream in pool[:DETECT_WARMUP_STREAMS]:
        for rate in DETECT_RATES:
            run.begin("warmup")
            pipeline.detect(stream, rate, bundle)


def detect_phase(run: Run, bundle, pool, latencies: dict[float, list[Marked]],
                 min_cycles: int, seconds: float) -> None:
    """Requests cycle over the pool, continuing where the last phase stopped;
    each stream is sent at every rate in turn. Appends to `latencies`."""
    cycles = 0
    start = time.perf_counter()
    while cycles < min_cycles or time.perf_counter() - start < seconds:
        stream = pool[(run.ops["detect"].sent // len(DETECT_RATES)) % len(pool)]
        cycles += 1
        mark = run.speed.mark()
        for rate in DETECT_RATES:
            run.begin("detect")
            t0 = time.perf_counter()
            try:
                report = pipeline.detect(stream, rate, bundle)
            except MoeSenseError:
                ok = False
            else:
                latencies[rate].append((time.perf_counter() - t0, mark))
                ok = detect_ok(report, rate)
            run.ops["detect"].count(ok)
            run.detect_by_rate[rate].count(ok)


@dataclass
class Sweep:
    """Walks the pool chunk by chunk across rounds and merges each full pass.

    A pass table has the columns of `evaluate_rate_sweep`'s table; each
    accuracy is the chunks' hits summed over the pass, divided by the pool size.
    """

    blobs: list[bytes]
    labels: list[int]
    next_chunk: int = 0
    hits: dict = field(default_factory=dict)  # (rate, column) -> hits in this pass
    fieldnames: list[str] = field(default_factory=list)
    passes: list[list[dict]] = field(default_factory=list)
    times: list[Marked] = field(default_factory=list)  # per chunk of SWEEP_CHUNK streams

    def chunk(self) -> tuple[list[bytes], list[int]]:
        lo = self.next_chunk * SWEEP_CHUNK
        return self.blobs[lo:lo + SWEEP_CHUNK], self.labels[lo:lo + SWEEP_CHUNK]

    def add(self, table, n: int) -> str | None:
        """Adds one chunk's table; returns the pass table's digest when the
        chunk completes a pass."""
        self.fieldnames = table.fieldnames()
        for row in table.rows:
            for column, value in row.items():
                if column != "rate":
                    key = (row["rate"], column)
                    self.hits[key] = self.hits.get(key, 0) + (
                        value if column == "n_samples" else round(value * n))
        self.next_chunk += 1
        if self.next_chunk * SWEEP_CHUNK >= len(self.blobs):
            rows: dict[str, dict] = {}
            for (rate, column), hits in self.hits.items():
                rows.setdefault(rate, {"rate": rate})[column] = (
                    hits if column == "n_samples" else hits / len(self.blobs))
            self.passes.append(list(rows.values()))
            self.next_chunk, self.hits = 0, {}
            return sha256(json.dumps({"fields": self.fieldnames, "rows": self.passes[-1]},
                                     sort_keys=True).encode())
        return None


def sweep_phase(run: Run, bundle, sweep: Sweep, min_chunks: int, seconds: float) -> None:
    """Sweeps chunks of the pool, continuing where the last phase stopped;
    each chunk is decoded inside the timed region."""
    chunks = 0
    elapsed = 0.0
    start = time.perf_counter()
    while chunks < min_chunks or another_fits(start, seconds, elapsed):
        chunks += 1
        blobs, labels = sweep.chunk()

        def data():
            for i, (blob, label) in enumerate(zip(blobs, labels)):
                if i:
                    run.begin("sweep")
                yield simulate.deserialize_stream(blob), label

        mark = run.speed.mark()
        # One request per stream; the first opens before the call so that the
        # call's own span belongs to the sweep.
        run.begin("sweep")
        t0 = time.perf_counter()
        table = cli.evaluate_rate_sweep(bundle, data(), SWEEP_RATES, seed=run.seed)
        elapsed = time.perf_counter() - t0
        ok = len(table.rows) == len(SWEEP_RATES) and all(
            row["n_samples"] == len(blobs) for row in table.rows)
        run.ops["sweep"].count(ok, len(blobs))
        sweep.times.append((elapsed, mark))
        digest = sweep.add(table, len(blobs))
        if digest is not None:
            run.digests["sweep_table"].add(digest)


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def settle() -> None:
    """Collect garbage and freeze what is left before a timed phase.

    A `moesense detect` process holds one bundle, not a benchmark's inputs
    and earlier results, so those stay out of the cyclic collector's scans.
    """
    gc.collect()
    gc.freeze()


def source_digest(root: Path) -> str:
    """Identifies the program under test and the benchmark that feeds it, so
    digests are compared per commit."""
    h = hashlib.sha256()
    src = root / "src"
    bench = Path(__file__).parent
    files = [(p.relative_to(src).as_posix(), p) for p in src.glob("moesense/**/*.py")]
    files += [(f"{bench.name}/{p.name}", p) for p in bench.glob("*.py")]
    for name, path in sorted(files):
        h.update(name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_ledger(key: str, digests: dict[str, str]) -> list[str]:
    """Compare with earlier runs of the same program and seed in this checkout.

    Returns the names of digests that differ; records new ones.
    """
    ledger_path = OUT_DIR / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    seen = ledger.setdefault(key, {})
    mismatched = [name for name, value in digests.items() if seen.setdefault(name, value) != value]
    OUT_DIR.mkdir(exist_ok=True)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)
    return mismatched


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (record, result), the last two lines run.py prints."""
    root = Path.cwd()
    tracer = Tracer() if trace else None
    run = Run(seed, tracer)

    def budget(phase: str, round_: int | None = None) -> tuple[int, float]:
        """(minimum ops, seconds) for a phase in this workload, in total or
        for one round."""
        size, own = SIZES[phase], phase == workload
        if trace:
            ops, secs = (size.traced_ops if own else size.min_ops), 0.0
        else:
            ops, secs = size.min_ops, (seconds if own else size.seconds)
        if round_ is None:
            return ops, secs
        return ops * (round_ + 1) // ROUNDS - ops * round_ // ROUNDS, secs / ROUNDS

    setup_times: list[Timing] = []
    train_times: list[Timing] = []
    with tracer if tracer is not None else nullcontext():
        with run.speed.sampling():
            if workload == "train":
                for _ in range(TRAIN_SETUP_REPEATS):
                    blobs = None  # keep one 576 MB training set alive, not two
                    t0 = time.perf_counter()
                    blobs, labels = synthesize_set(TRAIN_PER_CLASS, seed)
                    setup_times.append(run.speed.long(t0, time.perf_counter()))
                    run.digests["train_set"].add(sha256(*blobs))
                settle()
                data, train_times = build_phase(run, blobs, labels, *budget("train"))
                pool_blobs, pool_labels = synthesize_set(POOL_PER_CLASS, seed + 1)
            else:
                t0 = time.perf_counter()
                blobs, labels = synthesize_set(TRAIN_PER_CLASS, seed)
                data, timing = build_once(run, blobs, labels)
                pool_blobs, pool_labels = synthesize_set(POOL_PER_CLASS, seed + 1)
                setup_times.append(run.speed.long(t0, time.perf_counter()))
                train_times.append(timing)
                run.digests["train_set"].add(sha256(*blobs))
            del blobs

        pool = [simulate.deserialize_stream(b) for b in pool_blobs]
        bundle = None
        load_times: list[Marked] = []
        latencies: dict[float, list[Marked]] = {r: [] for r in DETECT_RATES}
        sweep = Sweep(pool_blobs, pool_labels)
        for round_ in range(ROUNDS):
            settle()
            loaded, times = load_phase(run, data, budget("load", round_)[0])
            load_times += times
            if bundle is None:
                bundle = loaded
                warm_up(run, bundle, pool)
            detect_phase(run, bundle, pool, latencies, *budget("detect", round_))
            sweep_phase(run, bundle, sweep, *budget("sweep", round_))
        run.speed.mark()  # closes the last short operation

    # Output checks that call moesense run after the tracer has restored it.
    roundtrip_ok = pipeline.serialize_bundle(pipeline.deserialize_bundle(data)) == data
    digests = {name: sorted(values) for name, values in run.digests.items()}
    consistent = all(len(values) == 1 for values in digests.values())
    flat = {name: values[0] for name, values in digests.items() if len(values) == 1}
    src = source_digest(root)
    mismatched = check_ledger(f"{src}:seed{seed}", flat)
    run.ops["build"].count(roundtrip_ok and consistent, len(train_times))

    rows = {float(row["rate"]): row for row in sweep.passes[0]}

    def short(marked: list[Marked]) -> list[Timing]:
        return [run.speed.short(t, mark) for t, mark in marked]

    load_times, sweep_times = short(load_times), short(sweep.times)
    latencies = {rate: short(marked) for rate, marked in latencies.items()}

    def end_to_end(times) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics, with `times` turning Timings into seconds."""
        e2e = {
            "setup_s": (statistics.median(times(setup_times)), "s"),
            "train_s": (statistics.median(times(train_times)), "s"),
            "bundle_bytes": (len(data), "B"),
            "bundle_load_ms": (statistics.median(times(load_times)) * 1e3, "ms"),
        }
        for rate in DETECT_RATES:
            e2e[f"detect_r{rate:g}_p50_ms"] = (statistics.median(times(latencies[rate])) * 1e3, "ms")
            e2e[f"detect_r{rate:g}_p95_ms"] = (percentile(times(latencies[rate]), 0.95) * 1e3, "ms")
        e2e["sweep_streams_per_s"] = (
            SWEEP_CHUNK / statistics.median(times(sweep_times)), "streams/s")
        e2e["sweep_acc_r500"] = (float(rows[500.0]["framework"]), "fraction")
        e2e["sweep_acc_r100"] = (float(rows[100.0]["framework"]), "fraction")
        return e2e

    e2e = end_to_end(scaled)

    attempted = sum(ops.sent for ops in run.ops.values())
    failed = sum(ops.failed for ops in run.ops.values()) + len(mismatched)
    metrics = layer_metrics(tracer, TRACED_KINDS[workload]) if trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "sizes": {"k_max": K_MAX, "train_streams": len(labels), "pool_streams": len(pool_labels),
                  "pool_seed": seed + 1, "detect_rates": DETECT_RATES, "sweep_rates": SWEEP_RATES,
                  "bundle_loads": len(load_times), "sweep_chunks": len(sweep.times),
                  "sweep_passes": len(sweep.passes)},
        "ops": {phase: vars(ops) for phase, ops in run.ops.items()},
        "detect_by_rate": {f"{rate:g}": vars(ops) for rate, ops in run.detect_by_rate.items()},
        "digests": {"source": src, **digests},
        "checks": {"bundle_roundtrip": roundtrip_ok, "digests_consistent": consistent,
                   "ledger_mismatches": mismatched},
        "end_to_end": {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()},
        "end_to_end_raw": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in end_to_end(raw).items()},
        "speed": {"calibration_ref_ms": CALIBRATION_REF_MS, "samples": len(run.speed.kernel_ms),
                  "kernel_ms_min": min(run.speed.kernel_ms),
                  "kernel_ms_median": statistics.median(run.speed.kernel_ms),
                  "kernel_ms_mean": statistics.fmean(run.speed.kernel_ms),
                  "kernel_ms_max": max(run.speed.kernel_ms)},
    }
    if tracer is not None:
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path)
        record["spans"] = len(tracer.spans)
    return record, result
