"""Synthetic CSI stream generator for multi-target scenes.

Each stream is a complex channel matrix over (packet time x subcarrier).
The channel model is deliberately minimal: one static per-subcarrier gain,
one Doppler-shifted reflection path per moving target, and complex white
Gaussian noise scaled against the dynamic-path power. Target count shows up
as the amount and spread of temporal amplitude variation, which is what the
downstream feature extractors measure.

Streams round-trip through a small binary container ("CSI1") and datasets
are described by a plain CSV manifest (path, label, rate).
"""
from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, FormatError, RateError

# WiFi-style 20 MHz / 64-point OFDM grid; only the relative subcarrier
# offsets matter (they set the per-path phase ramp across the band).
SUBCARRIER_SPACING_HZ = 312_500.0

# Dynamic paths are weaker than the unit-magnitude static gain. The narrow
# amplitude spread keeps per-path power comparable across draws; with a wide
# spread the total dynamic power of K and K+1 targets overlaps so heavily
# that adjacent counts become statistically indistinguishable.
PATH_AMPLITUDE_RANGE = (0.7, 1.0)
PATH_DELAY_RANGE_NS = (5.0, 50.0)

_MAX_SEED = 2**63

STREAM_MAGIC = b"CSI1"
_HEADER = struct.Struct("<4sQQdqq")  # magic, packets, subcarriers, rate, seed, true count


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters for one synthesized scene."""

    num_targets: int
    packet_rate: float = 1000.0
    duration: float = 2.0
    num_subcarriers: int = 30
    snr_db: float = 15.0
    doppler_range: tuple[float, float] = (5.0, 60.0)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_targets < 0:
            raise ConfigurationError(f"num_targets must be >= 0, got {self.num_targets}")
        if not (0 < self.packet_rate < math.inf and 0 < self.duration < math.inf):
            raise ConfigurationError("packet_rate and duration must be finite and positive")
        if not 2 <= self.packet_rate * self.duration < math.inf:
            raise ConfigurationError("scenario must span at least two packets, and finitely many")
        if self.num_subcarriers < 1:
            raise ConfigurationError(f"num_subcarriers must be >= 1, got {self.num_subcarriers}")
        lo, hi = self.doppler_range
        if not (0 < lo <= hi):
            raise ConfigurationError(f"doppler_range must satisfy 0 < min <= max, got {self.doppler_range}")
        if hi >= self.packet_rate / 2:
            raise ConfigurationError(
                f"doppler_range max {hi} Hz would alias at packet_rate {self.packet_rate} pkts/s"
            )
        if not (0 <= self.rng_seed < _MAX_SEED):
            raise ConfigurationError("rng_seed must fit in a 64-bit integer")

    @property
    def num_packets(self) -> int:
        return round(self.packet_rate * self.duration)


@dataclass(frozen=True)
class TargetPath:
    """One dynamic reflection path: a single Doppler line."""

    doppler_hz: float
    amplitude: float
    initial_phase: float = 0.0
    delay_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ConfigurationError(f"path amplitude must be >= 0, got {self.amplitude}")
        if self.delay_ns < 0:
            raise ConfigurationError(f"path delay must be >= 0, got {self.delay_ns}")


@dataclass(frozen=True, eq=False)
class CsiStream:
    """Complex channel matrix [num_packets x num_subcarriers] plus scene metadata."""

    samples: np.ndarray
    packet_rate: float
    true_target_count: int
    seed: int

    @property
    def num_packets(self) -> int:
        return self.samples.shape[0]

    @property
    def num_subcarriers(self) -> int:
        return self.samples.shape[1]


def _draw_paths(config: ScenarioConfig, rng: np.random.Generator) -> list[TargetPath]:
    n = config.num_targets
    lo, hi = config.doppler_range
    dopplers = rng.uniform(lo, hi, n)
    amplitudes = rng.uniform(*PATH_AMPLITUDE_RANGE, n)
    phases = rng.uniform(0.0, 2.0 * math.pi, n)
    delays = rng.uniform(*PATH_DELAY_RANGE_NS, n)
    return [
        TargetPath(float(dopplers[i]), float(amplitudes[i]), float(phases[i]), float(delays[i]))
        for i in range(n)
    ]


def synthesize_stream(config: ScenarioConfig, paths: Sequence[TargetPath] | None = None) -> CsiStream:
    """Generate one CSI stream; deterministic for a fixed (config, seed).

    `paths` overrides the random per-target draws (same count required),
    which is how tests inject known Doppler frequencies.
    """
    rng = np.random.default_rng(config.rng_seed)

    n = config.num_packets
    k = config.num_subcarriers
    t = np.arange(n) / config.packet_rate
    f_sub = np.arange(k) * SUBCARRIER_SPACING_HZ

    # Static per-subcarrier gain: unit magnitude, seeded random phase.
    static = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))

    if paths is None:
        paths = _draw_paths(config, rng)
    else:
        if len(paths) != config.num_targets:
            raise ConfigurationError(
                f"got {len(paths)} paths for num_targets={config.num_targets}"
            )
        for p in paths:
            if abs(p.doppler_hz) >= config.packet_rate / 2:
                raise ConfigurationError(
                    f"path doppler {p.doppler_hz} Hz aliases at rate {config.packet_rate}"
                )

    samples = np.broadcast_to(static, (n, k)).astype(np.complex128).copy()
    for p in paths:
        time_phasor = p.amplitude * np.exp(1j * (2.0 * math.pi * p.doppler_hz * t + p.initial_phase))
        sub_phasor = np.exp(-2j * math.pi * f_sub * p.delay_ns * 1e-9)
        samples += np.outer(time_phasor, sub_phasor)

    if math.isfinite(config.snr_db):
        # SNR is defined against the dynamic-path power (unit reference when
        # the scene is empty) so the noise floor stresses the sensing signal.
        dyn_power = sum(p.amplitude**2 for p in paths) if paths else 1.0
        noise_var = dyn_power / 10.0 ** (config.snr_db / 10.0)
        sigma = math.sqrt(noise_var / 2.0)
        samples += rng.normal(0.0, sigma, (n, k)) + 1j * rng.normal(0.0, sigma, (n, k))

    return CsiStream(
        samples=samples,
        packet_rate=float(config.packet_rate),
        true_target_count=config.num_targets,
        seed=config.rng_seed,
    )


def decimation_stride(packet_rate: float, target_rate: float) -> int:
    """The packet stride `decimate` keeps: floor(packet_rate / target_rate)."""
    if not target_rate > 0:  # NaN fails too
        raise ConfigurationError(f"target_rate must be positive, got {target_rate}")
    if not 1 <= packet_rate / target_rate < math.inf:
        problem = "exceeds" if target_rate > packet_rate else "is too small for"
        raise RateError(f"target_rate {target_rate} {problem} stream rate {packet_rate}")
    return math.floor(packet_rate / target_rate)


def decimate(stream: CsiStream, target_rate: float) -> CsiStream:
    """Keep every floor(packet_rate / target_rate)-th packet, starting at 0.

    The output rate is recomputed exactly from the integer stride, so it can
    sit above `target_rate` when the ratio is not integral.
    """
    stride = decimation_stride(stream.packet_rate, target_rate)
    return CsiStream(
        samples=stream.samples[::stride].copy(),
        packet_rate=stream.packet_rate / stride,
        true_target_count=stream.true_target_count,
        seed=stream.seed,
    )


# ---------------------------------------------------------------------------
# Stream container and dataset manifest
# ---------------------------------------------------------------------------

def serialize_stream(stream: CsiStream) -> bytes:
    header = _HEADER.pack(
        STREAM_MAGIC,
        stream.num_packets,
        stream.num_subcarriers,
        float(stream.packet_rate),
        int(stream.seed),
        int(stream.true_target_count),
    )
    return header + np.ascontiguousarray(stream.samples, dtype="<c16").tobytes()


def deserialize_stream(data: bytes) -> CsiStream:
    if len(data) < _HEADER.size:
        raise FormatError("stream container shorter than its header")
    magic, n, k, rate, seed, true_count = _HEADER.unpack_from(data)
    if magic != STREAM_MAGIC:
        raise FormatError(f"bad stream magic {magic!r}")
    if not (math.isfinite(rate) and rate > 0):
        raise FormatError(f"stream packet rate must be finite and positive, got {rate}")
    if k < 1:
        raise FormatError("stream container holds no subcarriers")
    expected = _HEADER.size + n * k * 16
    if len(data) != expected:
        raise FormatError(f"stream container truncated: {len(data)} bytes, expected {expected}")
    samples = np.frombuffer(data, dtype="<c16", offset=_HEADER.size).reshape(n, k)
    samples = samples.astype(np.complex128)
    if not np.all(np.isfinite(samples.view(np.float64))):
        raise FormatError("stream container holds non-finite samples")
    return CsiStream(samples=samples, packet_rate=rate, true_target_count=true_count, seed=seed)


def save_stream(stream: CsiStream, path: str | Path) -> None:
    Path(path).write_bytes(serialize_stream(stream))


def load_stream(path: str | Path) -> CsiStream:
    return deserialize_stream(Path(path).read_bytes())


class ManifestEntry(NamedTuple):
    path: str
    label: int
    rate: float


def write_manifest(path: str | Path, entries: Iterable[ManifestEntry]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "rate"])
        for e in entries:
            writer.writerow([e.path, e.label, f"{e.rate:.4f}"])


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["path", "label", "rate"]:
            raise FormatError(f"unexpected manifest header {header}")
        try:
            entries = [ManifestEntry(row[0], int(row[1]), float(row[2])) for row in reader if row]
        except (IndexError, ValueError) as exc:
            raise FormatError(f"malformed manifest row: {exc}") from exc
    for e in entries:
        if e.label < 0 or not (math.isfinite(e.rate) and e.rate > 0):
            raise FormatError(f"manifest row {e.path!r}: label must be >= 0 and rate "
                              f"finite and positive, got {e.label}, {e.rate}")
    return entries
