"""Synthetic CSI stream generator for multi-target scenes.

Each stream is a complex channel matrix over (packet time x subcarrier).
The channel model is deliberately minimal: one static per-subcarrier gain,
one Doppler-shifted reflection path per moving target, and complex white
Gaussian noise scaled against the dynamic-path power. Target count shows up
as the amount and spread of temporal amplitude variation, which is what the
downstream feature extractors measure.

Streams round-trip through a small binary container ("CSI2") and datasets
are described by a plain CSV manifest (path, label).
"""
from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, FormatError, InputError, MoeSenseError, RateError

# WiFi-style 20 MHz / 64-point OFDM grid; only the relative subcarrier
# offsets matter (they set the per-path phase ramp across the band).
SUBCARRIER_SPACING_HZ = 312_500.0

# Dynamic paths are weaker than the unit-magnitude static gain. The narrow
# amplitude spread keeps per-path power comparable across draws; with a wide
# spread the total dynamic power of K and K+1 targets overlaps so heavily
# that adjacent counts become statistically indistinguishable.
PATH_AMPLITUDE_RANGE = (0.7, 1.0)
PATH_DELAY_RANGE_NS = (5.0, 50.0)

# Streams hold real and imaginary parts below this in size. Features then stay below
# `features.MAX_FEATURE`, 1e101 (the amplitude variance), and the squares later steps
# take (spectral power, KNN distances) below 1e203, so none overflows, even over a small std.
MAX_SAMPLE = 1e50
SNR_DB_RANGE = (-100.0, 300.0)  # finite snr_db, well inside finite noise below MAX_SAMPLE

STREAM_MAGIC = b"CSI2"
_HEADER = struct.Struct("<4sQQd")  # magic, packets, subcarriers, rate


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
        check_positive(self.packet_rate, "packet_rate", ConfigurationError)
        check_positive(self.duration, "duration", ConfigurationError)
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
        if not (self.snr_db == math.inf or SNR_DB_RANGE[0] <= self.snr_db <= SNR_DB_RANGE[1]):
            raise ConfigurationError(f"snr_db must be inf or lie in {list(SNR_DB_RANGE)}, got {self.snr_db}")
        check_seed(self.rng_seed, "rng_seed")

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
    """Complex channel matrix [num_packets x num_subcarriers] and its packet rate."""

    samples: np.ndarray
    packet_rate: float

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

    samples = np.full((n, k), static)
    path_term = np.empty_like(samples)  # one buffer for every path's outer product
    for p in paths:
        time_phasor = p.amplitude * np.exp(1j * (2.0 * math.pi * p.doppler_hz * t + p.initial_phase))
        sub_phasor = np.exp(-2j * math.pi * f_sub * p.delay_ns * 1e-9)
        samples += np.multiply.outer(time_phasor, sub_phasor, out=path_term)

    if math.isfinite(config.snr_db):
        # SNR is defined against the dynamic-path power (unit reference when
        # the scene is empty) so the noise floor stresses the sensing signal.
        dyn_power = sum(p.amplitude**2 for p in paths) if paths else 1.0
        noise_var = dyn_power / 10.0 ** (config.snr_db / 10.0)
        sigma = math.sqrt(noise_var / 2.0)
        samples.real += rng.normal(0.0, sigma, (n, k))  # the real part's draw comes first
        samples.imag += rng.normal(0.0, sigma, (n, k))

    return CsiStream(samples, float(config.packet_rate))


def check_positive(value: float, what: str, error: type[MoeSenseError] = InputError) -> None:
    """`error` unless `value` is finite and positive; NaN is neither."""
    if not 0 < value < math.inf:
        raise error(f"{what} must be finite and positive, got {value}")


def check_seed(seed: int, what: str) -> None:
    """ConfigurationError unless `seed` lies in [0, 2**63), where every stream
    seed `evaluate.dataset_configs` draws lies: numpy takes no negative seed,
    and bundle metadata must read its seed back as a float."""
    if not 0 <= seed < 2**63:
        raise ConfigurationError(f"{what} must be an integer in [0, 2**63)")


def check_samples(stream: CsiStream, error: type[MoeSenseError] = InputError) -> None:
    """`error` unless `stream` holds samples, all finite and below MAX_SAMPLE in size. A sum of
    squares below 1e99, in any order, bounds every term; any other sum takes the two-sided test."""
    values = np.ascontiguousarray(stream.samples, np.complex128).view(np.float64).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        if values.size and values.dot(values) < 1e99:
            return
    if not (values.size and -MAX_SAMPLE < values.min() and values.max() < MAX_SAMPLE):
        raise error(f"stream must hold samples, all finite and below {MAX_SAMPLE:g} in size")


def decimation_stride(packet_rate: float, target_rate: float) -> int:
    """The packet stride `decimate` keeps: floor(packet_rate / target_rate)."""
    check_positive(target_rate, "target_rate", ConfigurationError)
    if not 1 <= packet_rate / target_rate < math.inf:
        problem = "exceeds" if target_rate > packet_rate else "is too small for"
        raise RateError(f"target_rate {target_rate} {problem} stream rate {packet_rate}")
    return math.floor(packet_rate / target_rate)


def decimate(stream: CsiStream, target_rate: float) -> CsiStream:
    """Keep every floor(packet_rate / target_rate)-th packet, starting at 0.

    The output rate is recomputed exactly from the integer stride, so it can
    sit above `target_rate` when the ratio is not integral. The output's
    samples are a read-only view of the input's, not a copy: a later write
    to `stream.samples` shows through it.
    """
    stride = decimation_stride(stream.packet_rate, target_rate)
    kept = stream.samples[::stride]
    kept.flags.writeable = False
    return CsiStream(kept, stream.packet_rate / stride)


# ---------------------------------------------------------------------------
# Stream container and dataset manifest
# ---------------------------------------------------------------------------

def serialize_stream(stream: CsiStream) -> bytes:
    header = _HEADER.pack(STREAM_MAGIC, stream.num_packets, stream.num_subcarriers,
                          float(stream.packet_rate))
    return b"".join((header, np.ascontiguousarray(stream.samples, dtype="<c16")))


def deserialize_stream(data: bytes) -> CsiStream:
    if len(data) < _HEADER.size:
        raise FormatError("stream container shorter than its header")
    magic, n, k, rate = _HEADER.unpack_from(data)
    if magic != STREAM_MAGIC:
        raise FormatError(f"bad stream magic {magic!r}, expected {STREAM_MAGIC!r}")
    check_positive(rate, "stream packet rate", FormatError)
    if k < 1:
        raise FormatError("stream container holds no subcarriers")
    expected = _HEADER.size + n * k * 16
    if len(data) != expected:
        raise FormatError(f"stream container truncated: {len(data)} bytes, expected {expected}")
    samples = np.frombuffer(data, dtype="<c16", offset=_HEADER.size).reshape(n, k)
    stream = CsiStream(samples.astype(np.complex128), rate)
    check_samples(stream, FormatError)
    return stream


def save_stream(stream: CsiStream, path: str | Path) -> None:
    Path(path).write_bytes(serialize_stream(stream))


def load_stream(path: str | Path) -> CsiStream:
    return deserialize_stream(Path(path).read_bytes())


class ManifestEntry(NamedTuple):
    """One stream file and its label; the stream's rate is in its own header."""
    path: str
    label: int


def write_manifest(path: str | Path, entries: Iterable[ManifestEntry]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ManifestEntry._fields)
        writer.writerows(entries)


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:  # a ValueError includes text that is not UTF-8
            header = next(reader, None)
            if header != list(ManifestEntry._fields):
                raise FormatError(f"manifest header is {header}, expected "
                                  f"{','.join(ManifestEntry._fields)}")
            entries = [ManifestEntry(name, int(label)) for name, label in filter(None, reader)]
        except (ValueError, csv.Error) as exc:
            raise FormatError(f"malformed manifest row: {exc}") from exc
    for e in entries:
        if e.label < 0 or "\0" in e.path:
            raise FormatError(f"manifest row {e.path!r}: label must be >= 0 and path free of "
                              f"NUL, got label {e.label}")
    return entries
