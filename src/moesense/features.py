"""Feature extraction from CSI streams.

Two feature families feed the detection experts: the normalized Doppler
energy distribution of the temporal amplitude variation, and order/moment
statistics of the amplitude series. Both operate on the subcarrier-averaged
amplitude, so a stream reduces to one real time series before analysis.

The Pearson correlation here is the gate's primitive: `centre_rows` prepares
each template centroid and stream feature once, and `pearson` correlates two.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, InputError
from .simulate import CsiStream, check_positive

AMP_STATS_LENGTH = 6
MAX_FEATURE = 1e101  # what a feature of a stream `simulate.check_samples` passes stays below

# Fixed bin count keeps feature vectors comparable across rates; the top
# frequency clips to Nyquist when the stream rate is low. The default span
# tracks the generator's Doppler band so bins spend their resolution where
# target lines actually fall.
DEFAULT_DOPPLER_BINS = 25
DEFAULT_DOPPLER_MAX_HZ = 62.5

_ZERO_ENERGY_EPS = 1e-15

# Sums of squares inside this range keep pearson's products free of underflow
# and overflow, so its denominator is computed at full precision.
_SAFE_SUMSQ = (2.0**-500, 2.0**500)

_sum = np.add.reduce


class FeatureKind(enum.Enum):
    DOPPLER_ENERGY = "doppler"
    AMPLITUDE_STATS = "amp_stats"


@dataclass(frozen=True, eq=False)
class FeatureVector:
    kind: FeatureKind
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DopplerConfig:
    """Uniform energy bins over [0, max_freq_hz], the top clipped to a stream's Nyquist."""

    num_bins: int = DEFAULT_DOPPLER_BINS
    max_freq_hz: float = DEFAULT_DOPPLER_MAX_HZ

    def __post_init__(self) -> None:
        if self.num_bins < 2:
            raise ConfigurationError(f"num_bins must be >= 2, got {self.num_bins}")
        check_positive(self.max_freq_hz, "max_freq_hz", ConfigurationError)


DEFAULT_DOPPLER_CONFIG = DopplerConfig()


def mean_amplitude_series(stream: CsiStream) -> np.ndarray:
    """Subcarrier-averaged amplitude, one value per packet, as `.mean(axis=1)` gives it."""
    return _sum(np.abs(stream.samples), axis=1) / stream.samples.shape[1]


def extract_doppler(stream: CsiStream, cfg: DopplerConfig | None = None) -> FeatureVector:
    """Doppler energy of `stream`; see `doppler_from_series`."""
    return doppler_from_series(mean_amplitude_series(stream), stream.packet_rate, cfg)


def extract_amp_stats(stream: CsiStream) -> FeatureVector:
    """Amplitude statistics of `stream`; see `amp_stats_from_series`."""
    return amp_stats_from_series(mean_amplitude_series(stream))


def doppler_from_series(
    series: np.ndarray, packet_rate: float, cfg: DopplerConfig | None = None
) -> FeatureVector:
    """Binned, normalized spectral energy of the amplitude variation.

    The mean-removed subcarrier-averaged amplitude is Fourier transformed,
    its magnitude-squared spectrum accumulated into `cfg.num_bins` uniform
    bins over [0, min(cfg.max_freq_hz, Nyquist)], normalized to sum 1.
    A constant stream has no dynamic energy and yields the all-zero vector.
    """
    cfg = DEFAULT_DOPPLER_CONFIG if cfg is None else cfg
    if len(series) < 8:
        raise InputError(f"need at least 8 packets, got {len(series)}")
    check_positive(packet_rate, "packet_rate")
    top = min(cfg.max_freq_hz, packet_rate / 2.0)

    centered = series - series.mean()
    spectrum = np.abs(np.fft.rfft(centered)) ** 2
    freqs = np.fft.rfftfreq(len(centered), d=1.0 / packet_rate)

    # the frequencies ascend from 0, so the band is a prefix of the spectrum,
    # never empty, and each bin sums its terms in frequency order
    idx = np.minimum((freqs[freqs <= top] / (top / cfg.num_bins)).astype(int), cfg.num_bins - 1)
    energy = np.bincount(idx, weights=spectrum[:len(idx)], minlength=cfg.num_bins)

    total = energy.sum()
    if total >= _ZERO_ENERGY_EPS:
        energy /= total
    else:
        energy[:] = 0.0
    return FeatureVector(FeatureKind.DOPPLER_ENERGY, energy)


def amp_stats_from_series(series: np.ndarray) -> FeatureVector:
    """[mean, population variance, MAD, median, Q1, Q3] of the amplitude series.

    Bit for bit what `series.mean()`, `series.var()`, `np.abs(series -
    mean).mean()` and `np.quantile(series, [0.5, 0.25, 0.75])` return: the
    moments are the same pairwise sums divided by the count, and the
    quartiles are numpy's linear interpolation between the order statistics
    one partition puts in place.
    """
    n = len(series)
    if n < 2:
        raise InputError(f"need at least 2 packets, got {n}")
    mean = _sum(series) / n
    deviation = series - mean
    positions = [(n - 1) * q for q in (0.5, 0.25, 0.75)]  # exact for these q
    lows = [int(p) for p in positions]
    ordered = np.partition(series, sorted({*lows, *(i + 1 for i in lows)}))
    quartiles = []
    for p, i in zip(positions, lows):
        a, b, g = ordered[i], ordered[i + 1], p - i
        # numpy's interpolation rule: from the nearer of the two order statistics
        quartiles.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    values = np.array([mean, _sum(deviation * deviation) / n, _sum(np.abs(deviation)) / n,
                       *quartiles])
    return FeatureVector(FeatureKind.AMPLITUDE_STATS, values)


class Centred(NamedTuple):
    """One `pearson` operand, prepared once: the vector less its mean,
    whether its range is zero, and its centred sum of squares."""
    values: np.ndarray
    constant: bool
    sumsq: float


def centre_rows(rows: np.ndarray) -> list[Centred]:
    """Each row of the 2-D `rows` prepared for `pearson`, by one block pass
    that gives every row the bits preparing it alone gives, its values a view
    into one centred block. A zero range catches a constant row exactly,
    before mean-subtraction rounding can manufacture a spurious variance."""
    centred = list(rows - (_sum(rows, axis=1) / rows.shape[1])[:, None])
    with np.errstate(over="ignore", under="ignore"):
        sumsq = list(map(float, map(np.ndarray.dot, centred, centred)))
    return list(map(Centred, centred, (np.ptp(rows, axis=1) == 0.0).tolist(), sumsq))


def pearson(a: Sequence[float] | np.ndarray | Centred,
            b: Sequence[float] | np.ndarray | Centred) -> float:
    """Pearson correlation coefficient; 0.0 when either input has zero variance.

    A vector input is prepared here; an operand from `centre_rows` is prepared
    once, and each correlation with it is one dot product."""
    x = a.values if isinstance(a, Centred) else np.asarray(a, dtype=np.float64)
    y = b.values if isinstance(b, Centred) else np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise InputError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise InputError(f"need at least 2 points, got {x.size}")
    a = a if isinstance(a, Centred) else centre_rows(x.reshape(1, -1))[0]
    b = b if isinstance(b, Centred) else centre_rows(y.reshape(1, -1))[0]
    if a.constant or b.constant:
        return 0.0
    xc, yc, vx, vy = a.values, b.values, a.sumsq, b.sumsq
    lo, hi = _SAFE_SUMSQ
    if not (lo < vx < hi and lo < vy < hi):
        # Tiny or huge inputs would underflow or overflow the sums. Scaling by
        # a power of two is exact, and the correlation is scale-invariant.
        # ldexp applies the exponent per element, so a subnormal maximum (whose
        # scale factor 2**-exp would itself overflow) is handled too.
        xc = np.ldexp(xc, -math.frexp(float(np.abs(xc).max()))[1])
        yc = np.ldexp(yc, -math.frexp(float(np.abs(yc).max()))[1])
        vx = float(xc.dot(xc))
        vy = float(yc.dot(yc))
        if vx <= 0.0 or vy <= 0.0:  # an in-range sum of squares is positive
            return 0.0
    return float(xc.dot(yc)) / math.sqrt(vx * vy)
