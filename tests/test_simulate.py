import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moesense.errors import ConfigurationError, FormatError, InputError, RateError
from moesense.features import DopplerConfig, FeatureKind, mean_amplitude_series
from moesense.gating import ClassifierKind, ExpertSpec, default_registry, filter_by_rate
from moesense.simulate import (
    MAX_SAMPLE,
    CsiStream,
    ManifestEntry,
    ScenarioConfig,
    TargetPath,
    check_samples,
    decimate,
    decimation_stride,
    deserialize_stream,
    load_stream,
    read_manifest,
    save_stream,
    serialize_stream,
    synthesize_stream,
    write_manifest,
)


def make_config(**kw):
    defaults = dict(num_targets=1, packet_rate=500.0, duration=2.0,
                    num_subcarriers=8, snr_db=15.0, rng_seed=123)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(num_targets=-1),
    dict(packet_rate=0.0),
    dict(duration=-1.0),
    dict(packet_rate=1.0, duration=1.0),            # fewer than 2 packets
    dict(num_subcarriers=0),
    dict(doppler_range=(0.0, 60.0)),
    dict(doppler_range=(60.0, 5.0)),
    dict(doppler_range=(5.0, 250.0)),               # >= Nyquist at 500 pkts/s
    dict(rng_seed=-1),
    dict(packet_rate=float("nan")),
    dict(packet_rate=float("inf")),
    dict(duration=float("nan")),
    dict(duration=float("inf")),
    dict(packet_rate=1e308),                        # 2 s of it overflows to infinity
])
def test_invalid_configs_rejected(kw):
    with pytest.raises(ConfigurationError):
        make_config(**kw)


def test_forced_paths_must_match_target_count():
    cfg = make_config(num_targets=2)
    with pytest.raises(ConfigurationError):
        synthesize_stream(cfg, [TargetPath(20.0, 0.5)])


@pytest.mark.parametrize("kw", [dict(amplitude=-0.5), dict(delay_ns=-1.0)])
def test_negative_path_amplitude_or_delay_rejected(kw):
    with pytest.raises(ConfigurationError, match="path (amplitude|delay) must be >= 0"):
        TargetPath(**{"doppler_hz": 20.0, "amplitude": 0.5, **kw})


def test_forced_path_aliasing_rejected():
    cfg = make_config(num_targets=1)
    with pytest.raises(ConfigurationError):
        synthesize_stream(cfg, [TargetPath(300.0, 0.5)])


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_no_targets_no_noise_gives_constant_amplitude():
    cfg = make_config(num_targets=0, snr_db=float("inf"))
    stream = synthesize_stream(cfg)
    amp = np.abs(stream.samples)
    # only the static component remains, so |H| is constant along time
    assert np.allclose(amp, amp[0], atol=1e-12)


def test_forced_doppler_peak_within_half_hz():
    cfg = make_config(num_targets=1, snr_db=float("inf"))
    stream = synthesize_stream(cfg, [TargetPath(20.0, 0.8, 0.3, 25.0)])
    series = np.abs(stream.samples).mean(axis=1)
    # independent oracle: DFT of the mean-removed series, locate the peak
    spectrum = np.abs(np.fft.rfft(series - series.mean()))
    freqs = np.fft.rfftfreq(len(series), d=1.0 / stream.packet_rate)
    peak = freqs[np.argmax(spectrum)]
    assert abs(peak - 20.0) <= 0.5


def test_seeded_determinism_bit_identical():
    cfg = make_config()
    a = synthesize_stream(cfg)
    b = synthesize_stream(cfg)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert serialize_stream(a) == serialize_stream(b)


def test_different_seeds_differ():
    a = synthesize_stream(make_config(rng_seed=1))
    b = synthesize_stream(make_config(rng_seed=2))
    assert not np.array_equal(a.samples, b.samples)


def test_packet_count_and_metadata():
    cfg = make_config(packet_rate=1000.0, duration=2.0, num_targets=3, num_subcarriers=30)
    stream = synthesize_stream(cfg)
    assert stream.samples.shape == (2000, 30)
    assert stream.packet_rate == 1000.0
    assert np.all(np.isfinite(stream.samples.view(np.float64)))


def test_noise_power_tracks_dynamic_power():
    # empty scene: the static gain is constant per subcarrier, so per-column
    # variance isolates the noise, whose power follows the unit reference
    cfg = make_config(num_targets=0, snr_db=20.0, duration=20.0)
    stream = synthesize_stream(cfg)
    measured = (stream.samples.real.var(axis=0) + stream.samples.imag.var(axis=0)).mean()
    assert measured == pytest.approx(10 ** (-20.0 / 10.0), rel=0.05)


# ---------------------------------------------------------------------------
# decimate
# ---------------------------------------------------------------------------

def test_decimate_stride_five():
    stream = synthesize_stream(make_config(packet_rate=500.0, duration=2.0))
    out = decimate(stream, 100.0)
    assert out.num_packets == 200
    assert out.packet_rate == 100.0
    assert np.array_equal(out.samples, stream.samples[::5])


def test_decimate_full_rate_is_identity():
    stream = synthesize_stream(make_config())
    out = decimate(stream, stream.packet_rate)
    assert out.packet_rate == stream.packet_rate
    assert np.array_equal(out.samples, stream.samples)


@pytest.mark.parametrize("rate", [500.0, 250.0, 100.0, 70.0])
def test_decimate_returns_a_read_only_view(rate):
    stream = synthesize_stream(make_config(packet_rate=500.0))
    out = decimate(stream, rate)
    assert np.array_equal(out.samples, stream.samples[::decimation_stride(500.0, rate)])
    assert out.samples.base is not None and not out.samples.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        out.samples[0, 0] = 0.0
    assert stream.samples.flags.writeable


def test_a_write_to_the_source_shows_through_decimate():
    stream = synthesize_stream(make_config(packet_rate=500.0))
    out = decimate(stream, 100.0)
    stream.samples[5, 2] = 7.0 + 1.0j
    assert out.samples[1, 2] == 7.0 + 1.0j


def test_decimate_above_rate_raises():
    stream = synthesize_stream(make_config(packet_rate=500.0))
    with pytest.raises(RateError):
        decimate(stream, 600.0)


def test_decimate_nonpositive_rate_raises():
    stream = synthesize_stream(make_config())
    with pytest.raises(ConfigurationError):
        decimate(stream, 0.0)


def test_decimate_nan_rate_raises():
    stream = synthesize_stream(make_config())
    with pytest.raises(ConfigurationError):
        decimate(stream, float("nan"))


@pytest.mark.parametrize("rate", [5e-324, 1e-310])
def test_decimate_rate_too_small_for_a_stride_raises(rate):
    # 500 / rate overflows to infinity, which has no integer stride
    stream = synthesize_stream(make_config())
    with pytest.raises(RateError, match="too small"):
        decimate(stream, rate)


def test_decimate_composes_when_strides_multiply():
    stream = synthesize_stream(make_config(packet_rate=1000.0))
    two_step = decimate(decimate(stream, 500.0), 100.0)
    one_step = decimate(stream, 100.0)
    assert two_step.packet_rate == one_step.packet_rate
    assert np.array_equal(two_step.samples, one_step.samples)


def test_decimate_non_integral_ratio_keeps_exact_rate():
    stream = synthesize_stream(make_config(packet_rate=1000.0))
    out = decimate(stream, 300.0)  # stride 3
    assert out.packet_rate == pytest.approx(1000.0 / 3.0)
    assert out.num_packets == len(range(0, stream.num_packets, 3))


# ---------------------------------------------------------------------------
# subcarrier-averaged amplitude (features.mean_amplitude_series)
# ---------------------------------------------------------------------------

def test_amplitude_pythagorean():
    stream = CsiStream(np.array([[3 + 4j, 6 - 8j]]), 100.0)
    assert mean_amplitude_series(stream)[0] == 7.5


def test_amplitude_zero_stream():
    stream = CsiStream(np.zeros((4, 3), dtype=complex), 100.0)
    assert np.all(mean_amplitude_series(stream) == 0.0)


def test_amplitude_conjugation_invariant():
    stream = synthesize_stream(make_config())
    conj = CsiStream(np.conj(stream.samples), stream.packet_rate)
    assert np.array_equal(mean_amplitude_series(stream), mean_amplitude_series(conj))


# ---------------------------------------------------------------------------
# stream container / manifest
# ---------------------------------------------------------------------------

def test_stream_round_trip(tmp_path):
    stream = synthesize_stream(make_config(num_targets=2))
    path = tmp_path / "s.csi"
    save_stream(stream, path)
    loaded = load_stream(path)
    assert np.array_equal(loaded.samples, stream.samples)
    assert loaded.packet_rate == stream.packet_rate


def test_stream_serialization_is_canonical():
    stream = synthesize_stream(make_config())
    assert serialize_stream(stream) == serialize_stream(stream)


def test_stream_bad_magic():
    data = serialize_stream(synthesize_stream(make_config()))
    with pytest.raises(FormatError, match="bad stream magic b'XXXX', expected b'CSI2'"):
        deserialize_stream(b"XXXX" + data[4:])


def test_stream_container_is_its_header_and_samples():
    stream = synthesize_stream(make_config(num_subcarriers=3))
    header = struct.pack("<4sQQd", b"CSI2", stream.num_packets, 3, stream.packet_rate)
    assert serialize_stream(stream) == header + stream.samples.astype("<c16").tobytes()


def test_stream_truncated():
    data = serialize_stream(synthesize_stream(make_config()))
    with pytest.raises(FormatError):
        deserialize_stream(data[:-8])
    with pytest.raises(FormatError):
        deserialize_stream(data[:10])


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -500.0])
def test_stream_bad_packet_rate(rate):
    stream = synthesize_stream(make_config())
    forged = CsiStream(stream.samples, rate)
    with pytest.raises(FormatError):
        deserialize_stream(serialize_stream(forged))


@pytest.mark.parametrize("value", [MAX_SAMPLE, -MAX_SAMPLE, 1j * MAX_SAMPLE, 1e200, np.inf,
                                   np.nan])
def test_stream_reader_bounds_samples(value):
    stream = synthesize_stream(make_config())
    samples = stream.samples.copy()
    samples[7, 3] = value
    forged = CsiStream(samples, stream.packet_rate)
    with pytest.raises(FormatError, match="samples"):
        deserialize_stream(serialize_stream(forged))
    samples[7, 3] = np.nextafter(MAX_SAMPLE, 0.0) * (1 + 1j)
    assert deserialize_stream(serialize_stream(forged)).samples[7, 3] == samples[7, 3]


UNDER_MAX = float(np.nextafter(MAX_SAMPLE, 0.0))
# parts on and around the bound, NaN, infinities, subnormals, parts whose
# squares overflow, and parts near 1e49, a dozen of which square-sum past 1e99
EDGE_PARTS = [MAX_SAMPLE, -MAX_SAMPLE, UNDER_MAX, -UNDER_MAX, np.nan, np.inf, -np.inf,
              5e-324, -5e-324, 2.2e-308, 1e160, -1e200, 1.7e308, 0.0, -0.0, 1e49, -3e49]


def two_sided(samples):
    """The stream check before its one-pass test: every part finite and below
    MAX_SAMPLE in size, by the smallest and the largest part."""
    values = np.ascontiguousarray(samples, np.complex128).view(np.float64)
    return bool(values.size and -MAX_SAMPLE < values.min() and values.max() < MAX_SAMPLE)


@st.composite
def sample_blocks(draw):
    packets, subcarriers = draw(st.integers(0, 8)), draw(st.integers(1, 4))
    near = st.floats(1e49, UNDER_MAX) | st.floats(-UNDER_MAX, -1e49)
    part = draw(st.sampled_from(["edge", "near", "any"]))
    parts = {"edge": st.sampled_from(EDGE_PARTS) | st.floats(-1e51, 1e51),
             "near": near | st.sampled_from(EDGE_PARTS), "any": st.floats()}[part]
    size = 2 * packets * subcarriers
    values = np.array(draw(st.lists(parts, min_size=size, max_size=size)), dtype=np.float64)
    return values.view(np.complex128).reshape(packets, subcarriers)


@settings(max_examples=300, deadline=None)
@given(sample_blocks())
def test_check_samples_accepts_what_the_two_sided_rule_accepts(samples):
    stream = CsiStream(samples, 500.0)
    blob = serialize_stream(stream)
    if two_sided(samples):
        check_samples(stream)
        assert deserialize_stream(blob).samples.tobytes() == samples.tobytes()
    else:
        with pytest.raises(InputError, match="samples"):
            check_samples(stream)
        with pytest.raises(FormatError, match="samples"):
            deserialize_stream(blob)


@pytest.mark.parametrize("part", [5e49, UNDER_MAX, 1e49])
def test_check_samples_accepts_a_sum_of_squares_past_its_one_pass_bound(part):
    samples = np.full((6, 2), part * (1 - 1j))  # 24 squares near or above 1e98
    assert (samples.view(np.float64) ** 2).sum() > 1e99
    check_samples(CsiStream(samples, 500.0))
    samples[5, 1] = MAX_SAMPLE
    with pytest.raises(InputError, match="samples"):
        check_samples(CsiStream(samples, 500.0))


def test_stream_reader_rejects_a_stream_without_packets():
    with pytest.raises(FormatError, match="samples"):
        deserialize_stream(serialize_stream(CsiStream(np.zeros((0, 8), complex), 500.0)))


def test_manifest_round_trip(tmp_path):
    entries = [ManifestEntry("a.csi", 0), ManifestEntry("b.csi", 3), ManifestEntry("c d.csi", 1)]
    path = tmp_path / "manifest.csv"
    write_manifest(path, entries)
    assert path.read_text().splitlines()[0] == "path,label"
    loaded = read_manifest(path)
    assert loaded == entries


def test_manifest_bad_header(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(FormatError, match="expected path,label"):
        read_manifest(path)


# A row that still carries a rate cell is malformed, whatever the rate or label it holds.
@pytest.mark.parametrize("row", ["a.csi,0,nan", "a.csi,0,inf", "a.csi,0,0", "a.csi,0,-3",
                                 "a.csi,-1,1000.0", "a.csi,-3,nan", "a\0.csi,0,1000.0"])
def test_manifest_bad_rate_or_label(tmp_path, row):
    path = tmp_path / "manifest.csv"
    path.write_text(f"path,label\nb.csi,1\n{row}\n")
    with pytest.raises(FormatError, match="malformed manifest row"):
        read_manifest(path)


@pytest.mark.parametrize("row", ["a.csi,-1", "a.csi,-3", "a\0.csi,0", "a.csi,x", "a.csi"])
def test_manifest_bad_label_or_path(tmp_path, row):
    path = tmp_path / "manifest.csv"
    path.write_text(f"path,label\nb.csi,1\n{row}\n")
    with pytest.raises(FormatError, match="manifest row"):
        read_manifest(path)


def _stream_with_rate(rate):
    stream = synthesize_stream(make_config())
    return deserialize_stream(serialize_stream(CsiStream(stream.samples, rate)))


# Each place that takes a rate or another positive number, the error class it
# documents, and what its message calls the number.
POSITIVE_NUMBER_SITES = {
    "scenario_rate": (lambda v, tmp: make_config(packet_rate=v), ConfigurationError,
                      "packet_rate"),
    "scenario_duration": (lambda v, tmp: make_config(duration=v), ConfigurationError,
                          "duration"),
    "decimation": (lambda v, tmp: decimation_stride(1000.0, v), ConfigurationError,
                   "target_rate"),
    "stream_container": (lambda v, tmp: _stream_with_rate(v), FormatError, "stream packet rate"),
    "doppler_config": (lambda v, tmp: DopplerConfig(10, v), ConfigurationError, "max_freq_hz"),
    "expert_spec": (lambda v, tmp: ExpertSpec("X", FeatureKind.DOPPLER_ENERGY,
                                              ClassifierKind.FOREST, v),
                    ConfigurationError, "required_rate of X"),
    "rate_filter": (lambda v, tmp: filter_by_rate(default_registry(), v), InputError,
                    "current_rate"),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -2.5])
@pytest.mark.parametrize("site", sorted(POSITIVE_NUMBER_SITES))
def test_every_positive_number_check_says_the_same(tmp_path, site, value):
    build, error, what = POSITIVE_NUMBER_SITES[site]
    with pytest.raises(error, match=re.escape(f"{what} must be finite and positive, got {value}")):
        build(value, tmp_path)
