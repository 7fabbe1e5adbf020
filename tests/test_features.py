import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moesense.errors import ConfigurationError, InputError
from moesense.features import (
    DEFAULT_DOPPLER_CONFIG,
    MAX_FEATURE,
    DopplerConfig,
    FeatureKind,
    amp_stats_from_series,
    centre_rows,
    doppler_from_series,
    extract_amp_stats,
    extract_doppler,
    pearson,
)
from moesense.simulate import CsiStream, ScenarioConfig, TargetPath, synthesize_stream


def stream_from_series(series, packet_rate=100.0):
    """Single-subcarrier stream whose mean amplitude equals `series`."""
    samples = np.asarray(series, dtype=float).reshape(-1, 1).astype(complex)
    return CsiStream(samples, packet_rate)


def single_path_stream(freq, rate=500.0, amplitude=0.8):
    cfg = ScenarioConfig(num_targets=1, packet_rate=rate, duration=2.0,
                         num_subcarriers=8, snr_db=float("inf"), rng_seed=11)
    return synthesize_stream(cfg, [TargetPath(freq, amplitude, 0.7, 20.0)])


# ---------------------------------------------------------------------------
# Doppler energy distribution
# ---------------------------------------------------------------------------

def test_doppler_constant_stream_all_zero():
    stream = stream_from_series(np.full(64, 2.5))
    fv = extract_doppler(stream, DopplerConfig(10, 50.0))
    assert fv.kind is FeatureKind.DOPPLER_ENERGY
    assert np.all(fv.values == 0.0)


def test_doppler_bin_localization_20hz():
    stream = single_path_stream(20.0)
    cfg = DopplerConfig(25, 125.0)
    fv = extract_doppler(stream, cfg)
    # oracle: bin the directly computed spectrum of the same series
    series = np.abs(stream.samples).mean(axis=1)
    spectrum = np.abs(np.fft.rfft(series - series.mean())) ** 2
    freqs = np.fft.rfftfreq(len(series), d=1.0 / stream.packet_rate)
    oracle = np.zeros(25)
    for f, e in zip(freqs, spectrum):
        if f <= 125.0:
            oracle[min(int(f / 5.0), 24)] += e
    oracle /= oracle.sum()
    assert int(np.argmax(fv.values)) == 4  # [20, 25) Hz
    assert np.allclose(fv.values, oracle, atol=1e-12)


def test_doppler_normalization():
    for seed in range(5):
        cfg = ScenarioConfig(num_targets=2, packet_rate=500.0, duration=1.0,
                             num_subcarriers=8, rng_seed=seed)
        fv = extract_doppler(synthesize_stream(cfg))
        assert fv.values.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(fv.values >= 0.0)


def test_doppler_invariant_under_amplitude_scaling():
    stream = single_path_stream(30.0)
    scaled = CsiStream(stream.samples * 3.7, stream.packet_rate)
    a = extract_doppler(stream, DopplerConfig(25, 125.0))
    b = extract_doppler(scaled, DopplerConfig(25, 125.0))
    assert np.allclose(a.values, b.values, atol=1e-9)


def test_doppler_too_few_packets():
    stream = stream_from_series([1, 2, 3])
    with pytest.raises(InputError):
        extract_doppler(stream, DopplerConfig(5, 10.0))


@pytest.mark.parametrize("rate", [100.0, 159.0, 160.0, 400.0])
def test_doppler_band_clips_itself_to_nyquist(rate):
    # a band top above the stream's Nyquist bins as the Nyquist top would,
    # one below it (or at it) as it is
    series = np.random.default_rng(3).uniform(1.0, 2.0, 64)
    stream = stream_from_series(series, packet_rate=rate)
    got = extract_doppler(stream, DopplerConfig(5, 80.0))
    want = extract_doppler(stream, DopplerConfig(5, min(80.0, rate / 2)))
    assert got.values.tobytes() == want.values.tobytes()
    assert np.count_nonzero(got.values) == 5


def test_doppler_default_config_clips_to_nyquist():
    stream = stream_from_series(np.arange(64), packet_rate=40.0)
    fv = extract_doppler(stream)  # Nyquist 20 < default 62.5
    assert len(fv) == 25


def test_doppler_config_validation():
    with pytest.raises(ConfigurationError):
        DopplerConfig(1, 50.0)
    with pytest.raises(ConfigurationError):
        DopplerConfig(10, 0.0)


def doppler_add_at(series, packet_rate, cfg):
    """The Doppler energy as it was binned before `np.bincount`: the in-band
    mask of every rfft frequency, summed into the bins by `np.add.at`."""
    top = min(cfg.max_freq_hz, packet_rate / 2.0)
    spectrum = np.abs(np.fft.rfft(series - series.mean())) ** 2
    freqs = np.fft.rfftfreq(len(series), d=1.0 / packet_rate)
    in_band = freqs <= top
    idx = np.minimum((freqs[in_band] / (top / cfg.num_bins)).astype(int), cfg.num_bins - 1)
    energy = np.zeros(cfg.num_bins)
    np.add.at(energy, idx, spectrum[in_band])
    total = energy.sum()
    if total >= 1e-15:
        energy /= total
    else:
        energy[:] = 0.0
    return energy


@st.composite
def doppler_cases(draw):
    """A series of 8 to 3000 values (sometimes constant), a rate (1000/3, rates
    whose Nyquist clips the default band, or any from 1 to 5000), and a config."""
    n = draw(st.integers(8, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    series = (np.full(n, 2.5) if draw(st.integers(0, 9)) == 0
              else rng.uniform(0.5, 2.0, n) * draw(st.sampled_from([1e-3, 1.0, 1e40])))
    rate = draw(st.sampled_from([1000 / 3, 1000.0, 500.0, 125.0, 124.9, 60.0, 33.3])
                | st.floats(1.0, 5000.0))
    cfg = draw(st.sampled_from([DEFAULT_DOPPLER_CONFIG, None])
               | st.builds(DopplerConfig, st.integers(2, 40), st.floats(0.5, 600.0)))
    return series, rate, cfg


@settings(max_examples=200, deadline=None)
@given(doppler_cases())
def test_doppler_equals_the_add_at_binning_bit_for_bit(case):
    series, rate, cfg = case
    got = doppler_from_series(series, rate, cfg)
    want = doppler_add_at(series, rate, DEFAULT_DOPPLER_CONFIG if cfg is None else cfg)
    assert got.values.dtype == want.dtype and got.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("rate", [0.0, -500.0, math.nan, math.inf])
def test_doppler_refuses_a_rate_that_is_not_positive(rate):
    with pytest.raises(InputError, match="packet_rate"):
        doppler_from_series(np.arange(64.0), rate)


# ---------------------------------------------------------------------------
# amplitude statistics
# ---------------------------------------------------------------------------

def quantile_oracle(values, q):
    """Independent sort-then-interpolate quantile (inclusive endpoints)."""
    x = sorted(values)
    pos = q * (len(x) - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return x[lo] + frac * (x[hi] - x[lo])


def test_amp_stats_hand_arithmetic():
    fv = extract_amp_stats(stream_from_series([1, 2, 3, 4]))
    mean, var, mad, median, q1, q3 = fv.values
    assert mean == pytest.approx(2.5)
    assert var == pytest.approx(1.25)    # population variance
    assert mad == pytest.approx(1.0)
    assert median == pytest.approx(2.5)
    assert q1 == pytest.approx(1.75)
    assert q3 == pytest.approx(3.25)


def test_amp_stats_quartiles_match_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        series = rng.normal(size=rng.integers(2, 200))
        fv = extract_amp_stats(stream_from_series(np.abs(series) + 1.0))
        observed = np.abs(series) + 1.0
        assert fv.values[4] == pytest.approx(quantile_oracle(observed, 0.25), abs=1e-12)
        assert fv.values[3] == pytest.approx(quantile_oracle(observed, 0.50), abs=1e-12)
        assert fv.values[5] == pytest.approx(quantile_oracle(observed, 0.75), abs=1e-12)


def test_amp_stats_constant_series():
    fv = extract_amp_stats(stream_from_series(np.full(16, 3.5)))
    assert np.allclose(fv.values, [3.5, 0.0, 0.0, 3.5, 3.5, 3.5], atol=1e-12)


def test_amp_stats_needs_two_packets():
    with pytest.raises(InputError):
        extract_amp_stats(stream_from_series([1.0]))


def test_amp_stats_permutation_invariant_against_oracle():
    rng = np.random.default_rng(9)
    series = rng.uniform(0.5, 2.0, 100)
    base = extract_amp_stats(stream_from_series(series)).values
    # brute-force oracle on the raw series
    oracle = np.array([
        series.mean(),
        series.var(),
        np.abs(series - series.mean()).mean(),
        quantile_oracle(series, 0.5),
        quantile_oracle(series, 0.25),
        quantile_oracle(series, 0.75),
    ])
    assert np.allclose(base, oracle, atol=1e-12)
    for _ in range(10):
        perm = rng.permutation(series)
        assert np.allclose(extract_amp_stats(stream_from_series(perm)).values, base, atol=1e-12)


@st.composite
def amplitude_series(draw):
    """A nonnegative series of 2-2,100 values below MAX_FEATURE: spread over
    one power-of-two scale from the subnormals up, ties among a few drawn
    values, or constant runs of them."""
    n = draw(st.integers(2, 2100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["scaled", "ties", "runs"]))
    if shape == "scaled":
        scaled = rng.random(n) * 2.0 ** draw(st.integers(-1074, 336))
        return np.minimum(scaled, np.nextafter(MAX_FEATURE, 0.0))
    values = draw(st.lists(st.floats(0.0, MAX_FEATURE, exclude_max=True), min_size=1,
                           max_size=6))
    if shape == "ties":
        return rng.choice(values, n)
    return np.repeat(values, rng.multinomial(n, [1 / len(values)] * len(values)))


@settings(max_examples=500, deadline=None)
@given(amplitude_series())
def test_amp_stats_equals_numpy_bit_for_bit(series):
    mean = series.mean()
    expected = [mean, series.var(), np.abs(series - mean).mean(),
                *np.quantile(series, [0.5, 0.25, 0.75])]
    assert amp_stats_from_series(series).values.tobytes() == np.array(expected).tobytes()


# ---------------------------------------------------------------------------
# pearson
# ---------------------------------------------------------------------------

def test_pearson_perfect_linear():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_zero_variance_convention():
    assert pearson([1, 2, 3], [5, 5, 5]) == 0.0
    assert pearson([7, 7], [1, 2]) == 0.0


def test_pearson_input_errors():
    with pytest.raises(InputError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(InputError):
        pearson([1], [2])


# numpy warns as the huge sums overflow; pearson detects that and rescales
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_pearson_tiny_and_huge_scales():
    a = np.array([0.0, 1.0, 3.0, 2.0])
    b = np.array([1.0, -2.0, 0.5, 4.0])
    r = pearson(a, b)
    for scale in (7e-161, 1e-300, 1e150, 1e300):
        assert pearson(a * scale, b) == pytest.approx(r, abs=1e-12)
        assert pearson(a * scale, b * scale) == pytest.approx(r, abs=1e-12)
    # regression: once raised ZeroDivisionError, or returned |r| > 1
    assert pearson([0.0, 7.364775116695471e-161], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
       st.integers(0, 2**31))
def test_pearson_properties(values, seed):
    rng = np.random.default_rng(seed)
    a = np.asarray(values)
    b = rng.normal(size=len(a))
    r_ab = pearson(a, b)
    assert abs(r_ab) <= 1.0 + 1e-12
    assert r_ab == pytest.approx(pearson(b, a), abs=1e-12)
    if np.ptp(a) > 1e-6:
        alpha = float(rng.uniform(0.1, 5.0)) * (1 if seed % 2 else -1)
        beta = float(rng.uniform(-10, 10))
        assert pearson(a, alpha * a + beta) == pytest.approx(np.sign(alpha), abs=1e-9)


def pearson_reference(a, b):
    """pearson written with np.ptp and ndarray.mean; the gate's hot path
    spells these reductions out, and must not change a bit."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise InputError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise InputError(f"need at least 2 points, got {x.size}")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return 0.0
    xc = x - x.mean()
    yc = y - y.mean()
    with np.errstate(over="ignore", under="ignore"):
        vx = float(xc @ xc)
        vy = float(yc @ yc)
    if not (2.0**-500 < vx < 2.0**500 and 2.0**-500 < vy < 2.0**500):
        xc = np.ldexp(xc, -math.frexp(float(np.abs(xc).max()))[1])
        yc = np.ldexp(yc, -math.frexp(float(np.abs(yc).max()))[1])
        vx = float(xc @ xc)
        vy = float(yc @ yc)
    if vx <= 0.0 or vy <= 0.0:
        return 0.0
    return float(xc @ yc) / math.sqrt(vx * vy)


@st.composite
def pearson_inputs(draw, count=2):
    """`count` vectors of one length: each scaled far into the tiny or the huge
    range, constant, integer, or any floats at all (NaN, infinities, subnormals)."""
    n = draw(st.integers(1, 12))

    def vector():
        shape = draw(st.sampled_from(["scaled", "constant", "integers", "any"]))
        if shape == "constant":
            return [draw(st.floats())] * n
        if shape == "integers":
            return draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
        if shape == "any":
            return draw(st.lists(st.floats(), min_size=n, max_size=n))
        unit = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
        return np.ldexp(unit, draw(st.integers(-1074, 1023)))

    return tuple(vector() for _ in range(count))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf inputs warn in both
@settings(max_examples=1000, deadline=None)
@given(pearson_inputs())
def test_pearson_equals_the_reference_bit_for_bit(ab):
    a, b = ab
    try:
        expected = pearson_reference(a, b)
    except InputError:
        with pytest.raises(InputError):
            pearson(a, b)
        return
    assert repr(pearson(a, b)) == repr(expected)  # tells -0.0 from 0.0, and NaN equals NaN


def prepared(v):
    """`v` as a `pearson` operand, prepared alone."""
    return centre_rows(np.asarray(v, dtype=np.float64).reshape(1, -1))[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=500, deadline=None)
@given(pearson_inputs(count=4))
def test_prepared_operands_correlate_as_the_reference_bit_for_bit(vectors):
    """One prepared operand reused against several partners, each given as a
    vector or prepared, with the vector or the prepared operand on either side."""
    a, *partners = vectors
    pa = prepared(a)
    for b in partners:
        pb = prepared(b)
        calls = [(pa, b), (b, pa), (a, pb), (pb, a), (pa, pb), (pb, pa)]
        try:
            expected = [pearson_reference(a, b), pearson_reference(b, a)] * 3
        except InputError:  # fewer than 2 points
            for x, y in calls:
                with pytest.raises(InputError):
                    pearson(x, y)
            continue
        assert [repr(pearson(x, y)) for x, y in calls] == [repr(r) for r in expected]
        # a width mismatch is an InputError, even against a constant operand
        wider = prepared([*b, b[0]])
        for x, y in [(pa, wider), (wider, pa), (a, wider), (prepared([0.0] * (len(b) + 1)), pa)]:
            with pytest.raises(InputError):
                pearson(x, y)


def takes_the_fast_path(op):
    """Whether `pearson` correlates the prepared `op` with a like operand of its
    shape in one expression: not constant, its sum of squares in the safe range."""
    return not op.constant and 2.0**-500 < op.sumsq < 2.0**500


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(pearson_inputs())
def test_fast_path_operands_correlate_as_the_general_path_bit_for_bit(ab):
    """Two prepared operands give what the general path gives them, forced by
    passing one side as its vector, which `pearson` prepares to the same bits."""
    (a, b), (pa, pb) = ab, map(prepared, ab)
    try:
        expected = repr(pearson(pa, b))
    except InputError:
        with pytest.raises(InputError):
            pearson(pa, pb)
        return
    assert repr(pearson(pa, pb)) == repr(pearson(pb, pa)) == expected == repr(pearson(a, pb))


def test_operands_off_the_fast_path_keep_their_results_and_errors():
    constant, line = prepared([4.0, 4.0, 4.0]), prepared([1.0, 2.0, 4.0])
    huge, tiny = prepared([1e300, -1e300, 0.0]), prepared([1e-300, 3e-300, 0.0])
    assert takes_the_fast_path(line)
    assert not any(map(takes_the_fast_path, (constant, huge, tiny)))
    assert pearson(line, constant) == pearson(constant, line) == 0.0
    assert pearson(huge, tiny) == pearson_reference([1e300, -1e300, 0.0], [1e-300, 3e-300, 0.0])
    assert pearson(line, huge) == pearson_reference([1.0, 2.0, 4.0], [1e300, -1e300, 0.0])
    wider = prepared([1.0, 2.0, 4.0, 8.0])
    assert takes_the_fast_path(wider)
    for x, y in [(line, wider), (wider, line), (constant, wider)]:
        with pytest.raises(InputError, match="length mismatch"):
            pearson(x, y)


def test_prepared_operand_views_one_centred_block():
    rows = np.array([[1.0, 2.0, 6.0], [3.0, 3.0, 3.0]])
    ops = centre_rows(rows)
    assert [op.constant for op in ops] == [False, True]
    assert ops[0].values.base is ops[1].values.base is not None
    assert ops[0].values.tolist() == [-2.0, -1.0, 3.0] and ops[0].sumsq == 14.0
