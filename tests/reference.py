"""A reference detector in plain numpy, and the oracles the tests share.

`reference_detect` runs the detection workflow as the README states it, one
step at a time, without the package's kernels: decimation by slicing, the
features from numpy's own reductions and a binning loop, the gate's
correlations by `pearson_reference`, and each model's posterior from its
stored arrays. `detect` and the feature cache's `detect` must equal it bit
for bit, and refuse what it refuses with the same error class.
"""
import math

import numpy as np

from moesense.classifiers import KnnModel, LinearSvmModel
from moesense.errors import InputError, RateError
from moesense.features import FeatureKind, FeatureVector

TOP_K = 3  # experts the gate selects
NO_TEMPLATE_SCORE = -1.0  # the score of an expert without centroids
DOPPLER_BINS, DOPPLER_MAX_HZ = 25, 62.5  # uniform bins over [0, min(62.5 Hz, Nyquist)]
ZERO_ENERGY = 1e-15  # below this total energy the Doppler vector is all zero
MAX_SAMPLE = 1e50  # every real and imaginary part lies strictly below this in size


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


def quantile_oracle(values, q):
    """Independent sort-then-interpolate quantile (inclusive endpoints)."""
    x = sorted(values)
    pos = q * (len(x) - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return x[lo] + frac * (x[hi] - x[lo])


def knn_oracle(matrix, labels, query, k, num_classes):
    d2 = ((matrix - query) ** 2).sum(axis=1)
    order = sorted(range(len(matrix)), key=lambda i: (d2[i], i))[:k]
    votes = np.zeros(num_classes)
    for i in order:
        votes[labels[i]] += 1
    return votes / k


def reference_scores(stream_features, lib, candidate_ids):
    """The gate's scores by their definition, from the raw centroids: a
    constant raw vector scores 0.0, the rest are scaled, then correlated."""
    scores = {}
    for eid in candidate_ids:
        centroids = lib.centroids(eid)
        if not centroids:
            scores[eid] = NO_TEMPLATE_SCORE
            continue
        best = -np.inf
        for centroid in centroids.values():
            a = np.asarray(stream_features[centroid.kind].values, dtype=np.float64)
            b = np.asarray(centroid.values, dtype=np.float64)
            if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
                r = 0.0
            else:
                mean, std = lib.scalers[centroid.kind]
                r = pearson_reference((a - mean) / std, (b - mean) / std)
            best = max(best, r)
        scores[eid] = float(best)
    return scores


def _positive(value, what):
    if not 0 < value < math.inf:
        raise InputError(f"{what} must be finite and positive, got {value}")


def _observe(samples, packet_rate, rate):
    """The subcarrier-mean amplitude of every floor(packet_rate / rate)-th
    packet, and the rate that leaves."""
    if not 1 <= packet_rate / rate < math.inf:
        raise RateError(f"no integer stride takes {packet_rate} pkts/s to {rate}")
    stride = math.floor(packet_rate / rate)
    return np.abs(samples[::stride]).mean(axis=1), packet_rate / stride


def _doppler(series, rate):
    if len(series) < 8:
        raise InputError("the Doppler energy needs 8 packets")
    top = min(DOPPLER_MAX_HZ, rate / 2.0)
    spectrum = np.abs(np.fft.rfft(series - series.mean())) ** 2
    energy = np.zeros(DOPPLER_BINS)
    for freq, power in zip(np.fft.rfftfreq(len(series), d=1.0 / rate), spectrum):
        if freq <= top:
            energy[min(int(freq / (top / DOPPLER_BINS)), DOPPLER_BINS - 1)] += power
    total = energy.sum()
    return energy / total if total >= ZERO_ENERGY else np.zeros(DOPPLER_BINS)


def _amp_stats(series):
    if len(series) < 2:
        raise InputError("the amplitude statistics need 2 packets")
    mean = np.mean(series)
    median, q1, q3 = np.quantile(series, [0.5, 0.25, 0.75])
    return np.array([mean, np.var(series), np.mean(np.abs(series - mean)), median, q1, q3])


def _feature(samples, packet_rate, rate, kind):
    series, observed_rate = _observe(samples, packet_rate, rate)
    values = (_doppler(series, observed_rate) if kind is FeatureKind.DOPPLER_ENERGY
              else _amp_stats(series))
    return FeatureVector(kind, values)


def _svm(model, q):
    """The softmax of one query's margins, its mat-vec with the class hyperplanes."""
    z = (q - model.mean) / model.std
    margins = model.weights @ z + model.biases
    e = np.exp(margins - margins.max())
    return e / e.sum()


def _forest(model, q):
    """Each tree walked from its root by recursion over the stored columns;
    the leaves' class shares, stacked in tree order, summed over the trees."""
    inner = np.cumsum(model.feature >= 0) - 1  # a node's row of `threshold` and `right`
    leaf = np.cumsum(model.feature < 0) - 1  # a leaf's row of `counts`

    def walk(first, node):
        i = first + node
        if model.feature[i] < 0:
            return model.counts[leaf[i]] / model.counts[leaf[i]].sum()
        j = inner[i]
        return walk(first, node + 1 if q[model.feature[i]] <= model.threshold[j]
                    else int(model.right[j]))

    firsts = np.cumsum(model.nodes) - model.nodes
    return np.stack([walk(int(first), 0) for first in firsts]).sum(axis=0) / len(model.nodes)


def _posterior(model, q):
    if isinstance(model, KnnModel):
        return knn_oracle(model.matrix, model.labels, q, model.k, model.num_classes)
    return _svm(model, q) if isinstance(model, LinearSvmModel) else _forest(model, q)


def reference_detect(stream, rate, bundle):
    """Every field of `detect(stream, rate, bundle)`'s report, as plain values.

    The gate reads the stream decimated to `rate`: the experts whose required
    rate is at most `rate` are eligible, and it scores them, or every expert
    (fallback) when none is. It keeps the `TOP_K` best scores, ties to the
    lower id, and weighs them by their scores clipped at 0, normalized to sum
    1, or uniformly when every clipped score is 0. Each selected expert reads
    the base stream decimated to its required rate, or to `rate` in fallback.
    The fused posterior is the weighted sum, and the prediction its first
    largest class.
    """
    _positive(rate, "current_rate")
    samples, packet_rate = stream.samples, stream.packet_rate
    if not (samples.size and np.all(np.abs(samples.real) < MAX_SAMPLE)
            and np.all(np.abs(samples.imag) < MAX_SAMPLE)):
        raise InputError("stream must hold samples, all finite and below 1e50 in size")
    _positive(packet_rate, "stream packet rate")
    features = {kind: _feature(samples, packet_rate, rate, kind) for kind in FeatureKind}
    eligible = frozenset(spec.id for spec in bundle.registry if spec.required_rate <= rate)
    candidates = sorted(eligible or (spec.id for spec in bundle.registry))
    scores = reference_scores(features, bundle.templates, candidates)
    selected = tuple(sorted(sorted(scores), key=lambda eid: scores[eid], reverse=True)[:TOP_K])
    clipped = np.maximum([scores[eid] for eid in selected], 0.0)
    total = clipped.sum()
    weights = clipped / total if total > 0 else np.full(len(selected), 1.0 / len(selected))
    posteriors = {}
    for eid in selected:
        spec = next(spec for spec in bundle.registry if spec.id == eid)
        expert_rate = spec.required_rate if eligible else rate
        q = _feature(samples, packet_rate, expert_rate, spec.feature_kind).values
        posteriors[eid] = _posterior(bundle.models[eid], q)
    fused = np.zeros(bundle.metadata["k_max"] + 1)
    for eid, weight in zip(selected, weights):
        fused += float(weight) * posteriors[eid]
    return {"eligible": eligible, "selected": selected, "weights": tuple(map(float, weights)),
            "scores": scores, "mode": "normal" if eligible else "fallback",
            "expert_posteriors": posteriors, "fused": fused,
            "predicted_count": int(np.argmax(fused)), "current_rate": float(rate)}
