"""In-memory span recorder that wraps moesense's layer functions from outside.

A `Tracer` replaces each traced function at the module attribute where its
callers look it up, records one span per call (name, start, end, parent span,
request id, and one optional number such as bytes or candidates), and puts
the original objects back when its `with` block ends. Nothing in `src/` is
edited, and an untraced run executes exactly the original code.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from moesense import cli, gating, pipeline, simulate

SPAN_COLUMNS = ("name", "start_ns", "end_ns", "parent", "request", "extra")
_MODEL_LABELS = {"KnnModel": "knn", "LinearSvmModel": "svm", "ForestModel": "forest"}


def _stream_rate(args, out):
    return float(args[0].packet_rate)


@dataclass(frozen=True)
class Hook:
    """One traced function: where its callers look it up and what to record.

    `name` is the span name, or a function of the call's arguments for spans
    labelled per call. `extra` maps (args, result) to the span's one number.
    """

    modules: tuple
    attr: str
    name: str | Callable[[tuple], str]
    extra: Callable[[tuple, Any], float] | None = None


HOOKS = (
    Hook((simulate,), "synthesize_stream", "simulate.synthesize_stream"),
    Hook((simulate,), "deserialize_stream", "simulate.deserialize_stream",
         lambda args, out: len(args[0])),
    Hook((pipeline, cli), "decimate", "simulate.decimate",
         lambda args, out: out.samples.nbytes),
    Hook((pipeline,), "extract_doppler", "features.extract_doppler", _stream_rate),
    Hook((pipeline,), "extract_amp_stats", "features.extract_amp_stats", _stream_rate),
    Hook((gating,), "pearson", "features.pearson"),
    Hook((pipeline,), "train_linear_svm", "classifiers.train_linear_svm"),
    Hook((pipeline,), "train_forest", "classifiers.train_forest"),
    Hook((pipeline,), "train_knn", "classifiers.train_knn"),
    # classifiers dispatches through a private dict, so prediction is traced
    # at predict_posterior and labelled by the model's type.
    Hook((pipeline, cli), "predict_posterior",
         lambda args: "classifiers.predict_posterior." + _MODEL_LABELS[type(args[0]).__name__]),
    Hook((pipeline, cli), "decide", "gating.decide",
         lambda args, out: float(out.mode is gating.GatingMode.FALLBACK)),
    Hook((gating,), "score_experts", "gating.score_experts", lambda args, out: len(args[2])),
    Hook((pipeline, cli), "fuse", "gating.fuse"),
    Hook((pipeline,), "build_bundle", "pipeline.build_bundle"),
    Hook((pipeline,), "detect", "pipeline.detect"),
    Hook((pipeline,), "serialize_bundle", "pipeline.serialize_bundle"),
    Hook((pipeline,), "deserialize_bundle", "pipeline.deserialize_bundle"),
    Hook((cli,), "evaluate_rate_sweep", "cli.evaluate_rate_sweep"),
)


class Tracer:
    """Records spans while active; `with Tracer() as t:` wraps, exit restores.

    Spans are lists in `SPAN_COLUMNS` order, kept in call order; `parent` is
    the index of the enclosing span. The benchmark opens requests with
    `begin_request`, so every span knows which operation caused it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.request_kinds: list[str] = []
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def begin_request(self, kind: str) -> None:
        self.request = len(self.request_kinds)
        self.request_kinds.append(kind)

    def __enter__(self) -> "Tracer":
        try:
            for hook in HOOKS:
                for module in hook.modules:
                    original = getattr(module, hook.attr)
                    self._saved.append((module, hook.attr, original))
                    setattr(module, hook.attr, self._wrap(original, hook))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, hook: Hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        name, extra = hook.name, hook.extra

        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args),
                    clock(), 0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if extra is not None:
                span[5] = extra(args, out)
            return out

        return traced

    def write(self, path: Path) -> None:
        """A header line (column names, request kinds), then one JSON list per span.

        A span's id is its line number after the header; `parent` is -1 for
        a root span.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": SPAN_COLUMNS, "request_kinds": self.request_kinds}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


# Set-up work, counted whatever request was open when it ran.
SETUP_SPANS = frozenset({"simulate.synthesize_stream", "classifiers.train_linear_svm",
                         "classifiers.train_forest", "classifiers.train_knn"})


def layer_metrics(tracer: Tracer, kinds: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, `name -> (value, unit)`, from the recorded spans.

    Only spans of requests whose kind is in `kinds` count, plus the set-up
    spans in `SETUP_SPANS`. `features.extracts_per_request` divides by the
    requests of the first kind. Self time is a span's duration minus the
    durations of its direct children; calls nest strictly in one thread, so
    children never overlap.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    extra_sum: dict[str, float] = defaultdict(float)
    counted = {i for i, kind in enumerate(tracer.request_kinds) if kind in kinds}
    requests = sum(kind == kinds[0] for kind in tracer.request_kinds)
    extractions = 0
    distinct_pairs: dict[int, set] = defaultdict(set)
    for i, (name, start, end, _, request, extra) in enumerate(spans):
        if request not in counted and name not in SETUP_SPANS:
            continue
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - child_ns[i]
        if extra is not None:
            extra_sum[name] += extra
        if name.startswith("features.extract_"):
            extractions += 1
            distinct_pairs[request].add((extra, name))

    def ms(ns: int) -> float:
        return ns / 1e6

    out: dict[str, tuple[float, str]] = {}
    for name in ("simulate.synthesize_stream", "simulate.deserialize_stream", "simulate.decimate",
                 "features.extract_doppler", "features.extract_amp_stats", "features.pearson",
                 "gating.decide", "gating.score_experts", "gating.fuse"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (ms(self_ns[name]), "ms")
    out["simulate.deserialize_stream.bytes"] = (extra_sum["simulate.deserialize_stream"], "B")
    out["simulate.decimate.bytes_out"] = (extra_sum["simulate.decimate"], "B")
    out["features.extractions"] = (extractions, "count")
    out["features.extracts_per_request"] = (extractions / max(requests, 1), "count")
    out["features.distinct_ratio"] = (
        sum(len(p) for p in distinct_pairs.values()) / max(extractions, 1), "ratio")
    for kind in ("linear_svm", "forest", "knn"):
        out[f"classifiers.train_{kind}.self_ms"] = (ms(self_ns[f"classifiers.train_{kind}"]), "ms")
    for label in ("knn", "svm", "forest"):
        name = f"classifiers.predict_posterior.{label}"
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (ms(self_ns[name]), "ms")
    out["gating.score_experts.candidates"] = (extra_sum["gating.score_experts"], "count")
    out["gating.fallback_ratio"] = (
        extra_sum["gating.decide"] / max(calls["gating.decide"], 1), "ratio")
    out["pipeline.build_bundle.ms"] = (ms(total_ns["pipeline.build_bundle"]), "ms")
    out["pipeline.build_bundle.self_ms"] = (ms(self_ns["pipeline.build_bundle"]), "ms")
    out["pipeline.detect.self_ms"] = (ms(self_ns["pipeline.detect"]), "ms")
    out["pipeline.serialize_bundle.ms"] = (ms(total_ns["pipeline.serialize_bundle"]), "ms")
    out["pipeline.deserialize_bundle.ms"] = (ms(total_ns["pipeline.deserialize_bundle"]), "ms")
    out["cli.evaluate_rate_sweep.self_ms"] = (ms(self_ns["cli.evaluate_rate_sweep"]), "ms")
    return out
