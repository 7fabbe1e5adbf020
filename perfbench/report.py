#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it, from the checkout root.

    python3 perfbench/report.py --seeds 1-10 --out .perfbench-out/report.json

For each workload in BENCHMARK.json this runs `perfbench/run.py` untraced
once per seed, then traced once on the first seed. It prints, per end-to-end
metric, the median, the quartile spread as a share of the median next to the
bound from BENCHMARK.json, and the tracing overhead: the traced value minus
the untraced value at the first seed, as a share of the untraced value. It
then prints the traced run's per-layer metrics. `--out` also keeps every
run's record: environment, operation counts and digests.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, check=True,
    )
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record_line), json.loads(result_line)


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = [run_once(workload, s, args.seconds, False) for s in args.seeds]
        traced_record, traced = run_once(workload, args.seeds[0], args.seconds, True)
        print(f"\n== {workload}: {len(untraced)} runs, seeds {args.seeds[0]}..{args.seeds[-1]}; "
              f"failed ops {[res['failed'] for _, res in untraced]}, traced {traced['failed']}")
        print(f"{'metric':<24}{'median':>14}{'spread':>9}{'bound':>7}{'overhead':>10}")
        rows = {}
        for name, bound in bounds.items():
            values = [res["metrics"][name]["value"] for _, res in untraced]
            overhead = (traced_record["end_to_end"][name]["value"] - values[0]) / values[0]
            rows[name] = {"unit": untraced[0][1]["metrics"][name]["unit"], "values": values,
                          "median": statistics.median(values), "spread": quartile_spread(values),
                          "bound": bound, "trace_overhead": overhead}
            r = rows[name]
            flag = "" if r["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"{name:<24}{r['median']:>14.6g}{r['spread']:>9.4f}{bound:>7}"
                  f"{overhead:>+10.3f}{flag}")
            print("    " + " ".join(f"{v:.5g}" for v in values))
        layers = traced["metrics"]
        for name, layer in layers.items():
            print(f"  {name:<46}{layer['value']:>16.6g} {layer['unit']}")
        # Each run's record without its metrics, which `end_to_end` already holds.
        runs = [{k: v for k, v in rec.items() if k != "end_to_end"}
                for rec, _ in [*untraced, (traced_record, traced)]]
        summary["workloads"][workload] = {"end_to_end": rows, "per_layer": layers, "runs": runs}
    if args.out is not None:
        args.out.write_text(json.dumps(summary, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
