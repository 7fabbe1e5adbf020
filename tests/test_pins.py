"""The same bytes for the same seed, across commits.

Criterion 7 reruns training within one checkout; this file pins what the
same small workload produces, so a change that claims bit-identical
outputs is checked here. The workload runs through `main()`: `generate`,
`train`, `eval-rate` at 100, 300 and 500 pkts/s, `eval-targets` at 300
pkts/s, and `detect --json` on six streams at 50, 300 and 500 pkts/s.

The bundle pin is kept apart from the output pins. A bundle format change
moves only the bundle pin; a change to what is trained or predicted moves
both. A pin changes only with a stated reason, its old and its new digest.
Digests can depend on the numpy build and its BLAS, so a mismatch names
both; these were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64).
"""
import contextlib
import hashlib
import io

import numpy as np
import pytest

from moesense.cli import main
from moesense.simulate import read_manifest

SEED = "17"
GEN_ARGS = ["--k-max", "2", "--streams-per-class", "12", "--subcarriers", "8",
            "--duration", "1.0", "--seed", SEED]
DETECT_RATES = ("50", "300", "500")
DETECT_STREAMS = range(0, 36, 6)  # manifest rows: two streams of each class

OUTPUT_PINS = {
    # manifest.csv, then every stream file in manifest order. Streams are CSI3
    # (magic, header length 32, packets, subcarriers, rate); as CSI2, whose 28-byte
    # header had no length field and left the samples 4 bytes off 8-alignment, the
    # same samples gave f362bc8752e38c1a..., and as CSI1, whose header also held each
    # stream's seed and true target count, ac80ac137d459f17...
    # The manifest is `path,label`; with a third column holding each stream's rate
    # the CSI1 streams gave c63e7382d314c0c0... (rates written "1000.0") and
    # f717d1d4a6e1f244... ("1000.0000")
    "dataset": "7e0ee1d1ce1a06c5b67c86552a303645d975ffa1553a2d043718e482cf4b4a98",
    "eval_rate_csv": "15208e1352f5a940bd988a6bfa0bb832a8d42dc1b1c3dce294a38bba7647f5b0",
    "eval_targets_csv": "a0e608193e21be95b8cc3165121ab6f2adae636f78ed474df5c2db8f4cdcaef0",
    # stdout of every detect call, streams outer and rates inner
    "detect_json": "f5916904e529c1a4fd6d3555f33b3ddeab96fc2aba1c2132f91f078e87b7d1ad",
}
# The bundle file, format version 8. Version 7 wrote 58f60f4be2bf0c1f... with a
# `source_rates` list in each template entry; version 6 wrote e052b916699a6dd8... with one
# block per centroid and forest entries without their width; version 5 wrote
# 319c96808857ef2d... with block offsets, array dtypes, and model, centroid and
# Doppler fields that repeat the registry or the metadata; version 4 wrote
# 112cfd51eeaadd77... with a `nominal_rate` in each registry entry, and version 3
# df5e0a3c755c83c1...
BUNDLE_PIN = "3b8614757dcbec2084c3b2b1db00375c2d6e664cc75746376e1c73bf7f41a2ac"


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pins")
    data_dir, bundle = tmp / "ds", tmp / "bundle.moe"
    rates, targets = tmp / "rates.csv", tmp / "targets.csv"
    assert main(["generate", "--out", str(data_dir), *GEN_ARGS]) == 0
    assert main(["train", "--dataset", str(data_dir), "--out", str(bundle), "--seed", SEED]) == 0
    assert main(["eval-rate", "--bundle", str(bundle), "--dataset", str(data_dir),
                 "--rates", "100,300,500", "--out", str(rates), "--seed", SEED]) == 0
    assert main(["eval-targets", "--bundle", str(bundle), "--dataset", str(data_dir),
                 "--counts", "0,1,2", "--rate", "300", "--out", str(targets)]) == 0
    entries = read_manifest(data_dir / "manifest.csv")
    dataset = hashlib.sha256((data_dir / "manifest.csv").read_bytes())
    for entry in entries:
        dataset.update((data_dir / entry.path).read_bytes())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for i in DETECT_STREAMS:
            for rate in DETECT_RATES:
                assert main(["detect", "--bundle", str(bundle), "--stream",
                             str(data_dir / entries[i].path), "--rate", rate, "--json"]) == 0
    return {
        "dataset": dataset.hexdigest(),
        "eval_rate_csv": hashlib.sha256(rates.read_bytes()).hexdigest(),
        "eval_targets_csv": hashlib.sha256(targets.read_bytes()).hexdigest(),
        "detect_json": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "bundle": hashlib.sha256(bundle.read_bytes()).hexdigest(),
    }


def build_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


def test_outputs_match_their_pins(digests):
    got = {name: digests[name] for name in OUTPUT_PINS}
    assert got == OUTPUT_PINS, f"output digests moved ({build_info()})"


def test_bundle_matches_its_pin(digests):
    assert digests["bundle"] == BUNDLE_PIN, f"bundle digest moved ({build_info()})"
