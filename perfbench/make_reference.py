#!/usr/bin/env python3
"""Regenerates the benchmark's stored desk model and reference outputs.

Run from the repository root (about three minutes on two cores):

    python3 perfbench/make_reference.py

Trains the desk model with the acceptance fixture's recipe (200 seeded
healthy maps, 30 epochs, seed 2024), writes it in the SIAD v1 weight format
to ``data/desk_weights.bin``, and records in ``data/reference.json`` its
checksum, the recalibrated threshold, and for the reference seed every
output the benchmark compares: each subject's status, mask size, truncation
intervals and three p-values, the final ``fit`` losses, and the
``paper-scale`` window, piece endpoints and losses.  Regenerate only when a
change is meant to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import workloads as wl  # noqa: E402
from siad import fileio, training  # noqa: E402


def outputs(work, state, calls):
    results = []
    for k in range(calls):
        results.extend(work.item(state, k, {}))
    if any(record is None for _, record in results) or state.problems:
        raise SystemExit(f"{work.name}: reference run failed: {state.problems}")
    return results


def main() -> int:
    seed = wl.REFERENCE_SEED
    result = training.train(wl.desk_training_data(), wl.DESK_ARCH, wl.DESK_TRAIN_CONFIG)
    wl.WEIGHTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_weights(wl.WEIGHTS_PATH, result.weights)
    weights = fileio.read_weights(wl.WEIGHTS_PATH)
    threshold = wl.calibrate(weights, wl.anomaly.RoiMask.centered_square(16))
    reference = {"seed": seed,
                 "desk_weights_sha256": wl.sha256_of(wl.WEIGHTS_PATH),
                 "desk_training": {"maps": 200, **vars(wl.DESK_TRAIN_CONFIG),
                                   "best_epoch": result.best_epoch},
                 "threshold": threshold.value}

    null = wl.NullScan(reference)
    records = outputs(null, null.setup(seed), wl.NULL_SUBJECTS // wl.NULL_BATCH)
    reference[null.name] = [record for _, record in records]
    signal = wl.SignalScan(reference)
    records = outputs(signal, signal.setup(seed), wl.SIGNAL_SUBJECTS)
    reference[signal.name] = [record for _, record in records]
    fit = wl.Fit(reference)
    records = outputs(fit, fit.setup(seed), wl.FIT_INPUTS)
    reference[fit.name] = [record for _, record in records]
    paper = wl.PaperScale(reference)
    state = paper.setup(seed)
    (_, record), = outputs(paper, state, 1)
    reference[paper.name] = {"z_obs": state.z_obs, "window_hi": state.line.window[1],
                             "pieces": record["pieces"], "endpoints": record["endpoints"],
                             "losses": record["losses"]}

    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {wl.WEIGHTS_PATH.name} ({reference['desk_weights_sha256'][:12]}) "
          f"and {wl.REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
