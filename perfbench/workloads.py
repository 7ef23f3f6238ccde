"""The four seeded workloads: inputs, timed closed loops, and output checks.

Every call into siad goes through a module attribute (``inference.
selective_pvalue``, never a name imported into this file), so the tracer in
``tracing.py`` sees the same calls a traced run is meant to measure.

Sizes are fixed here and documented in README.md.  A workload's inputs are a
pure function of the seed; the desk model, its threshold and the noise level
are the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from siad import (anomaly, experiments, fileio, inference, model, opticalflow,
                  parametric, synth, training)

HERE = Path(__file__).resolve().parent
WEIGHTS_PATH = HERE / "data" / "desk_weights.bin"
REFERENCE_PATH = HERE / "data" / "reference.json"

REFERENCE_SEED = 2024  # also the seed the desk model was trained with
DESK_ARCH = model.ArchitectureSpec(side=16, channels=(8, 16), latent_dim=4)
PAPER_ARCH = model.ArchitectureSpec(side=80, channels=(32, 64, 128), latent_dim=10)
NOISE = inference.NoiseModel(1.0)
QUANTILE = 0.95
CALIBRATION_MAPS = 50
WORKERS = 2

NULL_SUBJECTS = 96          # the seeded list a run cycles through
# Subjects per evaluate_cohort call.  experiment-null makes one 1000-subject
# call (chunks of 62); a run cannot hold it.  Calls of about 13 s end a 35-s
# run within a few seconds of its limit; the pool gets chunks of
# 24 // 16 = 1, at most 12 subjects per worker per call.  README.md gives
# the measured difference.
NULL_BATCH = 24
SIGNAL_SUBJECTS = 48
SIGNAL_AMPLITUDES = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
FIT_INPUTS = 3              # distinct ingest-then-fit inputs, cycled
FIT_PAIRS = 32
FIT_EPOCHS = 8
FIT_MOTION = synth.MotionSpec(kind="dilate", rate=0.05)
PAPER_PIECES = 8            # scan pieces per paper-scale bundle
PAPER_EXAMPLES = 6          # loss_and_gradients calls per bundle
PAPER_WEIGHT_SEED = REFERENCE_SEED
PAPER_PROBE_SIGMAS = 0.015  # chunk width of the set-up scan that fixes the window

P_TOL = 1e-9                # ROADMAP's gate for p-values and endpoints
LOSS_RTOL = 1e-6            # training losses may move with summation order
ORACLE_EDGE = 1e-7          # oracle probes sit this far (relative) inside each end
ORACLE_SUBJECTS = 6         # tested subjects per run the detector oracle probes

# tags for the keyed streams of this benchmark's own draws
_TAG_NULL_CONDS = 90_001
_TAG_SIGNAL_CONDS = 90_002
_TAG_PAPER = 90_003


class BenchError(Exception):
    """The benchmark's own inputs are missing or do not match their record."""


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        raise BenchError(f"missing {REFERENCE_PATH.name}; run make_reference.py")
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tail_percentile(n: int, choices=(50, 75, 90, 95, 99, 99.9)):
    """Highest listed percentile with at least ten samples beyond it."""
    best = None
    for p in choices:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def percentile_value(values, p):
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def roi_center_block(side: int, roi, size: int = 3) -> tuple:
    """A size x size block at the centre of the ROI, as flat indices."""
    grid = np.arange(side * side).reshape(side, side)
    rows = np.flatnonzero(roi.member.reshape(side, side).any(axis=1))
    cols = np.flatnonzero(roi.member.reshape(side, side).any(axis=0))
    r0 = rows[0] + (rows.size - size) // 2
    c0 = cols[0] + (cols.size - size) // 2
    return tuple(int(i) for i in grid[r0:r0 + size, c0:c0 + size].ravel())


# ---------------------------------------------------------------- desk model

def desk_training_data():
    """The 200 healthy maps the stored desk model was trained on."""
    images = synth.gen_null_cohort(200, 16, NOISE.sigma2, seed=REFERENCE_SEED)
    conds = synth.keyed_rng(REFERENCE_SEED, 90, 1).normal(size=(200, 2))
    return [(img, conds[i]) for i, img in enumerate(images)]


DESK_TRAIN_CONFIG = training.TrainConfig(epochs=30, lr=1e-4, batch_size=16,
                                         patience=20, seed=REFERENCE_SEED)


def calibrate(weights, roi):
    """Threshold from 50 seeded healthy maps, as the acceptance fixture does."""
    images = synth.gen_null_cohort(CALIBRATION_MAPS, 16, NOISE.sigma2,
                                   seed=REFERENCE_SEED, start_index=200)
    conds = synth.keyed_rng(REFERENCE_SEED, 90, 2).normal(size=(CALIBRATION_MAPS, 2))
    errors = [anomaly.reconstruction_error(x, model.reconstruct(x, conds[i], weights))
              for i, x in enumerate(images)]
    return anomaly.calibrate_threshold(errors, roi, QUANTILE)


def load_desk(reference: dict, problems: list):
    """Weights (checksum verified), ROI and the recalibrated threshold."""
    if not WEIGHTS_PATH.is_file():
        raise BenchError(f"missing {WEIGHTS_PATH.name}; run make_reference.py")
    if sha256_of(WEIGHTS_PATH) != reference["desk_weights_sha256"]:
        raise BenchError(f"{WEIGHTS_PATH.name} does not match its recorded checksum")
    weights = fileio.read_weights(WEIGHTS_PATH)
    roi = anomaly.RoiMask.centered_square(16)
    threshold = calibrate(weights, roi)
    if abs(threshold.value - reference["threshold"]) > P_TOL:
        problems.append(f"threshold {threshold.value!r} != reference "
                        f"{reference['threshold']!r}")
    return weights, roi, threshold


# ----------------------------------------------------------------- workloads

class Workload:
    """A closed loop with one client; ``item`` is one call it waits for and
    returns ``(input index, output record or None on failure)`` pairs."""

    unit = "subjects"
    workers = 1
    arch = None

    def __init__(self, reference: dict):
        self.reference = reference

    def alloc_probe(self, state, results) -> float:
        return 0.0


class ScanWorkload(Workload):
    """Shared set-up and checks of the two desk-scale scan workloads."""

    arch = DESK_ARCH

    def setup(self, seed: int):
        problems = []
        weights, roi, threshold = load_desk(self.reference, problems)
        images, conds = self.inputs(seed, weights, roi, threshold)
        # warm-up: one detector pass, so lazy imports and BLAS init are done
        anomaly.detect(images[0], conds[0], weights, threshold, roi)
        return SimpleNamespace(seed=seed, weights=weights, roi=roi,
                               threshold=threshold, images=images, conds=conds,
                               problems=problems)

    def outcome_record(self, outcome) -> dict:
        return {"status": outcome.status, "mask_size": outcome.mask_size,
                "p_naive": outcome.p_naive, "p_bonferroni": outcome.p_bonferroni,
                "p_selective": outcome.p_selective,
                "intervals": [list(iv) for iv in outcome.truncation.intervals]
                if outcome.truncation is not None else []}

    def check(self, state, results) -> int:
        """Marks each subject wrong that disagrees with its reference, with
        an earlier run of the same subject, or, for the first ORACLE_SUBJECTS
        tested subjects, with the detector oracle.  Returns the number of
        failed subjects."""
        ref = (self.reference[self.name] if state.seed == self.reference["seed"]
               else None)
        first = {}
        failed = probed = 0
        for index, record in results:
            if record is None:
                failed += 1
                continue
            why = None
            if index in first:
                if record != first[index]:
                    why = "differs from an earlier run of the same subject"
            else:
                first[index] = record
                if ref is not None:
                    why = compare_outcome(record, ref[index])
                if (why is None and record["status"] == inference.STATUS_TESTED
                        and probed < ORACLE_SUBJECTS):
                    probed += 1
                    why = oracle_check(state, index, record)
            if why is not None:
                failed += 1
                if len(state.problems) < 20:
                    state.problems.append(f"subject {index}: {why}")
        return failed

    def alloc_probe(self, state, results) -> float:
        """tracemalloc peak (MB) inside parametric_infer for one tested subject."""
        tested = [i for i, r in results if r and r["status"] == inference.STATUS_TESTED]
        if not tested:
            return 0.0
        i = tested[0]
        x, cond = state.images[i], state.conds[i]
        mask = anomaly.detect(x, cond, state.weights, state.threshold, state.roi)
        eta = inference.contrast_vector(mask, state.roi)
        line, _ = inference.line_decomposition(x, eta, NOISE)
        tracemalloc.start()
        try:
            parametric.parametric_infer(line, cond, state.weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20


def compare_outcome(got: dict, want: dict):
    """None when ``got`` matches the stored reference, else the reason."""
    for key in ("status", "mask_size"):
        if got[key] != want[key]:
            return f"{key} {got[key]!r} != reference {want[key]!r}"
    if len(got["intervals"]) != len(want["intervals"]):
        return (f"{len(got['intervals'])} truncation intervals != reference "
                f"{len(want['intervals'])}")
    for key in ("p_naive", "p_bonferroni", "p_selective"):
        a, b = got[key], want[key]
        if (a is None) != (b is None) or (a is not None and abs(a - b) > P_TOL):
            return f"{key} {a!r} != reference {b!r}"
    for (lo, hi), (rlo, rhi) in zip(got["intervals"], want["intervals"]):
        for e, r in ((lo, rlo), (hi, rhi)):
            if abs(e - r) > P_TOL * max(1.0, abs(r)):
                return f"truncation endpoint {e!r} != reference {r!r}"
    return None


def oracle_check(state, index: int, record: dict):
    """Points inside each truncation interval must reproduce the observed
    mask through the detector, and points in each gap must not.  Each
    interval and gap is probed at its midpoint and just inside both ends, so
    an endpoint that is off by more than ORACLE_EDGE shows."""
    x, cond = state.images[index], state.conds[index]
    mask = anomaly.detect(x, cond, state.weights, state.threshold, state.roi)
    if len(mask) != record["mask_size"]:
        return "detector mask size differs from the outcome's"
    eta = inference.contrast_vector(mask, state.roi)
    line, _ = inference.line_decomposition(x, eta, NOISE)
    edges = [line.window[0]] + [e for iv in record["intervals"] for e in iv] + [line.window[1]]
    for k in range(len(edges) - 1):
        lo, hi = edges[k], edges[k + 1]
        eps = ORACLE_EDGE * max(1.0, abs(lo), abs(hi))
        if hi - lo <= 4 * eps:
            continue
        inside = k % 2 == 1  # edges alternate gap, interval, gap, ...
        for z in (lo + eps, 0.5 * (lo + hi), hi - eps):
            same = anomaly.detect(line.at(z), cond, state.weights, state.threshold,
                                  state.roi) == mask
            if same != inside:
                where = "interval" if inside else "gap"
                return f"oracle: z={z!r} in a {where} gives the wrong mask"
    return None


class NullScan(ScanWorkload):
    name = "null-scan"
    workers = WORKERS
    traced_items = 1  # one batch of NULL_BATCH subjects

    def inputs(self, seed, weights, roi, threshold):
        """The first NULL_SUBJECTS seeded null maps the detector flags.

        Degenerate skips (empty mask, about 10% of nulls) return in
        milliseconds; left in, their count per run would swing the rate by
        more than the host's own noise.
        """
        count = 2 * NULL_SUBJECTS
        images = synth.gen_null_cohort(count, 16, NOISE.sigma2, seed=seed,
                                       start_index=10 ** 6)
        conds = synth.keyed_rng(seed, _TAG_NULL_CONDS, 0).normal(size=(count, 2))
        keep = [i for i in range(count)
                if 0 < len(anomaly.detect(images[i], conds[i], weights, threshold, roi))
                < roi.count][:NULL_SUBJECTS]
        if len(keep) < NULL_SUBJECTS:
            raise BenchError(f"only {len(keep)} of {count} null maps give a testable mask")
        return [images[i] for i in keep], conds[keep]

    def item(self, state, k, timings):
        idx = [(k * NULL_BATCH + j) % NULL_SUBJECTS for j in range(NULL_BATCH)]
        try:
            outcomes = experiments.evaluate_cohort(
                [state.images[i] for i in idx], [state.conds[i] for i in idx],
                state.weights, state.threshold, state.roi, NOISE,
                workers=self.workers)
        except Exception as exc:  # one raising subject fails the whole call
            state.problems.append(f"batch {k}: {type(exc).__name__}: {exc}")
            return [(i, None) for i in idx]
        return [(i, self.outcome_record(o)) for i, o in zip(idx, outcomes)]


class SignalScan(ScanWorkload):
    name = "signal-scan"
    traced_items = 6

    def inputs(self, seed, weights, roi, threshold):
        region = roi_center_block(16, roi)
        images = []
        for i in range(SIGNAL_SUBJECTS):
            spec = synth.SignalSpec(region=region,
                                    amplitude=SIGNAL_AMPLITUDES[i % len(SIGNAL_AMPLITUDES)])
            images.append(synth.gen_diseased(1, 16, spec, NOISE.sigma2, seed=seed,
                                             start_index=i)[0])
        conds = synth.keyed_rng(seed, _TAG_SIGNAL_CONDS, 0).normal(size=(SIGNAL_SUBJECTS, 2))
        return images, conds

    def item(self, state, k, timings):
        i = k % SIGNAL_SUBJECTS
        try:
            outcome = inference.selective_pvalue(state.images[i], state.conds[i],
                                                 state.weights, state.threshold,
                                                 state.roi, NOISE)
        except Exception as exc:  # counted as a failed subject, run goes on
            state.problems.append(f"subject {i}: {type(exc).__name__}: {exc}")
            return [(i, None)]
        return [(i, self.outcome_record(outcome))]


class Fit(Workload):
    """Ingest (flow -> divergence -> standardize) then train, at desk size."""

    name = "fit"
    unit = "cycles"
    traced_items = 2

    def setup(self, seed: int):
        inputs = [synth.gen_image_pairs(FIT_PAIRS, 16, FIT_MOTION, seed=seed * 16 + c)
                  for c in range(FIT_INPUTS)]
        opticalflow.horn_schunck(inputs[0][0].pair)  # warm-up
        return SimpleNamespace(seed=seed, inputs=inputs, problems=[])

    def item(self, state, k, timings):
        c = k % FIT_INPUTS
        pairs = [s.pair for s in state.inputs[c]]
        try:
            start = time.perf_counter()
            maps = [opticalflow.divergence(opticalflow.horn_schunck(p)) for p in pairs]
            maps, _, _ = opticalflow.standardize_cohort(maps)
            conds, _, _ = opticalflow.standardize_conditions(opticalflow.conditions_of(pairs))
            mid = time.perf_counter()
            config = training.TrainConfig(epochs=FIT_EPOCHS, lr=1e-4, batch_size=16,
                                          patience=FIT_EPOCHS + 1, seed=state.seed + c)
            result = training.train([(m.values, conds[i]) for i, m in enumerate(maps)],
                                    DESK_ARCH, config)
            end = time.perf_counter()
        except Exception as exc:
            state.problems.append(f"cycle {k}: {type(exc).__name__}: {exc}")
            return [(c, None)]
        timings.setdefault("flow_s", []).append(mid - start)
        timings.setdefault("train_s", []).append(end - mid)
        timings.setdefault("epochs", []).append(len(result.history) - 1)
        return [(c, {"train_loss": [r.train_loss for r in result.history],
                     "holdout_loss": [r.holdout_loss for r in result.history]})]

    def check(self, state, results) -> int:
        ref = self.reference["fit"] if state.seed == self.reference["seed"] else None
        first = {}
        failed = 0
        for c, record in results:
            if record is None:
                failed += 1
                continue
            why = None
            losses = record["train_loss"] + record["holdout_loss"]
            if len(record["train_loss"]) != FIT_EPOCHS + 1:
                why = f"ran {len(record['train_loss']) - 1} epochs, not {FIT_EPOCHS}"
            elif not all(math.isfinite(v) for v in losses):
                why = "non-finite loss"
            elif c in first and record != first[c]:
                why = "differs from an earlier cycle on the same input"
            elif ref is not None:
                want = ref[c]["train_loss"] + ref[c]["holdout_loss"]
                bad = [(a, b) for a, b in zip(losses, want)
                       if abs(a - b) > LOSS_RTOL * abs(b)]
                if bad:
                    why = f"loss {bad[0][0]!r} != reference {bad[0][1]!r}"
            first.setdefault(c, record)
            if why is not None:
                failed += 1
                state.problems.append(f"cycle input {c}: {why}")
        return failed


class PaperScale(Workload):
    """One seeded 80x80 map through the paper architecture: a scan over a
    window holding exactly PAPER_PIECES pieces, PAPER_EXAMPLES
    loss_and_gradients calls and one adam_step per bundle."""

    name = "paper-scale"
    unit = "bundles"
    traced_items = 3
    arch = PAPER_ARCH

    def setup(self, seed: int):
        weights = model.init_weights(PAPER_ARCH, PAPER_WEIGHT_SEED)
        image = synth.gen_null_cohort(1, 80, NOISE.sigma2, seed=seed)[0]
        rng = synth.keyed_rng(seed, _TAG_PAPER, 0)
        cond = rng.normal(size=2)
        eps = rng.standard_normal((PAPER_EXAMPLES, PAPER_ARCH.latent_dim))
        roi = anomaly.RoiMask.centered_square(80)
        mask = anomaly.AnomalyMask(np.array(roi_center_block(80, roi)))
        eta = inference.contrast_vector(mask, roi)
        line, z_obs = inference.line_decomposition(image, eta, NOISE)
        sigma_t = inference.sigma_of_contrast(eta, NOISE)
        # warm-up with the largest temporaries first, so the allocator's
        # state (and the peak RSS) does not depend on how many scan chunks
        # this seed needs below
        training.loss_and_gradients(image, cond, weights, eps[0])
        # The window starts at z_obs and ends where piece PAPER_PIECES ends.
        # It is found in short chunks; the last piece of a chunk is cut by
        # the chunk's end, so the next chunk starts where that piece starts,
        # and the pieces are those of one long scan.  How many chunks that
        # takes depends on the seed, so setup_s leaves out ``search_s``.
        search_start = time.perf_counter()
        pieces, lo = [], z_obs
        width = PAPER_PROBE_SIGMAS * sigma_t
        while len(pieces) < PAPER_PIECES:
            probe = parametric.AffineLine(line.a, line.b, (lo, lo + width))
            chunk = parametric.parametric_infer(probe, cond, weights)
            if len(chunk) == 1:
                width *= 2.0
                continue
            pieces += chunk[:-1]
            lo = chunk[-1].lo
        window = parametric.AffineLine(line.a, line.b, (z_obs, pieces[PAPER_PIECES - 1].hi))
        return SimpleNamespace(search_s=time.perf_counter() - search_start,
                               seed=seed, weights=weights, image=image, cond=cond,
                               eps=eps, line=window, z_obs=z_obs, sigma_t=sigma_t,
                               state0=training.AdamState.zeros_like(weights),
                               problems=[])

    def item(self, state, k, timings):
        try:
            start = time.perf_counter()
            pieces = parametric.parametric_infer(state.line, state.cond, state.weights)
            mid = time.perf_counter()
            losses, total = [], None
            for eps in state.eps:
                loss, grads = training.loss_and_gradients(state.image, state.cond,
                                                          state.weights, eps)
                losses.append(loss)
                total = grads if total is None else {n: total[n] + g for n, g in grads.items()}
            mean = {n: g / len(state.eps) for n, g in total.items()}
            training.adam_step(state.weights, mean, state.state0, 1e-5)
            end = time.perf_counter()
        except Exception as exc:
            state.problems.append(f"bundle {k}: {type(exc).__name__}: {exc}")
            return [(0, None)]
        timings.setdefault("scan_s", []).append(mid - start)
        timings.setdefault("train_s", []).append(end - mid)
        timings.setdefault("pieces", []).append(len(pieces))
        if k == 0:
            state.pieces = pieces
        return [(0, {"pieces": len(pieces),
                     "endpoints": [p.lo for p in pieces] + [pieces[-1].hi],
                     "losses": losses})]

    def check(self, state, results) -> int:
        ref = (self.reference["paper-scale"] if state.seed == self.reference["seed"]
               else None)
        failed = 0
        first = next((r for _, r in results if r is not None), None)
        for _, record in results:
            why = None
            if record is None:
                failed += 1
                continue
            if record["pieces"] != PAPER_PIECES:
                why = f"{record['pieces']} pieces, not {PAPER_PIECES}"
            elif not all(math.isfinite(v) for v in record["losses"]):
                why = "non-finite loss"
            elif record != first:
                why = "differs from the first bundle"
            if why is not None:
                failed += 1
                state.problems.append(f"bundle: {why}")
        if first is not None and hasattr(state, "pieces"):
            why = self.oracle(state)
            if why is None and ref is not None:
                why = self.compare_reference(state, first, ref)
            if why is not None:
                failed = len(results)
                state.problems.append(why)
        return failed

    @staticmethod
    def oracle(state):
        """reconstruct(line.at(z)) equals the piece's affine form to 1e-9
        (acceptance criterion 07's check) at every piece's midpoint and just
        inside both its ends.  A moved breakpoint shows where the two pieces'
        outputs differ by more than 1e-9 at a probe; the reference check
        compares every endpoint on the reference seed."""
        for p in state.pieces:
            eps = ORACLE_EDGE * max(1.0, abs(p.lo), abs(p.hi))
            for z in (p.lo + eps, 0.5 * (p.lo + p.hi), p.hi - eps):
                direct = model.reconstruct(state.line.at(z).reshape(1, 80, 80), state.cond,
                                           state.weights).reshape(-1)
                err = float(np.max(np.abs(direct - p.at(z))))
                if not err < P_TOL:
                    return f"oracle: piece [{p.lo!r}, {p.hi!r}] at z={z!r} off by {err:.3g}"
        return None

    @staticmethod
    def compare_reference(state, record, ref):
        """None when the window, every piece endpoint and the losses match
        the stored reference, else the reason."""
        for key, got in (("z_obs", state.z_obs), ("window_hi", state.line.window[1])):
            if abs(got - ref[key]) > P_TOL * max(1.0, abs(ref[key])):
                return f"{key} {got!r} != reference {ref[key]!r}"
        for k, (e, r) in enumerate(zip(record["endpoints"], ref["endpoints"])):
            if abs(e - r) > P_TOL * max(1.0, abs(r)):
                return f"piece endpoint {k} {e!r} != reference {r!r}"
        bad = [(a, b) for a, b in zip(record["losses"], ref["losses"])
               if abs(a - b) > LOSS_RTOL * abs(b)]
        if bad:
            return f"loss {bad[0][0]!r} != reference {bad[0][1]!r}"
        return None

    def alloc_probe(self, state, results) -> float:
        tracemalloc.start()
        try:
            parametric.parametric_infer(state.line, state.cond, state.weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20


WORKLOADS = {cls.name: cls for cls in (NullScan, SignalScan, Fit, PaperScale)}


def flops_per_piece(arch) -> int:
    """Multiply-adds (x2) of one affine forward on the offset/slope pair,
    computed from layer shapes: every conv, the mu head and the decoder's
    dense layer.  Elementwise relu/pool work is not counted."""
    if arch is None:
        return 0
    k2 = arch.kernel_size ** 2
    macs = 0
    side, c_in = arch.side, 1 + arch.cond_count
    for c in arch.channels:
        macs += side * side * c_in * c * k2
        side, c_in = side // 2, c
    macs += arch.flat_dim * arch.latent_dim
    macs += (arch.latent_dim + arch.cond_count) * arch.flat_dim
    for i in range(arch.n_blocks - 1, -1, -1):
        side *= 2
        c_out = arch.channels[i - 1] if i > 0 else 1
        macs += side * side * 2 * arch.channels[i] * c_out * k2
    return 2 * 2 * macs  # two planes (offset, slope), two flops per MAC
