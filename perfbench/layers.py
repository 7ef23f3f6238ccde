"""Where the traced run records spans, and the per-layer metrics from them.

Each wrapper sits at the module attribute the caller resolves at call time:
``selective_pvalue`` finds ``detect``, ``truncation_region`` and
``truncated_normal_pvalue`` in ``siad.inference``; ``truncation_region``
finds ``parametric_infer`` there too; ``detect`` finds ``reconstruct`` in
``siad.anomaly``; the encoder and decoder find ``conv2d`` in ``siad.model``;
``train`` finds ``loss_and_gradients``, ``adam_step``, ``evaluate_loss``,
``conv2d`` and ``conv2d_backward`` in ``siad.training``; pool workers find
``selective_pvalue`` in ``siad.experiments``.  The benchmark's own calls go
through the same module attributes.
"""

from __future__ import annotations

import time

from siad import (anomaly, experiments, fileio, inference, model, opticalflow,
                  parametric, synth, training)

import tracing
from workloads import flops_per_piece

LAYERS = ("parametric", "inference", "anomaly", "model", "ops", "training",
          "opticalflow", "experiments", "fileio", "synth")
SUBJECT = "inference.selective_pvalue"
SCAN = "parametric.parametric_infer"
LOSS_GRAD = "training.loss_and_gradients"


def _outcome(outcome, attrs):
    attrs.update(status=outcome.status, intervals=outcome.interval_count,
                 t_obs=outcome.t_obs, sigma_t=outcome.sigma_t)


def _pieces(pieces, attrs):
    attrs.update(pieces=len(pieces), lo=[p.lo for p in pieces],
                 hi=[p.hi for p in pieces])


def _time_evals(args, kwargs, attrs):
    """Wraps the eval_fn handed to scan_linear_pieces: one call per piece."""
    eval_fn = args[0]
    attrs.update(evals=0, eval_s=0.0)

    def timed(z_probe):
        start = time.perf_counter()
        try:
            return eval_fn(z_probe)
        finally:
            attrs["eval_s"] += time.perf_counter() - start
            attrs["evals"] += 1

    return (timed,) + tuple(args[1:]), kwargs


def _dataset_size(args, kwargs, attrs):
    attrs["examples"] = len(args[0])
    return args, kwargs


def _epochs(result, attrs):
    attrs["epochs"] = len(result.history) - 1


def install(tracer: tracing.Tracer):
    w = tracer.wrap
    w(experiments, "evaluate_cohort", "experiments.evaluate_cohort")
    w(experiments, "selective_pvalue", SUBJECT, after=_outcome, subject_root=True)
    w(inference, "selective_pvalue", SUBJECT, after=_outcome, subject_root=True)
    w(inference, "detect", "anomaly.detect")
    w(inference, "truncation_region", "inference.truncation_region")
    w(inference, "parametric_infer", SCAN, after=_pieces)
    w(inference, "truncated_normal_pvalue", "inference.truncated_normal_pvalue")
    w(parametric, "parametric_infer", SCAN, after=_pieces)
    w(parametric, "scan_linear_pieces", "parametric.scan_linear_pieces",
      before=_time_evals)
    w(anomaly, "reconstruct", "model.reconstruct")
    w(anomaly, "calibrate_threshold", "anomaly.calibrate_threshold")
    w(model, "reconstruct", "model.reconstruct")
    w(model, "init_weights", "model.init_weights")
    w(model, "conv2d", "ops.conv2d")
    w(training, "conv2d", "ops.conv2d")
    w(training, "conv2d_backward", "ops.conv2d_backward")
    w(training, "train", "training.train", before=_dataset_size, after=_epochs)
    w(training, "loss_and_gradients", LOSS_GRAD)
    w(training, "adam_step", "training.adam_step")
    w(training, "evaluate_loss", "training.evaluate_loss")
    for name in ("horn_schunck", "divergence", "standardize_cohort",
                 "standardize_conditions", "conditions_of"):
        w(opticalflow, name, f"opticalflow.{name}")
    for name in ("gen_null_cohort", "gen_diseased", "gen_image_pairs"):
        w(synth, name, f"synth.{name}")
    w(fileio, "read_weights", "fileio.read_weights")


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


def _ratio(num, den):
    return num / den if den else 0.0


def _holdout_count(n: int) -> int:
    """Held-out examples for ``n``, as ``training.train`` splits them."""
    return min(max(1, int(round(training.TrainConfig.holdout_fraction * n))), n - 1)


def metrics(spans, setup_spans, setup_wall, wall, workload, state, client_pid):
    """(per-layer metrics with no unit of time, {name: (time, unit)}).

    The first dict holds every per-layer metric BENCHMARK.json lists and
    reads 0 where the workload never enters the layer; the second holds the
    per-call times, present only for layers the workload ran.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    dur = {name: [s.duration for s in group] for name, group in by_name.items()}
    roots = by_name.get(SUBJECT, [])
    tested = [r for r in roots if r.attrs.get("status") == inference.STATUS_TESTED]
    scans = by_name.get(SCAN, [])
    loops = by_name.get("parametric.scan_linear_pieces", [])
    evals = sum(s.attrs["evals"] for s in loops)
    eval_s = sum(s.attrs["eval_s"] for s in loops)
    lgs = by_name.get(LOSS_GRAD, [])
    lg_ids = {s.id for s in lgs}
    trains = by_name.get("training.train", [])
    root_of = {r.subject: r for r in roots}

    beyond = total_pieces = 0
    for s in scans:
        root = root_of.get(s.subject)
        z, sig = ((root.attrs["t_obs"], root.attrs["sigma_t"]) if root is not None
                  else (state.z_obs, state.sigma_t))
        edge = abs(z) + 8.0 * sig
        beyond += sum(1 for lo, hi in zip(s.attrs["lo"], s.attrs["hi"])
                      if lo >= edge or hi <= -edge)
        total_pieces += s.attrs["pieces"]

    own = tracing.layer_self_times(spans)
    setup_own = tracing.layer_self_times(setup_spans)
    procs = workload.workers
    flops = flops_per_piece(workload.arch) if scans else 0
    scan_time = sum(dur.get(SCAN, []))
    layer = {f"{name}.self_share": own.get(name, 0.0) / (procs * wall)
             for name in LAYERS if name not in ("fileio", "synth")}
    layer.update({
        "fileio.setup_share": setup_own.get("fileio", 0.0) / setup_wall,
        "synth.setup_share": setup_own.get("synth", 0.0) / setup_wall,
        "parametric.pieces_per_subject": _mean(s.attrs["pieces"] for s in scans) or 0,
        "parametric.scan_share": _ratio(scan_time, sum(dur[SUBJECT]) if roots else
                                        (wall if scans else 0.0)),
        "parametric.pieces_beyond_8sigma_frac": _ratio(beyond, total_pieces),
        "parametric.flops_per_piece": flops,
        "parametric.gflops": _ratio(flops * evals, eval_s) / 1e9,
        "inference.intervals_per_subject": _mean(r.attrs["intervals"] for r in tested) or 0,
        "inference.tested_frac": _ratio(len(tested), len(roots)),
        "experiments.pool_busy_frac": _ratio(
            sum(r.duration for r in roots if r.pid != client_pid),
            procs * sum(dur.get("experiments.evaluate_cohort", []))),
        "training.epochs_run": _mean(s.attrs["epochs"] for s in trains) or 0,
        "ops.conv2d_share": _ratio(
            sum(s.duration for s in by_name.get("ops.conv2d", []) if s.parent in lg_ids),
            sum(dur.get(LOSS_GRAD, []))),
        "ops.conv2d_backward_share": _ratio(
            sum(s.duration for s in by_name.get("ops.conv2d_backward", [])
                if s.parent in lg_ids),
            sum(dur.get(LOSS_GRAD, []))),
    })

    truncation_self = [
        t.duration - sum(c.duration for c in scans if c.parent == t.id)
        for t in by_name.get("inference.truncation_region", [])]
    holdout = _mean(dur.get("training.evaluate_loss", []))
    setup_dur = {}
    for s in setup_spans:
        setup_dur.setdefault(s.name, []).append(s.duration)
    synth_ids = {s.id for s in setup_spans if s.layer == "synth"}
    generate = sum(s.duration for s in setup_spans
                   if s.layer == "synth" and s.parent not in synth_ids)
    times = {
        "parametric.ms_per_piece": (_ratio(eval_s, evals) * 1e3 if evals else None, "ms"),
        "inference.truncation_self_ms": (_scaled(_mean(truncation_self), 1e3), "ms"),
        "inference.pvalue_us": (
            _scaled(_mean(dur.get("inference.truncated_normal_pvalue", [])), 1e6), "us"),
        "anomaly.detect_ms": (_scaled(_mean(dur.get("anomaly.detect", [])), 1e3), "ms"),
        "model.reconstruct_ms": (_scaled(_mean(dur.get("model.reconstruct", [])), 1e3), "ms"),
        "training.loss_grad_ms_per_example": (_scaled(_mean(dur.get(LOSS_GRAD, [])), 1e3), "ms"),
        "training.adam_ms_per_step": (
            _scaled(_mean(dur.get("training.adam_step", [])), 1e3), "ms"),
        "training.holdout_ms_per_epoch": (
            holdout * _holdout_count(trains[0].attrs["examples"]) * 1e3
            if holdout is not None and trains else None, "ms"),
        "opticalflow.hs_ms_per_pair": (
            _scaled(_mean(dur.get("opticalflow.horn_schunck", [])), 1e3), "ms"),
        "fileio.read_weights_ms": (
            _scaled(_mean(setup_dur.get("fileio.read_weights", [])), 1e3), "ms"),
        "synth.generate_ms": (generate * 1e3 if synth_ids else None, "ms"),
    }
    return layer, {name: vu for name, vu in times.items() if vu[0] is not None}


def _scaled(value, factor):
    return None if value is None else value * factor
