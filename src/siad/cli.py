"""Command-line harness: generate, train, calibrate, test, and the three
experiments that reproduce the empirical claims (null p-value uniformity,
false-discovery-rate control, power ordering), plus a report merger.

Configuration is layered: a named preset supplies defaults, an INI-style
``key = value`` file (sections [cohort], [model], [train], [detect],
[experiment]) overrides the preset, and command-line flags override both.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical diagnostic.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .anomaly import RoiMask, calibrate_threshold, detect, reconstruction_error
from .errors import DataError, NumericalDiagnosticError, SiadError
from .experiments import (evaluate_cohort, histogram_counts, ks_critical,
                          rejection_summary, skip_count, tested_pvalues)
from .fileio import (read_cohort_manifest, read_map, read_noise, read_roi,
                     read_threshold, read_weights, result_row,
                     write_cohort_manifest, write_map, write_mask_csv,
                     write_noise, write_roi, write_threshold, write_weights)
from .inference import NoiseModel, estimate_noise, ks_statistic
from .model import ArchitectureSpec, reconstruct
from .opticalflow import standardize_conditions
from .synth import CohortSpec, SignalSpec, gen_diseased, gen_null_cohort, make_cohort
from .training import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class RunConfig:
    """Flattened configuration; see ``--help`` and the README for the schema."""

    # [cohort]
    n_train: int = 200
    n_test: int = 50
    n_inference: int = 100
    n_variance: int = 50
    n_diseased: int = 100
    side: int = 16
    sigma2: float = 1.0
    seed: int = 0
    age_min: float = 60.0
    age_max: float = 85.0
    gap_min: float = 1.0
    gap_max: float = 5.0
    signal_amplitude: float = 4.0
    signal_shape: str = "plateau"
    signal_size: int = 3
    # [model]
    channels: tuple = (8, 16)
    latent: int = 4
    kernel: int = 3
    # [train]
    epochs: int = 30
    lr: float = 1e-4
    batch_size: int = 16
    patience: int = 20
    min_delta: float = 0.0
    holdout_fraction: float = 0.2
    # [detect]
    quantile: float = 0.95
    roi_fraction: float = 0.25
    noise_source: str = "known"
    window_sigmas: float = 20.0
    max_pieces: int = 10 ** 6
    # [experiment]
    n_null: int = 1000
    bins: int = 20
    workers: int = 2
    alphas: tuple = (0.01, 0.05, 0.1)


PRESETS = {
    "desk": RunConfig(),
    "paper": RunConfig(n_train=600, n_test=100, n_inference=100, n_variance=88,
                       n_diseased=110, side=80, channels=(32, 64, 128),
                       latent=10, epochs=1000, lr=1e-5),
}

_SECTION_OF = {
    "n_train": "cohort", "n_test": "cohort", "n_inference": "cohort",
    "n_variance": "cohort", "n_diseased": "cohort", "side": "cohort",
    "sigma2": "cohort", "seed": "cohort", "age_min": "cohort",
    "age_max": "cohort", "gap_min": "cohort", "gap_max": "cohort",
    "signal_amplitude": "cohort", "signal_shape": "cohort", "signal_size": "cohort",
    "channels": "model", "latent": "model", "kernel": "model",
    "epochs": "train", "lr": "train", "batch_size": "train",
    "patience": "train", "min_delta": "train", "holdout_fraction": "train",
    "quantile": "detect", "roi_fraction": "detect", "noise_source": "detect",
    "window_sigmas": "detect", "max_pieces": "detect",
    "n_null": "experiment", "bins": "experiment", "workers": "experiment",
    "alphas": "experiment",
}


def _parse_value(name: str, text: str, target_type):
    text = text.strip()
    try:
        if target_type is tuple:
            parts = [p for p in text.replace(",", " ").split() if p]
            if name == "alphas":
                levels = tuple(float(p) for p in parts)
                if _bad_level(levels) is not None:
                    raise DataError(f"config value alphas = {text!r}: levels must "
                                    f"lie in (0, 1)")
                return levels
            return tuple(int(p) for p in parts)
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        return text
    except ValueError as exc:
        raise DataError(f"config value {name} = {text!r} is not a {target_type.__name__}") from exc


def load_config(preset: str, config_path, overrides: dict) -> RunConfig:
    if preset not in PRESETS:
        raise DataError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    cfg = PRESETS[preset]
    types = {f.name: type(getattr(cfg, f.name)) for f in fields(cfg)}
    if config_path:
        parser = configparser.ConfigParser()
        read = parser.read(config_path)
        if not read:
            raise DataError(f"config file {config_path} not found")
        updates = {}
        for section in parser.sections():
            for key, value in parser.items(section):
                if key not in types:
                    raise DataError(f"unknown config key {key!r} in [{section}]")
                if _SECTION_OF[key] != section:
                    raise DataError(f"key {key!r} belongs in [{_SECTION_OF[key]}], "
                                    f"found in [{section}]")
                updates[key] = _parse_value(key, value, types[key])
        cfg = replace(cfg, **updates)
    clean = {k: v for k, v in overrides.items() if v is not None}
    if clean:
        cfg = replace(cfg, **clean)
    return cfg


def _arch(cfg: RunConfig) -> ArchitectureSpec:
    return ArchitectureSpec(side=cfg.side, channels=cfg.channels,
                            latent_dim=cfg.latent, kernel_size=cfg.kernel)


def _default_roi(cfg: RunConfig) -> RoiMask:
    return RoiMask.centered_square(cfg.side, cfg.roi_fraction)


def _signal_region(cfg: RunConfig, roi: RoiMask) -> tuple:
    """A signal_size x signal_size block at the center of the ROI."""
    side = cfg.side
    grid = np.arange(side * side).reshape(side, side)
    rows = np.flatnonzero(roi.member.reshape(side, side).any(axis=1))
    cols = np.flatnonzero(roi.member.reshape(side, side).any(axis=0))
    r0 = rows[0] + (rows.size - cfg.signal_size) // 2
    c0 = cols[0] + (cols.size - cfg.signal_size) // 2
    block = grid[r0:r0 + cfg.signal_size, c0:c0 + cfg.signal_size]
    return tuple(int(i) for i in block.ravel())


def _cohort_spec(cfg: RunConfig, roi: RoiMask) -> CohortSpec:
    signal = None
    if cfg.n_diseased > 0:
        signal = SignalSpec(region=_signal_region(cfg, roi),
                            amplitude=cfg.signal_amplitude, shape=cfg.signal_shape)
    return CohortSpec(n_healthy_train=cfg.n_train, n_healthy_test=cfg.n_test,
                      n_inference=cfg.n_inference, n_variance=cfg.n_variance,
                      n_diseased=cfg.n_diseased, side=cfg.side, sigma2=cfg.sigma2,
                      seed=cfg.seed, signal=signal,
                      age_range=(cfg.age_min, cfg.age_max),
                      gap_range=(cfg.gap_min, cfg.gap_max))


class _Paths:
    def __init__(self, out: Path):
        self.out = out
        self.images = out / "images"
        self.manifest = out / "manifest.csv"
        self.roi = out / "roi.bin"
        self.weights = out / "weights.bin"
        self.curve = out / "training_curve.csv"
        self.threshold = out / "threshold.json"
        self.noise = out / "noise.json"
        self.null_pvalues = out / "null_pvalues.csv"
        self.null_histogram = out / "null_histogram.csv"
        self.null_ks = out / "null_ks.csv"
        self.fdr = out / "fdr_summary.csv"
        self.power = out / "power_summary.csv"
        self.table1 = out / "table1.csv"
        self.table2 = out / "table2.csv"
        self.histogram_dat = out / "histogram.dat"


def _load_cohort(paths: _Paths):
    entries = read_cohort_manifest(paths.manifest)
    subjects = []
    for e in entries:
        image = read_map(paths.out / e["path"])
        truth = None
        if e["truth_path"]:
            truth_map = read_map(paths.out / e["truth_path"])
            truth = tuple(int(i) for i in np.flatnonzero(truth_map.reshape(-1)))
        subjects.append({"id": e["id"], "role": e["role"], "image": image,
                         "age": e["age"], "time_gap": e["time_gap"], "truth": truth})
    if not subjects:
        raise DataError(f"{paths.manifest}: empty cohort")
    return subjects


def _standardized_conds(subjects) -> dict:
    conds = np.array([[s["age"], s["time_gap"]] for s in subjects])
    std, _, _ = standardize_conditions(conds)
    return {s["id"]: std[i] for i, s in enumerate(subjects)}


def _by_role(subjects, role):
    picked = [s for s in subjects if s["role"] == role]
    if not picked:
        raise DataError(f"cohort has no {role!r} subjects")
    return picked


def _load_pipeline(paths: _Paths):
    weights = read_weights(paths.weights)
    threshold = read_threshold(paths.threshold)
    noise = read_noise(paths.noise)
    roi = read_roi(paths.roi)
    return weights, threshold, noise, roi


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_generate(cfg: RunConfig, paths: _Paths, force: bool) -> int:
    if paths.manifest.exists() and not force:
        raise DataError(f"{paths.manifest} exists; pass --force to overwrite")
    paths.images.mkdir(parents=True, exist_ok=True)
    roi = _default_roi(cfg)
    write_roi(paths.roi, roi, cfg.side)
    spec = _cohort_spec(cfg, roi)
    subjects = make_cohort(spec, roi.member)
    entries = []
    truth_path = ""
    if spec.signal is not None:
        truth = np.zeros(cfg.side * cfg.side)
        truth[list(spec.signal.region)] = 1.0
        truth_path = "images/truth.bin"
        write_map(paths.out / truth_path, truth.reshape(cfg.side, cfg.side))
    for s in subjects:
        rel = f"images/{s.id}.bin"
        write_map(paths.out / rel, s.image)
        entries.append((s.id, s.role, rel, s.age, s.time_gap,
                        truth_path if s.role == "diseased" else ""))
    write_cohort_manifest(paths.manifest, entries)
    print(f"wrote {len(subjects)} subjects under {paths.out}")
    return EXIT_OK


def cmd_train(cfg: RunConfig, paths: _Paths) -> int:
    subjects = _load_cohort(paths)
    conds = _standardized_conds(subjects)
    train_subjects = _by_role(subjects, "train")
    dataset = [(s["image"], conds[s["id"]]) for s in train_subjects]
    config = TrainConfig(epochs=cfg.epochs, lr=cfg.lr, batch_size=cfg.batch_size,
                         patience=cfg.patience, min_delta=cfg.min_delta,
                         holdout_fraction=cfg.holdout_fraction, seed=cfg.seed)
    result = train(dataset, _arch(cfg), config)
    write_weights(paths.weights, result.weights)
    _write_csv(paths.curve, ["epoch", "train_loss", "holdout_loss", "early_stop"],
               [[r.epoch, repr(r.train_loss), repr(r.holdout_loss), int(r.early_stopped)]
                for r in result.history])
    print(f"trained {len(result.history) - 1} epochs (best {result.best_epoch}); "
          f"weights -> {paths.weights}")
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig, paths: _Paths) -> int:
    subjects = _load_cohort(paths)
    conds = _standardized_conds(subjects)
    weights = read_weights(paths.weights)
    roi = read_roi(paths.roi)
    errors = []
    for s in _by_role(subjects, "test"):
        recon = reconstruct(s["image"], conds[s["id"]], weights)
        errors.append(reconstruction_error(s["image"], recon))
    threshold = calibrate_threshold(errors, roi, cfg.quantile)
    write_threshold(paths.threshold, threshold)
    if cfg.noise_source == "known":
        noise = NoiseModel(cfg.sigma2)
    elif cfg.noise_source == "estimated":
        noise = estimate_noise([s["image"] for s in _by_role(subjects, "variance")])
    else:
        raise DataError(f"noise_source must be known|estimated, got {cfg.noise_source!r}")
    write_noise(paths.noise, noise)
    print(f"threshold {threshold.value:.6g} (q={cfg.quantile}), "
          f"noise sigma2 {noise.sigma2:.6g} ({noise.provenance})")
    return EXIT_OK


def _outcome_rows(ids, outcomes):
    return [result_row(i, o) for i, o in zip(ids, outcomes)]


def cmd_test(cfg: RunConfig, paths: _Paths, subject_id: str) -> int:
    subjects = _load_cohort(paths)
    conds = _standardized_conds(subjects)
    matching = [s for s in subjects if s["id"] == subject_id]
    if not matching:
        raise DataError(f"unknown subject id {subject_id!r}")
    subject = matching[0]
    weights, threshold, noise, roi = _load_pipeline(paths)
    outcomes = evaluate_cohort([subject["image"]], [conds[subject_id]], weights,
                               threshold, roi, noise, window_sigmas=cfg.window_sigmas,
                               max_pieces=cfg.max_pieces, workers=1)
    outcome = outcomes[0]
    mask = detect(subject["image"], conds[subject_id], weights, threshold, roi)
    _write_csv(paths.out / f"result_{subject_id}.csv",
               ["id", "mask_size", "t_obs", "sigma_t", "p_naive", "p_bonferroni",
                "p_selective", "interval_count", "status"],
               _outcome_rows([subject_id], [outcome]))
    write_mask_csv(paths.out / f"mask_{subject_id}.csv", mask)
    mask_map = mask.as_bool(cfg.side * cfg.side).astype(np.float64)
    write_map(paths.out / f"mask_{subject_id}.bin", mask_map.reshape(cfg.side, cfg.side))
    print(f"{subject_id}: status={outcome.status} mask={outcome.mask_size} "
          f"p_naive={outcome.p_naive} p_selective={outcome.p_selective}")
    return EXIT_OK


def _null_conditions(cfg: RunConfig, subjects, count: int):
    """Condition rows for synthesized nulls, standardized with cohort stats."""
    conds = np.array([[s["age"], s["time_gap"]] for s in subjects])
    _, means, stds = standardize_conditions(conds)
    rng = np.random.Generator(np.random.Philox(key=[np.uint64(cfg.seed),
                                                    np.uint64(0xA11)]))
    raw = np.column_stack([
        rng.uniform(cfg.age_min, cfg.age_max, size=count),
        rng.uniform(cfg.gap_min, cfg.gap_max, size=count)])
    return (raw - means) / stds


def cmd_experiment_null(cfg: RunConfig, paths: _Paths) -> int:
    subjects = _load_cohort(paths)
    weights, threshold, noise, roi = _load_pipeline(paths)
    images = gen_null_cohort(cfg.n_null, cfg.side, cfg.sigma2, cfg.seed,
                             start_index=10 ** 6)
    conds = _null_conditions(cfg, subjects, cfg.n_null)
    outcomes = evaluate_cohort(images, conds, weights, threshold, roi, noise,
                               window_sigmas=cfg.window_sigmas,
                               max_pieces=cfg.max_pieces, workers=cfg.workers)
    ids = [f"null-{i:05d}" for i in range(cfg.n_null)]
    _write_csv(paths.null_pvalues,
               ["id", "mask_size", "t_obs", "sigma_t", "p_naive", "p_bonferroni",
                "p_selective", "interval_count", "status"],
               _outcome_rows(ids, outcomes))

    rows = []
    hist = {}
    for method in ("naive", "selective"):
        pvals = tested_pvalues(outcomes, method)
        hist[method] = histogram_counts(pvals, cfg.bins)
        ks = ks_statistic(pvals)
        crit = ks_critical(len(pvals))
        rows.append([method, len(pvals), repr(float(ks)), repr(float(crit)),
                     int(ks < crit)])
    _write_csv(paths.null_histogram, ["bin_lo", "bin_hi", "naive", "selective"],
               [[repr(i / cfg.bins), repr((i + 1) / cfg.bins),
                 int(hist["naive"][i]), int(hist["selective"][i])]
                for i in range(cfg.bins)])
    _write_csv(paths.null_ks, ["method", "n_tested", "ks", "critical_1pct", "pass"],
               rows)
    print(f"null experiment: {rows[1][1]} tested, selective ks={rows[1][2]} "
          f"(crit {rows[1][3]}), skips={skip_count(outcomes)}")
    return EXIT_OK


def _summary_rows(summary):
    return [[r.method, repr(r.alpha), r.rejections, r.failures, r.skips,
             repr(r.proportion)] for r in summary]


_SUMMARY_HEADER = ["method", "alpha", "rejections", "failures",
                   "degenerate_skips", "proportion"]


def cmd_experiment_fdr(cfg: RunConfig, paths: _Paths) -> int:
    subjects = _load_cohort(paths)
    conds = _standardized_conds(subjects)
    weights, threshold, noise, roi = _load_pipeline(paths)
    held_out = _by_role(subjects, "inference")
    outcomes = evaluate_cohort([s["image"] for s in held_out],
                               [conds[s["id"]] for s in held_out],
                               weights, threshold, roi, noise,
                               window_sigmas=cfg.window_sigmas,
                               max_pieces=cfg.max_pieces, workers=cfg.workers)
    summary = rejection_summary(outcomes, cfg.alphas)
    _write_csv(paths.fdr, _SUMMARY_HEADER, _summary_rows(summary))
    for r in summary:
        print(f"{r.method}[alpha={r.alpha}]: reject {r.rejections} / "
              f"fail {r.failures} / skip {r.skips} -> {r.proportion:.3f}")
    return EXIT_OK


def cmd_experiment_power(cfg: RunConfig, paths: _Paths, amplitudes) -> int:
    subjects = _load_cohort(paths)
    conds = _standardized_conds(subjects)
    weights, threshold, noise, roi = _load_pipeline(paths)
    rows = []
    if amplitudes:
        region = _signal_region(cfg, roi)
        base_conds = _null_conditions(cfg, subjects, cfg.n_diseased)
        for amp in amplitudes:
            signal = SignalSpec(region=region, amplitude=amp, shape=cfg.signal_shape)
            images = gen_diseased(cfg.n_diseased, cfg.side, signal, cfg.sigma2,
                                  cfg.seed, start_index=2 * 10 ** 6)
            outcomes = evaluate_cohort(images, base_conds, weights, threshold, roi,
                                       noise, window_sigmas=cfg.window_sigmas,
                                       max_pieces=cfg.max_pieces, workers=cfg.workers)
            for r in rejection_summary(outcomes, cfg.alphas):
                rows.append([repr(float(amp))] + _summary_rows([r])[0])
    else:
        diseased = _by_role(subjects, "diseased")
        outcomes = evaluate_cohort([s["image"] for s in diseased],
                                   [conds[s["id"]] for s in diseased],
                                   weights, threshold, roi, noise,
                                   window_sigmas=cfg.window_sigmas,
                                   max_pieces=cfg.max_pieces, workers=cfg.workers)
        for r in rejection_summary(outcomes, cfg.alphas):
            rows.append([repr(float(cfg.signal_amplitude))] + _summary_rows([r])[0])
    _write_csv(paths.power, ["amplitude"] + _SUMMARY_HEADER, rows)
    for row in rows:
        print(f"amp={row[0]} {row[1]}[alpha={row[2]}]: reject {row[3]} -> {row[6]}")
    return EXIT_OK


def cmd_report(cfg: RunConfig, paths: _Paths) -> int:
    wrote = []
    if paths.fdr.exists():
        _table_from_summary(paths.fdr, paths.table1, skip_amplitude=False)
        wrote.append(paths.table1)
    if paths.power.exists():
        _table_from_summary(paths.power, paths.table2, skip_amplitude=True)
        wrote.append(paths.table2)
    if paths.null_histogram.exists():
        with open(paths.null_histogram, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        lines = ["# bin_center naive selective"]
        for lo, hi, naive, sel in rows:
            center = 0.5 * (float(lo) + float(hi))
            lines.append(f"{center:.4f} {naive} {sel}")
        paths.histogram_dat.write_text("\n".join(lines) + "\n")
        wrote.append(paths.histogram_dat)
    if not wrote:
        raise DataError("no experiment outputs found; run the experiments first")
    for path in wrote:
        print(f"wrote {path}")
    return EXIT_OK


def _table_from_summary(src, dst, skip_amplitude: bool):
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    out = []
    for row in rows:
        if skip_amplitude:
            amp, row = row[0], row[1:]
            label_extra = f" amp={amp}"
        else:
            label_extra = ""
        method, alpha, rejections, failures, _, proportion = row
        label = {"naive": "Naive", "bonferroni": "Bonferroni",
                 "selective": f"SI [alpha={alpha}]"}[method] + label_extra
        out.append([label, rejections, failures, repr(float(proportion))])
    _write_csv(dst, ["method", "reject_the_null", "failed_to_reject", "fdr"], out)


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="siad", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="INI config file")
        p.add_argument("--preset", choices=sorted(PRESETS), default="desk")
        p.add_argument("--seed", type=int, default=None, help="cohort seed")
        p.add_argument("--out", type=Path, default=Path("runs/default"),
                       help="output directory")
        p.add_argument("--alpha", type=str, default=None,
                       help="comma-separated selective test levels")
        p.add_argument("--workers", type=int, default=None)
        return p

    common(sub.add_parser("generate", help="write a synthetic cohort")) \
        .add_argument("--force", action="store_true")
    common(sub.add_parser("train", help="train the detector on the train role"))
    common(sub.add_parser("calibrate", help="derive threshold and noise model"))
    common(sub.add_parser("test", help="test a single subject")) \
        .add_argument("--subject", required=True)
    common(sub.add_parser("experiment-null", help="p-value uniformity on nulls"))
    common(sub.add_parser("experiment-fdr", help="rejection rates on held-out nulls"))
    power = common(sub.add_parser("experiment-power", help="rejection rates on the "
                                                           "diseased cohort"))
    power.add_argument("--amplitudes", type=str, default=None,
                       help="comma-separated planted amplitudes to sweep")
    common(sub.add_parser("report", help="merge experiment outputs into tables"))
    return parser


def _bad_level(levels):
    """The first level not inside (0, 1) (nan included), or None."""
    return next((a for a in levels if not 0.0 < a < 1.0), None)


def _float_list(flag: str, text):
    """The comma-separated numbers of ``flag``, or None when it is absent."""
    if not text:
        return None
    try:
        return tuple(float(a) for a in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        alphas = _float_list("--alpha", args.alpha)
        amplitudes = _float_list("--amplitudes", getattr(args, "amplitudes", None))
        bad = _bad_level(alphas or ())
        if bad is not None:
            raise ValueError(f"--alpha levels must lie in (0, 1), got {bad!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        overrides = {"seed": args.seed, "workers": args.workers, "alphas": alphas}
        cfg = load_config(args.preset, args.config, overrides)
        paths = _Paths(args.out)
        paths.out.mkdir(parents=True, exist_ok=True)
        if args.command == "generate":
            return cmd_generate(cfg, paths, args.force)
        if args.command == "train":
            return cmd_train(cfg, paths)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, paths)
        if args.command == "test":
            return cmd_test(cfg, paths, args.subject)
        if args.command == "experiment-null":
            return cmd_experiment_null(cfg, paths)
        if args.command == "experiment-fdr":
            return cmd_experiment_fdr(cfg, paths)
        if args.command == "experiment-power":
            return cmd_experiment_power(cfg, paths, amplitudes)
        if args.command == "report":
            return cmd_report(cfg, paths)
        raise DataError(f"unknown command {args.command!r}")
    except NumericalDiagnosticError as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SiadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
