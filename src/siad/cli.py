"""Command-line harness: generate, train, calibrate, test, and the three
experiments that reproduce the empirical claims (null p-value uniformity,
false-discovery-rate control, power ordering), plus a report merger.

Configuration is layered: a named preset supplies defaults, an INI-style
``key = value`` file overrides the preset, and command-line flags override
both.  Each key's section ([cohort], [model], [train], [detect] or
[experiment]) comes from its ``RunConfig`` field.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical diagnostic.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .anomaly import RoiMask, _check_quantile, calibrate_threshold, reconstruction_error
from .errors import DataError, NumericalDiagnosticError, SiadError
from .experiments import (evaluate_cohort, histogram_counts, ks_critical,
                          rejection_summary, skip_count, tested_pvalues)
from .fileio import (read_cohort_manifest, read_map, read_noise, read_roi,
                     read_rows, read_threshold, read_weights, result_row,
                     write_cohort_manifest, write_map, write_mask_csv,
                     write_noise, write_result_rows, write_roi, write_rows,
                     write_threshold, write_weights)
from .inference import NoiseModel, estimate_noise, ks_statistic
from .model import ArchitectureSpec, reconstruct
from .opticalflow import standardize_conditions
from .synth import (CohortSpec, SignalSpec, _check_count, gen_diseased, gen_null_cohort,
                    make_cohort, subject_conditions)
from .training import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def _key(section: str, default):
    """A ``RunConfig`` field whose INI key belongs in ``[section]``."""
    return field(default=default, metadata={"section": section})


def _bad_level(levels):
    """The first level not inside (0, 1) (nan included), or None."""
    return next((a for a in levels if not 0.0 < a < 1.0), None)


@dataclass(frozen=True)
class RunConfig:
    """Flattened configuration; each field's INI section is its ``section``
    metadata.  Values that no command could run with are refused here."""

    n_train: int = _key("cohort", 200)
    n_test: int = _key("cohort", 50)
    n_inference: int = _key("cohort", 100)
    n_variance: int = _key("cohort", 50)
    n_diseased: int = _key("cohort", 100)
    side: int = _key("cohort", 16)
    sigma2: float = _key("cohort", 1.0)
    seed: int = _key("cohort", 0)
    signal_amplitude: float = _key("cohort", 4.0)
    signal_shape: str = _key("cohort", "plateau")
    signal_size: int = _key("cohort", 3)
    channels: tuple = _key("model", (8, 16))
    latent: int = _key("model", 4)
    epochs: int = _key("train", 30)
    lr: float = _key("train", 1e-4)
    batch_size: int = _key("train", 16)
    quantile: float = _key("detect", 0.95)
    roi_fraction: float = _key("detect", 0.25)
    noise_source: str = _key("detect", "known")
    n_null: int = _key("experiment", 1000)
    workers: int = _key("experiment", 2)
    alphas: tuple = _key("experiment", (0.01, 0.05, 0.1))

    def __post_init__(self):
        checks = [("seed", 0 <= self.seed < 2 ** 64, "must lie in [0, 2**64)"),
                  ("sigma2", 0.0 < self.sigma2 < math.inf, "must be positive and finite"),
                  ("noise_source", self.noise_source in ("known", "estimated"),
                   "must be known or estimated"),
                  ("alphas", _bad_level(self.alphas) is None, "levels must lie in (0, 1)")]
        for name, ok, rule in checks:
            if not ok:
                raise DataError(f"config value {name} = {getattr(self, name)!r}: {rule}")
        # the rules of what the commands build from these values: a value
        # that the command reading it would refuse stops every command
        rules = [("side, channels, latent", lambda: self.arch),
                 ("epochs, lr, batch_size", self._train_config),
                 ("quantile", lambda: _check_quantile(self.quantile)),
                 ("roi_fraction", lambda: RoiMask.centered_square(self.side, self.roi_fraction)),
                 ("n_null", lambda: _check_count(self.n_null))]
        for names, rule in rules:
            try:
                rule()
            except SiadError as exc:
                raise DataError(f"config values {names}: {exc}") from None

    def _train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, lr=self.lr, batch_size=self.batch_size,
                           seed=self.seed)

    @property
    def arch(self) -> ArchitectureSpec:
        return ArchitectureSpec(side=self.side, channels=self.channels,
                                latent_dim=self.latent)


PRESETS = {
    "desk": RunConfig(),
    "paper": RunConfig(n_train=600, n_test=100, n_inference=100, n_variance=88,
                       n_diseased=110, side=80, channels=(32, 64, 128),
                       latent=10, epochs=1000, lr=1e-5),
}


def _parse_value(name: str, text: str, default):
    """``text`` as the type of ``default``; a tuple's items take the type of
    its first item."""
    text = text.strip()
    kind = type(default)
    try:
        if kind is tuple:
            return tuple(type(default[0])(p) for p in text.replace(",", " ").split())
        return kind(text)
    except ValueError as exc:
        raise DataError(f"config value {name} = {text!r} is not a {kind.__name__}") from exc


def load_config(preset: str, config_path, overrides: dict) -> RunConfig:
    if preset not in PRESETS:
        raise DataError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    cfg = PRESETS[preset]
    keys = {f.name: f for f in fields(RunConfig)}
    if config_path:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(str(config_path), encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            detail = " ".join(str(exc).split())
            raise DataError(f"config file {config_path} is not valid INI: {detail}") from None
        if not read:
            raise DataError(f"config file {config_path} not found")
        updates = {}
        for section in parser.sections():
            for key, value in parser.items(section):
                if key not in keys:
                    raise DataError(f"unknown config key {key!r} in [{section}]")
                home = keys[key].metadata["section"]
                if home != section:
                    raise DataError(f"key {key!r} belongs in [{home}], found in [{section}]")
                updates[key] = _parse_value(key, value, keys[key].default)
        cfg = replace(cfg, **updates)
    clean = {k: v for k, v in overrides.items() if v is not None}
    if clean:
        cfg = replace(cfg, **clean)
    return cfg


def _signal_region(cfg: RunConfig, roi: RoiMask) -> tuple:
    """A signal_size x signal_size block at the center of the ROI; a block
    that would not fit inside the ROI is refused."""
    side = cfg.side
    grid = np.arange(side * side).reshape(side, side)
    rows = np.flatnonzero(roi.member.reshape(side, side).any(axis=1))
    cols = np.flatnonzero(roi.member.reshape(side, side).any(axis=0))
    width = min(rows.size, cols.size)
    if not 1 <= cfg.signal_size <= width:
        raise DataError(f"config value signal_size = {cfg.signal_size!r}: "
                        f"must lie in [1, {width}], the ROI's width")
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
                      seed=cfg.seed, signal=signal)


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


def _load_cohort(cfg: RunConfig, paths: _Paths):
    """The manifest's entries, each with its image under ``image`` and its
    standardized (age, time_gap) under ``cond``, plus the cohort's
    condition ``(means, stds)``.  Each map must be ``side`` x ``side``."""
    subjects = []
    for e in read_cohort_manifest(paths.manifest):
        path = paths.out / e["path"]
        image = read_map(path)
        if image.shape != (1, cfg.side, cfg.side):
            raise DataError(f"{path}: map is {image.shape[1]}x{image.shape[2]}, "
                            f"the config expects {cfg.side}x{cfg.side}")
        subjects.append(dict(e, image=image))
    if not subjects:
        raise DataError(f"{paths.manifest}: empty cohort")
    conds, means, stds = standardize_conditions([[s["age"], s["time_gap"]]
                                                 for s in subjects])
    for s, cond in zip(subjects, conds):
        s["cond"] = cond
    return subjects, (means, stds)


def _by_role(subjects, role):
    """The images and conditions of the subjects with ``role``."""
    picked = [s for s in subjects if s["role"] == role]
    if not picked:
        raise DataError(f"cohort has no {role!r} subjects")
    return [s["image"] for s in picked], [s["cond"] for s in picked]


def _evaluate(cfg: RunConfig, paths: _Paths, images, conds):
    """Selective inference for each image with the run's stored weights,
    threshold, ROI and noise model."""
    return evaluate_cohort(images, conds, read_weights(paths.weights),
                           read_threshold(paths.threshold), read_roi(paths.roi),
                           read_noise(paths.noise), workers=cfg.workers)


def cmd_generate(cfg: RunConfig, paths: _Paths, args) -> int:
    if paths.manifest.exists() and not args.force:
        raise DataError(f"{paths.manifest} exists; pass --force to overwrite")
    # every setting is checked, and the cohort made, before anything is written
    roi = RoiMask.centered_square(cfg.side, cfg.roi_fraction)
    spec = _cohort_spec(cfg, roi)
    subjects = make_cohort(spec, roi.member)
    paths.images.mkdir(parents=True, exist_ok=True)
    write_roi(paths.roi, roi, cfg.side)
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


def cmd_train(cfg: RunConfig, paths: _Paths, args) -> int:
    subjects, _ = _load_cohort(cfg, paths)
    dataset = list(zip(*_by_role(subjects, "train")))
    result = train(dataset, cfg.arch, cfg._train_config())
    write_weights(paths.weights, result.weights)
    write_rows(paths.curve, ["epoch", "train_loss", "holdout_loss", "early_stop"],
               [[r.epoch, repr(r.train_loss), repr(r.holdout_loss), int(r.early_stopped)]
                for r in result.history])
    print(f"trained {len(result.history) - 1} epochs (best {result.best_epoch}); "
          f"weights -> {paths.weights}")
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig, paths: _Paths, args) -> int:
    subjects, _ = _load_cohort(cfg, paths)
    weights = read_weights(paths.weights)
    roi = read_roi(paths.roi)
    errors = [reconstruction_error(x, reconstruct(x, cond, weights))
              for x, cond in zip(*_by_role(subjects, "test"))]
    threshold = calibrate_threshold(errors, roi, cfg.quantile)
    if cfg.noise_source == "known":
        noise = NoiseModel(cfg.sigma2)
    else:
        noise = estimate_noise(_by_role(subjects, "variance")[0])
    write_threshold(paths.threshold, threshold)
    write_noise(paths.noise, noise)
    print(f"threshold {threshold.value:.6g} (q={cfg.quantile}), "
          f"noise sigma2 {noise.sigma2:.6g} ({noise.provenance})")
    return EXIT_OK


def cmd_test(cfg: RunConfig, paths: _Paths, args) -> int:
    subject_id = args.subject
    subjects, _ = _load_cohort(cfg, paths)
    matching = [s for s in subjects if s["id"] == subject_id]
    if not matching:
        raise DataError(f"unknown subject id {subject_id!r}")
    image, cond = matching[0]["image"], matching[0]["cond"]
    outcome = _evaluate(cfg, paths, [image], [cond])[0]
    write_result_rows(paths.out / f"result_{subject_id}.csv",
                      [result_row(subject_id, outcome)])
    write_mask_csv(paths.out / f"mask_{subject_id}.csv", outcome.mask)
    mask_map = outcome.mask.as_bool(cfg.side * cfg.side).astype(np.float64)
    write_map(paths.out / f"mask_{subject_id}.bin", mask_map.reshape(cfg.side, cfg.side))
    print(f"{subject_id}: status={outcome.status} mask={outcome.mask_size} "
          f"p_naive={outcome.p_naive} p_selective={outcome.p_selective}")
    return EXIT_OK


def _synthetic_conditions(cfg: RunConfig, stats, start: int, count: int):
    """Condition rows of the synthesized images ``start`` to ``start + count - 1``,
    each drawn at its own index as a cohort subject's are, and standardized
    with the cohort's ``(means, stds)``."""
    means, stds = stats
    raw = [subject_conditions(cfg.seed, start + i) for i in range(count)]
    return (np.array(raw) - means) / stds


_HISTOGRAM_HEADER = ["bin_lo", "bin_hi", "naive", "selective"]


def cmd_experiment_null(cfg: RunConfig, paths: _Paths, args) -> int:
    _, stats = _load_cohort(cfg, paths)
    images = gen_null_cohort(cfg.n_null, cfg.side, cfg.sigma2, cfg.seed,
                             start_index=10 ** 6)
    conds = _synthetic_conditions(cfg, stats, 10 ** 6, cfg.n_null)
    outcomes = _evaluate(cfg, paths, images, conds)
    write_result_rows(paths.null_pvalues,
                      [result_row(f"null-{i:05d}", o) for i, o in enumerate(outcomes)])

    rows = []
    hist = {}
    for method in ("naive", "selective"):
        pvals = tested_pvalues(outcomes, method)
        hist[method] = histogram_counts(pvals)
        ks = ks_statistic(pvals)
        crit = ks_critical(len(pvals))
        rows.append([method, len(pvals), repr(float(ks)), repr(float(crit)),
                     int(ks < crit)])
    bins = len(hist["naive"])
    write_rows(paths.null_histogram, _HISTOGRAM_HEADER,
               [[repr(i / bins), repr((i + 1) / bins),
                 int(hist["naive"][i]), int(hist["selective"][i])]
                for i in range(bins)])
    write_rows(paths.null_ks, ["method", "n_tested", "ks", "critical_1pct", "pass"],
               rows)
    print(f"null experiment: {rows[1][1]} tested, selective ks={rows[1][2]} "
          f"(crit {rows[1][3]}), skips={skip_count(outcomes)}")
    return EXIT_OK


def _summary_row(r) -> list:
    return [r.method, repr(r.alpha), r.rejections, r.failures, r.skips,
            repr(r.proportion)]


_SUMMARY_HEADER = ["method", "alpha", "rejections", "failures",
                   "degenerate_skips", "proportion"]
_SUMMARY_KINDS = [str, float, int, int, int, float]


def cmd_experiment_fdr(cfg: RunConfig, paths: _Paths, args) -> int:
    subjects, _ = _load_cohort(cfg, paths)
    outcomes = _evaluate(cfg, paths, *_by_role(subjects, "inference"))
    summary = rejection_summary(outcomes, cfg.alphas)
    write_rows(paths.fdr, _SUMMARY_HEADER, [_summary_row(r) for r in summary])
    for r in summary:
        print(f"{r.method}[alpha={r.alpha}]: reject {r.rejections} / "
              f"fail {r.failures} / skip {r.skips} -> {r.proportion:.3f}")
    return EXIT_OK


def cmd_experiment_power(cfg: RunConfig, paths: _Paths, args) -> int:
    """Rejection rates on the stored diseased cohort, or on fresh cohorts
    planted at each of ``--amplitudes``."""
    subjects, stats = _load_cohort(cfg, paths)
    if args.amplitudes:
        region = _signal_region(cfg, read_roi(paths.roi))
        base_conds = _synthetic_conditions(cfg, stats, 2 * 10 ** 6, cfg.n_diseased)
        cases = [(amp, gen_diseased(cfg.n_diseased, cfg.side,
                                    SignalSpec(region=region, amplitude=amp,
                                               shape=cfg.signal_shape),
                                    cfg.sigma2, cfg.seed, start_index=2 * 10 ** 6),
                  base_conds) for amp in args.amplitudes]
    else:
        cases = [(cfg.signal_amplitude, *_by_role(subjects, "diseased"))]
    rows = []
    for amp, images, amp_conds in cases:
        for r in rejection_summary(_evaluate(cfg, paths, images, amp_conds), cfg.alphas):
            rows.append([repr(float(amp))] + _summary_row(r))
    write_rows(paths.power, ["amplitude"] + _SUMMARY_HEADER, rows)
    for row in rows:
        print(f"amp={row[0]} {row[1]}[alpha={row[2]}]: reject {row[3]} -> {row[6]}")
    return EXIT_OK


def cmd_report(cfg: RunConfig, paths: _Paths, args) -> int:
    # every input is parsed before any output is written, so a malformed
    # input leaves no fresh table behind
    pending = []  # (write, path, payload)
    if paths.fdr.exists():
        pending.append((write_rows, paths.table1, _TABLE_HEADER,
                        _table_rows(paths.fdr, with_amplitude=False)))
    if paths.power.exists():
        pending.append((write_rows, paths.table2, _TABLE_HEADER,
                        _table_rows(paths.power, with_amplitude=True)))
    if paths.null_histogram.exists():
        rows = read_rows(paths.null_histogram, _HISTOGRAM_HEADER, [float, float, int, int])
        lines = ["# bin_center naive selective"]
        lines += [f"{0.5 * (lo + hi):.4f} {naive} {sel}" for lo, hi, naive, sel in rows]
        pending.append((Path.write_text, paths.histogram_dat, "\n".join(lines) + "\n"))
    if not pending:
        raise DataError("no experiment outputs found; run the experiments first")
    for write, path, *payload in pending:
        write(path, *payload)
        print(f"wrote {path}")
    return EXIT_OK


_TABLE_HEADER = ["method", "reject_the_null", "failed_to_reject", "fdr"]


def _table_rows(src, with_amplitude: bool) -> list:
    """The report table rows for the summary file ``src``."""
    header, kinds = _SUMMARY_HEADER, _SUMMARY_KINDS
    if with_amplitude:
        header, kinds = ["amplitude"] + header, [float] + kinds
    out = []
    for row in read_rows(src, header, kinds):
        label_extra = f" amp={row.pop(0)}" if with_amplitude else ""
        method, alpha, rejections, failures, _, proportion = row
        label = {"naive": "Naive", "bonferroni": "Bonferroni",
                 "selective": f"SI [alpha={alpha}]"}.get(method)
        if label is None:
            raise DataError(f"{src}: unknown method {method!r}")
        out.append([label + label_extra, rejections, failures, repr(proportion)])
    return out


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

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--config", type=Path, default=None, help="INI config file")
        p.add_argument("--preset", choices=sorted(PRESETS), default="desk")
        p.add_argument("--seed", type=int, default=None, help="cohort seed")
        p.add_argument("--out", type=Path, default=Path("runs/default"),
                       help="output directory")
        p.add_argument("--alpha", type=str, default=None,
                       help="comma-separated selective test levels")
        p.add_argument("--workers", type=int, default=None)
        return p

    command("generate", cmd_generate, "write a synthetic cohort") \
        .add_argument("--force", action="store_true")
    command("train", cmd_train, "train the detector on the train role")
    command("calibrate", cmd_calibrate, "derive threshold and noise model")
    command("test", cmd_test, "test a single subject") \
        .add_argument("--subject", required=True)
    command("experiment-null", cmd_experiment_null, "p-value uniformity on nulls")
    command("experiment-fdr", cmd_experiment_fdr, "rejection rates on held-out nulls")
    command("experiment-power", cmd_experiment_power,
            "rejection rates on the diseased cohort") \
        .add_argument("--amplitudes", type=str, default=None,
                      help="comma-separated planted amplitudes to sweep")
    command("report", cmd_report, "merge experiment outputs into tables")
    return parser


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
        args.amplitudes = _float_list("--amplitudes", getattr(args, "amplitudes", None))
        bad = _bad_level(alphas or ())
        if bad is not None:
            raise ValueError(f"--alpha levels must lie in (0, 1), got {bad!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        overrides = {"seed": args.seed, "workers": args.workers, "alphas": alphas}
        cfg = load_config(args.preset, args.config, overrides)
        if args.out.exists() and not args.out.is_dir():
            raise DataError(f"--out {args.out} is not a directory")
        return args.run(cfg, _Paths(args.out), args)
    except NumericalDiagnosticError as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SiadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
