"""Cohort-level evaluation and the summaries behind the three experiments.

A cohort of subjects is pushed through the selective-inference pipeline
(optionally across a worker pool; results keep the input order, so runs are
reproducible regardless of scheduling), and the outcomes are reduced to the
rejection tables and uniformity diagnostics the reports are built from.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .inference import STATUS_SKIPPED, STATUS_TESTED, NoiseModel, selective_pvalue

NAIVE_ALPHA = 0.05  # fixed level for the uncorrected and Bonferroni rows
KS_COEFFICIENT = 1.63  # asymptotic KS critical value times sqrt(n) at the 1% level
BINOMIAL_CONFIDENCE = 0.975  # one-sided confidence of binomial_upper_bound
SIGN_TEST_LEVEL = 0.05  # level at which the paired and monotone gaps are significant
HISTOGRAM_BINS = 20  # equal-width bins of the p-value histograms

_WORKER_STATE = {}  # selective_pvalue's keyword arguments, set once per worker


def _worker_init(payload):
    _WORKER_STATE.update(payload)


def _worker_evaluate(task):
    image, cond = task
    return selective_pvalue(image, cond, **_WORKER_STATE)


def evaluate_cohort(images, conds, weights, threshold, roi, noise: NoiseModel,
                    workers: int = 1):
    """Selective inference for every subject, in input order.

    ``images`` and ``conds`` are parallel sequences.  With ``workers > 1``
    the subjects are spread over a process pool of at most one process per
    subject; each evaluation is a pure function of its inputs, so the result
    list is identical either way.
    """
    if len(images) != len(conds):
        raise DataError(f"{len(images)} images vs {len(conds)} condition rows")
    tasks = [(np.asarray(img, dtype=np.float64).reshape(-1), np.asarray(cond))
             for img, cond in zip(images, conds)]
    payload = {"weights": weights, "threshold": threshold, "roi": roi, "noise": noise}
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [selective_pvalue(image, cond, **payload) for image, cond in tasks]
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(tasks) // (workers * 8))
    with ctx.Pool(workers, initializer=_worker_init, initargs=(payload,)) as pool:
        return pool.map(_worker_evaluate, tasks, chunksize=chunk)


@dataclass(frozen=True)
class SummaryRow:
    """One method/level row of a rejection table."""

    method: str
    alpha: float
    rejections: int
    failures: int
    skips: int

    @property
    def total(self) -> int:
        return self.rejections + self.failures + self.skips

    @property
    def proportion(self) -> float:
        tested = self.rejections + self.failures
        return self.rejections / tested if tested else 0.0


def rejection_summary(outcomes, alphas):
    """Naive and Bonferroni rows at NAIVE_ALPHA, selective at each level.

    Degenerate skips are excluded from the rejection denominators but
    reported so the row totals still add up to the cohort size.
    """
    levels = [("naive", NAIVE_ALPHA), ("bonferroni", NAIVE_ALPHA)]
    levels += [("selective", alpha) for alpha in alphas]
    rows = []
    for method, alpha in levels:
        pvals = tested_pvalues(outcomes, method)
        rej = int(np.sum(pvals <= alpha))
        rows.append(SummaryRow(method, alpha, rej, len(pvals) - rej,
                               len(outcomes) - len(pvals)))
    return rows


def tested_pvalues(outcomes, which: str) -> np.ndarray:
    """P-values of one method over the non-degenerate subjects."""
    attr = {"naive": "p_naive", "bonferroni": "p_bonferroni",
            "selective": "p_selective"}[which]
    return np.array([getattr(o, attr) for o in outcomes
                     if o.status == STATUS_TESTED], dtype=np.float64)


def histogram_counts(pvals) -> np.ndarray:
    """Counts over HISTOGRAM_BINS equal-width bins of [0, 1]."""
    counts, _ = np.histogram(np.asarray(pvals, dtype=np.float64),
                             bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return counts


def ks_critical(n: int) -> float:
    """Asymptotic KS critical value at the 1% level."""
    if n < 1:
        raise DataError("need at least one sample")
    return KS_COEFFICIENT / np.sqrt(n)


def binomial_upper_bound(n: int, alpha: float) -> int:
    """Largest rejection count compatible with rate ``alpha`` at one-sided
    confidence BINOMIAL_CONFIDENCE; exceeding it flags an inflated test."""
    if n < 1:
        raise DataError("need at least one trial")
    from scipy import stats  # on first use, as in `inference.ks_statistic`
    return int(stats.binom.ppf(BINOMIAL_CONFIDENCE, n, alpha))


def sign_test_pvalue(n_plus: int, n_minus: int) -> float:
    """Exact one-sided paired sign test for 'plus beats minus'.

    P(X >= n_plus) for X ~ Binomial(n_plus + n_minus, 1/2), the ``"greater"``
    p-value of ``scipy.stats.binomtest``; small values mean the advantage is
    unlikely to be a coin-flip artifact.
    """
    n = n_plus + n_minus
    if n == 0:
        return 1.0
    from scipy import stats  # on first use, as in `inference.ks_statistic`
    return float(stats.binomtest(n_plus, n, alternative="greater").pvalue)


def paired_gap_significant(outcomes, alpha: float) -> bool:
    """Is selective-rejects-but-Bonferroni-does-not significantly more common
    than the reverse at the same alpha?  Exact sign test over subjects."""
    n10 = n01 = 0
    for o in outcomes:
        if o.status != STATUS_TESTED:
            continue
        sel = o.p_selective <= alpha
        bon = o.p_bonferroni <= alpha
        n10 += int(sel and not bon)
        n01 += int(bon and not sel)
    return sign_test_pvalue(n10, n01) < SIGN_TEST_LEVEL


def monotone_gap_significant(outcomes, alpha_lo: float, alpha_hi: float) -> bool:
    """Is the power increase from alpha_lo to alpha_hi significant?

    The selective rejections at the two levels are nested, so the gap is
    the count of p-values in (alpha_lo, alpha_hi]; an exact sign test asks
    whether that many one-sided gains could be chance."""
    pvals = tested_pvalues(outcomes, "selective")
    gained = int(np.sum((pvals > alpha_lo) & (pvals <= alpha_hi)))
    return sign_test_pvalue(gained, 0) < SIGN_TEST_LEVEL


def skip_count(outcomes) -> int:
    return sum(1 for o in outcomes if o.status == STATUS_SKIPPED)
