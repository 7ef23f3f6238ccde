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
from scipy import stats

from .errors import DataError
from .inference import STATUS_SKIPPED, STATUS_TESTED, NoiseModel, selective_pvalue

NAIVE_ALPHA = 0.05  # fixed level for the uncorrected and Bonferroni rows

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
    the subjects are spread over a process pool; each evaluation is a pure
    function of its inputs, so the result list is identical either way.
    """
    if len(images) != len(conds):
        raise DataError(f"{len(images)} images vs {len(conds)} condition rows")
    tasks = [(np.asarray(img, dtype=np.float64).reshape(-1), np.asarray(cond))
             for img, cond in zip(images, conds)]
    payload = {"weights": weights, "threshold": threshold, "roi": roi, "noise": noise}
    if workers <= 1 or len(tasks) < 2:
        _worker_init(payload)
        return [_worker_evaluate(t) for t in tasks]
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


def _count(outcomes, pick, alpha):
    tested = [o for o in outcomes if o.status == STATUS_TESTED]
    skips = len(outcomes) - len(tested)
    rej = sum(1 for o in tested if pick(o) <= alpha)
    return rej, len(tested) - rej, skips


def rejection_summary(outcomes, alphas, naive_alpha: float = NAIVE_ALPHA):
    """Naive and Bonferroni rows at the fixed level, selective at each level.

    Degenerate skips are excluded from the rejection denominators but
    reported so the row totals still add up to the cohort size.
    """
    rows = []
    rej, fail, skips = _count(outcomes, lambda o: o.p_naive, naive_alpha)
    rows.append(SummaryRow("naive", naive_alpha, rej, fail, skips))
    rej, fail, skips = _count(outcomes, lambda o: o.p_bonferroni, naive_alpha)
    rows.append(SummaryRow("bonferroni", naive_alpha, rej, fail, skips))
    for alpha in alphas:
        rej, fail, skips = _count(outcomes, lambda o: o.p_selective, alpha)
        rows.append(SummaryRow("selective", alpha, rej, fail, skips))
    return rows


def tested_pvalues(outcomes, which: str) -> np.ndarray:
    """P-values of one method over the non-degenerate subjects."""
    attr = {"naive": "p_naive", "bonferroni": "p_bonferroni",
            "selective": "p_selective"}[which]
    return np.array([getattr(o, attr) for o in outcomes
                     if o.status == STATUS_TESTED], dtype=np.float64)


def histogram_counts(pvals, bins: int = 20) -> np.ndarray:
    """Counts over equal-width bins of [0, 1]."""
    counts, _ = np.histogram(np.asarray(pvals, dtype=np.float64),
                             bins=bins, range=(0.0, 1.0))
    return counts


def ks_critical(n: int, coefficient: float = 1.63) -> float:
    """Asymptotic KS critical value; the 1.63 coefficient is the 1% level."""
    if n < 1:
        raise DataError("need at least one sample")
    return coefficient / np.sqrt(n)


def binomial_upper_bound(n: int, alpha: float, confidence: float = 0.975) -> int:
    """Largest rejection count compatible with rate ``alpha`` at the given
    one-sided confidence; exceeding it flags an inflated test."""
    if n < 1:
        raise DataError("need at least one trial")
    return int(stats.binom.ppf(confidence, n, alpha))


def sign_test_pvalue(n_plus: int, n_minus: int) -> float:
    """Exact one-sided paired sign test for 'plus beats minus'.

    P(X >= n_plus) for X ~ Binomial(n_plus + n_minus, 1/2); small values
    mean the advantage is unlikely to be a coin-flip artifact.
    """
    n = n_plus + n_minus
    if n == 0:
        return 1.0
    return float(stats.binom.sf(n_plus - 1, n, 0.5))


def paired_gap_significant(outcomes, alpha: float, level: float = 0.05) -> bool:
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
    return sign_test_pvalue(n10, n01) < level


def monotone_gap_significant(outcomes, alpha_lo: float, alpha_hi: float,
                             level: float = 0.05) -> bool:
    """Is the power increase from alpha_lo to alpha_hi significant?

    The selective rejections at the two levels are nested, so the gap is
    the count of p-values in (alpha_lo, alpha_hi]; an exact sign test asks
    whether that many one-sided gains could be chance."""
    pvals = tested_pvalues(outcomes, "selective")
    gained = int(np.sum((pvals > alpha_lo) & (pvals <= alpha_hi)))
    return sign_test_pvalue(gained, 0) < level


def skip_count(outcomes) -> int:
    return sum(1 for o in outcomes if o.status == STATUS_SKIPPED)
