"""Cohort evaluation harness and its statistical summaries."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from siad.anomaly import AnomalyMask, RoiMask, Threshold
from siad.experiments import (binomial_upper_bound, evaluate_cohort,
                              histogram_counts, ks_critical,
                              monotone_gap_significant, paired_gap_significant,
                              rejection_summary, sign_test_pvalue, skip_count,
                              tested_pvalues)
from siad.inference import TestOutcome as Outcome
from siad.inference import STATUS_SKIPPED, STATUS_TESTED, NoiseModel
from siad.model import ArchitectureSpec, init_weights
from siad.synth import gen_null_cohort

ARCH = ArchitectureSpec(side=8, channels=(4,), latent_dim=2)
ROOT = Path(__file__).resolve().parent.parent


def _outcome(p_naive=None, p_bonf=None, p_sel=None):
    if p_naive is None:
        return Outcome(status=STATUS_SKIPPED, mask=AnomalyMask([]))
    return Outcome(status=STATUS_TESTED, mask=AnomalyMask([1, 2, 3]), t_obs=1.0, sigma_t=1.0,
                   p_naive=p_naive, p_bonferroni=p_bonf, p_selective=p_sel)


class TestEvaluateCohort:
    def test_parallel_matches_serial_bitwise(self):
        w = init_weights(ARCH, 1)
        roi = RoiMask.centered_square(8)
        thr = Threshold(value=1.0, source_quantile=0.95, calibration_count=10)
        noise = NoiseModel(1.0)
        imgs = gen_null_cohort(8, 8, 1.0, seed=2)
        conds = np.random.default_rng(2).normal(size=(8, 2))
        serial = evaluate_cohort(imgs, conds, w, thr, roi, noise, workers=1)
        parallel = evaluate_cohort(imgs, conds, w, thr, roi, noise, workers=2)
        assert len(serial) == len(parallel) == 8
        for a, b in zip(serial, parallel):
            assert a.status == b.status
            if a.status == STATUS_TESTED:
                assert a.p_selective == b.p_selective
                assert a.p_naive == b.p_naive
                assert a.truncation.intervals == b.truncation.intervals

    def test_length_mismatch_rejected(self):
        from siad.errors import DataError
        with pytest.raises(DataError):
            evaluate_cohort([np.zeros(64)], [], None, None, None, NoiseModel(1.0))


class TestRejectionSummary:
    def test_counts_and_invariants(self):
        outcomes = [_outcome(0.01, 1.0, 0.04), _outcome(0.2, 1.0, 0.4),
                    _outcome(0.04, 0.9, 0.2), _outcome(), _outcome(0.6, 1.0, 0.03)]
        rows = rejection_summary(outcomes, (0.05, 0.1))
        by_key = {(r.method, r.alpha): r for r in rows}
        naive = by_key[("naive", 0.05)]
        assert (naive.rejections, naive.failures, naive.skips) == (2, 2, 1)
        assert naive.total == len(outcomes)
        sel05 = by_key[("selective", 0.05)]
        assert sel05.rejections == 2
        assert sel05.proportion == pytest.approx(0.5)
        bon = by_key[("bonferroni", 0.05)]
        assert bon.rejections == 0

    def test_tested_pvalues_excludes_skips(self):
        outcomes = [_outcome(0.3, 1.0, 0.2), _outcome()]
        assert len(tested_pvalues(outcomes, "selective")) == 1
        assert skip_count(outcomes) == 1


class TestStatHelpers:
    def test_histogram_counts_sum(self):
        rng = np.random.default_rng(3)
        pv = rng.uniform(size=200)
        counts = histogram_counts(pv)
        assert counts.sum() == 200 and counts.size == 20

    def test_ks_critical_value(self):
        assert ks_critical(1000) == pytest.approx(0.0515, abs=1e-3)

    def test_binomial_upper_bounds_match_table(self):
        assert binomial_upper_bound(100, 0.05) == 10
        assert binomial_upper_bound(100, 0.01) == 3
        assert binomial_upper_bound(100, 0.1) == 16

    def test_sign_test_basics(self):
        assert sign_test_pvalue(0, 0) == 1.0
        assert sign_test_pvalue(5, 0) == pytest.approx(0.5 ** 5)
        assert sign_test_pvalue(4, 0) > 0.05  # four net wins are not enough
        assert sign_test_pvalue(5, 0) < 0.05

    def test_paired_gap_detection(self):
        strong = [_outcome(1e-6, 1.0, 0.01)] * 8 + [_outcome(0.5, 1.0, 0.5)] * 8
        assert paired_gap_significant(strong, alpha=0.05)
        weak = [_outcome(1e-6, 1.0, 0.01)] * 2 + [_outcome(0.5, 1.0, 0.5)] * 20
        assert not paired_gap_significant(weak, alpha=0.05)

    def test_monotone_gap_detection(self):
        outcomes = [_outcome(0.5, 1.0, p) for p in
                    [0.005, 0.02, 0.03, 0.04, 0.045, 0.049, 0.3, 0.7]]
        assert monotone_gap_significant(outcomes, 0.01, 0.05)
        assert not monotone_gap_significant(outcomes, 0.05, 0.1)


def _loads(code, module="scipy.stats"):
    """Whether a fresh interpreter running ``code`` ends with ``module`` loaded."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\n"
                           f"print({module!r} in sys.modules)"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


class TestFootprint:
    """scipy.stats costs about 45 MB and 0.75 s to import, scipy.ndimage
    about 1.6 MB; only the three summary statistics load the first and only
    the optical flow the second, each on first use, so scans and every pool
    worker run without either, and training without scipy.stats."""

    @pytest.mark.parametrize("module", ["siad", "siad.cli", "siad.experiments"])
    def test_import_leaves_scipy_stats_unloaded(self, module):
        assert not _loads(f"import {module}")

    def test_first_summary_statistic_loads_scipy_stats(self):
        assert _loads("import siad\nsiad.ks_statistic([0.2, 0.7])")

    @pytest.mark.parametrize("module", ["siad", "siad.cli", "siad.experiments"])
    def test_import_leaves_scipy_ndimage_unloaded(self, module):
        assert not _loads(f"import {module}", "scipy.ndimage")

    def test_first_flow_loads_scipy_ndimage(self):
        pair = "siad.ImagePair(np.zeros((4, 4)), np.ones((4, 4)), 1.0, 60.0)"
        assert _loads("import sys\nimport numpy as np\nimport siad\n"
                      "assert 'scipy.ndimage' not in sys.modules\n"
                      f"siad.horn_schunck({pair})", "scipy.ndimage")
