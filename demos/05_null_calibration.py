"""Small-scale replica of the validity experiment.

Pure-noise subjects go through the trained detector; a valid test's
p-values are uniform on such nulls.  The selective p-values pass a KS
check while the naive ones pile up near zero -- the signature of double
dipping.  (The acceptance suite runs this at full scale: 1000 subjects,
1% KS critical value.)
"""

import numpy as np

from siad import (ArchitectureSpec, NoiseModel, RoiMask, TrainConfig,
                  calibrate_threshold, gen_null_cohort, ks_statistic,
                  reconstruct, train)
from siad.anomaly import reconstruction_error
from siad.experiments import (HISTOGRAM_BINS, evaluate_cohort, histogram_counts, ks_critical,
                              tested_pvalues)
from siad.synth import keyed_rng

N_NULL = 150  # keep the demo quick; the acceptance suite uses 1000

arch = ArchitectureSpec(side=16, channels=(8, 16), latent_dim=4)
roi = RoiMask.centered_square(16)
noise = NoiseModel(1.0)

train_imgs = gen_null_cohort(120, 16, 1.0, seed=11)
conds = keyed_rng(11, 90, 0).normal(size=(120, 2))
weights = train([(img, conds[i]) for i, img in enumerate(train_imgs)], arch,
                TrainConfig(epochs=15, lr=1e-4, batch_size=16, seed=3)).weights
cal = gen_null_cohort(40, 16, 1.0, seed=12, start_index=200)
cal_conds = keyed_rng(12, 90, 1).normal(size=(40, 2))
threshold = calibrate_threshold(
    [reconstruction_error(x, reconstruct(x, cal_conds[i], weights))
     for i, x in enumerate(cal)], roi, 0.95)

nulls = gen_null_cohort(N_NULL, 16, 1.0, seed=13, start_index=1000)
null_conds = keyed_rng(13, 90, 2).normal(size=(N_NULL, 2))
print(f"testing {N_NULL} pure-noise subjects...")
outcomes = evaluate_cohort(nulls, null_conds, weights, threshold, roi, noise,
                           workers=2)

for method in ("naive", "selective"):
    pvals = tested_pvalues(outcomes, method)
    ks = ks_statistic(pvals)
    crit = ks_critical(len(pvals))
    frac = float(np.mean(pvals <= 0.05))
    bars = histogram_counts(pvals)
    print(f"\n{method} p-values ({len(pvals)} tested)")
    print(f"  KS vs uniform: {ks:.3f} (1% critical value {crit:.3f}) "
          f"{'OK' if ks < crit else 'REJECTED'}")
    print(f"  fraction <= 0.05: {frac:.3f} (should be about 0.05)")
    peak = bars.max()
    for i, count in enumerate(bars):
        print(f"  [{i / HISTOGRAM_BINS:.2f},{(i + 1) / HISTOGRAM_BINS:.2f}) "
              + "#" * int(round(40 * count / max(peak, 1))))
