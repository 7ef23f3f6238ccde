"""One subject end to end: why the naive p-value lies and how the
selective one fixes it.

The detector picked the tested region by looking at the data, so "is the
mean inside the region different?" is rigged in favour of rejection.  The
selective test asks a fairer question: among all datasets on which the
detector would have drawn this exact region, how extreme is ours?  That
conditioning happens along a line through the observation: the network is
decomposed into exact linear pieces there, and the line coordinates that
reproduce the observed mask form the truncation set of a truncated normal.
"""

import numpy as np

from siad import (ArchitectureSpec, NoiseModel, RoiMask, TrainConfig,
                  calibrate_threshold, detect, gen_null_cohort,
                  parametric_infer, reconstruct, selective_pvalue, train)
from siad.anomaly import reconstruction_error
from siad.inference import contrast_vector, line_decomposition, sigma_of_contrast
from siad.synth import keyed_rng

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

# the subject is PURE NOISE: any detection is a false discovery
x = gen_null_cohort(1, 16, 1.0, seed=21, start_index=55)[0].reshape(-1)
cond = np.zeros(2)
mask = detect(x, cond, weights, threshold, roi)
print(f"pure-noise subject: detector flags {len(mask)} pixel(s) anyway")

eta = contrast_vector(mask, roi)
sigma_t = sigma_of_contrast(eta, noise)
line, z_obs = line_decomposition(x, eta, noise)
print(f"contrast statistic z_obs = {z_obs:+.3f} (sd {sigma_t:.3f}) -> "
      f"the flagged pixels look {abs(z_obs) / sigma_t:.1f} sigmas away")

pieces = parametric_infer(line, cond, weights)
print(f"\nalong the line through the observation the network splits into "
      f"{len(pieces)} exact linear pieces over [{line.window[0]:.1f}, "
      f"{line.window[1]:.1f}]")

outcome = selective_pvalue(x, cond, weights, threshold, roi, noise)
trunc = outcome.truncation
print(f"the detector reproduces this mask only on "
      f"{len(trunc)} interval(s) of total length {trunc.total_length():.3f}:")
for lo, hi in trunc.intervals:
    print(f"    [{lo:+.3f}, {hi:+.3f}]")
print(f"\nnaive p-value:     {outcome.p_naive:.4f}   (pretends the region was "
      f"chosen in advance)")
print(f"selective p-value: {outcome.p_selective:.4f}   (conditions on the "
      f"detector's choice)")
print(f"bonferroni:        {outcome.p_bonferroni:.4f}   (pays for all 2^"
      f"{roi.count} possible masks)")
