"""Statistically valid anomaly detection on optical-flow maps.

A small conditional VAE flags anomalous pixels in scalar flow maps; the
selective-inference machinery assigns each detection a p-value that remains
valid even though the same data chose the tested region.  See the module
docstrings for the individual layers:

* ``ops`` / ``model`` / ``training`` -- the detector's layers (the latent
  head gives the loss's KL term), the network built from them once, and
  the ELBO with its exact gradients and seeded training.
* ``parametric`` -- exact piecewise-linear decomposition of the detector
  along a line, the engine behind the conditional test.
* ``opticalflow`` -- Horn-Schunck flow and the divergence reduction.
* ``anomaly`` -- reconstruct/difference/threshold/mask detection steps.
* ``inference`` -- naive, Bonferroni, and selective p-values.
* ``synth`` -- seeded synthetic cohorts.
* ``fileio`` -- binary map/weight formats and CSV manifests.
* ``experiments`` / ``cli`` -- the reproduction harness.
"""

from .anomaly import (AnomalyMask, RoiMask, Threshold, calibrate_threshold,
                      detect, extract_mask, reconstruction_error)
from .errors import (DataError, DegenerateMaskError, MagicMismatchError,
                     ManifestError, NumericalDiagnosticError, ShapeError,
                     SiadError, TruncatedFileError, VersionMismatchError)
from .inference import (NoiseModel, TestOutcome, TruncationSet,
                        bonferroni_pvalue, contrast_vector, estimate_noise,
                        ks_statistic, line_decomposition, naive_pvalue,
                        selective_pvalue, test_statistic,
                        truncated_normal_pvalue, truncation_region)
from .model import (ArchitectureSpec, ModelWeights, init_weights, reconstruct,
                    zero_weights)
from .opticalflow import (FlowField, ImagePair, ScalarFlowMap, divergence,
                          horn_schunck, standardize_cohort,
                          standardize_conditions)
from .parametric import AffineLine, PiecewisePiece, parametric_infer
from .synth import (CohortSpec, MotionSpec, SignalSpec, Subject,
                    gen_diseased, gen_image_pairs, gen_null_cohort,
                    make_cohort)
from .training import TrainConfig, TrainResult, adam_step, train

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
