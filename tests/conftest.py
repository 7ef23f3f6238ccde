import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def within_ulps(got, want, ulps=8):
    """``got`` equals ``want`` to ``ulps`` units in the last place of the
    larger of 1 and the largest finite magnitude in ``want``; inf and nan
    entries must match exactly."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    scale = np.max(np.abs(want[finite]), initial=1.0)
    assert np.all(np.abs(got[finite] - want[finite]) <= ulps * np.spacing(scale))
