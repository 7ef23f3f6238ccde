"""On-disk formats: binary maps and weights, CSV manifests and masks.

Map files: magic ``SIIM``, format version u32, height u32, width u32, then
height*width little-endian float64 values.  ROI files use the same layout
with values restricted to {0.0, 1.0}.

Weight files: magic ``SIAD``, format version u32, then the architecture as
little-endian u32 fields (side, block count, per-block channels, latent
dimension, kernel size, condition count), then every layer's float64 values
in declaration order: encoder conv weight/bias per block, latent mean head
weight/bias, log-variance head weight/bias, decoder dense weight/bias, then
decoder conv weight/bias from the deepest block to the shallowest.

CSV files (cohort manifests, anomaly masks with the one column
``pixel_index``, per-subject results) are ``write_rows`` files: a header
line, then one line per row, read back by ``read_rows``.  The threshold and
noise files are small JSON objects.

All round trips are bit-exact.  Magic mismatch, version mismatch, truncated
payload (including a declared size larger than the file), and malformed
manifest rows raise distinct errors.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .anomaly import AnomalyMask, RoiMask, Threshold
from .errors import (DataError, MagicMismatchError, ManifestError,
                     TruncatedFileError, VersionMismatchError)
from .inference import NoiseModel
from .model import ArchitectureSpec, ModelWeights

MAP_MAGIC = b"SIIM"
WEIGHTS_MAGIC = b"SIAD"
FORMAT_VERSION = 1

COHORT_MANIFEST_HEADER = ["id", "role", "path", "age", "time_gap", "truth_path"]
MASK_HEADER = ["pixel_index"]
RESULT_HEADER = ["id", "mask_size", "t_obs", "sigma_t", "p_naive",
                 "p_bonferroni", "p_selective", "interval_count", "status"]


def _read_exact(fh, n: int, path, what: str) -> bytes:
    """``n`` bytes from ``fh``; a size the file cannot hold is refused before
    anything is read, so a corrupt header cannot ask for a huge buffer."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    data = fh.read(n) if n <= left else b""
    if len(data) != n:
        raise TruncatedFileError(f"{path}: ended while reading {what}")
    return data


def _check_magic(fh, magic: bytes, path):
    got = fh.read(len(magic))
    if got != magic:
        raise MagicMismatchError(f"{path}: expected magic {magic!r}, found {got!r}")
    version = struct.unpack("<I", _read_exact(fh, 4, path, "version"))[0]
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: unsupported format version {version}")


def write_map(path, values: np.ndarray):
    """Writes a (1, H, W) or (H, W) map in the binary map format."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise DataError(f"maps must be 2-D, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(MAP_MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f8").tobytes())


def read_map(path) -> np.ndarray:
    """Reads a map file back as (1, H, W); every value must be finite."""
    with open(path, "rb") as fh:
        _check_magic(fh, MAP_MAGIC, path)
        h, w = struct.unpack("<II", _read_exact(fh, 8, path, "dimensions"))
        payload = _read_exact(fh, 8 * h * w, path, "pixel data")
    values = np.frombuffer(payload, dtype="<f8").reshape(1, h, w).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: map has non-finite values")
    return values


def write_roi(path, roi: RoiMask, side: int):
    write_map(path, roi.member.reshape(side, side).astype(np.float64))


def read_roi(path) -> RoiMask:
    values = read_map(path)
    if not np.all((values == 0.0) | (values == 1.0)):
        raise DataError(f"{path}: ROI values must be exactly 0.0 or 1.0")
    return RoiMask(values != 0.0)


def write_weights(path, weights: ModelWeights):
    arch = weights.arch
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fields = [FORMAT_VERSION, arch.side, arch.n_blocks, *arch.channels,
                  arch.latent_dim, arch.kernel_size, arch.cond_count]
        fh.write(struct.pack(f"<{len(fields)}I", *fields))
        for name, _ in arch.layer_shapes():
            fh.write(weights[name].astype("<f8").tobytes())


def read_weights(path) -> ModelWeights:
    with open(path, "rb") as fh:
        _check_magic(fh, WEIGHTS_MAGIC, path)
        side, n_blocks = struct.unpack("<II", _read_exact(fh, 8, path, "architecture"))
        rest = struct.unpack(f"<{n_blocks + 3}I",
                             _read_exact(fh, 4 * (n_blocks + 3), path, "architecture"))
        arch = ArchitectureSpec(side=side, channels=rest[:n_blocks],
                                latent_dim=rest[n_blocks], kernel_size=rest[n_blocks + 1],
                                cond_count=rest[n_blocks + 2])
        params = {}
        for name, shape in arch.layer_shapes():
            count = math.prod(shape)
            payload = _read_exact(fh, 8 * count, path, f"layer {name}")
            params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    return ModelWeights(arch, params)


def write_rows(path, header, rows):
    """A CSV file: ``header``, then one line per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path, header, kinds=None):
    """The rows of a CSV file written by ``write_rows`` with ``header``, each
    field converted by its column's entry of ``kinds`` (default: kept as
    text).  A different header, a row of another length, a field that does
    not convert or a file that is not UTF-8 is a ManifestError."""
    kinds = kinds or [str] * len(header)
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            lines = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: not UTF-8 text: {exc}") from None
    got = lines[0] if lines else None
    if got != header:
        raise ManifestError(f"{path}: expected header {header}, found {got}")
    rows = []
    for lineno, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ManifestError(f"{path}:{lineno}: expected {len(header)} fields, "
                                f"found {len(row)}")
        try:
            rows.append([kind(v) for kind, v in zip(kinds, row)])
        except ValueError as exc:
            raise ManifestError(f"{path}:{lineno}: malformed field: {exc}") from None
    return rows


def write_mask_csv(path, mask: AnomalyMask):
    write_rows(path, MASK_HEADER, [[int(i)] for i in mask.pixels])


def read_mask_csv(path) -> AnomalyMask:
    pixels = [r[0] for r in read_rows(path, MASK_HEADER, [int])]
    return AnomalyMask(np.asarray(pixels, dtype=np.int64))


def write_cohort_manifest(path, entries):
    """``entries``: (id, role, path, age, time_gap, truth_path) tuples;
    ``truth_path`` is empty for subjects without a planted region."""
    write_rows(path, COHORT_MANIFEST_HEADER,
               [[e[0], e[1], str(e[2]), repr(float(e[3])), repr(float(e[4])),
                 str(e[5]) if e[5] else ""] for e in entries])


def read_cohort_manifest(path):
    rows = read_rows(path, COHORT_MANIFEST_HEADER, [str, str, str, float, float, str])
    return [{"id": r[0], "role": r[1], "path": r[2], "age": r[3], "time_gap": r[4],
             "truth_path": r[5] or None} for r in rows]


def write_result_rows(path, rows):
    """Per-subject outcome rows: see RESULT_HEADER for the column layout."""
    write_rows(path, RESULT_HEADER, rows)


def read_result_rows(path):
    return read_rows(path, RESULT_HEADER)


def result_row(subject_id: str, outcome) -> list:
    def fmt(v):
        return "" if v is None else repr(float(v))

    return [subject_id, str(outcome.mask_size), fmt(outcome.t_obs),
            fmt(outcome.sigma_t), fmt(outcome.p_naive), fmt(outcome.p_bonferroni),
            fmt(outcome.p_selective), str(outcome.interval_count), outcome.status]


def _write_json(path, fields: dict):
    Path(path).write_text(json.dumps(fields, indent=2) + "\n")


def _read_json(path, what: str, build):
    """``build`` applied to the JSON object in ``path``; any missing key or
    unconvertible value is a DataError naming ``what``."""
    try:
        return build(json.loads(Path(path).read_text()))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {what} file: {exc}") from exc


def write_threshold(path, threshold: Threshold):
    _write_json(path, {"value": threshold.value,
                       "source_quantile": threshold.source_quantile,
                       "calibration_count": threshold.calibration_count})


def read_threshold(path) -> Threshold:
    return _read_json(path, "threshold", lambda d: Threshold(
        value=float(d["value"]), source_quantile=float(d["source_quantile"]),
        calibration_count=int(d["calibration_count"])))


def write_noise(path, noise: NoiseModel):
    _write_json(path, {"sigma2": noise.sigma2, "provenance": noise.provenance})


def read_noise(path) -> NoiseModel:
    return _read_json(path, "noise", lambda d: NoiseModel(
        sigma2=float(d["sigma2"]), provenance=str(d["provenance"])))
