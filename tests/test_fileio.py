"""Round trips and failure diagnostics for every on-disk format."""

import struct

import numpy as np
import pytest

from siad.anomaly import AnomalyMask, RoiMask, Threshold
from siad.errors import (DataError, MagicMismatchError, ManifestError,
                         TruncatedFileError, VersionMismatchError)
from siad.fileio import (read_cohort_manifest, read_map, read_mask_csv,
                         read_noise, read_roi, read_threshold, read_weights,
                         write_cohort_manifest, write_map, write_mask_csv,
                         write_noise, write_roi, write_threshold, write_weights)
from siad.inference import NoiseModel
from siad.model import ArchitectureSpec, init_weights


class TestMapFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(1, 5, 7))
        path = tmp_path / "map.bin"
        write_map(path, arr)
        back = read_map(path)
        np.testing.assert_array_equal(back, arr)

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "map.bin"
        write_map(path, np.zeros((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(MagicMismatchError):
            read_map(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "map.bin"
        write_map(path, np.zeros((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            read_map(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "map.bin"
        write_map(path, np.ones((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TruncatedFileError):
            read_map(path)

    @pytest.mark.parametrize("side", [100_000, 2**32 - 1])
    def test_declared_size_beyond_file_is_truncation(self, tmp_path, side):
        # a header alone, declaring far more pixels than memory could hold
        path = tmp_path / "map.bin"
        path.write_bytes(b"SIIM" + struct.pack("<III", 1, side, side))
        with pytest.raises(TruncatedFileError):
            read_map(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_data_error(self, tmp_path, bad):
        path = tmp_path / "map.bin"
        values = np.zeros((3, 3))
        values[1, 2] = bad
        write_map(path, values)
        with pytest.raises(DataError, match="map.bin: map has non-finite values"):
            read_map(path)


class TestRoiFormat:
    def test_roundtrip(self, tmp_path):
        roi = RoiMask.centered_square(8)
        path = tmp_path / "roi.bin"
        write_roi(path, roi, 8)
        back = read_roi(path)
        np.testing.assert_array_equal(back.member, roi.member)

    def test_non_binary_values_rejected(self, tmp_path):
        path = tmp_path / "roi.bin"
        write_map(path, np.full((4, 4), 0.5))
        with pytest.raises(DataError):
            read_roi(path)


class TestWeightsFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        arch = ArchitectureSpec(side=8, channels=(3, 5), latent_dim=3)
        weights = init_weights(arch, 77)
        path = tmp_path / "weights.bin"
        write_weights(path, weights)
        back = read_weights(path)
        assert back.arch == arch
        for name in weights.params:
            np.testing.assert_array_equal(back[name], weights[name])

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "weights.bin"
        write_weights(path, init_weights(ArchitectureSpec(side=4, channels=(2,),
                                                          latent_dim=2), 0))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"SIIM"  # a map magic is not a weights magic
        path.write_bytes(bytes(raw))
        with pytest.raises(MagicMismatchError):
            read_weights(path)

    def test_truncated_layer(self, tmp_path):
        path = tmp_path / "weights.bin"
        write_weights(path, init_weights(ArchitectureSpec(side=4, channels=(2,),
                                                          latent_dim=2), 0))
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(TruncatedFileError):
            read_weights(path)

    def test_huge_declared_channel_count_is_truncation(self, tmp_path):
        path = tmp_path / "weights.bin"
        write_weights(path, init_weights(ArchitectureSpec(side=4, channels=(2,),
                                                          latent_dim=2), 0))
        raw = bytearray(path.read_bytes())
        raw[16:20] = struct.pack("<I", 2**32 - 1)  # the first block's channels
        path.write_bytes(bytes(raw))
        with pytest.raises(TruncatedFileError):
            read_weights(path)


class TestMaskCsv:
    def test_roundtrip(self, tmp_path):
        mask = AnomalyMask(np.array([3, 17, 42]))
        path = tmp_path / "mask.csv"
        write_mask_csv(path, mask)
        np.testing.assert_array_equal(read_mask_csv(path).pixels, mask.pixels)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("wrong\n1\n")
        with pytest.raises(ManifestError):
            read_mask_csv(path)


class TestManifests:
    def test_cohort_roundtrip_preserves_rows(self, tmp_path):
        entries = [("a-01", "train", "images/a.bin", 71.5, 2.0, ""),
                   ("d-01", "diseased", "images/d.bin", 80.25, 1.5, "truth.bin")]
        path = tmp_path / "manifest.csv"
        write_cohort_manifest(path, entries)
        rows = read_cohort_manifest(path)
        assert len(rows) == 2
        assert rows[0]["id"] == "a-01" and rows[0]["truth_path"] is None
        assert rows[1]["truth_path"] == "truth.bin"
        assert rows[1]["age"] == 80.25

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,role\n1,train\n")
        with pytest.raises(ManifestError):
            read_cohort_manifest(path)

    def test_malformed_row_field_count(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,role,path,age,time_gap,truth_path\nx,train,p.bin,70\n")
        with pytest.raises(ManifestError):
            read_cohort_manifest(path)

    def test_malformed_numeric_field(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,role,path,age,time_gap,truth_path\nx,train,p.bin,old,2.0,\n")
        with pytest.raises(ManifestError):
            read_cohort_manifest(path)

    def test_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_bytes(b"id,role,path,age,time_gap,truth_path\n\xffx,train,p.bin,70,2.0,\n")
        with pytest.raises(ManifestError, match="manifest.csv"):
            read_cohort_manifest(path)


class TestCalibrationArtifacts:
    def test_threshold_roundtrip(self, tmp_path):
        thr = Threshold(value=1.2345, source_quantile=0.95, calibration_count=3200)
        path = tmp_path / "threshold.json"
        write_threshold(path, thr)
        back = read_threshold(path)
        assert back == thr

    def test_noise_roundtrip(self, tmp_path):
        noise = NoiseModel(sigma2=0.98, provenance="estimated")
        path = tmp_path / "noise.json"
        write_noise(path, noise)
        assert read_noise(path) == noise

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "threshold.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            read_threshold(path)
