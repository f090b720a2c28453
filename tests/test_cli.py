import json
import os

import numpy as np
import pytest

from stpz import cli
from stpz.cli import _threads, main
from stpz.codec import Method, deserialize, serialize, storage_count
from stpz.decomp import reconstruct, tensor_stp_svd_trunc
from stpz.errors import NumericError
from stpz.imaging import ImageBuffer, load_ppm, save_ppm, tensor_to_image
from stpz.synthetic import structured_test_image


@pytest.fixture
def ppm_path(tmp_path):
    img = structured_test_image(height=24, width=24, m2=4, n2=4, rank=3, seed=7)
    path = tmp_path / "in.ppm"
    path.write_bytes(save_ppm(img))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCompressDecompress:
    def test_pipeline(self, tmp_path, ppm_path, capsys):
        stpz_path = tmp_path / "out.stpz"
        out_path = tmp_path / "out.ppm"
        code, report = run(
            capsys, "compress", "--input", ppm_path, "--m2", 4, "--n2", 4,
            "--rank", "3", "--output", stpz_path,
        )
        assert code == 0
        assert set(report) == {"storage_count", "cr", "wall_time_seconds"}
        assert report["storage_count"] == storage_count(
            Method.TRUNC_STPSVD, 6, 4, 6, 4, 3, 3
        )
        code, report = run(capsys, "decompress", "--input", stpz_path, "--output", out_path)
        assert code == 0
        assert set(report) == {"imag_residue", "imag_warning"}
        assert report["imag_warning"] is False and 0 <= report["imag_residue"] < 1e-9
        code, metrics = run(
            capsys, "metrics", "--ref", ppm_path, "--test", out_path
        )
        assert code == 0
        assert metrics["psnr"] == "inf" or metrics["psnr"] > 30.0

    def test_deterministic_outputs(self, tmp_path, ppm_path, capsys):
        a, b = tmp_path / "a.stpz", tmp_path / "b.stpz"
        for path in (a, b):
            code, _ = run(
                capsys, "compress", "--input", ppm_path, "--m2", 4, "--n2", 4,
                "--rank", "2", "--output", path,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rank_broadcast(self, tmp_path, ppm_path, capsys):
        path = tmp_path / "o.stpz"
        code, _ = run(
            capsys, "compress", "--input", ppm_path, "--m2", 4, "--n2", 4,
            "--rank", "2", "--output", path,
        )
        assert code == 0
        assert deserialize(path.read_bytes()).block_rank == [2, 2, 2]

    def test_rank_full(self, tmp_path, ppm_path, capsys):
        path = tmp_path / "o.stpz"
        code, _ = run(
            capsys, "compress", "--input", ppm_path, "--m2", 4, "--n2", 4,
            "--rank", "full", "--output", path,
        )
        assert code == 0
        assert deserialize(path.read_bytes()).block_rank == [6, 6, 6]

    def test_rank_list(self, tmp_path, ppm_path, capsys):
        path = tmp_path / "o.stpz"
        code, _ = run(
            capsys, "compress", "--input", ppm_path, "--m2", 4, "--n2", 4,
            "--rank", "1,2,3", "--output", path,
        )
        assert code == 0
        assert deserialize(path.read_bytes()).block_rank == [1, 2, 3]

    def test_gray_roundtrip_writes_p5(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        img = ImageBuffer(rng.integers(0, 256, size=(12, 12, 1), dtype=np.uint8))
        src = tmp_path / "g.pgm"
        src.write_bytes(save_ppm(img))
        packed = tmp_path / "g.stpz"
        out = tmp_path / "g_out.pgm"
        code, _ = run(
            capsys, "compress", "--input", src, "--m2", 4, "--n2", 4,
            "--rank", "full", "--output", packed,
        )
        assert code == 0
        code, _ = run(capsys, "decompress", "--input", packed, "--output", out)
        assert code == 0
        assert out.read_bytes().startswith(b"P5\n")
        assert load_ppm(out.read_bytes()).channels == 1

    @pytest.mark.parametrize("channels", [1, 3])
    def test_decompress_writes_the_reference_image(self, tmp_path, capsys, channels):
        rng = np.random.default_rng(channels)
        img = ImageBuffer(rng.integers(0, 256, size=(16, 24, channels), dtype=np.uint8))
        packed = tmp_path / "o.stpz"
        packed.write_bytes(serialize(tensor_stp_svd_trunc(img.samples, 4, 4, [2] * channels)))
        out = tmp_path / "o.ppm"
        code, _ = run(capsys, "decompress", "--input", packed, "--output", out)
        assert code == 0
        want = tensor_to_image(reconstruct(deserialize(packed.read_bytes())))
        assert out.read_bytes() == save_ppm(want)

    def test_decompress_reports_the_imaginary_residue(self, tmp_path, capsys):
        # Complex input leaves non-conjugate slices: the reconstruction keeps
        # an imaginary part, reported as a JSON field and warned about.
        rng = np.random.default_rng(5)
        A = rng.uniform(0, 255, (8, 8, 3)) + 1j * rng.uniform(0, 20, (8, 8, 3))
        packed = tmp_path / "c.stpz"
        packed.write_bytes(serialize(tensor_stp_svd_trunc(A, 2, 2, [4, 4, 4])))
        out = tmp_path / "c.ppm"
        code = main(["decompress", "--input", str(packed), "--output", str(out)])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 0 and out.exists()
        assert report["imag_warning"] is True
        imag = np.abs(reconstruct(deserialize(packed.read_bytes())).imag).max()
        assert report["imag_residue"] == pytest.approx(imag, rel=1e-9)
        assert "warning: reconstruction had non-negligible imaginary part" in captured.err

    def test_threads_env(self, tmp_path, ppm_path, capsys, monkeypatch):
        base = tmp_path / "x.stpz"
        code, _ = run(
            capsys, "compress", "--input", ppm_path, "--m2", 4, "--n2", 4,
            "--rank", "2", "--output", base,
        )
        assert code == 0
        monkeypatch.setenv("STPZ_THREADS", "2")
        threaded = tmp_path / "y.stpz"
        code, _ = run(
            capsys, "compress", "--input", ppm_path, "--m2", 4, "--n2", 4,
            "--rank", "2", "--output", threaded,
        )
        assert code == 0
        assert base.read_bytes() == threaded.read_bytes()

    def test_threads_default_is_one_per_cpu(self, monkeypatch):
        monkeypatch.delenv("STPZ_THREADS", raising=False)
        assert _threads(3) == max(1, min(os.cpu_count() or 1, 3))
        monkeypatch.setenv("STPZ_THREADS", "0")
        assert _threads(3) == max(1, min(os.cpu_count() or 1, 3))
        monkeypatch.setenv("STPZ_THREADS", "2")
        assert _threads(3) == 2 and _threads(1) == 1


class TestExitCodes:
    def test_divisibility_exit_2_names_dimension(self, tmp_path, ppm_path, capsys):
        code = main([
            "compress", "--input", str(ppm_path), "--m2", "5", "--n2", "4",
            "--rank", "2", "--output", str(tmp_path / "x.stpz"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "image height 24" in err and "5" in err

    def test_missing_input_exit_3(self, tmp_path, capsys):
        code = main([
            "compress", "--input", str(tmp_path / "nope.ppm"), "--m2", "4",
            "--n2", "4", "--rank", "2", "--output", str(tmp_path / "x.stpz"),
        ])
        assert code == 3

    def test_corrupt_container_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.stpz"
        bad.write_bytes(b"NOPE" + bytes(64))
        assert main(["decompress", "--input", str(bad), "--output", str(tmp_path / "o.ppm")]) == 4
        assert main(["info", "--input", str(bad)]) == 4

    def test_non_finite_container_exit_4(self, tmp_path, ppm_path, capsys):
        packed = tmp_path / "o.stpz"
        run(
            capsys, "compress", "--input", ppm_path, "--m2", 4, "--n2", 4,
            "--rank", "2", "--output", packed,
        )
        blob = bytearray(packed.read_bytes())
        sigma_at = 28 + 4 * 3 + 16 * 6 * 2  # slice 0's sigma, after U (6 x 2)
        blob[sigma_at : sigma_at + 8] = np.float64(np.nan).tobytes()
        packed.write_bytes(bytes(blob))
        out = tmp_path / "o.ppm"
        assert main(["decompress", "--input", str(packed), "--output", str(out)]) == 4
        assert not out.exists()
        assert main(["info", "--input", str(packed)]) == 4
        assert f"offset {sigma_at}" in capsys.readouterr().err

    def test_overflowing_container_exit_4(self, tmp_path, ppm_path, capsys):
        # Finite factors whose product overflows: no garbage image is written.
        packed = tmp_path / "o.stpz"
        run(
            capsys, "compress", "--input", ppm_path, "--m2", 4, "--n2", 4,
            "--rank", "2", "--output", packed,
        )
        F = deserialize(packed.read_bytes())
        for s in F.slices:
            s.sigma[:] = 1e300
            s.C[:] = 1e300
        packed.write_bytes(serialize(F))
        out = tmp_path / "o.ppm"
        assert main(["decompress", "--input", str(packed), "--output", str(out)]) == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "not finite" in captured.err

    @pytest.mark.parametrize(
        "exc, code", [(NumericError("svd input contains NaN or Inf"), 4), (MemoryError(), 5)]
    )
    def test_numeric_and_memory_errors_map_to_exit_codes(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_info", fail)
        assert main(["info", "--input", "x.stpz"]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_non_image_container_exit_4(self, tmp_path, capsys):
        A = np.random.default_rng(0).random((8, 8, 2))
        packed = tmp_path / "two.stpz"
        packed.write_bytes(serialize(tensor_stp_svd_trunc(A, 2, 2, [2, 2])))
        out = tmp_path / "o.ppm"
        assert main(["decompress", "--input", str(packed), "--output", str(out)]) == 4
        assert not out.exists()
        assert "offset 24" in capsys.readouterr().err
        code, report = run(capsys, "info", "--input", packed)
        assert code == 0 and report["l"] == 2

    def test_corrupt_image_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P9\n1 1\n255\nxxx")
        code = main(["metrics", "--ref", str(bad), "--test", str(bad)])
        assert code == 4

    def test_bad_rank_exit_2(self, tmp_path, ppm_path, capsys):
        code = main([
            "compress", "--input", str(ppm_path), "--m2", "4", "--n2", "4",
            "--rank", "99", "--output", str(tmp_path / "x.stpz"),
        ])
        assert code == 2


class TestMetrics:
    def test_identical_sentinels(self, ppm_path, capsys):
        code, out = run(capsys, "metrics", "--ref", ppm_path, "--test", ppm_path)
        assert code == 0
        assert out == {"psnr": "inf", "ssim": 1.0, "related_error": 0.0}

    def test_black_vs_white(self, tmp_path, capsys):
        black = ImageBuffer(np.zeros((12, 12, 3), dtype=np.uint8))
        white = ImageBuffer(np.full((12, 12, 3), 255, dtype=np.uint8))
        pb, pw = tmp_path / "b.ppm", tmp_path / "w.ppm"
        pb.write_bytes(save_ppm(black))
        pw.write_bytes(save_ppm(white))
        code, out = run(capsys, "metrics", "--ref", pb, "--test", pw)
        assert code == 0
        assert out["psnr"] == 0.0


class TestBenchInfo:
    def test_bench_shapes_match(self, ppm_path, capsys):
        reports = {}
        for method in ("stpsvd", "tsvd"):
            code, rep = run(
                capsys, "bench", "--input", ppm_path, "--method", method,
                "--m2", 4, "--n2", 4, "--rank", "2",
            )
            assert code == 0
            reports[method] = rep
        keys = {
            "method", "m2", "n2", "R", "wall_time_seconds", "related_error",
            "psnr_db", "ssim", "storage_count", "cr",
        }
        assert set(reports["stpsvd"]) == keys == set(reports["tsvd"])
        assert reports["stpsvd"]["storage_count"] == storage_count(
            Method.TRUNC_STPSVD, 6, 4, 6, 4, 3, 2
        )
        assert reports["tsvd"]["storage_count"] == storage_count(
            Method.TRUNC_TSVD, 6, 4, 6, 4, 3, 2
        )

    def test_info_dump(self, tmp_path, ppm_path, capsys):
        path = tmp_path / "o.stpz"
        run(
            capsys, "compress", "--input", ppm_path, "--m2", 4, "--n2", 4,
            "--rank", "1,2,3", "--output", path,
        )
        code, info = run(capsys, "info", "--input", path)
        assert code == 0
        assert info["m1"] == 6 and info["m2"] == 4 and info["l"] == 3
        assert info["R"] == [1, 2, 3]
        assert info["flags"] == {"real_input": True}
        assert info["storage_count"] == storage_count(
            Method.TRUNC_STPSVD, 6, 4, 6, 4, 3, [1, 2, 3]
        )
