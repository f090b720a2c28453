import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from helpers import rank_zero_container, textured_samples
from stpz import cli, decomp
from stpz.cli import main, run_method
from stpz.codec import Method, deserialize, serialize, storage_count
from stpz.decomp import (
    MatStpSvd,
    TensorStpSvd,
    decode_samples,
    reconstruct,
    tensor_stp_svd_trunc,
)
from stpz.errors import DimensionError, NumericError
from stpz.imaging import ImageBuffer, load_ppm, save_ppm, tensor_to_image
from stpz.synthetic import structured_test_image


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def ppm_path(tmp_path):
    img = structured_test_image(height=24, width=24, m2=4, n2=4, rank=3, seed=7)
    path = tmp_path / "in.ppm"
    path.write_bytes(save_ppm(img))
    return path


def strict_json(text):
    """json.loads that rejects Infinity, -Infinity and NaN, which RFC 8259
    does not allow."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, strict_json(out) if out.strip() else None


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
        report = strict_json(captured.out)
        assert code == 0 and out.exists()
        assert report["imag_warning"] is True
        imag = np.abs(reconstruct(deserialize(packed.read_bytes())).imag).max()
        assert report["imag_residue"] == pytest.approx(imag, rel=1e-9)
        assert "warning: reconstruction had non-negligible imaginary part" in captured.err

    @pytest.mark.parametrize("value", ["2", "0", "two", "-1"])
    def test_threads_env_is_ignored(self, tmp_path, ppm_path, capsys, monkeypatch, value):
        shape = ("--m2", 4, "--n2", 4, "--rank", "2")
        monkeypatch.delenv("STPZ_THREADS", raising=False)
        base = tmp_path / "x.stpz"
        assert run(capsys, "compress", "--input", ppm_path, *shape, "--output", base)[0] == 0
        monkeypatch.setenv("STPZ_THREADS", value)
        other = tmp_path / "y.stpz"
        assert run(capsys, "compress", "--input", ppm_path, *shape, "--output", other)[0] == 0
        assert base.read_bytes() == other.read_bytes()

    def test_slices_are_factored_on_the_calling_thread(
        self, tmp_path, ppm_path, capsys, monkeypatch
    ):
        idents, factor = [], decomp.mat_stp_svd_trunc

        def record(*args, **kwargs):
            idents.append(threading.get_ident())
            return factor(*args, **kwargs)

        monkeypatch.setattr(decomp, "mat_stp_svd_trunc", record)
        monkeypatch.setenv("STPZ_THREADS", "2")
        shape = ("--m2", 4, "--n2", 4, "--rank", "2")
        code, _ = run(
            capsys, "compress", "--input", ppm_path, *shape, "--output", tmp_path / "x.stpz"
        )
        assert code == 0
        code, _ = run(capsys, "bench", "--input", ppm_path, "--method", "stpsvd", *shape)
        assert code == 0
        assert idents == [threading.get_ident()] * 6


class TestExitCodes:
    def test_divisibility_exit_2_names_dimension(self, tmp_path, ppm_path, capsys):
        for m2, n2, want in [(5, 4, "m2 = 5 does not divide height 24"),
                             (4, 7, "n2 = 7 does not divide width 24")]:
            code = main([
                "compress", "--input", str(ppm_path), "--m2", str(m2), "--n2", str(n2),
                "--rank", "2", "--output", str(tmp_path / "x.stpz"),
            ])
            err = capsys.readouterr().err
            assert code == 2
            assert want in err and "valid choices include [1, 2, 3, 4, 6, 8, 12, 24]" in err

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

    def test_nonzero_reserved_bytes_exit_4(self, tmp_path, ppm_path, capsys):
        packed, out = tmp_path / "o.stpz", tmp_path / "o.ppm"
        run(
            capsys, "compress", "--input", ppm_path, "--m2", 4, "--n2", 4,
            "--rank", "2", "--output", packed,
        )
        blob = bytearray(packed.read_bytes())
        blob[7] = 0x80
        packed.write_bytes(bytes(blob))
        assert main(["decompress", "--input", str(packed), "--output", str(out)]) == 4
        assert "reserved header bytes are nonzero (at byte offset 6)" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_zero_container_exit_4(self, tmp_path, capsys):
        # 88 bytes that claim a 2000 x 2000 RGB image: rejected at the rank
        # vector, before anything of that size is allocated.
        packed, out = tmp_path / "bomb.stpz", tmp_path / "bomb.ppm"
        packed.write_bytes(rank_zero_container())
        for argv in (["info"], ["decompress", "--output", str(out)]):
            assert main([*argv, "--input", str(packed)]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and "offset 28" in errors[0]
        assert not out.exists()

    def test_container_over_the_pixel_cap_exit_4(self, tmp_path, capsys):
        # 524,376 bytes that claim a 16385 x 16385 gray image, a 268 MB PGM:
        # refused at the dims by the pixel cap, before any payload is read.
        n = 16385
        one = MatStpSvd(U=np.eye(n, 1), sigma=np.ones(1), C=np.ones((1, 1)), V=np.eye(n, 1))
        packed, out = tmp_path / "big.stpz", tmp_path / "big.pgm"
        packed.write_bytes(serialize(TensorStpSvd(slices=[one], real_input=True)))
        assert packed.stat().st_size == 524_376
        for argv in (["info"], ["decompress", "--output", str(out)]):
            assert main([*argv, "--input", str(packed)]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and "offset 8" in errors[0]
        assert not out.exists()

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

    @pytest.mark.parametrize("channels", [1, 3])
    def test_overflowing_samples_with_a_finite_residue_exit_4(self, tmp_path, capsys, channels):
        # Finite factors, and only B ⊗ C overflows.  Gray factors are real,
        # so the imaginary part is exactly 0; RGB's slices 1 and 2 stay a
        # conjugate pair, so nothing but the samples' own check sees it.
        rng = np.random.default_rng(40 + channels)
        A = textured_samples(rng, 16, 16, channels)
        F = tensor_stp_svd_trunc(A, 4, 4, [2] * channels)
        for s in F.slices:
            s.sigma[:] = 1e300
            s.C[:] = 1e300
        packed, out = tmp_path / "o.stpz", tmp_path / "o.ppm"
        packed.write_bytes(serialize(F))
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

    def test_image_header_without_payload_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n1 1\n255")
        assert main(["metrics", "--ref", str(bad), "--test", str(bad)]) == 4
        assert "missing whitespace after maxval" in capsys.readouterr().err

    def test_bad_rank_exit_2(self, tmp_path, ppm_path, capsys):
        code = main([
            "compress", "--input", str(ppm_path), "--m2", "4", "--n2", "4",
            "--rank", "99", "--output", str(tmp_path / "x.stpz"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "bad",
        [
            ("--m2", "5"), ("--n2", "7"), ("--m2", "0"), ("--m2", "-4"),
            ("--rank", "0"), ("--rank", "99"), ("--rank", "1,2"), ("--rank", "x"),
        ],
    )
    @pytest.mark.parametrize("command", ["compress", "stpsvd", "tsvd"])
    def test_bad_shape_or_rank_exit_2_without_output(self, tmp_path, capsys, command, bad):
        src, packed = tmp_path / "in.ppm", tmp_path / "x.stpz"
        src.write_bytes(save_ppm(structured_test_image()))
        opts = {"--m2": "4", "--n2": "4", "--rank": "2", **dict([bad])}
        argv = [a for kv in opts.items() for a in kv]
        if command == "compress":
            argv = ["compress", "--input", str(src), *argv, "--output", str(packed)]
        else:
            argv = ["bench", "--input", str(src), "--method", command, *argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not packed.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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
        # ||ref||_F = 0: the relative error is infinite, and prints as psnr's
        # infinity does.
        assert out["related_error"] == "inf"


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

    @pytest.mark.parametrize("method", ["stpsvd", "tsvd"])
    def test_lossless_bench_report(self, tmp_path, capsys, method):
        src = tmp_path / "in.ppm"
        samples = np.random.default_rng(41).integers(0, 256, (16, 12, 3), dtype=np.uint8)
        src.write_bytes(save_ppm(ImageBuffer(samples)))
        code, rep = run(
            capsys, "bench", "--input", src, "--method", method,
            "--m2", 1, "--n2", 1, "--rank", "full",
        )
        assert code == 0
        assert list(rep) == [
            "method", "m2", "n2", "R", "wall_time_seconds", "related_error",
            "psnr_db", "ssim", "storage_count", "cr",
        ]
        assert rep["method"] == method and rep["R"] == [12, 12, 12]
        assert rep["psnr_db"] == "inf" and rep["related_error"] == 0.0
        assert isinstance(rep["cr"], str) and float(rep["cr"]) > 0.0
        report = run_method(ImageBuffer(samples), method, 1, 1, rep["R"])
        assert report.to_json()["psnr_db"] == "inf"

    def test_full_tsvd_rank_ignores_the_blocks(self, tmp_path, capsys):
        # T-SVD's full rank is min(height, width), not the STP route's
        # min(m1, n1) = 3 at m2 = n2 = 4, which would be lossy.
        src = tmp_path / "in.ppm"
        samples = np.random.default_rng(42).integers(0, 256, (16, 12, 3), dtype=np.uint8)
        src.write_bytes(save_ppm(ImageBuffer(samples)))
        code, rep = run(
            capsys, "bench", "--input", src, "--method", "tsvd",
            "--m2", 4, "--n2", 4, "--rank", "full",
        )
        assert code == 0
        assert rep["R"] == [12, 12, 12] and rep["psnr_db"] == "inf"

    @pytest.mark.parametrize("channels", [3, 1])
    def test_bench_scores_the_image_decompress_writes(
        self, tmp_path, capsys, monkeypatch, channels
    ):
        calls = []
        monkeypatch.setattr(
            cli, "decode_samples", lambda F: calls.append(F.dims) or decode_samples(F)
        )
        src, packed, out = tmp_path / "in.ppm", tmp_path / "o.stpz", tmp_path / "o.ppm"
        samples = textured_samples(np.random.default_rng(40 + channels), 64, 48, channels)
        src.write_bytes(save_ppm(ImageBuffer(samples)))
        shape = ("--m2", 4, "--n2", 4, "--rank", 3)
        assert run(capsys, "compress", "--input", src, *shape, "--output", packed)[0] == 0
        assert run(capsys, "decompress", "--input", packed, "--output", out)[0] == 0
        code, metrics = run(capsys, "metrics", "--ref", src, "--test", out)
        assert code == 0 and metrics["psnr"] != "inf"
        code, bench = run(capsys, "bench", "--input", src, "--method", "stpsvd", *shape)
        assert code == 0
        assert bench["psnr_db"] == metrics["psnr"]
        assert bench["ssim"] == metrics["ssim"]
        assert bench["related_error"] == metrics["related_error"]
        assert calls == [(16, 4, 12, 4, channels)] * 2

    def test_run_method_rejects_blocks_that_do_not_tile(self):
        # 24 // 5 truncates: T-SVD's storage would read 270 scalars, not 294.
        img = structured_test_image(height=24, width=24, m2=4, n2=4, rank=3, seed=7)
        with pytest.raises(DimensionError, match="m2 = 5 does not divide height 24"):
            run_method(img, "tsvd", 5, 4, [2] * 3)

    def test_run_method_rejects_unknown_method(self):
        img = structured_test_image(height=24, width=24, m2=4, n2=4, rank=3, seed=7)
        with pytest.raises(ValueError, match="got 'svd-typo'"):
            run_method(img, "svd-typo", 4, 4, [2] * 3)

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

    @pytest.mark.parametrize(
        "channels, rank", [(3, "2"), (3, "1,3,2"), (1, "2"), (1, "full")]
    )
    def test_compress_reports_what_info_reads(self, tmp_path, capsys, channels, rank):
        rng = np.random.default_rng(channels)
        src, packed = tmp_path / "in.ppm", tmp_path / "o.stpz"
        src.write_bytes(save_ppm(ImageBuffer(textured_samples(rng, 24, 16, channels))))
        code, report = run(
            capsys, "compress", "--input", src, "--m2", 4, "--n2", 4,
            "--rank", rank, "--output", packed,
        )
        assert code == 0 and list(report) == ["storage_count", "cr", "wall_time_seconds"]
        code, info = run(capsys, "info", "--input", packed)
        assert code == 0
        assert report["storage_count"] == info["storage_count"]
        assert report["cr"] == info["cr"]


class TestProgram:
    def test_module_runs_as_a_program(self, tmp_path, ppm_path):
        # ``python -m stpz.cli`` runs the __main__ guard, which calls of
        # main() in this process never reach: its exit status is main()'s.
        path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

        def stpz(*argv):
            return subprocess.run(
                [sys.executable, "-m", "stpz.cli", *map(str, argv)],
                env=env, capture_output=True, text=True, timeout=120,
            )

        packed, out = tmp_path / "o.stpz", tmp_path / "o.ppm"
        blocks = ("--m2", 4, "--n2", 4, "--rank", 2)
        done = stpz("compress", "--input", ppm_path, *blocks, "--output", packed)
        assert done.returncode == 0 and set(strict_json(done.stdout)) >= {"storage_count", "cr"}
        done = stpz("decompress", "--input", packed, "--output", out)
        assert done.returncode == 0 and done.stderr == ""
        want, _ = decode_samples(deserialize(packed.read_bytes()))
        assert np.array_equal(load_ppm(out.read_bytes()).samples, want)
        done = stpz("compress", "--input", ppm_path, "--m2", 5, "--n2", 4, "--rank", 2,
                    "--output", tmp_path / "x.stpz")
        assert done.returncode == 2 and done.stderr.startswith("error: m2 = 5 does not divide")
        assert not (tmp_path / "x.stpz").exists()

    def test_parser_is_built_once_and_handlers_are_looked_up_per_call(
        self, monkeypatch, tmp_path, ppm_path
    ):
        # The parser binds no handler, so a cmd_* patched (or wrapped by a
        # tracer) after the parser was built is still the one that runs.
        cli._build_parser.cache_clear()
        packed = tmp_path / "o.stpz"
        argv = ["compress", "--input", str(ppm_path), "--m2", "4", "--n2", "4", "--rank", "2"]
        assert main([*argv, "--output", str(packed)]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_info", lambda args: seen.append(args.input) or 0)
        assert main(["info", "--input", str(packed)]) == 0
        assert seen == [str(packed)]
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
