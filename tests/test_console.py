"""``stpz`` in its own interpreter, run as the installed console script runs
it, under PYTHONWARNINGS=error::RuntimeWarning: what only a separate process
shows.  Two processes write the same bytes, every command's stdout is strict
JSON, and an error exits with its code and writes no file.  The checks of what
the commands compute run in process, in test_cli.py."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import textured_samples
from stpz.codec import deserialize, serialize
from stpz.decomp import IMAG_TOL, decode_samples, reconstruct, tensor_stp_svd_trunc
from stpz.imaging import ImageBuffer, load_ppm, save_ppm

SRC = Path(__file__).resolve().parent.parent / "src"
WARNING = "warning: reconstruction had non-negligible imaginary part\n"
# The body of the wrapper that pip generates for
# ``[project.scripts] stpz = "stpz.cli:main"``.
CONSOLE = "import sys; from stpz.cli import main; sys.exit(main())"


def stpz(*argv) -> subprocess.CompletedProcess:
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run(
        [sys.executable, "-c", CONSOLE, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def report(done: subprocess.CompletedProcess) -> dict:
    """The command's stdout, parsed as strict JSON (RFC 8259 has no Infinity
    or NaN)."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout, parse_constant=reject)


@pytest.mark.parametrize(
    "samples, m2, rank",
    [
        (textured_samples(np.random.default_rng(82), 64, 48, 3), 4, 3),
        # 4096 x 16 rearrangements with flat spectra, factored through their
        # 16 x 16 Gram matrix.
        (np.random.default_rng(1).integers(0, 256, (256, 256, 3), dtype=np.uint8), 4, 4),
    ],
    ids=["textured", "noise"],
)
def test_two_processes_write_the_same_container(tmp_path, samples, m2, rank):
    # Slice 2's plane is slice 1's conjugated in place, and the Gram route
    # forms G in one BLAS product: neither may vary from run to run.
    image = tmp_path / "in.ppm"
    image.write_bytes(save_ppm(ImageBuffer(samples)))
    blocks = ("--m2", m2, "--n2", m2, "--rank", rank)
    for k in range(2):
        done = stpz("compress", "--input", image, *blocks, "--output", tmp_path / f"{k}.stpz")
        report(done)
        assert done.stderr == ""
    assert (tmp_path / "0.stpz").read_bytes() == (tmp_path / "1.stpz").read_bytes()


def test_every_report_is_strict_json(tmp_path):
    # The other tests here parse compress and decompress reports; an exact
    # metrics and a lossless bench print "inf" where a number is infinite.
    image, packed = tmp_path / "in.ppm", tmp_path / "in.stpz"
    samples = textured_samples(np.random.default_rng(83), 32, 24, 3)
    image.write_bytes(save_ppm(ImageBuffer(samples)))
    packed.write_bytes(serialize(tensor_stp_svd_trunc(samples, 4, 4, [2, 2, 2])))
    for argv in (
        ("info", "--input", packed),
        ("metrics", "--ref", image, "--test", image),
        ("bench", "--input", image, "--method", "stpsvd", "--m2", 1, "--n2", 1, "--rank", "full"),
    ):
        done = stpz(*argv)
        report(done)
        assert done.stderr == ""


def test_image_given_as_a_container_exits_4_without_output(tmp_path):
    image, out = tmp_path / "in.ppm", tmp_path / "out.ppm"
    image.write_bytes(save_ppm(ImageBuffer(np.zeros((8, 8, 3), np.uint8))))
    done = stpz("decompress", "--input", image, "--output", out)
    assert done.returncode == 4 and done.stdout == ""
    assert done.stderr.startswith("error: bad magic") and done.stderr.count("\n") == 1
    assert not out.exists()


def test_paired_file_decodes_to_the_same_bytes_with_no_residue(tmp_path):
    # Equal ranks on slices 1 and 2 keep them a conjugate pair, which is
    # decoded once: the residue is exactly 0.0, and nothing is warned.
    A = textured_samples(np.random.default_rng(80), 64, 48, 3)
    packed = tmp_path / "p.stpz"
    packed.write_bytes(serialize(tensor_stp_svd_trunc(A, 4, 4, [3, 3, 3])))
    for k in range(2):
        done = stpz("decompress", "--input", packed, "--output", tmp_path / f"{k}.ppm")
        assert report(done) == {"imag_residue": 0.0, "imag_warning": False}
        assert done.stderr == ""
    first, second = ((tmp_path / f"{k}.ppm").read_bytes() for k in range(2))
    assert first == second
    want, _ = decode_samples(deserialize(packed.read_bytes()))
    assert np.array_equal(load_ppm(first).samples, want)


def test_uneven_ranks_keep_the_measured_residue_and_warning(tmp_path):
    # R = [1, 3, 2] truncates the pair unevenly: each slice keeps its Re and
    # Im terms, and the imaginary part is measured and warned about.
    A = np.random.default_rng(81).integers(0, 256, (64, 48, 3), dtype=np.uint8)
    packed = tmp_path / "u.stpz"
    packed.write_bytes(serialize(tensor_stp_svd_trunc(A, 2, 2, [1, 3, 2])))
    done = stpz("decompress", "--input", packed, "--output", tmp_path / "u.ppm")
    got = report(done)
    F = deserialize(packed.read_bytes())
    assert got["imag_warning"] is True and got["imag_residue"] > IMAG_TOL
    assert got["imag_residue"] == decode_samples(F)[1]
    assert got["imag_residue"] == pytest.approx(np.abs(reconstruct(F).imag).max(), rel=1e-9)
    assert done.stderr == WARNING
