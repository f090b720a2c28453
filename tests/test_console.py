"""``stpz decompress`` in its own interpreter, as ``python -m stpz.cli``,
under PYTHONWARNINGS=error::RuntimeWarning: what only a separate process
shows, that two runs write the same bytes, and its stdout and stderr as a
caller sees them."""

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
from stpz.imaging import load_ppm

SRC = Path(__file__).resolve().parent.parent / "src"
WARNING = "warning: reconstruction had non-negligible imaginary part\n"


def decompress(packed: Path, out: Path) -> subprocess.CompletedProcess:
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run(
        [sys.executable, "-m", "stpz.cli", "decompress", "--input", str(packed), "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def report(done: subprocess.CompletedProcess) -> dict:
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout, parse_constant=reject)


def test_paired_file_decodes_to_the_same_bytes_with_no_residue(tmp_path):
    # Equal ranks on slices 1 and 2 keep them a conjugate pair, which is
    # decoded once: the residue is exactly 0.0, and nothing is warned.
    A = textured_samples(np.random.default_rng(80), 64, 48, 3)
    packed = tmp_path / "p.stpz"
    packed.write_bytes(serialize(tensor_stp_svd_trunc(A, 4, 4, [3, 3, 3])))
    runs = [decompress(packed, tmp_path / f"{k}.ppm") for k in range(2)]
    for done in runs:
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
    done = decompress(packed, tmp_path / "u.ppm")
    got = report(done)
    F = deserialize(packed.read_bytes())
    assert got["imag_warning"] is True and got["imag_residue"] > IMAG_TOL
    assert got["imag_residue"] == decode_samples(F)[1]
    assert got["imag_residue"] == pytest.approx(np.abs(reconstruct(F).imag).max(), rel=1e-9)
    assert done.stderr == WARNING
