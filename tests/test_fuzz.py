"""Mutation fuzzing of the two decoders: ``codec.deserialize`` (STPZ
containers) and ``imaging.load_ppm`` (PPM/PGM images), and of the exit codes
of the ``stpz`` commands that read them.

Each case starts from a valid file and applies 1-4 drawn mutations.  A
decoder must either raise FormatError or return a valid result; any other
exception fails the test.  A command must exit with one of its documented
codes, printing exactly one ``error:`` line when it fails.
"""

import contextlib
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import cplx
from stpz import cli
from stpz.codec import deserialize, serialize
from stpz.decomp import MatStpSvd, TensorStpSvd, decode_samples, tensor_stp_svd_trunc
from stpz.errors import FormatError
from stpz.imaging import ImageBuffer, load_ppm, save_ppm

_RNG = np.random.default_rng(80)
_SAMPLES = _RNG.integers(0, 256, size=(8, 6, 3), dtype=np.uint8)

# An 8 x 6 RGB image at m2 = n2 = 2: m1 = 4, n1 = 3, l = 3.  The header is
# magic, version, flags, reserved, five u32 dims and three u32 ranks.
STPZ = serialize(tensor_stp_svd_trunc(_SAMPLES, 2, 2, [3, 2, 2]))
STPZ_HEADER = 28 + 4 * 3
PPM = save_ppm(ImageBuffer(_SAMPLES[:5, :4]))
PGM_HEADER = b"P5\n# a comment\n4\t3\n255\n"
PGM = PGM_HEADER + bytes(_SAMPLES[:3, :4, 0].ravel())
# Each image file and the length of its header.
IMAGES = {"ppm": (PPM, len(PPM) - 5 * 4 * 3), "pgm": (PGM, len(PGM_HEADER))}
# Images large enough for SSIM's 11 x 11 window, for ``stpz metrics``, and
# the lengths of their headers.
_BIG = np.random.default_rng(81).integers(0, 256, size=(12, 13, 3), dtype=np.uint8)
_BIG_PPM, _BIG_PGM = save_ppm(ImageBuffer(_BIG)), save_ppm(ImageBuffer(_BIG[:, :, :1]))
BIG_IMAGES = {
    "ppm": (_BIG_PPM, len(_BIG_PPM) - _BIG.size),
    "pgm": (_BIG_PGM, len(_BIG_PGM) - _BIG.size // 3),
}

# u32 values at the edges of the header fields' ranges.
_EDGE_U32 = [0, 1, 2, 3, 4, 255, 256, 2**16, 2**31 - 1, 2**31, 2**32 - 1]


def mutate(data, blob: bytes, header: int, align: int) -> bytes:
    """``blob`` after 1-4 mutations drawn from ``data``: set a byte, truncate,
    insert bytes, or overwrite a u32 at an ``align``-aligned offset within
    the first ``header`` bytes (the header's length)."""
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["set", "truncate", "insert", "u32"]))
        if kind == "set" and out:
            # Half of the draws aim at the header, where most checks are.
            at = st.integers(0, min(header, len(out)) - 1) | st.integers(0, len(out) - 1)
            out[data.draw(at)] = data.draw(st.integers(0, 255))
        elif kind == "truncate":
            del out[data.draw(st.integers(0, len(out))):]
        elif kind == "insert":
            at = data.draw(st.integers(0, len(out)))
            out[at:at] = data.draw(st.binary(min_size=1, max_size=16))
        elif kind == "u32" and len(out) >= 4:
            slots = (min(header, len(out)) - 4) // align
            at = align * data.draw(st.integers(0, slots))
            value = data.draw(st.sampled_from(_EDGE_U32) | st.integers(0, 2**32 - 1))
            out[at : at + 4] = struct.pack("<I", value)
    return bytes(out)


@given(data=st.data())
@settings(deadline=None, max_examples=600)
def test_deserialize_rejects_or_round_trips(data):
    blob = mutate(data, STPZ, STPZ_HEADER, 4)
    try:
        F = deserialize(blob)
    except FormatError:
        return
    assert serialize(F) == blob


def assert_decode_peak_is_bounded(blob: bytes) -> bool:
    """Whether ``deserialize`` accepts ``blob``; if it does, the traced peak
    of it plus ``decode_samples`` must stay within the decoded image's bytes,
    twice the input's (the bytes and the factors parsed from them) and
    6 MiB, the decoder's few bands."""
    tracemalloc.start()
    try:
        try:
            F = deserialize(blob)
        except FormatError:
            return False
        with contextlib.suppress(FormatError):  # factors whose product overflows
            decode_samples(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m1, m2, n1, n2, l = F.dims
    bound = m1 * m2 * n1 * n2 * l + 2 * len(blob) + 6 * 2**20
    assert peak <= bound, (F.dims, F.block_rank, peak / 2**20, bound / 2**20)
    return True


@given(data=st.data())
@settings(deadline=None, max_examples=100)
def test_decode_peak_of_mutated_containers(data):
    assert_decode_peak_is_bounded(mutate(data, STPZ, STPZ_HEADER, 4))


@given(
    l=st.sampled_from([1, 3]),
    m=st.integers(1, 1024),
    n=st.integers(1, 1024),
    m2=st.integers(1, 1024),
    n2=st.integers(1, 1024),
    ranks=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    paired=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(l=3, m=1024, n=1024, m2=1, n2=1, ranks=[3, 3, 3], paired=False, seed=0)
@example(l=3, m=1024, n=1024, m2=32, n2=1, ranks=[1, 2, 2], paired=True, seed=0)
@example(l=1, m=1024, n=1024, m2=1, n2=1024, ranks=[1, 1, 1], paired=False, seed=0)
@example(l=3, m=30, n=550, m2=30, n2=550, ranks=[1, 1, 1], paired=False, seed=0)
@example(l=3, m=64, n=1024, m2=64, n2=1024, ranks=[1, 1, 1], paired=False, seed=0)
@settings(deadline=None, max_examples=25)
def test_decode_peak_of_random_containers(l, m, n, m2, n2, ranks, paired, seed):
    # Finite random factors of an m x n image whose blocks are m2 x n2 (m2
    # and n2 cut down to divisors); paired, slice 0 is real and slice 2 is
    # conj(slice 1), which the decoder takes as one term.  With one block
    # (m1 = n1 = 1) the C factors hold the whole image, so the decoder must
    # take their terms band by band too.
    m2, n2 = math.gcd(m, m2), math.gcd(n, n2)
    m1, n1 = m // m2, n // n2
    R = [min(r, m1, n1) for r in ranks[:l]]
    rng = np.random.default_rng(seed)
    slices = [
        MatStpSvd(
            U=cplx(rng, m1, r), sigma=rng.uniform(0, 9, r), C=cplx(rng, m2, n2), V=cplx(rng, n1, r)
        )
        for r in R
    ]
    if paired:
        s = slices[0]
        slices[0] = MatStpSvd(U=s.U.real, sigma=s.sigma, C=s.C.real, V=s.V.real)
        if l == 3:
            s = slices[1]
            slices[2] = MatStpSvd(U=s.U.conj(), sigma=s.sigma, C=s.C.conj(), V=s.V.conj())
    assert assert_decode_peak_is_bounded(serialize(TensorStpSvd(slices=slices, real_input=True)))


def test_decode_peak_of_a_large_image_from_a_small_file():
    # 192,112 bytes of rank-1 factors decode to a 2000 x 2000 RGB image of
    # 12,000,000 bytes: valid, and decoded within the same bound.
    rng = np.random.default_rng(84)
    slices = [
        MatStpSvd(U=cplx(rng, 2000, 1), sigma=np.ones(1), C=cplx(rng, 1, 1), V=cplx(rng, 2000, 1))
        for _ in range(3)
    ]
    blob = serialize(TensorStpSvd(slices=slices, real_input=True))
    assert len(blob) == 192_112
    assert assert_decode_peak_is_bounded(blob)


@pytest.mark.parametrize("name", ["ppm", "pgm"])
@given(data=st.data())
@settings(deadline=None, max_examples=400)
def test_load_ppm_rejects_or_gives_an_image(name, data):
    mutated = mutate(data, *IMAGES[name], 1)
    try:
        img = load_ppm(mutated)
    except FormatError:
        return
    assert isinstance(img, ImageBuffer)
    assert img.samples.dtype == np.uint8


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def run_cli(*argv) -> tuple[int, list[str]]:
    """``stpz``'s exit code for ``argv``, and the ``error:`` lines it printed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]


@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_info_exits_0_or_4(workdir, data):
    path = workdir / "info.stpz"
    path.write_bytes(mutate(data, STPZ, STPZ_HEADER, 4))
    code, errors = run_cli("info", "--input", path)
    assert code in (0, 4)
    assert len(errors) == (code != 0)


@given(data=st.data())
@settings(deadline=None, max_examples=200)
def test_decompress_exits_0_or_4(workdir, data):
    # With every rank at least 1, the payload bounds the decoded size, so a
    # few mutations cannot make a large image.
    path, out = workdir / "decompress.stpz", workdir / "decompress.ppm"
    path.write_bytes(mutate(data, STPZ, STPZ_HEADER, 4))
    out.unlink(missing_ok=True)
    code, errors = run_cli("decompress", "--input", path, "--output", out)
    assert code in (0, 4)
    assert len(errors) == (code != 0)
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("name", ["ppm", "pgm"])
@given(data=st.data())
@settings(deadline=None, max_examples=200)
def test_metrics_exits_0_2_or_4(workdir, name, data):
    ref, test = workdir / f"ref.{name}", workdir / f"test.{name}"
    ref.write_bytes(BIG_IMAGES[name][0])
    test.write_bytes(mutate(data, *BIG_IMAGES[name], 1))
    code, errors = run_cli("metrics", "--ref", ref, "--test", test)
    assert code in (0, 2, 4)
    assert len(errors) == (code != 0)


def test_valid_inputs_decode(workdir):
    assert serialize(deserialize(STPZ)) == STPZ
    path = workdir / "valid.stpz"
    path.write_bytes(STPZ)
    assert run_cli("info", "--input", path) == (0, [])
    for name, (image, _) in BIG_IMAGES.items():
        path = workdir / f"valid.{name}"
        path.write_bytes(image)
        assert run_cli("metrics", "--ref", path, "--test", path) == (0, [])
    assert load_ppm(PPM).samples.shape == (5, 4, 3)
    gray = load_ppm(PGM)
    assert gray.samples.shape == (3, 4, 1)
    assert gray.samples.tobytes() == PGM[len(PGM_HEADER):]
