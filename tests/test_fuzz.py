"""Mutation fuzzing of the two decoders: ``codec.deserialize`` (STPZ
containers) and ``imaging.load_ppm`` (PPM/PGM images).

Each case starts from a valid file and applies 1-4 drawn mutations.  A
decoder must either raise FormatError or return a valid result; any other
exception fails the test.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stpz.codec import deserialize, serialize
from stpz.decomp import tensor_stp_svd_trunc
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


def test_valid_inputs_decode():
    assert serialize(deserialize(STPZ)) == STPZ
    assert load_ppm(PPM).samples.shape == (5, 4, 3)
    gray = load_ppm(PGM)
    assert gray.samples.shape == (3, 4, 1)
    assert gray.samples.tobytes() == PGM[len(PGM_HEADER):]
