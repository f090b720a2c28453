import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import same_bytes
from stpz import imaging
from stpz.errors import DimensionError, FormatError, NumericError
from stpz.tensor import _BAND
from stpz.imaging import (
    ImageBuffer,
    image_to_tensor,
    load_ppm,
    psnr,
    relative_error,
    save_ppm,
    ssim,
    tensor_to_image,
)


def rand_image(rng, h, w, c):
    return ImageBuffer(rng.integers(0, 256, size=(h, w, c), dtype=np.uint8))


def ssim_direct(ref, test):
    """Windowed SSIM computed with naive per-window loops (test oracle)."""
    x1 = np.arange(11) - 5.0
    g = np.exp(-(x1 * x1) / (2 * 1.5**2))
    g /= g.sum()
    W = np.outer(g, g)
    C1 = (0.01 * 255) ** 2
    C2 = (0.03 * 255) ** 2
    vals = []
    for c in range(ref.channels):
        x = ref.samples[:, :, c].astype(float)
        y = test.samples[:, :, c].astype(float)
        maps = []
        for i in range(ref.height - 10):
            for j in range(ref.width - 10):
                wx = x[i : i + 11, j : j + 11]
                wy = y[i : i + 11, j : j + 11]
                mx = (W * wx).sum()
                my = (W * wy).sum()
                vx = (W * wx * wx).sum() - mx * mx
                vy = (W * wy * wy).sum() - my * my
                cov = (W * wx * wy).sum() - mx * my
                maps.append(
                    ((2 * mx * my + C1) * (2 * cov + C2))
                    / ((mx * mx + my * my + C1) * (vx + vy + C2))
                )
        vals.append(np.mean(maps))
    return float(np.mean(vals))


def psnr_float(ref, test):
    """PSNR from float64 sample differences (reference formula)."""
    diff = ref.samples.astype(np.float64) - test.samples.astype(np.float64)
    mse = float(np.mean(diff * diff))
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0**2 / mse)


def relative_error_float(ref, test):
    """Relative error from float64 norms (reference formula)."""
    r = ref.samples.astype(np.float64)
    t = test.samples.astype(np.float64)
    denom = np.linalg.norm(r.ravel())
    if denom == 0.0:
        return 0.0 if np.array_equal(r, t) else math.inf
    return float(np.linalg.norm((r - t).ravel()) / denom)


class TestPpm:
    def test_one_pixel_white(self):
        img = load_ppm(b"P6\n1 1\n255\n\xff\xff\xff")
        assert (img.width, img.height, img.channels) == (1, 1, 3)
        assert np.array_equal(img.samples.ravel(), [255, 255, 255])

    def test_comment_in_header(self):
        a = load_ppm(b"P6\n# c\n1 1\n255\n\x01\x02\x03")
        b = load_ppm(b"P6\n1 1\n255\n\x01\x02\x03")
        assert np.array_equal(a.samples, b.samples)

    def test_gray_p5(self):
        img = load_ppm(b"P5\n2 1\n255\n\x00\x80")
        assert img.channels == 1
        assert np.array_equal(img.samples.ravel(), [0, 128])

    def test_header_canonicalization(self):
        raw = b"P6 #x\n 2\t1 \n255\n" + bytes(6)
        out = save_ppm(load_ppm(raw))
        assert out == b"P6\n2 1\n255\n" + bytes(6)

    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(0)
        img = rand_image(rng, 5, 7, 3)
        back = load_ppm(save_ppm(img))
        assert np.array_equal(back.samples, img.samples)

    def test_samples_are_copied_once(self):
        # The encoded file is the one copy of a 3 MiB image's samples.
        img = rand_image(np.random.default_rng(1), 1024, 1024, 3)
        tracemalloc.start()
        try:
            out = save_ppm(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        header = b"P6\n1024 1024\n255\n"
        assert out == header + img.samples.tobytes()
        assert peak <= len(out) + len(header) + 2**20, peak / 2**20

    @given(
        h=st.integers(1, 8), w=st.integers(1, 8), c=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=30)
    def test_roundtrip_property(self, h, w, c, seed):
        rng = np.random.default_rng(seed)
        img = rand_image(rng, h, w, c)
        back = load_ppm(save_ppm(img))
        assert np.array_equal(back.samples, img.samples)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            load_ppm(b"P3\n1 1\n255\n000")

    def test_bad_maxval(self):
        with pytest.raises(FormatError):
            load_ppm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")

    def test_short_payload(self):
        with pytest.raises(FormatError):
            load_ppm(b"P6\n2 2\n255\n\x00")

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            load_ppm(b"P6\n1 1")

    @pytest.mark.parametrize("data", [b"P6\n4 \n", b"P6\n4 # no height"], ids=["space", "comment"])
    def test_header_that_ends_before_a_field(self, data):
        # Without its own check the empty token would read as a non-numeric
        # height field; a comment may run to the end of the data.
        with pytest.raises(FormatError, match="^unexpected end of image header") as exc:
            load_ppm(data)
        assert exc.value.offset == len(data)

    def test_reads_a_memoryview(self):
        # A memoryview's slices have no isdigit, so the parser reads a copy.
        img = ImageBuffer(np.arange(24, dtype=np.uint8).reshape(2, 4, 3))
        data = save_ppm(img)
        for view in (memoryview(data), bytearray(data)):
            assert same_bytes(load_ppm(view).samples, img.samples)

    def test_non_numeric_field(self):
        with pytest.raises(FormatError):
            load_ppm(b"P6\nx 1\n255\n\x00\x00\x00")

    @pytest.mark.parametrize(
        "header, field, offset",
        [(b"P6\n+2 10\n255\n", "width", 3), (b"P6\n2 1_0\n255\n", "height", 5)],
        ids=["sign", "underscore"],
    )
    def test_header_numbers_are_plain_digits(self, header, field, offset):
        # int() reads "+2" as 2 and "1_0" as 10; the header takes digits only.
        with pytest.raises(FormatError, match=f"non-numeric {field} field") as exc:
            load_ppm(header + bytes(60))
        assert exc.value.offset == offset

    def test_non_positive_size(self):
        with pytest.raises(FormatError, match="non-positive image size 0x1") as exc:
            load_ppm(b"P6\n0 1\n255\n")
        assert exc.value.offset == 0

    def test_no_whitespace_after_maxval(self):
        with pytest.raises(FormatError, match="missing whitespace after maxval") as exc:
            load_ppm(b"P6\n1 1\n255")
        assert exc.value.offset == 10


class TestImageBuffer:
    def test_samples_out_of_range_or_not_integer_raise(self):
        # np.asarray(..., dtype=np.uint8) would wrap these to [44, 255, 2]
        # and [0, 255, 3].
        with pytest.raises(DimensionError, match="integers in 0..255, got dtype float64"):
            ImageBuffer(np.array([[[300.0, -1.0, 2.7]]]))
        with pytest.raises(DimensionError, match=r"lie in 0..255, got values in \[-1, 256\]"):
            ImageBuffer(np.array([[[256, -1, 3]]], dtype=np.int64))

    @pytest.mark.parametrize("bad", [[300, 3, 4], [-1, 3, 4]], ids=["above", "below"])
    def test_samples_out_of_range_on_one_side_raise(self, bad):
        with pytest.raises(DimensionError, match="lie in 0..255"):
            ImageBuffer(np.array([[bad]], dtype=np.int16))

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 2), (2, 3, 4), (1, 2, 3, 1)])
    def test_samples_must_be_height_width_1_or_3(self, shape):
        with pytest.raises(DimensionError, match=r"\(height, width, 1\|3\)"):
            ImageBuffer(np.zeros(shape, dtype=np.uint8))

    def test_uint8_is_kept_and_integers_in_range_are_cast(self):
        x = np.zeros((2, 3, 1), dtype=np.uint8)
        assert ImageBuffer(x).samples is x
        for y in (np.array([[[0, 255, 3]]], dtype=np.int64), np.ones((1, 1, 3), dtype=bool)):
            got = ImageBuffer(y).samples
            assert same_bytes(got, y.astype(np.uint8))


class TestTensorConversion:
    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(1)
        img = rand_image(rng, 4, 6, 3)
        back = tensor_to_image(image_to_tensor(img))
        assert np.array_equal(back.samples, img.samples)

    def test_layout(self):
        rng = np.random.default_rng(2)
        img = rand_image(rng, 3, 5, 3)
        A = image_to_tensor(img)
        assert A.shape == (3, 5, 3)
        assert A[1, 4, 2] == img.samples[1, 4, 2]

    def test_clamp_and_round(self):
        A = np.array([[[254.5, -3.2, 127.5]]])
        out = tensor_to_image(A).samples.ravel()
        assert list(out) == [255, 0, 128]
        # The one rounding rule, floor(clip(x, 0, 255) + 0.5), at its edges:
        # infinities, the clamp bounds, ties, and the doubles next to them.
        x = np.array([
            -np.inf, -1e300, -3.2, -0.5, -0.0, 0.0, 0.49999999999999994, 0.5,
            127.5, 254.5, 255.49999999999997, 255.5, 1e300, np.inf,
        ])
        A = x.reshape(1, -1, 1)
        before = A.copy()
        want = np.floor(np.clip(x, 0.0, 255.0) + 0.5).astype(np.uint8)
        assert same_bytes(tensor_to_image(A).samples.ravel(), want)
        assert same_bytes(A, before)
        # A NaN has no 8-bit value, even next to an overflowing sample.
        with pytest.raises(NumericError, match="NaN"):
            tensor_to_image(np.array([[[np.nan, 1e309, 3.0]]]))

    def test_imaginary_part_is_dropped(self):
        # No verdict on the imaginary part: small or large, it leaves the
        # samples of the real part, and A is not modified.
        rng = np.random.default_rng(4)
        x = rng.uniform(-20.0, 275.0, size=(5, 6, 3))
        A = x + 1j * rng.choice(np.array([1e-3, -1e-3, 1e3, -1e3]), size=x.shape)
        before = A.copy()
        got = tensor_to_image(A)
        assert same_bytes(got.samples, tensor_to_image(A.real).samples)
        assert same_bytes(A, before)

    def test_unsupported_channels(self):
        with pytest.raises(DimensionError):
            tensor_to_image(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("c", [2, 4])
    def test_unsupported_channels_are_refused_before_rounding(self, monkeypatch, c):
        calls = []
        monkeypatch.setattr(imaging, "_round_samples", lambda *a: calls.append(a))
        A = np.zeros((3, 4, c))
        with pytest.raises(DimensionError, match=f"got {c}"):
            tensor_to_image(A)
        assert calls == []

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_nan_in_the_last_band_raises_and_leaves_the_input(self, complex_input):
        # 2^16 entries per band at 600 x 3 entries a row: 36 rows a band, so
        # 100 rows are three bands, the first two rounded before the NaN.
        rng = np.random.default_rng(6)
        A = rng.uniform(-20.0, 275.0, size=(100, 600, 3))
        if complex_input:
            A = A + 1j * rng.uniform(-1.0, 1.0, size=A.shape)
        A[-1, -1, -1] = np.nan
        before = A.copy()
        with pytest.raises(NumericError, match="NaN"):
            tensor_to_image(A)
        assert same_bytes(A, before)

    @pytest.mark.parametrize("c", [1, 3])
    def test_bands_round_like_the_whole_tensor(self, c):
        # Heights one row below, at and above a band of rows, and a lone row
        # past two bands: every sample by floor(clip(x, 0, 255) + 0.5).
        rng = np.random.default_rng(7)
        w = 500
        rows = _BAND // (w * c)
        for h in (1, 2, rows - 1, rows, rows + 1, 2 * rows + 1):
            x = rng.uniform(-20.0, 275.0, size=(h, w, c))
            x.flat[::7] = np.floor(x.flat[::7]) + 0.5
            want = np.floor(np.clip(x, 0.0, 255.0) + 0.5).astype(np.uint8)
            assert same_bytes(tensor_to_image(x).samples, want), h
            assert same_bytes(tensor_to_image(x - 1j).samples, want), h

    def test_traced_peak_is_the_output_plus_one_band(self):
        # The T-SVD decode's input: a 512^2 RGB complex tensor.  A float64
        # copy of the whole real part took 6 MiB.
        A = np.random.default_rng(8).uniform(-20.0, 275.0, size=(512, 512, 3)) + 0j
        tracemalloc.start()
        try:
            out = tensor_to_image(A).samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A band's float64 copy and its NaN mask.
        band = 9 * 512 * 3 * (_BAND // (512 * 3))
        assert peak <= out.nbytes + band + 2**16, peak / 2**20

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int16])
    def test_real_tensor_gives_the_samples_of_its_complex_copy(self, dtype):
        # Real input skips the complex cast; the rounding stays in float64
        # whatever the input's precision.
        rng = np.random.default_rng(3)
        A = rng.uniform(-20.0, 275.0, size=(7, 9, 3))
        A[0, :4, 0] = [0.49999997, 254.5, 127.5, -0.0]
        A = A.astype(dtype)
        got, want = tensor_to_image(A), tensor_to_image(A.astype(np.complex128))
        assert same_bytes(got.samples, want.samples)
        with pytest.raises(DimensionError):
            tensor_to_image(A[:, :, 0])


class TestPsnr:
    def test_identical_infinite(self):
        rng = np.random.default_rng(3)
        img = rand_image(rng, 4, 4, 3)
        assert math.isinf(psnr(img, img))

    def test_black_vs_white_zero_db(self):
        black = ImageBuffer(np.zeros((4, 4, 3), dtype=np.uint8))
        white = ImageBuffer(np.full((4, 4, 3), 255, dtype=np.uint8))
        assert psnr(black, white) == 0.0

    def test_single_sample_difference(self):
        h, w, c = 6, 5, 3
        a = ImageBuffer(np.zeros((h, w, c), dtype=np.uint8))
        b = ImageBuffer(np.zeros((h, w, c), dtype=np.uint8))
        b.samples[2, 3, 1] = 1
        assert psnr(a, b) == pytest.approx(10 * math.log10(255**2 * h * w * c), rel=1e-12)

    def test_symmetry_and_monotonicity(self):
        rng = np.random.default_rng(4)
        ref = rand_image(rng, 4, 4, 1)
        one = ImageBuffer(np.clip(ref.samples.astype(int) + 1, 0, 255).astype(np.uint8))
        two = ImageBuffer(np.clip(ref.samples.astype(int) + 5, 0, 255).astype(np.uint8))
        assert psnr(ref, one) == psnr(one, ref)
        assert psnr(ref, one) > psnr(ref, two)

    def test_integer_sums_equal_float_formula(self):
        rng = np.random.default_rng(14)
        for shape in [(5, 9, 1), (64, 48, 3), (128, 128, 3)]:
            ref = rand_image(rng, *shape)
            test = rand_image(rng, *shape)
            assert psnr(ref, test) == psnr_float(ref, test)
            assert relative_error(ref, test) == relative_error_float(ref, test)

    def test_largest_sums_equal_float_formula(self):
        black = ImageBuffer(np.zeros((1024, 1024, 3), dtype=np.uint8))
        white = ImageBuffer(np.full((1024, 1024, 3), 255, dtype=np.uint8))
        assert psnr(black, white) == psnr_float(black, white) == 0.0
        assert relative_error(white, black) == relative_error_float(white, black) == 1.0

    def test_all_zero_reference(self):
        rng = np.random.default_rng(15)
        zero = ImageBuffer(np.zeros((6, 5, 3), dtype=np.uint8))
        other = rand_image(rng, 6, 5, 3)
        assert relative_error(zero, zero) == relative_error_float(zero, zero) == 0.0
        assert relative_error(zero, other) == relative_error_float(zero, other) == math.inf
        assert psnr(zero, other) == psnr_float(zero, other)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            psnr(
                ImageBuffer(np.zeros((2, 2, 1), dtype=np.uint8)),
                ImageBuffer(np.zeros((2, 3, 1), dtype=np.uint8)),
            )


@pytest.mark.parametrize("metric", [psnr, ssim, relative_error])
def test_metrics_refuse_images_of_different_shapes(metric):
    # A gray test image would broadcast against every channel of an RGB
    # reference and give a number.
    rng = np.random.default_rng(19)
    ref = rand_image(rng, 16, 16, 3)
    test = ImageBuffer(ref.samples[:, :, :1].copy())
    with pytest.raises(DimensionError, match=r"image shapes differ: \(16, 16, 3\) vs \(16, 16, 1\)"):
        metric(ref, test)


class TestSsim:
    def test_identical_exactly_one(self):
        rng = np.random.default_rng(5)
        img = rand_image(rng, 16, 16, 3)
        assert ssim(img, img) == 1.0

    def test_constant_shift_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        base = rng.integers(0, 200, size=(16, 20, 1), dtype=np.uint8)
        ref = ImageBuffer(base)
        test = ImageBuffer(base + 10)
        val = ssim(ref, test)
        assert val < 1.0
        assert val == pytest.approx(ssim_direct(ref, test), abs=1e-9)

    def test_random_pair_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        ref = rand_image(rng, 14, 13, 3)
        test = rand_image(rng, 14, 13, 3)
        assert ssim(ref, test) == pytest.approx(ssim_direct(ref, test), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a = rand_image(rng, 12, 12, 3)
        b = rand_image(rng, 12, 12, 3)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rand_image(rng, 12, 15, 1)
            b = rand_image(rng, 12, 15, 1)
            assert ssim(a, b) <= 1.0

    @pytest.mark.parametrize("shape", [(45, 80, 3), (11, 11, 1), (11, 90, 1)])
    def test_tiled_pass_matches_direct_formula(self, shape):
        # 35 x 70 outputs span two row tiles and two column tiles.
        rng = np.random.default_rng(16)
        ref = rand_image(rng, *shape)
        test = ImageBuffer(
            np.clip(ref.samples + rng.integers(-30, 31, shape), 0, 255).astype(np.uint8)
        )
        assert ssim(ref, test) == pytest.approx(ssim_direct(ref, test), abs=1e-9)

    def test_small_tiles_match_direct_formula(self, monkeypatch):
        monkeypatch.setattr(imaging, "_ROW_TILE", 4)
        monkeypatch.setattr(imaging, "_COL_TILE", 3)
        rng = np.random.default_rng(17)
        ref = rand_image(rng, 21, 24, 3)
        test = rand_image(rng, 21, 24, 3)
        assert ssim(ref, test) == pytest.approx(ssim_direct(ref, test), abs=1e-9)
        assert ssim(ref, ref) == 1.0

    def test_full_size_identity_and_exact_symmetry(self):
        rng = np.random.default_rng(18)
        a = rand_image(rng, 512, 512, 3)
        b = ImageBuffer(
            np.clip(a.samples + rng.integers(-20, 21, a.samples.shape), 0, 255).astype(np.uint8)
        )
        assert ssim(a, a) == 1.0
        assert ssim(a, b) == ssim(b, a)
        assert 0.0 < ssim(a, b) < 1.0

    def test_too_small(self):
        rng = np.random.default_rng(10)
        img = rand_image(rng, 8, 12, 1)
        with pytest.raises(DimensionError):
            ssim(img, img)


class TestRelativeError:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(11)
        img = rand_image(rng, 4, 4, 3)
        assert relative_error(img, img) == 0.0

    def test_consistent_with_psnr(self):
        rng = np.random.default_rng(12)
        ref = rand_image(rng, 8, 8, 3)
        test = rand_image(rng, 8, 8, 3)
        rel = relative_error(ref, test)
        norm_sq = float(np.sum(ref.samples.astype(float) ** 2))
        n = ref.samples.size
        mse = rel**2 * norm_sq / n
        assert psnr(ref, test) == pytest.approx(
            10 * math.log10(255**2 / mse), abs=1e-10
        )
