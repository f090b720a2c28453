import numpy as np
import pytest

from stpz.errors import DimensionError
from stpz.imaging import image_to_tensor
from stpz.nkp import nkp
from stpz.synthetic import structured_test_image
from stpz.tensor import dft3


def test_deterministic():
    a = structured_test_image(seed=5)
    b = structured_test_image(seed=5)
    assert np.array_equal(a.samples, b.samples)
    c = structured_test_image(seed=6)
    assert not np.array_equal(a.samples, c.samples)


def test_shape_and_range():
    img = structured_test_image()
    assert img.samples.shape == (96, 96, 3)
    assert img.samples.min() > 0
    assert img.samples.max() < 255


def test_structure_survives_quantization():
    img = structured_test_image()
    Ah = dft3(image_to_tensor(img))
    for i in range(3):
        f = nkp(Ah[:, :, i], 4, 4)
        slice_norm = np.linalg.norm(Ah[:, :, i])
        assert f.residual <= 0.05 * slice_norm
        sig_b = np.linalg.svd(f.B, compute_uv=False)
        # near-rank-4 B factor: tail after 4 is quantization noise
        assert sig_b[4] <= 0.02 * sig_b[0]


def test_dimension_validation():
    with pytest.raises(DimensionError, match=r"^m2 = 4 does not divide height 97; .* \[1, 97\]$"):
        structured_test_image(height=97)
    with pytest.raises(DimensionError, match=r"n2 = 5 does not divide width 96; .* \[1, 2, 3, 4, "):
        structured_test_image(n2=5)
    with pytest.raises(DimensionError):
        structured_test_image(height=8, width=8, m2=4, n2=4, rank=3)
    with pytest.raises(DimensionError, match=r"entry 0 out of range \[1, 24\]"):
        structured_test_image(rank=0)
