import struct
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import cplx, rank_zero_container, same_bytes
from stpz import codec
from stpz.codec import (
    Method,
    compression_rate,
    deserialize,
    serialize,
    storage_count,
)
from stpz.decomp import MatStpSvd, TensorStpSvd, tensor_stp_svd_trunc
from stpz.errors import DimensionError, FormatError


def random_factors(rng, m1, m2, n1, n2, R, real_input=False):
    slices = [
        MatStpSvd(
            U=cplx(rng, m1, r),
            sigma=np.sort(rng.random(r))[::-1],
            C=cplx(rng, m2, n2),
            V=cplx(rng, n1, r),
        )
        for r in R
    ]
    return TensorStpSvd(slices=slices, real_input=real_input)


class TestStorageFormulas:
    def test_cube_instantiations(self):
        # 16x16x16 tensor split with m2 = n2 = sqrt(16) = 4.
        args = (4, 4, 4, 4, 16)
        assert storage_count(Method.FULL_TSVD, *args) == 8448
        assert storage_count(Method.FULL_STPSVD, *args) == 832
        assert storage_count(Method.TRUNC_STPSVD, *args, r=2) == 544
        assert storage_count(Method.TRUNC_TSVD, *args, r=2) == 2 * 2 * 16**2 + 2 * 16
        assert storage_count(Method.RAW, *args) == 16**3

    def test_cube_compression_rates(self):
        args = (4, 4, 4, 4, 16)
        assert compression_rate(Method.FULL_TSVD, *args) == Fraction(33, 16)
        assert compression_rate(Method.TRUNC_STPSVD, *args, r=2) == Fraction(544, 4096)
        assert compression_rate(Method.RAW, *args) == 1

    def test_general_truncated_tsvd_rate(self):
        m1, m2, n1, n2, l, r = 3, 2, 5, 2, 4, 2
        m, n = m1 * m2, n1 * n2
        assert compression_rate(Method.TRUNC_TSVD, m1, m2, n1, n2, l, r) == Fraction(
            (m + n + 1) * r, m * n
        )

    def test_per_slice_ranks_sum(self):
        m1, m2, n1, n2 = 4, 3, 5, 2
        R = [1, 3, 2]
        expected = sum((m1 + n1 + 1) * r + m2 * n2 for r in R)
        assert storage_count(Method.TRUNC_STPSVD, m1, m2, n1, n2, 3, R) == expected
        uniform = storage_count(Method.TRUNC_STPSVD, m1, m2, n1, n2, 3, 2)
        assert uniform == storage_count(Method.TRUNC_STPSVD, m1, m2, n1, n2, 3, [2, 2, 2])
        # Every rank lies in [1, min(m1, n1)], as the encoder keeps it.
        with pytest.raises(DimensionError, match="entry 0 out of range"):
            storage_count(Method.TRUNC_STPSVD, m1, m2, n1, n2, 3, 0)

    def test_missing_rank_rejected(self):
        # Ranks lie in [1, min(m1, n1)] = [1, 2], or [1, min(m, n)] = [1, 4]
        # for the T-SVD.
        for method, l, r in [
            (Method.TRUNC_TSVD, 3, None),
            (Method.TRUNC_STPSVD, 1, -5),
            (Method.TRUNC_STPSVD, 1, 99),
            (Method.TRUNC_STPSVD, 3, [0, 3, 1]),
            (Method.TRUNC_TSVD, 3, [4, 5, 4]),
            (Method.TRUNC_TSVD, 1, -1),
        ]:
            with pytest.raises(DimensionError):
                storage_count(method, 2, 2, 2, 2, l, r)
        # A missing rank is named as such, not as a non-integer entry.
        with pytest.raises(DimensionError, match="^method trunc_stpsvd requires a truncation rank$"):
            storage_count(Method.TRUNC_STPSVD, 2, 2, 2, 2, 3)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            storage_count("bogus", 2, 2, 2, 2, 1, 1)

    def test_stpsvd_beats_tsvd_on_grid(self):
        for m1 in (2, 4, 8):
            for n1 in (2, 4, 8):
                for m2 in (2, 3, 4):
                    for n2 in (2, 3, 4):
                        for r in (1, 2):
                            m, n = m1 * m2, n1 * n2
                            if (m1 + n1 + 1) * r + m2 * n2 < (m + n + 1) * r:
                                small = storage_count(
                                    Method.TRUNC_STPSVD, m1, m2, n1, n2, 3, r
                                )
                                big = storage_count(
                                    Method.TRUNC_TSVD, m1, m2, n1, n2, 3, r
                                )
                                assert small < big


class TestContainer:
    def test_roundtrip_random_factors(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            m1, m2, n1, n2 = rng.integers(1, 5, size=4)
            l = int(rng.integers(1, 4))
            R = [int(rng.integers(1, min(m1, n1) + 1)) for _ in range(l)]
            F = random_factors(rng, m1, m2, n1, n2, R, real_input=bool(trial % 2))
            G = deserialize(serialize(F))
            assert G.dims == F.dims
            assert G.real_input == F.real_input
            for s, t in zip(F.slices, G.slices):
                assert np.array_equal(s.U, t.U)
                assert np.array_equal(s.sigma, t.sigma)
                assert np.array_equal(s.C, t.C)
                assert np.array_equal(s.V, t.V)

    def test_roundtrip_from_decomposition(self):
        rng = np.random.default_rng(1)
        A = cplx(rng, 6, 6, 3)
        F = tensor_stp_svd_trunc(A, 2, 3, [1, 2, 2])
        blob = serialize(F)
        assert serialize(deserialize(blob)) == blob

    def test_byte_budget_matches_layout(self):
        rng = np.random.default_rng(2)
        m1, m2, n1, n2 = 3, 2, 4, 2
        # A slice with no blocks is no valid factorization: it cannot be built.
        with pytest.raises(DimensionError, match="entry 0 out of range"):
            random_factors(rng, m1, m2, n1, n2, [2, 0, 1])
        with pytest.raises(DimensionError, match="entry 0 out of range"):
            storage_count(Method.TRUNC_STPSVD, m1, m2, n1, n2, 3, [2, 0, 1])
        R = [2, 1, 1]
        F = random_factors(rng, m1, m2, n1, n2, R)
        blob = serialize(F)
        payload = sum(16 * (m1 * r + m2 * n2 + n1 * r) + 8 * r for r in R)
        assert len(blob) == 4 + 4 + 20 + 4 * len(R) + payload
        # complex scalar count per slice matches the storage formula
        assert storage_count(Method.TRUNC_STPSVD, m1, m2, n1, n2, 3, R) == sum(
            (m1 + n1 + 1) * r + m2 * n2 for r in R
        )

    def test_bad_magic(self):
        rng = np.random.default_rng(3)
        blob = bytearray(serialize(random_factors(rng, 2, 2, 2, 2, [1])))
        blob[:4] = b"JUNK"
        with pytest.raises(FormatError) as exc:
            deserialize(bytes(blob))
        assert exc.value.offset == 0

    def test_bad_version(self):
        rng = np.random.default_rng(4)
        blob = bytearray(serialize(random_factors(rng, 2, 2, 2, 2, [1])))
        blob[4] = 9
        with pytest.raises(FormatError) as exc:
            deserialize(bytes(blob))
        assert exc.value.offset == 4

    def test_unknown_flags(self):
        rng = np.random.default_rng(5)
        blob = bytearray(serialize(random_factors(rng, 2, 2, 2, 2, [1])))
        blob[5] |= 0x80
        with pytest.raises(FormatError) as exc:
            deserialize(bytes(blob))
        assert exc.value.offset == 5

    @pytest.mark.parametrize("at", [6, 7])
    def test_nonzero_reserved_bytes(self, at):
        rng = np.random.default_rng(5)
        blob = bytearray(serialize(random_factors(rng, 2, 2, 2, 2, [1])))
        blob[at] = 1
        with pytest.raises(FormatError, match="reserved header bytes are nonzero") as exc:
            deserialize(bytes(blob))
        assert exc.value.offset == 6

    def test_reads_any_bytes_like_input_into_fresh_arrays(self):
        # struct and np.frombuffer read the buffer as it is, and every field
        # is copied out of it, so overwriting the buffer leaves the factors.
        rng = np.random.default_rng(8)
        blob = serialize(random_factors(rng, 3, 2, 2, 2, [2, 1], real_input=True))
        assert serialize(deserialize(memoryview(blob))) == blob
        data = bytearray(blob)
        F = deserialize(data)
        data[28:] = bytes(len(data) - 28)
        assert serialize(F) == blob

    def test_truncated_payload(self):
        rng = np.random.default_rng(6)
        blob = serialize(random_factors(rng, 2, 2, 2, 2, [1, 1]))
        with pytest.raises(FormatError):
            deserialize(blob[:-5])

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            deserialize(b"STP")

    def test_trailing_bytes(self):
        rng = np.random.default_rng(7)
        blob = serialize(random_factors(rng, 2, 2, 2, 2, [1]))
        with pytest.raises(FormatError):
            deserialize(blob + b"\x00")

    def test_rank_exceeding_dims(self):
        rng = np.random.default_rng(8)
        F = random_factors(rng, 2, 2, 3, 2, [2])
        blob = bytearray(serialize(F))
        blob[28:32] = (7).to_bytes(4, "little")
        with pytest.raises(FormatError) as exc:
            deserialize(bytes(blob))
        assert exc.value.offset == 28

    def test_rank_zero_rejected_before_the_payload(self):
        blob = rank_zero_container()
        assert len(blob) == 88
        with pytest.raises(FormatError, match="entry 0 out of range") as exc:
            deserialize(blob)
        assert exc.value.offset == 28

    def test_pixel_cap_is_checked_at_the_dims(self, monkeypatch):
        # At the cap a file decodes.  One pixel over, its header is refused at
        # the dims, before the rank vector or the payload is read.
        blob = serialize(random_factors(np.random.default_rng(12), 3, 2, 4, 2, [2, 1]))
        monkeypatch.setattr(codec, "MAX_PIXELS", 3 * 2 * 4 * 2)
        assert serialize(deserialize(blob)) == blob
        monkeypatch.setattr(codec, "MAX_PIXELS", 3 * 2 * 4 * 2 - 1)
        for data in (blob, blob[:28]):
            with pytest.raises(FormatError, match="exceed the cap") as exc:
                deserialize(data)
            assert exc.value.offset == 8

    def test_default_pixel_cap(self):
        # 2 * Pillow's MAX_IMAGE_PIXELS: a header at the default cap passes
        # the cap and fails on its missing payload; one pixel more fails at
        # the dims.
        assert codec.MAX_PIXELS == 178_956_970
        for pixels, offset in ((codec.MAX_PIXELS, 32), (codec.MAX_PIXELS + 1, 8)):
            header = struct.pack("<4sBBH6I", b"STPZ", 1, 0, 0, pixels, 1, 1, 1, 1, 1)
            with pytest.raises(FormatError) as exc:
                deserialize(header)
            assert exc.value.offset == offset

    @given(
        dims=st.tuples(*[st.integers(0, 3)] * 5),
        ranks=st.lists(st.integers(0, 4), min_size=3, max_size=3),
        real_input=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(2, 2, 2, 2, 0), ranks=[1, 1, 1], real_input=False, seed=0)
    @example(dims=(2, 0, 2, 2, 1), ranks=[1, 1, 1], real_input=False, seed=0)
    @example(dims=(2, 2, 3, 2, 3), ranks=[1, 0, 1], real_input=True, seed=0)
    @example(dims=(2, 2, 3, 2, 2), ranks=[2, 3, 1], real_input=True, seed=0)
    @settings(deadline=None, max_examples=200)
    def test_serialize_accepts_what_deserialize_accepts(self, dims, ranks, real_input, seed):
        # Building the factorization raises DimensionError exactly when
        # deserialize refuses a container with its header, at the dims
        # (offset 8) or the ranks (offset 28), before the payload: l = 0, a
        # zero dim, rank 0 and ranks above min(m1, n1) included.
        m1, m2, n1, n2, l = dims
        R = ranks[:l]
        header = struct.pack(f"<4sBBH5I{l}I", b"STPZ", 1, int(real_input), 0, *dims, *R)
        payload = sum(16 * (m1 * r + m2 * n2 + n1 * r) + 8 * r for r in R)
        try:
            F = random_factors(np.random.default_rng(seed), m1, m2, n1, n2, R, real_input)
        except DimensionError:
            with pytest.raises(FormatError) as exc:
                deserialize(header + bytes(payload))
            assert exc.value.offset in (8, 28)
            return
        blob = serialize(F)
        assert blob[: len(header)] == header and len(blob) == len(header) + payload
        G = deserialize(blob)
        assert G.dims == F.dims == dims
        assert G.block_rank == F.block_rank == R
        assert G.real_input == real_input
        for s, t in zip(F.slices, G.slices, strict=True):
            for name in ("U", "sigma", "C", "V"):
                assert same_bytes(getattr(s, name), getattr(t, name))

    def test_zero_dimension(self):
        rng = np.random.default_rng(9)
        blob = bytearray(serialize(random_factors(rng, 2, 2, 2, 2, [1])))
        blob[8:12] = (0).to_bytes(4, "little")
        with pytest.raises(FormatError) as exc:
            deserialize(bytes(blob))
        assert exc.value.offset == 8

    @pytest.mark.parametrize("field", ["U", "sigma", "C", "V"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, field, value):
        rng = np.random.default_rng(11)
        m1, m2, n1, n2, r = 2, 3, 2, 2, 2
        blob = bytearray(serialize(random_factors(rng, m1, m2, n1, n2, [1, r])))
        # Offsets of slice 1's fields; the bad scalar is the field's last.
        start = 28 + 4 * 2 + 16 * (m1 + m2 * n2 + n1) + 8
        sizes = {"U": 16 * m1 * r, "sigma": 8 * r, "C": 16 * m2 * n2, "V": 16 * n1 * r}
        order = list(sizes)
        at = start + sum(sizes[name] for name in order[: order.index(field)])
        end = at + sizes[field]
        blob[end - 8 : end] = np.float64(value).tobytes()
        with pytest.raises(FormatError, match="NaN or Inf") as exc:
            deserialize(bytes(blob))
        assert exc.value.offset == at

    def test_slices_of_other_dims_are_refused_when_built(self):
        rng = np.random.default_rng(10)
        F = random_factors(rng, 2, 2, 2, 2, [1, 1])
        other = MatStpSvd(
            U=cplx(rng, 3, 1),
            sigma=np.ones(1),
            C=cplx(rng, 2, 2),
            V=cplx(rng, 3, 1),
        )
        with pytest.raises(DimensionError, match="factor shapes"):
            replace(F, slices=[F.slices[0], other])
