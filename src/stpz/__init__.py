"""Third-order tensor decompositions based on the semi-tensor product,
the tubal SVD baseline, and a lossy image compression toolchain."""

from .codec import (
    Method,
    StorageReport,
    compression_rate,
    deserialize,
    serialize,
    storage_count,
    storage_report,
)
from .decomp import (
    MatStpSvd,
    TensorStpSvd,
    TSvdFactors,
    decode_samples,
    error_bound_matrix,
    error_bound_tensor,
    mat_stp_svd,
    mat_stp_svd_trunc,
    reconstruct,
    t_svd,
    t_svd_trunc,
    tensor_stp_svd,
    tensor_stp_svd_trunc,
)
from .errors import DimensionError, FormatError, NumericError
from .imaging import (
    ImageBuffer,
    image_to_tensor,
    load_ppm,
    psnr,
    relative_error,
    save_ppm,
    ssim,
    tensor_to_image,
)
from .nkp import KronFactors, nkp, rearrange
from .products import kron_mat, kron_tensor, stp_mat, stp_tensor, stp_vec, t_product
from .svd import SvdResult, svd, svds
from .synthetic import structured_test_image
from .tensor import (
    as_tensor3,
    bcirc,
    bcirc_inv,
    conj_transpose,
    dft3,
    fold,
    frobenius_norm,
    frontal_slice,
    identity_tensor,
    idft3,
    is_f_diagonal,
    is_unitary_tensor,
    transpose,
    unfold,
)

__version__ = "0.1.0"
