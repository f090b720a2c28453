"""Shared helpers for the test suite."""

import numpy as np


def cplx(rng, *shape):
    """Standard-normal complex array."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def with_spectrum(rng, m, n, sigma):
    """m x n complex matrix with the given singular values and random
    singular vectors."""
    U, _ = np.linalg.qr(cplx(rng, m, len(sigma)))
    V, _ = np.linalg.qr(cplx(rng, n, len(sigma)))
    return (U * sigma) @ V.conj().T


def same_bytes(a, b) -> bool:
    """True iff a and b have the same dtype, shape and bytes.

    Unlike np.array_equal, this tells -0.0 from +0.0 (and compares NaNs).
    """
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def rel_err(actual, expected) -> float:
    """Frobenius relative error of actual vs expected."""
    a = np.asarray(actual, dtype=np.complex128)
    e = np.asarray(expected, dtype=np.complex128)
    denom = np.linalg.norm(e.ravel())
    if denom == 0.0:
        return float(np.linalg.norm(a.ravel()))
    return float(np.linalg.norm((a - e).ravel()) / denom)


def dft_matrix(n: int) -> np.ndarray:
    """Explicit unnormalized DFT matrix: F[j, k] = exp(-2*pi*i*j*k/n)."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n)


def jacobi_hermitian_eigvals(H, sweeps=200, tol=1e-28) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations.

    Independent of LAPACK; used as an oracle for singular values via the
    eigenvalues of A^H A.  Returns eigenvalues sorted descending.
    """
    H = np.array(H, dtype=np.complex128)
    n = H.shape[0]
    for _ in range(sweeps):
        off = np.sum(np.abs(H - np.diag(np.diag(H))) ** 2)
        if off <= tol * max(np.sum(np.abs(np.diag(H)) ** 2), 1e-300):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                h = H[p, q]
                if abs(h) == 0.0:
                    continue
                # Phase similarity making the pivot real, then a real rotation.
                D = np.eye(n, dtype=np.complex128)
                D[q, q] = np.conj(h) / abs(h)
                H = D.conj().T @ H @ D
                tau = (H[q, q].real - H[p, p].real) / (2.0 * H[p, q].real)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                R = np.eye(n, dtype=np.complex128)
                R[p, p] = c
                R[q, q] = c
                R[p, q] = s
                R[q, p] = -s
                H = R.conj().T @ H @ R
    return np.sort(np.diag(H).real)[::-1]
