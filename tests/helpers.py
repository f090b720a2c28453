"""Shared helpers for the test suite."""

import struct

import numpy as np


def cplx(rng, *shape):
    """Standard-normal complex array."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def with_spectrum(rng, m, n, sigma, real=False):
    """m x n complex (or real) matrix with the given singular values and
    random singular vectors."""
    draw = rng.normal if real else (lambda size: cplx(rng, *size))
    U, _ = np.linalg.qr(draw(size=(m, len(sigma))))
    V, _ = np.linalg.qr(draw(size=(n, len(sigma))))
    return (U * sigma) @ V.conj().T


def scaled_norm(X):
    """Frobenius norm of X, taken at unit scale: np.linalg.norm squares the
    entries, which overflow or underflow at the extreme scales tested."""
    top = np.abs(X).max()
    return float(top * np.linalg.norm(X / top)) if top else 0.0


def fix_phases_loop(U, V):
    """Reference phase fix, one column at a time: the largest-modulus entry
    of each column of U (first index wins ties) made real positive by
    abs(), with the same rotation applied to V's column; a zero column is
    left alone.  Works in place."""
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        m = abs(U[i, j])
        if m > 0.0:
            ph = np.conj(U[i, j]) / m
            U[:, j] *= ph
            V[:, j] *= ph


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


def textured_samples(rng, m, n, l, equal_channels=False):
    """uint8 image samples: a low-rank Kronecker structure plus noise, with
    the DFT slices of a real photo-like input."""
    base = np.kron(rng.uniform(0, 1, (m // 8, n // 8)), rng.uniform(0, 1, (8, 8)))
    planes = [200 * base + rng.normal(0, 6, (m, n)) for _ in range(l)]
    if equal_channels:
        planes = [planes[0]] * l
    return np.clip(np.rint(np.stack(planes, axis=2)), 0, 255).astype(np.uint8)


def rank_zero_container() -> bytes:
    """An 88-byte STPZ container claiming a 2000 x 2000 RGB image whose
    three slices have rank 0 and a 1 x 1 C: a 12 MB image from no U, sigma
    or V at all."""
    header = struct.pack("<4sBBH5I3I", b"STPZ", 1, 1, 0, 2000, 1, 2000, 1, 3, 0, 0, 0)
    return header + np.array([128.0, 0.0] * 3, dtype="<f8").tobytes()
