"""SVD kernels with a deterministic phase convention.

``svd`` returns thin factors (min(m, n) triplets) with each left singular
vector rotated so that its largest-modulus entry is real and positive, ties
broken by lowest row index; the matching right vector gets the same rotation.
Repeated calls on identical input are therefore bitwise reproducible, which
downstream factorizations rely on for stable truncation prefixes.  A
real-dtype input takes LAPACK's real-arithmetic SVD and gives real factors, for
which the rotation is a sign.

``svds`` gives the leading r triplets: the dense SVD's prefix for
r > min(m, n) / 2, and otherwise the Rayleigh–Ritz triplets of the top r
eigenvectors of the short-side Gram matrix or, on large shapes
(``_GKL_WORK``), the top r Ritz triplets of a Golub–Kahan–Lanczos process.
``leading_triplet`` is the same Lanczos process for the first triplet
alone, which returns its Ritz triplet when its step budget runs out; its
docstring describes the Gram route it takes on tall and wide input, and
that route's scale step.  All three follow the phase convention.

One input rule guards the solvers that square entries (``leading_triplet``,
the Gram and Lanczos sides of ``svds`` and :func:`~stpz.nkp.nkp`): a
nonzero A with ||A||_F^2 outside ``_NORM2_RANGE`` = [2^-600, 2^600] is
factored as A s^2, for the power of two s that brings its largest modulus
into [1/2, 2), and the result is scaled back; ``svds`` takes its dense
route instead.
NaN or Inf raises NumericError, and an empty matrix DimensionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError

__all__ = ["SvdResult", "leading_triplet", "svd", "svds"]

# Step budget and relative stopping tolerance of leading_triplet.
_GKL_STEPS = 24
_GKL_TOL = 1e-12

# Shapes on which leading_triplet runs Lanczos on the k x k Gram matrix of
# the tall side: short side k <= _GRAM_SIDE and long side >= _GRAM_ASPECT * k.
# G is one BLAS-3 pass over A, where each Lanczos step on A takes two
# matrix-vector passes, and G's own steps are cheap while k is small.
# Measured on 2 vCPU with OpenBLAS, median of 9-15 interleaved calls on
# rank-1-plus-noise rearrangements (sigma_2 / sigma_1 near 0.15), the Gram
# route over Lanczos on A, real and complex:
# - side: at aspect 32, 0.94-0.97 at k = 64, 0.76-1.07 at k = 96,
#   0.95-1.21 at k = 128 and 1.19-2.26 at k = 256;
# - aspect, at k = 64: 0.83-1.13 at 16 (1024 x 64), 0.94-0.99 at 32 and
#   0.71-0.80 at 64 (4096 x 64).  At k = 16 and 32 it won from aspect 8.
_GRAM_SIDE = 64
_GRAM_ASPECT = 32

# Shapes on which svds (2r <= k = min(m, n)) runs Lanczos on A instead of
# forming the Gram matrix: k^4, times 8 for complex input, at least
# _GKL_WORK * max(m, n).  At aspect 1 that is k >= 512 complex and k >= 1024
# real; a taller or wider A needs a larger k, since each Lanczos step reads
# all of A where the Gram matrix takes one BLAS-3 pass.  The Gram route's
# cost is its full eigendecomposition of G, k^3; the Lanczos route's is its
# step count, which grows with r and with the flatness of the spectrum.
# Measured on 2 vCPU with OpenBLAS, median of 5 interleaved calls, Lanczos
# time over Gram time at r = 20, for slice 1 of a textured RGB image /
# complex (or real) Gaussian noise:
# - complex square: 0.80 / 1.13 at k = 256, 0.62 / 0.80 at 384, 0.35 / 0.59
#   at 512 (54 against 155 ms on the image), 0.26 / 0.38 at 768 and
#   0.17 / 0.30 at 1024;
# - real square: 1.44 / 1.96 at k = 512, 0.79 / 1.19 at 768 and 0.63 / 0.93
#   at 1024;
# - complex noise by aspect: 0.63 at 640 x 512, 1.07 at 1024 x 512, 1.50 at
#   512 x 2048, 1.93 at 2048 x 512, 0.43 at 1024 x 768, 0.84 at 1536 x 768;
#   real noise, 1.65 at 2048 x 1024;
# - by r, at 512^2 complex: 0.04 at r = 1, 0.35 at 20, 1.13 at 64, and
#   2.39 / 2.45 at r = 256; 5.58 at 1024^2 real noise with r = 512;
# - the slowest spectra found, linear in [1, 0.5] and in [1, 0.95] at 512^2
#   complex: 1.39 and 1.74 at r = 20 (127 and 160 ms against 92 ms), and
#   0.60-0.68 at r = 1 and 2, where the loop runs 140-170 steps; with the
#   stopping test at every step instead of spaced past _GKL_STEPS, r = 1
#   took 1.83-2.48.
_GKL_WORK = 2**30

# Range of ||A||_F^2 in which the solvers take A as it is.  Inside it no
# square or Lanczos norm overflows, and subnormal squares, each off by at
# most 2^-1075, stay far below eps * nkp._TAIL_MIN * ||A||_F^2 at any size.
_NORM2_RANGE = (2.0**-600, 2.0**600)


@dataclass
class SvdResult:
    """Thin SVD factors: A ≈ U @ diag(sigma) @ V^H.

    U is m x r and V is n x r with orthonormal columns; sigma is length r,
    nonnegative and descending.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return self.sigma.size


def _fix_phases(U: np.ndarray, V: np.ndarray) -> None:
    # Largest-modulus entry of each left vector made real positive (first
    # index wins ties); the paired right vector absorbs the same rotation.
    # The modulus is np.hypot of the parts, which gives the scalar abs()
    # bit for bit (np.abs of a complex array may differ from it by an ulp).
    # Every caller passes orthonormal columns, whose largest modulus is at
    # least 1 / sqrt(m), so no column is zero.
    i = np.argmax(np.abs(U), axis=0)
    u = U[i, np.arange(U.shape[1])]
    ph = np.conj(u) / np.hypot(u.real, u.imag)
    U *= ph
    V *= ph


def _as_matrix(A, name: str) -> np.ndarray:
    # A real dtype (bool, integer or floating) becomes float64, any other complex128.
    A = np.asarray(A)
    A = np.asarray(A, dtype=np.float64 if A.dtype.kind in "biuf" else np.complex128)
    if A.ndim != 2:
        raise DimensionError(f"{name} expects a matrix")
    return A


def _scale(A: np.ndarray, name: str) -> tuple[np.ndarray, float, float]:
    # (A s^2, s, ||A s^2||_F^2) under the input rule.  For A in range, read
    # in one pass, and for a zero A, s = 1 and A itself is returned, uncopied.
    if 0 in A.shape:
        raise DimensionError(f"{name} expects a nonempty matrix")
    norm2 = float(np.vdot(A, A).real)
    if _NORM2_RANGE[0] <= norm2 <= _NORM2_RANGE[1]:
        return A, 1.0, norm2
    X = np.abs(A)
    top = float(X.max())
    if not math.isfinite(top):
        raise NumericError(f"{name} input contains NaN or Inf")
    e = math.frexp(top)[1] // 2
    np.ldexp(X, -2 * e, out=X)
    s = math.ldexp(1.0, -e)
    return (A if s == 1.0 else A * s * s), s, float(np.vdot(X, X))


def svd(A) -> SvdResult:
    """Thin SVD of a dense matrix.

    Real input (a bool, integer or floating dtype) gives real float64
    factors; any other input (complex, or object) complex128 factors.
    """
    A = _as_matrix(A, "svd")
    if not np.all(np.isfinite(A)):
        raise NumericError("svd input contains NaN or Inf")
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    V = np.conj(Vh.T, order="C")
    _fix_phases(U, V)
    return SvdResult(U=U, sigma=s, V=V)


def leading_triplet(A) -> SvdResult:
    """Leading singular triplet of a matrix, or its Ritz approximation
    when the Lanczos process does not converge within its step budget.

    Golub–Kahan–Lanczos bidiagonalization (Golub & Kahan 1965) with full
    reorthogonalization, started from A w for a fixed pseudo-random w, so
    the result is a deterministic function of A.  After k steps
    A^H U_k = V_k L_k^H and A V_k = U_k L_k + beta u_{k+1} e_k^T with L_k
    real lower bidiagonal, so the Ritz triplet (sigma, U_k p, V_k q) from
    the leading SVD of L_k has residual ||A v - sigma u|| = |beta q_k|.
    The process stops when that is at most ``_GKL_TOL * sigma``, or after
    ``_GKL_STEPS`` steps.  A breakdown, a zero alpha or a zero beta (an
    exhausted Krylov space, as for the rearrangement of an exact Kronecker
    product, of rank 1), is such a stop.  A zero input gives (0, e_1, e_1)
    as :func:`svd` does.  A nonzero input with A w = 0 starts once more,
    from its column of largest norm.  The result has one column and
    follows :func:`svd`'s phase convention, and is real, from a real
    Lanczos basis, for real input.

    A tall or wide A whose short side k is at most ``_GRAM_SIDE``, and
    whose long side is at least ``_GRAM_ASPECT * k``, runs the process on
    the k x k Gram matrix G = X^H X of its tall side X (A, or A^H for a
    wide A) instead: the start, the stopping test and the budget above
    then apply to G, whose leading vector is v, and the triplet is
    sigma = ||X v||, u = X v / sigma (swapped for a wide A).  G squares the
    spectrum, so the process converges in fewer steps, each on k x k, and
    it reads A once to form G and once to map v back.  G then takes the
    module's input rule as its own input, since ||G||_F^2 can reach 2^1200
    while ||A||_F^2 is in range: the process runs on G s^2, whose unit
    leading vector is G's, so no scale is undone.

    A Ritz triplet is exact for its own projection whether or not it has
    converged: u^H A v = sigma, so ||A - sigma u v^H||_F^2 =
    ||A||_F^2 - sigma^2, and sigma <= sigma_1.  On the Gram route this
    holds for any unit v, since u = A v / ||A v||.  At the budget, as on a
    flat leading spectrum, sigma and that residual approach the optimum
    from their own sides, and u, v are not yet the leading vectors.

    The stopping test certifies a singular triplet, not the leading one.
    Like any Krylov method from one start vector, the process finds
    sigma_1 only if A w has a component along u_1, that is, if w is not
    orthogonal to v_1 (on the Gram route, to G's leading eigenvector).  A
    matrix built with v_1 orthogonal to the fixed w converges to a smaller
    singular value; its residual is still below the tolerance.
    """
    A, s, _ = _scale(_as_matrix(A, "leading_triplet"), "leading_triplet")
    f = _leading_triplet(A)
    f.sigma = f.sigma / s / s
    return f


def _leading_triplet(A: np.ndarray) -> SvdResult:
    # leading_triplet of a nonempty float64 or complex128 A already within
    # the input rule's range, for a caller that has checked the scale itself.
    k = min(A.shape)
    if k <= _GRAM_SIDE and max(A.shape) >= _GRAM_ASPECT * k:
        return _gram_triplet(A)
    return _gkl(A, 1, min(_GKL_STEPS, k))


def _zero_triplet(A: np.ndarray, r: int = 1) -> SvdResult:
    # r triplets (0, e_j, e_j) in A's dtype, as svd gives them for a zero A.
    m, n = A.shape
    U, V = np.eye(m, r, dtype=A.dtype), np.eye(n, r, dtype=A.dtype)
    return SvdResult(U=U, sigma=np.zeros(r), V=V)


def _gram_triplet(A: np.ndarray) -> SvdResult:
    # The Gram route of leading_triplet.  For a wide A the tall side
    # X = A^H is copied once, C-contiguous, for _gram.  G is square, so
    # Lanczos on G itself is the route _leading_triplet would pick for it.
    wide = A.shape[0] < A.shape[1]
    X = np.conj(A.T, order="C") if wide else A
    v = _gkl(_scale(_gram(X), "leading_triplet")[0], 1, min(_GKL_STEPS, X.shape[1])).V
    x = X @ v
    sigma = np.linalg.norm(x)
    if sigma == 0.0:
        # Only a zero A: a nonzero X in range has ||X v||^2 = v^H G v,
        # which is near the leading eigenvalue, at least ||X||_F^2 / k.
        return _zero_triplet(A)
    U, V = x / sigma, v
    if wide:
        U, V = V, U
    _fix_phases(U, V)
    return SvdResult(U=U, sigma=np.array([sigma]), V=V)


def _gkl(A: np.ndarray, r: int, steps: int) -> SvdResult | None:
    # Golub–Kahan–Lanczos on A itself: the top r Ritz triplets after at
    # most steps steps, r <= steps <= min(m, n), or None for a breakdown
    # before the budget at r > 1.  leading_triplet runs it at r = 1 within
    # _GKL_STEPS, where the stopping test runs at every step; svds at
    # r <= k / 2, and takes the Gram route on None.
    m, n = A.shape
    # Basis vectors are rows, so each is contiguous; they take A's dtype.
    # Vb starts zero, so no step reads memory it has not written.
    Ub = np.empty((steps + 1, m), dtype=A.dtype)
    Vb = np.zeros((steps, n), dtype=A.dtype)
    alpha = np.zeros(steps)
    beta = np.empty(steps + 1)
    u = A @ np.random.default_rng(0).standard_normal(n)
    beta[0] = np.linalg.norm(u)
    if beta[0] == 0.0:
        if not A.any():
            return _zero_triplet(A, r)
        # A w = 0: start from A e_j for the column j of largest norm, which
        # is nonzero and, within the input rule's range, has a norm that
        # does not underflow.
        u = A[:, np.argmax(np.linalg.norm(A, axis=0))]
        beta[0] = np.linalg.norm(u)
    Ub[0] = u / beta[0]
    for k in range(steps):
        # v_k = A^H u_k - beta_k v_{k-1}, computed as conj(u_k^H A); at
        # k = 0, Vb[-1] is still a zero row.
        v = np.conj(Ub[k].conj() @ A)
        v -= beta[k] * Vb[k - 1]
        v = _reorthogonalize(v, Vb[:k])
        alpha[k] = _norm(v, alpha[0])
        # A zero alpha leaves Vb[k] a zero row, so u and beta_{k+1} come
        # out zero: one breakdown rule, a zero beta, covers both.
        if alpha[k]:
            Vb[k] = v / alpha[k]
        u = A @ Vb[k] - alpha[k] * Ub[k]
        u = _reorthogonalize(u, Ub[: k + 1])
        beta[k + 1] = _norm(u, alpha[0])
        last = k + 1 == steps
        if r > 1 and beta[k + 1] == 0.0 and not last:
            # A breakdown before the budget (which for svds is min(m, n),
            # a full basis): the basis spans an invariant subspace, which
            # holds one copy of each singular value it meets and none of
            # the values it misses, so its Ritz triplets need not be the
            # leading r.
            return None
        # The test, an SVD of L_k, runs at every multiple of r steps, and
        # past _GKL_STEPS (all of leading_triplet's budget) at every
        # multiple of max(r, _GKL_STEPS), since at small r the loop can run
        # hundreds of steps.  At r = 1 a breakdown passes it, with
        # beta_{k+1} = 0; after a zero alpha, L_k's last column is zero, so
        # Qh[0, k] is too and the zero row Vb[k] does not reach V.  The
        # budget's last step takes the Ritz triplets as they are.
        every = r if k < _GKL_STEPS else max(r, _GKL_STEPS)
        if last or beta[k + 1] == 0.0 or (k + 1) % every == 0:
            L = np.diag(alpha[: k + 1]) + np.diag(beta[1 : k + 1], -1)
            P, s, Qh = np.linalg.svd(L)
            if last or np.all(beta[k + 1] * np.abs(Qh[:r, k]) <= _GKL_TOL * s[0]):
                break
        Ub[k + 1] = u / beta[k + 1]
    # The Ritz triplets of the last L_k, converged or at the budget.
    U = Ub[: k + 1].T @ P[:, :r]
    V = Vb[: k + 1].T @ Qh[:r].T
    _fix_phases(U, V)
    return SvdResult(U=U, sigma=s[:r], V=V)


def _norm(x: np.ndarray, alpha0: float) -> float:
    # ||x||, or 0.0 for a breakdown: a norm at most _GKL_TOL * alpha_0, where
    # alpha_0 = ||A^H u_0|| <= sigma_1, is roundoff from an exhausted Krylov
    # space, and a unit vector made from it need not be orthogonal to the
    # basis.  Dropping it changes L by less than the stopping tolerance.
    norm = np.linalg.norm(x)
    return 0.0 if norm <= _GKL_TOL * alpha0 else norm


def _reorthogonalize(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # Two classical Gram-Schmidt passes against orthonormal rows.  The
    # coefficients basis^* x are formed as conj(basis @ conj(x)), which
    # conjugates the vector rather than a copy of the whole basis.
    for _ in range(2):
        x = x - np.conj(basis @ np.conj(x)) @ basis
    return x


def _gram(X: np.ndarray) -> np.ndarray:
    # X^H X of a tall X.  A complex X is viewed as real columns (re, im)
    # interleaved, and one real product P = Y^T Y gives both parts:
    # Re G = P_rr + P_ii and Im G = P_ri - P_ir.  This is exactly Hermitian,
    # and exactly conj(G) for conj(X), since conjugation only negates the
    # imaginary columns of Y.
    if not np.iscomplexobj(X):
        return X.T @ X
    Y = np.ascontiguousarray(X).view(np.float64)
    P = Y.T @ Y
    G = np.empty((X.shape[1], X.shape[1]), dtype=np.complex128)
    G.real = P[0::2, 0::2] + P[1::2, 1::2]
    G.imag = P[0::2, 1::2] - P[1::2, 0::2]
    return G


def svds(A, r: int) -> SvdResult:
    """Leading r singular triplets, real for real input, in :func:`svd`'s
    phase convention.

    When r > k / 2, with k = min(m, n), the result is the first r
    triplets of :func:`svd`, bit for bit.  Otherwise it comes from the
    k x k Gram matrix G = X^H X of the tall side X (A, or A^H for a wide
    A): Q holds the top r eigenvectors of G, and the triplets are the
    Rayleigh–Ritz ones, ``svd(X @ Q)`` with its right vectors mapped back
    through Q.  U and V
    are then orthonormal to roundoff, and U diag(sigma) V^H is the
    orthogonal projection of A onto span(Q) (A Q Q^H for a tall A).  The
    angle between span(Q) and the leading right singular subspace is about
    eps * sigma_1^2 / (sigma_r^2 - sigma_{r+1}^2) (Golub & Van Loan,
    *Matrix Computations*, on the symmetric eigenproblem); sigma and the
    truncation residual ||A - U diag(sigma) V^H|| are off by the square of
    that angle, and each sigma_i by about eps * sigma_1^2 / sigma_i
    besides.  Input the module's input rule would scale takes the dense route.

    On a large shape (``_GKL_WORK``: at aspect 1, k >= 512 for complex and
    k >= 1024 for real input), the same r <= k / 2 instead run the
    Golub–Kahan–Lanczos process of :func:`leading_triplet` on A itself,
    with a budget of k steps, and the triplets are the top r Ritz triplets
    (sigma_j, U_k p_j, V_k q_j) of its bidiagonal L_k.  The process stops
    when beta |q_j[k]|, the residual ||A v_j - sigma_j u_j|| of each of
    them, is at most ``_GKL_TOL * sigma_1``; the test runs at every
    multiple of r steps, and past ``_GKL_STEPS`` steps at every multiple
    of max(r, ``_GKL_STEPS``).  Each triplet is then a singular triplet to
    that tolerance, and U and V are orthonormal to roundoff.  A breakdown,
    an alpha or beta at most ``_GKL_TOL`` times the first alpha, means the
    Krylov space is exhausted: its basis spans an invariant subspace,
    which holds one copy of each singular value it meets.  At r = 1 a
    zero alpha or a zero beta stops the process; at r > 1 the call takes
    the Gram route, since the values the subspace misses can be larger
    than the ones it holds (two values each repeated 256 times break down
    at step 2, with one copy of each).  A zero matrix gets (0, e_j, e_j)
    as :func:`svd` gives them.
    The stopping test certifies r singular triplets, not the leading r:
    as for :func:`leading_triplet`, a singular value whose right vector is
    orthogonal to the start, or a second copy of a repeated value when no
    breakdown occurs, enters the process only through roundoff.  That
    found every second copy in the cases tested (25 values, each twice),
    but not 19 more copies: with 21 values in [1, 2], each 24 times, the
    top 20 came back with some 1.95s in place of 2s.  The route's cost
    grows with its step count, which grows with r and with the flatness
    of the spectrum; ``_GKL_WORK``'s comment has the measured table.

    The split at k / 2 is where the two routes cost about the same, at
    every size measured.  On 18 shapes from 16 x 16 to 128 x 128 and 4096 x 4, real and
    complex (2 vCPU, OpenBLAS, median of 41 calls, two runs), the Gram side
    took 0.26-0.67 of the dense time at r = 1 and 0.52-1.08 of it at
    r = k / 2.
    """
    A = _as_matrix(A, "svds")
    k = min(A.shape)
    if not 1 <= r <= k:
        raise DimensionError(f"truncation rank {r} out of range [1, {k}]")
    if 2 * r <= k and _scale(A, "svds")[1] == 1.0:
        if k**4 * (8 if np.iscomplexobj(A) else 1) >= _GKL_WORK * max(A.shape):
            A = np.ascontiguousarray(A)
            return _gkl(A, r, k) or _gram_svds(A, r)
        return _gram_svds(A, r)
    full = svd(A)
    return SvdResult(U=full.U[:, :r].copy(), sigma=full.sigma[:r].copy(), V=full.V[:, :r].copy())


def _gram_svds(A: np.ndarray, r: int) -> SvdResult:
    # Rayleigh–Ritz triplets of the tall side X of A on its top r Gram
    # eigenvectors, swapped back and phase-fixed for a wide A = X^H.
    wide = A.shape[0] < A.shape[1]
    X = A.conj().T if wide else A
    _, E = np.linalg.eigh(_gram(X))
    Q = E[:, : -r - 1 : -1]
    f = svd(X @ Q)
    U, V = f.U, Q @ f.V
    if wide:
        U, V = V, U
        _fix_phases(U, V)
    return SvdResult(U=U, sigma=f.sigma, V=V)
