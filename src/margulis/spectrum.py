"""Dense spectrum of a symmetric stochastic matrix, solved by the walk's symmetry.

With h = 1/2 = (N + 1)/2 mod N, conjugation by either lattice reflection
a(p, q) = (h - p, q) or b(p, q) = (p, -h - q), or by the swap
sigma(p, q) = (q + h, p - h), permutes the eight maps (sigma exchanges T1
with T4 and T2 with T3, and their inverses likewise).  So the walk matrix
commutes with the group <a, b, sigma>, dihedral of order 8, where
sigma a sigma = b.  Each reflection fixes exactly one point of an odd axis,
so with m = (N + 1)/2 the blocks of a-parity times b-parity have sizes m^2,
m(m - 1), (m - 1)m and (m - 1)^2.  sigma carries the (+, -) block onto the
(-, +) one, and maps the (+, +) and (-, -) blocks onto themselves with
their two axes swapped, which splits each into a symmetric and an
antisymmetric part.  The dense spectrum is solved as five blocks, of sizes
m(m + 1)/2, m(m - 1)/2, m(m - 1)/2, (m - 1)(m - 2)/2 and m(m - 1), the
last, (+, -), counted twice.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["SpectralReport", "spectral_report"]


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum summary of a walk (or channel) matrix.

    ``spectrum`` is the full spectrum sorted by descending absolute value;
    ``lam`` is ``abs(spectrum[1])``, the largest absolute eigenvalue on the
    orthogonal complement of the uniform vector.  ``blocks`` are the sizes
    of the diagonal blocks actually eigensolved, each listed once, and
    ``residual`` is the Frobenius norm of ``M V - V diag(w)`` over all of
    M (0 from channel.channel_report, which solves eigenvalues only).  On
    the walk's five-block path the (+, -) block, the last, stands for the
    (-, +) one too, so its eigenvalues and its residual count twice and
    ``spectrum`` still has N^2 entries.
    """

    modulus: int
    lam: float
    spectrum: tuple[float, ...]
    blocks: tuple[int, ...] = ()
    residual: float = 0.0


def _commutes_with_reflection(M4: np.ndarray, c: int) -> bool:
    """Whether M4[r(p), :, r(s), :] == M4[p, :, s, :] exactly, r(x) = (c - x) mod N.

    r reverses the runs 0..c and c+1..N-1, so the first half of each run of
    p against the other half reversed, over every s, compares each pair of
    entries once.  Only strided views are compared; no N^4 array is copied.
    """
    N = M4.shape[0]
    runs = ((0, c + 1), (c + 1, N))
    for lo, hi in runs:
        half = (hi - lo + 1) // 2
        for s in (slice(*run) for run in runs):
            mirrored = M4[hi - half:hi, :, s][::-1, :, ::-1]
            if not np.array_equal(M4[lo:lo + half, :, s], mirrored):
                return False
    return True


def _axis_parities(N: int):
    """Even and odd bases of the lattice reflections a and b, as (axes_a, axes_b).

    Each axis is (even, odd), and each basis is (rows, partners, weights,
    sign).  Folding a matrix's columns as ``A[:, rows] + sign * A[:, partners]``
    and keeping rows ``rows`` gives, scaled by ``outer(weights, weights)``, its
    block in the basis e_fixed, (e_x + sign e_r(x)) / sqrt(2) when the matrix
    commutes with r.  The fixed point's column is folded onto itself, hence
    its weight sqrt(1/2).  a's reflection on Z_N is x -> (h - x) mod N; b's,
    y -> (-h - y) mod N, has the same bases moved by -h, so sigma swaps the
    two axes index for index.
    """
    h = (N + 1) // 2
    x = np.arange(N)
    r = (h - x) % N
    fixed = h * h % N
    pairs = np.flatnonzero(x < r)
    even = (np.r_[fixed, pairs], np.r_[fixed, r[pairs]],
            np.r_[math.sqrt(0.5), np.ones(pairs.size)], 1.0)
    axes_a = even, (pairs, r[pairs], np.ones(pairs.size), -1.0)
    axes_b = tuple(((rows - h) % N, (part - h) % N, w, sign) for rows, part, w, sign in axes_a)
    return axes_a, axes_b


def _parity_folds(M4: np.ndarray, axes_a, axes_b) -> list[list[np.ndarray]]:
    """M4's four parity blocks [[(+, +), (+, -)], [(-, +), (-, -)]], unweighted.

    ``axes_a`` and ``axes_b`` are the (even, odd) bases of the first and the
    second lattice axis.  Each block is indexed [i, j, k, l] for the row
    (a[i], b[j]) and the column (a[k], b[l]).  An axis's odd rows are its
    even rows less the fixed point, the first.  So the blocks are filled one
    even a-row p at a time: M4[p, even b-rows], an (m, N, N) slice, is folded
    along a's columns and then along b's, and gives row i of the even-a
    blocks and row i - 1 of the odd-a ones.  Beside the blocks, only that
    slice and its folds are held.  On a walk matrix (entries multiples of
    1/8) the folds are exact sums.
    """
    m = axes_a[0][0].size
    folds = [[np.empty((m - skip_a, m - skip_b) * 2) for skip_b in range(2)]
             for skip_a in range(2)]
    for i, p in enumerate(axes_a[0][0]):
        rows = M4[p, axes_b[0][0]]
        for skip_a, (rows_a, part_a, _, sign_a) in enumerate(axes_a):
            if i < skip_a:  # the fixed point has no odd row
                continue
            fold_a = rows[:, rows_a] + sign_a * rows[:, part_a]
            for skip_b, (rows_b, part_b, _, sign_b) in enumerate(axes_b):
                folds[skip_a][skip_b][i - skip_a] = (fold_a[skip_b:, :, rows_b]
                                                     + sign_b * fold_a[skip_b:, :, part_b])
    return folds


def _swap_parts(F: np.ndarray, w: np.ndarray) -> Iterator[np.ndarray]:
    """The symmetric and antisymmetric blocks of a parity fold F invariant
    under (i, j) -> (j, i), with axis weights w.

    Their bases are e_ii, (e_ij + e_ji) / sqrt(2) and (e_ij - e_ji) / sqrt(2),
    i < j, so each entry is F[ij, kl] +- F[ij, lk], and a diagonal pair ii
    carries an extra weight sqrt(1/2).
    """
    for k, sign in ((0, 1.0), (1, -1.0)):
        i, j = np.triu_indices(w.size, k)
        v = w[i] * w[j] * np.where(i == j, math.sqrt(0.5), 1.0)
        rows = F[i, j]
        yield (rows[:, i, j] + sign * rows[:, j, i]) * np.outer(v, v)


def _eigen_blocks(M: np.ndarray, N: int) -> list[tuple[np.ndarray, int]]:
    """Diagonal blocks of M, each with the number of times its spectrum
    counts, that together make up M's spectrum.

    When M is N^2 x N^2 and commutes exactly with the lattice symmetries
    a, b and sigma of the module docstring, these are the five blocks of
    that group, the (+, -) parity block counted twice; else M itself, once.
    Commutation makes the off-diagonal blocks exactly zero, and the basis
    change is orthogonal, so residuals add in quadrature.  a and b are
    checked on M, sigma on the parity folds, all with exact equality.
    """
    h = (N + 1) // 2
    if N < 3 or N % 2 == 0 or M.shape != (N * N, N * N):
        return [(M, 1)]
    M4 = M.reshape(N, N, N, N)
    if not (_commutes_with_reflection(M4, h)
            and _commutes_with_reflection(M4.transpose(1, 0, 3, 2), N - h)):
        return [(M, 1)]
    axes_a, axes_b = _axis_parities(N)
    even, odd = axes_a
    (pp, pm), (mp, mm) = _parity_folds(M4, axes_a, axes_b)
    # sigma takes the parity fold (ea, eb)[i, j, k, l] to (eb, ea)[j, i, l, k].
    if not (np.array_equal(mp, pm.transpose(1, 0, 3, 2))
            and all(np.array_equal(F, F.transpose(1, 0, 3, 2)) for F in (pp, mm))):
        return [(M, 1)]
    v = np.outer(even[2], odd[2]).ravel()
    blocks = [(B, 1) for F, base in ((pp, even), (mm, odd)) for B in _swap_parts(F, base[2])]
    blocks.append((pm.reshape(v.size, v.size) * np.outer(v, v), 2))
    return [(B, count) for B, count in blocks if B.size]


def spectral_report(M: np.ndarray, *, modulus: int = 0) -> SpectralReport:
    """Eigenvalues of a symmetric stochastic matrix and its mixing rate.

    ``lam`` is read off the eigensolve; a degenerate eigenvalue 1 (a
    disconnected walk) survives as ``lam == 1``.  When ``modulus`` is N and
    M is N^2 x N^2 with the walk's symmetry, the five blocks of the group
    <a, b, sigma> are solved in place of M, about 1/40 of the eigensolve
    work at N = 41.  Symmetry is checked on the blocks solved: M is
    orthogonally similar to their direct sum, so it is symmetric exactly
    when they all are.

    Parameters
    ----------
    M : real symmetric matrix, row-stochastic within 1e-10.

    Raises
    ------
    ValueError
        If M is not symmetric row-stochastic, or its top eigenvalue is not 1.
    RuntimeError
        If the eigendecomposition residual exceeds tolerance.
    """
    tol = 1e-10
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square and symmetric")
    blocks = _eigen_blocks(M, modulus)
    if not all(np.allclose(B, B.T, atol=tol) for B, _ in blocks):
        raise ValueError("matrix must be square and symmetric")
    if not np.allclose(M.sum(axis=1), 1.0, atol=tol):
        raise ValueError("matrix must be row-stochastic")
    eigvals, squared_residual = [], 0.0
    for B, count in blocks:
        w, V = np.linalg.eigh(B)
        squared_residual += count * np.linalg.norm(B @ V - V * w, ord="fro") ** 2
        eigvals += [w] * count
    residual = math.sqrt(squared_residual)
    if residual > 1e-8 * max(1.0, np.linalg.norm(M, ord="fro")):
        raise RuntimeError(f"eigendecomposition residual too large: {residual:.3e}")
    # Ascending first, so ties in |x| keep the order one eigh of M gives.
    spectrum = tuple(sorted(np.sort(np.concatenate(eigvals)).tolist(), key=abs, reverse=True))
    if abs(spectrum[0] - 1.0) > tol:
        raise ValueError(f"largest eigenvalue {spectrum[0]!r} is not 1 within {tol}")
    lam = abs(spectrum[1])
    return SpectralReport(modulus=modulus, lam=lam, spectrum=spectrum,
                          blocks=tuple(B.shape[0] for B, _ in blocks), residual=residual)
