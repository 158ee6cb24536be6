"""Dense oracles the library does not ship: Weyl and phase-point operators as
dense products, the phase-point stack, the metaplectic words of the four
walk linear parts with the unitaries they give, the walk in the Fourier
frame, as a matrix and as one read per map, its block at one gcd class,
fixed points of map words, and a phase-blind comparison of two matrices.

The words are written out here, independently of the chirp that
``affine_unitary`` derives from each matrix.  They are built from the
public ``fourier`` and from Q+- = diag(omega^{+-j^2}) formed by ``_omega``,
not from the library's ``quadratic_phase``, which is itself ``affine_unitary``.
"""

from functools import lru_cache, reduce

import numpy as np

from margulis.phasespace import PhaseSpaceContext, fourier
from margulis.walk import AffineMap, generator_map, walk_matrix

#: Walk linear part -> (SL(2, Z) matrix, word in matrix order over Q+/Q-
#: (quadratic phase of sign +-1), F and Finv (the DFT and its adjoint)).
LINEAR_WORDS = {
    "S1": (((1, 2), (0, 1)), ("Q+",)),
    "S1inv": (((1, -2), (0, 1)), ("Q-",)),
    "S2": (((1, 0), (2, 1)), ("F", "Q-", "Finv")),
    "S2inv": (((1, 0), (-2, 1)), ("F", "Q+", "Finv")),
}

def _omega(N: int, exponents) -> np.ndarray:
    return np.exp(2j * np.pi * (np.asarray(exponents) % N) / N)


def quadratic_diagonal(ctx: PhaseSpaceContext, c: int) -> np.ndarray:
    """diag(omega^{c j^2}) as a dense diagonal; Q+- for c = +-1."""
    return np.diag(_omega(ctx.N, c * np.arange(ctx.N) ** 2))


_PRIMITIVES = {
    "Q+": lambda ctx: quadratic_diagonal(ctx, +1),
    "Q-": lambda ctx: quadratic_diagonal(ctx, -1),
    "F": fourier,
    "Finv": lambda ctx: fourier(ctx).conj().T,
}


def phase_blind_equal(A, B, atol: float = 1e-10) -> bool:
    """Whether B = c A entrywise within atol for one unimodular c: the phase of
    tr(A^dag B), which fits c A to B best in the Frobenius norm."""
    A, B = np.asarray(A), np.asarray(B)
    if A.shape != B.shape:
        return False
    t = np.vdot(A, B)
    return bool(abs(t) > 0 and np.allclose(t / abs(t) * A, B, rtol=0, atol=atol))


def dense_weyl(ctx: PhaseSpaceContext, p: int, q: int) -> np.ndarray:
    """omega^{-inv2*p*q} z(p) x(q) as a dense product: the boost
    z(p) = diag(omega^{pk}) times the shift x(q) = the permutation |k> -> |k+q>."""
    N, k = ctx.N, np.arange(ctx.N)
    shift = np.zeros((N, N), dtype=complex)
    shift[(k + q) % N, k] = 1.0
    return _omega(N, -ctx.inv2 * p * q) * (np.diag(_omega(N, p * k)) @ shift)


def dense_phase_point(ctx: PhaseSpaceContext, p: int, q: int) -> np.ndarray:
    """w(p,q) P w(p,q)^dag as a dense product, P the parity permutation |k> -> |-k>."""
    N, k = ctx.N, np.arange(ctx.N)
    parity = np.zeros((N, N), dtype=complex)
    parity[-k % N, k] = 1.0
    w = dense_weyl(ctx, p, q)
    return w @ parity @ w.conj().T


def word_unitary(ctx: PhaseSpaceContext, symbols) -> np.ndarray:
    """Product of the words of the symbols of LINEAR_WORDS, left to right."""
    return reduce(np.matmul, (_PRIMITIVES[p](ctx) for s in symbols
                              for p in LINEAR_WORDS[s][1]))


def oracle_unitary(ctx: PhaseSpaceContext, T: AffineMap) -> np.ndarray:
    """Dense U_T of a walk map T: w(shift) times the word of its linear part."""
    symbol, = (s for s, (matrix, _) in LINEAR_WORDS.items()
               if AffineMap(matrix, (0, 0), ctx.N).linear == T.linear)
    return dense_weyl(ctx, *T.shift) @ word_unitary(ctx, [symbol])


@lru_cache(maxsize=16)
def _phase_point_stack(N: int) -> np.ndarray:
    ctx = PhaseSpaceContext(N)
    stack = np.empty((N * N, N, N), dtype=complex)
    for p in range(N):
        for q in range(N):
            stack[p * N + q] = dense_phase_point(ctx, p, q)
    stack.setflags(write=False)
    return stack


def phase_point_basis(ctx: PhaseSpaceContext) -> np.ndarray:
    """All N^2 dense_phase_point operators stacked as [p*N+q, :, :] (read-only).

    Dense and cached: O(N^4) time and memory on first use per N.  The
    oracle that the closed-form ``wigner`` and ``inverse_wigner`` and the
    covariance of ``affine_unitary`` are tested against.
    """
    return _phase_point_stack(ctx.N)


def fourier_frame_walk(N: int) -> np.ndarray:
    """The walk matrix in the Fourier frame, F M F^{-1} with F[k, v] = omega^{-k.v}
    over Z_N^2, both labels flat-indexed as p*N + q; F^{-1} = conj(F) / N^2."""
    k = np.arange(N)
    f = _omega(N, -np.outer(k, k))
    F = np.kron(f, f)
    return F @ walk_matrix(N) @ F.conj() / N ** 2


def fourier_frame_reads(N: int):
    """The reads of fourier_frame_walk, one (columns, weights) pair of (N, N) arrays
    per map T = (L, t) of generator_map(N), made one at a time: row k = (k_p, k_q)
    reads column L^T k (flat-indexed) with weight omega^{-k.t} / 8."""
    kp, kq = np.arange(N)[:, None], np.arange(N)
    for T in generator_map(N).values():
        (a, b), (c, d) = T.linear
        yield ((a * kp + c * kq) % N * N + (b * kp + d * kq) % N,
               _omega(N, -(T.shift[0] * kp + T.shift[1] * kq)) / 8)


def gcd_classes(N: int) -> np.ndarray:
    """gcd(k_p, k_q, N) of every label k = (k_p, k_q) of Z_N^2, flat-indexed as k_p*N + k_q."""
    k = np.arange(N * N)
    return np.gcd(np.gcd(k // N, k % N), N)


def primitive_frame_block(d: int) -> np.ndarray:
    """The Fourier-frame walk at modulus d on its primitive frequencies, those with
    gcd(k_p, k_q, d) = 1, both labels in flat order; scattered densely from
    fourier_frame_reads(d)."""
    M = np.zeros((d * d, d * d), dtype=complex)
    for columns, weights in fourier_frame_reads(d):
        M[np.arange(d * d), columns.reshape(-1)] += weights.reshape(-1)
    keep = gcd_classes(d) == 1
    return M[np.ix_(keep, keep)]


def fixed_points(word) -> int:
    """#Fix of the composite of a word of AffineMaps on one modulus N (first letter applied
    first), counted over all N^2 lattice points."""
    N = word[0].modulus
    p0, q0 = np.divmod(np.arange(N * N), N)
    p, q = p0, q0
    for T in word:
        (a, b), (c, d) = T.linear
        p, q = (a * p + b * q + T.shift[0]) % N, (c * p + d * q + T.shift[1]) % N
    return int(np.count_nonzero((p == p0) & (q == q0)))
