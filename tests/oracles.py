"""Dense oracles the library does not ship: the phase-point stack, and the
metaplectic words of the four walk linear parts with the unitaries they give.

The words are written out here, independently of the chirp that
``affine_unitary`` derives from each matrix, and built from the public
``fourier`` and ``quadratic_phase``.
"""

from functools import lru_cache, reduce

import numpy as np

from margulis.phasespace import PhaseSpaceContext, fourier, phase_point, quadratic_phase, weyl
from margulis.walk import AffineMap

#: Walk linear part -> (SL(2, Z) matrix, word in matrix order over Q+/Q-
#: (quadratic phase of sign +-1), F and Finv (the DFT and its adjoint)).
LINEAR_WORDS = {
    "S1": (((1, 2), (0, 1)), ("Q+",)),
    "S1inv": (((1, -2), (0, 1)), ("Q-",)),
    "S2": (((1, 0), (2, 1)), ("F", "Q-", "Finv")),
    "S2inv": (((1, 0), (-2, 1)), ("F", "Q+", "Finv")),
}

_PRIMITIVES = {
    "Q+": lambda ctx: quadratic_phase(ctx, +1),
    "Q-": lambda ctx: quadratic_phase(ctx, -1),
    "F": fourier,
    "Finv": lambda ctx: fourier(ctx).conj().T,
}


def word_unitary(ctx: PhaseSpaceContext, symbols) -> np.ndarray:
    """Product of the words of the symbols of LINEAR_WORDS, left to right."""
    return reduce(np.matmul, (_PRIMITIVES[p](ctx) for s in symbols
                              for p in LINEAR_WORDS[s][1]))


def oracle_unitary(ctx: PhaseSpaceContext, T: AffineMap) -> np.ndarray:
    """Dense U_T of a walk map T: w(shift) times the word of its linear part."""
    symbol, = (s for s, (matrix, _) in LINEAR_WORDS.items()
               if AffineMap(matrix, (0, 0), ctx.N).linear == T.linear)
    return weyl(ctx, *T.shift) @ word_unitary(ctx, [symbol])


@lru_cache(maxsize=16)
def _phase_point_stack(N: int) -> np.ndarray:
    ctx = PhaseSpaceContext(N)
    stack = np.empty((N * N, N, N), dtype=complex)
    for p in range(N):
        for q in range(N):
            stack[p * N + q] = phase_point(ctx, p, q)
    stack.setflags(write=False)
    return stack


def phase_point_basis(ctx: PhaseSpaceContext) -> np.ndarray:
    """All N^2 phase-point operators stacked as [p*N+q, :, :] (read-only).

    Dense and cached: O(N^4) time and memory on first use per N.  The
    oracle that the closed-form ``wigner`` and ``inverse_wigner`` and the
    covariance of ``affine_unitary`` are tested against.
    """
    return _phase_point_stack(ctx.N)
