"""The four walk linear parts, checked against their metaplectic words.

The words in ``oracles.LINEAR_WORDS`` are written out by hand; the library
derives each unitary and gate list from the matrix alone.
"""

import numpy as np
import pytest

from margulis.circuits import affine_circuit, equal_up_to_phase, evaluate
from margulis.phasespace import PhaseSpaceContext, affine_unitary
from margulis.walk import AffineMap, generator_data
from oracles import LINEAR_WORDS, phase_point_basis, word_unitary


def test_words_cover_the_walk_linear_parts():
    assert ({matrix for matrix, _ in LINEAR_WORDS.values()}
            == {linear for _, linear, _ in generator_data()})


@pytest.mark.parametrize("symbol", list(LINEAR_WORDS))
def test_word_unitary_moves_phase_points_and_compiles(symbol):
    matrix, _ = LINEAR_WORDS[symbol]
    for N in (5, 7, 9):
        ctx = PhaseSpaceContext(N)
        mu = word_unitary(ctx, [symbol])
        basis = phase_point_basis(ctx)
        for p in range(N):
            for q in range(N):
                tp, tq = (np.array(matrix) @ (p, q)) % N
                moved = mu @ basis[p * N + q] @ mu.conj().T
                assert np.linalg.norm(moved - basis[tp * N + tq]) < 1e-10, (N, p, q)
    for d, n in ((3, 2), (5, 1)):
        T = AffineMap(matrix, (1, 2), d ** n)
        ok, _ = equal_up_to_phase(evaluate(affine_circuit(d, n, T)),
                                  affine_unitary(PhaseSpaceContext(d ** n), T))
        assert ok, (d, n)


@pytest.mark.parametrize("symbol", list(LINEAR_WORDS))
def test_unshifted_unitary_is_the_word_product_entrywise(symbol):
    # Not up to phase: golden operator files compare entrywise.
    matrix, _ = LINEAR_WORDS[symbol]
    for N in range(3, 50, 2):
        ctx = PhaseSpaceContext(N)
        U = affine_unitary(ctx, AffineMap(matrix, (0, 0), N))
        assert np.max(np.abs(U - word_unitary(ctx, [symbol]))) <= 1e-12, N
