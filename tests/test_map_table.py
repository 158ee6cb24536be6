"""Each entry of walk.LINEAR_PARTS, checked on its dense and circuit forms."""

import numpy as np
import pytest

from margulis.circuits import affine_circuit, equal_up_to_phase, evaluate
from margulis.phasespace import (PhaseSpaceContext, affine_unitary, metaplectic,
                                 phase_point_basis)
from margulis.walk import LINEAR_PARTS, AffineMap


@pytest.mark.parametrize("symbol", list(LINEAR_PARTS))
def test_word_unitary_moves_phase_points_and_compiles(symbol):
    matrix, _ = LINEAR_PARTS[symbol]
    for N in (5, 7, 9):
        ctx = PhaseSpaceContext(N)
        mu = metaplectic(ctx, [symbol])
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
