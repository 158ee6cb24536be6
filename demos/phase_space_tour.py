#!/usr/bin/env python3
"""A tour of the discrete phase-space toolkit at N = 5.

Checks, numerically and loudly, the identities everything else rests on:
the phase-point operators form an orthonormal basis, displacements translate
them, the quadratic phase and the walk unitaries move their labels by the
right matrices, and the Wigner transform inverts cleanly.
"""

import numpy as np

from margulis import (PhaseSpaceContext, affine_unitary, generator_map,
                      inverse_wigner, parity, phase_point, quadratic_phase,
                      weyl, wigner)
from margulis.walk import apply_affine

N = 5
ctx = PhaseSpaceContext(N)
basis = np.array([phase_point(ctx, p, q) for p in range(N) for q in range(N)])

gram = np.einsum("vij,wji->vw", basis, basis) / N
print("orthonormality: max |(1/N) tr(A(v) A(w)) - delta| =",
      f"{np.max(np.abs(gram - np.eye(N * N))):.3e}")

w12 = weyl(ctx, 1, 2)
moved = w12 @ basis[0] @ w12.conj().T
print("translation:    || w(1,2) A(0,0) w(1,2)^dag - A(1,2) || =",
      f"{np.linalg.norm(moved - basis[1 * N + 2]):.3e}")

Up = quadratic_phase(ctx, +1)
worst = max(np.linalg.norm(Up @ basis[p * N + q] @ Up.conj().T
                           - basis[((p + 2 * q) % N) * N + q])
            for p in range(N) for q in range(N))
print("shear:          worst covariance gap for the quadratic phase =",
      f"{worst:.3e}  (labels move by [[1,2],[0,1]])")

worst = 0.0
for T in generator_map(N).values():
    U = affine_unitary(ctx, T)
    for p in range(N):
        for q in range(N):
            tp, tq = apply_affine(T, (p, q))
            worst = max(worst, np.linalg.norm(
                U @ basis[p * N + q] @ U.conj().T - basis[tp * N + tq]))
print("walk unitaries: worst covariance gap over all 8 maps and 25 points =",
      f"{worst:.3e}")

rng = np.random.default_rng(0)
g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
rho = (g + g.conj().T) / 2
table = wigner(ctx, rho)
print("wigner:         table sums to tr(rho)?",
      f"{table.values.sum():.12f} vs {np.trace(rho).real:.12f}")
print("round trip:     max |rho - inverse(wigner(rho))| =",
      f"{np.max(np.abs(inverse_wigner(ctx, table) - rho)):.3e}")

print("parity table:   Wigner table of A(0,0) is a point mass at the origin:")
print(np.round(wigner(ctx, parity(ctx)).values, 12))
