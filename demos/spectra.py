#!/usr/bin/env python3
"""Walk-matrix and channel spectra side by side.

The channel is a uniform mixture of the eight unitaries implementing the
walk maps; channel_report solves its matrix in the orthonormal Weyl basis,
where each map reads the walk's index table with one phase per entry, so
the two spectra coincide eigenvalue by eigenvalue.
It then lists the walk's lambda(N) for every odd N up to the dense limit,
each solved as the five blocks of the walk's lattice symmetry group
<a, b, sigma> (two reflections and an axis swap, dihedral of order 8).  The
block sizes are listed once each; the last block's eigenvalues count twice.
"""

import numpy as np

from margulis import (GABBER_GALIL_BOUND, PhaseSpaceContext, channel_report,
                      margulis_channel, spectral_report, walk_matrix)
from margulis.walk import DENSE_MAX_MODULUS

print(f"subdominant-eigenvalue bound: sqrt(2)*5/8 = {GABBER_GALIL_BOUND:.6f}\n")

for N in (3, 5, 7):
    classical = spectral_report(walk_matrix(N), modulus=N)
    quantum = channel_report(margulis_channel(PhaseSpaceContext(N)))

    print(f"N = {N}  (matrix size {N * N} x {N * N})")
    print(f"  classical lambda = {classical.lam:.12f}")
    gap = np.max(np.abs(np.sort(classical.spectrum) - np.sort(quantum.spectrum)))
    print(f"  max |classical - quantum| over the sorted spectra: {gap:.3e}")
    print(f"  top five eigenvalues: "
          + ", ".join(f"{v:.6f}" for v in classical.spectrum[:5]))
    print()

print(f"lambda(N) for odd N up to {DENSE_MAX_MODULUS}, against the bound {GABBER_GALIL_BOUND:.6f}")
print("   N  lambda(N)         bound - lambda  <a, b, sigma> blocks (last counted twice)")
for N in range(3, DENSE_MAX_MODULUS + 1, 2):
    rep = spectral_report(walk_matrix(N), modulus=N)
    print(f"{N:4d}  {rep.lam:.12f}  {GABBER_GALIL_BOUND - rep.lam:14.6f}  {rep.blocks}")
