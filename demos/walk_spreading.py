#!/usr/bin/env python3
"""A point mass spreading under the Margulis walk on a 7x7 lattice.

Starts from a distribution concentrated at the origin, applies three walk
steps, prints each table, and writes grayscale PGM heatmaps next to this
script.  After one step half the mass stays put (four of the eight maps fix
the origin) and the rest moves one site along an axis.
"""

from pathlib import Path

import numpy as np

from margulis import GridDist, walk_step
from margulis.frames import grid_to_pgm

N = 7
outdir = Path(__file__).resolve().parent / "out"
outdir.mkdir(exist_ok=True)

f = GridDist.delta(N)
for step in range(4):
    print(f"step {step}: support {np.count_nonzero(f.values)} cells, "
          f"peak {f.values.max():.4f}, mass {f.values.sum():.12f}")
    with np.printoptions(precision=4, suppress=True):
        print(f.values)
    (outdir / f"walk-step-{step}.pgm").write_text(grid_to_pgm(f))
    f = walk_step(f)

print(f"\nheatmaps written to {outdir}")
