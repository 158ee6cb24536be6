"""Scaling ladder: per-layer times over N, and circuits over qudit counts.

    python3 perfbench/ladder.py

Run from the root of a checkout.  Times each layer's public functions at
every odd N of the ladder, and circuit synthesis and dense evaluation at
d=3 for each qudit count, and records the spectral gap for every N the
dense path reaches.  A size the current code cannot run is skipped with
the reason.  The report is for charting scaling across changes; no run of
the gated benchmark depends on it.  Writes ``.perfbench_out/ladder.json``.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WALK_MATRIX_CAP = 49     # margulis.walk.walk_matrix default max_modulus
SUPEROPERATOR_CAP = 9    # margulis.channel.superoperator default max_dim
STACK_LIMIT_BYTES = 512 * 2**20  # largest N^4 phase-point stack built here
LADDER_N = (7, 15, 31, 49, 101, 201)
LADDER_QUDITS = (2, 3, 4, 5, 6)  # at d=3


def _timed(fn, *args, budget_s: float = 0.5, reps: int = 5):
    """(median seconds, repetitions, last result): repeats only cheap calls."""
    times, result = [], None
    while len(times) < reps and sum(times) < budget_s:
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times), result


def lattice_rows(N: int) -> list[dict]:
    import margulis as m
    import numpy as np

    rows = []

    def add(layer, seconds=None, reps=0, skip=None, **extra):
        rows.append({"N": N, "layer": layer, "seconds": seconds, "reps": reps,
                     "skipped": skip, **extra})

    s, r, _ = _timed(m.walk_step, m.GridDist.delta(N))
    add("walk.walk_step", s, r)
    if N <= WALK_MATRIX_CAP:
        s, r, M = _timed(m.walk_matrix, N)
        add("walk.walk_matrix", s, r)
        s, r, rep = _timed(lambda: m.spectral_report(M, modulus=N))
        add("walk.spectral_report", s, r, lam=rep.lam, below_bound=rep.lam < m.GABBER_GALIL_BOUND)
        del M
    else:
        reason = f"walk_matrix cap {WALK_MATRIX_CAP}: dense N^2 x N^2 matrix"
        add("walk.walk_matrix", skip=reason)
        add("walk.spectral_report", skip=reason)

    ctx = m.PhaseSpaceContext(N)
    s, r, ch = _timed(m.margulis_channel, ctx)
    add("channel.build", s, r)
    rng = np.random.default_rng(N)
    psi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    s, r, _ = _timed(m.apply_channel, ch, rho)
    add("channel.apply", s, r)
    if N <= SUPEROPERATOR_CAP:
        s, r, _ = _timed(m.superoperator, ch)
        add("channel.superoperator", s, r)
        s, r, lam = _timed(m.expander_lambda, ch)
        add("channel.expander_lambda", s, r, lam=lam)
    else:
        reason = f"superoperator cap {SUPEROPERATOR_CAP}: dense N^2 x N^2 superoperator"
        add("channel.superoperator", skip=reason)
        add("channel.expander_lambda", skip=reason)

    stack_bytes = N**4 * 16
    if stack_bytes <= STACK_LIMIT_BYTES:
        s, _, W = _timed(m.wigner, ctx, rho, reps=1)
        add("phasespace.warmup", s, 1, stack_mb=stack_bytes / 2**20)
        s, r, _ = _timed(m.wigner, ctx, rho)
        add("phasespace.wigner", s, r)
        s, r, _ = _timed(m.inverse_wigner, ctx, W)
        add("phasespace.inverse_wigner", s, r)
    else:
        reason = f"phase-point stack N^4 x 16 B = {stack_bytes / 2**30:.2f} GiB"
        for layer in ("phasespace.warmup", "phasespace.wigner", "phasespace.inverse_wigner"):
            add(layer, skip=reason)
    return rows


def circuit_rows(n: int, d: int = 3) -> list[dict]:
    import margulis as m

    gens = m.generator_map(d**n)
    s, r, lists = _timed(lambda: [m.affine_circuit(d, n, T) for T in gens.values()])
    longest = max(lists, key=lambda gl: len(gl.gates))
    rows = [{"d": d, "n": n, "layer": "circuits.synth", "seconds": s, "reps": r,
             "gates": sum(len(gl.gates) for gl in lists)}]
    s, r, _ = _timed(m.evaluate, longest)
    rows.append({"d": d, "n": n, "layer": "circuits.evaluate", "seconds": s, "reps": r,
                 "gates": len(longest.gates), "note": "longest of the eight gate lists"})
    return rows


def main() -> int:
    root = Path.cwd().resolve()
    if not (root / "src" / "margulis" / "__init__.py").is_file():
        print("ladder.py: run from the root of a margulis checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from provenance import describe
    from run import OUT
    from workloads import pinned_env

    rows = []
    for N in LADDER_N:
        rows += lattice_rows(N)
    for n in LADDER_QUDITS:
        rows += circuit_rows(n)
    for row in rows:
        size = f"N={row['N']}" if "N" in row else f"d={row['d']} n={row['n']}"
        if row.get("skipped"):
            print(f"{row['layer']:<26} {size:<10} skipped: {row['skipped']}")
            continue
        extra = "".join(f" {k}={row[k]}" for k in ("lam", "gates", "stack_mb") if k in row)
        print(f"{row['layer']:<26} {size:<10} {row['seconds']:>12.6f} s  reps={row['reps']}{extra}")
    report = {"provenance": describe(root, pinned_env(root)), "rows": rows}
    (root / OUT).mkdir(exist_ok=True)
    path = root / OUT / "ladder.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"# wrote {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
