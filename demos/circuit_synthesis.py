#!/usr/bin/env python3
"""Compiling the walk unitaries into qudit gate lists.

For two qutrits (N = 9) every one of the eight walk unitaries reduces to a
short sequence of Fourier, phase, and controlled-phase gates.  Each list is
checked against the unitary's closed-form action on random states, up to a
global phase (``circuit_deviation``), and the script exits 1 if any map
deviates by 1e-8 or more.  The gate counts are tabulated for growing
register sizes to show the quadratic scaling.
"""

import sys

from margulis import PhaseSpaceContext, affine_circuit, circuit_deviation
from margulis.circuits import gate_list_to_jsonl
from margulis.walk import generator_map

d = 3
print(f"qudit dimension d = {d}\n")

print("gate lists at n = 2 qudits (N = 9):")
ctx = PhaseSpaceContext(9)
failed = []
for label, T in generator_map(9).items():
    gl = affine_circuit(d, 2, T)
    dev = circuit_deviation(ctx, T, gl, seed=0)
    if not dev < 1e-8:
        failed.append(label)
    print(f"  {label:<6} {len(gl.gates):2d} gates   deviation from U_T up to phase: {dev:.1e}")

print("\nfull dump for T2:")
print(gate_list_to_jsonl(affine_circuit(d, 2, generator_map(9)["T2"]), "T2"))

print("gate counts by register size (quadratic in n):")
print("  n      " + "  ".join(f"{lbl:>6}" for lbl in generator_map(3)))
for n in range(1, 5):
    counts = [len(affine_circuit(d, n, T).gates)
              for T in generator_map(d ** n).values()]
    print(f"  {n}      " + "  ".join(f"{c:6d}" for c in counts))

if failed:
    sys.exit(f"gate lists of {', '.join(failed)} deviate from their unitaries by 1e-8 or more")
