"""Qudit gate-list synthesis for the walk unitaries on N = d^n levels.

Registers carry n qudits of odd dimension d with the most significant digit
first: basis label j = sum_l j_l d^{n-l} for qudits l = 1..n.  Circuits are
built from single-qudit Fourier gates, diagonal phase gates with exact
integer parameters, two-qudit controlled phases, and an explicit
digit-reversal permutation.  ``circuit_deviation`` applies a list to states
(``apply_gates``) and compares with :func:`margulis.phasespace.affine_action`
up to a phase.

Synthesized families:

* ``quadratic_circuit``: diag(exp(k*2*pi*i*j^2/N)) as its digit
  expansion; pairs (l, l') whose phase exponent is an integer are dropped.
* ``weyl_circuit``: z(p) is a product of n local phases; x(q) is
  synthesized as F^dag z(q) F; the displacement's scalar prefactor is kept
  as an exact global-phase annotation.
* ``affine_circuit``: the shear's chirp, Fourier-conjugated on axis 1,
  followed by the displacement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .phasespace import PhaseSpaceContext, _phases, _shear_chirp, affine_action
from .walk import AffineMap, _require_integer, _require_odd_modulus

__all__ = [
    "Gate",
    "GateList",
    "GATE_KINDS",
    "apply_gates",
    "evaluate",
    "inverse_gates",
    "quadratic_circuit",
    "weyl_circuit",
    "affine_circuit",
    "equal_up_to_phase",
    "circuit_deviation",
    "gate_list_to_jsonl",
]

GATE_KINDS = ("fourier", "fourier_inv", "linear_phase", "quadratic_phase",
              "cphase", "reverse")

_DIAGONAL_KINDS = ("linear_phase", "quadratic_phase", "cphase")

@dataclass(frozen=True)
class Gate:
    """One qudit gate with exact integer phase parameters.

    Diagonal kinds put phase exp(2*pi*i * c * e / M) on each basis state,
    where e is j (linear_phase), j^2 (quadratic_phase) or j_l * j_l'
    (cphase).  ``reverse`` permutes the whole register and takes no targets.
    """

    kind: str
    d: int
    targets: tuple[int, ...] = ()
    c: int = 0
    M: int = 1

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        _require_integer("d", self.d, lo=2)
        _require_integer("targets", *self.targets)
        _require_integer("c", self.c)
        _require_integer("M", self.M, lo=1)
        ntargets = {"fourier": 1, "fourier_inv": 1, "linear_phase": 1,
                    "quadratic_phase": 1, "cphase": 2, "reverse": 0}[self.kind]
        if len(self.targets) != ntargets:
            raise ValueError(f"{self.kind} takes {ntargets} target(s), got {self.targets}")
        if self.kind == "cphase" and self.targets[0] == self.targets[1]:
            raise ValueError("cphase targets must be distinct")


@dataclass(frozen=True)
class GateList:
    """Ordered gate sequence on n qudits; gates[0] acts first.

    The optional global phase exp(2*pi*i * phase_num / phase_den) is kept as
    an annotation so every listed gate stays a plain textbook gate.
    """

    d: int
    n: int
    gates: tuple[Gate, ...]
    phase_num: int = 0
    phase_den: int = 1

    def __post_init__(self):
        _require_integer("d", self.d, lo=2)
        _require_integer("n", self.n, lo=1)
        _require_integer("phase_num", self.phase_num)
        _require_integer("phase_den", self.phase_den, lo=1)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.d != self.d:
                raise ValueError(f"gate dimension {g.d} != register dimension {self.d}")
            if any(not 1 <= t <= self.n for t in g.targets):
                raise ValueError(f"gate targets {g.targets} outside 1..{self.n}")

    @property
    def dim(self) -> int:
        return self.d ** self.n

    def global_phase(self) -> complex:
        return _phases(self.phase_num, self.phase_den)


def _apply(gate: Gate, n: int, reg: np.ndarray) -> np.ndarray:
    """One gate on a register shaped (d,)*n + (columns,); qudit l is axis l-1."""
    if gate.kind == "reverse":
        # |j_1 ... j_n> -> |j_n ... j_1>
        return reg.transpose(tuple(range(n - 1, -1, -1)) + (n,))
    if gate.kind in ("fourier", "fourier_inv"):
        # F[k, j] = omega^{jk}/sqrt(d) is the orthonormal inverse DFT, with no d x d matrix.
        fft = np.fft.ifft if gate.kind == "fourier" else np.fft.fft
        return fft(reg, axis=gate.targets[0] - 1, norm="ortho")
    d = gate.d
    j = np.arange(d)
    # Digit j_t shaped to broadcast along register axis t-1.  The exponent e is the product
    # of the target digits (a square for quadratic_phase).
    x = [j.reshape((d,) + (1,) * (n + 1 - t)) for t in gate.targets]
    e = x[0] ** 2 if gate.kind == "quadratic_phase" else math.prod(x)
    return reg * _phases(e, gate.M, gate.c)


def apply_gates(gl: GateList, X) -> np.ndarray:
    """The list's unitary (first gate rightmost, phase included) along axis 0 of X."""
    if np.shape(X)[:1] != (gl.dim,):
        raise ValueError(f"expected {gl.dim} rows, got shape {np.shape(X)}")
    reg = np.reshape(X, (gl.d,) * gl.n + (-1,))
    for g in gl.gates:
        reg = _apply(g, gl.n, reg)
    return gl.global_phase() * reg.reshape(np.shape(X))


def evaluate(gl: GateList) -> np.ndarray:
    """Dense unitary of the list: apply_gates on the identity, the small-n oracle."""
    return apply_gates(gl, np.eye(gl.dim))


def inverse_gates(gates) -> tuple[Gate, ...]:
    """Gate-by-gate inverse of a sequence, in reversed order: F and F^dag swap,
    phase parameters c negate, and reverse (whose c is 0) is its own inverse."""
    flip = {"fourier": "fourier_inv", "fourier_inv": "fourier"}
    return tuple(Gate(flip.get(g.kind, g.kind), g.d, g.targets, -g.c, g.M)
                 for g in reversed(tuple(gates)))


def _qft_gates(d: int, n: int) -> tuple[Gate, ...]:
    """The N-level Fourier transform on n qudits: n single-qudit Fourier gates,
    one controlled phase per qudit pair and, for n > 1, a final digit reversal,
    at most n^2 + 1 gates in all."""
    gates = []
    for l in range(1, n + 1):
        gates.append(Gate("fourier", d, (l,)))
        for lp in range(l + 1, n + 1):
            gates.append(Gate("cphase", d, (lp, l), 1, d ** (lp - l + 1)))
    if n > 1:
        gates.append(Gate("reverse", d))
    return tuple(gates)


def quadratic_circuit(d: int, n: int, k: int) -> GateList:
    """Circuit for diag(exp(k*2*pi*i*j^2/d^n)), for any integer k.

    The digit expansion of j^2 gives one phase term per qudit pair (l, l'),
    with exponent d^{n-l-l'}: off-diagonal pairs are emitted once with
    coefficient 2k, diagonal terms become single-qudit quadratic phases
    with coefficient k.  Terms whose phase is trivial (c = 0 mod M) are
    dropped, among them every pair with l + l' <= n and, for k = 0 mod d^n,
    all of them.
    """
    _require_odd_modulus(d, "qudit dimension")
    _require_integer("n", n, lo=1)
    _require_integer("k", k)
    gates = []
    for l in range(1, n + 1):
        for lp in range(max(l, n + 1 - l), n + 1):
            M = d ** (l + lp - n)
            if lp == l and k % M:
                gates.append(Gate("quadratic_phase", d, (l,), k, M))
            elif lp != l and 2 * k % M:
                gates.append(Gate("cphase", d, (l, lp), 2 * k, M))
    return GateList(d, n, tuple(gates))


def _linear_phase_gates(d: int, n: int, p: int) -> tuple[Gate, ...]:
    """z(p) as local phases exp(2*pi*i * p * j_l / d^l); trivial gates dropped."""
    gates = []
    for l in range(1, n + 1):
        M = d ** l
        if p % M:
            gates.append(Gate("linear_phase", d, (l,), p % M, M))
    return tuple(gates)


def weyl_circuit(d: int, n: int, p: int, q: int) -> GateList:
    """Displacement w(p,q) = omega^{-inv2*p*q} z(p) x(q) as a gate list.

    x(q) is synthesized as F^dag z(q) F; the scalar prefactor is returned as
    the global-phase annotation.
    """
    _require_odd_modulus(d, "qudit dimension")
    _require_integer("n", n, lo=1)
    N = d ** n
    p, q = p % N, q % N
    gates: list[Gate] = []
    if q:
        gates += list(_qft_gates(d, n))
        gates += list(_linear_phase_gates(d, n, q))
        gates += list(inverse_gates(_qft_gates(d, n)))
    gates += list(_linear_phase_gates(d, n, p))
    inv2 = (N + 1) // 2
    num = (-inv2 * p * q) % N
    return GateList(d, n, tuple(gates), phase_num=num, phase_den=N if num else 1)


def affine_circuit(d: int, n: int, T: AffineMap) -> GateList:
    """Gate list for the unitary implementing the affine map T on N = d^n.

    Equals ``phasespace.affine_unitary`` up to a global phase, for the unit
    shears it supports.  The chirp's coefficient is centred into
    (-N/2, N/2]; on axis 1 it runs between F^dag and F, so F acts last.
    """
    _require_odd_modulus(d, "qudit dimension")
    N = d ** n
    if T.modulus != N:
        raise ValueError(f"map modulus {T.modulus} != d^n = {N}")
    axis, c = _shear_chirp(T)
    gates = quadratic_circuit(d, n, c - N if c > N // 2 else c).gates
    if axis:
        qft = _qft_gates(d, n)
        gates = inverse_gates(qft) + gates + qft
    disp = weyl_circuit(d, n, T.shift[0], T.shift[1])
    return GateList(d, n, gates + disp.gates,
                    phase_num=disp.phase_num, phase_den=disp.phase_den)


def equal_up_to_phase(A: np.ndarray, B: np.ndarray) -> tuple[bool, complex]:
    """Whether B = phase * A for a unimodular phase, and that phase.

    Uses |tr(A^dag B)| = dim, which characterizes projective equality when B
    is unitary; equal means within 1e-8.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError(f"operators must be square and same shape, got {A.shape}, {B.shape}")
    t = np.vdot(A, B)  # tr(A^dag B) without the d^n x d^n product
    ok = bool(abs(abs(t) - A.shape[0]) < 1e-8)
    phase = t / abs(t) if abs(t) > 0 else complex(1.0)
    return ok, phase


def circuit_deviation(ctx: PhaseSpaceContext, T: AffineMap, gl: GateList, seed: int) -> float:
    """||U_T V - phi G V|| for T's gate list G, two unit states V from default_rng(seed)
    and the one phase phi fitting both: random V test G = U_T up to phase (Freivalds)."""
    V = np.random.default_rng(seed).standard_normal((ctx.N, 4)).view(complex)
    V /= np.linalg.norm(V, axis=0)
    want, got = affine_action(ctx, T, V), apply_gates(gl, V)
    t = np.vdot(got, want)
    return float(np.linalg.norm(want - (t / abs(t) if abs(t) > 0 else 1.0) * got))


# ---------------------------------------------------------------------------
# JSON-lines serialization: one header line, then one gate per line.

def _gate_obj(g: Gate) -> dict:
    obj: dict = {"op": g.kind}
    if len(g.targets) >= 1:
        obj["t1"] = g.targets[0]
    if len(g.targets) == 2:
        obj["t2"] = g.targets[1]
    if g.kind in _DIAGONAL_KINDS:
        obj["c"] = g.c
        obj["M"] = g.M
    obj["d"] = g.d
    return obj


def gate_list_to_jsonl(gl: GateList, transform: str = "") -> str:
    header = {"d": gl.d, "n": gl.n, "transform": transform,
              "global_phase_num": gl.phase_num, "global_phase_den": gl.phase_den}
    lines = [json.dumps(header)]
    lines += [json.dumps(_gate_obj(g)) for g in gl.gates]
    return "\n".join(lines) + "\n"

