"""Quantum Margulis channel: a uniform mixture of eight affine unitaries.

The channel applies one of the unitaries implementing the walk maps, chosen
uniformly at random.  On Wigner tables it acts exactly as the classical walk
acts on distributions, so its superoperator spectrum coincides with the walk
matrix spectrum; this module builds the channel, its dense superoperator, its
spectrum (in the Weyl basis) and mixing rate, and ``verify_identities`` checks
that identity and the phase-space identities under it on random inputs, at any odd N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import affine_circuit, circuit_deviation
from .phasespace import (PhaseSpaceContext, _phases, affine_action, affine_unitary,
                         inverse_wigner, wigner)
from .spectrum import SpectralReport, _require_hermitian, _sorted_report
from .walk import (AffineMap, GridDist, _pullback_index, _require_dense, _require_integer,
                   _table_matrix, _unit_shear, generator_map, walk_step)

__all__ = [
    "KrausChannel",
    "margulis_channel",
    "apply_channel",
    "superoperator",
    "channel_report",
    "expander_lambda",
    "verify_identities",
]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Mixture-of-unitaries channel rho -> (1/D) sum_T U_T rho U_T^dag over a
    non-empty tuple ``maps`` of D affine maps T of modulus ``ctx.N`` whose linear
    parts are unit shears (any other is refused).  Each U_T acts through
    ``affine_action`` with weight 1/D, so the Kraus operators are U_T/sqrt(D)."""

    ctx: PhaseSpaceContext
    maps: tuple

    def __post_init__(self):
        if not isinstance(self.ctx, PhaseSpaceContext):
            raise ValueError(f"ctx must be a PhaseSpaceContext, got {self.ctx!r}")
        if not self.maps:
            raise ValueError("channel needs at least one map")
        for T in self.maps:
            if T.modulus != self.ctx.N:
                raise ValueError(f"map modulus {T.modulus} != context N {self.ctx.N}")
            _unit_shear(T.linear)

    @property
    def dim(self) -> int:
        return self.ctx.N

    @property
    def degree(self) -> int:
        return len(self.maps)


def margulis_channel(ctx: PhaseSpaceContext) -> KrausChannel:
    """The degree-8 channel over the eight walk maps."""
    return KrausChannel(ctx, tuple(generator_map(ctx.N).values()))


def _conjugate(ctx: PhaseSpaceContext, T, rho: np.ndarray) -> np.ndarray:
    """U_T rho U_T^dag as (U_T (U_T rho)^dag)^dag, with no U_T formed."""
    return affine_action(ctx, T, affine_action(ctx, T, rho).conj().T).conj().T


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """(1/D) sum_T U_T rho U_T^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"operator shape {rho.shape} != ({ch.dim}, {ch.dim})")
    return sum(_conjugate(ch.ctx, T, rho) for T in ch.maps) / ch.degree


def superoperator(ch: KrausChannel) -> np.ndarray:
    """Dense N^2 x N^2 matrix of the channel on column-stacked operators.

    M = (1/D) sum_U conj(U) kron U, since vec(A X B^dag) = (conj(B) kron A) vec(X)
    for vec(X) = X.reshape(-1, order="F").  For this inverse-closed mixture M is
    hermitian and fixes vec(identity).  N is capped at DENSE_MAX_MODULUS,
    as for walk_matrix.
    """
    _require_dense(ch.dim)
    n2 = ch.dim * ch.dim
    M = np.zeros((n2, n2), dtype=complex)
    for U in (affine_unitary(ch.ctx, T) for T in ch.maps):
        M += np.kron(U.conj(), U)
    return M / ch.degree


def _weyl_matrix(ch: KrausChannel) -> np.ndarray:
    """Dense N^2 x N^2 matrix of the channel in the orthonormal Weyl basis w(u)/sqrt(N).
    U_T w(v) U_T^dag = omega^{[t, Lv]} w(Lv) for T = (L, t), [a, b] = a_p b_q - a_q b_p,
    so row u = p*N + q reads column L^{-1}u with weight omega^{[t, u]} / D, as in walk_matrix."""
    p, q = np.arange(ch.dim)[:, None], np.arange(ch.dim)
    reads = ((_pullback_index(AffineMap(T.linear, (0, 0), T.modulus)),
              _phases(T.shift[0] * q - T.shift[1] * p, ch.dim) / ch.degree) for T in ch.maps)
    return _table_matrix(ch.dim, reads, dtype=complex)


def channel_report(ch: KrausChannel) -> SpectralReport:
    """Spectrum of the channel's superoperator and its mixing rate, solved on
    _weyl_matrix(ch), the superoperator in the Weyl basis (N <= DENSE_MAX_MODULUS).

    M is hermitian for an inverse-closed unitary mixture, and eigvalsh reads
    only its lower triangle, so M is checked first; ValueError refuses it
    otherwise, as it does a top eigenvalue other than 1.  ``spectrum`` is sorted
    as in spectral_report, from eigvalsh's ascending order; the identity
    direction holds 1, so ``lam`` is ``abs(spectrum[1])``.  Only eigenvalues
    are solved: the one block is all of M and ``residual`` is 0.
    """
    M = _weyl_matrix(ch)
    _require_hermitian(M, "superoperator is not hermitian; the channel must be "
                          "an inverse-closed unitary mixture")
    return _sorted_report(np.linalg.eigvalsh(M), ch.dim, (len(M),))


def expander_lambda(ch: KrausChannel) -> float:
    """channel_report(ch).lam: the largest |eigenvalue| off the identity direction."""
    return channel_report(ch).lam


def random_hermitian(N: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return (g + g.conj().T) / 2.0


def _covariance(ctx: PhaseSpaceContext, T: AffineMap, rho: np.ndarray,
                table: np.ndarray) -> float:
    """Entrywise worst |wigner(U_T rho U_T^dag) - W o T^{-1}| for the table W of rho."""
    return float(np.max(np.abs(wigner(ctx, _conjugate(ctx, T, rho)).values
                               - table.reshape(-1)[_pullback_index(T)])))


def verify_identities(N: int, *, seed: int = 42, trials: int = 20) -> list[tuple[str, float]]:
    """(name, max deviation) rows of the phase-space identities at odd N, on one
    default_rng(seed): orthonormality, covariance, translation, intertwining,
    intertwining_lift and circuit_equivalence, in that order; the caller judges them.

    Each identity is linear, so random inputs test it with no phase-point basis
    (Freivalds 1977): {A(v)/sqrt(N)} is orthonormal iff N sum W^2 = ||rho||_F^2 and
    inverse_wigner(W) = rho, and U A(v) U^dag = A(T(v)) for all v iff
    wigner(U rho U^dag) = wigner(rho) o T^{-1} for all rho.  Each of ``trials``
    hermitian draws g checks the intertwining wigner(ch(g)) = walk_step(wigner(g))
    as drawn, then orthonormality and the eight maps' covariance on
    rho = g / ||g||_F, so one tolerance fits every N.  Then come 50 displacements
    v -> v + a, each on a fresh unit rho, and the lift
    ch(inverse_wigner(f)) = inverse_wigner(walk_step(f)) on ``trials``
    standard-normal tables f.  The circuit row tests each map's gate list on
    N = d^n (smallest d) against its unitary.  No matrix of size N^2 is formed.
    A row is the np.max of its deviations, so one NaN makes the row NaN.
    """
    _require_integer("trials", trials, lo=1)
    ctx = PhaseSpaceContext(N)
    ch = margulis_channel(ctx)
    rng = np.random.default_rng(seed)
    rows = {name: [] for name in ("orthonormality", "covariance", "translation",
                                  "intertwining", "intertwining_lift")}
    for _ in range(trials):
        g = random_hermitian(N, rng)
        rows["intertwining"].append(float(np.max(np.abs(
            wigner(ctx, apply_channel(ch, g)).values - walk_step(wigner(ctx, g)).values))))
        rho = g / np.linalg.norm(g)
        table = wigner(ctx, rho)
        rows["orthonormality"] += [abs(N * float(np.sum(table.values ** 2)) - 1.0),
                                   float(np.max(np.abs(inverse_wigner(ctx, table) - rho)))]
        rows["covariance"] += [_covariance(ctx, T, rho, table.values) for T in ch.maps]
    for a in rng.integers(0, N, size=(50, 2)).tolist():
        g = random_hermitian(N, rng)
        rho = g / np.linalg.norm(g)
        rows["translation"].append(_covariance(ctx, AffineMap(((1, 0), (0, 1)), a, N), rho,
                                               wigner(ctx, rho).values))
    for _ in range(trials):
        f = GridDist(N, rng.standard_normal((N, N)))
        rows["intertwining_lift"].append(float(np.max(np.abs(
            apply_channel(ch, inverse_wigner(ctx, f)) - inverse_wigner(ctx, walk_step(f))))))

    d, n = next((d, n) for d in range(3, N + 1) if d ** (n := round(math.log(N, d))) == N)
    circuit = [circuit_deviation(ctx, T, affine_circuit(d, n, T), seed) for T in ch.maps]
    return [(name, float(np.max(devs))) for name, devs in rows.items()] + [
        ("circuit_equivalence", float(np.max(circuit)))]
