"""Quantum Margulis channel: a uniform mixture of eight affine unitaries.

The channel applies one of the unitaries implementing the walk maps, chosen
uniformly at random.  On Wigner tables it acts exactly as the classical walk
acts on distributions, so its superoperator spectrum coincides with the walk
matrix spectrum; this module builds the channel, its dense superoperator,
the mixing rate, and a random-input check of that identity in both directions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .phasespace import PhaseSpaceContext, affine_unitary, inverse_wigner, wigner
from .walk import GridDist, margulis_generators, walk_step

__all__ = [
    "SUPEROPERATOR_MAX_DIM",
    "KrausChannel",
    "margulis_channel",
    "apply_channel",
    "superoperator",
    "expander_lambda",
    "vectorize",
    "unvectorize",
    "IntertwiningReport",
    "verify_wigner_intertwining",
]

#: Largest N for which superoperator builds the dense N^2 x N^2 matrix by default.
SUPEROPERATOR_MAX_DIM = 9


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Mixture-of-unitaries channel rho -> (1/D) sum_U U rho U^dag.

    ``kraus`` holds the D unitaries; each carries weight 1/D, so the Kraus
    operators proper are U/sqrt(D).
    """

    dim: int
    kraus: tuple = field(repr=False)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one unitary")
        eye = np.eye(self.dim)
        for k in ops:
            if k.shape != (self.dim, self.dim):
                raise ValueError(f"unitary shape {k.shape} != ({self.dim}, {self.dim})")
            if np.max(np.abs(k @ k.conj().T - eye)) > 1e-10:
                raise ValueError("channel members must be unitary "
                                 "(Kraus completeness would fail)")
        object.__setattr__(self, "kraus", ops)

    @property
    def degree(self) -> int:
        return len(self.kraus)

    def kraus_operators(self) -> list[np.ndarray]:
        """The properly weighted Kraus operators U/sqrt(D)."""
        return [k / np.sqrt(self.degree) for k in self.kraus]


def margulis_channel(ctx: PhaseSpaceContext) -> KrausChannel:
    """The degree-8 channel built from the eight affine-map unitaries."""
    unitaries = [affine_unitary(ctx, T) for T in margulis_generators(ctx.N)]
    return KrausChannel(ctx.N, tuple(unitaries))


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """(1/D) sum_U U rho U^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"operator shape {rho.shape} != ({ch.dim}, {ch.dim})")
    out = np.zeros_like(rho)
    for U in ch.kraus:
        out += U @ rho @ U.conj().T
    return out / ch.degree


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vec: vec(A X B^dag) = (conj(B) kron A) vec(X)."""
    return np.asarray(rho).reshape(-1, order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vec).reshape(dim, dim, order="F")


def superoperator(ch: KrausChannel, max_dim: int = SUPEROPERATOR_MAX_DIM) -> np.ndarray:
    """Dense N^2 x N^2 matrix of the channel on column-stacked operators.

    M = (1/D) sum_U conj(U) kron U.  For this inverse-closed mixture M is
    hermitian and fixes vec(identity).

    Parameters
    ----------
    max_dim : int
        Memory guard on N; pass a larger value to override.
    """
    if ch.dim > max_dim:
        raise ValueError(
            f"N={ch.dim} exceeds the superoperator cap {max_dim}; "
            "pass max_dim explicitly to override")
    n2 = ch.dim * ch.dim
    M = np.zeros((n2, n2), dtype=complex)
    for U in ch.kraus:
        M += np.kron(U.conj(), U)
    return M / ch.degree


def expander_lambda(ch: KrausChannel, max_dim: int = SUPEROPERATOR_MAX_DIM) -> float:
    """Largest singular value of the channel off the identity direction.

    Computed from the dense superoperator, which is hermitian here, so the
    singular values are absolute eigenvalues; the identity direction holds the
    largest, 1, so lambda is the second largest.
    """
    M = superoperator(ch, max_dim=max_dim)
    if not np.allclose(M, M.conj().T, atol=1e-10):
        raise ValueError("superoperator is not hermitian; expander_lambda "
                         "expects an inverse-closed unitary mixture")
    return float(np.sort(np.abs(np.linalg.eigvalsh(M)))[-2])


@dataclass(frozen=True)
class IntertwiningReport:
    """Outcome of the Wigner-table equivalence check in both directions.

    ``max_table_deviation``: worst entrywise gap between wigner(channel(rho))
    and walk_step(wigner(rho)) over the random operators rho.
    ``max_lift_deviation``: worst entrywise gap between
    channel(inverse_wigner(f)) and inverse_wigner(walk_step(f)) over the
    random tables f.
    """

    modulus: int
    trials: int
    max_table_deviation: float
    max_lift_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return max(self.max_table_deviation, self.max_lift_deviation) < self.tolerance

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def random_hermitian(N: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return (g + g.conj().T) / 2.0


def verify_wigner_intertwining(ctx: PhaseSpaceContext, trials: int = 20,
                               seed: int = 0) -> IntertwiningReport:
    """Check that the channel acts on Wigner tables as the walk acts on grids.

    The identity is linear, so random inputs catch a wrong map with high
    probability on each trial (Freivalds 1977).  Entrywise, on ``trials``
    inputs each: (a) wigner(channel(rho)) against walk_step(wigner(rho)) for
    random hermitian rho; then (b) the lift, channel(inverse_wigner(f)) against
    inverse_wigner(walk_step(f)) for standard-normal tables f.  No walk matrix
    is formed, so the check runs at any odd N.
    """
    N = ctx.N
    ch = margulis_channel(ctx)
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(trials):
        rho = random_hermitian(N, rng)
        left = wigner(ctx, apply_channel(ch, rho)).values
        right = walk_step(wigner(ctx, rho)).values
        max_dev = max(max_dev, float(np.max(np.abs(left - right))))

    max_lift = 0.0
    for _ in range(trials):
        f = GridDist(N, rng.standard_normal((N, N)))
        left = apply_channel(ch, inverse_wigner(ctx, f))
        right = inverse_wigner(ctx, walk_step(f))
        max_lift = max(max_lift, float(np.max(np.abs(left - right))))

    return IntertwiningReport(modulus=N, trials=trials, max_table_deviation=max_dev,
                              max_lift_deviation=max_lift, tolerance=1e-10)
