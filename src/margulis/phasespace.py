"""Discrete Weyl-Heisenberg and phase-point operators for odd dimension N.

Provides symmetrized Weyl operators, the parity operator and its
translates (the phase-point basis), the Wigner transform and its inverse,
the discrete Fourier transform, quadratic-phase unitaries, and the
closed-form action of the unitaries of affine phase-space maps.

Conventions, all pinned by tests:

* ``fourier(ctx)`` is the plain DFT with entries omega^{jk}/sqrt(N); it
  conjugates Weyl labels by J = [[0, 1], [-1, 0]] and satisfies
  F z(p) F^dag = x(-p).
* ``quadratic_phase(ctx, +1)`` is diag(exp(+2*pi*i*j^2/N)); it conjugates
  phase-point labels by S1 = [[1, 2], [0, 1]], its adjoint by S1^{-1}.
* Conjugating these representatives moves Weyl operators without any stray
  phase: mu(S) w(a) mu(S)^dag = w(S a) exactly.
* A(p,q) |m> = omega^{2p(q-m)} |2q-m>, so every nonzero entry of A(p,q)
  lies on the antidiagonal n + m = 2q (mod N).  The Wigner transform is
  therefore one DFT per lattice column q (Wootters 1987; Gross 2006):

      W[p,q] = (1/N) sum_y omega^{2py} rho[q-y, q+y],

  indices mod N.  ``wigner`` gathers g[q,y] = rho[q-y, q+y] and reads
  entry 2p mod N of ``numpy.fft.ifft`` along y; ``inverse_wigner`` is the
  transpose, rho[q+y, q-y] = sum_p W[p,q] omega^{2py}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectrum import _require_hermitian
from .walk import (AffineMap, GridDist, _frozen_table, _require_integer, _require_odd_modulus,
                   _unit_shear)

__all__ = [
    "PhaseSpaceContext",
    "weyl",
    "parity",
    "phase_point",
    "wigner",
    "inverse_wigner",
    "fourier",
    "quadratic_phase",
    "affine_action",
    "affine_unitary",
    "operator_to_json",
    "operator_from_json",
]


@dataclass(frozen=True)
class PhaseSpaceContext:
    """Odd lattice dimension N and its half inverse."""

    N: int

    def __post_init__(self):
        _require_odd_modulus(self.N)

    @property
    def inv2(self) -> int:
        """Multiplicative inverse of 2 mod N, i.e. (N+1)/2."""
        return (self.N + 1) // 2


#: Largest M whose phase products c * e, both reduced below M, stay inside int64.
_INT64_ROOT = math.isqrt(2**63 - 1)


def _phases(exponents, modulus: int, c: int = 1) -> np.ndarray:
    """exp(2*pi*i * (c * e mod M) / M) for integer exponents e; c and e are reduced mod M
    before they multiply.  For an object array of exponents, or M past _INT64_ROOT, c, M
    and the residue are Python integers, and the residue is divided by M exactly."""
    e = np.asarray(exponents)
    if e.dtype == object or modulus > _INT64_ROOT:
        c, modulus, e = int(c), int(modulus), e.astype(object)
    r = e % modulus if c == 1 else c % modulus * (e % modulus) % modulus  # c = 1: one pass
    if e.dtype == object:
        return np.exp(2j * np.pi * np.asarray(r / modulus, dtype=float))
    return np.exp(2j * np.pi * r / modulus)


def _monomial(ctx: PhaseSpaceContext, rows: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """N x N matrix with omega^{exponents[k]} at (rows[k] mod N, k), zero elsewhere."""
    m = np.zeros((ctx.N, ctx.N), dtype=complex)
    m[rows % ctx.N, np.arange(ctx.N)] = _phases(exponents, ctx.N)
    return m


def weyl(ctx: PhaseSpaceContext, p: int, q: int) -> np.ndarray:
    """Symmetrized displacement w(p,q) = omega^{-inv2*p*q} z(p) x(q), with the
    boost z(p)|k> = omega^{pk}|k> and the shift x(q)|k> = |k+q>; so
    w(p,q)|k> = omega^{p(k+q) - inv2*p*q} |k+q>, labels taken mod N.

    Unitary; w(0,0) is the identity, and w(a) w(b) picks up the symplectic
    phase omega^{inv2*(p q' - p' q)} relative to w(a+b).
    """
    _require_integer("label", p, q)
    p, q, k = p % ctx.N, q % ctx.N, np.arange(ctx.N)
    return _monomial(ctx, k + q, p * (k + q) - ctx.inv2 * p * q)


def parity(ctx: PhaseSpaceContext) -> np.ndarray:
    """A(0,0): |k> -> |-k mod N>; hermitian involution with unit trace."""
    return phase_point(ctx, 0, 0)


def phase_point(ctx: PhaseSpaceContext, p: int, q: int) -> np.ndarray:
    """Translated parity A(p,q) = w(p,q) A(0,0) w(p,q)^dag, which sends |m> to
    omega^{2p(q-m)} |2q-m>, labels taken mod N."""
    _require_integer("label", p, q)
    p, q, m = p % ctx.N, q % ctx.N, np.arange(ctx.N)
    return _monomial(ctx, 2 * q - m, 2 * p * (q - m))


@lru_cache(maxsize=4)
def _antidiagonal_indices(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (q-y, q+y) mod N, both indexed [q, y]; read-only, built once per N."""
    q, y = np.arange(N)[:, None], np.arange(N)
    return _frozen_table((q - y) % N), _frozen_table((q + y) % N)


def wigner(ctx: PhaseSpaceContext, rho: np.ndarray) -> GridDist:
    """Wigner table W[p,q] = tr(A(p,q) rho) / N of a hermitian operator.

    The table is real and sums to tr(rho).  Non-hermitian input is rejected
    rather than silently projected.  Costs one length-N FFT per column q.
    """
    rho = np.asarray(rho, dtype=complex)
    N = ctx.N
    if rho.shape != (N, N):
        raise ValueError(f"expected a {N}x{N} operator, got shape {rho.shape}")
    _require_hermitian(rho, "wigner requires a hermitian operator")
    minus, plus = _antidiagonal_indices(N)
    table = np.fft.ifft(rho[minus, plus], axis=1)[:, 2 * np.arange(N) % N]
    return GridDist(N, table.real.T)


def inverse_wigner(ctx: PhaseSpaceContext, table: GridDist) -> np.ndarray:
    """Operator with the given Wigner table: sum_a table(a) A(a)."""
    if table.modulus != ctx.N:
        raise ValueError(f"table modulus {table.modulus} != context N {ctx.N}")
    N = ctx.N
    # sums[q, k] = sum_p table[p, q] omega^{pk}
    sums = N * np.fft.ifft(table.values.T, axis=1)
    minus, plus = _antidiagonal_indices(N)
    rho = np.empty((N, N), dtype=complex)
    rho[plus, minus] = sums[:, 2 * np.arange(N) % N]
    return rho


def fourier(ctx: PhaseSpaceContext) -> np.ndarray:
    """Discrete Fourier transform, F[k,j] = omega^{jk}/sqrt(N)."""
    j = np.arange(ctx.N)
    return _phases(np.outer(j, j), ctx.N) / np.sqrt(ctx.N)


def quadratic_phase(ctx: PhaseSpaceContext, sign: int) -> np.ndarray:
    """Diagonal unitary diag(exp(sign * 2*pi*i * j^2 / N)), sign = +-1.

    The two signs are mutual adjoints.  sign=+1 conjugates phase-point
    labels by [[1, 2], [0, 1]], sign=-1 by its inverse.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return np.diag(_phases(np.arange(ctx.N) ** 2, ctx.N, sign))


def _shear_chirp(T: AffineMap) -> tuple[int, int]:
    """(axis, c) for T's unit shear mod N: mu(linear) is diag(omega^{c j^2})
    on axis 0 and F diag(omega^{c j^2}) F^dag on axis 1, 0 <= c < N.

    diag(omega^{c j^2}) moves labels by [[1, 2c], [0, 1]], and conjugation
    by F = mu(J) turns that into [[1, 0], [-2c, 1]]; so c = +-inv2 * m.
    """
    axis, m = _unit_shear(T.linear)
    inv2 = (T.modulus + 1) // 2
    return axis, (-inv2 * m if axis else inv2 * m) % T.modulus


def affine_action(ctx: PhaseSpaceContext, T: AffineMap, X) -> np.ndarray:
    """U_T X along axis 0 of X, U_T = w(shift) mu(linear) being the unitary with
    U_T A(v) U_T^dag = A(T(v)) for T whose linear part is a unit shear (any other
    raises ValueError).  mu is the chirp of :func:`_shear_chirp` on axis 0 and
    ifft(chirp * fft(X)) on axis 1; w(p, q) then moves row k - q to row k and
    scales it by omega^{p k - inv2 p q}.  U_T itself is never formed."""
    if T.modulus != ctx.N:
        raise ValueError(f"map modulus {T.modulus} != context N {ctx.N}")
    if np.shape(X)[:1] != (ctx.N,):
        raise ValueError(f"expected {ctx.N} rows, got shape {np.shape(X)}")
    axis, c = _shear_chirp(T)
    (p, q), k = T.shift, np.arange(ctx.N)
    chirp, phase = _phases(k * k, ctx.N, c), _phases(p * k - ctx.inv2 * p * q, ctx.N)
    src, column = (k - q) % ctx.N, (slice(None),) + (None,) * (np.ndim(X) - 1)  # column: down axis 0
    if axis:
        return phase[column] * np.fft.ifft(chirp[column] * np.fft.fft(X, axis=0), axis=0)[src]
    return (phase * chirp[src])[column] * np.take(X, src, axis=0)


def affine_unitary(ctx: PhaseSpaceContext, T: AffineMap) -> np.ndarray:
    """Dense U_T: affine_action on the identity."""
    return affine_action(ctx, T, np.eye(ctx.N))


# ---------------------------------------------------------------------------
# Operator dump format used by the CLI for golden files.

def operator_to_json(op: np.ndarray) -> str:
    """JSON dump {dim, re, im} with row-major N x N real/imaginary parts."""
    op = np.asarray(op, dtype=complex)
    n = op.shape[0]
    if op.shape != (n, n):
        raise ValueError(f"expected a square operator, got shape {op.shape}")
    return json.dumps({"dim": n, "re": op.real.tolist(), "im": op.imag.tolist()})


def operator_from_json(text: str) -> np.ndarray:
    """Inverse of operator_to_json.  Raises ValueError unless the text is an
    object {dim, re, im} whose re and im are finite numeric dim x dim arrays."""
    obj = json.loads(text)
    try:
        dim, re, im = obj["dim"], np.array(obj["re"]), np.array(obj["im"])
    except (TypeError, KeyError, ValueError):  # not an object, a key missing, ragged lists
        raise ValueError("operator dump is not an object {dim, re, im} of arrays") from None
    if not all(type(dim) is int and a.dtype.kind in "iuf" and a.shape == (dim, dim)
               and np.isfinite(a).all() for a in (re, im)):
        raise ValueError(f"operator dump re and im are not finite numeric "
                         f"dim x dim arrays for dim {dim!r}")
    return re + 1j * im
