"""Classical Margulis expander walk on the N x N integer lattice.

The walk is driven by eight affine maps on Z_N^2: four generators (two
unit-determinant linear parts, each with and without a unit translation)
together with their inverses.  One step replaces a distribution f by the
average of its pullbacks f o T^{-1} over the eight maps, which for this
inverse-closed set equals the pushforward average.  The module exposes the
maps, the step, the dense stochastic matrix of the step, and its spectrum.

With h = 1/2 = (N + 1)/2 mod N, conjugation by either lattice reflection
a(p, q) = (h - p, q) or b(p, q) = (p, -h - q) permutes the eight maps, so
the walk matrix commutes with both.  Each reflection fixes exactly one point
of an odd axis, and the dense spectrum is solved as the four blocks of
a-parity times b-parity, of sizes ((N +- 1)/2) * ((N +- 1)/2).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "AffineMap",
    "GridDist",
    "SpectralReport",
    "GENERATOR_LABELS",
    "LINEAR_PARTS",
    "WALK_MAPS",
    "GABBER_GALIL_BOUND",
    "DENSE_MAX_MODULUS",
    "generator_data",
    "linear_word",
    "margulis_generators",
    "generator_map",
    "apply_affine",
    "walk_step",
    "walk_matrix",
    "spectral_report",
    "grid_to_csv",
    "grid_from_csv",
    "grid_to_pgm",
]

#: Upper bound sqrt(2)*5/8 on the subdominant eigenvalue, independent of N.
GABBER_GALIL_BOUND = math.sqrt(2.0) * 5.0 / 8.0

#: Largest N for which walk_matrix builds the dense N^2 x N^2 matrix by default.
DENSE_MAX_MODULUS = 49

#: Linear-part symbol -> (SL(2, Z) matrix, metaplectic word).  A word is in
#: matrix order over Q+/Q- (quadratic phase of sign +-1) and F/Finv (DFT);
#: its unitary moves phase-point labels by the matrix.
LINEAR_PARTS = {
    "S1": (((1, 2), (0, 1)), ("Q+",)),
    "S1inv": (((1, -2), (0, 1)), ("Q-",)),
    "S2": (((1, 0), (2, 1)), ("F", "Q-", "Finv")),
    "S2inv": (((1, 0), (-2, 1)), ("F", "Q+", "Finv")),
    "J": (((0, 1), (-1, 0)), ("F",)),
}

#: The eight walk maps, label -> (linear-part symbol, shift over Z^2).
WALK_MAPS = {
    "T1": ("S1", (0, 0)), "T2": ("S1", (1, 0)),
    "T3": ("S2", (0, 0)), "T4": ("S2", (0, -1)),
    "T1inv": ("S1inv", (0, 0)), "T2inv": ("S1inv", (-1, 0)),
    "T3inv": ("S2inv", (0, 0)), "T4inv": ("S2inv", (0, 1)),
}

#: Labels for the eight maps returned by :func:`margulis_generators`, in order.
GENERATOR_LABELS = tuple(WALK_MAPS)


def generator_data() -> tuple[tuple[str, tuple, tuple], ...]:
    """All eight maps as exact integer (label, linear, shift) triples over Z^2.

    The same data, reduced mod N, drives the lattice walk; over the reals it
    drives the moment maps.
    """
    return tuple((label, LINEAR_PARTS[symbol][0], shift)
                 for label, (symbol, shift) in WALK_MAPS.items())


def _mod(matrix, N: int) -> tuple[tuple[int, int], tuple[int, int]]:
    (a, b), (c, d) = matrix
    return ((a % N, b % N), (c % N, d % N))


def linear_word(linear, N: int) -> tuple[str, ...]:
    """Word of a linear part reduced mod N; () for the identity."""
    if linear == ((1, 0), (0, 1)):
        return ()
    for matrix, word in LINEAR_PARTS.values():
        if _mod(matrix, N) == linear:
            return word
    raise ValueError(f"unsupported linear part {linear} mod {N}")


def _require_odd_modulus(N: int) -> None:
    if not isinstance(N, (int, np.integer)):
        raise ValueError(f"modulus must be an integer, got {N!r}")
    if N < 3 or N % 2 == 0:
        raise ValueError(f"modulus must be an odd integer >= 3, got {N}")


@dataclass(frozen=True)
class AffineMap:
    """Invertible affine map v -> linear @ v + shift on Z_N^2.

    Entries are stored reduced mod ``modulus``; the linear part must have
    determinant 1 mod N, which makes the map a bijection on the lattice.
    """

    linear: tuple[tuple[int, int], tuple[int, int]]
    shift: tuple[int, int]
    modulus: int

    def __post_init__(self):
        _require_odd_modulus(self.modulus)
        N = self.modulus
        (a, b), (c, d) = self.linear
        sh = (self.shift[0] % N, self.shift[1] % N)
        if (a * d - b * c) % N != 1:
            raise ValueError(f"linear part {self.linear} has det != 1 mod {N}")
        object.__setattr__(self, "linear", _mod(self.linear, N))
        object.__setattr__(self, "shift", sh)

    def __call__(self, v: tuple[int, int]) -> tuple[int, int]:
        return apply_affine(self, v)

    def inverse(self) -> "AffineMap":
        """The inverse map v -> linear^{-1} (v - shift)."""
        N = self.modulus
        (a, b), (c, d) = self.linear
        # det == 1 mod N, so the adjugate is the inverse.
        inv = ((d % N, -b % N), (-c % N, a % N))
        t = self.shift
        ishift = (-(inv[0][0] * t[0] + inv[0][1] * t[1]) % N,
                  -(inv[1][0] * t[0] + inv[1][1] * t[1]) % N)
        return AffineMap(inv, ishift, N)

    @staticmethod
    def identity(N: int) -> "AffineMap":
        return AffineMap(((1, 0), (0, 1)), (0, 0), N)


def margulis_generators(N: int) -> list[AffineMap]:
    """The eight walk maps [T1..T4, T1^-1..T4^-1] reduced mod N.

    Parameters
    ----------
    N : odd int >= 3
        Lattice modulus.
    """
    _require_odd_modulus(N)
    return [AffineMap(lin, sh, N) for _, lin, sh in generator_data()]


def generator_map(N: int) -> dict[str, AffineMap]:
    """Label -> map dictionary over :data:`GENERATOR_LABELS`."""
    return dict(zip(GENERATOR_LABELS, margulis_generators(N)))


def apply_affine(T: AffineMap, v: tuple[int, int],
                 modulus: int | None = None) -> tuple[int, int]:
    """Image of lattice point v under T, all arithmetic mod T.modulus.

    ``modulus``, when given, states which lattice v lives on and must match
    the map's modulus.
    """
    N = T.modulus
    if modulus is not None and modulus != N:
        raise ValueError(f"point modulus {modulus} != map modulus {N}")
    p, q = int(v[0]) % N, int(v[1]) % N
    (a, b), (c, d) = T.linear
    s, t = T.shift
    return ((a * p + b * q + s) % N, (c * p + d * q + t) % N)


@dataclass(frozen=True, eq=False)
class GridDist:
    """Real-valued function on Z_N^2, stored as values[p, q]."""

    modulus: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_odd_modulus(self.modulus)
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.modulus, self.modulus):
            raise ValueError(
                f"values must have shape ({self.modulus}, {self.modulus}), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def delta(N: int, p: int = 0, q: int = 0) -> "GridDist":
        vals = np.zeros((N, N))
        vals[p % N, q % N] = 1.0
        return GridDist(N, vals)

    @staticmethod
    def uniform(N: int) -> "GridDist":
        return GridDist(N, np.full((N, N), 1.0 / N**2))

    def is_probability(self, tol: float = 1e-12) -> bool:
        return bool(np.all(self.values >= -tol) and abs(self.values.sum() - 1.0) <= tol)

    def flatten(self) -> np.ndarray:
        """Vector with index p*N + q, the basis order used by walk_matrix."""
        return self.values.reshape(-1).copy()

    @staticmethod
    def from_flat(N: int, vec: np.ndarray) -> "GridDist":
        return GridDist(N, np.asarray(vec, dtype=float).reshape(N, N))


def _pullback_index(T: AffineMap) -> np.ndarray:
    """The array k with k[p, q] = flat index of T^{-1}(p, q), so f o T^{-1} = flat[k]."""
    N = T.modulus
    p, q = np.arange(N)[:, None], np.arange(N)[None, :]
    Ti = T.inverse()
    (a, b), (c, d) = Ti.linear
    s, t = Ti.shift
    return (a * p + b * q + s) % N * N + (c * p + d * q + t) % N


@lru_cache(maxsize=4)
def _pullback_stack(N: int) -> np.ndarray:
    """The eight pullback index arrays, stacked read-only, built once per N.

    Used by walk_step; 8 N^2 machine integers, about 10 MB at N=401.
    walk_matrix builds one _pullback_index at a time instead: its O(N^4)
    cost dwarfs the index build, and cached index arrays left between its
    large temporaries raised the peak RSS of repeated dense eigensolves by
    several MB.
    """
    stack = np.empty((8, N, N), dtype=np.intp)
    for k, T in zip(stack, margulis_generators(N)):
        k[...] = _pullback_index(T)
    stack.setflags(write=False)
    return stack


def walk_step(f: GridDist) -> GridDist:
    """One expander step: average of f o T^{-1} over the eight maps.

    Preserves total mass and nonnegativity; the uniform distribution is its
    fixed point.
    """
    N = f.modulus
    out = np.zeros((N, N))
    flat = f.values.reshape(-1)
    # One map at a time keeps the temporaries at N^2 floats, not 8 N^2.
    for k in _pullback_stack(N):
        out += flat[k]
    return GridDist(N, out / 8.0)


def walk_matrix(N: int, max_modulus: int = DENSE_MAX_MODULUS) -> np.ndarray:
    """Dense N^2 x N^2 matrix of walk_step in the point-mass basis.

    Basis index of the point (p, q) is p*N + q.  The matrix is symmetric and
    doubly stochastic: entry (u, v) is (1/8) * #{T : T(v) = u}.

    Parameters
    ----------
    max_modulus : int
        Memory guard; raise for N beyond this cap (pass a larger value to
        override).
    """
    _require_odd_modulus(N)
    if N > max_modulus:
        raise ValueError(
            f"N={N} exceeds the walk_matrix cap {max_modulus}; "
            "pass max_modulus explicitly to override")
    M = np.zeros((N * N, N * N))
    rows = np.arange(N * N)
    for T in margulis_generators(N):
        # Each map is a bijection, so no (row, column) pair repeats here.
        M[rows, _pullback_index(T).ravel()] += 0.125
    return M


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum summary of a walk (or channel) matrix.

    ``spectrum`` is the full spectrum sorted by descending absolute value;
    ``lam`` is ``abs(spectrum[1])``, the largest absolute eigenvalue on the
    orthogonal complement of the uniform vector.  ``blocks`` are the sizes
    of the diagonal blocks actually eigensolved and ``residual`` is the
    Frobenius norm of ``M V - V diag(w)`` over all of them.
    """

    modulus: int
    degree: int
    lam: float
    spectrum: tuple[float, ...]
    blocks: tuple[int, ...] = ()
    residual: float = 0.0

    def gap(self) -> float:
        return 1.0 - self.lam


def _commutes_with_reflection(M4: np.ndarray, c: int) -> bool:
    """Whether M4[r(p), :, r(s), :] == M4[p, :, s, :] exactly, r(x) = (c - x) mod N.

    r maps the runs 0..c and c+1..N-1 onto themselves reversed, so the test
    compares strided views and copies no N^4 array.
    """
    N = M4.shape[0]
    runs = ((slice(0, c + 1), slice(c, None, -1)), (slice(c + 1, N), slice(N - 1, c, -1)))
    return all(np.array_equal(M4[p, :, s], M4[rp, :, rs]) for p, rp in runs for s, rs in runs)


def _axis_parities(c: int, N: int):
    """Even and odd bases of the reflection x -> (c - x) mod N on Z_N, N odd.

    Each is (cols, partners, weights, sign).  Folding a matrix's columns as
    ``A[:, cols] + sign * A[:, partners]`` and keeping rows ``cols`` gives,
    scaled by ``outer(weights, weights)``, its block in the basis e_fixed,
    (e_x + sign e_r(x)) / sqrt(2) when the matrix commutes with r.  The
    fixed point's column is folded onto itself, hence its weight sqrt(1/2).
    """
    x = np.arange(N)
    r = (c - x) % N
    fixed = c * (N + 1) // 2 % N
    pairs = np.flatnonzero(x < r)
    even = (np.r_[fixed, pairs], np.r_[fixed, r[pairs]],
            np.r_[math.sqrt(0.5), np.ones(pairs.size)], 1.0)
    return even, (pairs, r[pairs], np.ones(pairs.size), -1.0)


def _eigen_blocks(M: np.ndarray, N: int) -> Iterator[np.ndarray]:
    """Diagonal blocks of M whose spectra together make up M's spectrum.

    The four reflection-parity blocks when M is N^2 x N^2 and commutes
    exactly with both lattice reflections (see the module docstring), else
    M itself.  Commutation makes the off-diagonal blocks exactly zero, and
    the basis change is orthogonal, so residuals add in quadrature.  Blocks
    are yielded one at a time, not held as a list.
    """
    h = (N + 1) // 2
    if N < 3 or N % 2 == 0 or M.shape != (N * N, N * N):
        yield M
        return
    M4 = M.reshape(N, N, N, N)
    if not (_commutes_with_reflection(M4, h)
            and _commutes_with_reflection(M4.transpose(1, 0, 3, 2), N - h)):
        yield M
        return
    for rows_a, part_a, w_a, sign_a in _axis_parities(h, N):
        for rows_b, part_b, w_b, sign_b in _axis_parities(N - h, N):
            # On a walk matrix (entries multiples of 1/8) the folds are exact,
            # and the block is exactly symmetric.
            sub = M4[np.ix_(rows_a, rows_b)]
            sub = sub[:, :, rows_a] + sign_a * sub[:, :, part_a]
            sub = sub[..., rows_b] + sign_b * sub[..., part_b]
            w = np.outer(w_a, w_b).ravel()
            yield sub.reshape(w.size, w.size) * np.outer(w, w)


def spectral_report(M: np.ndarray, *, modulus: int = 0, degree: int = 8,
                    tol: float = 1e-10) -> SpectralReport:
    """Eigenvalues of a symmetric stochastic matrix and its mixing rate.

    ``lam`` is read off the eigensolve; a degenerate eigenvalue 1 (a
    disconnected walk) survives as ``lam == 1``.  When ``modulus`` is N and
    M is N^2 x N^2 with the walk's reflection symmetry, the four parity
    blocks are solved in place of M, about 1/16 of the work.

    Parameters
    ----------
    M : real symmetric matrix, row-stochastic within ``tol``.

    Raises
    ------
    ValueError
        If M is not symmetric row-stochastic, or its top eigenvalue is not 1.
    RuntimeError
        If the eigendecomposition residual exceeds tolerance.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n) or not np.allclose(M, M.T, atol=tol):
        raise ValueError("matrix must be square and symmetric")
    if not np.allclose(M.sum(axis=1), 1.0, atol=tol):
        raise ValueError("matrix must be row-stochastic")
    eigvals, sizes, squared_residual = [], [], 0.0
    for block in _eigen_blocks(M, modulus):
        w, V = np.linalg.eigh(block)
        squared_residual += np.linalg.norm(block @ V - V * w, ord="fro") ** 2
        eigvals.append(w)
        sizes.append(w.size)
    residual = math.sqrt(squared_residual)
    if residual > 1e-8 * max(1.0, np.linalg.norm(M, ord="fro")):
        raise RuntimeError(f"eigendecomposition residual too large: {residual:.3e}")
    # Ascending first, so ties in |x| keep the order one eigh of M gives.
    spectrum = tuple(sorted(np.sort(np.concatenate(eigvals)).tolist(), key=abs, reverse=True))
    if abs(spectrum[0] - 1.0) > tol:
        raise ValueError(f"largest eigenvalue {spectrum[0]!r} is not 1 within {tol}")
    lam = abs(spectrum[1])
    return SpectralReport(modulus=modulus, degree=degree, lam=lam, spectrum=spectrum,
                          blocks=tuple(sizes), residual=residual)


# ---------------------------------------------------------------------------
# Serialization: CSV (p,q,value) and ASCII PGM heatmaps.

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def grid_to_csv(f: GridDist) -> str:
    """CSV dump with header p,q,value; q is the slow (outer) index."""
    qs, ps = np.indices((f.modulus, f.modulus)).reshape(2, -1).tolist()
    rows = map("{},{},{:.17g}".format, ps, qs, f.values.T.ravel().tolist())
    return "p,q,value\n" + "\n".join(rows) + "\n"


def grid_from_csv(text: str) -> GridDist:
    """Inverse of grid_to_csv: each cell once, rows in any order, CRLF and blank lines ok."""
    rows = [ln for ln in text.strip().splitlines() if ln] or [""]
    if rows[0].strip() != "p,q,value":
        raise ValueError(f"expected header 'p,q,value', got {rows[0]!r}")
    body = rows[1:]
    N = math.isqrt(len(body))
    if not body or N * N != len(body):
        raise ValueError(f"expected a square table, got {len(body)} rows")
    with warnings.catch_warnings():
        # numpy < 2 reads an index such as 1.0 with only a DeprecationWarning.
        warnings.simplefilter("error", DeprecationWarning)
        cells = np.loadtxt(body, delimiter=",", comments=None, ndmin=1,
                           dtype=[("p", np.int64), ("q", np.int64), ("value", np.float64)])
    p, q = cells["p"], cells["q"]
    outside = (p < 0) | (p >= N) | (q < 0) | (q >= N)
    key = p * N + q
    order = np.argsort(key, kind="stable")  # a cell's first row sorts ahead of its repeats
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:]] = np.diff(key[order]) == 0
    bad = np.flatnonzero(outside | repeat)
    if bad.size:
        i = bad[0]
        if outside[i]:
            raise ValueError(f"row {body[i]!r}: index outside 0..{N - 1}")
        raise ValueError(f"row {body[i]!r}: duplicate cell ({p[i]}, {q[i]})")
    # N*N rows in range and pairwise distinct cover every cell: key[order] is 0 .. N*N - 1.
    return GridDist(N, cells["value"][order].reshape(N, N))


def grid_to_pgm(f: GridDist, lo: float | None = None, hi: float | None = None) -> str:
    """ASCII (P2) grayscale heatmap; min maps to 0 and max to 255.

    ``lo``/``hi`` override the per-frame range for cross-frame comparability.
    Row r of the image is lattice coordinate p=r, column is q.
    """
    vals = f.values
    lo = float(vals.min()) if lo is None else float(lo)
    hi = float(vals.max()) if hi is None else float(hi)
    if hi > lo:
        # Clip before the cast: a value far above hi overflows int.
        pix = np.clip(np.rint((vals - lo) / (hi - lo) * 255.0), 0, 255).astype(int)
    else:
        pix = np.zeros_like(vals, dtype=int)
    lines = ["P2", f"{f.modulus} {f.modulus}", "255"]
    lines += [" ".join(map(str, row)) for row in pix.tolist()]
    return "\n".join(lines) + "\n"
