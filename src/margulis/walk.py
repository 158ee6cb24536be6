"""Classical Margulis expander walk on the N x N integer lattice.

The walk is driven by eight affine maps on Z_N^2: four generators (two
unit-determinant linear parts, each with and without a unit translation)
together with their inverses.  One step replaces a distribution f by the
average of its pullbacks f o T^{-1} over the eight maps, which for this
inverse-closed set equals the pushforward average.  The module exposes the
maps, the step, the dense stochastic matrix of the step, and its spectrum.

With h = 1/2 = (N + 1)/2 mod N, conjugation by either lattice reflection
a(p, q) = (h - p, q) or b(p, q) = (p, -h - q), or by the swap
sigma(p, q) = (q + h, p - h), permutes the eight maps (sigma exchanges T1
with T4 and T2 with T3, and their inverses likewise).  So the walk matrix
commutes with the group <a, b, sigma>, dihedral of order 8, where
sigma a sigma = b.  Each reflection fixes exactly one point of an odd axis,
so with m = (N + 1)/2 the blocks of a-parity times b-parity have sizes m^2,
m(m - 1), (m - 1)m and (m - 1)^2.  sigma carries the (+, -) block onto the
(-, +) one, and maps the (+, +) and (-, -) blocks onto themselves with
their two axes swapped, which splits each into a symmetric and an
antisymmetric part.  The dense spectrum is solved as five blocks, of sizes
m(m + 1)/2, m(m - 1)/2, m(m - 1)/2, (m - 1)(m - 2)/2 and m(m - 1), the
last, (+, -), counted twice.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NoReturn

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "AffineMap",
    "GridDist",
    "SpectralReport",
    "GENERATOR_LABELS",
    "WALK_MAPS",
    "GABBER_GALIL_BOUND",
    "DENSE_MAX_MODULUS",
    "generator_data",
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

#: Largest N for which walk_matrix and channel.superoperator build their dense
#: N^2 x N^2 matrices.
DENSE_MAX_MODULUS = 49

#: The eight walk maps, label -> (linear part, shift), both over Z^2.  Every
#: linear part is a unit shear (see _unit_shear).
WALK_MAPS = {
    "T1": (((1, 2), (0, 1)), (0, 0)), "T2": (((1, 2), (0, 1)), (1, 0)),
    "T3": (((1, 0), (2, 1)), (0, 0)), "T4": (((1, 0), (2, 1)), (0, -1)),
    "T1inv": (((1, -2), (0, 1)), (0, 0)), "T2inv": (((1, -2), (0, 1)), (-1, 0)),
    "T3inv": (((1, 0), (-2, 1)), (0, 0)), "T4inv": (((1, 0), (-2, 1)), (0, 1)),
}

#: Labels for the eight maps returned by :func:`margulis_generators`, in order.
GENERATOR_LABELS = tuple(WALK_MAPS)


def generator_data() -> tuple[tuple[str, tuple, tuple], ...]:
    """All eight maps as exact integer (label, linear, shift) triples over Z^2.

    The same data, reduced mod N, drives the lattice walk; over the reals it
    drives the moment maps.
    """
    return tuple((label, linear, shift) for label, (linear, shift) in WALK_MAPS.items())


def _mod(matrix, N: int) -> tuple[tuple[int, int], tuple[int, int]]:
    (a, b), (c, d) = matrix
    return ((a % N, b % N), (c % N, d % N))


def _unit_shear(linear) -> tuple[int, int]:
    """(axis, m) of a unit shear, which adds m times the other coordinate to one.

    ((1, m), (0, 1)) is axis 0 and ((1, 0), (m, 1)) axis 1; the identity is
    (0, 0).  Any other matrix raises ValueError.
    """
    (a, b), (c, d) = linear
    if (a, d) != (1, 1) or b * c:
        raise ValueError(f"{linear} is not a unit shear")
    return (1, c) if c else (0, b)


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


def apply_affine(T: AffineMap, v: tuple[int, int]) -> tuple[int, int]:
    """Image of lattice point v under T, all arithmetic mod T.modulus."""
    N = T.modulus
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
        self._freeze(vals)

    def _freeze(self, vals: np.ndarray) -> None:
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _adopt(cls, vals: np.ndarray) -> "GridDist":
        """A GridDist over vals, a fresh float (N, N) array no caller holds.

        Checked for finiteness like any table, but taken over, not copied.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "modulus", vals.shape[0])
        f._freeze(vals)
        return f

    @staticmethod
    def delta(N: int, p: int = 0, q: int = 0) -> "GridDist":
        vals = np.zeros((N, N))
        vals[p % N, q % N] = 1.0
        return GridDist(N, vals)


def _pullback_index(T: AffineMap) -> np.ndarray:
    """The array k with k[p, q] = flat index of T^{-1}(p, q), so f o T^{-1} = flat[k]."""
    N = T.modulus
    p, q = np.arange(N)[:, None], np.arange(N)[None, :]
    Ti = T.inverse()
    (a, b), (c, d) = Ti.linear
    s, t = Ti.shift
    return (a * p + b * q + s) % N * N + (c * p + d * q + t) % N


def _shear_table(maps) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The walk maps as unit shears, one (axis, reads) per sheared axis.

    ``maps`` are (label, linear, shift) triples over Z^2.  Each linear part
    must add m times the other coordinate x to one axis y, and each shift t
    must lie along y: then f o T^{-1} reads f(x, y - m x + c), c = -t, f's
    line x rotated to start c - m x.  ``reads`` holds each map's (m, c).
    """
    axes: dict[int, list[tuple[int, int]]] = {}
    for label, linear, shift in maps:
        message = f"{label}: {linear} + {shift} is not a unit shear"
        try:
            axis, m = _unit_shear(linear)
        except ValueError:
            raise ValueError(message) from None
        if not m or shift[1 - axis]:
            raise ValueError(message)
        axes.setdefault(axis, []).append((m, -shift[axis]))
    return tuple((axis, tuple(reads)) for axis, reads in sorted(axes.items()))


_SHEARS = _shear_table(generator_data())

#: Lattice cells per strip of walk_step: its scratch is a few arrays this size.
_STRIP_CELLS = 1 << 15


def walk_step(f: GridDist) -> GridDist:
    """One expander step: average of f o T^{-1} over the eight maps.

    Each axis of _shear_table is read a strip of lines at a time: a strip
    holds f's lines twice over, so line x rotated to start s = (c - m x) mod N
    is the window of length N at s, one window per map.  The first axis is
    read and written transposed.  Scratch is a few strips beside the result,
    and nothing is kept between calls.  Preserves mass and nonnegativity; a
    sum that overflows raises ValueError, as GridDist does for any table
    that is not finite.
    """
    N = f.modulus
    rows = min(N, max(1, _STRIP_CELLS // N))
    strip = np.empty((rows, 2, N))
    windows = sliding_window_view(strip.reshape(rows, 2 * N), N, axis=1)  # [i, s]: line i from s
    x = np.arange(N)
    out = np.empty((N, N))
    for k, (axis, reads) in enumerate(_SHEARS):
        src, dst = (f.values.T, out.T) if axis == 0 else (f.values, out)
        starts = [(c - m * x) % N for m, c in reads]
        for lo in range(0, N, rows):
            n = min(rows, N - lo)
            strip[:n] = src[lo:lo + n, None]
            acc = windows[x[:n], starts[0][lo:lo + n]]
            for s in starts[1:]:
                acc += windows[x[:n], s[lo:lo + n]]
            if k:  # the first axis has written every cell
                acc += dst[lo:lo + n]
            dst[lo:lo + n] = acc
    out *= 0.125  # rounds the exact x / 8 once, as / 8 does
    return GridDist._adopt(out)


def walk_matrix(N: int) -> np.ndarray:
    """Dense N^2 x N^2 matrix of walk_step in the point-mass basis.

    Basis index of the point (p, q) is p*N + q.  The matrix is symmetric and
    doubly stochastic: entry (u, v) is (1/8) * #{T : T(v) = u}.  N is capped
    at DENSE_MAX_MODULUS.
    """
    _require_odd_modulus(N)
    if N > DENSE_MAX_MODULUS:
        raise ValueError(f"N={N} exceeds the dense cap {DENSE_MAX_MODULUS}")
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
    of the diagonal blocks actually eigensolved, each listed once, and
    ``residual`` is the Frobenius norm of ``M V - V diag(w)`` over all of
    M (0 from channel.channel_report, which solves eigenvalues only).  On
    the walk's five-block path the (+, -) block, the last, stands for the
    (-, +) one too, so its eigenvalues and its residual count twice and
    ``spectrum`` still has N^2 entries.
    """

    modulus: int
    lam: float
    spectrum: tuple[float, ...]
    blocks: tuple[int, ...] = ()
    residual: float = 0.0


def _commutes_with_reflection(M4: np.ndarray, c: int) -> bool:
    """Whether M4[r(p), :, r(s), :] == M4[p, :, s, :] exactly, r(x) = (c - x) mod N.

    r reverses the runs 0..c and c+1..N-1, so the first half of each run of
    p against the other half reversed, over every s, compares each pair of
    entries once.  Only strided views are compared; no N^4 array is copied.
    """
    N = M4.shape[0]
    runs = ((0, c + 1), (c + 1, N))
    for lo, hi in runs:
        half = (hi - lo + 1) // 2
        for s in (slice(*run) for run in runs):
            mirrored = M4[hi - half:hi, :, s][::-1, :, ::-1]
            if not np.array_equal(M4[lo:lo + half, :, s], mirrored):
                return False
    return True


def _axis_parities(N: int):
    """Even and odd bases of the lattice reflections a and b, as (axes_a, axes_b).

    Each axis is (even, odd), and each basis is (rows, partners, weights,
    sign).  Folding a matrix's columns as ``A[:, rows] + sign * A[:, partners]``
    and keeping rows ``rows`` gives, scaled by ``outer(weights, weights)``, its
    block in the basis e_fixed, (e_x + sign e_r(x)) / sqrt(2) when the matrix
    commutes with r.  The fixed point's column is folded onto itself, hence
    its weight sqrt(1/2).  a's reflection on Z_N is x -> (h - x) mod N; b's,
    y -> (-h - y) mod N, has the same bases moved by -h, so sigma swaps the
    two axes index for index.
    """
    h = (N + 1) // 2
    x = np.arange(N)
    r = (h - x) % N
    fixed = h * h % N
    pairs = np.flatnonzero(x < r)
    even = (np.r_[fixed, pairs], np.r_[fixed, r[pairs]],
            np.r_[math.sqrt(0.5), np.ones(pairs.size)], 1.0)
    axes_a = even, (pairs, r[pairs], np.ones(pairs.size), -1.0)
    axes_b = tuple(((rows - h) % N, (part - h) % N, w, sign) for rows, part, w, sign in axes_a)
    return axes_a, axes_b


def _parity_folds(M4: np.ndarray, axes_a, axes_b) -> list[list[np.ndarray]]:
    """M4's four parity blocks [[(+, +), (+, -)], [(-, +), (-, -)]], unweighted.

    ``axes_a`` and ``axes_b`` are the (even, odd) bases of the first and the
    second lattice axis.  Each block is indexed [i, j, k, l] for the row
    (a[i], b[j]) and the column (a[k], b[l]).  An axis's odd rows are its
    even rows less the fixed point, the first.  So the blocks are filled one
    even a-row p at a time: M4[p, even b-rows], an (m, N, N) slice, is folded
    along a's columns and then along b's, and gives row i of the even-a
    blocks and row i - 1 of the odd-a ones.  Beside the blocks, only that
    slice and its folds are held.  On a walk matrix (entries multiples of
    1/8) the folds are exact sums.
    """
    m = axes_a[0][0].size
    folds = [[np.empty((m - skip_a, m - skip_b) * 2) for skip_b in range(2)]
             for skip_a in range(2)]
    for i, p in enumerate(axes_a[0][0]):
        rows = M4[p, axes_b[0][0]]
        for skip_a, (rows_a, part_a, _, sign_a) in enumerate(axes_a):
            if i < skip_a:  # the fixed point has no odd row
                continue
            fold_a = rows[:, rows_a] + sign_a * rows[:, part_a]
            for skip_b, (rows_b, part_b, _, sign_b) in enumerate(axes_b):
                folds[skip_a][skip_b][i - skip_a] = (fold_a[skip_b:, :, rows_b]
                                                     + sign_b * fold_a[skip_b:, :, part_b])
    return folds


def _swap_parts(F: np.ndarray, w: np.ndarray) -> Iterator[np.ndarray]:
    """The symmetric and antisymmetric blocks of a parity fold F invariant
    under (i, j) -> (j, i), with axis weights w.

    Their bases are e_ii, (e_ij + e_ji) / sqrt(2) and (e_ij - e_ji) / sqrt(2),
    i < j, so each entry is F[ij, kl] +- F[ij, lk], and a diagonal pair ii
    carries an extra weight sqrt(1/2).
    """
    for k, sign in ((0, 1.0), (1, -1.0)):
        i, j = np.triu_indices(w.size, k)
        v = w[i] * w[j] * np.where(i == j, math.sqrt(0.5), 1.0)
        rows = F[i, j]
        yield (rows[:, i, j] + sign * rows[:, j, i]) * np.outer(v, v)


def _eigen_blocks(M: np.ndarray, N: int) -> list[tuple[np.ndarray, int]]:
    """Diagonal blocks of M, each with the number of times its spectrum
    counts, that together make up M's spectrum.

    When M is N^2 x N^2 and commutes exactly with the lattice symmetries
    a, b and sigma of the module docstring, these are the five blocks of
    that group, the (+, -) parity block counted twice; else M itself, once.
    Commutation makes the off-diagonal blocks exactly zero, and the basis
    change is orthogonal, so residuals add in quadrature.  a and b are
    checked on M, sigma on the parity folds, all with exact equality.
    """
    h = (N + 1) // 2
    if N < 3 or N % 2 == 0 or M.shape != (N * N, N * N):
        return [(M, 1)]
    M4 = M.reshape(N, N, N, N)
    if not (_commutes_with_reflection(M4, h)
            and _commutes_with_reflection(M4.transpose(1, 0, 3, 2), N - h)):
        return [(M, 1)]
    axes_a, axes_b = _axis_parities(N)
    even, odd = axes_a
    (pp, pm), (mp, mm) = _parity_folds(M4, axes_a, axes_b)
    # sigma takes the parity fold (ea, eb)[i, j, k, l] to (eb, ea)[j, i, l, k].
    if not (np.array_equal(mp, pm.transpose(1, 0, 3, 2))
            and all(np.array_equal(F, F.transpose(1, 0, 3, 2)) for F in (pp, mm))):
        return [(M, 1)]
    v = np.outer(even[2], odd[2]).ravel()
    blocks = [(B, 1) for F, base in ((pp, even), (mm, odd)) for B in _swap_parts(F, base[2])]
    blocks.append((pm.reshape(v.size, v.size) * np.outer(v, v), 2))
    return [(B, count) for B, count in blocks if B.size]


def spectral_report(M: np.ndarray, *, modulus: int = 0) -> SpectralReport:
    """Eigenvalues of a symmetric stochastic matrix and its mixing rate.

    ``lam`` is read off the eigensolve; a degenerate eigenvalue 1 (a
    disconnected walk) survives as ``lam == 1``.  When ``modulus`` is N and
    M is N^2 x N^2 with the walk's symmetry, the five blocks of the group
    <a, b, sigma> are solved in place of M, about 1/40 of the eigensolve
    work at N = 41.  Symmetry is checked on the blocks solved: M is
    orthogonally similar to their direct sum, so it is symmetric exactly
    when they all are.

    Parameters
    ----------
    M : real symmetric matrix, row-stochastic within 1e-10.

    Raises
    ------
    ValueError
        If M is not symmetric row-stochastic, or its top eigenvalue is not 1.
    RuntimeError
        If the eigendecomposition residual exceeds tolerance.
    """
    tol = 1e-10
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square and symmetric")
    blocks = _eigen_blocks(M, modulus)
    if not all(np.allclose(B, B.T, atol=tol) for B, _ in blocks):
        raise ValueError("matrix must be square and symmetric")
    if not np.allclose(M.sum(axis=1), 1.0, atol=tol):
        raise ValueError("matrix must be row-stochastic")
    eigvals, squared_residual = [], 0.0
    for B, count in blocks:
        w, V = np.linalg.eigh(B)
        squared_residual += count * np.linalg.norm(B @ V - V * w, ord="fro") ** 2
        eigvals += [w] * count
    residual = math.sqrt(squared_residual)
    if residual > 1e-8 * max(1.0, np.linalg.norm(M, ord="fro")):
        raise RuntimeError(f"eigendecomposition residual too large: {residual:.3e}")
    # Ascending first, so ties in |x| keep the order one eigh of M gives.
    spectrum = tuple(sorted(np.sort(np.concatenate(eigvals)).tolist(), key=abs, reverse=True))
    if abs(spectrum[0] - 1.0) > tol:
        raise ValueError(f"largest eigenvalue {spectrum[0]!r} is not 1 within {tol}")
    lam = abs(spectrum[1])
    return SpectralReport(modulus=modulus, lam=lam, spectrum=spectrum,
                          blocks=tuple(B.shape[0] for B, _ in blocks), residual=residual)


# ---------------------------------------------------------------------------
# Serialization: CSV (p,q,value) and ASCII PGM heatmaps.

#: Values per grid_to_csv chunk, so its byte matrices stay near 1 MB.
_CSV_CHUNK = 1 << 14


@dataclass(frozen=True)
class _DecimalTables:
    """Lookup tables for _decimal_digits and _write_values.

    ``scale`` and ``suffix`` are indexed by e + 324 for the decimal exponent
    e of a finite double, -324 <= e <= 309 (309 only after a carry).
    ``scale`` holds 10**(16 - e) in ``float_type`` (long double unless a
    test asks for another), each entry parsed from a string.  ``suffix`` is
    the NUL-padded "e+XX" that %g writes when e is outside its fixed range
    -4 <= e < 17.
    ``quads[n]`` is the four ASCII digits of n as one uint32, and
    ``quads[10**4 + n]`` the same with trailing zeros as NUL bytes.

    Each entry of the scale is within ``worst`` of its power, relatively,
    as measured on the table, and the product s = |v| * scale < 10**17
    rounds once more, so s is within 10**17 * (worst + 2**-(nmant + 1)) of
    exact; ``tie`` is 1.5 times that.  That is 0.016 for the x87 long
    double, and above 1/2 (so every value takes the exact path) wherever
    the scale is no better than double: double itself, where 10**309 and
    up are inf, or a string parser that goes through double.
    """

    scale: np.ndarray
    suffix: np.ndarray
    quads: np.ndarray
    tie: float


@lru_cache(maxsize=2)
def _decimal_tables(float_type=np.longdouble) -> _DecimalTables:
    exps = range(-324, 310)
    with warnings.catch_warnings():
        # Where long double is double, the largest powers overflow to inf;
        # the tie width then covers every value, so none uses the scale.
        warnings.simplefilter("ignore", RuntimeWarning)
        scale = np.array([float_type(f"1e{16 - e}") for e in exps], dtype=float_type)

    def error(x, k):  # |x - 10**k| / 10**k, from exact integers
        if not np.isfinite(x):
            return math.inf
        n, d = x.as_integer_ratio()
        n, d = (n, d * 10**k) if k >= 0 else (n * 10**-k, d)
        return abs(n - d) / d

    worst = max(error(x, 16 - e) for x, e in zip(scale, exps))
    suffix = ["" if -4 <= e < 17 else f"e{e:+03d}" for e in exps]
    n = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10
    quads = (n + ord("0")).astype(np.uint8)
    trailing = np.logical_and.accumulate(n[:, ::-1] == 0, axis=1)[:, ::-1]
    quads = np.concatenate([quads, np.where(trailing, 0, quads)])
    return _DecimalTables(
        scale=scale, suffix=np.array(suffix, dtype="S5").view(np.uint8).reshape(-1, 5),
        quads=quads.view("<u4").ravel(),
        tie=1.5e17 * (worst + 2.0 ** -(np.finfo(float_type).nmant + 1)))


#: Width of a value's text in grid_to_csv's rows, as long as '%.17g' of any
#: double gets: sign, then up to 23 characters.
_VALUE_WIDTH = 24


def _decimal_digits(a: np.ndarray, t: _DecimalTables):
    """(e, digits, exact) for positive finite doubles a: the decimal exponents,
    10**e <= a < 10**(e + 1), and the 17 significant digits as (len(a), 17)
    ASCII bytes, trailing zeros NUL, where the mask exact is false.

    s = a * 10**(16 - e) is taken in the tables' float type and rounded to
    an integer D (a carry to 10**17 bumps e).  Where s is within the
    tables' ``tie`` of a half-integer that rounding may be wrong, and
    ``exact`` marks the value: about 3 % of a walk frame on x87, and every
    value where long double is no wider than double.  Where s is within
    ``tie`` of 10**16 or 10**17, e may be one off, but not the result:
    either way D rounds to the power, and the carry moves e to the same
    place.
    """
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a.astype(t.scale.dtype) * t.scale[e + 324]
    off = (s < 1e16).astype(np.intp) - (s >= 1e17)
    if off.any():  # log10 rounded across a power of ten
        e -= off
        s = a.astype(t.scale.dtype) * t.scale[e + 324]
    D = np.rint(s)
    with np.errstate(invalid="ignore"):  # s is inf where long double is double
        # s - D is exact, and tie's slack covers its rounding to a double.
        exact = ~(np.abs((s - D).astype(float)) < 0.5 - t.tie)
        D = D.astype(np.int64)
    D[exact] = 10**16  # placeholder digits
    carry = D == 10**17
    D[carry] = 10**16
    e += carry
    # The lead digit, then four quads, those past D's last nonzero digit
    # from the NUL-padded half of the table.
    top = D // 10**8
    lead = top // 10**8
    G = np.empty((D.size, 4), dtype=np.intp)
    G[:, 0] = top - lead * 10**8
    G[:, 2] = D - top * 10**8
    G[:, 1::2] = G[:, 0::2] % 10**4
    G[:, 0::2] //= 10**4
    trailing = np.ones(D.size, dtype=bool)
    for k in (3, 2, 1, 0):
        G[:, k] += trailing * 10**4
        trailing &= G[:, k] == 10**4
    digits = np.empty((D.size, 17), dtype=np.uint8)
    digits[:, 0] = lead + ord("0")
    digits[:, 1:] = np.take(t.quads, G).view(np.uint8)
    return e, digits, exact


def _write_values(x: np.ndarray, out: np.ndarray) -> None:
    """Write '%.17g' % v for each double v of x into the zero row of out
    (len(x), _VALUE_WIDTH), as ASCII with NUL bytes anywhere between.

    Zeros are written as "0" or "-0" and not formatted.  The others get the
    digits of _decimal_digits laid out as %g lays them out, or, where those
    may be wrong, '%.17g' of their absolute value.
    """
    t = _decimal_tables()
    out[np.signbit(x), 0] = ord("-")
    out[x == 0, 1] = ord("0")
    rows = np.flatnonzero(x)
    a = np.abs(x[rows])
    e, digits, exact = _decimal_digits(a, t)
    dense = rows.size == x.size
    block = out[:, 1:] if dense else np.zeros((rows.size, _VALUE_WIDTH - 1), dtype=np.uint8)
    # One column layout for each e in %g's fixed range, and one (17) for the
    # others; a walk frame has one or two.
    layout = np.where((e >= -4) & (e < 17), e, 17)
    places = np.flatnonzero(np.bincount(layout + 4)) - 4
    for place in places:
        sel = slice(None) if places.size == 1 else layout == place
        d, text = digits[sel], block[sel]
        if place < 0:  # "0.", -e - 1 zeros, the digits
            text[:, :1 - place] = ord("0")
            text[:, 1] = ord(".")
            text[:, 1 - place:18 - place] = d
        else:  # the point after digit p, if a digit follows
            p = place % 17
            text[:, :p + 1] = np.maximum(d[:, :p + 1], ord("0"))  # integer digits stay
            text[:, p + 2:18] = d[:, p + 1:]
            if p < 16:
                text[:, p + 1] = (d[:, p + 1] != 0) * ord(".")
            if place == 17:
                text[:, 18:] = np.take(t.suffix, e[sel] + 324, axis=0)
        if places.size > 1:
            block[sel] = text
    if exact.any():
        slow = ["%.17g" % v for v in a[exact].tolist()]
        block[exact] = np.array(slow, dtype=f"S{_VALUE_WIDTH - 1}").view(np.uint8).reshape(
            -1, _VALUE_WIDTH - 1)
    if not dense:
        out[rows, 1:] = block


def _csv_chunks(f: GridDist) -> Iterator[str]:
    """grid_to_csv's text in pieces: the header, then each chunk of rows.

    Rows are built as NUL-padded byte matrices, heads "p," and "q," (row k
    of heads is "k,"), then the value and a newline, a few thousand rows at
    a time so the matrices stay near 1 MB; each chunk drops its NUL bytes.
    """
    N = f.modulus
    heads = np.array([f"{k}," for k in range(N)], dtype="S").view(np.uint8).reshape(N, -1)
    w = heads.shape[1]
    width = 2 * w + _VALUE_WIDTH + 1
    cols = max(1, _CSV_CHUNK // N)
    yield "p,q,value\n"
    for q0 in range(0, N, cols):
        x = f.values[:, q0:q0 + cols].T.ravel()
        rows = np.zeros((x.size // N, N, width), dtype=np.uint8)
        rows[:, :, :w] = heads
        rows[:, :, w:2 * w] = heads[q0:q0 + cols, None]
        rows[:, :, -1] = ord("\n")
        rows = rows.reshape(-1, width)
        _write_values(x, rows[:, 2 * w:-1])
        yield rows[rows != 0].tobytes().decode("ascii")


def grid_to_csv(f: GridDist) -> str:
    """CSV dump with header p,q,value; q is the slow (outer) index.

    Each value is written as '%.17g' would write it (see _write_values).
    A writer that streams to a file takes the chunks of _csv_chunks instead.
    """
    return "".join(_csv_chunks(f))


#: Characters per piece that grid_from_csv splits into lines at a time.
_CSV_PIECE = 1 << 16


def _csv_pieces(text: str) -> Iterator[str]:
    """text.strip() in pieces of about _CSV_PIECE characters, each cut after
    a line feed, without copying text whole.

    The stripped span is found _CSV_PIECE characters at a time from each end.
    """
    size = _CSV_PIECE
    start, end = 0, len(text)
    while start < end and text[start:start + size].isspace():
        start += size
    head = text[start:start + size]
    start += len(head) - len(head.lstrip())
    while end > start and text[max(start, end - size):end].isspace():
        end -= size
    tail = text[max(start, end - size):end]
    end -= len(tail) - len(tail.rstrip())
    while start < end:
        cut = text.find("\n", start + size - 1, end)
        cut = end if cut < 0 else cut + 1
        yield text[start:cut]
        start = cut


def _csv_lines(text: str) -> Iterator[str]:
    """The nonempty lines of text.strip(), split one piece at a time.

    A line feed always ends a line, so the pieces' lines are the text's lines.
    Past each piece the iterators are all C, with no Python frame per line.
    """
    return filter(None, itertools.chain.from_iterable(map(str.splitlines, _csv_pieces(text))))


def _square_side(rows: int) -> int:
    N = math.isqrt(rows)
    if N * N != rows or not rows:
        raise ValueError(f"expected a square table, got {rows} rows")
    return N


#: Rows that grid_from_csv parses with one np.loadtxt call.
_CSV_ROWS = 1 << 12
_loadtxt = partial(np.loadtxt, delimiter=",", comments=None, ndmin=1,
                   dtype=[("p", np.int64), ("q", np.int64), ("value", np.float64)])


def _diagnose(text: str) -> NoReturn:
    """Raise grid_from_csv's error for a table it could not place: not square,
    whatever its rows hold; else loadtxt's message from one parse of every row
    (counted from the top), or the first row outside 0..N-1 or on a cell seen."""
    N = _square_side(sum(1 for _ in _csv_lines(text)) - 1)
    cells = _loadtxt(itertools.islice(_csv_lines(text), 1, None))
    p, q = cells["p"], cells["q"]
    outside = (p < 0) | (p >= N) | (q < 0) | (q >= N)
    key = np.where(outside, 0, p * N + q)  # an outside row is bad anyway
    _, first, cell = np.unique(key, return_index=True, return_inverse=True)
    i = np.flatnonzero(outside | (first[cell] != np.arange(key.size)))[0]
    row = next(itertools.islice(_csv_lines(text), i + 1, None))
    if outside[i]:
        raise ValueError(f"row {row!r}: index outside 0..{N - 1}")
    raise ValueError(f"row {row!r}: duplicate cell ({p[i]}, {q[i]})")


def grid_from_csv(text: str) -> GridDist:
    """Inverse of grid_to_csv: each cell once, rows in any order, CRLF and blank lines ok.

    np.loadtxt parses _csv_lines _CSV_ROWS at a time into int32 indices and
    values.  Once the row count fixes N, each batch is range-tested, written
    into the grid and marked in a bitmap: N*N rows in range that mark every
    cell hold each cell once.  _diagnose names the fault of any other table.
    """
    lines = _csv_lines(text)
    header = next(lines, "")
    if header.strip() != "p,q,value":
        raise ValueError(f"expected header 'p,q,value', got {header!r}")
    batches = []
    with warnings.catch_warnings():
        # numpy < 2 reads an index such as 1.0 with only a DeprecationWarning.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            for first in lines:
                cells = _loadtxt(itertools.chain([first], itertools.islice(lines, _CSV_ROWS - 1)))
                # Clipped, an index past int32 stays outside for any N; a cast wraps 2**32 to 0.
                batches.append([np.clip(cells[k], -1, 2**31 - 1).astype(np.int32) for k in "pq"]
                               + [cells["value"].copy()])
        except ValueError:
            _diagnose(text)
    N = _square_side(sum(p.size for p, _, _ in batches))
    vals, seen = np.empty((N, N)), np.zeros(N * N, dtype=bool)
    for p, q, value in batches:
        if min(p.min(), q.min()) < 0 or max(p.max(), q.max()) >= N:
            _diagnose(text)
        key = p.astype(np.intp) * N + q
        seen[key] = True
        vals.reshape(-1)[key] = value
    if not seen.all():
        _diagnose(text)
    _require_odd_modulus(N)
    return GridDist._adopt(vals)


#: Gray level k as the bytes of "k", NUL-padded, and a space: (256, 4).
_PGM_LEVELS = np.array([f"{k}".encode().ljust(3, b"\0") + b" " for k in range(256)],
                       dtype="S4").view(np.uint8).reshape(256, 4)


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
        pix = np.clip(np.rint((vals - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)
    else:
        pix = np.zeros_like(vals, dtype=np.uint8)
    text = _PGM_LEVELS[pix]
    text[:, -1, -1] = ord("\n")  # each row's last space; then the NUL bytes go
    return f"P2\n{f.modulus} {f.modulus}\n255\n" + text[text != 0].tobytes().decode("ascii")
