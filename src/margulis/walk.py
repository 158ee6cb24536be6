"""Classical Margulis expander walk on the N x N integer lattice.

The walk is driven by eight affine maps on Z_N^2: four generators (two
unit-determinant linear parts, each with and without a unit translation)
together with their inverses.  One step replaces a distribution f by the
average of its pullbacks f o T^{-1} over the eight maps, which for this
inverse-closed set equals the pushforward average.  The module exposes the
maps, the step and the dense stochastic matrix of the step; its spectrum is
solved in margulis.spectrum, and frames are written by margulis.frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "AffineMap",
    "GridDist",
    "WALK_MAPS",
    "GABBER_GALIL_BOUND",
    "DENSE_MAX_MODULUS",
    "generator_map",
    "apply_affine",
    "walk_step",
    "walk_matrix",
]

#: Upper bound sqrt(2)*5/8 on the subdominant eigenvalue, independent of N.
GABBER_GALIL_BOUND = math.sqrt(2.0) * 5.0 / 8.0

#: Largest N for which walk_matrix and the channel's superoperator and Weyl-basis
#: matrix build their dense N^2 x N^2 matrices.
DENSE_MAX_MODULUS = 49

#: The eight walk maps, label -> (linear part, shift), both over Z^2: reduced
#: mod N by generator_map they drive the lattice walk, over the reals the
#: moment maps.  Every linear part is a unit shear (see _unit_shear).
WALK_MAPS = {
    "T1": (((1, 2), (0, 1)), (0, 0)), "T2": (((1, 2), (0, 1)), (1, 0)),
    "T3": (((1, 0), (2, 1)), (0, 0)), "T4": (((1, 0), (2, 1)), (0, -1)),
    "T1inv": (((1, -2), (0, 1)), (0, 0)), "T2inv": (((1, -2), (0, 1)), (-1, 0)),
    "T3inv": (((1, 0), (-2, 1)), (0, 0)), "T4inv": (((1, 0), (-2, 1)), (0, 1)),
}


def _unit_shear(linear) -> tuple[int, int]:
    """(axis, m) of a unit shear, which adds m times the other coordinate to one.

    ((1, m), (0, 1)) is axis 0 and ((1, 0), (m, 1)) axis 1; the identity is
    (0, 0).  Any other matrix raises ValueError.
    """
    (a, b), (c, d) = linear
    if (a, d) != (1, 1) or b * c:
        raise ValueError(f"{linear} is not a unit shear")
    return (1, c) if c else (0, b)


def _require_integer(name: str, *values, lo: int | None = None) -> None:
    """Refuse, naming ``name``, any value that is not an int or numpy integer
    or, when ``lo`` is given, is below it."""
    for x in values:
        if not isinstance(x, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {x!r}")
        if lo is not None and x < lo:
            raise ValueError(f"{name} must be >= {lo}, got {x}")


def _require_odd_modulus(N: int, name: str = "modulus") -> None:
    _require_integer(name, N)
    if N < 3 or N % 2 == 0:
        raise ValueError(f"{name} must be an odd integer >= 3, got {N}")


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
        _require_integer("linear", a, b, c, d)
        _require_integer("shift", *self.shift)
        sh = (self.shift[0] % N, self.shift[1] % N)
        if (a * d - b * c) % N != 1:
            raise ValueError(f"linear part {self.linear} has det != 1 mod {N}")
        object.__setattr__(self, "linear", ((a % N, b % N), (c % N, d % N)))
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


def generator_map(N: int) -> dict[str, AffineMap]:
    """The eight walk maps, label -> map, reduced mod N (odd, >= 3)."""
    return {label: AffineMap(linear, shift, N) for label, (linear, shift) in WALK_MAPS.items()}


def apply_affine(T: AffineMap, v: tuple[int, int]) -> tuple[int, int]:
    """Image of lattice point v under T, all arithmetic mod T.modulus."""
    if np.shape(v) != (2,):
        raise ValueError(f"point must have two coordinates, got {v!r}")
    _require_integer("point", *v)
    N = T.modulus
    p, q = int(v[0]) % N, int(v[1]) % N
    (a, b), (c, d) = T.linear
    s, t = T.shift
    return ((a * p + b * q + s) % N, (c * p + d * q + t) % N)


def _frozen_table(vals: np.ndarray) -> np.ndarray:
    """vals made read-only, and refused unless finite: the one rule for every stored table."""
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    vals.setflags(write=False)
    return vals


def _store_table(obj, side: int) -> None:
    """Set on the frozen obj a float copy of obj.values, refused unless (side, side) and finite."""
    vals = np.array(obj.values, dtype=float)
    if vals.shape != (side, side):
        raise ValueError(f"values must have shape ({side}, {side}), got {vals.shape}")
    object.__setattr__(obj, "values", _frozen_table(vals))


def _adopt(cls, vals: np.ndarray, **fields):
    """An instance of cls over vals, a fresh float table no caller holds, with the other
    fields as given and already checked; vals is checked finite and frozen, not copied."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields, values=_frozen_table(vals))  # frozen: no setattr
    return obj


@dataclass(frozen=True, eq=False)
class GridDist:
    """Real-valued function on Z_N^2, stored as values[p, q]."""

    modulus: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_odd_modulus(self.modulus)
        _store_table(self, self.modulus)

    @staticmethod
    def delta(N: int, p: int = 0, q: int = 0) -> "GridDist":
        _require_odd_modulus(N)
        _require_integer("label", p, q)
        vals = np.zeros((N, N))
        vals[p % N, q % N] = 1.0
        return _adopt(GridDist, vals, modulus=N)


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

    ``maps`` is a table like WALK_MAPS, label -> (linear, shift) over Z^2.
    Each linear part must add m times the other coordinate x to one axis y,
    and each shift t must lie along y: then f o T^{-1} reads
    f(x, y - m x + c), c = -t, f's line x rotated to start c - m x.
    ``reads`` holds each map's (m, c).
    """
    axes: dict[int, list[tuple[int, int]]] = {}
    for label, (linear, shift) in maps.items():
        message = f"{label}: {linear} + {shift} is not a unit shear"
        try:
            axis, m = _unit_shear(linear)
        except ValueError:
            raise ValueError(message) from None
        if not m or shift[1 - axis]:
            raise ValueError(message)
        axes.setdefault(axis, []).append((m, -shift[axis]))
    return tuple((axis, tuple(reads)) for axis, reads in sorted(axes.items()))


_SHEARS = _shear_table(WALK_MAPS)

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
    return _adopt(GridDist, out, modulus=len(out))  # a Python int for any integer f.modulus


def _require_dense(N: int) -> None:
    """Refuse N past DENSE_MAX_MODULUS, for any dense N^2 x N^2 lattice matrix."""
    if N > DENSE_MAX_MODULUS:
        raise ValueError(f"N={N} exceeds the dense cap {DENSE_MAX_MODULUS}")


def _table_matrix(N: int, reads, dtype=float) -> np.ndarray:
    """N^2 x N^2 matrix whose row u = p*N + q gains weights[p, q] in column columns[p, q]
    for each (columns, weights) of ``reads``; N is capped at DENSE_MAX_MODULUS."""
    _require_dense(N)
    p, q = np.arange(N)[:, None], np.arange(N)
    M = np.zeros((N, N, N * N), dtype=dtype)  # M[p, q] is row u = p*N + q
    for columns, weights in reads:  # a bijection's read repeats no (row, column) pair
        M[p, q, columns] += weights
    return M.reshape(N * N, N * N)


def walk_matrix(N: int) -> np.ndarray:
    """Dense N^2 x N^2 matrix of walk_step in the point-mass basis.

    Basis index of the point (p, q) is p*N + q.  The matrix is symmetric and
    doubly stochastic: entry (u, v) is (1/8) * #{T : T(v) = u}.  N is capped
    at DENSE_MAX_MODULUS.
    """
    _require_odd_modulus(N)
    return _table_matrix(N, ((_pullback_index(T), 0.125) for T in generator_map(N).values()))


# The dense solver and the frame codecs live in spectrum and frames.  Their
# public names stay importable here while perfbench/ looks spectral_report
# and the grid_* codecs up on this module (until its next change).
from .spectrum import SpectralReport, spectral_report  # noqa: E402,F401
from .frames import grid_from_csv, grid_to_csv, grid_to_pgm  # noqa: E402,F401
