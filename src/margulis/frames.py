"""Serialization of grid frames: CSV (p,q,value) and ASCII PGM heatmaps."""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NoReturn

import numpy as np

from .walk import GridDist, _adopt, _require_odd_modulus

__all__ = ["grid_to_csv", "grid_from_csv", "grid_to_pgm"]

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
    return _adopt(GridDist, vals, modulus=N)


#: Gray level k as the bytes of "k", NUL-padded, and a space: (256, 4).
_PGM_LEVELS = np.array([f"{k}".encode().ljust(3, b"\0") + b" " for k in range(256)],
                       dtype="S4").view(np.uint8).reshape(256, 4)


def grid_to_pgm(f: GridDist, lo: float | None = None, hi: float | None = None) -> str:
    """ASCII (P2) grayscale heatmap; min maps to 0 and max to 255.

    ``lo``/``hi`` override the per-frame range for cross-frame comparability;
    a bound that is not finite raises ValueError naming it.
    Row r of the image is lattice coordinate p=r, column is q.
    """
    vals = f.values
    lo = float(vals.min()) if lo is None else float(lo)
    hi = float(vals.max()) if hi is None else float(hi)
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    if hi > lo:
        # Clip before the cast: a value far above hi overflows int.
        pix = np.clip(np.rint((vals - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)
    else:
        pix = np.zeros_like(vals, dtype=np.uint8)
    text = _PGM_LEVELS[pix]
    text[:, -1, -1] = ord("\n")  # each row's last space; then the NUL bytes go
    return f"P2\n{f.modulus} {f.modulus}\n255\n" + text[text != 0].tobytes().decode("ascii")
