import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import margulis.frames
import margulis.walk
from margulis.frames import _csv_lines, _decimal_tables, grid_from_csv, grid_to_csv, grid_to_pgm
from margulis.spectrum import (_axis_parities, _commutes_with_reflection, _eigen_blocks,
                               _parity_folds, _require_hermitian, spectral_report)
from margulis.walk import (GABBER_GALIL_BOUND, WALK_MAPS, AffineMap, GridDist, _pullback_index,
                           _shear_table, _unit_shear, apply_affine, generator_map, walk_matrix,
                           walk_step)

ODD_N = [3, 5, 7, 9, 15]
REFERENCE_LAMBDAS = Path(__file__).parents[1] / "perfbench" / "reference_lambdas.json"


def random_prob(N, rng):
    vals = rng.random((N, N))
    return GridDist(N, vals / vals.sum())


# The eight-gather step, kept as the reference for walk_step.
def _oracle_walk_step(f, maps=None):
    N = f.modulus
    maps = generator_map(N).values() if maps is None else [AffineMap(lin, sh, N)
                                                           for lin, sh in maps.values()]
    flat = f.values.reshape(-1)
    return sum(flat[_pullback_index(T)] for T in maps) / 8.0


# Eight maps shearing by 3 with shift gap 2, a table unlike WALK_MAPS in every
# number the kernel derives: m and c.
_OTHER_SHEARS = {
    "A": (((1, 3), (0, 1)), (1, 0)), "B": (((1, 3), (0, 1)), (3, 0)),
    "Ai": (((1, -3), (0, 1)), (-1, 0)), "Bi": (((1, -3), (0, 1)), (-3, 0)),
    "C": (((1, 0), (3, 1)), (0, 0)), "D": (((1, 0), (3, 1)), (0, -2)),
    "Ci": (((1, 0), (-3, 1)), (0, 0)), "Di": (((1, 0), (-3, 1)), (0, 2)),
}

# The walk maps with the shifts of T2 and T2inv dropped: on the first axis the
# two maps of each m coincide.
_UNSHIFTED = {**WALK_MAPS, "T2": (((1, 2), (0, 1)), (0, 0)),
              "T2inv": (((1, -2), (0, 1)), (0, 0))}

# Tables whose shears do not pair up with one shift gap on each axis.
_UNPAIRED = {
    "gap 2 beside gap 1": {**WALK_MAPS, "T2": (((1, 2), (0, 1)), (2, 0))},
    "one map of its m": {**WALK_MAPS, "T2": (((1, 3), (0, 1)), (1, 0))},
    "three maps of one m": {**WALK_MAPS, "T3": (((1, 0), (-2, 1)), (0, 0))},
}


# The gather-form fold the row-by-row fold replaced, kept as its reference:
# one (m, m, N, N) gather of the even rows, folded through (m, m, m, N) temporaries.
def _oracle_parity_folds(M4, axes_a, axes_b):
    sub = M4[np.ix_(axes_a[0][0], axes_b[0][0])]
    folds = []
    for skip_a, (rows_a, part_a, _, sign_a) in enumerate(axes_a):
        fold_a = sub[skip_a:, :, rows_a] + sign_a * sub[skip_a:, :, part_a]
        folds.append([fold_a[:, skip_b:, :, rows_b] + sign_b * fold_a[:, skip_b:, :, part_b]
                      for skip_b, (rows_b, part_b, _, sign_b) in enumerate(axes_b)])
    return folds


# The per-cell codecs the array codecs replaced, kept as their reference.
def _oracle_grid_to_csv(f):
    lines = ["p,q,value"]
    for q in range(f.modulus):
        for p in range(f.modulus):
            lines.append(f"{p},{q},{format(float(f.values[p, q]), '.17g')}")
    return "\n".join(lines) + "\n"


def _oracle_grid_from_csv(text):
    rows = [ln for ln in text.strip().splitlines() if ln]
    if rows[0].strip() != "p,q,value":
        raise ValueError(f"expected header 'p,q,value', got {rows[0]!r}")
    triples = [ln.split(",") for ln in rows[1:]]
    N = int(math.isqrt(len(triples)))
    if N * N != len(triples):
        raise ValueError(f"expected a square table, got {len(triples)} rows")
    # Every field is parsed before any cell is checked.
    cells = [(int(p), int(q), float(v)) for p, q, v in triples]
    vals = np.zeros((N, N))
    seen = bytearray(N * N)
    for line, (p, q, v) in zip(rows[1:], cells):
        if not (0 <= p < N and 0 <= q < N):
            raise ValueError(f"row {line!r}: index outside 0..{N - 1}")
        if seen[p * N + q]:
            raise ValueError(f"row {line!r}: duplicate cell ({p}, {q})")
        seen[p * N + q] = 1
        vals[p, q] = v
    return GridDist(N, vals)


def _oracle_grid_to_pgm(f, lo=None, hi=None):
    vals = f.values
    lo = float(vals.min()) if lo is None else float(lo)
    hi = float(vals.max()) if hi is None else float(hi)
    if hi > lo:
        pix = np.clip(np.rint((vals - lo) / (hi - lo) * 255.0).astype(int), 0, 255)
    else:
        pix = np.zeros_like(vals, dtype=int)
    lines = ["P2", f"{f.modulus} {f.modulus}", "255"]
    lines += [" ".join(str(v) for v in row) for row in pix]
    return "\n".join(lines) + "\n"


def _assert_same_text(got, want):
    # A failed == on megabyte strings would have pytest diff them for minutes.
    if got != want:
        first = next((i for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()))
                      if a != b), None)
        pytest.fail(f"texts differ first at line {first} (lengths {len(got)} vs {len(want)})")


def _table(N, kind, rng):
    return GridDist(N, {
        "random": lambda: rng.random((N, N)),
        "negative": lambda: rng.standard_normal((N, N)),
        "tiny": lambda: rng.random((N, N)) * 1e-300,
        "uniform": lambda: np.full((N, N), 1.0 / N**2),
    }[kind]())


def _csv_edge_values(name):
    """A named set of doubles, each with its negative, where '%.17g' turns:
    its notation, its rounding, or the long double path's decision."""
    rng = np.random.default_rng(17)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, 0.5, 1.0, 10.0, 9999999999999998.0,
                         99999999999999984.0, 123456789012345680.0])
    if name == "signed zeros and extremes":
        info = np.finfo(float)
        values = np.array([0.0, 5e-324, 1e-323, info.smallest_normal, info.max, 1.0])
    elif name == "powers of ten and neighbours":
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    elif name == "integers above 2**53":
        values = np.concatenate([2.0**53 + 2.0 * np.arange(1, 200),
                                 rng.integers(2**53, 2**63, size=2000).astype(float)])
    elif name == "notation switches":
        values = np.concatenate([switches, np.nextafter(switches, 0),
                                 np.nextafter(switches, np.inf)])
    elif name == "rounding ties":
        # M * 2**-k (M odd, below 2**53) is exactly M * 5**k * 10**-k, a tie
        # at 17 digits when M * 5**k has 18: an integer above 2**53 is even,
        # so it cannot end in the 5 of a tie.
        ties = []
        for k in range(2, 26):
            lo, hi = -(-10**17 // 5**k) // 2, min(10**18 // 5**k, 2**53) // 2
            ties += [(2 * int(m) + 1) * 2.0**-k for m in rng.integers(lo, hi, size=20)]
        values = np.array(ties)
    else:  # random bit patterns
        values = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(float)
        values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


# Rows that make a 3x3 table bad, each with a word of the reader's message.
BAD_CELLS = [
    ("-1,0", "outside"),   # a negative index must not wrap to N-1
    ("3,0", "outside"),
    ("1,0", "duplicate"),  # would overwrite (1,0) and leave (2,0) unset
    ("4294967296,0", "outside"),  # must not wrap to 0 in the reader's int32 columns
    ("0,-4294967296", "outside"),
]
MALFORMED_FIELDS = [
    "2,0",          # two fields
    "2,0,0.1,0.2",  # four fields
    "1.0,0,0.1",    # an index must be an integer
    "2,0,nan",
    "2,0,inf",
    "2,0,0.1#",     # '#' is not a comment
    "#2,0,0.1",
    " ",
]
EMPTY_TABLES = ["", "\n \n", "p,q,value\n", "p,q,value\n\n\n"]


def _two_random_rows(seed):
    """A 5x5 table in random row order whose two random rows get random
    indices in -1..N: out of range, repeated or (rarely) a harmless swap."""
    rng = np.random.default_rng(seed)
    N = 5
    lines = grid_to_csv(_table(N, "random", rng)).splitlines()
    body = [lines[1 + i] for i in rng.permutation(N * N)]
    for i in rng.choice(N * N, size=2, replace=False):
        p, q = rng.integers(-1, N + 1, size=2)
        body[i] = f"{p},{q}," + body[i].split(",")[2]
    return "\n".join(["p,q,value"] + body) + "\n"


def _reader_corpus():
    """The texts of the reader tests: good tables in any row order with CRLF,
    blank and space-only lines, empty tables, tables with one bad row, one
    with a bad row and a row too few, and tables with two faults."""
    rng = np.random.default_rng(6)
    lines = grid_to_csv(_table(7, "negative", rng)).splitlines()
    body = [lines[1 + i] for i in rng.permutation(49)]
    yield "\r\n\r\n" + "\r\n\r\n".join([lines[0]] + body) + "\r\n\n"
    yield " \t\n \n  " + "\n".join([lines[0]] + body) + " \t\n \n\t"
    yield from EMPTY_TABLES
    uniform = grid_to_csv(GridDist(3, np.full((3, 3), 1 / 3**2))).splitlines()
    for row in MALFORMED_FIELDS + [cell + uniform[3][3:] for cell, _ in BAD_CELLS]:
        yield "\n".join(uniform[:3] + [row] + uniform[4:]) + "\n"
    yield "\n".join(uniform[:3] + ["2,0"] + uniform[4:-1])  # 8 rows: not square comes first
    # A malformed row after an outside or a repeated one: loadtxt's message
    # comes first.  A repeat is named before a NaN value or an even modulus.
    for cell in ["3,0", "1,0"]:
        yield "\n".join(uniform[:3] + [cell + uniform[3][3:]] + uniform[4:-1] + ["1.5,0,0.5"])
    yield "\n".join(uniform[:1] + ["0,0,nan"] + uniform[2:3] + ["1,0" + uniform[3][3:]] + uniform[4:])
    yield "p,q,value\n0,0,0.25\n1,0,0.25\n0,0,0.25\n1,1,0.25\n"
    for seed in range(20):
        yield _two_random_rows(seed)


CSV_EDGE_SETS = ["signed zeros and extremes", "powers of ten and neighbours",
                 "integers above 2**53", "notation switches", "rounding ties",
                 "random bit patterns"]


def _lattice_symmetries(N):
    """The group <a, b, sigma> as point permutations g, g[v] the flat index of g(v).

    a(p, q) = (h - p, q), b(p, q) = (p, -h - q), sigma(p, q) = (q + h, p - h),
    h = 1/2 mod N; returns the generators and the closure under composition.
    """
    h = (N + 1) // 2
    p, q = np.divmod(np.arange(N * N), N)
    gens = [(P % N) * N + Q % N for P, Q in ((h - p, q), (p, -h - q), (q + h, p - h))]
    group = [np.arange(N * N)]
    for g in group:  # grows while it is walked: a breadth-first closure
        for k in gens:
            if not any(np.array_equal(g[k], e) for e in group):
                group.append(g[k])
    return gens, group


class TestGenerators:
    def test_count_and_labels(self):
        gens = generator_map(7)
        assert len(gens) == 8
        assert list(gens) == ["T1", "T2", "T3", "T4", "T1inv", "T2inv", "T3inv", "T4inv"]

    def test_t2_moves_origin_right(self):
        T2 = generator_map(7)["T2"]
        assert apply_affine(T2, (0, 0)) == (1, 0)

    def test_t4_moves_origin_down(self):
        T4 = generator_map(7)["T4"]
        assert apply_affine(T4, (0, 0)) == (0, 6)

    @pytest.mark.parametrize("N", ODD_N)
    def test_inverse_pairs_compose_to_identity(self, N):
        gm = generator_map(N)
        for name in ("T1", "T2", "T3", "T4"):
            T, Ti = gm[name], gm[name + "inv"]
            for v in [(0, 0), (1, 2), (N - 1, N - 2)]:
                assert apply_affine(Ti, apply_affine(T, v)) == tuple(x % N for x in v)

    @pytest.mark.parametrize("N", [2, 4, 1, 0, -3])
    def test_bad_modulus_rejected(self, N):
        with pytest.raises(ValueError, match="modulus"):
            generator_map(N)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="det"):
            AffineMap(((2, 0), (0, 1)), (0, 0), 5)

    @pytest.mark.parametrize("linear,shift,message", [
        (((1, 2), (0, 1)), (0.5, 0), "shift must be an integer, got 0.5"),
        (((1, 2.0), (0, 1)), (0, 0), "linear must be an integer, got 2.0"),
    ])
    def test_non_integer_entry_rejected(self, linear, shift, message):
        with pytest.raises(ValueError, match=message):
            AffineMap(linear, shift, 5)

    def test_numpy_integer_entries_accepted(self):
        one, two = np.int64(1), np.int64(2)
        T = AffineMap(((one, two), (0, one)), (one, np.int32(0)), np.int64(5))
        assert T == generator_map(5)["T2"]

    @pytest.mark.parametrize("N", ODD_N)
    def test_each_map_is_a_bijection(self, N):
        points = [(p, q) for p in range(N) for q in range(N)]
        for T in generator_map(N).values():
            assert len({apply_affine(T, v) for v in points}) == N * N

    def test_generator_data_is_exact_over_z(self):
        for ((a, b), (c, d)), _ in WALK_MAPS.values():
            assert a * d - b * c == 1


class TestApplyAffine:
    def test_t1_linear_action(self):
        T1 = generator_map(7)["T1"]
        assert apply_affine(T1, (0, 1)) == (2, 1)

    def test_t3_linear_action(self):
        T3 = generator_map(7)["T3"]
        assert apply_affine(T3, (1, 0)) == (1, 2)

    def test_identity_map(self):
        I = AffineMap(((1, 0), (0, 1)), (0, 0), 7)
        for v in [(0, 0), (3, 4), (6, 6)]:
            assert apply_affine(I, v) == v

    def test_non_integer_point_refused(self):
        with pytest.raises(ValueError, match="point must be an integer, got 1.5"):
            apply_affine(generator_map(5)["T1"], (1.5, 0))

    def test_numpy_integer_point_accepted(self):
        assert apply_affine(generator_map(5)["T1"], (np.int64(1), np.int64(2))) == (0, 2)

    @pytest.mark.parametrize("point", [(1, 2, 3), (1,)])
    def test_point_without_two_coordinates_refused(self, point):
        with pytest.raises(ValueError, match="point must have two coordinates"):
            apply_affine(generator_map(5)["T1"], point)

    def test_numpy_array_point_accepted(self):
        assert apply_affine(generator_map(5)["T1"], np.array([1, 2])) == (0, 2)


class TestGridDist:
    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"values must have shape \(5, 5\), got \(4, 4\)"):
            GridDist(5, np.zeros((4, 4)))

    def test_delta_refuses_a_non_integer_label(self):
        with pytest.raises(ValueError, match="label must be an integer, got 1.5"):
            GridDist.delta(5, 1.5, 0)

    def test_delta_refuses_a_non_integer_size(self):
        with pytest.raises(ValueError, match="modulus must be an integer, got 5.0"):
            GridDist.delta(5.0)

    def test_delta_takes_numpy_integers_and_reduces_them(self):
        f = GridDist.delta(5, np.int64(6), -1)
        assert f.values[1, 4] == 1.0 and f.values.sum() == 1.0


class TestWalkStep:
    def test_one_step_from_origin_n7(self):
        # Enumerating the eight maps on (0,0): four fix it, the others move it
        # one site along an axis.
        g = walk_step(GridDist.delta(7))
        expected = {(0, 0): 0.5, (1, 0): 0.125, (6, 0): 0.125,
                    (0, 1): 0.125, (0, 6): 0.125}
        for p in range(7):
            for q in range(7):
                assert g.values[p, q] == pytest.approx(expected.get((p, q), 0.0), abs=0)

    def test_uniform_is_fixed(self):
        u = GridDist(9, np.full((9, 9), 1 / 9**2))
        assert np.allclose(walk_step(u).values, u.values, atol=1e-15)

    @pytest.mark.parametrize("N", range(3, 50, 2))
    def test_matches_eight_gather_oracle(self, N):
        rng = np.random.default_rng(N)
        for kind in ("negative", "random"):
            f = _table(N, kind, rng)
            assert np.allclose(walk_step(f).values, _oracle_walk_step(f), rtol=0, atol=1e-15)

    def test_frames_at_n401_match_oracle(self):
        N = 401
        u = GridDist(N, np.full((N, N), 1 / N**2))
        assert np.allclose(walk_step(u).values, u.values, rtol=0, atol=1e-15)
        f = oracle = GridDist.delta(N, 17, 300)
        for _ in range(6):
            f, oracle = walk_step(f), GridDist(N, _oracle_walk_step(oracle))
            assert np.allclose(f.values, oracle.values, rtol=0, atol=1e-15)
            assert f.values.sum() == pytest.approx(1.0, abs=1e-12)
            assert f.values.min() >= 0.0

    def test_matches_oracle_at_n1001(self):
        f = _table(1001, "negative", np.random.default_rng(1001))
        assert np.allclose(walk_step(f).values, _oracle_walk_step(f), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("N", [7, 9, 15])
    def test_strips_with_a_ragged_last_strip(self, N, monkeypatch):
        monkeypatch.setattr(margulis.walk, "_STRIP_CELLS", 4 * N)  # strips of 4 lines
        assert N > 4 and N % 4
        rng = np.random.default_rng(N)
        for kind in ("negative", "random"):
            f = _table(N, kind, rng)
            assert np.allclose(walk_step(f).values, _oracle_walk_step(f), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("maps", [_OTHER_SHEARS, _UNSHIFTED, *_UNPAIRED.values()],
                             ids=["by 3, gap 2", "gap 0", *_UNPAIRED])
    @pytest.mark.parametrize("N", [7, 9, 15])
    def test_kernel_reads_its_numbers_off_the_map_table(self, N, maps, monkeypatch):
        monkeypatch.setattr(margulis.walk, "_SHEARS", _shear_table(maps))
        f = _table(N, "negative", np.random.default_rng(N))
        want = _oracle_walk_step(f, maps)
        assert np.allclose(walk_step(f).values, want, rtol=0, atol=1e-15)

    def test_keeps_no_state_and_little_scratch(self):
        # Traced from the first call at this N: only the result stays, and
        # the step's scratch is a few strips, not N^2 arrays or index tables.
        N = 1001
        f = _table(N, "random", np.random.default_rng(7))
        tracemalloc.start()
        try:
            g = walk_step(f)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.values.nbytes == 8 * N * N
        assert current < g.values.nbytes + 2**16
        assert peak < 1.5 * g.values.nbytes

    def test_unit_shear_reads_axis_and_m_off_the_matrix(self):
        assert _unit_shear(((1, 2), (0, 1))) == (0, 2)
        assert _unit_shear(((1, 0), (-2, 1))) == (1, -2)
        assert _unit_shear(((1, 0), (0, 1))) == (0, 0)
        for linear in (((0, 1), (-1, 0)), ((2, 0), (0, 5)), ((1, 2), (2, 5))):
            with pytest.raises(ValueError, match="is not a unit shear"):
                _unit_shear(linear)

    @pytest.mark.parametrize("change,message", [
        ({"T1": (((0, 1), (-1, 0)), (0, 0))}, "T1: .* is not a unit shear"),
        ({"T1": (((1, 0), (0, 1)), (0, 0))}, "T1: .* is not a unit shear"),
        ({"T1": (((1, 2), (2, 5)), (0, 0))}, "T1: .* is not a unit shear"),
        ({"T1": (((2, 0), (0, 5)), (0, 0))}, "T1: .* is not a unit shear"),
        ({"T2": (((1, 2), (0, 1)), (1, 1))}, "T2: .* is not a unit shear"),
    ], ids=["rotation", "identity", "two-axis", "dilation", "shift across"])
    def test_map_table_that_is_not_unit_shears_raises(self, change, message):
        with pytest.raises(ValueError, match=message):
            _shear_table({**WALK_MAPS, **change})

    def test_overflowing_window_sum_is_rejected(self):
        # The sum of a line's windows overflows to inf on a finite table; the
        # step hands its array to GridDist uncopied, but still checked.
        f = GridDist(5, np.full((5, 5), 1e308))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            walk_step(f)

    def test_step_is_read_only_and_leaves_its_input(self):
        f = random_prob(7, np.random.default_rng(3))
        before = f.values.copy()
        g = walk_step(f)
        assert not g.values.flags.writeable
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0
        assert np.array_equal(f.values, before)

    def test_zero_maps_to_zero(self):
        z = GridDist(5, np.zeros((5, 5)))
        assert np.all(walk_step(z).values == 0.0)

    @pytest.mark.parametrize("N", [5, 9])
    def test_mass_and_nonnegativity_preserved(self, N):
        rng = np.random.default_rng(1)
        f = random_prob(N, rng)
        g = walk_step(f)
        assert g.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(g.values >= 0)

    @pytest.mark.parametrize("N", [5, 7])
    def test_pullback_equals_pushforward(self, N):
        # The generator set is inverse-closed, so averaging f(T^{-1} v)
        # equals averaging mass pushed to T(v).
        rng = np.random.default_rng(2)
        f = random_prob(N, rng)
        push = np.zeros((N, N))
        for T in generator_map(N).values():
            for p in range(N):
                for q in range(N):
                    tp, tq = apply_affine(T, (p, q))
                    push[tp, tq] += f.values[p, q] / 8.0
        assert np.allclose(walk_step(f).values, push, atol=1e-14)


class TestWalkMatrix:
    @pytest.mark.parametrize("N", ODD_N)
    def test_doubly_stochastic_and_symmetric(self, N):
        M = walk_matrix(N)
        assert np.allclose(M.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(M, M.T, atol=1e-12)

    def test_origin_diagonal_entry(self):
        assert walk_matrix(7)[0, 0] == pytest.approx(0.5, abs=0)

    @pytest.mark.parametrize("N", [5, 7])
    def test_matches_walk_step_on_random_dists(self, N):
        rng = np.random.default_rng(3)
        M = walk_matrix(N)
        for _ in range(20):
            f = random_prob(N, rng)
            assert np.allclose(M @ f.values.ravel(), walk_step(f).values.ravel(), atol=1e-12)

    def test_cap_guard(self):
        # One dense cap, shared with channel.superoperator; nothing overrides it.
        with pytest.raises(ValueError, match="N=51 exceeds the dense cap 49"):
            walk_matrix(51)


class TestRequireHermitian:
    @staticmethod
    def hermitian(scale=1.0):
        g = np.random.default_rng(31).standard_normal((6, 6, 2)) @ (1, 1j)
        return scale * (g + g.conj().T) / 2

    @staticmethod
    def strips_of(rows, monkeypatch):
        # A cell budget of 6 * rows cuts the 6 x 6 matrix into strips of that
        # many rows; None keeps the default budget, one strip of all six.
        if rows:
            monkeypatch.setattr("margulis.spectrum._HERMITIAN_CELLS", 6 * rows)

    @pytest.mark.parametrize("rows", [None, 1, 2, 4])
    @pytest.mark.parametrize("entry", [(1, 2), (2, 1), (3, 4), (5, 0)])
    def test_one_asymmetric_entry_refused_in_any_strip(self, rows, entry, monkeypatch):
        # With 2 rows a strip, (1, 2) and (2, 1) lie either side of a boundary;
        # with 4, (5, 0) lies in the short last strip.
        self.strips_of(rows, monkeypatch)
        M = self.hermitian()
        _require_hermitian(M, "not hermitian")
        M[entry] += 1e-3
        with pytest.raises(ValueError, match="^not hermitian$"):
            _require_hermitian(M, "not hermitian")

    @pytest.mark.parametrize("rows", [None, 4])
    @pytest.mark.parametrize("entry", [(0, 0), (5, 1)])
    def test_nan_entry_refused(self, rows, entry, monkeypatch):
        self.strips_of(rows, monkeypatch)
        M = self.hermitian()
        M[entry] = np.nan
        with pytest.raises(ValueError, match="not hermitian"):
            _require_hermitian(M, "not hermitian")

    @pytest.mark.parametrize("rows", [None, 4])
    def test_offset_within_rtol_but_past_atol_accepted(self, rows, monkeypatch):
        # Only np.allclose's rtol passes this: the max|A - B| <= 1e-10 test does not.
        self.strips_of(rows, monkeypatch)
        M = self.hermitian(1e6)
        M[5, 1] += 1e-6
        assert np.max(np.abs(M - M.conj().T)) > 1e-10
        _require_hermitian(M, "not hermitian")
        M[5, 1] += 1e3
        with pytest.raises(ValueError, match="not hermitian"):
            _require_hermitian(M, "not hermitian")


class TestSpectralReport:
    @pytest.mark.parametrize("N", ODD_N + [11, 13])
    def test_lambda_below_bound(self, N):
        rep = spectral_report(walk_matrix(N), modulus=N)
        assert rep.lam <= 0.8839
        assert 0.0 <= rep.lam <= 1.0
        assert rep.spectrum[0] == pytest.approx(1.0, abs=1e-10)

    def test_independent_oracle_n5(self):
        # Brute-force oracle: build the matrix by direct pair counting and
        # take eigenvalues of the uniform-deflated matrix.
        N = 5
        gens = generator_map(N).values()
        M = np.zeros((N * N, N * N))
        for p in range(N):
            for q in range(N):
                for T in gens:
                    tp, tq = apply_affine(T, (p, q))
                    M[tp * N + tq, p * N + q] += 1.0 / 8.0
        oracle = np.max(np.abs(np.linalg.eigvalsh(M - 1.0 / N**2)))
        rep = spectral_report(walk_matrix(N), modulus=N)
        assert rep.lam == pytest.approx(oracle, abs=1e-12)
        assert rep.lam <= 0.8839

    def test_identity_matrix_degenerate_input(self):
        rep = spectral_report(np.eye(25), modulus=5)
        assert rep.lam == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonsymmetric(self):
        M = np.eye(4)
        M[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            spectral_report(M)

    def test_rejects_nonstochastic(self):
        with pytest.raises(ValueError, match="stochastic"):
            spectral_report(0.5 * np.eye(4))

    def test_rejects_a_top_eigenvalue_other_than_one(self):
        # Symmetric and row-stochastic, but with eigenvalues 1 and 3.
        with pytest.raises(ValueError, match="largest eigenvalue .* is not 1 within 1e-10"):
            spectral_report(np.array([[2.0, -1.0], [-1.0, 2.0]]))

    @pytest.mark.parametrize("M", [np.ones((1, 1)), np.zeros((0, 0)), np.float64(1.0),
                                   np.ones((2, 3)), np.ones((2, 2, 2))],
                             ids=["one-state", "empty", "scalar", "not-square", "3d"])
    def test_rejects_fewer_than_two_states_or_not_square(self, M):
        with pytest.raises(ValueError, match="square matrix of at least two states"):
            spectral_report(M)

    @pytest.mark.parametrize("N", range(3, 50, 2))
    def test_reflections_permute_the_walk_maps(self, N):
        # a(p, q) = (h - p, q) and b(p, q) = (p, -h - q), h = 1/2 mod N, are
        # v -> D v + o with D = diag(+-1); conjugation D L D negates the
        # off-diagonal of L, and the shift becomes D (L o + s) + o.
        h = (N + 1) // 2
        maps = {(T.linear, T.shift) for T in generator_map(N).values()}
        for D, o in (((-1, 1), (h, 0)), ((1, -1), (0, -h))):
            conjugated = set()
            for T in generator_map(N).values():
                (a, b), (c, d) = T.linear
                s = (a * o[0] + b * o[1] + T.shift[0], c * o[0] + d * o[1] + T.shift[1])
                conjugated.add((((a % N, -b % N), (-c % N, d % N)),
                                ((D[0] * s[0] + o[0]) % N, (D[1] * s[1] + o[1]) % N)))
            assert conjugated == maps

    @pytest.mark.parametrize("N", range(3, 50, 2))
    def test_swap_permutes_the_walk_maps(self, N):
        # sigma(p, q) = (q + h, p - h) is v -> P v + o with P the coordinate swap
        # and o = (h, -h), and its own inverse; conjugation P L P reverses
        # both the rows and the columns of L, and the shift becomes
        # P (L o + s) + o.
        h = (N + 1) // 2
        maps = generator_map(N)
        label = {(T.linear, T.shift): name for name, T in maps.items()}
        image = {}
        for name, T in maps.items():
            (a, b), (c, d) = T.linear
            s = (a * h - b * h + T.shift[0], c * h - d * h + T.shift[1])
            image[name] = label[((d, c), (b, a)), ((s[1] + h) % N, (s[0] - h) % N)]
        swapped = {"T1": "T4", "T4": "T1", "T2": "T3", "T3": "T2"}
        swapped.update({k + "inv": v + "inv" for k, v in swapped.items()})
        assert image == swapped
        (a, b, sigma), group = _lattice_symmetries(N)
        assert np.array_equal(sigma[a[sigma]], b)
        assert len(group) == 8

    @pytest.mark.parametrize("N", [3, 5, 7, 15, 21])
    def test_walk_spectrum_solved_as_four_parity_blocks(self, N):
        # sigma pairs the (+, -) parity block with (-, +) and splits (+, +) and
        # (-, -) by the swap of their two axes: five blocks, the (+, -) one
        # counted twice.  N = 3 has an empty antisymmetric (-, -) part.
        m = (N + 1) // 2
        M = walk_matrix(N)
        rep = spectral_report(M, modulus=N)
        sizes = (m * (m + 1) // 2, m * (m - 1) // 2, (m - 1) * m // 2, (m - 1) * (m - 2) // 2,
                 m * (m - 1))
        assert rep.blocks == tuple(k for k in sizes if k)
        assert len(rep.spectrum) == N * N
        assert np.max(np.abs(np.sort(rep.spectrum) - np.linalg.eigvalsh(M))) <= 1e-12
        assert 0.0 <= rep.residual <= 1e-12

    def test_walk_spectrum_blocks_at_n41(self):
        reference = json.loads(REFERENCE_LAMBDAS.read_text())["lambdas"]
        rep = spectral_report(walk_matrix(41), modulus=41)
        assert rep.blocks == (231, 210, 210, 190, 420)
        assert rep.lam == pytest.approx(reference["41"], abs=1e-10)

    @pytest.mark.parametrize("N", [3, 5, 7, 9, 15, 41])
    def test_parity_folds_match_gather_oracle(self, N):
        # Row by row, each block entry is the same sums in the same order as
        # the gather form's, so the blocks are equal bit for bit: on the walk
        # matrix, and on a random matrix where the sums round.
        axes_a, axes_b = _axis_parities(N)
        rng = np.random.default_rng(N)
        matrices = [walk_matrix(N)] + ([rng.standard_normal((N * N, N * N))] if N <= 9 else [])
        for M in matrices:
            M4 = M.reshape(N, N, N, N)
            got = _parity_folds(M4, axes_a, axes_b)
            want = _oracle_parity_folds(M4, axes_a, axes_b)
            for got_row, want_row in zip(got, want):
                for F, G in zip(got_row, want_row):
                    assert F.shape == G.shape and np.array_equal(F, G)

    def test_spectral_report_transient_under_half_of_m(self):
        # The parity blocks are filled one lattice row at a time, so no
        # quarter of M is gathered: the peak beside M stays under half of it
        # (0.89 of it with the gather form).
        N = 41
        M = walk_matrix(N)
        tracemalloc.start()
        try:
            spectral_report(M, modulus=N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.45 * M.nbytes

    @pytest.mark.parametrize("N", [3, 5, 7, 9])
    def test_reflection_check_matches_the_permutation(self, N):
        # Changing one entry breaks commutation with a reflection unless the
        # reflection fixes both its row and its column; each check must agree
        # with conjugating by the permutation itself.
        (a, b, _), _ = _lattice_symmetries(N)
        h = (N + 1) // 2
        rng = np.random.default_rng(N)
        fixed_a, fixed_b = h * h % N * N, -h * h % N  # (h^2, 0) and (0, -h^2)
        cells = [(0, 0), (fixed_a, 0), (fixed_a, fixed_a), (fixed_b, fixed_b)]
        cells += [tuple(rng.integers(N * N, size=2)) for _ in range(30)]
        for u, v in cells:
            M = walk_matrix(N)
            M[u, v] += 0.5
            M4 = M.reshape(N, N, N, N)
            for g, c, view in ((a, h, M4), (b, N - h, M4.transpose(1, 0, 3, 2))):
                expected = np.array_equal(M[np.ix_(g, g)], M)
                assert _commutes_with_reflection(view, c) == expected

    def test_walk_without_the_swap_is_one_block(self):
        # Averaged over <a, b> alone, a symmetric doubly stochastic (P + P^T)/2
        # keeps both reflections but almost surely not sigma; mixed into the
        # walk (entries multiples of 1/16) the parity folds are exact, and the
        # sigma check must send the matrix to the single-block path.
        N = 7
        (a, b, sigma), _ = _lattice_symmetries(N)
        P = np.eye(N * N)[np.random.default_rng(1).permutation(N * N)]
        mix = sum((P + P.T)[np.ix_(g, g)] for g in (np.arange(N * N), a, b, a[b])) / 8
        M = (walk_matrix(N) + mix) / 2
        assert not np.array_equal(M[np.ix_(sigma, sigma)], M)
        rep = spectral_report(M, modulus=N)
        assert rep.blocks == (N * N,)
        assert np.max(np.abs(np.sort(rep.spectrum) - np.linalg.eigvalsh(M))) <= 1e-12

    def test_symmetry_checked_on_the_blocks(self):
        # The group average of P - P^T, for a permutation matrix P, is
        # antisymmetric with zero row sums and commutes with <a, b, sigma>.  Its
        # entries are multiples of 1/8, so walk_matrix(7) plus 2^-4 times it
        # (multiples of 1/128) is row-stochastic and commutes exactly, and
        # only the symmetry check on the solved blocks can reject it.
        N = 7
        _, group = _lattice_symmetries(N)
        P = np.eye(N * N)[np.random.default_rng(0).permutation(N * N)]
        skew = sum((P - P.T)[np.ix_(g, g)] for g in group) / 8
        M = walk_matrix(N) + skew / 16
        assert np.abs(skew).max() > 0
        assert all(np.array_equal(M[np.ix_(g, g)], M) for g in group)
        assert len(_eigen_blocks(M, N)) == 5
        with pytest.raises(ValueError, match="symmetric"):
            spectral_report(M, modulus=N)

    @pytest.mark.parametrize("N", [21, 27, 33])
    def test_lambda_matches_reference(self, N):
        reference = json.loads(REFERENCE_LAMBDAS.read_text())["lambdas"]
        rep = spectral_report(walk_matrix(N), modulus=N)
        assert rep.lam == pytest.approx(reference[str(N)], abs=1e-10)

    @pytest.mark.parametrize("N", [5, 7, 9])
    def test_relabelled_walk_is_one_block(self, N):
        # A random relabelling of the lattice keeps the spectrum but almost
        # surely breaks the reflection symmetry.
        M = walk_matrix(N)
        perm = np.random.default_rng(N).permutation(N * N)
        rep = spectral_report(M[np.ix_(perm, perm)], modulus=N)
        assert rep.blocks == (N * N,)
        assert rep.lam == pytest.approx(spectral_report(M, modulus=N).lam, abs=1e-12)

    @pytest.mark.parametrize("modulus,blocks", [(5, 5), (0, 1)], ids=["blocked", "single"])
    def test_residual_check_catches_a_bad_eigensolve(self, modulus, blocks, monkeypatch):
        M = walk_matrix(5)
        assert len(spectral_report(M, modulus=modulus).blocks) == blocks
        eigh = np.linalg.eigh

        def shifted(A):
            w, V = eigh(A)
            return w + 1e-6, V

        monkeypatch.setattr("margulis.spectrum.np.linalg.eigh", shifted)
        with pytest.raises(RuntimeError, match="residual"):
            spectral_report(M, modulus=modulus)

    @pytest.mark.parametrize("N", [5, 7])
    def test_iterates_converge_at_rate_lambda(self, N):
        rng = np.random.default_rng(4)
        rep = spectral_report(walk_matrix(N), modulus=N)
        u = GridDist(N, np.full((N, N), 1 / N**2)).values
        for _ in range(5):
            f = random_prob(N, rng)
            d0 = np.linalg.norm(f.values - u)
            cur = f
            for n in range(1, 15):
                cur = walk_step(cur)
                assert np.linalg.norm(cur.values - u) <= rep.lam**n * d0 * (1 + 1e-12) + 1e-15


class TestSerialization:
    def test_csv_round_trip_and_order(self):
        rng = np.random.default_rng(5)
        f = GridDist(3, rng.random((3, 3)))
        text = grid_to_csv(f)
        lines = text.strip().splitlines()
        assert lines[0] == "p,q,value"
        # q is the outer (slow) index
        assert [ln.split(",")[:2] for ln in lines[1:4]] == [["0", "0"], ["1", "0"], ["2", "0"]]
        g = grid_from_csv(text)
        assert np.allclose(f.values, g.values, atol=0)

    @pytest.mark.parametrize("bad_cell, reason", BAD_CELLS)
    def test_csv_rejects_malformed_rows(self, bad_cell, reason):
        lines = grid_to_csv(GridDist(3, np.full((3, 3), 1 / 3**2))).splitlines()
        assert lines[3].startswith("2,0,")
        bad_row = bad_cell + lines[3][3:]
        lines[3] = bad_row
        with pytest.raises(ValueError, match=rf"row '{re.escape(bad_row)}'.*{reason}"):
            grid_from_csv("\n".join(lines) + "\n")

    @pytest.mark.parametrize("kind", ["random", "negative", "tiny", "uniform"])
    @pytest.mark.parametrize("N", [3, 25, 101])
    def test_codecs_match_per_cell_oracle(self, N, kind):
        f = _table(N, kind, np.random.default_rng(N))
        text = grid_to_csv(f)
        _assert_same_text(text, _oracle_grid_to_csv(f))
        parsed = grid_from_csv(text).values.tobytes()
        assert parsed == _oracle_grid_from_csv(text).values.tobytes() == f.values.tobytes()
        for lo, hi in [(None, None), (-0.5, 0.5)]:
            _assert_same_text(grid_to_pgm(f, lo, hi), _oracle_grid_to_pgm(f, lo, hi))

    @pytest.mark.parametrize("exact_only", [False, True], ids=["fast path", "exact path only"])
    @pytest.mark.parametrize("name", CSV_EDGE_SETS)
    def test_csv_matches_per_cell_oracle_at_format_edges(self, name, exact_only, monkeypatch):
        if exact_only:
            # As where long double is double: the tie width exceeds 1/2, and
            # the scale (inf past 1e308) would misround most values it served.
            tables = _decimal_tables(np.float64)
            assert tables.tie > 0.5
            monkeypatch.setattr("margulis.frames._decimal_tables", lambda: tables)
        values = _csv_edge_values(name)
        N = math.isqrt(values.size - 1) + 1
        N += 1 - N % 2
        f = GridDist(N, np.resize(values, (N, N)))
        text = grid_to_csv(f)
        _assert_same_text(text, _oracle_grid_to_csv(f))
        assert grid_from_csv(text).values.tobytes() == f.values.tobytes()

    def test_csv_writer_peak_at_n401(self):
        # Rows are made in chunks of about 16k values; the text and its
        # chunks are the peak (the %-template writer read 9.9 MiB).
        f = _table(401, "negative", np.random.default_rng(9))
        tracemalloc.start()
        try:
            grid_to_csv(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    @pytest.mark.parametrize("kind", ["negative", "tiny"])
    def test_writers_match_per_cell_oracle_at_n401(self, kind):
        f = _table(401, kind, np.random.default_rng(401))
        _assert_same_text(grid_to_csv(f), _oracle_grid_to_csv(f))
        _assert_same_text(grid_to_pgm(f), _oracle_grid_to_pgm(f))

    def test_csv_template_cache_across_moduli(self):
        # Moduli revisited in any order: each call builds its own row heads.
        rng = np.random.default_rng(7)
        for N in [3, 5, 3, 7, 9, 11, 13, 3, 5, 13, 3]:
            f = _table(N, "negative", rng)
            _assert_same_text(grid_to_csv(f), _oracle_grid_to_csv(f))

    @pytest.mark.parametrize("seed", range(20))
    def test_reader_names_the_same_first_bad_row_as_oracle(self, seed):
        # The first bad row in file order is named.
        text = _two_random_rows(seed)
        try:
            expected = _oracle_grid_from_csv(text).values
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                grid_from_csv(text)
        else:
            assert grid_from_csv(text).values.tobytes() == expected.tobytes()

    def test_reader_accepts_crlf_blank_lines_and_any_row_order(self):
        rng = np.random.default_rng(6)
        f = _table(7, "negative", rng)
        lines = grid_to_csv(f).splitlines()
        body = [lines[1 + i] for i in rng.permutation(49)]
        text = "\r\n\r\n" + "\r\n\r\n".join([lines[0]] + body) + "\r\n\n"
        assert grid_from_csv(text).values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize("text", EMPTY_TABLES,
                             ids=["empty", "blank", "header only", "header and blank lines"])
    def test_reader_rejects_empty_tables_without_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                grid_from_csv(text)

    @pytest.mark.parametrize("row", MALFORMED_FIELDS)
    def test_reader_rejects_malformed_fields(self, row):
        lines = grid_to_csv(GridDist(3, np.full((3, 3), 1 / 3**2))).splitlines()
        lines[3] = row
        with pytest.raises(ValueError):
            grid_from_csv("\n".join(lines) + "\n")

    @staticmethod
    def _assert_corpus_read_alike(monkeypatch, setting, size):
        # Values and messages must not change with `setting` patched to
        # `size`, and must be the oracle's, bar the messages of loadtxt's
        # own parse.
        def read(text):
            try:
                return grid_from_csv(text).values.tobytes()
            except ValueError as err:
                return str(err)

        corpus = list(_reader_corpus())
        whole = [read(text) for text in corpus]
        monkeypatch.setattr(margulis.frames, setting, size)
        assert [read(text) for text in corpus] == whole
        for text, got in zip(corpus, whole):
            try:
                want = _oracle_grid_from_csv(text).values.tobytes()
            except (ValueError, IndexError) as err:  # IndexError: no header line
                want = str(err)
            if isinstance(want, bytes) or want.startswith(("row ", "expected ", "values ")):
                assert got == want
            else:  # a field the oracle could not parse: no cell is named
                assert isinstance(got, str) and not got.startswith("row ")

    @pytest.mark.parametrize("piece", [1, 2, 3, 7])
    def test_reader_corpus_in_small_pieces(self, piece, monkeypatch):
        # Cut into pieces of a few characters, every line, CRLF pair and
        # blank run of the corpus meets a cut, and the stripped ends span
        # several pieces.
        self._assert_corpus_read_alike(monkeypatch, "_CSV_PIECE", piece)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_reader_corpus_in_small_batches(self, rows, monkeypatch):
        # Every table of the corpus spans several batches, and its bad rows
        # fall first, last and inside them.
        self._assert_corpus_read_alike(monkeypatch, "_CSV_ROWS", rows)

    @pytest.mark.parametrize("row, bad, named", [
        (5000, "1.5,0,0.5", "at row 4999, column 1."), (9001, "3,0", "at row 9001;"),
        (4097, "3,0,0.5,0.5", "at row 4097;"), (10201, "3,0,x", "at row 10200, column 3.")])
    def test_loadtxt_message_numbers_the_row_among_all_rows(self, row, bad, named):
        # Past the first batch, the message is that of one parse of every
        # row: its row number counts from the top, not from the batch.
        lines = grid_to_csv(_table(101, "random", np.random.default_rng(3))).splitlines()
        lines[row] = bad
        assert row > margulis.frames._CSV_ROWS
        with pytest.raises(ValueError) as whole:
            np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=1,
                       dtype=[("p", np.int64), ("q", np.int64), ("value", np.float64)])
        assert named in str(whole.value)
        with pytest.raises(ValueError, match=f"^{re.escape(str(whole.value))}$"):
            grid_from_csv("\n".join(lines) + "\n")

    @pytest.mark.parametrize("first, second", [
        ((4096, "-1,0"), (4097, "dup")), ((4097, "-1,0"), (4096, "dup")),
        ((4096, "dup"), (4097, "101,0")), ((4097, "dup"), (4096, "0,101")),
        ((4100, "dup"), (4000, "dup")), ((8193, "0,-1"), (100, "dup")),
        ((4097, "dup"), (8200, "-1,0"))])
    def test_reader_names_the_first_bad_row_across_a_batch_boundary(self, first, second):
        # Line 4096 (the header is line 0) ends the first batch and line
        # 4097 starts the second; a "dup" line repeats the cell (0, 0).
        lines = grid_to_csv(_table(101, "random", np.random.default_rng(3))).splitlines()
        assert margulis.frames._CSV_ROWS == 4096 and lines[1].startswith("0,0,")
        for row, cell in (first, second):
            lines[row] = f"{'0,0' if cell == 'dup' else cell},0.5"
        text = "\n".join(lines) + "\n"
        with pytest.raises(ValueError) as oracle:
            _oracle_grid_from_csv(text)
        assert str(oracle.value).startswith(f"row '{lines[min(first[0], second[0])]}'")
        with pytest.raises(ValueError, match=f"^{re.escape(str(oracle.value))}$"):
            grid_from_csv(text)

    def test_valid_table_is_read_without_diagnosis(self, monkeypatch):
        # Rows in random order across three batches: each batch is only
        # parsed, range-tested and scattered.
        rng = np.random.default_rng(4)
        f = _table(101, "random", rng)
        lines = grid_to_csv(f).splitlines()
        text = "\n".join([lines[0]] + [lines[1 + i] for i in rng.permutation(101 * 101)])

        def diagnose(text):
            raise AssertionError("a valid table was diagnosed")

        monkeypatch.setattr(margulis.frames, "_diagnose", diagnose)
        assert grid_from_csv(text).values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize("piece", [1, 2, 5, 1 << 16])
    def test_csv_lines_are_the_stripped_texts_lines(self, piece, monkeypatch):
        # Every line boundary str.splitlines knows, and runs of whitespace
        # at both ends longer than a piece.
        rng = np.random.default_rng(12)
        alphabet = list("ab, \t\r\n") + ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"]
        texts = ["", " ", "\n", "a", " a ", "\n\n a\r\n\r\nb \n\n", "x\n\ry\r\r\nz",
                 " \t" * 9 + "\nx\n" + "\t \n" * 9, "\u3000 a \u3000"]
        texts += ["".join(rng.choice(alphabet, size=rng.integers(0, 40))) for _ in range(300)]
        monkeypatch.setattr("margulis.frames._CSV_PIECE", piece)
        for text in texts:
            assert list(_csv_lines(text)) == [ln for ln in text.strip().splitlines() if ln]

    def test_table_padded_with_a_million_spaces_reads_as_unpadded(self):
        # The padding spans sixteen pieces at each end: each is stripped by
        # one scan of a slice, not a Python step per character.
        f = _table(3, "random", np.random.default_rng(13))
        pad = " " * 10**6
        text = pad + grid_to_csv(f) + pad
        assert grid_from_csv(text).values.tobytes() == f.values.tobytes()
        assert list(_csv_lines(text)) == grid_to_csv(f).splitlines()

    def test_csv_reader_peak_at_n401(self):
        # The grid, its bitmap of cells seen and each row's int32 indices
        # and value (two grids) are the peak, 4.0 MiB.  A list of the lines
        # read 23.2 MiB, one parse of every row into 24-byte records, sorted
        # by cell, 9.05 MiB.
        text = grid_to_csv(_table(401, "negative", np.random.default_rng(9)))
        tracemalloc.start()
        try:
            grid_from_csv(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20

    def test_pgm_format_and_rescale(self):
        f = GridDist.delta(3)
        text = grid_to_pgm(f)
        lines = text.strip().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "3 3"
        assert lines[2] == "255"
        pix = np.array([[int(v) for v in row.split()] for row in lines[3:]])
        assert pix[0, 0] == 255 and pix.min() == 0

    def test_pgm_saturates_far_outside_the_range(self):
        # (1 - 0) / 1e-300 * 255 is beyond any machine integer.
        text = grid_to_pgm(GridDist.delta(3), lo=0.0, hi=1e-300)
        assert text.splitlines()[3:] == ["255 0 0", "0 0 0", "0 0 0"]

    @pytest.mark.parametrize("bounds,name", [((np.nan, 1.0), "lo"), ((0.0, np.inf), "hi"),
                                             ((-np.inf, None), "lo")])
    def test_pgm_refuses_a_bound_that_is_not_finite(self, bounds, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                grid_to_pgm(GridDist.delta(3), *bounds)

    def test_pgm_constant_table(self):
        text = grid_to_pgm(GridDist(3, np.full((3, 3), 1 / 3**2)))
        pix = np.array([[int(v) for v in row.split()] for row in text.strip().splitlines()[3:]])
        assert np.all(pix == 0)

    def test_bound_constant(self):
        assert GABBER_GALIL_BOUND == pytest.approx(np.sqrt(2) * 5 / 8, abs=0)
