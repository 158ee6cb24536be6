"""Continuous-variable side of the expander: moments and discretization.

Re-reading the eight walk maps as affine maps of the real plane gives a
channel on a single continuous mode.  Its action on first and second moments
is computed in closed form here: means are fixed, the noise-free covariance
update has an explicit power formula whose diagonal grows like 3^n, and the
full update adds a positive matrix built from the spread of the translated
means.

Normalization: both moment maps average over all eight maps (weight 1/8,
with each linear part appearing twice).  Writing the congruence sum without
the average would scale the closed form [[a+2c, b], [b, c+2a]] by 8; the
averaged convention is the one that closed form pins down, and the test
suite asserts the equality term by term.

The module also demonstrates the contraction property on zero-mean
continuous functions: a compactly supported function is reduced to cell
averages on a square grid, embedded in a lattice large enough to avoid
wrap-around, and pushed through one classical walk step; the 2-norm ratio is
then bounded by the same constant that bounds the lattice walk's subdominant
eigenvalue.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .walk import GABBER_GALIL_BOUND, WALK_MAPS, GridDist, walk_step

__all__ = [
    "MeanVector",
    "CovMatrix",
    "SampledField",
    "TestFunction",
    "TEST_FUNCTIONS",
    "ContractionReport",
    "mean_update",
    "g_matrix",
    "g_map",
    "f_map",
    "gn_closed_form",
    "growth_rate",
    "discretize",
    "contraction_check",
    "moments_csv",
]


@dataclass(frozen=True)
class MeanVector:
    """First moments (mean position, mean momentum)."""

    x: float
    p: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.p], dtype=float)


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric 2x2 matrix [[a, b], [b, c]] of second moments."""

    a: float
    b: float
    c: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.b, self.c]], dtype=float)

    @staticmethod
    def from_array(m: np.ndarray) -> "CovMatrix":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2) or abs(m[0, 1] - m[1, 0]) > 1e-12 * max(1.0, abs(m[0, 1])):
            raise ValueError(f"expected a symmetric 2x2 matrix, got {m!r}")
        return CovMatrix(float(m[0, 0]), float((m[0, 1] + m[1, 0]) / 2.0), float(m[1, 1]))

    def trace(self) -> float:
        return self.a + self.c

    def det(self) -> float:
        return self.a * self.c - self.b * self.b


def mean_update(m: MeanVector) -> MeanVector:
    """Average of the eight images of m; the identity map on R^2.

    The linear parts sum to eight times the identity and the translations
    cancel in inverse pairs, so means are preserved exactly.
    """
    v = m.as_array()
    acc = np.zeros(2)
    for S, t in WALK_MAPS.values():
        acc += np.array(S, dtype=float) @ v + t
    acc /= 8.0
    return MeanVector(float(acc[0]), float(acc[1]))


def g_matrix(m: MeanVector) -> CovMatrix:
    """Covariance of the eight translated means; positive semidefinite."""
    images = np.array([np.array(S, dtype=float) @ m.as_array() + t
                       for S, t in WALK_MAPS.values()])
    centered = images - images.mean(axis=0)
    return CovMatrix.from_array(centered.T @ centered / 8.0)


def g_map(gamma: CovMatrix) -> CovMatrix:
    """Noise-free covariance update: [[a, b], [b, c]] -> [[a+2c, b], [b, c+2a]].

    Equals the average of S gamma S^T over the eight linear parts.
    """
    return CovMatrix(gamma.a + 2.0 * gamma.c, gamma.b, gamma.c + 2.0 * gamma.a)


def f_map(gamma: CovMatrix, m: MeanVector) -> tuple[CovMatrix, MeanVector]:
    """Full second-moment update g(gamma) + 2 G(m), with means preserved."""
    G = g_matrix(m)
    g = g_map(gamma)
    return CovMatrix(g.a + 2.0 * G.a, g.b + 2.0 * G.b, g.c + 2.0 * G.c), mean_update(m)


def gn_closed_form(gamma: CovMatrix, n: int) -> CovMatrix:
    """n-fold g_map in closed form.

    With alpha = (a+c)/2 and beta = (a-c)/2 the diagonal after n steps is
    3^n alpha +- (-1)^n beta; the off-diagonal never moves.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > 500:
        raise ValueError(f"n={n} exceeds the overflow guard (3^n leaves float range)")
    alpha = (gamma.a + gamma.c) / 2.0
    beta = (gamma.a - gamma.c) / 2.0
    grow = 3.0 ** n
    flip = -1.0 if n % 2 else 1.0
    return CovMatrix(grow * alpha + flip * beta, gamma.b, grow * alpha - flip * beta)


def growth_rate(gamma: CovMatrix, n: int) -> np.ndarray:
    """Per-step base-3 growth exponents of the diagonal after n steps.

    Returns diag((1/n) log_3 of the two diagonal entries); converges to the
    identity for any gamma with alpha = (a+c)/2 > 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alpha = (gamma.a + gamma.c) / 2.0
    if alpha <= 0:
        raise ValueError(f"non-generic covariance: alpha = (a+c)/2 = {alpha} <= 0")
    gn = gn_closed_form(gamma, n)
    if gn.a <= 0 or gn.c <= 0:
        raise ValueError("diagonal not positive; increase n or use a generic gamma")
    log3 = math.log(3.0)
    return np.array([[math.log(gn.a) / (n * log3), 0.0],
                     [0.0, math.log(gn.c) / (n * log3)]])


# ---------------------------------------------------------------------------
# Discretization of compactly supported zero-mean test functions.

@dataclass(frozen=True)
class TestFunction:
    """Named test function on R^2 with compact support and zero integral."""

    __test__ = False  # not a pytest class, despite the mathematical name

    name: str
    fn: object = field(repr=False)  # vectorized (x, y) -> values
    support_radius: float = 0.0

    def __call__(self, x, y):
        return self.fn(x, y)


def _box_dipole(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inside_y = (y >= -0.625) & (y <= 0.625)
    pos = (x >= 0.375) & (x <= 1.375) & inside_y
    neg = (x >= -1.375) & (x <= -0.375) & inside_y
    return pos.astype(float) - neg.astype(float)


def _gaussian_dipole(x, y, sigma: float = 0.35, cut: float = 1.05, x0: float = 0.8):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def lobe(u, v):
        r2 = u * u + v * v
        return np.where(r2 <= cut * cut, np.exp(-r2 / (2.0 * sigma * sigma)), 0.0)

    return lobe(x - x0, y) - lobe(x + x0, y)


#: Built-in zero-mean, compactly supported test functions.
TEST_FUNCTIONS = {
    "box_dipole": TestFunction("box_dipole", _box_dipole, 1.375),
    "gaussian_dipole": TestFunction("gaussian_dipole", _gaussian_dipole, 1.85),
}


@dataclass(frozen=True, eq=False)
class SampledField:
    """Cell averages of a plane function on the (2R+1)^2 grid of delta-cells.

    values[x + R, y + R] is the average over the square cell centered at
    (x*delta, y*delta), for x, y in -R..R.
    """

    delta: float
    R: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_delta(self.delta)
        side = 2 * self.R + 1
        vals = np.array(self.values, dtype=float)
        if vals.shape != (side, side):
            raise ValueError(f"values must have shape ({side}, {side}), got {vals.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _adopt(cls, delta: float, R: int, vals: np.ndarray) -> "SampledField":
        """Take over vals, a fresh (2R+1, 2R+1) float array, for a delta already checked."""
        vals.setflags(write=False)
        f = object.__new__(cls)
        f.__dict__.update(delta=delta, R=R, values=vals)  # frozen: no setattr
        return f

    def norm2(self) -> float:
        """Cell-volume-weighted 2-norm (delta^2 * sum of squares)^(1/2)."""
        return float(self.delta * np.linalg.norm(self.values))

    def mass(self) -> float:
        return float(self.values.sum() * self.delta ** 2)


def _require_delta(delta: float) -> None:
    if not 0 < delta < math.inf:
        raise ValueError(
            f"delta must be {'finite' if delta > 0 else 'positive'}, got {delta}")
    if math.isinf(delta * delta):  # the cell area, as mass() computes it
        raise ValueError(f"delta must be small enough to square, got {delta}")


#: Samples per strip of discretize: the test function's arrays at any R.
_STRIP_SAMPLES = 1 << 15


def discretize(test_fn, delta: float, R: int) -> SampledField:
    """Cell averages of a test function by 4-point Gauss-Legendre per axis.

    ``test_fn`` is a TestFunction or the name of a built-in one; its support
    must fit inside radius R*delta.
    """
    if isinstance(test_fn, str):
        try:
            test_fn = TEST_FUNCTIONS[test_fn]
        except KeyError:
            raise ValueError(
                f"unknown test function {test_fn!r}; "
                f"available: {sorted(TEST_FUNCTIONS)}") from None
    _require_delta(delta)
    if test_fn.support_radius > R * delta:
        raise ValueError(
            f"support radius {test_fn.support_radius} exceeds grid extent "
            f"R*delta = {R * delta}")
    nodes, weights = np.polynomial.legendre.leggauss(4)
    centers = np.arange(-R, R + 1) * delta
    xs = centers[:, None, None, None] + nodes[None, None, :, None] * (delta / 2.0)
    ys = centers[None, :, None, None] + nodes[None, None, None, :] * (delta / 2.0)
    w2 = np.outer(weights, weights) / 4.0
    rows = max(1, _STRIP_SAMPLES // (16 * centers.size))
    vals = np.empty((centers.size, centers.size))
    for lo in range(0, centers.size, rows):  # a strip of cell rows at a time
        strip = xs[lo:lo + rows]
        full_shape = np.broadcast_shapes(strip.shape, ys.shape)
        samples = np.broadcast_to(np.asarray(test_fn(strip, ys), dtype=float), full_shape)
        vals[lo:lo + rows] = np.einsum("xyab,ab->xy", samples, w2)
    return SampledField._adopt(delta, R, vals)


@dataclass(frozen=True)
class ContractionReport:
    """One-step contraction measurement of an embedded sampled field."""

    delta: float
    R: int
    N_embed: int
    norm_in: float
    norm_out: float
    ratio: float
    bound: float = GABBER_GALIL_BOUND

    def passed(self) -> bool:
        return self.ratio <= self.bound + 0.01

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def contraction_check(field: SampledField) -> ContractionReport:
    """Embed a zero-mean field in Z_N^2, walk one step, and report the ratio.

    The lattice is just large enough that images of the support cannot
    wrap: in the sup norm, v -> L v + t takes radius r to at most
    r * (largest row sum of |L|) + max |t|, both read off WALK_MAPS.
    """
    if abs(field.mass()) > 1e-9:
        raise ValueError(f"field must have (near) zero mass, got {field.mass():.3e}")
    nz = np.argwhere(field.values != 0.0)
    if nz.size == 0:
        return ContractionReport(field.delta, field.R, 3, 0.0, 0.0, 0.0)
    radius = int(np.max(np.abs(nz - field.R)))
    maps = WALK_MAPS.values()
    stretch = max(abs(a) + abs(b) for linear, _ in maps for a, b in linear)
    reach = max(abs(x) for _, shift in maps for x in shift)
    N = 2 * (stretch * radius + reach) + 1
    # Crop to the actual support so the embedding is collision-free even
    # when N is smaller than the padded sampling grid.
    sub = field.values[field.R - radius: field.R + radius + 1,
                       field.R - radius: field.R + radius + 1]
    grid = np.zeros((N, N))
    idx = (np.arange(-radius, radius + 1)) % N
    grid[np.ix_(idx, idx)] = sub
    stepped = walk_step(GridDist._adopt(grid))
    norm_in = field.norm2()
    norm_out = float(field.delta * np.linalg.norm(stepped.values))
    return ContractionReport(field.delta, field.R, N, norm_in, norm_out,
                             norm_out / norm_in)


def moments_csv(gamma: CovMatrix, mean: MeanVector, iters: int,
                which: str = "g") -> str:
    """CSV trace of iterated moment maps: n,a,b,c,mean_x,mean_p,trace,det.

    Raises ValueError, naming the iteration, if any cell of the trace
    leaves float range: the diagonal grows as 3^n, and det overflows first.
    That error is the only report: numpy's overflow warnings are silenced.
    """
    if which not in ("g", "f"):
        raise ValueError(f"map must be 'g' or 'f', got {which!r}")
    lines = ["n,a,b,c,mean_x,mean_p,trace,det"]
    cur_g, cur_m = gamma, mean
    for n in range(iters + 1):
        values = (cur_g.a, cur_g.b, cur_g.c, cur_m.x, cur_m.p, cur_g.trace(), cur_g.det())
        bad = [name for name, v in zip(lines[0].split(",")[1:], values) if not math.isfinite(v)]
        if bad:
            raise ValueError(f"the moments leave float range at iteration {n} "
                             f"({', '.join(bad)} not finite)")
        lines.append(",".join([str(n)] + [format(v, ".17g") for v in values]))
        with np.errstate(over="ignore", invalid="ignore"):
            if which == "g":
                cur_g = g_map(cur_g)
            else:
                cur_g, cur_m = f_map(cur_g, cur_m)
    return "\n".join(lines) + "\n"
