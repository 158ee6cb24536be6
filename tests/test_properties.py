"""Property tests of the walk step, the channel, the Wigner map and the
unit-shear unitaries at odd N <= 31."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from margulis.channel import apply_channel, margulis_channel  # noqa: E402
from margulis.circuits import affine_circuit, evaluate  # noqa: E402
from margulis.phasespace import PhaseSpaceContext, affine_unitary, wigner  # noqa: E402
from margulis.walk import AffineMap, GridDist, _pullback_index, walk_step  # noqa: E402
from oracles import phase_blind_equal  # noqa: E402

moduli = st.integers(1, 15).map(lambda k: 2 * k + 1)


def tables(elements, count=1):
    """count tables of one odd size N <= 31, with entries from elements."""
    return moduli.flatmap(lambda N: st.tuples(
        *[hnp.arrays(np.float64, (N, N), elements=elements)] * count))


def operators(N):
    return hnp.arrays(np.complex128, (N, N), elements=st.complex_numbers(
        max_magnitude=1, allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None, database=None)
@given(tables(st.floats(0, 1e6)))
def test_walk_step_keeps_mass_and_nonnegativity(values):
    f = GridDist(values[0].shape[0], values[0])
    out = walk_step(f).values
    assert np.all(out >= 0)
    assert out.sum() == pytest.approx(f.values.sum(), rel=1e-12)


@settings(max_examples=100, deadline=None, database=None)
@given(tables(st.floats(-1, 1), count=2))
def test_walk_step_is_self_adjoint(pair):
    N = pair[0].shape[0]
    f, g = (GridDist(N, v) for v in pair)
    assert np.vdot(g.values, walk_step(f).values) == pytest.approx(
        np.vdot(walk_step(g).values, f.values), rel=1e-12, abs=1e-12)


@settings(max_examples=50, deadline=None, database=None)
@given(moduli.flatmap(operators))
def test_channel_keeps_trace_and_hermiticity_and_is_unital(a):
    N = a.shape[0]
    ch = margulis_channel(PhaseSpaceContext(N))
    rho = a + a.conj().T
    out = apply_channel(ch, rho)
    assert np.trace(out) == pytest.approx(np.trace(rho), abs=1e-12 * N)
    assert np.allclose(out, out.conj().T, rtol=0, atol=1e-13)
    assert np.allclose(apply_channel(ch, np.eye(N) / N), np.eye(N) / N, rtol=0, atol=1e-15)


@settings(max_examples=50, deadline=None, database=None)
@given(moduli.flatmap(operators))
def test_wigner_carries_the_channel_to_the_walk(a):
    N = a.shape[0]
    ctx = PhaseSpaceContext(N)
    rho = a + a.conj().T
    left = wigner(ctx, apply_channel(margulis_channel(ctx), rho)).values
    right = walk_step(wigner(ctx, rho)).values
    assert np.allclose(left, right, rtol=0, atol=1e-12)


def unit_shears(N):
    """A unit shear of either axis by any m mod N, with any shift."""
    def build(axis, m, shift):
        linear = ((1, m), (0, 1)) if axis == 0 else ((1, 0), (m, 1))
        return AffineMap(linear, shift, N)
    residues = st.integers(0, N - 1)
    return st.builds(build, st.integers(0, 1), residues, st.tuples(residues, residues))


@settings(max_examples=100, deadline=None, database=None)
@given(moduli.flatmap(lambda N: st.tuples(unit_shears(N), operators(N))))
def test_unit_shear_unitary_pulls_the_wigner_table_back(case):
    T, a = case
    N = T.modulus
    ctx = PhaseSpaceContext(N)
    rho = a + a.conj().T
    U = affine_unitary(ctx, T)
    assert np.allclose(U @ U.conj().T, np.eye(N), rtol=0, atol=1e-12)
    left = wigner(ctx, U @ rho @ U.conj().T).values
    right = wigner(ctx, rho).values.reshape(-1)[_pullback_index(T)]
    assert np.allclose(left, right, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from([(3, 2), (5, 2), (3, 3)]).flatmap(
    lambda dn: st.tuples(st.just(dn), unit_shears(dn[0] ** dn[1]))))
def test_unit_shear_circuit_matches_its_unitary(case):
    (d, n), T = case
    assert phase_blind_equal(evaluate(affine_circuit(d, n, T)),
                             affine_unitary(PhaseSpaceContext(T.modulus), T))
