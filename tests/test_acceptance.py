"""Acceptance suite: the headline quantities at desk scale.

One test per criterion; each prints a single PASS line once its assertions
hold (run with ``pytest -s`` or ``-rA`` to see them).  Tolerances are stated
inline and never loosened at runtime.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from margulis.channel import (apply_channel, expander_lambda, margulis_channel,
                              random_hermitian, superoperator)
from margulis.circuits import affine_circuit, evaluate
from margulis.cli import main
from margulis.continuous import (CovMatrix, MeanVector, contraction_check,
                                 discretize, f_map, g_map, gn_closed_form,
                                 growth_rate)
from margulis.phasespace import PhaseSpaceContext, affine_unitary
from margulis.frames import grid_from_csv
from margulis.spectrum import spectral_report
from margulis.walk import GridDist, apply_affine, generator_map, walk_matrix
from oracles import phase_point_basis

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def test_criterion_1_phase_point_orthonormality():
    worst = 0.0
    for N in (3, 5, 7, 9):
        basis = phase_point_basis(PhaseSpaceContext(N))
        gram = np.einsum("vij,wji->vw", basis, basis) / N
        worst = max(worst, float(np.max(np.abs(gram - np.eye(N * N)))))
    assert worst < 1e-10
    report(f"1 PASS - phase-point orthonormality, max deviation {worst:.3e} < 1e-10")


def test_criterion_2_affine_covariance():
    worst = 0.0
    for N in (3, 5, 7, 9, 15):
        ctx = PhaseSpaceContext(N)
        basis = phase_point_basis(ctx)
        for T in generator_map(N).values():
            U = affine_unitary(ctx, T)
            for p in range(N):
                for q in range(N):
                    tp, tq = apply_affine(T, (p, q))
                    gap = np.linalg.norm(
                        U @ basis[p * N + q] @ U.conj().T - basis[tp * N + tq])
                    worst = max(worst, float(gap))
    assert worst < 1e-10
    report(f"2 PASS - covariance for all 8 maps, max deviation {worst:.3e} < 1e-10")


def test_criterion_3_superoperator_spectrum_equality():
    worst = 0.0
    for N in (3, 5, 7):
        M = superoperator(margulis_channel(PhaseSpaceContext(N)))
        qs = np.sort(np.linalg.eigvalsh(M))
        cs = np.sort(np.linalg.eigvalsh(walk_matrix(N)))
        worst = max(worst, float(np.max(np.abs(qs - cs))))
    assert worst < 1e-8
    report(f"3 PASS - channel/walk spectra agree as multisets, max gap {worst:.3e} < 1e-8")


def test_criterion_4_spectral_gap_bound_and_golden_values():
    bound = 0.883884 + 1e-6
    computed = {}
    for N in range(3, 16, 2):
        lam = spectral_report(walk_matrix(N), modulus=N).lam
        assert lam <= bound, f"lambda({N}) = {lam} exceeds {bound}"
        computed[str(N)] = lam
    quantum_gap = 0.0
    for N in (3, 5, 7, 9):
        qlam = expander_lambda(margulis_channel(PhaseSpaceContext(N)))
        quantum_gap = max(quantum_gap, abs(qlam - computed[str(N)]))
    assert quantum_gap < 1e-8
    # The oracle is checked in; a test run never writes it.
    golden_path = GOLDEN_DIR / "lambdas.json"
    assert golden_path.exists(), f"missing golden file {golden_path}"
    golden = json.loads(golden_path.read_text())
    for key, value in computed.items():
        assert value == pytest.approx(golden[key], abs=1e-10)
    report("4 PASS - classical lambda <= 0.883884+1e-6 for odd N in 3..15; "
           f"quantum matches classical to {quantum_gap:.3e}; golden file checked")


def test_criterion_5_circuit_synthesis():
    worst = 0.0
    for d, n in ((3, 2), (3, 3), (5, 2)):
        N = d ** n
        ctx = PhaseSpaceContext(N)
        for T in generator_map(N).values():
            t = np.trace(evaluate(affine_circuit(d, n, T)).conj().T
                         @ affine_unitary(ctx, T))
            worst = max(worst, float(abs(abs(t) - N)))
    assert worst < 1e-8

    ns = np.arange(1, 5)
    design = np.stack([ns ** 2, np.ones_like(ns)], axis=1).astype(float)
    for index in range(8):
        counts = np.array([len(affine_circuit(3, int(n),
                                              list(generator_map(3 ** n).values())[index]).gates)
                           for n in ns], dtype=float)
        coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
        assert coef[0] >= 0
        assert np.max(np.abs(design @ coef - counts)) <= 3.0
    report(f"5 PASS - gate lists match dense unitaries (max trace gap {worst:.3e} "
           "< 1e-8) and counts fit a*n^2 + b on n=1..4")


def test_criterion_6_contraction_demo():
    ratios = {}
    for name in ("box_dipole", "gaussian_dipole"):
        rep = contraction_check(discretize(name, 0.25, 8))
        assert rep.ratio <= 0.894, f"{name}: ratio {rep.ratio}"
        ratios[name] = rep.ratio
    report("6 PASS - one-step ratios at delta=0.25: "
           + ", ".join(f"{k}={v:.4f}" for k, v in ratios.items()) + " <= 0.894")


def test_criterion_7_moment_dynamics():
    gamma = CovMatrix(3.0, -2.0, 5.0)
    cur = gamma
    for n in range(21):
        closed = gn_closed_form(gamma, n)
        assert (closed.a, closed.b, closed.c) == (cur.a, cur.b, cur.c)
        cur = g_map(cur)

    rng = np.random.default_rng(7)
    checked = 0
    while checked < 10:
        A = rng.standard_normal((2, 2))
        m = A @ A.T
        gam = CovMatrix(m[0, 0], m[0, 1], m[1, 1])
        if (gam.a + gam.c) / 2 <= 0:
            continue
        rate = growth_rate(gam, 30)
        assert np.max(np.abs(np.diag(rate) - 1.0)) < 0.05
        checked += 1

    f_gam, f_m = CovMatrix(1.0, 0.25, 2.0), MeanVector(0.5, -0.5)
    g_gam = f_gam
    for _ in range(30):
        f_gam, f_m = f_map(f_gam, f_m)
        g_gam = g_map(g_gam)
        diff = f_gam.as_array() - g_gam.as_array()
        assert np.min(np.linalg.eigvalsh(diff)) >= -1e-9 * max(1.0, np.linalg.norm(diff))
    report("7 PASS - closed form exact to n=20, growth exponents within 0.05 of 1 "
           "at n=30 for 10 random PSD inputs, noisy iterates dominate noise-free")


def test_criterion_8_point_mass_evolution(tmp_path):
    assert main(["walk", "--N", "7", "--steps", "3", "--out", str(tmp_path)]) == 0
    step1 = grid_from_csv((tmp_path / "step-1.csv").read_text()).values
    expected = {(0, 0): 0.5, (1, 0): 0.125, (6, 0): 0.125, (0, 1): 0.125, (0, 6): 0.125}
    for p in range(7):
        for q in range(7):
            assert step1[p, q] == expected.get((p, q), 0.0)

    M = walk_matrix(7)
    oracle = np.linalg.matrix_power(M, 3) @ GridDist.delta(7).values.ravel()
    step3 = grid_from_csv((tmp_path / "step-3.csv").read_text())
    assert np.max(np.abs(step3.values.ravel() - oracle)) < 1e-12

    # Qualitative spreading: support grows, the peak decays, mass is conserved.
    frames = [grid_from_csv((tmp_path / f"step-{k}.csv").read_text()).values
              for k in range(4)]
    supports = [np.count_nonzero(f) for f in frames]
    peaks = [f.max() for f in frames]
    assert supports == sorted(supports) and supports[0] == 1 and supports[3] > supports[1]
    assert peaks == sorted(peaks, reverse=True)
    assert all(abs(f.sum() - 1.0) < 1e-12 for f in frames)
    for k in range(4):
        lines = (tmp_path / f"step-{k}.pgm").read_text().strip().splitlines()
        assert lines[0] == "P2" and lines[1] == "7 7"
    report("8 PASS - point-mass evolution: exact one-step table, three-step table "
           "matches the matrix-power oracle to 1e-12, frames spread and stay normalized")


def test_criterion_9_mixing():
    N = 7
    ctx = PhaseSpaceContext(N)
    ch = margulis_channel(ctx)
    lam = spectral_report(walk_matrix(N), modulus=N).lam
    rng = np.random.default_rng(9)
    for _ in range(20):
        X = random_hermitian(N, rng)
        X -= np.trace(X) / N * np.eye(N)
        assert np.linalg.norm(apply_channel(ch, X)) <= lam * np.linalg.norm(X) + 1e-10

    g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    d0 = np.linalg.norm(rho - np.eye(N) / N)
    cur = rho
    for n in range(1, 51):
        cur = apply_channel(ch, cur)
        assert np.linalg.norm(cur - np.eye(N) / N) <= 1.01 * lam ** n * d0
    report("9 PASS - one-step contraction on 20 traceless operators and "
           "lambda^n decay (factor 1.01) over 50 iterates at N=7")
