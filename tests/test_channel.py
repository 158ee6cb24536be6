import tracemalloc

import numpy as np
import pytest

from margulis.channel import (KrausChannel, apply_channel, channel_report,
                              expander_lambda, margulis_channel,
                              random_hermitian, superoperator, verify_identities)
from margulis.phasespace import (PhaseSpaceContext, affine_unitary, inverse_wigner,
                                 quadratic_phase, wigner)
from margulis.spectrum import spectral_report
from margulis.walk import AffineMap, GridDist, generator_map, walk_matrix, walk_step
from oracles import oracle_unitary, phase_point_basis


def random_density(N, rng):
    g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestChannelConstruction:
    def test_degree_eight(self):
        ch = margulis_channel(PhaseSpaceContext(5))
        assert ch.degree == 8 and ch.dim == 5

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_kraus_completeness(self, N):
        ch = margulis_channel(PhaseSpaceContext(N))
        kraus = [affine_unitary(ch.ctx, T) / np.sqrt(ch.degree) for T in ch.maps]
        total = sum(K.conj().T @ K for K in kraus)
        assert np.max(np.abs(total - np.eye(N))) < 1e-10

    def test_unital(self):
        N = 7
        ch = margulis_channel(PhaseSpaceContext(N))
        out = apply_channel(ch, np.eye(N) / N)
        assert np.allclose(out, np.eye(N) / N, atol=1e-14)

    def test_trace_and_hermiticity_preserved(self):
        N = 5
        ch = margulis_channel(PhaseSpaceContext(N))
        rng = np.random.default_rng(20)
        for _ in range(20):
            rho = random_density(N, rng)
            out = apply_channel(ch, rho)
            assert np.trace(out) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_dimension_mismatch(self):
        ch = margulis_channel(PhaseSpaceContext(5))
        with pytest.raises(ValueError, match="shape"):
            apply_channel(ch, np.eye(7))

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel(3, ())


class TestActionOnPhasePoints:
    def test_matches_classical_step_coefficients_n7(self):
        # One application of the channel to A(0,0) spreads exactly like one
        # walk step applied to a point mass.
        N = 7
        ctx = PhaseSpaceContext(N)
        ch = margulis_channel(ctx)
        basis = phase_point_basis(ctx)
        out = apply_channel(ch, basis[0])
        expected = 0.5 * basis[0] + 0.125 * (
            basis[1 * N + 0] + basis[6 * N + 0] + basis[0 * N + 1] + basis[0 * N + 6])
        assert np.max(np.abs(out - expected)) < 1e-12

    @pytest.mark.parametrize("N", [3, 5])
    def test_phase_point_image_equals_walk_row(self, N):
        ctx = PhaseSpaceContext(N)
        ch = margulis_channel(ctx)
        basis = phase_point_basis(ctx)
        M = walk_matrix(N)
        for v in range(N * N):
            out = apply_channel(ch, basis[v])
            expected = np.einsum("u,uij->ij", M[:, v], basis)
            assert np.max(np.abs(out - expected)) < 1e-12


class TestSuperoperator:
    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_hermitian_and_fixes_identity(self, N):
        ch = margulis_channel(PhaseSpaceContext(N))
        M = superoperator(ch)
        assert np.max(np.abs(M - M.conj().T)) < 1e-12
        v = np.eye(N, dtype=complex).reshape(-1, order="F")
        assert np.allclose(M @ v, v, atol=1e-12)

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_spectrum_matches_classical_walk(self, N):
        ch = margulis_channel(PhaseSpaceContext(N))
        qs = np.sort(np.linalg.eigvalsh(superoperator(ch)))
        cs = np.sort(np.linalg.eigvalsh(walk_matrix(N)))
        assert np.max(np.abs(qs - cs)) < 1e-8

    def test_superoperator_reproduces_channel(self):
        N = 5
        ch = margulis_channel(PhaseSpaceContext(N))
        M = superoperator(ch)
        rng = np.random.default_rng(22)
        rho = random_density(N, rng)
        # Column stacking: vec(X) = X.reshape(-1, order="F").
        assert np.allclose((M @ rho.reshape(-1, order="F")).reshape(N, N, order="F"),
                           apply_channel(ch, rho), atol=1e-12)

    def test_cap_guard(self):
        # The one dense cap of walk_matrix; nothing overrides it.
        ch = margulis_channel(PhaseSpaceContext(51))
        with pytest.raises(ValueError, match="N=51 exceeds the dense cap 49"):
            superoperator(ch)


class TestChannelReport:
    def test_matches_the_walk_report_n15(self):
        quantum = channel_report(margulis_channel(PhaseSpaceContext(15)))
        classical = spectral_report(walk_matrix(15), modulus=15)
        assert quantum.modulus == 15 and quantum.blocks == (225,)
        assert len(quantum.spectrum) == len(classical.spectrum) == 225
        gap = np.max(np.abs(np.sort(quantum.spectrum) - np.sort(classical.spectrum)))
        assert gap < 1e-8
        assert quantum.lam == pytest.approx(classical.lam, abs=1e-8)

    def test_spectrum_in_spectra_csv_order(self):
        ch = margulis_channel(PhaseSpaceContext(5))
        rep = channel_report(ch)
        ascending = np.linalg.eigvalsh(superoperator(ch)).tolist()
        assert rep.spectrum == tuple(sorted(ascending, key=abs, reverse=True))
        assert rep.lam == abs(rep.spectrum[1]) == expander_lambda(ch)

    def test_one_unitary_channel_is_not_hermitian(self):
        # conj(U) kron U of a non-real chirp U is not hermitian: eigvalsh
        # would read half of it.  T1 alone has the unitary Q+.
        ctx = PhaseSpaceContext(5)
        ch = KrausChannel(ctx, (AffineMap(((1, 2), (0, 1)), (0, 0), 5),))
        assert np.allclose(affine_unitary(ctx, ch.maps[0]), quadratic_phase(ctx, +1), atol=1e-12)
        for solve in (channel_report, expander_lambda):
            with pytest.raises(ValueError, match="not hermitian"):
                solve(ch)

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0), (24, 0), (0, 24), (23, 21), (13, 7)])
    def test_one_asymmetric_entry_is_refused(self, entry, monkeypatch):
        # Every block of N rows is compared: (23, 21) lies only in the last.
        M = superoperator(margulis_channel(PhaseSpaceContext(5)))
        M[entry] += 1e-3
        monkeypatch.setattr("margulis.channel.superoperator", lambda ch: M)
        with pytest.raises(ValueError, match="not hermitian"):
            channel_report(margulis_channel(PhaseSpaceContext(5)))

    def test_hermitian_check_makes_no_matrix_sized_temporary(self):
        # Building M holds M and one np.kron term, each n^2 complex entries;
        # a whole-matrix np.allclose(M, M^dag) would add several more.
        ch = margulis_channel(PhaseSpaceContext(25))
        size = 625 * 625 * 16
        tracemalloc.start()
        try:
            channel_report(ch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * size


class TestExpanderLambda:
    def test_equals_classical_n3(self):
        ch = margulis_channel(PhaseSpaceContext(3))
        classical = spectral_report(walk_matrix(3), modulus=3).lam
        assert expander_lambda(ch) == pytest.approx(classical, abs=1e-8)

    def test_below_bound_n7(self):
        ch = margulis_channel(PhaseSpaceContext(7))
        assert expander_lambda(ch) <= 0.8839

    def test_identity_channel_degenerate(self):
        ch = KrausChannel(PhaseSpaceContext(3), (AffineMap(((1, 0), (0, 1)), (0, 0), 3),))
        assert expander_lambda(ch) == pytest.approx(1.0, abs=1e-12)


class TestMixing:
    def test_one_step_contraction_on_traceless(self):
        N = 7
        ctx = PhaseSpaceContext(N)
        ch = margulis_channel(ctx)
        lam = spectral_report(walk_matrix(N), modulus=N).lam
        rng = np.random.default_rng(23)
        for _ in range(20):
            X = random_hermitian(N, rng)
            X -= np.trace(X) / N * np.eye(N)
            assert (np.linalg.norm(apply_channel(ch, X))
                    <= lam * np.linalg.norm(X) + 1e-10)

    def test_iterates_decay_at_rate_lambda(self):
        N = 7
        ctx = PhaseSpaceContext(N)
        ch = margulis_channel(ctx)
        lam = spectral_report(walk_matrix(N), modulus=N).lam
        rng = np.random.default_rng(24)
        rho = random_density(N, rng)
        d0 = np.linalg.norm(rho - np.eye(N) / N)
        cur = rho
        for n in range(1, 51):
            cur = apply_channel(ch, cur)
            assert np.linalg.norm(cur - np.eye(N) / N) <= 1.01 * lam**n * d0

    def test_maximally_mixed_fixed_at_every_iterate(self):
        N = 5
        ch = margulis_channel(PhaseSpaceContext(N))
        cur = np.eye(N) / N
        for _ in range(10):
            cur = apply_channel(ch, cur)
            assert np.allclose(cur, np.eye(N) / N, atol=1e-13)


class TestIntertwining:
    def test_report_n7(self):
        rows = verify_identities(7, seed=42, trials=20)
        assert [name for name, _ in rows] == ["orthonormality", "covariance", "translation",
                                              "intertwining", "intertwining_lift",
                                              "circuit_equivalence"]
        assert max(dev for _, dev in rows) < 1e-10

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_refused(self, trials):
        # Was numpy's "zero-size array to reduction operation maximum".
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            verify_identities(7, trials=trials)

    def test_uniform_eigenvector_lifts_to_maximally_mixed(self):
        N = 5
        ctx = PhaseSpaceContext(N)
        op = inverse_wigner(ctx, GridDist(N, np.full((N, N), 1 / N**2)))
        assert np.allclose(op, np.eye(N) / N, atol=1e-12)
        ch = margulis_channel(ctx)
        assert np.allclose(apply_channel(ch, op), op, atol=1e-13)

    def test_second_eigenpair_lifts_n5(self):
        N = 5
        ctx = PhaseSpaceContext(N)
        ch = margulis_channel(ctx)
        M = walk_matrix(N)
        eigvals, eigvecs = np.linalg.eigh(M)
        order = np.argsort(np.abs(eigvals))[::-1]
        lam2, f2 = eigvals[order[1]], eigvecs[:, order[1]]
        op = inverse_wigner(ctx, GridDist(N, f2.reshape(N, N)))
        assert np.linalg.norm(apply_channel(ch, op) - lam2 * op) < 1e-8

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_wigner_vec_intertwines_channel_and_walk(self, N):
        ctx = PhaseSpaceContext(N)
        ch = margulis_channel(ctx)
        M = walk_matrix(N)
        rng = np.random.default_rng(25)
        for _ in range(5):
            rho = random_hermitian(N, rng)
            left = wigner(ctx, apply_channel(ch, rho)).values.ravel()
            right = M @ wigner(ctx, rho).values.ravel()
            assert np.max(np.abs(left - right)) < 1e-12

    def test_random_hermitian_matches_walk_table(self):
        N = 9
        ctx = PhaseSpaceContext(N)
        ch = margulis_channel(ctx)
        rng = np.random.default_rng(26)
        rho = random_hermitian(N, rng)
        assert np.allclose(wigner(ctx, apply_channel(ch, rho)).values,
                           walk_step(wigner(ctx, rho)).values, atol=1e-11)

    @pytest.mark.parametrize("N", [63, 101])
    def test_large_lattice_matches_walk_table(self, N):
        ctx = PhaseSpaceContext(N)
        ch = margulis_channel(ctx)
        rho = random_hermitian(N, np.random.default_rng(27))
        left = wigner(ctx, apply_channel(ch, rho)).values
        right = walk_step(wigner(ctx, rho)).values
        assert np.max(np.abs(left - right)) < 1e-10

    @pytest.mark.parametrize("N", [51, 101])
    def test_report_beyond_the_dense_walk_cap(self, N):
        rows = verify_identities(N, seed=42, trials=20)
        assert max(dev for _, dev in rows) < 1e-10


class TestKrausValidation:
    def test_map_of_another_modulus_refused(self):
        with pytest.raises(ValueError, match="map modulus 7 != context N 5"):
            KrausChannel(PhaseSpaceContext(5), (AffineMap(((1, 0), (0, 1)), (0, 0), 7),))

    def test_map_that_is_not_a_unit_shear_refused(self):
        # Refused when the channel is built, not at its first apply.
        J = AffineMap(((0, 1), (4, 0)), (0, 0), 5)
        with pytest.raises(ValueError, match="is not a unit shear"):
            KrausChannel(PhaseSpaceContext(5), (AffineMap(((1, 0), (0, 1)), (0, 0), 5), J))

    @pytest.mark.parametrize("N", [3, 7])
    def test_pairs_each_walk_map_with_its_unitary(self, N):
        # The channel keeps the maps; each one's term is conjugation by its unitary.
        ctx = PhaseSpaceContext(N)
        ch = margulis_channel(ctx)
        assert ch.maps == tuple(generator_map(N).values())
        rho = random_density(N, np.random.default_rng(N))
        for T in ch.maps:
            U = affine_unitary(ctx, T)
            one = KrausChannel(ctx, (T,))
            assert np.max(np.abs(apply_channel(one, rho) - U @ rho @ U.conj().T)) < 1e-14

    @pytest.mark.parametrize("N", [5, 25, 63, 243])
    def test_apply_channel_matches_the_oracle_kraus_sum(self, N):
        # The Kraus sum of unitaries built from the words, on a unit-norm
        # operator that need not be hermitian.
        ctx = PhaseSpaceContext(N)
        rng = np.random.default_rng(N)
        X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        X /= np.linalg.norm(X)
        dense = sum(U @ X @ U.conj().T
                    for U in (oracle_unitary(ctx, T) for T in generator_map(N).values())) / 8
        assert np.max(np.abs(apply_channel(margulis_channel(ctx), X) - dense)) <= 1e-12
