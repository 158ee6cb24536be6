import itertools
import tracemalloc

import numpy as np
import pytest

from margulis.channel import (KrausChannel, _weyl_matrix, apply_channel, channel_report,
                              expander_lambda, margulis_channel,
                              random_hermitian, superoperator, verify_identities)
from margulis.phasespace import (PhaseSpaceContext, affine_action, affine_unitary,
                                 inverse_wigner, quadratic_phase, weyl, wigner)
from margulis.spectrum import spectral_report
from margulis.walk import (GABBER_GALIL_BOUND, WALK_MAPS, AffineMap, GridDist, generator_map,
                           walk_matrix, walk_step)
from oracles import (fixed_points, fourier_frame_reads, fourier_frame_walk, oracle_unitary,
                     phase_point_basis)


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
            KrausChannel(PhaseSpaceContext(3), ())


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


class TestActionOnWeylOperators:
    @pytest.mark.parametrize("N", [7, 15, 25, 243])
    def test_four_weyl_components_with_their_phases(self, N):
        # U_T w(v) U_T^dag = omega^{[t, Lv]} w(Lv) for T = (L, t), with
        # [a, b] = a_p b_q - a_q b_p; so the channel takes w(v) to the
        # (1/8)-weighted sum of those over the eight maps, and the two maps of
        # one linear part L give w(Lv) the modulus |cos(pi [t_L, Lv] / N)| / 4,
        # t_L the difference of their shifts.
        ctx = PhaseSpaceContext(N)
        ch = margulis_channel(ctx)
        shifts = {}
        for L, t in WALK_MAPS.values():
            shifts.setdefault(L, []).append(t)

        def image(L, v):
            return tuple(int(L[i][0] * v[0] + L[i][1] * v[1]) % N for i in range(2))

        def form(a, b):
            return a[0] * b[1] - a[1] * b[0]

        rng = np.random.default_rng(N)
        checked = 0
        while checked < 3:
            v = tuple(int(x) for x in rng.integers(0, N, 2))
            if len({image(L, v) for L in shifts}) < len(shifts):
                continue
            out = apply_channel(ch, weyl(ctx, *v))
            expected = sum(np.exp(2j * np.pi * (form(t, image(L, v)) % N) / N)
                           * weyl(ctx, *image(L, v))
                           for L, t in WALK_MAPS.values()) / 8
            assert np.max(np.abs(out - expected)) <= 1e-13
            for L, (t1, t2) in shifts.items():
                Lv = image(L, v)
                coefficient = np.trace(weyl(ctx, *Lv).conj().T @ out) / N
                t_L = (t2[0] - t1[0], t2[1] - t1[1])
                assert abs(coefficient) == pytest.approx(
                    abs(np.cos(np.pi * form(t_L, Lv) / N)) / 4, abs=1e-13)
            checked += 1


#: Channels beyond the walk's eight maps, name -> (linear part, shift) pairs.
OTHER_TABLES = {
    "unit translations": [(((1, 0), (0, 1)), t) for t in ((1, 0), (-1, 0), (0, 1), (0, -1))],
    # ROADMAP item 1's near-miss control: shear 1 in place of 2.
    "shear 1": [(((a, b // 2), (c // 2, d)), t) for ((a, b), (c, d)), t in WALK_MAPS.values()],
    "T4 and T4inv": [WALK_MAPS["T4"], WALK_MAPS["T4inv"]],
    "T1": [WALK_MAPS["T1"]],
    "T2": [WALK_MAPS["T2"]],
}


def _channel(N, table):
    return KrausChannel(PhaseSpaceContext(N), tuple(AffineMap(L, t, N) for L, t in table))


def _assert_same_eigenvalues(a, b, tol):
    # Match each of a to its nearest unmatched eigenvalue of b.
    b = list(b)
    for x in a:
        j = int(np.argmin(np.abs(np.array(b) - x)))
        assert abs(b.pop(j) - x) <= tol


class TestWeylMatrix:
    @staticmethod
    def _minus_J(N, sign=1):
        # Flat index of sign * (-J u) = sign * (-q, p) for u = (p, q).
        p, q = np.divmod(np.arange(N * N), N)
        return (-sign * q) % N * N + (sign * p) % N

    @pytest.mark.parametrize("N", [5, 7, 9, 15])
    def test_is_the_fourier_frame_walk_relabeled_by_minus_J(self, N):
        # W[u, u'] = M^[-Ju, -Ju'], J = [[0, 1], [-1, 0]]; k = Ju is off by ~0.24.
        W = _weyl_matrix(margulis_channel(PhaseSpaceContext(N)))
        frame = fourier_frame_walk(N)
        k = self._minus_J(N)
        assert np.max(np.abs(W - frame[np.ix_(k, k)])) <= 1e-14
        k = self._minus_J(N, sign=-1)
        assert np.max(np.abs(W - frame[np.ix_(k, k)])) > 0.2

    @pytest.mark.parametrize("N", [5, 15])
    def test_a_wrong_shift_sign_breaks_the_fourier_frame_identity(self, N):
        table = dict(WALK_MAPS, T2=(WALK_MAPS["T2"][0], (-1, 0)))
        k = self._minus_J(N)
        W = _weyl_matrix(_channel(N, table.values()))
        assert np.max(np.abs(W - fourier_frame_walk(N)[np.ix_(k, k)])) > 0.2

    @pytest.mark.parametrize("N", [101, 1001])
    def test_reads_are_the_fourier_frame_reads_far_past_the_dense_cap(self, N, monkeypatch):
        # The -J identity map by map, with no dense matrix: row u of each map's
        # read is row k = -Ju of the walk's Fourier-frame read, relabeled.
        monkeypatch.setattr("margulis.channel._table_matrix", lambda N, reads, dtype: reads)
        k = self._minus_J(N)
        table = dict(WALK_MAPS, T2=(WALK_MAPS["T2"][0], (-1, 0)))
        miss = 0.0
        for (columns, weights), (_, wrong), (f_columns, f_weights) in zip(
                _weyl_matrix(margulis_channel(PhaseSpaceContext(N))),
                _weyl_matrix(_channel(N, table.values())), fourier_frame_reads(N), strict=True):
            u_weights = f_weights.reshape(-1)[k].reshape(N, N)
            assert np.array_equal(k[columns], f_columns.reshape(-1)[k].reshape(N, N))
            assert np.max(np.abs(weights - u_weights)) <= 1e-15
            miss = max(miss, np.max(np.abs(wrong - u_weights)))
        assert miss > 0.2  # the T2 shift (-1, 0) misses

    @pytest.mark.parametrize("N", [5, 15])
    @pytest.mark.parametrize("name", OTHER_TABLES)
    def test_eigenvalues_match_the_superoperator(self, N, name):
        ch = _channel(N, OTHER_TABLES[name])
        _assert_same_eigenvalues(np.linalg.eigvals(_weyl_matrix(ch)),
                                 np.linalg.eigvals(superoperator(ch)), 1e-13)

    def test_t2_alone_is_refused(self):
        # As T1 alone is in TestChannelReport.
        with pytest.raises(ValueError, match="not hermitian"):
            channel_report(_channel(5, OTHER_TABLES["T2"]))

    def test_shear_one_misses_the_bound(self):
        lam = channel_report(_channel(15, OTHER_TABLES["shear 1"])).lam
        assert lam == pytest.approx(0.8858, abs=1e-4) and lam > GABBER_GALIL_BOUND


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
        ascending = np.linalg.eigvalsh(_weyl_matrix(ch)).tolist()
        assert rep.spectrum == tuple(sorted(ascending, key=abs, reverse=True))
        assert rep.lam == abs(rep.spectrum[1]) == expander_lambda(ch)
        oracle = np.linalg.eigvalsh(superoperator(ch))
        assert np.max(np.abs(np.sort(rep.spectrum) - oracle)) <= 1e-12

    @pytest.mark.parametrize("N", [3, 5, 7, 9, 15, 25])
    def test_matches_the_superoperator_spectrum(self, N):
        ch = margulis_channel(PhaseSpaceContext(N))
        oracle = np.linalg.eigvalsh(superoperator(ch))
        assert np.max(np.abs(np.sort(channel_report(ch).spectrum) - oracle)) <= 1e-12

    def test_cap_guard(self):
        with pytest.raises(ValueError, match="N=51 exceeds the dense cap 49"):
            channel_report(margulis_channel(PhaseSpaceContext(51)))

    def test_one_unitary_channel_is_not_hermitian(self):
        # T1 alone takes w(v) to w(S1 v), a permutation that is not symmetric:
        # eigvalsh would read half of it.  T1 alone has the unitary Q+.
        ctx = PhaseSpaceContext(5)
        ch = KrausChannel(ctx, (AffineMap(((1, 2), (0, 1)), (0, 0), 5),))
        assert np.allclose(affine_unitary(ctx, ch.maps[0]), quadratic_phase(ctx, +1), atol=1e-12)
        for solve in (channel_report, expander_lambda):
            with pytest.raises(ValueError, match="not hermitian"):
                solve(ch)

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0), (24, 0), (0, 24), (23, 21), (13, 7)])
    def test_one_asymmetric_entry_is_refused(self, entry, monkeypatch):
        # Every block of N rows is compared: (23, 21) lies only in the last.
        M = _weyl_matrix(margulis_channel(PhaseSpaceContext(5)))
        M[entry] += 1e-3
        monkeypatch.setattr("margulis.channel._weyl_matrix", lambda ch: M)
        with pytest.raises(ValueError, match="not hermitian"):
            channel_report(margulis_channel(PhaseSpaceContext(5)))

    def test_top_eigenvalue_other_than_one_is_refused(self, monkeypatch):
        # Hermitian, so only the top-eigenvalue check can refuse it.
        monkeypatch.setattr("margulis.channel._weyl_matrix", lambda ch: 0.5 * np.eye(9))
        with pytest.raises(ValueError, match="largest eigenvalue 0.5 is not 1 within 1e-10"):
            channel_report(margulis_channel(PhaseSpaceContext(3)))

    def test_hermitian_check_makes_no_matrix_sized_temporary(self):
        # M is n^2 complex entries, and its build adds only rows of n phases;
        # a whole-matrix np.allclose(M, M^dag) would add several matrices more.
        ch = margulis_channel(PhaseSpaceContext(25))
        size = 625 * 625 * 16
        tracemalloc.start()
        try:
            channel_report(ch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * size


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
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            verify_identities(7, trials=trials)

    def test_non_integer_trials_refused(self):
        with pytest.raises(ValueError, match="trials must be an integer, got 1.5"):
            verify_identities(5, trials=1.5)

    def test_numpy_integer_trials_accepted(self):
        rows = verify_identities(5, trials=np.int64(1))
        assert max(dev for _, dev in rows) < 1e-10

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


def _random_words(N, count, length):
    rng = np.random.default_rng(N)
    return [tuple(rng.choice(list(WALK_MAPS), size=length)) for _ in range(count)]


#: Words in the walk labels per N: every word of length <= 3 at N=3, seeded random ones above.
CHARACTER_WORDS = {
    3: [w for k in (1, 2, 3) for w in itertools.product(WALK_MAPS, repeat=k)],
    15: _random_words(15, 200, 5),
    45: _random_words(45, 60, 5),
    243: _random_words(243, 8, 4),
}

#: Shear-1 linear part -> the shear-2 part of the same sign.
_SHEAR_TWO = {((1, 2), (0, 1)): ((1, 0), (2, 1)), ((1, -2), (0, 1)): ((1, 0), (-2, 1))}


def _character_gap(N, quantum):
    """Worst | |tr U_w|^2 - #Fix(w) | over CHARACTER_WORDS[N], where U_w applies the
    unitaries of the maps quantum[label] letter by letter to the identity, and w
    composes the walk maps generator_map(N)[label]."""
    ctx, maps = PhaseSpaceContext(N), generator_map(N)
    worst = 0.0
    for word in CHARACTER_WORDS[N]:
        U = np.eye(N, dtype=complex)
        for label in word:
            U = affine_action(ctx, quantum[label], U)
        fix = fixed_points([maps[label] for label in word])
        worst = max(worst, abs(abs(np.trace(U)) ** 2 - fix))
    return worst


def _negated_shifts(N, labels):
    return {label: AffineMap(linear, tuple(-s if label in labels else s for s in shift), N)
            for label, (linear, shift) in WALK_MAPS.items()}


class TestCharacters:
    """tr Ad(U_w) = |tr U_w|^2 equals tr P_w = #Fix(w) on every word w: the channel and
    the walk are one mixture in two equivalent representations, so they share every
    spectrum, checked here with no eigensolve.  The check sees the maps only up to
    equivalence; covariance pins which unitary goes with which map."""

    @pytest.mark.parametrize("N", sorted(CHARACTER_WORDS))
    def test_trace_square_counts_fixed_points(self, N):
        assert _character_gap(N, generator_map(N)) < 1e-9

    @pytest.mark.parametrize("N", [3, 15, 45])
    def test_every_shift_negated_still_passes(self, N):
        # conjugation by v -> -v: an equivalent representation
        assert _character_gap(N, _negated_shifts(N, set(WALK_MAPS))) < 1e-9

    @pytest.mark.parametrize("N", [15, 45])
    def test_one_inverse_pair_negated_fails(self, N):
        assert _character_gap(N, _negated_shifts(N, {"T2", "T2inv"})) > 0.5

    @pytest.mark.parametrize("N", [15, 45])
    def test_shear_two_unitaries_on_shear_one_maps_fail(self, N):
        quantum = {label: AffineMap(_SHEAR_TWO.get(linear, linear), shift, N)
                   for label, (linear, shift) in WALK_MAPS.items()}
        assert _character_gap(N, quantum) > 0.5


class TestKrausValidation:
    def test_map_of_another_modulus_refused(self):
        with pytest.raises(ValueError, match="map modulus 7 != context N 5"):
            KrausChannel(PhaseSpaceContext(5), (AffineMap(((1, 0), (0, 1)), (0, 0), 7),))

    def test_map_that_is_not_a_unit_shear_refused(self):
        # Refused when the channel is built, not at its first apply.
        J = AffineMap(((0, 1), (4, 0)), (0, 0), 5)
        with pytest.raises(ValueError, match="is not a unit shear"):
            KrausChannel(PhaseSpaceContext(5), (AffineMap(((1, 0), (0, 1)), (0, 0), 5), J))

    def test_context_that_is_not_a_phase_space_context_refused(self):
        with pytest.raises(ValueError, match="ctx must be a PhaseSpaceContext, got 5"):
            KrausChannel(5, (generator_map(5)["T1"],))

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
