from functools import reduce

import numpy as np
import pytest

from margulis.phasespace import (PhaseSpaceContext, _antidiagonal_indices, affine_action,
                                 affine_unitary, boost_op, fourier, inverse_wigner,
                                 operator_from_json, operator_to_json, parity,
                                 phase_point, quadratic_phase, shift_op,
                                 weyl, wigner)
from margulis.walk import AffineMap, GridDist, apply_affine, generator_map, walk_step
from oracles import LINEAR_WORDS, phase_point_basis, word_unitary

ODD_N = [3, 5, 7, 9]


def assert_unitary(U, tol=1e-12):
    assert np.allclose(U @ U.conj().T, np.eye(U.shape[0]), atol=tol)


def phase_blind_equal(A, B, tol=1e-10):
    t = np.trace(A.conj().T @ B)
    return abs(abs(t) - A.shape[0]) < tol


class TestContext:
    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            PhaseSpaceContext(4)

    @pytest.mark.parametrize("N", ODD_N)
    def test_half_inverse(self, N):
        ctx = PhaseSpaceContext(N)
        assert (2 * ctx.inv2) % N == 1


class TestShiftBoost:
    def test_zero_arguments_give_identity(self):
        ctx = PhaseSpaceContext(5)
        x0, z0 = shift_op(ctx, 0), boost_op(ctx, 0)
        assert np.allclose(x0, np.eye(5)) and np.allclose(z0, np.eye(5))

    def test_shift_permutation_n3(self):
        ctx = PhaseSpaceContext(3)
        x1 = shift_op(ctx, 1)
        expected = np.zeros((3, 3))
        for k in range(3):
            expected[(k + 1) % 3, k] = 1
        assert np.allclose(x1, expected)

    def test_boost_diagonal_n3(self):
        ctx = PhaseSpaceContext(3)
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(boost_op(ctx, 1), np.diag([1, w, w**2]))

    @pytest.mark.parametrize("N", ODD_N)
    def test_unitarity(self, N):
        ctx = PhaseSpaceContext(N)
        assert_unitary(shift_op(ctx, 2))
        assert_unitary(boost_op(ctx, 3))


class TestWeyl:
    def test_origin_is_identity(self):
        ctx = PhaseSpaceContext(7)
        assert np.allclose(weyl(ctx, 0, 0), np.eye(7))

    def test_composition_phase_n3(self):
        ctx = PhaseSpaceContext(3)
        lhs = weyl(ctx, 1, 0) @ weyl(ctx, 0, 1)
        assert np.allclose(lhs, np.exp(4j * np.pi / 3) * weyl(ctx, 1, 1), atol=1e-12)

    @pytest.mark.parametrize("N", ODD_N)
    def test_unitarity(self, N):
        ctx = PhaseSpaceContext(N)
        for p, q in [(1, 2), (N - 1, 3 % N), (2, 2)]:
            assert_unitary(weyl(ctx, p, q))

    @pytest.mark.parametrize("N", ODD_N)
    def test_composition_law(self, N):
        # w(a) w(b) = omega^{inv2 (p q' - p' q)} w(a+b)
        ctx = PhaseSpaceContext(N)
        rng = np.random.default_rng(10)
        for _ in range(50):
            p, q, pp, qq = (int(v) for v in rng.integers(0, N, 4))
            phase = np.exp(2j * np.pi * (ctx.inv2 * (p * qq - pp * q) % N) / N)
            lhs = weyl(ctx, p, q) @ weyl(ctx, pp, qq)
            rhs = phase * weyl(ctx, (p + pp) % N, (q + qq) % N)
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestPhasePoint:
    def test_parity_permutation_n3(self):
        P = parity(PhaseSpaceContext(3))
        expected = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        assert np.allclose(P, expected)

    @pytest.mark.parametrize("N", ODD_N)
    def test_parity_involution_and_trace(self, N):
        P = parity(PhaseSpaceContext(N))
        assert np.allclose(P @ P, np.eye(N), atol=1e-14)
        assert np.trace(P) == pytest.approx(1.0)

    def test_origin_is_parity(self):
        ctx = PhaseSpaceContext(5)
        assert np.allclose(phase_point(ctx, 0, 0), parity(ctx))

    @pytest.mark.parametrize("N", ODD_N)
    def test_orthonormal_basis(self, N):
        basis = phase_point_basis(PhaseSpaceContext(N))
        gram = np.einsum("vij,wji->vw", basis, basis) / N
        assert np.max(np.abs(gram - np.eye(N * N))) < 1e-10

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_sum_is_n_times_identity(self, N):
        basis = phase_point_basis(PhaseSpaceContext(N))
        assert np.allclose(basis.sum(axis=0), N * np.eye(N), atol=1e-10)

    @pytest.mark.parametrize("N", [3, 7])
    def test_hermitian_involution_unit_trace(self, N):
        ctx = PhaseSpaceContext(N)
        for p, q in [(1, 0), (2, 2), (0, N - 1)]:
            A = phase_point(ctx, p, q)
            assert np.allclose(A, A.conj().T, atol=1e-13)
            assert np.allclose(A @ A, np.eye(N), atol=1e-13)
            assert np.trace(A) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("N", ODD_N)
    def test_weyl_translation(self, N):
        ctx = PhaseSpaceContext(N)
        basis = phase_point_basis(ctx)
        rng = np.random.default_rng(11)
        for _ in range(50):
            ap, aq, bp, bq = (int(v) for v in rng.integers(0, N, 4))
            w = weyl(ctx, ap, aq)
            moved = w @ basis[bp * N + bq] @ w.conj().T
            target = basis[((ap + bp) % N) * N + (aq + bq) % N]
            assert np.linalg.norm(moved - target) < 1e-11


class TestWigner:
    def test_maximally_mixed_is_flat(self):
        ctx = PhaseSpaceContext(5)
        W = wigner(ctx, np.eye(5) / 5.0)
        assert np.allclose(W.values, 1.0 / 25.0, atol=1e-12)

    def test_parity_gives_origin_delta(self):
        ctx = PhaseSpaceContext(7)
        W = wigner(ctx, parity(ctx)).values
        expected = np.zeros((7, 7))
        expected[0, 0] = 1.0
        assert np.allclose(W, expected, atol=1e-12)

    def test_ground_projector_n3(self):
        ctx = PhaseSpaceContext(3)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        W = wigner(ctx, rho).values
        assert np.allclose(W[:, 0], 1.0 / 3.0, atol=1e-12)
        assert np.allclose(W[:, 1:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("N", ODD_N)
    def test_normalization(self, N):
        ctx = PhaseSpaceContext(N)
        rng = np.random.default_rng(12)
        g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        rho = (g + g.conj().T) / 2
        W = wigner(ctx, rho)
        assert W.values.sum() == pytest.approx(np.trace(rho).real, abs=1e-10)

    def test_non_hermitian_rejected(self):
        ctx = PhaseSpaceContext(3)
        bad = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="hermitian"):
            wigner(ctx, bad)

    @pytest.mark.parametrize("kind,accepted", [
        ("exact", True), ("rounding", True), ("relative", True),
        ("outside", False), ("nan", False)])
    def test_accepts_what_allclose_accepts(self, kind, accepted):
        # The max|rho - rho^dag| <= atol shortcut only settles inputs that
        # allclose passes too; "relative" passes through allclose's rtol alone.
        N = 5
        g = np.random.default_rng(29).standard_normal((N, N, 2)) @ (1, 1j)
        rho = (g + g.conj().T) / 2
        scale, offset = {"exact": (1, 0), "rounding": (1, 1e-14), "relative": (1e6, 1e-6),
                         "outside": (1, 1e-2), "nan": (1, np.nan)}[kind]
        rho = scale * rho
        rho[0, 1] += offset
        assert np.allclose(rho, rho.conj().T, atol=1e-10) == accepted
        if accepted:
            wigner(PhaseSpaceContext(N), rho)
        else:
            with pytest.raises(ValueError, match="hermitian"):
                wigner(PhaseSpaceContext(N), rho)

    def test_antidiagonal_indices_cached_read_only(self):
        pair = _antidiagonal_indices(7)
        assert pair is _antidiagonal_indices(7)
        assert not any(k.flags.writeable for k in pair)

    def test_inverse_on_flat_table(self):
        ctx = PhaseSpaceContext(5)
        flat = GridDist(5, np.full((5, 5), 1.0 / 25.0))
        assert np.allclose(inverse_wigner(ctx, flat), np.eye(5) / 5.0, atol=1e-12)

    def test_inverse_on_delta_table(self):
        ctx = PhaseSpaceContext(5)
        table = GridDist.delta(5, 2, 3)
        assert np.allclose(inverse_wigner(ctx, table), phase_point(ctx, 2, 3), atol=1e-12)

    @pytest.mark.parametrize("N", [3, 7])
    def test_round_trip(self, N):
        ctx = PhaseSpaceContext(N)
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            rho = (g + g.conj().T) / 2
            back = inverse_wigner(ctx, wigner(ctx, rho))
            assert np.max(np.abs(back - rho)) < 1e-12

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="modulus"):
            inverse_wigner(PhaseSpaceContext(5), GridDist.delta(7))

    @pytest.mark.parametrize("N", [3, 5, 7, 9, 15, 25, 27, 31])
    def test_closed_form_matches_phase_point_oracle(self, N):
        ctx = PhaseSpaceContext(N)
        basis = phase_point_basis(ctx)
        rng = np.random.default_rng(100 + N)
        g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        rho = (g + g.conj().T) / 2
        expected = np.einsum("vij,ji->v", basis, rho).real.reshape(N, N) / N
        table = wigner(ctx, rho)
        assert np.max(np.abs(table.values - expected)) < 1e-13
        oracle = np.einsum("v,vij->ij", table.values.reshape(-1), basis)
        assert np.max(np.abs(inverse_wigner(ctx, table) - oracle)) < 1e-13


class TestFourier:
    def test_matrix_entries_n3(self):
        ctx = PhaseSpaceContext(3)
        F = fourier(ctx)
        for j in range(3):
            for k in range(3):
                assert F[k, j] == pytest.approx(np.exp(2j * np.pi * j * k / 3) / np.sqrt(3))

    def test_conjugates_boost_to_inverse_shift(self):
        # F z(1) F^dag = x(-1); equivalently x(1) = F^dag z(1) F.
        for N in (3, 5, 9):
            ctx = PhaseSpaceContext(N)
            F = fourier(ctx)
            assert np.allclose(F @ boost_op(ctx, 1) @ F.conj().T,
                               shift_op(ctx, N - 1), atol=1e-12)
            assert np.allclose(F.conj().T @ boost_op(ctx, 1) @ F,
                               shift_op(ctx, 1), atol=1e-12)

    @pytest.mark.parametrize("N", ODD_N)
    def test_fourth_power_is_identity(self, N):
        F = fourier(PhaseSpaceContext(N))
        assert np.allclose(np.linalg.matrix_power(F, 4), np.eye(N), atol=1e-12)


class TestQuadraticPhase:
    def test_minus_sign_diagonal_n3(self):
        # diag(1, omega^{-1}, omega^{-4}) = diag(1, omega^2, omega^2)
        ctx = PhaseSpaceContext(3)
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(quadratic_phase(ctx, -1), np.diag([1, w**2, w**2]), atol=1e-13)

    def test_signs_are_mutual_adjoints(self):
        ctx = PhaseSpaceContext(7)
        Up, Um = quadratic_phase(ctx, +1), quadratic_phase(ctx, -1)
        assert np.allclose(Up @ Um, np.eye(7), atol=1e-13)
        assert np.allclose(Up, Um.conj().T, atol=1e-13)

    def test_plus_sign_implements_s1_n5(self):
        N = 5
        ctx = PhaseSpaceContext(N)
        Up = quadratic_phase(ctx, +1)
        basis = phase_point_basis(ctx)
        for p in range(N):
            for q in range(N):
                target = basis[((p + 2 * q) % N) * N + q]
                moved = Up @ basis[p * N + q] @ Up.conj().T
                assert np.linalg.norm(moved - target) < 1e-11

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            quadratic_phase(PhaseSpaceContext(3), 2)


def shear(symbol, N):
    """The unshifted map of a walk linear part, mod N."""
    return AffineMap(LINEAR_WORDS[symbol][0], (0, 0), N)


class TestMetaplectic:
    def test_single_s1_covariance_n7(self):
        N = 7
        ctx = PhaseSpaceContext(N)
        mu = affine_unitary(ctx, shear("S1", N))
        basis = phase_point_basis(ctx)
        for p in range(N):
            for q in range(N):
                target = basis[((p + 2 * q) % N) * N + q]
                assert np.linalg.norm(mu @ basis[p * N + q] @ mu.conj().T - target) < 1e-11

    def test_s2_is_conjugated_quadratic(self):
        ctx = PhaseSpaceContext(5)
        F = fourier(ctx)
        expected = F @ quadratic_phase(ctx, -1) @ F.conj().T
        assert phase_blind_equal(affine_unitary(ctx, shear("S2", 5)), expected)

    def test_word_with_inverse_is_identity_up_to_phase(self):
        ctx = PhaseSpaceContext(7)
        mu = affine_unitary(ctx, shear("S1", 7)) @ affine_unitary(ctx, shear("S1inv", 7))
        assert phase_blind_equal(mu, np.eye(7))

    @pytest.mark.parametrize("N", [5, 9])
    def test_word_product_covariance(self, N):
        # Covariance of a product of shears on both axes matches the matrix product.
        ctx = PhaseSpaceContext(N)
        word = ["S1", "S2", "S2inv", "S2inv"]
        mu = reduce(np.matmul, (affine_unitary(ctx, shear(s, N)) for s in word))
        (a, b), (c, d) = reduce(np.matmul, (LINEAR_WORDS[s][0] for s in word)) % N
        basis = phase_point_basis(ctx)
        for p, q in [(1, 0), (0, 1), (2, 3 % N), (N - 1, N - 2)]:
            tp, tq = (a * p + b * q) % N, (c * p + d * q) % N
            moved = mu @ basis[p * N + q] @ mu.conj().T
            assert np.linalg.norm(moved - basis[tp * N + tq]) < 1e-11


class TestAffineUnitary:
    def test_t1_is_quadratic_plus(self):
        ctx = PhaseSpaceContext(7)
        T1 = generator_map(7)["T1"]
        assert np.allclose(affine_unitary(ctx, T1), quadratic_phase(ctx, +1), atol=1e-13)

    def test_t2_is_displaced_quadratic(self):
        ctx = PhaseSpaceContext(7)
        T2 = generator_map(7)["T2"]
        expected = weyl(ctx, 1, 0) @ quadratic_phase(ctx, +1)
        assert np.allclose(affine_unitary(ctx, T2), expected, atol=1e-13)

    def test_identity_map(self):
        ctx = PhaseSpaceContext(5)
        U = affine_unitary(ctx, AffineMap(((1, 0), (0, 1)), (0, 0), 5))
        assert np.allclose(U, np.eye(5), atol=1e-13)

    @pytest.mark.parametrize("N", ODD_N + [15])
    def test_covariance_all_generators(self, N):
        ctx = PhaseSpaceContext(N)
        basis = phase_point_basis(ctx)
        for T in generator_map(N).values():
            U = affine_unitary(ctx, T)
            assert_unitary(U)
            for p in range(N):
                for q in range(N):
                    tp, tq = apply_affine(T, (p, q))
                    moved = U @ basis[p * N + q] @ U.conj().T
                    assert np.linalg.norm(moved - basis[tp * N + tq]) < 1e-10

    @pytest.mark.parametrize("N", list(range(3, 50, 2)) + [243])
    def test_closed_form_matches_word_product(self, N):
        # The oracle is w(shift) times the word's matrix product, for the
        # identity and every walk linear part, at random shifts; the action
        # is checked on a vector, three columns and a square block, each
        # column of unit norm.
        ctx = PhaseSpaceContext(N)
        rng = np.random.default_rng(N)
        for symbol in [None, *LINEAR_WORDS]:
            linear = LINEAR_WORDS[symbol][0] if symbol else ((1, 0), (0, 1))
            mu = word_unitary(ctx, [symbol]) if symbol else np.eye(N)
            for shift in rng.integers(-N, 2 * N, size=(3, 2)).tolist():
                T = AffineMap(linear, shift, N)
                expected = weyl(ctx, *T.shift) @ mu
                assert np.max(np.abs(affine_unitary(ctx, T) - expected)) <= 1e-13
                for shape in [(N,), (N, 3), (N, N)]:
                    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    X /= np.linalg.norm(X, axis=0)
                    assert affine_action(ctx, T, X).shape == shape
                    assert np.max(np.abs(affine_action(ctx, T, X) - expected @ X)) <= 1e-13

    def test_action_refuses_a_wrong_row_count(self):
        ctx = PhaseSpaceContext(5)
        for X in (np.ones(1), np.ones((4, 5)), np.ones((25,))):
            with pytest.raises(ValueError, match="expected 5 rows"):
                affine_action(ctx, generator_map(5)["T2"], X)

    def test_unsupported_linear_part(self):
        # J and a dilation have det 1 mod 9, but neither is a unit shear.
        ctx = PhaseSpaceContext(9)
        for linear in (((0, 1), (-1, 0)), ((2, 0), (0, 5))):
            with pytest.raises(ValueError, match="is not a unit shear"):
                affine_unitary(ctx, AffineMap(linear, (0, 0), 9))

    def test_modulus_mismatch(self):
        ctx = PhaseSpaceContext(7)
        with pytest.raises(ValueError, match="modulus"):
            affine_unitary(ctx, AffineMap(((1, 0), (0, 1)), (0, 0), 5))

    @pytest.mark.parametrize("N", [5, 7])
    def test_wigner_pullback(self, N):
        # Conjugating rho by U_T permutes its Wigner table by T^{-1}.
        ctx = PhaseSpaceContext(N)
        rng = np.random.default_rng(14)
        g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        rho = (g + g.conj().T) / 2
        W = wigner(ctx, rho).values
        for T in generator_map(N).values():
            U = affine_unitary(ctx, T)
            left = wigner(ctx, U @ rho @ U.conj().T).values
            Ti = T.inverse()
            pulled = np.empty_like(W)
            for p in range(N):
                for q in range(N):
                    ip, iq = apply_affine(Ti, (p, q))
                    pulled[p, q] = W[ip, iq]
            assert np.allclose(left, pulled, atol=1e-10)


class TestWignerEvolutionMatchesWalk:
    @pytest.mark.parametrize("N", [5, 7])
    def test_point_mass_evolution(self, N):
        # Evolving A(0,0) under conjugation-averaging matches the lattice walk
        # on its Wigner table.
        ctx = PhaseSpaceContext(N)
        rho = parity(ctx)
        out = np.zeros((N, N), dtype=complex)
        for T in generator_map(N).values():
            U = affine_unitary(ctx, T)
            out += U @ rho @ U.conj().T
        out /= 8.0
        assert np.allclose(wigner(ctx, out).values,
                           walk_step(wigner(ctx, rho)).values, atol=1e-12)


class TestOperatorDump:
    def test_round_trip(self):
        ctx = PhaseSpaceContext(5)
        op = weyl(ctx, 1, 2)
        back = operator_from_json(operator_to_json(op))
        assert np.allclose(back, op, atol=0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            operator_to_json(np.zeros((2, 3)))

    @pytest.mark.parametrize("text", [
        '{"dim": 2}', "[1]", "3", '{"dim": 2, "re": [[1, 0], [0, 1]]}',
        '{"dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}',
        '{"dim": 2, "re": [[1, 0], [0, NaN]], "im": [[0, 0], [0, 0]]}',
        '{"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, Infinity]]}',
        '{"dim": 2, "re": [[1, 0], [0, "1"]], "im": [[0, 0], [0, 0]]}',
        '{"dim": 2, "re": [[1, 0], [0, null]], "im": [[0, 0], [0, 0]]}',
        '{"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
        '{"dim": "2", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
        '{"dim": true, "re": [[1]], "im": [[0]]}',
        '{"dim": 1, "re": [[true]], "im": [[0]]}',
    ])
    def test_rejects_malformed_dumps(self, text):
        with pytest.raises(ValueError, match="operator dump"):
            operator_from_json(text)
