import cmath
import json
from pathlib import Path

import numpy as np
import pytest

from margulis.circuits import (Gate, GateList, _qft_gates, affine_circuit, apply_gates,
                               circuit_deviation, evaluate, gate_list_to_jsonl, inverse_gates,
                               quadratic_circuit, weyl_circuit)
from margulis.phasespace import (PhaseSpaceContext, affine_unitary, fourier,
                                 quadratic_phase, weyl)
from margulis.walk import AffineMap, apply_affine, generator_map
from oracles import phase_blind_equal, phase_point_basis, quadratic_diagonal

DN = [(3, 2), (3, 3), (5, 2)]

GOLDEN_DIR = Path(__file__).parent / "golden"


def ctx_for(d, n):
    return PhaseSpaceContext(d ** n)


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Gate("hadamard", 3, (1,))

    def test_nonpositive_modulus(self):
        with pytest.raises(ValueError, match="M"):
            Gate("linear_phase", 3, (1,), 1, 0)

    def test_cphase_needs_distinct_targets(self):
        with pytest.raises(ValueError, match="distinct"):
            Gate("cphase", 3, (1, 1), 1, 3)

    def test_target_arity(self):
        with pytest.raises(ValueError, match="target"):
            Gate("fourier", 3, (1, 2))

    def test_gate_list_range_check(self):
        g = Gate("fourier", 3, (3,))
        with pytest.raises(ValueError, match="targets"):
            GateList(3, 2, (g,))

    @pytest.mark.parametrize("args,kwargs,message", [
        ((1, 1, ()), {}, "d must be >= 2, got 1"),
        ((3, 0, ()), {}, "n must be >= 1, got 0"),
        ((3, 1, ()), {"phase_den": 0}, "phase_den must be >= 1, got 0"),
        ((3.0, 1, ()), {}, "d must be an integer, got 3.0"),
        ((3, 1, ()), {"phase_num": 0.5}, "phase_num must be an integer, got 0.5"),
    ], ids=["d", "n", "phase_den", "float-d", "float-phase_num"])
    def test_gate_list_register_check(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            GateList(*args, **kwargs)

    @pytest.mark.parametrize("args,message", [
        ((3, (1.5,)), "targets must be an integer, got 1.5"),
        ((3.0, (1,)), "d must be an integer, got 3.0"),
        ((1, (1,)), "d must be >= 2, got 1"),
    ], ids=["float-target", "float-d", "d"])
    def test_gate_field_check(self, args, message):
        with pytest.raises(ValueError, match=message):
            Gate("fourier", *args)

    def test_non_integer_phase_coefficient_refused(self):
        with pytest.raises(ValueError, match="c must be an integer, got 1.5"):
            Gate("linear_phase", 3, (1,), 1.5, 3)

    def test_numpy_integer_parameters_accepted(self):
        g = Gate("linear_phase", 3, (1,), np.int64(2), np.int64(9))
        assert GateList(np.int64(3), np.int64(2), (g,), np.int64(1), np.int64(3)).dim == 9

    def test_gate_list_dimension_check(self):
        g = Gate("fourier", 5, (1,))
        with pytest.raises(ValueError, match="dimension"):
            GateList(3, 2, (g,))

    def test_gates_are_hashable_and_exact(self):
        a = Gate("cphase", 3, (1, 2), -1, 9)
        b = Gate("cphase", 3, (1, 2), -1, 9)
        assert a == b and hash(a) == hash(b)


def qft(d, n):
    return GateList(d, n, _qft_gates(d, n))


class TestDigits:
    def test_most_significant_first(self):
        # Qudit 1 holds j_1 = 2 of 7 = 2*3 + 1.
        m = evaluate(GateList(3, 2, (Gate("linear_phase", 3, (1,), 1, 3),)))
        assert m[7, 7] == pytest.approx(np.exp(2j * np.pi * 2 / 3))

    @pytest.mark.parametrize("d,n", [(3, 2), (5, 2)])
    def test_embedding_matches_dense_basis(self, d, n):
        # |j> with digits (j_1 .. j_n) is the kron-product basis vector.
        dim = d ** n
        for j in range(dim):
            vec = np.zeros(dim)
            vec[j] = 1.0
            factors = [np.eye(d)[:, jl] for jl in np.unravel_index(j, (d,) * n)]
            acc = factors[0]
            for f in factors[1:]:
                acc = np.kron(acc, f)
            assert np.allclose(vec, acc)


def column_by_definition(g, n, j):
    """Image of the basis state |j> under g, written out from the gate kinds."""
    d = g.d
    js = np.unravel_index(j, (d,) * n)
    col = np.zeros(d ** n, dtype=complex)
    if g.kind == "reverse":
        col[np.ravel_multi_index(js[::-1], (d,) * n)] = 1.0
    elif g.kind in ("fourier", "fourier_inv"):
        sign = 1 if g.kind == "fourier" else -1
        t = g.targets[0] - 1
        for k in range(d):
            out = js[:t] + (k,) + js[t + 1:]
            col[np.ravel_multi_index(out, (d,) * n)] = np.exp(sign * 2j * np.pi * js[t] * k / d) / np.sqrt(d)
    else:
        jt = [js[t - 1] for t in g.targets]
        e = {"linear_phase": jt[0], "quadratic_phase": jt[0] ** 2,
             "cphase": jt[0] * jt[-1]}[g.kind]
        col[j] = np.exp(2j * np.pi * g.c * e / g.M)
    return col


GATES_BY_KIND = [
    (3, Gate("linear_phase", 3, (2,), 2, 9)),
    (3, Gate("quadratic_phase", 3, (3,), -1, 27)),
    (3, Gate("cphase", 3, (1, 3), 2, 9)),
    (3, Gate("cphase", 3, (3, 1), 2, 9)),
    (3, Gate("fourier", 3, (1,))),
    (3, Gate("fourier_inv", 3, (2,))),
    (3, Gate("reverse", 3)),
    (2, Gate("linear_phase", 5, (1,), 3, 25)),
    (2, Gate("quadratic_phase", 5, (2,), 1, 5)),
    (2, Gate("cphase", 5, (1, 2), -2, 25)),
    (2, Gate("cphase", 5, (2, 1), -2, 25)),
    (2, Gate("fourier", 5, (2,))),
    (2, Gate("fourier_inv", 5, (1,))),
    (2, Gate("reverse", 5)),
]


class TestEvaluate:
    @pytest.mark.parametrize("n,g", GATES_BY_KIND, ids=[
        "-".join([f"d{g.d}n{n}", g.kind, *map(str, g.targets)]) for n, g in GATES_BY_KIND])
    def test_gate_matches_its_definition(self, n, g):
        m = evaluate(GateList(g.d, n, (g,)))
        for j in range(g.d ** n):
            assert np.allclose(m[:, j], column_by_definition(g, n, j), atol=1e-13)

    def test_empty_list_is_identity(self):
        gl = GateList(3, 2, ())
        assert np.allclose(evaluate(gl), np.eye(9))

    def test_single_fourier_on_lone_qudit(self):
        gl = GateList(3, 1, (Gate("fourier", 3, (1,)),))
        assert np.allclose(evaluate(gl), fourier(PhaseSpaceContext(3)), atol=1e-13)

    def test_reversed_inverse_list_inverts_product(self):
        gl = qft(3, 2)
        inv = GateList(3, 2, inverse_gates(gl.gates))
        assert np.allclose(evaluate(inv) @ evaluate(gl), np.eye(9), atol=1e-12)

    def test_reverse_gate_is_digit_reversal(self):
        m = evaluate(GateList(3, 2, (Gate("reverse", 3),)))
        for j in range(9):
            out = np.argmax(np.abs(m[:, j]))
            assert np.unravel_index(out, (3, 3)) == np.unravel_index(j, (3, 3))[::-1]

    def test_diagonal_gates_are_unitary(self):
        for g in quadratic_circuit(3, 3, -1).gates:
            m = evaluate(GateList(3, 3, (g,)))
            assert np.allclose(m @ m.conj().T, np.eye(27), atol=1e-12)

    @pytest.mark.parametrize("n,g", [
        (1, Gate("quadratic_phase", 177147, (1,), 10**10 - 1, 10**10)),
        (2, Gate("cphase", 243, (1, 2), 10**15 - 1, 10**15)),
        (1, Gate("linear_phase", 3, (1,), 10**399, 10**400)),
        (1, Gate("linear_phase", 3, (1,), np.int64(2**62 + 3), 2**64 + 1)),
    ], ids=["quadratic_phase", "cphase", "linear_phase-past-float-range",
            "linear_phase-numpy-coefficient"])
    def test_phase_products_past_int64_are_exact(self, n, g):
        # M is past isqrt(2**63 - 1), so c * e leaves int64 for the largest digits;
        # the first gate's last state takes 0.647-0.763i, the third's turn by tenths.
        e = {"quadratic_phase": lambda j: j * j, "linear_phase": lambda j: j,
             "cphase": lambda j: (j // g.d) * (j % g.d)}[g.kind]
        exact = [cmath.exp(2j * cmath.pi * (int(g.c) * e(j) % g.M / g.M)) for j in range(g.d ** n)]
        out = apply_gates(GateList(g.d, n, (g,)), np.ones(g.d ** n))
        assert np.allclose(out, exact, rtol=0, atol=1e-12)

    def test_global_phase_annotation_applied(self):
        gl = GateList(3, 1, (), phase_num=1, phase_den=3)
        assert np.allclose(evaluate(gl), np.exp(2j * np.pi / 3) * np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("num,den", [(1, 10**400), (2**64 + 1, 2**65), (3, 2**64)],
                             ids=["den-past-float-range", "num-and-den-past-int64",
                                  "den-past-int64"])
    def test_global_phase_exact_past_int64(self, num, den):
        exact = cmath.exp(2j * cmath.pi * (num % den / den))
        assert abs(GateList(3, 1, (), num, den).global_phase() - exact) < 1e-15

    def test_apply_gates_is_the_dense_unitary_on_states(self):
        # T4's list has every gate kind: Fourier pairs, phases and a reversal.
        gl = affine_circuit(3, 3, generator_map(27)["T4"])
        U = evaluate(gl)
        rng = np.random.default_rng(3)
        for shape in [(27,), (27, 3)]:
            X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.allclose(apply_gates(gl, X), U @ X, atol=1e-12)
        with pytest.raises(ValueError, match="expected 27 rows"):
            apply_gates(gl, np.ones(54))


class TestQftCircuit:
    def test_single_qudit_is_one_gate(self):
        gl = qft(3, 1)
        assert len(gl.gates) == 1 and gl.gates[0].kind == "fourier"
        assert np.allclose(evaluate(gl), fourier(PhaseSpaceContext(3)), atol=1e-13)

    @pytest.mark.parametrize("d,n", DN)
    def test_matches_dense_fourier(self, d, n):
        assert phase_blind_equal(evaluate(qft(d, n)), fourier(ctx_for(d, n)))

    def test_gate_count_model(self):
        # count = n + n(n-1)/2 + [n > 1]  <=  2 n^2 for n >= 1
        for n in range(1, 5):
            count = len(qft(3, n).gates)
            assert count == n + n * (n - 1) // 2 + (1 if n > 1 else 0)
            assert count <= 2 * n * n

    def test_with_inverse_gives_identity_up_to_phase(self):
        gl = qft(3, 3)
        inv = GateList(3, 3, inverse_gates(gl.gates))
        prod = evaluate(GateList(3, 3, gl.gates + inv.gates))
        assert phase_blind_equal(prod, np.eye(27))


class TestQuadraticCircuit:
    def test_single_qudit_is_exact(self):
        for s in (1, -1):
            gl = quadratic_circuit(3, 1, s)
            assert len(gl.gates) == 1
            assert np.allclose(evaluate(gl), quadratic_phase(PhaseSpaceContext(3), s),
                               atol=1e-13)

    @pytest.mark.parametrize("d,n", DN)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_dense(self, d, n, sign):
        assert phase_blind_equal(evaluate(quadratic_circuit(d, n, sign)),
                                 quadratic_phase(ctx_for(d, n), sign))

    def test_emitted_count_3_3(self):
        # Unordered pairs (l, l') with l + l' > n = 3: (1,3), (2,2), (2,3), (3,3).
        gl = quadratic_circuit(3, 3, 1)
        assert len(gl.gates) == 4
        kinds = sorted(g.kind for g in gl.gates)
        assert kinds == ["cphase", "cphase", "quadratic_phase", "quadratic_phase"]

    def test_off_diagonal_coefficient_doubled(self):
        gl = quadratic_circuit(3, 3, 1)
        for g in gl.gates:
            assert abs(g.c) == (2 if g.kind == "cphase" else 1)

    def test_k_zero_mod_n_emits_no_gates(self):
        for k in (0, 9, -18):
            assert quadratic_circuit(3, 2, k).gates == ()

    def test_non_integer_k_refused(self):
        with pytest.raises(ValueError, match="integer"):
            quadratic_circuit(3, 2, 0.5)

    def test_non_integer_qudit_dimension_refused(self):
        with pytest.raises(ValueError, match="qudit dimension must be an integer, got 3.0"):
            quadratic_circuit(3.0, 2, 1)

    def test_non_integer_qudit_count_refused(self):
        with pytest.raises(ValueError, match="n must be an integer, got 2.0"):
            quadratic_circuit(3, 2.0, 1)

    @pytest.mark.parametrize("d,n", DN)
    @pytest.mark.parametrize("k", [2, -4, 7])
    def test_any_coefficient_matches_dense(self, d, n, k):
        assert phase_blind_equal(evaluate(quadratic_circuit(d, n, k)),
                                 quadratic_diagonal(ctx_for(d, n), k))


class TestWeylCircuit:
    def test_zero_displacement_is_empty(self):
        gl = weyl_circuit(3, 2, 0, 0)
        assert gl.gates == () and gl.phase_num == 0

    def test_boost_is_exact_and_local(self):
        gl = weyl_circuit(3, 2, 1, 0)
        assert len(gl.gates) == 2
        assert all(g.kind == "linear_phase" for g in gl.gates)
        assert np.allclose(evaluate(gl), weyl(ctx_for(3, 2), 1, 0), atol=1e-13)

    def test_non_integer_label_refused(self):
        with pytest.raises(ValueError, match="c must be an integer, got 1.5"):
            weyl_circuit(3, 2, 1.5, 1)

    def test_non_integer_qudit_count_refused(self):
        with pytest.raises(ValueError, match="n must be an integer, got 2.0"):
            weyl_circuit(3, 2.0, 1, 0)

    def test_shift_matches_dense(self):
        assert phase_blind_equal(evaluate(weyl_circuit(3, 2, 0, 1)), weyl(ctx_for(3, 2), 0, 1))

    @pytest.mark.parametrize("d,n", DN)
    def test_general_displacement_exact_with_annotation(self, d, n):
        # The scalar prefactor annotation makes the match exact, not just
        # up to phase.
        N = d ** n
        rng = np.random.default_rng(30)
        for _ in range(5):
            p, q = (int(v) for v in rng.integers(0, N, 2))
            gl = weyl_circuit(d, n, p, q)
            assert np.allclose(evaluate(gl), weyl(ctx_for(d, n), p, q), atol=1e-11)

    def test_numpy_labels_give_the_exact_scalar(self):
        # At N = 3^14 the unreduced scalar inv2 * p * q of (N-1, N-1) is about
        # 5.5e19: as an np.int64 product it wraps, to the phase 3679297.
        N = 3 ** 14
        gl = weyl_circuit(3, 14, np.int64(N - 1), np.int64(N - 1))
        assert gl.phase_num == 2391484 and gl.phase_den == N


class TestAffineCircuit:
    @pytest.mark.parametrize("d,n", DN)
    def test_all_walk_maps_match_dense(self, d, n):
        N = d ** n
        ctx = ctx_for(d, n)
        for T in generator_map(N).values():
            assert phase_blind_equal(evaluate(affine_circuit(d, n, T)), affine_unitary(ctx, T))

    @pytest.mark.parametrize("d", [3 ** 10, 3 ** 11])
    def test_every_map_exact_on_one_large_qudit(self, d):
        # The chirp gate's c * j^2 reaches about d^3 / 2 here: only the product
        # reduced mod M = d before it is scaled keeps every phase to about 1e-15.
        ctx = PhaseSpaceContext(d)
        for T in generator_map(d).values():
            assert circuit_deviation(ctx, T, affine_circuit(d, 1, T), 7) <= 1e-13

    def test_t1_is_plain_quadratic_circuit(self):
        T1 = generator_map(9)["T1"]
        gl = affine_circuit(3, 2, T1)
        assert gl.gates == quadratic_circuit(3, 2, 1).gates

    def test_t3_word_shape(self):
        # F . U_- . F^{-1}: inverse-Fourier block, quadratic block, Fourier block.
        T3 = generator_map(9)["T3"]
        kinds = [g.kind for g in affine_circuit(3, 2, T3).gates]
        assert kinds.count("fourier") + kinds.count("fourier_inv") >= 4
        assert phase_blind_equal(evaluate(affine_circuit(3, 2, T3)),
                                 affine_unitary(ctx_for(3, 2), generator_map(9)["T3"]))

    def test_t2_covariance_on_all_points(self):
        N = 9
        ctx = ctx_for(3, 2)
        T2 = generator_map(N)["T2"]
        U = evaluate(affine_circuit(3, 2, T2))
        basis = phase_point_basis(ctx)
        for p in range(N):
            for q in range(N):
                tp, tq = apply_affine(T2, (p, q))
                moved = U @ basis[p * N + q] @ U.conj().T
                assert np.linalg.norm(moved - basis[tp * N + tq]) < 1e-9

    def test_gate_counts_fit_quadratic_model(self):
        # Least-squares fit of a*n^2 + b on n = 1..4 per map; the synthesized
        # counts are quadratic with a small linear part, so residuals stay
        # well under 3 gates.
        ns = np.arange(1, 5)
        design = np.stack([ns**2, np.ones_like(ns)], axis=1).astype(float)
        for label in generator_map(3):
            counts = []
            for n in ns:
                T = generator_map(3 ** n)[label]
                counts.append(len(affine_circuit(3, int(n), T).gates))
            coef, *_ = np.linalg.lstsq(design, np.array(counts, dtype=float),
                                       rcond=None)
            residual = design @ coef - counts
            assert coef[0] >= 0
            assert np.max(np.abs(residual)) <= 3.0

    def test_unsupported_linear_part(self):
        # J and a dilation have det 1 mod 9, but neither is a unit shear.
        for linear in (((0, 1), (-1, 0)), ((2, 0), (0, 5))):
            with pytest.raises(ValueError, match="is not a unit shear"):
                affine_circuit(3, 2, AffineMap(linear, (0, 0), 9))

    def test_modulus_mismatch(self):
        T = generator_map(7)["T1"]
        with pytest.raises(ValueError, match="modulus"):
            affine_circuit(3, 2, T)

    def test_even_dimension_rejected(self):
        for synthesize in (lambda: quadratic_circuit(2, 3, 1), lambda: weyl_circuit(2, 3, 0, 1),
                           lambda: affine_circuit(2, 3, generator_map(9)["T1"])):
            with pytest.raises(ValueError, match="odd"):
                synthesize()


class TestSerialization:
    def test_round_trip(self):
        # Each line holds every field of the list: json alone rebuilds it.
        gl = affine_circuit(3, 2, generator_map(9)["T4"])
        head, *rows = map(json.loads, gate_list_to_jsonl(gl, "T4").splitlines())
        gates = [Gate(o["op"], o["d"], tuple(o[t] for t in ("t1", "t2") if t in o),
                      o.get("c", 0), o.get("M", 1)) for o in rows]
        assert head["transform"] == "T4"
        assert gl == GateList(head["d"], head["n"], gates,
                              head["global_phase_num"], head["global_phase_den"])

    def test_header_fields(self):
        gl = weyl_circuit(3, 2, 1, 1)
        header = json.loads(gate_list_to_jsonl(gl, "w11").splitlines()[0])
        assert header == {"d": 3, "n": 2, "transform": "w11",
                          "global_phase_num": gl.phase_num,
                          "global_phase_den": gl.phase_den}

    def test_gate_line_schema(self):
        gl = quadratic_circuit(3, 2, -1)
        lines = gate_list_to_jsonl(gl, "q").splitlines()[1:]
        objs = [json.loads(ln) for ln in lines]
        for obj in objs:
            assert obj["d"] == 3 and "op" in obj
        cphases = [o for o in objs if o["op"] == "cphase"]
        assert all({"t1", "t2", "c", "M"} <= set(o) for o in cphases)

    @pytest.mark.parametrize("d,n", [(3, 3), (5, 2)])
    def test_jsonl_is_the_golden_list(self, d, n):
        # tests/golden/gates-d{d}-n{n} holds the files of an earlier
        # `circuit --d d --qudits n`: every map's list, byte for byte.
        for label, T in generator_map(d ** n).items():
            golden = GOLDEN_DIR / f"gates-d{d}-n{n}" / f"gates-{label}.jsonl"
            assert gate_list_to_jsonl(affine_circuit(d, n, T), label).encode() == golden.read_bytes()
