import json
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import margulis
from margulis import cli, phasespace
from margulis.circuits import GateList, affine_circuit, apply_gates, gate_list_to_jsonl
from margulis.cli import MOMENTS_MAX_ITERS, main
from margulis.channel import verify_identities
from margulis.phasespace import (PhaseSpaceContext, affine_action, affine_unitary,
                                 inverse_wigner, operator_from_json, wigner)
from margulis.frames import grid_from_csv, grid_to_csv, grid_to_pgm
from margulis.walk import AffineMap, GridDist, generator_map, walk_step


#: Each refused argv and its one stderr line after "margulis: error: ".  argparse
#: names the flag; only the checks that need two flags name theirs themselves.
USAGE_ERRORS = {
    "walk --N 1003": "argument --N: 1003 exceeds the walk limit 1001",
    "walk --N 199999 --steps 0": "argument --N: 199999 exceeds the walk limit 1001",
    "walk --steps -1": "argument --steps: expected an integer >= 0, got -1",
    "walk --N x": "argument --N: expected an integer, got 'x'",
    "walk --start 1,x": "argument --start: expected 'p,q', got '1,x'",
    "spectrum --N 51": "argument --N: 51 exceeds the dense limit 49",
    "spectrum --N 3,51": "argument --N: 51 exceeds the dense limit 49",
    "spectrum --N ,": "argument --N: expected at least one N, got ','",
    "spectrum --N 3,,5": "argument --N: empty entry in '3,,5'",
    "spectrum --N 3,": "argument --N: empty entry in '3,'",
    "spectrum --N ,3": "argument --N: empty entry in ',3'",
    "spectrum --N 3,3": "argument --N: 3 is repeated",
    "spectrum --N 3,5,3": "argument --N: 3 is repeated",
    "spectrum --N 3,x": "argument --N: expected an integer, got 'x'",
    "verify --N 731": "argument --N: 731 exceeds the verify limit 729",
    "verify --seed -1": "argument --seed: expected an integer >= 0, got -1",
    "verify --trials -2": "argument --trials: expected an integer >= 1, got -2",
    "verify --trials 0": "argument --trials: expected an integer >= 1, got 0",
    "verify --tol nan": "argument --tol: expected a finite number > 0, got nan",
    "verify --tol -1": "argument --tol: expected a finite number > 0, got -1",
    "verify --tol 0": "argument --tol: expected a finite number > 0, got 0",
    "verify --tol inf": "argument --tol: expected a finite number > 0, got inf",
    "verify --tol abc": "argument --tol: expected a number, got 'abc'",
    "circuit --d 4": "argument --d: 4 is not an odd integer >= 3",
    "circuit --qudits 0": "argument --qudits/-n: expected an integer >= 1, got 0",
    "circuit --d 3 --qudits 12 --check --transform T1":
        "--check on d^qudits = 3^12 levels exceeds the circuit check limit 177147",
    "circuit --d 3 --qudits 12 --check":
        "--check on d^qudits = 3^12 levels exceeds the circuit check limit 177147",
    "circuit --d 177149 --qudits 1 --check":
        "--check on d^qudits = 177149^1 levels exceeds the circuit check limit 177147",
    "moments --iters -3": "argument --iters: expected an integer >= 0, got -3",
    "moments --iters 1025": "argument --iters: 1025 exceeds the moments limit 1024",
    "moments --iters 200000": "argument --iters: 200000 exceeds the moments limit 1024",
    "moments --gamma nan,0,1": "argument --gamma: nan,0,1 is not finite",
    "moments --gamma 1,x,1": "argument --gamma: expected 'a,b,c', got '1,x,1'",
    "moments --mean 1,x": "argument --mean: expected 'x,p', got '1,x'",
    "moments --mean inf,0": "argument --mean: inf,0 is not finite",
    "contraction --delta 0": "argument --delta: expected a finite number > 0, got 0",
    "contraction --delta nan": "argument --delta: expected a finite number > 0, got nan",
    "contraction --delta inf": "argument --delta: expected a finite number > 0, got inf",
    "contraction --delta 2": "argument --delta: 2 exceeds the contraction limit 1",
    "contraction --delta 1e300": "argument --delta: 1e+300 exceeds the contraction limit 1",
    "contraction --R -1": "argument --R: expected an integer >= 1, got -1",
    "contraction --R 257": "argument --R: 257 exceeds the contraction limit 256",
    "contraction --R 100000": "argument --R: 100000 exceeds the contraction limit 256",
    # Only discretize can judge --R against the support radius, and only the
    # filesystem can refuse a golden-file directory.
    "contraction --R 2": "support radius 1.375 exceeds grid extent R*delta = 0.5",
    "verify --compare-operators {missing}":
        "[Errno 2] No such file or directory: '{missing}/fourier.json'",
    # argparse on Python 3.10 and 3.11, which CI runs, quotes each choice.
    "frobnicate": "argument command: invalid choice: 'frobnicate' (choose from 'walk', "
                  "'spectrum', 'verify', 'circuit', 'moments', 'contraction')",
    "": "the following arguments are required: command",
}

#: The rows whose refusal needs a function the usage test stubs: discretize
#: makes it, and verify builds its reference operators with generator_map
#: before it reads the golden files.
REFUSED_BY = {"contraction --R 2": "discretize",
              "verify --compare-operators {missing}": "generator_map"}


def _failed_rows(stdout: str) -> list[str]:
    return [line.split()[1] for line in stdout.splitlines() if line.startswith("FAIL")]


class TestWalkCommand:
    def test_writes_frames(self, tmp_path, capsys):
        assert main(["walk", "--N", "7", "--steps", "3", "--out", str(tmp_path)]) == 0
        for k in range(4):
            assert (tmp_path / f"step-{k}.csv").exists()
            assert (tmp_path / f"step-{k}.pgm").exists()
        step0 = grid_from_csv((tmp_path / "step-0.csv").read_text())
        assert step0.values[0, 0] == 1.0 and np.count_nonzero(step0.values) == 1
        step1 = grid_from_csv((tmp_path / "step-1.csv").read_text())
        assert np.count_nonzero(step1.values) == 5

    @pytest.mark.parametrize("start", ["9,9", "7,0", "0,-1"])
    def test_start_outside_the_lattice_is_usage_error(self, start, tmp_path, capsys):
        # GridDist.delta would reduce the point mod N and walk from elsewhere.
        assert main(["walk", "--N", "7", f"--start={start}", "--out", str(tmp_path)]) == 2
        assert f"--start {start} is outside 0..6" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_zero_steps_echoes_input(self, tmp_path):
        assert main(["walk", "--N", "5", "--steps", "0", "--start", "2,3",
                     "--out", str(tmp_path)]) == 0
        table = grid_from_csv((tmp_path / "step-0.csv").read_text())
        assert table.values[2, 3] == 1.0
        assert not (tmp_path / "step-1.csv").exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["walk", "--N", "7", "--steps", "2", "--out", str(a)])
        main(["walk", "--N", "7", "--steps", "2", "--out", str(b)])
        for k in range(3):
            assert (a / f"step-{k}.csv").read_bytes() == (b / f"step-{k}.csv").read_bytes()
            assert (a / f"step-{k}.pgm").read_bytes() == (b / f"step-{k}.pgm").read_bytes()

    def test_even_n_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["walk", "--N", "6", "--out", str(tmp_path)])
        assert err.value.code == 2

    @pytest.mark.parametrize("fixed_scale", [False, True], ids=["own scale", "fixed scale"])
    def test_frames_streamed_as_if_all_were_kept(self, fixed_scale, tmp_path, monkeypatch):
        # Each frame is written as it is made, in one pass: --fixed-scale knows
        # its shared range [0, 1] up front.  The files are those of keeping
        # every frame, and at most the newest two are ever alive.
        made, alive = [], []

        def step(f):
            g = walk_step(f)
            made.append(weakref.ref(g))
            alive.append(sum(ref() is not None for ref in made))
            return g

        monkeypatch.setattr("margulis.cli.walk_step", step)
        argv = ["walk", "--N", "9", "--steps", "6", "--start", "2,7", "--out", str(tmp_path)]
        assert main(argv + ["--fixed-scale"] * fixed_scale) == 0
        assert len(made) == 6
        assert max(alive) == 2
        frames = [GridDist.delta(9, 2, 7)]
        for _ in range(6):
            frames.append(walk_step(frames[-1]))
        lo = min(float(f.values.min()) for f in frames) if fixed_scale else None
        hi = max(float(f.values.max()) for f in frames) if fixed_scale else None
        for k, f in enumerate(frames):
            assert (tmp_path / f"step-{k}.csv").read_text() == grid_to_csv(f)
            assert (tmp_path / f"step-{k}.pgm").read_text() == grid_to_pgm(f, lo, hi)

    def test_fixed_scale_flag(self, tmp_path):
        assert main(["walk", "--N", "5", "--steps", "1", "--fixed-scale",
                     "--out", str(tmp_path)]) == 0
        # With a shared scale, frame 1's maximum (1/2) maps below 255.
        pgm1 = (tmp_path / "step-1.pgm").read_text().strip().splitlines()
        pix = [int(v) for row in pgm1[3:] for v in row.split()]
        assert max(pix) == 128


class TestSpectrumCommand:
    def test_classical_and_quantum_agree(self, tmp_path):
        assert main(["spectrum", "--N", "3,5", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "lambdas.csv").read_text().strip().splitlines()[1:]
        by_key = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2]) for r in rows}
        for N in ("3", "5"):
            assert by_key[(N, "classical")] == pytest.approx(by_key[(N, "quantum")], abs=1e-8)
            assert by_key[(N, "classical")] <= 0.8839
        bound = float(rows[0].split(",")[3])
        assert bound == pytest.approx(np.sqrt(2) * 5 / 8, abs=1e-15)

    def test_classical_mode_eigenvalue_count(self, tmp_path):
        assert main(["spectrum", "--N", "9", "--mode", "classical",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "spectra.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 81
        eigs = [float(r.split(",")[3]) for r in rows]
        assert max(eigs) == pytest.approx(1.0, abs=1e-10)

    def test_quantum_above_nine_matches_classical(self, tmp_path):
        # The superoperator shares the dense cap 49 of the walk matrix.
        assert main(["spectrum", "--N", "15,25", "--mode", "both",
                     "--out", str(tmp_path)]) == 0
        spectra = {}
        for row in (tmp_path / "spectra.csv").read_text().splitlines()[1:]:
            N, kind, _, value = row.split(",")
            spectra.setdefault((int(N), kind), []).append(float(value))
        lambdas = {(int(r.split(",")[0]), r.split(",")[1]): float(r.split(",")[2])
                   for r in (tmp_path / "lambdas.csv").read_text().splitlines()[1:]}
        for N in (15, 25):
            quantum = np.sort(spectra[N, "quantum"])
            classical = np.sort(spectra[N, "classical"])
            assert quantum.shape == classical.shape == (N * N,)
            assert np.max(np.abs(quantum - classical)) < 1e-8
            assert lambdas[N, "quantum"] == pytest.approx(lambdas[N, "classical"], abs=1e-8)


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        assert main(["verify", "--N", "7", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_unreachable_tolerance_fails(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["verify", "--N", "5", "--tol", "1e-30", "--out", str(report_path)])
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["passed"] is False
        assert all(not c["passed"] for c in report["checks"])
        assert all("max_deviation" in c for c in report["checks"])

    def test_json_output(self, capsys):
        assert main(["verify", "--N", "5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = {c["check"] for c in report["checks"]}
        assert names == {"orthonormality", "covariance", "translation",
                         "intertwining", "intertwining_lift", "circuit_equivalence"}

    @pytest.mark.parametrize("seed", [3, 42])
    @pytest.mark.parametrize("N", [5, 25])
    def test_json_rows_are_the_library_rows(self, N, seed, capsys):
        # JSON writes each float in its shortest round-trip form, so equal means bitwise.
        assert main(["verify", "--N", str(N), "--seed", str(seed), "--trials", "4",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = [(c["check"], c["max_deviation"]) for c in report["checks"]]
        assert rows == verify_identities(N, seed=seed, trials=4)

    def test_one_random_stream_for_operators_and_tables(self, monkeypatch, capsys):
        # One generator draws every operator and table; each of the eight
        # circuit checks seeds its own two states.
        seeds = []
        default_rng = np.random.default_rng

        def recorded(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recorded)
        assert main(["verify", "--N", "9", "--seed", "5", "--trials", "3"]) == 0
        assert seeds == [5] * 9

    def test_broken_lift_fails(self, monkeypatch, capsys):
        # A scaled inverse transform would commute with both sides; an offset
        # on one matrix entry that the channel moves does not.  The round trip
        # of orthonormality runs the same inverse transform and sees it too.
        def offset_lift(ctx, table):
            rho = inverse_wigner(ctx, table)
            rho[0, 0] += 1e-6
            return rho

        monkeypatch.setattr("margulis.channel.inverse_wigner", offset_lift)
        dev = dict(verify_identities(5, seed=42, trials=20))
        assert dev["intertwining"] < 1e-10 < dev["intertwining_lift"]
        assert main(["verify", "--N", "5"]) == 1
        assert _failed_rows(capsys.readouterr().out) == ["orthonormality", "intertwining_lift"]

    def test_passes_beyond_the_dense_limit(self, capsys):
        assert main(["verify", "--N", "101", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["N"] == 101 and report["passed"] is True

    def test_wrong_shift_sign_fails_covariance(self, monkeypatch, capsys):
        def negated_shift(ctx, T, X):
            return affine_action(ctx, AffineMap(T.linear, (-T.shift[0], -T.shift[1]),
                                                T.modulus), X)

        # Both covariance rows conjugate through the channel's affine_action.
        monkeypatch.setattr("margulis.channel.affine_action", negated_shift)
        assert main(["verify", "--N", "101"]) == 1
        failed = _failed_rows(capsys.readouterr().out)
        assert "covariance" in failed and "translation" in failed

    def test_wrong_sign_chirp_fails_the_unitary_rows(self, monkeypatch, capsys):
        # The gate lists keep circuits' own binding of _shear_chirp, so they
        # stay right and the closed form is caught against them too.
        chirp = phasespace._shear_chirp

        def negated(T):
            axis, c = chirp(T)
            return axis, -c % T.modulus

        monkeypatch.setattr("margulis.phasespace._shear_chirp", negated)
        assert main(["verify", "--N", "25"]) == 1
        failed = _failed_rows(capsys.readouterr().out)
        assert {"covariance", "intertwining", "circuit_equivalence"} <= set(failed)

    def test_wigner_off_by_a_scale_fails_orthonormality(self, monkeypatch, capsys):
        # A scaled table still commutes with every map, so only Parseval and
        # the round trip can see it.
        def scaled(ctx, rho):
            return GridDist(ctx.N, (1 + 1e-6) * wigner(ctx, rho).values)

        monkeypatch.setattr("margulis.channel.wigner", scaled)
        assert main(["verify", "--N", "25"]) == 1
        assert _failed_rows(capsys.readouterr().out) == ["orthonormality"]

    def test_nan_inverse_transform_fails_its_rows(self, monkeypatch, capsys):
        # Python's max(acc, nan) keeps acc, so a row folded that way passes NaN.
        def nan_lift(ctx, table):
            return np.full((ctx.N, ctx.N), np.nan, dtype=complex)

        monkeypatch.setattr("margulis.channel.inverse_wigner", nan_lift)
        assert main(["verify", "--N", "7"]) == 1
        assert _failed_rows(capsys.readouterr().out) == ["orthonormality", "intertwining_lift"]

    def test_nan_deviation_is_written_as_strict_json_null(self, tmp_path, monkeypatch, capsys):
        # json.dumps writes NaN as the bare token NaN, which strict readers reject.
        def nan_lift(ctx, table):
            return np.full((ctx.N, ctx.N), np.nan, dtype=complex)

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        monkeypatch.setattr("margulis.channel.inverse_wigner", nan_lift)
        path = tmp_path / "report.json"
        assert main(["verify", "--N", "5", "--json", "--out", str(path)]) == 1
        stdout = capsys.readouterr().out
        assert stdout == path.read_text()
        report = json.loads(stdout, parse_constant=refuse)
        rows = {c["check"]: c for c in report["checks"]}
        for name in ("orthonormality", "intertwining_lift"):
            assert rows[name]["max_deviation"] is None and rows[name]["passed"] is False
        assert rows["covariance"]["passed"] is True and report["passed"] is False

    def test_nan_table_for_a_later_map_fails_covariance(self, monkeypatch, capsys):
        # Python's max over the maps kept the first map's value.  Each trial
        # tables ch(g) and g for the intertwining, rho = g / ||g|| for
        # orthonormality and covariance, then U rho U^dag for T1, T2, ...: the
        # fifth table is T2's.  GridDist refuses NaN, so a bare stand-in carries it.
        calls = []

        def nan_fifth(ctx, rho):
            calls.append(rho)
            table = wigner(ctx, rho)
            if len(calls) == 5:
                return SimpleNamespace(values=np.full_like(table.values, np.nan))
            return table

        monkeypatch.setattr("margulis.channel.wigner", nan_fifth)
        assert main(["verify", "--N", "7"]) == 1
        assert _failed_rows(capsys.readouterr().out) == ["covariance"]

    def test_nan_from_one_circuit_fails_circuit_equivalence(self, monkeypatch, capsys):
        calls = []

        def nan_second(gl, X):
            calls.append(gl)
            Y = apply_gates(gl, X)
            return np.full_like(Y, np.nan) if len(calls) == 2 else Y

        monkeypatch.setattr("margulis.circuits.apply_gates", nan_second)
        assert main(["verify", "--N", "9"]) == 1
        assert len(calls) == 8
        assert _failed_rows(capsys.readouterr().out) == ["circuit_equivalence"]

    def test_one_unitary_per_map_and_one_set_of_reference_operators(self, tmp_path,
                                                                   monkeypatch, capsys):
        gold = tmp_path / "gold"
        assert main(["verify", "--N", "5", "--dump-operators", str(gold)]) == 0
        counts = {"channel": 0, "cli": 0, "reference": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr("margulis.channel.affine_unitary",
                            counted("channel", affine_unitary))
        monkeypatch.setattr("margulis.cli.affine_unitary", counted("cli", affine_unitary))
        monkeypatch.setattr("margulis.cli._reference_operators",
                            counted("reference", cli._reference_operators))
        assert main(["verify", "--N", "5", "--compare-operators", str(gold),
                     "--dump-operators", str(tmp_path / "again")]) == 0
        # The checks act by affine_action and build no unitary; the cli builds
        # the eight golden U_* operators, once.
        assert counts == {"channel": 0, "cli": 8, "reference": 1}
        for path in gold.iterdir():
            assert (tmp_path / "again" / path.name).read_bytes() == path.read_bytes()

    def test_even_n_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--N", "4"])
        assert err.value.code == 2

    def test_golden_operator_round_trip(self, tmp_path):
        gold = tmp_path / "golden"
        assert main(["verify", "--N", "5", "--dump-operators", str(gold)]) == 0
        dumped = operator_from_json((gold / "U_T2.json").read_text())
        expected = affine_unitary(PhaseSpaceContext(5), generator_map(5)["T2"])
        assert np.allclose(dumped, expected, atol=0)
        assert main(["verify", "--N", "5", "--compare-operators", str(gold),
                     "--json"]) == 0

    def test_operators_match_the_checked_in_golden_files(self, capsys):
        # tests/golden/operators-7 holds the reference operators of an earlier
        # version and is only read: a drift in any convention fails here.
        gold = Path(__file__).parent / "golden" / "operators-7"
        assert len(list(gold.glob("*.json"))) == 12
        assert main(["verify", "--N", "7", "--compare-operators", str(gold), "--json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["passed"] for c in checks if c["check"] == "golden_operators"] == [True]

    def test_quadratic_dumps_are_the_t1_dumps(self, tmp_path):
        # quadratic_phase(+-1) is the U_T of T1 and T1inv, zero entries and their signs included.
        assert main(["verify", "--N", "7", "--dump-operators", str(tmp_path)]) == 0
        for quadratic, unitary in (("quadratic_plus", "U_T1"), ("quadratic_minus", "U_T1inv")):
            assert ((tmp_path / f"{quadratic}.json").read_bytes()
                    == (tmp_path / f"{unitary}.json").read_bytes())


class TestCircuitCommand:
    def test_check_and_files(self, tmp_path, capsys):
        assert main(["circuit", "--d", "3", "--qudits", "2", "--transform", "T1",
                     "--check", "--out", str(tmp_path)]) == 0
        assert "equal up to phase: true" in capsys.readouterr().out
        want = gate_list_to_jsonl(affine_circuit(3, 2, generator_map(9)["T1"]), "T1")
        assert (tmp_path / "gates-T1.jsonl").read_bytes() == want.encode()

    def test_all_transforms(self, tmp_path):
        assert main(["circuit", "--transform", "all", "--check",
                     "--out", str(tmp_path)]) == 0
        for label, T in generator_map(9).items():
            want = gate_list_to_jsonl(affine_circuit(3, 2, T), label)
            assert (tmp_path / f"gates-{label}.jsonl").read_bytes() == want.encode()

    def test_one_large_qudit_is_checked_with_no_d_by_d_gate(self, tmp_path, capsys):
        # Its Fourier gates act by FFT, so the d^qudits cap holds for any d.
        assert main(["circuit", "--d", "19683", "--qudits", "1", "--check",
                     "--transform", "T4", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith("equal up to phase: true\n")

    @pytest.mark.parametrize("qudits", ["3", "5"])
    def test_dropped_gate_fails_the_check(self, qudits, tmp_path, monkeypatch, capsys):
        # No gate is a scalar, so a list missing any one of them is wrong.
        synth = cli.affine_circuit

        def drop_first(d, n, T):
            gl = synth(d, n, T)
            return GateList(gl.d, gl.n, gl.gates[1:], gl.phase_num, gl.phase_den)

        monkeypatch.setattr("margulis.cli.affine_circuit", drop_first)
        assert main(["circuit", "--d", "3", "--qudits", qudits, "--check",
                     "--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and all(ln.endswith("equal up to phase: false") for ln in lines)


class TestMomentsCommand:
    def test_g_map_final_row(self, tmp_path, capsys):
        assert main(["moments", "--gamma", "1,0,1", "--iters", "4", "--map", "g",
                     "--out", str(tmp_path)]) == 0
        final = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert final[0] == "4"
        assert float(final[1]) == 81.0 and float(final[2]) == 0.0 and float(final[3]) == 81.0

    @pytest.mark.parametrize("argv,first", [([], 324), (["--map", "f", "--mean", "1,2"], 322)],
                             ids=["g", "f"])
    def test_trace_leaving_float_range_is_usage_error(self, argv, first, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["moments", "--iters", "700", "--out", str(out)] + argv) == 2
        assert capsys.readouterr().err == (
            f"margulis: error: the moments leave float range at iteration {first} "
            "(det not finite)\n")
        assert not out.exists()

    def test_slowest_growth_overflows_inside_the_cap(self, tmp_path, capsys):
        # From the smallest subnormal the trace grows slowest, and still leaves
        # float range before --iters reaches its cap.
        argv = ["moments", "--gamma", "5e-324,0,0", "--iters", str(MOMENTS_MAX_ITERS)]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "float range at iteration 1002 " in capsys.readouterr().err

    def test_overflow_leaves_one_stderr_line(self, tmp_path):
        # Run as a process: numpy's RuntimeWarnings go to stderr only once per
        # call site, which a test run may already have spent.
        proc = subprocess.run(
            [sys.executable, "-m", "margulis", "moments", "--map", "f", "--mean",
             "1e308,1e308", "--iters", "3", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(margulis.__file__).parents[1])})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "margulis: error: the moments leave float range at iteration 1 "
            "(a, b, c, mean_x, mean_p, trace, det not finite)"]

    def test_bad_gamma_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["moments", "--gamma", "1,0"])
        assert err.value.code == 2


class TestContractionCommand:
    def test_report_written_and_passes(self, tmp_path, capsys):
        assert main(["contraction", "--delta", "0.25", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "contraction-box_dipole.json").read_text())
        assert report["ratio"] <= 0.894
        assert "ratio" in capsys.readouterr().out


class TestUsage:
    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: argv or "no command")
    def test_bad_input_is_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        # Several were a traceback (an overflow, numpy's MemoryError) or NaN rows
        # with exit 0.  Each is refused in one line before anything allocates.
        def allocates(*args, **kwargs):
            raise AssertionError("called before the arguments were checked")

        for name in {"discretize", "GridDist", "moments_csv", "_outdir",
                     "generator_map"} - {REFUSED_BY.get(argv)}:
            monkeypatch.setattr(f"margulis.cli.{name}", allocates)
        monkeypatch.setenv("MARGULIS_OUT", str(tmp_path))
        missing = tmp_path / "missing"
        try:
            code = main(argv.format(missing=missing).split())
        except SystemExit as err:
            code = err.code
        assert code == 2
        line = USAGE_ERRORS[argv].format(missing=missing)
        assert capsys.readouterr().err == f"margulis: error: {line}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        "circuit --qudits 0", "spectrum --N 3,51", "verify --N 731", "verify --trials 0",
        "verify --seed -1", "spectrum --N ,", "spectrum --N 3,5,3", "verify --tol nan",
        "verify --tol -1", "verify --tol 0", "contraction --R -1", "contraction --delta nan"])
    def test_usage_error_names_the_flag(self, argv, capsys):
        # argparse itself refuses these while parsing, naming the flag typed.
        with pytest.raises(SystemExit) as err:
            main(argv.split())
        assert err.value.code == 2
        err = capsys.readouterr().err
        assert err == f"margulis: error: {USAGE_ERRORS[argv]}\n"
        assert err.startswith(f"margulis: error: argument {argv.split()[1]}")

    @pytest.mark.parametrize("argv", [
        ["contraction", "--delta", "1"],
        ["walk", "--N", "1001", "--steps", "0"],
        ["moments", "--gamma", "1,0,-1", "--iters", "1024"],
    ], ids=lambda argv: " ".join(argv))
    def test_values_at_the_caps_run(self, argv, tmp_path):
        assert main(argv + ["--out", str(tmp_path)]) == 0

    def test_golden_files_read_before_the_checks(self, tmp_path, capsys, monkeypatch):
        calls = []

        def checks(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the checks ran before the golden files were read")

        monkeypatch.setattr("margulis.cli.verify_identities", checks)
        assert main(["verify", "--N", "5", "--compare-operators",
                     str(tmp_path / "missing")]) == 2
        assert calls == []
        assert "fourier.json" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,make", [
        ("--out", Path.mkdir), ("--dump-operators", Path.touch),
    ], ids=["report path is a directory", "operator directory is a file"])
    def test_unwritable_output_refused_before_the_checks(self, flag, make, tmp_path, capsys,
                                                         monkeypatch):
        # The report's path was tried only after the checks, some 20 s at --N 729.
        def checks(*args, **kwargs):
            raise AssertionError("the checks ran before the output paths were tried")

        monkeypatch.setattr("margulis.cli.verify_identities", checks)
        taken = tmp_path / "taken"
        make(taken)
        assert main(["verify", "--N", "25", "--json", flag, str(taken)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("margulis: error: [Errno ") and f"'{taken}'" in err

    @pytest.mark.parametrize("text,message", [
        ('{"dim": 5}', "fourier.json: operator dump is not an object {dim, re, im} of arrays"),
        ("[1]", "fourier.json: operator dump is not an object {dim, re, im} of arrays"),
        ("{", "fourier.json: Expecting property name enclosed in double quotes"),
    ], ids=["missing keys", "not an object", "not json"])
    def test_malformed_golden_file_is_usage_error(self, text, message, tmp_path, capsys):
        (tmp_path / "fourier.json").write_text(text)
        assert main(["verify", "--N", "5", "--compare-operators", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("margulis: error: ")
        assert message in err

    def test_golden_file_with_nan_entries_is_usage_error(self, tmp_path, capsys):
        # NaN entries read as deviation 0 and passed.
        assert main(["verify", "--N", "5", "--dump-operators", str(tmp_path)]) == 0
        parity = json.loads((tmp_path / "parity.json").read_text())
        parity["re"][2][3] = float("nan")
        (tmp_path / "parity.json").write_text(json.dumps(parity))
        capsys.readouterr()
        assert main(["verify", "--N", "5", "--compare-operators", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"margulis: error: {tmp_path / 'parity.json'}: operator dump re and im are "
            "not finite numeric dim x dim arrays for dim 5\n")

    def test_golden_file_of_another_n_is_usage_error(self, tmp_path, capsys):
        # Was numpy's broadcast message, naming neither the file nor the sizes.
        assert main(["verify", "--N", "5", "--dump-operators", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--N", "7", "--compare-operators", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"margulis: error: {tmp_path / 'fourier.json'}: a 5x5 operator, but --N 7 "
            "needs 7x7\n")

    def test_library_error_exits_2_in_a_real_process(self, tmp_path):
        # --R 1 passes argparse; only discretize can judge it against the support.
        proc = subprocess.run(
            [sys.executable, "-m", "margulis", "contraction", "--R", "1",
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(margulis.__file__).parents[1])})
        assert proc.returncode == 2
        assert proc.stderr == ("margulis: error: support radius 1.375 exceeds grid extent "
                               "R*delta = 0.25\n")

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
