"""The benchmark's three workloads and the checks on their outputs.

Every workload takes its inputs from ``--seed`` and checks every output,
so a faster wrong answer shows as a failed check.  ``gap_ladder`` and
``wigner_mixing`` call the library in this process through the functions
named in their ``names``, which the worker may wrap in spans;
``cli_session`` runs ``python -m margulis`` commands as child processes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path


BOUND = math.sqrt(2.0) * 5.0 / 8.0  # Gabber-Galil bound, as in margulis.walk
GOLDEN = Path("tests", "golden", "lambdas.json")  # read only
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_lambdas.json"
CHILD_TIMEOUT_S = 60.0  # for one command or set-up; a healthy one takes a few seconds


@contextmanager
def deadline(proc: subprocess.Popen, seconds: float = CHILD_TIMEOUT_S, group: bool = False):
    """Kill ``proc`` if it outlives ``seconds``; yields an Event set if it did.

    With ``group`` the whole process group ``proc`` leads is killed (start it
    with ``start_new_session=True``), so its own children go with it.  The
    caller reads and waits inside the block with blocking calls: killing the
    child closes its pipes, so they return.  ``Popen.wait(timeout=...)``
    would poll in steps of up to 50 ms, which would show in measured exit times.
    """
    expired = threading.Event()

    def kill():
        expired.set()
        try:
            if group:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
        except ProcessLookupError:
            pass

    timer = threading.Timer(seconds, kill)
    timer.start()
    try:
        yield expired
    finally:
        timer.cancel()


class Checks:
    """Attempted and failed correctness checks, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(f"{name}: {detail}")
        return ok

    def close(self, name: str, got: float, want: float, tol: float) -> bool:
        # NaN compares false, so it fails.
        return self.expect(name, abs(got - want) <= tol,
                           f"{got!r} vs {want!r} (tol {tol:g})")

    def at_most(self, name: str, got: float, limit: float) -> bool:
        return self.expect(name, got <= limit, f"{got!r} > {limit!r}")


def _load_lambdas(path) -> dict[int, float]:
    obj = json.loads(Path(path).read_text())
    return {int(k): float(v) for k, v in obj.get("lambdas", obj).items()}


class GapLadder:
    """Dense spectral gap over a ladder of N, plus channel spectra at N <= 9."""

    names = ("walk_matrix", "spectral_report", "margulis_channel",
             "superoperator", "expander_lambda")

    def __init__(self, root: Path, seed: int, tiny: bool, reference=None):
        import numpy as np

        self.np = np
        self.rng = np.random.default_rng(seed)
        sizes = [7] if tiny else [15, 21, 27, 33, 41]
        self.order = [int(N) for N in self.rng.permutation(sizes)]
        self.channel_sizes = [3, 5, 7] if tiny else [3, 5, 7, 9]
        self.golden = _load_lambdas(root / GOLDEN)
        self.reference = _load_lambdas(reference or REFERENCE)

    def _classical(self, ops, checks: Checks, N: int):
        np = self.np
        M = ops.walk_matrix(N)
        rep = ops.spectral_report(M, modulus=N)
        checks.at_most(f"lambda({N}) below bound", rep.lam, BOUND)
        if N in self.golden:
            checks.close(f"lambda({N}) golden", rep.lam, self.golden[N], 1e-12)
        if N in self.reference:
            checks.close(f"lambda({N}) reference", rep.lam, self.reference[N], 1e-10)
        x = self.rng.standard_normal(N * N)
        x -= x.mean()
        checks.at_most(f"|Mx| <= lambda|x| at N={N}", float(np.linalg.norm(M @ x)),
                       rep.lam * float(np.linalg.norm(x)) * (1 + 1e-12))
        return rep

    def _quantum(self, ops, checks: Checks, N: int) -> None:
        from margulis import PhaseSpaceContext

        np = self.np
        ch = ops.margulis_channel(PhaseSpaceContext(N))
        S = ops.superoperator(ch)
        lam_q = ops.expander_lambda(ch)
        rep = self._classical(ops, checks, N)
        dev = np.max(np.abs(np.sort(np.linalg.eigvalsh(S)) - np.sort(rep.spectrum)))
        checks.at_most(f"walk/channel spectra agree at N={N}", float(dev), 1e-8)
        checks.close(f"walk/channel lambda agree at N={N}", lam_q, rep.lam, 1e-8)

    def setup(self, ops, checks: Checks) -> None:
        self._classical(ops, checks, 7)
        self._quantum(ops, checks, 3)

    def run_pass(self, ops, checks: Checks) -> None:
        for N in self.order:
            self._classical(ops, checks, N)
        for N in self.channel_sizes:
            self._quantum(ops, checks, N)


class WignerMixing:
    """A random pure state mixed by the channel, checked on its Wigner table.

    Beside it a point mass on a large lattice is pushed through walk_step,
    and its last frame goes through the CSV/PGM export.
    """

    names = ("margulis_channel", "apply_channel", "warm_wigner", "wigner",
             "inverse_wigner", "walk_step", "grid_to_csv", "grid_to_pgm",
             "grid_from_csv")

    def __init__(self, root: Path, seed: int, tiny: bool, reference=None):
        import numpy as np
        from margulis import PhaseSpaceContext

        self.np = np
        rng = np.random.default_rng(seed)
        self.N, self.steps = (7, 3) if tiny else (63, 20)
        self.walk_N, self.walk_steps = (7, 5) if tiny else (401, 60)
        self.ctx = PhaseSpaceContext(self.N)
        psi = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
        psi /= np.linalg.norm(psi)
        self.rho0 = np.outer(psi, psi.conj())
        self.start = tuple(int(v) for v in rng.integers(0, self.walk_N, size=2))

    def setup(self, ops, checks: Checks) -> None:
        from margulis import GridDist

        np = self.np
        ch = ops.margulis_channel(self.ctx)
        table = ops.warm_wigner(self.ctx, self.rho0)
        back = ops.inverse_wigner(self.ctx, table)
        checks.at_most("set-up round trip", float(np.max(np.abs(back - self.rho0))), 1e-10)
        ops.walk_step(ops.wigner(self.ctx, ops.apply_channel(ch, self.rho0)))
        frame = ops.walk_step(GridDist.delta(self.walk_N, *self.start))
        ops.grid_from_csv(ops.grid_to_csv(frame))
        ops.grid_to_pgm(frame)

    def _quantum(self, ops, checks: Checks) -> None:
        np, N, ctx = self.np, self.N, self.ctx
        ch = ops.margulis_channel(ctx)
        rho = self.rho0
        table = ops.wigner(ctx, rho)
        d0 = float(np.linalg.norm(table.values - 1.0 / N**2))
        for k in range(1, self.steps + 1):
            rho = ops.apply_channel(ch, rho)
            new = ops.wigner(ctx, rho)
            walked = ops.walk_step(table)
            checks.at_most(f"intertwining step {k}",
                           float(np.max(np.abs(new.values - walked.values))), 1e-10)
            back = ops.inverse_wigner(ctx, new)
            checks.at_most(f"round trip step {k}", float(np.max(np.abs(back - rho))), 1e-10)
            checks.close(f"trace step {k}", float(np.trace(rho).real), 1.0, 1e-10)
            checks.at_most(f"hermitian step {k}",
                           float(np.max(np.abs(rho - rho.conj().T))), 1e-10)
            checks.at_most(f"decay step {k}",
                           float(np.linalg.norm(new.values - 1.0 / N**2)),
                           BOUND**k * d0 * (1 + 1e-9))
            table = new

    def _classical(self, ops, checks: Checks) -> None:
        from margulis import GridDist

        np, N = self.np, self.walk_N
        f = GridDist.delta(N, *self.start)
        d0 = float(np.linalg.norm(f.values - 1.0 / N**2))
        for k in range(1, self.walk_steps + 1):
            f = ops.walk_step(f)
            checks.close(f"mass step {k}", float(f.values.sum()), 1.0, 1e-12)
            checks.expect(f"nonnegative step {k}", bool(f.values.min() >= 0.0))
            checks.at_most(f"walk decay step {k}", float(np.linalg.norm(f.values - 1.0 / N**2)),
                           BOUND**k * d0 * (1 + 1e-9))
        back = ops.grid_from_csv(ops.grid_to_csv(f))
        checks.expect("CSV round trip is exact", bool(np.array_equal(back.values, f.values)))
        pgm = ops.grid_to_pgm(f)
        checks.expect("PGM header", pgm.startswith(f"P2\n{N} {N}\n255\n"))

    def run_pass(self, ops, checks: Checks) -> None:
        self._quantum(ops, checks)
        self._classical(ops, checks)


# ---------------------------------------------------------------------------
# cli_session: every command is its own ``python -m margulis`` process.

def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().split()[1:]]


class CliSession:
    """The commands users run, each a separate process in a fresh directory."""

    def __init__(self, root: Path, seed: int, tiny: bool, reference=None):
        self.golden = _load_lambdas(root / GOLDEN)
        self.verify_N = 7 if tiny else 25
        self.qudits = 2 if tiny else 5
        self.walk_N, self.walk_steps = (7, 3) if tiny else (101, 20)
        self.delta, self.R = ("0.25", "8") if tiny else ("0.03125", "64")
        self.spectrum_N = [3, 5] if tiny else [3, 5, 7, 9]
        self.iters = 4 if tiny else 40
        self.commands = [
            ("verify", ["verify", "--N", str(self.verify_N), "--json", "--seed", str(seed)],
             self._check_verify),
            ("circuit", ["circuit", "--d", "3", "--qudits", str(self.qudits), "--check"],
             self._check_circuit),
            ("walk", ["walk", "--N", str(self.walk_N), "--steps", str(self.walk_steps),
                      "--fixed-scale"], self._check_walk),
            ("contraction", ["contraction", "--fn", "gaussian_dipole", "--delta", self.delta,
                             "--R", self.R], self._check_contraction),
            ("spectrum", ["spectrum", "--N", ",".join(map(str, self.spectrum_N))],
             self._check_spectrum),
            ("moments", ["moments", "--iters", str(self.iters), "--map", "f", "--mean", "1,2"],
             self._check_moments),
        ]

    def _check_verify(self, out: Path, stdout: str, checks: Checks) -> None:
        report = json.loads(stdout)
        checks.expect("verify passed", report["passed"] is True, stdout[-400:])
        checks.expect("verify N", report["N"] == self.verify_N, str(report["N"]))

    def _check_circuit(self, out: Path, stdout: str, checks: Checks) -> None:
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        ok = len(lines) == 8 and all(ln.endswith("equal up to phase: true") for ln in lines)
        checks.expect("circuits equal up to phase", ok, stdout[-400:])
        missing = [p for p in ("T1", "T2", "T3", "T4", "T1inv", "T2inv", "T3inv", "T4inv")
                   if not (out / f"gates-{p}.jsonl").is_file()]
        checks.expect("gate lists written", not missing, f"missing {missing}")

    def _check_walk(self, out: Path, stdout: str, checks: Checks) -> None:
        missing = [f"step-{k}.{ext}" for k in range(self.walk_steps + 1) for ext in ("csv", "pgm")
                   if not (out / f"step-{k}.{ext}").is_file()]
        checks.expect("walk frames written", not missing, f"missing {missing[:4]}")
        values = [float(row[2]) for row in _read_csv(out / f"step-{self.walk_steps}.csv")]
        checks.expect("last frame size", len(values) == self.walk_N ** 2, str(len(values)))
        checks.close("last frame mass", math.fsum(values), 1.0, 1e-12)
        checks.expect("last frame nonnegative", min(values) >= 0.0)

    def _check_contraction(self, out: Path, stdout: str, checks: Checks) -> None:
        report = json.loads((out / "contraction-gaussian_dipole.json").read_text())
        checks.at_most("contraction ratio", report["ratio"], BOUND)
        checks.expect("contraction ratio positive", report["ratio"] > 0.0, str(report["ratio"]))

    def _check_spectrum(self, out: Path, stdout: str, checks: Checks) -> None:
        rows = _read_csv(out / "spectra.csv")
        checks.expect("spectra.csv rows", len(rows) == sum(2 * N * N for N in self.spectrum_N),
                      str(len(rows)))
        lam = {(int(N), kind): float(v) for N, kind, v, _ in _read_csv(out / "lambdas.csv")}
        for N in self.spectrum_N:
            classical, quantum = lam[(N, "classical")], lam[(N, "quantum")]
            checks.at_most(f"spectrum lambda({N}) below bound", classical, BOUND)
            if N in self.golden:
                checks.close(f"spectrum lambda({N}) golden", classical, self.golden[N], 1e-12)
            checks.close(f"spectrum channel lambda({N})", quantum, classical, 1e-8)

    def _check_moments(self, out: Path, stdout: str, checks: Checks) -> None:
        rows = _read_csv(out / "moments.csv")
        checks.expect("moments rows", len(rows) == self.iters + 1, str(len(rows)))
        checks.expect("means fixed", all(r[4:6] == ["1", "2"] for r in rows))
        traces = [float(r[6]) for r in rows]
        ratios = [b / a for a, b in zip(traces, traces[1:])]
        checks.expect("trace grows at least threefold", min(ratios) >= 3.0 * (1 - 1e-12),
                      str(min(ratios)))
        if self.iters >= 20:
            checks.close("trace growth rate 3", ratios[-1], 3.0, 1e-6)

    def run_pass(self, workdir: Path, env: dict, checks: Checks, launcher=None,
                 spans_dir: Path | None = None) -> tuple[float, dict]:
        """Run every command once; returns summed process time and per-command times.

        With ``launcher``, each command runs under the traced launcher and
        leaves its spans in ``spans_dir``.
        """
        total, times = 0.0, {}
        for name, argv, check in self.commands:
            out = workdir / name
            out.mkdir(parents=True)
            if launcher is None:
                cmd = [sys.executable, "-m", "margulis", *argv]
            else:
                cmd = [sys.executable, str(launcher), str(spans_dir / f"{name}.jsonl"), *argv]
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=out, env=env, text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            with deadline(proc) as expired:
                stdout, stderr = proc.communicate()
            times[name] = time.perf_counter() - t0
            total += times[name]
            status = "timed out" if expired.is_set() else f"exit {proc.returncode}"
            if not checks.expect(f"{name} exit code", proc.returncode == 0 and not expired.is_set(),
                                 f"{status}: {stderr[-400:]}"):
                continue
            try:
                check(out, stdout, checks)
            except (OSError, ValueError, KeyError, IndexError) as err:
                checks.expect(f"{name} output readable", False, repr(err))
        shutil.rmtree(workdir)
        return total, times


WORKLOADS = {"gap_ladder": GapLadder, "wigner_mixing": WignerMixing,
             "cli_session": CliSession}


def pinned_env(root: Path) -> dict:
    """Environment for every child: BLAS on one thread, margulis from the checkout."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(root / "src"))
    env.pop("MARGULIS_OUT", None)
    return env
