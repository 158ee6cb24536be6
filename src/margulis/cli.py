"""Command-line frontend.

Subcommands::

    walk         iterate the lattice walk from a point mass; CSV + PGM frames
    spectrum     classical walk and channel superoperator spectra as CSV
    verify       run the operator-identity check bundle; JSON report
    circuit      synthesize gate lists for the walk unitaries; JSONL files
    moments      iterate the covariance maps; CSV trace
    contraction  discretize a test function and measure the one-step ratio

Exit status: 0 success, 1 check failure, 2 usage error.  Each flag's type holds
its whole domain (bound, oddness, cap), so argparse refuses a bad value in one
line, ``margulis: error: argument --FLAG: ...``; the checks that need two flags,
the library or the filesystem print one ``margulis: error: ...`` line.  All
output is deterministic for a fixed seed.  CSV files write floats with 17
significant digits (%.17g), JSON reports in JSON's shortest round-trip form.
The default output directory is $MARGULIS_OUT, else the current directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channel import channel_report, margulis_channel, verify_identities
from .circuits import affine_circuit, circuit_deviation, gate_list_to_jsonl
from .continuous import (CovMatrix, MeanVector, TEST_FUNCTIONS,
                         contraction_check, discretize, moments_csv)
from .phasespace import (PhaseSpaceContext, affine_unitary, fourier, parity, quadratic_phase,
                         operator_from_json, operator_to_json)
from .frames import _csv_chunks, grid_to_pgm
# spectral_report is looked up through walk, as perfbench/selftest.py patches it there.
from .walk import (DENSE_MAX_MODULUS, GABBER_GALIL_BOUND, WALK_MAPS, GridDist, generator_map,
                   spectral_report, walk_matrix, walk_step)

#: Largest N verify accepts: 3^6, where verify took 20 s and peaked at 122 MB.
VERIFY_MAX_MODULUS = 729

#: Largest N walk accepts: about a million cells, some 8 MB a frame in memory
#: and up to 25 MB of CSV on disk.
WALK_MAX_MODULUS = 1001

#: Largest d^qudits circuit --check accepts, for any d (Fourier gates act by FFT):
#: all eight maps took 2.8 s and 77 MB at 3^11, 1.0 s and 77 MB at 177147^1.
CIRCUIT_CHECK_MAX_DIM = 3 ** 11

#: Largest contraction --delta.  Coarser cells leave the built-in test
#: functions (support radius 1.375 and 1.85) a cell or two, or none: at
#: delta = 4 both sample to zero and "contract" with ratio 0.
CONTRACTION_MAX_DELTA = 1.0

#: Largest contraction --R.  At R = 256 the finest --delta a built-in function
#: allows embeds it in N = 1539, and the command peaked at 65 MB resident.
CONTRACTION_MAX_R = 256

#: Largest moments --iters.  A trace that grows leaves float range by iteration
#: 1002 (g from 5e-324,0,0); one that never does, as a + c = 0, only repeats.
MOMENTS_MAX_ITERS = 1024


def _number(kind: type, lo, limit=None, name: str = "", *, strict=False, odd=False):
    """argparse type for one finite int or float: at least lo (above it if
    strict), odd if asked, and at most ``limit``, the flag's ``name`` limit."""
    fmt = "g" if kind is float else "d"  # f"{1234567:g}" is 1.23457e+06

    def number(text: str):
        try:
            x = kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        if odd and (x < lo or x % 2 == 0):
            raise argparse.ArgumentTypeError(f"{x} is not an odd integer >= {lo}")
        if not ((kind is int or math.isfinite(x)) and (x > lo if strict else x >= lo)):
            what = "an integer" if kind is int else "a finite number"
            raise argparse.ArgumentTypeError(
                f"expected {what} {'>' if strict else '>='} {lo:{fmt}}, got {x:{fmt}}")
        if limit is not None and x > limit:
            raise argparse.ArgumentTypeError(f"{x:{fmt}} exceeds the {name} limit {limit:{fmt}}")
        return x
    return number


def _dense_modulus_list(text: str) -> list[int]:
    parts = text.split(",")
    if not any(parts):
        raise argparse.ArgumentTypeError(f"expected at least one N, got {text!r}")
    if not all(parts):
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    moduli = list(map(_number(int, 3, DENSE_MAX_MODULUS, "dense", odd=True), parts))
    for i, n in enumerate(moduli):
        # Each N keys its rows in spectra.csv and lambdas.csv.
        if n in moduli[:i]:
            raise argparse.ArgumentTypeError(f"{n} is repeated")
    return moduli


def _point(text: str) -> tuple[int, int]:
    try:
        p, q = map(int, text.split(","))
    except ValueError:  # not two fields, or one not an integer
        raise argparse.ArgumentTypeError(f"expected 'p,q', got {text!r}") from None
    return p, q


def _outdir(args) -> Path:
    out = Path(args.out) if args.out else Path(os.environ.get("MARGULIS_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_walk(args) -> int:
    if not all(0 <= x < args.N for x in args.start):
        raise ValueError(f"--start {args.start[0]},{args.start[1]} is outside "
                         f"0..{args.N - 1} for --N {args.N}")
    out = _outdir(args)
    # The walk keeps mass and nonnegativity, so from a point mass every frame
    # lies in [0, 1], and frame 0 holds both ends: the shared range is known.
    lo, hi = (0.0, 1.0) if args.fixed_scale else (None, None)
    f = GridDist.delta(args.N, *args.start)
    for k in range(args.steps + 1):
        if k:
            f = walk_step(f)
        with (out / f"step-{k}.csv").open("w") as fh:
            fh.writelines(_csv_chunks(f))  # chunk by chunk, never the whole text
        (out / f"step-{k}.pgm").write_text(grid_to_pgm(f, lo, hi))
    print(f"wrote {args.steps + 1} frames (steps 0..{args.steps}) for N={args.N} to {out}")
    return 0


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def cmd_spectrum(args) -> int:
    out = _outdir(args)
    kinds = ("classical", "quantum") if args.mode == "both" else (args.mode,)
    spectra = ["N,kind,index,eigenvalue"]
    lambdas = ["N,kind,lambda,bound"]
    bound = _fmt(GABBER_GALIL_BOUND)
    for N in args.N:
        for kind in kinds:
            rep = (spectral_report(walk_matrix(N), modulus=N) if kind == "classical"
                   else channel_report(margulis_channel(PhaseSpaceContext(N))))
            spectra += [f"{N},{kind},{i},{_fmt(v)}" for i, v in enumerate(rep.spectrum)]
            lambdas.append(f"{N},{kind},{_fmt(rep.lam)},{bound}")
    (out / "spectra.csv").write_text("\n".join(spectra) + "\n")
    (out / "lambdas.csv").write_text("\n".join(lambdas) + "\n")
    print(f"wrote spectra.csv and lambdas.csv for N in {args.N} to {out}")
    return 0


def _reference_operators(ctx: PhaseSpaceContext) -> dict[str, np.ndarray]:
    return {"fourier": fourier(ctx), "parity": parity(ctx),
            "quadratic_plus": quadratic_phase(ctx, +1),
            "quadratic_minus": quadratic_phase(ctx, -1),
            **{f"U_{label}": affine_unitary(ctx, T) for label, T in generator_map(ctx.N).items()}}


def cmd_verify(args) -> int:
    ctx = PhaseSpaceContext(args.N)
    ops = _reference_operators(ctx) if args.compare_operators or args.dump_operators else {}
    golden = []
    if args.compare_operators:
        # Read the golden files before the checks, so a bad directory fails at once.
        devs = []
        for name, op in ops.items():
            path = Path(args.compare_operators) / f"{name}.json"
            try:
                gold = operator_from_json(path.read_text())
                if gold.shape != op.shape:
                    raise ValueError(f"a {len(gold)}x{len(gold)} operator, but --N {args.N} "
                                     f"needs {args.N}x{args.N}")
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None
            devs.append(float(np.max(np.abs(gold - op))))
        golden.append(("golden_operators", float(np.max(devs))))
    # Write the outputs the checks do not change, and open the report's path,
    # before the checks, so a bad path fails at once.
    if args.dump_operators:
        opdir = Path(args.dump_operators)
        opdir.mkdir(parents=True, exist_ok=True)
        for name, op in ops.items():
            (opdir / f"{name}.json").write_text(operator_to_json(op))
    if args.out:
        Path(args.out).open("a").close()
    checks = verify_identities(args.N, seed=args.seed, trials=args.trials) + golden
    rows = [(name, dev, dev < args.tol) for name, dev in checks]
    passed = all(ok for _, _, ok in rows)
    # Strict JSON has no NaN or inf: a non-finite deviation is written as null.
    items = [{"check": name, "max_deviation": dev if math.isfinite(dev) else None,
              "tolerance": args.tol, "passed": ok} for name, dev, ok in rows]
    report = json.dumps({"N": args.N, "seed": args.seed, "trials": args.trials,
                         "tolerance": args.tol, "checks": items, "passed": passed},
                        indent=2, allow_nan=False)
    if args.out:
        Path(args.out).write_text(report + "\n")
    if args.json:
        print(report)
    else:
        for name, dev, ok in rows:
            print(f"{'ok  ' if ok else 'FAIL'} {name:<20} max deviation {dev:.3e}")
        print(f"{'all checks passed' if passed else 'CHECKS FAILED'} "
              f"(N={args.N}, tol={args.tol:g})")
    return 0 if passed else 1


def cmd_circuit(args) -> int:
    if args.check and args.d ** args.qudits > CIRCUIT_CHECK_MAX_DIM:
        raise ValueError(f"--check on d^qudits = {args.d}^{args.qudits} levels exceeds "
                         f"the circuit check limit {CIRCUIT_CHECK_MAX_DIM}")
    out = _outdir(args)
    labels = list(WALK_MAPS) if args.transform == "all" else [args.transform]
    gens = generator_map(args.d ** args.qudits)
    ctx = PhaseSpaceContext(args.d ** args.qudits)
    status = 0
    for label in labels:
        gl = affine_circuit(args.d, args.qudits, gens[label])
        (out / f"gates-{label}.jsonl").write_text(gate_list_to_jsonl(gl, label))
        line = f"{label}: {len(gl.gates)} gates"
        if args.check:
            ok = circuit_deviation(ctx, gens[label], gl, 0) < 1e-8
            line += f", equal up to phase: {'true' if ok else 'false'}"
            if not ok:
                status = 1
        print(line)
    return status


def _finite_floats(text: str, names: str) -> list[float]:
    try:
        parts = [float(t) for t in text.split(",")]
    except ValueError:
        parts = []  # refused below with the wrong count's message
    if len(parts) != len(names.split(",")):
        raise argparse.ArgumentTypeError(f"expected {names!r}, got {text!r}")
    if not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"{text} is not finite")
    return parts


def _gamma(text: str) -> CovMatrix:
    return CovMatrix(*_finite_floats(text, "a,b,c"))


def _mean(text: str) -> MeanVector:
    return MeanVector(*_finite_floats(text, "x,p"))


def cmd_moments(args) -> int:
    text = moments_csv(args.gamma, args.mean, args.iters, args.map)
    out = _outdir(args)
    (out / "moments.csv").write_text(text)
    print(text.strip().splitlines()[-1])
    return 0


def cmd_contraction(args) -> int:
    report = contraction_check(discretize(args.fn, args.delta, args.R))
    out = _outdir(args)
    (out / f"contraction-{args.fn}.json").write_text(report.to_json() + "\n")
    print(f"{args.fn}: ratio {report.ratio:.6f} (bound {report.bound:.6f}, "
          f"N_embed {report.N_embed})")
    return 0 if report.passed() else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, as main reports the others."""

    def error(self, message):
        self.exit(2, f"margulis: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="margulis",
        description="Margulis expander walk, its quantization, and friends.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walk", help="iterate the walk from a point mass")
    p.add_argument("--N", type=_number(int, 3, WALK_MAX_MODULUS, "walk", odd=True), default=7)
    p.add_argument("--steps", type=_number(int, 0), default=3)
    p.add_argument("--start", type=_point, default=(0, 0), metavar="P,Q")
    p.add_argument("--fixed-scale", action="store_true",
                   help="share one grayscale range across frames")
    p.add_argument("--out")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("spectrum", help="walk and channel spectra as CSV")
    p.add_argument("--N", type=_dense_modulus_list, default=[3, 5, 7],
                   metavar="N1,N2,...")
    p.add_argument("--mode", choices=("classical", "quantum", "both"), default="both")
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="operator-identity check bundle")
    p.add_argument("--N", type=_number(int, 3, VERIFY_MAX_MODULUS, "verify", odd=True), default=7)
    p.add_argument("--seed", type=_number(int, 0), default=42)
    p.add_argument("--trials", type=_number(int, 1), default=20)
    p.add_argument("--tol", type=_number(float, 0, strict=True), default=1e-10)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--out", help="also write the JSON report to this path")
    p.add_argument("--dump-operators", metavar="DIR",
                   help="write reference operators as JSON golden files")
    p.add_argument("--compare-operators", metavar="DIR",
                   help="compare against previously dumped golden files")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("circuit", help="synthesize walk unitaries as gate lists")
    p.add_argument("--d", type=_number(int, 3, odd=True), default=3, help="qudit dimension (odd)")
    p.add_argument("--qudits", "-n", type=_number(int, 1), default=2)
    p.add_argument("--transform", choices=(*WALK_MAPS, "all"), default="all")
    p.add_argument("--check", action="store_true",
                   help="compare with the unitary's action on two random states")
    p.add_argument("--out")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("moments", help="iterate the covariance maps")
    p.add_argument("--gamma", type=_gamma, default=CovMatrix(1.0, 0.0, 1.0),
                   metavar="A,B,C")
    p.add_argument("--mean", type=_mean, default=MeanVector(0.0, 0.0), metavar="X,P")
    p.add_argument("--iters", type=_number(int, 0, MOMENTS_MAX_ITERS, "moments"), default=4)
    p.add_argument("--map", choices=("g", "f"), default="g")
    p.add_argument("--out")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("contraction", help="one-step contraction of a test function")
    p.add_argument("--fn", choices=sorted(TEST_FUNCTIONS), default="box_dipole")
    p.add_argument("--delta", default=0.25, type=_number(
        float, 0, CONTRACTION_MAX_DELTA, "contraction", strict=True))
    p.add_argument("--R", type=_number(int, 1, CONTRACTION_MAX_R, "contraction"), default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_contraction)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        # Checks of two flags or by the library, and bad paths: usage errors too.
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
