"""Benchmark of the margulis package: three workloads, each in fresh processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gap_ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload prints a table of its metrics (name, value, unit, sample
count) and, as its last line, the JSON result
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload untraced and traced and prints
every metric.  Full results, spans and layer summaries go to
``.perfbench_out/``.  The exit status is 0 when every check passed, 1 when
a check failed and 2 or 3 when the benchmark could not run.

``--tiny`` shrinks every workload to N=7 and 2 qudits for a smoke test;
``--reference FILE`` replaces the pinned reference spectral gaps.
"""

from __future__ import annotations

import os

# Pinned here and in every child: BLAS threads make dense timings unrepeatable.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import NO_WAIT_NOTE, PER_LAYER  # noqa: E402
import provenance  # noqa: E402
from worker import BenchError  # noqa: E402
from workloads import WORKLOADS, deadline, pinned_env  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
REQUIRED = ("BENCHMARK.json", "src/margulis/__init__.py", "tests/golden/lambdas.json")
WORKER_TIMEOUT_S = 170.0  # a run must end within 180 s


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: float,
                 trace: int, tiny: bool = False, reference: Path | None = None) -> dict:
    """Set-up samples plus one worker run; returns the full report."""
    out = root / OUT / f"{workload}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = pinned_env(root)
    worker = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
              "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--out", str(out)]
    if tiny:
        worker.append("--tiny")
    if reference is not None:
        worker += ["--reference", str(reference.resolve())]

    # The worker leads its own process group, so a timeout also ends its children.
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    with deadline(proc, WORKER_TIMEOUT_S, group=True) as expired:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    if expired.is_set():
        raise BenchError(f"{workload} worker did not finish in {WORKER_TIMEOUT_S:.0f} s")
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"{workload} worker exited with status {proc.returncode}")
    result = json.loads((out / "worker.json").read_text())
    passes = result["untraced_passes"]
    # On cli_session the set-up samples are whole ``import margulis`` processes.
    setups = ([] if workload == "cli_session" else [ready_s]) + result["setup_samples"]
    crashed = not passes or (trace and not result["traced_passes"])
    if crashed and not result["failed"]:
        raise BenchError(f"{workload}: no pass completed")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if crashed:
        # A crash is a failed check; a run without a whole pass has no metric values.
        values, samples, names = {}, {}, []
    elif trace:
        values, samples = result["layers"]["values"], result["layers"]["samples"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = {"setup_s": statistics.median(setups),
                  "solve_s": statistics.median(passes),
                  "peak_rss_mb": result["peak_rss_mb"]}
        samples = {"setup_s": len(setups), "solve_s": len(passes), "peak_rss_mb": 1}
        names = [m["name"] for m in spec["end_to_end"]]
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "provenance": provenance.describe(root, env),
        "metrics": {n: {"value": values[n], "unit": units[n], "samples": samples[n]}
                    for n in names},
        "checks_failed_frac": result["failed"] / max(result["attempted"], 1),
        "worker": result, "setup_samples": setups,
        "result": {"correct": result["failed"] == 0 and result["attempted"] > 0,
                   "attempted": result["attempted"], "failed": result["failed"],
                   "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}},
    }
    (out / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    prov = report["provenance"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']}"
          f"{' tiny' if report['tiny'] else ''}: {prov['blas_name']} {prov['blas_version']}"
          f" on {prov['blas_threads']} thread(s) (default {prov['default_blas_threads']},"
          f" {prov['cpu_count']} CPUs), numpy {prov['numpy']}, python {prov['python']},"
          f" margulis {prov['margulis']}, revision {prov['git_revision']}")
    for name, m in report["metrics"].items():
        line = f"{report['workload']:<14} {name:<34} {m['value']:>16.6g} {m['unit']:<6} n={m['samples']}"
        if name in PER_LAYER:
            _, _, moves, on = PER_LAYER[name]
            line += f"  moves {moves} on {on}"
        print(line)
    per_command = report["worker"].get("command_times")
    if per_command:
        for name in per_command[0]:
            times = [t[name] for t in per_command]
            print(f"{report['workload']:<14} {'command ' + name:<34} {statistics.median(times):>16.6g}"
                  f" s      n={len(times)}  (process start to exit, not gated)")
    res = report["result"]
    print(f"{report['workload']:<14} {'checks_failed_frac':<34} {report['checks_failed_frac']:>16.6g}"
          f" ratio  ({res['failed']} of {res['attempted']} checks failed)")
    for failure in report["worker"]["failures"]:
        print(f"  FAILED {failure}")
    if report["trace"]:
        print(f"# {NO_WAIT_NOTE}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="N=7, 2 qudits: a smoke test")
    p.add_argument("--reference", type=Path,
                   help="reference spectral gaps to check against, JSON {N: lambda}")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd().resolve()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"run.py: run from the root of a margulis checkout; missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        todo = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        todo = [(args.workload, args.trace)]
    try:
        reports = [run_workload(root, spec, w, args.seed, seconds, t, args.tiny, args.reference)
                   for w, t in todo]
    except (BenchError, OSError, ValueError, subprocess.CalledProcessError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 3
    for report in reports:
        print_report(report)
    correct = all(r["result"]["correct"] for r in reports)
    if args.workload == "all":
        summary = {"correct": correct,
                   "attempted": sum(r["result"]["attempted"] for r in reports),
                   "failed": sum(r["result"]["failed"] for r in reports),
                   "runs": [{k: r[k] for k in ("workload", "trace", "provenance", "metrics",
                                               "checks_failed_frac")} for r in reports]}
        path = root / OUT / f"all-seed{args.seed}.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"# wrote {path.relative_to(root)}")
        print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed")}))
    else:
        print(json.dumps(reports[0]["result"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
