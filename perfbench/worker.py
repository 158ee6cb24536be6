"""One workload in a fresh process: set-up, then timed passes of fixed work.

Run by ``run.py``; not meant to be called by hand::

    python perfbench/worker.py --root DIR --workload NAME --seed N
        --seconds S --trace 0|1 --out DIR [--tiny] [--reference FILE]
        [--setup-only]

After set-up it prints ``ready`` on stdout, which is where the caller stops
the set-up clock.  With ``--setup-only`` it exits there.  Otherwise it
repeats passes while the next one fits in ``--seconds`` (at least three;
with ``--trace 1`` untraced and traced passes alternate, at least two of
each) and writes ``worker.json`` into ``--out``; traced runs also write
``spans.jsonl`` and ``layers.json``.  An exception in set-up or in a
pass is recorded as a failed check and ends the run.  Untraced runs time one more set-up,
in a fresh process, before every pass, so that set-up samples are spread
over the run as the passes are.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads; pin it before any import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import metrics  # noqa: E402
from tracing import Tracer, count_eigensolves, library_calls, peak_rss_mb  # noqa: E402
from workloads import CHILD_TIMEOUT_S, WORKLOADS, Checks, deadline, pinned_env  # noqa: E402

HARD_STOP_S = 120.0  # keeps a slow program inside the 180 s a run may take


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def wait_child(proc: subprocess.Popen, what: str, timeout: float = CHILD_TIMEOUT_S) -> None:
    """Drain and wait for a child, killing it after ``timeout``; raise unless it exited 0."""
    with deadline(proc, timeout) as expired:
        if proc.stdout is not None:
            proc.stdout.read()
        proc.wait()
    if expired.is_set():
        raise BenchError(f"{what} did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with status {proc.returncode}")


def timed_setup(cmd: list[str], env: dict, cwd: Path, until_exit: bool) -> float:
    """Seconds from process start until it printed ``ready`` (or, if ``until_exit``, exited)."""
    t0 = time.perf_counter()
    if until_exit:
        wait_child(subprocess.Popen(cmd, cwd=cwd, env=env), "set-up process")
        return time.perf_counter() - t0
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    with deadline(proc) as expired:
        line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if expired.is_set():
        proc.wait()
        raise BenchError(f"set-up process was not ready in {CHILD_TIMEOUT_S:.0f} s")
    wait_child(proc, "set-up process")
    if line.strip() != "ready":
        raise BenchError(f"set-up process printed {line!r} instead of 'ready'")
    return elapsed


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--reference", type=Path)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _import_margulis(root: Path, tracer):
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import margulis
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.record("cli.import", t0, t1)
    if Path(margulis.__file__).resolve().parent != (root / "src" / "margulis").resolve():
        raise SystemExit(f"margulis imported from {margulis.__file__}, not {root / 'src'}")


def main(argv=None) -> int:
    args = _parse(argv)
    root = args.root.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer("setup") if args.trace else None
    checks = Checks()
    cli = args.workload == "cli_session"
    env = pinned_env(root)
    launcher = Path(__file__).resolve().parent / "launcher.py"
    if cli:
        setup_cmd = [sys.executable, "-c", "import margulis"]
    else:
        setup_cmd = [sys.executable, str(Path(__file__).resolve()),
                     *(argv if argv is not None else sys.argv[1:]), "--setup-only"]
    set_up = True
    try:
        if not cli:
            _import_margulis(root, tracer)
        workload = WORKLOADS[args.workload](root, args.seed, args.tiny, args.reference)
        if not cli:
            plain = SimpleNamespace(**library_calls(None, workload.names))
            traced = SimpleNamespace(**library_calls(tracer, workload.names)) if tracer else None
            with count_eigensolves(tracer) if tracer else nullcontext():
                workload.setup(traced or plain, checks)
    except Exception:  # a crashed set-up is a failed check; no pass runs
        traceback.print_exc()
        checks.expect("set-up completed", False, traceback.format_exc(limit=1))
        set_up = False
    print("ready", flush=True)
    if args.setup_only:
        return 0 if set_up else 1

    untraced_times: list[float] = []
    traced_times: list[float] = []
    setup_times: list[float] = []
    command_times: list[dict] = []
    minimum = 4 if args.trace else 3
    start = time.perf_counter()
    while set_up:
        done = len(untraced_times) + len(traced_times)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S:
            break
        # Traced runs alternate an untraced and a traced pass.
        use_trace = bool(args.trace) and done % 2 == 1
        if not use_trace and done >= minimum:
            unit = untraced_times[-1] + (traced_times[-1] if args.trace else setup_times[-1])
            if elapsed + unit > args.seconds:
                break
        if tracer is not None:
            tracer.run = f"pass-{len(traced_times)}"
        try:
            if not args.trace:
                setup_times.append(timed_setup(setup_cmd, env, root, until_exit=cli))
            if cli:
                spans_dir = args.out / f"launcher-{len(traced_times)}"
                if use_trace:
                    spans_dir.mkdir(exist_ok=True)
                wall, per_command = workload.run_pass(
                    args.out / "session", env, checks,
                    launcher if use_trace else None, spans_dir)
                if use_trace:
                    _collect_launcher_spans(tracer, spans_dir)
                else:
                    command_times.append(per_command)
            else:
                t0 = time.perf_counter()
                with count_eigensolves(tracer) if use_trace else nullcontext():
                    workload.run_pass(traced if use_trace else plain, checks)
                wall = time.perf_counter() - t0
        except Exception:  # a crashed set-up or pass is a failed check; stop the run
            traceback.print_exc()
            checks.expect(f"pass {done + 1} completed", False, traceback.format_exc(limit=1))
            break
        (traced_times if use_trace else untraced_times).append(wall)

    result = {
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "untraced_passes": untraced_times, "traced_passes": traced_times,
        "setup_samples": setup_times,
        "attempted": checks.attempted, "failed": checks.failed,
        "failures": checks.failures,
    }
    if cli:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        result["command_times"] = command_times
    else:
        result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None and traced_times:
        values, samples = metrics.summarize(tracer.spans, tracer.counts,
                                            traced_times, untraced_times)
        tracer.dump(args.out / "spans.jsonl")
        layers = {"note": metrics.NO_WAIT_NOTE, "values": values, "samples": samples}
        (args.out / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
        result["layers"] = layers
    (args.out / "worker.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


def _collect_launcher_spans(tracer: Tracer, spans_dir: Path) -> None:
    """Fold the spans and counters each launcher process wrote into ``tracer``."""
    for path in sorted(spans_dir.glob("*.jsonl")):
        offset = len(tracer.spans)
        for line in path.read_text().splitlines():
            span = json.loads(line)
            if "counter" in span:
                tracer.counts[(tracer.run, span["counter"])] += span["value"]
                continue
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            span["run"] = tracer.run
            tracer.spans.append(span)
        path.unlink()
    spans_dir.rmdir()


if __name__ == "__main__":
    sys.exit(main())
