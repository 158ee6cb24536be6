"""Self-test of the benchmark at tiny sizes (N=7, 2 qudits).

    python3 perfbench/selftest.py

Run from the root of a checkout.  It asserts that

1. every workload, untraced and traced, prints a result line of the agreed
   shape naming every metric of BENCHMARK.json with its unit, and passes
   all its checks;
2. a deliberately wrong reference spectral gap is counted as a failed
   check (exit status 1, result still printed) rather than crashing;
3. a library call that raises, in set-up or in the first pass, is
   counted as a failed check (exit status 1, result still printed); the
   broken library is a patched copy of ``src/`` under ``.perfbench_out/``;
4. in a directory holding only BENCHMARK.json and perfbench/ the
   benchmark exits nonzero without printing a result;
5. src/, tests/ and demos/ are unchanged by all of the above.

Exits 1 if any assertion fails.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
KEYS = {"correct", "attempted", "failed", "metrics"}

# Appended to a copy of margulis/walk.py: spectral_report raises after
# ``{after}`` calls in a process.
BREAK_SPECTRAL_REPORT = """

_working_spectral_report = spectral_report
_spectral_report_calls = [0]


def spectral_report(*args, **kwargs):
    _spectral_report_calls[0] += 1
    if _spectral_report_calls[0] > {after}:
        raise RuntimeError("spectral_report broken on purpose")
    return _working_spectral_report(*args, **kwargs)
"""


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for top in ("src", "tests", "demos"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _run(cwd: Path, *args: str):
    """(exit status, parsed last stdout line or None, stderr) of run.py in ``cwd``."""
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr[-1000:]


def _shape_errors(result, expected: dict[str, str]) -> list[str]:
    if not isinstance(result, dict) or set(result) != KEYS:
        return [f"result keys {sorted(result) if isinstance(result, dict) else result!r}"]
    errors = []
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        errors.append(f"failed {result['failed']!r}")
    for name, unit in expected.items():
        metric = result["metrics"].get(name)
        if metric is None:
            errors.append(f"missing metric {name}")
        elif metric.get("unit") != unit:
            errors.append(f"{name} unit {metric.get('unit')!r} != {unit!r}")
        elif isinstance(metric.get("value"), bool) or not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{name} value {metric.get('value')!r}")
    extra = set(result["metrics"]) - set(expected)
    if extra:
        errors.append(f"unexpected metrics {sorted(extra)}")
    return errors


def _broken_copy(root: Path, dest: Path, after: int) -> Path:
    """A checkout in ``dest`` whose spectral_report raises after ``after`` calls."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    shutil.copytree(root / "src", dest / "src", ignore=ignore)
    (dest / "tests" / "golden").mkdir(parents=True)
    shutil.copy(root / "tests" / "golden" / "lambdas.json", dest / "tests" / "golden")
    walk = dest / "src" / "margulis" / "walk.py"
    walk.write_text(walk.read_text() + BREAK_SPECTRAL_REPORT.format(after=after))
    return dest


def main() -> int:
    root = Path.cwd().resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    before = _tree_digest(root)
    failures = []

    def check(label: str, errors: list[str]) -> None:
        print(f"{'ok  ' if not errors else 'FAIL'} {label}" + "".join(f"\n     {e}" for e in errors))
        failures.extend(errors)

    sys.path.insert(0, str(HERE))
    from metrics import PER_LAYER

    named = {m["name"] for m in spec["per_layer"]}
    check("metrics.PER_LAYER defines exactly the per-layer metrics of BENCHMARK.json",
          [f"only in one of them: {sorted(named ^ set(PER_LAYER))}"] if named ^ set(PER_LAYER) else [])

    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            status, result, stderr = _run(root, "--workload", w["name"], "--seed", "7",
                                          "--seconds", "1", "--trace", str(trace), "--tiny")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            errors = _shape_errors(result, expected)
            if status != 0 or (result and not result.get("correct")):
                errors.append(f"exit status {status}: {stderr}")
            check(f"{w['name']} trace={trace}: every {kind} metric with its unit", errors)

    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    wrong = out / "wrong_reference.json"
    wrong.write_text(json.dumps({"lambdas": {"7": 0.5}}))
    status, result, stderr = _run(root, "--workload", "gap_ladder", "--seed", "7",
                                  "--seconds", "1", "--trace", "0", "--tiny",
                                  "--reference", str(wrong))
    errors = _shape_errors(result, {m["name"]: m["unit"] for m in spec["end_to_end"]})
    if status != 1 or not result or result["correct"] or result["failed"] < 1:
        errors.append(f"exit status {status}, result {result}: {stderr}")
    check("wrong reference lambda is a failed check, not a crash", errors)

    # gap_ladder's tiny set-up calls spectral_report twice, so "after 2"
    # breaks the first pass and "after 0" the set-up; cli_session's
    # spectrum command exits nonzero.
    for workload, after, where in (("gap_ladder", 0, "set-up"), ("gap_ladder", 2, "first pass"),
                                   ("cli_session", 0, "spectrum command")):
        broken = _broken_copy(root, out / f"broken-{after}", after)
        status, result, stderr = _run(broken, "--workload", workload, "--seed", "7",
                                      "--seconds", "1", "--trace", "0", "--tiny")
        ok = (status == 1 and isinstance(result, dict) and set(result) == KEYS
              and result["correct"] is False and result["failed"] >= 1)
        check(f"{workload}: spectral_report raising in the {where} is a failed check",
              [] if ok else [f"exit status {status}, result {result}: {stderr}"])
        shutil.rmtree(broken)

    bare = out / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    status, result, _ = _run(bare, "--workload", "gap_ladder", "--seed", "7", "--seconds", "1",
                             "--trace", "0")
    check("outside a checkout: nonzero exit and no result",
          [] if status != 0 and result is None else [f"exit status {status}, result {result}"])
    shutil.rmtree(bare)

    after = _tree_digest(root)
    check("src/, tests/ and demos/ unchanged",
          [f"changed {p}" for p in sorted(set(before) | set(after)) if before.get(p) != after.get(p)])
    print("self-test " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
