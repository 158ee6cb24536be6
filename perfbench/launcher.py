"""Run one margulis command with spans around the library calls it makes.

    python perfbench/launcher.py SPANS_FILE COMMAND [ARGS...]

Replaces the library functions ``margulis.cli`` imported with traced
wrappers, calls ``margulis.cli.main([COMMAND, ARGS...])``, writes the spans
and the eigensolve count to SPANS_FILE as JSON lines and exits with the
command's status.  Only the traced cli_session run uses it; the untraced
run starts plain ``python -m margulis``.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LIBRARY_SPANS, Tracer, count_eigensolves, library_calls  # noqa: E402


def _bytes_in(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer("pass")
    t0 = time.perf_counter()
    import margulis.cli as cli
    tracer.record("cli.import", t0, time.perf_counter())
    for name, fn in library_calls(tracer, [n for n in LIBRARY_SPANS if n in vars(cli)]).items():
        setattr(cli, name, fn)

    cwd = Path.cwd()
    before = _bytes_in(cwd)
    command = tracer.wrap(f"cli.{argv[0]}", cli.main,
                          attrs=lambda _: {"output_bytes": _bytes_in(cwd) - before})
    try:
        with count_eigensolves(tracer):
            return command(argv)
    finally:
        tracer.dump(spans_file)
        with open(spans_file, "a") as fh:
            for (_, counter), value in tracer.counts.items():
                fh.write(json.dumps({"counter": counter, "value": value}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
