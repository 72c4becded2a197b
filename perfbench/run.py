"""End-to-end benchmark of the ``uucs`` commands users run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study_analyze --seed 1 --seconds 20 --trace 0

Workloads: ``study_analyze``, ``harvest``, ``hot_sync``, or ``all`` to
run each in turn.  ``--trace 0`` runs the commands as a user runs them
and reports the end-to-end metrics; ``--trace 1`` is the traced run,
which traces all three workloads whichever is named and reports the
per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 1 when any output check fails and 2 when the program
cannot be found.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOAD_NAMES = ("study_analyze", "harvest", "hot_sync")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _emit(name: str, result, trace: int) -> dict:
    """Print one workload's figures for people; return its JSON object."""
    print(f"== {name} ({'traced' if trace else 'untraced'})")
    for figure, value, unit, note in result.figures:
        print(f"  {figure:32s} {value:14.6g} {unit:6s} {note}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    metrics = {
        key: {"value": value, "unit": unit} for key, (value, unit) in result.metrics.items()
    }
    finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in metrics.values())
    return {
        "correct": not result.problems and result.failed == 0 and finite,
        "attempted": max(1, int(result.attempted)),
        "failed": int(result.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = HERE.parent
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro package under {root / 'src'}", file=sys.stderr)
        return 2
    # The benchmark process hosts the sync clients and the output checks.
    sys.path.insert(0, str(root / "src"))

    from programs import Context

    work = root / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    previous_tempdir, tempfile.tempdir = tempfile.tempdir, str(work)
    ctx = Context(root=root, work=work, seed=args.seed, seconds=args.seconds)
    try:
        if args.trace:
            import traced

            names = (args.workload,)
            outputs = [_emit(args.workload, traced.run(ctx), 1)]
        else:
            import workloads

            names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
            outputs = [_emit(name, workloads.WORKLOADS[name](ctx), 0) for name in names]
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still works there
    if len(outputs) == 1:
        summary = outputs[0]
    else:
        summary = {
            "correct": all(o["correct"] for o in outputs),
            "attempted": sum(o["attempted"] for o in outputs),
            "failed": sum(o["failed"] for o in outputs),
            "metrics": {f"{n}.{k}": v for n, o in zip(names, outputs) for k, v in o["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
