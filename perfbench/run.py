"""Run one qgen benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before it is
a report with the environment, the realized input shape, output digests and,
when traced, the full layer split.  `--workload all` runs every workload,
each in a fresh process, one after another.  `--smoke` shrinks every shape
so that a run takes seconds; its numbers are not comparable to full runs.

The benchmark imports qgen from `src/` next to this directory and exits with
status 2 when there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-toy", "train-paper", "generate-paper")
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_blas_threads() -> tuple[int, int]:
    """Cap BLAS threads at the CPUs this process may use; numpy reads these
    variables when it is first imported."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(nproc, int(requested)) if requested.isdigit() and int(requested) > 0 else nproc
    for var in _BLAS_VARS:
        os.environ[var] = str(threads)
    return nproc, threads


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _run_one(args) -> int:
    nproc, threads = _limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "env": {"nproc": nproc, "blas_threads": threads, "numpy": numpy.__version__,
                "python": platform.python_version()},
        "failed_frac": result.failed / max(result.attempted, 1),
        "problems": result.problems[:20],
        **result.report,
    }
    print(json.dumps({"report": report}))
    metrics = result.per_layer if args.trace else result.metrics
    print(_result_line(result.correct, result.attempted, result.failed, metrics))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process: one process's heap and allocator
    state would carry into the next workload's numbers."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        for key, m in last["metrics"].items():
            metrics[f"{name}/{key}"] = (m["value"], m["unit"])
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def _pin_hash_seed() -> None:
    """Re-execute with string hashing fixed: the random per-process hash
    seed moves set-up times by about 15 %."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds after the warm-up op")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qgen" / "__init__.py").is_file():
        print(f"perfbench: no qgen sources at {ROOT / 'src' / 'qgen'}", file=sys.stderr)
        return 2
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
