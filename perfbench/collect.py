"""Run workloads over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 --seconds 15 --out perfbench/baseline.json

Runs are sequential, one fresh process each.  For every workload and metric
the summary holds the median, the quartiles (`statistics.quantiles(n=4)`)
and the spread: the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    sources = sorted((HERE.parent / "src" / "qgen").glob("*.py"))
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": _seeds(args.seeds),
               "python": platform.python_version(),
               # what `wc -l src/qgen/*.py` counts; a count, not a metric
               "source_lines": sum(p.read_bytes().count(b"\n") for p in sources),
               "workloads": {}}
    for name in args.workloads.split(","):
        runs, env = [], None
        for seed in summary["seeds"]:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True).stdout.strip().splitlines()
            env = json.loads(out[-2])["report"]["env"]
            last = json.loads(out[-1])
            runs.append(last)
            print(name, seed, json.dumps(last), flush=True)
        metrics = {k: summarize([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        summary["workloads"][name] = {
            "env": env,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for k, m in metrics.items():
            print(f"  {name:15s} {k:28s} median {m['median']:.6g}  spread {m['spread']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
