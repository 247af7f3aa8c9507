"""Steadiness mode: run each workload repeatedly and report the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workload NAME ...]

For every workload it makes ``runs`` untraced runs per set, each with
another seed; with ``--sets 2`` the runs of the two sets alternate
(A, B, A, B, ...) and set B uses a disjoint range of seeds.  For every
end-to-end metric it prints the median and quartiles of each set, the
quartile spread as a share of the median next to the metric's bound in
``BENCHMARK.json``, and, with two sets, how far the second median moved
from the first.  It also checks that the share of failed operations is
the same in every run.  Exit code 1 if any spread or any drift exceeds
its bound, or any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fingerprint() -> dict:
    """nproc, CPU model, Python and NumPy versions of this machine."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=False,
    ).stdout.strip() or "unavailable"
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy}


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """One untraced run: its result line and its wall seconds."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}: {completed.stderr[-2000:]}")
    return (json.loads(completed.stdout.strip().splitlines()[-1]),
            time.perf_counter() - started)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload (default 10)")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    print(json.dumps({"machine": fingerprint()}))
    ok = True
    for workload in workloads:
        sets: list[list[dict]] = [[] for _ in range(args.sets)]
        for index in range(args.runs):
            for which in range(args.sets):
                seed = args.first_seed + index + which * 1000
                result, wall = run_once(workload, seed, spec["run_seconds"])
                sets[which].append(result)
                print(f"# {workload} set {which} seed {seed} wall {wall:.1f}s: "
                      + json.dumps({k: round(v["value"], 6)
                                    for k, v in result["metrics"].items()}),
                      flush=True)
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        if len(shares) != 1 or not all(r["correct"] for s in sets for r in s):
            ok = False
            print(f"{workload}: failed shares {sorted(shares)} or an "
                  "incorrect run")
        for name, bound in bounds.items():
            line = [f"{workload:10s} {name:22s} bound {bound:.2f}"]
            medians = []
            for which, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.append(q2)
                line.append(f"set{which} q1 {q1:.6g} med {q2:.6g} q3 {q3:.6g}"
                            f" spread {spread:.3f}")
                if spread > bound:
                    ok = False
                    line.append("SPREAD>BOUND")
            if len(medians) == 2:
                better = next(m["better"] for m in spec["end_to_end"]
                              if m["name"] == name)
                drift = (medians[1] - medians[0]) / medians[0]
                worse = drift if better == "lower" else -drift
                line.append(f"drift {drift:+.3f}")
                if worse > bound:
                    ok = False
                    line.append("DRIFT>BOUND")
            print("  ".join(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
