"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics instead.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; a human-readable report precedes it.  The program under
test is imported from ``src/`` next to this directory, and every file
the run writes lives under ``.bench_work/`` (removed at exit) and
``.bench_out/`` (the traced run's span log) in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("serve-warm", "serve-cold", "maintain")
END_TO_END = {
    "setup_s": "s",
    "throughput_ops": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
    "build_s": "s",
    "load_s": "s",
    "artifact_mb": "MiB",
    "qerror_maxhop_log10": "log10",
    "qerror_molp_log10": "log10",
}


@dataclass
class Context:
    """What a workload's ``run`` receives."""

    seed: int
    seconds: float
    trace: bool
    scratch: Path
    env: dict


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run; whole rounds are run "
                             "until this much timed work has been done "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="feed every correctness check a deliberately "
                             "wrong input and exit 0 only if all reject it")
    return parser


def _print_report(workload: str, result: dict) -> None:
    report = dict(result["report"])
    report["end_to_end"] = result["end_to_end"]
    if "per_layer" in result:
        report["per_layer"] = {name: entry["value"]
                               for name, entry in result["per_layer"].items()}
    print(f"# {workload}: " + json.dumps(report, indent=1, default=str))
    for failure in result["failures"]:
        print(f"# CHECK FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        print("perfbench: --workload is required", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        if args.self_test:
            import checks

            results = checks.self_test(scratch)
            for name, rejected in results.items():
                print(f"{'rejected' if rejected else 'ACCEPTED'}  {name}")
            return 0 if all(results.values()) else 1
        import common

        ctx = Context(seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), scratch=scratch, env=env)
        started = time.perf_counter()
        with common.calibrator():
            if args.workload == "maintain":
                import maintain

                result = maintain.run(ctx)
            else:
                import serve

                profile = (serve.WARM if args.workload == "serve-warm"
                           else serve.COLD)
                result = serve.run(profile, ctx)
        result["report"]["wall_s"] = time.perf_counter() - started
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    _print_report(args.workload, result)
    if args.trace:
        result["recorder"].write(
            ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
            ".spans.ndjson")
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": float(result["end_to_end"][name]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
