"""Run the benchmark and print every metric by name, with its unit.

    python3 perfbench/report.py                      # each workload once
    python3 perfbench/report.py --runs 10 --seed 100 # spread over 10 seeds
    python3 perfbench/report.py --trace              # per-layer metrics

Every workload in `BENCHMARK.json` runs for its `run_seconds`, one run
at a time, each in its own process, exactly as the file describes.
With several runs the table gives each metric's median, quartiles and
spread (interquartile range over the median) next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: bool):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for i in range(args.runs):
            detail, result = run_once(spec, workload, args.seed + i, args.trace)
            ok = result["correct"] and result["failed"] == 0
            all_ok &= ok
            tail = (f", op_s_tail {detail['op_s_tail']:.6g} s at p{detail['tail_percentile']:.0f}"
                    f" of {detail['samples']}" if "op_s_tail" in detail else "")
            print(f"# {workload} seed {args.seed + i}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}{tail}",
                  flush=True)
            if not ok:
                print(f"#   problems: {detail['problems']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            if args.trace:
                shares = detail["shares"]
                print(f"#   shares of traced wall: sweep core {shares['sweep_core']:.3f}, "
                      f"scalar path {shares['scalar_path']:.3f}, "
                      f"cli.serialize {shares.get('cli.serialize', 0.0):.3f}; "
                      f"absent layers: {detail['absent_layers']}")
        if args.runs == 1:
            print(f"{workload:<40} {'unit':<6} {'value':>12}")
            for name, vals in values.items():
                print(f"{name:<40} {units[name]:<6} {vals[0]:>12.6g}")
            print(flush=True)
            continue
        print(f"{workload:<40} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else (
                "  wide" if spread <= bound else "  OVER BOUND")
            print(f"{name:<40} {units[name]:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {bound if bound is not None else '':>6}{flag}")
        print(flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
