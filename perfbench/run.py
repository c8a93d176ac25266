"""wmteleport benchmark: one workload per process, closed loop, one
client, one op at a time.

    python3 perfbench/run.py --workload reference_table --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from `src/` of
the checkout; nothing is installed. With `--trace 0` the last stdout
line reports the end-to-end metrics; with `--trace 1` each op runs
twice back to back, once traced, and the last line reports the
per-layer metrics. The line before it holds the environment, each op's
output digest and `op_s_tail` with its percentile. `op_s_tail` is not
an end-to-end metric: at these run lengths it is the fastest or second
fastest op on two of the workloads, a single sample that two runs of
the same code do not reproduce within any allowed bound.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from oracle import Oracle
from tracer import LAYERS, ROOT_LAYER, SCALAR_LAYERS, SWEEP_CORE, Tracer
from workloads import WORKLOADS, Verification

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Set-up interpreters run before the ops and again after them, so that
# the median spans two stretches of machine load.
SETUP_RUNS = 5
# Ops beyond the reported tail percentile.
TAIL_BEYOND = 10

# Fresh interpreter: import the package and run one 1x1 surface, so the
# lazy caches are warm. Prints its own elapsed seconds.
_SETUP_CODE = """
import contextlib, io, sys
from time import perf_counter
t0 = perf_counter()
import wmteleport
from wmteleport import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["surface", "--protocol", "I", "--channel", "adc", "--r", "0.5",
                   "--resolution", "1", "--out", sys.argv[1]])
elapsed = perf_counter() - t0
with open(sys.argv[1]) as fh:
    rows = fh.read().splitlines()
if rc != 0 or len(rows) != 2:
    raise SystemExit(f"1x1 surface gave exit status {rc} and {len(rows)} lines")
print(elapsed)
"""


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def _blas() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _l3_bytes() -> int | None:
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                units = {"K": 1 << 10, "M": 1 << 20}
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            return None
    return None


def _commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read from files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def measure_setup(workdir: Path, times: list[float]) -> str | None:
    """Append the set-up seconds of SETUP_RUNS fresh interpreters to
    `times`, run one at a time with the absolute src path first on
    PYTHONPATH. Returns what went wrong, if anything."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for _ in range(SETUP_RUNS):
        out = workdir / f"setup-{len(times)}.csv"
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(out)], cwd=workdir,
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            return f"set-up interpreter failed: {proc.stderr.strip()[-500:]}"
        times.append(float(proc.stdout.split()[-1]))
    return None


def run_op(cli, op, tracer=None) -> None:
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                op.rc = cli.main(op.argv)
            else:
                op.rc = tracer.call(ROOT_LAYER, cli.main, op.argv)
    except SystemExit as exc:
        op.rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        op.problem = f"raised {type(exc).__name__}: {exc}"
    finally:
        op.seconds = perf_counter() - start
    op.stdout = buf.getvalue()
    if op.problem is None and op.rc != op.expect_rc:
        op.problem = f"exit status {op.rc!r}, expected {op.expect_rc}"


def finished(elapsed: float, seconds: float, ops: int, cycle: int) -> bool:
    """True at the end of the whole cycle of ops that ends nearest to
    `seconds`: the loop stops once another cycle, as long as the mean
    cycle so far, would end further from `seconds` than now."""
    if ops == 0 or ops % cycle:
        return False
    return elapsed + elapsed / (ops // cycle) / 2 >= seconds


def timed_loop(cli, ops, seconds: float, cycle: int):
    """Closed loop: start the next op as soon as the previous one ends,
    until the whole cycle of ops that ends nearest to `seconds`.
    Returns (ops, wall, cpu seconds)."""
    done = []
    cpu0 = _cpu_seconds()
    t0 = perf_counter()
    while not finished(perf_counter() - t0, seconds, len(done), cycle):
        op = next(ops)
        run_op(cli, op)
        done.append(op)
    return done, perf_counter() - t0, _cpu_seconds() - cpu0


def traced_loop(cli, ops, seconds: float, cycle: int, tracer) -> list:
    """Run each op twice back to back, once untraced and once traced,
    alternating which goes first, so that the overhead ratio compares
    the same op under the same machine load. Ends like `timed_loop`."""
    done = []
    t0 = perf_counter()
    while not finished(perf_counter() - t0, seconds, len(done) // 2, cycle):
        op = next(ops)
        op.twin = op.copy()
        op.traced = True
        for run in (op.twin, op) if len(done) % 4 == 0 else (op, op.twin):
            if run.traced:
                tracer.op = len(done) // 2
                with tracer:
                    run_op(cli, run, tracer)
            else:
                run_op(cli, run)
        done += [op, op.twin]
    return done


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond
    it (the lowest sample when there are too few): (value, percentile,
    samples beyond)."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ops, wall: float, cpu: float, rss_mib: float,
               setup: list[float]) -> tuple[dict, dict]:
    times = [op.seconds for op in ops]
    failed = sum(op.problem is not None for op in ops)
    tail_s, pct, beyond = tail(times)
    metrics = {
        # 0 only when every set-up interpreter failed, which fails the run.
        "setup_s": _metric(statistics.median(setup) if setup else 0.0, "s"),
        "op_s_p50": _metric(statistics.median(times), "s"),
        "ops_per_s": _metric(len(ops) / wall, "1/s"),
        "cpu_s_per_op": _metric(cpu / len(ops), "s"),
        "peak_rss_mb": _metric(rss_mib, "MiB"),
        "ok_ratio": _metric((len(ops) - failed) / len(ops), "ratio"),
    }
    extra = {"op_s_tail": tail_s, "tail_percentile": pct, "tail_samples_beyond": beyond,
             "samples": len(ops), "failed_ratio": failed / len(ops), "setup_s_runs": setup}
    return metrics, extra


def per_layer(tracer, ops, found) -> tuple[dict, dict]:
    """Every per_layer metric that BENCHMARK.json names, per traced op.
    Names of the form `<layer>.self_s`, `<layer>.calls` and
    `<layer>.s` (inclusive seconds) are read off the spans of a tracer
    layer; the other names are computed below."""
    traced = [op for op in ops if op.traced]
    n = len(traced)
    wall = tracer.wall
    self_s, calls = tracer.self_times()
    by_kind = {"self_s": self_s, "calls": calls, "s": tracer.inclusive_times()}
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    attributed = sum(s for layer, s in self_s.items() if layer != ROOT_LAYER)
    computed = {
        "sweep.branch_build.bytes_out": counts["sweep.branch_build.bytes_out"] / n,
        "sweep.contract.cells": counts["sweep.contract.cells"] / n,
        "sweep.contract.cells_per_s": ratio(counts["sweep.contract.cells"],
                                            self_s.get("sweep.contract", 0.0)),
        "sweep.refine.useful_ratio": ratio(counts["sweep.refine.raised"],
                                           counts["sweep.refine.run"]),
        "sweep.nan_cell_ratio": ratio(counts["sweep.nan_cells"], counts["sweep.contract.cells"]),
        "sweep.max_abs_dev": found.max_abs_dev,
        "cli.serialize.bytes": counts["cli.serialize.bytes"] / n,
        "trace.coverage": attributed / wall,
        "trace.overhead_ratio": statistics.median(op.seconds / op.twin.seconds
                                                  for op in traced),
    }
    m = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = spec["name"]
        layer, _, kind = name.rpartition(".")
        if name in computed:
            value = computed[name]
        elif layer in LAYERS and kind in by_kind:
            value = by_kind[kind].get(layer, 0) / n
        else:
            raise SystemExit(f"BENCHMARK.json names per-layer metric {name!r}, "
                             "which the benchmark does not measure")
        m[name] = _metric(value, spec["unit"])

    shares = {layer: s / wall for layer, s in sorted(self_s.items())}
    shares["sweep_core"] = sum(shares.get(layer, 0.0) for layer in SWEEP_CORE)
    shares["scalar_path"] = sum(shares.get(layer, 0.0) for layer in SCALAR_LAYERS)
    extra = {"traced_ops": n,
             "absent_layers": sorted(tracer.absent), "shares": shares,
             "refinements": [counts["sweep.refine.raised"], counts["sweep.refine.run"]],
             "oracle_cells": found.oracle_cells}
    return m, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wmteleport" / "cli.py").is_file():
        print(f"error: no wmteleport sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        setup = []
        setup_problem = None if args.trace else measure_setup(workdir, setup)
        from wmteleport import cli

        # Warm-up, not counted, from a generator of its own so that the
        # timed ops start at the beginning of a cycle.
        warm_up = workdir / "warm-up"
        warm_up.mkdir()
        run_op(cli, next(workload.ops(args.seed, warm_up)))
        ops = workload.ops(args.seed, workdir)
        if args.trace:
            tracer = Tracer()
            done = traced_loop(cli, ops, args.seconds, workload.cycle, tracer)
        else:
            done, wall, cpu = timed_loop(cli, ops, args.seconds, workload.cycle)
        # Before checking, so that the checks' own memory does not show.
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not (args.trace or setup_problem):
            setup_problem = measure_setup(workdir, setup)
        found = Verification()
        workload.verify(done, Oracle(ROOT), found)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, extra = per_layer(tracer, done, found)
        trace_file = WORK / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        extra["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics, extra = end_to_end(done, wall, cpu, rss_mib, setup)
    if workload.frozen_sha256 is not None:
        extra["byte_identical"] = all(op.sha256 == workload.frozen_sha256 for op in done)

    problems = [p for p in [setup_problem] + [op.problem for op in done] if p]
    detail = {"workload": workload.name, "trace": args.trace, "env": environment(args.seed),
              **extra, "max_abs_dev": found.max_abs_dev, "problems": problems[:10],
              "ops": [op.summary() for op in done]}
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": len(done),
                      "failed": sum(op.problem is not None for op in done),
                      "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
