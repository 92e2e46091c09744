"""Benchmark entry point for nullinf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/nullinf``.  Work runs in
fresh single-threaded child processes (``child.py``), one at a time.

With ``--trace 0`` the workload's fixed work repeats as often as fits in
``--seconds`` of wall time (at least once; a repeat starts only if it should
end in time): inside one child after one set-up, or in a fresh child per
repeat for ``cli_all``, whose sympy caches would otherwise carry over.
Set-up-only children top the set-up samples up to three, and the end-to-end
metrics are medians over samples.  With ``--trace 1`` one untraced and one
traced child run one repeat each; the per-layer metrics come from the traced
one and ``trace.overhead_s`` is the difference of the two solve times.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, each metric as
``{"value": ..., "unit": ...}`` with names and units from
``BENCHMARK.json``.  ``--fast`` runs the smallest sizes, for the self-tests.
See NOTES.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170  # every child is stopped by then, so a run ends within 180 s
# one thread per numeric library, so a pass uses one of the machine's cores
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class ChildFailed(Exception):
    pass


def run_child(job, tmp, index, deadline):
    workdir = tmp / f"pass{index}"
    workdir.mkdir()
    job = dict(job, root=str(ROOT), workdir=str(workdir))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(job)],
        cwd=ROOT, env={**os.environ, **THREAD_ENV}, capture_output=True, text=True,
        timeout=max(deadline - time.perf_counter(), 1.0),
    )
    shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{job['mode']} pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def measure(workload, inp, seconds, trace, fast, tmp):
    base = {"workload": workload, "inputs": inp, "fast": fast, "slice_s": 0.0}
    counter = itertools.count()
    start = time.perf_counter()
    child = lambda **job: run_child(dict(base, **job), tmp, next(counter), start + RUN_LIMIT_S)
    if trace:
        # one repeat each, so layer counts are those of the fixed work
        plain, traced = [child(mode="work")], [child(mode="trace")]
        return plain, traced, [plain[0]["setup_s"]]
    plain, last = [], 0.0
    # start another child only if it should end within the measuring time
    while not plain or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        left = 0.0 if workload in workloads.FRESH_PROCESS_PER_REPEAT else seconds - (t - start)
        plain.append(child(mode="work", slice_s=left))
        last = time.perf_counter() - t
    setups = [p["setup_s"] for p in plain]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child(mode="setup")["setup_s"])
    return plain, [], setups


def summarize(plain, traced, setups):
    solves = lambda passes: [t for p in passes for t in p["solve_s"]]
    ops = [op for p in plain + traced for op in p["ops"]]
    failed = [op for op in ops if not op[1]]
    values = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(solves(plain)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "pass_frac": (len(ops) - len(failed)) / len(ops),
    }
    # delivered work per second of solve, for the report lines only
    rates = {f"{unit}_per_s": n / values["solve_s"] for unit, n in plain[0]["units"].items()}
    if traced:
        values.update(traced[0]["layers"])
        values["trace.overhead_s"] = traced[0]["solve_s"][0] - values["solve_s"]
    return values, rates, ops, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true", help="smallest sizes, for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nullinf" / "__init__.py").is_file():
        print(f"perfbench: no nullinf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    inp = workloads.make_inputs(args.workload, args.seed)
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        plain, traced, setups = measure(args.workload, inp, args.seconds, args.trace, args.fast, tmp)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()

    values, rates, ops, failed = summarize(plain, traced, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  inputs {json.dumps(inp)}")
    print(f"processes {len(plain)} untraced, {len(traced)} traced; set-up samples {len(setups)}")
    print("  solve_s per repeat: " + " ".join(f"{t:.3f}" for p in plain + traced for t in p["solve_s"]))
    print("  setup_s per sample: " + " ".join(f"{s:.3f}" for s in setups))
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    for name, value in rates.items():
        print(f"  {name:<52} {value:>16.6g} 1/s")
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
