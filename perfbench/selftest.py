"""Self-tests of the benchmark; exits non-zero if any fails.

    python3 perfbench/selftest.py

1. Every workload runs at its smallest size (``--fast``), traced and
   untraced, and prints every metric of ``BENCHMARK.json`` with its unit.
2. Every correctness gate passes on a clean result and fires on a
   corrupted one: a Hawking mass moved by 1e-6, a flipped CSV byte, a failed
   report row, a shifted iterate, a raised solver error.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402

FAILURES = []


def expect(cond, message):
    print(f"{'ok  ' if cond else 'FAIL'} {message}", flush=True)
    if not cond:
        FAILURES.append(message)


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--fast"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_fast_mode(spec):
    for workload in wl.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} operations, {result['failed']} failed")
            units = {m["name"]: m["unit"] for m in wanted}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == units, f"{label}: prints all {len(units)} metrics with their units")
            if not trace:
                values = [m["value"] for m in result["metrics"].values()]
                expect(all(v > 0 for v in values), f"{label}: end-to-end metrics are positive")


def failed_ops(check, res, inp):
    return {name for name, ok, _ in check(res, inp) if not ok}


def test_news_gates():
    inp = wl.make_inputs("news_congruence", 0)
    res = wl.news_work(wl.news_setup(inp, True, None), inp, True)
    expect(not failed_ops(wl.news_check, res, inp), "news_congruence: clean result passes")
    for rc in wl.NEWS_RADII:
        bad = dict(res, hawking=dict(res["hawking"]))
        bad["hawking"][rc] += 1e-6
        expect(failed_ops(wl.news_check, bad, inp) == {f"hawking/r={rc:g}"},
               f"news_congruence: Hawking mass at r={rc:g} moved by 1e-6 fails its gate")
    bad = dict(res, area=dict(res["area"]))
    bad["area"][300.0] *= 1.01
    expect(failed_ops(wl.news_check, bad, inp) == {"area/r=300"},
           "news_congruence: area-radius deviation at r=300 moved by 1% fails its gate")
    cut_error = wl.Failed(ValueError("degenerate cut"))
    bad = dict(res, cuts=dict(res["cuts"]), hawking=dict(res["hawking"]), area=dict(res["area"]))
    bad["cuts"][1000.0] = bad["hawking"][1000.0] = bad["area"][1000.0] = cut_error
    expect(failed_ops(wl.news_check, bad, inp) == {"cut/r=1000", "hawking/r=1000", "area/r=1000"},
           "news_congruence: a raised cut counts the cut and its two masses as failed")


def _raise(exc):
    raise exc


def test_cli_gates(tmp):
    inp = {}
    res = wl.cli_work(wl.cli_setup(inp, True, tmp), inp, True)
    ops = wl.cli_check(res, inp)
    expect(len(ops) == 1 + wl.CLI_REPORT_ROWS + 25 and all(ok for _, ok, _ in ops),
           f"cli_all: exit 0, {wl.CLI_REPORT_ROWS} report rows pass, 25 outputs match their SHA-256")
    out = Path(res["out"])
    csv_file = out / "trajectory.csv"
    data = bytearray(csv_file.read_bytes())
    data[100] ^= 0x01
    csv_file.write_bytes(bytes(data))
    expect(failed_ops(wl.cli_check, res, inp) == {"sha256/trajectory.csv"},
           "cli_all: one flipped byte in trajectory.csv fails its hash gate")
    report = out / "report_geodesics.csv"
    report.write_text(report.read_text().replace(",pass\n", ",fail\n", 1))
    failed = failed_ops(wl.cli_check, res, inp)
    expect("report_geodesics/null-norm" in failed, "cli_all: a failing report row fails its gate")
    expect(failed_ops(wl.cli_check, dict(res, exit=1), inp) >= {"exit-code"},
           "cli_all: exit code 1 fails its gate")


def test_characteristic_gates():
    import numpy as np

    inp = wl.make_inputs("characteristic", 0)
    res = wl.char_work(wl.char_setup(inp, True, None), inp, True)
    expect(not failed_ops(wl.char_check, res, inp), "characteristic: clean result passes")

    iterates, errors, ratios = res["newton"]
    moved = [list(it) for it in iterates]
    sol = moved[4][2]
    moved[4][2] = type(sol)(sol.grid, sol.gamma, sol.u + 1e-5, sol.w, sol.corner_mismatch)
    bad = dict(res, newton=(moved, errors, ratios))
    expect(failed_ops(wl.char_check, bad, inp) == {"newton_iterate"},
           "characteristic: an iterate shifted by 1e-5 fails the global-iteration gate")

    x1, x2, x4 = res["damped"]
    tilted = type(x1)(x1.grid, x1.gamma, x1.u * (x1.grid.rhoI / 0.1) ** (-0.15 * inp["gamma"]), x1.w)
    bad = dict(res, damped=[tilted, x2, x4])
    expect("solve_damped_mode/x1" in failed_ops(wl.char_check, bad, inp),
           "characteristic: a decay exponent off by 15% fails its gate")

    e1 = np.max(np.abs(x1.u - x4.u[::4, ::4]))
    kicked = x2.u.copy()
    kicked[2 * (len(kicked) // 4), 6] += e1  # a node the coarse grid shares
    bad = dict(res, damped=[x1, type(x2)(x2.grid, x2.gamma, kicked, x2.w), x4])
    expect(failed_ops(wl.char_check, bad, inp) == {"solve_damped_mode/x4"},
           "characteristic: one cell of the x2 solution moved by the x1 error fails the convergence gate")

    bad = dict(res, newton=wl.attempt(_raise, RuntimeError("iteration diverging")))
    expect(failed_ops(wl.char_check, bad, inp) == {"newton_iterate"},
           "characteristic: a raised RuntimeError is caught and counted")


def test_stripped_directory(tmp):
    stripped = tmp / "stripped"
    shutil.copytree(HERE, stripped / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
    start = time.perf_counter()
    proc = run_bench(stripped, "characteristic", 0)
    elapsed = time.perf_counter() - start
    expect(proc.returncode != 0 and not proc.stdout.strip() and elapsed < 180,
           f"without src/: exit {proc.returncode}, no result, {elapsed:.1f} s")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = ROOT / ".perfbench_tmp" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        test_fast_mode(spec)
        test_news_gates()
        test_cli_gates(tmp)
        test_characteristic_gates()
        test_stripped_directory(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
