"""The three benchmark workloads: seeded inputs, set-up, timed work and gates.

Each workload has three parts, listed in ``WORKLOADS`` at the end: ``setup``
(symbolic construction and compile, timed as set-up), ``work`` (the fixed
work, timed as the solve) and ``check`` (the correctness gates, untimed).
``work`` catches the ``RuntimeError`` and ``ValueError`` that solvers raise
for a failed operation and stores it in place of the result, so ``check``
can count it and the run goes on; its result also carries the work units
delivered, for the throughput lines of the report.  ``check`` is a pure
function of the stored results, which lets the self-tests corrupt a result
and watch the gate fire.

Only the standard library is imported at module level: the parent process
draws inputs from here without importing numpy or nullinf.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

# the CLI compiles sympy expressions whose caches a second run in the same
# process would reuse, so each of its repeats needs a fresh process
FRESH_PROCESS_PER_REPEAT = {"cli_all"}

HERE = Path(__file__).resolve().parent

# -- seeded inputs ---------------------------------------------------------------
#
# A seed moves physical inputs only, on small quantized steps that keep the
# Picard sweep counts and grid sizes fixed; problem size never changes.  Seed
# 0 gives the nominal inputs.


def make_inputs(workload, seed):
    rng = random.Random(f"{workload}/{seed}")
    if workload == "news_congruence":
        nominal = {"amplitude": 0.1, "mass": 0.1, "u": -20.0, "phi_shift": 0.0}
        if seed == 0:
            return nominal
        return {
            "amplitude": round(0.1 + 0.01 * rng.randint(-2, 2), 3),
            "mass": round(0.1 + 0.005 * rng.randint(-2, 2), 3),
            "u": -20.0 + 0.25 * rng.randint(-4, 4),
            # within one azimuthal cell of the quadrature
            "phi_shift": round(rng.uniform(0.0, 2.0 * math.pi / NEWS_QUAD[1]), 6),
        }
    if workload == "cli_all":
        return {}  # the reference hashes pin one config
    if workload == "characteristic":
        nominal = {"gamma": 0.5, "f0_center": 1e-2, "f1_center": 2e-2}
        if seed == 0:
            return nominal
        return {
            "gamma": round(0.5 + 0.05 * rng.randint(-2, 2), 3),
            "f0_center": round(1e-2 * 10.0 ** (0.1 * rng.randint(-2, 2)), 8),
            "f1_center": round(2e-2 * 10.0 ** (0.1 * rng.randint(-2, 2)), 8),
        }
    raise ValueError(f"unknown workload {workload!r}")


# -- failure accounting -------------------------------------------------------------


class Failed:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc):
        self.reason = f"{type(exc).__name__}: {exc}"


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (RuntimeError, ValueError) as exc:
        return Failed(exc)


def _op(ops, name, value, ok=True, detail=""):
    """Record one operation: it fails if it raised or if ``ok`` is false."""
    if isinstance(value, Failed):
        ops.append((name, False, value.reason))
    else:
        ops.append((name, bool(ok), "" if ok else detail))


def _agree_with_median(values, rel_tol):
    """Which values lie within ``rel_tol`` of the median of all of them."""
    ordered = sorted(values)
    mid = ordered[len(ordered) // 2]
    return [mid > 0 and v > 0 and abs(v / mid - 1.0) <= rel_tol for v in values]


# -- news_congruence ------------------------------------------------------------------

# 24 sphere nodes, each with a 9-member angular stencil: 216 geodesics and, on
# the 225-node affine grid, 48,600 metric evaluations per Picard sweep
NEWS_QUAD = (4, 6)

NEWS_RADII = (100.0, 300.0, 1000.0)
# r (m - M_H(r)) and r max|r_area - r| are constant in r to a few parts in
# 1e4 at these radii: the deviations decay like 1/r.  The first product is at
# most about 3.3e-3 (amplitude 0.12), so a Hawking mass moved by 1e-6 shifts it
# by at least 3e-2 of itself.
NEWS_SCALING_TOL = 2e-3


def news_setup(inp, fast, workdir):
    from nullinf import bondi as bd
    from nullinf.metrics import RHO0, MetricField

    h, _ = bd.news_compatible_field(inp["amplitude"], 1 / (1 + 5 * RHO0))
    return MetricField(inp["mass"], h)


def news_work(metric, inp, fast):
    from nullinf import bondi as bd
    import numpy as np

    th, ph, w = bd.sphere_quadrature(*((2, 3) if fast else NEWS_QUAD))
    res = {"units": {"geodesics": 9 * len(th)}, "congruence": None, "cuts": {}, "hawking": {}, "area": {}}
    con = attempt(bd.Congruence, metric, inp["u"], th, ph + inp["phi_shift"], s0=20.0)
    res["congruence"] = con
    for rc in NEWS_RADII:
        cut = con if isinstance(con, Failed) else attempt(con.cut, rc)
        res["cuts"][rc] = cut
        if isinstance(cut, Failed):
            res["hawking"][rc] = res["area"][rc] = cut
            continue
        res["hawking"][rc] = attempt(bd.hawking_mass_of_cut, cut, w)
        ra = attempt(bd.area_radius, cut)
        res["area"][rc] = ra if isinstance(ra, Failed) else float(np.max(np.abs(ra - rc)))
    return res


def news_check(res, inp):
    ops = []
    _op(ops, "congruence", res["congruence"])
    for rc in NEWS_RADII:
        _op(ops, f"cut/r={rc:g}", res["cuts"][rc])
    for key, scaled in (
        ("hawking", lambda rc, v: rc * (inp["mass"] - v)),
        ("area", lambda rc, v: rc * v),
    ):
        values = res[key]
        good = [rc for rc in NEWS_RADII if not isinstance(values[rc], Failed)]
        agree = _agree_with_median([scaled(rc, values[rc]) for rc in good], NEWS_SCALING_TOL)
        verdict = dict(zip(good, agree))
        for rc in NEWS_RADII:
            _op(ops, f"{key}/r={rc:g}", values[rc], verdict.get(rc, False),
                f"{key} deviation at r={rc:g} is off its 1/r law: {values[rc]!r}")
    return ops


# -- cli_all ------------------------------------------------------------------------------

# The configuration from the README.
CLI_CONFIG = "mass = 0.1\nmodel_pde.gamma = 0.25\nbondi.news_amplitude = 0.5\n"
CLI_REPORT_ROWS = 134
CLI_HASHES = HERE / "reference" / "cli_all.sha256.json"


def cli_setup(inp, fast, workdir):
    import nullinf.cli

    config = Path(workdir) / "exp.cfg"
    config.write_text(CLI_CONFIG)
    return nullinf.cli, config, Path(workdir) / "out"


def cli_work(state, inp, fast):
    cli, config, out = state
    with contextlib.redirect_stdout(io.StringIO()):
        code = attempt(cli.main, ["all", "--config", str(config), "--out", str(out)])
    return {"units": {}, "exit": code, "out": str(out)}


def output_hashes(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out).iterdir())}


def cli_check(res, inp):
    ops = []
    _op(ops, "exit-code", res["exit"], res["exit"] == 0, f"exit code {res['exit']!r}")
    out = Path(res["out"])
    rows = []
    for report in sorted(out.glob("report_*.csv")):
        with report.open(newline="") as fh:
            rows += [(report.stem, row) for row in csv.DictReader(fh)]
    for stem, row in rows:
        ok = row.get("pass") == "pass"
        _op(ops, f"{stem}/{row.get('name')}", row, ok, "report row failed")
    for k in range(len(rows), CLI_REPORT_ROWS):
        _op(ops, f"report-row-{k}", None, False, "report row missing")
    want = json.loads(CLI_HASHES.read_text())
    got = output_hashes(out) if out.is_dir() else {}
    for name in sorted(set(want) | set(got)):
        _op(ops, f"sha256/{name}", name, want.get(name) == got.get(name),
            f"{name}: expected {want.get(name)}, got {got.get(name)}")
    return ops


# -- characteristic ----------------------------------------------------------------------

CHAR_REFINEMENTS = (1, 2, 4)


def _compact_bump(center, width=0.4, support=1.2):
    """Smooth bump in log x, zero outside [center/e^support, center*e^support]."""
    import numpy as np

    def f(x):
        z = np.log(np.asarray(x, dtype=float) / center) / support
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        out[inside] = np.exp(-(z[inside] ** 2) / (1.0 - z[inside] ** 2) / width)
        return out

    return f


def char_setup(inp, fast, workdir):
    from nullinf import modelpde as mp

    grid = mp.CharacteristicGrid(eps=0.1, rho0_min=1e-5, rhoI_min=1e-5,
                                 points_per_decade=16 if fast else 128)
    b0, b1 = _compact_bump(2e-2, 0.6), _compact_bump(3e-2, 0.5)
    c0, c1 = _compact_bump(inp["f0_center"]), _compact_bump(inp["f1_center"])
    # the forcings of acceptance criterion 8, and criterion 7's for the damped mode
    f0 = lambda r0, rI: 12.0 * b0(r0) * c0(rI)
    f1 = lambda r0, rI: 2.0 * b1(r0) * c1(rI)
    fd = lambda r0, rI: b0(r0) * c0(rI)
    return mp, grid, (f0, f1, fd)


def char_work(state, inp, fast):
    mp, grid, (f0, f1, fd) = state
    gamma = inp["gamma"]
    newton = attempt(mp.newton_iterate, grid, gamma, forcing=(f0, f1, None), steps=8)
    damped = [attempt(mp.solve_damped_mode, grid.refined(k), gamma, fd) for k in CHAR_REFINEMENTS]
    # core cells marched: three modes per Newton step, plus each refinement
    cells = 0 if isinstance(newton, Failed) else 3 * len(newton[0]) * len(grid.rho0) * len(grid.rhoI)
    cells += sum(0 if isinstance(sol, Failed) else sol.u.size for sol in damped)
    return {"units": {"cells": cells}, "newton": newton, "damped": damped}


def char_check(res, inp):
    import numpy as np

    gamma = inp["gamma"]
    ops = []
    newton = res["newton"]
    ok, detail = True, ""
    if not isinstance(newton, Failed):
        # acceptance criterion 8, recomputed from the iterates
        iterates = newton[0]
        final = iterates[-1]
        errors = [max(float(np.max(np.abs(it[c].u - final[c].u))) for c in range(3)) for it in iterates]
        ratios = [0.0 if errors[k] == 0.0 else errors[k + 1] / errors[k] ** 2 for k in range(len(errors) - 1)]
        fits = [iterates[k][2].leading_fit("log+const", rho0_value=0.05) for k in (3, 4)]
        ok = all(r < 50.0 for r in ratios[1:5])
        ok &= abs(fits[0].c_log - fits[1].c_log) < 1e-6 and abs(fits[0].c0 - fits[1].c0) < 1e-6
        detail = f"ratios {ratios}, fits {fits}"
    _op(ops, "newton_iterate", newton, ok, detail)

    sols = res["damped"]
    for k, sol in zip(CHAR_REFINEMENTS, sols):
        ok, detail = True, ""
        if k == 1 and not isinstance(sol, Failed):
            fit = sol.leading_fit("const", rho0_value=0.05)
            ok = abs(fit.exponent - gamma) <= 0.1 * gamma
            detail = f"decay exponent {fit.exponent} for gamma {gamma}"
        if k == 4 and not any(isinstance(s, Failed) for s in sols):
            # second-order self-convergence, acceptance criterion 7
            e1 = np.max(np.abs(sols[0].u - sols[2].u[::4, ::4]))
            e2 = np.max(np.abs(sols[1].u[::2, ::2] - sols[2].u[::4, ::4]))
            order = math.log2(e1 / e2) if e1 > 0 and e2 > 0 else float("nan")
            ok = order >= 1.8
            detail = f"self-convergence order {order}"
        _op(ops, f"solve_damped_mode/x{k}", sol, ok, detail)
    return ops


# -- dispatch ---------------------------------------------------------------------------------

#: name -> (setup, work, check)
WORKLOADS = {
    "news_congruence": (news_setup, news_work, news_check),
    "cli_all": (cli_setup, cli_work, cli_check),
    "characteristic": (char_setup, char_work, char_check),
}
