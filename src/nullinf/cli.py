"""Configuration-driven experiment runner and CSV emitter.

Subcommands run the module pipelines on plain key=value configs, write
plot-ready CSVs plus a check report, and exit 0/1/2 for success, failed
checks, or config and IO errors.  Reruns with the same config are
byte-identical.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bondi as bd, indexsets as ix, modelpde as mp
from .geodesics import integrate_radial_null_geodesic
from .leading_terms import excess_decay_slopes
from .metrics import MetricField, manufactured_suite


class ConfigError(Exception):
    pass


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def emit_csv(header, rows, path: Path):
    """Write one table: header, then each row as it comes, at 17 significant digits."""
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


@dataclass
class Check:
    name: str
    expected: object
    got: object
    tolerance: float
    passed: bool


class RunReport:
    def __init__(self, name):
        self.name = name
        self.checks: list[Check] = []

    def add(self, name, expected, got, tolerance):
        """Check ``got`` against ``expected``; a value that could not be computed (None) fails as ``none``."""
        expected_f = float(expected)
        if got is None:
            self.checks.append(Check(name, expected_f, "none", tolerance, False))
            return False
        got_f = float(got)
        passed = abs(got_f - expected_f) <= tolerance
        self.checks.append(Check(name, expected_f, got_f, tolerance, passed))
        return passed

    def add_exact(self, name, expected, got):
        self.checks.append(Check(name, expected, got, 0.0, expected == got))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def rows(self):
        return [
            (c.name, _fmt(c.expected), _fmt(c.got), c.tolerance, "pass" if c.passed else "fail")
            for c in self.checks
        ]


# -- config handling ----------------------------------------------------------


def parse_config(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: repeated key {key}")
        out[key] = value
    return out


class Key(NamedTuple):
    """One row of the config table: a key's default, its reader and its window.

    ``SCHEMAS[subcommand][key]`` is the only place a key is described.  A
    given value is read once with ``read`` and checked against the window
    ``low`` (exclusive when ``strict``); the default is already a value of
    that type inside the window, or ``None`` for a required key.  Runners get
    the typed values and never read text.
    """

    default: object
    read: type = float
    low: float | None = None
    strict: bool = False    # the bound itself lies outside the window

    def window(self):
        return "" if self.low is None else f"{'>' if self.strict else '>='} {self.low:g}"

    def parse(self, subcommand, key, text):
        """The value of ``text``; a config error if it is not a finite value inside the window."""
        try:
            value = self.read(text)
        except (ValueError, ZeroDivisionError):
            what = "an integer" if self.read is int else "a number"
            raise ConfigError(f"{subcommand}: {key} = {text!r} is not {what}") from None
        # an integer too large for a float has no finite value either
        if self.read is float and not math.isfinite(value) or self.read is int and abs(value) > sys.float_info.max:
            raise ConfigError(f"{subcommand}: {key} = {text!r} is not finite")
        if self.low is not None and (value <= self.low if self.strict else value < self.low):
            raise ConfigError(f"{subcommand}: {key} = {text!r} is outside the window {key} {self.window()}")
        return value


MASS = Key(None, float, 0.0)

SCHEMAS = {
    "index-sets": {"truncation": Key(Fraction(4), Fraction, 0, strict=True)},
    "model-pde": {
        "gamma": Key(0.5, float, 0.0),
        "ell": Key(0, int, 0),
        "eps": Key(0.1, float, 0.0, strict=True),
        "rho_min": Key(1e-5, float, 1e-8),
        "points_per_decade": Key(16, int, 16),
        "forcing_amplitude": Key(1.0),
        "forcing_center": Key(0.01, float, 0.0, strict=True),
        "exponent_rel_tol": Key(0.10, float, 0.0),
    },
    "geodesics": {
        "mass": MASS,
        "x1bar": Key(-30.0),
        "theta": Key(1.1),
        "phi": Key(0.7),
        "s0": Key(20.0, float, 0.0, strict=True),
        "null_norm_tol": Key(1e-8, float, 0.0),
        "component_drift_tol": Key(1e-10, float, 0.0),
    },
    "bondi": {
        "mass": MASS,
        "news_amplitude": Key(1.0),
        "news_center": Key(-5.0),
        "news_width": Key(1.0, float, 0.0, strict=True),
        "u_start": Key(-18.0),
        "u_end": Key(8.0),
        "u_samples": Key(601, int, 2),
        "quad_theta": Key(16, int, 1),
        "quad_phi": Key(24, int, 1),
        "budget_tol": Key(1e-6, float, 0.0),
    },
    "verify-appendix": {
        "mass": MASS,
        "rho0": Key(0.1, float, 0.0, strict=True),
        "window_low": Key(1e-4, float, 0.0, strict=True),
        "window_high": Key(1e-2, float, 0.0, strict=True),
        "slack": Key(0.1, float, 0.0),
    },
}


#: relations between the keys of one subcommand, each with its test on the values
RELATIONS = {
    # the index recursion's work grows fast with the truncation: a whole run takes
    # 0.9-1.1 s at 4 and 1.3-1.6 s at 12, the recursion alone 0.6-0.9 s at 16
    # (2-vCPU host), and 1e400 ends in MemoryError
    "index-sets": [
        ("truncation <= 12", lambda v: v["truncation"] <= 12),
        # every power of an index set is a fraction with a bounded denominator
        (f"denominator(truncation) <= {ix.MAX_DENOMINATOR}",
         lambda v: v["truncation"].denominator <= ix.MAX_DENOMINATOR),
    ],
    "model-pde": [
        ("rho_min < eps", lambda v: v["rho_min"] < v["eps"]),
        # the leading-term fits square residuals of the solution, which is linear in
        # the amplitude; 1e150 squared stays 1e8 below the largest float
        ("abs(forcing_amplitude) <= 1e150", lambda v: abs(v["forcing_amplitude"]) <= 1e150),
        # time and the solution CSV grow with the cells, about 111 bytes a cell on disk;
        # the rows are written as they come, so the memory that grows is the march's 16: one
        # run takes 1.6-1.7 s and 73 MB for a 29 MB CSV at 263,169 cells, 5.8-6.7 s and
        # 86 MB for 117 MB at 1,050,625 (2-vCPU host).  A span eps / rho_min too large
        # for a float has no finite count of cells
        ("cells(eps, rho_min, points_per_decade) <= 1.1e6",
         lambda v: math.isfinite(v["eps"] / v["rho_min"]) and _model_grid(v).cells <= 1.1e6),
        # the march takes ell (ell + 1) as a float
        ("ell <= 1e154", lambda v: v["ell"] <= 1e154),
        # the forcing takes log(rhoI / forcing_center) for rhoI up to eps
        ("eps / forcing_center <= 1e300", lambda v: v["eps"] / v["forcing_center"] <= 1e300),
    ],
    "geodesics": [
        # the tail integrand squares the affine parameter up to s0 * 1e7
        ("s0 <= 1e147", lambda v: v["s0"] <= 1e147),
        # the radius reaches (s0 * 1e7 - x1bar) / 2, and the metric takes 2 r**2, which
        # overflows past r = 9.48e153; the bound keeps r at 9e153
        ("s0 * 1e7 - x1bar <= 1.8e154", lambda v: v["s0"] * 1e7 - v["x1bar"] <= 1.8e154),
        # the end panel of the tail integrals truncates 4 mass / (s0 * 1e7), which
        # warns above 1e-8; the bound keeps it at 8e-9
        ("mass <= 0.02 s0", lambda v: v["mass"] <= 0.02 * v["s0"]),
        # the angular directions of the chart are singular at the poles
        ("0 < theta < pi", lambda v: 0.0 < v["theta"] < math.pi),
        # the geodesic starts at r0 = (s0 - x1bar)/2 + 2 ln(2) mass, and a sweep samples
        # the force mass/r**2 on panels of ln(10)/32 s0: Picard fails for r0 up to
        # 0.33 (mass s0^2)^(1/3) at mass = 0.02 s0 (0.13 at 1e-3 s0, 0.024 at 1e-14 s0),
        # and at mass 0 for r0 within 1e-15 s0 of 0; the bound keeps r0 >= (mass s0^2)^(1/3) / 2
        ("s0 - x1bar >= (mass s0^2)^(1/3) + 1e-9 s0",
         lambda v: v["s0"] - v["x1bar"] >= v["mass"] ** (1 / 3) * v["s0"] ** (2 / 3) + 1e-9 * v["s0"]),
    ],
    "bondi": [
        ("u_start < u_end", lambda v: v["u_start"] < v["u_end"]),
        ("u_start <= news_center - 10 news_width and news_center + 10 news_width <= u_end",
         lambda v: v["u_start"] <= v["news_center"] - 10.0 * v["news_width"]
         and v["news_center"] + 10.0 * v["news_width"] <= v["u_end"]),
        # the retarded-time grid resolves the news profile; a span too large for a
        # float is inf here and fails, before np.linspace would overflow on it
        ("(u_end - u_start) / (u_samples - 1) <= news_width",
         lambda v: (v["u_end"] - v["u_start"]) / (v["u_samples"] - 1) <= v["news_width"]),
        # |news|^2 is news_amplitude**2 times |E|^2 < 2, and the mass aspect integrates
        # it over retarded time, a factor of about news_width: both stay 1e8 below the
        # largest float
        ("news_amplitude**2 * max(news_width, 1) <= 1e300",
         lambda v: v["news_amplitude"] * v["news_amplitude"] * max(v["news_width"], 1.0) <= 1e300),
        # time and memory grow with the retarded times times the quadrature nodes: one
        # run takes 2.5 s and 227 MB at 3.7e6 of them, 2.6 s and 556 MB at 1.2e7,
        # 4.1 s and 850 MB at 2e7 and 5.2 s and 1.3 GB at 3.3e7 (2-vCPU host)
        ("u_samples * quad_theta * quad_phi <= 2e7",
         lambda v: v["u_samples"] * v["quad_theta"] * v["quad_phi"] <= 2e7),
    ],
    "verify-appendix": [
        ("window_low < window_high", lambda v: v["window_low"] < v["window_high"]),
        # the decay fit takes log(-log rhoI)
        ("window_high < 1", lambda v: v["window_high"] < 1.0),
        # the compiled fields take 1/r**4 at radii up to r = 1/(rho0 window_low)
        ("rho0 * window_low >= 1e-60", lambda v: v["rho0"] * v["window_low"] >= 1e-60),
        # the sampled radii 1/(rho0 rhoI) reach down to 1/(rho0 window_high), which must
        # lie outside the horizon r = 2 mass; a product too large for a float is inf here
        ("2 mass rho0 window_high < 1", lambda v: 2.0 * v["mass"] * v["rho0"] * v["window_high"] < 1.0),
    ],
}


def _check_relations(subcommand, values, raw):
    """Reject values that break a relation; the message echoes the text the user gave."""
    for rule, holds in RELATIONS.get(subcommand, ()):
        if not holds(values):
            keys = dict.fromkeys(k for k in re.findall(r"[a-z_]\w*", rule) if k in values)
            # a default is shown as it would be written: 1e-5, not 1e-05
            got = ", ".join(f"{k} = {raw.get(k, str(values[k]).replace('e-0', 'e-'))}" for k in keys)
            raise ConfigError(f"{subcommand}: need {rule}; got {got}")


def resolve_options(subcommand, raw: dict) -> dict:
    """The typed value of every key of one subcommand: each given text read once, the rest defaults."""
    schema = SCHEMAS[subcommand]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config key(s) for {subcommand}: {', '.join(unknown)}")
    out = {}
    for key, rule in schema.items():
        if key in raw:
            out[key] = rule.parse(subcommand, key, raw[key])
        elif rule.default is None:
            raise ConfigError(f"missing required config key for {subcommand}: {key}")
        else:
            out[key] = rule.default
    _check_relations(subcommand, out, raw)
    return out


# -- subcommand pipelines -------------------------------------------------------


def run_index_sets(opts, outdir: Path) -> RunReport:
    trunc = opts["truncation"]
    report = RunReport("index-sets")

    cases = {
        "schwartz": (ix.IndexSet.empty(trunc), True),
        "taylor-ladder": (ix.IndexSet.single(1, 0, trunc), True),
        "taylor-plain": (ix.IndexSet.single(1, 0, trunc), False),
    }
    expected = {
        ("schwartz", "radiation"): {0: 1, 1: 4, 2: 7, 3: 10},
        ("schwartz", "radiation-good"): {1: 2, 2: 5, 3: 8},
        ("schwartz", "temporal"): {0: 0, 1: 6, 2: 15, 3: 27},
        ("taylor-ladder", "radiation"): {0: 1, 1: 6, 2: 14, 3: 25},
        ("taylor-ladder", "radiation-good"): {1: 3, 2: 9, 3: 18},
        ("taylor-ladder", "temporal"): {0: 0, 1: 8, 2: 24, 3: 51},
        ("taylor-plain", "radiation"): {0: 1, 1: 6, 2: 11, 3: 16},
        ("taylor-plain", "radiation-good"): {1: 3, 2: 8, 3: 13},
        ("taylor-plain", "temporal"): {0: 0, 1: 8, 2: 21, 3: 39},
    }
    for label, (seed, flag) in cases.items():
        res = ix.solve_index_recursion(seed, trunc, include_elog_prime=flag)
        sets = {
            "spatial": res.e0,
            "radiation": res.ei,
            "radiation-good": res.ei_prime,
            "radiation-bounded": res.ei_bar,
            "temporal": res.eplus,
        }
        for name, s in sets.items():
            (outdir / f"indexset_{label}_{name}.txt").write_text(ix.serialize(s))
            want = expected.get((label, name))
            if want is None:
                continue
            for p, k in want.items():
                if Fraction(p) >= trunc:
                    continue
                got = s.log_bound(p)
                report.add_exact(f"{label}/{name}/power-{p}", k, got)
    return report


def _model_grid(opts):
    return mp.CharacteristicGrid(
        eps=opts["eps"],
        rho0_min=opts["rho_min"],
        rhoI_min=opts["rho_min"],
        points_per_decade=opts["points_per_decade"],
        ell=opts["ell"],
    )


def run_model_pde(opts, outdir: Path) -> RunReport:
    report = RunReport("model-pde")
    gamma = opts["gamma"]
    grid = _model_grid(opts)
    amp = opts["forcing_amplitude"]
    center = opts["forcing_center"]

    def bump(x, c, width):
        z = np.log(np.asarray(x, dtype=float) / c) / 1.2
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        out[inside] = np.exp(-(z[inside] ** 2) / (1.0 - z[inside] ** 2) / width)
        return out

    forcing = lambda r0, rI: amp * bump(r0, 2e-2, 0.6) * bump(rI, center, 0.4)
    sol = mp.solve_damped_mode(grid, gamma, forcing)

    def cells():
        # each grid node is formatted once, and the values are read one rho0 row at a time
        rhoI = [_fmt(x) for x in grid.rhoI]
        for r0, u, w in zip(grid.rho0, sol.u, sol.w):
            r0 = _fmt(r0)
            for rI, u_ij, w_ij in zip(rhoI, u.tolist(), w.tolist()):
                yield r0, rI, grid.ell, "u", u_ij
                yield r0, rI, grid.ell, "w", w_ij

    emit_csv(("rho0", "rhoI", "l", "component", "value"), cells(), outdir / "modelpde_solution.csv")

    fit = sol.leading_fit("const", rho0_value=0.05)
    fit_log = sol.leading_fit("log+const", rho0_value=0.05)
    emit_csv(
        ("component", "c_log", "c0", "exponent", "residual"),
        (
            ("u", 0.0, fit.c0, fit.exponent if fit.exponent is not None else 0.0, fit.residual),
            ("u-logmodel", fit_log.c_log, fit_log.c0, 0.0, fit_log.residual),
        ),
        outdir / "modelpde_summary.csv",
    )
    if gamma > 0:
        report.add("decay-exponent", gamma, fit.exponent, opts["exponent_rel_tol"] * gamma)
    else:
        report.add("leading-term-present", 0.0, 1.0 / max(abs(fit.c0), 1e-300), 1e6)
    return report


def run_geodesics(opts, outdir: Path) -> RunReport:
    report = RunReport("geodesics")
    metric = MetricField(opts["mass"])
    traj = integrate_radial_null_geodesic(
        metric,
        opts["x1bar"],
        np.array([opts["theta"], opts["phi"]]),
        s0=opts["s0"],
    )
    nn = traj.null_norm(metric)
    emit_csv(
        ("s", "x0", "x1", "x2", "x3", "v0", "v1", "v2", "v3", "nullnorm"),
        ((s, *x, *v, n) for s, x, v, n in zip(traj.s, traj.x, traj.v, nn)),
        outdir / "trajectory.csv",
    )
    report.add("null-norm", 0.0, np.max(np.abs(nn)), opts["null_norm_tol"])
    drift = max(
        np.max(np.abs(traj.x[:, 1] - opts["x1bar"])),
        np.max(np.abs(traj.x[:, 2] - opts["theta"])),
        np.max(np.abs(traj.x[:, 3] - opts["phi"])),
    )
    report.add("component-drift", 0.0, drift, opts["component_drift_tol"])
    return report


def run_bondi(opts, outdir: Path) -> RunReport:
    report = RunReport("bondi")
    m = opts["mass"]
    amp = opts["news_amplitude"]
    center = opts["news_center"]
    width = opts["news_width"]
    u = np.linspace(opts["u_start"], opts["u_end"], opts["u_samples"])

    def profile(uu):
        uu = np.asarray(uu, dtype=float)
        z = (uu - center) / width
        return amp * np.exp(-(z**2)) * (np.abs(z) < 10.0)

    news = bd.NewsTensor(
        [(profile, bd.tensor_harmonic(2, 0))],
        (center - 10.0 * width, center + 10.0 * width),
    )
    rep = bd.evolve_mass_aspect(news, m, u, quad=(opts["quad_theta"], opts["quad_phi"]))
    emit_csv(
        ("u", "M_B", "E", "budget_residual"),
        zip(rep.u, rep.mass, rep.flux, rep.budget_residual),
        outdir / "bondi_report.csv",
    )
    report.add("mass-loss-budget", 0.0, np.max(rep.budget_residual), opts["budget_tol"])
    report.add("initial-mass", m, rep.mass[0], 0.0)
    if amp == 0.0:
        report.add("mass-constant", 0.0, np.ptp(rep.mass), 0.0)
    return report


def check_field(index, opts):
    """The label and the line checks of field ``index`` of ``manufactured_suite()``.

    ``opts`` are the resolved verify-appendix options.  Each field is one task
    of ``run_verify_appendix``'s worker pool, so this runs in a worker process.
    """
    h = manufactured_suite()[index]
    checks = excess_decay_slopes(
        h,
        opts["mass"],
        rho0=opts["rho0"],
        window=(opts["window_low"], opts["window_high"]),
        slack=opts["slack"],
    )
    return h.label, checks


def run_verify_appendix(opts, outdir: Path) -> RunReport:
    report = RunReport("verify-appendix")
    count = len(manufactured_suite())
    # the CPUs this process may use; sched_getaffinity exists on Linux only
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # forked workers start with sympy and nullinf imported; Linux forks by
    # default only up to Python 3.13, so ask for it rather than get forkserver
    context = multiprocessing.get_context("fork") if sys.platform.startswith("linux") else None
    with ProcessPoolExecutor(min(count, cpus), mp_context=context) as pool:
        # the fields late in the suite cost the most: submit them first
        futures = [pool.submit(check_field, i, opts) for i in reversed(range(count))]
        fields = [f.result() for f in reversed(futures)]
    for label, checks in fields:
        for c in checks:
            report.add(f"{label}/{c.line_id}", 0.0, 0.0 if c.passed else max(c.required - c.slope, 1.0), 0.0)
    emit_csv(
        ("line_id", "point", "numeric", "leading_formula", "fitted_excess_decay", "pass"),
        (
            (c.line_id, label, c.max_abs_diff, c.leading_scale,
             c.slope if math.isfinite(c.slope) else 99.0, "pass" if c.passed else "fail")
            for label, checks in fields
            for c in checks
        ),
        outdir / "appendix_lines.csv",
    )
    return report


RUNNERS = {
    "index-sets": run_index_sets,
    "model-pde": run_model_pde,
    "geodesics": run_geodesics,
    "bondi": run_bondi,
    "verify-appendix": run_verify_appendix,
}


def _write_report(report: RunReport, outdir: Path):
    emit_csv(
        ("name", "expected", "got", "tolerance", "pass"),
        report.rows(),
        outdir / f"report_{report.name}.csv",
    )


def _run_one(name, options, outdir: Path) -> RunReport:
    try:
        return RUNNERS[name](options, outdir)
    except (RuntimeError, ValueError) as exc:
        # a solver that fails (Picard, Newton, tortoise inversion) is a failed check
        report = RunReport(name)
        # one CSV field: no commas, no line breaks
        message = " ".join(f"{type(exc).__name__}: {exc}".replace(",", ";").split())
        report.add_exact("solver-error", "none", message)
        return report


def run(subcommand, config_path, outdir) -> int:
    """Execute one subcommand (or ``all``); returns the process exit code."""
    try:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        raw = parse_config(Path(config_path)) if config_path else {}
        names = list(RUNNERS) if subcommand == "all" else [subcommand]
        sliced = _slice_config(raw) if subcommand == "all" else {subcommand: raw}
        options = {name: resolve_options(name, sliced[name]) for name in names}
        reports = [_run_one(name, options[name], outdir) for name in names]
        for report in reports:
            _write_report(report, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2

    ok = True
    for report in reports:
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            print(f"[{report.name}] {status} {c.name}: got {_fmt(c.got)} (expected {_fmt(c.expected)} +- {c.tolerance:g})")
        ok = ok and report.passed
    return 0 if ok else 1


def _slice_config(raw: dict) -> dict:
    """Split a config for ``all`` by subcommand.

    ``model_pde.gamma`` goes to model-pde only, a bare key to every
    subcommand whose schema has it; a prefixed key wins over a bare one
    whatever the line order.  Any other key is a config error.
    """
    sections = {name.replace("-", "_"): name for name in SCHEMAS}
    out = {name: {} for name in SCHEMAS}
    unknown = []
    for key, value in raw.items():
        section, dot, rest = key.partition(".")
        if dot and section in sections:
            out[sections[section]][rest] = value
            continue
        homes = [name for name, schema in SCHEMAS.items() if key in schema]
        if not homes:
            unknown.append(key)
        for name in homes:
            out[name].setdefault(key, value)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return out


def _describe(key, rule):
    notes = [n for n in ("required" if rule.default is None else "", rule.window()) if n]
    return f"{key} ({', '.join(notes)})" if notes else key


def list_checks():
    lines = []
    for name, schema in SCHEMAS.items():
        keys = ", ".join(_describe(k, rule) for k, rule in schema.items())
        lines.append(f"{name}: config keys: {keys}")
        rules = "; ".join(rule for rule, _ in RELATIONS.get(name, ()))
        if rules:
            lines.append(f"{name}: relations: {rules}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nullinf",
        description="Experiment runner for the compactified null-infinity toolkit.",
    )
    parser.add_argument("subcommand", choices=[*RUNNERS, "all"])
    parser.add_argument("--config", default=None, help="plain key=value config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args(argv)
    if args.list_checks:
        print(list_checks())
        return 0
    return run(args.subcommand, args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
