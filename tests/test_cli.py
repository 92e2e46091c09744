import ast
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nullinf import cli, indexsets as ix, metrics
from nullinf.leading_terms import LineCheck, excess_decay_slopes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE_HASHES = PERFBENCH / "reference" / "cli_all.sha256.json"


def write_config(path: Path, text: str) -> Path:
    cfg = path / "exp.cfg"
    cfg.write_text(text)
    return cfg


def test_emit_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    cli.emit_csv(("a", "b"), [(1.0 / 3.0, "x"), (2.0, "y")], path)
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert float(lines[1].split(",")[0]) == 1.0 / 3.0  # 17 digits round-trip


def test_emit_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    cli.emit_csv(("a", "b"), [], path)
    assert path.read_text() == "a,b\n"


def test_missing_required_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "x1bar = -20\n")
    code = cli.run("geodesics", cfg, tmp_path / "out")
    assert code == 2
    assert "mass" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "mass = 0.1\nwrong_key = 3\n")
    code = cli.run("geodesics", cfg, tmp_path / "out")
    assert code == 2
    assert "wrong_key" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    code = cli.run("geodesics", tmp_path / "nope.cfg", tmp_path / "out")
    assert code == 2
    # a config that is not UTF-8 is unreadable too: one line, no traceback
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"mass = 0.1\n\xff\xfe = 1\n")
    capsys.readouterr()
    assert cli.run("geodesics", bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {bad}: ") and err.count("\n") == 1


#: an integer too large for a float
HUGE = "1" + "0" * 400

#: every bad config, and the one stderr line it gets; {cfg} stands for the config path
BAD_VALUES = {
    ("geodesics", "mass = abc\n"):
        "config error: geodesics: mass = 'abc' is not a number\n",
    ("geodesics", "mass = nan\n"):
        "config error: geodesics: mass = 'nan' is not finite\n",
    ("geodesics", "mass = -inf\n"):
        "config error: geodesics: mass = '-inf' is not finite\n",
    ("geodesics", "mass = 0.1\ns0 = twenty\n"):
        "config error: geodesics: s0 = 'twenty' is not a number\n",
    ("model-pde", "points_per_decade = 16.5\n"):
        "config error: model-pde: points_per_decade = '16.5' is not an integer\n",
    ("bondi", "mass = 0.1\nu_samples = many\n"):
        "config error: bondi: u_samples = 'many' is not an integer\n",
    ("index-sets", "truncation = 1/0\n"):
        "config error: index-sets: truncation = '1/0' is not a number\n",
    ("verify-appendix", "mass = 0.1\nslack = NaN\n"):
        "config error: verify-appendix: slack = 'NaN' is not finite\n",
    ("all", "mass = 0.1\nbondi.budget_tol = 1e400\n"):
        "config error: bondi: budget_tol = '1e400' is not finite\n",
    ("geodesics", "mass = -5\n"):
        "config error: geodesics: mass = '-5' is outside the window mass >= 0\n",
    ("geodesics", "mass = 0.1\ns0 = -3\n"):
        "config error: geodesics: s0 = '-3' is outside the window s0 > 0\n",
    ("model-pde", "points_per_decade = 8\n"):
        "config error: model-pde: points_per_decade = '8' is outside the window points_per_decade >= 16\n",
    ("model-pde", "rho_min = 0\n"):
        "config error: model-pde: rho_min = '0' is outside the window rho_min >= 1e-08\n",
    ("model-pde", "gamma = -1\n"):
        "config error: model-pde: gamma = '-1' is outside the window gamma >= 0\n",
    ("bondi", "mass = 0.1\nu_samples = 1\n"):
        "config error: bondi: u_samples = '1' is outside the window u_samples >= 2\n",
    ("bondi", "mass = 0.1\nquad_theta = 0\n"):
        "config error: bondi: quad_theta = '0' is outside the window quad_theta >= 1\n",
    ("bondi", "mass = 0.1\nnews_width = 0\n"):
        "config error: bondi: news_width = '0' is outside the window news_width > 0\n",
    ("index-sets", "truncation = -1\n"):
        "config error: index-sets: truncation = '-1' is outside the window truncation > 0\n",
    ("index-sets", "truncation = 1e400\n"):
        "config error: index-sets: need truncation <= 12; got truncation = 1e400\n",
    ("all", "mass = 0.1\nindex_sets.truncation = 25/2\n"):
        "config error: index-sets: need truncation <= 12; got truncation = 25/2\n",
    ("verify-appendix", "mass = 0.1\nwindow_low = 0\n"):
        "config error: verify-appendix: window_low = '0' is outside the window window_low > 0\n",
    ("verify-appendix", "mass = 0.1\nrho0 = 0\n"):
        "config error: verify-appendix: rho0 = '0' is outside the window rho0 > 0\n",
    ("model-pde", "rho_min = 0.5\n"):
        "config error: model-pde: need rho_min < eps; got rho_min = 0.5, eps = 0.1\n",
    ("verify-appendix", "mass = 0.1\nwindow_low = 1e-2\nwindow_high = 1e-4\n"):
        "config error: verify-appendix: need window_low < window_high; got window_low = 1e-2, window_high = 1e-4\n",
    ("bondi", "mass = 0.1\nu_start = 8\nu_end = -18\n"):
        "config error: bondi: need u_start < u_end; got u_start = 8, u_end = -18\n",
    ("bondi", "mass = 0.1\nu_start = -10\n"):
        "config error: bondi: need u_start <= news_center - 10 news_width and news_center + 10 news_width <= u_end; got u_start = -10, news_center = -5.0, news_width = 1.0, u_end = 8.0\n",
    ("bondi", "mass = 0.1\nnews_width = 2\n"):
        "config error: bondi: need u_start <= news_center - 10 news_width and news_center + 10 news_width <= u_end; got u_start = -18.0, news_center = -5.0, news_width = 2, u_end = 8.0\n",
    ("all", "mass = 0.1\nmodel_pde.eps = 1e-6\n"):
        "config error: model-pde: need rho_min < eps; got rho_min = 1e-5, eps = 1e-6\n",
    ("all", "mass = 0.1\nmodl_pde.gamma = 0.25\n"):
        "config error: unknown config key(s): modl_pde.gamma\n",
    ("all", "mass = 0.1\nmas = 0.2\n"):
        "config error: unknown config key(s): mas\n",
    ("verify-appendix", "mass = 0.1\nwindow_high = 5\n"):
        "config error: verify-appendix: need window_high < 1; got window_high = 5\n",
    ("verify-appendix", "mass = 0.1\nwindow_low = 1e-80\n"):
        "config error: verify-appendix: need rho0 * window_low >= 1e-60; got rho0 = 0.1, window_low = 1e-80\n",
    ("verify-appendix", "mass = 0.1\nrho0 = 1e-80\n"):
        "config error: verify-appendix: need rho0 * window_low >= 1e-60; got rho0 = 1e-80, window_low = 0.0001\n",
    ("model-pde", "forcing_amplitude = 1e300\n"):
        "config error: model-pde: need abs(forcing_amplitude) <= 1e150; got forcing_amplitude = 1e300\n",
    ("bondi", "mass = 0.1\nu_start = -1e308\nu_end = 1e308\n"):
        "config error: bondi: need (u_end - u_start) / (u_samples - 1) <= news_width; got u_end = 1e308, u_start = -1e308, u_samples = 601, news_width = 1.0\n",
    ("bondi", "mass = 0.1\nu_start = -1e200\nu_end = 1e200\n"):
        "config error: bondi: need (u_end - u_start) / (u_samples - 1) <= news_width; got u_end = 1e200, u_start = -1e200, u_samples = 601, news_width = 1.0\n",
    ("bondi", "mass = 0.1\nnews_amplitude = 1e200\n"):
        "config error: bondi: need news_amplitude**2 * max(news_width, 1) <= 1e300; got news_amplitude = 1e200, news_width = 1.0\n",
    ("bondi", "mass = 0.1\nnews_amplitude = 1e150\nnews_width = 1e9\nu_start = -1e11\nu_end = 1e11\n"):
        "config error: bondi: need news_amplitude**2 * max(news_width, 1) <= 1e300; got news_amplitude = 1e150, news_width = 1e9\n",
    ("geodesics", "mass = 1e300\n"):
        "config error: geodesics: need mass <= 0.02 s0; got mass = 1e300, s0 = 20.0\n",
    ("geodesics", "mass = 0.5\n"):
        "config error: geodesics: need mass <= 0.02 s0; got mass = 0.5, s0 = 20.0\n",
    ("geodesics", "mass = 0.1\ns0 = 1e300\n"):
        "config error: geodesics: need s0 <= 1e147; got s0 = 1e300\n",
    ("geodesics", "mass = 0.1\ntheta = 0\n"):
        "config error: geodesics: need 0 < theta < pi; got theta = 0\n",
    ("geodesics", "mass = 0.1\ntheta = 3.141592653589793\n"):
        "config error: geodesics: need 0 < theta < pi; got theta = 3.141592653589793\n",
    ("model-pde", "eps = 1e300\n"):
        "config error: model-pde: need cells(eps, rho_min, points_per_decade) <= 1.1e6; got eps = 1e300, rho_min = 1e-5, points_per_decade = 16\n",
    ("model-pde", "eps = 1e308\nrho_min = 1e-8\n"):
        "config error: model-pde: need cells(eps, rho_min, points_per_decade) <= 1.1e6; got eps = 1e308, rho_min = 1e-8, points_per_decade = 16\n",
    ("model-pde", "rho_min = 1e-8\npoints_per_decade = 4000\n"):
        "config error: model-pde: need cells(eps, rho_min, points_per_decade) <= 1.1e6; got eps = 0.1, rho_min = 1e-8, points_per_decade = 4000\n",
    ("model-pde", f"points_per_decade = {HUGE}\n"):
        f"config error: model-pde: points_per_decade = '{HUGE}' is not finite\n",
    ("bondi", f"mass = 0.1\nu_samples = {HUGE}\n"):
        f"config error: bondi: u_samples = '{HUGE}' is not finite\n",
    ("model-pde", f"ell = {10**200}\n"):
        f"config error: model-pde: need ell <= 1e154; got ell = {10**200}\n",
    ("bondi", "mass = 0.1\nquad_theta = 100000000000000000000\n"):
        "config error: bondi: need u_samples * quad_theta * quad_phi <= 2e7; got u_samples = 601, quad_theta = 100000000000000000000, quad_phi = 24\n",
    ("bondi", "mass = 0.1\nu_samples = 1000000000\n"):
        "config error: bondi: need u_samples * quad_theta * quad_phi <= 2e7; got u_samples = 1000000000, quad_theta = 16, quad_phi = 24\n",
    ("bondi", "mass = 0.1\nquad_theta = 64\nquad_phi = 10000000\n"):
        "config error: bondi: need u_samples * quad_theta * quad_phi <= 2e7; got u_samples = 601, quad_theta = 64, quad_phi = 10000000\n",
    ("geodesics", "mass = 0.1\nx1bar = -1e300\n"):
        "config error: geodesics: need s0 * 1e7 - x1bar <= 1.8e154; got s0 = 20.0, x1bar = -1e300\n",
    ("geodesics", "mass = 0.1\nx1bar = -1e154\ns0 = 1e147\n"):
        "config error: geodesics: need s0 * 1e7 - x1bar <= 1.8e154; got s0 = 1e147, x1bar = -1e154\n",
    ("geodesics", "mass = 0.1\nx1bar = 19.14\n"):
        "config error: geodesics: need s0 - x1bar >= (mass s0^2)^(1/3) + 1e-9 s0; got s0 = 20.0, x1bar = 19.14, mass = 0.1\n",
    ("geodesics", "mass = 0\nx1bar = 20\n"):
        "config error: geodesics: need s0 - x1bar >= (mass s0^2)^(1/3) + 1e-9 s0; got s0 = 20.0, x1bar = 20, mass = 0\n",
    ("geodesics", "mass = 0.1\nx1bar = 1e300\n"):
        "config error: geodesics: need s0 - x1bar >= (mass s0^2)^(1/3) + 1e-9 s0; got s0 = 20.0, x1bar = 1e300, mass = 0.1\n",
    ("geodesics", "mass = 0.4\nx1bar = 14.571164746810188\n"):
        "config error: geodesics: need s0 - x1bar >= (mass s0^2)^(1/3) + 1e-9 s0; got s0 = 20.0, x1bar = 14.571164746810188, mass = 0.4\n",
    ("verify-appendix", "mass = 0.1\nrho0 = 501\n"):
        "config error: verify-appendix: need 2 mass rho0 window_high < 1; got mass = 0.1, rho0 = 501, window_high = 0.01\n",
    ("verify-appendix", "mass = 0.1\nrho0 = 500\n"):
        "config error: verify-appendix: need 2 mass rho0 window_high < 1; got mass = 0.1, rho0 = 500, window_high = 0.01\n",
    ("verify-appendix", "mass = 1e300\n"):
        "config error: verify-appendix: need 2 mass rho0 window_high < 1; got mass = 1e300, rho0 = 0.1, window_high = 0.01\n",
    ("verify-appendix", "mass = 0.1\nrho0 = 1e300\n"):
        "config error: verify-appendix: need 2 mass rho0 window_high < 1; got mass = 0.1, rho0 = 1e300, window_high = 0.01\n",
    ("model-pde", "forcing_center = 5e-324\n"):
        "config error: model-pde: need eps / forcing_center <= 1e300; got eps = 0.1, forcing_center = 5e-324\n",
    ("index-sets", "truncation = 1/128\n"):
        "config error: index-sets: need denominator(truncation) <= 64; got truncation = 1/128\n",
    ("index-sets", "truncation = 1e-300\n"):
        "config error: index-sets: need denominator(truncation) <= 64; got truncation = 1e-300\n",
    ("model-pde", "ell = -1\n"):
        "config error: model-pde: ell = '-1' is outside the window ell >= 0\n",
    ("model-pde", "eps = 0\n"):
        "config error: model-pde: eps = '0' is outside the window eps > 0\n",
    ("model-pde", "forcing_center = -1e-300\n"):
        "config error: model-pde: forcing_center = '-1e-300' is outside the window forcing_center > 0\n",
    ("model-pde", "exponent_rel_tol = -1\n"):
        "config error: model-pde: exponent_rel_tol = '-1' is outside the window exponent_rel_tol >= 0\n",
    ("geodesics", "mass = 0.1\nnull_norm_tol = -1e-300\n"):
        "config error: geodesics: null_norm_tol = '-1e-300' is outside the window null_norm_tol >= 0\n",
    ("geodesics", "mass = 0.1\ncomponent_drift_tol = -1\n"):
        "config error: geodesics: component_drift_tol = '-1' is outside the window component_drift_tol >= 0\n",
    ("bondi", "mass = -1\n"):
        "config error: bondi: mass = '-1' is outside the window mass >= 0\n",
    ("bondi", "mass = 0.1\nquad_phi = 0\n"):
        "config error: bondi: quad_phi = '0' is outside the window quad_phi >= 1\n",
    ("bondi", "mass = 0.1\nbudget_tol = -1e300\n"):
        "config error: bondi: budget_tol = '-1e300' is outside the window budget_tol >= 0\n",
    ("verify-appendix", "mass = -1e-300\n"):
        "config error: verify-appendix: mass = '-1e-300' is outside the window mass >= 0\n",
    ("verify-appendix", "mass = 0.1\nwindow_high = 0\n"):
        "config error: verify-appendix: window_high = '0' is outside the window window_high > 0\n",
    ("verify-appendix", "mass = 0.1\nslack = -1\n"):
        "config error: verify-appendix: slack = '-1' is outside the window slack >= 0\n",
    ("geodesics", "mass = 0.1\nmass = 0.2\n"):
        "config error: {cfg}:2: repeated key mass\n",
    ("all", "model_pde.gamma = 0.25\nmass = 0.1\nmodel_pde.gamma = 0.3\n"):
        "config error: {cfg}:3: repeated key model_pde.gamma\n",
}


@pytest.mark.parametrize("subcommand, text", list(BAD_VALUES))
def test_bad_numeric_value_exits_2(tmp_path, capsys, subcommand, text):
    cfg = write_config(tmp_path, text)
    assert cli.run(subcommand, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("subcommand, text", list(BAD_VALUES))
def test_bad_value_message_is_pinned(tmp_path, capsys, subcommand, text):
    cfg = write_config(tmp_path, text)
    cli.run(subcommand, cfg, tmp_path / "out")
    assert capsys.readouterr().err == BAD_VALUES[subcommand, text].replace("{cfg}", str(cfg))


def test_every_window_and_relation_has_a_bad_value_row():
    windows = {(name, f"{key} {rule.window()}") for name, schema in cli.SCHEMAS.items()
               for key, rule in schema.items() if rule.low is not None}
    relations = {(name, rule) for name, rules in cli.RELATIONS.items() for rule, _ in rules}
    messages = [m.split(": ", 2)[1:] for m in BAD_VALUES.values()]
    assert windows <= {(name, m.split(" is outside the window ")[-1].rstrip()) for name, m in messages}
    assert relations <= {(name, m.removeprefix("need ").split("; got ")[0]) for name, m in messages}


def _edge_texts(key):
    """Config texts of a key's lowest allowed value, the value just below it, +-1e300 and 1e-300."""
    if key.read is int:
        edges = [str(key.low), str(key.low - 1)] if key.low is not None else []
        return edges + [str(10**300), str(-(10**300)), "1e-300"]
    if key.read is Fraction:
        # no smallest rational lies above a strict bound: the lowest allowed is the
        # smallest power an index set holds
        edges = [f"1/{ix.MAX_DENOMINATOR}", str(key.low)]
    elif key.low is None:
        edges = []
    else:
        lowest = float(np.nextafter(key.low, np.inf)) if key.strict else float(key.low)
        edges = [repr(lowest), repr(float(np.nextafter(lowest, -np.inf)))]
    return edges + ["1e300", "-1e300", "1e-300"]


CONTRACT_CASES = [(name, key, text) for name, schema in cli.SCHEMAS.items()
                  for key, rule in schema.items() for text in _edge_texts(rule)]


@pytest.mark.parametrize("subcommand, key, text", CONTRACT_CASES,
                         ids=[f"{name}-{key}={text[:12]}" for name, key, text in CONTRACT_CASES])
def test_every_key_keeps_the_exit_code_contract(tmp_path, capsys, subcommand, key, text):
    # required keys other than the one under test get a value inside every window
    raw = {k: "0.1" for k, rule in cli.SCHEMAS[subcommand].items() if rule.default is None}
    raw[key] = text
    cfg = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in raw.items()))
    out = tmp_path / "out"
    # a warning becomes an exception, and any exception that leaves cli.run is a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(subcommand, cfg, out)
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("config error: ") and err.count("\n") == 1
        return
    assert code in (0, 1) and err == ""
    # an admitted value is inside the range every solver handles
    assert "solver-error" not in (out / f"report_{subcommand}.csv").read_text()


@pytest.mark.parametrize("first, second", [("bondi.mass = 0.3", "mass = 0.1"), ("mass = 0.1", "bondi.mass = 0.3")])
def test_prefixed_key_wins_over_bare_key(tmp_path, first, second):
    sliced = cli._slice_config(cli.parse_config(write_config(tmp_path, f"{first}\n{second}\n")))
    assert sliced["bondi"] == {"mass": "0.3"}
    assert sliced["geodesics"] == sliced["verify-appendix"] == {"mass": "0.1"}


@pytest.mark.parametrize("subcommand", list(cli.SCHEMAS))
def test_defaults_lie_in_their_windows_and_relations(subcommand):
    schema = cli.SCHEMAS[subcommand]
    defaults = cli.resolve_options(subcommand, {k: "0.1" for k, key in schema.items() if key.default is None})
    assert all(type(defaults[k]) is key.read for k, key in schema.items())
    # each value read back from its text passes its window, and together they pass every relation
    assert cli.resolve_options(subcommand, {k: str(v) for k, v in defaults.items()}) == defaults


def test_solver_error_is_a_failing_report_row(tmp_path, capsys, monkeypatch):
    # the relations keep every admitted x1bar outside the horizon, so the solver is handed
    # x1bar = 1e9, which sends the tortoise inversion outside r > 2m
    solve = cli.integrate_radial_null_geodesic
    monkeypatch.setattr(cli, "integrate_radial_null_geodesic",
                        lambda metric, x1bar, angles, s0: solve(metric, 1e9, angles, s0=s0))
    cfg = write_config(tmp_path, "mass = 0.1\n")
    out = tmp_path / "out"
    assert cli.run("geodesics", cfg, out) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "FAIL solver-error: got ValueError: tortoise coordinate needs r > 2m" in captured.out
    rows = (out / "report_geodesics.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("solver-error,none,ValueError: tortoise")
    assert rows[1].endswith(",fail")


def _fail_in_worker(how):
    """A stand-in for ``excess_decay_slopes`` that fails on the first field of the suite and checks no line of the others."""
    def slopes(h, m, **kwargs):
        if h.label == metrics.manufactured_suite()[0].label:
            how()
        return []
    return slopes


def _raise_value_error():
    raise ValueError("no decay, in a worker")


@pytest.mark.parametrize("how, message", [
    (_raise_value_error, "ValueError: no decay; in a worker"),
    (lambda: os._exit(3), "BrokenProcessPool: A process in the process pool was terminated abruptly"
                          " while the future was running or pending."),
], ids=["value-error", "os-exit"])
def test_failed_worker_is_a_solver_error_row(tmp_path, capsys, monkeypatch, how, message):
    """A worker that raises, or dies, fails the run with one solver-error row and leaves no child behind.

    The stand-in reaches the workers because they are forked from this process,
    monkeypatch included.
    """
    monkeypatch.setattr(cli, "excess_decay_slopes", _fail_in_worker(how))
    out = tmp_path / "out"
    assert cli.run("verify-appendix", write_config(tmp_path, "mass = 0.1\n"), out) == 1
    assert capsys.readouterr().err == ""
    rows = (out / "report_verify-appendix.csv").read_text().splitlines()
    assert rows[1:] == [f"solver-error,none,{message},0,fail"]
    assert not (out / "appendix_lines.csv").exists()
    assert multiprocessing.active_children() == []


def test_fields_run_in_one_worker_per_usable_cpu(tmp_path, monkeypatch):
    """Each field runs in a worker process, and a single usable CPU gives a single worker.

    The stand-in that reports its process id reaches the workers because they are
    forked from this process, monkeypatch included.
    """
    def slopes(h, m, **kwargs):
        return [LineCheck(str(os.getpid()), 1.0, 0.0, True, 0.0, 0.0)]

    def workers(out):
        rows = (out / "appendix_lines.csv").read_text().splitlines()[1:]
        return {int(row.split(",")[0]) for row in rows}

    monkeypatch.setattr(cli, "excess_decay_slopes", slopes)
    cfg = write_config(tmp_path, "mass = 0.1\n")
    assert cli.run("verify-appendix", cfg, tmp_path / "many") == 0
    pids = workers(tmp_path / "many")
    assert os.getpid() not in pids and 1 <= len(pids) <= min(6, len(os.sched_getaffinity(0)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli.run("verify-appendix", cfg, tmp_path / "one") == 0
    assert len(workers(tmp_path / "one")) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("platform", ["linux", "darwin"])
def test_verify_appendix_pool_forks_on_linux(tmp_path, monkeypatch, platform):
    """On Linux the pool asks for fork, whatever the interpreter's default start method.

    Python 3.14 makes forkserver the Linux default; its workers would import
    sympy and nullinf afresh and miss a test's monkeypatch.  Elsewhere the
    platform's default stands.
    """
    contexts = []

    def recording(workers, mp_context=None):
        contexts.append(mp_context)
        return ThreadPoolExecutor(workers)   # no process starts under the stand-in platform

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording)
    monkeypatch.setattr(cli, "excess_decay_slopes", lambda h, m, **kwargs: [])
    monkeypatch.setattr(sys, "platform", platform)
    assert cli.run("verify-appendix", write_config(tmp_path, "mass = 0.1\n"), tmp_path / "out") == 0
    (context,) = contexts
    if platform == "linux":
        assert context.get_start_method() == "fork"
    else:
        assert context is None


@pytest.mark.parametrize("mass", ["0.1", "0.05"])
def test_verify_appendix_equals_the_serial_composition(tmp_path, mass):
    """The runner's outputs equal, byte for byte, a serial composition of the line checks in suite order.

    At mass 0.05 one line fails, so the failing report row is compared too.
    """
    opts = cli.resolve_options("verify-appendix", {"mass": mass})
    report = cli.run_verify_appendix(opts, tmp_path)
    rows, want = [], cli.RunReport("verify-appendix")
    for h in metrics.manufactured_suite():
        for c in excess_decay_slopes(h, opts["mass"], rho0=opts["rho0"],
                                     window=(opts["window_low"], opts["window_high"]), slack=opts["slack"]):
            rows.append((c.line_id, h.label, c.max_abs_diff, c.leading_scale,
                         c.slope if np.isfinite(c.slope) else 99.0, "pass" if c.passed else "fail"))
            want.add(f"{h.label}/{c.line_id}", 0.0, 0.0 if c.passed else max(c.required - c.slope, 1.0), 0.0)
    serial = tmp_path / "serial.csv"
    cli.emit_csv(("line_id", "point", "numeric", "leading_formula", "fitted_excess_decay", "pass"), rows, serial)
    assert (tmp_path / "appendix_lines.csv").read_bytes() == serial.read_bytes()
    assert report.rows() == want.rows() and len(want.rows()) == 96


def test_index_sets_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, "truncation = 4\n")
    out = tmp_path / "out"
    code = cli.run("index-sets", cfg, out)
    assert code == 0
    assert (out / "report_index-sets.csv").exists()
    assert (out / "indexset_schwartz_radiation.txt").read_text().splitlines()[0] == "0 1"


@pytest.mark.parametrize("trunc", ["1/64", "1/8", "1/4", "1/3"])
def test_index_sets_at_small_truncations_solve(tmp_path, trunc):
    # the radiation-face iteration from empty sets takes three steps even here
    cfg = write_config(tmp_path, f"truncation = {trunc}\n")
    out = tmp_path / "out"
    assert cli.run("index-sets", cfg, out) == 0
    assert "solver-error" not in (out / "report_index-sets.csv").read_text()


def test_bondi_zero_amplitude(tmp_path):
    cfg = write_config(
        tmp_path,
        "mass = 0.25\nnews_amplitude = 0\nu_samples = 101\nquad_theta = 8\nquad_phi = 12\n",
    )
    out = tmp_path / "out"
    assert cli.run("bondi", cfg, out) == 0
    lines = (out / "bondi_report.csv").read_text().splitlines()
    assert lines[0] == "u,M_B,E,budget_residual"
    assert all(float(line.split(",")[1]) == 0.25 for line in lines[1:])


def test_geodesics_subcommand_and_determinism(tmp_path):
    cfg = write_config(tmp_path, "mass = 0.1\ns0 = 25\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.run("geodesics", cfg, out1) == 0
    assert cli.run("geodesics", cfg, out2) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_model_pde_subcommand(tmp_path):
    cfg = write_config(tmp_path, "gamma = 0.5\npoints_per_decade = 16\n")
    out = tmp_path / "out"
    assert cli.run("model-pde", cfg, out) == 0
    header = (out / "modelpde_solution.csv").read_text().splitlines()[0]
    assert header == "rho0,rhoI,l,component,value"


@pytest.mark.parametrize("text", ["forcing_amplitude = 0\n", "forcing_center = 10\n"])
def test_model_pde_without_fitted_exponent_is_a_failing_row(tmp_path, capsys, text):
    # a forcing that vanishes on the grid leaves no remainder to fit an exponent to
    out = tmp_path / "out"
    assert cli.run("model-pde", write_config(tmp_path, text), out) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "[model-pde] FAIL decay-exponent: got none (expected 0.5 +- 0.05)" in captured.out
    row = (out / "report_model-pde.csv").read_text().splitlines()[1]
    assert row.startswith("decay-exponent,0.5,none,") and row.endswith(",fail")


@pytest.mark.parametrize("subcommand, text", [
    ("model-pde", "forcing_amplitude = 1e150\n"),
    ("model-pde", "forcing_amplitude = -1e150\nforcing_center = 0.1\n"),
    # the budget residual is round-off of values near 1e299, so its tolerance follows
    ("bondi", "mass = 0.1\nnews_amplitude = 1e150\nbudget_tol = 1e290\n"),
    ("bondi", "mass = 0.1\nnews_amplitude = 1e145\nnews_width = 1e10\nu_start = -2e11\nu_end = 2e11\nbudget_tol = 1e290\n"),
    # the geodesics relations at their bounds
    ("geodesics", "mass = 0.4\n"),
    ("geodesics", "mass = 2e145\ns0 = 1e147\n"),
    ("geodesics", "mass = 0\ns0 = 1e-300\n"),
    ("geodesics", "mass = 0.1\ntheta = 3.1415926535897927\n"),
    ("geodesics", "mass = 0.1\ntheta = 1e-300\n"),
    ("geodesics", "mass = 0.1\nx1bar = -1.8e154\n"),
    ("geodesics", "mass = 2e145\nx1bar = -8e153\ns0 = 1e147\n"),
    ("geodesics", "mass = 0.4\nx1bar = 14.571164746810187\n"),
    ("geodesics", "mass = 100\nx1bar = 953584.1106638722\ns0 = 1e6\n"),
    ("geodesics", "mass = 0\nx1bar = 19.99999998\n"),
])
def test_amplitude_at_its_bound_runs_without_runtime_warnings(tmp_path, capsys, subcommand, text):
    # any warning, such as the geodesics tail-truncation warning, would reach stderr outside pytest
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(subcommand, write_config(tmp_path, text), tmp_path / "out") == 0
    assert capsys.readouterr().err == ""


OVERSIZED = [
    ("model-pde", "eps = 1e300\n"),
    ("model-pde", "rho_min = 1e-8\npoints_per_decade = 4000\n"),
    ("bondi", "mass = 0.1\nu_samples = 1000000000\n"),
    ("bondi", "mass = 0.1\nquad_theta = 64\nquad_phi = 10000000\n"),
]


@pytest.mark.parametrize("subcommand, text", OVERSIZED, ids=[text for _, text in OVERSIZED])
def test_oversized_grid_is_rejected_before_any_allocation(tmp_path, subcommand, text):
    # the child gets 2 GiB of address space: one that reached the solver would ask for more
    # (11.7 GiB for 28001 x 56001 forcing values, 8 GB for 1e9 retarded times, 5 GB for
    # 64 x 1e7 quadrature nodes) and end in MemoryError, not exhaust the host
    limit = 2 * 2**30
    cfg = write_config(tmp_path, text)
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from nullinf.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", code,
         subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert (child.returncode, child.stderr) == (2, BAD_VALUES[subcommand, text])


def test_mode_number_at_its_bound_runs_without_warnings(tmp_path, capsys):
    # at such a mode the decay fit finds no remainder: a failed check, not an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run("model-pde", write_config(tmp_path, f"ell = {10**154}\n"), tmp_path / "out") == 1
    assert capsys.readouterr().err == ""


def test_failed_check_exits_1(tmp_path):
    # a zero tolerance cannot pass against the fitted exponent
    cfg = write_config(tmp_path, "gamma = 0.5\nexponent_rel_tol = 0\n")
    assert cli.run("model-pde", cfg, tmp_path / "out") == 1


def test_list_checks():
    text = cli.list_checks()
    for name in ("index-sets", "model-pde", "geodesics", "bondi", "verify-appendix"):
        assert name in text


LIST_CHECKS = (
    "index-sets: config keys: truncation (> 0)\n"
    "index-sets: relations: truncation <= 12; denominator(truncation) <= 64\n"
    "model-pde: config keys: gamma (>= 0), ell (>= 0), eps (> 0), rho_min (>= 1e-08), points_per_decade (>= 16), forcing_amplitude, forcing_center (> 0), exponent_rel_tol (>= 0)\n"
    "model-pde: relations: rho_min < eps; abs(forcing_amplitude) <= 1e150; cells(eps, rho_min, points_per_decade) <= 1.1e6; ell <= 1e154; eps / forcing_center <= 1e300\n"
    "geodesics: config keys: mass (required, >= 0), x1bar, theta, phi, s0 (> 0), null_norm_tol (>= 0), component_drift_tol (>= 0)\n"
    "geodesics: relations: s0 <= 1e147; s0 * 1e7 - x1bar <= 1.8e154; mass <= 0.02 s0; 0 < theta < pi; s0 - x1bar >= (mass s0^2)^(1/3) + 1e-9 s0\n"
    "bondi: config keys: mass (required, >= 0), news_amplitude, news_center, news_width (> 0), u_start, u_end, u_samples (>= 2), quad_theta (>= 1), quad_phi (>= 1), budget_tol (>= 0)\n"
    "bondi: relations: u_start < u_end; u_start <= news_center - 10 news_width and news_center + 10 news_width <= u_end; (u_end - u_start) / (u_samples - 1) <= news_width; news_amplitude**2 * max(news_width, 1) <= 1e300; u_samples * quad_theta * quad_phi <= 2e7\n"
    "verify-appendix: config keys: mass (required, >= 0), rho0 (> 0), window_low (> 0), window_high (> 0), slack (>= 0)\n"
    "verify-appendix: relations: window_low < window_high; window_high < 1; rho0 * window_low >= 1e-60; 2 mass rho0 window_high < 1"
)


def test_list_checks_text_is_pinned():
    assert cli.list_checks() == LIST_CHECKS


def test_main_list_checks_exits_0(capsys):
    assert cli.main(["all", "--list-checks"]) == 0
    assert capsys.readouterr().out == LIST_CHECKS + "\n"


def test_module_entry_point(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-m", "nullinf.cli", "index-sets", "--list-checks"],
                           capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert (child.returncode, child.stdout, child.stderr) == (0, LIST_CHECKS + "\n", "")


def test_comment_and_blank_config_lines_are_skipped(tmp_path):
    cfg = write_config(tmp_path, "# index sets\n\n   \ntruncation = 3  # the default is 4\n")
    assert cli.parse_config(cfg) == {"truncation": "3"}
    assert cli.run("index-sets", cfg, tmp_path / "out") == 0


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "truncation = 3\ntruncation 4\n")
    assert cli.run("index-sets", cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: {cfg}:2: expected key=value, got 'truncation 4'\n"


def test_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("")
    assert cli.run("index-sets", None, out) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and err.count("\n") == 1


def test_write_error_in_a_runner_exits_2(tmp_path, capsys, monkeypatch):
    def full_disk(header, rows, path):
        raise OSError(f"no space left to write {path.name}")

    monkeypatch.setattr(cli, "emit_csv", full_disk)
    assert cli.run("model-pde", None, tmp_path / "out") == 2
    assert capsys.readouterr().err == "io error: no space left to write modelpde_solution.csv\n"


def test_report_write_error_exits_2(tmp_path, capsys, monkeypatch):
    def full_disk(report, outdir):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_report", full_disk)
    assert cli.run("index-sets", None, tmp_path / "out") == 2
    captured = capsys.readouterr()
    assert captured.err == "io error: disk full\n"
    assert captured.out == ""  # no check line prints before the reports are written


def test_model_pde_without_damping_checks_the_leading_term(tmp_path):
    out = tmp_path / "out"
    assert cli.run("model-pde", write_config(tmp_path, "gamma = 0\n"), out) == 0
    rows = (out / "report_model-pde.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["leading-term-present"]


def test_main_entry(tmp_path):
    cfg = write_config(tmp_path, "truncation = 3\n")
    assert cli.main(["index-sets", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_all_is_union_of_subcommands(tmp_path):
    # the README config, whose outputs are pinned by their SHA-256
    cfg = write_config(tmp_path, "mass = 0.1\nmodel_pde.gamma = 0.25\nbondi.news_amplitude = 0.5\n")
    out_all = tmp_path / "all"
    assert cli.run("all", cfg, out_all) == 0
    for name in ("index-sets", "model-pde", "geodesics", "bondi", "verify-appendix"):
        report = out_all / f"report_{name}.csv"
        assert report.exists()
        assert all(line.endswith("pass") for line in report.read_text().splitlines()[1:])
    want = json.loads(REFERENCE_HASHES.read_text())
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_all.iterdir()}
    assert len(want) == 25 and got == want


def test_perfbench_trace_entry_points_resolve():
    # perfbench/tracer.py wraps each (module, attribute path) of its ENTRY_POINTS after a
    # fresh `import nullinf.cli`: each module must be in sys.modules by then, and a method
    # is looked up in its class __dict__.  The table is read with ast, so nothing under
    # perfbench/ is imported or written.
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ENTRY_POINTS"])
    points = [(entry.elts[0].value, entry.elts[1].value) for entry in table.elts]
    assert points
    script = (
        "import sys, nullinf.cli\n"
        f"for module, path in {points!r}:\n"
        "    owner = sys.modules['nullinf.' + module]\n"
        "    *outer, attr = path.split('.')\n"
        "    for part in outer:\n"
        "        owner = getattr(owner, part)\n"
        "    owner.__dict__[attr]\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
