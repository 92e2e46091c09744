import hashlib
import json
from pathlib import Path

import pytest

from nullinf import cli

REFERENCE_HASHES = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "cli_all.sha256.json"


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


def test_unreadable_config_exits_2(tmp_path):
    code = cli.run("geodesics", tmp_path / "nope.cfg", tmp_path / "out")
    assert code == 2


@pytest.mark.parametrize(
    "subcommand, text",
    [
        ("geodesics", "mass = abc\n"),
        ("geodesics", "mass = nan\n"),
        ("geodesics", "mass = -inf\n"),
        ("geodesics", "mass = 0.1\ns0 = twenty\n"),
        ("model-pde", "points_per_decade = 16.5\n"),
        ("bondi", "mass = 0.1\nu_samples = many\n"),
        ("index-sets", "truncation = 1/0\n"),
        ("verify-appendix", "mass = 0.1\nslack = NaN\n"),
        ("all", "mass = 0.1\nbondi.budget_tol = 1e400\n"),
        ("geodesics", "mass = -5\n"),
        ("geodesics", "mass = 0.1\ns0 = -3\n"),
        ("model-pde", "points_per_decade = 8\n"),
        ("model-pde", "rho_min = 0\n"),
        ("model-pde", "gamma = -1\n"),
        ("bondi", "mass = 0.1\nu_samples = 1\n"),
        ("bondi", "mass = 0.1\nquad_theta = 0\n"),
        ("bondi", "mass = 0.1\nnews_width = 0\n"),
        ("index-sets", "truncation = -1\n"),
        ("verify-appendix", "mass = 0.1\nwindow_low = 0\n"),
        ("verify-appendix", "mass = 0.1\nrho0 = 0\n"),
        ("model-pde", "rho_min = 0.5\n"),
        ("verify-appendix", "mass = 0.1\nwindow_low = 1e-2\nwindow_high = 1e-4\n"),
        ("bondi", "mass = 0.1\nu_start = 8\nu_end = -18\n"),
        ("bondi", "mass = 0.1\nu_start = -10\n"),
        ("bondi", "mass = 0.1\nnews_width = 2\n"),
        ("all", "mass = 0.1\nmodel_pde.eps = 1e-6\n"),
    ],
)
def test_bad_numeric_value_exits_2(tmp_path, capsys, subcommand, text):
    cfg = write_config(tmp_path, text)
    assert cli.run(subcommand, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_solver_error_is_a_failing_report_row(tmp_path, capsys):
    # x1bar = 1e9 sends the tortoise inversion outside r > 2m
    cfg = write_config(tmp_path, "mass = 0.1\nx1bar = 1e9\n")
    out = tmp_path / "out"
    assert cli.run("geodesics", cfg, out) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "FAIL solver-error: got ValueError: tortoise coordinate needs r > 2m" in captured.out
    rows = (out / "report_geodesics.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("solver-error,none,ValueError: tortoise")
    assert rows[1].endswith(",fail")


def test_index_sets_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, "truncation = 4\n")
    out = tmp_path / "out"
    code = cli.run("index-sets", cfg, out)
    assert code == 0
    assert (out / "report_index-sets.csv").exists()
    assert (out / "indexset_schwartz_radiation.txt").read_text().splitlines()[0] == "0 1"


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


def test_failed_check_exits_1(tmp_path):
    # a zero tolerance cannot pass against the fitted exponent
    cfg = write_config(tmp_path, "gamma = 0.5\nexponent_rel_tol = 0\n")
    assert cli.run("model-pde", cfg, tmp_path / "out") == 1


def test_list_checks():
    text = cli.list_checks()
    for name in ("index-sets", "model-pde", "geodesics", "bondi", "verify-appendix"):
        assert name in text


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
