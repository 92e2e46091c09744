"""Every expression tree handed to the compiler, pinned by the SHA-256 of its ``srepr``.

A refactor of the symbolic set-up that keeps these digests compiles the same
code, so it moves no bit of any output.  The double divergence of the news is
replaced by a constant here: its tree is free to change, and its value is
checked against the closed form in ``test_bondi.py``.
"""

import hashlib

import numpy as np
import pytest
import sympy as sp

from nullinf import bondi, cli, metrics, modelpde, tensors


def _run_bondi(tmp_path):
    cli.run_bondi(cli.resolve_options("bondi", {"mass": "0.1", "news_amplitude": "0.5"}), tmp_path)


def _check_fields(tmp_path):
    # the runner's work, field by field in suite order: the runner itself checks
    # its fields in worker processes, where the recorder sees no compile
    opts = cli.resolve_options("verify-appendix", {"mass": "0.1"})
    for index in range(len(metrics.manufactured_suite())):
        cli.check_field(index, opts)


def _news_tensor(tmp_path):
    profile = lambda u: np.exp(-np.asarray(u) ** 2)
    bondi.NewsTensor([(profile, bondi.tensor_harmonic(2, 0)), (profile, bondi.tensor_harmonic(2, 1))], (-5.0, 5.0))


def _news_field(tmp_path):
    h, _ = bondi.news_compatible_field(0.1, 1 / (1 + 5 * metrics.RHO0), mode=(2, 1), with_log=0.3)
    metrics.MetricField(0.1, h).at(60.0, -10.0, 1.1, 0.7).d2g   # the order <= 1 group, then order 2


def _news_field_20(tmp_path):
    h, _ = bondi.news_compatible_field(0.1, 1 / (1 + 5 * metrics.RHO0))
    metrics.MetricField(0.1, h).at(60.0, -10.0, 1.1, 0.7).d2g


def _manufactured(tmp_path):
    q, s, th, ph = np.array([60.0, 80.0]), np.array([-10.0, -12.0]), np.array([1.1, 0.4]), np.array([0.7, 2.0])
    for h in metrics.manufactured_suite():
        tensors.gauged_residual_11(h, 0.1, q, s, th, ph)
        modelpde.full_coupling_matrices(h, 0.1, 0.3, 0.2)


#: case -> (work, SHA-256 of the srepr of every (args, groups) pair compiled, in call order)
CASES = {
    "bondi-runner": (_run_bondi,
        "9dd23625651a33188892b15f1e16484dd24f4ad27cf222420a9d154d09bd4e69"),
    "verify-appendix-runner": (_check_fields,
        "4071a644cf37e2d671e540d6811dba564d2f64249308e55873a225a3622025c5"),
    "news-tensor-(2,0)+(2,1)": (_news_tensor,
        "b6f7c0985712d9db84a60cb6a417da520253a43e9f61226a11a68aa82b8c1f50"),
    "news-field-(2,1)-log": (_news_field,
        "28a6ce3cf87eb94af4d0d2ba98fc11c8b77ba741d5d49049af50a2d0690807f8"),
    "news-field-(2,0)": (_news_field_20,
        "b36b337c5a9578d8a5e23bb91fef46dac7be90dccd1c1eec4242a2f0eaad964e"),
    "manufactured-residual-and-coupling": (_manufactured,
        "f2eee794b5e6fdad58fac1a419bca3a18e8c2b45efab7e09f7e2031c3f7ff7f4"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_compiled_trees_are_pinned(tmp_path, monkeypatch, case):
    work, want = CASES[case]
    seen = []
    compiled = metrics._compiled

    def recording(args, groups):
        seen.append(sp.srepr((args, groups)))
        return compiled(args, groups)

    monkeypatch.setattr(metrics, "_compiled", recording)
    monkeypatch.setattr(bondi, "_double_divergence", lambda mat: sp.Integer(0))
    work(tmp_path)
    assert seen
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == want
