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
    metrics.MetricField(0.1, h).at(60.0, -10.0, 1.1, 0.7).d2g   # the order <= 1 rows, then order 2


def _news_field_20(tmp_path):
    h, _ = bondi.news_compatible_field(0.1, 1 / (1 + 5 * metrics.RHO0))
    metrics.MetricField(0.1, h).at(60.0, -10.0, 1.1, 0.7).d2g


def _manufactured(tmp_path):
    q, s, th, ph = np.array([60.0, 80.0]), np.array([-10.0, -12.0]), np.array([1.1, 0.4]), np.array([0.7, 2.0])
    for h in metrics.manufactured_suite():
        tensors.gauged_residual_11(h, 0.1, q, s, th, ph)
        modelpde.full_coupling_matrices(h, 0.1, 0.3, 0.2)


#: case -> (work, SHA-256 of the srepr of every (args, expressions) pair compiled, in call order;
#: each pair is one CSE and one compiled function)
CASES = {
    "bondi-runner": (_run_bondi,
        "e3a05a342f1d7fad3edda9b116a0d8032ae0cd560b80bc72aabc83a706546958"),
    "verify-appendix-runner": (_check_fields,
        "b8a9b55cf375f6144f3521310b4481de86107a676d93de9a24f5ac74c504790b"),
    "news-tensor-(2,0)+(2,1)": (_news_tensor,
        "928e84d5e1c493d1773b18757f1606ea57192bd40b9a1e6d343e23e0a8bbdf23"),
    "news-field-(2,1)-log": (_news_field,
        "4f8c8d6f1f196d95136e8011735809530f4cb15067a6b66e98e5bc5a3e466a83"),
    "news-field-(2,0)": (_news_field_20,
        "58b70f00b705b0cf969c12c93345c8ae42d2239e6b237cb3310044f70c201e07"),
    "manufactured-residual-and-coupling": (_manufactured,
        "1cd3e8be6d22268dea5d161c2afe72aed973b1186d269540c418ff95b25b4ad5"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_compiled_trees_are_pinned(tmp_path, monkeypatch, case):
    work, want = CASES[case]
    seen = []
    compiled = metrics._compiled

    def recording(args, exprs):
        seen.append(sp.srepr((tuple(args), tuple(exprs))))
        return compiled(args, exprs)

    monkeypatch.setattr(metrics, "_compiled", recording)
    monkeypatch.setattr(bondi, "_double_divergence", lambda mat: sp.Integer(0))
    work(tmp_path)
    assert seen
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == want
