"""Leading-term laws for connection, gauge 1-form and Ricci components.

Each registered line states the closed-form leading part of one component
in terms of the perturbation and its null derivatives, together with the
decay order (in the radiation-face defining function) of the clipped
remainder.  The checker evaluates the numeric component along a line of
constant spatial-face defining function and fits the excess decay of
(numeric - leading) on a logarithmic window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .compactify import _mass, tortoise
from .metrics import (CHART, RR, TH, ROUND_METRIC, MetricField, PerturbationField, Weights, _diff_ops,
                      compile_fields, sphere_cov_vector, sphere_div_tensor, sphere_dot, sphere_trace)
from . import tensors


@dataclass(frozen=True)
class LeadingLine:
    line_id: str
    kind: str          # "gamma", "upsilon", "ricci"
    index: tuple       # component index of the numeric quantity
    remainder: float   # decay order of the remainder in the radiation variable
    barred: bool = False
    log_loss: bool = False   # class carries an arbitrarily small loss (log factors)


def _leading_exprs(h: PerturbationField, m, w: Weights):
    """Symbolic leading parts, keyed by line id, in (r, q, s, theta, phi)."""
    m = _mass(m)
    D = _diff_ops(m)
    hq = h.qs_exprs()
    h00, h01, h11 = hq["00"], hq["01"], hq["11"]
    h0b = [hq["02"], hq["03"]]
    h1b = [hq["12"], hq["13"]]
    hmat = sp.Matrix([[hq["22"], hq["23"]], [hq["23"], hq["33"]]])
    r = RR
    d0, d1 = D[0], D[1]
    trh = sphere_trace(hmat)
    cov_h1 = sphere_cov_vector(h1b)                 # nabla_c h_{1 d}
    div_h1 = sphere_trace(cov_h1)                   # nabla^d h_{1 d} (scalar)
    div_hb = sphere_div_tensor(hmat)                # nabla^d h_{c d}
    d1_hmat = hmat.applyfunc(d1)

    bI, bIp = w.bI, w.bI_prime
    lines = {}

    def add(line_id, kind, index, expr, remainder, barred=False, log_loss=False):
        lines[line_id] = (LeadingLine(line_id, kind, index, remainder, barred, log_loss), expr)

    add("Gamma^0_00", "gamma", (0, 0, 0), (m - h01) / r**2 - d1(h00) / r, 2 + bI)
    add("Gamma^0_01", "gamma", (0, 0, 1), d0(h11) / r - h11 / (2 * r**2), 2 + bIp,
        log_loss=True)
    add("Gamma^1_01", "gamma", (1, 0, 1), d1(h00) / r, 2 + bIp)
    add(
        "Gamma^0_0b", "gamma", (0, 0, 2),
        -d1(h0b[0]) + sp.diff(h01, TH) / r - h1b[0] / r, 1 + bI,
    )
    add(
        "Gamma^c_0b", "gamma", (2, 0, 2),
        (1 - 2 * m / r) / (2 * r) + hq["22"] / (4 * r**2),
        2 + bI,
    )
    add(
        "Gamma^0_11", "gamma", (0, 1, 1),
        d1(h11) / r + h11 / (2 * r**2) + 2 * (m - h01) * d1(h11) / r**2
        - 4 * h11 * d1(h01) / r**2 + 2 * sphere_dot(h1b, [d1(v) for v in h1b]) / r**2,
        3.0, log_loss=True,
    )
    add(
        "Gamma^1_11", "gamma", (1, 1, 1),
        (h01 - m) / r**2 + 2 * d1(h01) / r - d0(h11) / r + h11 / (2 * r**2)
        + 4 * (m - h01) * d1(h01) / r**2,
        2 + bIp, log_loss=True,
    )
    add(
        "Gamma^1_1b", "gamma", (1, 1, 2),
        d1(h0b[0]) + sp.diff(h01, TH) / r, 1 + bI,
    )
    add(
        "Gamma^1_ab", "gamma", (1, 2, 2),
        (r - 2 * h01) * ROUND_METRIC[0, 0] - hq["22"] / 2, bI,
    )
    add(
        "Gamma^0_ab", "gamma", (0, 2, 2),
        (-r + 2 * h01 - 2 * h11) * ROUND_METRIC[0, 0]
        - (r + 2 * m - 2 * h01) * d1(hmat[0, 0])
        + 2 * cov_h1[0, 0] + hmat[0, 0] / 2,
        1.0, log_loss=True,
    )

    add("Upsilon_0", "upsilon", (0,), 2 * d1(h00) / r + 2 * h01 / r**2, 2 + bI)
    add(
        "Upsilon_1", "upsilon", (1,),
        d1(trh) / (2 * r) + (h11 - 2 * h01) / r**2 - div_h1 / r**2
        + 2 * d0(h11) / r + sphere_dot(hmat, d1_hmat) / (2 * r**2),
        2 + bIp, log_loss=True,
    )
    add(
        "Upsilon_c", "upsilon", (2,),
        2 * d1(h0b[0]) - 2 * sp.diff(h01, TH) / r - div_hb[0] / r + 2 * h1b[0] / r,
        1 + bI,
    )

    add(
        "Ric_01", "ricci", (0, 1),
        d1(d1(h00)) / r + d1(h01) / r**2, 2 + bI,
    )
    add(
        "Ric_11", "ricci", (1, 1),
        d1(d1(trh)) / (2 * r) - d1(div_h1) / r**2 + sphere_dot(hmat, d1_hmat.applyfunc(d1)) / (2 * r**2)
        + (d1(h11) - 2 * d1(h01)) / r**2 + sphere_dot(d1_hmat, d1_hmat) / (4 * r**2),
        2 + bI,
    )
    add(
        "Ric_1b", "ricci", (1, 2),
        d1(d1(h0b[0])) / r - d1(sp.diff(h01, TH)) / r**2
        - d1(div_hb[0]) / (2 * r**2) + d1(h1b[0]) / r**2,
        2 + bI, barred=True,
    )
    return lines


def _fit_decay(lx, ly, with_logs=False):
    """Decay order of data on a log-log window.

    For classes that shed log factors, scans the model
    log(diff) = b log(rho) + k log(-log(rho)) + c over integer k and keeps
    the power of the best-fitting model; on a pure power law this reduces
    to the plain slope.
    """
    kmax = 3
    if not with_logs:
        return float(np.polyfit(lx, ly, 1)[0])
    best = (np.inf, float(np.polyfit(lx, ly, 1)[0]))
    ll = np.log(-lx)
    for k in range(kmax + 1):
        target = ly - k * ll
        coef = np.polyfit(lx, target, 1)
        resid = float(np.sum((np.polyval(coef, lx) - target) ** 2))
        if resid < best[0]:
            best = (resid, float(coef[0]))
    return best[1]


@dataclass
class LineCheck:
    line_id: str
    slope: float
    required: float
    passed: bool
    max_abs_diff: float
    leading_scale: float


def excess_decay_slopes(
    h: PerturbationField,
    m,
    rho0=0.1,
    window=(1e-4, 1e-2),
    slack=0.1,
):
    """Fit the decay of (numeric - leading) for every registered line.

    A line passes when the fitted slope meets its remainder order minus the
    slack.  The slope is infinite (the line passes) when fewer than 3 points
    of the residual clear the evaluation noise floor.  Each line is sampled
    at 9 points of ``window`` at the angles (1.1, 0.7).
    """
    npts = 9
    theta, phi = 1.1, 0.7
    m = _mass(m)
    lines = _leading_exprs(h, m, h.weights)

    rhoI = np.geomspace(window[0], window[1], npts)
    s = np.full(npts, -1.0 / rho0)
    r = -s[0] / rhoI
    rstar = tortoise(r, m)
    q = s + 2.0 * rstar
    th = np.full(npts, theta)
    ph = np.full(npts, phi)

    # both fields compile both orders as one function, one CSE: split builds
    # move the numeric lines' last bits, and with them appendix_lines.csv
    metric = MetricField(m, h, order=2)
    bg = MetricField(m, order=2)
    ev = metric.at(q, s, th, ph)
    ev_bg = bg.at(q, s, th, ph)
    numeric = {
        "gamma": tensors.christoffel(ev),
        "upsilon": tensors.gauge_oneform(ev, ev_bg),
        "ricci": tensors.riemann_ricci(ev)[1],
    }

    results = []
    for line_id, (line, expr) in lines.items():
        # one compile per line: a shared cse pass over all lines changes the bits
        lead = compile_fields(CHART, [expr])(r, q, s, th, ph)[0]
        num = numeric[line.kind][(slice(None),) + line.index]
        if line.barred:
            num = num / r
        diff = np.abs(num - lead)
        scale = float(np.max(np.abs(lead)) + np.max(np.abs(num)))
        floor = 1e-13 * max(scale, 1.0)
        usable = diff > floor
        slope = float("inf")
        if np.count_nonzero(usable) >= 3:
            slope = _fit_decay(np.log(rhoI[usable]), np.log(diff[usable]), with_logs=line.log_loss)
        required = line.remainder - slack
        results.append(LineCheck(line_id, slope, required, slope >= required,
                                 float(np.max(diff)), scale))
    return results
